import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from carrollgeo import _fd
from carrollgeo.errors import ConstructionError
from carrollgeo.expressions import compile_expression, parse_number, parse_tuple


def test_basic_arithmetic():
    fn = compile_expression("2 * m + r^2", ("m", "r"))
    assert fn(1.5, 2.0) == 7.0


def test_functions_and_constants():
    fn = compile_expression("exp(sin(m)) / pi", ("m",))
    assert fn(0.3) == pytest.approx(math.exp(math.sin(0.3)) / math.pi)


def test_unary_minus():
    assert compile_expression("-t^2", ("t",))(3.0) == -9.0


def test_parse_number_pi_expression():
    assert parse_number("pi/2") == pytest.approx(math.pi / 2)
    assert parse_number("-1.5e-3") == -1.5e-3


def test_parse_tuple():
    assert parse_tuple("pi/2, 0, 1") == pytest.approx((math.pi / 2, 0.0, 1.0))


def test_rejects_unknown_names():
    with pytest.raises(ConstructionError):
        compile_expression("q + 1", ("m",))


def test_rejects_calls_outside_whitelist():
    with pytest.raises(ConstructionError):
        compile_expression("__import__('os')", ("m",))
    with pytest.raises(ConstructionError):
        compile_expression("open(m)", ("m",))


def test_rejects_attribute_access():
    with pytest.raises(ConstructionError):
        compile_expression("m.real", ("m",))


def test_domain_errors_surface_at_call_time():
    fn = compile_expression("sqrt(m - 2)", ("m",))
    assert fn(6.0) == 2.0
    with pytest.raises(ConstructionError, match="sqrt"):
        fn(0.0)


@pytest.mark.parametrize(
    "text, cause",
    [
        ("1/0", ZeroDivisionError),
        ("sqrt(-1)", ValueError),
        ("log(0)", ValueError),
        ("(-1)^0.5", ValueError),
        ("exp(1000)", OverflowError),
        ("10^400", OverflowError),
    ],
)
def test_arithmetic_errors_name_the_expression(text, cause):
    with pytest.raises(ConstructionError, match=re.escape(repr(text))) as info:
        parse_number(text)
    assert isinstance(info.value.__cause__, cause)



# -- forward mode ------------------------------------------------------------------

# every whitelisted function, the five operators, unary minus, pi and e, on
# arguments that stay inside their domains for x, y in [0.3, 1.3]
DERIVATIVE_CASES = [
    "exp(x - 2*y)", "sin(x*y)", "cos(x/y)", "tan(0.5*x + 0.2*y)", "sqrt(x + y^2)", "log(x*y)",
    "sinh(x - y)", "cosh(x*y)", "tanh(2*x - y)", "asinh(x - 3*y)", "atan(x/y - 1)", "abs(x - 0.8*y)",
    "x + y", "x - y", "x * y", "x / y", "x ^ y", "x^3 - 2^y + y^0.5", "-x * y", "-(x - y)^3", "+x",
    "pi * x + e^y", "x * (2 + pi) / e", "sin(2) * y + 1",
]


@pytest.mark.parametrize("text", DERIVATIVE_CASES)
def test_forward_mode_gives_the_value_bit_for_bit_and_the_differenced_gradient(text):
    fn = compile_expression(text, ("x", "y"))
    for p in np.random.default_rng([11, len(text)]).uniform(0.3, 1.3, (5, 2)):
        value, grad = fn.value_and_grad(*p)
        assert value.hex() == fn(*p).hex()
        for axis in (0, 1):
            difference = float(_fd.partial(lambda q: fn(*q), p, axis))
            assert abs(grad[axis] - difference) <= 1e-8 * max(1.0, abs(difference)), (text, p, axis)


def test_a_constant_expression_has_no_gradient():
    fn = compile_expression("2 * pi + e", ("x", "y"))
    assert fn.constant and fn.value_and_grad(0.5, 0.7) == (2 * math.pi + math.e, (0.0, 0.0))


def test_abs_has_slope_zero_at_its_kink():
    value, grad = compile_expression("abs(x)", ("x",)).value_and_grad(0.0)
    assert (value, list(grad)) == (0.0, [0.0])
    assert list(compile_expression("abs(x - y)", ("x", "y")).value_and_grad(0.4, 0.4)[1]) == [0.0, 0.0]


@pytest.mark.parametrize("text", ["sqrt(x1)", "x1^0.5"])
def test_a_failure_of_the_derivative_alone_names_the_expression(text):
    fn = compile_expression(text, ("x1",))
    assert fn(0.0) == 0.0
    with pytest.raises(ConstructionError, match=re.escape(repr(text))):
        fn.value_and_grad(0.0)


SRC = Path(__file__).resolve().parents[1] / "src" / "carrollgeo"


def _reader_offenses(source, reader):
    """(line, what) of each place in ``source`` that reads an input file or
    checks a ``name(...)`` spec by hand: an import of configparser, a call of
    ``open`` or of an ``open`` / ``read_text`` / ``read_bytes`` method (unless ``reader``),
    and a ``startswith`` / ``endswith`` with a parenthesis in its argument
    outside a function named ``unwrap``."""
    offenses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, (ast.Import, ast.ImportFrom)) and not reader:
                modules = [alias.name for alias in child.names] if isinstance(child, ast.Import) else [child.module]
                offenses.extend((child.lineno, "configparser") for m in modules if m and m.split(".")[0] == "configparser")
            elif isinstance(child, ast.Call):
                fn = child.func
                called = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
                opens = {"open", "read_text", "read_bytes"} if isinstance(fn, ast.Attribute) else {"open"}
                if called in opens and not reader:
                    offenses.append((child.lineno, called))
                spec = [a for a in child.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
                if called in {"startswith", "endswith"} and function != "unwrap" and any(
                    "(" in a.value or ")" in a.value for a in spec
                ):
                    offenses.append((child.lineno, called))
            visit(child, name)

    visit(ast.parse(source), None)
    return offenses


def test_only_expressions_reads_input_files():
    """``expressions`` is the one reader of input files: it alone imports
    configparser and opens a file, and ``unwrap`` alone splits a spec such as
    ``box(...)`` into its name and body."""
    sample = "import configparser\nopen(p)\np.read_text()\ns.startswith('box(')\ndef unwrap(s): s.endswith(')')\nread_text(p, 'f')\n"
    assert _reader_offenses(sample, reader=False) == [(1, "configparser"), (2, "open"), (3, "read_text"), (4, "startswith")]
    assert _reader_offenses(sample, reader=True) == [(4, "startswith")]
    offenders = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _reader_offenses(path.read_text(), reader=path.name == "expressions.py"))
    }
    assert offenders == {}
