import ast
import math
import operator
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carrollgeo import _fd, expressions, geodesics, kaluza, scenarios
from carrollgeo.errors import ConstructionError
from carrollgeo.expressions import compile_expression, generate, parse_number, parse_tuple


def _evaluate(text, variables, *args):
    return generate([[(compile_expression(text, variables), None)]])[0](*args)[0]


def test_basic_arithmetic():
    assert _evaluate("2 * m + r^2", ("m", "r"), 1.5, 2.0) == 7.0


def test_functions_and_constants():
    assert _evaluate("exp(sin(m)) / pi", ("m",), 0.3) == pytest.approx(math.exp(math.sin(0.3)) / math.pi)


def test_unary_minus():
    assert _evaluate("-t^2", ("t",), 3.0) == -9.0


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
    fn = generate([[(compile_expression("sqrt(m - 2)", ("m",)), None)]])[0]
    assert fn(6.0) == [2.0]
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



# -- the reference: the closure tree and its forward-mode twin ----------------------
#
# The evaluator that generated code replaced, kept to hold it to every float:
# a tree of closures over the positional arguments, and a twin that carries
# the gradient in every variable, a list at every node.

_REF_FUNCTIONS = {
    "exp": (math.exp, lambda a, v: v),
    "sin": (math.sin, lambda a, v: math.cos(a)),
    "cos": (math.cos, lambda a, v: -math.sin(a)),
    "tan": (math.tan, lambda a, v: 1.0 + v * v),
    "sqrt": (math.sqrt, lambda a, v: 0.5 / v),
    "log": (math.log, lambda a, v: 1.0 / a),
    "sinh": (math.sinh, lambda a, v: math.cosh(a)),
    "cosh": (math.cosh, lambda a, v: math.sinh(a)),
    "tanh": (math.tanh, lambda a, v: 1.0 - v * v),
    "asinh": (math.asinh, lambda a, v: 1.0 / math.sqrt(1.0 + a * a)),
    "atan": (math.atan, lambda a, v: 1.0 / (1.0 + a * a)),
    "abs": (abs, lambda a, v: math.copysign(1.0, a) if a else 0.0),
}
_REF_NEGATION = (operator.neg, lambda a, v: -1.0)
_REF_BINOPS = {
    ast.Add: (operator.add, lambda a, b, v: 1.0, lambda a, b, v: 1.0),
    ast.Sub: (operator.sub, lambda a, b, v: 1.0, lambda a, b, v: -1.0),
    ast.Mult: (operator.mul, lambda a, b, v: b, lambda a, b, v: a),
    ast.Div: (operator.truediv, lambda a, b, v: 1.0 / b, lambda a, b, v: -v / b),
    ast.Pow: (math.pow, lambda a, b, v: b * math.pow(a, b - 1.0) if b else 0.0, lambda a, b, v: v * math.log(a)),
}


def _ref_scaled(w, grad):
    return grad if w == 1.0 else [w * g for g in grad]


def _ref_unary(rule, arg, dual_arg):
    fn, slope = rule
    if dual_arg is None:
        return (lambda args: fn(arg(args))), None

    def dual(args):
        a, grad = dual_arg(args)
        v = fn(a)
        return v, _ref_scaled(slope(a, v), grad)

    return (lambda args: fn(arg(args))), dual


def _ref_binary(rule, left, dual_l, right, dual_r):
    op, d_left, d_right = rule
    if dual_l is None and dual_r is None:
        return (lambda args: op(left(args), right(args))), None
    dual_l = dual_l or (lambda args: (left(args), None))
    dual_r = dual_r or (lambda args: (right(args), None))

    def dual(args):
        (a, ga), (b, gb) = dual_l(args), dual_r(args)
        v = op(a, b)
        if gb is None:
            return v, _ref_scaled(d_left(a, b, v), ga)
        if ga is None:
            return v, _ref_scaled(d_right(a, b, v), gb)
        wa, wb = d_left(a, b, v), d_right(a, b, v)
        return v, [wa * p + wb * q for p, q in zip(ga, gb)]

    return (lambda args: op(left(args), right(args))), dual


def _ref_compile(node, slots):
    if isinstance(node, ast.Expression):
        return _ref_compile(node.body, slots)
    if isinstance(node, ast.Constant):
        value = float(node.value)
        return (lambda args: value), None
    if isinstance(node, ast.Name):
        if node.id in slots:
            i = slots[node.id]
            unit = tuple(float(j == i) for j in range(len(slots)))
            return (lambda args: float(args[i])), lambda args: (float(args[i]), unit)
        value = {"pi": math.pi, "e": math.e}[node.id]
        return (lambda args: value), None
    if isinstance(node, ast.BinOp):
        left, right = _ref_compile(node.left, slots), _ref_compile(node.right, slots)
        return _ref_binary(_REF_BINOPS[type(node.op)], *left, *right)
    if isinstance(node, ast.UnaryOp):
        operand = _ref_compile(node.operand, slots)
        return operand if isinstance(node.op, ast.UAdd) else _ref_unary(_REF_NEGATION, *operand)
    return _ref_unary(_REF_FUNCTIONS[node.func.id], *_ref_compile(node.args[0], slots))


def _reference(text, variables):
    """(value, value_and_grad) of a valid expression, as the closures and the twin gave them."""
    tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
    body, dual = _ref_compile(tree, {v: i for i, v in enumerate(variables)})
    return (lambda *args: body(args)), (lambda *args: dual(args) if dual else (body(args), (0.0,) * len(variables)))


def _outcome(fn, *args):
    """The floats ``fn`` returns, as hex, or the type and text of the arithmetic error it raises."""
    try:
        out = fn(*args)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    except ConstructionError as exc:
        return type(exc.__cause__), str(exc.__cause__)
    return [float(v).hex() for v in out]


def _assert_generated_equals_the_reference(text, points):
    """Each kind of request a reader makes, as four functions of one source
    (the value alone, the value with both partials, each partial alone),
    gives the reference's floats or its error at every point."""
    variables = ("x", "y")
    value, value_and_grad = _reference(text, variables)
    fn = compile_expression(text, variables)
    alone, jet, dx, dy = generate([[(fn, None)], [(fn, None), (fn, "x"), (fn, "y")], [(fn, "x")], [(fn, "y")]])
    for p in points:
        assert _outcome(alone, *p) == _outcome(lambda *q: [value(*q)], *p), (text, p)
        full = _outcome(lambda *q: (lambda v, g: [v, *g])(*value_and_grad(*q)), *p)
        assert _outcome(jet, *p) == full, (text, p)
        for k, single in ((1, dx), (2, dy)):
            assert _outcome(single, *p) == (full if isinstance(full, tuple) else [full[k]]), (text, p, k)


# every whitelisted function, the five operators, unary minus, pi and e, on
# arguments that stay inside their domains for x, y in [0.3, 1.3]
DERIVATIVE_CASES = [
    "exp(x - 2*y)", "sin(x*y)", "cos(x/y)", "tan(0.5*x + 0.2*y)", "sqrt(x + y^2)", "log(x*y)",
    "sinh(x - y)", "cosh(x*y)", "tanh(2*x - y)", "asinh(x - 3*y)", "atan(x/y - 1)", "abs(x - 0.8*y)",
    "x + y", "x - y", "x * y", "x / y", "x ^ y", "x^3 - 2^y + y^0.5", "-x * y", "-(x - y)^3", "+x",
    "pi * x + e^y", "x * (2 + pi) / e", "sin(2) * y + 1",
]
# where a slope alone fails, or a zero partial keeps a sign, at SPECIAL_POINTS
EDGE_CASES = ["x ^ 0", "sqrt(x) * y", "(x - x) * y ^ 0.5", "abs(x) * y", "-(x * 0) / y", "log(y) ^ x"]
# points where values, slopes or both fail, are signed zeros or are not finite
SPECIAL_POINTS = [(0.0, 0.0), (-0.0, 1.0), (1.0, -0.0), (0.0, 1.0), (-1.5, 0.5), (0.5, -2.0), (800.0, 1.0),
                  (1e308, -1e308), (math.inf, 1.0), (1.0, -math.inf), (math.nan, 0.5)]


@pytest.mark.parametrize("text", DERIVATIVE_CASES + EDGE_CASES)
def test_generated_code_gives_the_references_floats_and_errors(text):
    points = np.random.default_rng([11, len(text)]).uniform(0.3, 1.3, (5, 2)).tolist()
    _assert_generated_equals_the_reference(text, points + SPECIAL_POINTS)


@pytest.mark.parametrize("text", DERIVATIVE_CASES)
def test_generated_partials_are_the_differenced_gradient(text):
    jet = generate([[(compile_expression(text, ("x", "y")), name) for name in (None, "x", "y")]])[0]
    for p in np.random.default_rng([11, len(text)]).uniform(0.3, 1.3, (5, 2)):
        value, *grad = jet(*p)
        for axis in (0, 1):
            difference = float(_fd.partial(lambda q: jet(*q)[0], p, axis))
            assert abs(grad[axis] - difference) <= 1e-8 * max(1.0, abs(difference)), (text, p, axis)


_LEAVES = st.sampled_from(["x", "y", "x", "y", "0", "1", "2", "0.5", "3.25", "pi", "e", "1e400", "1e-320", "7"])


def _grow(children):
    unary = st.tuples(st.sampled_from(["exp", "sin", "cos", "tan", "sqrt", "log", "sinh", "cosh", "tanh", "asinh",
                                       "atan", "abs", "-", "+"]), children)
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^"]), children)
    return st.one_of(
        unary.map(lambda u: f"{u[0]}{u[1]}" if u[0] in "+-" else f"{u[0]}({u[1]})"),
        binary.map(lambda b: f"({b[0]} {b[1]} {b[2]})"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=12)
_ARGUMENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan, 1e300]),
                       st.floats(-4.0, 4.0), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_EXPRESSIONS, st.lists(st.tuples(_ARGUMENTS, _ARGUMENTS), min_size=1, max_size=6))
def test_generated_code_gives_the_references_floats_and_errors_over_the_grammar(text, points):
    _assert_generated_equals_the_reference(text, points)


# requests that read no variable: signed zeros, infinite and subnormal values,
# and failures, which must name their expression
CONSTANT_CASES = ["0", "-0", "0 * -1", "-(2 - 2)", "-0 + 0", "-0 - 0", "sqrt(-0)", "abs(-0)", "atan(-0) * 3",
                  "1e400", "-1e400", "1e400 - 1e400", "1e400 * 0", "atan(1e400)", "2^-1070", "pi * e - sin(pi)",
                  "0^0", "1/0", "-(1/0)", "2^1024", "0^-1", "log(0)", "(-8)^(1/3)", "exp(1000)"]


@pytest.mark.parametrize("text", CONSTANT_CASES)
def test_constant_requests_give_the_references_floats_and_errors(text):
    """A request that reads no variable runs as generated code like any
    other: its values, its zero partials and its errors are the reference's,
    alone, in a request of the variables x and y and through parse_number,
    and a failure names its expression, also after an entry that succeeds."""
    fn = compile_expression(text, ())
    assert not fn.reads and not compile_expression(text, ("x", "y")).reads
    _assert_generated_equals_the_reference(text, [(0.5, -0.0), (math.nan, math.inf)])
    value = _reference(text, ())[0]
    expected = _outcome(lambda: [value()])
    assert _outcome(generate([[(fn, None)]])[0]) == _outcome(lambda: [parse_number(text)]) == expected
    if isinstance(expected, tuple):
        first, last = compile_expression("2 * pi", ()), compile_expression("sqrt(-1)", ())
        with pytest.raises(ConstructionError, match=re.escape(repr(text))):
            generate([[(first, None), (fn, None), (last, None)]])[0]()


def test_a_constant_expression_has_zero_partials():
    fn = compile_expression("2 * pi + e", ("x", "y"))
    assert not fn.reads
    assert generate([[(fn, None), (fn, "x"), (fn, "y")]])[0](0.5, 0.7) == [2 * math.pi + math.e, 0.0, 0.0]
    assert parse_number("sin(pi/2) + 1e400") == math.inf


def test_a_second_load_of_the_same_text_compiles_nothing(tmp_path, monkeypatch):
    """Generated code is cached by its source text across loads, and an
    expression block's functions by its entries' texts. From a cold cache
    the first load compiles three sources: the box's constants -1 and 1 and
    the block, whose jet's closed-form kernel compiles at its first call;
    the second load builds and compiles nothing and shares the first's block
    and jet, kernel included. A failing entry is still named by each."""
    compiled, built = [], []
    monkeypatch.setattr(expressions, "compile", lambda *args: compiled.append(args) or compile(*args), raising=False)
    monkeypatch.setattr(expressions, "_CODE", {})
    monkeypatch.setattr(scenarios, "generate", lambda *args: built.append(args) or expressions.generate(*args))
    scenarios._expression_block.cache_clear()
    kaluza._jet_kernel.cache_clear()
    path = tmp_path / "cached.ini"
    path.write_text("[meta]\ndim = 2\n[charts]\nmain = box(-1, 1; -1, 1)\n[metric]\n"
                    "main = matrix(1 + 0.4375 * x1^2, 0; 0, sqrt(x2 + 1.8125))\n")
    loads = []
    for count, builds in ((3, 1), (0, 0)):
        compiled.clear(), built.clear()
        loads.append(scenarios.load(str(path)))
        assert len(compiled) == count and len(built) == builds
        compiled.clear()
        kaluza.christoffel_closed(loads[-1].kk(-1), [0.5, 0.5, 1.0], chart="main", along=[0.1, 0.2, 0.3])
        assert len(compiled) == (1 if builds else 0)
    assert loads[0].metric.at([0.5, 0.5], 1.0, "main").tobytes() == loads[1].metric.at([0.5, 0.5], 1.0, "main").tobytes()
    assert loads[0].jet["main"] is loads[1].jet["main"] and loads[0].metric is not loads[1].metric
    for scenario in loads:
        with pytest.raises(ConstructionError, match=re.escape("'sqrt(x2 + 1.8125)'")):
            scenario.metric.at([0.5, -1.9], 1.0, "main")


def test_abs_has_slope_zero_at_its_kink():
    fn = compile_expression("abs(x)", ("x",))
    assert generate([[(fn, None), (fn, "x")]])[0](0.0) == [0.0, 0.0]
    fn = compile_expression("abs(x - y)", ("x", "y"))
    assert generate([[(fn, "x"), (fn, "y")]])[0](0.4, 0.4) == [0.0, 0.0]


@pytest.mark.parametrize("text", ["sqrt(x1)", "x1^0.5"])
def test_a_failure_of_the_derivative_alone_names_the_expression(text):
    fn = compile_expression(text, ("x1",))
    value, jet = generate([[(fn, None)], [(fn, None), (fn, "x1")]])
    assert value(0.0) == [0.0]
    with pytest.raises(ConstructionError, match=re.escape(repr(text))):
        jet(0.0)


def test_a_failure_names_the_first_entry_that_fails():
    """A block is one function: its error names the entry that failed first,
    in entry order, values and partials together, shared subexpressions or not."""
    variables = ("x", "y")
    entries = [compile_expression(t, variables) for t in ("sqrt(x) + y", "log(y)", "sqrt(x)", "1/x")]
    values, jet = generate([[(e, None) for e in entries], [(e, n) for n in (None, *variables) for e in entries]])
    with pytest.raises(ConstructionError, match=re.escape("'log(y)'")):
        values(1.0, 0.0)
    with pytest.raises(ConstructionError, match=re.escape("'1/x'")):
        values(0.0, 1.0)
    with pytest.raises(ConstructionError, match=re.escape("'sqrt(x) + y'")):
        jet(0.0, 1.0)


# -- what generated code can reach ------------------------------------------------

def _generated_code(monkeypatch, requests):
    """The code object of each function ``generate`` compiles for ``requests``."""
    compiled = []

    def spy(*args):
        compiled.append(compile(*args))
        return compiled[-1]

    monkeypatch.setattr(expressions, "compile", spy, raising=False)
    functions = generate(requests)
    (module,) = compiled
    return functions, [c for c in module.co_consts if isinstance(c, types.CodeType)]


def test_generated_code_names_only_whitelisted_functions_its_parameters_and_temporaries(monkeypatch):
    texts = ["exp(sin(x) * y^2) / (1 + abs(x - y))", "sqrt(x) + log(y) - tan(x) + cosh(y)",
             "-asinh(x) * atan(y) + 1e400", "sinh(x) ^ tanh(y) + cos(pi) * e"]
    fns = [compile_expression(t, ("x", "y")) for t in texts]
    functions, codes = _generated_code(monkeypatch, [[(fn, name) for name in (None, "x", "y") for fn in fns],
                                                     [(fn, None) for fn in fns]])
    assert len(codes) == 2
    # and the two names of the try that names a failing expression: the errors it catches and what it raises
    allowed = set(expressions._UNARY) - {"neg"} | {"pow", "copysign", "inf", "arithmetic", "failed"}
    for code in codes:
        assert set(code.co_names) <= allowed and {"pow", "inf", "arithmetic", "failed"} <= set(code.co_names)
        assert all(re.fullmatch(r"p\d+|v\d+|exc", name) for name in code.co_varnames)
        assert code.co_varnames[:code.co_argcount] == ("p0", "p1")
    for generated in functions:
        assert generated.__code__ in codes and generated.__globals__["__builtins__"] == {}


@pytest.mark.parametrize("factory, key", [
    (geodesics._step_kernel, (geodesics._TSITOURAS54, 2, True)),
    (geodesics._step_kernel, (geodesics._RK4, 3, True)),
    (geodesics._step_kernel, (geodesics._TSITOURAS54, 2, False)),
    (kaluza._numeric_floats, (3,)),
    (kaluza._contraction_floats, (5,)),
    (_fd._stencil_floats, (3,)),
    (kaluza._jet_kernel, (2, True, None, False)),
    (kaluza._jet_kernel, (3, False, None, True)),
    (kaluza._jet_kernel, (2, False, (False, True, True, False) + (True,) * 3 + (False,) + (True,) * 4, True)),
    (kaluza._jet_kernel, (4, False, None, False)),
    (kaluza._jet_kernel, (5, False, (False,) * 25 + (True,) * 125, True)),
], ids=["tsitouras_step", "rk4_step", "reduced_step", "oracle_acceleration", "oracle_contraction", "stencil",
        "closed_fiber", "closed", "closed_folded", "closed_lapack", "closed_constant"])
def test_generated_kernels_reach_only_the_names_they_use_and_compile_once_per_key(factory, key, monkeypatch):
    """The stepping, stencil and symbol kernels: no builtins, a namespace of
    exactly the names the code reads, the functions it defines included (a
    constant block's jet kernel, which uses no inverse entry, still names
    LAPACK's inverse, whose error it raises for a singular block), and one
    compile per key. Each is built once first, so that only its own source compiles."""
    factory.cache_clear()
    factory(*key)
    compiled = []

    def spy(*args):
        compiled.append(compile(*args))
        return compiled[-1]

    monkeypatch.setattr(expressions, "compile", spy, raising=False)
    monkeypatch.setattr(expressions, "_CODE", {})  # the text cache too: each key's source compiles afresh
    factory.cache_clear()
    kernel = factory(*key)
    assert factory(*key) is kernel and len(compiled) == 1
    assert kernel.__code__ in compiled[0].co_consts
    namespace = kernel.__globals__
    assert namespace["__builtins__"] == {}
    names = lambda code: set(code.co_names).union(*(names(c) for c in code.co_consts if isinstance(c, types.CodeType)))
    assert set(namespace) - {"__builtins__", "kernel"} == names(kernel.__code__)


RUNNERS = {"compile", "exec"}


def _runner_uses(source):
    """(line, name, function) of each use of ``compile`` or ``exec`` in
    ``source``, called or passed on, or read as an attribute of ``builtins``,
    with the name of the innermost function it is in (None at module level)."""
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Name) and child.id in RUNNERS:
                uses.append((child.lineno, child.id, function))
            elif isinstance(child, ast.Attribute) and child.attr in RUNNERS and isinstance(child.value, ast.Name) \
                    and child.value.id in ("builtins", "__builtins__"):
                uses.append((child.lineno, child.attr, function))
            visit(child, inner)

    visit(ast.parse(source), None)
    return uses


def test_one_helper_compiles_and_runs_every_generated_source():
    """``expressions.run_generated`` is the one function in the package that
    compiles or runs code: no other function, and no module body, names
    ``compile`` or ``exec``, and it names both."""
    sample = ("import builtins\nc = compile(s, 'x', 'exec')\ndef f(s):\n    exec(s)\n    return re.compile(s)\n"
              "def run_generated(s):\n    return builtins.exec(compile(s, 'x', 'exec'))\nrun = exec\n")
    assert _runner_uses(sample) == [(2, "compile", None), (4, "exec", "f"), (7, "exec", "run_generated"),
                                    (7, "compile", "run_generated"), (8, "exec", None)]
    uses = {(path.name, name, function) for path in sorted(SRC.glob("*.py")) for _, name, function in _runner_uses(path.read_text())}
    assert uses == {("expressions.py", "compile", "run_generated"), ("expressions.py", "exec", "run_generated")}


@pytest.mark.parametrize("depth", [expressions.MAX_DEPTH, expressions.MAX_DEPTH + 1])
def test_expressions_nest_at_most_max_depth_operations(depth):
    chain = " + ".join(["x1"] * (depth + 1))  # depth additions nest to the left
    signs = "-" * depth + "x1"
    if depth <= expressions.MAX_DEPTH:
        assert _evaluate(chain, ("x1",), 0.5) == 0.5 * (depth + 1)
        assert _evaluate(signs, ("x1",), 0.5) == 0.5
    else:
        for text in (chain, signs):
            with pytest.raises(ConstructionError, match=f"deeper than {expressions.MAX_DEPTH}"):
                compile_expression(text, ("x1",))


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
