"""Tiny arithmetic expression grammar shared by scenario files, atlas files
and CLI coordinate arguments, and the one reader of those files.

Supported: + - * / ^ (also **), unary minus, numeric literals, `pi` and `e`,
a whitelist of elementary functions, and caller-declared variable names.
Expressions are parsed with :mod:`ast` and compiled in one validating walk
into a tree of closures and its forward-mode twin, which gives the gradient
in the variables with the value; nothing outside the whitelist can execute.
"""

from __future__ import annotations

import ast
import configparser
import math
import operator
from configparser import SectionProxy
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence

from .errors import ConstructionError

# name -> (function, its derivative at the argument a, given the value v
# there); abs has slope 0 at its kink, as a central difference gives
_FUNCTIONS: Mapping[str, tuple[Callable[[float], float], Callable[[float, float], float]]] = {
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
_NEGATION = (operator.neg, lambda a, v: -1.0)

_CONSTANTS = {"pi": math.pi, "e": math.e}

# (operation, its partials in the left and the right operand at (a, b), given the value v);
# a partial is taken only where its side varies, so a constant exponent takes no log
_BINOPS = {
    ast.Add: (operator.add, lambda a, b, v: 1.0, lambda a, b, v: 1.0),
    ast.Sub: (operator.sub, lambda a, b, v: 1.0, lambda a, b, v: -1.0),
    ast.Mult: (operator.mul, lambda a, b, v: b, lambda a, b, v: a),
    ast.Div: (operator.truediv, lambda a, b, v: 1.0 / b, lambda a, b, v: -v / b),
    # libm pow, as for floats' **, but a negative base with a fractional
    # exponent is a ValueError instead of a complex result
    ast.Pow: (math.pow, lambda a, b, v: b * math.pow(a, b - 1.0) if b else 0.0, lambda a, b, v: v * math.log(a)),
}


Evaluator = Callable[[Sequence[float]], float]
# the value and the gradient in the declared variables, at the positional arguments
Dual = Callable[[Sequence[float]], tuple[float, Sequence[float]]]


def _scaled(w: float, grad: Sequence[float]) -> Sequence[float]:
    return grad if w == 1.0 else [w * g for g in grad]


def _unary(rule, arg: Evaluator, dual_arg: Dual | None) -> tuple[Evaluator, Dual | None]:
    fn, slope = rule
    if dual_arg is None:
        return (lambda args: fn(arg(args))), None

    def dual(args):
        a, grad = dual_arg(args)
        v = fn(a)
        return v, _scaled(slope(a, v), grad)

    return (lambda args: fn(arg(args))), dual


def _binary(rule, left: Evaluator, dual_l: Dual | None, right: Evaluator, dual_r: Dual | None):
    op, d_left, d_right = rule
    if dual_l is None and dual_r is None:
        return (lambda args: op(left(args), right(args))), None
    dual_l = dual_l or (lambda args: (left(args), None))
    dual_r = dual_r or (lambda args: (right(args), None))

    def dual(args):
        (a, ga), (b, gb) = dual_l(args), dual_r(args)
        v = op(a, b)
        if gb is None:
            return v, _scaled(d_left(a, b, v), ga)
        if ga is None:
            return v, _scaled(d_right(a, b, v), gb)
        wa, wb = d_left(a, b, v), d_right(a, b, v)
        return v, [wa * p + wb * q for p, q in zip(ga, gb)]

    return (lambda args: op(left(args), right(args))), dual


def _compile(node: ast.AST, slots: Mapping[str, int]) -> tuple[Evaluator, Dual | None]:
    """Validate ``node`` and return its evaluator, a closure over the
    positional arguments, and its forward-mode twin, whose value takes the
    same float operations; ``slots`` maps variable names to positions. The
    twin is None for a subtree that reads no variable: it has no gradient."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, slots)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConstructionError(f"non-numeric literal {node.value!r}")
        value = float(node.value)
        return (lambda args: value), None
    if isinstance(node, ast.Name):
        if node.id in slots:
            i = slots[node.id]
            unit = tuple(float(j == i) for j in range(len(slots)))
            return (lambda args: float(args[i])), lambda args: (float(args[i]), unit)
        if node.id in _CONSTANTS:
            value = _CONSTANTS[node.id]
            return (lambda args: value), None
        raise ConstructionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _binary(_BINOPS[type(node.op)], *_compile(node.left, slots), *_compile(node.right, slots))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _compile(node.operand, slots)
        return operand if isinstance(node.op, ast.UAdd) else _unary(_NEGATION, *operand)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConstructionError("only whitelisted functions are allowed")
        if node.keywords or len(node.args) != 1:
            raise ConstructionError("functions take exactly one positional argument")
        return _unary(_FUNCTIONS[node.func.id], *_compile(node.args[0], slots))
    raise ConstructionError(f"unsupported syntax: {ast.dump(node)}")


def compile_expression(text: str, variables: Sequence[str]) -> Callable[..., float]:
    """Compile ``text`` into a function of the given positional variables.

    Arithmetic failures at call time (division by zero, a domain error such
    as ``sqrt(-1)``, overflow) raise :class:`ConstructionError` naming the
    expression. The function's ``constant`` attribute is True when the
    expression reads none of its variables. Its ``value_and_grad`` evaluates
    it in forward mode: the same value, bit for bit, and the gradient in the
    variables, exact up to rounding; a failure of the gradient alone (such
    as ``sqrt(x)`` at 0) raises the same ConstructionError.
    """
    source = text.strip()
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConstructionError(f"cannot parse expression {text!r}: {exc}") from exc
    names = tuple(variables)

    def checked(evaluate: Callable) -> Callable[..., object]:
        def run(*args: float):
            if len(args) != len(names):
                raise ConstructionError(f"expression expects {len(names)} arguments, got {len(args)}")
            try:
                return evaluate(args)
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise ConstructionError(f"cannot evaluate expression {source!r}: {exc}") from exc

        return run

    body, dual = _compile(tree, {name: i for i, name in enumerate(names)})
    fn = checked(body)
    fn.__name__ = "expr"
    fn.source = source  # type: ignore[attr-defined]
    fn.constant = dual is None  # type: ignore[attr-defined]
    fn.value_and_grad = checked(dual or (lambda args: (body(args), (0.0,) * len(names))))  # type: ignore[attr-defined]
    return fn


def parse_number(text: str) -> float:
    """Evaluate a constant expression such as ``pi/2`` or ``-1.5e-3``."""
    return compile_expression(text, ())()


def parse_tuple(text: str) -> tuple[float, ...]:
    """Comma-separated constant expressions, e.g. ``pi/2, 0, 1``."""
    parts = [chunk for chunk in text.split(",") if chunk.strip()]
    return tuple(parse_number(chunk) for chunk in parts)


def parse_pair(text: str) -> tuple[float, ...]:
    """Two comma-separated constant expressions ``lo, hi``, finite, with lo < hi."""
    values = tuple(parse_number(chunk) for chunk in text.split(","))
    if len(values) != 2:
        raise ConstructionError(f"expected two values lo, hi, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ConstructionError(f"a span lo, hi needs finite ends, got {text.strip()!r}")
    if not values[0] < values[1]:
        raise ConstructionError(f"a span lo, hi needs lo < hi, got {text.strip()!r}")
    return values


def unwrap(text: str, *names: str) -> tuple[str, str]:
    """The name, one of ``names``, and the body of a spec ``name(body)``
    such as ``box(0, 1; 0, 1)`` or ``grid(file.csv)``."""
    name, paren, body = text.strip().partition("(")
    if name not in names or not paren or not body.endswith(")"):
        raise ConstructionError(f"expected {' or '.join(f'{n}(...)' for n in names)}, got {text!r}")
    return name, body[:-1]


def parse_bool(text: str) -> bool:
    """An INI boolean, spelled as :mod:`configparser` accepts it."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConstructionError("expected a boolean (true/false, yes/no, on/off, 1/0)") from None


_REQUIRED = object()


def ini_value(section: SectionProxy, key: str, convert: Callable[[str], object], default=_REQUIRED):
    """``convert(section[key])`` for a section of a scenario or atlas file, or
    ``default`` when the key is absent and a default is given. A missing key
    or a malformed value is a ConstructionError naming the key."""
    if key not in section:
        if default is _REQUIRED:
            raise ConstructionError(f"[{section.name}] needs a {key!r} entry")
        return default
    try:
        return convert(section[key])
    except (ValueError, ConstructionError) as exc:
        raise ConstructionError(f"[{section.name}] {key} = {section[key]!r}: {exc}") from None


def read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the input file ``path``, a ``what`` such as "grid file";
    a file that cannot be read or decoded is a ConstructionError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConstructionError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConstructionError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None


def read_ini(path: Path, what: str, required: Sequence[str], optional: Sequence[str] = (),
             named: Sequence[str] = ()) -> configparser.ConfigParser:
    """The INI input file ``path`` with the sections ``required``, perhaps ``optional`` ones, and
    ``[KIND NAME]`` ones of a KIND in ``named``. Keys keep their case (chart names are case-sensitive)
    and values are not interpolated; a malformed file or an unknown section is a ConstructionError."""
    # no header can name the empty default section, so [DEFAULT] is an ordinary one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read_string(read_text(path, what), source=str(path))
    except configparser.Error as exc:
        raise ConstructionError(f"{what} {path}: {' '.join(str(exc).split())}") from None
    for name in parser.sections():
        if name not in (*required, *optional) and name.split(" ")[0] not in named:
            raise ConstructionError(f"{what} {path}: unknown section [{name}]")
    missing = [f"[{name}]" for name in required if name not in parser]
    if missing:
        raise ConstructionError(f"{what} {path} needs {', '.join(missing)}")
    return parser


def ini_keys(section: SectionProxy | Mapping[str, str], allowed: Collection[str]) -> None:
    """Reject a key of ``section`` (an absent section is ``{}``) that ``allowed`` does not name."""
    for key in section:
        if key not in allowed:
            raise ConstructionError(f"[{section.name}] has an unknown key {key!r}; known: {', '.join(allowed)}")
