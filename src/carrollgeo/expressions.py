"""Tiny arithmetic expression grammar shared by scenario files, atlas files
and CLI coordinate arguments, and the one reader of those files.

Supported: + - * / ^ (also **), unary minus, numeric literals, `pi` and `e`,
a whitelist of elementary functions, and caller-declared variable names.
Expressions are parsed with :mod:`ast` and compiled in one validating walk
into a tree of closures; nothing outside the whitelist can execute.
"""

from __future__ import annotations

import ast
import configparser
import math
from configparser import SectionProxy
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence

from .errors import ConstructionError

_FUNCTIONS: Mapping[str, Callable[[float], float]] = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "log": math.log,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "asinh": math.asinh,
    "atan": math.atan,
    "abs": abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    # libm pow, as for floats' **, but a negative base with a fractional
    # exponent is a ValueError instead of a complex result
    ast.Pow: math.pow,
}


Evaluator = Callable[[Sequence[float]], float]


def _compile(node: ast.AST, slots: Mapping[str, int], used: set[str]) -> Evaluator:
    """Validate ``node`` and return its evaluator, a closure over the
    positional arguments; ``slots`` maps variable names to positions, and
    every variable the expression reads is added to ``used``."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, slots, used)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConstructionError(f"non-numeric literal {node.value!r}")
        value = float(node.value)
        return lambda args: value
    if isinstance(node, ast.Name):
        if node.id in slots:
            used.add(node.id)
            i = slots[node.id]
            return lambda args: float(args[i])
        if node.id in _CONSTANTS:
            value = _CONSTANTS[node.id]
            return lambda args: value
        raise ConstructionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, slots, used), _compile(node.right, slots, used)
        return lambda args: op(left(args), right(args))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _compile(node.operand, slots, used)
        return operand if isinstance(node.op, ast.UAdd) else lambda args: -operand(args)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConstructionError("only whitelisted functions are allowed")
        if node.keywords or len(node.args) != 1:
            raise ConstructionError("functions take exactly one positional argument")
        fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0], slots, used)
        return lambda args: fn(arg(args))
    raise ConstructionError(f"unsupported syntax: {ast.dump(node)}")


def compile_expression(text: str, variables: Sequence[str]) -> Callable[..., float]:
    """Compile ``text`` into a function of the given positional variables.

    Arithmetic failures at call time (division by zero, a domain error such
    as ``sqrt(-1)``, overflow) raise :class:`ConstructionError` naming the
    expression. The function's ``constant`` attribute is True when the
    expression reads none of its variables.
    """
    source = text.strip()
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConstructionError(f"cannot parse expression {text!r}: {exc}") from exc
    names = tuple(variables)
    used: set[str] = set()
    body = _compile(tree, {name: i for i, name in enumerate(names)}, used)

    def fn(*args: float) -> float:
        if len(args) != len(names):
            raise ConstructionError(f"expression expects {len(names)} arguments, got {len(args)}")
        try:
            return body(args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise ConstructionError(f"cannot evaluate expression {source!r}: {exc}") from exc

    fn.__name__ = "expr"
    fn.source = source  # type: ignore[attr-defined]
    fn.constant = not used  # type: ignore[attr-defined]
    return fn


def parse_number(text: str) -> float:
    """Evaluate a constant expression such as ``pi/2`` or ``-1.5e-3``."""
    return compile_expression(text, ())()


def parse_tuple(text: str) -> tuple[float, ...]:
    """Comma-separated constant expressions, e.g. ``pi/2, 0, 1``."""
    parts = [chunk for chunk in text.split(",") if chunk.strip()]
    return tuple(parse_number(chunk) for chunk in parts)


def parse_pair(text: str) -> tuple[float, ...]:
    """Two comma-separated constant expressions ``lo, hi`` with lo < hi."""
    values = tuple(parse_number(chunk) for chunk in text.split(","))
    if len(values) != 2:
        raise ConstructionError(f"expected two values lo, hi, got {len(values)}")
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
