"""Tiny arithmetic expression grammar shared by scenario files, atlas files
and CLI coordinate arguments, and the one reader of those files.

Supported: + - * / ^ (also **), unary minus, numeric literals, `pi` and `e`,
a whitelist of elementary functions, and caller-declared variable names.
Expressions are parsed with :mod:`ast` and checked in one validating walk
into a small tree, which is emitted as straight-line Python source, one
function per request, constant or not, that computes the values and only
the partials its reader asks for. ``run_generated`` compiles that source
once per text, which a bounded cache keeps across loads, and runs it: no
text of the input reaches the source, and it runs in a fresh namespace
with nothing but the whitelisted functions in scope. The package's other
generated kernels run through it too.
"""

from __future__ import annotations

import ast
import bisect
import configparser
import math
from configparser import SectionProxy
from pathlib import Path
from types import CodeType
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

from .errors import ConstructionError

# the deepest nesting of operations an expression may have; the walks below
# recurse once per level, and ast.parse fails far deeper
MAX_DEPTH = 200

# name -> (source of its value at the argument {a} and of its derivative
# there, given the value {v}); abs has slope 0 at its kink, as a central
# difference gives
_UNARY: Mapping[str, tuple[str, str]] = {
    "exp": ("exp({a})", "{v}"),
    "sin": ("sin({a})", "cos({a})"),
    "cos": ("cos({a})", "-sin({a})"),
    "tan": ("tan({a})", "1.0 + {v} * {v}"),
    "sqrt": ("sqrt({a})", "0.5 / {v}"),
    "log": ("log({a})", "1.0 / {a}"),
    "sinh": ("sinh({a})", "cosh({a})"),
    "cosh": ("cosh({a})", "sinh({a})"),
    "tanh": ("tanh({a})", "1.0 - {v} * {v}"),
    "asinh": ("asinh({a})", "1.0 / sqrt(1.0 + {a} * {a})"),
    "atan": ("atan({a})", "1.0 / (1.0 + {a} * {a})"),
    "abs": ("abs({a})", "copysign(1.0, {a}) if {a} else 0.0"),
    "neg": ("-{a}", "-1.0"),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# operator -> (source of its value at the operands {a}, {b} and of its
# partials in the left and the right operand, given the value {v}); a partial
# is taken only where its side varies, so a constant exponent takes no log
_BINARY: Mapping[type, tuple[str, str, str]] = {
    ast.Add: ("{a} + {b}", "1.0", "1.0"),
    ast.Sub: ("{a} - {b}", "1.0", "-1.0"),
    ast.Mult: ("{a} * {b}", "{b}", "{a}"),
    ast.Div: ("{a} / {b}", "1.0 / {b}", "-{v} / {b}"),
    # libm pow, as for floats' **, but a negative base with a fractional
    # exponent is a ValueError instead of a complex result
    ast.Pow: ("pow({a}, {b})", "{b} * pow({a}, {b} - 1.0) if {b} else 0.0", "{v} * log({a})"),
}

# all that generated code can name: the whitelisted functions, two helpers,
# and inf, which is how repr spells the one literal that has no digits (1e400)
_NAMESPACE = {name: getattr(math, name) for name in _UNARY if name not in ("abs", "neg")} | {
    "abs": abs, "pow": math.pow, "copysign": math.copysign, "inf": math.inf}

# what evaluating an expression can raise; each becomes a ConstructionError naming it
_ARITHMETIC = (ZeroDivisionError, ValueError, OverflowError)


class Expression(NamedTuple):
    """An expression validated by ``compile_expression``: its text, its
    positional variables, its tree (see ``_tree``) and the positions of the variables it reads."""

    source: str
    variables: tuple[str, ...]
    tree: tuple
    reads: frozenset[int]


def compile_expression(text: str, variables: Sequence[str]) -> Expression:
    """Parse ``text`` and validate it as an expression in the given positional variables."""
    source = text.strip()
    try:
        parsed = ast.parse(source.replace("^", "**"), mode="eval").body
        tree = _tree(parsed, {name: i for i, name in enumerate(variables)})
    except SyntaxError as exc:
        raise ConstructionError(f"cannot parse expression {text!r}: {exc}") from exc
    except RecursionError:  # ast.parse recurses far deeper than MAX_DEPTH before it gives up
        raise ConstructionError(f"expression nests deeper than {MAX_DEPTH} operations") from None
    return Expression(source, tuple(variables), tree, _reads(tree))


def _tree(node: ast.AST, slots: Mapping[str, int], depth: int = 0) -> tuple:
    """Validate ``node`` and return its tree: ("num", value), ("var", position),
    (function name or "neg", argument) or (ast operator, left, right);
    ``slots`` maps variable names to positions."""
    if depth > MAX_DEPTH:
        raise ConstructionError(f"expression nests deeper than {MAX_DEPTH} operations")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConstructionError(f"non-numeric literal {node.value!r}")
        try:
            return ("num", float(node.value))
        except OverflowError:
            raise ConstructionError("integer literal too large for a float") from None
    if isinstance(node, ast.Name):
        if node.id in slots:
            return ("var", slots[node.id])
        if node.id in _CONSTANTS:
            return ("num", _CONSTANTS[node.id])
        raise ConstructionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (type(node.op), _tree(node.left, slots, depth + 1), _tree(node.right, slots, depth + 1))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _tree(node.operand, slots, depth + 1)
        return operand if isinstance(node.op, ast.UAdd) else ("neg", operand)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _UNARY or node.func.id == "neg":
            raise ConstructionError("only whitelisted functions are allowed")
        if node.keywords or len(node.args) != 1:
            raise ConstructionError("functions take exactly one positional argument")
        return (node.func.id, _tree(node.args[0], slots, depth + 1))
    raise ConstructionError(f"unsupported syntax: {ast.dump(node)}")


def _reads(tree: tuple) -> frozenset[int]:
    if tree[0] in ("num", "var"):
        return frozenset(tree[1:] if tree[0] == "var" else ())
    return frozenset().union(*map(_reads, tree[1:]))


class _Emitter:
    """Straight-line source for the body of one generated function: each
    operation's value and, where ``wanted`` lists variable positions, its
    partials in them as forward mode takes them. Every node that reads a
    variable takes its slopes, used or not, so that the same inputs fail;
    a repeated subtree is emitted once."""

    def __init__(self, lines: list[str], wanted: tuple[int, ...] | None):
        self.lines, self.wanted, self.done = lines, wanted, {}

    def ref(self, source: str, temporary: bool = False) -> str:
        """``source`` as an operand: a name or a literal as it is, else a new temporary."""
        if not temporary and " " not in source and "(" not in source:
            return source
        self.lines.append(f"        v{len(self.lines)} = {source}")
        return f"v{len(self.lines) - 1}"

    def emit(self, tree: tuple) -> tuple[str, tuple[str, ...] | None]:
        """The operands that hold the value of ``tree`` and its wanted partials,
        None where it reads no variable or no partial is wanted."""
        if tree in self.done:
            return self.done[tree]
        if tree[0] == "num":  # repr round-trips a float
            out = repr(tree[1]), None
        elif tree[0] == "var":
            unit = None if self.wanted is None else tuple("1.0" if k == tree[1] else "0.0" for k in self.wanted)
            out = f"p{tree[1]}", unit
        else:
            args = [self.emit(child) for child in tree[1:]]  # each operand in turn, with its partials
            value, *slopes = _BINARY.get(tree[0]) or _UNARY[tree[0]]
            refs = dict(zip("ab", (ref for ref, _ in args)))
            refs["v"] = self.ref(value.format(**refs), temporary=True)
            # the slope in each operand that varies, in turn: a constant exponent takes no log
            terms = [(self.ref(slope.format(**refs)), grad) for slope, (_, grad) in zip(slopes, args) if grad]
            out = refs["v"], None if not terms else tuple(
                self.ref(" + ".join(_times(w, grad[k]) for w, grad in terms)) for k in range(len(self.wanted)))
        self.done[tree] = out
        return out


def _times(w: str, g: str) -> str:
    # 1.0 * g is g bit for bit, NaN and -0.0 included
    return g if w == "1.0" else w if g == "1.0" else f"{w} * {g}"


def generate(requests: Sequence[Sequence[tuple[Expression, str | None]]]) -> list[Callable[..., list[float]]]:
    """One function per request, of the positional variables that its
    expressions share, that returns the list of the request's outputs in
    order: for (expression, None) its value, for (expression, name) its
    partial in the variable ``name``, exact up to rounding (0.0 for a
    constant expression). A value takes the float operations of the
    expression alone, whatever else is asked for. The requests are emitted
    as one source and run by ``run_generated``. A function raises the
    ConstructionError naming the first output expression whose value or any
    of whose partials fails, from a ``try`` written into its own code."""
    lines: list[str] = []
    owners: list[tuple[int, str]] = []  # (first line, source) of each output's code
    for k, request in enumerate(requests):
        variables = request[0][0].variables
        names = {name for _, name in request if name is not None}
        wanted = tuple(i for i, name in enumerate(variables) if name in names) if names else None
        emitter, outputs = _Emitter(lines, wanted), []
        lines += [f"def f{k}({', '.join(f'p{i}' for i in range(len(variables)))}):", "    try:"]
        for expression, name in request:
            owners.append((len(lines) + 1, expression.source))
            value, grad = emitter.emit(expression.tree)
            outputs.append(value if name is None else grad[wanted.index(variables.index(name))] if grad else "0.0")
        lines += [f"        return [{', '.join(outputs)}]", "    except arithmetic as exc:", "        raise failed(exc) from exc"]

    def failed(exc: ArithmeticError | ValueError) -> ConstructionError:
        # the generated frame's line tells the output that failed
        line = bisect.bisect_right([first for first, _ in owners], exc.__traceback__.tb_lineno) - 1
        return ConstructionError(f"cannot evaluate expression {owners[line][1]!r}: {exc}")

    namespace = run_generated(lines, arithmetic=_ARITHMETIC, failed=failed, **_NAMESPACE)
    return [namespace[f"f{k}"] for k in range(len(requests))]


_CODE: dict[str, CodeType] = {}  # compiled code by source text, the 256 most recently run, last run last


def run_generated(lines: Sequence[str], **names: object) -> dict:
    """The namespace in which the generated source ``lines`` ran: a fresh one that holds ``names`` and no
    builtins. This is the one place that compiles and runs code; a source is compiled once per text and its
    code kept across loads, so a reload of the same file compiles nothing."""
    source = "\n".join(lines)
    _CODE[source] = _CODE.pop(source, None) or compile(source, "<generated>", "exec")
    if len(_CODE) > 256:
        del _CODE[next(iter(_CODE))]
    namespace = {"__builtins__": {}, **names}
    exec(_CODE[source], namespace)
    return namespace


def parse_number(text: str) -> float:
    """Evaluate a constant expression such as ``pi/2`` or ``-1.5e-3``."""
    return generate([[(compile_expression(text, ()), None)]])[0]()[0]


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
