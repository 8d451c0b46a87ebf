"""Non-degenerate metrics built from a degenerate metric and a connection.

With ``omega = vtb + vx . A`` the combination ``g + sign * omega^2`` is
non-degenerate; sign +1 gives a Riemannian metric, sign -1 a Lorentzian one.
Adapted-frame components are

    [[g_M + s A A^T, s A], [s A^T, s]],        s = sign,

and raw (x, t) components follow from the frame factor diag(1, ..., 1, 1/t):
the mixed block is s A / t and the fiber entry s / t^2, so
det(raw) * t^2 = s * det(g_M).

Two Christoffel routes are provided. ``christoffel_numeric`` differentiates
the raw metric components directly (the brute-force oracle, and the
reference for the other route). ``christoffel_closed`` assembles the symbols
from the base block's jet, its entries and their exact partials as one flat
float list, which a scenario registers as a ``Jet`` per chart where it can
(every expression block, the catalog's included, and the constant blocks), and
which is differenced from g_M otherwise. One kernel per (n, fiber, structural
zeros of the jet) goes from the jet to the symbols or the acceleration,
leaving out every product by a structural zero. It is validated against the
oracle only when the gauge field vanishes, which is where geodesics use it by
default, and with a nonzero gauge field its output is something to compare,
not to trust (see ``closed_form_deviation``). Given a velocity v (``along``),
either route returns the acceleration -Gamma^a(v, v) at one point as a float
list, its symbols contracted in generated code (the oracle's stacked ones
above n = 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _fd
from .connection import GaugeField
from .errors import ContractViolation, DomainError, NumericError
from .expressions import run_generated
from .geometry import FIBER_CUTOFF, DegenerateMetric, Point, TangentVector, dot, read_raw, square

# the largest n with generated one-point kernels: a block's cofactor inverse, the oracle's m^4-text acceleration
_FLOAT_KERNEL_MAX_N = 3


@dataclass(frozen=True, eq=False)
class Jet:
    """A base block's jet on one chart: ``values(x1, ..., xn, t)`` gives the
    block's entries g[a * n + b], then their partials d_c g_ab at
    [n * n + (c * n + a) * n + b] on x1..xn and, for a fiber-dependent block
    (``fiber``), on t (c = n), as one flat list of floats. ``zeros`` marks its
    structural zeros, derived from where the block comes from (an entry that
    is the constant 0, a partial on an axis its entry does not read), each
    +-0.0 for finite inputs. Its ``_jet_kernel``s are bound once per object."""

    values: Callable[..., Sequence[float]] | None
    zeros: tuple[bool, ...] | None
    n: int
    fiber: bool

    @classmethod
    def constant(cls, block: np.ndarray) -> Jet:
        """The jet of a block that reads no coordinate: one tuple of its entries and zero partials."""
        n, entries = len(block), block.ravel().tolist()
        jet = (*entries, *[0.0] * n**3)
        return cls(lambda *point: jet, tuple(e == 0.0 for e in entries) + (True,) * n**3, n, False)

    @cached_property
    def symbols(self) -> Callable[..., list[float]]:
        return _jet_kernel(self.n, self.fiber, self.zeros, False)

    @cached_property
    def accel(self) -> Callable[..., list[float]]:
        return _jet_kernel(self.n, self.fiber, self.zeros, True)


@dataclass
class KKMetric:
    """Assembled non-degenerate metric; ``jet``, if any, maps each chart to its base block's registered ``Jet``."""

    sign: int
    metric: DegenerateMetric
    gauge: GaugeField
    jet: Mapping[str, Jet] | None = None

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ContractViolation("sign must be +1 or -1")
        if self.jet is not None and any(j.fiber != self.metric.time_dependent for j in self.jet.values()):
            raise ContractViolation("a registered jet gives t partials exactly where the block depends on t")

    # -- components ---------------------------------------------------------

    def adapted(self, p: Point) -> np.ndarray:
        return self.components(p.raw()[None], p.chart, adapted=True)[0]

    def raw(self, p: Point) -> np.ndarray:
        return self.components(p.raw()[None], p.chart)[0]

    def components(self, raw: np.ndarray, chart: str, adapted: bool = False, a: np.ndarray | None = None) -> np.ndarray:
        """Raw components (adapted ones: fiber frame vector t * d/dt) at the
        K raw points (x..., t) of ``raw``, shape (K, n + 1, n + 1). Each field
        is read with one stacked call to ``metric.at`` and ``gauge.at`` (none
        where ``a`` gives A at the K points); the blocks are filled for all
        points at once."""
        x, t = raw[:, :-1], raw[:, -1]
        gm = self.metric.at(x, t, chart)
        a = self.gauge.at(x, chart) if a is None else a
        sa = self.sign * a
        n = x.shape[1]
        out = np.empty((len(t), n + 1, n + 1))
        out[:, :n, :n] = gm + sa[:, :, None] * a[:, None, :]
        if adapted:
            out[:, :n, n] = out[:, n, :n] = sa
            out[:, n, n] = self.sign
        else:
            out[:, :n, n] = out[:, n, :n] = sa / raw[:, -1:]
            out[:, n, n] = [self.sign / square(ti, "the fiber coordinate t") for ti in t.tolist()]
        return out

    def raw_field(self, chart: str) -> Callable[[np.ndarray], np.ndarray]:
        return lambda raw: self.components(np.asarray(raw, dtype=float)[None], chart)[0]

    def eval(self, p: Point, v: TangentVector, w: TangentVector) -> float:
        if not (v.base.same_place(p) and w.base.same_place(p)):
            raise ContractViolation("vectors must be based at the evaluation point")
        vv, ww = [*v.vx.tolist(), v.vtb], [*w.vx.tolist(), w.vtb]
        return dot([dot(vv, column) for column in self.adapted(p).T.tolist()], ww)  # (v G) . w, as ``_norm`` sums

    # -- invariant helpers ----------------------------------------------------

    def det_identity_residual(self, p: Point) -> float:
        """Relative defect of det(raw) * t^2 = sign * det(g_M)."""
        return float(det_identity_defect(self.raw(p), self.metric.at(p.x, p.t, p.chart), p.t, self.sign))

    def signature(self, p: Point) -> tuple[int, int]:
        """(positive, negative) eigenvalue counts of the raw components."""
        return tuple(int(count) for count in signature_counts(self.raw(p)))


def det_identity_defect(raw: np.ndarray, gm: np.ndarray, t: float | np.ndarray, sign: int) -> float | np.ndarray:
    """Relative defect of det(raw) * t^2 = sign * det(g_M), from the raw
    components and the base block at one point or a stack (t of shape (K,))."""
    det_gm = np.linalg.det(gm)
    t2 = np.reshape([square(ti, "the fiber coordinate t") for ti in np.ravel(t).tolist()], np.shape(t))
    return np.abs(np.linalg.det(raw) * t2 - sign * det_gm) / np.maximum(np.abs(det_gm), 1e-300)


def signature_counts(g: np.ndarray) -> tuple:
    """(positive, negative) eigenvalue counts of a symmetric matrix, or of each in a stack."""
    vals = np.linalg.eigvalsh(g)
    return np.sum(vals > 0, axis=-1), np.sum(vals < 0, axis=-1)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def christoffel_numeric(kk: KKMetric, p: Point | np.ndarray | list[float], *, cond_limit: float | None = 1e12,
                        chart: str | None = None, along: list[float] | None = None) -> np.ndarray | list[float]:
    """Levi-Civita symbols of the raw metric by central differences.

    ``p`` is a Point, or raw coordinates (x..., t) on ``chart``, one point or
    a stack of K, shape (K, n + 1); a single point is a stack of one. One pass
    over the stack: the metric is assembled at all K (4m + 1) stencil points
    with one read per field, g_M read at all of them and A at the K (4n + 1)
    whose x differ (a t-axis point takes its centre's), inverted once at each
    centre, gated per point on the 1-norm condition number ||g||_1 ||g^-1||_1
    from that inverse, and differenced as stacked arrays. Returns Gamma[..., A, B, C] with the upper
    index first, symmetrized in the lower pair.

    Given ``along``, a velocity v of m = n + 1 floats, and one point (on
    ``chart`` a list, read as it is, or a 1-d array), the call returns
    -Gamma^a(v, v) as a float list instead, the symbols' contraction bit for
    bit. Up to n = ``_FLOAT_KERNEL_MAX_N``: the same stencil, inverse and
    gate, g_M read at every stencil point and A at the 4n + 1 whose x
    differ, the rest on Python floats. Above it: the stacked symbols at the
    point, contracted on Python floats.
    """
    if along is not None:
        if chart is None:
            p, chart = [*p.x.tolist(), p.t], p.chart
        elif isinstance(p, np.ndarray):
            if p.ndim != 1:
                raise ContractViolation(f"the oracle's acceleration takes one raw point, got shape {p.shape}")
            p = p.tolist()
        if len(p) - 1 <= _FLOAT_KERNEL_MAX_N:
            points, h = _fd.float_stencil(p, keep_sign=(len(p) - 1,))
            gm, a = _stencil_fields(kk, points, len(p), chart)
            return _numeric_floats(len(p))(kk.sign, gm, a, points, h, along, cond_limit)
    raw, chart = (p.raw(), p.chart) if chart is None else (np.asarray(p, dtype=float), chart)
    stack = raw.reshape(-1, raw.shape[-1])
    m = stack.shape[1]
    points, h = _fd.stencil(stack, keep_sign=(m - 1,))
    # A at the 4n + 1 points of each stencil whose x differ; the t-axis points, the last 4, have the centre's x
    a = kk.gauge.at(points[:, :4 * m - 3, :-1].reshape(-1, m - 1), chart).reshape(len(stack), 4 * m - 3, m - 1)
    a = np.concatenate([a, np.repeat(a[:, :1], 4, axis=1)], axis=1).reshape(-1, m - 1)
    g = kk.components(points.reshape(-1, m), chart, a=a).reshape(points.shape + stack.shape[1:])
    ginv = _gated_inverse(g[:, 0], cond_limit)
    gamma = _levi_civita(ginv, _fd.stacked_partials(g[:, 1:], h)).reshape(raw.shape[:-1] + (raw.shape[-1],) * 3)
    return gamma if along is None else _contraction_floats(raw.size)(gamma.ravel().tolist(), along)


def _gated_inverse(g: np.ndarray, cond_limit: float | None) -> np.ndarray:
    """``_inverse`` of a stack of metrics; a NumericError names the first whose 1-norm condition number
    exceeds ``cond_limit`` (None: no gate) or is NaN."""
    ginv = _inverse(g)
    if cond_limit is not None:
        # a matrix's 1-norm is its largest absolute column sum
        cond = np.abs(g).sum(axis=1).max(axis=1) * np.abs(ginv).sum(axis=1).max(axis=1)
        if not np.all(cond <= cond_limit):  # a NaN fails too; an empty stack passes
            k = np.flatnonzero(~(cond <= cond_limit))[0]
            raise NumericError(f"metric condition number (1-norm) {cond[k]:.3e} at point {k} exceeds {cond_limit:.0e}")
    return ginv


def _stencil_fields(kk: KKMetric, points: list[float], m: int, chart: str) -> tuple[list[float], list[float]]:
    """g_M and A, as ``KKMetric.components`` reads them, from the 4m + 1 raw points of ``_fd.float_stencil``, m
    floats one after the other: g_M at all of them, and A at the first 4n + 1 (n = m - 1), the centre and the x
    axes. The t-axis points carry the centre's x floats, so ``_numeric_floats`` gives them the centre's A."""
    raw = np.array(points).reshape(-1, m)
    x = raw[:, :-1]
    return kk.metric.at(x, raw[:, -1], chart).ravel().tolist(), kk.gauge.at(x[:4 * m - 3], chart).ravel().tolist()


def _centre_inverse(g: list[float], cond_limit: float | None) -> list[float]:
    """``_gated_inverse`` of one m x m metric, given and returned as a flat C-order list."""
    return _gated_inverse(np.array(g).reshape(1, math.isqrt(len(g)), -1), cond_limit).ravel().tolist()


@cache
def _numeric_floats(m: int) -> Callable[..., list[float]]:
    """``christoffel_numeric``'s acceleration, generated once per m = n + 1, from the sign s, g_M at the 4m + 1
    stencil points and A at the first 4n + 1 (``_stencil_fields``), the points, their steps h, a velocity v and
    the gate's limit: the raw components assembled as ``KKMetric.components`` does, differenced, the centre
    inverted, and the symbols summed (``_levi_civita_lines``) and contracted, each float as the stacked oracle
    gives it. The stencil gives the t-axis points the centre's x floats and the x-axis points its t, so those
    take the centre's A and s A, and its t and s / t^2, computed once."""
    n = m - 1
    ka = lambda k: 0 if k > 4 * n else k  # point k's A is point ka(k)'s: a t-axis point has the centre's x
    kt = lambda k: 0 if 0 < k <= 4 * n else k  # point k's t is point kt(k)'s: an x-axis point has the centre's t
    distinct_t = [0, *range(4 * n + 1, 4 * m + 1)]

    def entry(k: int, i: int, j: int) -> str:
        if i < n and j < n:
            return f"gm[{(k * n + i) * n + j}] + sa{ka(k)}_{i} * a[{ka(k) * n + j}]"
        return f"f{kt(k)}" if i == j else f"sa{ka(k)}_{min(i, j)} / t{kt(k)}"

    names: dict[str, str] = {}  # a mixed entry's partial serves both of its places
    partials = [names.setdefault(_fd.partial_text(lambda k: entry(k, i, j), c, f"h{c}", f"hh{c}"), f"d{len(names)}")
                for c, i, j in product(range(m), repeat=3)]
    inverse = [f"i{k}" for k in range(m * m)]
    sums, symbols = _levi_civita_lines(m, inverse, partials)
    return run_generated(["def kernel(s, gm, a, points, h, v, cond_limit):",
                          f"    {', '.join(f'h{c}' for c in range(m))}, = h",
                          *(f"    hh{c} = 2.0 * h{c}" for c in range(m)),
                          *(f"    t{k} = points[{k * m + n}]" for k in distinct_t),
                          *(f"    sa{k}_{i} = s * a[{k * n + i}]" for k in range(4 * n + 1) for i in range(n)),
                          *(f"    f{k} = s / square(t{k}, 'the fiber coordinate t')" for k in distinct_t),
                          f"    g = [{', '.join(entry(0, i, j) for i, j in product(range(m), repeat=2))}]",
                          *(f"    {name} = {text}" for text, name in names.items()),
                          f"    {', '.join(inverse)}, = inverse(g, cond_limit)", *sums, *contracted(symbols, m)],
                         square=square, inverse=_centre_inverse)["kernel"]


@cache
def _contraction_floats(m: int) -> Callable[[list[float], list[float]], list[float]]:
    """``contracted`` as a kernel of m^3 symbols Gamma[(a * m + b) * m + c] and v, generated once per m."""
    return run_generated(["def kernel(gamma, v):", *contracted([f"gamma[{k}]" for k in range(m**3)], m)])["kernel"]


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., a, b, c] from the inverse metric and the metric's partials
    dg[..., c, a, b] = d_c g_ab, symmetrized in the lower pair (the raw
    formula is symmetric up to roundoff); leading axes are a stack."""
    swapped = np.swapaxes(dg, -3, -2)  # [d, b, c] = d_b G_dc
    lowered = swapped + np.swapaxes(swapped, -2, -1) - dg  # + d_c G_db - d_d G_bc
    gamma = np.einsum("...ad,...dbc->...abc", ginv, lowered)
    return 0.25 * (gamma + np.swapaxes(gamma, -1, -2))  # the formula's 1/2 times the symmetrization's


def _levi_civita_lines(n: int, inv: Sequence[str | None], dg: Sequence[str],
                       zero: Sequence[bool] | None = None) -> tuple[list[str], list[str | None]]:
    """``_levi_civita`` of one n x n metric as lines of generated code on floats, from the texts of its
    inverse's entries inv[a * n + d] (None for a structural zero) and of its partials dg[(c * n + a) * n + b]
    = d_c g_ab, structural zeros where ``zero`` says so: the lines, and the texts of the symbols
    Gamma[(a * n + b) * n + c], None for a structural zero. Each sum starts at 0.0 and runs over d in index
    order, as numpy's einsum sums these small contractions, so the symbols are ``_levi_civita``'s bit for
    bit. A product by a structural zero is left out of its sum: where the factors are finite that changes no
    bit, as the product is +-0.0 and a sum from 0.0 is never -0.0."""
    at = lambda c, a, b: (c * n + a) * n + b
    lines, pairs = [], {}  # (b, c) -> each d, in order, whose l_dbc is not a structural zero
    for d, b, c in product(range(n), repeat=3):
        terms = at(b, d, c), at(c, d, b), at(d, b, c)
        if zero is None or not all(zero[k] for k in terms):
            pairs.setdefault((b, c), []).append(d)
            lines.append(f"    l{d}_{b}_{c} = {dg[terms[0]]} + {dg[terms[1]]} - {dg[terms[2]]}")
    sums = set()
    for a, b, c in product(range(n), repeat=3):
        terms = "".join(f" + {inv[a * n + d]} * l{d}_{b}_{c}" for d in pairs.get((b, c), ()) if inv[a * n + d])
        if terms:
            sums.add((a, b, c))
            lines.append(f"    s{a}_{b}_{c} = 0.0{terms}")
    s = lambda a, b, c: f"s{a}_{b}_{c}" if (a, b, c) in sums else "0.0"
    symbols = [f"0.25 * ({s(a, b, c)} + {s(a, c, b)})" if (a, b, c) in sums or (a, c, b) in sums else None
               for a, b, c in product(range(n), repeat=3)]
    return lines, symbols


def _inverse(g: np.ndarray) -> np.ndarray:
    """The inverse of a metric block or of each in a stack; a singular one is a NumericError."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"metric is not invertible: {exc}") from None


@cache
def _jet_kernel(n: int, fiber: bool, zeros: tuple[bool, ...] | None, along: bool) -> Callable[..., list[float]]:
    """The zero-gauge closed form of a block's jet (laid out as ``Jet`` says) on Python floats, generated once
    per (n, fiber, zeros, along): from the jet, t and the sign s, the (n + 1)^3 symbols in C order, or with
    ``along`` -Gamma^a(v, v) for a velocity v (``contracted``). The block's inverse is adj(g) / det(g), det(g)
    expanded along the first row, up to n = ``_FLOAT_KERNEL_MAX_N``, within a few ulps times the condition
    number of LAPACK's (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 14); it is
    LAPACK's above, and for a zero, subnormal or non-finite det(g), so a singular block is LAPACK's
    NumericError. The symbols are those of ``christoffel_closed``, each sum from 0.0 in index order: the rate
    is rate[c * n + a] = g^{cd} dg_ad/dt, the fiber block 0.5 (f_ab + f_ba) with f = -s (t^2/2) dg_M/dt, and
    without dg_M/dt the mixed blocks are 0 and the fiber one -s (t^2/2) times 0, a zero with the sign of -s.

    ``zeros`` marks the jet's structural zeros (None: none, and nothing is left out). A product by one, by an
    inverse entry whose cofactor is one, or by a sum that is one as a result, is left out of its sum from 0.0,
    and in the contraction so is one by a zero block of the layout. For a finite jet, inverse and velocity that
    changes no bit. Where a structural zero meets an infinity (a non-finite jet or velocity, or LAPACK's
    inverse past the float range) it gives no NaN for the 0 * inf that it leaves out. det(g), and above n = 3
    LAPACK's inverse, is taken even where no inverse entry is used (a constant block), so a singular block
    fails as LAPACK's at every n."""
    m, size, fold = n + 1, n * n, zeros is not None
    zero = lambda k: fold and zeros[k]
    g = lambda a, b: f"jet[{a % n * n + b % n}]"
    gz = lambda a, b: zero(a % n * n + b % n)
    cofactors = ([("1.0", False)] if n == 1 else
                 [(g(1, 1), gz(1, 1)), (f"-{g(1, 0)}", gz(1, 0)), (f"-{g(0, 1)}", gz(0, 1)), (g(0, 0), gz(0, 0))]
                 if n == 2 else  # at n = 3 the cyclic form carries the signs
                 [(f"{g(a + 1, b + 1)} * {g(a + 2, b + 2)} - {g(a + 1, b + 2)} * {g(a + 2, b + 1)}",
                   (gz(a + 1, b + 1) or gz(a + 2, b + 2)) and (gz(a + 1, b + 2) or gz(a + 2, b + 1)))
                  for a in range(3) for b in range(3)] if n == 3 else [])
    inv = [None if cofactors and cofactors[b * n + a][1] else f"i{a * n + b}" for a in range(n) for b in range(n)]
    dt = lambda a, b: size + size * n + a * n + b  # the jet's index of d_t g_ab
    lines, base = _levi_civita_lines(n, inv, [f"jet[{size + k}]" for k in range(size * n)],
                                     [zero(size + k) for k in range(size * n)] if fold else None)
    rates = set()
    for c, a in (product(range(n), repeat=2) if fiber else ()):
        terms = "".join(f" + {inv[c * n + d]} * jet[{dt(a, d)}]"
                        for d in range(n) if inv[c * n + d] and not zero(dt(a, d)))
        if terms:
            rates.add((c, a))
            lines.append(f"    r{c}_{a} = 0.0{terms}")

    entries, skip = ["0.0"] * m**3, [fold] * m**3  # skip: a structural zero, left out of the contraction
    for (a, b, c), text in zip(product(range(n), repeat=3), base):
        entries[(a * m + b) * m + c], skip[(a * m + b) * m + c] = text or "0.0", text is None
    for a, b in product(range(n), repeat=2):
        if fiber:
            mixed = f"0.5 * r{a}_{b}" if (a, b) in rates else "0.0"
            entries[(a * m + b) * m + n] = entries[(a * m + n) * m + b] = mixed
            skip[(a * m + b) * m + n] = skip[(a * m + n) * m + b] = (a, b) not in rates
            entries[(n * m + a) * m + b] = f"0.5 * (f{a}_{b} + f{b}_{a})"
            skip[(n * m + a) * m + b] = zero(dt(a, b)) and zero(dt(b, a))
        else:
            entries[(n * m + a) * m + b] = "z"
    entries[-1], skip[-1] = "-1.0 / t", False
    fibers = {f for a, b in product(range(n), repeat=2) if fiber and not (along and skip[(n * m + a) * m + b])
              for f in ((a, b), (b, a))}
    if fibers or not (fiber or along and fold):
        lines += [f"    z = -s * {'(t ** 2 / 2.0)' if fiber else '0.0'}",
                  *(f"    f{a}_{b} = z * jet[{dt(a, b)}]" for a, b in sorted(fibers))]

    used = [k for k in range(size) if inv[k] and any(f" + {inv[k]} * " in line for line in lines)]
    names = {"lapack": lambda jet: _inverse(np.array(jet[:size]).reshape(n, n)).ravel().tolist()}
    head = [f"    {', '.join(f'i{k}' for k in range(size))}, = lapack(jet)"]
    if n <= _FLOAT_KERNEL_MAX_N:
        wanted = sorted({*range(n), *(k % n * n + k // n for k in used)})  # det's cofactors, those of used entries
        names.update(abs=abs, tiny=float(np.finfo(float).tiny), inf=np.inf)
        head = [*(f"    c{k} = {cofactors[k][0]}" for k in wanted),
                "    det = " + " + ".join(f"{g(0, b)} * c{b}" for b in range(n)), "    if tiny <= abs(det) < inf:",
                *([f"        i{k} = c{k % n * n + k // n} / det" for k in used] or ["        pass"]),
                "    else:", "    " + head[0]]
    tail = contracted(entries, m, skip if fold else None) if along else [f"    return [{', '.join(entries)}]"]
    return run_generated([f"def kernel(jet, t, s{', v' if along else ''}):", *head, *lines, *tail], **names)["kernel"]


def block_jet(kk: KKMetric, x: Sequence[float], t: float, chart: str) -> tuple[Jet, Sequence[float]]:
    """The base block's jet at (x, t), x a flat sequence of floats, and the ``Jet`` that lays it out: where
    ``kk.jet`` registers one for ``chart``, that one's values, which read no g_M here; otherwise g_M read once,
    stacked, on the stencil around x, or around (x, t) for a fiber-dependent block, its centre and its central
    differences, with no structural zeros."""
    if kk.jet is not None:
        try:
            jet = kk.jet[chart]
        except KeyError:
            raise ContractViolation(f"no registered jet for chart {chart!r}") from None
        return jet, jet.values(*x, t)
    x = np.asarray(x, dtype=float)
    n, fiber = x.size, kk.metric.time_dependent
    points, h = _fd.stencil((np.append(x, t) if fiber else x)[None], keep_sign=(n,))
    stencil = points[0]
    gms = kk.metric.at(stencil[:, :n], stencil[:, n] if fiber else np.full(len(stencil), t), chart)
    partials = _fd.stacked_partials(gms[None, 1:], h)[0]  # [axis, a, b]
    return Jet(None, None, n, fiber), gms[0].ravel().tolist() + partials.ravel().tolist()


def base_symbols(kk: KKMetric, x: Sequence[float], t: float, chart: str) -> np.ndarray:
    """The Levi-Civita symbols Gamma^a_bc of the base block at (x, t), frozen t, as an (n, n, n) array: the
    base block of the zero-gauge closed form of ``block_jet``."""
    jet, values = block_jet(kk, x, t, chart)
    m = len(x) + 1
    return np.reshape(jet.symbols(values, t, kk.sign), (m, m, m))[:-1, :-1, :-1].copy()


def base_inverse(kk: KKMetric, x: np.ndarray, t: float, chart: str) -> np.ndarray:
    """The inverse base block at (x, t), read and inverted."""
    return _inverse(kk.metric.at(x, t, chart))


def christoffel_closed(kk: KKMetric, p: Point | np.ndarray | list[float], *, chart: str | None = None,
                       along: list[float] | None = None) -> np.ndarray | list[float]:
    """Closed-form symbols assembled from the base block's jet (``block_jet``).

    ``p`` is a Point, or raw coordinates (x..., t) of one point on ``chart``,
    a list of floats (read as it is) or a 1-d array; a raw fiber coordinate
    closer to zero than ``FIBER_CUTOFF`` is refused, as a Point refuses it.
    Given ``along``, a velocity v of n + 1 floats, the call returns the
    acceleration -Gamma^a(v, v) instead, a float list from one generated
    kernel; with a nonzero gauge field that is a ContractViolation.

    For a vanishing gauge field (both signs) the output agrees with the
    finite-difference oracle and is the validated regime (``_jet_kernel``):

        Gamma^c_ab = base symbols,  Gamma^c_at = (1/2) g^{cd} dg_ad/dt,
        Gamma^t_ab = -sign * (t^2/2) dg_ab/dt,  Gamma^t_tt = -1/t.

    With a nonzero gauge field only sign +1 is available; the gauge-dependent
    terms are evaluated exactly as published for that case and added to the
    zero-gauge symbols before the lower pair is symmetrized, and their
    disagreement with the oracle is reported by ``closed_form_deviation``
    rather than asserted away.
    """
    if chart is None:
        p, chart = [*p.x.tolist(), p.t], p.chart
    elif isinstance(p, np.ndarray):
        if p.ndim != 1:
            raise ContractViolation(f"closed-form symbols take one raw point, got shape {p.shape}")
        p = p.tolist()
    t = p[-1]
    if abs(t) < FIBER_CUTOFF:
        raise DomainError(f"fiber coordinate too close to zero: t = {t:.3e}")
    if along is not None:
        if not kk.gauge.is_zero:
            raise ContractViolation("the closed-form acceleration along a velocity needs a vanishing gauge field")
        if kk.jet is not None and chart in kk.jet:  # ``block_jet``'s registered jet, read at p = (x..., t)
            jet = kk.jet[chart]
            return jet.accel(jet.values(*p), t, kk.sign, along)
        jet, values = block_jet(kk, p[:-1], t, chart)
        return jet.accel(values, t, kk.sign, along)
    x, s = p[:-1], kk.sign
    n = len(x)
    jet, values = block_jet(kk, x, t, chart)
    if not kk.gauge.is_zero and s != +1:
        raise NumericError("closed-form symbols with a nonzero gauge field are only defined for sign +1; "
                           "use the finite-difference oracle")
    gamma = np.array(jet.symbols(values, t, s)).reshape(n + 1, n + 1, n + 1)
    if kk.gauge.is_zero:
        return gamma

    # the published gauge terms, added to the zero-gauge symbols
    x, base = np.array(x), gamma[:n, :n, :n].copy()
    dgdt = np.reshape(values[n * n + n**3:], (n, n)) if jet.fiber else np.zeros((n, n))
    gminv = base_inverse(kk, x, t, chart)
    a = kk.gauge.at(x, chart)
    jac_a = kk.gauge.jacobian(x, chart)  # jac[b, a] = d_a A_b
    f = jac_a.T - jac_a  # the curvature F_ab = d_a A_b - d_b A_a
    sym_da = jac_a + jac_a.T  # d_a A_b + d_b A_a
    ag = gminv @ a  # (g_M)^{cd} A_d

    # spatial block: (1/2) g^{cd} (A_b F_ad + A_a F_bd) + (1/2) g^{cd} A_d t dg_ab/dt
    gamma[:n, :n, :n] += 0.5 * (
        np.einsum("cd,b,ad->cab", gminv, a, f) + np.einsum("cd,a,bd->cab", gminv, a, f)
    )
    gamma[:n, :n, :n] += 0.5 * t * np.einsum("c,ab->cab", ag, dgdt)
    # mixed block gains the published (1/t) F term
    gamma[:n, :n, n] += 0.5 / t * np.einsum("cd,da->ca", gminv, f)
    gamma[:n, n, :n] = gamma[:n, :n, n]
    # fiber-spatial-spatial
    gamma[n, :n, :n] += -t * np.einsum("c,cab->ab", a, base)
    gamma[n, :n, :n] += -(t / 2.0) * (
        np.einsum("c,b,ac->ab", ag, a, f) + np.einsum("c,a,bc->ab", ag, a, f)
    )
    gamma[n, :n, :n] += (t / 2.0) * sym_da
    gamma[n, :n, :n] += -(t**2 / 2.0) * float(a @ gminv @ a) * dgdt
    # fiber-spatial-fiber, as published; the trailing contraction carries
    # no free base index, so the same value is added for every a
    scalar = -(t / 2.0) * float(np.einsum("cd,d,cd->", gminv, a, dgdt))
    mixed_f = -0.5 * np.einsum("cd,d,ca->a", gminv, a, f)
    gamma[n, :n, n] = mixed_f + scalar
    gamma[n, n, :n] = gamma[n, :n, n]
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


def contracted(symbols: list[str], m: int, skip: Sequence[bool] | None = None) -> list[str]:
    """The lines of a generated kernel that return -Gamma^a(v, v) from a velocity v of m floats, given the m^3
    symbols Gamma[(a * m + b) * m + c] as float expressions: each sum starts at 0.0 and adds (Gamma[a, b, c] v_b)
    v_c over (b, c) in C order, as np.einsum("abc,b,c->a") sums it, less the products by a symbol that ``skip``
    marks as a structural zero (for a finite v, +-0.0 that change no bit). No other zero symbol is skipped:
    0 * inf stays NaN."""
    sums = ("-(0.0" + "".join(f" + ({symbols[(a * m + b) * m + c]}) * v{b} * v{c}" for b in range(m) for c in range(m)
                              if not (skip and skip[(a * m + b) * m + c])) + ")" for a in range(m))
    return [f"    {', '.join(f'v{b}' for b in range(m))}, = v", f"    return [{', '.join(sums)}]"]


def closed_form_deviation(kk: KKMetric, points: Sequence[Point]) -> float:
    """Max componentwise |closed - numeric| over the sample points, one oracle call per chart."""
    closed = np.array([christoffel_closed(kk, p) for p in points])
    numeric = read_raw(partial(christoffel_numeric, kk), points)
    return float(np.max(np.abs(closed - numeric), initial=0.0))


# ---------------------------------------------------------------------------
# compatibility, volume, divergence
# ---------------------------------------------------------------------------

def covariant_metric_derivative(gamma: np.ndarray, metric, p: Point) -> np.ndarray:
    """nabla_C G_AB = d_C G_AB - Gamma^D_CA G_DB - Gamma^D_CB G_AD.

    ``metric`` is anything exposing ``raw_field(chart)``; pass the original
    degenerate metric to witness non-metricity, or the assembled metric
    itself to confirm the Levi-Civita property.
    """
    field_fn = metric.raw_field(p.chart)
    raw_p = p.raw()
    t_axis = raw_p.size - 1
    g = field_fn(raw_p)
    dg = _fd.partials(field_fn, raw_p, keep_sign=(t_axis,))
    corr1 = np.einsum("dca,db->cab", gamma, g)
    corr2 = np.einsum("dcb,ad->cab", gamma, g)
    return dg - corr1 - corr2


def volume_density(metric: DegenerateMetric, p: Point) -> float:
    """sqrt(|det g_M(x, t)|) / |t|, the density of the canonical volume."""
    det_gm = float(np.linalg.det(metric.at(p.x, p.t, p.chart)))
    if det_gm == 0.0:
        raise DomainError("base block is singular; volume density undefined")
    return float(np.sqrt(abs(det_gm)) / abs(p.t))


def _density_field(metric: DegenerateMetric, chart: str) -> Callable[[np.ndarray], float]:
    def rho(raw: np.ndarray) -> float:
        x, t = raw[:-1], float(raw[-1])
        return float(np.sqrt(abs(np.linalg.det(metric.at(x, t, chart)))) / abs(t))

    return rho


def divergence(X, metric: DegenerateMetric, p: Point) -> float:
    """Div(X) = rho^{-1} sum_A d_A(rho X^A) in raw coordinates.

    Independent of any connection; differentiates the product directly.
    """
    rho = _density_field(metric, p.chart)
    raw_p = p.raw()
    t_axis = raw_p.size - 1
    x_fn = X.raw_field(p.chart)
    d = _fd.partials(lambda raw: rho(raw) * x_fn(raw), raw_p, keep_sign=(t_axis,))
    return float(np.trace(d)) / rho(raw_p)


# ---------------------------------------------------------------------------
# regularity probe near the zero section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Boundedness of (nabla_X Y)^A along a fiber sequence t -> 0.

    ``bounded[A]`` is a growth test: the last three samples may not exceed
    ten times the scale set at the first (largest-t) sample. A component
    diverging like 1/t grows three orders of magnitude over the window and
    is flagged; decaying or constant components pass.
    """

    t_values: np.ndarray
    components: np.ndarray  # shape (len(t_values), n + 1)
    bounded: np.ndarray  # shape (n + 1,), bool

    @property
    def all_bounded(self) -> bool:
        return bool(np.all(self.bounded))


def regularity_probe(
    kk: KKMetric,
    X: Callable[[np.ndarray, float], np.ndarray],
    Y: Callable[[np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    chart: str,
    t_values: Sequence[float] | None = None,
) -> RegularityReport:
    """Evaluate (nabla_X Y)^A = X^B d_B Y^A + Gamma^A_BC X^B Y^C along t -> 0.

    ``X`` and ``Y`` give raw components (x, t) -> (n+1,) that are smooth at
    t = 0 on the associated line bundle; the probe samples t strictly away
    from 0 and reports whether each component sequence stays bounded.
    """
    if t_values is None:
        t_values = np.logspace(-1, -6, 6)
    x0 = np.asarray(x0, dtype=float)
    raws = np.array([Point(x0, float(t), chart).raw() for t in t_values])

    def y_raw(raw: np.ndarray) -> np.ndarray:
        return np.asarray(Y(raw[:-1], float(raw[-1])), dtype=float)

    rows = []
    for raw_p, gamma in zip(raws, christoffel_numeric(kk, raws, cond_limit=None, chart=chart)):
        dy = _fd.partials(y_raw, raw_p, keep_sign=(raw_p.size - 1,))  # dy[B, A]
        xv = np.asarray(X(x0, float(raw_p[-1])), dtype=float)
        yv = y_raw(raw_p)
        rows.append(xv @ dy + np.einsum("abc,b,c->a", gamma, xv, yv))
    components = np.array(rows)
    scale = np.maximum(np.abs(components[0]), 1e-8)
    tail = np.max(np.abs(components[-3:]), axis=0)
    bounded = tail <= 10.0 * scale
    return RegularityReport(np.asarray(t_values, dtype=float), components, bounded)
