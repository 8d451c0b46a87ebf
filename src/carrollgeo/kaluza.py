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
from base data: the base symbols, dg_M/dt and the rate g_M^-1 dg_M/dt as flat
float lists, which a scenario registers exactly as its ``base_jet`` where it
can (a block conformal in t gives the rate as (Omega'/Omega) I, with no
inverse). It is validated against the oracle only when the gauge field
vanishes, which is where geodesics use it by default, and with a nonzero
gauge field its output is something to compare, not to trust (see
``closed_form_deviation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import _fd
from .connection import GaugeField
from .errors import ContractViolation, DomainError, NumericError
from .expressions import run_generated
from .geometry import FIBER_CUTOFF, DegenerateMetric, Point, TangentVector, dot, read_raw, square


@dataclass
class KKMetric:
    """Assembled non-degenerate metric; ``base_jet``, if any, gives base data as float lists (see ``base_data``)."""

    sign: int
    metric: DegenerateMetric
    gauge: GaugeField
    base_jet: Callable[[Sequence[float], float, str], tuple] | None = None

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ContractViolation("sign must be +1 or -1")

    # -- components ---------------------------------------------------------

    def adapted(self, p: Point) -> np.ndarray:
        return self.components(p.raw()[None], p.chart, adapted=True)[0]

    def raw(self, p: Point) -> np.ndarray:
        return self.components(p.raw()[None], p.chart)[0]

    def components(self, raw: np.ndarray, chart: str, adapted: bool = False) -> np.ndarray:
        """Raw components (adapted ones: fiber frame vector t * d/dt) at the
        K raw points (x..., t) of ``raw``, shape (K, n + 1, n + 1). Each field
        is read with one stacked call to ``metric.at`` and ``gauge.at``; the
        blocks are filled for all points at once."""
        x, t = raw[:, :-1], raw[:, -1]
        gm = self.metric.at(x, t, chart)
        a = self.gauge.at(x, chart)
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

def christoffel_numeric(kk: KKMetric, p: Point | np.ndarray, *, cond_limit: float | None = 1e12,
                        chart: str | None = None) -> np.ndarray:
    """Levi-Civita symbols of the raw metric by central differences.

    ``p`` is a Point, or raw coordinates (x..., t) on ``chart``, one point or
    a stack of K, shape (K, n + 1); a single point is a stack of one. One pass
    over the stack: the metric is assembled at all K (4m + 1) stencil points
    with one read per field, inverted once at each centre, gated per point on
    the 1-norm condition number ||g||_1 ||g^-1||_1 from that inverse, and
    differenced as stacked arrays. Returns Gamma[..., A, B, C] with the upper
    index first, symmetrized in the lower pair.
    """
    raw, chart = (p.raw(), p.chart) if chart is None else (np.asarray(p, dtype=float), chart)
    stack = raw.reshape(-1, raw.shape[-1])
    points, h = _fd.stencil(stack, keep_sign=(stack.shape[1] - 1,))
    g = kk.components(points.reshape(-1, stack.shape[1]), chart).reshape(points.shape + stack.shape[1:])
    ginv = _inverse(g[:, 0])
    if cond_limit is not None:
        # a matrix's 1-norm is its largest absolute column sum
        cond = np.abs(g[:, 0]).sum(axis=1).max(axis=1) * np.abs(ginv).sum(axis=1).max(axis=1)
        if not np.all(cond <= cond_limit):  # a NaN fails too; an empty stack passes
            k = np.flatnonzero(~(cond <= cond_limit))[0]
            raise NumericError(f"metric condition number (1-norm) {cond[k]:.3e} at point {k} exceeds {cond_limit:.0e}")
    gamma = _levi_civita(ginv, _fd.stacked_partials(g[:, 1:], h))
    return gamma.reshape(raw.shape[:-1] + gamma.shape[1:])


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., a, b, c] from the inverse metric and the metric's partials
    dg[..., c, a, b] = d_c g_ab, symmetrized in the lower pair (the raw
    formula is symmetric up to roundoff); leading axes are a stack."""
    swapped = np.swapaxes(dg, -3, -2)  # [d, b, c] = d_b G_dc
    lowered = swapped + np.swapaxes(swapped, -2, -1) - dg  # + d_c G_db - d_d G_bc
    gamma = np.einsum("...ad,...dbc->...abc", ginv, lowered)
    return 0.25 * (gamma + np.swapaxes(gamma, -1, -2))  # the formula's 1/2 times the symmetrization's


@cache
def _levi_civita_floats(n: int, fiber: bool) -> Callable[[list[float], list[float]], tuple]:
    """``_levi_civita`` of one n x n block on Python floats, generated once per
    (n, fiber). It takes the inverse, ginv[a * n + d], and a block's jet, its
    entries and then its partials dg[(c * n + a) * n + b] on the axes x1..xn
    (and t, for a fiber-dependent block), and gives ``base_data``'s (base,
    dgdt, rate): the symbols Gamma[(a * n + b) * n + c] and, for a
    fiber-dependent block, the jet's t partials as they are and the rate
    g^{cd} dg_ad/dt at [c * n + a] (else None, None). Each sum starts at 0.0
    and runs over d in index order, as numpy's einsum sums these small
    contractions, so the symbols are ``_levi_civita``'s bit for bit."""
    dg = lambda c, a, b: f"jet[{(c * n + a) * n + b + n * n}]"
    lines = [f"    l{d}_{b}_{c} = {dg(b, d, c)} + {dg(c, d, b)} - {dg(d, b, c)}"
             for d in range(n) for b in range(n) for c in range(n)]
    lines += [f"    s{a}_{b}_{c} = 0.0" + "".join(f" + g[{a * n + d}] * l{d}_{b}_{c}" for d in range(n))
              for a in range(n) for b in range(n) for c in range(n)]
    base = ", ".join(f"0.25 * (s{a}_{b}_{c} + s{a}_{c}_{b})" for a in range(n) for b in range(n) for c in range(n))
    rate = ", ".join("0.0" + "".join(f" + g[{c * n + d}] * {dg(n, a, d)}" for d in range(n))
                     for c in range(n) for a in range(n) if fiber)
    rest = f"jet[{n * n + n**3}:], [{rate}]" if fiber else "None, None"
    return run_generated(["def kernel(g, jet):", *lines, f"    return [{base}], {rest}"])["kernel"]


@cache
def jet_base_data(n: int, fiber: bool) -> Callable[[list[float]], tuple]:
    """``base_data``'s (base, dgdt, rate) as a function of one n x n block's jet, bound once per (n, fiber):
    its entries, then their partials on x1..xn (and t, for a fiber-dependent block) in C order. One inverse
    of the block, ``_block_inverse``'s, feeds ``_levi_civita_floats``."""
    kernel, inverse = _levi_civita_floats(n, fiber), _block_inverse(n)
    return lambda jet: kernel(inverse(jet), jet)


@cache
def _block_inverse(n: int) -> Callable[[Sequence[float]], list[float]]:
    """The inverse of one n x n block as a flat C-order list of Python floats from its entries g[a * n + b]
    (the first n * n of its jet), bound once per n. Up to n = 3, generated adj(g) / det(g), det(g) expanded
    along the first row: within a few ulps times the condition number of LAPACK's LU inverse (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 14). LAPACK's (``_inverse``) above n = 3 and for
    a zero, subnormal or non-finite det(g), so a singular block is the NumericError that LAPACK raises."""
    lapack = lambda g: _inverse(np.array(g[:n * n]).reshape(n, n)).ravel().tolist()
    if n > 3:
        return lapack
    g = lambda a, b: f"g[{a % n * n + b % n}]"
    cofactors = (["1.0"] if n == 1 else [g(1, 1), f"-{g(1, 0)}", f"-{g(0, 1)}", g(0, 0)] if n == 2
                 else [f"{g(a + 1, b + 1)} * {g(a + 2, b + 2)} - {g(a + 1, b + 2)} * {g(a + 2, b + 1)}"
                       for a in range(3) for b in range(3)])  # at n = 3 the cyclic form carries the signs
    return run_generated(["def kernel(g):", *(f"    c{k} = {c}" for k, c in enumerate(cofactors)),
                          "    det = " + " + ".join(f"{g(0, b)} * c{b}" for b in range(n)),
                          "    if not tiny <= abs(det) < inf:", "        return lapack(g)",
                          f"    return [{', '.join(f'c{b * n + a} / det' for a in range(n) for b in range(n))}]"],
                         lapack=lapack, abs=abs, tiny=float(np.finfo(float).tiny), inf=np.inf)["kernel"]


def _inverse(g: np.ndarray) -> np.ndarray:
    """The inverse of a metric block or of each in a stack; a singular one is a NumericError."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"metric is not invertible: {exc}") from None


def base_data(kk: KKMetric, x: Sequence[float], t: float,
              chart: str) -> tuple[Sequence[float], Sequence[float] | None, Sequence[float] | None]:
    """The Levi-Civita symbols of the base block at frozen t, dg_M/dt and the rate g_M^-1 dg_M/dt at (x, t),
    x a flat sequence of floats, as flat lists of Python floats in C order: base[(a * n + b) * n + c] =
    Gamma^a_bc, dgdt[a * n + b] and rate[c * n + a] = g^{cd} dg_ad/dt; dg_M/dt and the rate are None for a
    fiber-independent block. They are the registered ``kk.base_jet`` where there is one, which gives them
    so and reads no g_M here (see ``base_inverse``); one that gives no dg_M/dt for a fiber-dependent block
    is a ContractViolation. Otherwise g_M is read once, stacked, on the stencil around x, or around (x, t)
    for a fiber-dependent block, and its centre and central differences are the jet that ``jet_base_data``
    turns into base data, as it does a scenario file's generated jet."""
    if kk.base_jet is not None:
        base, dgdt, rate = kk.base_jet(x, t, chart)
        if dgdt is None and kk.metric.time_dependent:
            raise ContractViolation(f"the registered base jet on chart {chart!r} gives no dg_M/dt for a "
                                    "fiber-dependent block")
        return base, dgdt, rate
    x = np.asarray(x, dtype=float)
    n = x.size
    fiber = kk.metric.time_dependent
    points, h = _fd.stencil((np.append(x, t) if fiber else x)[None], keep_sign=(n,))
    stencil = points[0]
    gms = kk.metric.at(stencil[:, :n], stencil[:, n] if fiber else np.full(len(stencil), t), chart)
    partials = _fd.stacked_partials(gms[None, 1:], h)[0]  # [axis, a, b]
    return jet_base_data(n, fiber)(gms[0].ravel().tolist() + partials.ravel().tolist())


def base_inverse(kk: KKMetric, x: np.ndarray, t: float, chart: str) -> np.ndarray:
    """The inverse base block at (x, t), read and inverted."""
    return _inverse(kk.metric.at(x, t, chart))


def christoffel_closed(kk: KKMetric, p: Point | np.ndarray | list[float], *, chart: str | None = None,
                       along: list[float] | None = None) -> np.ndarray | list[float]:
    """Closed-form symbols assembled from base data.

    ``p`` is a Point, or raw coordinates (x..., t) of one point on ``chart``,
    a list of floats (read as it is) or a 1-d array; a raw fiber coordinate
    closer to zero than ``FIBER_CUTOFF`` is refused, as a Point refuses it.
    Given ``along``, a velocity v of n + 1 floats, the call returns the
    acceleration -Gamma^a(v, v) instead, a float list from one generated
    kernel; with a nonzero gauge field that is a ContractViolation.

    For a vanishing gauge field (both signs) the output agrees with the
    finite-difference oracle and is the validated regime:

        Gamma^c_ab = base symbols,  Gamma^c_at = (1/2) g^{cd} dg_ad/dt,
        Gamma^t_ab = -sign * (t^2/2) dg_ab/dt,  Gamma^t_tt = -1/t.

    With a nonzero gauge field only sign +1 is available; the gauge-dependent
    terms are evaluated exactly as published for that case, and their
    disagreement with the oracle is reported by ``closed_form_deviation``
    rather than asserted away.
    """
    if chart is None:
        x, t, chart = p.x.tolist(), p.t, p.chart
    else:
        if isinstance(p, np.ndarray):
            if p.ndim != 1:
                raise ContractViolation(f"closed-form symbols take one raw point, got shape {p.shape}")
            p = p.tolist()
        x, t = p[:-1], p[-1]
        if abs(t) < FIBER_CUTOFF:
            raise DomainError(f"fiber coordinate too close to zero: t = {t:.3e}")
    if along is not None and not kk.gauge.is_zero:
        raise ContractViolation("the closed-form acceleration along a velocity needs a vanishing gauge field")
    n = len(x)
    s = kk.sign
    base, dgdt, rate = base_data(kk, x, t, chart)
    if kk.gauge.is_zero:
        blocks = () if dgdt is None else (dgdt, rate)
        if along is not None:
            return _closed_floats(n, dgdt is not None, True)(t, s, base, *blocks, along)
        return np.array(_closed_floats(n, dgdt is not None)(t, s, base, *blocks)).reshape(n + 1, n + 1, n + 1)
    if s != +1:
        raise NumericError(
            "closed-form symbols with a nonzero gauge field are only defined for sign +1; "
            "use the finite-difference oracle"
        )

    x, base = np.array(x), np.reshape(base, (n, n, n))
    gamma = np.zeros((n + 1, n + 1, n + 1))
    gamma[:n, :n, :n] = base
    gamma[n, n, n] = -1.0 / t
    if dgdt is None:
        gamma[n, :n, :n] = -s * 0.0
        dgdt = np.zeros((n, n))
    else:
        dgdt, rate = np.reshape(dgdt, (n, n)), np.reshape(rate, (n, n))
        gamma[:n, :n, n] = gamma[:n, n, :n] = 0.5 * rate
        gamma[n, :n, :n] = -s * (t**2 / 2.0) * dgdt
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


@cache
def _closed_floats(n: int, fiber: bool, along: bool = False) -> Callable[..., list[float]]:
    """The zero-gauge closed form on Python floats, generated once per (n,
    fiber, along): from t, the sign s, the base symbols base[(a * n + b) * n + c]
    and, for a fiber-dependent block, dg_M/dt and the rate (each [a * n + b]),
    the (n + 1)^3 symbols in C order, or with ``along`` -Gamma^a(v, v) for
    a velocity v, summed by ``contracted`` with each symbol's expression in
    place of its value. Every block is symmetric in the lower pair without
    a gauge field: the base symbols are, and the fiber block is symmetrized,
    0.5 (f_bc + f_cb) with f = -s (t^2/2) dg_M/dt. Without dg_M/dt the
    mixed blocks are 0 and the fiber one is -s (t^2/2) times 0, a zero with
    the sign of -s."""
    m = n + 1
    entries = ["0.0"] * m**3
    for a, b, c in product(range(n), repeat=3):
        entries[(a * m + b) * m + c] = f"base[{(a * n + b) * n + c}]"
    for a, b in product(range(n), repeat=2):
        entries[(a * m + b) * m + n] = entries[(a * m + n) * m + b] = f"0.5 * rate[{a * n + b}]" if fiber else "0.0"
        entries[(n * m + a) * m + b] = f"0.5 * (f{a}_{b} + f{b}_{a})" if fiber else "z"
    entries[-1] = "-1.0 / t"
    head = [f"    f{a}_{b} = z * dgdt[{a * n + b}]" for a, b in product(range(n), repeat=2)] if fiber else []
    return run_generated([f"def kernel(t, s, base{', dgdt, rate' if fiber else ''}{', v' if along else ''}):",
                          f"    z = -s * {'(t ** 2 / 2.0)' if fiber else '0.0'}", *head,
                          *(contracted(entries, m) if along else [f"    return [{', '.join(entries)}]"])])["kernel"]


def contracted(symbols: list[str], m: int) -> list[str]:
    """The lines of a generated kernel that return -Gamma^a(v, v) from a velocity v of m floats, given the m^3
    symbols Gamma[(a * m + b) * m + c] as float expressions: each sum starts at 0.0 and adds (Gamma[a, b, c] v_b)
    v_c over (b, c) in C order, as np.einsum("abc,b,c->a") sums it. No zero symbol is skipped: 0 * inf stays NaN."""
    sums = ("-(0.0" + "".join(f" + ({symbols[(a * m + b) * m + c]}) * v{b} * v{c}" for b in range(m) for c in range(m))
            + ")" for a in range(m))
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
