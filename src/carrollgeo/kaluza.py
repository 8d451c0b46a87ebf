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
from base data: the base symbols, dg_M/dt and the rate g_M^-1 dg_M/dt, which
a scenario registers exactly as its ``base_jet`` where it can (a block
conformal in t gives the rate as (Omega'/Omega) I, with no inverse). It is
validated against the oracle only when the gauge field vanishes, which is
where geodesics use it by default, and with a nonzero gauge field its output
is something to compare, not to trust (see ``closed_form_deviation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import _fd
from .connection import GaugeField
from .errors import ContractViolation, DomainError, NumericError
from .geometry import FIBER_CUTOFF, DegenerateMetric, Point, TangentVector, read_raw, square


@dataclass
class KKMetric:
    """Assembled non-degenerate metric; ``base_jet`` is optional registered base data (see ``base_data``)."""

    sign: int
    metric: DegenerateMetric
    gauge: GaugeField
    base_jet: Callable[[np.ndarray, float, str], tuple] | None = None

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
        vv = np.append(v.vx, v.vtb)
        ww = np.append(w.vx, w.vtb)
        return float(vv @ self.adapted(p) @ ww)

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


def _inverse(g: np.ndarray) -> np.ndarray:
    """The inverse of a metric block or of each in a stack; a singular one is a NumericError."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"metric is not invertible: {exc}") from None


def base_data(kk: KKMetric, x: np.ndarray, t: float,
              chart: str) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The Levi-Civita symbols of the base block at frozen t (symmetric in
    the lower pair), dg_M/dt and the rate g_M^-1 dg_M/dt (rate[c, a] =
    g^{cd} dg_ad/dt), all at (x, t); dg_M/dt and the rate are None for a
    fiber-independent block. They are the registered ``kk.base_jet`` where
    there is one, which reads no g_M here (see ``base_inverse``); one that
    gives no dg_M/dt for a fiber-dependent block is a ContractViolation.
    Otherwise they are central differences over one stacked read of g_M on
    the stencil around x, or around (x, t) for a fiber-dependent block, whose
    centre gives the inverse."""
    if kk.base_jet is not None:
        base, dgdt, rate = kk.base_jet(x, t, chart)
        if dgdt is None and kk.metric.time_dependent:
            raise ContractViolation(f"the registered base jet on chart {chart!r} gives no dg_M/dt for a "
                                    "fiber-dependent block")
        return base, dgdt, rate
    n = x.size
    fiber = kk.metric.time_dependent
    points, h = _fd.stencil((np.append(x, t) if fiber else x)[None], keep_sign=(n,))
    stencil = points[0]
    gms = kk.metric.at(stencil[:, :n], stencil[:, n] if fiber else np.full(len(stencil), t), chart)
    gminv = _inverse(gms[0])
    partials = _fd.stacked_partials(gms[None, 1:], h)[0]  # [axis, a, b]
    base = _levi_civita(gminv, partials[:n])
    if not fiber:
        return base, None, None
    return base, partials[n], np.einsum("cd,ad->ca", gminv, partials[n])


def base_inverse(kk: KKMetric, x: np.ndarray, t: float, chart: str) -> np.ndarray:
    """The inverse base block at (x, t), read and inverted."""
    return _inverse(kk.metric.at(x, t, chart))


def christoffel_closed(kk: KKMetric, p: Point | np.ndarray, *, chart: str | None = None) -> np.ndarray:
    """Closed-form symbols assembled from base data.

    ``p`` is a Point, or raw coordinates (x..., t) of one point on ``chart``;
    a raw fiber coordinate closer to zero than ``FIBER_CUTOFF`` is refused,
    as a Point refuses it.

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
        x, t, chart = p.x, p.t, p.chart
    else:
        raw = np.asarray(p, dtype=float)
        if raw.ndim != 1:
            raise ContractViolation(f"closed-form symbols take one raw point, got shape {raw.shape}")
        x, t = raw[:-1], float(raw[-1])
        if abs(t) < FIBER_CUTOFF:
            raise DomainError(f"fiber coordinate too close to zero: t = {t:.3e}")
    n = x.size
    s = kk.sign
    base, dgdt, rate = base_data(kk, x, t, chart)

    gamma = np.zeros((n + 1, n + 1, n + 1))
    gamma[:n, :n, :n] = base
    gamma[n, n, n] = -1.0 / t
    if dgdt is None:
        # the dg_M/dt blocks vanish: the mixed one stays 0 and the fiber one
        # is -s (t^2/2) times 0, a zero with the sign of -s
        gamma[n, :n, :n] = -s * 0.0
    else:
        gamma[:n, :n, n] = gamma[:n, n, :n] = 0.5 * rate
        fiber = -s * (t**2 / 2.0) * dgdt
        gamma[n, :n, :n] = 0.5 * (fiber + fiber.T) if kk.gauge.is_zero else fiber

    if not kk.gauge.is_zero:
        if s != +1:
            raise NumericError(
                "closed-form symbols with a nonzero gauge field are only defined for sign +1; "
                "use the finite-difference oracle"
            )
        dgdt = np.zeros((n, n)) if dgdt is None else dgdt
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

    # without a gauge field every block is symmetric in the lower pair already
    # (the base symbols are; the fiber block is symmetrized above)
    return gamma


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
