"""Adapted-frame calculus on scaling bundles with a degenerate metric.

A point carries base coordinates ``x``, a nonzero fiber coordinate ``t`` and
a chart label. Tangent vectors are stored in the adapted frame: ``vx`` on the
base directions and ``vtb`` on the Euler field (the generator of fiber
rescaling, locally ``t * d/dt``), so ``vtb`` is the raw fiber velocity
divided by ``t``. This keeps the degenerate block structure of the metric
exact: the full velocity-quadratic form is ``[[g_M, 0], [0, 0]]`` and the
Euler direction spans its kernel by construction.

Raw ``(x, t)`` components, needed by every finite-difference routine, are
obtained from the adapted ones through the diagonal frame factor
``diag(1, ..., 1, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _fd
from .errors import ConstructionError, ContractViolation, DomainError, NumericError

FIBER_CUTOFF = 1e-9


def square(v: float, what: str) -> float:
    """v**2 by libm pow, as Python computes it and an array power does not;
    a square beyond the float range, which Python raises as OverflowError
    where numpy would return inf, is a NumericError naming ``what`` v is."""
    try:
        return v**2
    except OverflowError:
        raise NumericError(f"the square of {what} = {v:.3e} overflows the float range") from None


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """a . b summed from 0.0 in index order; numpy's dot may fuse multiply-adds, as the BLAS build decides."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


# ---------------------------------------------------------------------------
# points and tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """Bundle point: base coordinates, nonzero fiber coordinate, chart label."""

    x: np.ndarray
    t: float
    chart: str = "main"

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))
        if x.ndim != 1 or x.size < 1:
            raise ContractViolation("base coordinates must be a 1d array with n >= 1")
        if not (math.isfinite(self.t) and all(map(math.isfinite, x.tolist()))):
            raise DomainError("non-finite coordinates")
        if abs(self.t) < FIBER_CUTOFF:
            raise DomainError(f"fiber coordinate too close to zero: t = {self.t:.3e}")

    @property
    def dim(self) -> int:
        return self.x.size

    def raw(self) -> np.ndarray:
        return np.concatenate((self.x, (self.t,)))

    def same_place(self, other: "Point") -> bool:
        return (
            self.chart == other.chart
            and self.t == other.t
            and self.x.shape == other.x.shape
            and bool(np.all(self.x == other.x))
        )


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector in the adapted frame: ``vx`` on d/dx, ``vtb`` on the Euler field."""

    vx: np.ndarray
    vtb: float
    base: Point

    def __post_init__(self):
        vx = np.atleast_1d(np.asarray(self.vx, dtype=float))
        object.__setattr__(self, "vx", vx)
        object.__setattr__(self, "vtb", float(self.vtb))
        if vx.size != self.base.dim:
            raise ContractViolation(
                f"vector has {vx.size} base components, point has dimension {self.base.dim}"
            )

    @classmethod
    def from_raw(cls, vx: np.ndarray, vt: float, base: Point) -> "TangentVector":
        return cls(np.asarray(vx, dtype=float), float(vt) / base.t, base)

    @property
    def vt(self) -> float:
        """Raw fiber velocity dt/dlambda."""
        return self.vtb * self.base.t

    def raw(self) -> np.ndarray:
        return np.concatenate((self.vx, (self.vt,)))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if not self.base.same_place(other.base):
            raise ContractViolation("cannot add vectors at different points")
        return TangentVector(self.vx + other.vx, self.vtb + other.vtb, self.base)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        if not self.base.same_place(other.base):
            raise ContractViolation("cannot subtract vectors at different points")
        return TangentVector(self.vx - other.vx, self.vtb - other.vtb, self.base)

    def __mul__(self, c: float) -> "TangentVector":
        return TangentVector(self.vx * c, self.vtb * c, self.base)

    __rmul__ = __mul__


def euler(base: Point) -> TangentVector:
    """The Euler field at ``base``: components (0, ..., 0, 1) in the adapted frame."""
    return TangentVector(np.zeros(base.dim), 1.0, base)


def basis_vector(base: Point, axis: int) -> TangentVector:
    vx = np.zeros(base.dim)
    vx[axis] = 1.0
    return TangentVector(vx, 0.0, base)


@dataclass(frozen=True)
class VectorField:
    """Vector field given by its adapted components at every point."""

    components: Callable[[Point], TangentVector]

    def at(self, p: Point) -> TangentVector:
        v = self.components(p)
        if not v.base.same_place(p):
            raise ContractViolation("vector field returned a vector at the wrong base point")
        return v

    def raw_field(self, chart: str) -> Callable[[np.ndarray], np.ndarray]:
        """Raw components as a function of the raw (x..., t) coordinate vector."""
        return lambda raw: self.at(Point(raw[:-1], raw[-1], chart)).raw()


def euler_field() -> VectorField:
    return VectorField(euler)


# ---------------------------------------------------------------------------
# charts and atlases
# ---------------------------------------------------------------------------

def _sample_box(rng: np.random.Generator, box: Sequence[tuple[float, float]], count: int) -> np.ndarray:
    """``count`` points drawn uniformly from a box of (lo, hi) pairs, one row each."""
    lo, hi = np.array(box, dtype=float).T
    return rng.uniform(lo, hi, size=(count, lo.size))


@dataclass(frozen=True)
class Chart:
    """Sampling box plus an optional hard domain predicate."""

    name: str
    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    domain: Callable[[np.ndarray], bool] | None = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_box(rng, self.box, count)

    def inside(self, x: np.ndarray) -> bool:
        if self.domain is None:
            return True
        return bool(self.domain(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ChartTransition:
    """One overlap component: base map, fiber factor ``t_dst = phi(x_src) * t_src``."""

    src: str
    dst: str
    base_map: Callable[[np.ndarray], np.ndarray]
    fiber_factor: Callable[[np.ndarray], float]
    overlap_box: tuple[tuple[float, float], ...]
    label: str = ""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _sample_box(rng, self.overlap_box, count)

    def contains(self, x: np.ndarray) -> bool:
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(np.atleast_1d(x), self.overlap_box))

    def map_point(self, p: Point) -> Point:
        if p.chart != self.src:
            raise ContractViolation(f"point is in chart {p.chart!r}, transition expects {self.src!r}")
        phi = float(self.fiber_factor(p.x))
        if abs(phi) < FIBER_CUTOFF:
            raise ConstructionError("fiber transition factor vanishes")
        return Point(np.asarray(self.base_map(p.x), dtype=float), phi * p.t, self.dst)

    def tangent_maps(self, points: Sequence[Point]) -> list[TangentMap]:
        """The differential (base Jacobian, grad log|phi|, image) at each of ``points``: the callables
        run point by point, so the first point whose image fails raises; one pass differences them all."""
        stencils, h = _fd.transition_stencil(np.array([p.x for p in points]))
        maps, factors, images = [], [], []
        for p, around in zip(points, stencils):
            maps.append([self.base_map(x) for x in around[1:]])
            factors.append([self.fiber_factor(x) for x in around[1:]])
            images.append(self.map_point(p))
        jac = _fd.stacked_partials(np.array(maps, dtype=float), h)  # [point, axis, component]
        grad_log_phi = _fd.stacked_partials(np.log(np.abs(np.array(factors, dtype=float))), h)
        return [TangentMap(*args) for args in zip(points, images, np.swapaxes(jac, 1, 2), grad_log_phi)]

    def tangent_map(self, p: Point) -> TangentMap:
        """The differential at one point (see ``tangent_maps``)."""
        return self.tangent_maps([p])[0]


@dataclass(frozen=True)
class TangentMap:
    """A chart transition's differential at one base point.

    The adapted fiber velocity shifts by the logarithmic derivative of the
    fiber factor: vx' = jac @ vx and vtb' = vtb + vx . grad(log|phi|).
    """

    source: Point
    image: Point
    jac: np.ndarray
    grad_log_phi: np.ndarray

    def __call__(self, v: TangentVector) -> TangentVector:
        if not v.base.same_place(self.source):
            raise ContractViolation("vector is not based at the transition's base point")
        return TangentVector(*self.components(v.vx, v.vtb), self.image)

    def components(self, vx: np.ndarray, vtb: float) -> tuple[np.ndarray, float]:
        """The image's adapted components of the vector (vx, vtb) at the source point."""
        return self.jac @ vx, vtb + float(vx @ self.grad_log_phi)


class Atlas:
    """Chart collection with explicit overlap transitions."""

    def __init__(self, charts: Sequence[Chart], transitions: Sequence[ChartTransition] = ()):
        self.charts: dict[str, Chart] = {c.name: c for c in charts}
        if len(self.charts) != len(charts):
            raise ConstructionError("duplicate chart names")
        self.transitions: list[ChartTransition] = list(transitions)
        for tr in self.transitions:
            if tr.src not in self.charts or tr.dst not in self.charts:
                raise ConstructionError(f"transition {tr.src}->{tr.dst} references unknown chart")

    def chart(self, name: str) -> Chart:
        try:
            return self.charts[name]
        except KeyError:
            raise ContractViolation(f"unknown chart {name!r}") from None

    def chart_names(self) -> list[str]:
        return list(self.charts)

    def transitions_from(self, src: str) -> list[ChartTransition]:
        return [tr for tr in self.transitions if tr.src == src]


# ---------------------------------------------------------------------------
# degenerate metric
# ---------------------------------------------------------------------------

def _stacked(values: list, what: str, empty_shape: tuple[int, ...]) -> np.ndarray:
    """A field's values at the points of a stack as one float array; an empty
    stack has ``empty_shape``."""
    if not values:
        return np.empty(empty_shape)
    try:
        return np.array(values, dtype=float)
    except ValueError:
        raise ContractViolation(f"{what} values at the points of a stack differ in shape") from None


@dataclass
class DegenerateMetric:
    """Velocity-quadratic form with block structure [[g_M(x, t), 0], [0, 0]].

    ``blocks`` maps a chart name to the base block g_M as a function of
    (x, t), read only through :meth:`at`. The kernel direction (the Euler
    field) is built into the block structure and never sampled.
    """

    blocks: Mapping[str, Callable[[np.ndarray, float], np.ndarray]]
    time_dependent: bool = False

    def at(self, x: np.ndarray, t: float | np.ndarray, chart: str) -> np.ndarray:
        """The base block g_M(x, t) on ``chart`` as an (n, n) float array, or
        (K, n, n) at a stack of K points: x of shape (K, n), t of length K.
        The callable is called once per point and looked up on every call,
        so a caller may swap the entries of ``blocks`` after construction."""
        try:
            fn = self.blocks[chart]
        except KeyError:
            raise ContractViolation(f"metric has no block for chart {chart!r}") from None
        x = np.asarray(x, dtype=float)
        expected = x.shape + x.shape[-1:]
        if x.ndim == 2:
            t = np.asarray(t, dtype=float)
            if t.shape != x.shape[:1]:
                raise ContractViolation(f"{len(x)} base points but fiber values of shape {t.shape}")
            g = _stacked([fn(xi, ti) for xi, ti in zip(x, t.tolist())], "metric block", expected)
        else:
            g = np.asarray(fn(x, t), dtype=float)
        if g.shape != expected:
            raise ContractViolation(f"metric block has shape {g.shape}, expected {expected}")
        return g

    def t_derivative(self, x: np.ndarray, t: float, chart: str) -> np.ndarray:
        """dg_M/dt at (x, t) by central differences that keep the sign of t."""
        return _fd.partial(lambda arr: self.at(x, float(arr[0]), chart), np.array([t]), 0, keep_sign=(0,))

    def full(self, p: Point) -> np.ndarray:
        """Full (n+1) x (n+1) adapted-frame matrix (identical in raw coordinates)."""
        return _padded(self.at(p.x, p.t, p.chart))

    def raw_field(self, chart: str) -> Callable[[np.ndarray], np.ndarray]:
        """The padded metric as a function of raw (x..., t) coordinates."""

        def field_fn(raw: np.ndarray) -> np.ndarray:
            raw = np.asarray(raw, dtype=float)
            return _padded(self.at(raw[:-1], float(raw[-1]), chart))

        return field_fn


def _padded(g: np.ndarray) -> np.ndarray:
    """The degenerate form [[g_M, 0], [0, 0]] from its base block."""
    n = g.shape[-1]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = g
    return out


def read_stacked(read: Callable[[np.ndarray, np.ndarray, str], np.ndarray], points: Sequence[Point]) -> np.ndarray:
    """``read(x, t, chart)`` at each of ``points`` in order, one call per run of
    consecutive points on one chart, with x of shape (K, n) and t of shape (K,)."""
    runs = [list(run) for _, run in itertools.groupby(points, lambda p: p.chart)]
    values = [read(np.array([p.x for p in run]), np.array([p.t for p in run]), run[0].chart) for run in runs]
    return np.concatenate(values) if values else np.empty(0)


def read_raw(read: Callable[..., np.ndarray], points: Sequence[Point]) -> np.ndarray:
    """``read(raw, chart=chart)`` on raw stacks (K, n + 1) of ``points``, grouped as in ``read_stacked``."""
    return read_stacked(lambda x, t, chart: read(np.column_stack([x, t]), chart=chart), points)


def metric_eval(g: DegenerateMetric, p: Point, v: TangentVector, w: TangentVector) -> float:
    """Evaluate the degenerate form on two vectors at ``p``.

    Only the base block enters, so any vector proportional to the Euler field
    is annihilated exactly.
    """
    if not (v.base.same_place(p) and w.base.same_place(p)):
        raise ContractViolation("vectors must be based at the evaluation point")
    return float(v.vx @ g.at(p.x, p.t, p.chart) @ w.vx)


def lie_derivative_metric(X: VectorField, metric, p: Point) -> np.ndarray:
    """(L_X G)_AB in raw (x, t) coordinates by central differences.

    ``metric`` is either a :class:`DegenerateMetric` (zero-padded) or any
    object exposing ``raw_field(chart)`` returning raw components as a
    function of the raw coordinate vector.
    """
    field_fn = metric.raw_field(p.chart)
    raw_p = p.raw()
    n1 = raw_p.size
    t_axis = n1 - 1
    x_fn = X.raw_field(p.chart)
    g = field_fn(raw_p)
    dg = _fd.partials(field_fn, raw_p, keep_sign=(t_axis,))  # dg[C, A, B] = d_C G_AB
    dx = _fd.partials(x_fn, raw_p, keep_sign=(t_axis,))  # dx[C, A] = d_C X^A
    xc = x_fn(raw_p)
    transport = np.einsum("c,cab->ab", xc, dg)
    frame = np.einsum("ac,cb->ab", dx, g) + np.einsum("bc,ac->ab", dx, g)
    return transport + frame


# ---------------------------------------------------------------------------
# homogeneity and Killing diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerWeight:
    """Pointwise homogeneity report for the degenerate metric."""

    proportional: bool
    factor: float
    residual: float
    lie_block: np.ndarray


def euler_weight(g: DegenerateMetric, p: Point) -> EulerWeight:
    """Evaluate (L_Euler g)(p) = t dg_M/dt and test proportionality to g(p)
    (relative residual at most 1e-6)."""
    lie = p.t * g.t_derivative(p.x, p.t, p.chart)
    gm = g.at(p.x, p.t, p.chart)
    denom = float(np.sum(gm * gm))
    if denom == 0.0:
        raise ContractViolation("degenerate base block: cannot test homogeneity")
    k = float(np.sum(lie * gm)) / denom
    residual = float(np.linalg.norm(lie - k * gm)) / max(float(np.linalg.norm(gm)), 1e-300)
    return EulerWeight(proportional=residual <= 1e-6, factor=k, residual=residual, lie_block=lie)


@dataclass(frozen=True)
class KillingReport:
    residual: float
    projectable: bool
    bracket_residual: float


def euler_bracket(X: VectorField, p: Point) -> np.ndarray:
    """Raw components of [Euler, X] at p, by finite differences.

    With Euler = (0, ..., 0, t) in raw coordinates this is
    t * d_t X^A - delta^A_t X^t.
    """
    raw_p = p.raw()
    t_axis = raw_p.size - 1
    x_fn = X.raw_field(p.chart)
    dt_x = _fd.partial(x_fn, raw_p, t_axis, keep_sign=(t_axis,))
    bracket = p.t * dt_x
    bracket[t_axis] -= x_fn(raw_p)[t_axis]
    return bracket


def killing_residual(X: VectorField, metric, points: Sequence[Point]) -> KillingReport:
    """Max Frobenius norm of L_X metric over the samples, plus projectability.

    A field is projectable (weight zero) when its bracket with the Euler
    field vanishes; the bracket is evaluated by finite differences at the
    same samples.
    """
    if not points:
        raise ContractViolation("need at least one sample point")
    res = float(np.max([np.linalg.norm(lie_derivative_metric(X, metric, p)) for p in points]))
    brk = float(np.max([np.linalg.norm(euler_bracket(X, p)) for p in points]))
    return KillingReport(residual=res, projectable=brk <= 1e-7, bracket_residual=brk)


# ---------------------------------------------------------------------------
# admissible fiber rescaling t' = phi(x) t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberRescaling:
    """Admissible coordinate change fixing the base: t' = phi(x) t.

    Adapted velocities shift by vtb' = vtb + vx . grad(log|phi|); the base
    block of the metric is re-expressed at the same geometric point and a
    gauge field picks up the inhomogeneous term -grad(phi)/phi.
    """

    phi: Callable[[np.ndarray], float]

    def point(self, p: Point) -> Point:
        return Point(p.x, float(self.phi(p.x)) * p.t, p.chart)

    def tangent(self, v: TangentVector) -> TangentVector:
        grad_log = _fd.log_gradient(self.phi, v.base.x)
        return TangentVector(v.vx.copy(), v.vtb + float(v.vx @ grad_log), self.point(v.base))

    def metric(self, g: DegenerateMetric) -> DegenerateMetric:
        phi = self.phi

        def transform(chart: str):
            return lambda x, t: g.at(x, t / float(phi(x)), chart)

        return DegenerateMetric(blocks={name: transform(name) for name in g.blocks}, time_dependent=g.time_dependent)

    def gauge_shift(self, x: np.ndarray) -> np.ndarray:
        """The inhomogeneous term: grad(phi)/phi at x."""
        return _fd.log_gradient(self.phi, x)
