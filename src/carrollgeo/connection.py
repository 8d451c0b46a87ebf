"""Principal connections on scaling bundles.

The structure group is one-dimensional, so a connection is just a one-form
``omega`` with ``omega(Euler) = 1``: in the adapted frame
``omega(v) = vtb + vx . A(x)`` for a per-chart gauge field ``A``. The
associated projector ``Phi(X) = omega(X) * Euler`` splits every tangent
vector into horizontal and vertical parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _fd
from .errors import ConstructionError, ContractViolation
from .geometry import (
    Atlas,
    Point,
    TangentVector,
    _stacked,
    euler,
)


@dataclass
class GaugeField:
    """Per-chart gauge field x -> A(x).

    ``is_zero`` marks a field known to vanish identically: ``at`` and
    ``curvature`` then never call the components, and several closed-form
    shortcuts hold only then.
    """

    components: Mapping[str, Callable[[np.ndarray], np.ndarray]]
    is_zero: bool = False

    @classmethod
    def trivial(cls, dim: int, charts: Sequence[str]) -> "GaugeField":
        zero = lambda x: np.zeros(dim)
        return cls(components={name: zero for name in charts}, is_zero=True)

    def at(self, x: np.ndarray, chart: str) -> np.ndarray:
        """A(x) on ``chart`` as an (n,) float array, or (K, n) at a stack x of
        shape (K, n); the only reader of ``components``, which calls the
        callable once per point, and never if ``is_zero``: the result is zeros."""
        try:
            fn = self.components[chart]
        except KeyError:
            raise ContractViolation(f"gauge field has no components for chart {chart!r}") from None
        x = np.asarray(x, dtype=float)
        if self.is_zero:
            return np.zeros(x.shape)
        if x.ndim == 2:
            a = _stacked([fn(xi) for xi in x], "gauge field", x.shape)
            a = a[:, None] if a.ndim == 1 else a  # one scalar per point when n = 1
        else:
            a = np.atleast_1d(np.asarray(fn(x), dtype=float))
        if a.shape != x.shape:
            raise ContractViolation(f"gauge field has shape {a.shape}, expected {x.shape}")
        return a

    def jacobian(self, x: np.ndarray, chart: str) -> np.ndarray:
        """jac[b, a] = d_a A_b at ``x`` by central differences."""
        return _fd.partials(lambda y: self.at(y, chart), x).T


@dataclass(frozen=True)
class ConnectionOneForm:
    """omega(v) = vtb + vx . A(x); dual to the Euler field by construction."""

    gauge: GaugeField

    def __call__(self, v: TangentVector) -> float:
        return _omega(v.vx, v.vtb, self.gauge.at(v.base.x, v.base.chart))


def _omega(vx: np.ndarray, vtb: float, a: np.ndarray) -> float:
    """omega on the adapted components (vx, vtb) of a vector, A read at its base."""
    return float(vtb + vx @ a)


def trivial_connection(dim: int, charts: Sequence[str]) -> ConnectionOneForm:
    return ConnectionOneForm(GaugeField.trivial(dim, charts))


def projector(omega: ConnectionOneForm, X: TangentVector) -> TangentVector:
    """Phi(X): the vertical part omega(X) * Euler."""
    return omega(X) * euler(X.base)


def split(omega: ConnectionOneForm, X: TangentVector) -> tuple[TangentVector, TangentVector]:
    """Horizontal/vertical decomposition; horizontal + vertical == X exactly."""
    vertical = projector(omega, X)
    horizontal = X - vertical
    return horizontal, vertical


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(gauge: GaugeField, x: np.ndarray, chart: str) -> np.ndarray:
    """F_ab = d_a A_b - d_b A_a by central differences; antisymmetric exactly.
    A field known to vanish (``is_zero``) gives zeros without differencing."""
    if gauge.is_zero:
        n = gauge.at(x, chart).size  # checks the chart; calls no component
        return np.zeros((n, n))
    jac = gauge.jacobian(x, chart)  # jac[b, a] = d_a A_b
    return jac.T - jac


# ---------------------------------------------------------------------------
# partitions of unity and the glued connection
# ---------------------------------------------------------------------------

@dataclass
class PartitionOfUnity:
    """Smooth bumps subordinate to an atlas, one per chart, in chart coordinates."""

    bumps: Mapping[str, Callable[[np.ndarray], float]]

    def value(self, chart: str, x: np.ndarray) -> float:
        return float(self.bumps[chart](np.asarray(x, dtype=float)))

    def check_sum(self, atlas: Atlas, rng: np.random.Generator) -> float:
        """Max |sum_i rho_i - 1| over 16 sampled points per chart, evaluating
        foreign bumps through the atlas transitions; above 1e-12 or NaN it raises."""
        tol = 1e-12
        gaps = []
        for name, chart in atlas.charts.items():
            for x in chart.sample(rng, 16):
                total = self.value(name, x)
                if total < -tol:
                    raise ConstructionError("partition bump is negative")
                for tr in atlas.transitions_from(name):
                    if tr.contains(x):
                        total += self.value(tr.dst, np.asarray(tr.base_map(x), dtype=float))
                gaps.append(abs(total - 1.0))
        worst = float(np.max(gaps, initial=0.0))
        if not worst <= tol:
            raise ConstructionError(f"partition of unity sums to 1 +/- {worst:.3e} (tol {tol:.0e})")
        return worst


def connection_from_partition(
    atlas: Atlas,
    partition: PartitionOfUnity,
    rng: np.random.Generator,
) -> ConnectionOneForm:
    """Glue the per-chart trivial forms with a partition of unity, after
    ``partition.check_sum(atlas, rng)`` has found that it sums to one.

    On chart j the result evaluates as vtb + vx . A_j with
    A_j(x) = sum_{i != j} rho_i(x) * grad(log|phi_ij|)(x), the sum running
    over overlapping charts (phi_ij is the fiber factor of the j -> i
    transition). Locally constant factors, like a pure sign flip, contribute
    nothing.
    """
    partition.check_sum(atlas, rng)

    def make_component(chart_j: str):
        transitions = atlas.transitions_from(chart_j)

        def a_of(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            total = np.zeros(x.size)
            for tr in transitions:
                if not tr.contains(x):
                    continue
                rho = partition.value(tr.dst, np.asarray(tr.base_map(x), dtype=float))
                if abs(rho) < 1e-14:
                    continue
                total += rho * _fd.log_gradient(tr.fiber_factor, x)
            return total

        return a_of

    comps = {name: make_component(name) for name in atlas.chart_names()}
    return ConnectionOneForm(GaugeField(components=comps))


def overlap_gauge_residual(atlas: Atlas, omega: ConnectionOneForm, rng: np.random.Generator) -> float:
    """Max |omega_i(v_i) - omega_j(v_j)| over three random tangent vectors at
    each of eight samples per overlap.

    Evaluates the connection on the same geometric tangent vector expressed
    in both charts of every transition; agreement is the coordinate-free
    statement of the inhomogeneous gauge transformation rule. Per transition,
    one pass maps every sample drawn, and A is read once in each chart.
    """
    gaps = []
    for tr in atlas.transitions:
        points, vectors = [], []
        for x in tr.sample(rng, 8):
            points.append(Point(x, float(rng.uniform(0.5, 2.0)), tr.src))
            vectors.append([(rng.standard_normal(x.size), float(rng.standard_normal())) for _ in range(3)])
        pushes = tr.tangent_maps(points)
        a = omega.gauge.at(np.array([p.x for p in points]), tr.src)
        a_image = omega.gauge.at(np.array([push.image.x for push in pushes]), tr.dst)
        for push, drawn, a_p, a_q in zip(pushes, vectors, a, a_image):
            for vx, vtb in drawn:
                gaps.append(abs(_omega(vx, vtb, a_p) - _omega(*push.components(vx, vtb), a_q)))
    return float(np.max(gaps, initial=0.0))
