import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carrollgeo as cg
from carrollgeo.connection import (
    ConnectionOneForm,
    GaugeField,
    PartitionOfUnity,
    connection_from_partition,
    curvature,
    overlap_gauge_residual,
    projector,
    split,
    trivial_connection,
)
from carrollgeo.errors import ConstructionError
from carrollgeo.geometry import TangentVector, euler, metric_eval
from carrollgeo.scenarios import _ARC_HALF_WIDTH, circle_atlas

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _gauge(fn, chart="cartesian"):
    return GaugeField(components={chart: fn})


def test_omega_dual_to_euler(flat2, rng):
    omega = ConnectionOneForm(_gauge(lambda x: np.array([x[0] ** 2, 0.0])))
    for p in flat2.sample_points(rng, 5):
        assert omega(euler(p)) == 1.0


def test_split_euler_is_vertical(flat2):
    p = flat2.point([0.2, 0.4], 1.0)
    omega = trivial_connection(2, ["cartesian"])
    h, v = split(omega, euler(p))
    assert np.all(h.raw() == 0.0)
    assert v.vtb == 1.0 and np.all(v.vx == 0.0)


def test_split_trivial_connection(flat2):
    p = flat2.point([0.2, 0.4], 1.0)
    omega = trivial_connection(2, ["cartesian"])
    X = TangentVector(np.array([1.0, -2.0]), 0.7, p)
    h, v = split(omega, X)
    assert np.allclose(h.vx, X.vx) and h.vtb == 0.0
    assert np.all(v.vx == 0.0) and v.vtb == 0.7


def test_split_constant_gauge(flat2):
    # A = (1, 0): the first basis direction picks up a unit vertical part
    p = flat2.point([0.2, 0.4], 1.0)
    omega = ConnectionOneForm(_gauge(lambda x: np.array([1.0, 0.0])))
    X = TangentVector(np.array([1.0, 0.0]), 0.0, p)
    h, v = split(omega, X)
    assert v.vtb == 1.0 and np.all(v.vx == 0.0)
    assert np.allclose(h.vx, [1.0, 0.0]) and h.vtb == -1.0
    assert omega(h) == 0.0


@given(a=finite, b=finite, c=finite)
@settings(max_examples=40, deadline=None)
def test_split_reassembles_exactly(a, b, c):
    flat = cg.load("flat", n=2)
    p = flat.point([0.1, -0.2], 1.5)
    omega = ConnectionOneForm(_gauge(lambda x: np.array([math.sin(x[0]), x[1]])))
    X = TangentVector(np.array([a, b]), c, p)
    h, v = split(omega, X)
    assert np.allclose((h + v).raw(), X.raw(), rtol=0.0, atol=1e-13)
    assert omega(h) == pytest.approx(0.0, abs=1e-13)


def test_projector_kills_horizontal_trivial(flat2):
    p = flat2.point([0.1, 0.1], 2.0)
    omega = trivial_connection(2, ["cartesian"])
    X = TangentVector(np.array([3.0, -1.0]), 0.0, p)
    assert np.all(projector(omega, X).raw() == 0.0)


def test_moebius_projector_on_overlaps(moebius, rng):
    omega = moebius.connection()
    for tr in moebius.atlas.transitions:
        for x in tr.sample(rng, 4):
            p = moebius.point(x, 1.3, tr.src)
            v = TangentVector(rng.standard_normal(1), float(rng.standard_normal()), p)
            phi_v = projector(omega, v)
            v2 = tr.tangent_map(v.base)(v)
            phi_v2 = projector(omega, v2)
            # idempotence in both charts
            assert np.max(np.abs((projector(omega, phi_v) - phi_v).raw())) < 1e-12
            assert np.max(np.abs((projector(omega, phi_v2) - phi_v2).raw())) < 1e-12


def test_horizontal_pairings_generally_nonzero(flat2, rng):
    # sanity anti-test: horizontal against horizontal sees the base metric
    omega = trivial_connection(2, ["cartesian"])
    p = flat2.point([0.3, 0.3], 1.0)
    X = TangentVector(np.array([1.0, 0.0]), 0.5, p)
    h, _ = split(omega, X)
    assert metric_eval(flat2.metric, p, h, h) > 0.5


# -- curvature ----------------------------------------------------------------

def test_curvature_trivial_gauge(flat2):
    assert np.all(curvature(GaugeField.trivial(2, ["cartesian"]), np.array([0.3, 0.4]), "cartesian") == 0.0)


@pytest.mark.parametrize("b", [1.0, -2.5])
def test_curvature_constant_field_strength(b):
    gauge = GaugeField(components={"cartesian": lambda x: np.array([-x[1] * b / 2.0, x[0] * b / 2.0])})
    f = curvature(gauge, np.array([0.7, -0.3]), "cartesian")
    assert f[0, 1] == pytest.approx(b, abs=1e-9)
    assert np.allclose(f, -f.T)


def test_curvature_pure_gauge_vanishes():
    grad = lambda x: np.array([math.cos(x[0]) * math.cos(x[1]), -math.sin(x[0]) * math.sin(x[1])])
    f = curvature(GaugeField(components={"cartesian": grad}), np.array([0.5, 1.1]), "cartesian")
    assert np.max(np.abs(f)) < 1e-8


def test_curvature_gauge_invariance():
    a_fn = lambda x: np.array([x[1] ** 2, x[0]])
    grad = lambda x: np.array([math.cos(x[0]), 2.0 * x[1]])
    f1 = curvature(GaugeField(components={"cartesian": a_fn}), np.array([0.4, 0.8]), "cartesian")
    shifted = lambda x: a_fn(x) + grad(x)
    f2 = curvature(GaugeField(components={"cartesian": shifted}), np.array([0.4, 0.8]), "cartesian")
    assert np.max(np.abs(f1 - f2)) < 1e-8


# -- partitions of unity and glued connections --------------------------------

def wrap_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]."""
    w = math.fmod(theta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def smoothstep(u: float) -> float:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def circle_partition(a: float = _ARC_HALF_WIDTH):
    """Bumps for the two-arc cover of ``circle_atlas`` (east around 0, west around pi)."""
    core = math.pi - a

    def rho_east(x: np.ndarray) -> float:
        th = abs(wrap_angle(float(np.atleast_1d(x)[0])))
        if th <= core:
            return 1.0
        if th >= a:
            return 0.0
        return smoothstep((a - th) / (a - core))

    def rho_west(x: np.ndarray) -> float:
        return 1.0 - rho_east(x)

    return rho_east, rho_west


def test_partition_sums_to_one(rng):
    atlas = circle_atlas(lambda th: 1.0, lambda th: 1.0)
    east, west = circle_partition()
    pou = PartitionOfUnity(bumps={"east": east, "west": west})
    assert pou.check_sum(atlas, rng) <= 1e-12


def test_partition_failure_raises(rng):
    atlas = circle_atlas(lambda th: 1.0, lambda th: 1.0)
    east, west = circle_partition()
    bad = PartitionOfUnity(bumps={"east": east, "west": lambda x: 0.5 * west(x)})
    with pytest.raises(ConstructionError):
        connection_from_partition(atlas, bad, rng)


def test_partition_with_a_nan_bump_raises(rng):
    """A NaN sum fails no ``>`` comparison, so it must fail ``<= tol``."""
    atlas = circle_atlas(lambda th: 1.0, lambda th: 1.0)
    east, west = circle_partition()
    bad = PartitionOfUnity(bumps={"east": east, "west": lambda x: math.nan if x[0] > math.pi else west(x)})
    with pytest.raises(ConstructionError, match="nan"):
        bad.check_sum(atlas, rng)


def test_single_chart_partition_gives_trivial_connection(flat2, rng):
    pou = PartitionOfUnity(bumps={"cartesian": lambda x: 1.0})
    omega = connection_from_partition(flat2.atlas, pou, rng)
    for p in flat2.sample_points(rng, 4):
        assert np.all(omega.gauge.at(p.x, "cartesian") == 0.0)
        assert omega(euler(p)) == 1.0


def test_moebius_partition_connection_is_flat(moebius, rng):
    # the fiber transition is a locally constant sign, so the glued gauge
    # field vanishes while the connection is still globally defined
    east, west = circle_partition()
    pou = PartitionOfUnity(bumps={"east": east, "west": west})
    omega = connection_from_partition(moebius.atlas, pou, rng)
    for chart in ("east", "west"):
        for p in moebius.sample_points(rng, 5, chart=chart):
            assert abs(float(omega.gauge.at(p.x, chart)[0])) < 1e-12
            assert omega(euler(p)) == 1.0
    assert overlap_gauge_residual(moebius.atlas, omega, rng) < 1e-8


def test_synthetic_circle_partition_connection(rng):
    fiber = lambda th: math.exp(math.sin(th))
    atlas = circle_atlas(fiber, fiber)
    east, west = circle_partition()
    pou = PartitionOfUnity(bumps={"east": east, "west": west})
    omega = connection_from_partition(atlas, pou, rng)
    # glued east gauge: (west weight) * d/dtheta log(fiber) = rho_west cos(theta)
    for th in (1.1, 1.6, 2.0):
        got = float(omega.gauge.at(np.array([th]), "east")[0])
        assert got == pytest.approx(west(np.array([th])) * math.cos(th), abs=1e-8)
    assert overlap_gauge_residual(atlas, omega, rng) < 1e-8
    # somewhere on the overlap the glued field is genuinely nonzero
    assert abs(float(omega.gauge.at(np.array([1.6]), "east")[0])) > 1e-3


def test_gauge_overlap_rule_via_transition(moebius, rng):
    # evaluating any connection on the same geometric vector in both charts
    # is the coordinate-free form of the inhomogeneous transformation rule
    omega = moebius.connection()
    assert overlap_gauge_residual(moebius.atlas, omega, rng) < 1e-10
