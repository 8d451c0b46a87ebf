import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carrollgeo as cg
from carrollgeo.errors import CarrollError, ContractViolation, DomainError
from carrollgeo.geometry import (
    FiberRescaling,
    Point,
    TangentVector,
    VectorField,
    basis_vector,
    euler,
    euler_field,
    euler_weight,
    killing_residual,
    lie_derivative_metric,
    metric_eval,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_point_rejects_zero_fiber():
    with pytest.raises(DomainError):
        Point(np.array([0.0]), 0.0)
    with pytest.raises(DomainError):
        Point(np.array([0.0]), 1e-12)


_BAD_POINTS = [
    ([0.0, math.nan], 1.0, DomainError, "non-finite coordinates"),
    ([math.inf, 0.0], 1.0, DomainError, "non-finite coordinates"),
    ([-math.inf], -2.0, DomainError, "non-finite coordinates"),
    ([0.0, 1.0], math.inf, DomainError, "non-finite coordinates"),
    ([0.0, 1.0], -math.inf, DomainError, "non-finite coordinates"),
    ([0.0], math.nan, DomainError, "non-finite coordinates"),
    ([math.nan], 1e-12, DomainError, "non-finite coordinates"),
    ([0.0], 1e-12, DomainError, "fiber coordinate too close to zero: t = 1.000e-12"),
    ([0.0], -0.0, DomainError, "fiber coordinate too close to zero: t = -0.000e+00"),
    (2.0, 5e-10, DomainError, "fiber coordinate too close to zero: t = 5.000e-10"),
    ([[0.0, 1.0]], 1.0, ContractViolation, "base coordinates must be a 1d array with n >= 1"),
    ([[math.nan]], 1.0, ContractViolation, "base coordinates must be a 1d array with n >= 1"),
    ([], 1.0, ContractViolation, "base coordinates must be a 1d array with n >= 1"),
    (np.empty(0), math.nan, ContractViolation, "base coordinates must be a 1d array with n >= 1"),
]


@pytest.mark.parametrize("x, t, error, message", _BAD_POINTS)
def test_point_rejects_bad_input_with_its_error_and_message(x, t, error, message):
    with pytest.raises(CarrollError) as caught:
        Point(x, t)
    assert type(caught.value) is error and str(caught.value) == message


def test_point_stores_float_coordinates():
    p = Point([1, 2], 3)
    assert p.x.dtype == float and p.x.tolist() == [1.0, 2.0] and type(p.t) is float and p.t == 3.0
    assert Point(2.5, -1e-9).x.shape == (1,)


def test_adapted_raw_round_trip():
    p = Point(np.array([0.3, -0.7]), -1.7)
    v = TangentVector(np.array([1.0, 2.0]), 0.5, p)
    w = TangentVector.from_raw(v.vx, v.vt, p)
    assert w.vtb == v.vtb
    assert np.allclose(w.raw(), v.raw())


@given(vt=finite, t=st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_raw_fiber_velocity_conversion_exact(vt, t):
    p = Point(np.array([0.0]), t)
    v = TangentVector.from_raw(np.array([0.0]), vt, p)
    assert v.vt == pytest.approx(vt, abs=1e-15)


def test_euler_components():
    p = Point(np.array([1.0, 2.0]), 3.0)
    e = euler(p)
    assert np.all(e.vx == 0.0) and e.vtb == 1.0
    assert e.vt == 3.0


# -- metric evaluation -------------------------------------------------------

def test_metric_eval_schwarzschild_equator(schwarzschild):
    p = schwarzschild.point([math.pi / 2, 0.0], 1.0)
    v = basis_vector(p, 1)  # the angle direction
    assert metric_eval(schwarzschild.metric, p, v, v) == pytest.approx(1.0, abs=1e-15)


def test_metric_eval_annihilates_euler(schwarzschild, rng):
    for p in schwarzschild.sample_points(rng, 5):
        v = TangentVector(rng.standard_normal(2), float(rng.standard_normal()), p)
        assert metric_eval(schwarzschild.metric, p, euler(p), v) == 0.0
        assert float(np.linalg.det(schwarzschild.metric.full(p))) == 0.0


def test_metric_eval_lightcone_scaling(lightcone):
    p = lightcone.point([1.0, 0.5], 2.0)
    v = basis_vector(p, 0)
    assert metric_eval(lightcone.metric, p, v, v) == pytest.approx(4.0, abs=1e-12)


def test_metric_eval_dimension_mismatch(flat2):
    p = flat2.point([0.0, 0.0], 1.0)
    other = Point(np.array([0.0, 0.0]), 2.0, "cartesian")
    v = TangentVector(np.array([1.0, 0.0]), 0.0, other)
    with pytest.raises(ContractViolation):
        metric_eval(flat2.metric, p, v, v)


@given(a=finite, b=finite, c=finite)
@settings(max_examples=40, deadline=None)
def test_metric_eval_bilinear_symmetric(a, b, c):
    flat = cg.load("flat", n=2)
    p = flat.point([0.1, 0.2], 1.0)
    v = TangentVector(np.array([a, b]), c, p)
    w = TangentVector(np.array([b, -a]), a, p)
    g = flat.metric
    assert metric_eval(g, p, v, w) == pytest.approx(metric_eval(g, p, w, v), abs=1e-12)
    two_v = 2.0 * v
    assert metric_eval(g, p, two_v, w) == pytest.approx(2.0 * metric_eval(g, p, v, w), abs=1e-10)


# -- homogeneity -------------------------------------------------------------

def test_euler_weight_schwarzschild(schwarzschild, rng):
    for p in schwarzschild.sample_points(rng, 4):
        report = euler_weight(schwarzschild.metric, p)
        assert report.proportional and abs(report.factor) < 1e-10


def test_euler_weight_lightcone(lightcone):
    report = euler_weight(lightcone.metric, lightcone.point([1.1, 0.2], 1.7))
    assert report.proportional
    assert report.factor == pytest.approx(2.0, abs=1e-9)


def test_euler_weight_thakurta_conformal_factor(thakurta):
    # oracle: t d/dt exp(-U(t)) = -t Udot(t) exp(-U), so the factor is -t
    for t in (0.8, 1.5):
        report = euler_weight(thakurta.metric, thakurta.point([1.2, 0.3], t))
        assert report.proportional
        assert report.factor == pytest.approx(-t, abs=1e-7)


# -- Lie derivatives and Killing diagnostics ---------------------------------

def test_vertical_rescaled_euler_is_killing(schwarzschild, rng):
    f = lambda p: math.sin(p.x[0]) * math.cos(p.x[1]) + 0.2 * p.t
    X = VectorField(lambda p: TangentVector(np.zeros(2), f(p), p))
    for p in schwarzschild.sample_points(rng, 4):
        assert np.max(np.abs(lie_derivative_metric(X, schwarzschild.metric, p))) < 1e-8


def test_lie_derivative_euler_lightcone_weight(lightcone):
    p = lightcone.point([1.3, -0.4], 1.2)
    lie = lie_derivative_metric(euler_field(), lightcone.metric, p)
    assert np.allclose(lie, 2.0 * lightcone.metric.full(p), atol=1e-8)


def test_rotation_is_killing_for_flat(flat2, rng):
    X = VectorField(lambda p: TangentVector(np.array([-p.x[1], p.x[0]]), 0.0, p))
    report = killing_residual(X, flat2.metric, flat2.sample_points(rng, 5))
    assert report.residual < 1e-9
    assert report.projectable


def test_euler_killing_and_projectable(schwarzschild, rng):
    report = killing_residual(euler_field(), schwarzschild.metric, schwarzschild.sample_points(rng, 5))
    assert report.residual < 1e-8
    assert report.projectable


def test_fiber_proportional_field_not_projectable(flat2, rng):
    X = VectorField(lambda p: TangentVector.from_raw(np.array([p.t, 0.0]), 0.0, p))
    report = killing_residual(X, flat2.metric, flat2.sample_points(rng, 4))
    assert not report.projectable


def _tilted_rotation(x):
    # rotation about an equatorial axis, in angle coordinates
    theta, phi = x
    return np.array([math.sin(phi), math.cos(phi) * math.cos(theta) / math.sin(theta)])


def _round_killing_exact(x):
    # L_X g for g = diag(1, sin^2 theta) with exact hand derivatives of the
    # tilted rotation; every entry cancels identically
    theta, phi = x
    dtheta_xphi = -math.cos(phi) / math.sin(theta) ** 2
    dphi_xtheta = math.cos(phi)
    dphi_xphi = -math.sin(phi) * math.cos(theta) / math.sin(theta)
    g_phph = math.sin(theta) ** 2
    out = np.empty((2, 2))
    out[0, 0] = 2.0 * 0.0  # d_theta X^theta = 0
    out[0, 1] = out[1, 0] = dtheta_xphi * g_phph + dphi_xtheta
    out[1, 1] = _tilted_rotation(x)[0] * 2.0 * math.sin(theta) * math.cos(theta) + 2.0 * dphi_xphi * g_phph
    return out


def test_horizontal_sphere_rotation_is_killing(schwarzschild, rng):
    # the base field satisfies the round-metric Killing equation (exact oracle)
    for x in ((1.0, 0.3), (2.0, -1.1), (0.7, 2.4)):
        assert np.max(np.abs(_round_killing_exact(x))) < 1e-15
    # and its horizontal lift is Killing upstairs
    X = VectorField(lambda p: TangentVector(_tilted_rotation(p.x), 0.0, p))
    report = killing_residual(X, schwarzschild.metric, schwarzschild.sample_points(rng, 5))
    assert report.residual < 1e-8
    assert report.projectable


def test_scaling_bound_for_rescaled_euler(lightcone, rng):
    points = lightcone.sample_points(rng, 4)
    f = lambda p: 0.5 + 0.3 * math.sin(p.x[0])
    X = VectorField(lambda p: TangentVector(np.zeros(2), f(p), p))
    base = killing_residual(euler_field(), lightcone.metric, points)
    scaled = killing_residual(X, lightcone.metric, points)
    f_max = max(abs(f(p)) for p in points)
    assert scaled.residual <= f_max * base.residual + 1e-6


# -- lifts --------------------------------------------------------------------

def test_vertical_lift_euler_twice_vanishes(schwarzschild):
    p = schwarzschild.point([1.0, 0.2], 1.5)
    assert metric_eval(schwarzschild.metric, p, euler_field().at(p), euler(p)) == 0.0


def test_vertical_lift_reproduces_components(schwarzschild):
    p = schwarzschild.point([1.0, 0.2], 1.5)
    gm = schwarzschild.metric.at(p.x, p.t, p.chart)
    for a in range(2):
        Xa = VectorField(lambda q, a=a: basis_vector(q, a))
        for b in range(2):
            pairing = metric_eval(schwarzschild.metric, p, Xa.at(p), basis_vector(p, b))
            assert pairing == pytest.approx(gm[a, b], abs=1e-14)


def test_tangent_lift_matches_euler_weight(lightcone):
    p = lightcone.point([0.9, 0.1], 1.3)
    lie = lie_derivative_metric(euler_field(), lightcone.metric, p)
    assert np.allclose(lie, 2.0 * lightcone.metric.full(p), atol=1e-8)


# -- admissible fiber rescaling ----------------------------------------------

def test_frame_covariance_under_fiber_rescaling(schwarzschild, rng):
    change = FiberRescaling(phi=lambda x: math.exp(0.3 * math.sin(x[0])))
    new_metric = change.metric(schwarzschild.metric)
    for p in schwarzschild.sample_points(rng, 5):
        v = TangentVector(rng.standard_normal(2), float(rng.standard_normal()), p)
        w = TangentVector(rng.standard_normal(2), float(rng.standard_normal()), p)
        before = metric_eval(schwarzschild.metric, p, v, w)
        after = metric_eval(new_metric, change.point(p), change.tangent(v), change.tangent(w))
        assert after == pytest.approx(before, abs=1e-10)


def test_connection_scalar_invariant_under_rescaling(flat2):
    from carrollgeo.connection import ConnectionOneForm, GaugeField

    a_fn = lambda x: np.array([x[1], -x[0]])
    omega = ConnectionOneForm(GaugeField(components={"cartesian": a_fn}))
    change = FiberRescaling(phi=lambda x: math.exp(0.2 * x[0]))
    shifted = lambda x: a_fn(x) - change.gauge_shift(x)
    omega_new = ConnectionOneForm(GaugeField(components={"cartesian": shifted}))
    p = flat2.point([0.4, -0.3], 1.2)
    v = TangentVector(np.array([1.5, -0.2]), 0.7, p)
    assert omega_new(change.tangent(v)) == pytest.approx(omega(v), abs=1e-9)
