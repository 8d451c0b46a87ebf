import dataclasses
import math

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, kaluza
from carrollgeo.connection import GaugeField
from carrollgeo.errors import ContractViolation, DomainError, NumericError
from carrollgeo.geometry import TangentVector, VectorField, euler, basis_vector
from carrollgeo.kaluza import (
    _density_field,
    christoffel_closed,
    christoffel_numeric,
    closed_form_deviation,
    covariant_metric_derivative,
    det_identity_defect,
    divergence,
    regularity_probe,
    volume_density,
)

ALL_TRIVIAL = ["flat", "lightcone", "schwarzschild", "sphere_pullback", "thakurta", "moebius"]


def _gauge(fn):
    return GaugeField(components={"cartesian": fn})


# -- assembly ------------------------------------------------------------------

def test_build_flat_riemannian(flat2):
    kk = flat2.kk(+1)
    p = flat2.point([0.1, 0.2], 1.0)
    assert np.allclose(kk.adapted(p), np.eye(3))


def test_build_schwarzschild_adapted_block(schwarzschild):
    kk = schwarzschild.kk(+1)
    p = schwarzschild.point([math.pi / 3, 0.5], 2.0)
    adapted = kk.adapted(p)
    assert np.allclose(adapted[:2, :2], schwarzschild.metric.at(p.x, p.t, p.chart))
    assert adapted[2, 2] == 1.0 and np.all(adapted[:2, 2] == 0.0)


def test_build_1d_constant_gauge_lorentzian():
    flat1 = cg.load("flat", n=1)
    a = 0.6
    kk = flat1.kk(-1, GaugeField(components={"cartesian": lambda x: np.array([a])}))
    p = flat1.point([0.0], 1.0)
    expected = np.array([[1.0 - a**2, -a], [-a, -1.0]])
    assert np.allclose(kk.adapted(p), expected)
    assert np.linalg.det(kk.adapted(p)) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("sign", [+1, -1])
def test_euler_norm_is_sign(schwarzschild, sign):
    kk = schwarzschild.kk(sign)
    p = schwarzschild.point([1.0, 0.3], 1.4)
    assert kk.eval(p, euler(p), euler(p)) == float(sign)


@pytest.mark.parametrize("name", ALL_TRIVIAL)
@pytest.mark.parametrize("sign", [+1, -1])
def test_determinant_identity(name, sign, rng):
    s = cg.load(name)
    kk = s.kk(sign)
    for p in s.sample_points(rng, 6, include_negative_t=True):
        assert kk.det_identity_residual(p) < 1e-8


@pytest.mark.parametrize("name", ALL_TRIVIAL)
def test_lorentzian_signature(name, rng):
    s = cg.load(name)
    kk = s.kk(-1)
    for p in s.sample_points(rng, 6):
        assert kk.signature(p) == (s.dim, 1)


# -- Christoffel symbols --------------------------------------------------------

def test_flat_raw_symbols_only_fiber(flat2):
    kk = flat2.kk(+1)
    for t in (0.7, 1.0, -1.3):
        p = flat2.point([0.3, -0.4], t)
        gamma = christoffel_numeric(kk, p)
        expected = np.zeros((3, 3, 3))
        expected[2, 2, 2] = -1.0 / t
        assert np.max(np.abs(gamma - expected)) < 1e-6


def test_schwarzschild_symbols_match_round_sphere(schwarzschild):
    p = schwarzschild.point([1.1, 0.7], 1.0)
    gamma = christoffel_numeric(schwarzschild.kk(+1), p)
    theta = 1.1
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-8)
    assert gamma[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta), abs=1e-8)
    assert gamma[2, 2, 2] == pytest.approx(-1.0, abs=1e-8)
    assert np.max(np.abs(gamma[2, :2, :2])) < 1e-8  # fiber-spatial block empty


def test_thakurta_symbol_table(thakurta):
    # with U(t) = t: Gamma^c_at = -1/2 delta, Gamma^t_ab = (t^2/2) g_ab (sign +1)
    t = 1.4
    p = thakurta.point([1.2, 0.3], t)
    gamma = christoffel_numeric(thakurta.kk(+1), p)
    gm = thakurta.metric.at(p.x, p.t, p.chart)
    assert gamma[0, 0, 2] == pytest.approx(-0.5, abs=1e-8)
    assert gamma[1, 1, 2] == pytest.approx(-0.5, abs=1e-8)
    assert abs(gamma[0, 1, 2]) < 1e-8
    assert np.max(np.abs(gamma[2, :2, :2] - (t**2 / 2.0) * gm)) < 1e-8
    assert gamma[2, 2, 2] == pytest.approx(-1.0 / t, abs=1e-8)


@pytest.mark.parametrize("name", ALL_TRIVIAL)
@pytest.mark.parametrize("sign", [+1, -1])
def test_closed_form_matches_oracle(name, sign, rng):
    """On every chart and for both signs of t, to the 1e-6 of
    ``christoffel_suite``, which samples the same: every chart, t of either sign."""
    s = cg.load(name)
    kk = s.kk(sign)
    for chart in s.atlas.chart_names():
        for p in s.sample_points(rng, 8, chart=chart):
            for q in (p, s.point(p.x, -p.t, chart)):
                closed = christoffel_closed(kk, q)
                assert np.max(np.abs(closed - christoffel_numeric(kk, q))) <= 1e-6, (chart, q)
                assert christoffel_closed(kk, q.raw(), chart=chart).tobytes() == closed.tobytes()


def test_closed_form_on_raw_coordinates_takes_one_point_off_the_zero_section(flat2):
    kk = flat2.kk(-1)
    christoffel_closed(kk, np.array([0.1, 0.2, 1e-9]), chart="cartesian")
    for t in (1e-12, -1e-12, 0.0):
        with pytest.raises(DomainError, match="too close to zero"):
            christoffel_closed(kk, np.array([0.1, 0.2, t]), chart="cartesian")
    with pytest.raises(ContractViolation, match="one raw point"):
        christoffel_closed(kk, np.array([[0.1, 0.2, 1.0], [0.2, 0.3, 1.0]]), chart="cartesian")


def test_symbols_symmetric_in_lower_indices(schwarzschild, rng):
    kk = schwarzschild.kk(-1)
    for p in schwarzschild.sample_points(rng, 4):
        gamma = christoffel_numeric(kk, p)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) < 1e-10


def test_gauge_field_deviation_reported_not_asserted(flat2, rng):
    # published gauge-dependent terms disagree with the oracle; the deviation
    # is recorded and must be stable, nonzero and finite
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    kk = flat2.kk(+1, gauge)
    dev = closed_form_deviation(kk, flat2.sample_points(rng, 5))
    assert np.isfinite(dev)
    assert dev > 1e-3


def test_closed_form_rejects_lorentzian_gauge(flat2):
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    kk = flat2.kk(-1, gauge)
    with pytest.raises(NumericError):
        christoffel_closed(kk, flat2.point([0.1, 0.2], 1.0))


@pytest.mark.parametrize("name", ["lightcone", "thakurta", "schwarzschild"])
def test_a_registered_jet_without_dgdt_on_a_fiber_dependent_block_is_a_contract_violation(name):
    """A registered ``Jet`` gives the t partials, dg_M/dt, exactly where the
    block depends on t: leaving them out there would silently drop the mixed
    and fiber blocks, and giving them on a fiber-independent block would add
    blocks the metric does not have. Either is refused when the metric is assembled."""
    s = cg.load(name)
    other = {chart: dataclasses.replace(jet, fiber=not jet.fiber) for chart, jet in s.jet.items()}
    for sign in (+1, -1):
        with pytest.raises(ContractViolation, match="t partials"):
            dataclasses.replace(s, jet=other).kk(sign)


def test_a_fiber_coordinate_whose_square_overflows_is_a_numeric_error(flat2):
    """t^2 is Python's libm square, which raises on overflow where numpy gives inf."""
    kk = flat2.kk(-1)
    raw = np.array([[0.0, 0.0, 1e200]])
    with pytest.raises(NumericError, match="fiber coordinate t = 1.000e\\+200"):
        kk.components(raw, "cartesian")
    with pytest.raises(NumericError, match="fiber coordinate t"):
        det_identity_defect(np.eye(3), np.eye(2), 1e200, -1)
    assert kk.components(np.array([[0.0, 0.0, 1e150]]), "cartesian")[0, 2, 2] == -1.0 / 1e150**2


# -- metric compatibility ---------------------------------------------------------

def test_flat_trivial_connection_fully_compatible(flat2):
    kk = flat2.kk(+1)
    p = flat2.point([0.2, 0.5], 1.1)
    gamma = christoffel_numeric(kk, p)
    nabla_g = covariant_metric_derivative(gamma, flat2.metric, p)
    assert np.max(np.abs(nabla_g)) < 1e-8


@pytest.mark.parametrize("name", ALL_TRIVIAL)
def test_levi_civita_self_compatibility(name, rng):
    s = cg.load(name)
    kk = s.kk(-1)
    for p in s.sample_points(rng, 3):
        gamma = christoffel_numeric(kk, p)
        assert np.max(np.abs(covariant_metric_derivative(gamma, kk, p))) < 1e-6


def test_non_metricity_witness(flat2):
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    kk = flat2.kk(+1, gauge)
    p = flat2.point([0.4, 0.7], 1.2)
    gamma = christoffel_numeric(kk, p)
    assert np.max(np.abs(covariant_metric_derivative(gamma, flat2.metric, p))) > 1e-3
    assert np.max(np.abs(covariant_metric_derivative(gamma, kk, p))) < 1e-6


# -- volume and divergence ---------------------------------------------------------

def test_volume_density_formula(schwarzschild):
    p = schwarzschild.point([math.pi / 2, 0.0], 2.0)
    # sqrt(det g) = R^2 sin(theta) = 1 at the equator with R = 1
    assert volume_density(schwarzschild.metric, p) == pytest.approx(0.5, abs=1e-12)


def test_divergence_of_vertical_fields(schwarzschild, rng):
    f = lambda p: math.sin(p.x[0]) + 0.3 * math.cos(p.x[1])
    X = VectorField(lambda p: TangentVector(np.zeros(2), f(p), p))
    for p in schwarzschild.sample_points(rng, 4):
        assert abs(divergence(X, schwarzschild.metric, p)) < 1e-8


def test_divergence_flat_examples(flat2):
    p = flat2.point([0.3, 0.4], 1.1)
    const = VectorField(lambda q: basis_vector(q, 0))
    assert abs(divergence(const, flat2.metric, p)) < 1e-10
    linear = VectorField(lambda q: TangentVector(np.array([q.x[0], 0.0]), 0.0, q))
    assert divergence(linear, flat2.metric, p) == pytest.approx(1.0, abs=1e-9)


def divergence_expanded(X, metric, p):
    """Product-rule route rho^{-1}(d_A rho) X^A + d_A X^A, an independent
    cross-check of :func:`divergence`."""
    rho = _density_field(metric, p.chart)
    raw_p = p.raw()
    t_axis = raw_p.size - 1
    grad_rho = _fd.partials(lambda raw: np.array(rho(raw)), raw_p, keep_sign=(t_axis,))
    x_fn = X.raw_field(p.chart)
    dx = _fd.partials(x_fn, raw_p, keep_sign=(t_axis,))
    return float(grad_rho.ravel() @ x_fn(raw_p)) / rho(raw_p) + float(np.trace(dx))


def test_divergence_two_routes_agree(schwarzschild, rng):
    for k in range(3):
        coeffs = rng.standard_normal(4)

        def comp(q, c=coeffs):
            vx = np.array([c[0] * math.sin(q.x[1]), c[1] * q.x[0]])
            return TangentVector(vx, c[2] * math.cos(q.x[0]) + c[3], q)

        X = VectorField(comp)
        for p in schwarzschild.sample_points(rng, 2):
            a = divergence(X, schwarzschild.metric, p)
            b = divergence_expanded(X, schwarzschild.metric, p)
            assert a == pytest.approx(b, abs=1e-8)


# -- regularity probe ---------------------------------------------------------------

def test_regular_fields_stay_bounded(schwarzschild):
    kk = schwarzschild.kk(+1)
    lin = lambda x, t: np.array([0.0, 0.0, t])
    report = regularity_probe(kk, lin, lin, [1.0, 0.5], "angular")
    assert report.all_bounded


def test_regular_base_fields_bounded_time_independent(schwarzschild):
    kk = schwarzschild.kk(+1)
    X = lambda x, t: np.array([t, 0.0, 0.0])
    Y = lambda x, t: np.array([0.0, t, 0.0])
    assert regularity_probe(kk, X, Y, [1.0, 0.5], "angular").all_bounded


def test_fiber_translation_diverges(thakurta):
    # a unit fiber component at t = 0 hits the 1/t symbol
    kk = thakurta.kk(+1)
    X = lambda x, t: np.array([0.0, 0.0, 1.0])
    report = regularity_probe(kk, X, X, [1.2, 0.3], "angular")
    assert not report.all_bounded


def test_gauge_field_mixed_symbol_diverges(flat2):
    # with curvature on, the mixed base-fiber symbol scales like 1/t
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    kk = flat2.kk(+1, gauge)
    X = lambda x, t: np.array([1.0, 0.0, 0.0])
    Y = lambda x, t: np.array([0.0, 0.0, 1.0])
    assert not regularity_probe(kk, X, Y, [0.2, 0.3], "cartesian").all_bounded


def test_singular_metric_is_numeric_error(schwarzschild):
    # theta = 0 is the pole of the angle chart: g_phiphi = sin(theta)^2 vanishes exactly
    p = schwarzschild.point([0.0, 0.3], 1.0)
    with pytest.raises(NumericError, match="not invertible"):
        christoffel_numeric(schwarzschild.kk(-1), p, cond_limit=None)
    with pytest.raises(NumericError):
        christoffel_numeric(schwarzschild.kk(-1), p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_inverse_is_within_a_few_ulps_of_lapack(n):
    """The generated cofactor inverse that the closed form's jet kernel
    takes is within 4 eps kappa_2(g) max|g^-1| of LAPACK's, entry by
    entry, on random positive definite and indefinite symmetric blocks of
    mixed scale; at n = 1 both are 1 / g."""
    rng = np.random.default_rng([59, n])
    for k in range(2000):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
        g = a @ a.T + 1e-3 * np.abs(a).max() ** 2 * np.eye(n) if k % 2 else a + a.T
        ref = np.linalg.inv(g)
        got = np.array(_kernel_inverse(g)).reshape(n, n)
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.linalg.cond(g) * np.abs(ref).max(), g
        assert n > 1 or got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("g", [[[1.0, 2.0], [0.5, 1.0]], [[0.0, 0.0], [0.0, 3.0]],
                               [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 0.25, 1.0]],
                               [[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 3.0]]],
                         ids=["rank-1", "zero-row", "3d-rank-2", "3d-block"])
def test_a_zero_determinant_is_the_singular_matrix_error(g):
    """A block whose cofactor determinant is exactly 0.0 fails with the
    error of LAPACK's inverse, directly and through a jet."""
    n = len(g)
    unfolded = kaluza._jet_kernel(n, False, None, False)
    for invert in (lambda: _kernel_inverse(g), lambda: kaluza._inverse(np.array(g)),
                   lambda: unfolded(np.ravel(g).tolist() + [0.0] * n**3, 1.0, -1.0)):
        with pytest.raises(NumericError, match=r"^metric is not invertible: Singular matrix$"):
            invert()


@pytest.mark.parametrize("g", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                               [[1e300, 1e300], [-1e300, 1e300]], [[1e-160, 0.0], [0.0, 1e-160]],
                               [[1e-100, 0.0, 0.0], [0.0, 1e-100, 0.0], [0.0, 0.0, 1e-110]]],
                         ids=["nan", "inf", "overflowing", "underflowing", "subnormal"])
def test_a_determinant_out_of_the_normal_range_is_lapacks(g):
    """A NaN, infinite, overflowing or underflowing determinant, whose
    cofactor quotients would be wrong or meaningless, leaves the inverse to
    LAPACK: its bytes, NaNs included."""
    assert _bits(_kernel_inverse(g)) == _bits(np.linalg.inv(np.array(g)).ravel() + 0.0)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _kernel_inverse(g):
    """The inverse of the block g that the closed form's jet kernel takes, read off its mixed block: a jet with
    no x partials and dg_M/dt = I, structurally diagonal, gives Gamma^c_at = 0.5 * (0.0 + ginv[c, a] * 1.0),
    which is the inverse's entry halved, with -0.0 read as 0.0 (no entry here is subnormal)."""
    n, m = len(g), len(g) + 1
    zeros = (False,) * n * n + (True,) * n**3 + tuple(a != b for a in range(n) for b in range(n))
    jet = np.ravel(g).tolist() + [0.0] * n**3 + np.eye(n).ravel().tolist()
    symbols = kaluza._jet_kernel(n, True, zeros, False)(jet, 1.0, -1.0)
    return [2.0 * symbols[(c * m + a) * m + n] for c in range(n) for a in range(n)]


@pytest.mark.parametrize("n", [4, 5])
def test_blocks_above_three_dimensions_are_inverted_by_lapack(n):
    g = np.random.default_rng(n).normal(size=(n, n)) + n * np.eye(n)
    assert _bits(_kernel_inverse(g)) == _bits(np.linalg.inv(g).ravel() + 0.0)


def test_oracle_gate_is_the_one_norm_condition_number():
    """The gate reads ||g||_1 ||g^-1||_1 at the centre, from the inverse that
    the symbols use."""
    s = cg.load("flat", n=2)
    s.metric.blocks["cartesian"] = lambda x, t: np.array([[1.0, 0.5], [0.5, 1e-7 + 0.25]])
    kk = s.kk(+1)
    p = s.point([0.1, 0.2], 1.5)
    g = kk.raw(p)
    cond = np.linalg.norm(g, 1) * np.linalg.norm(np.linalg.inv(g), 1)
    assert cond != np.linalg.cond(g)
    christoffel_numeric(kk, p, cond_limit=1.01 * cond)
    with pytest.raises(NumericError, match="1-norm"):
        christoffel_numeric(kk, p, cond_limit=0.99 * cond)
