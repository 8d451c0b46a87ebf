import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import geodesics, scenarios
from carrollgeo.connection import GaugeField
from carrollgeo.errors import CarrollError, ContractViolation, DomainError, NumericError
from carrollgeo.geometry import DegenerateMetric
from carrollgeo.geodesics import (
    GeodesicState,
    IntegratorConfig,
    NullShootSpec,
    carroll_charge,
    integrate,
    integrate_small_gauge,
    null_residual,
    printed_spatial_acceleration,
    printed_temporal_acceleration,
    shoot_null,
    unit_direction,
)
from carrollgeo.kaluza import christoffel_closed, christoffel_numeric


def _gauge(fn):
    return GaugeField(components={"cartesian": fn})


def _equatorial_state(scenario, q=1.0, t0=1.0):
    return shoot_null(NullShootSpec(x0=[math.pi / 2, 0.0], u=[0.0, 1.0], q=q, t0=t0), scenario)


# -- charge and null residual ---------------------------------------------------

def test_charge_trivial_connection(flat2):
    s = GeodesicState([0.0, 0.0], 2.0, [0.3, 0.0], -1.0)
    assert carroll_charge(s, flat2.gauge, "cartesian") == pytest.approx(0.5)


def test_charge_stationary_state(flat2):
    s = GeodesicState([0.1, 0.2], 1.5, [0.0, 0.0], 0.0)
    assert carroll_charge(s, flat2.gauge, "cartesian") == 0.0


@pytest.mark.parametrize(
    "x, t, vx, vt, error, message",
    [
        ([0.0, math.nan], 1.0, [1.0, 0.0], 0.0, DomainError, "non-finite state (x..., t, vx..., vt) = [0.0, nan, 1.0, 1.0, 0.0, 0.0]"),
        ([0.5], math.inf, [1.0], 2.0, DomainError, "non-finite state (x..., t, vx..., vt) = [0.5, inf, 1.0, 2.0]"),
        ([0.5], -1.0, [-math.inf], 0.0, DomainError, "non-finite state (x..., t, vx..., vt) = [0.5, -1.0, -inf, 0.0]"),
        ([0.5], 2.0, [0.0], math.nan, DomainError, "non-finite state (x..., t, vx..., vt) = [0.5, 2.0, 0.0, nan]"),
        ([0.5], math.nan, [0.0], 0.0, DomainError, "non-finite state (x..., t, vx..., vt) = [0.5, nan, 0.0, 0.0]"),
        ([0.5], 0.0, [0.0], 0.0, DomainError, "fiber coordinate must be nonzero"),
        ([0.5, 1.0], 1.0, [0.0], math.nan, ContractViolation, "position and velocity dimensions differ"),
    ],
)
def test_state_rejects_bad_input_with_its_error_and_message(x, t, vx, vt, error, message):
    with pytest.raises(CarrollError) as caught:
        GeodesicState(x, t, vx, vt)
    assert type(caught.value) is error and str(caught.value) == message


def test_charge_angular_momentum_relation(schwarzschild):
    # on the equator L = g_phiphi * vphi and |Q| = |L| / (2GM) with 2GM = 1
    state = _equatorial_state(schwarzschild, q=1.0)
    gm = schwarzschild.metric.at(state.x, state.t, schwarzschild.default_chart)
    L = gm[1, 1] * state.vx[1]
    q = carroll_charge(state, schwarzschild.gauge, "angular")
    assert abs(q) == pytest.approx(abs(L) / 1.0, abs=1e-12)


def test_null_residual_frozen_and_timelike(schwarzschild):
    frozen = GeodesicState([math.pi / 2, 0.0], 1.0, [0.0, 0.0], 0.0)
    assert null_residual(frozen, schwarzschild) == 0.0
    timelike = GeodesicState([math.pi / 2, 0.0], 2.0, [0.0, 0.0], 1.0)
    assert null_residual(timelike, schwarzschild) == pytest.approx(-0.25, abs=1e-14)


def test_shoot_produces_null_state(schwarzschild):
    state = _equatorial_state(schwarzschild, q=1.0, t0=1.0)
    assert np.allclose(state.vx, [0.0, 1.0])
    assert state.vt == pytest.approx(-1.0, abs=1e-15)
    assert abs(null_residual(state, schwarzschild)) < 1e-12
    assert carroll_charge(state, schwarzschild.gauge, "angular") == pytest.approx(1.0, abs=1e-12)


def test_shoot_flat_charge_two(flat2):
    spec = NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=2.0, t0=0.5)
    state = shoot_null(spec, flat2)
    assert np.allclose(state.vx, [2.0, 0.0])
    assert state.vt == pytest.approx(-1.0)


def test_shoot_zero_charge_is_frozen(flat2):
    state = shoot_null(NullShootSpec(x0=[0.3, 0.1], u=[1.0, 0.0], q=0.0, t0=1.0), flat2)
    assert np.all(state.vx == 0.0) and state.vt == 0.0


def test_shoot_rejects_non_unit_direction(flat2):
    with pytest.raises(ContractViolation):
        shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[2.0, 0.0], q=1.0, t0=1.0), flat2)


def test_unit_direction_normalizes(schwarzschild):
    u = unit_direction(schwarzschild, [math.pi / 2, 0.0], [0.0, 5.0], 1.0)
    assert np.allclose(u, [0.0, 1.0])


# -- integration ---------------------------------------------------------------

def test_equatorial_closed_form(schwarzschild):
    state = _equatorial_state(schwarzschild)
    traj = integrate(state, schwarzschild, IntegratorConfig(lambda_max=5.0, christoffel="closed"))
    assert np.max(np.abs(traj.x[:, 1] - traj.lam)) < 1e-6
    assert np.max(np.abs(traj.t - np.exp(-traj.lam))) < 1e-6
    assert np.max(np.abs(traj.x[:, 0] - math.pi / 2)) < 1e-9


def test_trivial_connection_exponential_law(flat2, rng):
    for _ in range(5):
        q = float(rng.uniform(-1.0, 1.0))
        if abs(q) < 0.1:
            continue
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=u, q=q, t0=1.0), flat2)
        traj = integrate(state, flat2, IntegratorConfig(lambda_max=4.0))
        assert np.max(np.abs(traj.t - np.exp(-q * traj.lam))) < 1e-6


def test_frozen_state_is_fixed_point(schwarzschild):
    state = GeodesicState([1.0, 0.5], 1.0, [0.0, 0.0], 0.0)
    traj = integrate(state, schwarzschild, IntegratorConfig(lambda_max=10.0))
    assert np.max(np.abs(traj.x - traj.x[0])) == 0.0
    assert np.max(np.abs(traj.t - traj.t[0])) == 0.0


@pytest.mark.parametrize("t0", [1e300, -3e300, 1.7e308])
def test_the_first_sample_is_the_initial_state_bit_for_bit(flat2, t0):
    """The flow steps u = log|t|, and e^log|t0| is not t0 for these t0."""
    assert math.exp(math.log(abs(t0))) != abs(t0)
    state = GeodesicState([0.1, -0.2], t0, [0.6, 0.8], -0.7 * t0)  # |t| shrinks
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=0.5))
    assert traj.events == [] and traj.lam[-1] == 0.5
    first = traj.state(0)
    for name in ("x", "t", "vx", "vt"):
        assert np.asarray(getattr(first, name)).tobytes() == np.asarray(getattr(state, name)).tobytes(), name
    assert traj.charge[0] == -state.vtb


def test_charge_and_null_conservation(schwarzschild):
    state = _equatorial_state(schwarzschild)
    traj = integrate(state, schwarzschild, IntegratorConfig(lambda_max=10.0))
    assert traj.max_charge_drift() < 1e-8
    assert traj.max_null_drift() < 1e-8


def test_t_guard_event(flat2):
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=1.0, t0=1.0), flat2)
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=20.0))
    kinds = [e["kind"] for e in traj.events]
    assert "t_guard" in kinds
    assert abs(traj.t[-1]) < 2e-6  # stopped near the guard, not at lambda_max


def test_left_chart_event(schwarzschild):
    # an orbit through the pole band leaves the angle chart's hard domain
    state = shoot_null(NullShootSpec(x0=[math.pi / 2, 0.0], u=[1.0, 0.0], q=1.0, t0=1.0), schwarzschild)
    traj = integrate(state, schwarzschild, IntegratorConfig(lambda_max=5.0, christoffel="closed"))
    assert any(e["kind"] == "left_chart" for e in traj.events)


def test_rk4_fixed_step(schwarzschild):
    state = _equatorial_state(schwarzschild)
    cfg = IntegratorConfig(method="rk4", rk4_step=0.01, lambda_max=2.0, christoffel="closed")
    traj = integrate(state, schwarzschild, cfg)
    assert len(traj) == 201
    assert np.max(np.abs(traj.t - np.exp(-traj.lam))) < 1e-8


def test_rk4_fourth_order_convergence(lightcone):
    """The q = -1 equatorial lightcone orbit, t = 1 + l and phi = l / (1 + l):
    u = log|t| is not linear in l there, so the step error shows."""
    state = _equatorial_state(lightcone, q=-1.0)
    errs = []
    for h in (0.05, 0.025):
        cfg = IntegratorConfig(method="rk4", rk4_step=h, lambda_max=5.0, christoffel="closed")
        traj = integrate(state, lightcone, cfg)
        lam = traj.lam[-1]
        errs.append(abs(traj.t[-1] - (1.0 + lam)) + abs(traj.x[-1, 1] - lam / (1.0 + lam)))
    assert errs[0] / errs[1] >= 14.0


@pytest.mark.parametrize("q, t0", [(1.0, 1.0), (0.3, -1.7), (-0.4, 2.5)])
def test_rk4_steps_the_fiber_exponential_exactly(schwarzschild, q, t0):
    """On a fiber-independent block with zero gauge field u = log|t| is linear
    in l, which RK4 integrates exactly: t = t0 e^(-q l) up to rounding."""
    cfg = IntegratorConfig(method="rk4", rk4_step=0.05, lambda_max=5.0)
    traj = integrate(_equatorial_state(schwarzschild, q=q, t0=t0), schwarzschild, cfg)
    assert abs(traj.t[-1] - t0 * math.exp(-q * traj.lam[-1])) <= 1e-12


def _nan_past_half(value):
    # a field that turns NaN once x1 reaches 0.5
    return lambda x: value * (1.0 if x[0] < 0.5 else math.nan)


@pytest.mark.parametrize("flow", ["rk45", "rk4", "small_gauge"])
def test_non_finite_stage_stops_with_event(flat2, flow):
    if flow == "small_gauge":
        run = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, IntegratorConfig(lambda_max=2.0),
                                    curvature_fn=_nan_past_half(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    else:
        gauge = _gauge(lambda x: np.array([0.0, _nan_past_half(0.0)(x)]))
        state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=1.0, t0=1.0), flat2, gauge=gauge)
        run = integrate(state, flat2, IntegratorConfig(method=flow, lambda_max=2.0), gauge=gauge)
    assert [e["kind"] for e in run.events] == ["non_finite"]
    assert 0.4 < run.events[0]["lambda"] < 0.6
    assert np.all(np.isfinite(run.x)) and 0.4 < run.x[-1, 0] < 0.5


def test_monitors_beyond_the_float_range_are_a_numeric_error(schwarzschild):
    """A finite state whose base speed or squared charge overflows has no
    monitor value: each is a NumericError, not an OverflowError or an inf."""
    charged = GeodesicState([math.pi / 2, 0.0], 1.0, [0.0, 0.0], 1e200)
    with pytest.raises(NumericError, match="vt / t \\+ vx . A = 1.000e\\+200"):
        null_residual(charged, schwarzschild)
    fast = GeodesicState([math.pi / 2, 0.0], 1.0, [0.0, 1e200], -1.0)
    for state, needle in ((charged, "vt / t"), (fast, "base speed")):
        with pytest.raises(NumericError, match=needle):
            integrate(state, schwarzschild, IntegratorConfig(lambda_max=0.0))


def test_a_null_residual_whose_base_speed_overflows_is_the_monitors_numeric_error(flat2):
    """The base speed of vx = (1e200, 1e200) overflows in numpy's sum: the
    null residual raises the NumericError that ``integrate``'s monitors raise,
    with no numpy RuntimeWarning."""
    fast = GeodesicState([0.1, 0.2], 1.0, [1e200, 1e200], -1.0)
    for monitors in (lambda: null_residual(fast, flat2), lambda: integrate(fast, flat2, IntegratorConfig(lambda_max=0.0))):
        with pytest.raises(NumericError, match="^the fiber velocity, base speed or charge of a sample overflows"):
            monitors()


def test_monitors_of_a_state_whose_fiber_rate_overflows_are_integrates_domain_error(flat2):
    """vt / t = 1e10 / 1e-300 is past the float range: the charge and the null
    residual raise the DomainError that ``integrate`` raises for a state
    whose fiber rate overflows, where they returned -inf."""
    for state, monitors in ((GeodesicState([0.1, 0.2], 1e-300, [0.3, 0.4], 1e10),
                             (lambda s: carroll_charge(s, flat2.gauge, "cartesian"), lambda s: null_residual(s, flat2))),
                            (GeodesicState([0.1, 0.2], 1e-8, [0.3, 0.4], 1e305),
                             (lambda s: integrate(s, flat2, IntegratorConfig(lambda_max=0.0)),))):
        for monitor in monitors:
            with pytest.raises(DomainError, match=re.escape(f"the fiber rate vt / t = {state.vt:.3e} / {state.t:.3e} overflows")):
                monitor(state)


# -- log time -------------------------------------------------------------------

def test_log_time_slope(schwarzschild):
    state = _equatorial_state(schwarzschild)
    traj = integrate(state, schwarzschild, IntegratorConfig(lambda_max=5.0, christoffel="closed"))
    u = np.log(np.abs(traj.t))
    assert abs(np.polyfit(u, traj.x[:, 1], 1)[0]) == pytest.approx(1.0, abs=1e-6)  # 1 / (2GM)
    # and u is affine in lambda for the trivial connection
    fit = np.polyfit(traj.lam, u, 1)
    assert fit[0] == pytest.approx(-1.0, abs=1e-8)
    assert np.max(np.abs(np.polyval(fit, traj.lam) - u)) < 1e-8


# -- reduced flow for weak gauge fields -------------------------------------------

def test_reduced_flow_circular_orbit(flat2):
    field = lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]])
    base = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, IntegratorConfig(lambda_max=2.0 * math.pi),
                                 curvature_fn=field)
    center = np.array([0.0, -1.0])  # x0 + J v0 / B
    radii = np.linalg.norm(base.x - center, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6
    assert np.linalg.norm(base.x[-1] - base.x[0]) < 1e-6
    assert np.max(np.abs(base.speed2 - 1.0)) < 1e-8
    assert base.events == []


def test_reduced_flow_honours_rk4(flat2):
    field = lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]])
    cfg = IntegratorConfig(method="rk4", rk4_step=0.01, lambda_max=2.0 * math.pi)
    base = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, cfg, curvature_fn=field)
    assert len(base) == round(2.0 * math.pi / 0.01) + 1
    assert np.allclose(np.diff(base.u), 0.01)
    assert base.events == []
    radii = np.linalg.norm(base.x - np.array([0.0, -1.0]), axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8


def test_reduced_flow_left_chart_event(schwarzschild):
    # heading for the pole: the angle chart's guard band ends the run
    base = integrate_small_gauge([math.pi / 2, 0.0], [1.0, 0.0], schwarzschild, +1, IntegratorConfig(lambda_max=3.0))
    assert [e["kind"] for e in base.events] == ["left_chart"]
    assert base.u[-1] == base.events[0]["lambda"] < 3.0


def test_reduced_flow_straight_line_without_field(flat2):
    base = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, IntegratorConfig(lambda_max=3.0))
    assert np.max(np.abs(base.x[:, 1])) < 1e-10
    assert np.max(np.abs(base.x[:, 0] - base.u)) < 1e-8


def test_reduced_flow_spans_lambda_max(flat2):
    """The log-time span is ``cfg.lambda_max``, as the full flow's affine one."""
    base = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, IntegratorConfig(lambda_max=1.0))
    assert base.u[-1] == 1.0 and base.events == []


def test_reduced_flow_pushes_off_equator(schwarzschild):
    # monopole-like field strength: F_theta,phi = sin(theta)
    field = lambda x: np.array([[0.0, math.sin(x[0])], [-math.sin(x[0]), 0.0]])
    v0 = unit_direction(schwarzschild, [math.pi / 2, 0.0], [0.0, 1.0], 1.0)
    base = integrate_small_gauge([math.pi / 2, 0.0], v0, schwarzschild, +1, IntegratorConfig(lambda_max=math.pi / 2),
                                 curvature_fn=field)
    departure = np.abs(base.x[:, 0] - math.pi / 2)
    assert departure[-1] > 0.1
    assert np.all(np.diff(departure) > -1e-12)


def test_reduced_flow_rejects_non_unit_speed(flat2):
    with pytest.raises(ContractViolation):
        integrate_small_gauge([0.0, 0.0], [2.0, 0.0], flat2, +1, IntegratorConfig(lambda_max=1.0))


# -- the analytic solution of the fiber equation ----------------------------------

def test_formal_solution_trivial_gauge(flat2):
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=0.7, t0=1.0), flat2)
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=3.0))
    assert np.max(np.abs(traj.t - np.exp(-0.7 * traj.lam))) < 1e-6


def test_formal_solution_constant_gauge(flat2):
    a = 0.3
    gauge = _gauge(lambda x: np.array([a, 0.0]))
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=0.5, t0=1.0), flat2, gauge=gauge)
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=3.0), gauge=gauge)
    # straight base path: the extra exponent is -a (x1 - x1_0)
    expected = np.exp(-0.5 * traj.lam - a * (traj.x[:, 0] - traj.x[0, 0]))
    assert np.max(np.abs(traj.t - expected)) < 1e-6


def test_formal_solution_pure_gauge(flat2):
    f = lambda x: 0.2 * math.sin(x[0])
    grad_f = lambda x: np.array([0.2 * math.cos(x[0]), 0.0])
    gauge = _gauge(grad_f)
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=0.8, t0=1.0), flat2, gauge=gauge)
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=2.0, max_step=0.005), gauge=gauge)
    expected = np.array([math.exp(-0.8 * l) * math.exp(-(f(x) - f(traj.x[0]))) for l, x in zip(traj.lam, traj.x)])
    assert np.max(np.abs(traj.t - expected)) < 1e-6


# -- transcribed equations cross-check ----------------------------------------------

def test_printed_equations_match_generic_without_gauge(flat2, schwarzschild):
    for scenario, x0, u in ((flat2, [0.1, 0.2], [1.0, 0.0]), (schwarzschild, [math.pi / 2, 0.0], [0.0, 1.0])):
        state = shoot_null(NullShootSpec(x0=x0, u=u, q=1.0, t0=1.0), scenario)
        kk = scenario.kk(-1)
        gamma = christoffel_numeric(kk, scenario.point(state.x, state.t))
        vel = np.append(state.vx, state.vt)
        acc = -np.einsum("abc,b,c->a", gamma, vel, vel)
        printed = printed_spatial_acceleration(state, scenario)
        assert np.max(np.abs(printed - acc[:-1])) < 1e-8


def test_temporal_consistency_along_gauge_trajectory(flat2):
    # differentiating the first-order fiber equation reproduces the
    # second-order one along the generic flow, gauge field included
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    state = shoot_null(NullShootSpec(x0=[0.2, 0.1], u=[1.0, 0.0], q=1.0, t0=1.0), flat2, gauge=gauge)
    traj = integrate(state, flat2, IntegratorConfig(lambda_max=2.0), gauge=gauge)
    # acceleration channel by finite differences of the sampled velocity
    mid_vt = np.diff(traj.vt) / np.diff(traj.lam)
    worst = 0.0
    for k in range(1, len(traj) - 1, 7):
        s = traj.state(k)
        kk = flat2.kk(-1, gauge)
        gamma = christoffel_numeric(kk, flat2.point(s.x, s.t))
        vel = np.append(s.vx, s.vt)
        acc = -np.einsum("abc,b,c->a", gamma, vel, vel)
        rhs = printed_temporal_acceleration(s, acc[:-1], gauge, "cartesian")
        assert rhs == pytest.approx(acc[-1], abs=1e-6)
        # compare against the differentiated channel as well (first order in step)
        slope = 0.5 * (mid_vt[k - 1] + mid_vt[k])
        worst = max(worst, abs(slope - rhs) / max(1.0, abs(rhs)))
    assert worst < 1e-2  # channel differencing is only first-order accurate


def test_printed_spatial_deviation_with_gauge_is_recorded(flat2):
    # the published gauge-quadratic force differs from the assembled-metric
    # flow by (A . v) * (g^{-1} F v); record it rather than asserting zero
    gauge = _gauge(lambda x: np.array([x[1], 0.0]))
    state = shoot_null(NullShootSpec(x0=[0.2, 0.1], u=[1.0, 0.0], q=1.0, t0=1.0), flat2, gauge=gauge)
    kk = flat2.kk(-1, gauge)
    gamma = christoffel_numeric(kk, flat2.point(state.x, state.t))
    vel = np.append(state.vx, state.vt)
    generic = -np.einsum("abc,b,c->a", gamma, vel, vel)[:-1]
    printed = printed_spatial_acceleration(state, flat2, gauge)
    deviation = np.max(np.abs(printed - generic))
    assert np.isfinite(deviation)


# -- symbol routes ---------------------------------------------------------------

DEMO = Path(__file__).resolve().parents[1] / "docs" / "examples" / "scenario_demo.ini"


# a fiber-dependent file whose off-diagonal entries and t-dependence take
# sin, cos and exp, so that the closed form runs every derivative rule they need
WAVE = (
    "[meta]\nname = wave\ndim = 2\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n[metric]\ntime_dependent = true\n"
    "main = matrix(2 + sin(x1) * exp(-0.3 * t), 0.3 * cos(x2 + t); 0.3 * cos(x2 + t), 1.5 + 0.5 * exp(0.2 * x1 * t))\n"
)


def _load_text(text):
    """The scenario file ``text``, loaded from a temporary folder that is gone
    afterwards; expression blocks keep nothing of the file."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scenario.ini"
        path.write_text(text)
        return cg.load(str(path))


def _differenced(scenario):
    """``scenario`` without its registered jets, so that the closed form
    differences its block's jet from one read of g_M around (x, t), as it
    does for grid blocks and Python callables."""
    return dataclasses.replace(scenario, jet=None)


def _route_cases():
    for name in scenarios.catalog_names():
        scenario = cg.load(name)
        if scenario.gauge.is_zero:
            for chart in scenario.atlas.charts:
                for sign in (+1, -1):
                    yield pytest.param(scenario, chart, sign, id=f"{name}-{chart}-t{sign:+d}")
    yield pytest.param(cg.load(str(DEMO)), "main", +1, id="demo-main-t+1")
    wave = _load_text(WAVE)
    for route, scenario in (("exact", wave), ("differenced", _differenced(wave))):
        for sign in (+1, -1):
            yield pytest.param(scenario, "main", sign, id=f"wave-{route}-main-t{sign:+d}")


def _seeded_null_state(scenario, chart, sign, seed):
    """A null state in the middle half of the chart box, |q| in [0.2, 0.4],
    |t0| in [0.5, 1.5] with the given sign."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    x0 = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)
    t0 = sign * float(rng.uniform(0.5, 1.5))
    u = unit_direction(scenario, x0, rng.standard_normal(scenario.dim), t0, chart)
    q = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.4))
    return shoot_null(NullShootSpec(x0=x0, u=u, q=q, t0=t0, chart=chart), scenario)


@pytest.mark.parametrize("scenario, chart, sign", list(_route_cases()))
def test_default_route_is_the_closed_form_and_agrees_with_the_oracle(scenario, chart, sign):
    """Where the gauge field vanishes the default route runs the closed form;
    its orbit ends where the oracle's does."""
    _assert_routes_agree(scenario, chart, sign)


def test_default_route_on_a_fiber_dependent_file_agrees_with_the_oracle(tmp_path):
    """A file of expression blocks registers its block's jet, the exact
    partials of its entries in x and t; without it the closed form differences
    the block, and either way it agrees with the oracle."""
    path = tmp_path / "cone.ini"
    path.write_text(
        "[meta]\ndim = 2\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n"
        "[metric]\ntime_dependent = true\nmain = matrix(t^2 * (1 + 0.5 * x1^2), 0.1 * t; 0.1 * t, 2 + t^2)\n"
    )
    scenario = cg.load(str(path))
    assert scenario.jet is not None
    for case in (scenario, _differenced(scenario)):
        for sign in (+1, -1):
            _assert_routes_agree(case, "main", sign)


@pytest.mark.parametrize("text", [WAVE, DEMO.read_text()], ids=["wave", "demo"])
def test_the_oracle_reads_no_registered_base_data(text):
    """The oracle differences the metric itself: a file scenario's registered
    jet, of exact partials, does not change one bit of it."""
    scenario = _load_text(text)
    assert scenario.jet is not None
    bare = _differenced(scenario)
    rng = np.random.default_rng(29)
    raw = np.column_stack([rng.uniform(-1.5, 1.5, (8, 2)), rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 2.0, 8)])
    for sign in (+1, -1):
        expected = christoffel_numeric(bare.kk(sign), raw, chart="main").tobytes()
        assert christoffel_numeric(scenario.kk(sign), raw, chart="main").tobytes() == expected


def test_a_time_dependent_file_evaluates_one_jet_per_closed_form_call(monkeypatch):
    """On a time-dependent expression file the base symbols, dg_M/dt and
    g_M^-1 dg_M/dt all come from the generated jet of the block at (x, t)
    and its one inverse, generated in the jet's kernel: one closed-form call
    evaluates the jet once, never inverts with LAPACK, reads no block, and
    the next point evaluates it anew."""
    calls, reads, lapack = [], [], []
    at, inverse = DegenerateMetric.at, np.linalg.inv
    monkeypatch.setattr(DegenerateMetric, "at", lambda self, *args: reads.append(args) or at(self, *args))
    monkeypatch.setattr(np.linalg, "inv", lambda g: lapack.append(g) or inverse(g))
    wave = _load_text(WAVE)
    assert wave.jet is not None and wave.metric.time_dependent
    jet = wave.jet["main"]
    wave.jet = {"main": dataclasses.replace(jet, values=lambda *args: calls.append(args) or jet.values(*args))}
    rng = np.random.default_rng(3)
    for sign in (+1, -1):
        kk = wave.kk(sign)
        for p in wave.sample_points(rng, 4, include_negative_t=True):
            for log in (calls, reads, lapack):
                log.clear()
            christoffel_closed(kk, p)
            assert calls == [(*p.x.tolist(), p.t)] and reads == [] and lapack == []


FOUR = (
    "[meta]\nname = four\ndim = 4\n[charts]\nmain = box(-1, 1; -1, 1; -1, 1; -1, 1)\n[metric]\ntime_dependent = true\n"
    "main = matrix(2 + 0.3 * sin(x1 * t), 0.1 * t, 0, 0.05 * x4; 0.1 * t, 1.5, 0.2 * x3, 0; "
    "0, 0.2 * x3, 1 + 0.1 * t^2, 0; 0.05 * x4, 0, 0, 1 + 0.1 * x2^2)\n"
)


def test_a_four_dimensional_file_integrates_on_the_closed_route(monkeypatch):
    """Above n = 3 a file jet's block is inverted by LAPACK, and its orbits
    still take the closed form, which agrees with the oracle."""
    four = _load_text(FOUR)
    assert four.jet is not None
    lapack, inverse = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda g: lapack.append(g) or inverse(g))
    for sign in (+1, -1):
        _assert_routes_agree(four, "main", sign)
        lapack.clear()
        christoffel_closed(four.kk(sign), [0.1, -0.2, 0.3, 0.4, 0.8], chart="main")
        assert len(lapack) == 1


def _assert_routes_agree(scenario, chart, sign):
    seed = [sum(map(ord, scenario.name + chart)), sign > 0]
    state = _seeded_null_state(scenario, chart, sign, seed)
    default = integrate(state, scenario, IntegratorConfig(lambda_max=2.0), chart=chart)
    oracle = integrate(state, scenario, IntegratorConfig(lambda_max=2.0, christoffel="numeric"), chart=chart)
    assert (default.meta["christoffel"], oracle.meta["christoffel"]) == ("closed", "numeric")
    for traj in (default, oracle):
        assert traj.events == [] and traj.lam[-1] == 2.0
    assert np.max(np.abs(default.final.as_vector() - oracle.final.as_vector())) <= 1e-9


def test_default_route_with_a_gauge_field_is_the_oracle(flat2):
    gauge = _gauge(lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])]))
    state = shoot_null(NullShootSpec(x0=[0.2, -0.1], u=[0.6, 0.8], q=0.5, t0=-1.2), flat2, gauge=gauge)
    default = integrate(state, flat2, IntegratorConfig(lambda_max=2.0), gauge=gauge)
    oracle = integrate(state, flat2, IntegratorConfig(lambda_max=2.0, christoffel="numeric"), gauge=gauge)
    assert default.meta == oracle.meta and default.meta["christoffel"] == "numeric"
    for name in ("lam", "x", "t", "vx", "vt", "charge", "null_residual", "base_speed2"):
        assert getattr(default, name).tobytes() == getattr(oracle, name).tobytes()
    assert default.events == oracle.events == []


@pytest.mark.parametrize("max_step", [0.0, -0.1, math.nan, math.inf])
def test_step_cap_must_be_finite_and_positive(flat2, max_step):
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=1.0, t0=1.0), flat2)
    with pytest.raises(ContractViolation, match="max_step"):
        integrate(state, flat2, IntegratorConfig(lambda_max=1.0, max_step=max_step))
    with pytest.raises(ContractViolation, match="max_step"):
        integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat2, +1, IntegratorConfig(max_step=max_step, lambda_max=1.0))


# -- right-hand side calls per step ----------------------------------------------

def _count_calls(monkeypatch, name):
    """Count the calls of the module attribute ``geodesics.<name>``, looked up at call time."""
    calls = []
    original = getattr(geodesics, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, name, counted)
    return calls


def _record_steps(monkeypatch):
    """Record (slope, y, k0, h) of every attempted step, ``_step_kernel`` being looked up at call time."""
    seen = []
    kernel = geodesics._step_kernel

    def recorded(tableau, n, full):
        def bind(f, sign):
            slope, step = kernel(tableau, n, full)(f, sign)

            def step_recorded(y, k0, h, tol):
                seen.append((slope, y, k0, h))
                return step(y, k0, h, tol)

            return slope, step_recorded

        return bind

    monkeypatch.setattr(geodesics, "_step_kernel", recorded)
    return seen


def _assert_first_slopes_are_fresh(attempts):
    # the first slope an attempt is handed, reused or not, is the slope at its state
    for slope, y, k0, _ in attempts:
        assert np.array(slope(y)).tobytes() == np.array(k0).tobytes()


def _first_step_of_the_whole_span(monkeypatch):
    """The first adaptive step is the whole span, which is rejected, and so is
    the next; the starting-step rule still runs, and its probe call counts."""
    first_step = geodesics._first_step

    def whole_span(slope, y, k0, tol, max_step):
        first_step(slope, y, k0, tol, max_step)
        return max_step

    monkeypatch.setattr(geodesics, "_first_step", whole_span)


_REJECTING = dict(lambda_max=1.0, max_step=1.0, rk4_step=0.05)


def _expected_calls(method, attempts):
    # rk45: the slope at y0, the starting-step probe, then six calls an attempt; rk4: four a step
    return 1 + 1 + 6 * attempts if method == "rk45" else 4 * attempts


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("route", ["closed", "numeric"])
def test_every_attempted_step_evaluates_the_symbols_six_times_or_four(schwarzschild, flat2, monkeypatch, route,
                                                                       method):
    _first_step_of_the_whole_span(monkeypatch)
    attempts = _record_steps(monkeypatch)
    symbols = {name: _count_calls(monkeypatch, f"christoffel_{name}") for name in ("closed", "numeric")}
    cfg = IntegratorConfig(method=method, **_REJECTING)
    if route == "closed":
        traj = integrate(_seeded_null_state(schwarzschild, "angular", +1, 21), schwarzschild, cfg)
    else:
        gauge = _gauge(lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])]))
        state = shoot_null(NullShootSpec(x0=[0.2, -0.1], u=[0.6, 0.8], q=0.5, t0=-1.2), flat2, gauge=gauge)
        traj = integrate(state, flat2, cfg, gauge=gauge)
    assert traj.events == [] and traj.meta["christoffel"] == route
    assert len(symbols[route]) == _expected_calls(method, len(attempts))
    assert sum(map(len, symbols.values())) == len(symbols[route])
    if method == "rk45":
        assert attempts[0][3] == 1.0 and len(attempts) > len(traj) - 1
    else:
        assert len(attempts) == len(traj) - 1 == 20
    _assert_first_slopes_are_fresh(attempts)


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_attempted_step_of_the_reduced_flow_reads_the_field_six_times_or_four(flat2, monkeypatch, method):
    _first_step_of_the_whole_span(monkeypatch)
    attempts = _record_steps(monkeypatch)
    reads = []
    field = lambda x: reads.append(x) or np.array([[0.0, 0.5], [-0.5, 0.0]])
    cfg = IntegratorConfig(method=method, **_REJECTING)
    base = integrate_small_gauge([0.1, 0.0], [0.6, 0.8], flat2, +1, cfg, curvature_fn=field)
    assert base.events == [] and len(reads) == _expected_calls(method, len(attempts))
    assert len(attempts) > len(base) - 1 if method == "rk45" else len(attempts) == len(base) - 1 == 20
    _assert_first_slopes_are_fresh(attempts)


# -- the adaptive method and its first step -----------------------------------------

_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)


def _order_conditions(A, b, c, order):
    """sum(b Phi(t)) - 1 / gamma(t) for the rooted trees t of up to ``order`` nodes: 8 up to 4, 17 up to 5."""
    Ac = A @ c
    conditions = [(b.sum(), 1), (b @ c, 2), (b @ c**2, 3), (b @ Ac, 6),
                  (b @ c**3, 4), (b @ (c * Ac), 8), (b @ A @ c**2, 12), (b @ A @ Ac, 24)]
    if order == 5:
        conditions += [(b @ c**4, 5), (b @ (c**2 * Ac), 10), (b @ (c * (A @ c**2)), 15), (b @ (c * (A @ Ac)), 30),
                       (b @ Ac**2, 20), (b @ A @ c**3, 20), (b @ A @ (c * Ac), 40), (b @ A @ A @ c**2, 60),
                       (b @ A @ A @ Ac, 120)]
    return np.array([value - 1.0 / gamma for value, gamma in conditions])


def test_tsitouras_tableau_satisfies_the_order_conditions():
    """Fifth order for b, fourth for b^ = b - e, c as the row sums, and first
    same as last: the seventh stage row is b, and b weighs the seventh slope 0.
    The conditions resolve about twelve significant digits; the bit-identity
    reference pins each coefficient to the last bit."""
    tableau = geodesics._TSITOURAS54
    rows = [()] + [weights for _, weights in tableau.stages] + [tableau.solution[1]]
    assert all(div == 1.0 for div, _ in tableau.stages + (tableau.solution, tableau.error))
    assert [len(row) for row in rows] == list(range(7)) and len(tableau.error[1]) == 7
    A = np.array([list(row) + [0.0] * (7 - len(row)) for row in rows])
    b = A[6]
    assert b[6] == 0.0
    b_hat = b - np.array(tableau.error[1])
    c = np.array(_C)
    assert np.max(np.abs(_order_conditions(A, b, c, 5))) <= 2e-15
    assert np.max(np.abs(_order_conditions(A, b_hat, c, 4))) <= 2e-15
    assert np.max(np.abs(A.sum(axis=1) - c)) <= 2e-15
    # the embedded solution is of order four only: a fifth-order condition fails
    assert np.max(np.abs(_order_conditions(A, b_hat, c, 5))) > 1e-4


def test_first_step_follows_the_starting_rule():
    """From y = 1 at tol 1e-10, where d0 = 1 / (2 tol): y' = -y has d1 = d0,
    h0 = 0.01 and d2 = 0.01 / h0 / (2 tol) = 5e9, so the step is
    (0.01 / 5e9) ** 0.2 unless capped; y' = 1e8 has h0 = 0.01 d0 / d1 =
    1e-10, d2 = 0 and (0.01 / d1) ** 0.2 > 100 h0 = 1e-8; y' = 0 falls back to 1e-6."""
    rule = lambda slope, max_step: geodesics._first_step(lambda y: [slope(y[0])], [1.0], [slope(1.0)], 1e-10,
                                                         max_step)
    assert rule(lambda v: -v, 0.1) == pytest.approx((0.01 / 5e9) ** 0.2, rel=1e-12)
    assert rule(lambda v: -v, 1e-3) == 1e-3
    assert rule(lambda v: 1e8, 0.1) == pytest.approx(1e-8, rel=1e-12)
    assert rule(lambda v: 0.0, 0.1) == 1e-6


@pytest.mark.parametrize("span", [1.0, 1e-9, 0.0])
def test_first_step_of_a_frozen_state_is_finite_and_within_the_span(schwarzschild, monkeypatch, span):
    """The frozen state's slope vanishes, so the rule falls back to its small
    step. A zero span, where (0, min(max_step, span)] is empty, attempts no
    step and evaluates nothing."""
    attempts = _record_steps(monkeypatch)
    calls = _count_calls(monkeypatch, "christoffel_closed")
    frozen = shoot_null(NullShootSpec(x0=[1.0, 0.5], u=[0.0, 1.0], q=0.0, t0=1.0), schwarzschild)
    cfg = IntegratorConfig(lambda_max=span, max_step=0.1)
    traj = integrate(frozen, schwarzschild, cfg)
    assert traj.events == [] and calls == [] and traj.lam[-1] == span
    if span == 0.0:
        assert attempts == [] and len(traj) == 1
    else:
        h = attempts[0][3]
        assert math.isfinite(h) and 0.0 < h <= min(cfg.max_step, span)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_slope_at_the_initial_state_ends_the_run_at_a_finite_lambda(flat2, bad):
    y0 = np.array([0.1, 0.2, 0.3, 0.4])
    lams, ys, events = geodesics._drive(lambda y: [bad] * len(y), None, y0, 1.0, IntegratorConfig(), lambda y: None)
    assert lams == [0.0] and ys == [y0.tolist()]
    assert [e["kind"] for e in events] == ["non_finite"] and 0.0 < events[0]["lambda"] <= 0.1
    field = lambda x: np.full((2, 2), bad)
    base = integrate_small_gauge([0.1, 0.0], [0.6, 0.8], flat2, +1, IntegratorConfig(lambda_max=1.0),
                                 curvature_fn=field)
    assert len(base) == 1 and [e["kind"] for e in base.events] == ["non_finite"]
    assert math.isfinite(base.events[0]["lambda"])


@pytest.mark.parametrize("rk4_step", [0.05, 0.03, 0.07])
def test_rk4_takes_round_span_over_step_fixed_steps(schwarzschild, monkeypatch, rk4_step):
    attempts = _record_steps(monkeypatch)
    cfg = IntegratorConfig(method="rk4", rk4_step=rk4_step, lambda_max=1.0)
    traj = integrate(_equatorial_state(schwarzschild), schwarzschild, cfg)
    assert len(attempts) == len(traj) - 1 == round(1.0 / rk4_step)
    assert {h for *_, h in attempts} == {rk4_step}
