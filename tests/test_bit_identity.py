"""Bit identity of the float stepping kernel and the closed form.

The steppers take their stage points and solutions on Python floats, in the
order of a tableau, and the zero-gauge closed form skips the terms that
vanish. Both must give every float that the straightforward numpy code
gives. That code is kept here as the reference: the Tsitouras and RK4 steps
over arrays, each evaluating every stage afresh, the array right-hand side,
and the zero-gauge closed-form assembly, whose mixed block is a registered
rate g_M^-1 dg_M/dt where one is given and the inverse times dg_M/dt
otherwise. Seeded orbits run once as they are and once with the references
patched in, and every array of the two trajectories must be equal byte for
byte.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, geodesics, kaluza, scenarios, suites
from carrollgeo.connection import GaugeField
from carrollgeo.geodesics import IntegratorConfig, NullShootSpec, integrate, integrate_small_gauge, shoot_null

DEMO = Path(__file__).resolve().parents[1] / "docs" / "examples" / "scenario_demo.ini"
ARRAYS = ("lam", "x", "t", "vx", "vt", "charge", "null_residual", "base_speed2")

# -- the references ---------------------------------------------------------------

# Tsitouras 5(4): the rows of stages 2-7, the last of which is b, and b - b^
_TS_A = (
    (),
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401, -0.028269050394068383),
    (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081, 2.324710524099774),
)
_TS_E = (0.001780011052226, 0.000816434459657, -0.007880878010262, 0.144711007173263, -0.582357165452555,
         0.458082105929187, -1 / 66)


def _ref_tsit5_step(rhs, y, h):
    """Every stage afresh; the seventh stage point is the solution."""
    k, point = [rhs(y)], y
    for row in _TS_A[1:]:
        point = y + h * sum(a * ki for a, ki in zip(row, k))
        k.append(rhs(point))
    return point, k[-1], h * sum(e * ki for e, ki in zip(_TS_E, k))


def test_reference_tableau_is_the_steppers():
    """Every coefficient bit for bit, so that a change of any digit of one
    that the order conditions cannot resolve still fails."""
    tableau = geodesics._TSITOURAS54
    assert tuple(weights for _, weights in tableau.stages + (tableau.solution,)) == _TS_A[1:]
    assert tableau.error[1] == _TS_E


def _ref_rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_step(tableau, rhs, y, k0, h, tol):
    """The stepping kernel's contract, (state, its slope, error norm), computed
    on arrays; the slope handed in must be the one at y, bit for bit."""
    f = lambda v: np.array(rhs(v.tolist()))
    y = np.array(y)
    assert np.array(k0).tobytes() == f(y).tobytes()
    if tableau is geodesics._RK4:
        return _ref_rk4_step(f, y, h).tolist(), None, 0.0
    y_new, k_new, err = _ref_tsit5_step(f, y, h)
    scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new.tolist(), k_new.tolist(), float(np.sqrt(np.mean((err / scale) ** 2)))


def _ref_geodesic_rhs(gamma_at):
    n = None

    def rhs(y):
        nonlocal n
        if n is None:
            n = (y.size - 2) // 2
        vel = y[n + 1 :]
        if not np.any(vel):
            return np.concatenate([vel, np.zeros(n + 1)])
        gamma = gamma_at(y[: n + 1])
        acc = -np.einsum("abc,b,c->a", gamma, vel, vel)
        return np.concatenate([vel, acc])

    return lambda y: rhs(np.array(y)).tolist()


def _ref_base_data(kk, x, t, chart):
    n = x.size
    t_differenced = kk.base_jet is None and kk.metric.time_dependent
    if kk.base_jet is not None:
        gminv = np.linalg.inv(kk.metric.at(x, t, chart))
    else:
        points, h = _fd.stencil((np.append(x, t) if t_differenced else x)[None], keep_sign=(n,))
        stencil = points[0]
        gm = kk.metric.at(stencil[:, :n], stencil[:, n] if t_differenced else np.full(len(stencil), t), chart)
        gminv = np.linalg.inv(gm[0])
        partials = _fd.stacked_partials(gm[None, 1:], h)[0]
    if kk.base_jet is not None:
        base, dgdt, rate = kk.base_jet(x, t, chart)
        base = np.asarray(base, dtype=float)
    else:
        base, dgdt, rate = kaluza._levi_civita(gminv, partials[:n]), None, None
    if dgdt is None:
        dgdt = partials[n] if t_differenced else np.zeros((n, n))
        rate = np.einsum("cd,ad->ca", gminv, dgdt)
    return gminv, base, dgdt, rate


def _ref_christoffel_closed(kk, p, *, chart=None):
    assert kk.gauge.is_zero
    if chart is None:
        x, t, chart = p.x, p.t, p.chart
    else:
        raw = np.asarray(p, dtype=float)
        x, t = raw[:-1], float(raw[-1])
    n = x.size
    s = kk.sign
    _, base, dgdt, rate = _ref_base_data(kk, x, t, chart)
    gamma = np.zeros((n + 1, n + 1, n + 1))
    gamma[:n, :n, :n] = base
    gamma[:n, :n, n] = 0.5 * rate
    gamma[:n, n, :n] = gamma[:n, :n, n]
    gamma[n, :n, :n] = -s * (t**2 / 2.0) * dgdt
    gamma[n, n, n] = -1.0 / t
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


def _ref_stereo_symbols(x):
    rho2 = float(x @ x)
    grad_f = -2.0 * x / (1.0 + rho2)
    n = x.size
    out = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = 0.0
                if a == b:
                    val += grad_f[c]
                if a == c:
                    val += grad_f[b]
                if b == c:
                    val -= grad_f[a]
                out[a, b, c] = val
    return out


@pytest.fixture
def references(monkeypatch):
    """Patch the references in where the package looks them up at call time."""

    def patch():
        monkeypatch.setattr(geodesics, "_rk_step", _ref_step)
        monkeypatch.setattr(geodesics, "geodesic_rhs", _ref_geodesic_rhs)
        monkeypatch.setattr(geodesics, "christoffel_closed", _ref_christoffel_closed)

    return patch


def _assert_same_orbit(run, references):
    traj = run()
    references()
    ref = run()
    assert traj.meta == ref.meta and traj.events == ref.events
    for name in ARRAYS:
        assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name


# -- orbits ---------------------------------------------------------------------

def _seeded_null_state(scenario, chart, sign, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    x0 = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)
    t0 = sign * float(rng.uniform(0.5, 1.5))
    u = geodesics.unit_direction(scenario, x0, rng.standard_normal(scenario.dim), t0, chart)
    q = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.4))
    return shoot_null(NullShootSpec(x0=x0, u=u, q=q, t0=t0, chart=chart), scenario)


def _zero_gauge_charts():
    for name in scenarios.catalog_names():
        scenario = cg.load(name)
        for chart in scenario.atlas.charts:
            for sign in (+1, -1):
                yield pytest.param(scenario, chart, sign, id=f"{name}-{chart}-t{sign:+d}")


@pytest.mark.parametrize("scenario, chart, sign", list(_zero_gauge_charts()))
def test_zero_gauge_catalog_orbits_equal_the_reference(scenario, chart, sign, references):
    assert scenario.gauge.is_zero
    state = _seeded_null_state(scenario, chart, sign, [sum(map(ord, scenario.name + chart)), sign > 0])
    _assert_same_orbit(lambda: integrate(state, scenario, IntegratorConfig(lambda_max=2.0), chart=chart), references)


def test_oracle_route_with_a_gauge_field_equals_the_reference(flat2, references):
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])])})
    state = shoot_null(NullShootSpec(x0=[0.2, -0.1], u=[0.6, 0.8], q=0.5, t0=-1.2), flat2, gauge=gauge)
    _assert_same_orbit(lambda: integrate(state, flat2, IntegratorConfig(lambda_max=2.0), gauge=gauge), references)


@pytest.mark.parametrize("sign", [+1, -1])
def test_demo_file_orbit_equals_the_reference(sign, references):
    scenario = cg.load(str(DEMO))
    state = _seeded_null_state(scenario, "main", sign, [7, sign > 0])
    _assert_same_orbit(lambda: integrate(state, scenario, IntegratorConfig(lambda_max=2.0)), references)


def test_grid_file_orbit_equals_the_reference(tmp_path, workloads, references):
    scenario = cg.load(str(workloads.write_grid_scenario(tmp_path, np.random.default_rng([3, 0]))))
    state = _seeded_null_state(scenario, "main", +1, 11)
    _assert_same_orbit(lambda: integrate(state, scenario, IntegratorConfig(lambda_max=1.0)), references)


def test_rk4_orbit_equals_the_reference(lightcone, references):
    state = _seeded_null_state(lightcone, "stereo_n", -1, 3)
    # steps large enough that a last-bit change of the slope sum reaches the state
    cfg = IntegratorConfig(method="rk4", rk4_step=0.05, lambda_max=1.0)
    _assert_same_orbit(lambda: integrate(state, lightcone, cfg, chart="stereo_n"), references)


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_signed_zeros_equal_the_reference(flat2, method, references):
    """eps = -1 on an axis direction gives vx = (-q, -0.0): the Tsitouras sums
    start from 0 and turn -0.0 into 0.0, the RK4 ones keep it."""
    state = shoot_null(NullShootSpec(x0=[0.0, 0.0], u=[1.0, 0.0], q=1.0, t0=1.0, eps=-1), flat2)
    cfg = IntegratorConfig(method=method, lambda_max=0.5)
    vy = integrate(state, flat2, cfg).vx[-1, 1]
    assert vy == 0.0 and math.copysign(1.0, vy) == (1.0 if method == "rk45" else -1.0)
    _assert_same_orbit(lambda: integrate(state, flat2, cfg), references)


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_small_gauge_orbit_equals_the_reference(schwarzschild, method, references):
    """The reduced flow's right-hand side as it was, over arrays, driven by the reference steps."""
    field = lambda x: np.array([[0.0, 0.7], [-0.7, 0.0]])
    cfg = IntegratorConfig(method=method, lambda_max=1.0)
    x0, v0 = [math.pi / 2, 0.0], [0.0, 1.0]
    base = integrate_small_gauge(x0, v0, schwarzschild, +1, cfg, curvature_fn=field)
    kk = schwarzschild.kk(-1)

    sign_q = +1

    def rhs(y):
        y = np.array(y)
        x, v = y[:2], y[2:]
        gminv, symbols, _, _ = _ref_base_data(kk, x, 1.0, "angular")
        acc = -np.einsum("abc,b,c->a", symbols, v, v) + sign_q * (gminv @ field(x) @ v)
        return np.concatenate([v, acc]).tolist()

    references()
    us, ys, events = geodesics._drive(rhs, np.concatenate([x0, v0]), cfg.lambda_max, cfg, lambda y: None)
    assert events == base.events
    assert np.array(us).tobytes() == base.u.tobytes()
    assert np.array(ys)[:, :2].tobytes() == base.x.tobytes() and np.array(ys)[:, 2:].tobytes() == base.vx.tobytes()


# -- symbols ----------------------------------------------------------------------

def _check_scenarios(tmp_path):
    yield from (cg.load(name) for name in scenarios.catalog_names())
    yield cg.load(str(DEMO))
    # the off-diagonal entries agree only up to rounding, so dg_M/dt is symmetric only up to rounding too
    path = tmp_path / "cone.ini"
    path.write_text(
        "[meta]\ndim = 2\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n[metric]\ntime_dependent = true\n"
        "main = matrix(t^2 * (1 + 0.5 * x1^2), 0.1 * t + x1 * t / 3; (0.3 + x1) * t / 3, 2 + t^2)\n"
    )
    cone = cg.load(str(path))
    yield cone
    # without registered base data the closed form differences the symbols and dg_M/dt around (x, t)
    yield dataclasses.replace(cone, base_jet=None)


def test_closed_form_equals_the_reference_on_the_check_sample_points(tmp_path, monkeypatch):
    """The points ``check`` compares with the oracle at seeds 0-2, recorded
    from ``christoffel_suite``, and both signs."""
    recorded = []
    monkeypatch.setattr(suites, "closed_form_deviation", lambda kk, points: recorded.append((kk, points)) or 0.0)
    for scenario in _check_scenarios(tmp_path):
        for seed in range(3):
            suites.run_all(scenario, np.random.default_rng(seed))
    assert len(recorded) == 2 * 3 * (len(scenarios.catalog_names()) + 3)
    for kk, points in recorded:
        for p in points:
            assert kaluza.christoffel_closed(kk, p).tobytes() == _ref_christoffel_closed(kk, p).tobytes(), p


def test_stereographic_symbols_equal_the_loop():
    on_axes = [np.array(x) for x in ([0.0, 0.0], [0.0, -0.7], [1.2, 0.0], [-0.0, 0.3])]  # df = -0.0 there
    for x in on_axes + list(np.random.default_rng(5).uniform(-2, 2, (50, 2))):
        assert scenarios._stereo_symbols(x).tobytes() == _ref_stereo_symbols(x).tobytes(), x


def test_thakurta_fiber_derivative_is_minus_the_block_for_u_equal_t(thakurta):
    """dg_M/dt = -U'(t) g_M and g_M^-1 dg_M/dt = -U'(t) I, with U' from the
    exact derivative of U, which is 1.0 for U = t."""
    x = np.array([1.1, 0.4])
    for t in (0.3, -0.8, 1.7, -2.5):
        gm = thakurta.metric.at(x, t, "angular")
        _, dgdt, rate = thakurta.base_jet(x, t, "angular")
        assert dgdt.tobytes() == (-gm).tobytes()
        assert rate.tobytes() == (-np.eye(2)).tobytes()
