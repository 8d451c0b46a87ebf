"""Bit identity of the generated float kernels and the closed form.

A step, the geodesic right-hand side's contraction and the zero-gauge
closed form run as code generated once per shape on Python floats: a step
unrolls its tableau's sums, the contraction sums as numpy's einsum does, and
the closed form writes each entry once, or sums each entry with the
velocity where the contraction sums the symbol list, which is how the
closed route's right-hand side takes it. None may change a bit against the
straightforward code, which is kept here as the reference: the tableau loop
that the generated step unrolls, the Tsitouras and RK4 steps over arrays,
each evaluating every stage afresh, the array right-hand side, and the
zero-gauge closed-form assembly, whose mixed block is a registered rate
g_M^-1 dg_M/dt where one is given and the inverse times dg_M/dt otherwise.
Seeded orbits run once as they are and once with the references patched
in, and every array of the two trajectories must be equal byte for byte.
The registered base data are flat lists of Python floats; every registered
jet, and the differenced base data, must equal array references float for
float.
"""

import ast
import dataclasses
import functools
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, expressions, geodesics, geometry, kaluza, scenarios, suites
from carrollgeo.connection import GaugeField
from carrollgeo.geodesics import IntegratorConfig, NullShootSpec, integrate, integrate_small_gauge, shoot_null

DEMO = Path(__file__).resolve().parents[1] / "docs" / "examples" / "scenario_demo.ini"
# the off-diagonal entries agree only up to rounding, so dg_M/dt is symmetric only up to rounding too
CONE = ("[meta]\ndim = 2\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n[metric]\ntime_dependent = true\n"
        "main = matrix(t^2 * (1 + 0.5 * x1^2), 0.1 * t + x1 * t / 3; (0.3 + x1) * t / 3, 2 + t^2)\n")
THREE = ("[meta]\ndim = 3\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5; -1.5, 1.5)\n[metric]\ntime_dependent = true\n"
         "main = matrix(2 + sin(x1) * exp(-0.3 * t), 0.3 * cos(x2 + t), 0.1 * x3 * t; "
         "0.3 * cos(x2 + t), 1.5 + 0.5 * exp(0.2 * x1 * t), 0.2 * sin(t); "
         "0.1 * x3 * t, 0.2 * sin(t), 1 + t^2 * (1 + 0.1 * x2^2))\n")
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


def _ref_combine(y, h, row, ks, start):
    """y + (h / div) * (start + w_0 k_0 + ...) per component, zero weights skipped."""
    div, weights = row
    terms = [(w, k) for w, k in zip(weights, ks) if w]
    step = h / div
    out = []
    for j, yj in enumerate(y):
        acc = start
        for w, k in terms:
            acc += w * k[j]
        out.append(yj + step * acc)
    return out


def _ref_loop_step(tableau, rhs, y, k0, h, tol):
    """The step as a loop over the tableau's rows, which the generated step unrolls."""
    ks = [k0]
    for row in tableau.stages:
        ks.append(rhs(_ref_combine(y, h, row, ks, tableau.start)))
    y_new = _ref_combine(y, h, tableau.solution, ks, tableau.start)
    if tableau.error is None:
        return y_new, None, 0.0
    ks.append(rhs(y_new))
    errs = _ref_combine([0.0] * len(y), h, tableau.error, ks, tableau.start)
    return y_new, ks[-1], geodesics._rms([e / (tol + tol * max(abs(y0), abs(a))) for y0, a, e in zip(y, y_new, errs)])


def _ref_geodesic_rhs(gamma_at, sign):
    """The right-hand side for y = (x, u, vx, w), u = log|t|, w = vt / t, over arrays."""
    n = None

    def rhs(y):
        nonlocal n
        if n is None:
            n = (y.size - 2) // 2
        vel = y[n + 1 :]
        if not np.any(vel):
            return np.concatenate([vel, np.zeros(n + 1)])
        t, w = sign * math.exp(y[n]), vel[n]
        v = np.append(vel[:n], t * w)
        acc = -np.einsum("abc,b,c->a", gamma_at(np.append(y[:n], t)), v, v)
        return np.concatenate([vel, acc[:n], [acc[n] / t - w * w]])

    return lambda y: rhs(np.array(y)).tolist()


def _ref_gamma_provider(kk, chart, cfg, provider=geodesics._gamma_provider):
    """The route the package picks, with its symbols as arrays, for ``_ref_geodesic_rhs`` to contract: the
    zero-gauge closed-form reference, or the oracle."""
    route, _ = provider(kk, chart, cfg)
    if route == "closed":
        return route, lambda raw: _ref_christoffel_closed(kk, raw, chart=chart)
    return route, lambda raw: kaluza.christoffel_numeric(kk, raw, cond_limit=None, chart=chart)


def _ref_cofactor_inverse(g):
    """adj(g) / det(g) of an n x n block, n <= 3, over arrays: each cofactor
    (at n = 3 in the cyclic form, which carries its sign) divided by the
    determinant expanded along the first row from its first term."""
    n = len(g)
    if n == 1:
        cofactors = np.ones((1, 1))
    elif n == 2:
        cofactors = np.array([[g[1, 1], -g[1, 0]], [-g[0, 1], g[0, 0]]])
    else:
        cofactors = np.array([[g[(a + 1) % 3, (b + 1) % 3] * g[(a + 2) % 3, (b + 2) % 3]
                               - g[(a + 1) % 3, (b + 2) % 3] * g[(a + 2) % 3, (b + 1) % 3] for b in range(3)]
                              for a in range(3)])
    det = g[0, 0] * cofactors[0, 0]
    for b in range(1, n):
        det += g[0, b] * cofactors[0, b]
    return cofactors.T / det


def _ref_base_data(kk, x, t, chart):
    """The inverse base block, the base symbols, dg_M/dt and the rate as
    arrays: a registered jet's flat lists shaped, with LAPACK's inverse (as
    ``base_inverse`` reads it), or the differences, with the cofactor one."""
    x = np.asarray(x, dtype=float)
    n = x.size
    t_differenced = kk.base_jet is None and kk.metric.time_dependent
    if kk.base_jet is not None:
        gminv = np.linalg.inv(kk.metric.at(x, t, chart))
    else:
        points, h = _fd.stencil((np.append(x, t) if t_differenced else x)[None], keep_sign=(n,))
        stencil = points[0]
        gm = kk.metric.at(stencil[:, :n], stencil[:, n] if t_differenced else np.full(len(stencil), t), chart)
        gminv = _ref_cofactor_inverse(gm[0])
        partials = _fd.stacked_partials(gm[None, 1:], h)[0]
    if kk.base_jet is not None:
        base, dgdt, rate = kk.base_jet(x.tolist(), t, chart)
        base = np.reshape(base, (n, n, n))
        if dgdt is not None:
            dgdt, rate = np.reshape(dgdt, (n, n)), np.reshape(rate, (n, n))
    else:
        base, dgdt, rate = kaluza._levi_civita(gminv, partials[:n]), None, None
    if dgdt is None:
        dgdt = partials[n] if t_differenced else np.zeros((n, n))
        rate = np.einsum("cd,da->ca", gminv, np.ascontiguousarray(dgdt.T))
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
    rho2 = sum(v * v for v in x.tolist())  # in index order
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
        monkeypatch.setattr(geodesics, "_gamma_provider", _ref_gamma_provider)

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
    cone = cg.load(str(_write(tmp_path, "cone.ini", CONE)))
    yield cone
    # without registered base data the closed form differences the symbols and dg_M/dt around (x, t)
    yield dataclasses.replace(cone, base_jet=None)


def _write(folder, name, text):
    path = folder / name
    path.write_text(text)
    return path


def _check_sample_points(monkeypatch, scenario_list):
    """(kk, points) of every closed-form comparison that ``check`` makes at
    seeds 0-2, recorded from ``christoffel_suite``: both signs, each chart."""
    recorded = []
    with monkeypatch.context() as patch:
        patch.setattr(suites, "closed_form_deviation", lambda kk, points: recorded.append((kk, points)) or 0.0)
        for scenario in scenario_list:
            for seed in range(3):
                suites.run_all(scenario, np.random.default_rng(seed))
    return recorded


def test_closed_form_equals_the_reference_on_the_check_sample_points(tmp_path, monkeypatch):
    """The points ``check`` compares with the oracle at seeds 0-2, recorded
    from ``christoffel_suite``, and both signs."""
    recorded = _check_sample_points(monkeypatch, _check_scenarios(tmp_path))
    assert len(recorded) == 2 * 3 * (len(scenarios.catalog_names()) + 3)
    for kk, points in recorded:
        for p in points:
            assert kaluza.christoffel_closed(kk, p).tobytes() == _ref_christoffel_closed(kk, p).tobytes(), p


def test_stereographic_symbols_equal_the_loop():
    on_axes = [np.array(x) for x in ([0.0, 0.0], [0.0, -0.7], [1.2, 0.0], [-0.0, 0.3])]  # df = -0.0 there
    for x in on_axes + list(np.random.default_rng(5).uniform(-2, 2, (50, 2))):
        assert np.array(scenarios._stereo_symbols(x.tolist())).tobytes() == _ref_stereo_symbols(x).tobytes(), x


# points of the stereographic box where x1^2 + x2^2 summed in index order, pinned here,
# differs from both fused roundings fma(x1, x1, x2^2) and fma(x2, x2, x1^2)
_RHO2_PINS = [("0x1.06143ff60cb98p-1", "0x1.c42a8abe4eb28p-2", "0x1.d3f704c6265b2p-2"),
              ("0x1.2123cfc860044p+0", "-0x1.53050e49c3192p+0", "0x1.83c4220ae64dep+1"),
              ("-0x1.27bb532872308p+0", "0x1.5fc46884cb4e0p-1", "0x1.ce784e0ce626cp+0")]


@pytest.mark.parametrize("pin", _RHO2_PINS, ids=["first", "second", "third"])
def test_stereographic_square_norm_sums_in_index_order(pin):
    """The stereographic block, symbols and inversion read rho^2 summed in
    index order, whatever rounding numpy's dot product takes on the host."""
    x0, x1, rho2 = (float.fromhex(v) for v in pin)
    exact = lambda a, b: Fraction(a) * Fraction(a) + Fraction(b * b)
    assert x0 * x0 + x1 * x1 == rho2 and rho2 not in (float(exact(x0, x1)), float(exact(x1, x0)))
    x = np.array([x0, x1])
    assert scenarios._stereo_block(0.25)(x, 1.0).tobytes() == np.diag([1.0 / (1.0 + rho2) ** 2] * 2).tobytes()
    df = [-2.0 * v / (1.0 + rho2) for v in (x0, x1)]
    assert scenarios._stereo_symbols([x0, x1]) == [df[0], df[1], df[1], -df[0], -df[1], df[0], df[0], df[1]]
    assert scenarios._stereo_inversion(x).tobytes() == (np.array([x0, -x1]) / rho2).tobytes()


def _fused(a, b):
    """a . b of two 2-vectors with each fused multiply-add that numpy's dot may take, rounded once."""
    return float(Fraction(a[0]) * Fraction(b[0]) + Fraction(a[1] * b[1])), \
        float(Fraction(a[1]) * Fraction(b[1]) + Fraction(a[0] * b[0]))


# a unit vector a, a vector b with a . b in (-2, -0.5) summed in index order, pinned here, which
# differs from both fused roundings; 1 + a . b is then exact, so vt keeps the difference
_DOT_PINS = [("-0x1.c72cf9a75df38p-2", "-0x1.caa3099846017p-1", "0x1.7007fe6805a19p+0", "0x1.e58cca6675e8dp-1",
              "-0x1.7d107e997c12cp+0"),
             ("0x1.72087b45408eep-2", "-0x1.dd66f742d1679p-1", "0x1.5655d9385544ap-4", "0x1.c87fb31f96d7dp+0",
              "-0x1.a1eb7898e3280p+0"),
             ("0x1.ed6ed2f8d4335p-1", "0x1.1142f3f2cd835p-2", "-0x1.9cbe489c140f4p+0", "-0x1.04de4522cd0a1p-1",
              "-0x1.b095381250b58p+0")]


@pytest.mark.parametrize("pin", _DOT_PINS, ids=["first", "second", "third"])
def test_small_dots_sum_in_index_order(pin, flat2):
    """``geometry.dot`` sums in index order, and so do the dots that reach an
    output: shoot_null's vx . A, the charge and the printed spatial
    acceleration. On flat(2) with A(x) = (x2, -x1), whose value at
    x = (-b2, b1) is b, a state of velocity a reads a . b."""
    a0, a1, b0, b1, d = (float.fromhex(v) for v in pin)
    a, b = [a0, a1], [b0, b1]
    assert a0 * b0 + a1 * b1 == d and d not in _fused(a, b) and -0.5 > d > -2.0
    assert geometry.dot(a, b) == geometry.dot(b, a) == d
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], -x[0]])})
    x = np.array([-b1, b0])
    state = shoot_null(NullShootSpec(x0=x, u=np.array(a), q=1.0, t0=1.0), flat2, gauge=gauge)
    assert state.vx.tolist() == a and state.vt == -1.0 * (1.0 + d)
    state = cg.GeodesicState(x, 1.0, np.array(a), 0.0)
    assert geodesics.carroll_charge(state, gauge, "cartesian") == -(0.0 + d)
    gf_v = np.eye(2) @ cg.curvature(gauge, x, "cartesian") @ np.array(a)
    expected = -np.einsum("abc,b,c->a", np.zeros((2, 2, 2)), np.array(a), np.array(a))
    expected -= (0.0 + d) * gf_v
    expected -= d * gf_v
    assert geodesics.printed_spatial_acceleration(state, flat2, gauge).tobytes() == expected.tobytes()


# demo-file points x and directions u whose squared length w . u, w = u g_M(x) (exact for the
# diagonal block), summed in index order, pinned here, differs from both fused roundings, and so does u / |u|
_NORM_PINS = [("-0x1.56937665151e4p-1", "-0x1.c543dad1ba960p-5", "-0x1.819db5055ea59p-1", "0x1.2d6490f6194acp+0",
               "0x1.bbb1c9aee1e38p+1"),
              ("-0x1.61e4861ab8b01p+0", "0x1.26141eb506086p+0", "-0x1.3a7108f213396p+0", "-0x1.2990748ca8cb3p-1",
               "0x1.d019f2a6d50c2p+1"),
              ("0x1.0502507239f1cp-1", "0x1.19a5c9f7e5956p+0", "-0x1.08014144135e8p+0", "0x1.08bf51177b950p+0",
               "0x1.ab9cbe462b324p+1")]


@pytest.mark.parametrize("pin", _NORM_PINS, ids=["first", "second", "third"])
def test_unit_direction_sums_the_quadratic_form_in_index_order(pin):
    """The length of a direction, u g_M u, is (u g_M) . u with each dot
    summed in index order, whatever rounding numpy's dot takes on the host."""
    x0, x1, u0, u1, square = (float.fromhex(v) for v in pin)
    demo = cg.load(str(DEMO))
    g = demo.metric.at([x0, x1], 1.0, "main")
    w = [u0 * g[0, 0], u1 * g[1, 1]]
    assert g[0, 1] == g[1, 0] == 0.0 and w[0] * u0 + w[1] * u1 == square
    fused = _fused(w, [u0, u1])
    assert all((np.array([u0, u1]) / math.sqrt(v)).tobytes() != (np.array([u0, u1]) / math.sqrt(square)).tobytes()
               for v in fused)
    out = cg.unit_direction(demo, [x0, x1], [u0, u1], 1.0, "main")
    assert out.tobytes() == (np.array([u0, u1]) / math.sqrt(square)).tobytes()


@pytest.mark.parametrize("dot_pin, norm_pin", list(zip(_DOT_PINS, _NORM_PINS)), ids=["first", "second", "third"])
def test_monitors_sum_in_index_order(dot_pin, norm_pin, flat2):
    """A trajectory's charge reads vx . A and its base speed (vx g_M) . vx as
    ``geometry.dot`` sums them, whatever rounding numpy's matmul takes
    on the host: the pinned a . b at a velocity a where A = b, and the pinned
    u g_M u on the demo file at a velocity u; a sample reads the same alone
    and in a stack."""
    a0, a1, b0, b1, d = (float.fromhex(v) for v in dot_pin)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], -x[0]])})
    only = IntegratorConfig(lambda_max=0.0)  # the initial sample alone
    traj = integrate(cg.GeodesicState([-b1, b0], 1.0, [a0, a1], 0.0), flat2, only, gauge=gauge)
    assert traj.charge.tolist() == [-(0.0 + d)] and traj.base_speed2.tolist() == [geometry.dot([a0, a1], [a0, a1])]
    x0, x1, u0, u1, square = (float.fromhex(v) for v in norm_pin)
    demo = cg.load(str(DEMO))
    traj = integrate(cg.GeodesicState([x0, x1], 1.0, [u0, u1], 0.0), demo, only)
    assert traj.base_speed2.tolist() == [square] and traj.null_residual.tolist() == [square]
    vx = np.array([[a0, a1], [u0, u1], [u1, a0]])
    g = demo.metric.at(np.array([[b0, b1], [x0, x1], [a1, u0]]), np.ones(3), "main")
    assert geodesics._along(vx, g).tolist() == [geometry.dot([geometry.dot(v, c) for c in m.T.tolist()], v)
                                                 for v, m in zip(vx.tolist(), g)]
    assert geodesics._along(vx, g[:, 0]).tolist() == [geometry.dot(v, a) for v, a in zip(vx.tolist(), g[:, 0].tolist())]
    assert geodesics._along(vx[1:2], g[1:2]).tolist() == [square]


def test_thakurta_fiber_derivative_is_minus_the_block_for_u_equal_t(thakurta):
    """dg_M/dt = -U'(t) g_M and g_M^-1 dg_M/dt = -U'(t) I, with U' from the
    exact derivative of U, which is 1.0 for U = t."""
    x = [1.1, 0.4]
    for t in (0.3, -0.8, 1.7, -2.5):
        gm = thakurta.metric.at(x, t, "angular")
        _, dgdt, rate = thakurta.base_jet(x, t, "angular")
        assert np.array(dgdt).tobytes() == (-gm).tobytes()
        assert np.array(rate).tobytes() == (-np.eye(2)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_levi_civita_sum_and_rate_equal_the_stacked_assembly(n):
    """A scenario file's base symbols and rate are summed on floats: they
    equal ``_levi_civita`` of the LAPACK inverse byte for byte, signed zeros
    included, and the rate equals the same contraction with the partials laid
    out as ``_levi_civita`` reads them ([d, a]; up to n = 2 the pairwise
    sums of the dot-product layout [a, d] give the same bytes)."""
    rng = np.random.default_rng([41, n])
    kernel = kaluza._levi_civita_floats(n, True)
    for k in range(300):
        a = rng.normal(size=(n, n))
        ginv = np.linalg.inv(a @ a.T + n * np.eye(n))
        dg = rng.normal(size=(n + 1, n, n))
        if k % 2:
            dg[rng.random(dg.shape) < 0.5] = 0.0
            dg[rng.random(dg.shape) < 0.3] = -0.0
        jet = [math.nan] * n * n + dg.ravel().tolist()  # the kernel reads no entry of the block
        base, dgdt, rate = kernel(ginv.ravel().tolist(), jet)
        assert np.array(base).tobytes() == kaluza._levi_civita(ginv, dg[:n]).tobytes()
        assert dgdt == dg[n].ravel().tolist()
        rate = np.array(rate)
        assert rate.tobytes() == np.einsum("cd,da->ca", ginv, np.ascontiguousarray(dg[n].T)).tobytes()
        if n <= 2:
            assert rate.tobytes() == np.einsum("cd,ad->ca", ginv, dg[n]).tobytes()
    fixed = kaluza._levi_civita_floats(n, False)(ginv.ravel().tolist(), jet)
    assert np.array(fixed[0]).tobytes() == np.array(base).tobytes() and fixed[1:] == (None, None)


# -- generated kernels --------------------------------------------------------------

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, math.inf, -math.inf, math.nan)


def _draws(rng, size, special):
    """Floats of mixed magnitude; with ``special``, about a third of them are
    signed zeros, subnormals, infinities or NaN."""
    out = (rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)).tolist()
    if special:
        for i in np.flatnonzero(rng.random(size) < 1 / 3).tolist():
            out[i] = _SPECIAL[rng.integers(len(_SPECIAL))]
    return out


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("tableau", [geodesics._TSITOURAS54, geodesics._RK4], ids=["tsitouras", "rk4"])
def test_generated_step_equals_the_tableau_loop(tableau, m):
    """The slopes are drawn, not computed, so that every special value reaches
    every sum: each stage point, the state, its slope and the error norm
    equal the loop's byte for byte."""
    rng = np.random.default_rng([29, m])
    for k in range(400):
        slopes = [_draws(rng, m, k % 2) for _ in range(len(tableau.stages) + 2)]
        y, h = _draws(rng, m, k % 2), float(rng.uniform(1e-4, 0.1))
        runs = []
        for step in (geodesics._rk_step, _ref_loop_step):
            points, rest = [], iter(slopes[1:])
            y_new, k_new, err = step(tableau, lambda point: points.append(point) or next(rest), y, slopes[0], h, 1e-10)
            runs.append((_bits(sum(points, [])), _bits(y_new), k_new and _bits(k_new), _bits([err])))
        assert runs[0] == runs[1]


# values whose RMS, with the squares summed as np.add.reduce sums them (numpy's pairwise sum: in index order
# below 8 terms, else over eight running sums and then the rest), is pinned here; it differs from the RMS of
# the correctly rounded sum, of the sum in reverse order and, from m = 8, of the sum in index order
_RMS_PINS = {
    4: (["-0x1.9415c6c00e554p-1", "0x1.0d3c00a7cd698p-3", "-0x1.fb425de53fefep-1", "-0x1.1dbe573984590p-4"],
        "0x1.467f66ed23287p-1"),
    6: (["0x1.bad9bba0012e8p-2", "-0x1.60a30d3463e40p-4", "0x1.6cd9ebaad5660p-3", "-0x1.6a1794d548dcep-1",
         "0x1.3534bda30f1e8p-1", "-0x1.ee60125725af8p-3"], "0x1.c02be2042ec12p-2"),
    8: (["-0x1.ec7794da8f3bcp-2", "0x1.b198bb28aa110p-1", "0x1.f4fe2d42b7c38p-3", "0x1.9bacc4fa355b0p-1",
         "0x1.41640cd1e3d56p-1", "-0x1.5e9007d02d320p-3", "0x1.948e33400a264p-1", "0x1.eee16d2e390bap-1"],
        "0x1.593517c2a6517p-1"),
    10: (["-0x1.5b624da104548p-2", "0x1.1f1900dd2b910p-1", "0x1.8ea6f94aa54c6p-1", "-0x1.108df691006d2p-1",
          "-0x1.3b4bf76625426p-1", "-0x1.af4f236d56ce0p-2", "0x1.d4cee1b39d320p-1", "-0x1.f5606ff4c4ef8p-1",
          "0x1.ed75099ba1cc8p-2", "0x1.c7fe493f20714p-1"], "0x1.5ef438f23c89ap-1"),
}


@pytest.mark.parametrize("m", sorted(_RMS_PINS))
def test_rms_sums_the_squares_in_numpy_order(m):
    """The error norm of a step (and of the first-step probes) is the RMS of
    m values with their squares summed in np.add.reduce's order on Python
    floats: the pin, numpy's own sum and the generated step's norm agree."""
    values, rms = [float.fromhex(v) for v in _RMS_PINS[m][0]], float.fromhex(_RMS_PINS[m][1])
    squares = [v * v for v in values]
    in_order = lambda terms: functools.reduce(operator.add, terms, 0.0)  # Python's sum() may compensate
    sums = [math.fsum(squares), in_order(reversed(squares))] + [in_order(squares)] * (m >= 8)
    assert rms not in [math.sqrt(s / m) for s in sums]
    assert math.sqrt(np.add.reduce(squares) / m) == rms
    assert geodesics._rms(values) == rms
    rng = np.random.default_rng([53, m])
    for _ in range(200):
        slopes = [_draws(rng, m, False) for _ in range(len(geodesics._TSITOURAS54.stages) + 2)]
        y, h = _draws(rng, m, False), float(rng.uniform(1e-4, 0.1))
        runs = [step(geodesics._TSITOURAS54, lambda point, rest=iter(slopes[1:]): next(rest), y, slopes[0], h, 1e-10)
                for step in (geodesics._rk_step, _ref_loop_step)]
        assert _bits([runs[0][2]]) == _bits([runs[1][2]])
        values = _draws(rng, m, False)
        assert geodesics._rms(values) == math.sqrt(np.add.reduce([v * v for v in values]) / m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_contraction_equals_einsum(n):
    """No zero symbol is skipped: 0 * inf is NaN, as in the einsum. A NaN
    counts as a NaN: its sign bit follows the operand order of each add, which
    numpy's kernels need not share with Python's (one draw in 3,000 at n = 3),
    and a NaN slope ends a run whatever its sign."""
    rng = np.random.default_rng([31, n])
    kernel, m = geodesics._contraction(n), n + 1
    for k in range(1000):
        g, v = _draws(rng, m**3, k % 2), _draws(rng, m, k % 2)
        with np.errstate(all="ignore"):
            ref = -np.einsum("abc,b,c->a", np.reshape(g, (m, m, m)), np.array(v), np.array(v))
        assert _bits([math.nan if a != a else a for a in kernel(g, v)]) == np.where(np.isnan(ref), math.nan, ref).tobytes()


@pytest.mark.parametrize("fiber", [False, True], ids=["fixed", "fiber"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_acceleration_equals_the_contracted_symbols(n, fiber):
    """The acceleration kernel sums each symbol's expression where
    ``_contraction`` sums the symbol list, every structural zero kept: the
    same bytes as ``_contraction`` of the symbol kernel, signed zeros, inf
    and the place of every NaN included, for any base data, velocity and
    nonzero t. A NaN counts as a NaN: where two meet, CPython keeps one or
    the other as its float operation is specialized or not, so its sign
    bit changes as the interpreter warms up, even within one kernel."""
    rng = np.random.default_rng([59, n, fiber])
    symbols, accel, contract = kaluza._closed_floats(n, fiber), kaluza._closed_floats(n, fiber, along=True), \
        geodesics._contraction(n)
    nan_bits = lambda values: _bits([math.nan if a != a else a for a in values])
    for k in range(1000):
        t, s = _draws(rng, 1, k % 2)[0] or 0.5, float(rng.choice([-1.0, 1.0]))  # the closed form divides by t
        data = [_draws(rng, n**3, k % 2)] + [_draws(rng, n * n, k % 2) for _ in range(2 * fiber)]
        v = _draws(rng, n + 1, k % 2)
        assert nan_bits(accel(t, s, *data, v)) == nan_bits(contract(symbols(t, s, *data), v))


def test_the_acceleration_along_a_velocity_needs_a_vanishing_gauge_field(flat2):
    """``along`` gives the contraction of the symbols that the same call gives without it, and only then."""
    raw, v = [0.1, 0.2, -1.3], [0.4, -0.0, 0.7]
    symbols = kaluza.christoffel_closed(flat2.kk(-1), raw, chart="cartesian")
    assert kaluza.christoffel_closed(flat2.kk(-1), raw, chart="cartesian", along=v) == \
        geodesics._contraction(2)(symbols.ravel().tolist(), v)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], -x[0]])})
    with pytest.raises(cg.ContractViolation, match="vanishing gauge field"):
        kaluza.christoffel_closed(flat2.kk(+1, gauge), raw, chart="cartesian", along=v)


def test_differenced_rate_sums_in_index_order_at_n_3(tmp_path):
    """A 3-d fiber-dependent file without registered base data: the rate
    g^{cd} dg_ad/dt sums over d in index order from 0.0, whatever order
    numpy's dot-product kernels take, and the closed form equals the reference."""
    kk = dataclasses.replace(cg.load(str(_write(tmp_path, "three.ini", THREE))), base_jet=None).kk(-1)
    rng = np.random.default_rng(43)
    for _ in range(200):
        x, t = rng.uniform(-1.0, 1.0, 3), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        gminv, _, dgdt, _ = _ref_base_data(kk, x, t, "main")
        loop = np.zeros((3, 3))
        for c in range(3):
            for a in range(3):
                acc = 0.0
                for d in range(3):
                    acc += gminv[c, d] * dgdt[a, d]
                loop[c, a] = acc
        assert np.array(kaluza.base_data(kk, x, t, "main")[2]).tobytes() == loop.tobytes()
        raw = np.append(x, t)
        assert kaluza.christoffel_closed(kk, raw, chart="main").tobytes() == \
            _ref_christoffel_closed(kk, raw, chart="main").tobytes()


# -- the float-list base data contract ------------------------------------------------

def _ref_angular_symbols(x):
    theta = x[0]
    out = np.zeros((2, 2, 2))
    out[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    out[1, 0, 1] = out[1, 1, 0] = math.cos(theta) / math.sin(theta)
    return out


def _ref_base_jet(scenario, jets, x, t, chart):
    """A registered jet's base symbols, dg_M/dt and rate as arrays: zeros for
    a flat block; the round symbols for a sphere, with (f g_M, f I) for a
    block scaled by exp(s(t)), f = s'(t); for an expression file,
    ``_levi_civita`` and the rate of the cofactor inverse of its generated jet."""
    n = x.size
    if jets:
        values = np.array(jets[chart](*x.tolist(), t))
        gminv, partials = _ref_cofactor_inverse(values[: n * n].reshape(n, n)), values[n * n :].reshape(-1, n, n)
        base = kaluza._levi_civita(gminv, partials[:n])
        if not scenario.metric.time_dependent:
            return base, None, None
        return base, partials[n], np.einsum("cd,da->ca", gminv, np.ascontiguousarray(partials[n].T))
    if scenario.name.startswith(("flat", "moebius")):
        return np.zeros((n, n, n)), None, None
    symbols = _ref_angular_symbols(x) if chart == "angular" else _ref_stereo_symbols(x)
    if scenario.name == "lightcone":
        factor = 2.0 / t
    elif scenario.name.startswith("thakurta"):
        slope = expressions.generate([[(expressions.compile_expression(scenario.params["U"], ("t",)), "t")]])
        factor = -slope[0](t)[0]
    else:
        return symbols, None, None
    return symbols, factor * scenario.metric.at(x, t, chart), factor * np.eye(2)


def _load_with_jets(monkeypatch, path):
    """A scenario file and the generated jet of each chart's block."""
    jets, parse = [], scenarios._parse_matrix
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "_parse_matrix", lambda *args, **kw: (lambda out: jets.append(out[1]) or out)(
            parse(*args, **kw)))
        scenario = cg.load(str(path))
    return scenario, dict(zip(scenario.atlas.chart_names(), jets))


_JETS = [*(pytest.param("flat", {"n": n}, id=f"flat{n}") for n in (1, 2, 3)),
         *(pytest.param(name, {}, id=name) for name in ("moebius", "sphere_pullback", "schwarzschild", "lightcone")),
         pytest.param("thakurta", {"U": "t"}, id="thakurta-t"), pytest.param("thakurta", {"U": "t^2/3"}, id="thakurta-t2"),
         pytest.param("demo", {}, id="demo-file"), pytest.param("three", {}, id="three-d-file")]


@pytest.mark.parametrize("name, params", _JETS)
def test_registered_jet_equals_the_array_reference(name, params, tmp_path, monkeypatch):
    """At the check sample points, each also with t negated, a registered jet
    gives flat lists of Python floats in C order, float for float the arrays
    of the reference; every chart of the sphere scenarios is sampled."""
    if name in ("demo", "three"):
        scenario, jets = _load_with_jets(monkeypatch, DEMO if name == "demo" else _write(tmp_path, "three.ini", THREE))
    else:
        scenario, jets = cg.load(name, **params), {}
    checked = set()
    for _, points in _check_sample_points(monkeypatch, [scenario]):
        for p, t in ((p, t) for p in points for t in (p.t, -p.t)):
            got = scenario.base_jet(p.x.tolist(), t, p.chart)
            ref = _ref_base_jet(scenario, jets, p.x, t, p.chart)
            assert [block is None for block in got] == [block is None for block in ref]
            for block, ref_block in zip(got, ref):
                if block is not None:
                    assert all(type(v) is float for v in block) and _bits(block) == ref_block.tobytes(), (p, t)
            checked.add(p.chart)
    assert checked == set(scenario.atlas.chart_names())


@pytest.mark.parametrize("text", [None, CONE, THREE], ids=["demo-file", "cone-file", "three-d-file"])
def test_differenced_base_data_equals_the_array_reference(text, tmp_path, monkeypatch):
    """Without a registered jet, ``base_data`` gives the differences as flat
    float lists, float for float the arrays of ``_ref_base_data``."""
    path = DEMO if text is None else _write(tmp_path, "file.ini", text)
    scenario = dataclasses.replace(cg.load(str(path)), base_jet=None)
    for kk, points in _check_sample_points(monkeypatch, [scenario]):
        for p, t in ((p, t) for p in points for t in (p.t, -p.t)):
            got = kaluza.base_data(kk, p.x.tolist(), t, p.chart)
            _, base, dgdt, rate = _ref_base_data(kk, p.x, t, p.chart)
            assert _bits(got[0]) == base.tobytes()
            if scenario.metric.time_dependent:
                assert _bits(got[1]) == dgdt.tobytes() and _bits(got[2]) == rate.tobytes()
            else:
                assert got[1:] == (None, None)


def test_closed_form_gives_the_same_bytes_for_a_point_an_array_and_a_list(tmp_path):
    rng = np.random.default_rng(47)
    for scenario in _check_scenarios(tmp_path):
        for sign in (+1, -1):
            kk = scenario.kk(sign)
            for chart in scenario.atlas.chart_names():
                for p in scenario.sample_points(rng, 3, chart=chart, include_negative_t=True):
                    closed = kaluza.christoffel_closed(kk, p).tobytes()
                    assert kaluza.christoffel_closed(kk, p.raw(), chart=chart).tobytes() == closed
                    assert kaluza.christoffel_closed(kk, p.raw().tolist(), chart=chart).tobytes() == closed


# -- the closed orbit path reaches no BLAS or LAPACK --------------------------------

def _rounding_numpy_calls(run, every=False):
    """(what, caller) of each call that ``run()`` makes, recorded with
    sys.setprofile, of numpy code whose result rounds as the BLAS or LAPACK
    build or numpy's summation order decides: a numpy.linalg function, numpy's
    dot, vdot or inner, einsum's c_einsum, ndarray.dot, or a method such as
    ``reduce`` of a ufunc other than maximum and minimum (exact in any order);
    with ``every``, of any numpy code: a C function of numpy, a method of a
    numpy object or a Python function of a numpy module. A matmul, called or
    written as @, raises no profile event, nor does arithmetic on arrays
    made before ``run``; see ``test_orbit_path_functions_write_no_matmul``."""
    calls = []

    def caller(frame):
        while frame.f_globals.get("__name__", "").startswith("numpy"):
            frame = frame.f_back
        return f"{frame.f_code.co_name}:{frame.f_lineno}"

    def profile(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            if every and (str(getattr(arg, "__module__", "")).startswith("numpy")
                          or type(owner).__module__.startswith("numpy")):
                calls.append((arg.__qualname__, caller(frame)))
            elif isinstance(owner, np.ufunc):
                if owner.__name__ not in ("maximum", "minimum"):
                    calls.append((f"{owner.__name__}.{arg.__name__}", caller(frame)))
            elif arg.__name__ in ("c_einsum", "dot"):
                calls.append((arg.__qualname__, caller(frame)))
        elif event == "call":
            module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
            if module.startswith("numpy.linalg") or (module == "numpy._core.multiarray"
                                                     and name in ("dot", "vdot", "inner")) \
                    or every and module.startswith("numpy"):
                calls.append((f"{module}.{name}", caller(frame.f_back)))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _short_orbit(scenario, chart):
    rng = np.random.default_rng(sum(map(ord, scenario.name + chart)))
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    x0, d = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi), rng.standard_normal(scenario.dim)
    t0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))

    def run():
        u = geodesics.unit_direction(scenario, x0, d, t0, chart)
        state = shoot_null(NullShootSpec(x0=x0, u=u, q=0.3, t0=t0, chart=chart), scenario)
        assert integrate(state, scenario, IntegratorConfig(lambda_max=0.2), chart=chart).meta["christoffel"] == "closed"

    return run


def test_the_closed_orbit_path_reaches_no_blas_or_lapack(tmp_path):
    """Shooting, stepping and the monitors of a closed-route orbit run on
    Python floats and elementwise numpy operations only, so an orbit's bytes
    depend on IEEE arithmetic and libm alone: on every catalog scenario and
    chart, the demo file, time-dependent files at n = 2 and 3, and the
    in-process ``null-shoot`` command. Grid files are not covered: their
    spline evaluates with a batched matmul."""
    from carrollgeo.cli import main

    for scenario in [cg.load(name) for name in scenarios.catalog_names()] + [cg.load(str(DEMO))]:
        for chart in scenario.atlas.chart_names():
            assert _rounding_numpy_calls(_short_orbit(scenario, chart)) == [], (scenario.name, chart)
    for name, text in (("cone.ini", CONE), ("three.ini", THREE)):
        assert _rounding_numpy_calls(_short_orbit(cg.load(str(_write(tmp_path, name, text))), "main")) == [], name
    argv = ["null-shoot", "schwarzschild", "--point", "1.2, 0.3", "--dir", "0.2, 1", "--q", "0.4",
            "--lambda-max", "0.2", "--out", str(tmp_path / "orbit.csv")]
    assert _rounding_numpy_calls(lambda: main(argv)) == []
    # the guard sees what it looks for
    ginv = kaluza._inverse(np.eye(2))
    seen = _rounding_numpy_calls(lambda: (np.add.reduce(ginv[0]), np.einsum("ab,b->a", ginv, ginv[0]),
                                          ginv.dot(ginv[0]), np.dot(ginv[0], ginv[1]), np.max(ginv)))
    assert [what for what, _ in seen] == ["add.reduce", "c_einsum", "ndarray.dot", "numpy._core.multiarray.dot"]
    lapack = dict(_rounding_numpy_calls(lambda: kaluza._inverse(np.eye(2))))
    assert lapack["numpy.linalg._linalg.inv"].startswith("_inverse:")


def _closed_stage(scenario, chart):
    """One call of the right-hand side that ``integrate`` builds on the closed route, at a seeded moving
    state inside the chart's box; called once here, so that its kernels are generated."""
    rng = np.random.default_rng(sum(map(ord, scenario.name + chart)))
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    x0, sign = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi), float(rng.choice([-1.0, 1.0]))
    route, accel = geodesics._gamma_provider(scenario.kk(-1), chart, IntegratorConfig())
    assert route == "closed"
    rhs, y = geodesics.geodesic_rhs(accel, sign), [*x0.tolist(), 0.3, *rng.uniform(-1.0, 1.0, scenario.dim + 1).tolist()]
    rhs(y)
    return lambda: rhs(y)


def test_a_closed_route_stage_calls_no_numpy(tmp_path):
    """From the raw position and velocity to the slope, a stage of a
    closed-route orbit runs on Python floats alone, base data included: on
    every catalog scenario and chart, the demo file, and time-dependent
    files at n = 2 and 3."""
    cases = [cg.load(name) for name in scenarios.catalog_names()] + [cg.load(str(DEMO))]
    cases += [cg.load(str(_write(tmp_path, name, text))) for name, text in (("cone.ini", CONE), ("three.ini", THREE))]
    for scenario in cases:
        for chart in scenario.atlas.chart_names():
            assert _rounding_numpy_calls(_closed_stage(scenario, chart), every=True) == [], (scenario.name, chart)
    # the guard sees what it looks for: a numpy C function, an array method and a numpy Python function
    seen = _rounding_numpy_calls(lambda: np.reshape(np.array([1.0, 2.0]).tolist(), (2, 1)), every=True)
    what = [what for what, _ in seen]
    assert what[:2] == ["array", "ndarray.tolist"] and what[2].startswith("numpy._core.fromnumeric.")


# the functions that shoot, step and monitor a closed-route orbit; the reduced flow
# (``integrate_small_gauge``) and the published transcriptions stay on numpy's linear algebra
_ORBIT_PATH = {"geodesics.py": ("GeodesicState", "Trajectory", "_along", "carroll_charge", "null_residual",
                                "unit_direction", "_norm", "shoot_null", "_gamma_provider", "geodesic_rhs",
                                "_contraction", "_pairwise_sum", "_rms", "_rms_kernel", "_rk_step", "_step_kernel",
                                "_first_step", "_drive", "_initial_chart", "integrate"),
               "kaluza.py": ("base_data", "jet_base_data", "_block_inverse", "_levi_civita_floats", "_closed_floats",
                             "contracted"),
               "geometry.py": ("dot",)}


def test_orbit_path_functions_write_no_matmul():
    """No function on the closed orbit path writes a matrix product, as @ or
    as a call of matmul: neither raises a profile event that
    ``_rounding_numpy_calls`` could record."""
    src = Path(cg.__file__).resolve().parent
    for filename, names in _ORBIT_PATH.items():
        tree = ast.parse((src / filename).read_text())
        found = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert set(names) <= set(found), filename
        for name in names:
            for node in ast.walk(found[name]):
                assert not isinstance(node, ast.MatMult), (filename, name, node.lineno)
                assert not (isinstance(node, ast.Attribute) and node.attr == "matmul"), (filename, name, node.lineno)
    sample = ast.parse("def f(a, b):\n    return a @ b\n")
    assert any(isinstance(node, ast.MatMult) for node in ast.walk(sample))
