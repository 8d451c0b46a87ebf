"""Bit identity of the generated float kernels and the closed form.

A step, with each stage's slope, the contraction and the zero-gauge closed
form run as code generated once per shape on Python floats: a step unrolls
its tableau's sums and writes its stages' guard and slope inline, the
contraction sums as numpy's einsum does, and the closed form writes each
entry once, or sums each entry with the velocity where the contraction sums
the symbol list, which is how the closed route's right-hand side takes it.
None may change a bit against the straightforward code, which is kept here
as the reference: the tableau loop that the generated step unrolls, the
Tsitouras and RK4 steps over arrays, each evaluating every stage afresh, the
array right-hand side behind the stage guard, and the zero-gauge
closed-form assembly from the block's jet (registered or differenced) over
arrays, with the cofactor inverse. Seeded orbits run once as they are and
once with the references patched in, and every array of the two
trajectories must be equal byte for byte. The jet kernel that leaves out
the products by structural zeros must equal the one that keeps them, and a
registered jet must read its block and zeros where it declares them.
"""

import ast
import dataclasses
import functools
import itertools
import math
import operator
import re
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


_REF_LOG_MAX = math.log(sys.float_info.max)  # the largest u = log|t| whose e^u is a float


def _ref_step_kernel(tableau, n, full):
    """``_step_kernel``'s slope and step over arrays: the full flow's ``_ref_geodesic_rhs`` (or the reduced
    flow's own right-hand side) behind the stage guard, a point with a non-finite entry or, on the full flow,
    a u past the float range of e^u having a NaN slope, and ``_ref_step``, whose error norm is NaN for a state
    that fails the guard."""

    def bind(f, sign):
        rhs = _ref_geodesic_rhs(f, sign) if full else f
        finite = lambda y: all(map(math.isfinite, y)) and not (full and y[n] > _REF_LOG_MAX)
        slope = lambda y: rhs(y) if finite(y) else [math.nan] * len(y)

        def step(y, k0, h, tol):
            y_new, k_new, err = _ref_step(tableau, slope, y, k0, h, tol)
            return y_new, k_new, err if finite(y_new) else math.nan

        return slope, step

    return bind


@functools.cache
def _contraction(n):
    """-Gamma^a(v, v) for the symbols Gamma[(a * m + b) * m + c], m = n + 1, as a float list, and v on Python
    floats, generated once per n as ``kaluza.contracted`` sums it: the einsum's bytes for a symbol list."""
    m = n + 1
    lines = kaluza.contracted([f"g[{k}]" for k in range(m**3)], m)
    return expressions.run_generated(["def kernel(g, v):", *lines])["kernel"]


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
    """The cofactor inverse of the base block, the base symbols, dg_M/dt and
    the rate as arrays, from the block's jet: a registered jet's values, or
    the centre and the central differences of g_M read on the stencil."""
    x = np.asarray(x, dtype=float)
    n, fiber = x.size, kk.metric.time_dependent
    if kk.jet is not None:
        values = np.array(kk.jet[chart].values(*x.tolist(), t))
        gm, partials = values[: n * n].reshape(n, n), values[n * n :].reshape(-1, n, n)
    else:
        points, h = _fd.stencil((np.append(x, t) if fiber else x)[None], keep_sign=(n,))
        stencil = points[0]
        gms = kk.metric.at(stencil[:, :n], stencil[:, n] if fiber else np.full(len(stencil), t), chart)
        gm, partials = gms[0], _fd.stacked_partials(gms[None, 1:], h)[0]
    gminv = _ref_cofactor_inverse(gm)
    dgdt = partials[n] if fiber else np.zeros((n, n))
    rate = np.einsum("cd,da->ca", gminv, np.ascontiguousarray(dgdt.T))
    return gminv, kaluza._levi_civita(gminv, partials[:n]), dgdt, rate


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


def _ref_published_closed(kk, p):
    """The published sign +1 assembly with a nonzero gauge field over arrays: the zero-gauge blocks written as
    they are (the fiber block -s (t^2/2) dg_M/dt unsymmetrized), the gauge terms added, then the lower pair
    symmetrized."""
    x, t, chart = p.x, p.t, p.chart
    n, s = x.size, kk.sign
    _, base, dgdt, rate = _ref_base_data(kk, x, t, chart)
    gamma = np.zeros((n + 1, n + 1, n + 1))
    gamma[:n, :n, :n] = base
    gamma[n, n, n] = -1.0 / t
    if not kk.metric.time_dependent:
        gamma[n, :n, :n] = -s * 0.0
    else:
        gamma[:n, :n, n] = gamma[:n, n, :n] = 0.5 * rate
        gamma[n, :n, :n] = -s * (t**2 / 2.0) * dgdt
    gminv = kaluza.base_inverse(kk, x, t, chart)
    a = kk.gauge.at(x, chart)
    jac_a = kk.gauge.jacobian(x, chart)
    f = jac_a.T - jac_a
    sym_da = jac_a + jac_a.T
    ag = gminv @ a
    gamma[:n, :n, :n] += 0.5 * (np.einsum("cd,b,ad->cab", gminv, a, f) + np.einsum("cd,a,bd->cab", gminv, a, f))
    gamma[:n, :n, :n] += 0.5 * t * np.einsum("c,ab->cab", ag, dgdt)
    gamma[:n, :n, n] += 0.5 / t * np.einsum("cd,da->ca", gminv, f)
    gamma[:n, n, :n] = gamma[:n, :n, n]
    gamma[n, :n, :n] += -t * np.einsum("c,cab->ab", a, base)
    gamma[n, :n, :n] += -(t / 2.0) * (np.einsum("c,b,ac->ab", ag, a, f) + np.einsum("c,a,bc->ab", ag, a, f))
    gamma[n, :n, :n] += (t / 2.0) * sym_da
    gamma[n, :n, :n] += -(t**2 / 2.0) * float(a @ gminv @ a) * dgdt
    scalar = -(t / 2.0) * float(np.einsum("cd,d,cd->", gminv, a, dgdt))
    mixed_f = -0.5 * np.einsum("cd,d,ca->a", gminv, a, f)
    gamma[n, :n, n] = mixed_f + scalar
    gamma[n, n, :n] = gamma[n, :n, n]
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


@pytest.fixture
def references(monkeypatch):
    """Patch the references in where the package looks them up at call time."""

    def patch():
        monkeypatch.setattr(geodesics, "_step_kernel", _ref_step_kernel)
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
        _, symbols, _, _ = _ref_base_data(kk, x, 1.0, "angular")
        gminv = np.linalg.inv(kk.metric.at(x, 1.0, "angular"))
        acc = -np.einsum("abc,b,c->a", symbols, v, v) + sign_q * (gminv @ field(x) @ v)
        return np.concatenate([v, acc]).tolist()

    references()
    us, ys, events = geodesics._drive(rhs, None, np.concatenate([x0, v0]), cfg.lambda_max, cfg, lambda y: None)
    assert events == base.events
    assert np.array(us).tobytes() == base.u.tobytes()
    assert np.array(ys)[:, :2].tobytes() == base.x.tobytes() and np.array(ys)[:, 2:].tobytes() == base.vx.tobytes()


@pytest.fixture(scope="module")
def orbit_context(workloads):
    return workloads.OrbitContext()


@pytest.mark.parametrize("k", range(7))
def test_the_benchmark_orbit_members_equal_the_reference(workloads, orbit_context, k, references):
    """The first member of each class of the benchmark's seed-1 ``orbits`` stream, drawn and run by
    ``perfbench/workloads.py`` as the benchmark runs it: the oracle route of ``flat_gauge`` included."""
    member = next(itertools.islice(workloads.orbit_members(1), k, None))
    assert member.cls == workloads.ORBIT_CLASSES[k]
    run = orbit_context.op(member).run
    assert run().meta["christoffel"] == ("numeric" if member.cls == "flat_gauge" else "closed")
    _assert_same_orbit(run, references)


# -- the stage guard ----------------------------------------------------------------

def _symbols(n, nan_beyond=math.inf):
    """Symbols at a raw point (x..., t) for the stage guard's orbits: constant in the base block, zero in the
    fiber's, so that w' = -w^2; NaN everywhere where x1 > ``nan_beyond``."""
    gamma = np.zeros((n + 1, n + 1, n + 1))
    gamma[:n, :n, :n] = 0.1 * np.arange(1, n**3 + 1).reshape(n, n, n) / n**3
    return lambda raw: gamma * math.nan if raw[0] > nan_beyond else gamma


def _guarded_orbits(gamma_at, sign, y0, method, references):
    """``_drive``'s samples, states and events on the full flow with the symbols ``gamma_at``, and the raw
    points at which the generated stages called the acceleration: run as generated, its acceleration
    contracted by ``_contraction``, and then through the array references."""
    n, calls = (len(y0) - 2) // 2, []
    accel = lambda raw, v: calls.append(raw) or _contraction(n)(gamma_at(raw).ravel().tolist(), v)
    cfg = IntegratorConfig(method=method, lambda_max=1.0, rk4_step=0.05)
    drive = lambda f: geodesics._drive(f, sign, np.array(y0), cfg.lambda_max, cfg, lambda y: None)
    generated = drive(accel)
    references()
    with np.errstate(all="ignore"):
        return generated, drive(gamma_at), calls


def _assert_same_samples(generated, reference):
    assert generated[2] == reference[2]
    assert _bits(generated[0]) == _bits(reference[0]) and _bits(generated[1]) == _bits(reference[1])


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_a_frozen_state_makes_no_acceleration_call(sign, method, references):
    """Zero velocity, signed zeros included, is a fixed point: no stage calls
    the acceleration, and every sample keeps the references' bytes (the
    Tsitouras sums turn -0.0 into 0.0, the RK4 ones keep it)."""
    y0 = [0.3, -0.2, 0.1, 0.0, -0.0, -0.0]
    generated, reference, calls = _guarded_orbits(_symbols(2), sign, y0, method, references)
    assert calls == [] and generated[2] == [] and len(generated[0]) > 10
    _assert_same_samples(generated, reference)
    assert all(y == y0 for y in generated[1])


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_a_stage_point_past_the_float_range_of_t_ends_the_run_as_non_finite(sign, method, references):
    """u = log|t| grows towards log(float max) with w = 0.5 and w' = -w^2; the
    first stage point past it, where e^u overflows, has a NaN slope and ends
    the run at the references' lambda, with no acceleration call there."""
    y0 = [0.3, -0.2, 709.7, 0.4, -0.0, 0.5]
    generated, reference, calls = _guarded_orbits(_symbols(2), sign, y0, method, references)
    assert [e["kind"] for e in generated[2]] == ["non_finite"] and generated[0][-1] < 1.0
    _assert_same_samples(generated, reference)
    assert all(math.isfinite(raw[-1]) for raw in calls) and max(abs(raw[-1]) for raw in calls) > 1e308


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_an_acceleration_that_returns_nan_ends_the_run_as_non_finite(sign, method, references):
    """Symbols that are NaN beyond x1 = 0.25 give a NaN slope at the first
    stage point there: the run ends at the references' lambda, the state
    before it kept; a signed-zero velocity component rides along."""
    y0 = [0.0, -0.0, 0.2, 1.0, -0.0, 0.1]
    generated, reference, calls = _guarded_orbits(_symbols(2, nan_beyond=0.25), sign, y0, method, references)
    assert [e["kind"] for e in generated[2]] == ["non_finite"] and 0.2 < generated[0][-1] < 0.3
    _assert_same_samples(generated, reference)
    assert any(raw[0] > 0.25 for raw in calls) and all(y[0] <= 0.25 for y in generated[1])


# -- symbols ----------------------------------------------------------------------

def _check_scenarios(tmp_path):
    yield from (cg.load(name) for name in scenarios.catalog_names())
    yield cg.load(str(DEMO))
    cone = cg.load(str(_write(tmp_path, "cone.ini", CONE)))
    yield cone
    # without a registered jet the closed form differences the block around (x, t)
    yield dataclasses.replace(cone, jet=None)


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


def _gauge_on(scenario):
    """A callable gauge field on every chart of ``scenario``, each component varying along every axis."""
    fn = lambda x: np.array([0.3 * math.sin(x[i - 1]) + 0.2 * x[i] * x[-1] for i in range(x.size)])
    return GaugeField(components={chart: fn for chart in scenario.atlas.chart_names()})


def test_published_gauged_closed_form_equals_the_reference(tmp_path):
    """With a nonzero gauge field the sign +1 closed form adds the published
    terms to the zero-gauge symbols of its jet kernel, whose fiber block
    is 0.5 (f_ab + f_ba), f = -(t^2/2) dg_M/dt: byte for byte the assembly
    that writes f_ab as it is, wherever dg_M/dt is symmetric to the bit. So
    on every catalog chart (lightcone and thakurta fiber-dependent), the
    demo file and a gauged expression file, at both signs of t; on the cone
    file with a gauge field, whose dg_M/dt is symmetric only up to rounding,
    at the points where it is, and within rounding at the others."""
    scenario_list = [cg.load(name) for name in scenarios.catalog_names()] + [cg.load(str(DEMO))]
    cases = [(scenario, _gauge_on(scenario)) for scenario in scenario_list]
    cases += [(cg.load(str(_write(tmp_path, "gauged.ini", GAUGED))), None)]
    rng = np.random.default_rng(71)
    for scenario, gauge in cases:
        kk = scenario.kk(+1, gauge)
        assert not kk.gauge.is_zero
        for chart in scenario.atlas.chart_names():
            for p in scenario.sample_points(rng, 6, chart=chart, include_negative_t=True):
                assert kaluza.christoffel_closed(kk, p).tobytes() == _ref_published_closed(kk, p).tobytes(), (chart, p)
    cone = cg.load(str(_write(tmp_path, "cone.ini", CONE)))
    kk, asymmetric = cone.kk(+1, _gauge_on(cone)), 0
    for p in cone.sample_points(rng, 40, chart="main", include_negative_t=True):
        closed, ref = kaluza.christoffel_closed(kk, p), _ref_published_closed(kk, p)
        dgdt = kaluza.block_jet(kk, p.x.tolist(), p.t, "main")[1][12:]
        if dgdt[1] == dgdt[2]:
            assert closed.tobytes() == ref.tobytes(), p
        else:
            asymmetric += 1
            assert np.max(np.abs(closed - ref)) <= 1e-15 * np.max(np.abs(ref)), p
    assert asymmetric > 0


def _ref_angular_symbols(x):
    theta = x[0]
    out = np.zeros((2, 2, 2))
    out[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    out[1, 0, 1] = out[1, 1, 0] = math.cos(theta) / math.sin(theta)
    return out


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


_SPHERES = [pytest.param(name, params, id=name + "".join(f"-{v}" for v in params.values()))
            for name, params in (("sphere_pullback", {}), ("schwarzschild", {"GM": 0.8}), ("lightcone", {}),
                                 ("thakurta", {"U": "t"}), ("thakurta", {"U": "t^2/3 + 0.3*sin(t)"}))]


@pytest.mark.parametrize("name, params", _SPHERES)
def test_catalog_symbols_equal_the_analytic_tables(name, params):
    """The closed form that the sphere scenarios derive from the jet of their
    expression text agrees with the round sphere's analytic symbols to 1e-14
    relative, block by block, on every chart, at both signs of t and of the
    metric: Gamma^theta_phiphi = -sin cos and Gamma^phi_thetaphi = cot on the
    angular chart, delta_ab df_c + delta_ac df_b - delta_bc df_a with
    df = -2 x / (1 + |x|^2) on a stereographic one; a block scaled by Omega(t)
    has the rate (Omega'/Omega) I and dg_M/dt = (Omega'/Omega) g_M, with
    Omega'/Omega = 2 / t on lightcone and -U'(t) on thakurta."""
    scenario = cg.load(name, **params)
    slope = expressions.generate([[(expressions.compile_expression(params.get("U", "t"), ("t",)), "t")]])[0]
    factor = {"lightcone": lambda t: 2.0 / t, "thakurta": lambda t: -slope(t)[0]}.get(name)
    rng = np.random.default_rng(sum(map(ord, scenario.name)))
    for chart in scenario.atlas.chart_names():
        for p in scenario.sample_points(rng, 20, chart=chart, include_negative_t=True):
            ref = np.zeros((3, 3, 3))
            ref[:2, :2, :2] = _ref_angular_symbols(p.x) if chart == "angular" else _ref_stereo_symbols(p.x)
            for sign in (+1, -1):
                if factor:
                    ref[:2, :2, 2] = ref[:2, 2, :2] = 0.5 * factor(p.t) * np.eye(2)
                    ref[2, :2, :2] = -sign * (p.t**2 / 2.0) * factor(p.t) * scenario.metric.at(p.x, p.t, chart)
                got = kaluza.christoffel_closed(scenario.kk(sign), p)
                assert got[2, 2, 2] == -1.0 / p.t and not got[2, 2, :2].any() and not got[:2, 2, 2].any()
                for block in (np.s_[:2, :2, :2], np.s_[:2, :2, 2], np.s_[2, :2, :2]):
                    assert np.max(np.abs(got[block] - ref[block])) <= 1e-14 * np.max(np.abs(ref[block])), (chart, p)


# points of the stereographic box where x1^2 + x2^2 summed in index order, pinned here,
# differs from both fused roundings fma(x1, x1, x2^2) and fma(x2, x2, x1^2)
_RHO2_PINS = [("0x1.06143ff60cb98p-1", "0x1.c42a8abe4eb28p-2", "0x1.d3f704c6265b2p-2"),
              ("0x1.2123cfc860044p+0", "-0x1.53050e49c3192p+0", "0x1.83c4220ae64dep+1"),
              ("-0x1.27bb532872308p+0", "0x1.5fc46884cb4e0p-1", "0x1.ce784e0ce626cp+0")]


@pytest.mark.parametrize("pin", _RHO2_PINS, ids=["first", "second", "third"])
def test_stereographic_square_norm_sums_in_index_order(pin):
    """The loaded stereographic block, its jet's entries and the inversion
    read rho^2 summed in index order, whatever rounding numpy's dot product
    takes on the host."""
    x0, x1, rho2 = (float.fromhex(v) for v in pin)
    exact = lambda a, b: Fraction(a) * Fraction(a) + Fraction(b * b)
    assert x0 * x0 + x1 * x1 == rho2 and rho2 not in (float(exact(x0, x1)), float(exact(x1, x0)))
    x = np.array([x0, x1])
    sphere = cg.load("schwarzschild", GM=0.25)  # radius^2 = 0.25
    block = np.diag([1.0 / (1.0 + rho2) ** 2] * 2)
    assert sphere.metric.blocks["stereo_n"](x, 1.0).tobytes() == block.tobytes()
    assert _bits(sphere.jet["stereo_n"].values(x0, x1, 1.0)[:4]) == block.tobytes()
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
    """dg_M/dt = -U'(t) g_M, the jet's t partials, with U' from the exact
    derivative of U, which is 1.0 for U = t; the rate g_M^-1 dg_M/dt, twice
    the mixed block, is -I up to the rounding of the block's inverse."""
    x = [1.1, 0.4]
    for chart in thakurta.atlas.chart_names():
        for t in (0.3, -0.8, 1.7, -2.5):
            gm = thakurta.metric.at(x, t, chart)
            assert thakurta.jet[chart].values(*x, t)[12:] == (-gm).ravel().tolist()  # 0.0 off the diagonal
            rate = 2.0 * kaluza.christoffel_closed(thakurta.kk(-1), [*x, t], chart=chart)[:2, 2, :2]
            assert np.max(np.abs(rate + np.eye(2))) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_levi_civita_sum_and_rate_equal_the_stacked_assembly(n):
    """A jet's base symbols and rate are summed on floats in its kernel: they
    equal ``_levi_civita`` of the cofactor inverse byte for byte, signed zeros
    included, and the rate (twice the mixed block) equals the same
    contraction with the partials laid out as ``_levi_civita`` reads them
    ([d, a]; up to n = 2 the pairwise sums of the dot-product layout [a, d]
    give the same bytes). Without t partials the base block is the same."""
    rng = np.random.default_rng([41, n])
    kernel, fixed, m = kaluza._jet_kernel(n, True, None, False), kaluza._jet_kernel(n, False, None, False), n + 1
    for k in range(300):
        a = rng.normal(size=(n, n))
        g = a @ a.T + n * np.eye(n)
        ginv = _ref_cofactor_inverse(g)
        dg = rng.normal(size=(n + 1, n, n))
        if k % 2:
            dg[rng.random(dg.shape) < 0.5] = 0.0
            dg[rng.random(dg.shape) < 0.3] = -0.0
        jet = g.ravel().tolist() + dg.ravel().tolist()
        gamma = np.reshape(kernel(jet, 1.3, -1.0), (m, m, m))
        assert gamma[:n, :n, :n].tobytes() == kaluza._levi_civita(ginv, dg[:n]).tobytes()
        rate = 2.0 * gamma[:n, :n, n]
        assert rate.tobytes() == np.einsum("cd,da->ca", ginv, np.ascontiguousarray(dg[n].T)).tobytes()
        if n <= 2:
            assert rate.tobytes() == np.einsum("cd,ad->ca", ginv, dg[n]).tobytes()
        base = np.reshape(fixed(jet[: n * n + n**3], 1.3, -1.0), (m, m, m))[:n, :n, :n]
        assert base.tobytes() == gamma[:n, :n, :n].tobytes()


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


def _nan_bits(values):
    """``_bits`` with every NaN as the one NaN: a NaN's sign bit is not reproducible (see below)."""
    return _bits([math.nan if a != a else a for a in values])


def _generated_step(tableau, rhs, y, k0, h, tol):
    """One step of the generated code of the reduced flow, whose right-hand side is ``rhs``."""
    return geodesics._step_kernel(tableau, len(y) // 2, False)(rhs, None)[1](y, k0, h, tol)


def _guarded_loop_step(tableau, rhs, y, k0, h, tol):
    """``_ref_loop_step`` behind the stage guard of the reduced flow: a point with a non-finite entry has a NaN
    slope, and a state with one a NaN error norm."""
    finite = lambda v: all(map(math.isfinite, v))
    y_new, k_new, err = _ref_loop_step(tableau, lambda p: rhs(p) if finite(p) else [math.nan] * len(p), y, k0, h, tol)
    return y_new, k_new, err if finite(y_new) else math.nan


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("tableau", [geodesics._TSITOURAS54, geodesics._RK4], ids=["tsitouras", "rk4"])
def test_generated_step_equals_the_tableau_loop(tableau, m):
    """The slopes are drawn, not computed, so that every special value reaches
    every sum: each stage point that passes the guard, the state, its slope
    and the error norm equal the loop's byte for byte."""
    rng = np.random.default_rng([29, m])
    for k in range(400):
        slopes = [_draws(rng, m, k % 2) for _ in range(len(tableau.stages) + 2)]
        y, h = _draws(rng, m, k % 2), float(rng.uniform(1e-4, 0.1))
        runs = []
        for step in (_generated_step, _guarded_loop_step):
            points, rest = [], iter(slopes[1:])
            y_new, k_new, err = step(tableau, lambda point: points.append(point) or next(rest), y, slopes[0], h, 1e-10)
            runs.append((_bits(sum(points, [])), _bits(y_new), k_new and _bits(k_new), _bits([err])))
        assert runs[0] == runs[1]


# values whose RMS, with the squares summed from 0.0 in index order, is pinned here; it differs from the RMS of
# the correctly rounded sum, of the sum in reverse order and, from m = 8, of np.add.reduce's (numpy's pairwise
# sum, which below 8 terms is the index-order sum)
_RMS_PINS = {
    4: (["-0x1.9415c6c00e554p-1", "0x1.0d3c00a7cd698p-3", "-0x1.fb425de53fefep-1", "-0x1.1dbe573984590p-4"],
        "0x1.467f66ed23287p-1"),
    6: (["0x1.bad9bba0012e8p-2", "-0x1.60a30d3463e40p-4", "0x1.6cd9ebaad5660p-3", "-0x1.6a1794d548dcep-1",
         "0x1.3534bda30f1e8p-1", "-0x1.ee60125725af8p-3"], "0x1.c02be2042ec12p-2"),
    8: (["0x1.ebce2f9ecd7eep-1", "-0x1.0adbc835d87b8p-1", "-0x1.f6a4af1bc702cp-1", "0x1.594941636bf88p-3",
         "0x1.4717dc8f545b8p-2", "0x1.95e334235a066p-1", "-0x1.b99bc7e6b2e32p-1", "-0x1.523dff88eebf8p-1"],
        "0x1.6e6b6194629aap-1"),
    10: (["-0x1.dab7d9c51bc38p-2", "0x1.5faff03af4ce2p-1", "-0x1.f8e1f7d1a6c2cp-2", "0x1.5d578121942e8p-2",
          "-0x1.a92aa8fa05654p-2", "0x1.3318606082944p-1", "0x1.efa5ebc96d310p-4", "0x1.4cf6890760fe0p-5",
          "-0x1.a441f103979b4p-1", "0x1.9aa0ef7b0aa10p-3"], "0x1.ec02a7781e1cdp-2"),
}


@pytest.mark.parametrize("m", sorted(_RMS_PINS))
def test_rms_sums_the_squares_in_index_order(m):
    """The error norm of a step (and of the first-step probes) is the RMS of
    m values with their squares summed from 0.0 in index order, as every
    generated sum runs: the pin, the loop and the generated step's norm agree."""
    values, rms = [float.fromhex(v) for v in _RMS_PINS[m][0]], float.fromhex(_RMS_PINS[m][1])
    squares = [v * v for v in values]
    in_order = lambda terms: functools.reduce(operator.add, terms, 0.0)  # Python's sum() may compensate
    sums = [math.fsum(squares), in_order(reversed(squares))] + [float(np.add.reduce(squares))] * (m >= 8)
    assert rms not in [math.sqrt(s / m) for s in sums]
    assert math.sqrt(in_order(squares) / m) == rms
    assert geodesics._rms(values) == rms
    rng = np.random.default_rng([53, m])
    for _ in range(200):
        slopes = [_draws(rng, m, False) for _ in range(len(geodesics._TSITOURAS54.stages) + 2)]
        y, h = _draws(rng, m, False), float(rng.uniform(1e-4, 0.1))
        runs = [step(geodesics._TSITOURAS54, lambda point, rest=iter(slopes[1:]): next(rest), y, slopes[0], h, 1e-10)
                for step in (_generated_step, _ref_loop_step)]
        assert _bits([runs[0][2]]) == _bits([runs[1][2]])
        values = _draws(rng, m, False)
        assert geodesics._rms(values) == math.sqrt(in_order([v * v for v in values]) / m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_contraction_equals_einsum(n):
    """No zero symbol is skipped: 0 * inf is NaN, as in the einsum. A NaN
    counts as a NaN: its sign bit follows the operand order of each add, which
    numpy's kernels need not share with Python's (one draw in 3,000 at n = 3),
    and a NaN slope ends a run whatever its sign."""
    rng = np.random.default_rng([31, n])
    kernel, m = _contraction(n), n + 1
    for k in range(1000):
        g, v = _draws(rng, m**3, k % 2), _draws(rng, m, k % 2)
        with np.errstate(all="ignore"):
            ref = -np.einsum("abc,b,c->a", np.reshape(g, (m, m, m)), np.array(v), np.array(v))
        assert _nan_bits(kernel(g, v)) == np.where(np.isnan(ref), math.nan, ref).tobytes()


@pytest.mark.parametrize("fiber", [False, True], ids=["fixed", "fiber"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_acceleration_equals_the_contracted_symbols(n, fiber):
    """The unfolded acceleration kernel of a jet sums each symbol's
    expression where ``_contraction`` sums the symbol list, every zero kept:
    the same bytes as ``_contraction`` of the symbol kernel, signed zeros,
    inf and the place of every NaN included, or the same error, for any jet,
    velocity and nonzero t. A NaN counts as a NaN: where two meet, CPython
    keeps one or the other as its float operation is specialized or not, so
    its sign bit changes as the interpreter warms up, even within one kernel."""
    rng = np.random.default_rng([59, n, fiber])
    symbols, accel = kaluza._jet_kernel(n, fiber, None, False), kaluza._jet_kernel(n, fiber, None, True)
    contract = _contraction(n)
    with np.errstate(all="ignore"):  # LAPACK's inverse of a non-finite block
        for k in range(1000):
            t, s = _draws(rng, 1, k % 2)[0] or 0.5, float(rng.choice([-1.0, 1.0]))  # the closed form divides by t
            jet = _draws(rng, n * n * (n + 1 + fiber), k % 2)
            v = _draws(rng, n + 1, k % 2)
            assert _outcome(lambda: accel(jet, t, s, v)) == _outcome(lambda: contract(symbols(jet, t, s), v))


def _patterned_jet(rng, n, fiber):
    """A random structural-zero pattern of an n x n block's jet and a finite jet of it: each structural zero
    +-0.0; the block's diagonal of size in [1, 2) and either sign, never a structural zero, its other entries
    below 0.1, so that det(g) stays normal; the partials of mixed magnitude; about a quarter of the entries
    that are not structural zeros signed zeros or subnormals."""
    size, entries = n * n * (n + 1 + fiber), n * n
    zeros = (rng.random(size) < 0.5) & ~np.isin(np.arange(size), np.arange(0, entries, n + 1))
    jet = _draws(rng, size, False)
    for k in range(entries):
        jet[k] = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)) if k % (n + 1) == 0 else 0.1 * math.tanh(jet[k])
    for k in np.flatnonzero(rng.random(size) < 0.25).tolist():
        jet[k] = _SPECIAL[rng.integers(6)] if k % (n + 1) or k >= entries else jet[k]
    for k in np.flatnonzero(zeros).tolist():
        jet[k] = float(rng.choice([0.0, -0.0]))
    return tuple(zeros.tolist()), jet


@pytest.mark.parametrize("fiber", [False, True], ids=["fixed", "fiber"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_folded_jet_kernel_equals_the_unfolded_one(n, fiber):
    """Leaving out every product by a structural zero changes no bit: on
    random finite jets whose structural zeros are +-0.0 and whose other
    entries include signed zeros and subnormals, the kernel folded on their
    pattern gives the symbols and the acceleration of the same kernel built
    with no structural zeros byte for byte, at both signs of the metric and
    of t, for velocities with signed zeros and subnormals."""
    rng = np.random.default_rng([73, n, fiber])
    unfolded = [kaluza._jet_kernel(n, fiber, None, along) for along in (False, True)]
    for _ in range(60):
        zeros, _ = _patterned_jet(rng, n, fiber)
        folded = [kaluza._jet_kernel(n, fiber, zeros, along) for along in (False, True)]
        for _ in range(10):
            jet = _patterned_jet(np.random.default_rng(rng.integers(2**32)), n, fiber)[1]
            jet = [0.0 * v if z else v for v, z in zip(jet, zeros)]  # this pattern's zeros, each sign kept
            t, s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)), float(rng.choice([-1.0, 1.0]))
            v = [_SPECIAL[rng.integers(6)] if rng.random() < 0.25 else x for x in _draws(rng, n + 1, False)]
            assert _bits(folded[0](jet, t, s)) == _bits(unfolded[0](jet, t, s))
            assert _bits(folded[1](jet, t, s, v)) == _bits(unfolded[1](jet, t, s, v))


def test_a_folded_kernel_gives_no_nan_for_the_zero_times_inf_it_leaves_out():
    """Where a structural zero meets an infinity the folded kernel leaves the
    product out: on the angular chart's pattern with d_theta g_phiphi = inf,
    g^{theta phi} (+-0.0) times l_{phi theta phi} (inf) makes the unfolded
    kernel's Gamma^theta_thetaphi NaN, and g^{phi theta} times l_{theta phi phi}
    (-inf) its Gamma^phi_phiphi; the folded kernel's are 0.0, the other
    symbols alike, and its acceleration is inf where the unfolded one's is NaN."""
    zeros = cg.load("schwarzschild").jet["angular"].zeros
    jet = [1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, math.inf] + [0.0] * 4
    folded, unfolded = (kaluza._jet_kernel(2, False, z, False)(jet, 1.3, -1.0) for z in (zeros, None))
    nan = [k for k, value in enumerate(unfolded) if math.isnan(value)]
    assert nan == [1, 3, 13] and [folded[k] for k in nan] == [0.0] * 3  # Gamma^0_01 = Gamma^0_10, Gamma^1_11
    assert _nan_bits(np.delete(folded, nan)) == _nan_bits(np.delete(unfolded, nan))
    v = [0.3, -0.4, 0.5]
    folded, unfolded = (kaluza._jet_kernel(2, False, z, True)(jet, 1.3, -1.0, v) for z in (zeros, None))
    assert folded[:2] == [math.inf] * 2 and all(map(math.isnan, unfolded[:2])) and folded[2] == unfolded[2]


def test_the_acceleration_along_a_velocity_needs_a_vanishing_gauge_field(flat2):
    """``along`` gives the contraction of the symbols that the same call gives without it, and only then."""
    raw, v = [0.1, 0.2, -1.3], [0.4, -0.0, 0.7]
    symbols = kaluza.christoffel_closed(flat2.kk(-1), raw, chart="cartesian")
    assert kaluza.christoffel_closed(flat2.kk(-1), raw, chart="cartesian", along=v) == \
        _contraction(2)(symbols.ravel().tolist(), v)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], -x[0]])})
    with pytest.raises(cg.ContractViolation, match="vanishing gauge field"):
        kaluza.christoffel_closed(flat2.kk(+1, gauge), raw, chart="cartesian", along=v)


# a gauged expression file: its metric and gauge field both vary over the chart
GAUGED = ("[meta]\ndim = 2\n[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n[metric]\n"
          "main = matrix(1 + 0.5 * x1^2, 0.1 * x2; 0.1 * x2, 2 + sin(x1))\n[gauge]\nmain = vector(0.3 * x2, -0.2 * sin(x1))\n")
_ORACLE_CASES = [*scenarios.catalog_names(), "flat1-gauge", "flat2-gauge", "flat3-gauge", "flat4-gauge", "flat5-gauge",
                 "gauged-file", "grid-file", "cone-file", "three-d-file"]
# callable gauge fields on flat(n), each component varying along every axis it may
_FLAT_GAUGES = {1: lambda x: np.array([0.3 * math.sin(x[0]) + x[0] ** 2]),
                2: lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])]),
                3: lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[2]) - x[1], x[1] - 0.5 * x[0] * x[2] ** 2]),
                4: lambda x: np.array([x[0] * x[3], 0.3 * math.sin(x[2]) - x[1], x[1] * x[2], 0.2 * x[0] ** 2]),
                5: lambda x: np.array([x[4] * x[1], 0.3 * math.sin(x[0]), x[2] * x[3], -x[4], x[0] - 0.1 * x[3] ** 2])}


def _oracle_case(case, tmp_path, workloads):
    """(scenario, gauge field) of a named case of ``_ORACLE_CASES``."""
    if case.startswith("flat") and case.endswith("-gauge"):
        n = int(case[4])
        return cg.load("flat", n=n), GaugeField(components={"cartesian": _FLAT_GAUGES[n]})
    if case == "grid-file":
        return cg.load(str(workloads.write_grid_scenario(tmp_path, np.random.default_rng([3, 0])))), None
    texts = {"gauged-file": GAUGED, "cone-file": CONE, "three-d-file": THREE}
    return cg.load(str(_write(tmp_path, f"{case}.ini", texts[case])) if case in texts else case), None


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_oracle_acceleration_equals_the_contracted_stacked_oracle(case, tmp_path, workloads):
    """``christoffel_numeric(..., along=v)`` is ``_contraction`` of the stacked
    oracle's symbols at the same point byte for byte, a NaN counting as a
    NaN: for both signs of the metric, at sample points of every chart with
    both signs of t, for a raw list, a 1-d array and a Point, and for
    velocities with signed zeros, subnormals, infinities and NaN."""
    scenario, gauge = _oracle_case(case, tmp_path, workloads)
    assert (gauge or scenario.gauge).is_zero is (case in scenarios.catalog_names() + ["cone-file", "three-d-file"])
    rng = np.random.default_rng([61, sum(map(ord, case))])
    m = scenario.dim + 1
    for sign in (+1, -1):
        kk = scenario.kk(sign, gauge)
        for chart in scenario.atlas.chart_names():
            for k, p in enumerate(scenario.sample_points(rng, 4, chart=chart)):
                for point in (p, cg.Point(p.x, -p.t, chart)):
                    raw, v = point.raw(), _draws(rng, m, k % 2)
                    symbols = kaluza.christoffel_numeric(kk, raw[None], cond_limit=None, chart=chart)[0]
                    ref = _nan_bits(_contraction(m - 1)(symbols.ravel().tolist(), v))
                    for form, on in ((raw.tolist(), chart), (raw, chart), (point, None)):
                        assert _nan_bits(kaluza.christoffel_numeric(kk, form, cond_limit=None, chart=on, along=v)) == ref


def test_an_oracle_route_orbit_above_n_3_generates_no_float_oracle_kernel(monkeypatch):
    """Above n = 3 the oracle's acceleration contracts the stacked oracle's
    symbols: an oracle-route orbit on flat(8) with a gauge field asks
    ``_numeric_floats`` for no kernel, whose text grows as m^4."""
    built, numeric_floats = [], kaluza._numeric_floats
    monkeypatch.setattr(kaluza, "_numeric_floats", lambda m: built.append(m) or numeric_floats(m))
    flat8 = cg.load("flat", n=8)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([0.2 * math.sin(x[k - 1]) for k in range(8)])})
    x0 = np.linspace(-0.4, 0.4, 8)
    state = shoot_null(NullShootSpec(x0=x0, u=np.eye(8)[2], q=0.3, t0=1.2), flat8, gauge)
    traj = integrate(state, flat8, IntegratorConfig(lambda_max=0.1, christoffel="numeric"), gauge=gauge)
    assert traj.meta["christoffel"] == "numeric" and len(traj) > 1 and not traj.events
    assert built == []


def _outcome(call):
    """The float list ``call()`` gives, a NaN as a NaN, or the type and text of the error it raises."""
    try:
        return _nan_bits(np.ravel(call()).tolist())
    except cg.CarrollError as exc:
        return type(exc), str(exc)


def test_oracle_acceleration_fails_as_the_stacked_oracle_does(flat2):
    """The same error with the same text, or NaN in the same places, as
    ``christoffel_numeric`` of the point contracted: the sign guard near
    t = 0, a singular centre, a fiber square past the float range, the gate
    (``cond_limit``) and a field that reads NaN at some stencil points."""
    nan_at = lambda x, t: np.eye(2) * (math.nan if x[0] > 0.5 else 1.0)  # at the +h points of x1 = 0.5
    metric = lambda fn: cg.DegenerateMetric(blocks={"cartesian": fn})
    cases = [(flat2.metric, [0.1, 0.2, 1e-10], None, cg.DomainError),
             (metric(lambda x, t: np.zeros((2, 2))), [0.1, 0.2, 1.3], None, cg.NumericError),
             (flat2.metric, [0.1, 0.2, -1e160], None, cg.NumericError),
             (flat2.metric, [0.1, 0.2, 1e-7], 1e12, cg.NumericError),
             (metric(nan_at), [0.5, 0.2, 1.3], None, None)]
    for block, raw, cond_limit, error in cases:
        for sign in (+1, -1):
            kk = kaluza.KKMetric(sign, block, flat2.gauge)
            v = [0.4, -0.3, 0.7]
            along = _outcome(lambda: kaluza.christoffel_numeric(kk, raw, cond_limit=cond_limit, chart="cartesian",
                                                                along=v))
            ref = _outcome(lambda: _contraction(2)(kaluza.christoffel_numeric(
                kk, raw, cond_limit=cond_limit, chart="cartesian").ravel().tolist(), v))
            assert along == ref and (along[0] is error if error else math.isnan(np.frombuffer(along).sum())), raw
    with pytest.raises(cg.ContractViolation, match=re.escape("takes one raw point, got shape (2, 3)")):
        kaluza.christoffel_numeric(flat2.kk(-1), np.ones((2, 3)), chart="cartesian", along=[0.0, 0.0, 1.0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_float_levi_civita_of_a_raw_metric_equals_the_stacked_oracles(m):
    """The oracle's acceleration sums its symbols with the lines of
    ``_levi_civita_lines``: over the m = n + 1 raw coordinates, m = 4
    included, its symbols equal ``_levi_civita`` of the stack (one point, as
    the oracle calls it) byte for byte, signed zeros included."""
    rng = np.random.default_rng([67, m])
    lines, symbols = kaluza._levi_civita_lines(m, [f"ginv[{k}]" for k in range(m * m)],
                                               [f"dg[{k}]" for k in range(m**3)])
    kernel = expressions.run_generated(["def kernel(ginv, dg):", *lines,
                                        f"    return [{', '.join(symbols)}]"])["kernel"]
    for k in range(300):
        a = rng.normal(size=(m, m))
        ginv = np.linalg.inv(a @ a.T + m * np.eye(m))
        dg = rng.normal(size=(m, m, m)) * 10.0 ** rng.integers(-3, 4, size=(m, m, m))
        if k % 2:
            dg[rng.random(dg.shape) < 0.3] = 0.0
            dg[rng.random(dg.shape) < 0.2] = -0.0
        symbols = kernel(ginv.ravel().tolist(), dg.ravel().tolist())
        assert _bits(symbols) == kaluza._levi_civita(ginv[None], dg[None]).tobytes()


def test_differenced_rate_sums_in_index_order_at_n_3(tmp_path):
    """A 3-d fiber-dependent file without a registered jet: the rate
    g^{cd} dg_ad/dt sums over d in index order from 0.0, whatever order
    numpy's dot-product kernels take, and the closed form equals the reference."""
    kk = dataclasses.replace(cg.load(str(_write(tmp_path, "three.ini", THREE))), jet=None).kk(-1)
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
        raw = np.append(x, t)
        closed = kaluza.christoffel_closed(kk, raw, chart="main")
        assert (2.0 * closed[:3, :3, 3]).tobytes() == loop.tobytes()
        assert closed.tobytes() == _ref_christoffel_closed(kk, raw, chart="main").tobytes()


# -- registered jets and their structural zeros ------------------------------------

_JETS = [*(pytest.param("flat", {"n": n}, id=f"flat{n}") for n in (1, 2, 3)),
         *(pytest.param(name, {}, id=name) for name in ("moebius", "sphere_pullback", "schwarzschild", "lightcone")),
         pytest.param("thakurta", {"U": "t"}, id="thakurta-t"), pytest.param("thakurta", {"U": "t^2/3"}, id="thakurta-t2"),
         pytest.param("demo", {}, id="demo-file"), pytest.param("three", {}, id="three-d-file")]


@pytest.mark.parametrize("name, params", _JETS)
def test_registered_jet_reads_its_block_and_its_structural_zeros_read_zero(name, params, tmp_path, monkeypatch):
    """At the check sample points, each also with t negated, a registered jet
    gives Python floats, its entries are the block that ``metric.at`` reads,
    float for float, and each of its structural zeros reads +-0.0; every
    chart of the sphere scenarios is sampled."""
    if name in ("demo", "three"):
        scenario = cg.load(str(DEMO if name == "demo" else _write(tmp_path, "three.ini", THREE)))
    else:
        scenario = cg.load(name, **params)
    checked = set()
    for _, points in _check_sample_points(monkeypatch, [scenario]):
        for p, t in ((p, t) for p in points for t in (p.t, -p.t)):
            jet = scenario.jet[p.chart]
            values = jet.values(*p.x.tolist(), t)
            assert all(type(v) is float for v in values) and len(values) == len(jet.zeros)
            assert _bits(values[: p.dim**2]) == scenario.metric.at(p.x, t, p.chart).tobytes(), (p, t)
            assert not any(v for v, zero in zip(values, jet.zeros) if zero), (p, t)
            checked.add(p.chart)
    assert checked == set(scenario.atlas.chart_names())


@pytest.mark.parametrize("text", [None, CONE, THREE], ids=["demo-file", "cone-file", "three-d-file"])
def test_differenced_jet_equals_the_array_reference(text, tmp_path, monkeypatch):
    """Without a registered jet, ``block_jet`` gives the centre and the
    differences of g_M as one flat float list with no structural zeros,
    float for float the stacked stencil of the reference."""
    path = DEMO if text is None else _write(tmp_path, "file.ini", text)
    scenario = dataclasses.replace(cg.load(str(path)), jet=None)
    n, fiber = scenario.dim, scenario.metric.time_dependent
    for kk, points in _check_sample_points(monkeypatch, [scenario]):
        for p, t in ((p, t) for p in points for t in (p.t, -p.t)):
            jet, values = kaluza.block_jet(kk, p.x.tolist(), t, p.chart)
            assert (jet.n, jet.fiber, jet.zeros) == (n, fiber, None)
            raw, h = _fd.stencil((np.append(p.x, t) if fiber else p.x)[None], keep_sign=(n,))
            gms = kk.metric.at(raw[0, :, :n], raw[0, :, n] if fiber else np.full(len(raw[0]), t), p.chart)
            assert _bits(values) == np.append(gms[0], _fd.stacked_partials(gms[None, 1:], h)[0]).tobytes()


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

def _rounding_numpy_calls(run, every=False, within=()):
    """(what, caller) of each call that ``run()`` makes, recorded with
    sys.setprofile, of numpy code whose result rounds as the BLAS or LAPACK
    build or numpy's summation order decides: a numpy.linalg function, numpy's
    dot, vdot or inner, einsum's c_einsum, ndarray.dot, or a method such as
    ``reduce`` of a ufunc other than maximum and minimum (exact in any order);
    with ``every``, of any numpy code: a C function of numpy, a method of a
    numpy object or a Python function of a numpy module. Calls made while a
    function named in ``within`` runs are not recorded. A matmul, called or
    written as @, raises no profile event, nor does arithmetic on arrays
    made before ``run``; see ``test_orbit_path_functions_write_no_matmul``."""
    calls = []

    def inside(frame):
        while frame is not None and frame.f_code.co_name not in within:
            frame = frame.f_back
        return frame is not None

    def caller(frame):
        while frame.f_globals.get("__name__", "").startswith("numpy"):
            frame = frame.f_back
        return f"{frame.f_code.co_name}:{frame.f_lineno}"

    def profile(frame, event, arg):
        if within and event in ("c_call", "call") and inside(frame):
            return
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


def _whole_step(scenario, chart, christoffel, gauge=None):
    """One whole Tsitouras step of the code that ``integrate`` generates on the route ``christoffel``: the
    slope at a seeded moving state inside the chart's box, the six stage slopes and the error norm. Taken once
    here, so that its kernels are generated."""
    rng = np.random.default_rng(sum(map(ord, scenario.name + chart)))
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    x0, sign = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi), float(rng.choice([-1.0, 1.0]))
    route, accel = geodesics._gamma_provider(scenario.kk(-1, gauge), chart, IntegratorConfig(christoffel=christoffel))
    assert route == christoffel
    slope, step = geodesics._step_kernel(geodesics._TSITOURAS54, scenario.dim, True)(accel, sign)
    y = [*x0.tolist(), 0.3, *rng.uniform(-1.0, 1.0, scenario.dim + 1).tolist()]
    run = lambda: step(y, slope(y), 1e-3, 1e-10)
    assert math.isfinite(run()[2])
    return run


def test_a_closed_route_step_calls_no_numpy(tmp_path):
    """From a state to the next and its error norm, every stage included, a
    step of a closed-route orbit runs on Python floats alone, the jet
    included: on every catalog scenario and chart, the demo file, and
    time-dependent files at n = 2 and 3."""
    cases = [cg.load(name) for name in scenarios.catalog_names()] + [cg.load(str(DEMO))]
    cases += [cg.load(str(_write(tmp_path, name, text))) for name, text in (("cone.ini", CONE), ("three.ini", THREE))]
    for scenario in cases:
        for chart in scenario.atlas.chart_names():
            assert _rounding_numpy_calls(_whole_step(scenario, chart, "closed"), every=True) == [], \
                (scenario.name, chart)
    # the guard sees what it looks for: a numpy C function, an array method and a numpy Python function
    seen = _rounding_numpy_calls(lambda: np.reshape(np.array([1.0, 2.0]).tolist(), (2, 1)), every=True)
    what = [what for what, _ in seen]
    assert what[:2] == ["array", "ndarray.tolist"] and what[2].startswith("numpy._core.fromnumeric.")


def test_an_oracle_route_step_calls_numpy_only_to_read_the_fields_and_invert(tmp_path, workloads):
    """From a state to the next and its error norm, a step of an
    oracle-route orbit calls numpy in two places, at each stage: the stacked reads of g_M
    and A at the stencil points (``_stencil_fields``, whatever the fields
    call) and LAPACK's inverse of the centre (``_centre_inverse``). Nothing
    else, so no einsum, dot or rounding reduce: on every catalog scenario and
    chart, flat(1)-flat(3) with callable gauge fields, the gauged and grid
    files and time-dependent files at n = 2 and 3. This holds up to n = 3
    (``kaluza._FLOAT_KERNEL_MAX_N``): above, a stage runs the stacked oracle,
    einsum included, and contracts its symbols on Python floats."""
    for case in _ORACLE_CASES:
        scenario, gauge = _oracle_case(case, tmp_path, workloads)
        if scenario.dim > kaluza._FLOAT_KERNEL_MAX_N:
            continue
        for chart in scenario.atlas.chart_names():
            stage = _whole_step(scenario, chart, "numeric", gauge)
            rounding = _rounding_numpy_calls(stage, within=("_stencil_fields",))
            assert "numpy.linalg._linalg.inv" in dict(rounding), (case, chart)
            assert {caller.partition(":")[0] for _, caller in rounding} == {"_inverse"}, (case, chart)
            assert _rounding_numpy_calls(stage, every=True, within=("_stencil_fields", "_centre_inverse")) == [], \
                (case, chart)
    # ``within`` spares what runs beneath the named functions only
    run = lambda: (kaluza._centre_inverse([2.0, 0.0, 0.0, 2.0], None), np.einsum("a,a->", [1.0], [1.0]))
    assert [what for what, _ in _rounding_numpy_calls(run, within=("_centre_inverse",))] == ["c_einsum"]


# the functions that shoot, step and monitor an orbit on the closed route or the oracle's; the reduced flow
# (``integrate_small_gauge``) and the published transcriptions stay on numpy's linear algebra
_ORBIT_PATH = {"geodesics.py": ("GeodesicState", "Trajectory", "_along", "carroll_charge", "null_residual",
                                "unit_direction", "_norm", "shoot_null", "_gamma_provider", "_rms",
                                "_rms_kernel", "_rms_text", "_step_kernel",
                                "_first_step", "_drive", "_initial_chart", "integrate"),
               "kaluza.py": ("Jet", "block_jet", "_jet_kernel", "_levi_civita_lines", "_inverse",
                             "contracted", "christoffel_numeric", "_gated_inverse", "_stencil_fields",
                             "_centre_inverse", "_numeric_floats", "KKMetric", "_levi_civita", "_contraction_floats"),
               "_fd.py": ("_guarded_step", "step_size", "float_stencil", "_stencil_floats", "_unit_offsets",
                          "partial_text", "stencil", "_stencil", "stacked_partials", "richardson"),
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
