"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else; run with `pytest -s` to see the
per-criterion lines inline.
"""

import math
import time

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd
from carrollgeo.cli import main as cli_main
from carrollgeo.connection import GaugeField
from carrollgeo.geodesics import (
    GeodesicState,
    IntegratorConfig,
    NullShootSpec,
    integrate,
    integrate_small_gauge,
    shoot_null,
    unit_direction,
)
from carrollgeo.geometry import TangentVector, VectorField, euler, euler_weight, lie_derivative_metric, metric_eval
from carrollgeo.kaluza import (
    christoffel_closed,
    christoffel_numeric,
    covariant_metric_derivative,
)
from carrollgeo.linearize import (
    linearize,
    moebius_transition_atlas,
    origin_residual,
    shift_transitions,
    synthetic_circle_atlas,
)

CATALOG = ["flat", "lightcone", "sphere_pullback", "moebius", "schwarzschild", "thakurta"]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _stereo_embed(x):
    rho2 = float(x @ x)
    return np.array([2.0 * x[0], 2.0 * x[1], rho2 - 1.0]) / (1.0 + rho2)


def _orbit_keeps_pole_distance(x0, v0, min_axis_tilt=0.35):
    p3 = _stereo_embed(x0)
    j = _fd.partials(_stereo_embed, np.asarray(x0, dtype=float)).T
    v3 = j @ v0
    axis = np.cross(p3, v3)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        return False
    return abs(axis[2] / norm) >= min_axis_tilt


def test_criterion_01_equatorial_orbit():
    s = cg.load("schwarzschild", GM=0.5)
    state = shoot_null(NullShootSpec(x0=[math.pi / 2, 0.0], u=[0.0, 1.0], q=1.0, t0=1.0), s)
    started = time.perf_counter()
    traj = integrate(state, s, IntegratorConfig(lambda_max=5.0))
    elapsed = time.perf_counter() - started
    phi_err = float(np.max(np.abs(traj.x[:, 1] - (traj.x[0, 1] + traj.lam))))
    t_err = float(np.max(np.abs(traj.t - np.exp(-traj.lam))))
    ok = phi_err < 1e-6 and t_err < 1e-6 and elapsed < 1.0
    _report(1, ok, f"phi err {phi_err:.2e}, t err {t_err:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_trivial_connection_temporal_law():
    rng = np.random.default_rng(2024)
    flat = cg.load("flat", n=2)
    sphere = cg.load("sphere_pullback")
    worst = 0.0
    runs = 0
    while runs < 10:  # flat scenarios, default (finite-difference) symbols
        q = float(rng.uniform(0.3, 1.2)) * float(rng.choice([-1.0, 1.0]))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        state = shoot_null(NullShootSpec(x0=rng.uniform(-1, 1, 2), u=u, q=q, t0=float(rng.uniform(0.5, 2.0))), flat)
        traj = integrate(state, flat, IntegratorConfig(lambda_max=5.0))
        worst = max(worst, float(np.max(np.abs(traj.t - traj.t[0] * np.exp(-q * traj.lam)))))
        runs += 1
    while runs < 20:  # sphere scenarios on the stereographic chart
        x0 = rng.uniform(-1.0, 1.0, 2)
        v = rng.standard_normal(2)
        u = unit_direction(sphere, x0, v, 1.0, "stereo_n")
        if not _orbit_keeps_pole_distance(x0, u):
            continue
        q = float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0]))
        state = shoot_null(NullShootSpec(x0=x0, u=u, q=q, t0=float(rng.uniform(0.5, 2.0)), chart="stereo_n"), sphere)
        traj = integrate(state, sphere, IntegratorConfig(lambda_max=5.0, christoffel="closed"), chart="stereo_n")
        worst = max(worst, float(np.max(np.abs(traj.t - traj.t[0] * np.exp(-q * traj.lam)))))
        runs += 1
    _report(2, worst < 1e-6, f"20 random states, worst |t - t0 exp(-q l)| = {worst:.2e}")


def test_criterion_03_conservation_suite():
    cfg = IntegratorConfig(lambda_max=10.0, tol=1e-10)
    worst_q = 0.0
    worst_null = 0.0

    s = cg.load("schwarzschild", GM=0.5)
    runs = [
        (s, shoot_null(NullShootSpec(x0=[math.pi / 2, 0.0], u=[0.0, 1.0], q=1.0, t0=1.0), s), None, None),
    ]
    flat = cg.load("flat", n=2)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], 0.0])})
    runs.append(
        (flat, shoot_null(NullShootSpec(x0=[0.1, 0.2], u=[1.0, 0.0], q=0.8, t0=1.0), flat, gauge=gauge), gauge, None)
    )
    sphere = cg.load("sphere_pullback")
    x0 = np.array([0.9, 0.0])
    u = unit_direction(sphere, x0, [0.0, 1.0], 1.0, "stereo_n")
    assert _orbit_keeps_pole_distance(x0, u)
    runs.append(
        (sphere, shoot_null(NullShootSpec(x0=x0, u=u, q=0.6, t0=1.0, chart="stereo_n"), sphere), None, "stereo_n")
    )
    moebius = cg.load("moebius")
    runs.append(
        (moebius, shoot_null(NullShootSpec(x0=[0.0], u=[1.0], q=0.5, t0=1.0, chart="east"), moebius), None, "east")
    )

    for scenario, state, run_gauge, chart in runs:
        traj = integrate(state, scenario, cfg, gauge=run_gauge, chart=chart)
        assert traj.lam[-1] == pytest.approx(10.0, abs=1e-9), traj.events
        worst_q = max(worst_q, traj.max_charge_drift())
        worst_null = max(worst_null, traj.max_null_drift())
    ok = worst_q < 1e-8 and worst_null < 1e-8
    _report(3, ok, f"charge drift {worst_q:.2e}, null drift {worst_null:.2e} over lambda in [0, 10]")


def test_criterion_04_christoffel_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for name in ("flat", "lightcone", "schwarzschild", "thakurta"):
        s = cg.load(name)
        kk = s.kk(+1)
        for p in s.sample_points(rng, 100, include_negative_t=True):
            delta = christoffel_closed(kk, p) - christoffel_numeric(kk, p)
            worst = max(worst, float(np.max(np.abs(delta))))
    # published example tables
    s = cg.load("schwarzschild", GM=0.5)
    g = christoffel_numeric(s.kk(+1), s.point([math.pi / 2, 0.3], 1.0))
    table_ok = abs(g[2, 2, 2] + 1.0) < 1e-6
    th = cg.load("thakurta", GM=0.5, U="t")
    t = 1.3
    p = th.point([1.1, 0.2], t)
    gt = christoffel_numeric(th.kk(+1), p)
    gm = th.metric.at(p.x, p.t, p.chart)
    table_ok &= abs(gt[0, 0, 2] + 0.5) < 1e-6 and abs(gt[1, 1, 2] + 0.5) < 1e-6
    table_ok &= float(np.max(np.abs(gt[2, :2, :2] - (t**2 / 2.0) * gm))) < 1e-6
    ok = worst < 1e-6 and table_ok
    _report(4, ok, f"400 sampled points, worst closed-vs-oracle {worst:.2e}; tables ok = {table_ok}")


def test_criterion_05_degeneracy_kernel_suite():
    rng = np.random.default_rng(5)
    kernel_exact = True
    det_zero = True
    worst_det = 0.0
    signature_ok = True
    for name in CATALOG:
        s = cg.load(name)
        kk_plus = s.kk(+1)
        kk_minus = s.kk(-1)
        for p in s.sample_points(rng, 10, include_negative_t=True):
            v = TangentVector(rng.standard_normal(s.dim), float(rng.standard_normal()), p)
            kernel_exact &= metric_eval(s.metric, p, euler(p), v) == 0.0
            det_zero &= float(np.linalg.det(s.metric.full(p))) == 0.0
            worst_det = max(worst_det, kk_plus.det_identity_residual(p))
            signature_ok &= kk_minus.signature(p) == (s.dim, 1)
    ok = kernel_exact and det_zero and worst_det < 1e-8 and signature_ok
    _report(
        5,
        ok,
        f"kernel exact = {kernel_exact}, singular determinant = {det_zero}, "
        f"det identity {worst_det:.2e}, signature ok = {signature_ok}",
    )


def test_criterion_06_killing_suite():
    rng = np.random.default_rng(6)
    s = cg.load("schwarzschild", GM=0.5)
    points = s.sample_points(rng, 6)
    worst_euler = max(
        float(np.max(np.abs(lie_derivative_metric(VectorField(lambda p: euler(p)), s.metric, p))))
        for p in points
    )
    worst_scaled = 0.0
    for _ in range(5):
        c = rng.standard_normal(3)

        def f(p, c=c):
            return c[0] * math.sin(p.x[0]) + c[1] * math.cos(p.x[1]) + c[2] * p.t

        X = VectorField(lambda p, f=f: TangentVector(np.zeros(2), f(p), p))
        worst_scaled = max(
            worst_scaled,
            max(float(np.max(np.abs(lie_derivative_metric(X, s.metric, p)))) for p in points),
        )
    lc = cg.load("lightcone")
    weight = euler_weight(lc.metric, lc.point([1.0, 0.3], 1.7))
    th = cg.load("thakurta", GM=0.5, U="t")
    t = 1.4
    conf = euler_weight(th.metric, th.point([1.2, 0.4], t))
    ok = (
        worst_euler < 1e-8
        and worst_scaled < 1e-8
        and abs(weight.factor - 2.0) < 1e-6
        and conf.residual < 1e-6
        and abs(conf.factor + t) < 1e-6
    )
    _report(
        6,
        ok,
        f"euler residual {worst_euler:.2e}, rescaled residual {worst_scaled:.2e}, "
        f"weight {weight.factor:.8f}, conformal factor {conf.factor:.6f} (residual {conf.residual:.2e})",
    )


def test_criterion_07_non_metricity_witness():
    flat = cg.load("flat", n=2)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[1], 0.0])})
    kk = flat.kk(+1, gauge)
    p = flat.point([0.4, 0.7], 1.2)
    gamma = christoffel_numeric(kk, p)
    witness = float(np.max(np.abs(covariant_metric_derivative(gamma, flat.metric, p))))
    self_comp = float(np.max(np.abs(covariant_metric_derivative(gamma, kk, p))))
    ok = witness > 1e-3 and self_comp < 1e-6
    _report(7, ok, f"max |nabla g| = {witness:.3e} (witness), |nabla G| = {self_comp:.2e}")


def test_criterion_08_linearization():
    moebius = shift_transitions(moebius_transition_atlas())
    m_origin = origin_residual(moebius)
    m_cocycle = linearize(moebius)
    values = set()
    exact = True
    for sample in m_cocycle.sampled:
        values |= set(sample.c.tolist())
        exact &= bool(np.all(np.isin(sample.c, (1.0, -1.0))))
    synthetic = shift_transitions(synthetic_circle_atlas())
    s_origin = origin_residual(synthetic)
    s_cocycle = linearize(synthetic)
    ok = (
        exact
        and values == {1.0, -1.0}
        and m_origin <= 1e-10
        and s_origin <= 1e-10
        and s_cocycle.triple_residual < 1e-8
        and s_cocycle.pair_residual < 1e-8
    )
    _report(
        8,
        ok,
        f"twisted cocycle {sorted(values)}, origin residuals {m_origin:.1e}/{s_origin:.1e}, "
        f"triple residual {s_cocycle.triple_residual:.2e}",
    )


def test_criterion_09_reduced_flow():
    flat = cg.load("flat", n=2)
    field = lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]])
    circle = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat, +1, IntegratorConfig(lambda_max=2.0 * math.pi),
                                    curvature_fn=field)
    radii = np.linalg.norm(circle.x - np.array([0.0, -1.0]), axis=1)
    radius_err = float(np.max(np.abs(radii - 1.0)))
    period_err = float(np.linalg.norm(circle.x[-1] - circle.x[0]))

    line = integrate_small_gauge([0.0, 0.0], [1.0, 0.0], flat, +1, IntegratorConfig(lambda_max=3.0))
    line_err = float(np.max(np.abs(line.x[:, 1])))

    s = cg.load("schwarzschild", GM=0.5)
    monopole = lambda x: np.array([[0.0, math.sin(x[0])], [-math.sin(x[0]), 0.0]])
    v0 = unit_direction(s, [math.pi / 2, 0.0], [0.0, 1.0], 1.0)
    pushed = integrate_small_gauge([math.pi / 2, 0.0], v0, s, +1, IntegratorConfig(lambda_max=math.pi / 2),
                                    curvature_fn=monopole)
    departure = np.abs(pushed.x[:, 0] - math.pi / 2)
    monotone = bool(np.all(np.diff(departure) > -1e-12)) and departure[-1] > 1e-2

    ok = radius_err < 1e-6 and period_err < 1e-6 and line_err < 1e-10 and monotone
    _report(
        9,
        ok,
        f"circle radius err {radius_err:.2e}, period return {period_err:.2e}, "
        f"straight-line err {line_err:.1e}, equator departure monotone = {monotone}",
    )


def test_criterion_10_frozen_states():
    worst = 0.0
    for name in CATALOG:
        s = cg.load(name)
        charts = [s.default_chart]
        gauges = [None]
        if s.dim == 2:
            gauges.append(GaugeField(components={c: (lambda x: np.array([0.3 * x[0], -0.2])) for c in s.atlas.chart_names()}))
        elif s.dim == 1:
            gauges.append(GaugeField(components={c: (lambda x: np.array([0.4])) for c in s.atlas.chart_names()}))
        x0 = s.atlas.chart(s.default_chart).sample(np.random.default_rng(10), 1)[0]
        for gauge in gauges:
            state = shoot_null(NullShootSpec(x0=x0, u=[1.0] + [0.0] * (s.dim - 1), q=0.0, t0=1.0), s, gauge=gauge)
            traj = integrate(state, s, IntegratorConfig(lambda_max=10.0), gauge=gauge)
            drift = max(
                float(np.max(np.abs(traj.x - traj.x[0]))),
                float(np.max(np.abs(traj.t - traj.t[0]))),
                float(np.max(np.abs(traj.vx))),
                float(np.max(np.abs(traj.vt))),
            )
            worst = max(worst, drift)
    _report(10, worst < 1e-12, f"max frozen-state drift {worst:.2e} across scenarios and connections")


def test_criterion_11_integrator_order():
    # the q = -1 equatorial lightcone orbit: t = 1 + lambda, phi = lambda / (1 + lambda)
    s = cg.load("lightcone")
    state = shoot_null(NullShootSpec(x0=[math.pi / 2, 0.0], u=[0.0, 1.0], q=-1.0, t0=1.0), s)
    errs = []
    for h in (0.05, 0.025):
        cfg = IntegratorConfig(method="rk4", rk4_step=h, lambda_max=5.0, christoffel="closed")
        traj = integrate(state, s, cfg)
        lam = traj.lam[-1]
        errs.append(abs(traj.t[-1] - (1.0 + lam)) + abs(traj.x[-1, 1] - lam / (1.0 + lam)))
    ratio = errs[0] / errs[1]
    _report(11, ratio >= 14.0, f"halving the step shrinks the endpoint error by {ratio:.1f}x")


def test_criterion_12_cli_determinism(tmp_path):
    args = [
        "geodesic", "schwarzschild", "--param", "GM=0.5",
        "--state", "pi/2, 0, 1, 0, 1, -1", "--lambda-max", "2.0",
        "--christoffel", "closed",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    rand_args = ["christoffel", "flat", "--count", "4", "--seed", "123"]
    assert cli_main(rand_args + ["--out", str(c)]) == 0
    assert cli_main(rand_args + ["--out", str(d)]) == 0
    identical &= c.read_bytes() == d.read_bytes()
    _report(12, identical, "fixed-seed runs produce byte-identical CSV")
