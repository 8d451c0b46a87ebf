"""The check suites read each field once per sample point.

The reference functions below are the suites' vector loops as first written:
one ``TangentVector`` per step, ``omega`` and ``metric_eval`` reading the
fields at every call, and one ``map_tangent`` per drawn vector. The shipped
suites must return the same values bit for bit and leave the generator in
the same state.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, suites
from carrollgeo.connection import (
    GaugeField,
    orthogonality_check,
    overlap_gauge_residual,
    projector,
    projector_idempotence_check,
    split,
)
from carrollgeo.geometry import Point, TangentVector, euler, metric_eval
from carrollgeo.suites import CheckResult

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ["flat", "lightcone", "sphere_pullback", "moebius", "schwarzschild", "thakurta"]


def _ref_projector(omega, points, rng):
    worst = 0.0
    for p in points:
        for _ in range(4):
            X = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            phi_x = projector(omega, X)
            phi_phi_x = projector(omega, phi_x)
            worst = max(worst, float(np.max(np.abs((phi_phi_x - phi_x).raw()), initial=0.0)))
            worst = max(worst, float(np.max(np.abs(phi_x.vx), initial=0.0)))
            horizontal, _ = split(omega, X)
            worst = max(worst, abs(omega(horizontal)))
    return worst


def _ref_orthogonality(g, omega, points, rng):
    worst = 0.0
    for p in points:
        for _ in range(4):
            X = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            Y = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            xh, _ = split(omega, X)
            _, yv = split(omega, Y)
            worst = max(worst, abs(metric_eval(g, p, xh, yv)))
    return worst


def _ref_map_tangent(tr, v):
    p = v.base
    jac = _fd.partials(lambda x: np.asarray(tr.base_map(x), dtype=float), p.x, rel=_fd.TRANSITION_REL_STEP).T
    grad_log_phi = _fd.log_gradient(tr.fiber_factor, p.x)
    return TangentVector(jac @ v.vx, v.vtb + float(v.vx @ grad_log_phi), tr.map_point(p))


def _ref_overlap_gauge(atlas, omega, rng):
    worst = 0.0
    for tr in atlas.transitions:
        for x in tr.sample(rng, 8):
            p = Point(x, float(rng.uniform(0.5, 2.0)), tr.src)
            for _ in range(3):
                v = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
                worst = max(worst, abs(omega(v) - omega(_ref_map_tangent(tr, v))))
    return worst


def _ref_kernel_suite(scenario, rng):
    worst_kernel = worst_det = worst_asym = worst_cond = 0.0
    min_abs_det = float("inf")
    for chart in scenario.atlas.chart_names():
        for p in scenario.sample_points(rng, 10, chart=chart):
            v = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            worst_kernel = max(worst_kernel, abs(metric_eval(scenario.metric, p, euler(p), v)))
            worst_det = max(worst_det, abs(float(np.linalg.det(scenario.metric.full(p)))))
            gm = scenario.metric.at(p.x, p.t, p.chart)
            worst_asym = max(worst_asym, float(np.max(np.abs(gm - gm.T), initial=0.0)))
            min_abs_det = min(min_abs_det, abs(float(np.linalg.det(gm))))
            worst_cond = max(worst_cond, float(np.linalg.cond(gm)))
    return [
        suites._result("kernel_annihilation", worst_kernel, 0.0),
        suites._result("degenerate_determinant", worst_det, 0.0),
        suites._result("base_block_symmetry", worst_asym, 1e-12),
        CheckResult("base_block_invertible", min_abs_det > 1e-12, min_abs_det, 1e-12,
                    f"min |det g_M|; condition number up to {worst_cond:.3e}"),
    ]


def _ref_determinant_suite(scenario, rng):
    worst_det = 0.0
    signature_ok = True
    for sign in (+1, -1):
        kk = scenario.kk(sign)
        for p in scenario.sample_points(rng, 10):
            det_raw = float(np.linalg.det(kk.raw(p)))
            det_gm = float(np.linalg.det(kk.metric.at(p.x, p.t, p.chart)))
            worst_det = max(worst_det, abs(det_raw * p.t**2 - sign * det_gm) / max(abs(det_gm), 1e-300))
            if sign == -1:
                vals = np.linalg.eigvalsh(kk.raw(p))
                signature_ok = signature_ok and (int(np.sum(vals > 0)), int(np.sum(vals < 0))) == (scenario.dim, 1)
    return [
        suites._result("kk_determinant_identity", worst_det, 1e-8),
        CheckResult("lorentzian_signature", signature_ok, 0.0 if signature_ok else 1.0, 0.0,
                    f"eigenvalue signs ({scenario.dim}, 1) for sign -1"),
    ]


def _gauged_flat2():
    flat = cg.load("flat", n=2)
    flat.gauge = GaugeField(components={"cartesian": lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])])})
    return flat


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory, workloads):
    loaded = {name: cg.load(name) for name in CATALOG}
    loaded["demo"] = cg.load(str(ROOT / "docs" / "examples" / "scenario_demo.ini"))
    grid = workloads.write_grid_scenario(tmp_path_factory.mktemp("grid"), np.random.default_rng(1))
    loaded["grid"] = cg.load(str(grid))
    loaded["flat2-gauge"] = _gauged_flat2()
    return loaded


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", CATALOG + ["demo", "grid", "flat2-gauge"])
def test_suites_are_bit_identical_to_the_per_vector_loops(scenarios, name, seed):
    s = scenarios[name]
    omega = s.connection()
    for suite, reference in ((suites.kernel_suite, _ref_kernel_suite),
                             (suites.determinant_suite, _ref_determinant_suite)):
        got_rng, want_rng = _twins(seed)
        assert suite(s, got_rng) == reference(s, want_rng), suite.__name__
        assert _same_state(got_rng, want_rng), suite.__name__
    points = [p for chart in s.atlas.chart_names() for p in s.sample_points(np.random.default_rng(seed), 6, chart=chart)]
    checks = [
        (lambda rng: projector_idempotence_check(omega, points, rng), lambda rng: _ref_projector(omega, points, rng)),
        (lambda rng: orthogonality_check(s.metric, omega, points, rng),
         lambda rng: _ref_orthogonality(s.metric, omega, points, rng)),
        (lambda rng: overlap_gauge_residual(s.atlas, omega, rng), lambda rng: _ref_overlap_gauge(s.atlas, omega, rng)),
    ]
    for check, reference in checks:
        got_rng, want_rng = _twins(seed)
        got, want = check(got_rng), reference(want_rng)
        assert got == want and type(got) is type(want)
        assert _same_state(got_rng, want_rng)


def _counted(calls, kind, fn):
    def wrapped(*args):
        calls[kind] += 1
        return fn(*args)
    return wrapped


def _count_calls(mapping, calls, kind):
    return {chart: _counted(calls, kind, fn) for chart, fn in mapping.items()}


@pytest.mark.parametrize("name", ["sphere_pullback", "moebius"])
def test_overlap_gauge_rule_differences_each_transition_once_per_sample(name, rng):
    """Each sample point: 4n stencil calls for the Jacobian and for
    grad log|phi|, one call of each for the image point, and one gauge read
    in each chart; the three vectors drawn there reuse them."""
    s = cg.load(name)
    calls = {"base_map": 0, "fiber_factor": 0, "gauge": 0}
    s.atlas.transitions = [
        replace(tr, base_map=_counted(calls, "base_map", tr.base_map),
                fiber_factor=_counted(calls, "fiber_factor", tr.fiber_factor))
        for tr in s.atlas.transitions
    ]
    gauge = GaugeField(components=_count_calls(s.gauge.components, calls, "gauge"))
    overlap_gauge_residual(s.atlas, s.connection(gauge), rng)
    samples = 8 * len(s.atlas.transitions)
    per_sample = 4 * s.dim + 1
    assert calls == {"base_map": samples * per_sample, "fiber_factor": samples * per_sample, "gauge": 2 * samples}


def test_projector_and_orthogonality_checks_read_each_field_once_per_point(rng):
    s = _gauged_flat2()
    calls = {"gauge": 0, "block": 0}
    gauge = GaugeField(components=_count_calls(s.gauge.components, calls, "gauge"))
    s.metric.blocks.update(_count_calls(s.metric.blocks, calls, "block"))
    omega = s.connection(gauge)
    points = s.sample_points(rng, 5)
    projector_idempotence_check(omega, points, rng)
    assert calls == {"gauge": 5, "block": 0}
    orthogonality_check(s.metric, omega, points, rng)
    assert calls == {"gauge": 10, "block": 5}


def test_base_block_reads_per_point_in_kernel_and_determinant_suites(rng):
    s = cg.load("sphere_pullback")
    calls = {"block": 0}
    s.metric.blocks.update(_count_calls(s.metric.blocks, calls, "block"))
    suites.kernel_suite(s, rng)
    assert calls["block"] == 10 * len(s.atlas.charts)
    # per point: once to build the raw components, once for det g_M
    suites.determinant_suite(s, rng)
    assert calls["block"] == 10 * len(s.atlas.charts) + 2 * 10 * 2
