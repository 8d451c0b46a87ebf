"""The check suites read each field once per chart, not once per drawn vector.

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
    gauge_at,
    orthogonality_check,
    overlap_gauge_residual,
    projector,
    projector_idempotence_check,
    split,
)
from carrollgeo.errors import ConstructionError
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


def _ref_connection_suite(scenario, rng):
    omega = scenario.connection()
    points = []
    for chart in scenario.atlas.chart_names():
        points.extend(scenario.sample_points(rng, 6, chart=chart))
    results = [
        suites._result("connection_dual_to_euler", max(abs(omega(euler(p)) - 1.0) for p in points), 0.0),
        suites._result("projector_idempotence", _ref_projector(omega, points, rng), 1e-14),
        suites._result("horizontal_vertical_orthogonality", _ref_orthogonality(scenario.metric, omega, points, rng),
                       0.0),
    ]
    if scenario.atlas.transitions:
        results.append(suites._result("gauge_overlap_rule", _ref_overlap_gauge(scenario.atlas, omega, rng), 1e-8))
    return results


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
                             (suites.connection_suite, _ref_connection_suite),
                             (suites.determinant_suite, _ref_determinant_suite)):
        got_rng, want_rng = _twins(seed)
        assert suite(s, got_rng) == reference(s, want_rng), suite.__name__
        assert _same_state(got_rng, want_rng), suite.__name__
    points = [p for chart in s.atlas.chart_names() for p in s.sample_points(np.random.default_rng(seed), 6, chart=chart)]
    checks = [
        (lambda rng: projector_idempotence_check(gauge_at(omega, points), points, rng),
         lambda rng: _ref_projector(omega, points, rng)),
        (lambda rng: orthogonality_check(s.metric, gauge_at(omega, points), points, rng),
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
    """A is read once, by ``gauge_at``, and both checks take its values."""
    s = _gauged_flat2()
    calls = {"gauge": 0, "block": 0}
    gauge = GaugeField(components=_count_calls(s.gauge.components, calls, "gauge"))
    s.metric.blocks.update(_count_calls(s.metric.blocks, calls, "block"))
    points = s.sample_points(rng, 5)
    a = gauge_at(s.connection(gauge), points)
    assert calls == {"gauge": 5, "block": 0}
    projector_idempotence_check(a, points, rng)
    assert calls == {"gauge": 5, "block": 0}
    orthogonality_check(s.metric, a, points, rng)
    assert calls == {"gauge": 5, "block": 5}


def test_base_block_reads_per_point_in_kernel_and_determinant_suites(rng):
    s = cg.load("sphere_pullback")
    calls = {"block": 0}
    s.metric.blocks.update(_count_calls(s.metric.blocks, calls, "block"))
    suites.kernel_suite(s, rng)
    assert calls["block"] == 10 * len(s.atlas.charts)
    # per point: once to build the raw components, once for det g_M
    suites.determinant_suite(s, rng)
    assert calls["block"] == 10 * len(s.atlas.charts) + 2 * 10 * 2


def test_christoffel_agreement_says_when_no_sample_was_compared(scenarios):
    """The closed form is compared only where the gauge field is known to
    vanish. On the grid scenario (nonzero gauge) the row still passes with
    value 0.0, and its detail says that nothing was compared."""
    [row] = suites.christoffel_suite(scenarios["grid"], np.random.default_rng(1))
    assert (row.passed, row.value, row.detail) == (True, 0.0, "no sample compared: the gauge field is nonzero")
    [row] = suites.christoffel_suite(scenarios["demo"], np.random.default_rng(1))
    assert row.passed and 0.0 < row.value <= 1e-6 and row.detail == ""


RAISING_METRIC = """\
[meta]
name = sqrt-metric
dim = 2
default_chart = main

[charts]
main = box(-1.5, 1.5; -1.5, 1.5)

[metric]
time_dependent = false
main = matrix(1 + sqrt(x1 + 1.4), 0; 0, 2)

[gauge]
main = vector(0, 0)
"""


def test_a_field_that_raises_on_part_of_the_box_fails_after_all_draws_of_its_chart(tmp_path):
    """g_M = 1 + sqrt(x1 + 1.4) raises for x1 < -1.4. ``kernel_suite`` draws
    the vectors of all ten points of a chart before its one read of g_M, so a
    read that raises leaves the generator after all ten draws, where the
    per-point loop stopped after the draws of the failing point. ``run_all``
    reports each raising suite as a failed row and samples the later suites
    from there, so their values differ from the per-point loops' on such a
    file (here ``kk_determinant_identity``); on fields that do not raise the
    draws are the same."""
    path = tmp_path / "sqrt.ini"
    path.write_text(RAISING_METRIC)
    s = cg.load(str(path))
    stacked, per_point = _twins(6)
    for suite, rng in ((suites.kernel_suite, stacked), (_ref_kernel_suite, per_point)):
        with pytest.raises(ConstructionError, match="math domain error"):
            suite(s, rng)
    want = np.random.default_rng(6)
    for p in s.sample_points(want, 10, chart="main"):
        want.standard_normal(p.dim), want.standard_normal()
    assert _same_state(stacked, want) and not _same_state(per_point, want)

    rng = np.random.default_rng(6)
    report = suites.run_all(s, rng)
    error = "cannot evaluate expression '1 + sqrt(x1 + 1.4)': math domain error"
    assert [(r.name, r.passed, r.detail) for r in report] == [
        ("kernel_suite", False, error),
        ("euler_proportionality", True, ""),
        ("connection_dual_to_euler", True, ""),
        ("projector_idempotence", True, ""),
        ("horizontal_vertical_orthogonality", True, ""),
        ("kk_determinant_identity", True, ""),
        ("lorentzian_signature", True, "eigenvalue signs (2, 1) for sign -1"),
        ("christoffel_suite", False, error),
    ]
    assert rng.bit_generator.state["state"]["state"] == 295043856228001817313901577346969773172
