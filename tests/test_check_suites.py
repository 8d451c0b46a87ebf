"""The check suites read each field once per chart, not once per drawn vector.

The reference functions below are the suites' loops as first written: one
``TangentVector`` per step, ``omega`` reading the gauge field at every call,
one read of g_M per point and one transition map per drawn vector
(``_ref_map_tangent``), which differences the transition axis by axis. The
shipped suites must return the same values bit for bit and leave the
generator in the same state.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, suites
from carrollgeo.connection import GaugeField, overlap_gauge_residual
from carrollgeo.errors import CarrollError, ConstructionError
from carrollgeo.geometry import DegenerateMetric, Point, TangentVector
from carrollgeo.suites import CheckResult

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ["flat", "lightcone", "sphere_pullback", "moebius", "schwarzschild", "thakurta"]


def _ref_map_tangent(tr, v):
    p = v.base
    jac = _fd.partials(lambda x: np.asarray(tr.base_map(x), dtype=float), p.x, rel=_fd.TRANSITION_REL_STEP).T
    grad_log_phi = _fd.log_gradient(tr.fiber_factor, p.x)
    return TangentVector(jac @ v.vx, v.vtb + float(v.vx @ grad_log_phi), tr.map_point(p))


def _ref_overlap_gauge(atlas, omega, rng):
    gaps = []
    for tr in atlas.transitions:
        for x in tr.sample(rng, 8):
            p = Point(x, float(rng.uniform(0.5, 2.0)), tr.src)
            for _ in range(3):
                v = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
                gaps.append(abs(omega(v) - omega(_ref_map_tangent(tr, v))))
    return suites._worst(gaps)  # carries a NaN gap, as the suite's reduction does


def _ref_kernel_suite(scenario, rng):
    worst_asym = worst_cond = 0.0
    min_abs_det = float("inf")
    for chart in scenario.atlas.chart_names():
        for p in scenario.sample_points(rng, 10, chart=chart):
            gm = scenario.metric.at(p.x, p.t, p.chart)
            worst_asym = max(worst_asym, float(np.max(np.abs(gm - gm.T), initial=0.0)))
            min_abs_det = min(min_abs_det, abs(float(np.linalg.det(gm))))
            worst_cond = max(worst_cond, float(np.linalg.cond(gm)))
    return [
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
    if not scenario.atlas.transitions:
        return []
    return [suites._result("gauge_overlap_rule", _ref_overlap_gauge(scenario.atlas, scenario.connection(), rng), 1e-8)]


def _ref_overlap_metric(scenario, rng):
    if not scenario.atlas.transitions:
        return []
    gaps = []
    for tr in scenario.atlas.transitions:
        for x in tr.sample(rng, 8):
            p = scenario.point(x, float(rng.uniform(0.5, 2.0)), tr.src)
            v = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            v2 = _ref_map_tangent(tr, v)
            s1 = float(v.vx @ scenario.metric.at(p.x, p.t, p.chart) @ v.vx)
            s2 = float(v2.vx @ scenario.metric.at(v2.base.x, v2.base.t, v2.base.chart) @ v2.vx)
            gaps.append(abs(s1 - s2) / max(1.0, abs(s1)))
    return [suites._result("metric_overlap_consistency", suites._worst(gaps), 1e-8)]


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


def _flat2(**changes):
    """flat(2) with the given scenario fields replaced."""
    return replace(cg.load("flat", n=2), **changes)


def _block(fn, time_dependent=False):
    return DegenerateMetric(blocks={"cartesian": fn}, time_dependent=time_dependent)


def _moebius(scale_west=1.0, fiber_tilt=0.0):
    """moebius with g_M scaled by ``scale_west`` on the west chart, and every
    fiber factor multiplied by exp(fiber_tilt * x1): a wrong overlap shift."""
    s = cg.load("moebius")
    west = s.metric.blocks["west"]
    s.metric = replace(s.metric, blocks={**s.metric.blocks, "west": lambda x, t: scale_west * west(x, t)})
    s.atlas.transitions = [
        replace(tr, fiber_factor=lambda x, f=tr.fiber_factor: f(x) * math.exp(fiber_tilt * x[0]))
        for tr in s.atlas.transitions
    ]
    return s


# One finite, perturbed scenario per row name that ``run_all`` emits: each
# fails its row, so no row of a report reads the same on every finite field.
MUTATIONS = {
    "base_block_symmetry": lambda: _flat2(metric=_block(lambda x, t: np.array([[1.0, 0.1], [0.0, 1.0]]))),
    "base_block_invertible": lambda: _flat2(metric=_block(lambda x, t: 1e-7 * np.eye(2))),
    "euler_proportionality": lambda: _flat2(metric=_block(lambda x, t: np.diag([t * t, 1.0]), time_dependent=True)),
    "euler_killing": lambda: _flat2(metric=_block(lambda x, t: t * t * np.eye(2), time_dependent=True)),
    "homogeneity_weight_2": lambda: _flat2(expects={"weight": 2.0}),
    "conformal_not_killing": lambda: _flat2(expects={"conformal": True}),
    "gauge_overlap_rule": lambda: _moebius(fiber_tilt=0.1),
    "kk_determinant_identity": lambda: _flat2(
        gauge=GaugeField(components={"cartesian": lambda x: 1e6 * np.array([x[0] * x[1], 0.3 * math.sin(x[0])])})
    ),
    "lorentzian_signature": lambda: _flat2(metric=_block(lambda x, t: np.diag([-1.0, 1.0]))),
    "christoffel_oracle_agreement": lambda: _flat2(base_jet=lambda x, t, chart: (np.full((2, 2, 2), 0.1), None, None)),
    "metric_overlap_consistency": lambda: _moebius(scale_west=1.1),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_emitted_row_passes_and_has_a_mutation(scenarios, seed):
    """On the catalog, the demo file and the benchmark's grid file every row
    passes, and the mutation table names exactly the rows they emit."""
    report = [r for s in scenarios.values() for r in suites.run_all(s, np.random.default_rng(seed))]
    assert all(r.passed for r in report), [r.name for r in report if not r.passed]
    assert {r.name for r in report} == set(MUTATIONS)


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_row_fails_on_its_finite_mutation(name):
    rows = {r.name: r for r in suites.run_all(MUTATIONS[name](), np.random.default_rng(1))}
    row = rows[name]
    assert not row.passed and math.isfinite(row.value) and row.detail != "non-finite sample", row


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", CATALOG + ["demo", "grid", "flat2-gauge"])
def test_suites_are_bit_identical_to_the_per_vector_loops(scenarios, name, seed):
    s = scenarios[name]
    for suite, reference in ((suites.kernel_suite, _ref_kernel_suite),
                             (suites.connection_suite, _ref_connection_suite),
                             (suites.determinant_suite, _ref_determinant_suite),
                             (suites.overlap_metric_suite, _ref_overlap_metric)):
        got_rng, want_rng = _twins(seed)
        assert suite(s, got_rng) == reference(s, want_rng), suite.__name__
        assert _same_state(got_rng, want_rng), suite.__name__


OVERLAP_SUITES = ((suites.connection_suite, _ref_connection_suite),
                  (suites.overlap_metric_suite, _ref_overlap_metric))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scale_west, fiber_tilt", [(1.1, 0.0), (1.0, 0.1), (0.7, -0.3), (1e-9, 2.0)])
def test_overlap_suites_are_bit_identical_on_moebius_mutations(scale_west, fiber_tilt, seed):
    """The mutations make the overlap rows fail; the failing values must
    still be the per-vector loops' values."""
    s = _moebius(scale_west=scale_west, fiber_tilt=fiber_tilt)
    for suite, reference in OVERLAP_SUITES:
        got_rng, want_rng = _twins(seed)
        assert suite(s, got_rng) == reference(s, want_rng), suite.__name__
        assert _same_state(got_rng, want_rng), suite.__name__


@pytest.mark.parametrize("name", ["sphere_pullback", "moebius", "schwarzschild", "thakurta", "lightcone"])
def test_stacked_tangent_maps_are_the_per_axis_differentials(name, rng):
    """``tangent_maps`` at K points gives each point the Jacobian and grad
    log|phi| of the per-axis reference, bit for bit and in the same memory
    layout, and ``tangent_map`` is its K = 1 case."""
    for tr in cg.load(name).atlas.transitions:
        points = [Point(x, t, tr.src) for x, t in zip(tr.sample(rng, 5), rng.uniform(0.5, 2.0, 5).tolist())]
        for p, push in zip(points, tr.tangent_maps(points)):
            jac = _fd.partials(lambda x: np.asarray(tr.base_map(x), dtype=float), p.x, rel=_fd.TRANSITION_REL_STEP).T
            grad_log_phi = _fd.log_gradient(tr.fiber_factor, p.x)
            single = tr.tangent_map(p)
            for got in (push, single):
                assert got.source is p and got.image.same_place(tr.map_point(p))
                assert got.jac.tobytes() == jac.tobytes() and got.jac.strides == jac.strides
                assert got.grad_log_phi.tobytes() == grad_log_phi.tobytes()


def _cells(x):
    """An index that changes every 1e-3 along x1: a sampled point falls in
    any residue class mod 3 about equally often."""
    return int(math.floor(x[0] / 1e-3)) % 3


def _broken(name, vanish=lambda x: False, nan_image=lambda x: False, wiggle=0.0):
    """``name`` with every fiber factor 0 where ``vanish(x)``, every base map
    NaN where ``nan_image(x)``, and ``wiggle * sin(1e8 x)`` added to every
    base map, which leaves the image finite but overflows its Jacobian."""
    s = cg.load(name)

    def base_map(x, f):
        y = np.asarray(f(x), dtype=float) + wiggle * np.sin(1e8 * x)
        return np.full(y.shape, np.nan) if nan_image(x) else y

    s.atlas.transitions = [
        replace(tr, base_map=lambda x, f=tr.base_map: base_map(x, f),
                fiber_factor=lambda x, f=tr.fiber_factor: 0.0 if vanish(x) else f(x))
        for tr in s.atlas.transitions
    ]
    return s


BROKEN = {
    "vanishing-factor": dict(vanish=lambda x: _cells(x) == 0),
    "nan-image": dict(nan_image=lambda x: _cells(x) == 1),
    "both": dict(vanish=lambda x: _cells(x) == 0, nan_image=lambda x: _cells(x) == 1),
    "infinite-jacobian": dict(wiggle=1e305),
}


def _outcome(suite, s, seed):
    """A suite's rows with each value's bits, or the error it raises."""
    try:
        rows = suite(s, np.random.default_rng(seed))
    except CarrollError as exc:
        return type(exc).__name__, str(exc)
    return [(r.name, r.passed, np.float64(r.value).tobytes(), r.tol, r.detail) for r in rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["moebius", "sphere_pullback"])
@pytest.mark.parametrize("broken", BROKEN)
def test_a_broken_transition_fails_at_its_first_bad_sample_in_draw_order(name, broken, seed):
    """A vanishing fiber factor or a non-finite image raises at the first such
    sample in draw order, with the per-vector loops' error; a non-finite
    Jacobian gives their non-finite value."""
    s = _broken(name, **BROKEN[broken])
    for suite, reference in OVERLAP_SUITES:
        assert _outcome(suite, s, seed) == _outcome(reference, s, seed), suite.__name__


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
    in each chart; the three vectors drawn there reuse them. The metric
    check makes the same calls and reads g_M once in each chart instead."""
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

    # the metric check: the same per sample, and g_M read once in each chart
    calls.update(base_map=0, fiber_factor=0, gauge=0, block=0)
    s.metric.blocks.update(_count_calls(s.metric.blocks, calls, "block"))
    suites.overlap_metric_suite(s, rng)
    assert calls == {"base_map": samples * per_sample, "fiber_factor": samples * per_sample, "gauge": 0,
                     "block": 2 * samples}


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
    the ten points of a chart and then reads g_M at all of them at once, so a
    read that raises leaves the generator after all ten draws. The suite
    draws no vector at a point (the rows that paired g with the Euler
    direction read 0.0 by construction and are gone), so the per-point loop
    stops at the same state; it no longer lags the stacked read by the
    vectors of the points after the failing one. ``run_all`` reports each
    raising suite as a failed row and samples the later suites from there."""
    path = tmp_path / "sqrt.ini"
    path.write_text(RAISING_METRIC)
    s = cg.load(str(path))
    stacked, per_point = _twins(6)
    for suite, rng in ((suites.kernel_suite, stacked), (_ref_kernel_suite, per_point)):
        with pytest.raises(ConstructionError, match="math domain error"):
            suite(s, rng)
    want = np.random.default_rng(6)
    s.sample_points(want, 10, chart="main")
    assert _same_state(stacked, want) and _same_state(per_point, want)

    rng = np.random.default_rng(6)
    report = suites.run_all(s, rng)
    error = "cannot evaluate expression '1 + sqrt(x1 + 1.4)': math domain error"
    assert [(r.name, r.passed, r.detail) for r in report] == [
        ("kernel_suite", False, error),
        ("euler_proportionality", True, ""),
        ("kk_determinant_identity", True, ""),
        ("lorentzian_signature", True, "eigenvalue signs (2, 1) for sign -1"),
        ("christoffel_suite", False, error),
    ]
    assert rng.bit_generator.state["state"]["state"] == 149840753262453228174980367174005501492
