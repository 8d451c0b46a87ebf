import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from carrollgeo import _fd, scenarios
from carrollgeo._grid import GridSpline
from carrollgeo.errors import ContractViolation
from carrollgeo.geodesics import IntegratorConfig, NullShootSpec, integrate, shoot_null, unit_direction
from carrollgeo.geometry import euler_weight
from carrollgeo.kaluza import christoffel_closed
from carrollgeo.scenarios import (
    catalog_names,
    load,
    load_gauge_grid,
    load_metric_grid,
    load_scenario_file,
)
from carrollgeo.suites import killing_suite, run_all


def test_catalog_names():
    assert set(catalog_names()) == {
        "flat", "lightcone", "moebius", "schwarzschild", "sphere_pullback", "thakurta",
    }


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_loads_clean(name, rng):
    failed = [r.name for r in run_all(load(name), rng) if not r.passed]
    assert failed == []


def test_catalog_declares_the_parameter_keys_its_builder_reads():
    read = set()

    class Recorder(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    for name, (build, keys) in scenarios._CATALOG.items():
        read.clear()
        build(Recorder())
        assert read == set(keys) and scenarios.catalog_params(f" {name} ") == keys, name
    demo = Path(__file__).resolve().parents[1] / "docs" / "examples" / "scenario_demo.ini"
    assert scenarios.catalog_params(str(demo)) == ()


def test_unknown_scenario_raises():
    with pytest.raises(ContractViolation, match="unknown scenario"):
        load("noxistent")


def test_schwarzschild_parameters():
    s = load("schwarzschild", GM=0.5)
    p = s.point([math.pi / 2, 0.0], 1.0)
    gm = s.metric.at(p.x, p.t, p.chart)
    assert gm[1, 1] == pytest.approx(1.0)  # (2 GM)^2 sin^2 at the equator
    assert euler_weight(s.metric, p).factor == pytest.approx(0.0, abs=1e-10)


def test_lightcone_declares_weight_two():
    s = load("lightcone")
    p = s.point([1.0, 0.2], 2.0)
    assert s.metric.at(p.x, p.t, p.chart)[0, 0] == pytest.approx(4.0)
    assert euler_weight(s.metric, p).factor == pytest.approx(2.0, abs=1e-9)


def test_thakurta_conformal_profile():
    s = load("thakurta", GM=0.5, U="t^2")
    # factor is -t * Udot = -2 t^2
    p = s.point([1.1, 0.4], 1.3)
    report = euler_weight(s.metric, p)
    assert report.proportional
    assert report.factor == pytest.approx(-2.0 * 1.3**2, rel=1e-6)


def test_thakurta_fiber_derivative_agrees_with_the_difference_of_the_block():
    """dg_M/dt = -U'(t) g_M, the jet's t partials, from the exact derivative
    of U, and g_M^-1 dg_M/dt = -U'(t) I, twice the closed form's mixed block."""
    s = load("thakurta", GM=0.5, U="0.3*sin(t) + t^2")
    x = np.array([1.1, 0.4])
    for t in (0.3, -0.8, 1.7, -2.5):
        exact = np.reshape(s.jet["angular"].values(*x.tolist(), t)[12:], (2, 2))
        rate = 2.0 * christoffel_closed(s.kk(-1), s.point(x, t, "angular"))[:2, 2, :2]
        difference = _fd.partial(lambda arr: s.metric.at(x, float(arr[0]), "angular"), np.array([t]), 0, keep_sign=(0,))
        assert np.max(np.abs(exact - difference)) <= 1e-8 * np.max(np.abs(exact)), t
        differenced_rate = np.linalg.solve(s.metric.at(x, t, "angular"), difference)
        assert np.max(np.abs(rate - differenced_rate)) <= 1e-8 * np.max(np.abs(rate)), t


def test_moebius_full_suite(rng):
    s = load("moebius")
    results = run_all(s, rng)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


@pytest.mark.parametrize("name", ["schwarzschild", "sphere_pullback", "lightcone"])
def test_sphere_chart_overlap_consistency(name, rng):
    s = load(name)
    from carrollgeo.suites import overlap_metric_suite

    for result in overlap_metric_suite(s, rng):
        assert result.passed, result


def test_sample_points_respect_chart(rng):
    s = load("schwarzschild")
    pts = s.sample_points(rng, 8, chart="stereo_n")
    assert all(p.chart == "stereo_n" for p in pts)
    assert all(abs(p.x[0]) <= 1.5 for p in pts)


def test_negative_fiber_sampling(rng):
    s = load("flat")
    pts = s.sample_points(rng, 40, include_negative_t=True)
    assert any(p.t < 0 for p in pts) and any(p.t > 0 for p in pts)


@pytest.mark.parametrize("name", ["flat", "moebius"])
def test_constant_blocks_and_symbols_are_built_once_and_read_only(name, rng):
    """Every read of a constant base block or of its jet returns the one
    read-only array or tuple built at load, which no caller can change: the
    entries, then zero partials, each a structural zero."""
    s = load(name)
    blocks, jets = set(), set()
    for chart in s.atlas.chart_names():
        for p in s.sample_points(rng, 2, chart=chart):
            g, jet = s.metric.blocks[chart](p.x, p.t), s.jet[chart].values(*p.x.tolist(), p.t)
            assert not g.flags.writeable and isinstance(jet, tuple) and jet[:g.size] == tuple(g.ravel().tolist())
            assert not any(jet[g.size:]) and all(s.jet[chart].zeros[g.size:])
            blocks.add(id(g))
            jets.add(id(jet))
    assert len(blocks) == len(jets) == 1


def test_a_blocks_structural_zeros_are_derived_from_its_expressions():
    """An entry is a structural zero where it is the constant 0, and a
    partial where its entry does not read the axis: 0*x1 is not one, nor is
    its partial in x1, a constant 2 is not one but its partials are, and the
    partial of sin(x1)^2 in x2 is one."""
    jet = scenarios._expression_block(("0*x1", "0", "0", "sin(x1)^2"), 2, False)[1]
    assert jet.zeros == (False, True, True, False) + (False, True, True, False) + (True, True, True, True)
    cone = scenarios._expression_block(("t^2 * (1 + x1)", "0.1 * t", "0.1 * t", "2"), 2, True)[1]
    assert cone.zeros == (False,) * 4 + (False, True, True, True) + (True,) * 4 + (False, False, False, True)
    assert scenarios._expression_block(("0*x1", "0", "0", "sin(x1)^2"), 2, False)[1] is jet  # built once


# -- scenario files ---------------------------------------------------------------

GOOD_FILE = """
[meta]
name = demo
dim = 2

[charts]
main = box(-1, 1; -1, 1)

[metric]
time_dependent = false
main = matrix(1 + x1^2, 0; 0, 1)

[gauge]
main = vector(0, 0)

[expects]
euler_killing = true
"""

DEFECT_FILE = """
[meta]
name = broken
dim = 2

[charts]
main = box(-1, 1; -1, 1)

[metric]
main = matrix(1, x1; 0, 1)
"""


def test_scenario_file_round_trip(tmp_path, rng):
    path = tmp_path / "demo.ini"
    path.write_text(GOOD_FILE)
    s = load(str(path))
    assert s.name == "demo"
    assert all(r.passed for r in run_all(s, rng))
    p = s.point([0.5, 0.0], 1.0)
    assert s.metric.at(p.x, p.t, p.chart)[0, 0] == pytest.approx(1.25)
    assert s.gauge.is_zero


@pytest.mark.parametrize("text, is_zero", [
    ("vector(0.00, 0)", True), ("vector(-0, 0e0)", True), ("vector((0), 0)", True),
    ("vector(0*x1, 0)", False), ("vector(0, 1e-300)", False),
])
def test_zero_gauge_is_decided_from_the_compiled_expression(tmp_path, rng, text, is_zero):
    path = tmp_path / "demo.ini"
    path.write_text(GOOD_FILE.replace("vector(0, 0)", text))
    assert load(str(path)).gauge.is_zero is is_zero


def test_demo_file_with_zero_gauge_spelled_0_00_runs_the_christoffel_check(tmp_path):
    # a gauge field not recognized as zero made the check compare no samples (value 0)
    demo = (Path(__file__).resolve().parents[1] / "docs" / "examples" / "scenario_demo.ini").read_text()
    assert "vector(0, 0)" in demo
    path = tmp_path / "demo.ini"
    path.write_text(demo.replace("vector(0, 0)", "vector(0.00, 0)"))
    scenario = load(str(path))
    assert scenario.gauge.is_zero
    (check,) = [r for r in run_all(scenario, np.random.default_rng(1)) if r.name == "christoffel_oracle_agreement"]
    assert check.passed and check.value > 0.0


def test_defect_file_is_flagged(tmp_path, rng):
    path = tmp_path / "broken.ini"
    path.write_text(DEFECT_FILE)
    s = load(str(path))
    (symmetry,) = [r for r in run_all(s, rng) if r.name == "base_block_symmetry"]
    assert not symmetry.passed


def test_verify_reports_wrong_declaration(tmp_path, rng):
    text = GOOD_FILE.replace("1 + x1^2", "t * (1 + x1^2)")
    path = tmp_path / "wrong.ini"
    path.write_text(text)
    scenario = load_scenario_file(path)
    scenario.metric.time_dependent = True
    # declared Killing but the block depends on the fiber
    (killing,) = [r for r in killing_suite(scenario, rng) if r.name == "euler_killing"]
    assert not killing.passed


# -- grid-sampled fields ------------------------------------------------------------

def _write_metric_grid(path, fn, axes):
    """A 2 x 2 block on the tensor grid of ``axes`` (x1, x2 and, if given, t)."""
    rows = [", ".join(["x1", "x2", "t"][: len(axes)] + ["g11", "g12", "g21", "g22"])]
    for coords in itertools.product(*axes):
        rows.append(", ".join(repr(float(v)) for v in (*coords, *fn(np.array(coords)).ravel())))
    path.write_text("\n".join(rows) + "\n")


def test_metric_grid_interpolation(tmp_path):
    # a metric affine in the coordinates is reproduced exactly (to rounding)
    # by the cubic spline
    fn = lambda x: np.array([[1.0 + 0.5 * x[0], 0.1 * x[1]], [0.1 * x[1], 2.0]])
    path = tmp_path / "grid.csv"
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    _write_metric_grid(path, fn, axes)
    gm = load_metric_grid(path, dim=2, time_dependent=False)
    for x in ([0.33, -0.41], [0.0, 0.9]):
        assert np.allclose(gm(np.array(x), 1.0), fn(np.array(x)), atol=1e-12)


def test_gauge_grid_interpolation(tmp_path):
    rows = ["x1, x2, a1, a2"]
    axes = np.linspace(-1, 1, 5)
    for a in axes:
        for b in axes:
            rows.append(", ".join(repr(float(v)) for v in (a, b, 2.0 * a, -b)))
    path = tmp_path / "gauge.csv"
    path.write_text("\n".join(rows) + "\n")
    a_fn = load_gauge_grid(path, dim=2)
    assert np.allclose(a_fn(np.array([0.25, -0.5])), [0.5, 0.5], atol=1e-12)


def _cubic_block(c):
    """A symmetric block whose entries are cubic in each of x1, x2, t."""
    x1, x2, t = c
    off = 0.3 * x1**3 * x2 - 0.2 * x2**3 * t**2 + x1 * x2 * t**3
    return np.array([[1.0 + x1**3 - 0.5 * x1 * x2**2 + 0.25 * (x1 * x2 * t) ** 3, off],
                     [off, 2.0 - x2**3 + x1**2 * t]])


@pytest.mark.parametrize("time_dependent", [False, True])
def test_metric_grid_reproduces_cubics(tmp_path, time_dependent):
    """Not-a-knot is exact on data cubic in each coordinate: inside a
    non-uniform grid and, from the end cell's cubic, just outside it."""
    axes = [[-1.0, -0.7, -0.1, 0.2, 0.8, 1.0], [-1.0, -0.4, 0.5, 0.6, 1.0]]
    if time_dependent:
        axes.append([0.5, 0.8, 1.4, 2.0])
    fn = _cubic_block if time_dependent else (lambda c: _cubic_block((*c, 0.5)))
    path = tmp_path / "cubic.csv"
    _write_metric_grid(path, fn, axes)
    gm = load_metric_grid(path, dim=2, time_dependent=time_dependent)
    lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
    inside = np.random.default_rng(3).uniform(lo, hi, (20, len(axes)))
    corners = np.array(list(itertools.product(*zip(lo - 0.05, hi + 0.05))))
    faces = np.array([np.where(np.arange(len(axes)) == k, edge, (lo + hi) / 2)
                      for k in range(len(axes)) for edge in (lo[k] - 0.05, hi[k] + 0.05)])
    for c in np.vstack([inside, corners, faces]):
        x, t = c[:2], c[2] if time_dependent else 0.5
        assert np.abs(gm(x, t) - fn(c)).max() <= 1e-12, c


def test_grid_spline_reads_a_stack_as_single_points():
    axes = [np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.3, 0.4, 1.0, 2.0])]
    values = np.random.default_rng(5).normal(size=(5, 5, 3))
    spline = GridSpline(axes, values)
    points = np.random.default_rng(6).uniform(-1.5, 2.5, (13, 2))
    assert np.array_equal(spline(points), np.array([spline(q) for q in points]))
    assert np.allclose(spline(np.array([[0.5, 0.3]])), values[3, 1], atol=1e-14)  # a node


def test_grid_null_orbit_keeps_its_first_integrals(tmp_path, workloads):
    """A C^2 grid metric: the oracle's stencil never straddles a jump of the
    Christoffel symbols, so the orbit's null residual and q stay at integrator
    level. A bilinear (C^0) interpolant of the same grid drifts 4e-8 and 2e-9
    on this orbit."""
    s = load(str(workloads.write_grid_scenario(tmp_path, np.random.default_rng([3, 0]))))
    rng = np.random.default_rng(7)
    x0, angle = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.0, 2.0 * math.pi)
    u = unit_direction(s, x0, np.array([math.cos(angle), math.sin(angle)]), 1.0, "main")
    state = shoot_null(NullShootSpec(x0=x0, u=u, q=0.7, t0=1.0, eps=1, chart="main"), s)
    traj = integrate(state, s, IntegratorConfig(lambda_max=2.0), chart="main")
    assert traj.events == [] and traj.lam[-1] == 2.0
    assert traj.max_null_drift() <= 1e-8
    assert traj.max_charge_drift() <= 1e-9


def test_grid_scenario_file(tmp_path, rng):
    fn = lambda x: np.array([[1.0 + 0.25 * x[0], 0.0], [0.0, 1.0]])
    grid_path = tmp_path / "block.csv"
    _write_metric_grid(grid_path, fn, (np.linspace(-1, 1, 7), np.linspace(-1, 1, 7)))
    text = GOOD_FILE.replace("matrix(1 + x1^2, 0; 0, 1)", "grid(block.csv)")
    path = tmp_path / "griddemo.ini"
    path.write_text(text)
    s = load(str(path))
    assert all(r.passed for r in run_all(s, rng))
    p = s.point([0.4, 0.1], 1.0)
    assert s.metric.at(p.x, p.t, p.chart)[0, 0] == pytest.approx(1.1, abs=1e-12)
