"""The field evaluation contract: per-chart metric blocks and gauge fields are
read only through ``DegenerateMetric.at`` and ``GaugeField.at``, which reject
an unknown chart or a result of the wrong shape."""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, scenarios
from carrollgeo.connection import GaugeField, curvature
from carrollgeo.errors import ContractViolation
from carrollgeo.geodesics import GeodesicState, integrate, unit_direction
from carrollgeo.geometry import DegenerateMetric
from carrollgeo.kaluza import christoffel_numeric

SRC = Path(__file__).resolve().parents[1] / "src" / "carrollgeo"
FIELD_DICTS = {"blocks", "components"}
ACCESSORS = {("DegenerateMetric", "at"), ("GaugeField", "at")}


def _field_subscripts(node, cls=None, fn=None):
    """(class, function, line) of every ``.blocks[...]`` / ``.components[...]``
    subscript under ``node``, named by the enclosing class and function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Subscript) and isinstance(child.value, ast.Attribute):
            if child.value.attr in FIELD_DICTS:
                yield cls, fn, child.lineno
        if isinstance(child, ast.ClassDef):
            yield from _field_subscripts(child, child.name, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _field_subscripts(child, cls, child.name)
        else:
            yield from _field_subscripts(child, cls, fn)


def test_field_dicts_are_read_only_through_the_accessors():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        hits += [(path.name, *hit) for hit in _field_subscripts(ast.parse(path.read_text()))]
    offenders = [hit for hit in hits if hit[1:3] not in ACCESSORS]
    assert offenders == []
    assert {hit[1:3] for hit in hits} == ACCESSORS


def test_finite_difference_steps_are_not_parameters():
    """``_fd`` owns the steps: no signature or dataclass field in the package
    is named ``fd_rel``, and only ``_fd``'s own primitives take ``rel`` or
    ``step``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        banned = {"fd_rel"} if path.name == "_fd.py" else {"fd_rel", "rel", "step"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            offenders += [(path.name, node.lineno, name) for name in names if name in banned]
    assert offenders == []


def test_declared_expectations_are_read_only_by_the_suites():
    """``suites`` is the one reader of ``Scenario.expects``, and ``load`` has
    no verification knobs: loading only builds a scenario."""
    readers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "expects"
    }
    assert readers == {"suites.py"}
    assert not {"verify", "rng"} & set(inspect.signature(cg.load).parameters)


def _builtin_reductions(source):
    """Lines of ``name = max(name, ...)`` / ``min(name, ...)`` accumulators and
    of builtin ``max`` / ``min`` calls over a generator in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        call = node.value if isinstance(node, ast.Assign) else node
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in {"max", "min"}):
            continue
        if isinstance(node, ast.Assign):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            if any(isinstance(arg, ast.Name) and arg.id in names for arg in call.args):
                lines.append(node.lineno)
        elif any(isinstance(arg, ast.GeneratorExp) for arg in call.args):
            lines.append(node.lineno)
    return sorted(lines)


def test_sampled_checks_reduce_with_numpy():
    """Python's ``max(0.0, nan)`` is 0.0, so a NaN sample would pass; the
    sampled checks reduce with numpy, which carries the NaN. The step control
    of ``geodesics`` is not a sampled check and is exempt."""
    assert _builtin_reductions("w = max(w, x)\nv = min(a for a in b)\nu = max(1.0, x)\n") == [1, 2]
    modules = ["suites", "connection", "kaluza", "geometry", "linearize", "cli"]
    offenders = {name: _builtin_reductions((SRC / f"{name}.py").read_text()) for name in modules}
    assert offenders == {name: [] for name in modules}


def _imported_modules(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_scipy():
    """numpy is the one runtime dependency: grid fields use the package's own
    spline (``_grid``), not scipy's interpolators."""
    assert _imported_modules("import scipy.interpolate\nfrom scipy import linalg\n") == {"scipy"}
    offenders = [path.name for path in sorted(SRC.glob("*.py")) if "scipy" in _imported_modules(path.read_text())]
    assert offenders == []


def test_grid_scenario_checks_without_importing_scipy(tmp_path, workloads):
    path = workloads.write_grid_scenario(tmp_path, np.random.default_rng([3, 0]))
    code = (
        "import sys\nimport numpy as np\nimport carrollgeo as cg\nfrom carrollgeo.suites import run_all\n"
        f"results = run_all(cg.load({str(path)!r}), np.random.default_rng(1))\n"
        "print(all(r.passed for r in results), 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def _flat2_with(metric=None, gauge=None):
    s = cg.load("flat", n=2)
    s.metric = metric or s.metric
    s.gauge = gauge or s.gauge
    return s


@pytest.mark.parametrize(
    "scenario",
    [
        _flat2_with(metric=DegenerateMetric({"cartesian": lambda x, t: np.eye(3)})),
        _flat2_with(gauge=GaugeField({"cartesian": lambda x: np.zeros(3)})),
    ],
    ids=["block_3x3", "gauge_3"],
)
def test_wrong_shape_is_a_contract_violation(scenario):
    p = scenario.point([0.1, 0.2], 1.0)
    with pytest.raises(ContractViolation, match="shape"):
        christoffel_numeric(scenario.kk(-1), p)
    with pytest.raises(ContractViolation, match="shape"):
        integrate(GeodesicState([0.1, 0.2], 1.0, [1.0, 0.0], -1.0), scenario, cg.IntegratorConfig(lambda_max=0.1))


def test_wrong_block_shape_fails_unit_direction():
    s = _flat2_with(metric=DegenerateMetric({"cartesian": lambda x, t: np.eye(3)}))
    with pytest.raises(ContractViolation, match="shape"):
        unit_direction(s, [0.1, 0.2], [1.0, 0.0], 1.0)


CATALOG = ["flat", "lightcone", "sphere_pullback", "moebius", "schwarzschild", "thakurta"]


def _stack_cases():
    for name in CATALOG:
        scenario = cg.load(name)
        for chart in scenario.atlas.charts:
            yield pytest.param(scenario, chart, id=f"{name}-{chart}")
    gauged = _flat2_with(gauge=GaugeField({"cartesian": lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])])}))
    yield pytest.param(gauged, "cartesian", id="flat2-gauge")


@pytest.mark.parametrize("scenario, chart", list(_stack_cases()))
def test_stacked_read_is_the_per_point_callable(scenario, chart):
    points = scenario.sample_points(np.random.default_rng(4), 13, chart=chart, include_negative_t=True)
    x = np.array([p.x for p in points])
    t = np.array([p.t for p in points])
    block, comp = scenario.metric.blocks[chart], scenario.gauge.components[chart]
    g, a = scenario.metric.at(x, t, chart), scenario.gauge.at(x, chart)
    n = scenario.dim
    assert g.shape == (13, n, n) and a.shape == (13, n)
    for k, p in enumerate(points):
        assert g[k].tobytes() == np.asarray(block(p.x, p.t), dtype=float).tobytes()
        assert g[k].tobytes() == scenario.metric.at(p.x, p.t, chart).tobytes()
        assert a[k].tobytes() == np.asarray(comp(p.x), dtype=float).tobytes()
        assert a[k].tobytes() == scenario.gauge.at(p.x, chart).tobytes()


def _odd_one_out(good, bad, k=5):
    """A callable that returns ``bad`` at the k-th call and ``good`` otherwise."""
    calls = []

    def fn(*args):
        calls.append(args)
        return bad if len(calls) == k else good

    return fn


@pytest.mark.parametrize(
    "bad_block, bad_gauge",
    [(np.eye(3), np.zeros(3)), (np.ones(2), np.zeros((2, 2))), (1.0, 1.0)],
    ids=["too_large", "wrong_rank", "scalar"],
)
def test_wrong_shape_at_one_point_of_a_stack_is_a_contract_violation(bad_block, bad_gauge):
    x, t = np.random.default_rng(2).uniform(-1.0, 1.0, (13, 2)), np.full(13, 1.5)
    assert DegenerateMetric({"main": _odd_one_out(np.eye(2), bad_block, k=14)}).at(x, t, "main").shape == (13, 2, 2)
    assert GaugeField({"main": _odd_one_out(np.zeros(2), bad_gauge, k=14)}).at(x, "main").shape == (13, 2)
    metric = DegenerateMetric({"main": _odd_one_out(np.eye(2), bad_block)})
    with pytest.raises(ContractViolation, match="shape"):
        metric.at(x, t, "main")
    gauge = GaugeField({"main": _odd_one_out(np.zeros(2), bad_gauge)})
    with pytest.raises(ContractViolation, match="shape"):
        gauge.at(x, "main")


def test_scalar_gauge_on_a_one_dimensional_base_stacks_like_single_points():
    gauge = GaugeField({"main": lambda x: 0.5 * float(x[0])})
    x = np.array([[0.2], [-0.4], [1.0]])
    assert gauge.at(x, "main").tobytes() == np.array([gauge.at(xi, "main") for xi in x]).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_empty_stack_reads_empty_fields_and_symbols(n):
    """A stack of no points calls no field and has the shape of a stack of
    K points at K = 0, down to the oracle's symbols."""

    def never(*args):
        raise AssertionError("a field was called on an empty stack")

    metric = DegenerateMetric({"main": never})
    gauge = GaugeField({"main": never})
    x, t = np.empty((0, n)), np.empty(0)
    assert metric.at(x, t, "main").shape == (0, n, n)
    assert gauge.at(x, "main").shape == (0, n)
    kk = cg.KKMetric(-1, metric, gauge)
    assert christoffel_numeric(kk, np.empty((0, n + 1)), chart="main").shape == (0, n + 1, n + 1, n + 1)


def test_stack_needs_one_fiber_value_per_point():
    metric = DegenerateMetric({"main": lambda x, t: np.eye(2)})
    x = np.zeros((13, 2))
    for t in (np.ones(12), np.ones(14), 1.0, np.ones((13, 1))):
        with pytest.raises(ContractViolation, match="fiber values"):
            metric.at(x, t, "main")


def test_gauge_known_to_vanish_is_never_called(monkeypatch):
    def never(*args):
        raise AssertionError("a gauge with is_zero was called or differenced")

    monkeypatch.setattr(_fd, "partials", never)
    gauge = GaugeField({"main": never}, is_zero=True)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, (13, 2))
    assert gauge.at(x[0], "main").tobytes() == np.zeros(2).tobytes()
    assert gauge.at(x, "main").tobytes() == np.zeros((13, 2)).tobytes()
    assert curvature(gauge, x[0], "main").tobytes() == np.zeros((2, 2)).tobytes()
    for arg in (x[0], x):
        with pytest.raises(ContractViolation, match="chart"):
            gauge.at(arg, "elsewhere")
    with pytest.raises(ContractViolation, match="chart"):
        curvature(gauge, x[0], "elsewhere")


def test_sphere_blocks_equal_the_scaled_constant_matrices():
    rng = np.random.default_rng(9)
    for radius2 in (1.0, 0.37, 4.0 * 2.5**2):
        angular, stereo = scenarios._angular_block(radius2), scenarios._stereo_block(radius2)
        for theta, phi in rng.uniform((0.02, -3.0), (math.pi - 0.02, 3.0), (200, 2)):
            x = np.array([theta, phi])
            old = radius2 * np.array([[1.0, 0.0], [0.0, math.sin(theta) ** 2]])
            assert angular(x, 1.0).tobytes() == old.tobytes()
        for x in rng.uniform(-1.5, 1.5, (200, 2)):
            old = (4.0 * radius2 / (1.0 + float(x @ x)) ** 2) * np.eye(2)
            assert stereo(x, 1.0).tobytes() == old.tobytes()
