"""The one-pass finite-difference oracle against a per-axis reference.

``christoffel_numeric`` assembles the metric at all K (4m + 1) stencil points
of a stack of K points at once and differences them as stacked arrays. The
reference below is the same oracle written as a loop over points and axes;
the two must agree bit for bit, in the symbols themselves and in every output
of the CLI commands that use them.
"""

import ast
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo import _fd, kaluza, scenarios, suites
from carrollgeo.cli import main
from carrollgeo.connection import GaugeField
from carrollgeo.errors import DomainError, NumericError
from carrollgeo.geometry import DegenerateMetric
from carrollgeo.kaluza import christoffel_numeric
from carrollgeo.linearize import linearize, shift_transitions, synthetic_circle_atlas

CATALOG = ["flat", "lightcone", "sphere_pullback", "moebius", "schwarzschild", "thakurta"]


def reference_christoffel(kk, p, *, cond_limit=1e12, chart=None, along=None):
    """The oracle one point and one axis at a time: ``_fd.partial`` over
    ``kk.raw_field``, row by row for a stack of raw points; given ``along``,
    a velocity v, the symbols contracted by einsum, -Gamma^a(v, v), as a list."""
    raw, chart = (p.raw(), p.chart) if chart is None else (np.asarray(p, dtype=float), chart)
    if along is not None:
        v = np.array(along)
        return (-np.einsum("abc,b,c->a", reference_christoffel(kk, raw, cond_limit=cond_limit, chart=chart), v, v)).tolist()
    if raw.ndim == 2:
        return np.array([reference_christoffel(kk, row, cond_limit=cond_limit, chart=chart) for row in raw])
    field_fn = kk.raw_field(chart)
    g = field_fn(raw)
    if cond_limit is not None and not np.linalg.cond(g) <= cond_limit:
        raise NumericError("metric condition number exceeds the limit")
    t_axis = raw.size - 1
    dg = np.stack([_fd.partial(field_fn, raw, a, keep_sign=(t_axis,)) for a in range(raw.size)])
    return kaluza._levi_civita(kaluza._inverse(g), dg)


def _gauged_flat2():
    flat = cg.load("flat", n=2)
    gauge = GaugeField(components={"cartesian": lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])])})
    return flat, gauge


def _cases():
    for name in CATALOG:
        scenario = cg.load(name)
        for chart in scenario.atlas.charts:
            yield pytest.param(scenario, None, chart, id=f"{name}-{chart}")
    flat, gauge = _gauged_flat2()
    yield pytest.param(flat, gauge, "cartesian", id="flat2-gauge")


def test_partial_is_the_richardson_combination_of_two_central_differences():
    # a shifted fiber transition psi(m, r) at its section r = 0, where d/dr is
    # the linearize coefficient c(m)
    shifted = shift_transitions(synthetic_circle_atlas())
    rec = shifted.overlaps[0]
    psi, m = shifted.psi[rec.charts], float(rec.points(rec.charts[1])[5])
    coefficient = float(_fd.fiber_derivatives(psi, [m])[0])
    cases = [
        (lambda q: np.array([math.sin(q[0]) * q[1] ** 3, math.exp(q[0] - q[1])]), np.array([0.7, -1.3]),
         _fd.DEFAULT_REL_STEP, {}),
        (lambda q: np.array(psi(q[0], q[1])), np.array([m, 0.0]), _fd.TRANSITION_REL_STEP, {1: coefficient}),
    ]
    for f, p, rel, known in cases:
        for axis in (0, 1):
            h = _fd.step_size(p[axis], rel)

            def central(step):
                hi, lo = p.copy(), p.copy()
                hi[axis] += step
                lo[axis] -= step
                return (f(hi) - f(lo)) / (2.0 * step)

            expected = (4.0 * central(h / 2.0) - central(h)) / 3.0
            assert np.array_equal(_fd.partial(f, p, axis, rel), expected)
            assert np.array_equal(_fd.partials(f, p, rel)[axis], expected)
            if axis in known:
                assert known[axis] == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_float_stencil_keeps_every_coordinate_its_offset_does_not_move(m):
    """``_fd.float_stencil`` gives its centre p bit for bit, every t-axis point
    p's x floats and every x-axis point p's t: the oracle's acceleration reads
    the gauge at the centre and the x axes only, and shares the centre's t, on
    this. Both signs of t, near 1e300 and the sign guard's 1e-9, and x with
    signed zeros and magnitudes near 1e-300 and 1e300; a +0.0 offset would
    turn a -0.0 coordinate into 0.0."""
    bits = lambda floats: np.array(floats, dtype=float).tobytes()
    xs = [-0.0, 0.0, 1e-300, -5e-324, -1.7e300, 0.4]
    for t in (1.3, -1.3, 2e-9, -3e-9, 1e300, -1.7e300):
        for x in itertools.product(xs, repeat=m - 1):
            p = [*x, t]
            points, _ = _fd.float_stencil(p, keep_sign=(m - 1,))
            rows = [points[k * m:(k + 1) * m] for k in range(4 * m + 1)]
            assert bits(rows[0]) == bits(p)
            assert all(bits(row[:-1]) == bits(x) for row in rows[4 * m - 3:])
            assert all(bits(row[-1:]) == bits([t]) for row in rows[1:4 * m - 3])


def test_stacked_assembly_is_the_per_point_formula():
    """[[g_M + s A A^T, s A / t], [s A^T / t, s / t^2]] at each point, as the
    reference's ``raw_field`` sees it, with t**2 taken as a Python float."""
    scenario, gauge = _gauged_flat2()
    rng = np.random.default_rng(3)
    # include fiber values where libm pow(t, 2) and the product t * t round differently
    ts = rng.uniform(0.1, 3.0, 20_000)
    ts = np.concatenate([ts[:200], ts[ts**2 != np.array([t**2 for t in ts.tolist()])][:20]])
    raw = np.column_stack([rng.uniform(-2.0, 2.0, (ts.size, 2)), ts * rng.choice([-1, 1], ts.size)])
    for sign in (+1, -1):
        kk = scenario.kk(sign, gauge)
        stacked = kk.components(raw, "cartesian")
        for g, q in zip(stacked, raw):
            x, t = q[:2], float(q[2])
            gm, a = scenario.metric.at(x, t, "cartesian"), gauge.at(x, "cartesian")
            mixed = (sign * a / t)[:, None]
            expected = np.block([[gm + sign * np.outer(a, a), mixed], [mixed.T, np.array([[sign / t**2]])]])
            assert np.array_equal(g, expected)
            assert np.array_equal(kk.raw_field("cartesian")(q), expected)


@pytest.mark.parametrize("scenario, gauge, chart", list(_cases()))
def test_one_pass_oracle_is_bit_identical_to_per_axis_reference(scenario, gauge, chart):
    rng = np.random.default_rng(7)
    points = scenario.sample_points(rng, 6, chart=chart, include_negative_t=True)
    assert {math.copysign(1.0, p.t) for p in points} == {1.0, -1.0}
    for sign in (+1, -1):
        kk = scenario.kk(sign, gauge)
        for p in points:
            expected = reference_christoffel(kk, p, cond_limit=None)
            assert np.array_equal(christoffel_numeric(kk, p, cond_limit=None), expected)
            # the integrator's form: raw coordinates and a chart, no Point
            assert np.array_equal(christoffel_numeric(kk, p.raw(), cond_limit=None, chart=chart), expected)


@pytest.mark.parametrize("name, use_gauge", [("schwarzschild", False), ("flat", True)])
def test_oracle_reads_each_field_once_per_stencil_point(name, use_gauge):
    """Counted as the benchmark tracer counts: wrappers around the per-chart
    callables. At n = 2 the stencil has 4 * 3 + 1 = 13 points, at all of which
    g_M is read; the gauge is read at the 4 * 2 + 1 = 9 of them whose x differ,
    by the stacked oracle and by the ``along`` call alike.
    Schwarzschild's gauge is known to vanish (``is_zero``), so it is never read."""
    if use_gauge:
        scenario, gauge = _gauged_flat2()
    else:
        scenario = cg.load(name)
        gauge = scenario.gauge
    calls = {"block": 0, "gauge": 0}

    def counted(kind, fn):
        def wrapped(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapped

    blocks = scenario.metric.blocks
    blocks.update({chart: counted("block", fn) for chart, fn in blocks.items()})
    gauge.components = {chart: counted("gauge", fn) for chart, fn in gauge.components.items()}
    kk = scenario.kk(-1, gauge)
    p = scenario.point([0.4, 0.3], 1.3)
    christoffel_numeric(kk, p)
    assert calls == {"block": 13, "gauge": 9 if use_gauge else 0}
    christoffel_numeric(kk, p, along=[0.2, -0.1, 0.7])
    assert calls == {"block": 26, "gauge": 9 + 9 if use_gauge else 0}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_oracle_acceleration_reads_each_field_once_per_call(n, monkeypatch):
    """``along``: one stacked ``metric.at`` and one ``gauge.at`` call per
    oracle call, the block's callable called at the 4m + 1 stencil points and
    the gauge's at the 4n + 1 with distinct x, the centre and the x axes."""
    scenario = cg.load("flat", n=n)
    gauge = GaugeField(components={"cartesian": lambda x: 0.3 * np.sin(x)})
    calls = {"block": 0, "gauge": 0, "metric.at": 0, "gauge.at": 0}

    def counted(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    scenario.metric.blocks.update({chart: counted("block", fn) for chart, fn in scenario.metric.blocks.items()})
    gauge.components = {chart: counted("gauge", fn) for chart, fn in gauge.components.items()}
    monkeypatch.setattr(DegenerateMetric, "at", counted("metric.at", DegenerateMetric.at))
    monkeypatch.setattr(GaugeField, "at", counted("gauge.at", GaugeField.at))
    kk, m = scenario.kk(-1, gauge), n + 1
    for k in range(1, 3):
        christoffel_numeric(kk, [0.4, 0.3, -0.2][:n] + [1.3], chart="cartesian", along=[0.2] * m)
        assert calls == {"block": k * (4 * m + 1), "gauge": k * (4 * n + 1), "metric.at": k, "gauge.at": k}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_oracle_acceleration_reads_the_gauge_once_at_each_distinct_base_point(n):
    """The gauge callable of an ``along`` call sees the stencil's centre and
    then its x-axis points, in stencil order, each once and bit for bit; the
    t-axis points, which carry the centre's x, are not read again."""
    scenario = cg.load("flat", n=n)
    seen = []
    gauge = GaugeField(components={"cartesian": lambda x: seen.append(x.tobytes()) or 0.3 * np.sin(x)})
    p = [0.4, -0.0, -0.2][:n] + [1.3]
    christoffel_numeric(scenario.kk(-1, gauge), p, chart="cartesian", along=[0.2] * (n + 1))
    points, _ = _fd.float_stencil(p, keep_sign=(n,))
    stencil = np.array(points).reshape(-1, n + 1)[:, :n]
    assert seen == [x.tobytes() for x in stencil[:4 * n + 1]]
    assert len(set(seen)) == 4 * n + 1


@pytest.fixture(scope="module")
def grid(tmp_path_factory, workloads):
    """The benchmark's grid-CSV scenario: cubic-spline fields with a nonzero gauge."""
    return cg.load(str(workloads.write_grid_scenario(tmp_path_factory.mktemp("grid"), np.random.default_rng(1))))


STACK_CASES = [(name, chart) for name in CATALOG for chart in cg.load(name).atlas.charts]
STACK_CASES += [("flat2-gauge", "cartesian"), ("grid", "main")]


def _alternating_stack(scenario, chart, count):
    """``count`` raw points of ``chart`` whose fiber coordinates alternate in sign."""
    points = scenario.sample_points(np.random.default_rng(11), count, chart=chart)
    raw = np.array([p.raw() for p in points])
    raw[:, -1] *= np.resize([1.0, -1.0], count)
    return raw


@pytest.mark.parametrize("name, chart", STACK_CASES, ids=[f"{n}-{c}" for n, c in STACK_CASES])
def test_stacked_oracle_is_bit_identical_to_the_reference_point_by_point(name, chart, grid):
    if name == "flat2-gauge":
        scenario, gauge = _gauged_flat2()
    else:
        scenario, gauge = (grid if name == "grid" else cg.load(name)), None
    raw = _alternating_stack(scenario, chart, 5)
    for sign in (+1, -1):
        kk = scenario.kk(sign, gauge)
        stacked = christoffel_numeric(kk, raw, cond_limit=None, chart=chart)
        assert stacked.shape == (5,) + (scenario.dim + 1,) * 3
        assert np.array_equal(stacked, reference_christoffel(kk, raw, cond_limit=None, chart=chart))
        for k, row in enumerate(raw):
            single = christoffel_numeric(kk, row, cond_limit=None, chart=chart)
            assert np.array_equal(stacked[k], single)
            assert np.array_equal(christoffel_numeric(kk, row[None], cond_limit=None, chart=chart), single[None])
            assert np.array_equal(single, reference_christoffel(kk, row, cond_limit=None, chart=chart))


def test_gate_names_the_point_of_a_stack_that_fails_it():
    scenario = cg.load("schwarzschild")
    kk = scenario.kk(-1)
    raw = _alternating_stack(scenario, "angular", 4)
    conds = [np.linalg.cond(kk.components(row[None], "angular")[0], 1) for row in raw]
    worst = int(np.argmax(conds))
    raw[[worst, 2]] = raw[[2, worst]]  # the worst-conditioned point goes to index 2
    limit = math.sqrt(sorted(conds)[-1] * sorted(conds)[-2])
    christoffel_numeric(kk, np.delete(raw, 2, axis=0), cond_limit=limit, chart="angular")
    with pytest.raises(NumericError, match="at point 2 exceeds"):
        christoffel_numeric(kk, raw, cond_limit=limit, chart="angular")


def test_stack_with_a_point_near_the_zero_section_is_a_domain_error():
    scenario = cg.load("flat")
    kk = scenario.kk(-1)
    raw = _alternating_stack(scenario, "cartesian", 4)
    christoffel_numeric(kk, raw, chart="cartesian")
    raw[3, -1] = 1e-12
    with pytest.raises(DomainError, match="across zero on axis 2"):
        christoffel_numeric(kk, raw, chart="cartesian")


def _count_at(monkeypatch, owner, calls):
    """Record the number of points of every ``at`` call on a metric or gauge field."""
    at = owner.at
    monkeypatch.setattr(owner, "at", lambda x, *rest: calls.append(len(np.atleast_2d(x))) or at(x, *rest))


def test_suites_read_a_field_once_per_stack(monkeypatch):
    """The oracle in ``christoffel_suite`` reads g_M once per chart and sign,
    at ceil(20 / 3) = 7 points x 13 stencil points on each of the three
    charts; ``kernel_suite`` once per chart; the determinant suite twice per
    sign (the assembly and the independent det g_M)."""
    schwarzschild, sphere = cg.load("schwarzschild"), cg.load("sphere_pullback")
    calls = []
    _count_at(monkeypatch, schwarzschild.metric, calls)
    monkeypatch.setattr(kaluza, "christoffel_closed", lambda kk, p: np.zeros((3, 3, 3)))
    suites.christoffel_suite(schwarzschild, np.random.default_rng(1))
    assert calls == [7 * 13] * 3 * 2
    calls.clear()
    _count_at(monkeypatch, sphere.metric, calls)
    suites.kernel_suite(sphere, np.random.default_rng(1))
    assert calls == [10] * len(sphere.atlas.charts)
    calls.clear()
    suites.determinant_suite(sphere, np.random.default_rng(1))
    assert calls == [10] * 4


COMMANDS = {
    # the gauge fields of these scenarios vanish, so the orbits name the oracle to run it
    "tilt_json": ["null-shoot", "schwarzschild", "--param", "GM=0.5", "--point", "1.4, 0.2", "--dir", "0.3, 1",
                  "--q", "0.8", "--lambda-max", "3", "--christoffel", "numeric", "--format", "json",
                  "--out", "tilt.json"],
    "thakurta_csv": ["null-shoot", "thakurta", "--param", "GM=0.5", "--param", "U=t", "--point", "1.5, 0.1",
                     "--dir", "0.2, 1", "--q", "0.7", "--lambda-max", "2", "--christoffel", "numeric",
                     "--out", "thak.csv"],
    "lightcone_negative_q": ["null-shoot", "lightcone", "--point", "1.5, 0.1", "--dir", "0.2, 1", "--q", "-0.7",
                             "--lambda-max", "2", "--christoffel", "numeric", "--out", "lc.csv"],
    "christoffel_count": ["christoffel", "schwarzschild", "--param", "GM=0.5", "--count", "5", "--seed", "11",
                          "--out", "cs.csv"],
    "check_out": ["check", "schwarzschild", "--param", "GM=0.5", "--seed", "1", "--out", "check.json"],
}


def _run(argv, workdir, capsys, monkeypatch):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(list(argv))
    out, err = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return code, out, err, files


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_cli_outputs_are_byte_identical_with_the_reference_oracle(argv, tmp_path, capsys, monkeypatch):
    shipped = _run(argv, tmp_path / "shipped", capsys, monkeypatch)
    with monkeypatch.context() as patch:
        # every package module that bound the oracle by name calls the reference instead
        for module in [m for n, m in sys.modules.items() if n == "carrollgeo" or n.startswith("carrollgeo.")]:
            if getattr(module, "christoffel_numeric", None) is christoffel_numeric:
                patch.setattr(module, "christoffel_numeric", reference_christoffel)
        assert kaluza.christoffel_numeric is reference_christoffel
        reference = _run(argv, tmp_path / "reference", capsys, monkeypatch)
    assert shipped[0] == 0 and shipped[3]
    assert shipped == reference


STEP_NAMES = {"DEFAULT_REL_STEP", "TRANSITION_REL_STEP"}
STENCIL_CALLS = {"richardson", "offsets"}


def _step_offenses(source):
    """(line, what) of each place in ``source`` that chooses a finite-difference
    step or combines stencil values itself: a name or attribute
    ``DEFAULT_REL_STEP`` / ``TRANSITION_REL_STEP`` (imported or read), or a call
    of ``richardson`` or ``offsets``."""
    offenses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            offenses.extend((node.lineno, a.name) for a in node.names if a.name in STEP_NAMES | STENCIL_CALLS)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in STEP_NAMES:
                offenses.append((node.lineno, name))
        if isinstance(node, ast.Call):
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if called in STENCIL_CALLS:
                offenses.append((node.lineno, called))
    return sorted(offenses)


def test_only_fd_chooses_a_step():
    """``_fd`` alone picks the step and the stencil of every difference, as its
    docstring says: no other module names a step constant or calls
    ``richardson`` or ``offsets``."""
    sample = ("from ._fd import TRANSITION_REL_STEP\nh = _fd.DEFAULT_REL_STEP\n_fd.richardson(a, b, c, d, h)\n"
              "offsets(h)\noffsets = {}\noffsets.setdefault(1.0, 0.0)\n_fd.stencil(p)\n")
    assert _step_offenses(sample) == [(1, "TRANSITION_REL_STEP"), (2, "DEFAULT_REL_STEP"), (3, "richardson"),
                                      (4, "offsets")]
    src = Path(_fd.__file__).parent
    offenders = {
        path.name: found
        for path in sorted(src.glob("*.py"))
        if path.name != "_fd.py" and (found := _step_offenses(path.read_text()))
    }
    assert offenders == {}


NONLINEAR_THAKURTA = {"GM": 0.5, "U": "0.3*sin(t) + t^2"}


def _zero_gauge_charts():
    """Every zero-gauge catalog chart, and thakurta's with a non-linear U."""
    cases = [(name, cg.load(name)) for name in scenarios.catalog_names()]
    cases.append(("thakurta_nonlinear_u", cg.load("thakurta", **NONLINEAR_THAKURTA)))
    for name, scenario in cases:
        if scenario.gauge.is_zero:
            for chart in scenario.atlas.charts:
                yield pytest.param(scenario, chart, id=f"{name}-{chart}")


@pytest.mark.parametrize("scenario, chart", list(_zero_gauge_charts()))
def test_the_oracle_step_keeps_it_within_1e_11_of_the_closed_form(scenario, chart):
    """At ``DEFAULT_REL_STEP`` the oracle's Richardson difference is limited
    neither by roundoff (a smaller step) nor by truncation (a larger one): at
    every point, for both signs of t and of the metric, its largest gap to the
    closed form is within 1e-11 of the largest closed-form symbol."""
    rng = np.random.default_rng([sum(map(ord, scenario.name + chart))])
    lo, hi = np.array(scenario.atlas.chart(chart).box).T
    for t_sign in (+1, -1):
        x = rng.uniform(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi, (10, lo.size))
        raw = np.column_stack([x, t_sign * rng.uniform(0.5, 1.5, 10)])
        for sign in (+1, -1):
            kk = scenario.kk(sign)
            oracle = christoffel_numeric(kk, raw, chart=chart)
            for row, numeric in zip(raw, oracle):
                closed = kaluza.christoffel_closed(kk, row, chart=chart)
                assert np.max(np.abs(numeric - closed)) <= 1e-11 * np.max(np.abs(closed)), (t_sign, sign, row)


@pytest.mark.parametrize("chart", ["angular", "stereo_n", "stereo_s"])
@pytest.mark.parametrize("name, params", [("lightcone", {}), ("thakurta", {"U": "t"}), ("thakurta", NONLINEAR_THAKURTA)],
                         ids=["lightcone", "thakurta_u_t", "thakurta_nonlinear_u"])
def test_a_conformal_closed_form_call_reads_no_block_and_inverts_nothing(name, params, chart, monkeypatch):
    """lightcone and thakurta register the jet of their block g_M = Omega(t) h(x),
    expression text with exact partials in x and t: a closed-form call reads
    no block and calls no LAPACK inverse (its kernel inverts the block on floats)."""
    scenario = cg.load(name, **params)
    reads, inverses = [], []
    at, inverse = DegenerateMetric.at, np.linalg.inv
    monkeypatch.setattr(DegenerateMetric, "at", lambda self, *args: reads.append(args) or at(self, *args))
    monkeypatch.setattr(kaluza, "_inverse", lambda g: inverses.append(g) or inverse(g))
    monkeypatch.setattr(np.linalg, "inv", lambda g: inverses.append(g) or inverse(g))
    for p in scenario.sample_points(np.random.default_rng(7), 6, chart=chart, include_negative_t=True):
        for sign in (+1, -1):
            kaluza.christoffel_closed(scenario.kk(sign), p)
            assert reads == [] and inverses == []
