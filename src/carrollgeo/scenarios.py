"""Built-in scenario catalog and scenario-file ingestion.

A scenario bundles an atlas, a degenerate metric, a default gauge field,
the registered jet of each chart's base block (``jet``: a ``kaluza.Jet``, the
entries and their exact partials, from which the closed form takes its
symbols) and the properties it is expected to satisfy. Loading only builds
the scenario; the check suites verify the declared expectations.

Catalog: flat(n), lightcone, sphere_pullback, moebius, schwarzschild(GM),
thakurta(GM, U). Sphere scenarios carry an angular chart (kept inside a
guard band away from the poles, for the closed-form equatorial runs) plus
two stereographic charts that cover the poles; their blocks are expression
text, built as a scenario file's ``matrix(...)`` is.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._grid import MIN_NODES, GridSpline
from .connection import ConnectionOneForm, GaugeField
from .errors import ConstructionError, ContractViolation
from .expressions import (compile_expression, generate, ini_keys, ini_value, parse_bool, parse_number, parse_pair,
                          read_ini, read_text, unwrap)
from .geometry import (
    Atlas,
    Chart,
    ChartTransition,
    DegenerateMetric,
    Point,
    dot,
)
from .kaluza import Jet, KKMetric


# ---------------------------------------------------------------------------
# scenario container
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    dim: int
    atlas: Atlas
    metric: DegenerateMetric
    gauge: GaugeField
    default_chart: str
    params: dict = field(default_factory=dict)
    expects: dict = field(default_factory=dict)
    jet: Mapping[str, Jet] | None = None  # chart -> its block's registered jet
    description: str = ""

    def point(self, x, t: float, chart: str | None = None) -> Point:
        return Point(np.asarray(x, dtype=float), t, chart or self.default_chart)

    def connection(self) -> ConnectionOneForm:
        return ConnectionOneForm(self.gauge)

    def kk(self, sign: int, gauge: GaugeField | None = None) -> KKMetric:
        """The non-degenerate metric of sign ``sign``, with this scenario's
        gauge field or ``gauge``."""
        return KKMetric(
            sign=int(sign),
            metric=self.metric,
            gauge=self.gauge if gauge is None else gauge,
            jet=self.jet,
        )

    def sample_points(
        self,
        rng: np.random.Generator,
        count: int,
        chart: str | None = None,
        include_negative_t: bool = False,
    ) -> list[Point]:
        """``count`` points of ``chart``, with fiber coordinate |t| drawn from [0.5, 2)."""
        if count < 0:
            raise ContractViolation(f"sample count must be >= 0, got {count}")
        name = chart or self.default_chart
        c = self.atlas.chart(name)
        xs = c.sample(rng, count)
        ts = rng.uniform(0.5, 2.0, size=count)
        if include_negative_t:
            ts *= rng.choice([-1.0, 1.0], size=count)
        return [Point(x, float(t), name) for x, t in zip(xs, ts)]


# ---------------------------------------------------------------------------
# round-sphere building blocks
# ---------------------------------------------------------------------------

def _angular_to_stereo(x: np.ndarray) -> np.ndarray:
    theta, phi = x
    rho = 1.0 / math.tan(theta / 2.0)
    return np.array([rho * math.cos(phi), rho * math.sin(phi)])


def _stereo_inversion(x: np.ndarray) -> np.ndarray:
    xs = x.tolist()
    return np.array([x[0], -x[1]]) / dot(xs, xs)


_POLE_GUARD = 0.02


def sphere_atlas() -> Atlas:
    angular = Chart(
        name="angular",
        coords=("theta", "phi"),
        box=((0.4, math.pi - 0.4), (-3.0, 3.0)),
        domain=lambda x: _POLE_GUARD < x[0] < math.pi - _POLE_GUARD,
    )
    stereo_n = Chart(name="stereo_n", coords=("X", "Y"), box=((-1.5, 1.5), (-1.5, 1.5)))
    stereo_s = Chart(name="stereo_s", coords=("X", "Y"), box=((-1.5, 1.5), (-1.5, 1.5)))
    one = lambda x: 1.0
    transitions = [
        ChartTransition(
            src="angular",
            dst="stereo_n",
            base_map=_angular_to_stereo,
            fiber_factor=one,
            overlap_box=((0.5, math.pi - 0.5), (-3.0, 3.0)),
            label="band",
        ),
        ChartTransition(
            src="stereo_n",
            dst="stereo_s",
            base_map=_stereo_inversion,
            fiber_factor=one,
            overlap_box=((0.3, 1.4), (0.3, 1.4)),
            label="quadrant",
        ),
        ChartTransition(
            src="stereo_s",
            dst="stereo_n",
            base_map=_stereo_inversion,
            fiber_factor=one,
            overlap_box=((0.3, 1.4), (0.3, 1.4)),
            label="quadrant",
        ),
    ]
    return Atlas([angular, stereo_n, stereo_s], transitions)


# ---------------------------------------------------------------------------
# circle atlases
# ---------------------------------------------------------------------------

_ARC_HALF_WIDTH = 2.2


def circle_atlas(fiber_upper: Callable[[float], float], fiber_lower: Callable[[float], float]) -> Atlas:
    """Two-arc cover of the circle with prescribed fiber transition factors.

    ``fiber_upper`` acts on the overlap near +pi/2, ``fiber_lower`` near
    -pi/2; both are functions of the east-chart angle. West-chart angles run
    in (pi - a, pi + a) so the lower overlap sits at east angle theta - 2 pi.
    """
    a = _ARC_HALF_WIDTH
    east = Chart(name="east", coords=("theta",), box=((-a + 0.05, a - 0.05),))
    west = Chart(name="west", coords=("theta",), box=((math.pi - a + 0.05, math.pi + a - 0.05),))

    upper = (math.pi - a, a)
    lower_east = (-a, -(math.pi - a))
    lower_west = (2.0 * math.pi - a, math.pi + a)

    transitions = [
        ChartTransition(
            src="east", dst="west",
            base_map=lambda x: np.array([x[0]]),
            fiber_factor=lambda x: fiber_upper(float(x[0])),
            overlap_box=(upper,), label="upper",
        ),
        ChartTransition(
            src="west", dst="east",
            base_map=lambda x: np.array([x[0]]),
            fiber_factor=lambda x: 1.0 / fiber_upper(float(x[0])),
            overlap_box=((upper[0], upper[1]),), label="upper",
        ),
        ChartTransition(
            src="east", dst="west",
            base_map=lambda x: np.array([x[0] + 2.0 * math.pi]),
            fiber_factor=lambda x: fiber_lower(float(x[0])),
            overlap_box=(lower_east,), label="lower",
        ),
        ChartTransition(
            src="west", dst="east",
            base_map=lambda x: np.array([x[0] - 2.0 * math.pi]),
            fiber_factor=lambda x: 1.0 / fiber_lower(float(x[0]) - 2.0 * math.pi),
            overlap_box=(lower_west,), label="lower",
        ),
    ]
    return Atlas([east, west], transitions)


# ---------------------------------------------------------------------------
# catalog builders
# ---------------------------------------------------------------------------

def _number_param(params: Mapping, key: str, default: float) -> float:
    """A numeric catalog parameter; a string is read as a constant expression."""
    value = params.get(key, default)
    if isinstance(value, str):
        value = parse_number(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConstructionError(f"parameter {key} must be a number, got {value!r}") from None


def _mass_param(params: Mapping) -> tuple[float, float]:
    """GM and the squared radius (2 GM)^2, the one way GM enters the metric: a positive, finite, normal float."""
    gm = _number_param(params, "GM", 0.5)
    try:
        radius2 = (2.0 * gm) ** 2
    except OverflowError:
        radius2 = math.inf
    if not (gm > 0.0 and sys.float_info.min <= radius2 < math.inf):
        raise ConstructionError(f"parameter GM must be positive with (2 GM)^2 a finite, normal float, got {gm:g}")
    return gm, radius2


def _identity_block(n: int, charts: Sequence[str]) -> tuple[DegenerateMetric, dict[str, Jet]]:
    """The identity block on ``charts`` and its constant jet, built once: one read-only array and one tuple,
    which no caller can change."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return DegenerateMetric(blocks=dict.fromkeys(charts, lambda x, t: eye)), dict.fromkeys(charts, Jet.constant(eye))


def _build_flat(params: Mapping) -> Scenario:
    n = _number_param(params, "n", 2)
    # the oracle's stacked stencil grows like n^4: flat(32) checks in ~0.2 s and ~110 MB
    if not (1 <= n <= 32 and n.is_integer()):
        raise ConstructionError(f"flat scenario needs an integer n with 1 <= n <= 32, got {n:g}")
    n = int(n)
    chart = Chart(name="cartesian", coords=tuple(f"x{i + 1}" for i in range(n)), box=((-2.0, 2.0),) * n)
    metric, jet = _identity_block(n, ["cartesian"])
    return Scenario(name=f"flat({n})", dim=n, atlas=Atlas([chart]), metric=metric,
                    gauge=GaugeField.trivial(n, ["cartesian"]), default_chart="cartesian", params={"n": n},
                    expects={"euler_killing": True, "weight": 0.0}, jet=jet,
                    description="Euclidean base metric on a trivial bundle")


def _build_sphere_like(name, radius2, scale, params, expects, description):
    """Common assembly for the sphere-based scenarios: the round block of radius^2 ``radius2`` on each chart as
    expression text, its entries multiplied by the text ``scale`` in t where one is given, built as a scenario
    file's ``matrix(...)`` is (``_expression_block``). The angular block is radius^2 (dtheta^2 + sin^2 theta
    dphi^2) at (theta, phi), the stereographic ones 4 radius^2 / (1 + |x|^2)^2 times delta, |x|^2 summed in
    index order."""
    r2 = repr(radius2)
    stereo = f"4.0 * {r2} / (1 + (x1*x1 + x2*x2))^2"
    texts = {"angular": (r2, "0", "0", f"{r2} * sin(x1)^2"), "stereo_n": (stereo, "0", "0", stereo)}
    texts["stereo_s"] = texts["stereo_n"]
    if scale is not None:
        texts = {chart: tuple(e if e == "0" else f"{scale} * ({e})" for e in entries)
                 for chart, entries in texts.items()}
    built = {chart: _expression_block(entries, 2, scale is not None) for chart, entries in texts.items()}
    metric = DegenerateMetric(blocks={c: gm for c, (gm, _) in built.items()}, time_dependent=scale is not None)
    return Scenario(name=name, dim=2, atlas=sphere_atlas(), metric=metric, gauge=GaugeField.trivial(2, list(texts)),
                    default_chart="angular", params=params, expects=expects,
                    jet={c: jet for c, (_, jet) in built.items()}, description=description)


def _build_sphere_pullback(params: Mapping) -> Scenario:
    return _build_sphere_like("sphere_pullback", 1.0, None, {}, {"euler_killing": True, "weight": 0.0},
                              "unit round sphere pulled back to a trivial bundle")


def _build_schwarzschild(params: Mapping) -> Scenario:
    gm, radius2 = _mass_param(params)
    return _build_sphere_like(f"schwarzschild(GM={gm:g})", radius2, None, {"GM": gm, "radius": 2.0 * gm},
                              {"euler_killing": True, "weight": 0.0},
                              "horizon sphere of radius 2*GM with a fiber-independent metric")


def _build_lightcone(params: Mapping) -> Scenario:
    return _build_sphere_like("lightcone", 1.0, "t^2", {}, {"euler_killing": False, "weight": 2.0},
                              "round sphere scaled by t^2 (degree-two homogeneous)")


def _build_thakurta(params: Mapping) -> Scenario:
    gm, radius2 = _mass_param(params)
    u_text = str(params.get("U", "t"))
    compile_expression(u_text, ("t",))  # U reads t alone; the blocks embed its text
    return _build_sphere_like(f"thakurta(GM={gm:g}, U={u_text})", radius2, f"exp(-({u_text}))",
                              {"GM": gm, "radius": 2.0 * gm, "U": u_text}, {"euler_killing": False, "conformal": True},
                              "horizon sphere with a fiber-dependent conformal factor exp(-U(t))")


def _build_moebius(params: Mapping) -> Scenario:
    metric, jet = _identity_block(1, ["east", "west"])
    atlas = circle_atlas(fiber_upper=lambda th: 1.0, fiber_lower=lambda th: -1.0)
    return Scenario(name="moebius", dim=1, atlas=atlas, metric=metric, gauge=GaugeField.trivial(1, ["east", "west"]),
                    default_chart="east", params={},
                    expects={"euler_killing": True, "weight": 0.0}, jet=jet,
                    description="flat circle metric on the twisted two-chart bundle")


# name -> (builder, the parameter keys the builder reads)
_CATALOG: dict[str, tuple[Callable[[Mapping], Scenario], tuple[str, ...]]] = {
    "flat": (_build_flat, ("n",)),
    "lightcone": (_build_lightcone, ()),
    "sphere_pullback": (_build_sphere_pullback, ()),
    "moebius": (_build_moebius, ()),
    "schwarzschild": (_build_schwarzschild, ("GM",)),
    "thakurta": (_build_thakurta, ("GM", "U")),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_params(name_or_path: str) -> tuple[str, ...]:
    """The parameter keys ``load`` reads for this name: those of a catalog
    scenario's builder, none for a scenario file."""
    entry = _CATALOG.get(name_or_path.strip())
    return () if entry is None else entry[1]


# ---------------------------------------------------------------------------
# grid-sampled fields (CSV, not-a-knot cubic spline)
# ---------------------------------------------------------------------------

def _read_grid_rows(path: Path) -> tuple[list[str], np.ndarray]:
    """The header and the data rows of a grid CSV; blank lines are skipped."""
    reader = csv.reader(io.StringIO(read_text(path, "grid file")))
    header = [h.strip() for h in next(reader, [])]
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ConstructionError(
                f"grid file {path}, line {reader.line_num}: {len(row)} cells, expected {len(header)}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ConstructionError(f"grid file {path}, line {reader.line_num}: a cell is not a number") from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if not np.isfinite(table).all():  # one bad node would reach every cell of the spline
        raise ConstructionError(f"grid file {path}: every cell must be finite")
    return header, table


def _load_grid_table(path: Path, n_values: int, n_coords: int) -> GridSpline:
    """The spline through a grid CSV of ``n_coords`` coordinate and ``n_values`` value columns."""
    header, rows = _read_grid_rows(path)
    found = len(header) - n_values
    if found != n_coords:
        detail = "too few columns" if found < 1 else f"{found} coordinate columns"
        raise ConstructionError(f"grid file {path} has {detail}, expected {n_coords} coordinate columns")
    coords = rows[:, :n_coords]
    values = rows[:, n_coords:]
    axes = [np.unique(coords[:, i]) for i in range(n_coords)]
    for name, nodes in zip(header, axes):
        if len(nodes) < MIN_NODES:
            raise ConstructionError(
                f"grid file {path}: axis {name} has {len(nodes)} nodes, a cubic spline needs at least {MIN_NODES}"
            )
    expected = int(np.prod([len(a) for a in axes]))
    distinct = len(np.unique(coords, axis=0))
    if distinct != expected or rows.shape[0] != expected:
        raise ConstructionError(
            f"grid file {path} is not a full tensor grid ({rows.shape[0]} rows at {distinct} distinct points, "
            f"expected {expected})"
        )
    order = np.lexsort(tuple(coords[:, i] for i in reversed(range(n_coords))))
    shaped = values[order].reshape(*(len(a) for a in axes), n_values)
    return GridSpline(axes, shaped)


def load_metric_grid(path: str | Path, dim: int, time_dependent: bool) -> Callable[[np.ndarray, float], np.ndarray]:
    """Metric block from a CSV grid: coordinate columns, then row-major entries."""
    spline = _load_grid_table(Path(path), dim * dim, dim + (1 if time_dependent else 0))

    def gm(x: np.ndarray, t: float) -> np.ndarray:
        flat = spline(np.append(x, t) if time_dependent else x).reshape(dim, dim)
        return 0.5 * (flat + flat.T)

    return gm


def load_gauge_grid(path: str | Path, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Gauge field from a CSV grid with the same column convention."""
    spline = _load_grid_table(Path(path), dim, dim)

    def a_fn(x: np.ndarray) -> np.ndarray:
        return spline(x).reshape(dim)

    return a_fn


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(parse_pair(span) for span in unwrap(text, "box")[1].split(";"))


def _parse_matrix(text: str, dim: int, time_dependent: bool, folder: Path) -> tuple[Callable, Jet | None]:
    """The base block of a [metric] entry, expressions in x1..xn, t (with its ``Jet``, ``_expression_block``)
    or a grid file beside the scenario file (with None)."""
    kind, body = unwrap(text, "matrix", "grid")
    if kind == "grid":
        return load_metric_grid(folder / body.strip(), dim, time_dependent), None
    rows = body.split(";")
    if len(rows) != dim:
        raise ConstructionError(f"matrix has {len(rows)} rows, expected {dim}")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != dim:
            raise ConstructionError(f"matrix row has {len(cols)} entries, expected {dim}")
        entries.extend(c.strip() for c in cols)
    return _expression_block(tuple(entries), dim, time_dependent)


@lru_cache(maxsize=256)
def _expression_block(entries: tuple[str, ...], dim: int, time_dependent: bool) -> tuple[Callable, Jet]:
    """The base block whose entries, row by row, are the expressions ``entries`` in x1..xn, t, and its jet,
    built once per text: one generated function gives the entries and then their exact partials on the axes
    x1..xn (and t for a fiber-dependent block) as ``Jet`` lays them out. An entry that is the constant 0 and a
    partial on an axis its entry does not read are the jet's structural zeros. A reload of the same text, from
    a file or the catalog, builds nothing."""
    variables = tuple(f"x{i + 1}" for i in range(dim)) + ("t",)
    exprs = [compile_expression(e, variables) for e in entries]
    axes = range(dim + 1 if time_dependent else dim)
    values, jet = generate([[(e, None) for e in exprs], [(e, None) for e in exprs]
                            + [(e, variables[c]) for c in axes for e in exprs]])
    zeros = tuple(e.tree == ("num", 0.0) for e in exprs) + tuple(c not in e.reads for c in axes for e in exprs)

    def gm(x: np.ndarray, t: float) -> np.ndarray:
        return np.array(values(*x.tolist(), float(t))).reshape(dim, dim)  # x: ``metric.at``'s float array

    return gm, Jet(jet, zeros, dim, time_dependent)


def _parse_vector(text: str, dim: int, folder: Path) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """The gauge field of a [gauge] entry, expressions in x1..xn or a grid file, and whether it is known to vanish."""
    kind, body = unwrap(text, "vector", "grid")
    if kind == "grid":
        return load_gauge_grid(folder / body.strip(), dim), False
    variables = tuple(f"x{i + 1}" for i in range(dim))
    comps = [compile_expression(c, variables) for c in body.split(",")]
    if len(comps) != dim:
        raise ConstructionError(f"vector has {len(comps)} entries, expected {dim}")
    values = generate([[(c, None) for c in comps]])[0]

    def a_fn(x: np.ndarray) -> np.ndarray:
        return np.array(values(*np.asarray(x, dtype=float).tolist()))

    # zero only when every component is a constant expression equal to 0
    return a_fn, not any(c.reads for c in comps) and values(*[0.0] * dim) == [0.0] * dim


def load_scenario_file(path: str | Path) -> Scenario:
    path = Path(path)
    parser = read_ini(path, "scenario file", ("meta", "charts", "metric"), ("gauge", "expects"))

    meta = parser["meta"]
    ini_keys(meta, ("name", "dim", "default_chart"))
    dim = ini_value(meta, "dim", int, default=0)
    if dim < 1:
        raise ConstructionError("[meta] dim must be a positive integer")
    name = meta.get("name", path.stem)

    charts = []
    for chart_name in parser["charts"]:
        box = ini_value(parser["charts"], chart_name, _parse_box)
        if len(box) != dim:
            raise ConstructionError(f"chart {chart_name} box has {len(box)} spans, expected {dim}")
        charts.append(Chart(name=chart_name, coords=tuple(f"x{i + 1}" for i in range(dim)), box=box))
    if not charts:
        raise ConstructionError(f"scenario file {path}: [charts] defines no chart")
    atlas = Atlas(charts)
    names = [c.name for c in charts]
    default_chart = meta.get("default_chart", names[0])
    if default_chart not in names:
        raise ConstructionError(f"[meta] default_chart = {default_chart!r} is not a chart of [charts]")

    metric_section = parser["metric"]
    ini_keys(metric_section, ("time_dependent", *names))
    time_dependent = ini_value(metric_section, "time_dependent", parse_bool, default=False)
    read_block = partial(_parse_matrix, dim=dim, time_dependent=time_dependent, folder=path.parent)
    blocks = {c: ini_value(metric_section, c, read_block) for c in names}
    metric = DegenerateMetric(blocks={c: gm for c, (gm, _) in blocks.items()}, time_dependent=time_dependent)
    # exact partials where every block is an expression, taken here: the entries of metric.blocks may be replaced
    jets = {c: jet for c, (_, jet) in blocks.items()}

    if "gauge" in parser:
        ini_keys(parser["gauge"], names)
        read_field = partial(_parse_vector, dim=dim, folder=path.parent)
        fields = {c: ini_value(parser["gauge"], c, read_field) for c in names}
        gauge = GaugeField(components={c: fn for c, (fn, _) in fields.items()},
                           is_zero=all(zero for _, zero in fields.values()))
    else:
        gauge = GaugeField.trivial(dim, names)

    section = parser["expects"] if "expects" in parser else {}
    converters = {"euler_killing": parse_bool, "weight": float, "conformal": parse_bool}
    ini_keys(section, converters)
    expects = {key: ini_value(section, key, convert) for key, convert in converters.items() if key in section}
    if expects.get("euler_killing") and expects.get("weight", 0.0) != 0.0:
        raise ConstructionError(f"[expects] euler_killing = true means weight 0, got weight = {expects['weight']:g}")

    return Scenario(
        name=name,
        dim=dim,
        atlas=atlas,
        metric=metric,
        gauge=gauge,
        default_chart=default_chart,
        params={},
        expects=expects,
        jet=jets if all(jet is not None for jet in jets.values()) else None,
        description=f"scenario file {path.name}",
    )


def load(name_or_path: str, **params) -> Scenario:
    """Load a catalog scenario by name, or a scenario file by path.

    Loading only builds the scenario: its declared expectations are checked
    by the suites (``suites.run_all``), not here. A catalog builder reads the
    ``params`` keys that ``catalog_params`` names and ignores any other; a
    scenario file reads none.
    """
    key = name_or_path.strip()
    if key in _CATALOG:
        return _CATALOG[key][0](params)
    p = Path(key)
    if not p.exists():
        raise ContractViolation(
            f"unknown scenario {name_or_path!r}; catalog: {', '.join(catalog_names())}"
        )
    return load_scenario_file(p)
