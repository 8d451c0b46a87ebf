"""Seeded inputs, operations and pass rules for the three benchmark workloads.

An operation ("op") is one unit of closed-loop work: one null orbit, one
scenario check or atlas linearization, or one `carrollgeo` process. Each op
carries its own reference check at a pinned tolerance; nothing is compared
byte for byte. Member ranges and the defects that bound them are recorded in
README.md next to this file.

The package is always reached through module attributes looked up at call
time (``cg.load``, ``cg.integrate``, ``suites.run_all``, ...), so the tracer
in ``tracer.py`` can wrap them without touching ``src/``.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMO_SCENARIO = ROOT / "docs" / "examples" / "scenario_demo.ini"
DEMO_ATLAS = ROOT / "docs" / "examples" / "atlas_twochart.ini"
REPORT_SCHEMA = ROOT / "docs" / "report_schema.json"

WORKLOADS = ("orbits", "checks", "cli")

# pinned tolerances
DRIFT_TOL = 1e-8  # null and charge drift of every orbit
ENDPOINT_TOL = 1e-8  # analytic equatorial endpoint (phi, theta, t / t_ref - 1)
COCYCLE_TOL = 1e-8  # linearize pair / triple residuals, moebius |c| - 1
CLOSED_FORM_TOL = 1e-6  # christoffel --count: closed form vs oracle, zero gauge

LAMBDA = 2.0  # affine length of every orbit
SCHWARZSCHILD_GM = 0.5  # horizon radius 2 GM = 1


@dataclass
class Op:
    """One timed call (``run``) and its untimed pass rule (``check``).

    ``check`` returns None when the result is correct, else the reason.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    tags: dict = field(default_factory=dict)


def package():
    import carrollgeo

    return carrollgeo


def module(name: str):
    # ``carrollgeo.linearize`` the attribute is a function; the module lives in sys.modules
    return importlib.import_module(f"carrollgeo.{name}")


# ---------------------------------------------------------------------------
# generated input files
# ---------------------------------------------------------------------------

GRID_AXIS = np.linspace(-2.0, 2.0, 17)


def write_grid_scenario(directory: Path, rng: np.random.Generator) -> Path:
    """A 2d scenario sampled on a CSV grid, with a nonzero gauge field.

    g = [[1 + a x1^2, 0.1 b sin(x1 + x2)], [., 1.5 + c x2^2]] and
    A = (al x2, be sin x1), coefficients drawn from ``rng``. The metric is
    fiber-independent, so the file declares Euler-Killing with weight 0.
    """
    a, b, c = (float(v) for v in rng.uniform(0.2, 0.6, 3))
    al, be = (float(v) for v in rng.uniform(0.2, 0.8, 2))
    with open(directory / "grid_metric.csv", "w") as metric, open(directory / "grid_gauge.csv", "w") as gauge:
        metric.write("x1, x2, g11, g12, g21, g22\n")
        gauge.write("x1, x2, A1, A2\n")
        for x1, x2 in itertools.product(map(float, GRID_AXIS), repeat=2):
            g11, g12, g22 = 1.0 + a * x1 * x1, 0.1 * b * math.sin(x1 + x2), 1.5 + c * x2 * x2
            metric.write(f"{x1!r}, {x2!r}, {g11!r}, {g12!r}, {g12!r}, {g22!r}\n")
            gauge.write(f"{x1!r}, {x2!r}, {al * x2!r}, {be * math.sin(x1)!r}\n")
    path = directory / "grid_scenario.ini"
    path.write_text(
        "[meta]\nname = grid-plane\ndim = 2\ndefault_chart = main\n\n"
        "[charts]\nmain = box(-1.5, 1.5; -1.5, 1.5)\n\n"
        "[metric]\ntime_dependent = false\nmain = grid(grid_metric.csv)\n\n"
        "[gauge]\nmain = grid(grid_gauge.csv)\n\n"
        "[expects]\neuler_killing = true\nweight = 0\n"
    )
    return path


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Member:
    """Initial data of one ensemble member and what its reference checks."""

    cls: str
    x0: tuple
    u: tuple
    q: float
    t0: float
    eps: int
    fiber_independent: bool
    equatorial: bool = False


def _signed(rng, lo, hi) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _angle_dir(rng) -> tuple:
    a = float(rng.uniform(0.0, 2.0 * math.pi))
    return (math.cos(a), math.sin(a))


def _near_equator(rng) -> tuple:
    return (float(math.pi / 2 + rng.uniform(-0.3, 0.3)), float(rng.uniform(-1.0, 1.0)))


def _tilted_dir(rng) -> tuple:
    # heading within 0.5 rad of the phi axis keeps theta inside (0.6, 2.5) for lambda = 2
    a = float(rng.uniform(-0.5, 0.5))
    return (math.sin(a), math.cos(a))


# One round of the stratified ensemble: seven slots, so the median op falls
# inside a class rather than on the boundary between two equal halves.
ORBIT_CLASSES = (
    "schwarzschild_equatorial",
    "schwarzschild_tilted",
    "sphere_stereo",
    "flat_gauge",
    "demo_file",
    "thakurta_qpos",
    "lightcone_qneg",
)


def draw_member(cls: str, rng: np.random.Generator) -> Member:
    eps = int(rng.choice([-1, 1]))
    t0_signed = _signed(rng, 0.5, 2.0)
    if cls == "schwarzschild_equatorial":
        return Member(cls, (math.pi / 2, float(rng.uniform(-1.0, 1.0))), (0.0, 1.0),
                      _signed(rng, 0.5, 1.0), t0_signed, eps, True, equatorial=True)
    if cls == "schwarzschild_tilted":
        return Member(cls, _near_equator(rng), _tilted_dir(rng), _signed(rng, 0.5, 1.0), t0_signed, eps, True)
    if cls == "sphere_stereo":
        x0 = tuple(float(v) for v in rng.uniform(-0.3, 0.3, 2))
        return Member(cls, x0, _angle_dir(rng), _signed(rng, 0.3, 0.6), t0_signed, eps, True)
    if cls == "flat_gauge":
        x0 = tuple(float(v) for v in rng.uniform(-0.5, 0.5, 2))
        return Member(cls, x0, _angle_dir(rng), _signed(rng, 0.3, 0.6), t0_signed, eps, True)
    if cls == "demo_file":
        x0 = tuple(float(v) for v in rng.uniform(-0.4, 0.4, 2))
        return Member(cls, x0, _angle_dir(rng), _signed(rng, 0.3, 0.5), t0_signed, eps, True)
    if cls == "thakurta_qpos":
        return Member(cls, _near_equator(rng), _tilted_dir(rng), float(rng.uniform(0.5, 1.0)),
                      float(rng.uniform(0.5, 1.5)), eps, False)
    if cls == "lightcone_qneg":
        return Member(cls, _near_equator(rng), _tilted_dir(rng), -float(rng.uniform(0.5, 1.0)),
                      float(rng.uniform(0.5, 1.5)), eps, False)
    raise ValueError(f"unknown orbit class {cls!r}")


def flat_gauge_field(cg):
    """The nonzero gauge field A = (x1 x2, 0.3 sin x1) on flat(2)."""
    return cg.GaugeField(components={"cartesian": lambda x: np.array([x[0] * x[1], 0.3 * math.sin(x[0])])})


class OrbitContext:
    """Scenarios loaded once in set-up; members refer to them by class."""

    def __init__(self):
        cg = package()
        rng = np.random.default_rng(0)
        schwarzschild = cg.load("schwarzschild", rng=rng, GM=SCHWARZSCHILD_GM)
        self.gauge = flat_gauge_field(cg)
        # class -> (scenario, chart, gauge override)
        self.setups = {
            "schwarzschild_equatorial": (schwarzschild, "angular", None),
            "schwarzschild_tilted": (schwarzschild, "angular", None),
            "sphere_stereo": (cg.load("sphere_pullback", rng=rng), "stereo_n", None),
            "flat_gauge": (cg.load("flat", rng=rng, n=2), "cartesian", self.gauge),
            "demo_file": (cg.load(str(DEMO_SCENARIO), rng=rng), "main", None),
            "thakurta_qpos": (cg.load("thakurta", rng=rng, GM=SCHWARZSCHILD_GM, U="t"), "angular", None),
            "lightcone_qneg": (cg.load("lightcone", rng=rng), "angular", None),
        }

    def op(self, member: Member, lambda_max: float = LAMBDA) -> Op:
        cg = package()
        scenario, chart, gauge = self.setups[member.cls]

        def run():
            u = cg.unit_direction(scenario, np.array(member.x0), np.array(member.u), member.t0, chart)
            spec = cg.NullShootSpec(x0=np.array(member.x0), u=u, q=member.q, t0=member.t0,
                                    eps=member.eps, chart=chart)
            state = cg.shoot_null(spec, scenario, gauge=gauge)
            return cg.integrate(state, scenario, cg.IntegratorConfig(lambda_max=lambda_max),
                                gauge=gauge, chart=chart)

        return Op(member.cls, run, lambda traj: check_orbit(traj, member, lambda_max),
                  {"scenario": scenario.name, "fiber_independent": member.fiber_independent})


def check_orbit(traj, member: Member, lambda_max: float) -> str | None:
    if traj.events:
        return f"unexpected stop {traj.events[0]}"
    if traj.lam[-1] != lambda_max:
        return f"stopped at lambda {traj.lam[-1]!r} without an event"
    drift = traj.max_null_drift()
    if not drift <= DRIFT_TOL:
        return f"null drift {drift:.3e} > {DRIFT_TOL:g}"
    if member.fiber_independent:
        drift = traj.max_charge_drift()
        if not drift <= DRIFT_TOL:
            return f"charge drift {drift:.3e} > {DRIFT_TOL:g}"
    if member.equatorial:
        # great circle on the equator: phi grows linearly, t = t0 exp(-q lambda)
        radius = 2.0 * SCHWARZSCHILD_GM
        phi = member.x0[1] + member.eps * abs(member.q) * lambda_max / radius
        t_ref = member.t0 * math.exp(-member.q * lambda_max)
        errors = (abs(traj.x[-1, 0] - math.pi / 2), abs(traj.x[-1, 1] - phi), abs(traj.t[-1] / t_ref - 1.0))
        if not max(errors) <= ENDPOINT_TOL:
            return f"equatorial endpoint off by {max(errors):.3e}"
    return None


def orbit_members(seed: int) -> Iterator[Member]:
    """Endless stratified stream: round k draws one member per class."""
    rng = np.random.default_rng([seed, 1])
    for cls in itertools.cycle(ORBIT_CLASSES):
        yield draw_member(cls, rng)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

CATALOG_CHECKS = (
    ("flat", {"n": 2}),
    ("lightcone", {}),
    ("sphere_pullback", {}),
    ("moebius", {}),
    ("schwarzschild", {"GM": SCHWARZSCHILD_GM}),
    ("thakurta", {"GM": SCHWARZSCHILD_GM, "U": "t"}),
)


def scenario_check_op(kind: str, name: str, params: dict, entropy: list[int]) -> Op:
    cg = package()
    suites = module("suites")

    def run():
        rng = np.random.default_rng(entropy)
        return suites.run_all(cg.load(name, rng=rng, **params), rng)

    def check(results) -> str | None:
        bad = [r.name for r in results if not r.passed]
        return f"failed checks {bad}" if bad else None

    return Op(kind, run, check, {"scenario": kind})


# Samples per overlap for the checks workload's atlases (the package default
# is 32). At 256 the moebius linearization costs about as much as one
# scenario check and the other two cost more, so the median op falls in the
# middle of the scenario checks rather than at their fast edge.
ATLAS_SAMPLES = 256


def atlas_op(kind: str) -> Op:
    lin = module("linearize")
    build = {
        "moebius": lin.moebius_transition_atlas,
        "synthetic": lin.synthetic_circle_atlas,
        "atlas_file": lambda samples_per_overlap: lin.load_atlas_file(DEMO_ATLAS, samples_per_overlap),
    }[kind]

    def run():
        return lin.linearize(lin.shift_transitions(build(samples_per_overlap=ATLAS_SAMPLES)))

    def check(cocycle) -> str | None:
        worst = max(cocycle.pair_residual, cocycle.triple_residual)
        if not worst <= COCYCLE_TOL:
            return f"cocycle residual {worst:.3e} > {COCYCLE_TOL:g}"
        if kind == "moebius":
            values = np.concatenate([s.c for s in cocycle.sampled])
            off = float(np.max(np.abs(np.abs(values) - 1.0)))
            if not off <= COCYCLE_TOL:
                return f"moebius cocycle not +-1 (off by {off:.3e})"
        return None

    return Op(f"linearize_{kind}", run, check, {"atlas": kind})


def check_ops(seed: int, grid_path: Path) -> Iterator[Op]:
    """Endless cycle of 11 ops: 8 scenario checks and 3 linearizations."""
    for k in itertools.count():
        sub = [seed, 2, k]
        for i, (name, params) in enumerate(CATALOG_CHECKS):
            yield scenario_check_op(name, name, params, sub + [i])
        yield scenario_check_op("demo_file", str(DEMO_SCENARIO), {}, sub + [6])
        yield scenario_check_op("grid_file", str(grid_path), {}, sub + [7])
        for kind in ("moebius", "synthetic", "atlas_file"):
            yield atlas_op(kind)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    "scenarios_list",
    "check_catalog",
    "check_file",
    "null_shoot",
    "geodesic",
    "geodesic_small_gauge",
    "christoffel_count",
    "linearize_atlas",
    "linearize_file",
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# what the installed `carrollgeo` console script runs
CLI_ENTRY = "import sys; from carrollgeo.cli import main; sys.exit(main())"


@dataclass
class CliResult:
    code: int
    stdout: str


def run_process(argv: list[str], cwd: Path, env: dict) -> CliResult:
    """Run one child to completion, its output captured in files under ``cwd``."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=out, stderr=err).returncode
    return CliResult(code, (cwd / "stdout.txt").read_text())


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def cli_args(command: str, rng: np.random.Generator, grid_path: Path, seed: int) -> list[str]:
    if command == "scenarios_list":
        return ["scenarios", "list"]
    if command == "check_catalog":
        return ["check", "schwarzschild", "--param", f"GM={SCHWARZSCHILD_GM}", "--seed", str(seed),
                "--out", "report_catalog.json"]
    if command == "check_file":
        return ["check", str(grid_path), "--seed", str(seed), "--out", "report_file.json"]
    if command == "null_shoot":
        return ["null-shoot", "schwarzschild", "--param", f"GM={SCHWARZSCHILD_GM}",
                "--point", f"pi/2, {_fmt(rng.uniform(-1.0, 1.0))}", "--dir", "0, 1",
                "--q", _fmt(_signed(rng, 0.5, 1.0)), "--out", "orbit.csv"]
    if command == "geodesic":
        x = rng.uniform(-0.3, 0.3, 2)
        v = rng.uniform(-0.1, 0.1, 2)
        t0 = rng.uniform(0.5, 1.5)
        vt = -t0 * rng.uniform(0.3, 0.8)
        state = ", ".join(_fmt(c) for c in (*x, t0, *v, vt))
        return ["geodesic", "flat", "--state", state, "--format", "svg", "--out", "path.svg"]
    if command == "geodesic_small_gauge":
        x = rng.uniform(-0.3, 0.3, 2)
        d = _angle_dir(rng)
        state = ", ".join(_fmt(c) for c in (*x, *d))
        return ["geodesic", "flat", "--small-gauge", "--field", _fmt(rng.uniform(0.5, 1.5)),
                "--state", state, "--out", "circle.svg"]
    if command == "christoffel_count":
        return ["christoffel", "schwarzschild", "--param", f"GM={SCHWARZSCHILD_GM}", "--count", "5",
                "--seed", str(seed), "--out", "symbols.csv"]
    if command == "linearize_atlas":
        return ["linearize", "moebius", "--out", "cocycle_moebius.csv"]
    if command == "linearize_file":
        return ["linearize", str(DEMO_ATLAS), "--out", "cocycle_file.csv"]
    raise ValueError(f"unknown command {command!r}")


class CliChecker:
    """Parses what each command wrote; check reports go through the repo schema."""

    def __init__(self, workdir: Path):
        import jsonschema

        self.workdir = workdir
        schema = json.loads(REPORT_SCHEMA.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def _csv(self, name: str) -> list[list[str]]:
        with open(self.workdir / name, newline="") as handle:
            return [[c.strip() for c in row] for row in csv.reader(handle) if row]

    def _report(self, name: str) -> str | None:
        report = json.loads((self.workdir / name).read_text())
        errors = list(self.validator.iter_errors(report))
        if errors:
            return f"report {name} violates the schema: {errors[0].message}"
        return None if report["passed"] else f"report {name} did not pass"

    def _svg(self, name: str) -> str | None:
        root = ET.parse(self.workdir / name).getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        return None if lines and lines[0].get("points") else f"{name} has no polyline"

    def _cocycle(self, name: str, unit: bool) -> str | None:
        rows = self._csv(name)
        if rows[0] != ["to", "src", "m", "c"] or len(rows) < 2:
            return f"{name} is not a cocycle table"
        values = np.array([float(r[3]) for r in rows[1:]])
        if unit and not float(np.max(np.abs(np.abs(values) - 1.0))) <= COCYCLE_TOL:
            return "moebius cocycle not +-1"
        return None

    def check(self, command: str, result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}"
        if command == "scenarios_list":
            names = sorted(line.split()[0] for line in result.stdout.splitlines() if line.strip())
            return None if names == sorted(n for n, _ in CATALOG_CHECKS) else f"listed {names}"
        if command == "check_catalog":
            return self._report("report_catalog.json")
        if command == "check_file":
            return self._report("report_file.json")
        if command == "null_shoot":
            rows = self._csv("orbit.csv")
            if rows[0][:2] != ["lambda", "x1"] or len(rows) < 3:
                return "orbit.csv is not a trajectory table"
            final = float(rows[-1][0])
            return None if final == 5.0 else f"orbit stopped at lambda {final}"
        if command in ("geodesic", "geodesic_small_gauge"):
            return self._svg("path.svg" if command == "geodesic" else "circle.svg")
        if command == "christoffel_count":
            rows = self._csv("symbols.csv")
            if len(rows) != 1 + 5 * 3 * 6:
                return f"symbols.csv has {len(rows)} lines"
            worst = max(float(r[-1]) for r in rows[1:])
            return None if worst <= CLOSED_FORM_TOL else f"closed form off the oracle by {worst:.3e}"
        if command == "linearize_atlas":
            return self._cocycle("cocycle_moebius.csv", unit=True)
        if command == "linearize_file":
            return self._cocycle("cocycle_file.csv", unit=False)
        raise ValueError(f"unknown command {command!r}")


def cli_ops(seed: int, workdir: Path, grid_path: Path, checker: CliChecker) -> Iterator[Op]:
    """Endless cycle of the nine documented commands, each a fresh process."""
    env = child_env()
    rng = np.random.default_rng([seed, 3])
    for k in itertools.count():
        for command in CLI_COMMANDS:
            argv = [sys.executable, "-c", CLI_ENTRY, *cli_args(command, rng, grid_path, seed + k)]

            def run(argv=argv):
                return run_process(argv, workdir, env)

            yield Op(command, run, lambda res, c=command: checker.check(c, res), {"command": command})

