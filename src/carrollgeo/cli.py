"""Command-line front end.

Commands: check, geodesic, null-shoot, christoffel, linearize, scenarios.
Exit codes: 0 ok, 1 check failure, 2 usage error, 3 numeric failure.
Outputs are deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import scenarios as scen
from .errors import CarrollError, ConstructionError, ContractViolation, DomainError, NumericError
from .expressions import parse_number, parse_tuple
from .geodesics import (
    GeodesicState,
    IntegratorConfig,
    NullShootSpec,
    integrate,
    integrate_small_gauge,
    shoot_null,
    unit_direction,
)
from .geometry import read_raw
from .kaluza import christoffel_closed, christoffel_numeric
from .linearize import (
    linearize,
    load_atlas_file,
    moebius_transition_atlas,
    shift_transitions,
    synthetic_circle_atlas,
)
from .outputs import (
    check_writable,
    polyline_svg,
    write_christoffel_csv,
    write_report_json,
    write_text,
    write_trajectory_csv,
    write_trajectory_json,
    write_trajectory_svg,
)
from .suites import run_all


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ContractViolation(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key.strip()] = parse_number(value)
        except ConstructionError:
            params[key.strip()] = value.strip()
    return params


def _load_scenario(args) -> scen.Scenario:
    params = _parse_params(args.param)
    accepted = scen.catalog_params(args.scenario)
    for key in params:
        if key not in accepted:
            raise ContractViolation(
                f"unknown --param key {key!r} for {args.scenario}; accepted: {', '.join(accepted) or 'none'}"
            )
    return scen.load(args.scenario, **params)


def _add_scenario(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario", help="catalog name or scenario file")
    sub.add_argument("--param", action="append", default=[], metavar="K=V",
                     help="catalog parameter (repeatable): n for flat, GM for schwarzschild, GM and U for thakurta")


def _add_output(sub: argparse.ArgumentParser, formats: list[str]) -> None:
    # --format is None when not given: a command that writes only to --out rejects it without one
    sub.add_argument("--out", default=None, help="output path (default: stdout summary only)")
    sub.add_argument("--format", choices=formats, help="output format")


def _reject_idle_output_options(args) -> None:
    """--format (and --svg-mode) shape the file --out writes; without one they do nothing."""
    if args.format is not None and args.out is None:
        raise ContractViolation("--format sets the format of --out, which is not given")
    if getattr(args, "svg_mode", None) is not None and args.format != "svg":
        raise ContractViolation("--svg-mode needs --format svg")


def _add_flow(sub: argparse.ArgumentParser, lambda_max: float) -> None:
    """The options of the two commands that integrate a geodesic."""
    _add_scenario(sub)
    _add_output(sub, ["csv", "json", "svg"])
    sub.add_argument("--chart", default=None)
    sub.add_argument("--lambda-max", type=float, default=lambda_max, dest="lambda_max")
    sub.add_argument("--method", default=IntegratorConfig.method, choices=["rk45", "rk4"])
    sub.add_argument("--rk4-step", type=float, default=IntegratorConfig.rk4_step, dest="rk4_step")
    sub.add_argument("--tol", type=float, default=IntegratorConfig.tol,
                     help="integrator tolerance, relative and absolute")
    # --svg-mode and --christoffel are None when not given, like --format: `geodesic --small-gauge` rejects them
    sub.add_argument("--christoffel", choices=["closed", "numeric"],
                     help="Christoffel symbols: 'closed' (the default) uses the closed form where the gauge "
                          "field vanishes and the finite-difference oracle elsewhere; 'numeric' uses the "
                          "oracle everywhere")
    sub.add_argument("--svg-mode", choices=["xy", "ulog"], dest="svg_mode")


def _integrator_config(args) -> IntegratorConfig:
    return IntegratorConfig(method=args.method, tol=args.tol, lambda_max=args.lambda_max,
                            christoffel=args.christoffel or IntegratorConfig.christoffel, rk4_step=args.rk4_step)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ContractViolation(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _report_events(events: list[dict]) -> int:
    """Print the stop events of a run; the exit code is 3 if it went non-finite."""
    for event in events:
        print(f"event: {event}")
    return 3 if any(e["kind"] == "non_finite" for e in events) else 0


def _write_trajectory(traj, args) -> int:
    if args.out is None:
        print(f"samples: {len(traj)}")
    else:
        out = Path(args.out)
        if args.format == "json":
            write_trajectory_json(traj, out)
        elif args.format == "svg":
            write_trajectory_svg(traj, out, mode=args.svg_mode or "xy")
        else:
            write_trajectory_csv(traj, out)
        print(f"wrote {out}")
    print(f"max charge drift: {traj.max_charge_drift():.3e}")
    print(f"max null drift:   {traj.max_null_drift():.3e}")
    return _report_events(traj.events)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    scenario = _load_scenario(args)
    rng = _rng(args.seed)
    results = run_all(scenario, rng)
    passed = all(r.passed for r in results)
    report = {
        "scenario": scenario.name,
        "seed": args.seed,
        "passed": passed,
        "checks": [r.as_dict() for r in results],
    }
    if args.format == "json" and args.out is None:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            detail = f"  [{r.detail}]" if r.detail and not r.passed else ""
            print(f"{mark}  {r.name:32s} value={r.value:.3e} tol={r.tol:.0e}{detail}")
        print(f"{'OK' if passed else 'FAILED'}: {scenario.name}")
    if args.out is not None:
        write_report_json(report, args.out)
        print(f"wrote {args.out}")
    return 0 if passed else 1


def cmd_geodesic(args) -> int:
    if not args.small_gauge and (args.field is not None or args.sign_q is not None):
        raise ContractViolation("--field and --sign-q set the reduced flow and need --small-gauge")
    if args.small_gauge and (args.format, args.svg_mode, args.christoffel) != (None, None, None):
        raise ContractViolation("--small-gauge takes no --format, --svg-mode or --christoffel: its --out is an SVG")
    _reject_idle_output_options(args)
    scenario = _load_scenario(args)
    chart = args.chart or scenario.default_chart
    cfg = _integrator_config(args)
    values, n = parse_tuple(args.state), scenario.dim
    if args.small_gauge:
        if len(values) != 2 * n:
            raise ContractViolation(f"--state for the reduced flow needs {2 * n} values: x..., v...")
        x0, v0 = np.array(values[:n]), np.array(values[n:])
        v0 = unit_direction(scenario, x0, v0, 1.0, chart)
        field_strength = None
        if args.field is not None:
            if n != 2:
                raise ContractViolation(f"--field sets F_12 and needs a 2-d base, got dimension {n}")
            if not np.isfinite(args.field):
                raise ContractViolation(f"--field must be finite, got {args.field}")
            b = args.field
            field_strength = lambda x: np.array([[0.0, b], [-b, 0.0]])
        base = integrate_small_gauge(
            x0, v0, scenario, +1 if args.sign_q is None else args.sign_q, cfg,
            curvature_fn=field_strength, chart=chart,
        )
        if args.out is not None:
            write_text(args.out, polyline_svg([base.x[:, :2]], labels=["reduced base path"]))
            print(f"wrote {args.out}")
        print(f"samples: {len(base)}; final speed^2 drift {abs(base.speed2[-1] - base.speed2[0]):.3e}")
        return _report_events(base.events)
    if len(values) != 2 * n + 2:
        raise ContractViolation(f"--state needs {2 * n + 2} values: x..., t, vx..., vt")
    state = GeodesicState(np.array(values[:n]), values[n], np.array(values[n + 1 : 2 * n + 1]), values[2 * n + 1])
    traj = integrate(state, scenario, cfg, chart=chart)
    return _write_trajectory(traj, args)


def cmd_null_shoot(args) -> int:
    _reject_idle_output_options(args)
    scenario = _load_scenario(args)
    chart = args.chart or scenario.default_chart
    x0 = np.array(parse_tuple(args.point))
    u = np.array(parse_tuple(args.dir))
    u = unit_direction(scenario, x0, u, args.t0, chart)
    spec = NullShootSpec(x0=x0, u=u, q=args.q, t0=args.t0, eps=args.eps, chart=chart)
    state = shoot_null(spec, scenario)
    cfg = _integrator_config(args)
    if args.q == 0.0:
        # frozen: a single-sample trajectory is the whole story
        cfg.lambda_max = 0.0
        traj = integrate(state, scenario, cfg, chart=chart)
        traj.meta["note"] = "zero charge: state is frozen for every affine parameter"
        _write_trajectory(traj, args)
        print("note: frozen state (zero charge)")
        return 0
    traj = integrate(state, scenario, cfg, chart=chart)
    return _write_trajectory(traj, args)


def cmd_christoffel(args) -> int:
    scenario = _load_scenario(args)
    chart = args.chart or scenario.default_chart
    coord_names = list(scenario.atlas.chart(chart).coords) + ["t"]
    labels = coord_names
    kk = scenario.kk(args.sign)
    points = []
    if args.at is not None:
        values = parse_tuple(args.at)
        if len(values) != scenario.dim + 1:
            raise ContractViolation(f"--at needs {scenario.dim + 1} values: coords..., t")
        points.append(scenario.point(values[:-1], values[-1], chart))
        if not scenario.atlas.chart(chart).inside(points[0].x):
            raise ContractViolation(f"--at base point {points[0].x.tolist()} is outside chart {chart!r}")
    else:
        rng = _rng(args.seed)
        points.extend(scenario.sample_points(rng, args.count, chart=chart))

    rows = []
    deviations = []
    numerics = read_raw(partial(christoffel_numeric, kk), points)
    for p, numeric in zip(points, numerics):
        closed = christoffel_closed(kk, p) if kk.gauge.is_zero or kk.sign == +1 else None
        n1 = scenario.dim + 1
        for a in range(n1):
            for b in range(n1):
                for c in range(b, n1):
                    cv = float(closed[a, b, c]) if closed is not None else float("nan")
                    nv = float(numeric[a, b, c])
                    dev = abs(cv - nv) if closed is not None else float("nan")
                    if closed is not None:
                        deviations.append(dev)
                    if args.golden:
                        rows.append((*p.x, p.t, labels[a], labels[b], labels[c], nv))
                    else:
                        rows.append((*p.x, p.t, labels[a], labels[b], labels[c], cv, nv, dev))
    if args.out is not None:
        write_christoffel_csv(args.out, coord_names, rows, compare=not args.golden)
        print(f"wrote {args.out}")
    else:
        for row in rows:
            cells = [v if isinstance(v, str) else f"{v:.10g}" for v in row]
            print(", ".join(cells))
    print(f"max closed-vs-numeric deviation: {np.max(deviations, initial=0.0):.3e}")
    return 0


def cmd_linearize(args) -> int:
    _reject_idle_output_options(args)
    if not 0.0 <= args.tol < np.inf:  # a NaN compares false
        raise ContractViolation(f"--tol must be finite and >= 0, got {args.tol}")
    if args.atlas == "moebius":
        atlas = moebius_transition_atlas()
    elif args.atlas == "synthetic":
        atlas = synthetic_circle_atlas()
    else:
        atlas = load_atlas_file(args.atlas)
    cocycle = linearize(shift_transitions(atlas))
    rows = []
    for sample in cocycle.sampled:
        i, j = sample.charts
        for m, c in zip(sample.m, sample.c):
            rows.append({"to": i, "src": j, "m": float(m), "c": float(c)})
    summary = {
        "pair_residual": cocycle.pair_residual,
        "triple_residual": cocycle.triple_residual,
        "cocycle": rows,
    }
    if args.out is not None:
        if args.format == "json":
            write_report_json(summary, args.out)
        else:
            lines = ["to, src, m, c"]
            for row in rows:
                lines.append(f"{row['to']}, {row['src']}, {row['m']!r}, {row['c']!r}")
            write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    print(f"pair residual:   {cocycle.pair_residual:.3e}")
    print(f"triple residual: {cocycle.triple_residual:.3e}")
    ok = cocycle.pair_residual <= args.tol and cocycle.triple_residual <= args.tol
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def cmd_scenarios(args) -> int:
    for name in scen.catalog_names():
        built = scen.load(name)
        print(f"{name:16s} {built.description}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrollgeo",
        description="degenerate-metric bundles: invariant checks, geodesics, symbol tables, linearization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the invariant suites on a scenario")
    _add_scenario(p_check)
    p_check.add_argument("--seed", type=int, default=0, help="seed for random sampling")
    _add_output(p_check, ["text", "json"])
    p_check.set_defaults(fn=cmd_check)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic from a raw initial state")
    _add_flow(p_geo, lambda_max=10.0)
    p_geo.add_argument("--state", required=True, help="comma list: x..., t, vx..., vt (pi allowed)")
    p_geo.add_argument("--small-gauge", action="store_true", dest="small_gauge",
                       help="integrate the reduced base flow in log-time; --state is then x..., v...")
    p_geo.add_argument("--sign-q", type=int, default=None, dest="sign_q", choices=[-1, 1],
                       help="sign of the charge for the reduced flow (default +1)")
    p_geo.add_argument("--field", type=float, default=None,
                       help="constant field strength F_12 for the reduced flow (2d)")
    p_geo.set_defaults(fn=cmd_geodesic)

    p_shoot = sub.add_parser("null-shoot", help="build a null initial state and integrate it")
    _add_flow(p_shoot, lambda_max=5.0)
    p_shoot.add_argument("--point", required=True, help="base coordinates, e.g. 'pi/2, 0'")
    p_shoot.add_argument("--dir", required=True, help="base direction (normalized internally)")
    p_shoot.add_argument("--q", type=float, required=True, help="signed conserved charge")
    p_shoot.add_argument("--t0", type=float, default=1.0)
    p_shoot.add_argument("--eps", type=int, default=+1, choices=[-1, 1])
    p_shoot.set_defaults(fn=cmd_null_shoot)

    p_chr = sub.add_parser("christoffel", help="dump symbol tables (closed form vs oracle)")
    _add_scenario(p_chr)
    p_chr.add_argument("--out", default=None, help="CSV output path (default: the rows on stdout)")
    p_chr.add_argument("--at", default=None, help="evaluation point: coords..., t")
    p_chr.add_argument("--count", type=int, default=5, help="random points when --at is absent")
    p_chr.add_argument("--seed", type=int, default=0, help="seed for the random points")
    p_chr.add_argument("--chart", default=None)
    p_chr.add_argument("--sign", type=int, default=+1, choices=[-1, 1])
    p_chr.add_argument("--golden", action="store_true", help="single-value golden-file format")
    p_chr.set_defaults(fn=cmd_christoffel)

    p_lin = sub.add_parser("linearize", help="shift transitions by the section and extract the cocycle")
    p_lin.add_argument("atlas", help="moebius, synthetic, or an atlas file")
    p_lin.add_argument("--tol", type=float, default=1e-8, help="largest cocycle residual that passes")
    _add_output(p_lin, ["csv", "json"])
    p_lin.set_defaults(fn=cmd_linearize)

    p_scen = sub.add_parser("scenarios", help="catalog utilities")
    p_scen.add_argument("action", choices=["list"])
    p_scen.set_defaults(fn=cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            check_writable(args.out)  # before any work, so that a run never ends on an unwritable path
        return args.fn(args)
    except (ContractViolation, ConstructionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CarrollError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, but one line rather than a traceback; exit 1 is a failed check
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
