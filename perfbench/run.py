"""carrollgeo benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Workloads (one client, one op at a time, one measuring process):

* ``orbits``: null geodesics (``shoot_null`` + ``integrate``, default oracle
  route, lambda = 2) drawn from the seed across seven member classes;
* ``checks``: ``load`` + ``suites.run_all`` over the six catalog scenarios,
  the demo expression scenario and a seeded grid-CSV scenario, plus
  ``linearize(shift_transitions(...))`` on three atlases;
* ``cli``: the README's ``carrollgeo`` commands, each a fresh process.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, all
from untraced runs. Op times in it are host-scaled: each is divided by the
time of a fixed reference run next to it (see ``host_units``). The
wall-clock figures are printed in the table above it.

With ``--trace 1`` the last line carries the per-layer metrics. A traced
worker runs for half of ``--seconds`` between two untraced quarters, and the
difference between their rates is ``trace.overhead_frac``.

The lines before the last give a readable table, the environment
fingerprint and any failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
FLOOR_SAMPLES = 3  # fresh processes behind cli.python_floor_s and cli.import_s
TAIL_BEYOND = 10  # op_s.tail: the highest percentile with at least this many ops beyond it
REF_WINDOW = 2  # an op is scaled by the median reference time of the 2 * 2 + 1 ops around it
# wall-clock figures printed in the table; the gated metrics are their host-scaled forms
WALL_ONLY = ("ops_per_s", "op_s.p50", "op_s.tail", "failed_frac", "reference_s")
CLI_PROBE_SHARE = 5  # orbits and checks time the cli commands for --seconds / 5 in their traced runs
DEADLINE_S = 170.0  # every run ends well within the 180 s a run may take


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, deadline: Deadline,
                 setup_only: bool = False, spans_out: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    argv += ["--spawned-at", repr(time.monotonic())]
    # own process group, so a worker that must be stopped takes its cli child with it
    proc = subprocess.Popen(argv, env=wl.child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return json.loads(out.decode().strip().splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ranked = sorted(durations)
    k = max(len(ranked) - TAIL_BEYOND - 1, 0)
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def host_units(report: dict) -> list[float]:
    """Each op's duration over the median reference time around it.

    The host's speed drifts by up to 1.7x over tens of seconds. The op and
    worker.reference_kernel slow down together, so their ratio is far
    steadier than either.
    """
    ref = report["reference"]
    return [d / statistics.median(ref[max(i - REF_WINDOW, 0): i + REF_WINDOW + 1])
            for i, d in enumerate(report["durations"])]


def summarize(workload: str, report: dict, setups: list[float]) -> dict:
    """End-to-end metrics of one untraced worker report, as (value, unit, note).

    The ``op_ref`` figures are in units of the reference kernel (``ref``);
    the ``op_s`` figures are wall seconds.
    """
    durations = report["durations"]
    scaled = host_units(report)
    n = len(durations)
    failed = len(report["failures"])
    tail_s, tail_pct = tail(durations)
    tail_ref, _ = tail(scaled)
    return {
        "ops_per_ref": ((n - failed) / sum(scaled), "1/ref", f"{n - failed} passing ops"),
        "op_ref.p50": (statistics.median(scaled), "ref", f"n={n}"),
        "op_ref.tail": (tail_ref, "ref", f"p{tail_pct:.1f}, n={n}"),
        "ops_per_s": ((n - failed) / sum(durations), "1/s", f"{n - failed} passing ops in {sum(durations):.2f} s of op time"),
        "op_s.p50": (statistics.median(durations), "s", f"n={n}"),
        "op_s.tail": (tail_s, "s", f"p{tail_pct:.1f}, n={n}"),
        "failed_frac": (failed / n, "frac", f"{failed} of {n}"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh processes"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", "largest cli child" if workload == "cli" else "worker"),
        "reference_s": (statistics.median(report["reference"]), "s", "median reference-kernel time: host speed"),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[dict, list, dict]:
    setups = [spawn_worker(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    report = spawn_worker(workload, seed, seconds, 0, deadline)
    setups.append(report["setup_s"])
    counts = {"attempted": len(report["durations"]), "failed": len(report["failures"])}
    return summarize(workload, report, setups), report["failures"], counts


def per_layer(workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[dict, list, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    # untraced quarters on both sides of the traced half, so a drift in machine
    # speed over the run moves both rates alike
    before = spawn_worker(workload, seed, seconds / 4, 0, deadline)
    traced = spawn_worker(workload, seed, seconds / 2, 1, deadline, spans_out=spans)
    after = spawn_worker(workload, seed, seconds / 4, 0, deadline)

    def rate(*runs):
        passed = sum(len(r["durations"]) - len(r["failures"]) for r in runs)
        return passed / sum(sum(host_units(r)) for r in runs)

    metrics = {k: (v, unit, "") for k, (v, unit) in traced["layers"].items()}
    # Tracing does not reach into cli children, so every worker's commands
    # count. The other workloads time the commands in a short cli worker of
    # their own, so the per-command figures exist on every workload.
    reports = [before, traced, after]
    if workload != "cli":
        reports.append(spawn_worker("cli", seed, seconds / CLI_PROBE_SHARE, 0, deadline))
    cli_reports = reports if workload == "cli" else reports[-1:]
    by_kind: dict[str, list[float]] = {}
    for report in cli_reports:
        for kind, d in zip(report["kinds"], report["durations"]):
            by_kind.setdefault(kind, []).append(d)
    for command in wl.CLI_COMMANDS:
        samples = by_kind.get(command, [])
        metrics[f"cli.cmd.{command}.s"] = (statistics.median(samples) if samples else 0.0, "s", f"n={len(samples)}")
    for name, code in (("cli.python_floor_s", "pass"), ("cli.import_s", "import carrollgeo")):
        metrics[name] = (time_process([sys.executable, "-c", code], FLOOR_SAMPLES), "s", f"median of {FLOOR_SAMPLES}")
    plain = rate(before, after)
    metrics["trace.overhead_frac"] = (plain / rate(traced) - 1.0, "frac",
                                      f"untraced {plain:.5f}/ref vs traced {rate(traced):.5f}/ref")
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(len(r["durations"]) for r in reports)
    return metrics, failures, {"attempted": attempted, "failed": len(failures), "spans": str(spans.relative_to(wl.ROOT))}


def time_process(argv: list[str], repeats: int) -> float:
    """Median wall time of ``repeats`` fresh runs of a trivial child."""
    env = wl.child_env()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=HERE, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def fingerprint(workload: str, seed: int, seconds: float) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": {
            "orbits": {"classes": len(wl.ORBIT_CLASSES), "lambda": wl.LAMBDA},
            "checks": {"scenarios": len(wl.CATALOG_CHECKS) + 2, "atlases": 3,
                       "grid": f"{len(wl.GRID_AXIS)}x{len(wl.GRID_AXIS)}"},
            "cli": {"commands": len(wl.CLI_COMMANDS)},
        }[workload],
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = Deadline(DEADLINE_S)
    measure = per_layer if trace else end_to_end
    metrics, failures, counts = measure(workload, seed, seconds, deadline)
    print(f"# env {json.dumps(fingerprint(workload, seed, seconds))}")
    print(f"# {workload} ({'per layer, traced' if trace else 'end to end, untraced'})")
    for name, (value, unit, note) in metrics.items():
        print(f"{workload:7s} {name:44s} {value:14.6g} {unit:9s} {note}")
    for failure in failures:
        print(f"FAILED {workload} op {failure['op']} ({failure['kind']}, {failure['tags']}): {failure['reason']}")
    if trace:
        print(f"# spans written to {counts['spans']}")
    # failed_frac is 0 at the seed commit, so it has no relative bound; attempted/failed carry it
    reported = {k: v for k, v in metrics.items() if trace or k not in WALL_ONLY}
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in reported.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (wl.ROOT / "src" / "carrollgeo" / "__init__.py").is_file() or not wl.REPORT_SCHEMA.is_file():
        print(f"error: no carrollgeo checkout at {wl.ROOT} (src/carrollgeo and docs/ are required)", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {f"{w}.trace{t}": run(w, args.seed, args.seconds, t) for w in wl.WORKLOADS for t in (0, 1)}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
