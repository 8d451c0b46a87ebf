"""One measuring process: set up a workload, run its ops closed-loop, report.

Started by run.py with the package on PYTHONPATH. Prints one JSON object
on stdout: set-up time, per-op durations and kinds, failures, peak RSS and,
when traced, the per-layer figures. With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import Tracer

OUT = Path(__file__).resolve().parent / "out"


def reference_kernel() -> float:
    """Fixed work with the same mix as the ops (small numpy arrays, 3x3
    linear algebra, Python floats) that never touches carrollgeo.

    Its duration tracks the host's current speed, which on a shared VM
    drifts by up to 1.7x over tens of seconds.
    """
    a = np.eye(3)
    total = 0.0
    for _ in range(200):
        b = np.zeros((3, 3))
        b[:2, :2] = a[:2, :2] + 0.5 * np.outer(a[0, :2], a[1, :2])
        total += float(np.linalg.inv(a + b)[0, 0]) + float(np.einsum("ij,j->i", b, a[0])[0])
    return total


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None):
    """Everything before the first timed op; returns the endless op stream."""
    grid_rng = np.random.default_rng([seed, 0])
    if workload == "orbits":
        ctx = wl.OrbitContext()
        if tracer:
            tracer.instrument_gauge(ctx.gauge)  # made here, not by a traced load
        warm = np.random.default_rng([seed, 4])
        for cls in wl.ORBIT_CLASSES:
            ctx.op(wl.draw_member(cls, warm), lambda_max=0.05).run()
        return (ctx.op(m) for m in wl.orbit_members(seed))
    if workload == "checks":
        grid = wl.write_grid_scenario(workdir, grid_rng)
        wl.package().load(str(grid))  # the first grid load imports scipy.interpolate
        return wl.check_ops(seed, grid)
    if workload == "cli":
        grid = wl.write_grid_scenario(workdir, grid_rng)
        checker = wl.CliChecker(workdir)
        # one untimed process fills the bytecode and page caches
        warm = wl.run_process([sys.executable, "-c", wl.CLI_ENTRY, "scenarios", "list"], workdir, wl.child_env())
        if warm.code != 0:
            raise RuntimeError("warm-up `carrollgeo scenarios list` failed")
        return wl.cli_ops(seed, workdir, grid, checker)
    raise ValueError(f"unknown workload {workload!r}")


def measure(ops, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops one at a time until ``seconds`` of wall time have passed.

    An op fails if it raises or its check returns a reason. Failed ops are
    counted, never retried or replaced. After each op, outside its timing,
    the reference kernel runs once so that run.py can express op times in
    units of the host's speed at that moment.
    """
    durations, kinds, failures, ref_durations = [], [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i and time.perf_counter() - start >= seconds:
            break
        reason = None
        with tracer.op_span(i, {"kind": op.kind, **op.tags}) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # op boundary: record and keep measuring
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        durations.append(elapsed)
        kinds.append(op.kind)
        if reason is not None:
            failures.append({"op": i, "kind": op.kind, "tags": op.tags, "reason": reason})
        t0 = time.perf_counter()
        reference_kernel()
        ref_durations.append(time.perf_counter() - t0)
    return {"durations": durations, "kinds": kinds, "failures": failures, "reference": ref_durations}


def peak_rss_mb(workload: str) -> float:
    # cli ops run in children; RUSAGE_CHILDREN holds the largest one waited for
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = setup(args.workload, args.seed, workdir, tracer)
        setup_s = time.monotonic() - args.spawned_at
        report = {"setup_s": setup_s}
        if not args.setup_only:
            if tracer:
                tracer.end_setup()
            report.update(measure(ops, args.seconds, tracer))
            report["peak_rss_mb"] = peak_rss_mb(args.workload)
            if tracer:
                report["layers"] = tracer.layer_metrics()
                if args.spans_out:
                    tracer.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
