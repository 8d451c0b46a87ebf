"""Self-test of the benchmark at a tiny size: output contract, metric names
and units, failure accounting. No timing is asserted."""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads as wl
from worker import measure

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def _check_result(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_end_to_end_output_contract():
    code, result = _last_json(["perfbench/run.py", "--workload", "orbits", "--seed", "3", "--seconds", "0.5",
                               "--trace", "0"], HERE.parent)
    assert code == 0
    _check_result(result, SPEC["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0.0


def test_per_layer_output_contract():
    code, result = _last_json(["perfbench/run.py", "--workload", "orbits", "--seed", "3", "--seconds", "1",
                               "--trace", "1"], HERE.parent)
    assert code == 0
    _check_result(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["kaluza.block_evals_per_numeric"] == 13.0  # n = 2: one point plus a 12-point stencil
    assert metrics["geodesics.symbol_calls_per_accepted_step"] >= 6.0


def test_failed_frac_counts_a_wrong_reference():
    ctx = wl.OrbitContext()
    members = list(itertools.islice(wl.orbit_members(5), 2))
    good = ctx.op(members[0], lambda_max=0.1)
    bad = ctx.op(members[0], lambda_max=0.1)
    wrong = dataclasses.replace(members[0], q=-members[0].q)  # the reference expects the other fiber direction
    bad.check = lambda traj: wl.check_orbit(traj, wrong, 0.1)
    report = measure([good, bad], seconds=1e9)
    assert [f["op"] for f in report["failures"]] == [1]
    report["peak_rss_mb"] = 1.0
    metrics = run.summarize("orbits", report, [0.5])
    assert metrics["failed_frac"][0] == 0.5
    assert metrics["ops_per_s"][0] == 1 / sum(report["durations"])
    assert metrics["ops_per_ref"][0] == 1 / sum(run.host_units(report))


def test_host_units_divide_by_the_local_median_reference():
    report = {"durations": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "reference": [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]}
    # windows of five: ops 0-2 see a median of 1, ops 3-5 a median of 2
    assert run.host_units(report) == [1.0, 2.0, 3.0, 2.0, 2.5, 3.0]


def test_pass_rules_accept_seeded_inputs(tmp_path):
    grid = wl.write_grid_scenario(tmp_path, np.random.default_rng([3, 0]))
    ops = list(itertools.islice(wl.check_ops(3, grid), 11))
    report = measure(ops, seconds=1e9)
    assert report["failures"] == [] and len(report["durations"]) == 11


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, result = _last_json(["perfbench/run.py", "--workload", "orbits", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], tmp_path)
    assert code != 0 and result is None
