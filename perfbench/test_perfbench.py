"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q

The traced-run tests start real benchmark runs; the 2x2 ones take about a
minute each and peak near 3.2 GB of memory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from child import COMPUTED_COUNTS, LAYER_UNITS
from workloads import WORKLOADS, close, compare_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("quick_1d", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_flags_a_value_off_by_more_than_its_tolerance():
    rec = {"name": "gaussian_domination", "lhs": 38.0, "rhs": 38.359, "slack": 0.0,
           "pass": True}
    assert compare_records([rec], [rec], "x") == []
    moved = dict(rec, rhs=rec["rhs"] * (1 + 1e-8))
    assert compare_records([moved], [rec], "x")
    assert close(1.0, 1.0 + 5e-11, 1e-10) and not close(1.0, 1.0 + 2e-10, 1e-10)
    ref = {"log_z0": 38.359}
    gauss = WORKLOADS["gauss_rp_2x2"]
    good = [rec, dict(rec, name="rp_of_Z", lhs=76.0, rhs=77.0)]
    assert gauss.check_item(good, ref, "x") == []
    assert gauss.check_item([dict(rec, rhs=38.4), good[1]], ref, "x")
    assert gauss.check_item([dict(rec, **{"pass": False}), good[1]], ref, "x")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_repeats_computed_counts_and_accounts_for_the_job(workload):
    results = []
    for _ in range(2):
        proc = bench(workload, 5, 0.1, 1)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, proc.stderr
        results.append({k: v["value"] for k, v in res["metrics"].items()})
    first, second = results
    for name in COMPUTED_COUNTS:
        assert first[name] == second[name], name
    assert first["thermo.eigh_flops"] > 0 and first["model.operator_bytes"] > 0
    modules = sum(first[f"{m}.self_s"] for m in
                  ("lattice", "hilbert", "model", "thermo", "rpverify", "bounds", "cli"))
    assert modules + first["trace.unattributed_s"] == pytest.approx(first["trace.job_wall_s"])
    assert 0 <= first["trace.unattributed_s"] < first["trace.job_wall_s"]
