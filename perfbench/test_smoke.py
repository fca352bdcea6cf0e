"""Smoke test of the benchmark at m=10: names printed, failures counted.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = last_json(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = last_json(run_bench("heat-st", trace=1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["parabolic.smoother_s"]["value"] > 0


def test_corrupted_reference_value_fails_its_solve(tmp_path):
    reference = workloads.load_reference()
    sweep = workloads.Sweep2D(tiny=True, out_dir=tmp_path)
    outcomes = sweep.outcomes(sweep.run(sweep.draw(random.Random(3))))
    assert [o.key for o in outcomes
            if workloads.check(o, reference)] == []

    key = workloads.reference_key("neumann-star", workloads.TINY_M, "6")
    reference[key] = dict(reference[key], cond=reference[key]["cond"] * 1.01)
    failed = [o.key for o in outcomes if workloads.check(o, reference)]
    assert failed == [key]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("ball-3d", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
