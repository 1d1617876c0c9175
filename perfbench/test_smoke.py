"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.  Every
workload, untraced and traced, must exit 0, pass its output checks and emit
every metric BENCHMARK.json names, with that metric's unit.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_spec_names_what_the_harness_emits():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        tracer.LAYER_METRICS
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
