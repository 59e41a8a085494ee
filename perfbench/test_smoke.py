"""Smoke test of the benchmark: every workload at tiny sizes, end to end
and traced, must check out and report every metric.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         "--seconds", "0.5", "--smoke", *args],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_smoke(workload):
    result = _bench("--workload", workload, "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke(workload):
    result = _bench("--workload", workload, "--trace", "1")
    assert result["correct"] is True
    assert list(result["metrics"]) == layers.NAMES


def test_traced_counts_repeat():
    first = _bench("--workload", "decompose-warm", "--trace", "1")["metrics"]
    second = _bench("--workload", "decompose-warm", "--trace", "1")["metrics"]
    for name in layers.NAMES:
        if layers.unit_of(name) in ("count", "calls/op", "ratio") \
                and name != "trace.overhead_ratio":
            assert first[name]["value"] == second[name]["value"], name
