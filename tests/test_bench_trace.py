"""Smoke test of traced benchmark rounds.

The span tracer in benchmark/tracer.py replaces package functions by name
(``tensor.conv2d``, ``net.nms``, the ``iou`` each module imports,
``TrackletDecoder._next_id`` and more), so renaming one of them breaks only a
traced run. This runs a short traced round of every workload in
BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_completes(workload):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
