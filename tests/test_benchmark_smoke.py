"""The benchmark's traced passes of all three workloads still run on the
current engine.

Its tracer reads ``ra_sim.run``'s signature, the trace's counters and RAO
records, and the chain's ``config.hops`` and ``drop_node``, and writes
them to JSON, so a change of types or shapes there (say numpy integers in
``RaoRecord``) breaks ``--trace 1`` but no unit test.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["offload", "fig6-slice", "fig7-long"])
def test_traced_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
