"""The benchmark's traced fig6-slice pass still runs on the current engine.

Its tracer reads ``ra_sim.run``'s signature, the trace's counters and RAO
records, and writes them to JSON, so a change of types there (say numpy
integers in ``RaoRecord``) breaks ``--trace 1`` but no unit test.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_fig6_slice_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-slice",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
