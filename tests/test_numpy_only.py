"""The package runs on numpy alone.

Each check runs a child interpreter with a ``scipy`` package first on
``PYTHONPATH`` whose import raises ``ImportError``.  So a scipy import on
the import path or the run path fails the check, whether or not scipy is
installed.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def without_scipy(tmp_path):
    """Run ``python ARGS...`` in ``tmp_path`` with scipy unimportable."""
    blocker = tmp_path / "blocker" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text(
        'raise ImportError("scipy is blocked")\n')
    path = [str(blocker.parent), str(ROOT / "src"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
    return run


def test_import_leaves_scipy_out(without_scipy):
    done = without_scipy("-c", "import sys, leoiot.experiments; "
                               "print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_analytic_runs(without_scipy, tmp_path):
    done = without_scipy("-m", "leoiot.experiments", "analytic",
                         "--preset", "backhauling", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "analytic.csv").exists()


def test_small_backhaul_sweep_runs(without_scipy, tmp_path):
    done = without_scipy("-m", "leoiot.experiments", "backhaul",
                         "--figure", "custom", "--mode", "no-ra",
                         "--packets", "2000", "--out", str(tmp_path))
    # at 2,000 packets the tolerance report may flag noise and exit 1; a
    # traceback also exits 1, so that exit must come from the report
    assert done.returncode in (0, 1), done.stderr[-2000:]
    if done.returncode == 1:
        assert "Traceback" not in done.stderr, done.stderr[-2000:]
        assert "tolerance failures detected" in done.stderr
    assert (tmp_path / "backhaul_summary.csv").exists()
