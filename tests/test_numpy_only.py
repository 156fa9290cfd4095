"""The package runs on numpy alone, and loads an executor only for a run
that starts one.

Each check runs a child interpreter with a ``scipy`` package first on
``PYTHONPATH`` whose import raises ``ImportError``.  So a scipy import on
the import path or the run path fails the check, whether or not scipy is
installed.  The footprint checks read the child's ``sys.modules``: a
one-worker sweep loads no process pool (``multiprocessing``,
``concurrent.futures.process``) and a one-chunk cell no thread executor
(``concurrent.futures.thread``), nor does the import, ``analytic`` or
``offload``.
"""
import json
import os
import subprocess
import sys
import textwrap
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


EXECUTORS = ("multiprocessing", "concurrent.futures.process",
             "concurrent.futures.thread")


def loaded_executors(run, *commands):
    """The exit status of each ``leoiot`` command, run in turn in one child,
    and the modules of ``EXECUTORS`` loaded after the import and after
    the runs."""
    done = run("-c", textwrap.dedent(f"""
        import json, sys
        from leoiot.experiments import main
        def loaded():
            return [m for m in {EXECUTORS!r} if m in sys.modules]
        after_import = loaded()
        codes = [main(argv) for argv in json.loads(sys.argv[1])]
        print(json.dumps([after_import, codes, loaded()]))
        """), json.dumps(commands))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def backhaul(packets):
    return ["backhaul", "--mode", "no-ra", "--rho", "0.5", "--hops", "1",
            "--packets", str(packets), "--workers", "1",
            "--out", f"backhaul{packets}"]


def test_runs_without_a_pool_or_a_second_chunk_load_no_executor(
        without_scipy):
    after_import, codes, after_runs = loaded_executors(
        without_scipy, ["analytic", "--out", "analytic"],
        ["offload", "--set", "horizon=32000", "--out", "offload"],
        backhaul(2000))
    assert after_import == []
    # a 2,000-packet report may flag noise and exit 1
    assert codes[:2] == [0, 0] and codes[2] in (0, 1)
    assert after_runs == []


def test_a_two_chunk_cell_loads_the_thread_executor_alone(without_scipy):
    # 40,000 packets are two chunks, drawn ahead on a thread
    _, codes, after_runs = loaded_executors(without_scipy, backhaul(40_000))
    assert codes[0] in (0, 1)
    assert after_runs == ["concurrent.futures.thread"]
