"""Child process that ``run.py`` times for ``setup_s``: interpreter start,
``import leoiot``, preset load and spec build for one workload.

    python3 -B perfbench/setup_probe.py <workload> <seed>
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, build_spec  # noqa: E402

build_spec(WORKLOADS[sys.argv[1]], int(sys.argv[2]), ROOT / "results")
