"""leoiot benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload offload|fig6-slice|fig7-long \\
        --seed N --seconds S --trace 0|1 [--spans FILE]

Runs from the root of a source checkout with no install: ``src`` goes on
the path here.  The workload runs through ``leoiot.experiments.main`` in
this process with one sweep worker, writing to a temporary directory
under the checkout that is removed at exit.  Passes repeat until
``--seconds`` have elapsed; every pass's outputs are checked.

--trace 0  reports the end-to-end metrics of ``BENCHMARK.json``: set-up
           time (median of child processes that import the package and
           build the spec), the median pass's pipeline wall time, updates
           per second and the process's peak resident memory.  The first
           pass warms caches and is not timed.  Each pass's time is
           divided by the host's slowdown, measured by a reference kernel
           of the workload's kind timed during that pass
           (``reference.py``); the raw times go to standard error.
--trace 1  alternates untraced and traced passes and reports the
           per-layer metrics of the fastest traced pass, then reruns the
           largest ``ra_sim.run`` call under tracemalloc for its peak
           allocation.  ``--spans FILE`` writes that pass's spans as CSV.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True     # leave no __pycache__ in the checkout

import checks  # noqa: E402
from reference import HostSpeed  # noqa: E402
from tracing import Tracer, peak_alloc_mb  # noqa: E402
from workloads import WORKLOADS, build_spec, operations  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_PASSES = 3


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of child processes that start the interpreter,
    import leoiot, load the preset and build the workload's spec."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-B", str(HERE / "setup_probe.py"),
                        workload, str(seed)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(main, argv, around) -> tuple:
    """One pipeline call inside the context ``around``, with its console
    output captured; (wall s, exit)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            around:
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    if code not in (0, 1):
        raise RuntimeError(f"leoiot exited {code}: {sink.getvalue()[-2000:]}")
    return wall, code


def digest(out: Path) -> str:
    """Hash of the data files, which a fixed seed must reproduce."""
    h = hashlib.sha256()
    for f in sorted(out.glob("*.csv")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def updates(workload, out: Path) -> int:
    """Status updates the outputs account for."""
    if workload.subcommand == "offload":
        rows = checks.read_csv(out / "offload_summary.csv")
        return sum(int(r["records"]) for r in rows)
    return sum(int(r["n_offered"]) for r in checks.read_csv(out / "backhaul_rows.csv"))


def verdict_line(out: Path) -> str:
    report = out / "report.txt"
    if not report.exists():
        return "no report"
    return report.read_text().rstrip().splitlines()[-1]


class Run:
    """Passes of one workload, their checks and operation counts."""

    def __init__(self, workload, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.spec = build_spec(workload, seed, tmp)
        self.ops = operations(workload, self.spec)
        self.passes = 0
        self.failed = 0
        self.correct = True
        self.first_digest = None
        self.updates = None

    def once(self, main, label: str, around=contextlib.nullcontext()) -> float:
        out = self.tmp / f"pass{self.passes}"
        wall, code = run_pass(main, self.workload.argv(self.seed, out), around)
        v = checks.check(self.workload.name, out, self.spec, self.ops)
        d = digest(out)
        if self.first_digest is None:
            self.first_digest = d
            self.updates = updates(self.workload, out)
            log(f"exit {code}, report: {verdict_line(out)}")
            for note in v.notes:
                log(f"check failed: {note}")
        elif d != self.first_digest:
            self.correct = False
            log("outputs differ between passes of one seed")
        self.passes += 1
        self.failed += len(v.failed)
        log(f"pass {self.passes} {label}: {wall:.3f} s, "
            f"{len(v.failed)}/{len(self.ops)} operations failed")
        shutil.rmtree(out)
        return wall

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.passes * len(self.ops),
                "failed": self.failed, "metrics": metrics}


def end_to_end(run: Run, main, seconds: float, setup_s: float) -> dict:
    speed = HostSpeed(run.workload.kernel)
    raw, corrected, slowdowns = [], [], []
    t0 = time.perf_counter()
    run.once(main, "warm-up")
    while len(raw) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        gc.collect()
        own = run.once(main, "untraced", speed.sampling()) - speed.kernel_s()
        raw.append(own)
        slowdowns.append(speed.slowdown())
        corrected.append(own / slowdowns[-1])
    wall = statistics.median(corrected)
    log(f"timed passes {len(raw)}: raw fastest {min(raw):.3f} s, median "
        f"{statistics.median(raw):.3f} s, slowest {max(raw):.3f} s; "
        f"{speed.kind} kernel slowdown {min(slowdowns):.3f} to "
        f"{max(slowdowns):.3f}; median at nominal speed {wall:.3f} s")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "updates_per_s": run.updates / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, main, seconds: float, spans_path) -> dict:
    from leoiot import ra_sim

    untraced = []
    fastest = None                     # (wall, tracer) of the fastest traced pass
    t0 = time.perf_counter()
    while fastest is None or time.perf_counter() - t0 < seconds:
        untraced.append(run.once(main, "untraced"))
        tracer = Tracer()
        with tracer.instrumented():
            wall = run.once(tracer.wrap(main, "experiments.pipeline"), "traced")
        if fastest is None or wall < fastest[0]:
            fastest = (wall, tracer)
    wall, tracer = fastest
    metrics = tracer.layer_metrics(wall)
    metrics["trace.overhead_s"] = wall - min(untraced)
    metrics["ra_sim.run.peak_alloc_mb"] = (
        peak_alloc_mb(ra_sim.run, tracer.largest_ra_call[1])
        if tracer.largest_ra_call else 0.0)
    if spans_path:
        tracer.write_spans(spans_path)
    return metrics


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="CSV file for the spans")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "leoiot" / "__init__.py").is_file():
        log(f"error: no leoiot sources under {src}")
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = 0.0 if args.trace else setup_seconds(workload.name, args.seed)

    sys.path.insert(0, str(src))
    from leoiot import experiments
    if src not in Path(experiments.__file__).resolve().parents:
        log(f"error: leoiot imported from {experiments.__file__}, not {src}")
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        run = Run(workload, args.seed, Path(tmp))
        if args.trace:
            values = per_layer(run, experiments.main, args.seconds, args.spans)
            declared = bench["per_layer"]
        else:
            values = end_to_end(run, experiments.main, args.seconds, setup_s)
            declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        log(f"{name:42} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
