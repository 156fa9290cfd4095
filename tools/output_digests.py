"""Digest every file that seven fixed ``leoiot`` runs write, and what eight
runs on bad input print, so that two checkouts can be shown to behave
byte for byte alike with one ``diff``.

    python3 tools/output_digests.py 1 5 > change.txt
    python3 tools/output_digests.py 1 5 --src ../parent/src > parent.txt
    diff parent.txt change.txt

For each seed it runs ``offload --set horizon=320000``, a three-load fig6
backhaul sweep of 2,000 packets and a three-load fig7 sweep of 10^6
packets, and once ``analytic --preset backhauling``, which draws no
random number, and once that table over 1, 2, 4 and 6 hops at link
erasures 0, 0.01 and 0.1, so the lossy closed forms are compared beyond
fig7's four hops; then, for each seed, the fig6 sweep again with two
replications, whose summary and report carry finite standard errors and
so can read ``noisy``; last, for each seed, that sweep on a pool of two
worker processes, whose data files and report digest as the serial
run's do (its ``metadata.json`` records the worker count).  Each run is
a child process with ``--src`` (default: the ``src`` of this checkout)
first on its ``PYTHONPATH``, writing into a temporary directory.  Every
written file gives one line ``sha256  seedN/command/file``, and every
run one line ``exit=S  seedN/command`` with its exit status: a fig6
sweep exits 1 when its tolerance report flags a row.

Last come the bad-input runs of ``BAD_INPUTS``, which end in an error
before any output file: ``validate`` on finite values that break its
rules, ``--set`` of a key the subcommand does not read or does not know,
grid and attempt values no run can use, a negative seed, a horizon
whose arrivals no array can hold, and a ``--packets`` past an array's
largest index.  Each gives its exit line
``exit=S  bad/name`` and one digest line each for what it printed,
``bad/name/stdout`` and ``bad/name/stderr``; they name no file, so
no temporary path reaches the digests.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (arguments, whether the run takes --seed)
COMMANDS = {
    "offload": (["offload", "--set", "horizon=320000"], True),
    "fig6": (["backhaul", "--figure", "fig6", "--rho", "0.2", "0.4", "0.6",
              "--replications", "1", "--packets", "2000"], True),
    "fig7": (["backhaul", "--figure", "fig7", "--rho", "0.2", "0.5", "0.8",
              "--replications", "1", "--packets", "1000000"], True),
    "analytic": (["analytic", "--preset", "backhauling"], False),
    "analytic-lossy": (["analytic", "--preset", "backhauling", "--hops", "1",
                        "2", "4", "6", "--link-erasure", "0", "0.01", "0.1"],
                       False),
    "fig6-r2": (["backhaul", "--figure", "fig6", "--rho", "0.2", "0.4", "0.6",
                 "--replications", "2", "--packets", "2000"], True),
    "fig6-w2": (["backhaul", "--figure", "fig6", "--rho", "0.2", "0.4", "0.6",
                 "--replications", "2", "--packets", "2000", "--workers", "2"],
                True),
}
# name -> arguments of a run that bad input stops before any output file
BAD_INPUTS = {
    "validate": ["validate", "--preset", "offloading",
                 "--set", "traffic.ground_ratio=1.5",
                 "--set", "ground_ra.preambles=13",
                 "--set", "ground_ra.erasure_prob=1",
                 "--set", "space_ra.rao_period=100",
                 "--set", "space_ra.t_msg3=-2", "--set", "horizon=-1"],
    "backhaul-unread": ["backhaul", "--set", "run.horizon=1"],
    "offload-unknown": ["offload", "--set", "traffic.bogus=1"],
    "offload-attempts": ["offload", "--set", "horizon=100",
                         "--attempts", "0", "1", "1"],
    "backhaul-grid": ["backhaul", "--set", "ground_ra.repetitions=0",
                      "--rho", "0", "0.5", "0.5", "--hops", "0"],
    "offload-seed": ["offload", "--seed", "-1"],
    "offload-huge": ["offload", "--set", "horizon=1e300"],
    "backhaul-packets": ["backhaul", "--figure", "custom", "--mode", "no-ra",
                         "--rho", "0.5", "--hops", "1", "--replications", "1",
                         "--packets", "1000000000000000000000000000000"],
}


def _leoiot(argv: list, src: Path, cwd) -> subprocess.CompletedProcess:
    """Run ``leoiot <argv>`` from ``src`` in ``cwd``, its output captured."""
    env = dict(os.environ)
    env.pop("LEOIOT_OUT", None)     # a default output stays in ``cwd``
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "leoiot.experiments", *argv],
                          cwd=cwd, env=env, capture_output=True)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(label: str, argv: list, src: Path) -> list:
    """Run ``leoiot <argv>`` from ``src`` into a fresh directory; return
    its exit line and one digest line per file it wrote, by path."""
    with tempfile.TemporaryDirectory(prefix="leoiot-digests-") as tmp:
        out = Path(tmp) / "out"
        done = _leoiot([*argv, "--out", str(out)], src, tmp)
        if done.returncode not in (0, 1):
            raise RuntimeError(f"leoiot {' '.join(argv)} exited "
                               f"{done.returncode}: "
                               f"{done.stderr.decode().strip()}")
        lines = [f"exit={done.returncode}  {label}"]
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            lines.append(f"{_sha(path.read_bytes())}  "
                         f"{label}/{path.relative_to(out)}")
    return lines


def bad_input_lines(bad_inputs=BAD_INPUTS, src: Path = SRC) -> list:
    """The exit line and the stdout and stderr digest lines of each run
    in ``bad_inputs``, each run in a fresh directory."""
    lines = []
    for name, argv in bad_inputs.items():
        with tempfile.TemporaryDirectory(prefix="leoiot-digests-") as tmp:
            done = _leoiot(argv, src, tmp)
        label = f"bad/{name}"
        lines += [f"exit={done.returncode}  {label}",
                  f"{_sha(done.stdout)}  {label}/stdout",
                  f"{_sha(done.stderr)}  {label}/stderr"]
    return lines


def digest_lines(seeds, commands=COMMANDS, src: Path = SRC) -> list:
    """The lines of every command in ``commands``, for each of ``seeds``
    if it takes a seed and once if it does not."""
    lines = []
    for name, (argv, seeded) in commands.items():
        if not seeded:
            lines += run_digests(name, argv, src)
            continue
        for seed in seeds:
            lines += run_digests(f"seed{seed}/{name}",
                                 [*argv, "--seed", str(seed)], src)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the package source to run (default: %(default)s)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    for line in digest_lines(args.seeds, src=src) + bad_input_lines(src=src):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
