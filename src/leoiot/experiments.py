"""Command-line front end: loads scenario presets, runs the analytic and
simulation pipelines, and emits the per-figure data files plus a summary
report with analytic-versus-simulation tolerance checks.

Outputs are plain CSV (one schema-comment line, then a header row) next
to a metadata JSON carrying the tool version, the seed and the hash of the
config keys the subcommand reads.  No timestamps go into data files; the
same master seed reproduces them byte for byte whatever the worker count.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import backhaul_analytic as ba
from . import backhaul_sim as bs
from . import ra_analytic as ra
from . import ra_sim
from .scenario import (PRESETS, RULES, SETTABLE, ScenarioConfig,
                       apply_overrides, config_hash, load_config, split_rates,
                       validate)

OUTPUT_ENV_VAR = "LEOIOT_OUT"
DEFAULT_RHO_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
FIG6_HOPS = (1, 2, 4, 6)
FIG7_HOPS = (4,)
FIG7_ERASURES = (0.0, 0.01, 0.1)
# spec defaults per figure, applied before the command-line flags
FIGURE_DEFAULTS = {
    "fig7": dict(hops=FIG7_HOPS, erasures=FIG7_ERASURES, modes=("no-ra",)),
}

# report tolerances for simulation-vs-closed-form agreement (no-ra rows)
TOLERANCES = {"mean_system_time": 0.02, "mean_aoi": 0.10}
# smallest sweep cell whose age average keeps deliveries past the warm-up
MIN_PACKETS = 10
# most cells a sweep runs: it builds its task list before any cell and
# holds each cell's row and CSV line until it writes its files, 0.73-0.97
# KB a cell under tracemalloc (no-ra sweeps of 240 to 4,800 cells), so
# about 1 GB at the bound
MAX_CELLS = 10 ** 6
# RAO period of the lightly loaded channel behind the offloading pmfs, ms
PMF_RAO_PERIOD = 160.0
# the dotted config keys each subcommand reads: a ``--set`` of any other
# key is rejected, and a run's config hash covers only these
READS = {"offload": SETTABLE, "validate": frozenset(RULES),
         "backhaul": frozenset(k for k in SETTABLE if k == "run.seed"
                               or k.startswith("ground_ra.")),
         "analytic": frozenset(k for k in SETTABLE if k.startswith("traffic.")
                               or k.partition(".")[2] in ra.FIELDS_READ)}
# the largest array index, which bounds a stream's packet count
MAX_INDEX = int(np.iinfo(np.intp).max)
# each ExperimentSpec field a run checks, in report order -> (its name in
# messages, the test of one value, the message when a value fails it); a
# tuple field is a grid, also checked for no value and for a value twice
SPEC_RULES = {
    "rhos": ("rho", lambda r: 0.0 < r < math.inf, "every load must be > 0"),
    "hops": ("hops", lambda n: n >= 1, "every hop count must be >= 1"),
    "erasures": ("link erasure", lambda e: 0.0 <= e < 1.0,
                 "every erasure must lie in [0, 1)"),
    "modes": ("mode", lambda m: m in bs.MODES,
              f"every mode must be in {bs.MODES}"),
    "attempts": ("attempts", lambda a: a >= 1,
                 "every attempt budget must be >= 1"),
    "replications": ("replications", lambda n: n >= 1, "must be >= 1"),
    "workers": ("workers", lambda n: n >= 1, "must be >= 1"),
    "packets": ("packets", lambda n: n <= MAX_INDEX,
                f"must be <= {MAX_INDEX}, the largest array index"),
}
# the spec fields each subcommand reads, as READS holds its config keys
SPEC_READS = {"offload": {"attempts"},
              "analytic": {"rhos", "hops", "erasures"},
              "backhaul": {"rhos", "hops", "erasures", "modes", "replications",
                           "workers", "packets"}}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run."""

    config: ScenarioConfig
    figure: str = "custom"                # fig4 | fig6 | fig7 | custom
    rhos: tuple = DEFAULT_RHO_GRID
    hops: tuple = FIG6_HOPS
    erasures: tuple = (0.0,)
    modes: tuple = bs.MODES
    attempts: tuple = (1, 10)
    replications: int = 5
    packets: int = 100_000
    workers: int = 1
    out_dir: Path = field(default_factory=lambda: Path("results"))


@dataclass(frozen=True)
class Check:
    """A summary metric of a sweep cell, its closed form and its gate."""

    mode: str
    rho: float
    hops: int
    link_erasure: float
    metric: str
    value: float
    stderr: float             # NaN for a single replication
    analytic: float           # NaN where no closed form applies
    tolerance: float          # NaN where no gate applies

    @property
    def gap(self) -> float:
        """The value's relative distance from the closed form."""
        return abs(self.value - self.analytic) / abs(self.analytic)

    @property
    def verdict(self) -> str:
        """'pass' within tolerance, 'noisy' over it but within 3 standard
        errors (a NaN one never is), else 'FAIL'; '' with no gate."""
        if math.isnan(self.tolerance):
            return ""
        return ("pass" if self.gap <= self.tolerance else "noisy"
                if abs(self.value - self.analytic) <= 3.0 * self.stderr
                else "FAIL")


class SpecError(ValueError):
    """A spec no run can use; ``problems`` holds one line per problem."""

    def __init__(self, problems):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


def _check(problems):
    if problems:
        raise SpecError(problems)


def spec_problems(spec: ExperimentSpec, names) -> list:
    """Check the spec fields in ``names`` by their ``SPEC_RULES``, one line
    per problem, by kind of check across the fields: empty grids, grid
    values that fail the test, grid values given twice (a repeat would
    pose as a second replication), then scalars that fail it.  Empty
    means a run that reads only ``names`` can use the spec."""
    rows = [(name, getattr(spec, f), test, message)
            for f, (name, test, message) in SPEC_RULES.items() if f in names]
    grids = [row for row in rows if isinstance(row[1], tuple)]
    return ([f"{name}: the grid needs at least one value"
             for name, values, *_ in grids if not values]
            + [f"{name} {bad}: {message}" for name, values, test, message
               in grids if (bad := [v for v in values if not test(v)])]
            + [f"{name} {twice}: each value may appear once"
               for name, values, *_ in grids
               if (twice := list(dict.fromkeys(
                   v for v in values if values.count(v) > 1)))]
            + [f"{name} {value}: {message}" for name, value, test, message
               in rows if not isinstance(value, tuple) and not test(value)])


def backhaul_problems(spec: ExperimentSpec) -> list:
    """Config and spec problems that stop the relay-chain sweep, also a grid
    whose lossiest cell delivers too few packets for an age average, and
    replications that make more than ``MAX_CELLS`` cells of the grid."""
    grid = spec_problems(spec, SPEC_READS["backhaul"])
    n, eps = max(spec.hops, default=1), max(spec.erasures, default=0.0)
    if not grid and spec.packets * (1.0 - eps) ** n < MIN_PACKETS:
        grid.append(f"packets {spec.packets}: {n} hops at link erasure "
                    f"{eps:g} deliver fewer than {MIN_PACKETS} on average")
    per_rep = math.prod(map(len, (spec.modes, spec.rhos, spec.hops,
                                  spec.erasures)))
    if not grid and (cells := spec.replications * per_rep) > MAX_CELLS:
        grid.append(f"replications {spec.replications}: the grid makes "
                    f"{cells} cells ({per_rep} per replication), more than "
                    f"the {MAX_CELLS} a sweep runs")
    return validate(spec.config, READS["backhaul"]) + grid


def offload_problems(spec: ExperimentSpec) -> list:
    """Config and attempt-budget problems that stop the offloading
    pipeline; empty means usable."""
    config = spec.config
    out = validate(config, READS["offload"])
    periods = [PMF_RAO_PERIOD, config.ground_ra.rao_period]
    if config.space_ra is None:
        out.append("space_ra: offloading needs the space path configured")
    else:
        periods.append(config.space_ra.rao_period)
    out += spec_problems(spec, SPEC_READS["offload"])
    if 0 < config.horizon < max(periods):
        out.append(f"horizon: {config.horizon} ms holds no RAO of a channel "
                   f"with period {max(periods)} ms")
    return out


def _write_csv(path: Path, header, rows, schema: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# leoiot-results v1 {schema}\n")
        csv.writer(fh).writerows([header, *rows])


def _write_metadata(out: Path, spec: ExperimentSpec, command: str, **extra):
    meta = {"tool": "leoiot", "version": __version__, "figure": spec.figure,
            "config_sha256_16": config_hash(spec.config, READS[command]),
            **extra}
    if "run.seed" in READS[command]:
        meta["seed"] = spec.config.seed
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True)
                                       + "\n")


def _fmt(x: float) -> str:
    return "" if x is None else f"{x:.8g}"    # NaN prints as "nan"


# ---------------------------------------------------------------------------
# Offloading: contention pmfs and access-latency CDFs
# ---------------------------------------------------------------------------

def run_offloading(spec: ExperimentSpec):
    """Produce the per-RAO outcome pmfs and the access-latency CDF curves.

    The pmfs use a lightly loaded channel (short RAO period); the CDFs
    cover the terrestrial and space paths for full and split traffic.
    Returns the list of written files.
    """
    cfg = spec.config
    _check(offload_problems(spec))
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    written = []

    # pmf of per-RAO outcomes at light load, both attempt budgets
    pmf_cfg = replace(cfg.ground_ra, rao_period=PMF_RAO_PERIOD,
                      max_backoff=PMF_RAO_PERIOD)
    lam_earth, _ = split_rates(cfg.traffic)
    for a in spec.attempts:
        trace = ra_sim.run(pmf_cfg, a, lam_earth, cfg.horizon,
                           np.random.SeedSequence((cfg.seed, 3, a)))
        pmf = ra_sim.empirical_pmf(trace)
        path = out / f"offload_pmf_a{a}.csv"
        _write_csv(path, ["count", "p_total", "p_collided", "p_successful"],
                   [[k, _fmt(pmf.total[k]), _fmt(pmf.collided[k]),
                     _fmt(pmf.successful[k])] for k in range(len(pmf.total))],
                   "per-RAO outcome pmf")
        written.append(path)

    # latency CDFs: (path, kappa) curves for each attempt budget
    curves = []
    for kappa in (1.0, 0.5):
        traffic = replace(cfg.traffic, ground_ratio=kappa)
        earth, space = split_rates(traffic)
        curves.append(("ground", kappa, cfg.ground_ra, earth))
        if space > 0:
            curves.append(("space", kappa, cfg.space_ra, space))
    summary_rows = []
    for a in spec.attempts:
        for path_name, kappa, ra_cfg, rate in curves:
            trace = ra_sim.run(ra_cfg, a, rate, cfg.horizon,
                               np.random.SeedSequence(
                                   (cfg.seed, 4, a, path_name == "space",
                                    int(kappa * 100))))
            cdf = ra_sim.latency_cdf(trace.latency_ms)
            fp = out / f"offload_cdf_{path_name}_k{int(kappa * 100)}_a{a}.csv"
            _write_csv(fp, ["latency_ms", "cdf"],
                       [[_fmt(x), _fmt(p)] for x, p in
                        zip(cdf.latencies, cdf.probabilities)],
                       "access latency CDF (plateau = success probability)")
            written.append(fp)
            summary_rows.append([path_name, kappa, a, trace.n_raos,
                                 trace.n_records, _fmt(cdf.plateau)])
    sp = out / "offload_summary.csv"
    _write_csv(sp, ["path", "kappa", "attempts", "raos", "records",
                    "success_probability"], summary_rows, "offloading summary")
    written.append(sp)
    _write_metadata(out, spec, "offload")
    return written


# ---------------------------------------------------------------------------
# Backhauling: delay and age versus load
# ---------------------------------------------------------------------------

def _closed_forms(spec: ExperimentSpec) -> dict:
    """The closed-form mean delay and age of every stable grid cell, keyed
    (rho, hops, link_erasure, metric); unstable loads are skipped."""
    closed = {}
    for rho, hops, eps in itertools.product(spec.rhos, spec.hops,
                                            spec.erasures):
        if 0.0 < rho < 1.0:
            tbar, aoi = ba.chain_metrics(hops, rho, eps)
            closed.update({(rho, hops, eps, "mean_system_time"): tbar,
                           (rho, hops, eps, "mean_aoi"): aoi})
    return closed


def run_backhauling(spec: ExperimentSpec):
    """Load sweep of the relay chain for the configured modes and grids.

    Writes the per-replication rows, the aggregated metric table with
    standard errors, the analytic overlay, and the tolerance report.
    Returns (files, report_ok).
    """
    cfg = spec.config
    _check(backhaul_problems(spec))
    closed = _closed_forms(spec)      # a cell with no finite form fails here
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    feed = bs.RaFeedSettings(config=cfg.ground_ra)
    rows = bs.sweep(spec.rhos, spec.hops, spec.erasures, spec.modes,
                    spec.replications, cfg.seed, spec.packets, feed,
                    spec.workers)
    raw = out / "backhaul_rows.csv"
    _write_csv(raw, [f.name for f in fields(bs.SweepRow)],
               [[_fmt(v) if v is None or isinstance(v, float) else v
                 for v in astuple(r)] for r in rows],
               "per-replication sweep rows")

    checks = _checks(rows, closed)
    agg = out / "backhaul_summary.csv"
    _write_csv(agg, ["figure", "mode", "rho", "hops", "link_erasure",
                     "metric", "value", "stderr"],
               [[spec.figure, c.mode, _fmt(c.rho), c.hops,
                 _fmt(c.link_erasure), c.metric, _fmt(c.value),
                 _fmt(c.stderr)] for c in checks],
               "aggregated metrics with Monte Carlo standard errors")

    ov = out / "analytic_overlay.csv"
    _write_csv(ov, ["figure", "mode", "rho", "hops", "link_erasure",
                    "metric", "value"],
               [[spec.figure, "analytic", _fmt(rho), hops, _fmt(eps), metric,
                 _fmt(value)] for (rho, hops, eps, metric), value
                in closed.items()],
               "closed-form overlay (no-RA regime)")

    text, ok = report(checks, spec)
    rp = out / "report.txt"
    rp.write_text(text)
    _write_metadata(out, spec, "backhaul", packets_per_point=spec.packets,
                    replications=spec.replications, workers=spec.workers)
    return [raw, agg, ov, rp], ok


def _checks(rows, closed: dict) -> list:
    """Collapse the replications of each cell into one ``Check`` per
    metric, in summary order: mean, standard error and the closed form
    from ``closed`` (as ``_closed_forms`` keys it).  Only no-ra rows with
    a closed form are gated: the access feeds lie outside its validity."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.mode, r.rho, r.hops, r.link_erasure), []).append(r)
    out = []
    for (mode, rho, hops, eps), grp in sorted(groups.items()):
        for metric in ("mean_system_time", "mean_aoi", "delivered_fraction",
                       "ra_success_prob"):
            vals = [getattr(g, metric) for g in grp]
            if vals[0] is None or all(math.isnan(v) for v in vals):
                continue      # a no-ra cell has no ra_success_prob
            se = (statistics.stdev(vals) / math.sqrt(len(vals))
                  if len(vals) > 1 else math.nan)
            ref = closed.get((rho, hops, eps, metric), math.nan)
            gated = mode == "no-ra" and not math.isnan(ref)
            out.append(Check(mode, rho, hops, eps, metric,
                             statistics.fmean(vals), se, ref,
                             TOLERANCES[metric] if gated else math.nan))
    return out


def report(checks, spec: ExperimentSpec):
    """The checks as a table sorted by cell and metric, with each row's
    gap and verdict; returns (text, no_row_failed)."""
    lines = [f"leoiot report - figure={spec.figure} seed={spec.config.seed} "
             f"replications={spec.replications} "
             f"config={config_hash(spec.config, READS['backhaul'])}"]
    unstable = [rho for rho in spec.rhos if not 0.0 < rho < 1.0]
    if unstable:
        lines.append(f"flagged: no analytic overlay for rho in {unstable} "
                     f"(outside the stable range)")
    lines.append(f"{'mode':8} {'rho':>5} {'N':>2} {'eps':>5} "
                 f"{'metric':18} {'value':>12} {'analytic':>12} "
                 f"{'delta':>8} verdict")
    for c in sorted(checks, key=lambda c: (c.mode, c.rho, c.hops,
                                           c.link_erasure, c.metric)):
        delta = f"{c.gap:8.2%}" if c.verdict else ""
        lines.append(f"{c.mode:8} {c.rho:5.2f} {c.hops:2d} "
                     f"{c.link_erasure:5.2f} {c.metric:18} "
                     f"{c.value:12.5g} {c.analytic:12.5g} "
                     f"{delta:>8} {c.verdict}")
    ok = all(c.verdict != "FAIL" for c in checks)
    lines.append("tolerances: " + ", ".join(f"{k} <= {v:.0%}"
                                            for k, v in TOLERANCES.items())
                 + "; 'noisy' = over tolerance but within 3 standard errors"
                   " (undersized run, not a disagreement)")
    lines.append("overall: " + ("all tolerances met" if ok
                                else "TOLERANCE FAILURES"))
    return "\n".join(lines) + "\n", ok


# ---------------------------------------------------------------------------
# Analytic tables
# ---------------------------------------------------------------------------

def run_analytic(spec: ExperimentSpec):
    """Closed-form quantities for the configured scenario, no simulation."""
    cfg = spec.config
    _check(validate(cfg, READS["analytic"])
           + spec_problems(spec, SPEC_READS["analytic"]))
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    lam_earth, lam_space = split_rates(cfg.traffic)
    paths = [("ground", cfg.ground_ra, lam_earth)]
    if cfg.space_ra is not None:
        paths.append(("space", cfg.space_ra, lam_space))
    for name, ra_cfg, rate in paths:
        lam_rao = ra.arrivals_per_rao(rate, ra_cfg.rao_period)
        rows += [
            [name, "lam_rao", _fmt(lam_rao)],
            [name, "max_throughput_per_s",
             _fmt(ra.max_throughput(ra_cfg.preambles, ra_cfg.rao_period))],
            [name, "stability_margin",
             _fmt(ra.stability_margin(lam_rao, ra_cfg.preambles))],
            [name, "min_access_delay_ms", _fmt(ra.min_access_delay(ra_cfg))],
            [name, "single_attempt_success",
             _fmt(ra.single_attempt_success(ra_cfg, rate))],
        ]
    rows += [[f"chain rho={rho} N={hops} eps={eps}", metric, _fmt(value)]
             for (rho, hops, eps, metric), value in _closed_forms(spec).items()]
    path = out / "analytic.csv"
    _write_csv(path, ["subject", "metric", "value"], rows, "closed forms")
    _write_metadata(out, spec, "analytic")
    return [path]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(p, preset: str, figure: str):
    # a parser default, so a --preset that names it still excludes --config
    p.set_defaults(preset=preset, figure=figure)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESETS, default=argparse.SUPPRESS,
                        help=f"a packaged scenario (default: {preset})")
    source.add_argument("--config", type=Path, dest="config_file",
                        metavar="CONFIG", help="scenario INI file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides",
                   help="override a config key the subcommand reads, by "
                        "dotted path, e.g. traffic.total_rate=250")


def _load_spec(args) -> ExperimentSpec:
    """The run's spec: scenario, then figure defaults, then the flags,
    each of which sets the ``ExperimentSpec`` field it is named after.

    A config that cannot be read or holds an unknown section, key or
    malformed value raises ``OSError`` or ``ValueError``.
    """
    config = apply_overrides(load_config(args.config_file or args.preset),
                             args.overrides, READS[args.command])
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    out = Path(getattr(args, "out", None)
               or os.environ.get(OUTPUT_ENV_VAR, "results"))
    flags = {f.name: tuple(v) if isinstance(v, list) else v
             for f in fields(ExperimentSpec)
             if (v := getattr(args, f.name, None)) is not None}
    return ExperimentSpec(config=config, out_dir=out, **{
        **FIGURE_DEFAULTS.get(args.figure, {}), **flags})


def _rejected(problems) -> int:
    """Print one ``error:`` line per problem; return the exit status 2."""
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leoiot",
        description="LEO-satellite IoT access and backhaul experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario configuration")
    _add_common(p_val, "backhauling", "custom")
    p_off = sub.add_parser("offload", help="contention pmfs and latency CDFs")
    p_off.add_argument("--attempts", type=int, nargs="+")
    _add_common(p_off, "offloading", "fig4")

    p_bh = sub.add_parser("backhaul", help="delay and age versus load sweep")
    p_bh.add_argument("--figure", choices=("fig6", "fig7", "custom"))
    p_bh.add_argument("--mode", nargs="+", choices=bs.MODES, dest="modes")
    p_bh.add_argument("--replications", type=int)
    p_bh.add_argument("--packets", type=int)
    p_bh.add_argument("--workers", type=int)
    _add_common(p_bh, "backhauling", "fig6")

    p_an = sub.add_parser("analytic", help="closed-form tables only")
    _add_common(p_an, "backhauling", "custom")
    for p in (p_bh, p_an):
        p.add_argument("--rho", type=float, nargs="+", dest="rhos",
                       metavar="RHO")
        p.add_argument("--hops", type=int, nargs="+")
        p.add_argument("--link-erasure", type=float, nargs="+",
                       dest="erasures", metavar="LINK_ERASURE")
    for p in (p_off, p_bh):           # the closed forms draw no random number
        p.add_argument("--seed", type=int)
    for p in (p_off, p_bh, p_an):
        p.add_argument("--out", help=f"output directory (default "
                                     f"${OUTPUT_ENV_VAR} or ./results)")

    args = parser.parse_args(argv)
    try:
        spec = _load_spec(args)
    except (OSError, ValueError) as exc:
        return _rejected([f"leoiot {args.command}: {exc}"])

    if args.command == "validate":
        problems = validate(spec.config, READS["validate"])
        print("\n".join(f"violation: {p}" for p in problems)
              or "configuration valid")
        return 1 if problems else 0

    try:
        if args.command == "backhaul":
            files, ok = run_backhauling(spec)
        else:
            run = run_offloading if args.command == "offload" else run_analytic
            files, ok = run(spec), True
    except SpecError as exc:
        return _rejected(exc.problems)
    except (bs.ShortCellError, ba.InstabilityError) as exc:
        return _rejected([exc])
    except MemoryError as exc:
        return _rejected([f"leoiot {args.command}: "
                          f"{str(exc) or 'out of memory'}"])
    for f in files:
        print(f"wrote {f}")
    if not ok:
        print("tolerance failures detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
