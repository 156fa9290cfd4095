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
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import backhaul_analytic as ba
from . import backhaul_sim as bs
from . import ra_analytic as ra
from . import ra_sim
from .scenario import (PRESETS, SETTABLE, ScenarioConfig, apply_overrides,
                       config_hash, load_config, split_rates, validate)

OUTPUT_ENV_VAR = "LEOIOT_OUT"
DEFAULT_RHO_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
FIG6_HOPS = (1, 2, 4, 6)
FIG7_HOPS = (4,)
FIG7_ERASURES = (0.0, 0.01, 0.1)
# spec defaults per figure, applied before the command-line flags
FIGURE_DEFAULTS = {
    "fig7": dict(hops=FIG7_HOPS, erasures=FIG7_ERASURES, modes=("no-ra",)),
}
# command-line flag -> the ExperimentSpec field it sets
SPEC_FLAGS = {"rho": "rhos", "hops": "hops", "link_erasure": "erasures",
              "mode": "modes", "attempts": "attempts",
              "replications": "replications", "packets": "packets",
              "workers": "workers"}

# report tolerances for simulation-vs-closed-form agreement (no-ra rows)
TOLERANCES = {"mean_system_time": 0.02, "mean_aoi": 0.10}
# smallest sweep cell whose age average keeps deliveries past the warm-up
MIN_PACKETS = 10
# RAO period of the lightly loaded channel behind the offloading pmfs, ms
PMF_RAO_PERIOD = 160.0
# the dotted config keys each subcommand reads: a ``--set`` of any other
# key is rejected, and a run's config hash covers only these
READS = {"offload": SETTABLE, "validate": SETTABLE - {"run.seed"},
         "backhaul": frozenset(k for k in SETTABLE if k == "run.seed"
                               or k.startswith("ground_ra.")),
         "analytic": frozenset(k for k in SETTABLE if k.startswith("traffic.")
                               or k.partition(".")[2] in ra.FIELDS_READ)}


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
class ResultRow:
    """One metric value with its full parameter tuple."""

    figure: str
    mode: str
    rho: float
    hops: int
    link_erasure: float
    metric: str
    value: float
    stderr: float | None      # None for analytic rows


class SpecError(ValueError):
    """A spec no run can use; ``problems`` holds one line per problem."""

    def __init__(self, problems):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


def _check(problems):
    if problems:
        raise SpecError(problems)


def _repeated(name: str, values) -> list:
    """A grid value given twice would pose as a second replication."""
    twice = list(dict.fromkeys(v for v in values if values.count(v) > 1))
    return [f"{name} {twice}: each value may appear once"] if twice else []


def sweep_problems(spec: ExperimentSpec) -> list:
    """Collect sweep-grid values no run can use; empty means usable."""
    out = []
    rhos = [r for r in spec.rhos if not 0.0 < r < math.inf]
    if rhos:
        out.append(f"rho {rhos}: every load must be > 0")
    hops = [n for n in spec.hops if n < 1]
    if hops:
        out.append(f"hops {hops}: every hop count must be >= 1")
    erasures = [e for e in spec.erasures if not 0.0 <= e < 1.0]
    if erasures:
        out.append(f"link erasure {erasures}: every erasure must lie in [0, 1)")
    out += (_repeated("rho", spec.rhos) + _repeated("hops", spec.hops)
            + _repeated("link erasure", spec.erasures)
            + _repeated("mode", spec.modes))
    if spec.replications < 1:
        out.append(f"replications {spec.replications}: must be >= 1")
    if spec.workers < 1:
        out.append(f"workers {spec.workers}: must be >= 1")
    return out


def backhaul_problems(spec: ExperimentSpec) -> list:
    """Config and grid problems that stop the relay-chain sweep, also a grid
    whose lossiest cell delivers too few packets for an age average."""
    grid = sweep_problems(spec)
    n, eps = max(spec.hops, default=1), max(spec.erasures, default=0.0)
    if not grid and spec.packets * (1.0 - eps) ** n < MIN_PACKETS:
        grid.append(f"packets {spec.packets}: {n} hops at link erasure "
                    f"{eps:g} deliver fewer than {MIN_PACKETS} on average")
    return validate(spec.config) + grid


def offload_problems(spec: ExperimentSpec) -> list:
    """Config and attempt-budget problems that stop the offloading
    pipeline; empty means usable."""
    config = spec.config
    out = validate(config)
    periods = [PMF_RAO_PERIOD, config.ground_ra.rao_period]
    if config.space_ra is None:
        out.append("space_ra: offloading needs the space path configured")
    else:
        periods.append(config.space_ra.rao_period)
    attempts = [a for a in spec.attempts if a < 1]
    if attempts:
        out.append(f"attempts {attempts}: every attempt budget must be >= 1")
    out += _repeated("attempts", spec.attempts)
    if 0 < config.horizon < max(periods):
        out.append(f"horizon: {config.horizon} ms holds no RAO of a channel "
                   f"with period {max(periods)} ms")
    return out


def _write_csv(path: Path, header, rows, schema: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# leoiot-results v1 {schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_metadata(out: Path, spec: ExperimentSpec, command: str, extra=None):
    meta = {
        "tool": "leoiot", "version": __version__,
        "config_sha256_16": config_hash(spec.config, READS[command]),
        "figure": spec.figure,
        "replications": spec.replications,
        "workers": spec.workers,
    }
    if "run.seed" in READS[command]:
        meta["seed"] = spec.config.seed
    if extra:
        meta.update(extra)
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True)
                                       + "\n")


def _fmt(x: float) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.8g}"


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

def _analytic_rows(spec: ExperimentSpec):
    """Closed-form overlays for the no-RA regime (and the near-identical
    single-attempt regime).  Unstable grid points are skipped."""
    rows = []
    for rho in spec.rhos:
        if not 0.0 < rho < 1.0:
            continue
        for hops in spec.hops:
            for eps in spec.erasures:
                tbar, aoi = ba.chain_metrics(hops, rho, eps)
                rows.append(ResultRow(spec.figure, "analytic", rho, hops, eps,
                                      "mean_system_time", tbar, None))
                rows.append(ResultRow(spec.figure, "analytic", rho, hops, eps,
                                      "mean_aoi", aoi, None))
    return rows


def run_backhauling(spec: ExperimentSpec):
    """Load sweep of the relay chain for the configured modes and grids.

    Writes the per-replication rows, the aggregated metric table with
    standard errors, the analytic overlay, and the tolerance report.
    Returns (files, report_ok).
    """
    cfg = spec.config
    _check(backhaul_problems(spec))
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    feed = bs.RaFeedSettings(config=cfg.ground_ra)
    rows = bs.sweep(spec.rhos, spec.hops, spec.erasures, spec.modes,
                    spec.replications, cfg.seed, spec.packets, feed,
                    spec.workers)
    files = []
    raw = out / "backhaul_rows.csv"
    _write_csv(raw, ["mode", "rho", "hops", "link_erasure", "replication",
                     "n_offered", "n_delivered", "delivered_fraction",
                     "mean_system_time", "mean_aoi", "peak_aoi_mean",
                     "ra_success_prob"],
               [[r.mode, _fmt(r.rho), r.hops, _fmt(r.link_erasure),
                 r.replication, r.n_offered, r.n_delivered,
                 _fmt(r.delivered_fraction), _fmt(r.mean_system_time),
                 _fmt(r.mean_aoi), _fmt(r.peak_aoi_mean),
                 _fmt(r.ra_success_prob)] for r in rows],
               "per-replication sweep rows")
    files.append(raw)

    result_rows = _aggregate(spec, rows)
    agg = out / "backhaul_summary.csv"
    _write_csv(agg, ["figure", "mode", "rho", "hops", "link_erasure",
                     "metric", "value", "stderr"],
               [[r.figure, r.mode, _fmt(r.rho), r.hops, _fmt(r.link_erasure),
                 r.metric, _fmt(r.value), _fmt(r.stderr)]
                for r in result_rows],
               "aggregated metrics with Monte Carlo standard errors")
    files.append(agg)

    analytic = _analytic_rows(spec)
    ov = out / "analytic_overlay.csv"
    _write_csv(ov, ["figure", "mode", "rho", "hops", "link_erasure",
                    "metric", "value"],
               [[r.figure, r.mode, _fmt(r.rho), r.hops, _fmt(r.link_erasure),
                 r.metric, _fmt(r.value)] for r in analytic],
               "closed-form overlay (no-RA regime)")
    files.append(ov)

    text, ok = report(result_rows + analytic, spec)
    rp = out / "report.txt"
    rp.write_text(text)
    files.append(rp)
    _write_metadata(out, spec, "backhaul", {"packets_per_point": spec.packets})
    return files, ok


def _aggregate(spec: ExperimentSpec, rows):
    """Collapse replications into mean +- standard error per metric."""
    metrics = ("mean_system_time", "mean_aoi", "delivered_fraction",
               "ra_success_prob")
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.mode, r.rho, r.hops, r.link_erasure), []).append(r)
    out = []
    for (mode, rho, hops, eps), grp in sorted(groups.items()):
        for metric in metrics:
            vals = [getattr(g, metric) for g in grp
                    if getattr(g, metric) is not None]
            if not vals or all(math.isnan(v) for v in vals):
                continue
            mean = statistics.fmean(vals)
            se = (statistics.stdev(vals) / math.sqrt(len(vals))
                  if len(vals) > 1 else float("nan"))
            out.append(ResultRow(spec.figure, mode, rho, hops, eps, metric,
                                 mean, se))
    return out


def report(result_rows, spec: ExperimentSpec):
    """Human-readable metric table with analytic-vs-simulation deltas.

    Returns (text, all_tolerances_met).  Only the no-RA rows are compared
    against the closed forms (the single-attempt feed tracks them, and the
    ten-attempt feed is outside the analytic validity).
    """
    lines = [f"leoiot report - figure={spec.figure} seed={spec.config.seed} "
             f"replications={spec.replications} "
             f"config={config_hash(spec.config, READS['backhaul'])}"]
    unstable = [rho for rho in spec.rhos if not 0.0 < rho < 1.0]
    if unstable:
        lines.append(f"flagged: no analytic overlay for rho in {unstable} "
                     f"(outside the stable range)")
    if not result_rows:
        lines.append("no runs")
        return "\n".join(lines) + "\n", True
    analytic = {(r.rho, r.hops, r.link_erasure, r.metric): r.value
                for r in result_rows if r.mode == "analytic"}
    ok = True
    lines.append(f"{'mode':8} {'rho':>5} {'N':>2} {'eps':>5} "
                 f"{'metric':18} {'value':>12} {'analytic':>12} "
                 f"{'delta':>8} verdict")
    for r in sorted(result_rows, key=lambda r: (r.mode, r.rho, r.hops,
                                                r.link_erasure, r.metric)):
        if r.mode == "analytic":
            continue
        ref = analytic.get((r.rho, r.hops, r.link_erasure, r.metric))
        delta = verdict = ""
        if ref is not None and r.mode == "no-ra" and r.metric in TOLERANCES:
            rel = abs(r.value - ref) / abs(ref)
            delta = f"{rel:8.2%}"
            if rel <= TOLERANCES[r.metric]:
                verdict = "pass"
            elif (r.stderr is not None and math.isfinite(r.stderr)
                  and abs(r.value - ref) <= 3.0 * r.stderr):
                # over tolerance but within Monte Carlo noise: flag, not fail
                verdict = "noisy"
            else:
                verdict = "FAIL"
                ok = False
        lines.append(f"{r.mode:8} {r.rho:5.2f} {r.hops:2d} "
                     f"{r.link_erasure:5.2f} {r.metric:18} "
                     f"{r.value:12.5g} "
                     f"{ref if ref is not None else float('nan'):12.5g} "
                     f"{delta:>8} {verdict}")
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
    _check(validate(cfg) + sweep_problems(spec))
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
    rows += [[f"chain rho={r.rho} N={r.hops} eps={r.link_erasure}", r.metric,
              _fmt(r.value)] for r in _analytic_rows(spec)]
    path = out / "analytic.csv"
    _write_csv(path, ["subject", "metric", "value"], rows, "closed forms")
    _write_metadata(out, spec, "analytic")
    return [path]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESETS, default=None,
                        help="a packaged scenario")
    source.add_argument("--config", type=Path, default=None,
                        help="scenario INI file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides",
                   help="override a config key the subcommand reads, by "
                        "dotted path, e.g. traffic.total_rate=250")


def _load_spec(args, figure: str) -> ExperimentSpec:
    """The run's spec: scenario, then figure defaults, then the flags.

    A config that cannot be read or holds an unknown section, key or
    malformed value raises ``OSError`` or ``ValueError``.
    """
    name = args.preset or args.config
    if name is None:
        name = "offloading" if figure == "fig4" else "backhauling"
    config = apply_overrides(load_config(name), args.overrides,
                             READS[args.command])
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    out = Path(getattr(args, "out", None)
               or os.environ.get(OUTPUT_ENV_VAR, "results"))
    spec = ExperimentSpec(config=config, figure=figure, out_dir=out,
                          **FIGURE_DEFAULTS.get(figure, {}))
    for flag, field_name in SPEC_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            spec = replace(spec, **{field_name: tuple(value)
                                    if isinstance(value, list) else value})
    return spec


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
    _add_common(p_val)

    p_off = sub.add_parser("offload", help="contention pmfs and latency CDFs")
    _add_common(p_off)
    p_off.add_argument("--attempts", type=int, nargs="+", default=None)

    p_bh = sub.add_parser("backhaul", help="delay and age versus load sweep")
    _add_common(p_bh)
    p_bh.add_argument("--figure", choices=("fig6", "fig7", "custom"),
                      default="fig6")
    p_bh.add_argument("--rho", type=float, nargs="+", default=None)
    p_bh.add_argument("--hops", type=int, nargs="+", default=None)
    p_bh.add_argument("--link-erasure", type=float, nargs="+", default=None,
                      dest="link_erasure")
    p_bh.add_argument("--mode", nargs="+", choices=bs.MODES, default=None)
    p_bh.add_argument("--replications", type=int, default=None)
    p_bh.add_argument("--packets", type=int, default=None)
    p_bh.add_argument("--workers", type=int, default=None)

    p_an = sub.add_parser("analytic", help="closed-form tables only")
    _add_common(p_an)
    p_an.add_argument("--rho", type=float, nargs="+", default=None)
    p_an.add_argument("--hops", type=int, nargs="+", default=None)
    p_an.add_argument("--link-erasure", type=float, nargs="+", default=None,
                      dest="link_erasure")
    for p in (p_off, p_bh):           # the closed forms draw no random number
        p.add_argument("--seed", type=int, default=None)
    for p in (p_off, p_bh, p_an):
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTPUT_ENV_VAR} "
                            f"or ./results)")

    args = parser.parse_args(argv)
    figure = getattr(args, "figure",
                     "fig4" if args.command == "offload" else "custom")
    try:
        spec = _load_spec(args, figure)
    except (OSError, ValueError) as exc:
        return _rejected([f"leoiot {args.command}: {exc}"])

    if args.command == "validate":
        problems = validate(spec.config)
        if problems:
            for p in problems:
                print(f"violation: {p}")
            return 1
        print("configuration valid")
        return 0

    try:
        if args.command == "backhaul":
            files, ok = run_backhauling(spec)
        else:
            run = run_offloading if args.command == "offload" else run_analytic
            files, ok = run(spec), True
    except SpecError as exc:
        return _rejected(exc.problems)
    except bs.ShortCellError as exc:
        return _rejected([exc])
    for f in files:
        print(f"wrote {f}")
    if not ok:
        print("tolerance failures detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
