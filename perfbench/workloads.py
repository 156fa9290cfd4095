"""The benchmark's workloads: the CLI arguments each one passes to
``leoiot.experiments.main`` for a seed, the spec the CLI builds from
them, and the operations the outputs are accounted in.

Only the standard library is imported at module level, so the set-up
probe pays for nothing but the program's own imports.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

# (path, kappa) curves the offload pipeline writes a latency CDF for
OFFLOAD_CURVES = (("ground", 1.0), ("ground", 0.5), ("space", 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str            # leoiot subcommand: offload | backhaul
    preset: str
    figure: str                # figure the CLI builds the spec for
    overrides: tuple = ()      # --set KEY=VALUE items
    kernel: str = "python"     # reference kernel of the same kind, reference.py
    rhos: tuple = ()
    packets: int = 0

    def argv(self, seed: int, out_dir) -> list:
        argv = [self.subcommand, "--preset", self.preset, "--seed", str(seed),
                "--out", str(out_dir)]
        for item in self.overrides:
            argv += ["--set", item]
        if self.subcommand == "backhaul":
            argv += ["--figure", self.figure,
                     "--rho", *(repr(r) for r in self.rhos),
                     "--replications", "1",
                     "--packets", str(self.packets), "--workers", "1"]
        return argv


WORKLOADS = {w.name: w for w in (
    # 1/10 of the preset's 3.2e6 ms horizon: 8 access-procedure runs
    Workload("offload", "offload", "offloading", "fig4",
             overrides=("horizon=320000",)),
    # 3 loads x hops 1/2/4/6 x 3 modes = 36 sweep cells of 2,000 packets
    Workload("fig6-slice", "backhaul", "backhauling", "fig6",
             rhos=(0.2, 0.4, 0.6), packets=2_000),
    # 3 loads x erasures 0/0.01/0.1 at 4 hops = 9 cells of 10^6 packets
    Workload("fig7-long", "backhaul", "backhauling", "fig7", kernel="numpy",
             rhos=(0.2, 0.5, 0.8), packets=1_000_000),
)}


def build_spec(w: Workload, seed: int, out_dir):
    """The ``ExperimentSpec`` that ``leoiot <w.argv(seed, out_dir)>`` runs,
    built through the public configuration API."""
    from leoiot import experiments as ex
    from leoiot.scenario import apply_overrides, load_config

    config = apply_overrides(load_config(w.preset), list(w.overrides))
    spec = ex.ExperimentSpec(config=replace(config, seed=seed),
                             figure=w.figure, out_dir=Path(out_dir))
    if w.subcommand == "offload":
        return spec
    spec = replace(spec, rhos=w.rhos, replications=1, packets=w.packets,
                   workers=1)
    if w.figure == "fig6":
        return replace(spec, erasures=(0.0,), hops=ex.FIG6_HOPS)
    return replace(spec, erasures=ex.FIG7_ERASURES, hops=ex.FIG7_HOPS,
                   modes=("no-ra",))


def operations(w: Workload, spec) -> list:
    """Operations one pass attempts: access-procedure runs for offload,
    sweep cells for the backhaul workloads."""
    if w.subcommand == "offload":
        return ([("pmf", a) for a in spec.attempts]
                + [("cdf", path, kappa, a) for a in spec.attempts
                   for path, kappa in OFFLOAD_CURVES])
    return [(mode, rho, hops, eps) for mode in spec.modes for rho in spec.rhos
            for hops in spec.hops for eps in spec.erasures]
