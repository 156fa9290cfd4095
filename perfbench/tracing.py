"""Traced pass: spans around calls into the program's public functions,
recorded from outside the program by swapping module attributes for
timing wrappers while the pass runs.

A span holds a name, start, end and parent.  Spans live in flat arrays
in memory and are written out after the run.  Counters are taken from
call arguments and returned traces only; the time spent taking them is
removed from the span clock, so it shows as tracing overhead rather than
as a layer's time.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import inspect
import statistics
import time
import tracemalloc
import types
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._hook_s = 0.0                  # excluded from the span clock
        self.counts = Counter()
        self.trace_mb = 0.0                 # max over backhaul_sim.run calls
        self.feeds: set = set()             # (mode, replication) fed by ra_sim
        self.largest_ra_call = None         # (attempts, bound args) of ra_sim.run
        self._ra_pending = None

    def clock(self) -> float:
        return time.perf_counter() - self._hook_s

    def wrap(self, fn, name: str, before=None, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(self.clock())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = self.clock()
            if after is not None:
                self._hook(after, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, hook, *args):
        t0 = time.perf_counter()
        hook(*args)
        self._hook_s += time.perf_counter() - t0

    # -- counters, from arguments and returned traces -----------------------

    def _ra_before(self, sig):
        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            seed = bound.arguments["seed"]
            if isinstance(seed, np.random.Generator):
                bound.arguments["seed"] = copy.deepcopy(seed)
            self._ra_pending = bound
        return before

    def _ra_after(self, trace):
        attempts = sum(r.transmissions for r in trace.rao_records)
        self.counts["ra_sim.run.attempts"] += attempts
        self.counts["ra_sim.run.raos_occupied"] += len(trace.rao_records)
        self.counts["ra_sim.run.successes"] += trace.success_count
        self.counts["ra_sim.run.censored"] += trace.censored
        if self.largest_ra_call is None or attempts > self.largest_ra_call[0]:
            self.largest_ra_call = (attempts, self._ra_pending)

    def _chain_after(self, net):
        hops = net.config.hops
        self.counts["backhaul_sim.run.packet_hops"] += int(
            np.where(net.drop_node == 0, hops, net.drop_node).sum())
        self.trace_mb = max(self.trace_mb, _array_bytes(net) / 1e6)

    def _aoi_before(self, args, kwargs):
        trace = args[0] if args else kwargs["trace"]
        self.counts["backhaul_sim.average_aoi.deliveries"] += trace.n_delivered

    def _point_before(self, sig):
        def before(args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            if a["mode"] != "no-ra":
                self.feeds.add((a["mode"], a["replication"]))
        return before

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def instrumented(self):
        """Swap the traced functions into the program's modules."""
        from leoiot import backhaul_analytic, backhaul_sim, experiments, ra_sim

        sig = inspect.signature
        ba_proxy = types.SimpleNamespace(**{
            k: (self.wrap(v, f"backhaul_analytic.{k}")
                if inspect.isfunction(v) and not k.startswith("_") else v)
            for k, v in vars(backhaul_analytic).items()})
        patches = [
            (experiments, "load_config", "scenario.load_config", None, None),
            (experiments, "ba", None, None, None),
            (ra_sim, "run", "ra_sim.run",
             self._ra_before(sig(ra_sim.run)), self._ra_after),
            (ra_sim, "empirical_pmf", "ra_sim.empirical_pmf", None, None),
            (ra_sim, "latency_cdf", "ra_sim.latency_cdf", None, None),
            (ra_sim, "access_delay", "ra_analytic.access_delay", None, None),
            (backhaul_sim, "run_point", "backhaul_sim.run_point",
             self._point_before(sig(backhaul_sim.run_point)), None),
            (backhaul_sim, "ra_departure_stream",
             "backhaul_sim.ra_departure_stream", None, None),
            (backhaul_sim, "poisson_stream", "backhaul_sim.poisson_stream",
             None, None),
            (backhaul_sim, "run", "backhaul_sim.run", None, self._chain_after),
            (backhaul_sim, "average_aoi", "backhaul_sim.average_aoi",
             self._aoi_before, None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in patches]
        try:
            for mod, attr, name, before, after in patches:
                new = (ba_proxy if name is None
                       else self.wrap(getattr(mod, attr), name, before, after))
                setattr(mod, attr, new)
            yield
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    # -- results -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start, end = np.asarray(self.start), np.asarray(self.end)
        parent = np.asarray(self.parent)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def write_spans(self, path):
        selfs = self.self_times()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "parent", "start_s", "end_s", "self_s"])
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                w.writerow([i, self.names[self.name[i]], self.parent[i],
                            f"{self.start[i] - t0:.9f}",
                            f"{self.end[i] - t0:.9f}", f"{selfs[i]:.9f}"])

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics of one traced pass."""
        names = np.array(self.names, dtype=object)
        nid = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        selfs = self.self_times()
        span_names = names[nid] if len(nid) else np.empty(0, dtype=object)

        def mask(name):
            return span_names == name

        def total(name):
            return float(dur[mask(name)].sum())

        def calls(name):
            return int(mask(name).sum())

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        c = self.counts
        ra_s = total("ra_sim.run")
        chain_s = total("backhaul_sim.run")
        feed = mask("backhaul_sim.ra_departure_stream")
        parent_is_feed = np.zeros(len(nid), dtype=bool)
        has_parent = parent >= 0
        parent_is_feed[has_parent] = feed[parent[has_parent]]
        feed_runs = int((mask("ra_sim.run") & parent_is_feed).sum())
        analytic = np.array([n.startswith("backhaul_analytic.")
                             for n in span_names], dtype=bool)
        points = dur[mask("backhaul_sim.run_point")]
        return {
            "scenario.load_config.s": total("scenario.load_config"),
            "ra_sim.run.calls": calls("ra_sim.run"),
            "ra_sim.run.s": ra_s,
            "ra_sim.run.attempts": c["ra_sim.run.attempts"],
            "ra_sim.run.raos_occupied": c["ra_sim.run.raos_occupied"],
            "ra_sim.run.us_per_attempt": per(ra_s, c["ra_sim.run.attempts"], 1e6),
            "ra_sim.run.us_per_occupied_rao":
                per(ra_s, c["ra_sim.run.raos_occupied"], 1e6),
            "ra_sim.run.success_per_attempt":
                per(c["ra_sim.run.successes"], c["ra_sim.run.attempts"]),
            "ra_sim.run.censored": c["ra_sim.run.censored"],
            "ra_sim.empirical_pmf.s": total("ra_sim.empirical_pmf"),
            "ra_sim.latency_cdf.s": total("ra_sim.latency_cdf"),
            "ra_analytic.access_delay.calls": calls("ra_analytic.access_delay"),
            "ra_analytic.access_delay.s": total("ra_analytic.access_delay"),
            "backhaul_sim.ra_departure_stream.s":
                total("backhaul_sim.ra_departure_stream"),
            "backhaul_sim.feed.runs_per_feed": per(feed_runs, len(self.feeds)),
            "backhaul_sim.feed.horizon_retries": feed_runs - int(feed.sum()),
            "backhaul_sim.poisson_stream.s": total("backhaul_sim.poisson_stream"),
            "backhaul_sim.run.calls": calls("backhaul_sim.run"),
            "backhaul_sim.run.s": chain_s,
            "backhaul_sim.run.packet_hops": c["backhaul_sim.run.packet_hops"],
            "backhaul_sim.run.ns_per_packet_hop":
                per(chain_s, c["backhaul_sim.run.packet_hops"], 1e9),
            "backhaul_sim.run.trace_mb": self.trace_mb,
            "backhaul_sim.average_aoi.s": total("backhaul_sim.average_aoi"),
            "backhaul_sim.average_aoi.ns_per_delivery":
                per(total("backhaul_sim.average_aoi"),
                    c["backhaul_sim.average_aoi.deliveries"], 1e9),
            "backhaul_sim.run_point.calls": len(points),
            "backhaul_sim.run_point.ms_p50":
                statistics.median(points) * 1e3 if len(points) else 0.0,
            "backhaul_analytic.calls": int(analytic.sum()),
            "backhaul_analytic.s": float(dur[analytic].sum()),
            "experiments.pipeline.self_s":
                float(selfs[mask("experiments.pipeline")].sum()),
            "trace.self_share": per(float(selfs.sum()), traced_wall_s),
        }


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, through dataclass fields
    and lists (a ``NetworkTrace`` with its per-node traces)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


def peak_alloc_mb(fn, bound) -> float:
    """Peak memory traced while ``fn`` reruns one recorded call."""
    tracemalloc.start()
    try:
        fn(*bound.args, **bound.kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
