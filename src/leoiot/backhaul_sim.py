"""Monte Carlo simulation of the N-hop FCFS relay chain with link
erasures, fed by a Poisson source or by the access-procedure departure
process, plus exact sawtooth integration of the age of information.

Each node is a single unit-rate exponential server with an infinite
buffer, and every link erases with the same probability.  The
per-packet times come from the FCFS waiting-time recursion evaluated as a
vectorized running-minimum scan, which reproduces the event-driven sample
path exactly: a packet starts service when both it and the server are
ready, and a dropped packet still consumes service at every node up to
and including the link that erased it.

The chain and the age integrator work in a few buffers of the stream's
length, allocated once per cell and reused at every node, instead of
fresh temporaries per operation; the elementwise operations and their
order are those of the plain expressions, so results are unchanged.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from . import ra_sim
from .ra_analytic import single_attempt_success
from .scenario import RaConfig

# leading share of each cell's observation window left out of its age average
WARMUP_FRACTION = 0.05


@dataclass(frozen=True)
class BackhaulConfig:
    """Chain of ``hops`` relay nodes, each one unit-rate exponential server
    with an infinite buffer whose outgoing link erases a packet with
    probability ``link_erasure``; the last server is the feeder link."""

    hops: int
    link_erasure: float = 0.0


@dataclass(frozen=True)
class ArrivalStream:
    """Packets entering the chain: queue arrival times plus the generation
    times that the age metric is anchored to (they differ when the access
    procedure sits in front)."""

    arrival_times: np.ndarray
    gen_times: np.ndarray

    def __post_init__(self):
        if len(self.arrival_times) != len(self.gen_times):
            raise ValueError("arrival and generation vectors must align")
        if np.any(np.diff(self.arrival_times) < 0):
            raise ValueError("arrival times must be sorted")

    def __len__(self):
        return len(self.arrival_times)


def poisson_stream(rate: float, n_packets: int, rng) -> ArrivalStream:
    """Poisson arrivals at ``rate``; each packet is generated as it
    arrives, so one array serves as both time vectors."""
    times = rng.exponential(1.0 / rate, size=n_packets)
    np.cumsum(times, out=times)
    return ArrivalStream(arrival_times=times, gen_times=times)


@dataclass
class NetworkTrace:
    config: BackhaulConfig
    gen_times: np.ndarray        # all offered packets
    drop_node: np.ndarray        # 1-based dropping node; 0 = delivered
    delivered_index: np.ndarray
    delivery_times: np.ndarray

    @property
    def n_offered(self) -> int:
        return len(self.gen_times)

    @property
    def n_delivered(self) -> int:
        return len(self.delivered_index)

    @property
    def delivered_fraction(self) -> float:
        return self.n_delivered / self.n_offered if self.n_offered else float("nan")


@dataclass(frozen=True)
class AoiSummary:
    time_average_aoi: float
    mean_system_time: float
    delivered_fraction: float
    peak_aoi_mean: float


def _fcfs_waits(arrivals: np.ndarray, services: np.ndarray,
                out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Waiting times of an FCFS single server via the Lindley recursion
    W_i = max(0, W_{i-1} + S_{i-1} - Y_i), computed as a prefix scan into
    ``out``; ``scratch`` holds the running minimum."""
    out[0] = 0.0
    np.subtract(arrivals[1:], arrivals[:-1], out=out[1:])
    np.subtract(services[:-1], out[1:], out=out[1:])
    np.cumsum(out, out=out)
    np.minimum.accumulate(out, out=scratch)
    return np.subtract(out, scratch, out=out)


# elements moved per step when survivors are compacted in place
_COMPACT_CHUNK = 1 << 14


def _compact(a: np.ndarray, keep: np.ndarray) -> int:
    """Move ``a[keep]`` to the front of ``a`` in order, a chunk at a time
    so no full-length temporary is made; returns the number kept."""
    n_kept = 0
    for start in range(0, len(a), _COMPACT_CHUNK):
        stop = start + _COMPACT_CHUNK
        part = a[start:stop][keep[start:stop]]
        a[n_kept:n_kept + len(part)] = part
        n_kept += len(part)
    return n_kept


def run(stream: ArrivalStream, cfg: BackhaulConfig, seed) -> NetworkTrace:
    """Push a packet stream through the chain.

    Per node the random draws are the service times of the packets that
    reach it, in arrival order, then (on a lossy link) one uniform per
    served packet deciding whether the link erases it.  The surviving
    packets' times and indices are kept in the leading part of reused
    buffers; the stream's arrays are only read.
    """
    rng = np.random.default_rng(seed)
    n = len(stream)
    lossy = cfg.link_erasure > 0.0
    drop_node = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    services, waits, scratch, departures = (np.empty(n) for _ in range(4))
    mask = np.empty(n, dtype=bool) if lossy else None
    times = stream.arrival_times
    k = n
    for node in range(cfg.hops):
        s = rng.standard_exponential(out=services[:k])
        if k:
            w = _fcfs_waits(times, s, waits[:k], scratch[:k])
            times = np.add(times, w, out=departures[:k])
            np.add(times, s, out=times)
        if lossy and k:
            erased = np.less(rng.random(out=scratch[:k]), cfg.link_erasure,
                             out=mask[:k])
            drop_node[alive[:k][erased]] = node + 1
            kept = np.logical_not(erased, out=erased)
            _compact(alive[:k], kept)
            k = _compact(times, kept)
            times = departures[:k]
    return NetworkTrace(cfg, stream.gen_times, drop_node,
                        delivered_index=alive[:k], delivery_times=times)


def mean_system_time(trace: NetworkTrace) -> float:
    """Mean generation-to-delivery time over delivered packets only."""
    if trace.n_delivered == 0:
        raise ValueError("no delivered packet; mean system time undefined")
    return float(np.mean(trace.delivery_times
                         - trace.gen_times[trace.delivered_index]))


def _fresh_deliveries(gen: np.ndarray, deliv: np.ndarray):
    """Drop stale deliveries: an update older than the freshest one already
    delivered never resets the age (cannot happen under per-node FCFS, but
    the integrator stays correct for reordered inputs).  When every
    delivery is fresh, that is when ``gen`` strictly increases, the inputs
    themselves are returned."""
    if np.all(gen[1:] > gen[:-1]):
        return gen, deliv
    keep = np.ones(len(gen), dtype=bool)
    keep[1:] = gen[1:] > np.maximum.accumulate(gen)[:-1]
    return gen[keep], deliv[keep]


def _sawtooth_stats(anchor_t: np.ndarray, anchor_age: np.ndarray):
    """Integrate a sawtooth described by reset anchors from the first
    anchor to the last.

    The age equals ``anchor_age[j] + (t - anchor_t[j])`` between anchor j
    and anchor j+1.  Returns (area, peak_sum, peak_count); peaks are the
    pre-reset ages of every anchor but the first.
    """
    n = len(anchor_t)
    seg, term = np.empty(n), np.empty(n)
    np.subtract(anchor_t[1:], anchor_t[:-1], out=seg[:-1])
    # the last anchor closes the window with a segment of length zero
    seg[-1] = 0.0
    peaks = np.add(anchor_age[:-1], seg[:-1], out=term[:-1])
    peak_sum = float(np.sum(peaks))
    # area = sum(anchor_age * seg + 0.5 * seg ** 2)
    np.multiply(anchor_age, seg, out=term)
    np.square(seg, out=seg)
    np.multiply(0.5, seg, out=seg)
    area = float(np.sum(np.add(term, seg, out=term)))
    return area, peak_sum, n - 1


def average_aoi(trace: NetworkTrace,
                warmup_fraction: float = 0.0) -> AoiSummary:
    """Exact time-average of the sawtooth age at the destination.

    The clock starts at the first delivery, whose post-reset age is that
    update's system time, and stops at the last fresh delivery.
    ``warmup_fraction`` drops the leading share of that window first
    (steady-state summaries).
    """
    if trace.n_delivered < 2:
        raise ValueError("need at least two deliveries for an age average")
    gen, deliv = _fresh_deliveries(trace.gen_times[trace.delivered_index],
                                   trace.delivery_times)
    # gen is a copy made here: the post-reset ages overwrite it
    ages = np.subtract(deliv, gen, out=gen)
    # with every delivery fresh, the ages are the system times of them all
    system_time = (float(np.mean(ages)) if len(ages) == trace.n_delivered
                   else mean_system_time(trace))
    anchor_t, anchor_age = deliv, ages
    start, end = float(deliv[0]), float(deliv[-1])
    if warmup_fraction > 0.0:
        # restart cleanly at the first delivery past the warm-up
        cut = start + warmup_fraction * (end - start)
        i0 = int(np.searchsorted(deliv, cut))
        if i0 >= len(deliv) - 1:
            raise ValueError("warm-up discards all deliveries")
        anchor_t, anchor_age = anchor_t[i0:], anchor_age[i0:]
        start = float(deliv[i0])
    duration = end - start
    if duration <= 0:
        raise ValueError("empty observation window")
    area, peak_sum, peak_n = _sawtooth_stats(anchor_t, anchor_age)
    return AoiSummary(
        time_average_aoi=area / duration,
        mean_system_time=system_time,
        delivered_fraction=trace.delivered_fraction,
        peak_aoi_mean=peak_sum / peak_n if peak_n else float("nan"),
    )


# ---------------------------------------------------------------------------
# Load sweep with optional random-access feeding
# ---------------------------------------------------------------------------

MODES = ("no-ra", "ra-a1", "ra-a10")
_MODE_ID = {m: i for i, m in enumerate(MODES)}
# the second feed pass runs at most this many times longer than the first;
# a feed that needs more is one its access channel cannot fill, and a
# longer pass would only hold more updates in memory
MAX_HORIZON_GROWTH = 10.0


class ShortCellError(RuntimeError):
    """A sweep cell gets too few packets: its access feed falls short, or
    too few packets reach the destination for an age average."""


@dataclass(frozen=True)
class RaFeedSettings:
    """How the access procedure feeds the relay chain.

    The access channel runs on a millisecond clock while the chain uses
    abstract service units, so the departure process of the simulated
    procedure is rescaled in time until its mean rate equals the target
    load rho (the x-axis of the load sweeps is the arrival rate at the
    first relay).  Under that rescaling the handshake latency of an update
    shrinks or grows together with the unit; a congested access channel
    (many collisions, many retries) therefore dominates the end-to-end
    delay at low loads, while a single-attempt lightly loaded channel is
    invisible next to the queueing delays.

    The access procedure does not depend on rho, so a sweep simulates one
    feed per mode and replication and every load of that replication
    rescales the same feed (common random numbers across loads).

    ``config`` is the scenario's ``ground_ra``, run as it is; each mode
    fixes its feed's attempt budget (1 or 10) and offered rate.
    ``a1_rate_per_s`` keeps the one-attempt feed far below the channel
    capacity so its ms-scale handshake stays negligible on the unit
    timescale; ``a10_rate_per_s`` drives the ten-attempt feed into heavy
    contention.  Both are plain offered rates for ``ra_sim.run``.
    """

    config: RaConfig
    a1_rate_per_s: ClassVar[float] = 0.25
    a10_rate_per_s: ClassVar[float] = 275.0


@dataclass(frozen=True)
class AccessFeed:
    """Departure process of the access stage on its own millisecond clock,
    before a load is chosen: the first successful updates in departure
    order, with their generation times."""

    departures_ms: np.ndarray
    gen_times_ms: np.ndarray
    success_prob: float


@dataclass(frozen=True)
class SweepRow:
    mode: str
    rho: float
    hops: int
    link_erasure: float
    replication: int
    n_offered: int
    n_delivered: int
    delivered_fraction: float
    mean_system_time: float
    mean_aoi: float
    peak_aoi_mean: float
    ra_success_prob: float | None   # None for the no-ra mode


def _poisson_seed(master_seed: int, rho: float, replication: int):
    return np.random.SeedSequence(
        (master_seed, 0xFEED, _MODE_ID["no-ra"], int(round(rho * 1e6)),
         replication))


def _access_seed(master_seed: int, mode: str, replication: int):
    return np.random.SeedSequence(
        (master_seed, 0xFEED, _MODE_ID[mode], replication))


def _net_seed(master_seed: int, mode: str, rho: float, hops: int,
              link_erasure: float, replication: int):
    return np.random.SeedSequence(
        (master_seed, 0x9E7, _MODE_ID[mode], int(round(rho * 1e6)), hops,
         int(round(link_erasure * 1e6)), replication))


def ra_departure_stream(key, master_seed: int, n_packets: int,
                        feed: RaFeedSettings) -> AccessFeed:
    """Simulate the access feed of ``key = (mode, replication)`` until it
    has ``n_packets`` departures.

    The horizon is sized from the expected delivered rate, and is at
    least one RAO period; if that pass falls short, one more pass runs
    with the horizon scaled by the observed shortfall (a pass with no
    departure at all counts as one), at most ``MAX_HORIZON_GROWTH``
    times longer.  The result is load-free: ``rescale_feed`` puts it on
    the chain's clock.
    """
    mode, replication = key
    seed = _access_seed(master_seed, mode, replication)
    attempts = 1 if mode == "ra-a1" else 10
    rate = feed.a1_rate_per_s if mode == "ra-a1" else feed.a10_rate_per_s
    cfg = feed.config
    # expected delivered rate per ms, used only to size the horizon
    guess = rate / 1000.0 * (single_attempt_success(cfg, rate)
                             if attempts == 1 else 0.85)
    horizon = max(n_packets / guess * 1.3, cfg.rao_period)
    trace = ra_sim.run(cfg, attempts, rate, horizon, seed)
    if trace.success_count < n_packets:
        # aim five Poisson standard deviations past the departures needed
        target = n_packets + 5.0 * math.sqrt(n_packets)
        horizon *= min(target / max(trace.success_count, 1),
                       MAX_HORIZON_GROWTH)
        trace = ra_sim.run(cfg, attempts, rate, horizon, seed)
    if trace.success_count < n_packets:
        raise ShortCellError(
            f"{mode} feed produced {trace.success_count} < {n_packets} "
            f"departures in {horizon:.6g} ms: {rate:g} updates/s on "
            f"{cfg.preambles} preambles every {cfg.rao_period:g} ms")
    ok = np.isfinite(trace.latency_ms)
    dep_ms, gen_ms = trace.departure[ok], trace.gen_time[ok]
    first = np.argsort(dep_ms, kind="stable")[:n_packets]
    return AccessFeed(departures_ms=dep_ms[first], gen_times_ms=gen_ms[first],
                      success_prob=trace.success_probability)


def rescale_feed(access: AccessFeed, rho: float) -> ArrivalStream:
    """The access feed on the chain's clock, at mean arrival rate rho.

    Generation times scale with the departures, so the handshake latency
    stays in front of the queueing network in chain units.
    """
    dep_ms = access.departures_ms
    rate_ms = len(dep_ms) / float(dep_ms[-1])
    scale = rate_ms / rho            # chain units per millisecond
    return ArrivalStream(arrival_times=dep_ms * scale,
                         gen_times=access.gen_times_ms * scale)


def run_point(mode: str, rho: float, hops: int, link_erasure: float,
              replication: int, master_seed: int, n_packets: int,
              access: AccessFeed | None = None) -> SweepRow:
    """One sweep cell: build the arrival stream, run the chain, summarize.

    An ra cell rescales ``access``, the feed of its mode and replication
    that ``sweep`` simulated once for every load.
    """
    ra_p = None
    if mode == "no-ra":
        rng = np.random.default_rng(_poisson_seed(master_seed, rho,
                                                  replication))
        stream = poisson_stream(rho, n_packets, rng)
    elif mode in ("ra-a1", "ra-a10"):
        if access is None:
            raise ValueError(f"a {mode} cell needs its access feed")
        stream = rescale_feed(access, rho)
        ra_p = access.success_prob
    else:
        raise ValueError(f"unknown mode {mode!r}")
    trace = run(stream, BackhaulConfig(hops, link_erasure),
                _net_seed(master_seed, mode, rho, hops, link_erasure,
                          replication))
    try:
        summary = average_aoi(trace, warmup_fraction=WARMUP_FRACTION)
    except ValueError as exc:
        raise ShortCellError(
            f"{mode} cell rho={rho:g} hops={hops} link erasure="
            f"{link_erasure:g} replication={replication}: {exc}") from None
    return SweepRow(
        mode=mode, rho=rho, hops=hops, link_erasure=link_erasure,
        replication=replication, n_offered=trace.n_offered,
        n_delivered=trace.n_delivered,
        delivered_fraction=summary.delivered_fraction,
        mean_system_time=summary.mean_system_time,
        mean_aoi=summary.time_average_aoi,
        peak_aoi_mean=summary.peak_aoi_mean,
        ra_success_prob=ra_p)


# access feeds of the running sweep, installed once in each pool worker
_POOL_FEEDS: dict = {}


def _install_feeds(feeds: dict):
    _POOL_FEEDS.update(feeds)


def _run_cell(task) -> SweepRow:
    return run_point(*task, access=_POOL_FEEDS.get((task[0], task[4])))


def sweep(rhos, hops_list, erasures, modes, replications: int,
          master_seed: int, n_packets: int = 100_000,
          feed: RaFeedSettings | None = None, workers: int = 1):
    """Cross product of the grid, deterministically seeded per cell.

    Each access feed is simulated once per (mode, replication), before
    the cells fan out, and rescaled to every load; ``feed`` is needed
    when ``modes`` holds an ra mode.  The result order and content depend
    only on the grid and the master seed, never on the worker count.
    """
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise ValueError(f"unknown mode(s) {unknown}")
    keys = list(dict.fromkeys((m, rep) for m in modes if m != "no-ra"
                              for rep in range(replications)))
    if keys and feed is None:
        raise ValueError("ra modes need the access feed settings")
    simulate = partial(ra_departure_stream, master_seed=master_seed,
                       n_packets=n_packets, feed=feed)
    tasks = [(m, rho, n, e, rep, master_seed, n_packets)
             for m in modes for rho in rhos for n in hops_list
             for e in erasures for rep in range(replications)]
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        feeds = {}
        if keys:
            with ProcessPoolExecutor(max_workers=min(workers, len(keys)),
                                     mp_context=spawn) as pool:
                feeds = dict(zip(keys, pool.map(simulate, keys)))
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn,
                                 initializer=_install_feeds,
                                 initargs=(feeds,)) as pool:
            rows = list(pool.map(_run_cell, tasks, chunksize=1))
    else:
        feeds = dict(zip(keys, map(simulate, keys)))
        rows = [run_point(*t, access=feeds.get((t[0], t[4]))) for t in tasks]
    rows.sort(key=lambda r: (r.mode, r.rho, r.hops, r.link_erasure,
                             r.replication))
    return rows
