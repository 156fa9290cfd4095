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

The chain scans each node a cache-sized chunk at a time, its random
draws made ahead on a second thread for a longer stream; the elementwise
operations and their order are those of the plain full-length
expressions, so results are unchanged.  The age integrator reads the
deliveries in one pass of the same chunks, carrying the newest
generation time and the last reset from chunk to chunk; only its sums
are split by chunk.  Beside the stream, a cell holds its departures, the
index of its survivors and one small integer per packet for the node
that dropped it.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    drop_node: np.ndarray        # 1-based dropping node, 0 = delivered;
                                 # the smallest unsigned type for the hops
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


# packets per step of the chain's scan and of the age integrator, and
# chunks drawn ahead of the scan
_CHUNK = 1 << 15
_AHEAD = 2


def _draws(seed, n: int, cfg: BackhaulConfig, ring: list):
    """Every random draw of the chain in order, a chunk at a time in the
    buffers of ``ring`` in turn: per node the services of the packets that
    reach it, then on a lossy link the positions it erases and keeps."""
    rng, slots, k = np.random.default_rng(seed), itertools.cycle(ring), n
    for _ in range(cfg.hops):
        for lo in range(0, k, _CHUNK):
            yield rng.standard_exponential(out=next(slots)[:k - lo])
        if cfg.link_erasure > 0.0:
            for lo in range(0, k, _CHUNK):
                e = rng.random(out=next(slots)[:k - lo]) < cfg.link_erasure
                gone = np.flatnonzero(e)
                n -= len(gone)
                yield gone, np.flatnonzero(np.logical_not(e, out=e))
            k = n


@contextlib.contextmanager
def _ahead(items, depth: int):
    """Iterate ``items`` ``depth`` ahead of the block on a thread that
    ends with the block and whose exception is raised in it."""
    end, pool = object(), ThreadPoolExecutor(1)
    pending = [pool.submit(next, items, end) for _ in range(depth)]

    def ready():
        while (item := pending.pop(0).result()) is not end:
            pending.append(pool.submit(next, items, end))
            yield item
    try:
        yield ready()
    finally:
        pool.shutdown(cancel_futures=True)


def run(stream: ArrivalStream, cfg: BackhaulConfig, seed) -> NetworkTrace:
    """Push a packet stream through the chain.

    Per node the random draws are the service times of the packets that
    reach it, in arrival order, then (on a lossy link) one uniform per
    served packet deciding whether the link erases it.  A node's waits
    W_i = max(0, W_{i-1} + S_{i-1} - Y_i) are C - min.accumulate(C), C the
    running sum of S_{i-1} - Y_i, scanned a chunk at a time; a leading
    slot carries the sum and minimum on.  Departures overwrite arrivals
    in one buffer, and the stream's arrays are only read.
    """
    n = len(stream)
    drop_node = np.zeros(n, dtype=np.min_scalar_type(cfg.hops))
    alive = np.arange(n)
    times, departures = stream.arrival_times, np.empty(n)
    cum, low = np.empty(min(n, _CHUNK) + 1), np.empty(min(n, _CHUNK) + 1)
    # a buffer per chunk drawn ahead, one for the chunk in the scan
    ring = [np.empty(min(n, _CHUNK)) for _ in range(1 + _AHEAD * (n > _CHUNK))]
    draws, k = _draws(seed, n, cfg, ring), n
    with (_ahead(draws, _AHEAD) if n > _CHUNK
          else contextlib.nullcontext(draws)) as draws:
        for node in range(cfg.hops):
            carry_sum = carry_min = last_s = 0.0
            last_a = times[0] if k else 0.0
            for lo in range(0, k, _CHUNK):
                s = next(draws)
                a, x, m = (times[lo:lo + len(s)], cum[:len(s) + 1],
                           low[:len(s) + 1])
                np.subtract(a[1:], a[:-1], out=x[2:])
                np.subtract(s[:-1], x[2:], out=x[2:])
                x[:2] = carry_sum, last_s - (a[0] - last_a)
                np.cumsum(x, out=x)
                carry_sum, x[0] = x[-1], carry_min
                # fmin is minimum but for NaN, which no time is, and faster
                np.fmin.accumulate(x, out=m)
                carry_min, last_a, last_s = m[-1], a[-1], s[-1]
                w = np.subtract(x[1:], m[1:], out=x[1:])
                d = np.add(a, w, out=departures[lo:lo + len(s)])
                np.add(d, s, out=d)
            times = departures[:k]
            if cfg.link_erasure > 0.0:
                kept = 0
                for lo in range(0, k, _CHUNK):
                    gone, keep = next(draws)
                    chunk = slice(lo, lo + len(gone) + len(keep))
                    drop_node[alive[chunk].take(gone)] = node + 1
                    for arr in (alive, departures):
                        arr[kept:kept + len(keep)] = arr[chunk].take(keep)
                    kept += len(keep)
                k, times = kept, departures[:kept]
    return NetworkTrace(cfg, stream.gen_times, drop_node,
                        delivered_index=alive[:k], delivery_times=times)


def mean_system_time(trace: NetworkTrace) -> float:
    """Mean generation-to-delivery time over delivered packets only."""
    if trace.n_delivered == 0:
        raise ValueError("no delivered packet; mean system time undefined")
    return float(np.mean(trace.delivery_times
                         - trace.gen_times[trace.delivered_index]))


@dataclass
class _Sawtooth:
    """The destination's age over the reset anchors added so far: the
    first and the last anchor, the area under the sawtooth between them,
    and the sum and count of its peaks (the pre-reset ages of every anchor
    but the first)."""

    start: float | None = None
    end: float = math.nan
    end_age: float = math.nan
    area: float = 0.0
    peak_sum: float = 0.0
    peak_n: int = 0

    def extend(self, anchor_t, anchor_age, seg, work):
        """Add the next anchors in time order, with the post-reset age of
        each, using the buffers ``seg`` and ``work`` that are at least as
        long; from one anchor to the next the age grows with slope one."""
        if self.start is None and len(anchor_t):
            self.start = self.end = float(anchor_t[0])
            self.end_age = float(anchor_age[0])
            anchor_t, anchor_age = anchor_t[1:], anchor_age[1:]
        if not len(anchor_t):
            return
        # the segment from the last anchor so far to the first new one
        step = float(anchor_t[0]) - self.end
        self.peak_sum += self.end_age + step
        self.area += self.end_age * step + 0.5 * step * step
        k = len(anchor_t) - 1
        s = np.subtract(anchor_t[1:], anchor_t[:-1], out=seg[:k])
        w = np.add(anchor_age[:-1], s, out=work[:k])
        self.peak_sum += float(w.sum())
        # area = sum(anchor_age * seg + 0.5 * seg ** 2)
        np.multiply(anchor_age[:-1], s, out=w)
        np.square(s, out=s)
        np.multiply(0.5, s, out=s)
        self.area += float(np.add(w, s, out=w).sum())
        self.peak_n += k + 1
        self.end, self.end_age = float(anchor_t[-1]), float(anchor_age[-1])


def _age_pass(trace: NetworkTrace, first: int):
    """One pass over the deliveries, a chunk of ``_CHUNK`` at a time.

    A delivery is fresh when its update is newer than every one delivered
    before it; a stale one never resets the age.  Stale deliveries happen
    on access feeds, whose departure order is not generation order.  The
    fresh deliveries from index ``first`` on are the sawtooth's anchors.
    Returns the sum of the system times of all deliveries, the index of
    the last fresh one and the ``_Sawtooth`` of the anchors.
    """
    gen, index = trace.gen_times, trace.delivered_index
    deliv, n = trace.delivery_times, trace.n_delivered
    size = min(n, _CHUNK)
    buf, seg, work = np.empty(size), np.empty(size), np.empty(size)
    flags = np.empty(size, bool)
    top, system, last, saw = -math.inf, 0.0, -1, _Sawtooth()
    for lo in range(0, n, _CHUNK):
        k, skip = min(_CHUNK, n - lo), max(first - lo, 0)
        # the indices are the trace's own, and "clip" lets take write
        # straight into the buffer
        g = np.take(gen, index[lo:lo + k], out=buf[:k], mode="clip")
        t = deliv[lo:lo + k]
        if g[0] > top and np.greater(g[1:], g[:-1], out=flags[:k - 1]).all():
            # every delivery of the chunk is fresh
            top, last, anchors = g[-1], lo + k - 1, slice(skip, None)
        else:
            newest = np.maximum(g, top, out=work[:k])
            np.maximum.accumulate(newest, out=newest)
            fresh = flags[:k]
            fresh[0] = g[0] > top
            np.greater(g[1:], newest[:-1], out=fresh[1:])
            top, anchors = newest[-1], np.flatnonzero(fresh)
            if len(anchors):
                last = lo + int(anchors[-1])
            anchors = anchors[np.searchsorted(anchors, skip):]
        age = np.subtract(t, g, out=g)
        system += float(age.sum())
        saw.extend(t[anchors], age[anchors], seg, work)
    return system, last, saw


def _window_start(deliv: np.ndarray, end: int, warmup_fraction: float) -> int:
    """Index of the first delivery past the warm-up share of the window
    from the first delivery to delivery ``end``."""
    cut = deliv[0] + warmup_fraction * (deliv[end] - deliv[0])
    return int(np.searchsorted(deliv, cut))


def average_aoi(trace: NetworkTrace,
                warmup_fraction: float = 0.0) -> AoiSummary:
    """Exact time-average of the sawtooth age at the destination.

    The clock starts at the first delivery, whose post-reset age is that
    update's system time, and stops at the last fresh delivery.
    ``warmup_fraction`` drops the leading share of that window first
    (steady-state summaries), restarting at the first fresh delivery past
    the cut.

    The deliveries are read a chunk at a time in one pass.  The last fresh
    delivery, which places the cut, is the first to carry the newest
    generation time; it is looked for among the last ``_CHUNK``
    deliveries, and a second pass runs only if an earlier one carries it.
    """
    n = trace.n_delivered
    if n < 2:
        raise ValueError("need at least two deliveries for an age average")
    deliv, first = trace.delivery_times, 0
    if warmup_fraction > 0.0:
        tail = trace.gen_times.take(trace.delivered_index[-_CHUNK:])
        end = n - len(tail) + int(np.argmax(tail))
        first = _window_start(deliv, end, warmup_fraction)
    system, last, saw = _age_pass(trace, first)
    if first and last != end:
        # an earlier delivery carries the newest generation time, so the
        # window ends sooner and its cut comes no later
        first = _window_start(deliv, last, warmup_fraction)
        system, last, saw = _age_pass(trace, first)
    if warmup_fraction > 0.0 and saw.peak_n == 0:
        raise ValueError("warm-up discards all deliveries")
    duration = saw.end - saw.start
    if duration <= 0:
        raise ValueError("empty observation window")
    return AoiSummary(
        time_average_aoi=saw.area / duration,
        mean_system_time=system / n,
        delivered_fraction=trace.delivered_fraction,
        peak_aoi_mean=saw.peak_sum / saw.peak_n if saw.peak_n else math.nan,
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


def _cell_stream(mode: str, rho: float, replication: int, master_seed: int,
                 n_packets: int, access: AccessFeed | None) -> ArrivalStream:
    """The arrival stream of every cell of (mode, rho, replication)."""
    if mode == "no-ra":
        return poisson_stream(rho, n_packets, np.random.default_rng(
            _poisson_seed(master_seed, rho, replication)))
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if access is None:
        raise ValueError(f"a {mode} cell needs its access feed")
    return rescale_feed(access, rho)


def run_point(mode: str, rho: float, hops: int, link_erasure: float,
              replication: int, master_seed: int, n_packets: int,
              access: AccessFeed | None = None,
              stream: ArrivalStream | None = None) -> SweepRow:
    """One sweep cell: build the stream (unless given), run, summarize.

    An ra cell rescales ``access``, the feed of its mode and replication
    that ``sweep`` simulated once for every load.
    """
    if stream is None:
        stream = _cell_stream(mode, rho, replication, master_seed, n_packets,
                              access)
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
        ra_success_prob=None if mode == "no-ra" else access.success_prob)


# access feeds of the running sweep, installed once in each pool worker
_POOL_FEEDS: dict = {}


def _install_feeds(feeds: dict):
    _POOL_FEEDS.update(feeds)


def _run_cells(task, feeds=_POOL_FEEDS) -> list:
    """The cells (hops, link erasure) of one (mode, rho, replication)."""
    mode, rho, rep, cells, master_seed, n_packets = task
    access = feeds.get((mode, rep))
    stream = _cell_stream(mode, rho, rep, master_seed, n_packets, access)
    return [run_point(mode, rho, hops, eps, rep, master_seed, n_packets,
                      access, stream) for hops, eps in cells]


def sweep(rhos, hops_list, erasures, modes, replications: int,
          master_seed: int, n_packets: int = 100_000,
          feed: RaFeedSettings | None = None, workers: int = 1):
    """Cross product of the grid, deterministically seeded per cell.

    Each access feed is simulated once per (mode, replication), before
    the cells fan out, and rescaled to every load (``feed`` is needed for
    ra modes); the cells of one (mode, rho, replication) share one arrival
    stream.  The result order and content depend only on the grid and the
    master seed, never on the worker count.
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
    cells = [(n, e) for n in hops_list for e in erasures]
    tasks = [(m, rho, rep, cells, master_seed, n_packets)
             for m in modes for rho in rhos for rep in range(replications)]
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
            rows = [row for part in pool.map(_run_cells, tasks, chunksize=1)
                    for row in part]
    else:
        feeds = dict(zip(keys, map(simulate, keys)))
        rows = [row for t in tasks for row in _run_cells(t, feeds)]
    rows.sort(key=lambda r: (r.mode, r.rho, r.hops, r.link_erasure,
                             r.replication))
    return rows
