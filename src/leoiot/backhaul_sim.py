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

A cache-sized chunk of the stream crosses every node before the next one
enters.  Each node draws from generators of its own, ahead on a second
thread for a longer stream, so the chain does not depend on the chunk
size and its first n nodes are the n-hop chain.  A sweep feeds node n's
survivors straight into the n-hop cell's age integrator: one pass scores
every hop count, and a cell holds its stream plus chunk buffers.
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

# leading share of each cell's generation times left out of its age average
WARMUP_FRACTION = 0.05
# packets per chunk of the stream, and chunks drawn ahead of the scan
_CHUNK = 1 << 15
_AHEAD = 2


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
        a = self.arrival_times
        for lo in range(0, len(a) - 1, _CHUNK):
            # a chunk and the next arrival: no array of the stream's length
            head = a[lo:lo + _CHUNK + 1]
            if (head[1:] < head[:-1]).any():
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


def _node_generators(seed, hops: int) -> list:
    """Per node, the generators of its service times and of its erasure
    uniforms, spawned from the chain seed: node j's depend on j, not on
    the hop count, and a given ``SeedSequence`` is read, not spawned from."""
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    return [[np.random.default_rng(np.random.SeedSequence(
        root.entropy, spawn_key=(*root.spawn_key, node, kind)))
        for kind in range(2)] for node in range(hops)]


def _draws(seed, n: int, hops: int, link_erasure: float, ring: list):
    """Every random draw of the chain, a chunk of the stream at a time and
    node by node within it: the services of the chunk's packets that reach
    the node, in the buffers of ``ring`` in turn, and on a lossy link the
    mask of those it keeps (None on a lossless one)."""
    nodes, slots = _node_generators(seed, hops), itertools.cycle(ring)
    for lo in range(0, n, _CHUNK):
        k = min(_CHUNK, n - lo)
        for services, erasures in nodes:
            slot, keep = next(slots)[:k], None
            if link_erasure > 0.0:
                # the uniforms pass through the buffer before the services
                keep = erasures.random(out=slot) >= link_erasure
            yield services.standard_exponential(out=slot), keep
            k = k if keep is None else int(np.count_nonzero(keep))


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


def _chain(stream: ArrivalStream, hops: int, link_erasure: float, seed,
           sink) -> None:
    """Push a packet stream through ``hops`` nodes, a chunk at a time.

    Per node the random draws are the service times of the packets that
    reach it, in arrival order, then (on a lossy link) one uniform per
    served packet deciding whether the link erases it.  A node's waits
    W_i = max(0, W_{i-1} + S_{i-1} - Y_i) are C - min.accumulate(C), C the
    running sum of S_{i-1} - Y_i; a leading slot carries the sum and the
    minimum on from chunk to chunk.  After each node, ``sink(node, alive,
    times)`` gets the chunk's survivors in order, by stream index and
    departure time, in buffers that the next node reuses.
    """
    n, size = len(stream), min(len(stream), _CHUNK)
    times, cum, low = np.empty(size), np.empty(size + 1), np.empty(size + 1)
    # a buffer per chunk drawn ahead, one for the chunk in the scan
    ring = [np.empty(size) for _ in range(1 + _AHEAD * (n > _CHUNK))]
    # per node: running sum and minimum, last arrival and last service;
    # each node starts idle at the stream's first arrival
    first = stream.arrival_times[0] if n else 0.0
    carry = [[0.0, 0.0, first, 0.0] for _ in range(hops)]
    # the stream indices of a chunk and of its survivors past a lossy link
    index = np.arange(-_CHUNK, size - _CHUNK)
    kept = np.empty(size if link_erasure > 0.0 else 0, np.intp)
    draws = _draws(seed, n, hops, link_erasure, ring)
    with (_ahead(draws, _AHEAD) if n > _CHUNK
          else contextlib.nullcontext(draws)) as draws:
        for lo in range(0, n, _CHUNK):
            a = stream.arrival_times[lo:lo + _CHUNK]
            alive = np.add(index, _CHUNK, out=index)[:len(a)]
            for node, state in enumerate(carry):
                s, keep = next(draws)
                if len(s):
                    carry_sum, carry_min, last_a, last_s = state
                    x, m = cum[:len(s) + 1], low[:len(s) + 1]
                    np.subtract(a[1:], a[:-1], out=x[2:])
                    np.subtract(s[:-1], x[2:], out=x[2:])
                    x[:2] = carry_sum, last_s - (a[0] - last_a)
                    np.cumsum(x, out=x)
                    state[0], x[0] = x[-1], carry_min
                    # fmin is minimum but for NaN, which no time is, and faster
                    np.fmin.accumulate(x, out=m)
                    state[1:] = m[-1], a[-1], s[-1]
                    w = np.subtract(x[1:], m[1:], out=x[1:])
                    a = np.add(a, w, out=times[:len(s)])
                    np.add(a, s, out=a)
                if keep is not None:
                    # "clip" takes straight into the buffer, where the
                    # arrays do not overlap
                    keep = np.flatnonzero(keep)
                    alive = np.take(alive, keep, out=kept[:len(keep)],
                                    mode="clip")
                    a = np.take(a, keep, out=times[:len(keep)], mode="clip")
                sink(node, alive, a)


def run(stream: ArrivalStream, cfg: BackhaulConfig, seed) -> NetworkTrace:
    """Push a packet stream through the chain and keep its trace: the
    node whose link erased each packet, and the stream index and delivery
    time of each survivor in delivery order."""
    n, lossy, last = len(stream), cfg.link_erasure > 0.0, cfg.hops - 1
    # every packet is at risk at node 1, and a survivor of node j at j + 1
    drop_node = np.full(n, int(lossy), dtype=np.min_scalar_type(cfg.hops))
    index, times, k = np.empty(n, dtype=np.intp), np.empty(n), 0

    def collect(node, alive, departures):
        nonlocal k
        if lossy:
            drop_node[alive] = node + 2 if node < last else 0
        if node == last:
            span, k = slice(k, k + len(alive)), k + len(alive)
            index[span], times[span] = alive, departures

    _chain(stream, cfg.hops, cfg.link_erasure, seed, collect)
    return NetworkTrace(cfg, stream.gen_times, drop_node,
                        delivered_index=index[:k], delivery_times=times[:k])


class _Age:
    """The age integrator, fed the deliveries in order, a chunk at a time.

    A delivery is fresh when its update is newer than every one delivered
    before it; a stale one (on access feeds, whose departure order is not
    generation order) never resets the age.  The sawtooth's anchors are
    the fresh deliveries of updates generated at or after the warm-up cut;
    from one anchor to the next the age grows with slope one.
    """

    def __init__(self, gen: np.ndarray, warmup_fraction: float):
        size = min(len(gen), _CHUNK)
        self.gen, self.buf, self.seg = gen, np.empty(size), np.empty(size)
        self.flags = np.empty(size, bool)
        # the warm-up share of the span of the offered generation times
        self.cut = -math.inf
        if warmup_fraction > 0.0 and len(gen):
            lo, hi = float(gen.min()), float(gen.max())
            self.cut = lo + warmup_fraction * (hi - lo)
        # the deliveries' count and summed system time, the newest update,
        # the first and last anchor, the area under the sawtooth between
        # them, and the sum and count of its peaks (pre-reset ages)
        self.count, self.system, self.top = 0, 0.0, -math.inf
        self.start, self.end, self.end_age = None, math.nan, math.nan
        self.area, self.peak_sum, self.peak_n = 0.0, 0.0, 0

    def add(self, index, deliv):
        """Add the next deliveries, at most ``_CHUNK`` of them: the stream
        indices of their updates and their delivery times."""
        k = len(index)
        if not k:
            return
        # the indices are the stream's own, and "clip" lets take write
        # straight into the buffer
        g = np.take(self.gen, index, out=self.buf[:k], mode="clip")
        top, cut, flags = self.top, self.cut, self.flags[:k]
        if g[0] > top and np.greater(g[1:], g[:-1], out=flags[1:]).all():
            # every delivery is fresh, so the anchors run from the cut on
            self.top = g[-1]
            anchors = slice(np.searchsorted(g, cut) if top < cut else 0, None)
        else:
            newest = np.maximum(g, top, out=self.seg[:k])
            np.maximum.accumulate(newest, out=newest)
            flags[0] = g[0] > top
            np.greater(g[1:], newest[:-1], out=flags[1:])
            self.top, anchors = newest[-1], np.flatnonzero(flags)
            if top < cut:
                anchors = anchors[g[anchors] >= cut]
        age = np.subtract(deliv, g, out=g)
        self.count += k
        self.system += float(age.sum())
        self._anchor(deliv[anchors], age[anchors])

    def _anchor(self, t, age):
        """Add the next anchors in time order, with the post-reset age of
        each, which this overwrites."""
        if self.start is None and len(t):
            self.start = self.end = float(t[0])
            self.end_age, t, age = float(age[0]), t[1:], age[1:]
        if not len(t):
            return
        # the segment from the last anchor so far to the first new one
        step = float(t[0]) - self.end
        self.peak_sum += self.end_age + step
        self.area += self.end_age * step + 0.5 * step * step
        k = len(t) - 1
        s, h = np.subtract(t[1:], t[:-1], out=self.seg[:k]), age[:-1]
        self.peak_sum += float(h.sum() + s.sum())
        # area = sum(age * seg + 0.5 * seg ** 2)
        self.area += float(np.multiply(h, s, out=h).sum()
                           + 0.5 * np.square(s, out=s).sum())
        self.peak_n += k + 1
        self.end, self.end_age = float(t[-1]), float(age[-1])

    def summary(self, n_offered: int) -> AoiSummary:
        """The sawtooth's time-average from its first anchor to its last."""
        if self.count < 2:
            raise ValueError("need at least two deliveries for an age average")
        if self.peak_n == 0 and self.cut > -math.inf:
            raise ValueError("warm-up discards all deliveries")
        duration = self.end - self.start
        if duration <= 0:
            raise ValueError("empty observation window")
        return AoiSummary(
            time_average_aoi=self.area / duration,
            mean_system_time=self.system / self.count,
            delivered_fraction=self.count / n_offered,
            peak_aoi_mean=self.peak_sum / self.peak_n)


def average_aoi(trace: NetworkTrace,
                warmup_fraction: float = 0.0) -> AoiSummary:
    """Exact time-average of the sawtooth age at the destination.

    The clock starts at the first delivery, whose post-reset age is that
    update's system time, and stops at the last fresh delivery.  With a
    ``warmup_fraction`` (steady-state summaries) it starts at the first
    fresh delivery of an update generated at or after g_min +
    warmup_fraction (g_max - g_min) over the offered updates.  This feeds
    the trace to the integrator that a sweep runs inside the chain pass.
    """
    age = _Age(trace.gen_times, warmup_fraction)
    for lo in range(0, trace.n_delivered, _CHUNK):
        age.add(trace.delivered_index[lo:lo + _CHUNK],
                trace.delivery_times[lo:lo + _CHUNK])
    return age.summary(trace.n_offered)


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
    timescale; ``a10_rate_per_s`` offers the backhauling preset 11 updates
    per RAO on 36 preambles (0.83 of R/e): a single attempt succeeds 66.3%
    of the time, the ten-attempt feed 99.7%.  Both are ``ra_sim.run`` rates.
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


def _net_seed(master_seed: int, mode: str, rho: float, link_erasure: float,
              replication: int):
    """The chain seed of every hop count at one grid point."""
    return np.random.SeedSequence(
        (master_seed, 0x9E7, _MODE_ID[mode], int(round(rho * 1e6)),
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


def run_point(mode: str, rho: float, hops, link_erasure: float,
              replication: int, master_seed: int, n_packets: int,
              access: AccessFeed | None = None,
              stream: ArrivalStream | None = None) -> list:
    """The sweep cells of every hop count in ``hops`` at one (mode, rho,
    link erasure, replication), in that order: build the stream (unless
    given), pass it once through ``max(hops)`` nodes, and score the n-hop
    cell on node n's survivors as they leave it.  An ra cell rescales
    ``access``, the feed that ``sweep`` simulated once for every load.
    """
    if stream is None:
        stream = _cell_stream(mode, rho, replication, master_seed, n_packets,
                              access)
    ages = {n: _Age(stream.gen_times, WARMUP_FRACTION) for n in hops}

    def integrate(node, alive, departures):
        if node + 1 in ages:
            ages[node + 1].add(alive, departures)

    _chain(stream, max(hops, default=0), link_erasure,
           _net_seed(master_seed, mode, rho, link_erasure, replication),
           integrate)
    rows = []
    for n in hops:
        try:
            summary = ages[n].summary(len(stream))
        except ValueError as exc:
            raise ShortCellError(
                f"{mode} cell rho={rho:g} hops={n} link erasure="
                f"{link_erasure:g} replication={replication}: {exc}") from None
        rows.append(SweepRow(
            mode=mode, rho=rho, hops=n, link_erasure=link_erasure,
            replication=replication, n_offered=len(stream),
            n_delivered=ages[n].count,
            delivered_fraction=summary.delivered_fraction,
            mean_system_time=summary.mean_system_time,
            mean_aoi=summary.time_average_aoi,
            peak_aoi_mean=summary.peak_aoi_mean,
            ra_success_prob=None if mode == "no-ra" else access.success_prob))
    return rows


# access feeds of the running sweep, installed once in each pool worker
_POOL_FEEDS: dict = {}


def _install_feeds(feeds: dict):
    _POOL_FEEDS.update(feeds)


def _run_cells(task, feeds=_POOL_FEEDS) -> list:
    """The cells (hops, link erasure) of one (mode, rho, replication): a
    chain pass per link erasure scores every hop count."""
    mode, rho, rep, hops, erasures, master_seed, n_packets = task
    access = feeds.get((mode, rep))
    stream = _cell_stream(mode, rho, rep, master_seed, n_packets, access)
    return [row for eps in erasures
            for row in run_point(mode, rho, hops, eps, rep, master_seed,
                                 n_packets, access, stream)]


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
    tasks = [(m, rho, rep, tuple(hops_list), tuple(erasures), master_seed,
              n_packets)
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
