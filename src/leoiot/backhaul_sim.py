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

A cache-sized chunk read from the stream crosses every node of each link
erasure's chain before the next is read.  Each node draws from generators
of its own, ahead on a second thread for a longer stream, so the chain
does not depend on the chunk size and its first n nodes are the n-hop
chain.  The thread overlaps the draws with the scan and the age
integrator: drawn inline, they made fig7-long's 10^6-packet cells 35%
slower on 2 CPUs.  A sweep scores the n-hop cell on node n's survivors,
so one read serves every hop count and erasure in one set of chunk
buffers, the age integrators' borrowed from the chain's scan.  Delay and
age omit the deliveries of the first ceil(0.05 n) packets.  A one-worker
sweep imports no process pool and a one-chunk cell no thread executor:
fig6-slice starts neither, yet their modules held 0.8 MB of its peak RSS.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from . import ra_sim
from .ra_analytic import single_attempt_success
from .scenario import RaConfig

# leading share of a cell's packets, by arrival index, whose deliveries its
# delay and age averages leave out
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
    """``n`` packets entering the chain: every call of ``chunks()`` yields
    the same values of arrival and generation times (the age's anchors,
    which differ from arrivals behind the access procedure), ``_CHUNK``
    packets a chunk but the last, each valid until the next is read (a
    reader may refill its buffers); a stream in memory keeps ``gen_times``."""

    n: int
    chunks: Callable                    # () -> iterator of the chunks
    gen_times: np.ndarray | None = None


def array_stream(arrival_times, gen_times) -> ArrivalStream:
    """A stream held in memory, read in slices; arrivals must be sorted."""
    a, g, n = arrival_times, gen_times, len(arrival_times)
    if n != len(g):
        raise ValueError("arrival and generation vectors must align")
    for lo in range(0, n - 1, _CHUNK):
        # a chunk and the next arrival: no array of the stream's length
        head = a[lo:lo + _CHUNK + 1]
        if (head[1:] < head[:-1]).any():
            raise ValueError("arrival times must be sorted")
    return ArrivalStream(n, lambda: ((a[lo:lo + _CHUNK], g[lo:lo + _CHUNK])
                                     for lo in range(0, n, _CHUNK)), g)


def poisson_stream(rate: float, n_packets: int, seed) -> ArrivalStream:
    """Poisson arrivals at ``rate``, each generated as it arrives: a read
    draws the running sums of ``default_rng(seed).exponential(1 / rate,
    n_packets)`` afresh, bit for bit, a chunk at a time into one buffer
    yielded as both time vectors: no array of the stream's length is held."""
    seed = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))  # one entropy for every read

    def chunks():
        rng, carry = np.random.default_rng(seed), 0.0
        buf = np.empty(min(_CHUNK, n_packets))
        for lo in range(0, n_packets, _CHUNK):
            times = rng.standard_exponential(out=buf[:n_packets - lo])
            times *= 1.0 / rate       # as exponential(1 / rate) scales it
            times[0] += carry
            carry = np.cumsum(times, out=times)[-1]
            yield times, times
    return ArrivalStream(n_packets, chunks)


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
    """A cell's metrics, under ``SweepRow``'s names and in its order."""

    n_delivered: int
    delivered_fraction: float
    mean_system_time: float
    mean_aoi: float
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


def _draws(links, n: int, hops: int, ring: list):
    """Every random draw of the chains of ``links``, a chunk of the stream
    at a time, then link by link and node by node: the services of the
    chunk's packets that reach the node, in the buffers of ``ring`` in
    turn, and on a lossy link the mask of those it keeps (else None)."""
    chains = [(eps, _node_generators(seed, hops)) for eps, seed in links]
    slots = itertools.cycle(ring)
    for lo, (link_erasure, nodes) in itertools.product(range(0, n, _CHUNK),
                                                       chains):
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
    from concurrent.futures import ThreadPoolExecutor
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


def _chain(stream: ArrivalStream, hops: int, links, sink, scan) -> None:
    """Push one read of a packet stream, a chunk at a time, through ``hops``
    nodes of the chain of each (link erasure, seed) pair of ``links``: one
    read serves every erasure, in chunk buffers only, whatever its length.

    Per node the random draws are the service times of the packets that
    reach it, in arrival order, then (on a lossy link) one uniform per
    served packet deciding whether the link erases it.  A node's waits
    W_i = max(0, W_{i-1} + S_{i-1} - Y_i) are C - min.accumulate(C), C the
    running sum of S_{i-1} - Y_i; a leading slot carries the sum and the
    minimum on from chunk to chunk.  After each node, ``sink(link, node,
    lo, gen, alive, times)`` gets the chunk's offset in the stream and its
    generation times, and its survivors in order, by index in the chunk
    and departure time, in buffers that the next node reuses; the sum and
    the minimum, in the two rows of ``scan``, are idle while it runs.
    """
    n, size = stream.n, min(stream.n, _CHUNK)
    times, (cum, low) = np.empty(size), scan
    # a buffer per chunk drawn ahead, one for the chunk in the scan
    ring = [np.empty(size) for _ in range(1 + _AHEAD * (n > _CHUNK))]
    # the indices of a chunk and of its survivors past a lossy link
    index = np.arange(size)
    kept = np.empty(size * any(eps > 0.0 for eps, _ in links), np.intp)
    draws = _draws(links, n, hops, ring)
    with (_ahead(draws, _AHEAD) if n > _CHUNK
          else contextlib.nullcontext(draws)) as draws:
        for lo, (arrivals, gen) in zip(range(0, n, _CHUNK), stream.chunks()):
            if not lo:
                # per link and node: running sum and minimum, last arrival
                # and last service; each node starts idle at the first arrival
                carry = [[0.0, 0.0, arrivals[0], 0.0]
                         for _ in range(len(links) * hops)]
            for i, state in enumerate(carry):
                link, node = divmod(i, hops)
                if not node:
                    a, alive = arrivals, index[:len(arrivals)]
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
                sink(link, node, lo, gen, alive, a)


def run(stream: ArrivalStream, cfg: BackhaulConfig, seed) -> NetworkTrace:
    """Push a packet stream through the chain and keep its trace: the
    node whose link erased each packet, and the stream index and delivery
    time of each survivor in delivery order."""
    n, lossy, last = stream.n, cfg.link_erasure > 0.0, cfg.hops - 1
    # every packet is at risk at node 1, and a survivor of node j at j + 1
    drop_node = np.full(n, int(lossy), dtype=np.min_scalar_type(cfg.hops))
    index, times, k = np.empty(n, dtype=np.intp), np.empty(n), 0
    gen_times = (stream.gen_times if stream.gen_times is not None else
                 np.concatenate([g.copy() for _, g in stream.chunks()]
                                or [[]]))   # a chunk is valid until the next

    def collect(link, node, lo, gen, alive, departures):
        nonlocal k
        if lossy:
            drop_node[lo:][alive] = node + 2 if node < last else 0
        if node == last:
            part, k = slice(k, k + len(alive)), k + len(alive)
            np.add(alive, lo, out=index[part])
            times[part] = departures

    _chain(stream, cfg.hops, [(cfg.link_erasure, seed)], collect,
           np.empty((2, min(n, _CHUNK) + 1)))
    return NetworkTrace(cfg, gen_times, drop_node,
                        delivered_index=index[:k], delivery_times=times[:k])


class _Age:
    """The age integrator, fed the deliveries in order, a chunk at a time.

    A delivery is fresh when its update is newer than every one delivered
    before it; a stale one (on access feeds, whose departure order is not
    generation order) never resets the age.  Of a stream of ``n`` packets,
    the deliveries of those from index ceil(warmup_fraction n) on make the
    delay mean, and their fresh ones are the sawtooth's anchors; from one
    anchor to the next the age grows with slope one.  ``add`` works in the
    two rows of ``scan``, which a sweep's integrators share with its chain.
    """

    def __init__(self, n: int, warmup_fraction: float, scan):
        self.n, self.first = n, math.ceil(warmup_fraction * n)
        self.buf, self.seg = scan
        # every delivery's count and the newest update; past the warm-up,
        # the deliveries' count and summed system time, the first and last
        # anchor, the area under the sawtooth between them, and the sum and
        # count of its peaks (pre-reset ages)
        self.count, self.top, self.timed, self.system = 0, -math.inf, 0, 0.0
        self.start, self.end, self.end_age = None, math.nan, math.nan
        self.area, self.peak_sum, self.peak_n = 0.0, 0.0, 0

    def add(self, lo, gen, index, deliv):
        """Add the next deliveries, at most ``_CHUNK`` of them: the indices
        of their updates in ``gen``, whose first packet is the stream's
        ``lo``-th, and their delivery times."""
        k = len(index)
        if not k:
            return
        # the indices are into gen: "clip" lets take write into the buffer
        g = np.take(gen, index, out=self.buf[:k], mode="clip")
        top, flags = self.top, np.empty(k, bool)
        # deliveries come in arrival order: the warm-up's are a prefix
        past = int(np.searchsorted(index, self.first - lo))
        if g[0] > top and np.greater(g[1:], g[:-1], out=flags[1:]).all():
            # every delivery is fresh, so the anchors run from the cut on
            self.top, anchors = g[-1], slice(past, None)
        else:
            newest = np.maximum(g, top, out=self.seg[:k])
            np.maximum.accumulate(newest, out=newest)
            flags[0] = g[0] > top
            np.greater(g[1:], newest[:-1], out=flags[1:])
            self.top, anchors = newest[-1], np.flatnonzero(flags)
            anchors = anchors[np.searchsorted(anchors, past):]
        age = np.subtract(deliv, g, out=g)
        self.count += k
        self.timed += k - past
        self.system += float(age[past:].sum())
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

    def summary(self) -> AoiSummary:
        """The metrics, the age averaged from the first anchor to the last."""
        if self.count < 2:
            raise ValueError("need at least two deliveries for an age average")
        if self.peak_n == 0 and self.first:
            raise ValueError("warm-up discards all deliveries")
        duration = self.end - self.start
        if duration <= 0:
            raise ValueError("empty observation window")
        return AoiSummary(
            n_delivered=self.count, delivered_fraction=self.count / self.n,
            mean_system_time=self.system / self.timed,
            mean_aoi=self.area / duration,
            peak_aoi_mean=self.peak_sum / self.peak_n)


def average_aoi(trace: NetworkTrace,
                warmup_fraction: float = 0.0) -> AoiSummary:
    """Exact time-average of the sawtooth age at the destination.

    The clock starts at the first delivery, whose post-reset age is that
    update's system time, and stops at the last fresh delivery.  With a
    ``warmup_fraction`` (steady-state summaries) the deliveries of the
    first ceil(warmup_fraction n) of the n offered updates, by index, are
    left out of the delay mean, and the clock starts at the first fresh
    delivery of a later one; the delivered count and fraction keep them.
    A sweep runs the same integrator inside the chain pass.
    """
    age = _Age(trace.n_offered, warmup_fraction,
               np.empty((2, min(trace.n_offered, _CHUNK))))
    for lo in range(0, trace.n_delivered, _CHUNK):
        age.add(0, trace.gen_times, trace.delivered_index[lo:lo + _CHUNK],
                trace.delivery_times[lo:lo + _CHUNK])
    return age.summary()


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
        got = trace.success_count
        del trace       # so the retry does not hold both traces at once
        target = n_packets + 5.0 * math.sqrt(n_packets)
        horizon *= min(target / max(got, 1), MAX_HORIZON_GROWTH)
        trace = ra_sim.run(cfg, attempts, rate, horizon, seed)
    if trace.success_count < n_packets:
        raise ShortCellError(
            f"{mode} feed produced {trace.success_count} < {n_packets} "
            f"departures in {horizon:.6g} ms: {rate:g} updates/s on "
            f"{cfg.preambles} preambles every {cfg.rao_period:g} ms")
    ok = np.isfinite(trace.latency_ms)
    gen_ms = trace.gen_time[ok]
    dep_ms = gen_ms + trace.latency_ms[ok]
    first = np.argsort(dep_ms, kind="stable")[:n_packets]
    return AccessFeed(departures_ms=dep_ms[first], gen_times_ms=gen_ms[first],
                      success_prob=trace.success_probability)


def rescale_feed(access: AccessFeed, rho: float) -> ArrivalStream:
    """The access feed on the chain's clock, at mean arrival rate rho.

    Generation times scale with the departures, so the handshake latency
    stays in front of the queueing network in chain units; a read scales
    the feed a slice at a time.
    """
    feed = array_stream(access.departures_ms, access.gen_times_ms)
    rate_ms = feed.n / float(access.departures_ms[-1])
    scale = rate_ms / rho            # chain units per millisecond
    return ArrivalStream(feed.n, lambda: ((a * scale, g * scale)
                                          for a, g in feed.chunks()))


def run_point(mode: str, rho: float, hops, erasures, replication: int,
              master_seed: int, n_packets: int,
              access: AccessFeed | None = None) -> list:
    """The sweep cells of every link erasure in ``erasures`` and hop count
    in ``hops`` at one (mode, rho, replication), in that order.  One read
    of the stream crosses ``max(hops)`` nodes of each erasure's chain a
    chunk at a time, and node n's survivors score the n-hop cell, which
    holds one set of chunk buffers, whatever its length.  An ra cell
    rescales ``access``, the feed ``sweep`` simulated once for all loads."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "no-ra" and access is None:
        raise ValueError(f"a {mode} cell needs its access feed")
    stream = (rescale_feed(access, rho) if mode != "no-ra" else
              poisson_stream(rho, n_packets,
                             _poisson_seed(master_seed, rho, replication)))
    scan = np.empty((2, min(stream.n, _CHUNK) + 1))
    ages = {cell: _Age(stream.n, WARMUP_FRACTION, scan)
            for cell in itertools.product(range(len(erasures)), hops)}

    def integrate(link, node, lo, gen, alive, departures):
        if (link, node + 1) in ages:
            ages[link, node + 1].add(lo, gen, alive, departures)

    _chain(stream, max(hops, default=0),
           [(eps, _net_seed(master_seed, mode, rho, eps, replication))
            for eps in erasures], integrate, scan)
    rows = []
    for (link, n), age in ages.items():
        eps = erasures[link]
        try:
            summary = age.summary()
        except ValueError as exc:
            raise ShortCellError(
                f"{mode} cell rho={rho:g} hops={n} link erasure="
                f"{eps:g} replication={replication}: {exc}") from None
        rows.append(SweepRow(
            mode=mode, rho=rho, hops=n, link_erasure=eps,
            replication=replication, n_offered=stream.n, **asdict(summary),
            ra_success_prob=None if mode == "no-ra" else access.success_prob))
    return rows


def sweep(rhos, hops_list, erasures, modes, replications: int,
          master_seed: int, n_packets: int = 100_000,
          feed: RaFeedSettings | None = None, workers: int = 1):
    """Cross product of the grid, deterministically seeded per cell.

    One map first simulates each access feed once per (mode, replication)
    (ra modes need ``feed``), then runs ``run_point`` per (mode, rho,
    replication), handing an ra cell its feed as ``access``.  It runs over
    a spawned pool of ``min(workers, tasks, CPUs)`` processes when that is
    more than one, and in process when not.  The rows depend only on the
    grid and the master seed, not ``workers``.
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
    tasks = [(m, rho, tuple(hops_list), tuple(erasures), rep, master_seed,
              n_packets)
             for m in modes for rho in rhos for rep in range(replications)]
    if not tasks:
        return []
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(processes, multiprocessing.get_context("spawn"))
          if processes > 1 else contextlib.nullcontext()) as pool:
        fan_out = pool.map if pool else map
        feeds = dict(zip(keys, fan_out(simulate, keys)))
        parts = fan_out(run_point, *zip(*[
            t + (feeds.get((t[0], t[4])),) for t in tasks]))
        return sorted(itertools.chain.from_iterable(parts),
                      key=lambda r: (r.mode, r.rho, r.hops, r.link_erasure,
                                     r.replication))
