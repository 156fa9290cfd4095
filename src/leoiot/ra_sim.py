"""Simulation of the four-message random-access procedure on columns.

Updates are independent contenders: each one transmits a preamble in
periodic RAOs until it is granted or exhausts its attempt budget.  An
update's state is one row of a few arrays (generation time, attempt
count, backoff sum, grant offset, outcome), and the simulator takes one
array step per occupied RAO, in RAO order, skipping idle ones, and keeps
its six counts in one int64 buffer, not a Python object.  A retry always
lands in a later RAO, so RAO order is the only sequential dependency.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .ra_analytic import access_delay
from .scenario import RaConfig

# update outcomes; an update left unresolved within the horizon is censored
_CENSORED, _SUCCESS, _FAILED = 0, 1, 2


@dataclass(frozen=True)
class RaoRecord:
    """Contention outcome of one RAO: a row of ``RaTrace.rao_counts``."""

    index: int
    transmissions: int
    successes: int          # unique preamble and not erased
    collided: int
    erased: int
    demoted: int = 0


@dataclass
class RaTrace:
    """Resolved updates as columns in generation order, and a read-only
    int64 row of ``RaoRecord``'s fields per occupied RAO.  A failed update has
    ``latency_ms`` inf and ``departure`` nan; censored ones are only counted."""

    n_raos: int
    gen_time: np.ndarray
    attempts: np.ndarray
    latency_ms: np.ndarray
    departure: np.ndarray
    rao_counts: np.ndarray  # (occupied RAOs, 6), in RAO order
    censored: int = 0       # updates unresolved within the horizon

    @property
    def rao_records(self) -> list:
        """``rao_counts`` as records of Python ints, built on each read: a
        view kept until the benchmark's tracer reads ``rao_counts``."""
        return [RaoRecord(*row) for row in self.rao_counts.tolist()]

    @property
    def n_records(self) -> int:
        return len(self.gen_time)

    @property
    def success_count(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.latency_ms)))

    @property
    def success_probability(self) -> float:
        if not self.n_records:
            return float("nan")
        return self.success_count / self.n_records


def generate_arrivals(rate_per_ms: float, horizon_ms: float, rng):
    """Arrival times on [0, horizon) of the aggregate Poisson stream of
    updates, in increasing order.  The stream is not split into devices:
    every update is an independent contender."""
    if rate_per_ms < 0:
        raise ValueError("rate must be >= 0")
    if rate_per_ms == 0.0:
        return np.empty(0)
    n_guess = rate_per_ms * horizon_ms
    block = max(int(n_guess + 6.0 * math.sqrt(n_guess + 1.0)), 64)
    times = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate_per_ms, size=block)
        cum = t + np.cumsum(gaps)
        inside = cum[cum < horizon_ms]
        times.append(inside)
        if len(inside) < block:
            break
        t = cum[-1]
    return np.concatenate(times)


def _rao_index(t, rao_period: float):
    """Index of the first RAO at or after time ``t`` (RAO k sits at (k+1)T)."""
    return np.maximum(np.ceil(t / rao_period).astype(np.int64) - 1, 0)


def run(cfg: RaConfig, max_attempts: int, rate_per_s: float,
        horizon_ms: float, seed) -> RaTrace:
    """Simulate the full procedure for one path; an update gives up after
    ``max_attempts`` failed attempts.

    ``seed`` may be an int, a SeedSequence, or a Generator.  Each occupied
    RAO draws its contenders' preambles, one erasure uniform per unique
    preamble, a permutation that ranks the winners in the response window,
    then one backoff per loser.  Contenders are the fresh arrivals in
    arrival order followed by the retries in the order they failed.
    Success latency follows the closed-form delay expression evaluated
    with the realized backoffs and grant offsets.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts {max_attempts}: must be >= 1")
    rng = np.random.default_rng(seed)
    t_rao = cfg.rao_period
    n_raos = int(horizon_ms // t_rao)
    if n_raos < 1:
        raise ValueError(f"horizon {horizon_ms} ms holds no RAO (period {t_rao} ms)")
    detect_lag = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms

    gen = generate_arrivals(rate_per_s / 1000.0, horizon_ms, rng)
    n = len(gen)
    attempts = np.ones(n, dtype=np.int64)
    backoff_sum = np.zeros(n)
    grant_offset = np.zeros(n)
    outcome = np.full(n, _CENSORED, dtype=np.int8)

    # fresh arrivals come in RAO order: those of one RAO are one slice
    first = _rao_index(gen, t_rao)
    n_in = int(np.searchsorted(first, n_raos))
    edges = np.flatnonzero(np.diff(first[:n_in], prepend=-1))
    # memoryviews of int64 arrays hand out one Python int at a time
    fresh = iter(zip(*map(memoryview, (first[edges], edges,
                                       np.append(edges[1:], n_in)))))
    nxt = next(fresh, None)
    retries: dict = {}       # RAO index -> updates retrying there, in order
    heap: list = []          # the keys of ``retries``
    counts = array("q")      # RaoRecord's six fields per occupied RAO

    while nxt is not None or heap:
        k = heap[0] if nxt is None or (heap and heap[0] < nxt[0]) else nxt[0]
        ids = []
        if nxt is not None and nxt[0] == k:
            ids = list(range(nxt[1], nxt[2]))
            nxt = next(fresh, None)
        if heap and heap[0] == k:
            heapq.heappop(heap)
            ids += retries.pop(k)
        who = np.array(ids, dtype=np.int64)
        rao_time = (k + 1) * t_rao
        x = len(who)

        choices = rng.integers(0, cfg.preambles, size=x)
        collided = np.bincount(choices, minlength=cfg.preambles)[choices] >= 2
        unique = np.flatnonzero(~collided)
        erased = rng.random(len(unique)) < cfg.erasure_prob
        won = unique[~erased]
        ranks = np.empty(len(won), dtype=np.int64)
        ranks[rng.permutation(len(won))] = np.arange(len(won))
        fits = ranks < cfg.grant_capacity
        granted = who[won[fits]]
        outcome[granted] = _SUCCESS
        grant_offset[granted] = ((ranks[fits] // cfg.grants_per_subframe)
                                 * float(cfg.repetitions))

        loser = np.ones(x, dtype=bool)
        loser[won[fits]] = False
        lost = who[loser]
        backoff = rng.uniform(0.0, cfg.max_backoff, size=len(lost))
        spent = attempts[lost] >= max_attempts
        outcome[lost[spent]] = _FAILED
        again, backoff = lost[~spent], backoff[~spent]
        attempts[again] += 1
        backoff_sum[again] += backoff
        k_retry = _rao_index(rao_time + detect_lag + backoff, t_rao)
        for i, kr in zip(again.tolist(), k_retry.tolist()):
            if kr >= n_raos:
                continue            # beyond the horizon: censored
            if kr not in retries:
                retries[kr] = []
                heapq.heappush(heap, kr)
            retries[kr].append(i)

        counts.extend((k, x, len(won), np.count_nonzero(collided),
                       np.count_nonzero(erased),
                       len(won) - np.count_nonzero(fits)))

    ok = outcome == _SUCCESS
    latency = np.full(n, np.inf)
    latency[ok] = access_delay(attempts[ok], cfg, backoff_sum[ok],
                               grant_offset[ok])
    departure = np.full(n, np.nan)
    departure[ok] = gen[ok] + latency[ok]
    outcome[departure > horizon_ms] = _CENSORED
    done = outcome != _CENSORED
    rao_counts = np.frombuffer(memoryview(counts).toreadonly(), np.int64)
    return RaTrace(n_raos=n_raos, gen_time=gen[done], attempts=attempts[done],
                   latency_ms=latency[done], departure=departure[done],
                   rao_counts=rao_counts.reshape(-1, 6),
                   censored=n - int(np.count_nonzero(done)))


# ---------------------------------------------------------------------------
# Trace statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmfTriple:
    """Per-RAO distributions of total, collided and successful transmissions."""

    total: np.ndarray
    collided: np.ndarray
    successful: np.ndarray


def empirical_pmf(trace: RaTrace) -> PmfTriple:
    """Normalized per-RAO histograms; empty RAOs contribute mass at zero."""
    if trace.n_raos < 1:
        raise ValueError("trace holds no RAO")
    idle = trace.n_raos - len(trace.rao_counts)
    _, tx, su, co = trace.rao_counts[:, :4].T
    width = int(max(tx.max(initial=0), 1)) + 1

    def pmf(values):
        counts = np.bincount(values, minlength=width).astype(float)
        counts[0] += idle
        return counts / trace.n_raos

    return PmfTriple(total=pmf(tx), collided=pmf(co), successful=pmf(su))


@dataclass(frozen=True)
class LatencyCdf:
    """Step CDF of success latencies, normalized by all resolved records.

    Failures stay in the denominator, so the curve plateaus at the
    empirical success probability instead of reaching one.
    """

    latencies: np.ndarray
    probabilities: np.ndarray

    @property
    def plateau(self) -> float:
        return float(self.probabilities[-1]) if len(self.probabilities) else 0.0


def latency_cdf(latency_ms) -> LatencyCdf:
    """CDF of a trace's ``latency_ms`` column; inf marks a failure."""
    latency_ms = np.asarray(latency_ms, dtype=float)
    n = len(latency_ms)
    lats = np.sort(latency_ms[np.isfinite(latency_ms)])
    probs = np.arange(1, len(lats) + 1) / n if n else np.empty(0)
    return LatencyCdf(latencies=lats,
                      probabilities=np.asarray(probs, dtype=float))
