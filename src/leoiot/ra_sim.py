"""Event-driven simulation of the four-message random-access procedure.

Updates are independent contenders: each one repeatedly transmits a
preamble in periodic RAOs until it is granted or exhausts its attempt
budget.  The simulator walks the RAO grid sparsely (only occupied RAOs
cost work), so both congested cells and near-idle feeds are cheap.
"""
from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .ra_analytic import access_delay
from .scenario import RaConfig

TRACE_SCHEMA_VERSION = "leoiot-trace v1"

# per-attempt fates
COLLIDED = "collided"
ERASED = "erased"
DEMOTED = "demoted"       # contention success, but no room in the grant window
SUCCESS = "success"


@dataclass
class UpdateAttemptState:
    """Mutable bookkeeping for one update working through the procedure."""

    user: int
    gen_time: float
    attempt: int = 1
    backoffs: list = field(default_factory=list)
    fates: list = field(default_factory=list)
    rao_times: list = field(default_factory=list)


@dataclass(frozen=True)
class RaoRecord:
    """Contention outcome of one RAO (grant demotions tracked separately)."""

    index: int
    time: float
    transmissions: int
    successes: int          # unique preamble and not erased
    collided: int
    erased: int
    demoted: int = 0


@dataclass(frozen=True)
class AccessRecord:
    user: int
    gen_time: float
    outcome: str            # "success" | "failure"
    attempts: int
    latency_ms: float              # inf on failure
    departure_time: float | None   # None on failure
    fates: tuple = ()
    rao_times: tuple = ()


@dataclass
class RaTrace:
    config: RaConfig
    horizon_ms: float
    n_raos: int
    records: list
    rao_records: list       # only RAOs with at least one transmission
    departures: np.ndarray  # sorted grant-completion times of successes
    censored: int = 0       # updates unresolved within the horizon

    @property
    def success_count(self) -> int:
        return int(len(self.departures))

    @property
    def success_probability(self) -> float:
        if not self.records:
            return float("nan")
        return self.success_count / len(self.records)


def generate_arrivals(rate_per_ms: float, horizon_ms: float, rng, users: int = 1):
    """Poisson arrival times on [0, horizon) with uniform device labels."""
    if rate_per_ms < 0:
        raise ValueError("rate must be >= 0")
    if rate_per_ms == 0.0:
        return []
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
    times = np.concatenate(times)
    owners = rng.integers(0, users, size=len(times))
    return list(zip(owners.tolist(), times.tolist()))


def resolve_rao(n_contenders: int, preambles: int, erasure_prob: float, rng):
    """Resolve one RAO: preamble draws, collision marking, erasures.

    Returns an array of per-contender fates (COLLIDED/ERASED/SUCCESS) in
    contender order; grant scheduling happens separately.
    """
    fates = np.empty(n_contenders, dtype=object)
    choices = rng.integers(0, preambles, size=n_contenders)
    counts = np.bincount(choices, minlength=preambles)
    coll = counts[choices] >= 2
    fates[coll] = COLLIDED
    unique_idx = np.flatnonzero(~coll)
    erased = rng.random(len(unique_idx)) < erasure_prob
    fates[unique_idx[erased]] = ERASED
    fates[unique_idx[~erased]] = SUCCESS
    return fates


def schedule_grants(n_successes: int, cfg: RaConfig, rng):
    """Place contention winners in the RA-response window in random order.

    Returns ``(t_extras, granted_mask)`` where ``t_extras[i]`` is the
    queueing offset (ms) of winner i inside the window and the mask marks
    winners that fit the window capacity; the rest are demoted (no grant).
    """
    ranks = np.empty(n_successes, dtype=np.int64)
    ranks[rng.permutation(n_successes)] = np.arange(n_successes)
    granted = ranks < cfg.grant_capacity
    t_extras = (ranks // cfg.grants_per_subframe) * float(cfg.repetitions)
    return t_extras, granted


def backoff_and_retry(state: UpdateAttemptState, detection_time: float,
                      backoff: float, rao_period: float, n_raos: int):
    """Advance a failed update to its retry RAO.

    Returns the retry RAO index, or None when the retry would fall beyond
    the simulated horizon (the update is then censored by the caller).
    The caller draws ``backoff`` and has already verified attempt < max.
    """
    state.attempt += 1
    state.backoffs.append(backoff)
    retry_at = detection_time + backoff
    k = max(int(math.ceil(retry_at / rao_period)) - 1, 0)
    if k >= n_raos:
        return None
    return k


def run(cfg: RaConfig, rate_per_s: float, horizon_ms: float, seed,
        users: int = 1000) -> RaTrace:
    """Simulate the full procedure for one path.

    ``seed`` may be an int, a SeedSequence, or a Generator.  Success
    latency follows the closed-form delay expression evaluated with the
    realized backoffs and grant offsets, plus four one-way propagation
    legs when ``cfg.max_prop_delay`` is set (space path).
    """
    rng = np.random.default_rng(seed)
    t_rao = cfg.rao_period
    n_raos = int(horizon_ms // t_rao)
    if n_raos < 1:
        raise ValueError(f"horizon {horizon_ms} ms holds no RAO (period {t_rao} ms)")
    detect_lag = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms
    prop_total = 4.0 * cfg.max_prop_delay

    arrivals = generate_arrivals(rate_per_s / 1000.0, horizon_ms, rng, users)
    pending: dict = {}
    heap: list = []

    def push(k: int, state: UpdateAttemptState):
        if k not in pending:
            pending[k] = []
            heapq.heappush(heap, k)
        pending[k].append(state)

    censored = 0
    for user, t in arrivals:
        k = max(int(math.ceil(t / t_rao)) - 1, 0)  # first RAO at or after t
        if k >= n_raos:
            censored += 1
            continue
        push(k, UpdateAttemptState(user=user, gen_time=t))

    records: list = []
    rao_records: list = []
    departures: list = []

    while heap:
        k = heapq.heappop(heap)
        states = pending.pop(k)
        rao_time = (k + 1) * t_rao
        x = len(states)
        for st in states:
            st.rao_times.append(rao_time)
        fates = resolve_rao(x, cfg.preambles, cfg.erasure_prob, rng)
        win_idx = np.flatnonzero(fates == SUCCESS)
        t_extras, granted = schedule_grants(len(win_idx), cfg, rng)
        fates[win_idx[~granted]] = DEMOTED
        n_succ = len(win_idx)

        for j, t_extra in zip(win_idx[granted], t_extras[granted]):
            st = states[j]
            st.fates.append(SUCCESS)
            latency = access_delay(st.attempt, cfg, st.backoffs,
                                   float(t_extra)) + prop_total
            departure = st.gen_time + latency
            if departure > horizon_ms:
                censored += 1
                continue
            records.append(AccessRecord(
                user=st.user, gen_time=st.gen_time, outcome="success",
                attempts=st.attempt, latency_ms=latency,
                departure_time=departure, fates=tuple(st.fates),
                rao_times=tuple(st.rao_times)))
            departures.append(departure)

        failed = [j for j in range(x) if fates[j] != SUCCESS]
        backoffs = rng.uniform(0.0, cfg.max_backoff, size=len(failed))
        n_coll = n_eras = n_demo = 0
        for j, b in zip(failed, backoffs):
            st = states[j]
            fate = fates[j]
            st.fates.append(fate)
            if fate == COLLIDED:
                n_coll += 1
            elif fate == ERASED:
                n_eras += 1
            else:
                n_demo += 1
            if st.attempt >= cfg.max_attempts:
                records.append(AccessRecord(
                    user=st.user, gen_time=st.gen_time, outcome="failure",
                    attempts=st.attempt, latency_ms=float("inf"),
                    departure_time=None, fates=tuple(st.fates),
                    rao_times=tuple(st.rao_times)))
                continue
            k2 = backoff_and_retry(st, rao_time + detect_lag, float(b),
                                   t_rao, n_raos)
            if k2 is None:
                censored += 1
            else:
                push(k2, st)

        rao_records.append(RaoRecord(
            index=k, time=rao_time, transmissions=x,
            successes=n_succ, collided=n_coll, erased=n_eras, demoted=n_demo))

    records.sort(key=lambda r: (r.gen_time, r.user))
    return RaTrace(config=cfg, horizon_ms=horizon_ms, n_raos=n_raos,
                   records=records, rao_records=rao_records,
                   departures=np.sort(np.asarray(departures)),
                   censored=censored)


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
    occupied = len(trace.rao_records)
    idle = trace.n_raos - occupied
    tx = np.array([r.transmissions for r in trace.rao_records], dtype=np.int64)
    co = np.array([r.collided for r in trace.rao_records], dtype=np.int64)
    su = np.array([r.successes for r in trace.rao_records], dtype=np.int64)
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
    n_records: int

    @property
    def plateau(self) -> float:
        return float(self.probabilities[-1]) if len(self.probabilities) else 0.0

    def value_at(self, t: float) -> float:
        i = int(np.searchsorted(self.latencies, t, side="right"))
        return float(self.probabilities[i - 1]) if i else 0.0


def latency_cdf(records) -> LatencyCdf:
    n = len(records)
    lats = np.sort(np.array([r.latency_ms for r in records
                             if r.outcome == "success"]))
    probs = np.arange(1, len(lats) + 1) / n if n else np.empty(0)
    return LatencyCdf(latencies=lats, probabilities=np.asarray(probs, dtype=float),
                      n_records=n)


# ---------------------------------------------------------------------------
# Columnar export
# ---------------------------------------------------------------------------

def export_access_csv(trace: RaTrace, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRACE_SCHEMA_VERSION} access records\n")
        w = csv.writer(fh)
        w.writerow(["user", "gen_time", "outcome", "attempts",
                    "latency_ms", "departure_time"])
        for r in trace.records:
            w.writerow([r.user, f"{r.gen_time:.6f}", r.outcome, r.attempts,
                        f"{r.latency_ms:.6f}",
                        "" if r.departure_time is None
                        else f"{r.departure_time:.6f}"])


def export_rao_csv(trace: RaTrace, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRACE_SCHEMA_VERSION} rao records\n")
        w = csv.writer(fh)
        w.writerow(["rao_index", "time", "transmissions", "successes",
                    "collided", "erased", "demoted"])
        for r in trace.rao_records:
            w.writerow([r.index, f"{r.time:.3f}", r.transmissions,
                        r.successes, r.collided, r.erased, r.demoted])
