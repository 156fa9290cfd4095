"""Independent reference for the random-access engine: the event-driven
simulation that ``ra_sim.run`` replaced, with one Python object per
update and per-attempt fate strings.

It draws the same random numbers as ``ra_sim.run``, in the same order and
with the same sizes (per occupied RAO: preambles, erasure uniforms, the
winners' permutation, then one backoff per loser), so both must agree bit
for bit.  Kept deliberately separate from the package so the columnar
engine has a second opinion, and so the tests that read per-attempt fates
and RAO times have something to read.
"""
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from leoiot.ra_analytic import min_access_delay
from leoiot.ra_sim import RaoRecord

# per-attempt fates
COLLIDED = "collided"
ERASED = "erased"
DEMOTED = "demoted"       # contention success, but no room in the grant window
SUCCESS = "success"


@dataclass
class UpdateAttemptState:
    """Mutable bookkeeping for one update working through the procedure."""

    gen_time: float
    attempt: int = 1
    backoffs: list = field(default_factory=list)
    fates: list = field(default_factory=list)
    rao_times: list = field(default_factory=list)


@dataclass(frozen=True)
class AccessRecord:
    gen_time: float
    outcome: str            # "success" | "failure"
    attempts: int
    latency_ms: float              # inf on failure
    departure_time: float | None   # None on failure
    fates: tuple = ()
    rao_times: tuple = ()


@dataclass
class ReferenceTrace:
    n_raos: int
    records: list
    rao_records: list       # only RAOs with at least one transmission
    departures: np.ndarray  # sorted grant-completion times of successes
    censored: int = 0       # updates unresolved within the horizon


def access_delay(attempts: int, cfg, backoffs, t_extra: float = 0.0) -> float:
    """Handshake latency from the list of realized backoffs."""
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if len(backoffs) != attempts - 1:
        raise ValueError("need one backoff per failed attempt")
    for b in backoffs:
        if not 0.0 <= b <= cfg.max_backoff:
            raise ValueError(f"backoff {b} outside [0, {cfg.max_backoff}]")
    retry_overhead = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms
    return (min_access_delay(cfg) + t_extra
            + sum(backoffs) + (attempts - 1) * retry_overhead)


def generate_arrivals(rate_per_ms: float, horizon_ms: float, rng):
    """Poisson arrival times on [0, horizon), as a list."""
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
    return np.concatenate(times).tolist()


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


def schedule_grants(n_successes: int, cfg, rng):
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


def reference_run(cfg, max_attempts: int, rate_per_s: float,
                  horizon_ms: float, seed) -> ReferenceTrace:
    """Simulate the full procedure for one path, one object per update;
    an update gives up after ``max_attempts`` failed attempts."""
    rng = np.random.default_rng(seed)
    t_rao = cfg.rao_period
    n_raos = int(horizon_ms // t_rao)
    if n_raos < 1:
        raise ValueError(f"horizon {horizon_ms} ms holds no RAO (period {t_rao} ms)")
    detect_lag = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms

    arrivals = generate_arrivals(rate_per_s / 1000.0, horizon_ms, rng)
    pending: dict = {}
    heap: list = []

    def push(k: int, state: UpdateAttemptState):
        if k not in pending:
            pending[k] = []
            heapq.heappush(heap, k)
        pending[k].append(state)

    censored = 0
    for t in arrivals:
        k = max(int(math.ceil(t / t_rao)) - 1, 0)  # first RAO at or after t
        if k >= n_raos:
            censored += 1
            continue
        push(k, UpdateAttemptState(gen_time=t))

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
                                   float(t_extra))
            departure = st.gen_time + latency
            if departure > horizon_ms:
                censored += 1
                continue
            records.append(AccessRecord(
                gen_time=st.gen_time, outcome="success",
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
            if st.attempt >= max_attempts:
                records.append(AccessRecord(
                    gen_time=st.gen_time, outcome="failure",
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
            index=k, transmissions=x,
            successes=n_succ, collided=n_coll, erased=n_eras, demoted=n_demo))

    records.sort(key=lambda r: r.gen_time)
    return ReferenceTrace(n_raos=n_raos, records=records,
                          rao_records=rao_records,
                          departures=np.sort(np.asarray(departures)),
                          censored=censored)
