import json
import math
import tracemalloc
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

import _ra_reference as ref
from _ra_reference import (UpdateAttemptState, backoff_and_retry,
                           reference_run, resolve_rao, schedule_grants)
from leoiot import ra_sim
from leoiot.ra_analytic import min_access_delay
from leoiot.ra_sim import empirical_pmf, generate_arrivals, latency_cdf, run
from leoiot.scenario import load_config

GROUND = load_config("offloading").ground_ra    # T_rao=320, A=1, eps=0.1
SPACE = load_config("offloading").space_ra      # T_rao=160, 4 repetitions
LIGHT = load_config("backhauling").ground_ra    # T_rao=40


class TestGenerateArrivals:
    def test_zero_rate(self):
        rng = np.random.default_rng(0)
        assert len(generate_arrivals(0.0, 1e6, rng)) == 0

    def test_count_statistics(self):
        rng = np.random.default_rng(1)
        times = generate_arrivals(0.05, 1e6, rng)
        mean = 50_000
        assert abs(len(times) - mean) <= 3 * math.sqrt(mean)
        assert (np.diff(times) >= 0).all()
        assert times[-1] < 1e6

    def test_deterministic(self):
        a = generate_arrivals(0.01, 1e5, np.random.default_rng(7))
        b = generate_arrivals(0.01, 1e5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generate_arrivals(-0.1, 1e5, np.random.default_rng(0))


class TestResolveRao:
    def test_lone_contender_lossless(self):
        fates = resolve_rao(1, 36, 0.0, np.random.default_rng(0))
        assert list(fates) == [ref.SUCCESS]

    def test_single_preamble_always_collides(self):
        for seed in range(5):
            fates = resolve_rao(2, 1, 0.0, np.random.default_rng(seed))
            assert list(fates) == [ref.COLLIDED, ref.COLLIDED]

    def test_mean_successes_at_capacity(self):
        rng = np.random.default_rng(42)
        reps = 30_000
        total = 0
        for _ in range(reps):
            fates = resolve_rao(36, 36, 0.0, rng)
            total += int(np.sum(fates == ref.SUCCESS))
        mean = total / reps
        assert mean == pytest.approx(13.43, abs=0.1)

    def test_erasure_thins_unique_choices(self):
        rng = np.random.default_rng(3)
        reps = 20_000
        succ = eras = 0
        for _ in range(reps):
            fates = resolve_rao(1, 36, 0.25, rng)
            succ += int(fates[0] == ref.SUCCESS)
            eras += int(fates[0] == ref.ERASED)
        assert succ / reps == pytest.approx(0.75, abs=0.01)
        assert eras / reps == pytest.approx(0.25, abs=0.01)


class TestScheduleGrants:
    def test_single_success_first_subframe(self):
        t_extras, granted = schedule_grants(1, GROUND, np.random.default_rng(0))
        assert granted.all()
        assert t_extras[0] <= 1.0

    def test_full_window_fits_capacity(self):
        rng = np.random.default_rng(1)
        t_extras, granted = schedule_grants(36, GROUND, rng)
        assert granted.all()
        assert t_extras.max() == pytest.approx(11.0)   # subframe 12 of 12

    def test_overflow_demotes(self):
        # 48 preambles could give more winners than the window holds
        cfg = replace(GROUND, preambles=48)
        t_extras, granted = schedule_grants(40, cfg, np.random.default_rng(2))
        assert int(granted.sum()) == 36
        assert int((~granted).sum()) == 4

    def test_repetitions_stretch_offsets(self):
        t_extras, granted = schedule_grants(36, SPACE, np.random.default_rng(3))
        assert granted.all()
        assert t_extras.max() == pytest.approx(44.0)   # 11 slots x 4 ms


class TestBackoffAndRetry:
    def test_zero_backoff_next_rao(self):
        st = UpdateAttemptState(gen_time=100.0)
        k = backoff_and_retry(st, detection_time=339.6, backoff=0.0,
                              rao_period=320.0, n_raos=100)
        assert k == 1            # first RAO at or after 339.6 is 640 ms
        assert st.attempt == 2
        assert st.backoffs == [0.0]

    def test_beyond_horizon_censors(self):
        st = UpdateAttemptState(gen_time=0.0)
        k = backoff_and_retry(st, detection_time=320.0 * 99, backoff=400.0,
                              rao_period=320.0, n_raos=100)
        assert k is None

    def test_retry_window_bound(self):
        # retry lands within [detection, detection + backoff + one period]
        rng = np.random.default_rng(11)
        for _ in range(200):
            st = UpdateAttemptState(gen_time=0.0)
            det = float(rng.uniform(0, 5000))
            b = float(rng.uniform(0, 160))
            k = backoff_and_retry(st, det, b, 320.0, 10_000)
            t_retry = (k + 1) * 320.0
            assert det + b <= t_retry <= det + b + 320.0


class TestRun:
    def test_isolated_updates_hit_minimum_latency(self):
        cfg = replace(GROUND, erasure_prob=0.0)
        trace = run(cfg, 1, 0.01, 3.2e6, 42)
        ok = np.isfinite(trace.latency_ms)
        assert ok.sum() > 10
        assert trace.latency_ms[ok] == pytest.approx(22.1, abs=1e-9)
        assert trace.latency_ms[ok].min() == min_access_delay(cfg)
        assert trace.departure[ok] == pytest.approx(trace.gen_time[ok] + 22.1)

    def test_horizon_too_short(self):
        with pytest.raises(ValueError):
            run(GROUND, 1, 1.0, 100.0, 0)

    def test_determinism(self):
        a = run(GROUND, 1, 50.0, 3.2e5, 123)
        b = run(GROUND, 1, 50.0, 3.2e5, 123)
        for col in ("gen_time", "attempts", "latency_ms"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert np.array_equal(a.departure, b.departure, equal_nan=True)
        assert a.rao_records == b.rao_records
        assert a.censored == b.censored

    def test_rao_conservation_and_bounds(self):
        trace = run(GROUND, 10, 50.0, 6.4e5, 5)
        assert trace.rao_records, "expected contention"
        for r in trace.rao_records:
            assert r.successes + r.collided + r.erased == r.transmissions
            assert r.successes <= min(r.transmissions, GROUND.preambles)
            assert r.demoted <= r.successes

    def test_success_latency_floor_and_retry_gaps(self):
        # per-attempt RAO times live only in the reference, which ``run``
        # matches bit for bit (TestReference)
        trace = reference_run(GROUND, 10, 50.0, 6.4e5, 6)
        floor = min_access_delay(GROUND)
        lag = GROUND.preamble_duration + GROUND.t_proc1 + GROUND.rar_window_ms
        saw_retry = False
        for r in trace.records:
            if r.outcome == "success":
                assert r.latency_ms >= floor - 1e-9
            assert len(r.rao_times) == r.attempts
            for t0, t1 in zip(r.rao_times, r.rao_times[1:]):
                saw_retry = True
                assert t1 - t0 >= lag
        assert saw_retry

    def test_departures_match_success_records(self):
        horizon = 3.2e5
        trace = run(GROUND, 1, 50.0, horizon, 9)
        ok = np.isfinite(trace.latency_ms)
        succ = np.sort(trace.departure[ok])
        assert len(succ) == trace.success_count
        assert np.array_equal(np.isnan(trace.departure), ~ok)
        assert np.allclose(succ, np.sort(trace.gen_time[ok]
                                         + trace.latency_ms[ok]))
        assert succ[0] >= 0.0
        assert succ[-1] <= horizon

    def test_single_attempt_success_fraction_matches_prediction(self):
        # semi-analytic oracle: a tagged update sees Poisson(lam_rao) rivals,
        # so P(success) = (1 - eps) * exp(-lam_rao / R)
        rate = 25.0
        lam_rao = rate / 1000.0 * SPACE.rao_period
        predicted = (1 - SPACE.erasure_prob) * math.exp(-lam_rao / SPACE.preambles)
        trace = run(SPACE, 1, rate, 4.8e6, 11)
        assert trace.success_probability == pytest.approx(predicted, rel=0.01)

    def test_space_latency_includes_propagation(self):
        cfg = replace(SPACE, erasure_prob=0.0)
        trace = run(cfg, 1, 0.01, 4.8e6, 3)
        assert trace.success_count
        # 42.4 ms handshake plus four 4 ms legs, all in the closed form
        assert trace.latency_ms.min() == pytest.approx(58.4, abs=1e-9)
        assert trace.latency_ms.min() == min_access_delay(cfg)

    def test_failures_marked_infinite(self):
        trace = run(GROUND, 1, 50.0, 3.2e5, 8)
        failed = ~np.isfinite(trace.latency_ms)
        assert failed.any()
        assert np.isinf(trace.latency_ms[failed]).all()
        assert np.isnan(trace.departure[failed]).all()
        assert (trace.attempts[failed] == 1).all()


class TestEmpiricalPmf:
    def test_zero_traffic(self):
        trace = run(GROUND, 1, 0.0, 3.2e5, 0)
        assert not trace.rao_records
        pmf = empirical_pmf(trace)
        assert pmf.total[0] == pytest.approx(1.0)
        assert pmf.collided[0] == pytest.approx(1.0)
        assert pmf.successful[0] == pytest.approx(1.0)

    def test_light_load_matches_poisson(self):
        # with a single attempt the contenders per RAO are exactly the
        # fresh arrivals, so the total-transmissions pmf is Poisson
        rate = 50.0
        trace = run(LIGHT, 1, rate, 1.0e6, 21)
        pmf = empirical_pmf(trace)
        lam = rate / 1000.0 * LIGHT.rao_period
        poisson = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
                            for k in range(len(pmf.total))])
        tv = 0.5 * np.abs(pmf.total - poisson).sum()
        assert tv <= 0.02

    def test_normalization(self):
        trace = run(GROUND, 1, 50.0, 3.2e5, 4)
        pmf = empirical_pmf(trace)
        for dist in (pmf.total, pmf.collided, pmf.successful):
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert (dist >= 0).all()


class TestLatencyCdf:
    def test_all_failures_flat_zero(self):
        cdf = latency_cdf(np.full(5, np.inf))
        assert cdf.plateau == 0.0
        assert len(cdf.latencies) == len(cdf.probabilities) == 0

    def test_single_success_steps_to_one(self):
        cdf = latency_cdf(np.array([22.1]))
        assert cdf.latencies.tolist() == [22.1]
        assert cdf.probabilities.tolist() == [1.0]
        assert cdf.plateau == 1.0

    def test_plateau_bounded_by_erasure_survival(self):
        trace = run(GROUND, 1, 50.0, 3.2e6, 13)
        cdf = latency_cdf(trace.latency_ms)
        assert cdf.plateau <= 1 - GROUND.erasure_prob
        # CDF is a nondecreasing step function
        assert (np.diff(cdf.probabilities) >= 0).all()



def _reference_columns(trace):
    rec = trace.records
    return {
        "gen_time": np.array([r.gen_time for r in rec], dtype=float),
        "attempts": np.array([r.attempts for r in rec], dtype=np.int64),
        "latency_ms": np.array([r.latency_ms for r in rec], dtype=float),
        "departure": np.array([np.nan if r.departure_time is None
                               else r.departure_time for r in rec],
                              dtype=float),
    }


# 6 grants per RAO: the first RAOs hold more winners than that on any seed
DEMOTING = replace(GROUND, preambles=48, rar_window=2)


class TestReference:
    """``run`` against the event-driven reference: same draws, same bits."""

    @pytest.mark.parametrize("cfg, attempts, rate, horizon, seed", [
        (GROUND, 1, 50.0, 3.2e5, 1),
        (GROUND, 3, 50.0, 3.2e5, 2),
        (GROUND, 10, 50.0, 3.2e5, 3),
        (LIGHT, 10, 275.0, 4.0e4, 4),            # the congested feed
        (LIGHT, 1, 0.25, 4.0e6, 5),              # the sparse feed
        (DEMOTING, 10, 200.0, 1.6e5, 6),         # window overflow
        (SPACE, 1, 25.0, 4.8e5, 7),              # repetitions, propagation
        (SPACE, 10, 60.0, 4.8e5, 8),
        (replace(GROUND, erasure_prob=0.0), 10, 50.0, 3.2e5, 9),
        (GROUND, 10, 0.0, 3.2e5, 10),            # no traffic
        (GROUND, 10, 50.0, 335.0, 22),           # about one RAO
    ])
    def test_bit_identical(self, cfg, attempts, rate, horizon, seed):
        trace = run(cfg, attempts, rate, horizon, seed)
        oracle = reference_run(cfg, attempts, rate, horizon, seed)
        for name, column in _reference_columns(oracle).items():
            got = getattr(trace, name)
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column, equal_nan=True), name
        assert trace.rao_counts.tolist() == [list(astuple(r))
                                             for r in oracle.rao_records]
        assert trace.rao_records == oracle.rao_records
        assert trace.censored == oracle.censored
        assert trace.n_raos == oracle.n_raos
        assert np.array_equal(np.sort(trace.departure[np.isfinite(
            trace.latency_ms)]), oracle.departures)

    def test_grid_reaches_every_branch(self):
        # the grid above sees demotions, retries and final failures, and
        # all three ways to be censored: arriving after the last RAO,
        # retrying past it, and a grant completing past the horizon
        assert sum(r.demoted for r in run(DEMOTING, 10, 200.0, 1.6e5, 6)
                   .rao_records) > 0
        short = run(GROUND, 10, 50.0, 335.0, 22)
        (rao,) = short.rao_records
        granted = rao.successes - rao.demoted
        assert short.success_count < granted
        assert short.censored > rao.transmissions - short.success_count
        three = run(GROUND, 3, 50.0, 3.2e5, 2)
        assert (three.attempts == 3).any() and (three.attempts == 2).any()
        assert np.isinf(three.latency_ms[three.attempts == 3]).any()

    def test_counters_are_python_ints(self):
        # the trace's counters and RAO records go to JSON as they are
        trace = run(GROUND, 10, 50.0, 3.2e5, 12)
        assert type(trace.success_count) is int
        assert type(trace.censored) is int
        json.dumps([asdict(r) for r in trace.rao_records])


class TestRaoCounts:
    """The per-RAO counts are one int64 array, with no object per RAO.

    Traced, the backhauling sparse one-attempt feed (0.25 updates/s, about
    one update per occupied RAO) peaked at 167.7 bytes per occupied RAO
    over 3,054 of them, where one ``RaoRecord`` and three lists of Python
    ints per RAO read 316.4.  The bound is the reading plus 10%.
    """

    PEAK_PER_OCCUPIED_RAO = 184

    def test_run_builds_no_record(self, monkeypatch):
        occupied = len(reference_run(GROUND, 10, 50.0, 3.2e5, 12).rao_records)

        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("run built a RaoRecord")

        monkeypatch.setattr(ra_sim, "RaoRecord", Refused)
        trace = run(GROUND, 10, 50.0, 3.2e5, 12)
        assert trace.rao_counts.dtype == np.int64
        assert trace.rao_counts.shape == (occupied, 6)
        assert not trace.rao_counts.flags.writeable

    def test_sparse_run_peak_per_occupied_rao(self):
        def call():
            return run(LIGHT, 1, 0.25, 1.2e7, 5)

        call()      # once first, so one-off set-up is not counted
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            occupied = len(call().rao_counts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert occupied > 2_000
        assert peak <= self.PEAK_PER_OCCUPIED_RAO * occupied
