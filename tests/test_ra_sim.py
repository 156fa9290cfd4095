import math
from dataclasses import replace

import numpy as np
import pytest

from leoiot import ra_sim
from leoiot.ra_analytic import min_access_delay
from leoiot.ra_sim import (AccessRecord, LatencyCdf, UpdateAttemptState,
                           backoff_and_retry, empirical_pmf,
                           generate_arrivals, latency_cdf, resolve_rao,
                           run, schedule_grants)
from leoiot.scenario import backhauling_preset, offloading_preset

GROUND = offloading_preset().ground_ra          # T_rao=320, A=1, eps=0.1
SPACE = offloading_preset().space_ra            # T_rao=160, 4 repetitions
LIGHT = backhauling_preset().ground_ra          # T_rao=40


class TestGenerateArrivals:
    def test_zero_rate(self):
        rng = np.random.default_rng(0)
        assert generate_arrivals(0.0, 1e6, rng) == []

    def test_count_statistics(self):
        rng = np.random.default_rng(1)
        arrivals = generate_arrivals(0.05, 1e6, rng, users=1000)
        mean = 50_000
        assert abs(len(arrivals) - mean) <= 3 * math.sqrt(mean)
        times = np.array([t for _, t in arrivals])
        assert (np.diff(times) >= 0).all()
        assert times[-1] < 1e6
        users = {u for u, _ in arrivals}
        assert users <= set(range(1000))
        assert len(users) > 900       # essentially all devices show up

    def test_deterministic(self):
        a = generate_arrivals(0.01, 1e5, np.random.default_rng(7))
        b = generate_arrivals(0.01, 1e5, np.random.default_rng(7))
        assert a == b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generate_arrivals(-0.1, 1e5, np.random.default_rng(0))


class TestResolveRao:
    def test_lone_contender_lossless(self):
        fates = resolve_rao(1, 36, 0.0, np.random.default_rng(0))
        assert list(fates) == [ra_sim.SUCCESS]

    def test_single_preamble_always_collides(self):
        for seed in range(5):
            fates = resolve_rao(2, 1, 0.0, np.random.default_rng(seed))
            assert list(fates) == [ra_sim.COLLIDED, ra_sim.COLLIDED]

    def test_mean_successes_at_capacity(self):
        rng = np.random.default_rng(42)
        reps = 30_000
        total = 0
        for _ in range(reps):
            fates = resolve_rao(36, 36, 0.0, rng)
            total += int(np.sum(fates == ra_sim.SUCCESS))
        mean = total / reps
        assert mean == pytest.approx(13.43, abs=0.1)

    def test_erasure_thins_unique_choices(self):
        rng = np.random.default_rng(3)
        reps = 20_000
        succ = eras = 0
        for _ in range(reps):
            fates = resolve_rao(1, 36, 0.25, rng)
            succ += int(fates[0] == ra_sim.SUCCESS)
            eras += int(fates[0] == ra_sim.ERASED)
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
        st = UpdateAttemptState(user=0, gen_time=100.0)
        k = backoff_and_retry(st, detection_time=339.6, backoff=0.0,
                              rao_period=320.0, n_raos=100)
        assert k == 1            # first RAO at or after 339.6 is 640 ms
        assert st.attempt == 2
        assert st.backoffs == [0.0]

    def test_beyond_horizon_censors(self):
        st = UpdateAttemptState(user=0, gen_time=0.0)
        k = backoff_and_retry(st, detection_time=320.0 * 99, backoff=400.0,
                              rao_period=320.0, n_raos=100)
        assert k is None

    def test_retry_window_bound(self):
        # retry lands within [detection, detection + backoff + one period]
        rng = np.random.default_rng(11)
        for _ in range(200):
            st = UpdateAttemptState(user=0, gen_time=0.0)
            det = float(rng.uniform(0, 5000))
            b = float(rng.uniform(0, 160))
            k = backoff_and_retry(st, det, b, 320.0, 10_000)
            t_retry = (k + 1) * 320.0
            assert det + b <= t_retry <= det + b + 320.0


class TestRun:
    def test_isolated_updates_hit_minimum_latency(self):
        cfg = replace(GROUND, erasure_prob=0.0)
        trace = run(cfg, 0.01, 3.2e6, 42)
        succ = [r for r in trace.records if r.outcome == "success"]
        assert len(succ) > 10
        for r in succ:
            assert r.latency_ms == pytest.approx(22.1, abs=1e-9)
            assert r.departure_time == pytest.approx(r.gen_time + 22.1)

    def test_horizon_too_short(self):
        with pytest.raises(ValueError):
            run(GROUND, 1.0, 100.0, 0)

    def test_determinism(self):
        a = run(GROUND, 50.0, 3.2e5, 123)
        b = run(GROUND, 50.0, 3.2e5, 123)
        assert a.records == b.records
        assert a.rao_records == b.rao_records
        assert np.array_equal(a.departures, b.departures)

    def test_rao_conservation_and_bounds(self):
        trace = run(replace(GROUND, max_attempts=10), 50.0, 6.4e5, 5)
        assert trace.rao_records, "expected contention"
        for r in trace.rao_records:
            assert r.successes + r.collided + r.erased == r.transmissions
            assert r.successes <= min(r.transmissions, GROUND.preambles)
            assert r.demoted <= r.successes

    def test_success_latency_floor_and_retry_gaps(self):
        cfg = replace(GROUND, max_attempts=10)
        trace = run(cfg, 50.0, 6.4e5, 6)
        floor = min_access_delay(cfg)
        lag = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms
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
        trace = run(GROUND, 50.0, 3.2e5, 9)
        succ = sorted(r.departure_time for r in trace.records
                      if r.outcome == "success")
        assert len(succ) == trace.success_count
        assert np.allclose(trace.departures, succ)
        assert trace.departures[0] >= 0.0
        assert trace.departures[-1] <= trace.horizon_ms

    def test_single_attempt_success_fraction_matches_prediction(self):
        # semi-analytic oracle: a tagged update sees Poisson(lam_rao) rivals,
        # so P(success) = (1 - eps) * exp(-lam_rao / R)
        rate = 25.0
        lam_rao = rate / 1000.0 * SPACE.rao_period
        predicted = (1 - SPACE.erasure_prob) * math.exp(-lam_rao / SPACE.preambles)
        trace = run(SPACE, rate, 4.8e6, 11)
        assert trace.success_probability == pytest.approx(predicted, rel=0.01)

    def test_space_latency_includes_propagation(self):
        cfg = replace(SPACE, erasure_prob=0.0)
        trace = run(cfg, 0.01, 4.8e6, 3)
        succ = [r for r in trace.records if r.outcome == "success"]
        assert succ
        # 42.4 ms handshake plus four 4 ms legs
        assert min(r.latency_ms for r in succ) == pytest.approx(58.4, abs=1e-9)

    def test_failures_marked_infinite(self):
        trace = run(replace(GROUND, max_attempts=1), 50.0, 3.2e5, 8)
        failures = [r for r in trace.records if r.outcome == "failure"]
        assert failures
        for r in failures:
            assert math.isinf(r.latency_ms)
            assert r.departure_time is None
            assert r.attempts == 1


class TestEmpiricalPmf:
    def test_zero_traffic(self):
        trace = run(GROUND, 0.0, 3.2e5, 0)
        assert not trace.rao_records
        pmf = empirical_pmf(trace)
        assert pmf.total[0] == pytest.approx(1.0)
        assert pmf.collided[0] == pytest.approx(1.0)
        assert pmf.successful[0] == pytest.approx(1.0)

    def test_light_load_matches_poisson(self):
        # with a single attempt the contenders per RAO are exactly the
        # fresh arrivals, so the total-transmissions pmf is Poisson
        rate = 50.0
        trace = run(LIGHT, rate, 1.0e6, 21)
        pmf = empirical_pmf(trace)
        lam = rate / 1000.0 * LIGHT.rao_period
        poisson = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
                            for k in range(len(pmf.total))])
        tv = 0.5 * np.abs(pmf.total - poisson).sum()
        assert tv <= 0.02

    def test_normalization(self):
        trace = run(GROUND, 50.0, 3.2e5, 4)
        pmf = empirical_pmf(trace)
        for dist in (pmf.total, pmf.collided, pmf.successful):
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert (dist >= 0).all()


class TestLatencyCdf:
    def test_all_failures_flat_zero(self):
        records = [AccessRecord(0, 0.0, "failure", 1, float("inf"),
                                None)] * 5
        cdf = latency_cdf(records)
        assert cdf.plateau == 0.0
        assert len(cdf.latencies) == 0
        assert cdf.value_at(1e9) == 0.0

    def test_single_success_steps_to_one(self):
        records = [AccessRecord(0, 0.0, "success", 1, 22.1, 22.1)]
        cdf = latency_cdf(records)
        assert cdf.value_at(22.0) == 0.0
        assert cdf.value_at(22.1) == 1.0
        assert cdf.plateau == 1.0

    def test_plateau_bounded_by_erasure_survival(self):
        trace = run(GROUND, 50.0, 3.2e6, 13)
        cdf = latency_cdf(trace.records)
        assert cdf.plateau <= 1 - GROUND.erasure_prob
        # CDF is a nondecreasing step function
        assert (np.diff(cdf.probabilities) >= 0).all()


class TestExport:
    def test_access_csv(self, tmp_path):
        trace = run(GROUND, 50.0, 3.2e5, 2)
        path = tmp_path / "access.csv"
        ra_sim.export_access_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# leoiot-trace v1")
        assert lines[1].split(",") == ["user", "gen_time", "outcome",
                                       "attempts", "latency_ms",
                                       "departure_time"]
        assert len(lines) == 2 + len(trace.records)

    def test_rao_csv(self, tmp_path):
        trace = run(GROUND, 50.0, 3.2e5, 2)
        path = tmp_path / "rao.csv"
        ra_sim.export_rao_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# leoiot-trace v1")
        assert len(lines) == 2 + len(trace.rao_records)
