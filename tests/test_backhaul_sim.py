import math
import tracemalloc

import numpy as np
import pytest

from _chain_reference import reference_chain
from leoiot import backhaul_sim as bs
from leoiot.backhaul_analytic import TandemModel, average_aoi_lossless, \
    expected_ty, mean_network_delay
from leoiot.backhaul_sim import (ArrivalStream, BackhaulConfig, NetworkTrace,
                                 average_aoi, mean_system_time,
                                 poisson_stream, run, run_point, sweep)
from leoiot.scenario import load_config

FEED = bs.RaFeedSettings(load_config("backhauling").ground_ra)


def ra_point(mode, rho, hops, master_seed, n_packets):
    """A sweep cell of replication 0 with the feed that ``sweep`` builds."""
    access = bs.ra_departure_stream((mode, 0), master_seed, n_packets, FEED)
    return run_point(mode, rho, hops, 0.0, 0, master_seed, n_packets, access)


def mm1_aoi_exact(rho, mu=1.0):
    return (1 / mu) * (1 + 1 / rho + rho ** 2 / (1 - rho))


def manual_trace(gen, deliv):
    """Build a delivered-only trace for integrator unit tests."""
    gen = np.asarray(gen, dtype=float)
    deliv = np.asarray(deliv, dtype=float)
    return NetworkTrace(BackhaulConfig(1), gen,
                        np.zeros(len(gen), dtype=np.int64),
                        np.arange(len(gen)), deliv)


class TestStreams:
    def test_poisson_stream_rate(self):
        s = poisson_stream(0.5, 100_000, np.random.default_rng(0))
        assert len(s) == 100_000
        rate = len(s) / s.arrival_times[-1]
        assert rate == pytest.approx(0.5, rel=0.02)
        assert np.array_equal(s.arrival_times, s.gen_times)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            ArrivalStream(np.array([1.0, 0.5]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            ArrivalStream(np.array([1.0]), np.array([1.0, 2.0]))


class TestRun:
    def test_single_queue_sojourn(self):
        s = poisson_stream(0.5, 300_000, np.random.default_rng(1))
        trace = run(s, BackhaulConfig(1), 2)
        assert mean_system_time(trace) == pytest.approx(2.0, rel=0.02)

    def test_two_queue_sojourn(self):
        s = poisson_stream(0.5, 300_000, np.random.default_rng(3))
        trace = run(s, BackhaulConfig(2), 4)
        assert mean_system_time(trace) == pytest.approx(4.0, rel=0.02)

    def test_total_erasure_kills_all(self):
        s = poisson_stream(0.5, 1000, np.random.default_rng(5))
        trace = run(s, BackhaulConfig(1, 1.0), 6)
        assert trace.n_delivered == 0
        assert (trace.drop_node == 1).all()

    def test_empty_stream(self):
        s = ArrivalStream(np.empty(0), np.empty(0))
        trace = run(s, BackhaulConfig(2), 0)
        assert trace.n_delivered == 0
        assert trace.n_offered == 0

    def test_fcfs_and_work_conservation(self):
        # service starts exactly when both packet and server are free:
        # the scan equals an event-driven FCFS chain on the same draws
        s = poisson_stream(0.7, 5_000, np.random.default_rng(7))
        trace = run(s, BackhaulConfig(3), 8)
        deliveries, drop_node = reference_chain(s.arrival_times, (1.0,) * 3,
                                                (0.0,) * 3, 8)
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)
        assert (drop_node == 0).all() and (trace.drop_node == 0).all()

    def test_times_nondecreasing_along_path(self):
        s = poisson_stream(0.5, 20_000, np.random.default_rng(9))
        trace = run(s, BackhaulConfig(4, 0.05), 10)
        # FCFS keeps the order: no delivered packet overtakes another
        assert (np.diff(trace.delivered_index) > 0).all()
        assert (np.diff(trace.delivery_times) >= 0).all()
        # and each one spends positive time in the chain
        assert (trace.delivery_times
                > s.arrival_times[trace.delivered_index]).all()

    def test_delivered_fraction_matches_survival(self):
        n = 200_000
        eps = 0.1
        hops = 4
        s = poisson_stream(0.5, n, np.random.default_rng(11))
        trace = run(s, BackhaulConfig(hops, eps), 12)
        p = (1 - eps) ** hops
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(trace.delivered_fraction - p) <= 3 * sigma

    def test_thinning_rates_per_node(self):
        n = 200_000
        s = poisson_stream(0.5, n, np.random.default_rng(13))
        eps = 0.1
        trace = run(s, BackhaulConfig(3, eps), 14)
        expected = n
        for node_idx in range(3):
            # packets reaching node k: delivered, or dropped at k or later
            count = int(np.sum((trace.drop_node == 0)
                               | (trace.drop_node > node_idx)))
            sigma = math.sqrt(max(expected * (1 - expected / n), 1.0))
            assert abs(count - expected) <= 3 * sigma + 1
            expected *= (1 - eps)

    def test_determinism(self):
        s = poisson_stream(0.5, 10_000, np.random.default_rng(15))
        a = run(s, BackhaulConfig(2, 0.1), 16)
        b = run(s, BackhaulConfig(2, 0.1), 16)
        assert np.array_equal(a.delivery_times, b.delivery_times)
        assert np.array_equal(a.drop_node, b.drop_node)

    def test_single_packet_sees_pure_service(self):
        s = ArrivalStream(np.array([1.0]), np.array([1.0]))
        trace = run(s, BackhaulConfig(3), 17)
        rng = np.random.default_rng(17)
        total_service = sum(float(rng.exponential(1.0, size=1)[0])
                            for _ in range(3))
        assert trace.delivery_times[0] - 1.0 == pytest.approx(total_service)
        assert mean_system_time(trace) == pytest.approx(total_service)


class TestChainReference:
    """``run`` against the event-driven chain of ``_chain_reference``,
    given the oracle's per-node inputs: unit rates, one erasure."""

    @pytest.mark.parametrize("n, rates, erasures", [
        (3_000, (1.0,) * 3, (0.0,) * 3),
        (3_000, (1.0,) * 4, (0.1,) * 4),
        (3_000, (1.0,) * 2, (0.4,) * 2),
        (1, (1.0,) * 3, (0.0,) * 3),                  # one packet
        (1, (1.0,) * 2, (0.5,) * 2),
        (0, (1.0,) * 2, (0.1,) * 2),                  # empty stream
    ])
    def test_matches_event_driven_chain(self, n, rates, erasures):
        s = poisson_stream(0.6, n, np.random.default_rng(61))
        trace = run(s, BackhaulConfig(len(rates), erasures[0]), 62)
        deliveries, drop_node = reference_chain(s.arrival_times, rates,
                                                erasures, 62)
        assert np.array_equal(trace.drop_node, drop_node)
        assert np.array_equal(trace.delivered_index,
                              np.flatnonzero(drop_node == 0))
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_survivor_compaction_in_chunks(self, monkeypatch, chunk):
        # lossy links compact the survivors in place a chunk at a time;
        # chunks far shorter than the stream give the same chain
        s = poisson_stream(0.6, 3_000, np.random.default_rng(63))
        monkeypatch.setattr(bs, "_COMPACT_CHUNK", chunk)
        trace = run(s, BackhaulConfig(4, 0.2), 64)
        deliveries, drop_node = reference_chain(s.arrival_times, (1.0,) * 4,
                                                (0.2,) * 4, 64)
        assert np.array_equal(trace.drop_node, drop_node)
        assert np.array_equal(trace.delivered_index,
                              np.flatnonzero(drop_node == 0))
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)


class TestInputsUntouched:
    """``run`` and ``average_aoi`` work in buffers of their own: the
    stream's and the trace's arrays stay bit for bit as they were."""

    @staticmethod
    def arrays(obj):
        return {name: getattr(obj, name).tobytes()
                for name in ("arrival_times", "gen_times", "drop_node",
                             "delivered_index", "delivery_times")
                if hasattr(obj, name)}

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("shared", [True, False])
    def test_run_and_age_leave_inputs_alone(self, eps, shared):
        s = poisson_stream(0.7, 50_000, np.random.default_rng(71))
        if not shared:
            # a feed-like stream: generation precedes arrival
            s = ArrivalStream(s.arrival_times, s.arrival_times * 0.999)
        before = self.arrays(s)
        trace = run(s, BackhaulConfig(4, eps), 72)
        assert self.arrays(s) == before
        traced = self.arrays(trace)
        first = average_aoi(trace, warmup_fraction=0.05)
        assert self.arrays(trace) == traced
        assert average_aoi(trace, warmup_fraction=0.05) == first
        assert self.arrays(s) == before
        again = run(s, BackhaulConfig(4, eps), 72)
        assert self.arrays(again) == traced

    def test_stale_deliveries_leave_trace_alone(self):
        trace = manual_trace([0.0, 5.0, 2.0, 6.0], [10.0, 11.0, 12.0, 13.0])
        traced = self.arrays(trace)
        first = average_aoi(trace)
        assert self.arrays(trace) == traced
        assert average_aoi(trace) == first


class TestPeakMemory:
    """Guard on the chain's buffer reuse: the allocation peak of one
    4-hop cell, in float arrays of the cell's length (8 n bytes).

    Measured 7.00 arrays at eps 0 and 7.28 at eps 0.1: the stream, the
    drop and index vectors and four chain buffers, then the age
    integrator's copy and two buffers.  Fresh temporaries per operation
    read 10.85 and 9.43.
    """

    PEAK_ARRAYS = 7.5

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_cell_peak_in_arrays(self, eps):
        n = 200_000
        # one small cell first, so one-off set-up is not counted
        run_point("no-ra", 0.5, 4, eps, 0, 1, 1_000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_point("no-ra", 0.5, 4, eps, 0, 1, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n) <= self.PEAK_ARRAYS


class TestMeanSystemTime:
    def test_zero_deliveries_is_an_error(self):
        s = poisson_stream(0.5, 100, np.random.default_rng(19))
        trace = run(s, BackhaulConfig(1, 1.0), 20)
        with pytest.raises(ValueError):
            mean_system_time(trace)

    def test_losses_cut_delay_at_high_load(self):
        n = 400_000
        s = poisson_stream(0.9, n, np.random.default_rng(21))
        lossy = run(s, BackhaulConfig(4, 0.1), 22)
        clean = run(s, BackhaulConfig(4, 0.0), 22)
        assert mean_system_time(lossy) < mean_system_time(clean)


class TestAverageAoi:
    def test_toy_sawtooth_from_first_delivery(self):
        # deliveries (gen 0, t 1), (gen 2, t 3) and (gen 3, t 4): age 1 at
        # t=1 rising to 3, reset to 1 at t=3, rising to 2 at t=4, where the
        # window ends; area = 4 + 1.5 over a window of 3, peaks 3 and 2.
        trace = manual_trace([0.0, 2.0, 3.0], [1.0, 3.0, 4.0])
        s = average_aoi(trace)
        assert s.time_average_aoi == pytest.approx(5.5 / 3.0, rel=1e-12)
        assert s.peak_aoi_mean == pytest.approx(2.5)

    def test_stale_delivery_never_raises_age(self):
        # second delivery carries an older generation time: no reset
        fifo = manual_trace([0.0, 5.0], [10.0, 11.0])
        stale = manual_trace([0.0, 5.0, 2.0], [10.0, 11.0, 12.0])
        a = average_aoi(fifo)
        b = average_aoi(stale)
        assert b.time_average_aoi == pytest.approx(a.time_average_aoi)

    def test_single_queue_matches_exact_age(self):
        s = poisson_stream(0.5, 400_000, np.random.default_rng(23))
        trace = run(s, BackhaulConfig(1), 24)
        summary = average_aoi(trace)
        assert summary.time_average_aoi == pytest.approx(mm1_aoi_exact(0.5),
                                                         rel=0.03)

    def test_age_dominates_system_time(self):
        for rho, hops in ((0.3, 1), (0.5, 2), (0.8, 4)):
            s = poisson_stream(rho, 150_000, np.random.default_rng(25))
            trace = run(s, BackhaulConfig(hops), 26)
            summary = average_aoi(trace)
            assert summary.time_average_aoi > summary.mean_system_time

    def test_warmup_discard(self):
        s = poisson_stream(0.5, 200_000, np.random.default_rng(27))
        trace = run(s, BackhaulConfig(1), 28)
        full = average_aoi(trace)
        trimmed = average_aoi(trace, warmup_fraction=0.05)
        assert trimmed.time_average_aoi == pytest.approx(
            full.time_average_aoi, rel=0.02)

    def test_requires_two_deliveries(self):
        with pytest.raises(ValueError):
            average_aoi(manual_trace([0.0], [1.0]))


class TestSweep:
    def test_no_ra_point_reproduces_analytics(self):
        row = run_point("no-ra", 0.5, 2, 0.0, 0, 99, 200_000)
        assert row.mean_system_time == pytest.approx(
            mean_network_delay(2, 0.5, 1.0), rel=0.02)
        model = TandemModel(2, 0.5, 1.0)
        assert row.mean_aoi == pytest.approx(
            average_aoi_lossless(0.5, expected_ty(model)), rel=0.05)
        assert row.ra_success_prob is None

    def test_rows_cover_grid_sorted(self):
        rows = sweep((0.3, 0.6), (1, 2), (0.0,), ("no-ra",), 2, 5,
                     n_packets=5_000)
        assert len(rows) == 8
        keys = [(r.mode, r.rho, r.hops, r.link_erasure, r.replication)
                for r in rows]
        assert keys == sorted(keys)

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(rhos=(0.4, 0.7), hops_list=(2,), erasures=(0.0, 0.1),
                      modes=("no-ra", "ra-a10"), replications=2, master_seed=31,
                      n_packets=20_000, feed=FEED)
        serial = sweep(**kwargs, workers=1)
        parallel = sweep(**kwargs, workers=4)
        assert serial == parallel

    def test_ra_feed_modes(self):
        row1 = ra_point("ra-a1", 0.5, 2, 7, 20_000)
        row10 = ra_point("ra-a10", 0.5, 2, 7, 20_000)
        assert 0.85 <= row1.ra_success_prob <= 0.93     # about 1 - erasure
        assert row10.ra_success_prob > 0.95             # retries recover most
        # the congested ten-attempt feed adds rescaled handshake latency
        assert row10.mean_system_time > row1.mean_system_time
        assert row10.mean_aoi > row1.mean_aoi

    def test_a10_dominates_no_ra_at_low_load(self):
        base = run_point("no-ra", 0.1, 2, 0.0, 0, 7, 20_000)
        ra10 = ra_point("ra-a10", 0.1, 2, 7, 20_000)
        assert ra10.mean_aoi > 3 * base.mean_aoi
        assert ra10.mean_system_time > 3 * base.mean_system_time

    def test_no_ra_aoi_is_u_shaped(self):
        rhos = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        rows = sweep(rhos, (1,), (0.0,), ("no-ra",), 1, 41,
                     n_packets=150_000)
        aois = [r.mean_aoi for r in rows]
        k = aois.index(min(aois))
        assert 0 < k < len(aois) - 1
        assert all(b < a for a, b in zip(aois[:k], aois[1:k + 1]))
        assert all(b > a for a, b in zip(aois[k:], aois[k + 1:]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_point("two-step", 0.5, 2, 0.0, 0, 7, 1000)

    def test_ra_cell_needs_its_feed(self):
        with pytest.raises(ValueError, match="access feed"):
            run_point("ra-a1", 0.5, 2, 0.0, 0, 7, 1000)
        with pytest.raises(ValueError, match="access feed"):
            sweep((0.5,), (2,), (0.0,), ("ra-a1",), 1, 7, n_packets=1_000)


class TestFeedReuse:
    def test_one_access_run_per_mode_and_replication(self, monkeypatch):
        calls = []
        real = bs.ra_sim.run

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bs.ra_sim, "run", counting)
        rows = sweep((0.3, 0.6), (1, 2), (0.0,), ("ra-a1", "ra-a10"), 2, 11,
                     n_packets=2_000, feed=FEED)
        assert len(rows) == 16
        assert len(calls) == 4

    def test_loads_rescale_the_same_feed(self, monkeypatch):
        streams = []
        real = bs.run

        def capturing(stream, cfg, seed):
            streams.append(stream)
            return real(stream, cfg, seed)

        monkeypatch.setattr(bs, "run", capturing)
        rows = sweep((0.3, 0.7), (2,), (0.0,), ("ra-a10",), 1, 13,
                     n_packets=2_000, feed=FEED)
        lo, hi = streams
        assert np.allclose(lo.arrival_times * 0.3, hi.arrival_times * 0.7,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(lo.gen_times * 0.3, hi.gen_times * 0.7,
                           rtol=1e-12, atol=0.0)
        for stream, rho in ((lo, 0.3), (hi, 0.7)):
            assert len(stream) / stream.arrival_times[-1] == pytest.approx(
                rho, rel=1e-12)
        assert rows[0].ra_success_prob == rows[1].ra_success_prob

    def test_standalone_point_matches_sweep_row(self):
        rows = sweep((0.3, 0.6), (2,), (0.0,), ("ra-a1",), 1, 17,
                     n_packets=2_000, feed=FEED)
        assert ra_point("ra-a1", 0.6, 2, 17, 2_000) == rows[1]

    def test_feed_is_in_departure_order(self):
        access = bs.ra_departure_stream(("ra-a10", 0), 19, 2_000, FEED)
        assert len(access.departures_ms) == len(access.gen_times_ms) == 2_000
        assert (np.diff(access.departures_ms) >= 0).all()
        assert (access.gen_times_ms < access.departures_ms).all()

    def test_short_first_pass_gets_one_resized_pass(self, monkeypatch):
        calls = []
        real = bs.ra_sim.run

        def counting(*args, **kwargs):
            trace = real(*args, **kwargs)
            calls.append(trace.success_count)
            return trace

        monkeypatch.setattr(bs.ra_sim, "run", counting)
        # near the ten-attempt channel's capacity the 0.85 success guess
        # undersizes the horizon
        monkeypatch.setattr(bs.RaFeedSettings, "a10_rate_per_s", 350.0)
        access = bs.ra_departure_stream(("ra-a10", 0), 3, 1_000, FEED)
        assert len(access.departures_ms) == 1_000
        assert len(calls) == 2 and calls[0] < 1_000 <= calls[1]

    def test_feed_still_short_after_second_pass_raises(self, monkeypatch):
        calls = []
        real = bs.ra_sim.run

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bs.ra_sim, "run", counting)
        # an overloaded channel: departures do not grow with the horizon
        monkeypatch.setattr(bs.RaFeedSettings, "a10_rate_per_s", 600.0)
        with pytest.raises(RuntimeError, match="departures"):
            bs.ra_departure_stream(("ra-a10", 0), 3, 1_000, FEED)
        assert len(calls) == 2
        assert calls[1][3] <= bs.MAX_HORIZON_GROWTH * calls[0][3]

    @pytest.mark.parametrize("n, growth", [
        (2, 2 + 5 * math.sqrt(2)),     # n + 5 sqrt(n) over one departure
        (20, bs.MAX_HORIZON_GROWTH),   # 42.4, capped
    ])
    def test_first_pass_without_departures_is_resized(self, monkeypatch, n,
                                                      growth):
        horizons = []
        real = bs.ra_sim.run

        def idle_first(cfg, attempts, rate, horizon, seed):
            horizons.append(horizon)
            return real(cfg, attempts, 0.0 if len(horizons) == 1 else rate,
                        horizon, seed)

        monkeypatch.setattr(bs.ra_sim, "run", idle_first)
        access = bs.ra_departure_stream(("ra-a1", 0), 3, n, FEED)
        assert len(access.departures_ms) == n
        assert horizons[1] == pytest.approx(horizons[0] * growth, rel=1e-12)

    def test_sweep_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            sweep((0.5,), (2,), (0.0,), ("ra-a1", "two-step"), 1, 7,
                  n_packets=1_000)

