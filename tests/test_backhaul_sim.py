import contextlib
import faulthandler
import hashlib
import itertools
import math
import signal
import threading
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import _age_reference
from _chain_reference import node_generators, reference_chain
from leoiot import backhaul_sim as bs
from leoiot.backhaul_analytic import chain_metrics
from leoiot.backhaul_sim import (MODES, AoiSummary, BackhaulConfig,
                                 NetworkTrace, array_stream, average_aoi,
                                 poisson_stream, run, run_point, sweep)
from leoiot.scenario import load_config

FEED = bs.RaFeedSettings(load_config("backhauling").ground_ra)


def ra_point(mode, rho, hops, master_seed, n_packets):
    """A sweep cell of replication 0 with the feed that ``sweep`` builds."""
    access = bs.ra_departure_stream((mode, 0), master_seed, n_packets, FEED)
    return run_point(mode, rho, (hops,), (0.0,), 0, master_seed, n_packets,
                     access)[0]


def point(mode, rho, hops, eps, master_seed, n_packets):
    """The one sweep cell of replication 0 at ``hops`` hops."""
    return run_point(mode, rho, (hops,), (eps,), 0, master_seed,
                     n_packets)[0]


def arrays(stream):
    """A stream's arrival and generation times, from one read; a chunk is
    valid only until the next is read, so each is copied."""
    read = [(a.copy(), g.copy()) for a, g in stream.chunks()]
    return tuple(np.concatenate([chunk[i] for chunk in read] or [[]])
                 for i in (0, 1))


def sojourn(trace):
    """Mean generation-to-delivery time of a trace's delivered packets."""
    return np.mean(trace.delivery_times
                   - trace.gen_times[trace.delivered_index])


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
        s = poisson_stream(0.5, 100_000, 0)
        assert s.n == 100_000
        arrival_times, gen_times = arrays(s)
        rate = s.n / arrival_times[-1]
        assert rate == pytest.approx(0.5, rel=0.02)
        assert np.array_equal(arrival_times, gen_times)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            array_stream(np.array([1.0, 0.5]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            array_stream(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError):      # a seed, drawn afresh per read
            poisson_stream(0.5, 10, np.random.default_rng(0))


class TestStreamReader:
    """A stream is read a chunk at a time, the same values on every read,
    each chunk valid until the next is read."""

    @pytest.mark.parametrize("n", [0, 1, bs._CHUNK - 1, bs._CHUNK,
                                   bs._CHUNK + 1, 10 ** 5])
    def test_poisson_chunks_are_the_whole_draw(self, n):
        # the reader scales standard draws in place: bit for bit the
        # scaled draws, at every rate of the default grid
        for rate in (0.05, 0.2, 0.5, 0.7, 0.8, 0.95):
            s = poisson_stream(rate, n, 5)
            whole = np.cumsum(
                np.random.default_rng(5).exponential(1 / rate, n))
            arrival_times, gen_times = arrays(s)
            assert arrival_times.tobytes() == whole.tobytes(), rate
            assert gen_times.tobytes() == whole.tobytes(), rate
        again = arrays(s)
        assert all(a.tobytes() == whole.tobytes() for a in again)
        assert all(len(a) == bs._CHUNK for a, _ in list(s.chunks())[:-1])
        # fresh entropy is drawn once, so its reads agree too
        fresh = poisson_stream(0.7, n, None)
        assert [a.tobytes() for a in arrays(fresh)] == [
            a.tobytes() for a in arrays(fresh)]

    def test_rescaled_feed_is_the_scaled_feed(self):
        access = bs.ra_departure_stream(("ra-a10", 0), 9, 3 * bs._CHUNK + 7,
                                        FEED)
        s = bs.rescale_feed(access, 0.6)
        dep, gen = access.departures_ms, access.gen_times_ms
        scale = len(dep) / float(dep[-1]) / 0.6
        # each read is its slice of the feed times the scale, bit for bit,
        # in buffers apart from the feed, checked before the next is read
        reads = 0
        for lo, (a, g) in zip(itertools.count(0, bs._CHUNK), s.chunks()):
            part, reads = slice(lo, lo + bs._CHUNK), reads + 1
            assert a.tobytes() == (dep[part] * scale).tobytes()
            assert g.tobytes() == (gen[part] * scale).tobytes()
            assert not np.shares_memory(a, dep)
            assert not np.shares_memory(g, gen)
        assert reads == 4
        arrival_times, gen_times = arrays(s)
        assert arrival_times.tobytes() == (dep * scale).tobytes()
        assert gen_times.tobytes() == (gen * scale).tobytes()
        assert (gen_times < arrival_times).all()
        assert [a.tobytes() for a in arrays(s)] == [
            arrival_times.tobytes(), gen_times.tobytes()]

    def test_array_stream_reads_its_arrays(self):
        a = np.arange(3 * bs._CHUNK + 7, dtype=float)
        g = a - np.random.default_rng(3).uniform(0, 5, len(a))
        s = array_stream(a, g)
        assert s.gen_times is g
        assert all(np.array_equal(x, y) for x, y in zip(arrays(s), (a, g)))


class TestRun:
    def test_single_queue_sojourn(self):
        s = poisson_stream(0.5, 300_000, 1)
        trace = run(s, BackhaulConfig(1), 2)
        assert sojourn(trace) == pytest.approx(2.0, rel=0.02)

    def test_two_queue_sojourn(self):
        s = poisson_stream(0.5, 300_000, 3)
        trace = run(s, BackhaulConfig(2), 4)
        assert sojourn(trace) == pytest.approx(4.0, rel=0.02)

    def test_total_erasure_kills_all(self):
        s = poisson_stream(0.5, 1000, 5)
        trace = run(s, BackhaulConfig(1, 1.0), 6)
        assert trace.n_delivered == 0
        assert (trace.drop_node == 1).all()
        assert trace.drop_node.dtype == np.uint8

    def test_chain_of_no_hop_keeps_its_generation_times(self):
        # no node hands a chunk on, yet the trace keeps every update's time
        s = poisson_stream(0.5, bs._CHUNK + 100, 1)
        trace = run(s, BackhaulConfig(0), 2)
        assert trace.gen_times.tobytes() == arrays(s)[1].tobytes()
        assert trace.n_delivered == 0

    def test_empty_stream(self):
        s = array_stream(np.empty(0), np.empty(0))
        trace = run(s, BackhaulConfig(2), 0)
        assert trace.n_delivered == 0
        assert trace.n_offered == 0

    def test_fcfs_and_work_conservation(self):
        # service starts exactly when both packet and server are free:
        # the scan equals an event-driven FCFS chain on the same draws
        s = poisson_stream(0.7, 5_000, 7)
        trace = run(s, BackhaulConfig(3), 8)
        deliveries, drop_node = reference_chain(arrays(s)[0], (1.0,) * 3,
                                                (0.0,) * 3, 8)
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)
        assert (drop_node == 0).all() and (trace.drop_node == 0).all()

    def test_times_nondecreasing_along_path(self):
        s = poisson_stream(0.5, 20_000, 9)
        trace = run(s, BackhaulConfig(4, 0.05), 10)
        # FCFS keeps the order: no delivered packet overtakes another
        assert (np.diff(trace.delivered_index) > 0).all()
        assert (np.diff(trace.delivery_times) >= 0).all()
        # and each one spends positive time in the chain
        assert (trace.delivery_times
                > arrays(s)[0][trace.delivered_index]).all()

    def test_delivered_fraction_matches_survival(self):
        n = 200_000
        eps = 0.1
        hops = 4
        s = poisson_stream(0.5, n, 11)
        trace = run(s, BackhaulConfig(hops, eps), 12)
        p = (1 - eps) ** hops
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(trace.delivered_fraction - p) <= 3 * sigma

    def test_thinning_rates_per_node(self):
        n = 200_000
        s = poisson_stream(0.5, n, 13)
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
        s = poisson_stream(0.5, 10_000, 15)
        a = run(s, BackhaulConfig(2, 0.1), 16)
        b = run(s, BackhaulConfig(2, 0.1), 16)
        assert np.array_equal(a.delivery_times, b.delivery_times)
        assert np.array_equal(a.drop_node, b.drop_node)

    def test_single_packet_sees_pure_service(self):
        s = array_stream(np.array([1.0]), np.array([1.0]))
        trace = run(s, BackhaulConfig(3), 17)
        # the first service time of each node's own generator
        total_service = sum(float(node_generators(17, node)[0].exponential())
                            for node in range(3))
        assert trace.delivery_times[0] - 1.0 == pytest.approx(total_service)


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
        s = poisson_stream(0.6, n, 61)
        trace = run(s, BackhaulConfig(len(rates), erasures[0]), 62)
        deliveries, drop_node = reference_chain(arrays(s)[0], rates,
                                                erasures, 62)
        assert np.array_equal(trace.drop_node, drop_node)
        assert np.array_equal(trace.delivered_index,
                              np.flatnonzero(drop_node == 0))
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 3000])
    def test_survivor_compaction_in_chunks(self, monkeypatch, chunk):
        # the scan and the compaction of a lossy link's survivors go a
        # chunk at a time, with the draws on a second thread unless the
        # stream fits one chunk; chunks far shorter than the stream give
        # the same chain
        s = poisson_stream(0.6, 3_000, 63)
        monkeypatch.setattr(bs, "_CHUNK", chunk)
        trace = run(s, BackhaulConfig(4, 0.2), 64)
        deliveries, drop_node = reference_chain(arrays(s)[0], (1.0,) * 4,
                                                (0.2,) * 4, 64)
        assert np.array_equal(trace.drop_node, drop_node)
        assert np.array_equal(trace.delivered_index,
                              np.flatnonzero(drop_node == 0))
        np.testing.assert_allclose(trace.delivery_times, deliveries,
                                   rtol=1e-12, atol=0.0)


class TestPipelinedChain:
    """The chain goes a chunk of ``_CHUNK`` packets at a time; the draws of
    a stream longer than one chunk are made on a second thread, which
    ends before ``run`` returns, also when the draws or the scan fail."""

    # sha256 of drop_node (as int64), delivered_index and delivery_times
    # over the grid below, pinned when each node got generators of its
    # own; as the chain does not depend on the chunk size, it is also the
    # digest of a scan of each stream in one full-length chunk
    DIGEST = "67927013eea4f36c009ab2f00513505ffb09b0490f47b8bed9439f59c17a35bd"

    def test_traces_match_the_full_length_scan(self):
        digest = hashlib.sha256()
        chunk = bs._CHUNK
        for n in (0, 1, 2, 1000, chunk - 1, chunk, chunk + 1, 10 ** 5,
                  3 * 10 ** 5):
            s = poisson_stream(0.8, n, n)
            for hops in (1, 2, 4, 6):
                for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
                    trace = run(s, BackhaulConfig(hops, eps),
                                (n, hops, int(eps * 100)))
                    for a in (trace.drop_node.astype(np.int64),
                              trace.delivered_index, trace.delivery_times):
                        digest.update(a.tobytes())
        assert digest.hexdigest() == self.DIGEST

    @staticmethod
    def recorded_draws(monkeypatch, fail=None):
        """Swap in draws that record the thread making each one and, on
        ``fail``, break at the second: the draws raise, or hand the scan a
        chunk it fails on."""
        threads = []
        real = bs._draws

        class ScanFails:
            def __iter__(self):
                raise LookupError("the scan failed")

        def draws(*args):
            for i, item in enumerate(real(*args)):
                threads.append(threading.get_ident())
                if i == 1 and fail == "draws":
                    raise RuntimeError("the draws failed")
                yield ScanFails() if i == 1 and fail == "scan" else item

        monkeypatch.setattr(bs, "_draws", draws)
        return threads

    @pytest.mark.parametrize("n, threaded", [(64, False), (65, True),
                                             (1000, True)])
    def test_draws_leave_the_caller_past_one_chunk(self, monkeypatch, n,
                                                   threaded):
        s = poisson_stream(0.6, n, 65)
        expected = run(s, BackhaulConfig(3, 0.2), 66)
        monkeypatch.setattr(bs, "_CHUNK", 64)
        threads = self.recorded_draws(monkeypatch)
        before = threading.active_count()
        trace = run(s, BackhaulConfig(3, 0.2), 66)
        assert threading.active_count() == before
        assert threads and (threading.get_ident() not in threads) == threaded
        for name in ("drop_node", "delivered_index", "delivery_times"):
            assert np.array_equal(getattr(trace, name),
                                  getattr(expected, name))

    @pytest.mark.parametrize("fail, error", [("draws", RuntimeError),
                                             ("scan", LookupError)])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_no_thread_outlives_a_failed_run(self, monkeypatch, fail, error,
                                             n):
        monkeypatch.setattr(bs, "_CHUNK", 64)
        self.recorded_draws(monkeypatch, fail)
        s = poisson_stream(0.6, n, 67)
        before = threading.active_count()
        with pytest.raises(error, match=f"the {fail} failed"):
            run(s, BackhaulConfig(3, 0.2), 68)
        assert threading.active_count() == before

    def test_timer_signals_leave_the_run_alone(self):
        # a benchmark samples host speed from a SIGALRM handler while the
        # main thread waits on the draws
        s = poisson_stream(0.7, 10 * bs._CHUNK, 69)
        cfg = BackhaulConfig(6, 0.1)
        quiet = run(s, cfg, 70)
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
        faulthandler.dump_traceback_later(120, exit=True)
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        try:
            loud = run(s, cfg, 70)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            faulthandler.cancel_dump_traceback_later()
            signal.signal(signal.SIGALRM, previous)
        assert ticks
        for name in ("drop_node", "delivered_index", "delivery_times"):
            assert np.array_equal(getattr(loud, name), getattr(quiet, name))


class TestChunkMajorChain:
    """Each node draws from generators of its own, so the chain's output
    does not depend on the chunk size, and the n-hop chain is the first n
    nodes of a longer one with the same seed."""

    @pytest.mark.parametrize("hops", [1, 2, 4, 6])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_run_does_not_depend_on_the_chunk(self, monkeypatch, hops, eps):
        s = poisson_stream(0.8, 10_000, hops)
        traces = []
        for chunk in (64, 3000, 1 << 15):
            monkeypatch.setattr(bs, "_CHUNK", chunk)
            traces.append(run(s, BackhaulConfig(hops, eps), (hops, 7)))
        for name in ("drop_node", "delivered_index", "delivery_times"):
            first, *rest = (getattr(t, name) for t in traces)
            assert all(np.array_equal(first, other) for other in rest), name

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_n_hops_are_the_first_nodes_of_six(self, monkeypatch, eps):
        monkeypatch.setattr(bs, "_CHUNK", 1000)
        s = poisson_stream(0.7, 5_500, 77)
        nodes = {n: ([], []) for n in range(6)}

        def record(link, node, lo, gen, alive, times):
            nodes[node][0].append(alive + lo)
            nodes[node][1].append(times.copy())

        bs._chain(s, 6, [(eps, 78)], record, np.empty((2, 1001)))
        longest = run(s, BackhaulConfig(6, eps), 78)
        for hops in (1, 2, 4, 6):
            trace = run(s, BackhaulConfig(hops, eps), 78)
            index, times = (np.concatenate(a) for a in nodes[hops - 1])
            assert np.array_equal(trace.delivered_index, index)
            assert np.array_equal(trace.delivery_times, times)
            # a packet erased past node ``hops`` reaches this chain's end
            drop = np.where(longest.drop_node > hops, 0, longest.drop_node)
            assert np.array_equal(trace.drop_node, drop)

    @pytest.mark.parametrize("mode", ["no-ra", "ra-a10"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_one_pass_scores_every_hop_count(self, mode, eps):
        access = (bs.ra_departure_stream((mode, 0), 79, 3_000, FEED)
                  if mode != "no-ra" else None)
        rows = run_point(mode, 0.6, (1, 2, 4, 6), (eps,), 0, 79, 3_000,
                         access)
        assert [r.hops for r in rows] == [1, 2, 4, 6]
        for row in rows:
            alone, = run_point(mode, 0.6, (row.hops,), (eps,), 0, 79, 3_000,
                               access)
            assert row == alone

    @pytest.mark.parametrize("mode", ["no-ra", "ra-a1"])
    def test_one_read_serves_every_erasure(self, monkeypatch, mode):
        # three chunks and a few packets: the erasures' chains go through
        # each chunk in turn, each node on generators of its own; short
        # chunks keep the one-attempt feed small
        monkeypatch.setattr(bs, "_CHUNK", 1000)
        n, erasures, hops = 3 * bs._CHUNK + 7, (0.0, 0.01, 0.1), (1, 2, 4, 6)
        access = (bs.ra_departure_stream((mode, 0), 83, n, FEED)
                  if mode != "no-ra" else None)
        rows = run_point(mode, 0.6, hops, erasures, 0, 83, n, access)
        assert rows == [row for eps in erasures
                        for row in run_point(mode, 0.6, hops, (eps,), 0, 83,
                                             n, access)]
        assert [(r.link_erasure, r.hops) for r in rows] == [
            (eps, h) for eps in erasures for h in hops]

    def test_a_no_ra_cell_reads_its_stream_once(self, monkeypatch):
        # the warm-up cut comes from the stream's length, not from a read
        monkeypatch.setattr(bs, "_CHUNK", 1000)
        n, erasures, hops = 3 * bs._CHUNK + 7, (0.0, 0.1), (1, 2, 4, 6)
        reads = []

        def counted(rate, n_packets, seed):
            s = poisson_stream(rate, n_packets, seed)

            def chunks():
                reads.append(1)
                return s.chunks()

            return bs.ArrivalStream(s.n, chunks)

        with monkeypatch.context() as m:
            m.setattr(bs, "poisson_stream", counted)
            rows = run_point("no-ra", 0.6, hops, erasures, 0, 85, n)
        assert len(reads) == 1
        assert rows == run_point("no-ra", 0.6, hops, erasures, 0, 85, n)


class TestInputsUntouched:
    """``run`` and ``average_aoi`` work in buffers of their own: the
    stream's and the trace's arrays stay bit for bit as they were."""

    @staticmethod
    def arrays(obj):
        if not hasattr(obj, "drop_node"):
            return [a.tobytes() for a in arrays(obj)]
        return {name: getattr(obj, name).tobytes()
                for name in ("gen_times", "drop_node", "delivered_index",
                             "delivery_times")}

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("shared", [True, False])
    def test_run_and_age_leave_inputs_alone(self, eps, shared):
        times, _ = arrays(poisson_stream(0.7, 50_000, 71))
        # a feed-like stream: generation precedes arrival
        s = array_stream(times, times if shared else times * 0.999)
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
    """Guard on the chain's and the age integrator's buffers.

    A sweep cell reads its stream a chunk at a time, so it holds one set
    of chunk buffers, whatever its length: the reader fills one buffer in
    place, and the age integrators borrow the chain's scan buffers.  A
    4-hop ``run_point`` over erasures 0, 0.01 and 0.1 peaked at 3.02 MB
    traced both at 2^17 and at 2^20 packets.  Counted in float arrays of
    the cell's length (8 n bytes), a one-erasure cell of 200,000 packets
    read 1.35 at eps 0 and 1.84 at eps 0.1, and one of 10^6 packets given
    its stream read 0.24 and 0.34 above it.  ``run`` keeps the trace,
    2.125 arrays beside the generation times a stream holds: at 400,000
    packets it read 2.71 at eps 0 and 2.96 at eps 0.1.  Each bound is its
    case's reading plus at most 10%.
    """

    CELL_PEAK_MB = 3.32
    PEAK_ARRAYS = {0.0: 1.48, 0.1: 2.02}
    ABOVE_STREAM_ARRAYS = {0.0: 0.26, 0.1: 0.36}
    CHAIN_ARRAYS = {0.0: 2.75, 0.1: 3.1}

    @staticmethod
    def peak_bytes(call):
        call()      # once first, so one-off set-up is not counted
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_cell_peak_does_not_grow_with_its_length(self):
        short, long = (self.peak_bytes(
            lambda: run_point("no-ra", 0.5, (4,), (0.0, 0.01, 0.1), 0, 1, n))
            for n in (1 << 17, 1 << 20))
        assert max(short, long) <= 1.1 * min(short, long)
        assert max(short, long) <= self.CELL_PEAK_MB * 1e6

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_cell_peak_in_arrays(self, eps):
        n = 200_000
        assert self.peak_bytes(
            lambda: run_point("no-ra", 0.5, (4,), (eps,), 0, 1, n)) \
            <= self.PEAK_ARRAYS[eps] * 8 * n

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_cell_holds_its_stream_and_chunk_buffers(self, monkeypatch, eps):
        n = 10 ** 6
        times, _ = arrays(poisson_stream(0.5, n, 73))
        s = array_stream(times, times)
        monkeypatch.setattr(bs, "poisson_stream", lambda *_: s)
        assert self.peak_bytes(
            lambda: run_point("no-ra", 0.5, (4,), (eps,), 0, 1, n)) \
            <= self.ABOVE_STREAM_ARRAYS[eps] * 8 * n

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_chain_peak_in_arrays(self, eps):
        n = 400_000
        times, _ = arrays(poisson_stream(0.5, n, 73))
        s = array_stream(times, times)
        assert self.peak_bytes(lambda: run(s, BackhaulConfig(4, eps), 74)) \
            <= self.CHAIN_ARRAYS[eps] * 8 * n

    def test_stream_check_holds_no_array_of_its_length(self):
        n = 10 ** 6
        times, _ = arrays(poisson_stream(0.5, n, 75))
        assert self.peak_bytes(
            lambda: array_stream(times, times)) < 0.05 * 8 * n


class TestMeanSystemTime:
    def test_zero_deliveries_is_an_error(self):
        with pytest.raises(bs.ShortCellError, match="at least two deliveries"):
            point("no-ra", 0.5, 1, 1.0, 19, 100)

    def test_losses_cut_delay_at_high_load(self):
        # thinned downstream nodes run lighter: about 21.9 against 40
        lossy = point("no-ra", 0.9, 4, 0.1, 21, 400_000)
        clean = point("no-ra", 0.9, 4, 0.0, 21, 400_000)
        assert lossy.n_delivered < clean.n_delivered == 400_000
        assert lossy.mean_system_time < clean.mean_system_time


class TestAverageAoi:
    def test_toy_sawtooth_from_first_delivery(self):
        # deliveries (gen 0, t 1), (gen 2, t 3) and (gen 3, t 4): age 1 at
        # t=1 rising to 3, reset to 1 at t=3, rising to 2 at t=4, where the
        # window ends; area = 4 + 1.5 over a window of 3, peaks 3 and 2.
        trace = manual_trace([0.0, 2.0, 3.0], [1.0, 3.0, 4.0])
        s = average_aoi(trace)
        assert s.mean_aoi == pytest.approx(5.5 / 3.0, rel=1e-12)
        assert s.peak_aoi_mean == pytest.approx(2.5)

    def test_stale_delivery_never_raises_age(self):
        # second delivery carries an older generation time: no reset
        fifo = manual_trace([0.0, 5.0], [10.0, 11.0])
        stale = manual_trace([0.0, 5.0, 2.0], [10.0, 11.0, 12.0])
        a = average_aoi(fifo)
        b = average_aoi(stale)
        assert b.mean_aoi == pytest.approx(a.mean_aoi)

    def test_single_queue_matches_exact_age(self):
        s = poisson_stream(0.5, 400_000, 23)
        trace = run(s, BackhaulConfig(1), 24)
        summary = average_aoi(trace)
        assert summary.mean_aoi == pytest.approx(mm1_aoi_exact(0.5), rel=0.03)

    def test_age_dominates_system_time(self):
        for rho, hops in ((0.3, 1), (0.5, 2), (0.8, 4)):
            s = poisson_stream(rho, 150_000, 25)
            trace = run(s, BackhaulConfig(hops), 26)
            summary = average_aoi(trace)
            assert summary.mean_aoi > summary.mean_system_time

    def test_warmup_discard(self):
        s = poisson_stream(0.5, 200_000, 27)
        trace = run(s, BackhaulConfig(1), 28)
        full = average_aoi(trace)
        trimmed = average_aoi(trace, warmup_fraction=0.05)
        assert trimmed.mean_aoi == pytest.approx(full.mean_aoi, rel=0.02)

    def test_requires_two_deliveries(self):
        with pytest.raises(ValueError):
            average_aoi(manual_trace([0.0], [1.0]))

    def test_delay_average_leaves_out_the_warm_up(self):
        # the first ceil(0.05 n) = 10 of 200 updates take 100 to cross,
        # the rest 1, and every other one of those is erased
        n, first = 200, 10
        i = np.arange(n)
        drop = (i >= first) & (i % 2 == 1)
        index = np.flatnonzero(~drop)
        gen = 200.0 * i
        deliv = gen[index] + np.where(index < first, 100.0, 1.0)
        trace = NetworkTrace(BackhaulConfig(1), gen, drop.astype(np.uint8),
                             index, deliv)
        assert math.ceil(0.05 * n) == first and trace.n_delivered == 105
        summary = average_aoi(trace, warmup_fraction=0.05)
        assert summary.mean_system_time == 1.0
        assert summary.delivered_fraction == 105 / 200
        assert average_aoi(trace).mean_system_time > 1.0


class TestAgeReference:
    """The chunked ``average_aoi`` against the full-length integrator of
    ``_age_reference``, in chunks of 64 deliveries so that every case
    crosses chunk boundaries."""

    CHUNK = 64

    @staticmethod
    def check(trace, warmup_fraction):
        try:
            expected = _age_reference.average_aoi(trace, warmup_fraction)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                average_aoi(trace, warmup_fraction)
            return
        got = average_aoi(trace, warmup_fraction)
        for name in (f.name for f in fields(AoiSummary)):
            assert getattr(got, name) == pytest.approx(
                getattr(expected, name), rel=1e-12), name

    @staticmethod
    def steps(n, stale=()):
        """Deliveries at times 1..n, each between 0.1 and 0.9 after its
        generation and the first and last 0.5 after, so that the
        generation times span n - 1 from 0.5; those in ``stale`` carry the
        first update's generation time instead, which is no newer than any
        delivered before them."""
        deliv = np.arange(1.0, n + 1)
        gen = deliv - np.random.default_rng(n).uniform(0.1, 0.9, size=n)
        gen[[0, -1]] = 0.5, n - 0.5
        gen[list(stale)] = 0.5
        return manual_trace(gen, deliv)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(bs, "_CHUNK", self.CHUNK)

    @pytest.mark.parametrize("warmup", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 1000])
    @pytest.mark.parametrize("feed_like", [False, True])
    def test_chain_cells(self, n, warmup, feed_like):
        s = poisson_stream(0.7, n, n)
        if feed_like:
            # generation times jittered out of arrival order
            jitter = np.random.default_rng(n + 1).exponential(2.0, size=n)
            s = array_stream(arrays(s)[0], arrays(s)[0] - jitter)
        trace = run(s, BackhaulConfig(2), 75)
        assert trace.n_delivered == n
        self.check(trace, warmup)

    def test_cut_on_a_chunk_boundary(self):
        # the 5% cut of 1,280 updates is update 64: the window opens at
        # delivery 64, the first of the second chunk
        assert math.ceil(0.05 * 1280) == self.CHUNK
        self.check(self.steps(1280), 0.05)

    @pytest.mark.parametrize("warmup", [0.0, 0.3175])
    def test_stale_first_in_a_chunk(self, warmup):
        # with the cut on delivery 64 too, the window opens at delivery 66
        assert math.ceil(0.3175 * 201) == self.CHUNK
        self.check(self.steps(201, stale=(64, 65)), warmup)
        self.check(self.steps(201, stale=(128,)), warmup)

    @pytest.mark.parametrize("warmup", [0.0, 0.05, 0.5])
    def test_window_ends_at_the_last_fresh_delivery(self, warmup):
        self.check(self.steps(200, stale=(199,)), warmup)
        self.check(self.steps(200, stale=range(150, 200)), warmup)

    @pytest.mark.parametrize("warmup", [0.05, 0.5])
    def test_newest_update_before_the_last_chunk(self, warmup):
        # every delivery after 160 is stale, so the window, which opens
        # before it, ends more than a chunk before the last delivery
        assert math.ceil(warmup * 300) < 160
        self.check(self.steps(300, stale=range(161, 300)), warmup)

    def test_access_feed_cell(self):
        access = bs.ra_departure_stream(("ra-a10", 0), 7, 3000, FEED)
        trace = run(bs.rescale_feed(access, 0.5), BackhaulConfig(2), 76)
        gen = trace.gen_times[trace.delivered_index]
        assert (np.diff(gen) < 0).any()
        for warmup in (0.0, 0.05):
            self.check(trace, warmup)

    @pytest.mark.parametrize("trace, warmup", [
        (manual_trace([0.0], [1.0]), 0.0),              # one delivery
        (manual_trace([], []), 0.0),                    # none
        (manual_trace([0.0, 1.0], [1.0, 2.0]), 1.0),    # warm-up takes all
        (manual_trace([5.0] + [1.0] * 99, np.arange(1.0, 101)), 0.05),
        (manual_trace([5.0] + [1.0] * 99, np.arange(1.0, 101)), 0.0),
        (manual_trace([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]), 0.0),
    ])
    def test_errors(self, trace, warmup):
        with pytest.raises(ValueError):
            _age_reference.average_aoi(trace, warmup)
        self.check(trace, warmup)


class TestAgeInPass:
    """The age a sweep integrates inside the chain pass equals
    ``average_aoi`` on the trace that ``run`` collects from the same
    chain, and both equal the full-length ``_age_reference``."""

    def check(self, monkeypatch, mode, stream, access, eps,
              hops=(1, 2, 4, 6)):
        # a no-ra cell reads ``stream``; an ra cell rescales ``access`` to it
        monkeypatch.setattr(bs, "poisson_stream", lambda *_: stream)
        rows = run_point(mode, 0.6, hops, (eps,), 0, 81, stream.n, access)
        for row in rows:
            trace = run(stream, BackhaulConfig(row.hops, eps),
                        bs._net_seed(81, mode, 0.6, eps, 0))
            assert row.n_delivered == trace.n_delivered
            summaries = (average_aoi(trace, bs.WARMUP_FRACTION),
                         _age_reference.average_aoi(trace, bs.WARMUP_FRACTION))
            for name in (f.name for f in fields(AoiSummary)):
                for summary in summaries:
                    assert getattr(row, name) == pytest.approx(
                        getattr(summary, name), rel=1e-12), name

    @pytest.mark.parametrize("chunk", [64, 1 << 15])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_stale_deliveries_of_a_congested_feed(self, monkeypatch, chunk,
                                                  eps):
        monkeypatch.setattr(bs, "_CHUNK", chunk)
        access = bs.ra_departure_stream(("ra-a10", 0), 81, 3_000, FEED)
        stream = bs.rescale_feed(access, 0.6)
        assert (np.diff(arrays(stream)[1]) < 0).any()
        self.check(monkeypatch, "ra-a10", stream, access, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_cut_on_a_chunk_boundary(self, monkeypatch, eps):
        # 1,280 updates: the 5% cut is update 64, the first of the second
        # chunk, and the window opens on it
        monkeypatch.setattr(bs, "_CHUNK", 64)
        times = np.arange(1280.0)
        assert math.ceil(bs.WARMUP_FRACTION * len(times)) == 64
        self.check(monkeypatch, "no-ra", array_stream(times, times), None,
                   eps)

    def test_poisson_cells(self, monkeypatch):
        s = poisson_stream(0.6, 50_000, 82)
        self.check(monkeypatch, "no-ra", s, None, 0.1)


class TestSweep:
    def test_no_ra_point_reproduces_analytics(self):
        row = point("no-ra", 0.5, 2, 0.0, 99, 200_000)
        delay, aoi = chain_metrics(2, 0.5, 0.0)
        assert row.mean_system_time == pytest.approx(delay, rel=0.02)
        assert row.mean_aoi == pytest.approx(aoi, rel=0.05)
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

    def test_one_pool_runs_feeds_and_cells(self, monkeypatch):
        pools = []

        class Counting(bs.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bs, "ProcessPoolExecutor", Counting)
        monkeypatch.setattr("os.cpu_count", lambda: 2)   # a pool on any host
        kwargs = dict(rhos=(0.3, 0.6), hops_list=(1, 2), erasures=(0.0,),
                      modes=("ra-a1", "ra-a10"), replications=1,
                      master_seed=13, n_packets=2_000, feed=FEED)
        parallel = sweep(**kwargs, workers=2)
        assert len(pools) == 1
        assert parallel == sweep(**kwargs, workers=1)
        assert len(pools) == 1

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus, pools):
        # the stand-in records the pool's size and maps in process, so no
        # worker process starts however many the sweep asks for
        opened = []

        def in_process(max_workers, mp_context):
            opened.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=map))

        monkeypatch.setattr(bs, "ProcessPoolExecutor", in_process)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        # 2 loads x 2 modes x 2 replications = 8 tasks, more than 3 CPUs
        kwargs = dict(rhos=(0.3, 0.6), hops_list=(1,), erasures=(0.0,),
                      modes=("no-ra", "ra-a1"), replications=2,
                      master_seed=17, n_packets=2_000, feed=FEED)
        rows = sweep(**kwargs, workers=10**6)
        assert opened == pools
        assert rows == sweep(**kwargs, workers=1)
        assert opened == pools          # one worker opens no pool

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_grid_gives_no_rows(self, workers):
        assert sweep((), (1, 2), (0.0,), MODES, 1, 5, n_packets=2_000,
                     feed=FEED, workers=workers) == []

    def test_ra_feed_modes(self):
        row1 = ra_point("ra-a1", 0.5, 2, 7, 20_000)
        row10 = ra_point("ra-a10", 0.5, 2, 7, 20_000)
        assert 0.85 <= row1.ra_success_prob <= 0.93     # about 1 - erasure
        assert row10.ra_success_prob > 0.95             # retries recover most
        # the congested ten-attempt feed adds rescaled handshake latency
        assert row10.mean_system_time > row1.mean_system_time
        assert row10.mean_aoi > row1.mean_aoi

    def test_a10_dominates_no_ra_at_low_load(self):
        base = point("no-ra", 0.1, 2, 0.0, 7, 20_000)
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

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_delay_rises_with_hops_on_every_sample_path(self, seed):
        # every hop count takes the same draws, so at eps 0 each packet
        # only gains service time from one hop count to the next
        rows = sweep((0.2, 0.4, 0.6), (1, 2, 4, 6), (0.0,), MODES, 1, seed,
                     n_packets=2_000, feed=FEED)
        for mode in MODES:
            for rho in (0.2, 0.4, 0.6):
                delays = [r.mean_system_time for r in rows
                          if (r.mode, r.rho) == (mode, rho)]
                assert len(delays) == 4
                assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'two-step'"):
            point("two-step", 0.5, 2, 0.0, 7, 1000)
        # also with a feed, before the cell reads it
        access = bs.AccessFeed(np.arange(1.0, 101.0), np.arange(100.0), 1.0)
        with pytest.raises(ValueError, match="unknown mode 'two-step'"):
            run_point("two-step", 0.5, (2,), (0.0,), 0, 7, 100, access)

    def test_ra_cell_needs_its_feed(self):
        with pytest.raises(ValueError, match="access feed"):
            point("ra-a1", 0.5, 2, 0.0, 7, 1000)
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
        real = bs.rescale_feed

        def capturing(access, rho):
            streams.append(arrays(real(access, rho)))
            return real(access, rho)

        monkeypatch.setattr(bs, "rescale_feed", capturing)
        rows = sweep((0.3, 0.7), (2,), (0.0,), ("ra-a10",), 1, 13,
                     n_packets=2_000, feed=FEED)
        lo, hi = streams
        for a, b in zip(lo, hi):
            assert np.allclose(a * 0.3, b * 0.7, rtol=1e-12, atol=0.0)
        for (arrival_times, _), rho in ((lo, 0.3), (hi, 0.7)):
            assert len(arrival_times) / arrival_times[-1] == pytest.approx(
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

    def test_retried_feed_holds_one_trace_at_a_time(self, monkeypatch):
        horizons = []
        real = bs.ra_sim.run

        def recording(*args):
            horizons.append(args[3])
            return real(*args)

        monkeypatch.setattr(bs.ra_sim, "run", recording)
        # a guess 1.5 times the true success undersizes the first horizon,
        # whose trace holds about 70% of the retried one's updates: holding
        # both traced at 1.45 times one run's peak, one at a time at 1.00
        true = bs.single_attempt_success
        monkeypatch.setattr(bs, "single_attempt_success",
                            lambda cfg, rate: 1.5 * true(cfg, rate))
        peak_bytes = TestPeakMemory.peak_bytes
        feed = peak_bytes(
            lambda: bs.ra_departure_stream(("ra-a1", 0), 3, 1_000, FEED))
        assert len(horizons) == 4 and horizons[1] > horizons[0]
        seed = bs._access_seed(3, "ra-a1", 0)
        one = peak_bytes(lambda: real(FEED.config, 1, FEED.a1_rate_per_s,
                                      horizons[1], seed))
        assert feed <= 1.15 * one

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

