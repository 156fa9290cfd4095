import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from _gamma_reference import upper_regularized_gamma
from leoiot import backhaul_sim, experiments
from leoiot.backhaul_analytic import (InstabilityError, _poisson_tails,
                                      chain_metrics, expected_wy,
                                      mean_delivered_delay)


def mm1_aoi_exact(rho: float, mu: float = 1.0) -> float:
    """Classic FCFS single-queue age formula, the independent oracle."""
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho ** 2 / (1.0 - rho))


def _lindley_pass(arr, s):
    x = np.empty(len(arr))
    x[0] = 0.0
    x[1:] = s[:-1] - np.diff(arr)
    v = np.cumsum(x)
    return arr + (v - np.minimum.accumulate(v)) + s


def simulate_tandem_lossless(n, hops, lam, mu, seed):
    """Vectorized clean-chain oracle, independent of the package simulator.

    Returns (interarrivals, per-packet system times, per-node services).
    """
    rng = np.random.default_rng(seed)
    y = rng.exponential(1.0 / lam, size=n)
    gen = np.cumsum(y)
    arr = gen
    services = []
    for _ in range(hops):
        s = rng.exponential(1.0 / mu, size=n)
        services.append(s)
        arr = _lindley_pass(arr, s)
    return y, arr - gen, services


def simulate_tandem_lossy(n, hops, lam, mu, eps, seed):
    """Lossy-chain oracle: an erased packet stops loading downstream
    queues.  Returns (gen of delivered, delivery times), delivery-ordered."""
    rng = np.random.default_rng(seed)
    gen = np.cumsum(rng.exponential(1.0 / lam, size=n))
    alive = np.arange(n)
    arr = gen.copy()
    for _ in range(hops):
        s = rng.exponential(1.0 / mu, size=len(arr))
        dep = _lindley_pass(arr, s)
        keep = rng.random(len(arr)) >= eps
        alive = alive[keep]
        arr = dep[keep]
    return gen[alive], arr


def assert_tails_match_reference(n, x):
    q_n, q_n1 = _poisson_tails(n, x)
    assert q_n == pytest.approx(upper_regularized_gamma(n, x), rel=1e-10)
    assert q_n1 == pytest.approx(upper_regularized_gamma(n + 1, x), rel=1e-10)


class TestGammaReference:
    """The Poisson-tail sums against the series / continued-fraction
    reference, at Q(n, x) and Q(n + 1, x)."""

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 10.0])
    def test_production_gamma_matches_reference(self, s, x):
        assert_tails_match_reference(s, x)

    @pytest.mark.parametrize("n, x", [(n, n - 1.0) for n in range(1, 9)] + [
        (n, x) for n in (60, 1000) for x in (0.0, 0.1, 1.0, 10.0, n - 1.0)])
    def test_large_orders_and_the_mean_point(self, n, x):
        # x = n - 1 is the mu * s argument of every lossless chain
        assert_tails_match_reference(n, x)

    def test_keeps_no_list_of_terms(self):
        # a list of the n terms would hold 8 n bytes and n float objects
        tracemalloc.start()
        try:
            _poisson_tails(200_000, 199_999.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000


def network_delay(hops: int, rho: float) -> float:
    """The lossless chain's mean delay, as ``chain_metrics`` ships it."""
    return chain_metrics(hops, rho, 0.0)[0]


class TestMeanNetworkDelay:
    """The lossless law N/(mu - lam), the eps = 0 case of the delay form."""

    def test_substitutions(self):
        assert network_delay(2, 0.5) == pytest.approx(4.0)
        assert network_delay(6, 0.9) == pytest.approx(60.0)

    def test_light_load_is_pure_service(self):
        assert network_delay(1, 1e-9) == pytest.approx(1.0, rel=1e-6)

    def test_instability(self):
        with pytest.raises(InstabilityError):
            chain_metrics(2, 1.0, 0.0)
        with pytest.raises(InstabilityError):
            chain_metrics(2, 1.5, 0.0)

    def test_increasing_in_load_linear_in_hops(self):
        delays = [network_delay(2, lam) for lam in np.linspace(0.05, 0.95, 19)]
        assert all(b > a for a, b in zip(delays, delays[1:]))
        for lam in (0.2, 0.5, 0.8):
            base = network_delay(1, lam)
            for hops in (2, 4, 6):
                assert network_delay(hops, lam) == pytest.approx(
                    hops * base, rel=1e-12)


class TestMeanDeliveredDelay:
    def test_lossless_reduces_to_network_delay(self):
        for hops in (1, 2, 4):
            assert mean_delivered_delay(hops, 0.6, 0.0) == pytest.approx(
                hops / (1.0 - 0.6), rel=1e-12)

    def test_thinned_node_sum(self):
        expected = (1 / (1 - 0.5) + 1 / (1 - 0.45) + 1 / (1 - 0.405))
        assert mean_delivered_delay(3, 0.5, 0.1) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_matches_simulated_delivered_mean(self):
        n = 400_000
        gen_d, out_d = simulate_tandem_lossy(n, 4, 0.9, 1.0, 0.1, 29)
        skip = len(gen_d) // 10
        sim = float(np.mean((out_d - gen_d)[skip:]))
        assert mean_delivered_delay(4, 0.9, 0.1) == pytest.approx(sim,
                                                                  rel=0.03)

    def test_exact_at_every_erasure(self):
        # the thinned-rate sum is exact, and so is the peak age 1/(rho p)
        # plus it, p the delivered share: 16 replications of 5 * 10^5
        # packets through the sweep's path agree within 4 standard errors,
        # and one call per replication scores the 2- and 6-hop cells of one
        # chain
        cells = {}
        for rep in range(16):
            for rho, hops, eps in ((0.5, (4,), 0.1), (0.8, (2, 6), 0.3)):
                for row in backhaul_sim.run_point("no-ra", rho, hops, (eps,),
                                                  rep, 11, 500_000):
                    cells.setdefault((row.hops, rho, eps), []).append(
                        (row.mean_system_time, row.peak_aoi_mean))
        assert sorted(cells) == [(2, 0.8, 0.3), (4, 0.5, 0.1), (6, 0.8, 0.3)]
        for (hops, rho, eps), means in cells.items():
            delay = mean_delivered_delay(hops, rho, eps)
            exact = (delay, 1.0 / (rho * (1.0 - eps) ** hops) + delay)
            stderr = np.std(means, axis=0, ddof=1) / math.sqrt(len(means))
            z = (np.mean(means, axis=0) - exact) / stderr
            assert (abs(z) < 4.0).all(), (hops, rho, eps, z)


class TestExpectedWY:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_single_hop_reproduces_exact_age(self, rho):
        # the known single-queue age closed form pins E[WY] exactly:
        # E[WY] = age/lam - 1/lam^2 - 1/(mu lam)
        lam = rho
        exact = mm1_aoi_exact(rho) / lam - 1.0 / lam ** 2 - 1.0 / lam
        assert expected_wy(1, lam, 1.0) == pytest.approx(exact, rel=1e-10)

    def test_single_hop_monte_carlo(self):
        y, t_sys, services = simulate_tandem_lossless(2_000_000, 1, 0.5,
                                                      1.0, 7)
        w = np.maximum(t_sys[:-1] - y[1:], 0.0)
        mc = float(np.mean(w[200_000:] * y[1:][200_000:]))
        assert expected_wy(1, 0.5, 1.0) == pytest.approx(mc, rel=0.03)

    def test_four_hop_monte_carlo(self):
        n = 2_000_000
        y, t_sys, services = simulate_tandem_lossless(n, 4, 0.7, 1.0, 7)
        s_excl = sum(services[:-1])
        w = np.maximum(t_sys[:-1] - y[1:] - s_excl[1:], 0.0)
        mc = float(np.mean(w[n // 10:] * y[1:][n // 10:]))
        assert expected_wy(4, 0.7, 1.0) == pytest.approx(mc, rel=0.05)

    def test_vanishes_at_light_load(self):
        assert expected_wy(1, 1e-4, 1.0) == pytest.approx(0.0, abs=1e-3)
        assert expected_wy(3, 1e-3, 1.0) < 0.01

    def test_large_chain_stays_finite(self):
        value = expected_wy(60, 0.5, 1.0)
        assert math.isfinite(value)
        assert value > 0

    def test_model_validation(self):
        # chain_metrics checks the grid cell before any form is evaluated
        with pytest.raises(InstabilityError):
            chain_metrics(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            chain_metrics(0, 0.5, 0.0)
        with pytest.raises(ValueError):
            chain_metrics(2, 0.5, -0.1)


def expected_ty(n: int, lam: float) -> float:
    """E[TY] = E[WY] + sum of mean service times x mean interarrival time,
    for ``n`` unit-rate nodes."""
    return expected_wy(n, lam, 1.0) + n / lam


class TestExpectedTY:
    def test_light_load_limit(self):
        lam = 1e-3
        assert expected_ty(1, lam) == pytest.approx(1.0 / lam, rel=1e-2)

    def test_monte_carlo_cross_check(self):
        n = 1_500_000
        y, t_sys, _ = simulate_tandem_lossless(n, 2, 0.6, 1.0, 17)
        mc = float(np.mean(t_sys[n // 10:] * y[n // 10:]))
        assert expected_ty(2, 0.6) == pytest.approx(mc, rel=0.05)


def lossless_aoi(hops: int, rho: float) -> float:
    """The lossless chain's average age, as ``chain_metrics`` ships it."""
    return chain_metrics(hops, rho, 0.0)[1]


class TestAverageAoiLossless:
    """Kaul, Yates and Gruteser's lam (E[TY] + 1/lam^2), the eps = 0 case of
    the age form."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_single_hop_matches_exact_form(self, rho):
        assert lossless_aoi(1, rho) == pytest.approx(mm1_aoi_exact(rho),
                                                     rel=1e-10)

    def test_low_load_asymptote(self):
        assert lossless_aoi(1, 1e-3) == pytest.approx(1e3, rel=0.01)

    def test_high_load_divergence(self):
        a95, a999 = lossless_aoi(1, 0.95), lossless_aoi(1, 0.999)
        assert a999 > a95 > mm1_aoi_exact(0.5)


def lossy_aoi(hops: int, rho: float, eps: float) -> float:
    """The lossy chain's renewal age, as ``chain_metrics`` ships it."""
    return chain_metrics(hops, rho, eps)[1]


class TestAverageAoiWithErrors:
    def test_reduces_to_lossless(self):
        # E[TY] = E[WY] + N/lam of the lossless chain, in lam (E[TY] + 1/lam^2)
        lossless = 0.5 * (expected_ty(2, 0.5) + 1.0 / 0.5 ** 2)
        assert lossy_aoi(2, 0.5, 0.0) == pytest.approx(lossless, rel=1e-12)

    def test_continuity_in_erasure(self):
        base = lossy_aoi(2, 0.5, 0.0)
        nearby = lossy_aoi(2, 0.5, 1e-9)
        assert nearby == pytest.approx(base, rel=1e-6)

    def test_matches_simulation(self):
        # trace-level oracle at the two-hop reference point
        n = 1_500_000
        eps = 0.1
        gen_d, out_d = simulate_tandem_lossy(n, 2, 0.5, 1.0, eps, 23)
        ages = out_d - gen_d
        gaps = np.diff(out_d)
        area = float(np.sum(ages[:-1] * gaps + 0.5 * gaps ** 2))
        sim = area / float(out_d[-1] - out_d[0])
        assert lossy_aoi(2, 0.5, eps) == pytest.approx(sim, rel=0.05)

    def test_losses_help_at_high_load(self):
        for hops in (2, 4):
            assert lossy_aoi(hops, 0.9, 0.1) < lossy_aoi(hops, 0.9, 0.0)

    def test_losses_hurt_at_low_load(self):
        for hops in (2, 4):
            assert lossy_aoi(hops, 0.1, 0.0) <= lossy_aoi(hops, 0.1, 0.1)

    def test_total_loss_rejected(self):
        with pytest.raises(ValueError):
            chain_metrics(1, 0.5, 1.0)


# repr of chain_metrics where Q(N, x) came from scipy.special.gammaincc
# (scipy 1.17.1), the evaluation the Poisson-tail sums replaced
CHAIN_METRICS = {
    (1, 0.05, 0.0): (1.0526315789473684, 21.002631578947362),
    (1, 0.05, 0.01): (1.0526315789473684, 21.205151780967565),
    (1, 0.05, 0.1): (1.0526315789473684, 23.229853801169583),
    (1, 0.5, 0.0): (2.0, 3.5),
    (1, 0.5, 0.01): (2.0, 3.5252020202020202),
    (1, 0.5, 0.1): (2.0, 3.772222222222222),
    (1, 0.95, 0.0): (19.999999999999982, 20.10263157894735),
    (1, 0.95, 0.01): (19.999999999999982, 20.122764221158935),
    (1, 0.95, 0.1): (19.999999999999982, 20.314590643274833),
    (2, 0.05, 0.0): (2.1052631578947367, 22.004936036746727),
    (2, 0.05, 0.01): (2.104709432708547, 22.41250902861009),
    (2, 0.05, 0.1): (2.099751997795536, 26.710249303976283),
    (2, 0.5, 0.0): (4.0, 5.061428654497108),
    (2, 0.5, 0.01): (3.98019801980198, 5.104992207984089),
    (2, 0.5, 0.1): (3.8181818181818183, 5.558528008335875),
    (2, 0.95, 0.0): (39.999999999999964, 39.967467470258796),
    (2, 0.95, 0.01): (36.80672268907561, 36.816163538801746),
    (2, 0.95, 0.1): (26.896551724137915, 27.314861268823265),
    (4, 0.05, 0.0): (4.2105263157894735, 24.009945864794858),
    (4, 0.05, 0.01): (4.20722833449666, 24.83524543756106),
    (4, 0.05, 0.1): (4.179790343922495, 34.533167925550195),
    (4, 0.5, 0.0): (8.0, 8.405622039100258),
    (4, 0.5, 0.01): (7.883485994977881, 8.449664858133572),
    (4, 0.5, 0.1): (7.072418209827383, 9.166181407751251),
    (4, 0.95, 0.0): (79.99999999999993, 79.9477090563205),
    (4, 0.95, 0.01): (64.10457369323737, 64.12763598016483),
    (4, 0.95, 0.1): (34.48750791016044, 35.33021882315002),
    (6, 0.05, 0.0): (6.31578947368421, 26.0155198807876),
    (6, 0.05, 0.01): (6.3076047170434855, 27.268747459136037),
    (6, 0.05, 0.1): (6.24413072852118, 43.72150321457144),
    (6, 0.5, 0.0): (12.0, 11.961189031900554),
    (6, 0.5, 0.01): (11.714225248220904, 11.943745875886039),
    (6, 0.5, 0.1): (9.979556998158921, 12.77380679556369),
    (6, 0.95, 0.0): (119.9999999999999, 119.94737423728226),
    (6, 0.95, 0.01): (85.89811333054136, 85.95729822759955),
    (6, 0.95, 0.1): (39.41983033551092, 40.7647313829788),
    (60, 0.05, 0.0): (63.15789473684217, 80.31168694708093),
    (60, 0.05, 0.01): (62.355904267396106, 97.38705446164312),
    (60, 0.05, 0.1): (60.512739573617935, 11190.104762926338),
    (60, 0.5, 0.0): (120.0, 119.00003539588667),
    (60, 0.5, 0.01): (97.47811849696103, 99.43556597427069),
    (60, 0.5, 0.1): (67.08734248024942, 1180.0411590340746),
    (60, 0.95, 0.0): (1199.9999999999995, 1199.9473684210514),
    (60, 0.95, 0.01): (294.35917174584864, 295.6052922681642),
    (60, 0.95, 0.1): (100.60230537247999, 686.3679344336565),
}


class TestPinnedValues:
    @pytest.mark.parametrize("hops, rho, eps", sorted(CHAIN_METRICS))
    def test_chain_metrics(self, hops, rho, eps):
        assert chain_metrics(hops, rho, eps) == pytest.approx(
            CHAIN_METRICS[hops, rho, eps], rel=1e-12)

    def test_digest(self):
        # every value of the fig6/fig7 grids and a 60-hop chain, bit for bit
        digest = hashlib.sha256()
        for n in (1, 2, 4, 6, 60):
            for rho in experiments.DEFAULT_RHO_GRID:
                for eps in (0.0, 0.01, 0.1):
                    digest.update(repr(chain_metrics(n, rho, eps)).encode())
        assert digest.hexdigest() == (
            "8ecb4090ae82f8f892c5794bc0ac3008725abf30d1be92c51c0db5ab516a868b")

    def test_long_chain(self):
        # 10^5 nodes: two sums of 10^5 Poisson terms, each kept in no list
        assert chain_metrics(10 ** 5, 0.5, 0.0) == pytest.approx(
            (200000.0, 199999.0), rel=1e-10)
