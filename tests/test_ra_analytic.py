import itertools
import math

import numpy as np
import pytest

from leoiot.ra_analytic import (access_delay, collision_prob,
                                expected_collided, expected_successes,
                                max_throughput, max_throughput_approx,
                                min_access_delay, single_attempt_success,
                                stability_margin)
from leoiot.scenario import RaConfig

GROUND = RaConfig()   # defaults are the terrestrial path constants
SPACE = RaConfig(repetitions=4, extended_prefix=2.0, max_backoff=160.0)


def enumerate_contention(x: int, preambles: int):
    """Exhaustive slotted-ALOHA oracle: average over all R^x assignments.

    Returns (mean successes, mean collided, per-contender collision prob).
    """
    total_s = total_c = tagged_collisions = 0
    n_outcomes = preambles ** x
    for choice in itertools.product(range(preambles), repeat=x):
        counts = [0] * preambles
        for c in choice:
            counts[c] += 1
        succ = sum(1 for c in choice if counts[c] == 1)
        total_s += succ
        total_c += x - succ
        if counts[choice[0]] >= 2:
            tagged_collisions += 1
    return (total_s / n_outcomes, total_c / n_outcomes,
            tagged_collisions / n_outcomes)


class TestContentionMoments:
    def test_lone_contender(self):
        assert expected_successes(1, 36) == 1.0
        assert expected_collided(1, 36) == 0.0

    def test_zero_contenders(self):
        assert expected_successes(0, 36) == 0.0

    def test_maximizer_value(self):
        assert expected_successes(36, 36) == pytest.approx(
            36 * (35 / 36) ** 35, rel=1e-12)
        assert expected_successes(36, 36) == pytest.approx(13.43, abs=0.01)

    def test_two_contenders_two_preambles(self):
        s, c, pc = enumerate_contention(2, 2)
        assert expected_successes(2, 2) == pytest.approx(s, abs=1e-12)
        assert expected_collided(2, 2) == pytest.approx(c, abs=1e-12)
        assert collision_prob(2, 2) == pytest.approx(pc, abs=1e-12)
        assert s == pytest.approx(1.0)
        assert pc == pytest.approx(0.5)

    @pytest.mark.parametrize("preambles", [2, 3, 4])
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_brute_force_equivalence(self, preambles, x):
        s, c, pc = enumerate_contention(x, preambles)
        assert expected_successes(x, preambles) == pytest.approx(s, abs=1e-12)
        assert expected_collided(x, preambles) == pytest.approx(c, abs=1e-12)
        assert collision_prob(x, preambles) == pytest.approx(pc, abs=1e-12)

    def test_conservation(self):
        for preambles in (12, 24, 36, 48):
            for x in range(0, 120):
                assert (expected_successes(x, preambles)
                        + expected_collided(x, preambles)
                        == pytest.approx(x, abs=1e-9))

    @pytest.mark.parametrize("preambles", [2, 12, 24, 36, 48])
    def test_successes_peak_at_preamble_count(self, preambles):
        # x = R attains the maximum; x = R-1 ties with it exactly, since
        # E[S;x+1]/E[S;x] = (x+1)/x * (1-1/R) equals 1 at x = R-1.
        peak = expected_successes(preambles, preambles)
        for x in range(1, 4 * preambles):
            value = expected_successes(x, preambles)
            assert value <= peak * (1 + 1e-12)
            if abs(x - preambles) > 1:
                assert value < peak

    def test_small_collision_mean(self):
        assert expected_collided(2, 36) == pytest.approx(2 / 36, rel=1e-12)


class TestProbabilities:
    def test_collision_prob_extremes(self):
        assert collision_prob(1, 36) == 0.0
        assert collision_prob(2, 1) == 1.0

    def test_collision_prob_value(self):
        exact = 1 - (35 / 36) ** 36
        assert collision_prob(37, 36) == pytest.approx(exact, rel=1e-12)

    def test_complement(self):
        # by symmetry a tagged contender succeeds with E[successes] / x
        for x in (1, 2, 7, 36, 100):
            assert (collision_prob(x, 36) + expected_successes(x, 36) / x
                    == pytest.approx(1.0, abs=1e-12))

    def test_requires_a_contender(self):
        with pytest.raises(ValueError):
            collision_prob(0, 36)

    def test_approximations_are_separate(self):
        # the R/e limit is close to the exact peak but never identical
        assert max_throughput_approx(36, 40.0) != max_throughput(36, 40.0)
        assert max_throughput_approx(36, 40.0) == pytest.approx(
            36 * 1000.0 / (math.e * 40.0), rel=1e-12)


class TestThroughput:
    def test_peak_value(self):
        tau = max_throughput(36, 40.0)
        assert tau == pytest.approx(36 / 0.040 * (35 / 36) ** 35, rel=1e-12)
        assert tau == pytest.approx(335.8, abs=0.1)

    def test_single_channel(self):
        assert max_throughput(1, 1000.0) == pytest.approx(1.0)

    def test_congested_period(self):
        assert max_throughput(36, 320.0) == pytest.approx(41.97, abs=0.01)

    def test_matches_e_approximation(self):
        exact = max_throughput(36, 40.0)
        approx = max_throughput_approx(36, 40.0)
        assert abs(exact - approx) / exact < 0.02

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            max_throughput(36, 0.0)


class TestStability:
    def test_congested_offloading_load(self):
        assert stability_margin(16.0, 36) == pytest.approx(16 * math.e / 36,
                                                           rel=1e-12)
        assert stability_margin(16.0, 36) > 1.0

    def test_light_backhauling_load(self):
        assert stability_margin(2.0, 36) == pytest.approx(0.151, abs=1e-3)
        assert stability_margin(2.0, 36) < 1.0

    def test_zero(self):
        assert stability_margin(0.0, 36) == 0.0


class TestErasureModels:
    """One attempt under Poisson arrivals fails by a collision or, on a
    collision-free preamble, by an erasure."""

    def test_attempt_failure_lone_contender(self):
        # with no rival traffic only the erasure can fail the attempt
        assert 1 - single_attempt_success(GROUND, 0.0) == pytest.approx(0.1)
        lossless = RaConfig(erasure_prob=0.0)
        assert 1 - single_attempt_success(lossless, 0.0) == 0.0

    def test_attempt_failure_mixing(self):
        # 36 ln 2 fresh rivals per RAO collide with probability one half
        rate = 36 * math.log(2.0) * 1000.0 / GROUND.rao_period
        assert 1 - single_attempt_success(GROUND, rate) == pytest.approx(0.55)


class TestAccessDelay:
    def test_ground_minimum(self):
        assert min_access_delay(GROUND) == pytest.approx(22.1, abs=1e-9)

    def test_space_minimum(self):
        # literal sum with four repetitions and the extended prefix:
        # (22.4 + 2) + 5 + 2 + 5 + 4 + 1 + 1
        assert min_access_delay(SPACE) == pytest.approx(42.4, abs=1e-9)

    def test_degenerate_zero_timing(self):
        zero = RaConfig(t_preamble_base=0.0, t_rar_base=0.0, t_msg3=0.0,
                        t_msg4=0.0, t_proc1=0.0, t_proc2=0.0, t_proc3=0.0)
        assert min_access_delay(zero) == 0.0

    def test_first_attempt(self):
        assert access_delay(1, GROUND, 0.0) == min_access_delay(GROUND)

    def test_one_retry_ground(self):
        # 22.1 + 100 + 5.6 + 2 + 12
        assert access_delay(2, GROUND, 100.0) == pytest.approx(141.7)

    def test_two_zero_backoffs(self):
        assert access_delay(3, GROUND, 0.0) == pytest.approx(
            min_access_delay(GROUND) + 2 * (5.6 + 2 + 12))

    def test_monotone_in_attempts(self):
        delays = [access_delay(a, GROUND, 0.0) for a in range(1, 8)]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_grant_offset_adds(self):
        assert access_delay(1, GROUND, 0.0, t_extra=11.0) == pytest.approx(33.1)

    def test_backoff_validation(self):
        with pytest.raises(ValueError):
            access_delay(2, GROUND, GROUND.max_backoff + 1.0)
        with pytest.raises(ValueError):
            access_delay(2, GROUND, -1.0)
        with pytest.raises(ValueError):
            access_delay(1, GROUND, 5.0)     # a backoff with no failed attempt
        with pytest.raises(ValueError):
            access_delay(0, GROUND, 0.0)

    def test_arrays_match_scalars(self):
        attempts = np.array([1, 2, 3, 10])
        backoffs = np.array([0.0, 100.0, 17.25, 2000.0])
        offsets = np.array([0.0, 11.0, 3.0, 5.0])
        delays = access_delay(attempts, GROUND, backoffs, offsets)
        assert delays.tolist() == [
            access_delay(int(a), GROUND, float(b), float(t))
            for a, b, t in zip(attempts, backoffs, offsets)]
        with pytest.raises(ValueError):
            access_delay(attempts, GROUND, backoffs + 400.0, offsets)
