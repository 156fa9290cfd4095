"""Closed-form random-access results: contention statistics, throughput
limits, single-attempt success and access-delay expressions.

The contention moments use the exact binomial form ``(1 - 1/R)^(x-1)``.
The one exponential approximation, ``max_throughput_approx`` (the R/e
limit), stands beside its exact form so the two can be compared; it
is never substituted silently.
"""
from __future__ import annotations

import math

import numpy as np

from .scenario import RaConfig

# the RaConfig fields that the closed forms below read
FIELDS_READ = ("preambles", "rao_period", "repetitions", "erasure_prob",
               "extended_prefix", "max_prop_delay", "t_preamble_base",
               "t_rar_base", "t_msg3", "t_msg4", "t_proc2", "t_proc3")

# ---------------------------------------------------------------------------
# Contention in one RAO: x contenders over R orthogonal preambles
# ---------------------------------------------------------------------------

def arrivals_per_rao(rate_per_s: float, rao_period_ms: float) -> float:
    """lambda_RAO: expected fresh contenders per RAO on a path offered
    ``rate_per_s`` updates per second."""
    return rate_per_s / 1000.0 * rao_period_ms


def expected_successes(x: int, preambles: int) -> float:
    """Expected number of contenders that pick a preamble nobody else picked."""
    if x <= 1:
        return float(max(x, 0))
    return x * (1.0 - 1.0 / preambles) ** (x - 1)


def expected_collided(x: int, preambles: int) -> float:
    """Expected number of contenders involved in a preamble collision."""
    return x - expected_successes(x, preambles)


def collision_prob(x: int, preambles: int) -> float:
    """Probability that a tagged contender collides, given x contenders total."""
    if x < 1:
        raise ValueError("needs at least the tagged contender")
    return 1.0 - (1.0 - 1.0 / preambles) ** (x - 1)


def max_throughput(preambles: int, rao_period_ms: float) -> float:
    """Peak successful accesses per second of R parallel slotted-ALOHA channels."""
    if rao_period_ms <= 0:
        raise ValueError("rao_period_ms must be > 0")
    per_rao = preambles * (1.0 - 1.0 / preambles) ** (preambles - 1)
    return per_rao * 1000.0 / rao_period_ms


def max_throughput_approx(preambles: int, rao_period_ms: float) -> float:
    return preambles * 1000.0 / (math.e * rao_period_ms)


def stability_margin(lam_rao: float, preambles: int) -> float:
    """Offered load per RAO over the R/e stability limit; > 1 means unstable."""
    if lam_rao < 0:
        raise ValueError("lam_rao must be >= 0")
    return lam_rao / (preambles / math.e)


# ---------------------------------------------------------------------------
# Single-attempt success on an erasure channel
# ---------------------------------------------------------------------------

def single_attempt_success(cfg: RaConfig, rate_per_s: float) -> float:
    """Success of a single attempt under Poisson arrivals,
    (1 - eps) exp(-lambda_RAO / R): no other fresh contender picks the
    same preamble, and the preamble is not erased."""
    lam_rao = arrivals_per_rao(rate_per_s, cfg.rao_period)
    return (1.0 - cfg.erasure_prob) * math.exp(-lam_rao / cfg.preambles)


# ---------------------------------------------------------------------------
# Access delay
# ---------------------------------------------------------------------------

def min_access_delay(cfg: RaConfig) -> float:
    """Best-case four-message handshake duration, in milliseconds.

    The preamble and grant durations include repetitions and the extended
    prefix, and four one-way propagation legs (space path) are added.  The
    default budget counts the grant processing time twice and the preamble
    processing time not at all; every term is a named config field, so an
    alternative accounting is a one-line config change.
    """
    return (cfg.preamble_duration + cfg.t_proc2 + cfg.rar_duration
            + cfg.t_proc2 + cfg.t_proc3 + cfg.t_msg3 + cfg.t_msg4
            + 4.0 * cfg.max_prop_delay)


def access_delay(attempts, cfg: RaConfig, backoff_sum, t_extra=0.0):
    """Handshake latency when success comes at attempt ``attempts``.

    ``backoff_sum`` is the sum of the realized backoff draws of the failed
    attempts, each in [0, max_backoff]; ``t_extra`` is the grant-queueing
    offset inside the response window.  The arguments are scalars or
    aligned arrays.
    """
    a, s = np.asarray(attempts), np.asarray(backoff_sum)
    if np.any(a < 1):
        raise ValueError("attempts must be >= 1")
    if np.any((s < 0) | (s > (a - 1) * cfg.max_backoff)):
        raise ValueError(f"backoff sum outside [0, (attempts - 1) x "
                         f"{cfg.max_backoff}]")
    retry_overhead = cfg.preamble_duration + cfg.t_proc1 + cfg.rar_window_ms
    return (min_access_delay(cfg) + t_extra
            + backoff_sum + (attempts - 1) * retry_overhead)
