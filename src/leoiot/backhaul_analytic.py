"""Closed-form results for the homogeneous tandem chain of unit-rate relay
nodes: mean delay of a delivered update, and average age of information
with and without link losses, as plain functions of (hops, rho, eps).

Each link erases with one probability, so the lossless system time is
Erlang, with finite integer-order Poisson tails.
"""
from __future__ import annotations

import math


class InstabilityError(ValueError):
    """Arrival rate at some node is not below its service rate."""


def mean_delivered_delay(hops: int, rho: float, eps: float) -> float:
    """Mean end-to-end delay of delivered updates under lossy links.

    Erasures thin the arrivals at downstream nodes, so a surviving update
    sees load rho (1-eps)^(n-1) at node n and its mean delay is the sum of
    the per-node M/M/1 sojourn times at those thinned rates.  The sum is
    exact, not an approximation: thinning a node's Poisson output (Burke's
    output theorem) gives the next node a Poisson input, and along a path
    with no overtaking one update's sojourns are independent exponentials
    (Walrand and Varaiya, Adv. Appl. Prob. 1980), independent of its own
    erasures.  Equals the lossless law N/(1 - rho) when the links are clean.
    """
    rate, total = rho, 0.0
    # the thinned rate only falls, and chain_metrics holds rho < 1
    for _ in range(hops):
        total += 1.0 / (1.0 - rate)
        rate *= (1.0 - eps)
    return total


def _poisson_tails(n: int, x: float) -> tuple[float, float]:
    """Q(n, x), Q(n + 1, x) = P[Poisson(x) < n], P[Poisson(x) <= n]."""
    if x == 0.0:
        return 1.0, 1.0
    log_x = math.log(x)
    def term(k):
        return math.exp(k * log_x - x - math.lgamma(k + 1))
    q = math.fsum(term(k) for k in range(n))
    return q, q + term(n)


def expected_wy(n: int, lam: float, mu: float) -> float:
    """Waiting-time x interarrival-time correlation term E[WY] of ``n``
    nodes at service rate ``mu`` fed at Poisson rate ``lam``.

    Two-term upper-incomplete-gamma approximation; exact for a single
    node, where it reproduces the classic M/M/1 age formula.  Its gammas
    are integer-order Poisson tails, and the exponential prefactor is
    taken in log domain, so large hop counts stay finite.
    """
    alpha = mu - lam
    s = (n - 1) / mu
    q_a, q_a1 = _poisson_tails(n, alpha * s)
    q_m, q_m1 = _poisson_tails(n, mu * s)
    term1 = -(alpha * (lam * s + 2.0) * q_a - lam * n * q_a1) / (alpha * lam ** 2)
    log_pref = n * math.log(alpha / mu) + lam * s
    term2 = -math.exp(log_pref) * (mu * (lam * s - 2.0) * q_m
                                   - lam * n * q_m1) / (lam ** 2 * mu)
    value = float(term1 + term2)
    if not math.isfinite(value):
        raise ArithmeticError(
            f"E[WY] evaluation overflowed for N={n}, lam={lam}, mu={mu}")
    return value


def chain_metrics(hops: int, rho: float, eps: float):
    """Closed-form (mean delay of a delivered update, average age) of a
    chain of ``hops`` unit-rate servers fed at Poisson load ``rho``, every
    link erasing with probability ``eps``.

    The age is a renewal argument over delivery cycles: with per-update
    survival p = (1 - eps)^N, the number of losses between deliveries is
    geometric, and averaging the trapezoid areas over that cycle gives

        age = lam * (p E[TY] + (1-p) E[T]/lam + 1/lam^2 + ((1-p)/p)/lam^2)

    with the system-time moments taken from a loss-aware effective chain:
    same N and lam, service rate set so that its mean system time is the
    delivered delay (queues downstream of a lossy link run lighter).  At
    p = 1 it is the lossless age lam (E[TY] + 1/lam^2) of Kaul, Yates and
    Gruteser (INFOCOM 2012), with delay N/(1 - rho).  A form that is not
    finite raises InstabilityError.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if not 0.0 < rho < 1.0:
        raise InstabilityError(f"need 0 < lam < mu, got lam={rho}, mu=1.0")
    if not 0.0 <= eps < 1.0:
        raise ValueError("link erasure must be in [0, 1)")
    delay = mean_delivered_delay(hops, rho, eps)
    p, lam = (1.0 - eps) ** hops, rho
    try:
        mu = lam + hops / delay
        e_ty = expected_wy(hops, lam, mu) + hops / (mu * lam)
        # cross term of a system time with an earlier interarrival gap,
        # E[T] E[Y]: under Poisson input the gaps ahead of an update ignore
        # its history
        e_ty_prev = (hops / (mu - lam)) * (1.0 / lam)
        e_y, e_y2 = 1.0 / lam, 2.0 / lam ** 2
    except ArithmeticError:
        raise InstabilityError(f"closed forms overflow at load rho={rho:g} "
                               f"over {hops} links") from None
    q = 1.0 - p
    age = (lam * (p * e_ty + q * e_ty_prev + e_y2 / 2.0 + (q / p) * e_y ** 2)
           if p > 0.0 else math.inf)
    if not math.isfinite(age):
        raise InstabilityError(f"closed-form age diverges over {hops}"
                               f" links erasing {eps:g} each")
    return delay, age
