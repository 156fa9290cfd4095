"""Closed-form results for the homogeneous tandem relay chain: erasure
thinning, mean delay of a delivered update, and average age of
information with and without link losses.

Each node serves at one rate and each link erases with one probability, so
the lossless system time is Erlang, with finite integer-order Poisson tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class InstabilityError(ValueError):
    """Arrival rate at some node is not below its service rate."""


@dataclass(frozen=True)
class TandemModel:
    """Homogeneous chain: N nodes at service rate mu fed at Poisson rate
    lam, each outgoing link erasing with probability ``link_erasure``."""

    hops: int
    arrival_rate: float
    service_rate: float = 1.0
    link_erasure: float = 0.0

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 < self.arrival_rate < self.service_rate:
            raise InstabilityError(
                f"need 0 < lam < mu, got lam={self.arrival_rate}, "
                f"mu={self.service_rate}")
        if not 0.0 <= self.link_erasure < 1.0:
            raise ValueError("link erasure must be in [0, 1)")

    @property
    def alpha(self) -> float:
        return self.service_rate - self.arrival_rate

    @property
    def service_sum_excl_last(self) -> float:
        return (self.hops - 1) / self.service_rate

    @property
    def service_sum_by_interarrival(self) -> float:
        """Sum of the mean service times x the mean interarrival time."""
        return self.hops / (self.service_rate * self.arrival_rate)


def end_to_end_success(hops: int, link_erasure: float) -> float:
    """Probability that an update survives all ``hops`` links of the chain."""
    return (1.0 - link_erasure) ** hops


def mean_delivered_delay(model: TandemModel) -> float:
    """Mean end-to-end delay of delivered packets under lossy links.

    Erasures thin the arrivals at downstream nodes, so a surviving packet
    sees load rho (1-eps)^(n-1) at node n and its mean delay is the sum of
    the per-node M/M/1 sojourn times at those thinned rates.  Equals the
    lossless law N/(mu - lam) when the links are clean.
    """
    mu, rate, total = model.service_rate, model.arrival_rate, 0.0
    # the thinned rate only falls, and TandemModel holds lam < mu
    for _ in range(model.hops):
        total += 1.0 / (mu - rate)
        rate *= (1.0 - model.link_erasure)
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


def expected_wy(model: TandemModel) -> float:
    """Waiting-time x interarrival-time correlation term E[WY].

    Two-term upper-incomplete-gamma approximation; exact for a single
    node, where it reproduces the classic M/M/1 age formula.  Its gammas
    are integer-order Poisson tails, and the exponential prefactor is
    taken in log domain, so large hop counts stay finite.
    """
    n, lam, mu = model.hops, model.arrival_rate, model.service_rate
    alpha = model.alpha
    s = model.service_sum_excl_last
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


def expected_ty(model: TandemModel) -> float:
    """E[TY] = E[WY] + sum of mean service times x mean interarrival time."""
    return expected_wy(model) + model.service_sum_by_interarrival


def _thinned_effective_model(model: TandemModel) -> TandemModel:
    """Loss-aware stand-in: same N and lam, service rate set so the total
    mean system time equals the sum of per-node M/M/1 delays under the
    thinned arrival rates.  Collapses to the original model when the
    links are lossless."""
    alpha_eff = model.hops / mean_delivered_delay(model)
    return TandemModel(model.hops, model.arrival_rate,
                       model.arrival_rate + alpha_eff)


def average_aoi_with_errors(model: TandemModel) -> float:
    """Average age with link losses.

    Renewal argument over delivery cycles: with per-update survival
    p = (1 - eps)^N, the number of losses between deliveries is
    geometric, and averaging the trapezoid areas over that cycle gives

        age = lam * (p E[TY] + (1-p) E[T]/lam + 1/lam^2 + ((1-p)/p)/lam^2)

    with the system-time moments taken from the loss-aware effective model
    (queues downstream of a lossy link run lighter).  At p = 1 it is the
    lossless age lam (E[TY] + 1/lam^2) of Kaul, Yates and Gruteser (INFOCOM
    2012); a diverging age raises InstabilityError.
    """
    p = end_to_end_success(model.hops, model.link_erasure)
    lam = model.arrival_rate
    eff = _thinned_effective_model(model)
    e_ty = expected_ty(eff)
    # cross term of a system time with an earlier interarrival gap, E[T] E[Y]:
    # under Poisson input the gaps ahead of a packet ignore its history
    e_ty_prev = (model.hops / eff.alpha) * (1.0 / lam)
    e_y, e_y2 = 1.0 / lam, 2.0 / lam ** 2
    q = 1.0 - p
    age = (lam * (p * e_ty + q * e_ty_prev + e_y2 / 2.0 + (q / p) * e_y ** 2)
           if p > 0.0 else math.inf)
    if not math.isfinite(age):
        raise InstabilityError(f"closed-form age diverges over {model.hops}"
                               f" links erasing {model.link_erasure:g} each")
    return age


def chain_metrics(hops: int, rho: float, eps: float):
    """Closed-form (mean delay of a delivered update, average age) of a
    chain of ``hops`` unit-rate servers fed at Poisson load ``rho``, every
    link erasing with probability ``eps``.  At eps = 0 the loss-aware
    forms reduce to the lossless ones (N/(1-rho) and the Erlang age)."""
    model = TandemModel(hops, rho, 1.0, eps)
    return mean_delivered_delay(model), average_aoi_with_errors(model)
