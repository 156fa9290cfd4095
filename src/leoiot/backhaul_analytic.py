"""Closed-form results for the tandem relay chain: erasure thinning, the
Erlang system-time law, mean network delay, and average age of information
with and without link losses.

The homogeneous-service case is the analytic one (the system time is then
Erlang); heterogeneous service rates are handled by simulation only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc


class InstabilityError(ValueError):
    """Arrival rate at some node is not below its service rate."""


@dataclass(frozen=True)
class TandemModel:
    """Homogeneous chain: N nodes at service rate mu fed at Poisson rate lam."""

    hops: int
    arrival_rate: float
    service_rate: float = 1.0
    link_erasures: tuple = ()

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 < self.arrival_rate < self.service_rate:
            raise InstabilityError(
                f"need 0 < lam < mu, got lam={self.arrival_rate}, "
                f"mu={self.service_rate}")
        eps = self.link_erasures or (0.0,) * self.hops
        if len(eps) != self.hops:
            raise ValueError("one link erasure per hop")
        if any(not 0.0 <= e < 1.0 for e in eps):
            raise ValueError("link erasures must be in [0, 1)")
        object.__setattr__(self, "link_erasures", tuple(eps))

    @property
    def rho(self) -> float:
        return self.arrival_rate / self.service_rate

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


def effective_rate(lam: float, erasures, node: int) -> float:
    """Poisson arrival rate at 1-based ``node`` after upstream link losses.

    ``node = len(erasures) + 1`` gives the delivered rate at the destination.
    """
    if not 1 <= node <= len(erasures) + 1:
        raise ValueError(f"node {node} outside 1..{len(erasures) + 1}")
    rate = lam
    for e in erasures[:node - 1]:
        rate *= (1.0 - e)
    return rate


def end_to_end_success(erasures) -> float:
    """Probability that an update survives every link of the chain."""
    return effective_rate(1.0, erasures, len(erasures) + 1)


def system_time_pdf(t: float, hops: int, alpha: float):
    """Erlang density of the end-to-end system time (homogeneous chain).

    Accepts scalars or arrays for ``t``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if hops < 1:
        raise ValueError("hops must be >= 1")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    pos = t > 0
    log_t = np.log(t, where=pos, out=np.zeros_like(t))
    log_pdf = (hops * math.log(alpha) + (hops - 1) * log_t
               - alpha * t - math.lgamma(hops))
    out[pos] = np.exp(log_pdf[pos])
    if hops == 1:
        out[t == 0.0] = alpha
    return float(out[0]) if scalar else out


def mean_network_delay(hops: int, lam: float, mu: float) -> float:
    """Average end-to-end packet delay N/(mu - lam)."""
    if lam >= mu:
        raise InstabilityError(f"unstable: lam={lam} >= mu={mu}")
    return hops / (mu - lam)


def mean_delivered_delay(model: TandemModel) -> float:
    """Mean end-to-end delay of delivered packets under lossy links.

    Erasures thin the arrivals at downstream nodes, so a surviving packet
    sees load rho (1-eps)^(n-1) at node n and its mean delay is the sum of
    the per-node M/M/1 sojourn times at those thinned rates.  Equals the
    lossless law when every link is clean.
    """
    lam, mu = model.arrival_rate, model.service_rate
    total = 0.0
    rate = lam
    for e in model.link_erasures:
        if rate >= mu:
            raise InstabilityError(
                f"unstable under thinning: node rate {rate} >= mu={mu}")
        total += 1.0 / (mu - rate)
        rate *= (1.0 - e)
    return total


def expected_wy(model: TandemModel) -> float:
    """Waiting-time x interarrival-time correlation term E[WY].

    Two-term upper-incomplete-gamma approximation; exact for a single
    node, where it reproduces the classic M/M/1 age formula.  Evaluated
    through regularized gamma functions with the exponential prefactor in
    log domain, so large hop counts stay finite.
    """
    n, lam, mu = model.hops, model.arrival_rate, model.service_rate
    alpha = model.alpha
    s = model.service_sum_excl_last
    q_a = gammaincc(n, alpha * s)
    q_a1 = gammaincc(n + 1, alpha * s)
    q_m = gammaincc(n, mu * s)
    q_m1 = gammaincc(n + 1, mu * s)
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


def average_aoi_lossless(lam: float, e_ty: float) -> float:
    """Average age for Poisson input without losses: lam (E[TY] + 1/lam^2)."""
    return lam * (e_ty + 1.0 / lam ** 2)


def _thinned_effective_model(model: TandemModel) -> TandemModel:
    """Loss-aware stand-in: same N and lam, service rate set so the total
    mean system time equals the sum of per-node M/M/1 delays under the
    thinned arrival rates.  Collapses to the original model when every
    link is lossless."""
    alpha_eff = model.hops / mean_delivered_delay(model)
    return TandemModel(model.hops, model.arrival_rate,
                       model.arrival_rate + alpha_eff)


@dataclass(frozen=True)
class AoiDecomposition:
    """Moments entering the age average, exposed for inspection.

    ``e_ty_prev`` is the cross term between a system time and an earlier
    interarrival gap, taken as E[T] E[Y] (the gaps ahead of a packet are
    independent of its own history under Poisson input).
    """

    e_wy: float
    e_ty: float
    e_ty_prev: float
    e_y: float
    e_y2: float
    p_s: float


def aoi_decomposition(model: TandemModel) -> AoiDecomposition:
    """Loss-aware moments for the age formulas of this module."""
    p = end_to_end_success(model.link_erasures)
    if p <= 0.0:
        raise InstabilityError("no update ever survives the chain; age diverges")
    lam = model.arrival_rate
    eff = _thinned_effective_model(model)
    e_wy = expected_wy(eff)
    return AoiDecomposition(
        e_wy=e_wy,
        e_ty=e_wy + eff.service_sum_by_interarrival,
        e_ty_prev=(model.hops / eff.alpha) * (1.0 / lam),
        e_y=1.0 / lam,
        e_y2=2.0 / lam ** 2,
        p_s=p,
    )


def average_aoi_with_errors(model: TandemModel) -> float:
    """Average age with per-link losses.

    Renewal argument over delivery cycles: with per-update survival
    p = prod(1 - eps_n), the number of losses between deliveries is
    geometric, and averaging the trapezoid areas over that cycle gives

        age = lam * (p E[TY] + (1-p) E[T]/lam + 1/lam^2 + ((1-p)/p)/lam^2)

    with the system-time moments taken from the loss-aware effective
    model (queues downstream of a lossy link run lighter).  Reduces
    exactly to the lossless expression when p = 1.
    """
    d = aoi_decomposition(model)
    lam = model.arrival_rate
    q = 1.0 - d.p_s
    return lam * (d.p_s * d.e_ty + q * d.e_ty_prev
                  + d.e_y2 / 2.0 + (q / d.p_s) * d.e_y ** 2)


def chain_metrics(hops: int, rho: float, eps: float):
    """Closed-form (mean delay of a delivered update, average age) of a
    chain of ``hops`` unit-rate servers fed at Poisson load ``rho``, every
    link erasing with probability ``eps``.  At eps = 0 the loss-aware
    forms reduce to the lossless ones (N/(1-rho) and the Erlang age)."""
    model = TandemModel(hops, rho, 1.0, (eps,) * hops)
    return mean_delivered_delay(model), average_aoi_with_errors(model)
