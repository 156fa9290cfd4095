"""Acceptance suite: one test per exit criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see them.

Every expected value is either a closed form evaluated in place, an
exhaustive enumeration, or a Monte Carlo oracle with an explicit error
budget; tolerances are stated next to each check.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from leoiot import backhaul_sim as bs
from leoiot import ra_analytic as ra
from leoiot import ra_sim
from leoiot.backhaul_analytic import chain_metrics
from leoiot.backhaul_sim import BackhaulConfig
from leoiot.experiments import ExperimentSpec, run_backhauling
from leoiot.scenario import load_config

MASTER_SEED = 20250809


def verdict(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# 1. slotted-ALOHA closed forms vs exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_contention_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for preambles in (2, 3, 4):
        for x in range(1, 6):
            total_s = tagged = 0
            n_outcomes = preambles ** x
            for choice in itertools.product(range(preambles), repeat=x):
                counts = [0] * preambles
                for c in choice:
                    counts[c] += 1
                total_s += sum(1 for c in choice if counts[c] == 1)
                tagged += counts[choice[0]] >= 2
            mean_s = total_s / n_outcomes
            mean_c = x - mean_s
            p_coll = tagged / n_outcomes
            worst = max(worst,
                        abs(ra.expected_successes(x, preambles) - mean_s),
                        abs(ra.expected_collided(x, preambles) - mean_c),
                        abs(ra.collision_prob(x, preambles) - p_coll))
    elapsed = time.monotonic() - t0
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"enumeration max abs error {worst:.2e} (tol 1e-12), "
            f"{elapsed:.2f}s (cap 1s)")


# ---------------------------------------------------------------------------
# 2. throughput maximizer and peak rate
# ---------------------------------------------------------------------------

def test_criterion_2_throughput_peak():
    ok = True
    for preambles in (12, 24, 36, 48):
        peak = ra.expected_successes(preambles, preambles)
        for x in range(1, 6 * preambles):
            if ra.expected_successes(x, preambles) > peak * (1 + 1e-12):
                ok = False
    tau = ra.max_throughput(36, 40.0)
    approx = ra.max_throughput_approx(36, 40.0)
    rel = abs(tau - approx) / tau
    ok = ok and abs(tau - 335.8) < 0.1 and rel < 0.02
    verdict(2, ok, f"peak at x = R; tau_max(36, 40ms) = {tau:.1f}/s, "
                   f"e-approximation off by {rel:.2%} (cap 2%)")


# ---------------------------------------------------------------------------
# 3. single-attempt simulator vs Poisson-averaged contention law
# ---------------------------------------------------------------------------

def test_criterion_3_semi_analytic_match():
    t0 = time.monotonic()
    off = load_config("offloading")
    lam_earth = off.traffic.ground_ratio * off.traffic.total_rate
    lam_space = (1 - off.traffic.ground_ratio) * off.traffic.total_rate
    checks = []
    for name, cfg, rate, horizon in (
            ("ground", off.ground_ra, lam_earth, 3.3e6),
            ("space", off.space_ra, lam_space, 1.7e6)):
        trace = ra_sim.run(cfg, 1, rate, horizon,
                           np.random.SeedSequence((MASTER_SEED, 3, name == "space")))
        assert trace.n_raos >= 10_000
        lam_rao = rate / 1000.0 * cfg.rao_period
        predicted = ((1 - cfg.erasure_prob) * lam_rao
                     * math.exp(-lam_rao / cfg.preambles))
        succ = np.zeros(trace.n_raos)
        succ[trace.rao_counts[:, 0]] = trace.rao_counts[:, 2]
        mean = succ.mean()
        sigma = succ.std(ddof=1) / math.sqrt(trace.n_raos)
        plateau = ra_sim.latency_cdf(trace.latency_ms).plateau
        checks.append((name, mean, predicted, sigma, plateau,
                       abs(mean - predicted) <= 3 * sigma
                       and plateau <= 1 - cfg.erasure_prob))
    elapsed = time.monotonic() - t0
    ok = all(c[-1] for c in checks) and elapsed < 30.0
    detail = "; ".join(f"{n}: mean {m:.4f} vs {p:.4f} (3sigma {3 * s:.4f}), "
                       f"plateau {pl:.3f} <= 0.9" for n, m, p, s, pl, _ in checks)
    verdict(3, ok, f"{detail}; {elapsed:.1f}s (cap 30s)")


# ---------------------------------------------------------------------------
# 4. congested ten-attempt regime
# ---------------------------------------------------------------------------

def test_criterion_4_congested_success_probability():
    t0 = time.monotonic()
    cfg = load_config("offloading").ground_ra
    probs = []
    for rep in range(10):
        trace = ra_sim.run(cfg, 10, 50.0, 4.0e6,
                           np.random.SeedSequence((MASTER_SEED, 4, rep)))
        probs.append(trace.success_probability)
    mean = float(np.mean(probs))
    elapsed = time.monotonic() - t0
    ok = abs(mean - 0.16) <= 0.03 and elapsed < 120.0
    verdict(4, ok, f"long-run success probability {mean:.4f} "
                   f"(target 0.16 +- 0.03, per-run "
                   f"{min(probs):.4f}..{max(probs):.4f}); "
                   f"{elapsed:.0f}s (cap 120s)")


# ---------------------------------------------------------------------------
# 5. tandem-queue delay law
# ---------------------------------------------------------------------------

def test_criterion_5_tandem_delay_grid():
    # sojourn times decorrelate over ~ (1+rho)/(1-rho)^2 arrivals, so the
    # high-load points need far more than 1e5 packets for a 2% gate;
    # sampling is chunked into independent replications to bound memory.
    plan = {0.3: (1, 200_000), 0.5: (1, 500_000),
            0.7: (3, 1_000_000), 0.9: (16, 1_000_000)}
    # one pass per (rho, replication) scores every hop count, as the CLI does
    t0 = time.monotonic()
    worst = 0.0
    for rho, (reps, n) in plan.items():
        means = {}
        for rep in range(reps):
            for row in bs.run_point("no-ra", rho, (1, 2, 4, 6), (0.0,), rep,
                                    MASTER_SEED, n):
                assert row.n_delivered >= 100_000
                means.setdefault(row.hops, []).append(row.mean_system_time)
        for hops, sims in means.items():
            law = chain_metrics(hops, rho, 0.0)[0]
            worst = max(worst, abs(float(np.mean(sims)) - law) / law)
    elapsed = time.monotonic() - t0
    verdict(5, worst <= 0.02 and elapsed < 300.0,
            f"grid N in (1,2,4,6) x rho in (0.3..0.9), >= 1e5 delivered "
            f"per replication: worst deviation {worst:.2%} (tol 2%); "
            f"{elapsed:.0f}s (cap 300s)")


# ---------------------------------------------------------------------------
# 6. age-of-information oracle
# ---------------------------------------------------------------------------

def test_criterion_6_aoi_oracle():
    worst_exact = worst_analytic = 0.0
    for rho in (0.3, 0.5, 0.7):
        stream = bs.poisson_stream(rho, 400_000, np.random.SeedSequence(
            (MASTER_SEED, 6, int(rho * 100))))
        trace = bs.run(stream, BackhaulConfig(1),
                       np.random.SeedSequence((MASTER_SEED, 66,
                                               int(rho * 100))))
        sim = bs.average_aoi(trace).mean_aoi
        exact = (1 + 1 / rho + rho ** 2 / (1 - rho))
        analytic = chain_metrics(1, rho, 0.0)[1]
        worst_exact = max(worst_exact, abs(sim - exact) / exact)
        worst_analytic = max(worst_analytic, abs(sim - analytic) / analytic)
    verdict(6, worst_exact <= 0.03 and worst_analytic <= 0.05,
            f"trace age vs closed form off by {worst_exact:.2%} (tol 3%), "
            f"vs gamma-approximation chain {worst_analytic:.2%} (tol 5%)")


# ---------------------------------------------------------------------------
# 7. link erasures: delay relief at high load, age cost at low load
# ---------------------------------------------------------------------------

def _erasure_point(rho, eps, n=250_000):
    stream = bs.poisson_stream(rho, n, np.random.SeedSequence(
        (MASTER_SEED, 7, int(rho * 100), int(eps * 100))))
    trace = bs.run(stream, BackhaulConfig(4, eps),
                   np.random.SeedSequence((MASTER_SEED, 77, int(rho * 100),
                                           int(eps * 100))))
    return bs.average_aoi(trace, warmup_fraction=0.05), trace


def test_criterion_7_erasure_orderings():
    hi_clean, _ = _erasure_point(0.9, 0.0)
    hi_lossy, lossy_trace = _erasure_point(0.9, 0.1)
    lo_clean, _ = _erasure_point(0.1, 0.0)
    lo_lossy, _ = _erasure_point(0.1, 0.1)
    p = (1 - 0.1) ** 4
    n = lossy_trace.n_offered
    sigma = math.sqrt(p * (1 - p) / n)
    frac_ok = abs(lossy_trace.delivered_fraction - p) <= 3 * sigma
    ok = (hi_lossy.mean_system_time < hi_clean.mean_system_time
          and hi_lossy.mean_aoi < hi_clean.mean_aoi
          and lo_clean.mean_aoi <= lo_lossy.mean_aoi
          and frac_ok)
    verdict(7, ok,
            f"rho=0.9: T {hi_lossy.mean_system_time:.1f} < "
            f"{hi_clean.mean_system_time:.1f}, age "
            f"{hi_lossy.mean_aoi:.1f} < {hi_clean.mean_aoi:.1f}; rho=0.1: "
            f"age {lo_clean.mean_aoi:.2f} <= {lo_lossy.mean_aoi:.2f}; "
            f"delivered fraction "
            f"{lossy_trace.delivered_fraction:.4f} vs {p:.4f} (3sigma)")


# ---------------------------------------------------------------------------
# 8. mode-curve shapes over the default load grid
# ---------------------------------------------------------------------------

def test_criterion_8_mode_curves():
    rhos = tuple(round(0.05 * k, 2) for k in range(1, 20))
    feed = bs.RaFeedSettings(load_config("backhauling").ground_ra)
    rows = bs.sweep(rhos, (2,), (0.0,), ("no-ra", "ra-a1", "ra-a10"), 1,
                    MASTER_SEED, n_packets=120_000, feed=feed, workers=8)
    curve = {m: [r.mean_system_time for r in rows if r.mode == m]
             for m in ("no-ra", "ra-a1", "ra-a10")}
    t10 = curve["ra-a10"]
    k = t10.index(min(t10))
    u_shape = (0 < k < len(t10) - 1
               and all(b < a for a, b in zip(t10[:k], t10[1:k + 1]))
               and all(b > a for a, b in zip(t10[k:], t10[k + 1:])))
    mono = all(all(b > a for a, b in zip(curve[m], curve[m][1:]))
               for m in ("no-ra", "ra-a1"))
    gaps = [abs(a - b) / b for rho, a, b in
            zip(rhos, curve["ra-a1"], curve["no-ra"]) if rho <= 0.7]
    close = max(gaps) < 0.10
    verdict(8, u_shape and mono and close,
            f"ten-attempt curve U-shaped (valley at rho={rhos[k]}), "
            f"no-RA and one-attempt monotone increasing, max gap "
            f"{max(gaps):.2%} (cap 10%) for rho <= 0.7")


# ---------------------------------------------------------------------------
# 9. byte-level reproducibility across reruns and worker counts
# ---------------------------------------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    spec = ExperimentSpec(
        config=replace(load_config("backhauling"), seed=MASTER_SEED),
        figure="custom", rhos=(0.3, 0.8), hops=(2,), erasures=(0.0, 0.1),
        modes=("no-ra", "ra-a10"), replications=1, packets=20_000,
        out_dir=tmp_path / "w1", workers=1)
    run_backhauling(spec)
    run_backhauling(replace(spec, out_dir=tmp_path / "w8", workers=8))
    run_backhauling(replace(spec, out_dir=tmp_path / "again", workers=1))
    files = ("backhaul_rows.csv", "backhaul_summary.csv",
             "analytic_overlay.csv")
    same = all((tmp_path / "w1" / f).read_bytes()
               == (tmp_path / "w8" / f).read_bytes()
               and (tmp_path / "w1" / f).read_bytes()
               == (tmp_path / "again" / f).read_bytes() for f in files)

    # representative single-run traces: identical columns on rerun
    cfg = load_config("offloading").ground_ra
    t1 = ra_sim.run(cfg, 1, 50.0, 3.2e5, MASTER_SEED)
    t2 = ra_sim.run(cfg, 1, 50.0, 3.2e5, MASTER_SEED)
    traces_same = (all(np.array_equal(getattr(t1, c), getattr(t2, c),
                                      equal_nan=True)
                       for c in ("gen_time", "attempts", "latency_ms"))
                   and np.array_equal(t1.rao_counts, t2.rao_counts)
                   and t1.censored == t2.censored)
    verdict(9, same and traces_same,
            "sweep outputs byte-identical across reruns and worker counts; "
            "access traces bit-identical on rerun")
