"""Output checks for each workload, against closed forms and reference
computations the benchmark makes itself.

Statistical checks allow ``Z`` standard deviations.  Each pass is checked
and a regression comparison runs some thousands of such checks, so
the bound is wide enough that a correct program essentially never fails
one by chance (P(|N(0,1)| > 5) = 5.7e-7), while a changed random stream
still passes.  A failed check marks the operations it covers as failed.
"""
from __future__ import annotations

import csv
import functools
import math

import numpy as np

from workloads import OFFLOAD_CURVES

Z = 5.0
EXACT = 1e-6          # relative slack for values printed with 8 digits


class Verdicts:
    def __init__(self, ops):
        self.ops = list(ops)
        self.failed: set = set()
        self.notes: list = []

    def expect(self, ok: bool, ops, what: str):
        if not ok:
            self.failed.update(ops)
            self.notes.append(what)


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def close(a: float, b: float, rel: float = EXACT) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def single_attempt_success(ra, rate_per_s: float) -> float:
    """(1 - eps) exp(-lambda_RAO / R): a Poisson arrival finds no other
    contender on its preamble, and the preamble is not erased."""
    lam_rao = rate_per_s / 1000.0 * ra.rao_period
    return (1.0 - ra.erasure_prob) * math.exp(-lam_rao / ra.preambles)


def min_handshake_ms(ra) -> float:
    """Best-case four-message handshake with the program's accounting
    (preamble, RAR, Msg3, Msg4, grant processing twice, Msg3 processing),
    plus four one-way propagation legs."""
    preamble = ra.t_preamble_base * ra.repetitions + ra.extended_prefix
    rar = ra.t_rar_base * ra.repetitions
    return (preamble + rar + 2 * ra.t_proc2 + ra.t_proc3 + ra.t_msg3
            + ra.t_msg4 + 4.0 * ra.max_prop_delay)


# ---------------------------------------------------------------------------
# offload
# ---------------------------------------------------------------------------

def check_offload(out, spec, v: Verdicts):
    cfg = spec.config
    total = cfg.traffic.total_rate
    paths = {"ground": cfg.ground_ra, "space": cfg.space_ra}
    summary = {(r["path"], float(r["kappa"]), int(r["attempts"])): r
               for r in read_csv(out / "offload_summary.csv")}

    # per-RAO pmfs: light-load ground channel at a 160 ms RAO period
    pmf_ra = cfg.ground_ra
    lam = cfg.traffic.ground_ratio * total / 1000.0 * 160.0
    n_raos = int(cfg.horizon // 160.0)
    for a in spec.attempts:
        op = [("pmf", a)]
        rows = read_csv(out / f"offload_pmf_a{a}.csv")
        k = np.array([int(r["count"]) for r in rows])
        for col in ("p_total", "p_collided", "p_successful"):
            p = np.array([float(r[col]) for r in rows])
            v.expect(abs(p.sum() - 1.0) <= EXACT, op, f"pmf a{a} {col} sums to {p.sum()}")
        if a == 1:
            p = np.array([float(r["p_successful"]) for r in rows])
            mean = float((k * p).sum())
            sd = math.sqrt(max(float((k * k * p).sum()) - mean ** 2, 0.0) / n_raos)
            want = lam * (1.0 - pmf_ra.erasure_prob) * math.exp(-lam / pmf_ra.preambles)
            v.expect(abs(mean - want) <= Z * sd, op,
                     f"pmf a1 mean successes/RAO {mean:.5f}, closed form {want:.5f}, sd {sd:.5f}")

    success = {}
    for a in spec.attempts:
        for path, kappa in OFFLOAD_CURVES:
            op = [("cdf", path, kappa, a)]
            row = summary.get((path, kappa, a))
            if row is None:
                v.expect(False, op, f"summary row {path} k{kappa} a{a} missing")
                continue
            p_hat, n = float(row["success_probability"]), int(row["records"])
            success[path, kappa, a] = p_hat
            rows = read_csv(out / f"offload_cdf_{path}_k{int(kappa * 100)}_a{a}.csv")
            lat = np.array([float(r["latency_ms"]) for r in rows])
            prob = np.array([float(r["cdf"]) for r in rows])
            label = f"cdf {path} k{kappa} a{a}"
            v.expect(len(lat) > 0 and bool(np.all(np.diff(lat) >= 0))
                     and bool(np.all(np.diff(prob) >= 0)), op,
                     f"{label} is not non-decreasing")
            floor = min_handshake_ms(paths[path])
            v.expect(len(lat) > 0 and lat[0] >= floor * (1 - EXACT), op,
                     f"{label} starts at {lat[:1]} below the handshake {floor}")
            v.expect(len(prob) > 0 and close(prob[-1], p_hat), op,
                     f"{label} plateau {prob[-1:]} != success probability {p_hat}")
            if a == 1:
                rate = (kappa if path == "ground" else 1.0 - kappa) * total
                p0 = single_attempt_success(paths[path], rate)
                sd = math.sqrt(p0 * (1.0 - p0) / n)
                v.expect(abs(p_hat - p0) <= Z * sd, op,
                         f"{label} success {p_hat:.5f}, closed form {p0:.5f}, sd {sd:.5f}")

    # retries pay off only below the R/e stability limit
    for path, kappa in OFFLOAD_CURVES:
        if (path, kappa, 1) not in success or (path, kappa, 10) not in success:
            continue
        ra = paths[path]
        rate = (kappa if path == "ground" else 1.0 - kappa) * total
        margin = rate / 1000.0 * ra.rao_period / (ra.preambles / math.e)
        s1, s10 = success[path, kappa, 1], success[path, kappa, 10]
        v.expect(s10 > s1 if margin < 1.0 else s10 < s1,
                 [("cdf", path, kappa, 10)],
                 f"{path} k{kappa}: load {margin:.2f} x R/e, success a1 {s1} a10 {s10}")


# ---------------------------------------------------------------------------
# backhaul: reference chain simulation for the error budgets
# ---------------------------------------------------------------------------

def _departures(arrivals, services):
    """FCFS single server: d_i = max(a_i, d_{i-1}) + s_i, in closed form
    d_i = S_i + max_{j<=i} (a_j - S_{j-1}) with S the service prefix sums."""
    s_cum = np.cumsum(services)
    return s_cum + np.maximum.accumulate(arrivals - (s_cum - services))


def _age(gen, deliv, warmup=0.05):
    """Time-average sawtooth age from the first delivery past the warm-up
    share of the window to the last delivery."""
    t0, end = deliv[0], deliv[-1]
    i0 = int(np.searchsorted(deliv, t0 + warmup * (end - t0)))
    t, a = deliv[i0:], deliv[i0:] - gen[i0:]
    seg = np.diff(t)
    return float(np.sum(a[:-1] * seg + 0.5 * seg ** 2) / (t[-1] - t[0]))


@functools.lru_cache(maxsize=None)
def reference_chain(rho: float, hops: int, eps: float, packets: int, reps: int):
    """Mean and standard deviation, over ``reps`` independent runs from an
    empty chain, of the mean delay and the mean age of ``packets`` Poisson
    updates through ``hops`` unit-rate exponential servers with link
    erasure ``eps``.  The seed is fixed, so the budgets are the same in
    every benchmark run."""
    rng = np.random.default_rng((0xBE7C, hops, round(rho * 1e6),
                                 round(eps * 1e6), packets))
    delay, age = [], []
    for _ in range(reps):
        gen = np.cumsum(rng.exponential(1.0 / rho, packets))
        t, g = gen, gen
        for _ in range(hops):
            t = _departures(t, rng.exponential(1.0, len(t)))
            if eps > 0.0:
                keep = rng.random(len(t)) >= eps
                t, g = t[keep], g[keep]
        delay.append(float(np.mean(t - g)))
        age.append(_age(g, t))
    return (float(np.mean(delay)), float(np.std(delay, ddof=1)),
            float(np.mean(age)), float(np.std(age, ddof=1)))


def chain_delay(rho: float, hops: int, eps: float) -> float:
    """Mean delay of a delivered update: sum over nodes of the M/M/1
    sojourn 1/(1 - rho (1-eps)^(n-1)) at the thinned load."""
    return sum(1.0 / (1.0 - rho * (1.0 - eps) ** n) for n in range(hops))


def mm1_age(rho: float) -> float:
    """Average age of an M/M/1 FCFS queue with unit service rate (Kaul,
    Yates and Gruteser 2012): 1 + 1/rho + rho^2/(1-rho)."""
    return 1.0 + 1.0 / rho + rho ** 2 / (1.0 - rho)


def _budget(value, closed, ref_mean, ref_sd, scale=1.0):
    """|value - closed| is allowed the reference's own distance from the
    closed form (start-up bias, approximation error) plus Z reference
    standard deviations, scaled to the checked run length."""
    return abs(value - closed) <= abs(ref_mean - closed) + Z * ref_sd * scale


def _backhaul_tables(out):
    rows = {(r["mode"], float(r["rho"]), int(r["hops"]),
             float(r["link_erasure"])): r
            for r in read_csv(out / "backhaul_rows.csv")}
    overlay = {(float(r["rho"]), int(r["hops"]), float(r["link_erasure"]),
                r["metric"]): float(r["value"])
               for r in read_csv(out / "analytic_overlay.csv")}
    return rows, overlay


def _present(rows, v, ops):
    for op in ops:
        v.expect(op in rows, [op], f"cell {op} missing")
    return {op: rows[op] for op in ops if op in rows}


FIG6_REPS = 64


def check_fig6(out, spec, v: Verdicts):
    from leoiot.backhaul_sim import RaFeedSettings

    rows, overlay = _backhaul_tables(out)
    cells = _present(rows, v, v.ops)

    def delay(c):
        return float(cells[c]["mean_system_time"])

    for (mode, rho, hops, eps), r in cells.items():
        op = [(mode, rho, hops, eps)]
        label = f"{mode} rho={rho} N={hops}"
        if mode == "no-ra":
            t_closed = hops / (1.0 - rho)
            a_closed = overlay.get((rho, hops, eps, "mean_aoi"), math.nan)
            d_mean, d_sd, a_mean, a_sd = reference_chain(
                rho, hops, eps, int(r["n_offered"]), FIG6_REPS)
            v.expect(close(overlay.get((rho, hops, eps, "mean_system_time"),
                                       math.nan), t_closed),
                     op, f"{label}: overlay delay != N/(1-rho) = {t_closed}")
            if hops == 1:
                v.expect(close(a_closed, mm1_age(rho)), op,
                         f"{label}: overlay age {a_closed} != M/M/1 {mm1_age(rho)}")
            v.expect(_budget(delay(op[0]), t_closed, d_mean, d_sd), op,
                     f"{label}: delay {delay(op[0])} vs N/(1-rho) {t_closed}, "
                     f"reference {d_mean:.4f} sd {d_sd:.4f}")
            age = float(r["mean_aoi"])
            v.expect(_budget(age, a_closed, a_mean, a_sd), op,
                     f"{label}: age {age} vs closed form {a_closed}, "
                     f"reference {a_mean:.4f} sd {a_sd:.4f}")
        if mode == "ra-a1":
            feed = RaFeedSettings(config=spec.config.ground_ra)
            p0 = single_attempt_success(feed.config, feed.a1_rate_per_s)
            p_hat = float(r["ra_success_prob"])
            # records >= delivered departures, so n_offered bounds sd from above
            sd = math.sqrt(p0 * (1.0 - p0) / int(r["n_offered"]))
            v.expect(abs(p_hat - p0) <= Z * sd, op,
                     f"{label}: access success {p_hat}, closed form {p0:.5f}")

    for mode in spec.modes:
        for rho in spec.rhos:
            line = [(mode, rho, n, 0.0) for n in sorted(spec.hops)]
            for lo, hi in zip(line, line[1:]):
                if lo in cells and hi in cells:
                    v.expect(delay(hi) > delay(lo), [hi],
                             f"{mode} rho={rho}: delay does not rise from "
                             f"{lo[2]} to {hi[2]} hops")
    lo_rho, hi_rho = min(spec.rhos), max(spec.rhos)
    for hops in spec.hops:
        lo, hi = ("ra-a10", lo_rho, hops, 0.0), ("ra-a10", hi_rho, hops, 0.0)
        if lo in cells and hi in cells:
            v.expect(delay(hi) < delay(lo), [hi],
                     f"ra-a10 N={hops}: delay does not fall from rho={lo_rho} "
                     f"to rho={hi_rho}")


FIG7_REF_PACKETS = 50_000
FIG7_REPS = 16


def check_fig7(out, spec, v: Verdicts):
    rows, overlay = _backhaul_tables(out)
    cells = _present(rows, v, v.ops)

    def metric(c, name):
        return float(cells[c][name])

    for (mode, rho, hops, eps), r in cells.items():
        op = [(mode, rho, hops, eps)]
        label = f"rho={rho} N={hops} eps={eps}"
        n = int(r["n_offered"])
        p = (1.0 - eps) ** hops
        frac = float(r["delivered_fraction"])
        v.expect(abs(frac - p) <= Z * math.sqrt(p * (1.0 - p) / n) + EXACT, op,
                 f"{label}: delivered {frac}, (1-eps)^N = {p:.6f}")
        t_closed = chain_delay(rho, hops, eps)
        v.expect(close(overlay.get((rho, hops, eps, "mean_system_time"),
                                   math.nan), t_closed),
                 op, f"{label}: overlay delay != {t_closed}")
        d_mean, d_sd, _, _ = reference_chain(rho, hops, eps, FIG7_REF_PACKETS,
                                             FIG7_REPS)
        # the sd of a run mean shrinks as 1/sqrt(length) once the run is
        # much longer than the chain's relaxation time
        scale = math.sqrt(FIG7_REF_PACKETS / n)
        value = metric(op[0], "mean_system_time")
        v.expect(_budget(value, t_closed, d_mean, d_sd, scale), op,
                 f"{label}: delay {value} vs closed form {t_closed:.5f}, "
                 f"reference {d_mean:.4f} sd {d_sd * scale:.5f}")

    lo_rho, hi_rho = min(spec.rhos), max(spec.rhos)
    for hops in spec.hops:
        for eps in spec.erasures:
            if eps == 0.0:
                continue
            clean_hi, lossy_hi = ("no-ra", hi_rho, hops, 0.0), ("no-ra", hi_rho, hops, eps)
            if clean_hi in cells and lossy_hi in cells:
                v.expect(metric(lossy_hi, "mean_system_time")
                         < metric(clean_hi, "mean_system_time"), [lossy_hi],
                         f"eps={eps} does not lower delay at rho={hi_rho}")
            clean_lo, lossy_lo = ("no-ra", lo_rho, hops, 0.0), ("no-ra", lo_rho, hops, eps)
            if clean_lo in cells and lossy_lo in cells:
                v.expect(metric(lossy_lo, "mean_aoi") > metric(clean_lo, "mean_aoi"),
                         [lossy_lo], f"eps={eps} does not raise age at rho={lo_rho}")


CHECKS = {"offload": check_offload, "fig6-slice": check_fig6,
          "fig7-long": check_fig7}


def check(workload: str, out, spec, ops) -> Verdicts:
    v = Verdicts(ops)
    try:
        CHECKS[workload](out, spec, v)
    except (OSError, KeyError, ValueError) as exc:
        # unreadable or malformed outputs fail every operation of the pass
        v.expect(False, ops, f"outputs unreadable: {exc!r}")
    return v
