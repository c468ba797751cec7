"""Executable acceptance checks for the whole analytics chain.

Each criterion function returns (passed, detail) and is intentionally
self-contained: anchor values, grids, tolerances, and runtime budgets live
here so the CLI selftest and the test suite share one source of truth.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from .auc import auc_average, auc_instantaneous
from .detection import (
    DetectorConfig,
    SeriesControl,
    _ln_series_coeff,
    _log_axis_miss,
    average_pd,
    average_pd_quadrature,
    collaborative_pd,
    roc_curve,
    sls_average_pd,
    threshold_for_pfa,
    truncation_bound,
)
from .entropy import (
    _TABLE_PAIRS,
    cross_entropy_nakagami,
    cross_entropy_rayleigh,
    entropy_report,
    nakagami_projection,
    shannon_entropy,
)
from .fading import FadingParams
from .montecarlo import (
    SimConfig,
    simulate_auc,
    simulate_average_pd,
    simulate_fusion,
    simulate_sls,
)
from .special_fn import _reg_p_int_shapes

__all__ = ["CRITERIA", "run_criterion", "run_all"]

# Entropy/MLE anchors for the _TABLE_PAIRS rows at 5 dB and 15 dB mean SNR.
_H_P = {5.0: (3.005, 2.959, 2.730, 1.870), 15.0: (6.327, 6.281, 6.051, 5.191)}
_H_RAY = {5.0: 3.104, 15.0: 6.426}
_H_NAK = {5.0: (3.096, 2.960, 2.913, 1.876), 15.0: (6.418, 6.282, 6.235, 5.198)}
_M_HAT = {5.0: (1.14, 1.89, 2.11, 11.99), 15.0: (1.14, 1.88, 2.11, 11.98)}

# Shared oracle-equivalence grid (criteria 4 and 9).
_GRID_M = (1.0, 1.3, 3.5, 5.6, 20.0)
_GRID_MS = (1.1, 2.7, 4.3, 30.0)
_GRID_SNR_DB = (0.0, 3.0, 7.0, 15.0)
_GRID_U = (1, 2, 3)


def criterion_1() -> tuple[bool, str]:
    """Noise-uncertainty anchors and the 5 dB sensitivity shift."""
    t0 = time.perf_counter()
    m, ms, lam, u = 1.3, 2.7, 7.78, 2
    chan6 = FadingParams.from_db(m, ms, 6.0)
    pd_b0 = average_pd(DetectorConfig(u=u, threshold=lam), chan6)
    pd_b2 = average_pd(DetectorConfig(u=u, threshold=lam, noise_uncertainty_db=2.0), chan6)

    def snr_db_for(target: float, beta: float) -> float:
        cfg = DetectorConfig(u=u, threshold=lam, noise_uncertainty_db=beta)
        lo, hi = 0.0, 30.0
        for _ in range(18):
            mid = 0.5 * (lo + hi)
            if average_pd(cfg, FadingParams.from_db(m, ms, mid)) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    shift = snr_db_for(0.9, 2.0) - snr_db_for(0.9, 0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(pd_b0 - 0.52) <= 0.03
        and abs(pd_b2 - 0.15) <= 0.03
        and abs(shift - 5.0) <= 0.5
        and elapsed < 1.0
    )
    detail = (
        f"pd(beta=0)={pd_b0:.4f} (0.52±0.03), pd(beta=2dB)={pd_b2:.4f} (0.15±0.03), "
        f"snr shift={shift:.3f} dB (5±0.5), {elapsed:.2f}s (<1s)"
    )
    return ok, detail


def criterion_2() -> tuple[bool, str]:
    """Closed-form entropy table against published anchor values."""
    t0 = time.perf_counter()
    worst = 0.0
    for snr_db in (5.0, 15.0):
        snr = 10.0 ** (snr_db / 10.0)
        for idx, (m, ms) in enumerate(_TABLE_PAIRS):
            p = FadingParams(m=m, m_s=ms, mean_snr=snr)
            worst = max(worst, abs(shannon_entropy(p) - _H_P[snr_db][idx]))
            worst = max(worst, abs(cross_entropy_rayleigh(p, snr) - _H_RAY[snr_db]))
            m_hat = _M_HAT[snr_db][idx]
            worst = max(
                worst, abs(cross_entropy_nakagami(p, m_hat, snr) - _H_NAK[snr_db][idx])
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.005 and elapsed < 0.1
    return ok, f"max |entropy error|={worst:.5f} bits (<=0.005), {elapsed:.3f}s (<0.1s)"


def criterion_3() -> tuple[bool, str]:
    """Gamma-law MLE recovery from sampled channels."""
    t0 = time.perf_counter()
    snr = 10.0 ** 0.5
    worst_m, worst_snr = 0.0, 0.0
    for idx, (m, ms) in enumerate(_TABLE_PAIRS):
        p = FadingParams(m=m, m_s=ms, mean_snr=snr)
        m_hat, mean_n = entropy_report(p, 1_000_000, 714025 + idx).fitted
        worst_m = max(worst_m, abs(m_hat - _M_HAT[5.0][idx]))
        worst_snr = max(worst_snr, abs(mean_n - snr) / snr)
    elapsed = time.perf_counter() - t0
    ok = worst_m <= 0.05 and worst_snr <= 0.01 and elapsed < 10.0
    return ok, (
        f"max |m_hat error|={worst_m:.4f} (<=0.05), max mean-SNR rel err="
        f"{worst_snr:.4f} (<=0.01), {elapsed:.2f}s (<10s)"
    )


def _criterion4_grid():
    for u in _GRID_U:
        lam = threshold_for_pfa(u, 0.1)
        for m in _GRID_M:
            for ms in _GRID_MS:
                for snr_db in _GRID_SNR_DB:
                    yield DetectorConfig(u=u, threshold=lam), FadingParams.from_db(m, ms, snr_db)


def criterion_4() -> tuple[bool, str]:
    """Series vs independent quadrature across the fading grid."""
    t0 = time.perf_counter()
    worst, worst_at = 0.0, ""
    for cfg, p in _criterion4_grid():
        diff = abs(average_pd(cfg, p) - average_pd_quadrature(cfg, p))
        if diff > worst:
            worst, worst_at = diff, f"u={cfg.u}, m={p.m}, m_s={p.m_s}, snr={p.mean_snr_db:.0f}dB"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    return ok, f"max |series-quad|={worst:.2e} (<=1e-6) at {worst_at}, {elapsed:.1f}s (<30s)"


def criterion_5() -> tuple[bool, str]:
    """Monte Carlo estimates within 3 sigma of the closed forms."""
    t0 = time.perf_counter()
    checks: list[tuple[str, float, float, float]] = []

    def record(tag, result, analytic):
        sigma = result.ci95_halfwidth / 1.96
        checks.append((tag, result.estimate, analytic, 3.0 * sigma))

    seed = 0
    # fading-averaged detection over a small parameter grid
    for m, ms in ((1.3, 2.7), (3.5, 4.3)):
        for snr_db in (3.0, 7.0):
            for target_pf in (0.1, 0.01):
                seed += 1
                cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, target_pf))
                p = FadingParams.from_db(m, ms, snr_db)
                record(
                    f"pd m={m} ms={ms} snr={snr_db} pf={target_pf}",
                    simulate_average_pd(cfg, p, SimConfig(seed=8200 + seed)),
                    average_pd(cfg, p),
                )
    # collaborative fusion; pf values keep even the AND-rule N=8 point at an
    # expected hit count where the 3-sigma binomial check is meaningful
    p_fus = FadingParams.from_db(3.5, 4.3, 3.0)
    for n_users in (2, 4, 8):
        for rule in ("or", "and"):
            for target_pf in (0.2, 0.1):
                seed += 1
                cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, target_pf))
                record(
                    f"fusion N={n_users} {rule} pf={target_pf}",
                    simulate_fusion(cfg, p_fus, n_users, rule, SimConfig(seed=8400 + seed)),
                    collaborative_pd(average_pd(cfg, p_fus), n_users, rule),
                )
    # square-law selection
    p_sls = FadingParams.from_db(5.6, 1.1, 7.0)
    for branches in (1, 2, 4):
        for u in (1, 3):
            seed += 1
            cfg = DetectorConfig(u=u, threshold=threshold_for_pfa(u, 0.1))
            record(
                f"sls L={branches} u={u}",
                simulate_sls(cfg, [p_sls] * branches, SimConfig(seed=8600 + seed)),
                sls_average_pd(cfg, [p_sls] * branches),
            )
    # rank-statistic AUC at surface corners
    for m, ms in ((1.0, 2.0), (1.0, 15.0), (15.0, 2.0), (15.0, 15.0)):
        seed += 1
        p = FadingParams.from_db(m, ms, 2.0)
        record(
            f"auc m={m} ms={ms}",
            simulate_auc(2, p, SimConfig(seed=8800 + seed)),
            auc_average(2, p),
        )

    misses = [(tag, est, ref, tol) for tag, est, ref, tol in checks if abs(est - ref) > tol]
    frac = 1.0 - len(misses) / len(checks)
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 120.0
    head = misses[0][0] if misses else "none"
    return ok, (
        f"{len(checks) - len(misses)}/{len(checks)} within 3 sigma "
        f"(>=95%), worst miss: {head}, {elapsed:.1f}s (<120s)"
    )


def criterion_6() -> tuple[bool, str]:
    """AUC closed forms vs trapezoid ROC area and the u=1 reduction."""
    # graded pf grid, dense where the ROC is steep
    t = np.linspace(0.0, 1.0, 501)[1:-1]
    pf_grid = t ** 3
    worst_trap = 0.0
    for m, ms, snr_db, u in ((1.3, 2.7, 2.0, 2), (3.5, 4.3, 5.0, 1), (5.6, 30.0, 0.0, 3)):
        p = FadingParams.from_db(m, ms, snr_db)
        cfg = DetectorConfig(u=u, threshold=1.0)
        curve = roc_curve(p, cfg, pf_grid=pf_grid)
        pfs = np.concatenate(([0.0], curve.pf, [1.0]))
        pds = np.concatenate(([0.0], curve.pd, [1.0]))
        area = float(np.trapezoid(pds, pfs))
        worst_trap = max(worst_trap, abs(area - auc_average(u, p)))

    gammas = np.linspace(0.0, 25.0, 50)
    worst_u1 = max(
        abs(auc_instantaneous(1, g) - (1.0 - 0.5 * math.exp(-0.5 * g))) for g in gammas
    )

    m_axis = (1.0, 2.0, 4.0, 8.0, 15.0)
    ms_axis = (1.5, 3.0, 6.0, 15.0)
    surface = np.array(
        [[auc_average(2, FadingParams.from_db(m, ms, 2.0)) for ms in ms_axis] for m in m_axis]
    )
    mono = bool(np.all(np.diff(surface, axis=0) > 0.0) and np.all(np.diff(surface, axis=1) > 0.0))

    ok = worst_trap <= 1e-4 and worst_u1 <= 1e-12 and mono
    return ok, (
        f"max |auc-trapezoid|={worst_trap:.2e} (<=1e-4), max u=1 closed-form err="
        f"{worst_u1:.2e} (<=1e-12), surface monotone in m and m_s: {mono}"
    )


def criterion_7() -> tuple[bool, str]:
    """Heavy-shadowing limit m_s=1e4 collapses onto Nakagami fading."""
    worst = 0.0
    for m in (1.0, 2.0, 4.0):
        for snr_db in (0.0, 5.0, 10.0):
            for target_pf in (0.1, 0.01):
                u = 2
                lam = threshold_for_pfa(u, target_pf)
                cfg = DetectorConfig(u=u, threshold=lam)
                p = FadingParams.from_db(m, 1e4, snr_db)
                # gamma SNR law with shape m and mean p.mean_snr, on ln(gamma)
                rate = m / p.mean_snr
                miss, _ = _log_axis_miss(
                    u, lam, m, m * math.log(rate) - math.lgamma(m), math.log(p.mean_snr),
                    lambda g: rate * g,
                )
                worst = max(worst, abs(average_pd(cfg, p) - (1.0 - miss)))
    ok = worst <= 1e-3
    return ok, f"max |F(m_s=1e4) - Nakagami quadrature|={worst:.2e} (<=1e-3)"


def _random_channel(rng) -> FadingParams:
    m = 10.0 ** rng.uniform(math.log10(0.6), math.log10(20.0))
    ms = 1.0 + 10.0 ** rng.uniform(math.log10(0.05), math.log10(30.0))
    return FadingParams.from_db(m, ms, rng.uniform(-5.0, 15.0))


def criterion_8() -> tuple[bool, str]:
    """Randomized property suites, >=200 draws each."""
    failures: list[str] = []

    rng = np.random.default_rng(90210)
    pf_grid = np.geomspace(1e-3, 0.9, 12)
    for _ in range(200):
        p = _random_channel(rng)
        u = int(rng.integers(1, 6))
        beta = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 3.0))
        cfg = DetectorConfig(u=u, threshold=1.0, noise_uncertainty_db=beta)
        curve = roc_curve(p, cfg, pf_grid=pf_grid)
        if np.any(np.diff(curve.pd) < -1e-12):
            failures.append("roc monotonicity")
            break
        if beta == 0.0 and np.any(curve.pd < curve.pf - 1e-9):
            failures.append("roc above diagonal")
            break

    rng = np.random.default_rng(90211)
    for _ in range(200):
        prob = float(rng.random())
        n = int(rng.integers(1, 9))
        p_or = collaborative_pd(prob, n, "or")
        p_and = collaborative_pd(prob, n, "and")
        if not p_or >= prob >= p_and:
            failures.append("fusion ordering")
            break

    rng = np.random.default_rng(90212)
    for _ in range(200):
        p = _random_channel(rng)
        u = int(rng.integers(1, 5))
        lam = threshold_for_pfa(u, float(rng.uniform(0.01, 0.5)))
        b1, b2 = sorted(rng.uniform(0.0, 4.0, size=2))
        pd1 = average_pd(DetectorConfig(u=u, threshold=lam, noise_uncertainty_db=float(b1)), p)
        pd2 = average_pd(DetectorConfig(u=u, threshold=lam, noise_uncertainty_db=float(b2)), p)
        if pd2 > pd1 + 1e-9:
            failures.append("noise-uncertainty monotonicity")
            break

    rng = np.random.default_rng(90213)
    for _ in range(200):
        p = _random_channel(rng)
        h = shannon_entropy(p)
        kl_ray = cross_entropy_rayleigh(p, 10.0 ** rng.uniform(-1.0, 2.0)) - h
        m_hat = 10.0 ** rng.uniform(-0.5, 1.3)
        kl_nak = cross_entropy_nakagami(p, m_hat, 10.0 ** rng.uniform(-1.0, 2.0)) - h
        if kl_ray < -1e-9 or kl_nak < -1e-9:
            failures.append("kl nonnegativity")
            break

    rng = np.random.default_rng(90214)
    for _ in range(200):
        p = _random_channel(rng)
        h = shannon_entropy(p)
        m_hat, mean_n = nakagami_projection(p)
        if cross_entropy_rayleigh(p, p.mean_snr) < h - 1e-9:
            failures.append("cross entropy >= shannon (rayleigh)")
            break
        if cross_entropy_nakagami(p, m_hat, mean_n) < h - 1e-9:
            failures.append("cross entropy >= shannon (nakagami)")
            break

    rng = np.random.default_rng(90215)
    saved = os.environ.get("SPECSENSE_THREADS")
    try:
        for i in range(200):
            p = _random_channel(rng)
            cfg = DetectorConfig(u=int(rng.integers(1, 4)), threshold=float(rng.uniform(1.0, 12.0)))
            sim = SimConfig(trials=2000, seed=31000 + i, stream_count=int(rng.integers(2, 6)))
            os.environ["SPECSENSE_THREADS"] = "1"
            serial = simulate_average_pd(cfg, p, sim)
            os.environ["SPECSENSE_THREADS"] = "4"
            parallel = simulate_average_pd(cfg, p, sim)
            if serial.estimate != parallel.estimate:
                failures.append("determinism under parallelism")
                break
    finally:
        if saved is None:
            os.environ.pop("SPECSENSE_THREADS", None)
        else:
            os.environ["SPECSENSE_THREADS"] = saved

    ok = not failures
    return ok, "all six suites passed (200 draws each)" if ok else f"failed: {failures[0]}"


def _reference_weights(cfg: DetectorConfig) -> np.ndarray:
    """Poisson factors of the complementary series over the 1e4-term
    window, cut after the last nonzero one.

    Terms whose Poisson factor underflows to exactly zero contribute
    exactly zero, so their U coefficients are skipped without changing the
    double-precision sum.
    """
    x = 0.5 * cfg.effective_threshold
    weights = _reg_p_int_shapes(cfg.u, 10_000, x)
    live = np.nonzero(weights > 0.0)[0]
    return weights[: int(live[-1]) + 1 if live.size else 0]


def _reference_pd(weights: np.ndarray, coeff: np.ndarray) -> float:
    """Complementary series summed over the live window of `weights`;
    `coeff` is the channel's coefficient ladder, at least as long."""
    miss = float(np.sum(weights * coeff[: weights.size]))
    return min(max(1.0 - miss, 0.0), 1.0)


def criterion_9() -> tuple[bool, str]:
    """Truncation-bound sentinel and realized adaptive remainder."""
    p_probe = FadingParams.from_db(2.0, 4.0, 5.0)
    cfg_probe = DetectorConfig(u=2, threshold=7.78)
    for m in (0.3, 1.0, 2.5, 20.0):
        for ms in (1.5, 4.0):
            bound = truncation_bound(cfg_probe, FadingParams.from_db(m, ms, 5.0), 10, closed_form=True)
            if not math.isinf(bound):
                return False, f"closed-form bound finite at m={m}, m_s={ms}"

    # the u values share each channel, so build its U ladder once, as long
    # as the longest window any u needs, and slice it per point
    points = [(cfg, p, _reference_weights(cfg)) for cfg, p in _criterion4_grid()]
    rows = {}
    for _, p, weights in points:
        rows[p] = max(rows.get(p, 0), weights.size)
    ladders = {p: np.exp(_ln_series_coeff(p, 0, n)) for p, n in rows.items()}

    ctl = SeriesControl()
    worst = 0.0
    for cfg, p, weights in points:
        ref = _reference_pd(weights, ladders[p])
        worst = max(worst, abs(average_pd(cfg, p, ctl) - ref))
    ok = worst < ctl.rel_tol
    return ok, (
        f"closed-form bound is +inf for all m>0; max adaptive remainder="
        f"{worst:.2e} (<{ctl.rel_tol:.0e})"
    )


CRITERIA = {
    1: ("noise-uncertainty detection anchors", criterion_1),
    2: ("entropy closed-form table", criterion_2),
    3: ("gamma MLE recovery", criterion_3),
    4: ("series vs quadrature equivalence", criterion_4),
    5: ("Monte Carlo agreement", criterion_5),
    6: ("AUC consistency", criterion_6),
    7: ("Nakagami limit reduction", criterion_7),
    8: ("randomized property suites", criterion_8),
    9: ("truncation bound behavior", criterion_9),
}


def run_criterion(number: int) -> dict:
    name, fn = CRITERIA[number]
    t0 = time.perf_counter()
    passed, detail = fn()
    return {
        "criterion": number,
        "name": name,
        "passed": passed,
        "detail": detail,
        "seconds": time.perf_counter() - t0,
    }


def run_all(only=None) -> list[dict]:
    numbers = sorted(CRITERIA) if only is None else sorted(set(only))
    for n in numbers:
        if n not in CRITERIA:
            raise ValueError(f"unknown criterion {n}")
    return [run_criterion(n) for n in numbers]
