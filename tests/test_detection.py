"""Tests for the energy-detection probability layer.

The average-Pd series is checked against direct numerical integration of
the conditional detection probability over the SNR density (an
independent scipy route), against closed forms where they exist, and for
the documented diagnostics and failure modes.
"""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from specsense import detection, special_fn
from specsense.acceptance import _criterion4_grid
from specsense.auc import auc_instantaneous
from specsense.detection import (
    DetectorConfig,
    RocCurve,
    SeriesControl,
    average_pd,
    average_pd_detail,
    average_pd_quadrature,
    collaborative_pd,
    pd_awgn,
    pfa,
    roc_curve,
    sls_average_pd,
    sls_pfa,
    threshold_for_pfa,
    truncation_bound,
    _ln_series_coeff,
    _series_batch,
)
from specsense.fading import FadingParams, snr_pdf
from specsense.special_fn import (
    ConvergenceError,
    _ln_factorials,
    _reg_p_int_shapes,
    _upper_tails,
    marcum_q,
    poisson_pmf,
    poisson_reach,
)

CH = FadingParams.from_db(2.0, 3.0, 5.0)


def _ln_tail_bound(p, n):
    """ln of min(1, min over integers k < m_s, k <= n of E[g^k]/(n)_k), each
    k tried, with the F law's moments E[g^k] = z^k Gamma(m+k) Gamma(m_s-k)
    / (Gamma(m) Gamma(m_s))."""
    m, ms, ln_z = p.m, p.m_s, math.log(p.snr_scale)
    best = 0.0
    for k in range(1, min(n, math.ceil(ms) - 1) + 1):
        ln_moment = k * ln_z + math.lgamma(m + k) - math.lgamma(m) + math.lgamma(ms - k) - math.lgamma(ms)
        best = min(best, ln_moment - math.lgamma(n + 1.0) + math.lgamma(n - k + 1.0))
    return best


def _first_stop(u, x, p, rel_tol):
    """The first N >= 1 where P(u+N, x) B(N) <= rel_tol, B from
    _ln_tail_bound, in plain Python: P is a running sum of the Poisson(x)
    pmf from the row's top, ceil(x + 9 sqrt(x) + 40), down, and 0 past that
    top, as in the series' own tail table."""
    top = math.ceil(x + 9.0 * math.sqrt(x) + 40.0)
    tails, acc = [], 0.0
    for j in range(top, u - 1, -1):
        acc += math.exp(-x + j * math.log(x) - math.lgamma(j + 1.0))
        tails.append(acc)
    tails.reverse()  # tails[N] = P(u+N, x) for u+N <= top
    n = 1
    while (tails[n] if n < len(tails) else 0.0) * math.exp(_ln_tail_bound(p, n)) > rel_tol:
        n += 1
    return n


class TestConfigTypes:
    def test_detector_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(u=0, threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(u=2.5, threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(u=2, threshold=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=-0.1)

    def test_noise_uncertainty_factor(self):
        cfg = DetectorConfig(u=1, threshold=4.0, noise_uncertainty_db=3.0)
        assert math.isclose(cfg.alpha, 10.0 ** 0.3, rel_tol=1e-15)
        assert math.isclose(cfg.effective_threshold, 4.0 * 10.0 ** 0.6, rel_tol=1e-14)
        assert DetectorConfig(u=1, threshold=4.0).effective_threshold == 4.0

    def test_series_control_validation(self):
        with pytest.raises(ValueError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(ValueError):
            SeriesControl(max_terms=9)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SeriesControl(max_terms=1e4), "max_terms must be an integer >= 10"),
            (lambda: SeriesControl(max_terms=100.5), "max_terms must be an integer >= 10"),
            (lambda: truncation_bound(DetectorConfig(1, 5.0), CH, 1.5), "t0 must be an integer >= 1"),
        ],
        ids=["max_terms_float", "max_terms_fraction", "t0_fraction"],
    )
    def test_counts_must_be_integers(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_roc_curve_validation(self):
        with pytest.raises(ValueError):
            RocCurve(points=((0.2, 0.5), (0.1, 0.6)), sweep="x")
        with pytest.raises(ValueError):
            RocCurve(points=((0.1, 1.5),), sweep="x")
        for bad in (((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)), (0.1, 0.2), ((),)):
            with pytest.raises(ValueError):
                RocCurve(points=bad, sweep="x")
        c = RocCurve(points=((0.1, 0.3), (0.2, 0.5)), sweep="two points")
        np.testing.assert_array_equal(c.pf, [0.1, 0.2])
        np.testing.assert_array_equal(c.pd, [0.3, 0.5])


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", (math.inf, math.nan))
    def test_detector_config_fields(self, value):
        with pytest.raises(ValueError, match="^threshold must be finite"):
            DetectorConfig(u=2, threshold=value)
        with pytest.raises(ValueError, match="^noise_uncertainty_db must be finite"):
            DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=value)

    def test_roc_pf_grid_entries(self):
        cfg = DetectorConfig(u=2, threshold=1.0)
        for grid in ([0.1, math.nan], [math.nan, 0.1], [0.1, math.inf]):
            with pytest.raises(ValueError, match="^pf_grid entries must be finite"):
                roc_curve(CH, cfg, pf_grid=grid)

    @pytest.mark.parametrize(
        "snr, pd_error",
        [
            (math.inf, "^gamma must be finite"),
            (math.nan, "^gamma must be finite"),
            ("5", None),
            (b"5", None),
            (np.array([5.0]), None),
            (np.array("5"), None),
        ],
        ids=["inf", "nan", "str", "bytes", "array", "str-array"],
    )
    def test_roc_awgn_snr(self, snr, pd_error):
        # float() reads each of the last four as 5.0; pd_awgn raises
        # TypeError on them, so the ROC takes none of them either
        cfg = DetectorConfig(u=2, threshold=1.0)
        with pytest.raises(ValueError, match="^AWGN SNR must be finite"):
            roc_curve(snr, cfg, pf_grid=[0.1, 0.5])
        with pytest.raises(TypeError) if pd_error is None else pytest.raises(ValueError, match=pd_error):
            pd_awgn(cfg, snr)

    @pytest.mark.parametrize("snr", (True, np.True_, np.float32(5.0), np.int64(5), 5, np.array(5.0), np.array(5)))
    def test_roc_awgn_snr_takes_what_pd_awgn_takes(self, snr):
        cfg = DetectorConfig(u=2, threshold=1.0)
        curve = roc_curve(snr, cfg, pf_grid=[0.1, 0.5])
        assert curve.meta["awgn_snr"] == float(snr)
        lam = float(detection._thresholds(2, np.array([0.1, 0.5]))[1])
        assert curve.pd[1] == pd_awgn(DetectorConfig(2, lam), snr)


class TestFalseAlarm:
    def test_closed_forms(self):
        # u = 1: Pf = exp(-lam/2); u = 2: Pf = (1 + lam/2) exp(-lam/2)
        lam = 7.779440339734858
        assert math.isclose(pfa(DetectorConfig(u=2, threshold=lam)), 0.1, rel_tol=1e-12)
        assert math.isclose(
            pfa(DetectorConfig(u=2, threshold=lam)),
            (1.0 + lam / 2.0) * math.exp(-lam / 2.0),
            rel_tol=1e-13,
        )
        assert pfa(DetectorConfig(u=3, threshold=0.0)) == 1.0
        for lam in (0.5, 4.0, 11.0):
            assert math.isclose(
                pfa(DetectorConfig(u=1, threshold=lam)), math.exp(-lam / 2.0), rel_tol=1e-13
            )

    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8, 16, 32, 100, 300, 500])
    def test_against_arbitrary_precision(self, u):
        # Pf = Q(u, x) at x = lam/2, taken as the squared root pfa squares,
        # down to x = 0, subnormal x and x where Q underflows to 0
        xs = np.concatenate((
            [0.0, 5e-324, 1e-310],
            np.geomspace(1e-300, 1e5, 90),
            [u + k * math.sqrt(u) for k in (-3, -1, 0, 1, 3) if u + k * math.sqrt(u) > 0],
        ))
        tiny = np.finfo(float).tiny
        underflows = 0
        for x in xs:
            cfg = DetectorConfig(u, 2.0 * float(x))
            b = math.sqrt(cfg.threshold)
            got = pfa(cfg)
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(u, 0.5 * b * b, regularized=True))
            if want < tiny:
                underflows += got == 0.0
                assert got < tiny
            else:
                assert abs(got - want) <= 1e-12 * want, (x, got, want)
        assert underflows > 0

    def test_pfa_ignores_noise_uncertainty(self):
        # the nominal threshold sets the false-alarm rate
        a = pfa(DetectorConfig(u=2, threshold=6.0, noise_uncertainty_db=2.0))
        b = pfa(DetectorConfig(u=2, threshold=6.0))
        assert a == b


class TestThresholdInversion:
    def test_frozen_anchors(self):
        # the solver promises pfa(lam) equal to the target to double
        # precision, so lam itself is pinned only up to the local slope of
        # the tail function
        for (u, target), want in (
            ((1, 0.1), 4.6051701859880913),
            ((2, 0.1), 7.779440339734858),
            ((3, 0.1), 10.64464067566842),
            ((2, 0.01), 13.276704135987624),
            ((3, 1e-4), 27.856341236013917),
        ):
            assert math.isclose(threshold_for_pfa(u, target), want, rel_tol=1e-9)

    def test_exponential_case_closed_form(self):
        # at u = 1 the exact inverse is -2 ln(target); a 1e-12 pfa
        # tolerance translates to a lambda window of 2e-12/target
        for p in (0.3, 0.05, 1e-6):
            got = threshold_for_pfa(1, p)
            assert abs(got - (-2.0 * math.log(p))) <= 2.1e-12 / p
            assert abs(math.exp(-got / 2.0) - p) <= 1e-12

    def test_round_trips(self):
        for u in (1, 2, 3, 4, 5):
            for target in (0.9, 0.5, 0.1, 1e-3, 1e-8):
                lam = threshold_for_pfa(u, target)
                assert abs(pfa(DetectorConfig(u=u, threshold=lam)) - target) <= 1e-12

    @pytest.mark.parametrize("u", (1, 2, 8, 32))
    @pytest.mark.parametrize("target", (1e-15, 1e-13, 1e-10, 0.1, 0.999))
    def test_relative_accuracy_down_to_deep_targets(self, u, target):
        lam = threshold_for_pfa(u, target)
        assert abs(pfa(DetectorConfig(u=u, threshold=lam)) - target) <= 1e-12 * target

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            threshold_for_pfa(2, 0.0)
        with pytest.raises(ValueError):
            threshold_for_pfa(2, 1.0)
        with pytest.raises(ValueError):
            threshold_for_pfa(0, 0.1)

    @pytest.mark.parametrize("u", tuple(range(1, 65)) + (100, 200, 500))
    def test_property_grid(self, u):
        grid = np.unique(np.concatenate((np.geomspace(1e-15, 0.999, 60), [0.5, 1.0 - 1e-9])))
        lam = detection._thresholds(u, grid)
        got = special.gammaincc(u, 0.5 * lam)
        bound = 1e-12 if u <= 64 else 5e-12
        assert np.max(np.abs(got - grid) / grid) <= bound
        assert np.all(np.diff(lam) < 0.0)
        for i, p in enumerate(grid):
            assert threshold_for_pfa(u, float(p)) == lam[i]

    @pytest.mark.parametrize("u", (1, 2, 8, 128, 374, 1000))
    def test_targets_next_to_one(self, u):
        # ln Q cannot resolve these; the inversion switches to ln P, which
        # holds the complement 1 - pf to a relative 1e-11
        for pf in (1.0 - 1e-7, 1.0 - 1e-13, 1.0 - 1e-15):
            lam = threshold_for_pfa(u, pf)
            assert lam > 0.0
            assert abs(special.gammainc(u, 0.5 * lam) - (1.0 - pf)) <= 1e-11 * (1.0 - pf)

    def test_tables_take_ln_factorials_from_one_source(self, monkeypatch, cold_ladders):
        # ln k! as a list comprehension over math.lgamma gives the same
        # thresholds, bit for bit
        def reference(lo, hi):
            calls.append((lo, hi))
            return np.array([math.lgamma(j + 1.0) for j in range(lo, hi + 1)])

        grid = np.concatenate((np.geomspace(1e-15, 0.999, 60), [1.0 - 1e-7, 1.0 - 1e-13]))
        us = (1, 2, 8, 32, 336)
        got = {u: detection._thresholds(u, grid) for u in us}
        calls = []
        monkeypatch.setattr(detection, "_ln_factorials", reference)
        for u in us:
            assert np.array_equal(detection._thresholds(u, grid), got[u])
        assert calls

    @pytest.mark.parametrize("pf, want", ((0.01, 20014716.057070892), (1.0 - 1e-7, 19967133.855399594)))
    def test_large_u_is_bounded_in_memory(self, pf, want, cold_ladders):
        # each Halley step sums O(sqrt(x)) terms, about 0.9 MiB of
        # temporaries at u = 1e7, and keeps nothing
        tracemalloc.start()
        try:
            lam = threshold_for_pfa(10**7, pf)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # frozen values; within a few ulp, as numpy's exp may round
        # differently on another CPU
        assert math.isclose(lam, want, rel_tol=1e-15)
        assert peak <= 4 << 20
        assert retained <= 1 << 16 and _memo_tables(special_fn._u_tables) == []

    def test_iteration_cap_names_u_and_pf(self, monkeypatch):
        monkeypatch.setattr(detection, "_MAX_HALLEY", 1)
        with pytest.raises(ConvergenceError, match=r"u=5, pf=0\.01\)"):
            threshold_for_pfa(5, 0.01)


class TestAwgnDetection:
    def test_boundary_cases(self):
        cfg = DetectorConfig(u=2, threshold=6.0)
        assert pd_awgn(cfg, 0.0) == pfa(cfg)
        assert pd_awgn(DetectorConfig(u=2, threshold=0.0), 1.3) == 1.0

    @pytest.mark.parametrize("u", [1, 2, 5, 32, 300])
    def test_zero_snr_is_the_false_alarm(self, u):
        for lam in (1e-9, 0.5, 6.0, 2.0 * u, 77.7, 4e3):
            cfg = DetectorConfig(u, lam)
            assert pd_awgn(cfg, 0.0) == pfa(cfg)

    def test_equals_marcum(self):
        got = pd_awgn(DetectorConfig(u=1, threshold=0.5), 2.0)
        assert got == marcum_q(1, 2.0, math.sqrt(0.5))

    def test_against_noncentral_chi_square(self):
        # statistic ~ noncentral chi-square, 2u dof, noncentrality 2 gamma
        for u in (1, 2, 4):
            for gamma in (0.3, 2.0, 9.0):
                for lam in (1.0, 6.5, 20.0):
                    cfg = DetectorConfig(u=u, threshold=lam)
                    want = stats.ncx2.sf(lam, 2 * u, 2.0 * gamma)
                    assert math.isclose(pd_awgn(cfg, gamma), want, rel_tol=1e-10)

    def test_noise_uncertainty_degrades_detection(self):
        lam = threshold_for_pfa(2, 0.1)
        clean = pd_awgn(DetectorConfig(u=2, threshold=lam), 3.0)
        rough = pd_awgn(DetectorConfig(u=2, threshold=lam, noise_uncertainty_db=2.0), 3.0)
        assert rough < clean

    @pytest.mark.parametrize(
        "threshold, gamma, want", [(1e13, 10.0, 0.0), (1e16, 10.0, 0.0), (1e-3, 1e13, 1.0)]
    )
    def test_far_tails_are_exact_and_cheap(self, threshold, gamma, want):
        tracemalloc.start()
        try:
            got = pd_awgn(DetectorConfig(2, threshold), gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("u", [1, 2, 8, 32, 200])
    def test_roc_is_pd_awgn_and_matches_noncentral_chi_square(self, u):
        # one path: each ROC point is pd_awgn at its threshold, bit for bit,
        # and both stay relative down to Pd of 1e-30
        grid = np.geomspace(1e-12, 0.999, 40)
        lams = np.array([threshold_for_pfa(u, pf) for pf in grid])
        worst = 0.0
        for gamma in (0.1, 1.0, 3.16, 31.6, 1000.0, 1e4):
            for beta in (0.0, 2.0):
                curve = roc_curve(gamma, DetectorConfig(u=u, threshold=1.0, noise_uncertainty_db=beta), grid)
                for lam, got in zip(lams, curve.pd):
                    cfg = DetectorConfig(u=u, threshold=float(lam), noise_uncertainty_db=beta)
                    assert got == pd_awgn(cfg, gamma)
                    want = stats.ncx2.sf(cfg.effective_threshold, 2 * u, 2.0 * gamma)
                    if want >= 1e-30:
                        worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12


class TestAveragePd:
    def test_zero_threshold(self):
        assert average_pd(DetectorConfig(u=2, threshold=0.0), CH) == 1.0

    def test_noise_uncertainty_folds_into_threshold(self):
        cfg_a = DetectorConfig(u=2, threshold=10.0, noise_uncertainty_db=1.0)
        cfg_b = DetectorConfig(u=2, threshold=cfg_a.effective_threshold)
        assert average_pd(cfg_a, CH) == average_pd(cfg_b, CH)

    def test_against_quadrature(self):
        for u, p, lam in (
            (1, FadingParams(m=1.0, m_s=1.1, mean_snr=2.0), 4.0),
            (2, FadingParams(m=3.5, m_s=4.3, mean_snr=5.0), 10.0),
            (3, FadingParams(m=0.7, m_s=2.0, mean_snr=0.5), 15.0),
            (2, FadingParams(m=20.0, m_s=30.0, mean_snr=1.0), 7.0),
        ):
            cfg = DetectorConfig(u=u, threshold=lam)
            assert abs(average_pd(cfg, p) - average_pd_quadrature(cfg, p)) < 1e-8

    def test_detail_diagnostics(self):
        pd_val, used, last = average_pd_detail(DetectorConfig(u=2, threshold=7.0), CH)
        assert pd_val == average_pd(DetectorConfig(u=2, threshold=7.0), CH)
        assert 10 <= used <= 200
        assert 0.0 <= last < 1e-10
        assert average_pd_detail(DetectorConfig(u=2, threshold=0.0), CH) == (1.0, 0, 0.0)

    def test_last_term_keeps_its_accuracy_past_the_series_table(self):
        # at rel_tol=1e-300, u+N-1 = 680 is the top of the series' own tail
        # table, which read P(680, x) about 3 times too small
        cfg = DetectorConfig(u=336, threshold=threshold_for_pfa(336, 1e-8))
        _, used, last = average_pd_detail(cfg, CH, SeriesControl(rel_tol=1e-300))
        tail = _reg_p_int_shapes(cfg.u + used - 1, 1, 0.5 * cfg.effective_threshold)[0]
        assert last > 0.0
        assert last == detection._ladder(CH, used)[used - 1] * tail

    def test_truncation_failure_raises(self):
        with pytest.raises(ConvergenceError):
            average_pd(DetectorConfig(u=2, threshold=60.0), CH, SeriesControl(max_terms=10))

    def test_truncation_failure_names_parameters(self):
        cfg = DetectorConfig(u=2, threshold=60.0)
        with pytest.raises(ConvergenceError) as info:
            average_pd(cfg, CH, SeriesControl(rel_tol=1e-300, max_terms=10))
        msg = str(info.value)
        for part in ("u=2", "lam=60.0", f"m={CH.m}", f"m_s={CH.m_s}", f"snr={CH.mean_snr}"):
            assert part in msg

    def test_tiny_z_raises_without_a_numpy_warning(self):
        # z is about 7e-22 here, so lin + disc rounds to 0 in the unused
        # branch of the ladder's mode; the row fails to converge, and says so
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.63))
        p = FadingParams.from_db(7273.85, 1.0 + 2.2e-16, -16.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="ln_tricomi_u_grid quadrature"):
                average_pd(cfg, p)

    def test_stops_within_rel_tol_at_a_deep_target(self):
        # pd_scatter seed 7041, round 11, query 33: a stop after three small
        # terms gave 2.93e-9 after 124 terms, where the oracle and a
        # rel_tol=1e-16 sum give 6.95e-10
        ch = FadingParams(m=12.076910843575192, m_s=3.706436347537164, mean_snr=0.4249692944307139)
        lam = threshold_for_pfa(8, 2.309243887087424e-14)
        cfg = DetectorConfig(u=8, threshold=lam, noise_uncertainty_db=2.8938335889037337)
        assert abs(average_pd(cfg, ch) - average_pd_quadrature(cfg, ch)) <= 1e-10

    def test_contract_over_the_box(self):
        # the u=336 case that a stop after three small terms missed by
        # 2.5e-10, then 40 seeded draws over m in [0.1, 50], m_s - 1 in
        # [1e-3, 1e4], -5..25 dB, u <= 500, Pf >= 1e-15 and beta <= 6 dB. Pd
        # lies within rel_tol plus the ladder defect (1e-12) of the oracle
        # and in [0, 1], and does not rise with the threshold or beta beyond
        # twice that. A 64-term budget either meets the same contract or
        # raises ConvergenceError naming the case. About 2-4 s on a 2-CPU
        # machine; the bounds are 60 s and 64 MiB of traced allocations.
        tol = SeriesControl().rel_tol + 1e-12
        rng = np.random.default_rng(12)
        cases = [(336, 1e-3, 0.0, FadingParams.from_db(0.57, 2.33, 1.9))]
        for _ in range(40):
            u = int(math.exp(rng.uniform(0.0, math.log(500.0))))
            pf, beta = 10.0 ** rng.uniform(-15.0, -0.5), rng.uniform(0.0, 6.0)
            cases.append((u, pf, beta, FadingParams.from_db(
                10.0 ** rng.uniform(-1.0, math.log10(50.0)),
                1.0 + 10.0 ** rng.uniform(-3.0, 4.0),
                rng.uniform(-5.0, 25.0),
            )))
        t0 = time.perf_counter()
        raised = 0
        for u, pf, beta, p in cases:
            cfg = DetectorConfig(u, threshold_for_pfa(u, pf), noise_uncertainty_db=beta)
            tracemalloc.start()
            try:
                pd_val = average_pd(cfg, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2**20
            want = average_pd_quadrature(cfg, p)
            assert abs(pd_val - want) <= tol, (cfg, p, pd_val, want)
            assert 0.0 <= pd_val <= 1.0
            higher = DetectorConfig(u, 1.05 * cfg.threshold, noise_uncertainty_db=beta)
            assert average_pd(higher, p) <= pd_val + 2.0 * tol
            rougher = DetectorConfig(u, cfg.threshold, noise_uncertainty_db=beta + 0.5)
            assert average_pd(rougher, p) <= pd_val + 2.0 * tol
            try:
                assert abs(average_pd(cfg, p, SeriesControl(max_terms=64)) - want) <= tol
            except ConvergenceError as exc:
                raised += 1
                for part in (f"u={u}", f"lam={cfg.effective_threshold}", f"m={p.m}",
                             f"m_s={p.m_s}", f"snr={p.mean_snr}"):
                    assert part in str(exc)
        assert 0 < raised < len(cases)
        assert time.perf_counter() - t0 < 60.0

    def test_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = FadingParams(
                m=float(rng.uniform(0.5, 15.0)),
                m_s=float(rng.uniform(1.05, 25.0)),
                mean_snr=float(10.0 ** rng.uniform(-1.0, 1.5)),
            )
            cfg = DetectorConfig(u=int(rng.integers(1, 4)), threshold=float(rng.uniform(0.1, 40.0)))
            val = average_pd(cfg, p)
            assert 0.0 <= val <= 1.0


class TestQuadratureOracle:
    def test_finds_a_narrow_density_peak(self):
        # the linear-axis oracle missed this peak entirely and returned 1.0
        cfg = DetectorConfig(8, threshold_for_pfa(8, 1e-3), noise_uncertainty_db=3.8)
        assert average_pd_quadrature(cfg, FadingParams.from_db(39.0, 951.7, -3.5)) <= 1e-9

    def test_converges_next_to_m_s_one(self):
        # the linear-axis oracle raised on 7 of these 40 channels
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            p = FadingParams.from_db(
                10.0 ** rng.uniform(-1.0, math.log10(50.0)),
                1.0 + rng.uniform(1e-3, 1.6e-2),
                rng.uniform(-5.0, 25.0),
            )
            u = int(rng.integers(1, 9))
            cfg = DetectorConfig(u, threshold_for_pfa(u, 10.0 ** rng.uniform(-6.0, -1.0)))
            assert abs(average_pd_quadrature(cfg, p) - average_pd(cfg, p)) <= 1e-8

    def test_property_box(self):
        # 60 draws over m in [0.1, 50], m_s - 1 in [1e-3, 1e4], -5..25 dB,
        # u <= 500, Pf >= 1e-15 and beta <= 6 dB take about 3 s on a 2-CPU
        # machine; the bound is 30 s. Pd must converge, lie in [0, 1], not
        # rise with the threshold beyond the oracle's epsabs, and match the
        # series to criterion 4's 1e-6.
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        for _ in range(60):
            p = FadingParams.from_db(
                10.0 ** rng.uniform(-1.0, math.log10(50.0)),
                1.0 + 10.0 ** rng.uniform(-3.0, 4.0),
                rng.uniform(-5.0, 25.0),
            )
            u = int(math.exp(rng.uniform(0.0, math.log(500.0))))
            lam = threshold_for_pfa(u, 10.0 ** rng.uniform(-15.0, -0.5))
            beta = rng.uniform(0.0, 6.0)
            cfg = DetectorConfig(u, lam, noise_uncertainty_db=beta)
            pd_val = average_pd_quadrature(cfg, p)
            assert 0.0 <= pd_val <= 1.0
            higher = DetectorConfig(u, 1.05 * lam, noise_uncertainty_db=beta)
            assert average_pd_quadrature(higher, p) <= pd_val + 1e-11
            assert abs(pd_val - average_pd(cfg, p)) <= 1e-6, (cfg, p)
        assert time.perf_counter() - t0 < 30.0

    def test_failure_names_parameters(self, monkeypatch):
        monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (0.5, 2e-7))
        cfg = DetectorConfig(u=2, threshold=9.5)
        with pytest.raises(ConvergenceError) as info:
            average_pd_quadrature(cfg, CH)
        msg = str(info.value)
        for part in ("2e-07", "u=2", "lam_eff=9.5", f"m={CH.m}", f"m_s={CH.m_s}",
                     f"snr={CH.mean_snr}"):
            assert part in msg


class TestPartialSums:
    def test_truncation_bound_dominates_remainder(self):
        # the realized remainder sum_{n>=t0} c_n P(u+n, x) of the series
        # average_pd sums; t0 = 80 and 160 lie past the series' Poisson table
        cfg = DetectorConfig(u=2, threshold=8.0)
        p = FadingParams(m=2.0, m_s=6.0, mean_snr=2.0)
        coeff = np.exp(_ln_series_coeff(p, 0, 400))
        tails = _reg_p_int_shapes(cfg.u, 400, 0.5 * cfg.threshold)
        bounds = []
        for t0 in (5, 10, 20, 40, 80, 160):
            realized = float(np.sum(coeff[t0:] * tails[t0:]))
            bound = truncation_bound(cfg, p, t0)
            assert bound >= realized > 0.0
            bounds.append(bound)
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("rel_tol", (1e-10, 1e-14))
    def test_series_stops_where_the_bound_first_meets_rel_tol(self, rel_tol):
        ctl = SeriesControl(rel_tol=rel_tol)
        for cfg, p in _criterion4_grid():
            want = _first_stop(cfg.u, 0.5 * cfg.effective_threshold, p, rel_tol)
            while truncation_bound(cfg, p, want) > rel_tol:
                want += min(max(detection._MIN_BLOCK, want // 2), detection._MAX_BLOCK)
            assert average_pd_detail(cfg, p, ctl)[1] == want, (cfg, p)

    def test_tail_bound_dominates_the_ladder_tail(self):
        # B(N) >= 1 - C_{N-1}, the ladder's running sum taken by fsum, less
        # the ladder's defect; and B(N) >= the ladder's own terms from N on,
        # relatively, where 1 - C_{N-1} is below rounding. B is the least of
        # the bounds over every k, tried one by one. Over the criterion-4
        # channels and 24 drawn over test_contract_over_the_box's ranges
        rng = np.random.default_rng(25)
        chans = {p for _, p in _criterion4_grid()} | {
            FadingParams.from_db(
                10.0 ** rng.uniform(-1.0, math.log10(50.0)),
                1.0 + 10.0 ** rng.uniform(-3.0, 4.0),
                rng.uniform(-5.0, 25.0),
            )
            for _ in range(24)
        }
        width = 200
        for p in chans:
            coeff = detection._ladder(p, width)[:width].tolist()
            bound = detection._ladder_tail_bound(p, width)
            for n in range(width):
                assert bound[n] >= 1.0 - math.fsum(coeff[:n]) - 1e-12, (p, n)
                assert bound[n] >= math.fsum(coeff[n:]) * (1.0 - 1e-10), (p, n)
                assert bound[n] == pytest.approx(math.exp(_ln_tail_bound(p, n)), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "u, m, ms, snr_db",
        [(1, 5.6, 2.7, 3.0), (2, 1.0, 1.1, 15.0), (2, 1.3, 30.0, 15.0), (3, 1.3, 1.1, 7.0), (3, 20.0, 1.1, 0.0)],
    )
    def test_bound_factors_match_scipy(self, u, m, ms, snr_db):
        # 1 - C_{t0-1} = sum_{n>=t0} E[Pois(n; g)] = int f(g) P(t0, g) dg, so
        # each factor of the bound has an independent scipy form; checked at
        # the terms average_pd stops at, on criterion-4 channels
        cfg = DetectorConfig(u, threshold_for_pfa(u, 0.1))
        p = FadingParams.from_db(m, ms, snr_db)
        t0 = average_pd_detail(cfg, p)[1]
        ladder_tail, _ = integrate.quad(
            lambda g: snr_pdf(p, g) * special.gammainc(t0, g), 0.0, np.inf,
            limit=400, epsabs=0.0, epsrel=1e-13,
        )
        want = special.gammainc(u + t0, 0.5 * cfg.threshold) * ladder_tail
        assert truncation_bound(cfg, p, t0) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("u", [1, 2, 3, 8, 32, 200])
    def test_tail_is_the_wide_table_entry(self, u):
        # truncation_bound reads P(u+t0, x) from a one-column window, which
        # has the top of the (t0+1)-wide table and is summed in its order
        x = np.geomspace(1e-4, 3000.0, 40)
        for t0 in (1, 2, 7, 40, 333, 5000):
            wide = _reg_p_int_shapes(u, t0 + 1, x)[:, t0]
            assert np.array_equal(_reg_p_int_shapes(u + t0, 1, x)[:, 0], wide)
            rest = 1.0 - np.cumsum(detection._ladder(CH, t0)[:t0])[-1]
            want = [float(w * rest) if w else 0.0 for w in wide]
            assert [truncation_bound(DetectorConfig(u, 2.0 * v), CH, t0) for v in x] == want

    def test_underflowed_bound_leaves_the_ladder_alone(self, cold_ladders):
        # P(u+t0, x) underflows long before t0 = 20000, so the bound is 0
        # without building a ladder twice max_terms long
        cfg = DetectorConfig(2, 8.0)
        for warm in (False, True):
            if warm:
                average_pd(cfg, CH)
            before = _ladder_rows(CH)
            assert truncation_bound(cfg, CH, 20000) == 0.0
            after = _ladder_rows(CH)
            assert after <= before

    def test_bound_is_never_negative(self):
        # 1 - C_{N-1} is rounding once the ladder sums to 1, and it rounded
        # below 0 at six criterion-4 points, u=3, m=20, m_s=30 at 0 dB with
        # N=31 the lowest at -1.75e-30
        for cfg, p in _criterion4_grid():
            assert truncation_bound(cfg, p, average_pd_detail(cfg, p)[1]) >= 0.0, (cfg, p)

    def test_zero_threshold_leaves_no_remainder(self):
        assert truncation_bound(DetectorConfig(2, 0.0), CH, 10) == 0.0

    def test_closed_form_bound_is_infinite(self):
        # the hypergeometric 1F0 majorant diverges, so the closed-form
        # variant reports an unusable (infinite) bound by design
        assert truncation_bound(DetectorConfig(u=1, threshold=5.0), CH, 10, closed_form=True) == math.inf
        assert math.isfinite(truncation_bound(DetectorConfig(u=1, threshold=5.0), CH, 10))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            truncation_bound(DetectorConfig(u=1, threshold=5.0), CH, 0)


class TestFusionRules:
    def test_or_and_closed_forms(self):
        assert collaborative_pd(0.5, 2, "or") == 0.75
        assert collaborative_pd(0.5, 2, "and") == 0.25
        assert collaborative_pd(0.37, 1, "or") == 0.37
        assert math.isclose(collaborative_pd(0.1, 4, "or"), 1.0 - 0.9 ** 4, rel_tol=1e-15)
        assert math.isclose(collaborative_pd(0.1, 4, "and"), 1e-4, rel_tol=1e-12)

    def test_single_user_returns_its_own_probability(self):
        # 1 - (1 - p) ** 1 rounds away from p, at p = 0.1 for one
        probs = np.random.default_rng(29).uniform(0.0, 1.0, 200).tolist() + [0.0, 0.1, 1.0]
        for p in probs:
            assert collaborative_pd(p, 1, "or") == p
            assert collaborative_pd(p, 1, "and") == p

    def test_or_dominates_and(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = float(rng.uniform(0.0, 1.0))
            n = int(rng.integers(1, 9))
            assert collaborative_pd(p, n, "or") >= collaborative_pd(p, n, "and")

    def test_validation(self):
        with pytest.raises(ValueError):
            collaborative_pd(1.2, 2, "or")
        with pytest.raises(ValueError):
            collaborative_pd(0.5, 0, "or")
        with pytest.raises(ValueError):
            collaborative_pd(0.5, 2, "xor")


class TestSquareLawSelection:
    def test_single_branch_reduces_to_plain(self):
        cfg = DetectorConfig(u=2, threshold=7.0)
        assert sls_pfa(2, 7.0, 1) == pfa(cfg)
        assert sls_average_pd(cfg, [CH]) == average_pd(cfg, CH)

    def test_false_alarm_closed_form(self):
        # branch Pf = exp(-lam/2) at u = 1; two branches: 1 - (1 - Pf)^2
        lam = 2.0 * math.log(10.0)
        assert math.isclose(sls_pfa(1, lam, 2), 1.0 - 0.81, rel_tol=1e-12)

    def test_identical_branches_identity(self):
        cfg = DetectorConfig(u=2, threshold=7.0)
        one = average_pd(cfg, CH)
        two = sls_average_pd(cfg, [CH, CH])
        assert math.isclose(two, 1.0 - (1.0 - one) ** 2, rel_tol=1e-12)

    def test_more_branches_help(self):
        cfg = DetectorConfig(u=2, threshold=9.0)
        vals = [sls_average_pd(cfg, [CH] * n) for n in (1, 2, 4)]
        assert vals[0] < vals[1] < vals[2]
        assert sls_pfa(2, 9.0, 1) < sls_pfa(2, 9.0, 2) < sls_pfa(2, 9.0, 4)

    @pytest.mark.parametrize("branches", [[CH] * 4, [CH, FadingParams.from_db(1.3, 2.7, 6.0), CH]])
    def test_roc_sums_each_distinct_branch_once(self, branches, monkeypatch):
        calls = []
        batch = detection._series_batch

        def counted(*args):
            calls.append(args[2])
            return batch(*args)

        monkeypatch.setattr(detection, "_series_batch", counted)
        grid = np.geomspace(1e-4, 0.9, 25)
        curve = roc_curve(branches, DetectorConfig(u=2, threshold=1.0), grid)
        assert len(calls) == len(set(branches))
        unit = 1.0 - (1.0 - grid) ** (1.0 / len(branches))
        for pf_i, u_pf, (got_pf, got_pd) in zip(grid, unit, curve.points):
            cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, u_pf))
            assert (got_pf, got_pd) == (pf_i, sls_average_pd(cfg, branches))

    def test_validation(self):
        with pytest.raises(ValueError):
            sls_pfa(2, 7.0, 0)
        with pytest.raises(ValueError):
            sls_average_pd(DetectorConfig(u=2, threshold=7.0), [])


class TestRocCurve:
    def test_zero_snr_is_chance_line(self):
        grid = np.geomspace(1e-4, 0.99, 30)
        curve = roc_curve(0.0, DetectorConfig(u=2, threshold=1.0), pf_grid=grid)
        assert float(np.max(np.abs(curve.pd - curve.pf))) < 1e-11

    def test_detection_beats_chance_under_fading(self):
        grid = np.geomspace(1e-3, 0.99, 25)
        curve = roc_curve(CH, DetectorConfig(u=2, threshold=1.0), pf_grid=grid)
        assert np.all(curve.pd >= curve.pf)
        assert curve.meta["kind"] == "fading"
        assert curve.meta["channel"] == (CH.m, CH.m_s, CH.mean_snr)

    def test_rayleigh_overlay_against_exponential_quadrature(self):
        # m = 1 with very large m_s approximates Rayleigh fading, whose
        # average Pd is an exponential-weighted integral we can do directly
        u = 2
        ch = FadingParams(m=1.0, m_s=1e4, mean_snr=10.0 ** 0.5)
        grid = np.geomspace(1e-3, 0.9, 8)
        curve = roc_curve(ch, DetectorConfig(u=u, threshold=1.0), pf_grid=grid)
        for pf_i, pd_i in curve.points:
            lam = threshold_for_pfa(u, pf_i)
            want, _ = integrate.quad(
                lambda g: stats.ncx2.sf(lam, 2 * u, 2.0 * g) * math.exp(-g / ch.mean_snr) / ch.mean_snr,
                0.0,
                np.inf,
                limit=300,
            )
            assert abs(pd_i - want) < 1e-3

    def test_default_grid(self):
        curve = roc_curve(1.0, DetectorConfig(u=1, threshold=1.0))
        assert len(curve.points) == 200
        assert curve.pf[0] == pytest.approx(1e-4)
        assert curve.pf[-1] == pytest.approx(0.999)

    def test_fusion_path_matches_manual_composition(self):
        grid = np.array([0.05, 0.2, 0.6])
        n = 4
        curve = roc_curve(CH, DetectorConfig(u=2, threshold=1.0), pf_grid=grid, fusion="or", n_users=n)
        for pf_i, pd_i in curve.points:
            unit_pf = 1.0 - (1.0 - pf_i) ** (1.0 / n)
            lam = threshold_for_pfa(2, unit_pf)
            unit_pd = average_pd(DetectorConfig(u=2, threshold=lam), CH)
            assert math.isclose(pd_i, 1.0 - (1.0 - unit_pd) ** n, rel_tol=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_one_unit_is_the_plain_curve(self, beta):
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=beta)
        plain = roc_curve(CH, cfg)
        for curve in (roc_curve(CH, cfg, fusion="or", n_users=1),
                      roc_curve(CH, cfg, fusion="and", n_users=1), roc_curve([CH], cfg)):
            assert np.array_equal(curve.pf, plain.pf)
            assert np.array_equal(curve.pd, plain.pd)

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_fusion_points_match_the_scalar_path(self, beta):
        # Each point is collaborative_pd of the single-threshold average_pd
        # at its unit threshold. The ROC raises a numpy array to the n-th
        # power and collaborative_pd a Python float, and the two may round
        # an ulp apart (68 of these 3,200 points with numpy 2.4 on x86-64):
        # so within 2 ulp of 1.0 for OR, whose power is subtracted from 1,
        # and 2 ulp of the value for AND. One user is exact.
        for rule in ("or", "and"):
            for n in (1, 2, 3, 8):
                curve = roc_curve(CH, DetectorConfig(2, 1.0, beta), fusion=rule, n_users=n)
                for pf_k, got in zip(detection._unit_target(curve.pf, n, rule), curve.pd):
                    cfg_k = DetectorConfig(2, threshold_for_pfa(2, float(pf_k)), beta)
                    want = collaborative_pd(average_pd(cfg_k, CH), n, rule)
                    tol = 0.0 if n == 1 else 2.0 * np.spacing(1.0 if rule == "or" else want)
                    assert abs(got - want) <= tol, (rule, n, pf_k)

    def test_sls_points_recover_target_false_alarm(self):
        curve = roc_curve([CH, CH], DetectorConfig(u=2, threshold=1.0), pf_grid=np.array([0.1, 0.5]))
        assert curve.meta["kind"] == "sls"
        for pf_i, pd_i in curve.points:
            unit = 1.0 - (1.0 - pf_i) ** 0.5
            lam = threshold_for_pfa(2, unit)
            assert abs(sls_pfa(2, lam, 2) - pf_i) < 1e-10
            assert pd_i == sls_average_pd(DetectorConfig(u=2, threshold=lam), [CH, CH])

    def test_curve_holds_read_only_arrays(self):
        grid = np.geomspace(1e-3, 0.9, 12)
        curve = roc_curve(CH, DetectorConfig(u=2, threshold=1.0), pf_grid=grid)
        assert curve.points == tuple(zip(grid.tolist(), curve.pd.tolist()))
        assert all(type(v) is float for pair in curve.points for v in pair)
        for arr in (curve.pf, curve.pd):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert grid.flags.writeable

    def test_each_grid_is_inverted_once(self, monkeypatch, cold_ladders):
        calls = []
        invert = detection._thresholds

        def counted(u, pf):
            calls.append(u)
            return invert(u, pf)

        monkeypatch.setattr(detection, "_thresholds", counted)
        grid = np.geomspace(1e-4, 0.9, 30)
        first = roc_curve(CH, DetectorConfig(u=2, threshold=1.0), grid)
        roc_curve(FIGURE_CHANNELS[1], DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0), grid)
        roc_curve(2.0, DetectorConfig(u=2, threshold=1.0), grid)
        roc_curve(CH, DetectorConfig(u=5, threshold=1.0), grid)
        assert calls == [2, 5]
        assert roc_curve(CH, DetectorConfig(u=2, threshold=1.0), grid).points == first.points

    def test_validation(self):
        cfg = DetectorConfig(u=2, threshold=1.0)
        with pytest.raises(ValueError):
            roc_curve(CH, cfg, pf_grid=np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            roc_curve(CH, cfg, pf_grid=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            roc_curve(CH, cfg, pf_grid=np.array([0.1, 0.5]), fusion="majority")
        with pytest.raises(ValueError):
            roc_curve([CH, CH], cfg, pf_grid=np.array([0.1, 0.5]), fusion="or")
        with pytest.raises(ValueError):
            roc_curve(-1.0, cfg, pf_grid=np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            roc_curve([], cfg, pf_grid=np.array([0.1, 0.5]))


class TestBlockLadder:
    def test_ladder_grows_only_as_far_as_the_series_runs(self, monkeypatch, cold_ladders):
        rows = []
        ladder = detection.ln_tricomi_u_grid

        def counted(a, b_values, z):
            rows.append(np.size(b_values))
            return ladder(a, b_values, z)

        monkeypatch.setattr(detection, "ln_tricomi_u_grid", counted)
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.1))
        ctl = SeriesControl(rel_tol=1e-300, max_terms=600)
        first = average_pd_detail(cfg, CH, ctl)
        _, used, _ = first
        # the first point is where P(u+N, x) B(N) first reads at most 1e-300,
        # at the latest once u+N passes the row's Poisson table, x + 9 sqrt(x)
        # + 40 = 62 here; the ladder is built to that point and no further
        assert used == _first_stop(2, 0.5 * cfg.threshold, CH, 1e-300) <= 61
        assert sum(rows) == used
        rows.clear()
        assert average_pd_detail(cfg, CH, ctl) == first
        assert sum(rows) == 0

    def test_ladder_builds_at_most_a_block_per_call(self, monkeypatch, cold_ladders):
        calls = []
        ladder = detection.ln_tricomi_u_grid

        def counted(a, b_values, z):
            calls.append(np.size(b_values))
            return ladder(a, b_values, z)

        monkeypatch.setattr(detection, "ln_tricomi_u_grid", counted)
        grown = detection._ladder(CH, 600)
        assert calls == [256, 256, 88]
        assert np.array_equal(grown, np.exp(_ln_series_coeff(CH, 0, 600)))
        calls.clear()
        assert detection._ladder(CH, 700).shape == (700,)
        assert calls == [100]

    def test_blocks_match_one_shot_window(self):
        # reference: one generously sized ladder batch and its Poisson tails,
        # cut by the same remainder bound on the same schedule
        ctl = SeriesControl()
        for cfg, p in _criterion4_grid():
            x = 0.5 * cfg.effective_threshold
            window = int(math.ceil(x + 20.0 * math.sqrt(x) + 40.0)) + cfg.u + 16
            coeff = np.exp(_ln_series_coeff(p, 0, window))
            tails = _reg_p_int_shapes(cfg.u, window, x)
            stop = _first_stop(cfg.u, x, p, ctl.rel_tol)
            while tails[stop] * (1.0 - float(np.sum(coeff[:stop]))) > ctl.rel_tol:
                stop += min(max(16, stop // 2), 256)
            got, used = _series_batch(cfg.u, [cfg.effective_threshold], p, ctl)
            assert used[0] == stop
            assert abs(got[0] - (1.0 - float(np.sum(tails[:stop] * coeff[:stop])))) <= 1e-13

    def test_rows_are_the_direct_running_sum(self, cold_ladders):
        # each ROC row is 1 - sum_{n<N} c_n P(u+n, x), added term by term in
        # order on the kept tail table, bit for bit
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0)
        curve = roc_curve(CH, cfg)
        lam_effs = cfg.alpha ** 2 * detection._thresholds(2, detection._DEFAULT_PF_GRID)
        upper = special_fn._tails.get(("upper", *_grid_name(2, detection._DEFAULT_PF_GRID, cfg.alpha)))
        for pd_i, lam, row in zip(curve.pd, lam_effs, upper):
            _, used, _ = average_pd_detail(DetectorConfig(u=2, threshold=lam), CH)
            miss = 0.0
            for c, tail in zip(detection._ladder(CH, used)[:used], row):
                miss += c * tail
            assert pd_i == min(max(1.0 - miss, 0.0), 1.0)

    @pytest.mark.parametrize("u", [1, 2, 8, 32, 200, 500])
    def test_poisson_table_matches_a_generous_top(self, u):
        # reference: each row summed from x + 40 sqrt(x) + 60 + u + count, far
        # past the top the table now stops at
        def generous(count, x):
            xs = x[:, None]
            tops = np.ceil(xs + 40.0 * np.sqrt(xs) + 60.0) + (u + count)
            top = tops.max()
            j = np.arange(u, top + 1.0)
            ln_fact = _ln_factorials(u, int(top))
            pmf = np.exp(-xs + j * np.log(xs) - ln_fact)
            pmf[j > tops] = 0.0
            return np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][:, :count]

        x = np.geomspace(1e-6, 3000.0, 25)
        for count in (10, 49, 300, 2000, 10_000):
            assert np.array_equal(_reg_p_int_shapes(u, count, x), generous(count, x))

    def test_stop_rule_matches_a_running_count(self):
        # each row walks its own schedule with a running sum C of the ladder
        # until P(u+N, x) (1 - C_{N-1}) <= rel_tol
        u = 3
        x = np.sort(10.0 ** np.random.default_rng(4).uniform(-3.0, 2.5, 60))
        tops = np.ceil(x + poisson_reach(x))[:, None]
        top = int(tops.max()) + 1  # a last column of zeros, as _stops needs
        upper = _upper_tails(poisson_pmf(x[:, None], u, top, u, tops, _ln_factorials(u, top)))
        coeff = np.exp(_ln_series_coeff(CH, 0, 1000))
        for rel_tol in (1e-10, 1e-14, 1e-300):
            got = detection._stops(u, 2.0 * x, upper, CH, SeriesControl(rel_tol, 2000))
            for row, xi, stop in zip(upper, x, got):
                want, csum, done = _first_stop(u, float(xi), CH, rel_tol), 0.0, 0
                while True:
                    for c in coeff[done:want]:
                        csum += c
                    done = want
                    if (row[want] if want < row.size else 0.0) * (1.0 - csum) <= rel_tol:
                        break
                    want += min(max(16, want // 2), 256)
                assert stop == want


FIGURE_CHANNELS = [
    FadingParams.from_db(m, ms, db)
    for m, ms, db in ((2.0, 3.0, 5.0), (2.0, 30.0, 15.0), (20.0, 3.0, 5.0), (20.0, 30.0, 15.0), (1.3, 2.7, 6.0))
]


def _count_tables(monkeypatch) -> list:
    """Patch special_fn's poisson_pmf to record the rows of every table built."""
    built = []
    pmf = special_fn.poisson_pmf

    def counted(*args):
        built.append(args[0].shape[0])
        return pmf(*args)

    monkeypatch.setattr(special_fn, "poisson_pmf", counted)
    return built


def _grid_name(u, grid, alpha=1.0) -> tuple:
    """The name roc_curve gives a unit-Pf grid at noise-uncertainty factor
    alpha, which heads the keys of what the grid keeps."""
    return u, hashlib.blake2b(np.asarray(grid, dtype=float).tobytes(), digest_size=16).digest(), alpha


def _memo_tables(memo=special_fn._tails) -> list:
    """The arrays a memo keeps as entries: every entry of _tails, leaving
    out the plans of marcum_q_grid in _u_tables, which are tuples."""
    with memo._lock:
        return [t for t in memo._tables.values() if isinstance(t, np.ndarray)]


def _memo_plans(memo=special_fn._u_tables) -> list:
    with memo._lock:
        return [t for t in memo._tables.values() if isinstance(t, tuple)]


def _memo_arrays(memo=special_fn._tails) -> list:
    """Every array a memo holds: its tables and those in its plans."""
    return _memo_tables(memo) + [a for plan in _memo_plans(memo) for a in plan]


def _memo_bytes(memo=special_fn._tails) -> int:
    """The bytes a memo holds: each kept array's, or those of the arrays in
    a kept plan."""
    return sum(a.nbytes for a in _memo_arrays(memo))


def _ladder_rows(p):
    kept = detection._ladders.get(p)
    return 0 if kept is None else kept.shape[0]


class TestLadderCache:
    @staticmethod
    def _results(ch):
        cfg = DetectorConfig(u=2, threshold=1.0)
        return (
            average_pd_detail(DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.1)), ch),
            roc_curve(ch, cfg).points,
            roc_curve(ch, cfg, fusion="or", n_users=3).points,
            roc_curve([ch, ch], cfg).points,
        )

    @pytest.mark.parametrize("ch", FIGURE_CHANNELS)
    def test_results_do_not_depend_on_call_history(self, ch, cold_ladders):
        cold = self._results(ch)
        detection._ladders.clear()
        roc_curve(ch, DetectorConfig(u=5, threshold=1.0))
        assert self._results(ch) == cold
        rows = _ladder_rows(ch)
        average_pd(DetectorConfig(u=8, threshold=threshold_for_pfa(8, 1e-12)), ch)
        assert _ladder_rows(ch) > rows
        assert self._results(ch) == cold

    def test_slicing_the_threshold_scan_changes_nothing(self, monkeypatch):
        cfg = DetectorConfig(u=5, threshold=1.0, noise_uncertainty_db=2.0)
        whole = roc_curve(CH, cfg).points
        built = _count_tables(monkeypatch)
        monkeypatch.setattr(special_fn, "_MAX_CELLS", 2000)
        special_fn._tails.clear()  # a kept table would skip the slicing
        assert roc_curve(CH, cfg).points == whole
        assert len(built) > 1  # the scan ran in slices, each with its own table

    def test_max_terms_caps_a_longer_cached_ladder(self, cold_ladders):
        average_pd(DetectorConfig(u=2, threshold=200.0), CH, SeriesControl(rel_tol=1e-300, max_terms=600))
        assert _ladder_rows(CH) > 200
        with pytest.raises(ConvergenceError):
            average_pd(DetectorConfig(u=2, threshold=60.0), CH, SeriesControl(max_terms=10))

    def test_roc_table_does_not_grow_with_the_cached_ladder(self, monkeypatch, cold_ladders):
        cells = []
        pmf = special_fn.poisson_pmf

        def counted(*args):
            table = pmf(*args)
            cells.append(table.size)
            return table

        monkeypatch.setattr(special_fn, "poisson_pmf", counted)
        cfg = DetectorConfig(u=2, threshold=1.0)
        special_fn._tails.clear()  # so that each ROC builds its table
        before = roc_curve(CH, cfg).points
        width, rows = sum(cells), _ladder_rows(CH)
        assert width > 0
        average_pd(DetectorConfig(u=8, threshold=threshold_for_pfa(8, 1e-12)), CH,
                   SeriesControl(rel_tol=1e-300))
        assert _ladder_rows(CH) > 3 * rows
        cells.clear()
        special_fn._tails.clear()
        assert roc_curve(CH, cfg).points == before
        assert sum(cells) == width

    def test_cache_keeps_the_latest_channels_within_its_budget(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=1, threshold=1.0)
        chans = [FadingParams(m=1.0 + k, m_s=3.0, mean_snr=2.0) for k in range(40)]
        for p in chans:
            average_pd(cfg, p)
        sizes = [t.nbytes for t in _memo_tables(detection._ladders)]
        assert len(sizes) == 40 and detection._ladders.budget == 256 << 10
        # under a budget of the last ten ladders, the older thirty go
        detection._ladders.clear()
        monkeypatch.setattr(detection._ladders, "budget", sum(sizes[-10:]))
        for p in chans:
            average_pd(cfg, p)
        with detection._ladders._lock:
            assert list(detection._ladders._tables) == chans[-10:]
        ladders = _memo_tables(detection._ladders)
        assert detection._ladders.nbytes == _memo_bytes(detection._ladders) <= detection._ladders.budget

    def test_threads_share_the_cache_safely(self, monkeypatch, cold_ladders):
        # three (u, grid) tables under a budget of two, so the threads race
        # on building, inserting and evicting grid Poisson tables too
        cfgs = [DetectorConfig(u=u, threshold=1.0) for u in (1, 2, 3)]
        grid = np.geomspace(1e-4, 0.9, 40)
        chans = [FadingParams(m=1.0 + k, m_s=3.0, mean_snr=2.0) for k in range(36)]
        want = [roc_curve(p, cfgs[i % 3], pf_grid=grid).points for i, p in enumerate(chans)]
        tables = _memo_tables()
        assert len(tables) == 3
        monkeypatch.setattr(special_fn._tails, "budget", _memo_bytes() - 1)
        detection._ladders.clear()
        special_fn._tails.clear()
        got, errors = {}, []

        def work(offset):
            try:
                for k in range(len(chans)):
                    i = (k + offset) % len(chans)
                    got[offset, i] = roc_curve(chans[i], cfgs[i % 3], pf_grid=grid).points
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(got[off, i] == want[i] for off in range(0, 28, 7) for i in range(len(chans)))
        ladders = _memo_tables(detection._ladders)
        assert detection._ladders.nbytes == _memo_bytes(detection._ladders) <= detection._ladders.budget
        tables = _memo_tables()
        assert len(tables) == 2
        assert special_fn._tails.nbytes == _memo_bytes() <= special_fn._tails.budget


class TestLargeU:
    CHANNELS = (
        FadingParams.from_db(2.0, 3.0, 5.0),
        FadingParams.from_db(1.3, 1.1, 0.0),
        FadingParams.from_db(20.0, 30.0, 15.0),
    )

    @pytest.mark.parametrize("u", [336, 1000, 10_000, 100_000])
    def test_series_meets_the_oracle_in_few_terms(self, u, cold_ladders):
        # the first stop follows the Poisson bulk past u and the channel's
        # tail, so N grows like sqrt(u): about 2,300 at u = 1e5, where a
        # start from the bulk of x counted from 0 ran into max_terms
        ctl = SeriesControl()
        cfg = DetectorConfig(u, threshold_for_pfa(u, 0.01))
        for p in self.CHANNELS:
            value, used, _ = average_pd_detail(cfg, p)
            assert abs(value - average_pd_quadrature(cfg, p)) <= ctl.rel_tol + 1e-12, p
            assert truncation_bound(cfg, p, used) <= ctl.rel_tol
            assert used < 2500


class TestMemo:
    def test_longest_array_wins_and_the_newest_stays(self):
        memo = detection._Memo(64)
        longer, shorter = np.arange(6.0), np.arange(3.0)
        assert memo.put("a", longer) is longer
        assert memo.put("a", shorter) is longer
        assert memo.get("a") is longer and memo.nbytes == 48
        assert not longer.flags.writeable
        # an array past the whole budget stays while it is the newest
        big = np.zeros(100)
        assert memo.put("b", big) is big
        assert memo.get("a") is None
        assert memo.get("b") is big and memo.nbytes == 800 > memo.budget
        built = memo.put("c", np.ones(2))
        assert memo.get("b") is None and memo.get("c") is built and memo.nbytes == 16

    def test_no_key_holds_a_grid(self, cold_ladders):
        # a grid is named by a 16-byte digest, so after a figure round of
        # fading, fusion, SLS and AWGN curves at several u and noise
        # uncertainties no kept key holds a longer bytes object, and each
        # memo's bytes are its arrays' alone
        TestGridPmfMemo._figure()
        TestSharedTableMemo._figure()
        auc_instantaneous(2, 3.16)
        memos = (special_fn._tails, special_fn._u_tables)
        with memos[0]._lock, memos[1]._lock:
            keys = [key for memo in memos for key in memo._tables]
        digests = [part for key in keys for part in key if isinstance(part, bytes)]
        assert len(keys) > 60 and len(digests) == len(keys) - 1  # the AUC table is named by u
        assert all(len(part) == 16 for part in digests)
        assert all(memo.nbytes == _memo_bytes(memo) for memo in memos)


class TestUTables:
    def test_retained_bytes_stay_within_the_budget(self, cold_ladders):
        # 40 areas at distinct u past 1e4 build 40 tables of 8-16 KB, and
        # the 40 inversions between them keep nothing
        memo = special_fn._u_tables
        tracemalloc.start()
        try:
            for u in range(10_000, 20_000, 250):
                kept = len(_memo_tables(memo))
                threshold_for_pfa(u, 0.01)
                assert len(_memo_tables(memo)) == kept
                auc_instantaneous(u, 0.5 * u)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tables = _memo_tables(memo)
        assert 1 < len(tables) < 80 and memo.budget == 1 << 20
        assert memo.nbytes == _memo_bytes(memo) <= memo.budget
        assert retained <= memo.budget + max(t.nbytes for t in tables)


class TestGridPmfMemo:
    @staticmethod
    def _figure():
        """figure_sweep's fading, fusion and SLS curves: twelve (u, effective
        grid) tables."""
        for ch in FIGURE_CHANNELS:
            for u in (1, 2, 5):
                for beta in (0.0, 2.0):
                    roc_curve(ch, DetectorConfig(u=u, threshold=1.0, noise_uncertainty_db=beta))
            for rule in ("or", "and"):
                for n in (3, 8):
                    roc_curve(ch, DetectorConfig(u=2, threshold=1.0), fusion=rule, n_users=n)
            for branches in (2, 4):
                roc_curve([ch] * branches, DetectorConfig(u=2, threshold=1.0))

    def test_one_table_per_u_and_effective_grid(self, monkeypatch, cold_ladders):
        built = _count_tables(monkeypatch)
        for ch in FIGURE_CHANNELS:
            roc_curve(ch, DetectorConfig(u=2, threshold=1.0))
        assert len(built) == 1
        for ch in FIGURE_CHANNELS:
            roc_curve(ch, DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0))
        assert len(built) == 2
        built.clear()
        roc_curve(FIGURE_CHANNELS[:2], DetectorConfig(u=2, threshold=1.0))
        assert len(built) == 1

    def test_single_thresholds_and_sliced_scans_keep_nothing(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.1))
        average_pd(cfg, CH)
        average_pd_detail(cfg, CH)
        sls_average_pd(cfg, FIGURE_CHANNELS[:2])
        roc_curve(CH, cfg, pf_grid=[0.1])
        assert _memo_tables() == []
        monkeypatch.setattr(special_fn, "_MAX_CELLS", 2000)
        roc_curve(CH, DetectorConfig(u=5, threshold=1.0))
        assert _memo_tables() == []

    def test_entries_are_read_only_pmf_tables_within_the_budget(self, monkeypatch, cold_ladders):
        grid = detection._DEFAULT_PF_GRID
        for u in (1, 2, 5):
            for beta in (0.0, 2.0):
                cfg = DetectorConfig(u=u, threshold=1.0, noise_uncertainty_db=beta)
                roc_curve(CH, cfg)
                x = 0.5 * (cfg.alpha ** 2 * detection._thresholds(u, grid))[:, None]
                tops = np.ceil(x + poisson_reach(x))
                top = int(tops.max()) + 1
                kept = special_fn._tails._tables["upper", *_grid_name(u, grid, cfg.alpha)]
                assert not kept.flags.writeable
                assert np.array_equal(kept, _upper_tails(poisson_pmf(x, u, top, u, tops, _ln_factorials(u, top))))
        tables = _memo_tables()
        assert len(tables) == 6
        assert special_fn._tails.nbytes == _memo_bytes() <= special_fn._tails.budget == 4 << 20

        # grids of 190..197 targets under a budget of three 190-target tables:
        # the newest stay, within the budget
        special_fn._tails.clear()
        for k in range(8):
            roc_curve(CH, DetectorConfig(u=2, threshold=1.0), pf_grid=np.geomspace(1e-4, 0.9, 190 + k))
            if k == 0:
                monkeypatch.setattr(special_fn._tails, "budget", 3 * special_fn._tails.nbytes)
        tables = _memo_tables()
        assert [t.shape[0] for t in tables] in ([196, 197], [195, 196, 197])
        assert special_fn._tails.nbytes == _memo_bytes() <= special_fn._tails.budget
        assert all(not t.flags.writeable for t in tables)

    def test_a_kept_grid_builds_no_table_for_another_channel(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0)
        roc_curve(FIGURE_CHANNELS[0], cfg)

        def unexpected(*args):
            raise AssertionError("a warm ROC built a table")

        for name in ("poisson_pmf", "_upper_tails"):
            monkeypatch.setattr(special_fn, name, unexpected)
        warm = roc_curve(FIGURE_CHANNELS[1], cfg).points
        monkeypatch.undo()
        special_fn._tails.clear()
        assert roc_curve(FIGURE_CHANNELS[1], cfg).points == warm

    def test_one_off_awgn_rocs_evict_no_table(self, monkeypatch, cold_ladders):
        # 400 AWGN ROCs at distinct SNRs keep their plans in _u_tables,
        # beside one shared lower table, so the fading table stays in _tails
        # and the next fading ROC builds none
        cfg = DetectorConfig(u=2, threshold=1.0)
        chans = [FadingParams.from_db(2.0, 3.0, db) for db in (0.0, 5.0, 10.0)]
        cold = roc_curve(chans[0], cfg).points
        for ch in chans:
            roc_curve(ch, cfg)
        for gamma in np.geomspace(1e-2, 1e2, 400):
            roc_curve(float(gamma), cfg)

        def unexpected(*args):
            raise AssertionError("a fading ROC built a table")

        for name in ("poisson_pmf", "_upper_tails"):
            monkeypatch.setattr(special_fn, name, unexpected)
        assert roc_curve(chans[0], cfg).points == cold

    def test_a_warm_roc_keeps_its_stops(self, monkeypatch, cold_ladders):
        # each grid's stop vector is kept per channel beside its table, so a
        # second pass runs no _stops and gives the same points bit for bit;
        # a single threshold keeps none
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0)

        def curves():
            return [roc_curve(ch, cfg).points for ch in FIGURE_CHANNELS] + [
                roc_curve(FIGURE_CHANNELS[:2], cfg).points,
                roc_curve(CH, cfg, fusion="or", n_users=3).points,
            ]

        cold = curves()
        average_pd(DetectorConfig(u=3, threshold=2.0), CH)
        with special_fn._u_tables._lock:
            stops = [key for key in special_fn._u_tables._tables if key[0] == "stops"]
        # 5 channels on the plain grid, 2 branches and CH on their own grids
        assert len(stops) == 8 and {key[1] for key in stops} == {2}

        def unexpected(*args):
            raise AssertionError("a warm ROC ran _stops")

        monkeypatch.setattr(detection, "_stops", unexpected)
        assert curves() == cold

    def test_the_figure_grids_stay_kept_within_the_budget(self, monkeypatch, cold_ladders):
        # all twelve tables of the figure's curves are kept, so a second pass
        # builds none
        self._figure()
        tables = _memo_tables()
        assert len(tables) == 12
        assert special_fn._tails.nbytes == _memo_bytes() <= special_fn._tails.budget == 4 << 20
        built = _count_tables(monkeypatch)
        self._figure()
        assert built == []

    @pytest.mark.parametrize("ch", FIGURE_CHANNELS)
    def test_results_do_not_depend_on_the_memo(self, ch, cold_ladders):
        cold = TestLadderCache._results(ch)
        assert len(_memo_tables()) == 3
        assert TestLadderCache._results(ch) == cold
        detection._ladders.clear()
        assert TestLadderCache._results(ch) == cold


class TestAwgnLowerTailMemo:
    GRID = np.geomspace(1e-12, 0.999, 40)

    @staticmethod
    def _no_table(monkeypatch):
        """Patch special_fn's poisson_pmf to fail on a table of thresholds;
        the Poisson(g) weights, one row, still pass."""
        pmf = special_fn.poisson_pmf

        def checked(xs, *args):
            assert np.ndim(xs) < 2, "a warm AWGN ROC built a table"
            return pmf(xs, *args)

        monkeypatch.setattr(special_fn, "poisson_pmf", checked)

    @staticmethod
    def _no_plan(monkeypatch):
        """Patch special_fn's settling, Poisson pmf and ln j! to fail: a call
        that reads its kept plan and table makes none of these calls."""

        def unexpected(*args):
            raise AssertionError("a warm AWGN ROC built its plan")

        for name in ("_chernoff", "poisson_pmf", "_ln_factorials"):
            monkeypatch.setattr(special_fn, name, unexpected)

    @staticmethod
    def _g(gamma):
        """marcum_q_grid's g at AWGN SNR gamma, as roc_curve forms it."""
        a = math.sqrt(2.0 * gamma)
        return 0.5 * a * a

    @pytest.mark.parametrize("u", [1, 2, 8, 32, 200])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_warm_rocs_equal_cold_ones(self, u, beta, monkeypatch, cold_ladders):
        # 0, 3.16 and 31.6 share n_lo = 0 and so one table; 1e3 has n_lo = 675
        # and keeps its own; each SNR keeps its plan in _u_tables, so a memo
        # hit builds, settles and weighs nothing
        cfg = DetectorConfig(u=u, threshold=1.0, noise_uncertainty_db=beta)
        snrs = (0.0, 3.16, 31.6, 1e3)
        cold = {}
        for gamma in snrs:
            special_fn._tails.clear()
            cold[gamma] = roc_curve(gamma, cfg, self.GRID).points
        special_fn._tails.clear()
        assert roc_curve(3.16, cfg, self.GRID).points == cold[3.16]
        with monkeypatch.context() as patch:
            self._no_table(patch)
            assert roc_curve(31.6, cfg, self.GRID).points == cold[31.6]
            assert roc_curve(0.0, cfg, self.GRID).points == cold[0.0]
        assert roc_curve(1e3, cfg, self.GRID).points == cold[1e3]
        name = _grid_name(u, self.GRID, cfg.alpha)
        with special_fn._tails._lock:
            assert sorted((key[:4], key[4]) for key in special_fn._tails._tables) == [
                (("lower", *name), 0), (("lower", *name), 675)
            ]
        with special_fn._u_tables._lock:
            plans = [key for key in special_fn._u_tables._tables if key[0] == "plan"]
        assert sorted(plans) == [("plan", *name, self._g(gamma)) for gamma in snrs]
        with monkeypatch.context() as patch:
            self._no_plan(patch)
            for gamma in (3.16, 1e3, 0.0, 31.6):
                assert roc_curve(gamma, cfg, self.GRID).points == cold[gamma]

    @pytest.mark.parametrize("u", [2, 8])
    @pytest.mark.parametrize("g", [0.0, 0.7, 40.0, 1e3])
    def test_a_warm_plan_keeps_its_settled_entries(self, u, g, monkeypatch, cold_ladders):
        # b = 0, b = inf, entries settled as 0 far above g and as 1 far
        # below it, and live ones between, sorted as a ROC grid's are so
        # that the live rows form one run: a warm call settles nothing
        # again, and every entry is its single-threshold call
        x = np.concatenate(([0.0, math.inf, 1e-300, 1e-3, 1e13, 1e16], np.geomspace(0.05, 3.0 * g + 60.0, 30)))
        x.sort()
        name = (u, b"sorted", 1.0)
        singles = [special_fn.marcum_q_grid(u, g, [v])[0] for v in x]
        assert _memo_tables() == _memo_plans() == []
        cold = special_fn.marcum_q_grid(u, g, x, name)
        assert cold.tolist() == singles
        (plan,) = _memo_plans()
        live = plan[1]
        assert 1 < live.size <= x.size - 4 and {0.0, 1.0} <= set(cold[np.setdiff1d(np.arange(x.size), live)])
        with monkeypatch.context() as patch:
            self._no_plan(patch)
            warm = special_fn.marcum_q_grid(u, g, x, name)
            assert warm.tolist() == singles
            warm[:] = -1.0  # the caller's own array, not the kept plan's
            assert special_fn.marcum_q_grid(u, g, x, name).tolist() == singles

    @pytest.mark.parametrize("u", [2, 8])
    @pytest.mark.parametrize("g", [0.0, 0.7, 40.0])
    def test_live_rows_out_of_one_run_keep_nothing(self, u, g, cold_ladders):
        # b = 0, b = inf and settled entries between two runs of live ones:
        # a named call keeps no table and no plan, and every entry is its
        # single-threshold call, cold and again
        top = np.geomspace(0.05, 3.0 * g + 60.0, 15)
        x = np.concatenate((top, [0.0, math.inf, 1e-300, 1e16], np.geomspace(0.1, 2.0 * g + 50.0, 15)))
        singles = [special_fn.marcum_q_grid(u, g, [v])[0] for v in x]
        for _ in range(2):
            assert special_fn.marcum_q_grid(u, g, x, (u, b"unsorted", 1.0)).tolist() == singles
            assert _memo_tables() == _memo_plans() == []

    @pytest.mark.parametrize(
        "gs, x",
        [
            # one start, two lengths: 900 settles as 0 at g = 0, not at g = 100
            ((0.0, 100.0), np.concatenate((np.geomspace(0.05, 60.0, 30), [900.0, 1e4]))),
            # one length, two starts: from g = 1000 to 1000.5, 11.7 settles
            # as 1 and 3590.7 no longer settles as 0
            ((1000.0, 1000.5), np.concatenate(([11.7], np.geomspace(20.0, 3000.0, 20), [3590.7]))),
        ],
    )
    def test_a_lower_table_is_named_by_its_run(self, gs, x, cold_ladders):
        # two SNRs that share n_lo on one named grid but not their live run
        # keep a table each, and every call equals its single-threshold calls
        singles = {g: [special_fn.marcum_q_grid(2, g, [v])[0] for v in x] for g in gs}
        for _ in range(2):
            for g in gs:
                assert special_fn.marcum_q_grid(2, g, x, (2, b"runs", 1.0)).tolist() == singles[g]
        with special_fn._tails._lock:
            keys = list(special_fn._tails._tables)
        assert len(keys) == 2 and keys[0][4] == keys[1][4]

    def test_kept_tables_are_read_only_within_the_budget(self, cold_ladders):
        memo, small = special_fn._tails, special_fn._u_tables
        for k in range(40):
            curve = roc_curve(3.16, DetectorConfig(u=2, threshold=1.0), pf_grid=np.geomspace(1e-4, 0.9, 160 + k))
            tables = _memo_tables(memo)
            assert memo.nbytes == _memo_bytes(memo) <= memo.budget == 4 << 20
            assert small.nbytes == _memo_bytes(small) <= small.budget == 1 << 20
            assert all(not t.flags.writeable for t in _memo_arrays(memo) + _memo_arrays(small))
        assert len(tables) > 1
        assert tables[-1].shape[0] == 199
        # the last curve, read from the newest table, is pd_awgn at its thresholds
        lams = detection._thresholds(2, np.geomspace(1e-4, 0.9, 199))
        assert [pd_awgn(DetectorConfig(2, float(lam)), 3.16) for lam in lams[::9]] == curve.pd[::9].tolist()

    def test_plans_at_many_snrs_stay_read_only_within_the_budget(self, cold_ladders):
        # 200 SNRs from -20 to 30 dB on one grid: each keeps a plan in
        # _u_tables, those past about 21.8 dB their own table in _tails too,
        # so the oldest are dropped
        memos = (special_fn._tails, special_fn._u_tables)
        cfg = DetectorConfig(u=2, threshold=1.0)
        snrs = np.geomspace(1e-2, 1e3, 200)
        for k, gamma in enumerate(snrs):
            curve = roc_curve(float(gamma), cfg)
            assert all(memo.nbytes == _memo_bytes(memo) <= memo.budget for memo in memos)
            if k % 20 == 0:
                assert all(not a.flags.writeable for memo in memos for a in _memo_arrays(memo))
        plans = _memo_plans()
        assert 20 < len(plans) < 200 and all(not a.flags.writeable for memo in memos for a in _memo_arrays(memo))
        assert [memo.budget for memo in memos] == [4 << 20, 1 << 20]
        # the last curve, read from its kept plan and table, is pd_awgn at its thresholds
        assert roc_curve(float(snrs[-1]), cfg).points == curve.points
        lams = detection._thresholds(2, detection._DEFAULT_PF_GRID)
        assert [pd_awgn(DetectorConfig(2, float(lam)), float(snrs[-1])) for lam in lams[::9]] == curve.pd[::9].tolist()

    def test_a_plan_whose_table_was_dropped_builds_it_again(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=2, threshold=1.0)
        cold = roc_curve(3.16, cfg).points
        (plan,) = _memo_plans()
        (table,) = _memo_tables()
        special_fn._tails.clear()

        def unexpected(*args):
            raise AssertionError("a kept plan was settled again")

        with monkeypatch.context() as patch:
            patch.setattr(special_fn, "_chernoff", unexpected)
            assert roc_curve(3.16, cfg).points == cold
        assert _memo_plans() == [plan]
        (rebuilt,) = _memo_tables()
        assert rebuilt is not table and np.array_equal(rebuilt, table)

    def test_a_plan_is_kept_only_with_its_table(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.1))
        pfa(cfg)
        pd_awgn(cfg, 3.16)
        marcum_q(2, 1.0, 2.5)
        roc_curve(3.16, cfg, pf_grid=[0.1])
        for cells in (2000, 1):
            monkeypatch.setattr(special_fn, "_MAX_CELLS", cells)
            roc_curve(3.16, cfg)
        assert special_fn._tails._tables == {} and special_fn._tails.nbytes == 0 and _memo_plans() == []
        monkeypatch.undo()
        roc_curve(3.16, cfg)
        assert [key[0] for key in special_fn._tails._tables] == ["lower"] and len(_memo_plans()) == 1

    def test_single_thresholds_and_sliced_scans_keep_nothing(self, monkeypatch, cold_ladders):
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.1))
        pfa(cfg)
        pd_awgn(cfg, 3.16)
        marcum_q(2, 1.0, 2.5)
        roc_curve(3.16, cfg, pf_grid=[0.1])
        assert _memo_tables() == _memo_plans() == []
        monkeypatch.setattr(special_fn, "_MAX_CELLS", 2000)
        sliced = roc_curve(3.16, cfg).points
        assert _memo_tables() == _memo_plans() == []
        monkeypatch.undo()
        assert roc_curve(3.16, cfg).points == sliced
        assert len(_memo_tables()) == len(_memo_plans()) == 1

    def test_a_kept_table_at_large_snr_stays_small(self, cold_ladders):
        # u = 200 at 8.5 dB of noise uncertainty puts the thresholds near
        # gamma = 1e4, so the ROC keeps a table of n_lo = 9060
        cfg = DetectorConfig(u=200, threshold=1.0, noise_uncertainty_db=8.5)
        grid = np.geomspace(1e-6, 0.5, 20)
        tracemalloc.start()
        try:
            curve = roc_curve(1e4, cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        name = _grid_name(200, grid, cfg.alpha)
        assert [key[:5] for key in special_fn._tails._tables] == [("lower", *name, 9060)]
        assert [key for key in special_fn._u_tables._tables if key[0] == "plan"] == [("plan", *name, self._g(1e4))]
        assert peak <= 16 * 2**20
        lams = detection._thresholds(200, grid)
        want = [pd_awgn(DetectorConfig(200, float(lam), 8.5), 1e4) for lam in lams]
        assert curve.pd.tolist() == want


class TestSharedTableMemo:
    @staticmethod
    def _figure() -> list:
        """The fading, fusion, SLS and AWGN ROCs of one figure at u = 2 on the default grid."""
        cfg = DetectorConfig(u=2, threshold=1.0)
        return (
            [roc_curve(ch, cfg).points for ch in FIGURE_CHANNELS]
            + [roc_curve(ch, cfg, fusion="or", n_users=3).points for ch in FIGURE_CHANNELS]
            + [roc_curve([ch, ch], cfg).points for ch in FIGURE_CHANNELS]
            + [roc_curve(gamma, cfg).points for gamma in (3.16, 3.98, 31.6)]
        )

    def test_both_kinds_of_table_share_one_memo(self, monkeypatch, cold_ladders):
        # three upper-tail grids (plain, OR of 3, SLS of 2) and the one lower
        # table that the three AWGN SNRs share; the plan of each SNR is kept
        # in _u_tables
        cold = self._figure()
        memo, small = special_fn._tails, special_fn._u_tables
        with memo._lock, small._lock:
            keys = list(memo._tables) + [key for key in small._tables if key[0] == "plan"]
        tables = _memo_tables()
        assert sorted(key[0] for key in keys) == ["lower", "plan", "plan", "plan", "upper", "upper", "upper"]
        assert len(set(keys)) == len(tables) + len(_memo_plans()) == 7 and len(tables) == 4
        assert all(not t.flags.writeable for t in _memo_arrays() + _memo_arrays(small))
        assert memo.nbytes == _memo_bytes(memo) <= memo.budget == 4 << 20
        with monkeypatch.context() as patch:
            TestAwgnLowerTailMemo._no_plan(patch)
            assert self._figure() == cold
        with memo._lock, small._lock:
            assert set(memo._tables) | {key for key in small._tables if key[0] == "plan"} == set(keys)


class TestOneRowSums:
    """Every series and AWGN sum goes through special_fn._sums_to, one path
    for a grid, a one-row slice of it and a single threshold."""

    @staticmethod
    def _curves(cfg):
        return [
            roc_curve(CH, cfg).points,
            roc_curve(FIGURE_CHANNELS[:2], cfg).points,
            roc_curve(CH, cfg, fusion="and", n_users=3).points,
        ] + [roc_curve(gamma, cfg).points for gamma in (0.0, 3.16, 31.6)]

    def test_one_row_slices_change_nothing(self, monkeypatch, cold_ladders):
        # with one cell per slice, _tail_tables and _lower_tables hand every
        # threshold over alone, and no table is kept
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=2.0)
        whole = self._curves(cfg)
        rows = []

        def counted(a, *args):
            rows.append(a.shape[0])
            return sums(a, *args)

        sums = special_fn._sums_to
        for module in (special_fn, detection):
            monkeypatch.setattr(module, "_sums_to", counted)
        monkeypatch.setattr(special_fn, "_MAX_CELLS", 1)
        special_fn._tails.clear()
        special_fn._u_tables.clear()
        assert self._curves(cfg) == whole
        assert len(rows) > 1000 and set(rows) == {1}
        assert _memo_tables() == _memo_plans() == []

    @pytest.mark.parametrize("points", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_small_grids_are_their_single_threshold_calls(self, points, beta, cold_ladders):
        # an SLS point's threshold is that of the OR of its branches' Pf
        grid = np.geomspace(1e-3, 0.5, points)
        branches = FIGURE_CHANNELS[:2]
        units = {"fading": grid, "sls": detection._unit_target(grid, 2, "or"), "awgn": grid}
        singles = {
            "fading": lambda one: average_pd(one, CH),
            "sls": lambda one: sls_average_pd(one, branches),
            "awgn": lambda one: pd_awgn(one, 3.16),
        }
        cfg = DetectorConfig(u=2, threshold=1.0, noise_uncertainty_db=beta)
        for state in ("cold", "warm"):
            for kind, ch in (("fading", CH), ("sls", branches), ("awgn", 3.16)):
                curve = roc_curve(ch, cfg, grid).pd.tolist()
                for i, lam in enumerate(detection._thresholds(2, units[kind]).tolist()):
                    one = DetectorConfig(u=2, threshold=lam, noise_uncertainty_db=beta)
                    assert curve[i] == singles[kind](one), (state, kind, i)

    def test_a_ladder_past_one_raises(self, cold_ladders):
        # a ladder summing to 2 takes the complementary sum past 1 at any
        # threshold with Pd below 1/2; average_pd and roc_curve both refuse it
        p = FadingParams.from_db(1.7, 2.3, 1.0)
        ladder = detection._ladder(p, 400).copy()
        detection._ladders.clear()
        detection._ladders.put(p, 2.0 * ladder)
        try:
            calls = (
                lambda: average_pd(DetectorConfig(u=2, threshold=threshold_for_pfa(2, 1e-3)), p),
                lambda: roc_curve(p, DetectorConfig(u=2, threshold=1.0)),
            )
            for call in calls:
                with pytest.raises(ConvergenceError, match="exceeded 1 by more than 1e-9") as info:
                    call()
                for part in ("u=2", f"m={p.m}", f"m_s={p.m_s}", f"snr={p.mean_snr}"):
                    assert part in str(info.value)
        finally:  # the planted ladder and the stops found on it go
            detection._ladders.clear()
            special_fn._u_tables.clear()
