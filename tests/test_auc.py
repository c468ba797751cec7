"""Tests for the ROC area computations.

The fixed-SNR sum is cross-checked against trapezoid integration of the
actual ROC and against the beta mixture P(Y1 > Y0); the fading-averaged
form against quadrature of the fixed-SNR area over the SNR density, and
against an independent scipy quadrature of that mixture.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from specsense import detection
from specsense.auc import _weights, auc_average, auc_instantaneous
from specsense.detection import DetectorConfig, roc_curve
from specsense.fading import FadingParams, snr_pdf


def _beta_mixture_miss(u, k_max):
    """k = 0..k_max and 1 - P(Y1 > Y0 | K = k) = I_{1/2}(u + k, u), where
    Y0 ~ chi2(2u) and, given K = k with K ~ Poisson(gamma), Y1 ~ chi2(2u + 2k)."""
    k = np.arange(k_max + 1, dtype=float)
    return k, special.betainc(u + k, float(u), 0.5)


def _reference_auc(u, p):
    """AUC over the channel by scipy quad on the log-SNR axis of
    sum_k Pois(k; gamma) I_{1/2}(u + k, u) times the beta-prime density."""
    m, ms, z = p.m, p.m_s, p.snr_scale
    ln_norm = -m * math.log(z) - special.betaln(m, ms)
    g_hi = 400.0 + 20.0 * u  # the miss is below 1e-40 past here
    k, miss_k = _beta_mixture_miss(u, int(g_hi + 40.0 * math.sqrt(g_hi) + 60.0))
    ln_fact = special.gammaln(k + 1.0)

    def integrand(s):
        g = math.exp(s)
        weight = math.exp(ln_norm + m * s - (m + ms) * math.log1p(g / z))  # g f(g)
        return float(np.exp(k * s - g - ln_fact) @ miss_k) * weight

    s_mode = math.log(z * m / ms)
    s_lo = min(s_mode - 1.0, (-46.0 - ln_norm) / m)  # less than ~1e-20 of the mass below
    s_hi = math.log(g_hi)
    pts = sorted(q for q in (s_mode, math.log(2.0 * u)) if s_lo < q < s_hi)
    miss, _ = integrate.quad(
        integrand, s_lo, s_hi, points=pts or None, limit=500, epsabs=1e-15, epsrel=1e-13
    )
    return 1.0 - miss


class TestInstantaneous:
    def test_chance_at_zero_snr(self):
        for u in (1, 2, 5):
            assert math.isclose(auc_instantaneous(u, 0.0), 0.5, rel_tol=1e-13)

    def test_single_sample_closed_form(self):
        # u = 1: A(gamma) = 1 - exp(-gamma/2)/2
        for g in np.linspace(0.0, 25.0, 50):
            want = 1.0 - 0.5 * math.exp(-float(g) / 2.0)
            assert math.isclose(auc_instantaneous(1, float(g)), want, rel_tol=1e-12)

    def test_smallest_snr_is_chance(self):
        for u in (1, 2, 5):
            assert auc_instantaneous(u, 5e-324) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_instantaneous(0, 1.0)
        with pytest.raises(ValueError):
            auc_instantaneous(2, -1.0)
        with pytest.raises(ValueError):
            auc_instantaneous(2, math.nan)
        with pytest.raises(ValueError):
            auc_instantaneous(2, math.inf)

    def test_strong_signal_saturates(self):
        assert auc_instantaneous(2, 50.0) > 0.999

    def test_monotone_in_snr(self):
        g = np.linspace(0.0, 20.0, 80)
        vals = [auc_instantaneous(3, float(x)) for x in g]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.5 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8, 32, 128])
    def test_matches_the_beta_mixture(self, u):
        for g in (1e-3, 0.4, 3.0, 25.0, 300.0):
            k, miss_k = _beta_mixture_miss(u, int(g + 40.0 * math.sqrt(g) + 60.0))
            want = 1.0 - float(stats.poisson.pmf(k, g) @ miss_k)
            assert abs(auc_instantaneous(u, g) - want) <= 1e-13

    def test_matches_roc_area(self):
        # graded grid concentrates points near pf = 0 where the ROC bends
        t = np.linspace(0.0, 1.0, 501)[1:-1]
        pf_grid = t ** 3
        for u, g in ((1, 2.0), (2, 5.0), (3, 0.7)):
            curve = roc_curve(g, DetectorConfig(u=u, threshold=1.0), pf_grid=pf_grid)
            pfs = np.concatenate(([0.0], curve.pf, [1.0]))
            pds = np.concatenate(([0.0], curve.pd, [1.0]))
            area = float(np.trapezoid(pds, pfs))
            assert abs(area - auc_instantaneous(u, g)) < 1e-4


class TestWeights:
    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8, 32, 128, 500, 2000])
    def test_are_the_binomial_tail(self, u):
        # w_i(u) = sum_{l=i}^{u-1} C(l+u-1, l-i) / 2^{l+u} = P(Bin(2u-1, 1/2) >= u+i)
        # the table stops at the first weight at most 1e-20: at u = 500 and 2000
        w, _ = _weights(u)
        want = stats.binom.sf(u + np.arange(u) - 1, 2 * u - 1, 0.5)
        k = w.shape[0]
        assert w[0] == 0.5
        assert np.max(np.abs(w - want[:k])) <= 1e-14
        assert want[k - 1] > 1e-20 and (k == u or want[k] <= 1e-20)
        assert (k < u) == (u >= 34)

    @pytest.mark.parametrize("u", [131, 1000, 10_000])
    def test_equal_the_full_range_build(self, u):
        # the masses past ceil(10 sqrt(u)) + 20 change no bit of the weights
        k = np.arange(u, 2 * u - 1, dtype=float)
        mass = np.cumprod(np.concatenate(([1.0], (2 * u - 1 - k) / (k + 1.0))))
        tail = np.cumsum(mass[::-1])[::-1]
        w = 0.5 * (tail / tail[0])
        assert np.array_equal(_weights(u)[0], w[: np.count_nonzero(w > 1e-20)])

    def test_large_u_is_bounded_in_memory(self):
        # O(sqrt(u)) masses: about 1.4 MiB of temporaries at u = 1e7
        tracemalloc.start()
        try:
            w = _weights(10**7)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20
        assert w[0] == 0.5 and w.shape[0] < 7 * math.sqrt(10**7)


class TestStop:
    @pytest.mark.parametrize("u", [33, 34, 200, 1000])
    def test_sums_match_the_u_term_sums(self, u, cold_ladders):
        # the sums stop at the first weight at most 1e-20; the u-term sums,
        # with the binomial tails from scipy, differ by rounding alone
        w = stats.binom.sf(u + np.arange(u) - 1, 2 * u - 1, 0.5)
        for g in (0.5, 3.0, 40.0):
            want = 1.0 - math.fsum((w * stats.poisson.pmf(np.arange(u), 0.5 * g)).tolist())
            assert abs(auc_instantaneous(u, g) - want) <= 1e-15
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=3.0)
        half = FadingParams(p.m, p.m_s, 0.5 * p.mean_snr)
        want = 1.0 - math.fsum((w * detection._ladder(half, u)[:u]).tolist())
        assert abs(auc_average(u, p) - want) <= 1e-15


class TestAverage:
    def test_against_quadrature(self):
        cases = [
            (2, FadingParams(m=1.0, m_s=1.5, mean_snr=1.0)),
            (2, FadingParams(m=2.5, m_s=4.3, mean_snr=10.0 ** 0.5)),
            (2, FadingParams(m=15.0, m_s=30.0, mean_snr=1.0)),
            (1, FadingParams(m=1.3, m_s=2.7, mean_snr=2.0)),
            (3, FadingParams(m=5.6, m_s=1.1, mean_snr=0.5)),
        ]
        for u, p in cases:
            want, err = integrate.quad(
                lambda g: auc_instantaneous(u, g) * snr_pdf(p, g), 0.0, np.inf, limit=400
            )
            assert err < 1e-7
            assert abs(auc_average(u, p) - want) < 1e-8

    def test_monotone_in_mean_snr(self):
        vals = [
            auc_average(2, FadingParams(m=2.0, m_s=3.0, mean_snr=s))
            for s in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.5 <= v <= 1.0 for v in vals)

    def test_heavier_shadowing_hurts(self):
        # smaller m_s means heavier shadowing and a smaller area
        a_heavy = auc_average(2, FadingParams(m=2.0, m_s=1.2, mean_snr=2.0))
        a_light = auc_average(2, FadingParams(m=2.0, m_s=30.0, mean_snr=2.0))
        assert a_heavy < a_light

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_average(0, FadingParams(m=2.0, m_s=3.0, mean_snr=1.0))

    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8, 32, 128])
    def test_against_an_independent_reference(self, u):
        rng = np.random.default_rng(9000 + u)
        for _ in range(4):
            m = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
            ms = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            p = FadingParams.from_db(m, ms, rng.uniform(-10.0, 30.0))
            assert abs(auc_average(u, p) - _reference_auc(u, p)) <= 1e-12

    @pytest.mark.parametrize("order", [(1, 2, 5, 32), (32, 5, 2, 1), (5, 1, 32, 2)])
    def test_results_do_not_depend_on_the_cache(self, order, cold_ladders):
        chans = [FadingParams.from_db(2.0, 3.0, 5.0), FadingParams.from_db(0.7, 1.05, 12.0)]
        cold = {}
        for u in order:
            for p in chans:
                detection._ladders.clear()
                cold[u, p] = auc_average(u, p)
        for u in order:  # the first u of the order now builds the shared ladders
            for p in chans:
                assert auc_average(u, p) == cold[u, p]
        for u in order[::-1]:
            for p in chans:
                assert auc_average(u, p) == cold[u, p]

    def test_long_ladder_is_bounded_in_time_and_memory(self, cold_ladders):
        p = FadingParams.from_db(2.0, 3.0, 7.0)
        start = time.perf_counter()
        value = auc_average(500, p)
        elapsed = time.perf_counter() - start
        detection._ladders.clear()
        tracemalloc.start()
        try:
            assert auc_average(500, p) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < value < 1.0
        assert elapsed <= 0.5
        assert peak <= 16 * 2**20
