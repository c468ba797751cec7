"""Tests for the entropy measures and the Nakagami/Rayleigh encoder fits.

Closed forms are validated against direct quadrature of the defining
integrals; the information inequality (every cross entropy at least the
source entropy) is exercised on a random parameter grid.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from specsense import entropy
from specsense.entropy import (
    EntropyReport,
    FittedEncoders,
    cross_entropy_nakagami,
    cross_entropy_rayleigh,
    entropy_report,
    fit_nakagami_mle,
    mean_log_snr,
    nakagami_projection,
    shannon_entropy,
)
from specsense.fading import FadingParams, sample_snr, snr_pdf
from specsense.montecarlo import philox_stream
from specsense.special_fn import ConvergenceError

LN2 = math.log(2.0)


class TestShannonEntropy:
    def test_scale_shift(self):
        # scaling the mean SNR by 10 adds exactly log2(10) bits
        p1 = FadingParams(m=2.0, m_s=3.0, mean_snr=1.2)
        p10 = FadingParams(m=2.0, m_s=3.0, mean_snr=12.0)
        assert math.isclose(
            shannon_entropy(p10) - shannon_entropy(p1), math.log2(10.0), rel_tol=1e-12
        )

    def test_against_quadrature(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=10.0 ** 0.5)

        def integrand(g):
            f = snr_pdf(p, g)
            return -f * math.log2(f) if f > 0.0 else 0.0

        want, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
        assert abs(shannon_entropy(p) - want) < 1e-8

    def test_plug_in_estimate_agrees(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=10.0 ** 1.5)
        rng = philox_stream(6001, 0)
        s = sample_snr(p, rng, size=1_000_000)
        vals = -np.log2(snr_pdf(p, s))
        se = float(np.std(vals)) / 1000.0
        assert abs(float(np.mean(vals)) - shannon_entropy(p)) < 3.0 * se

    def test_mean_log_snr(self):
        p = FadingParams(m=1.3, m_s=2.2, mean_snr=4.0)
        rng = philox_stream(6005, 0)
        s = sample_snr(p, rng, size=1_000_000)
        logs = np.log(s)
        se = float(np.std(logs)) / 1000.0
        assert abs(float(np.mean(logs)) - mean_log_snr(p)) < 3.0 * se


class TestCrossEntropies:
    def test_rayleigh_against_quadrature(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=10.0 ** 0.5)
        gr = 2.9

        def integrand(g):
            return -snr_pdf(p, g) * (-g / gr - math.log(gr)) / LN2

        want, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
        assert abs(cross_entropy_rayleigh(p, gr) - want) < 1e-8

    def test_nakagami_against_quadrature(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=10.0 ** 0.5)
        mh, gn = 1.7, 2.9

        def ln_q(g):
            return mh * math.log(mh / gn) - math.lgamma(mh) + (mh - 1.0) * math.log(g) - mh * g / gn

        want, _ = integrate.quad(lambda g: -snr_pdf(p, g) * ln_q(g) / LN2, 0.0, np.inf, limit=400)
        assert abs(cross_entropy_nakagami(p, mh, gn) - want) < 1e-8

    def test_unit_shape_is_rayleigh(self):
        p = FadingParams(m=1.6, m_s=2.4, mean_snr=3.0)
        assert cross_entropy_nakagami(p, 1.0, 3.7) == cross_entropy_rayleigh(p, 3.7)

    def test_information_inequality_random_grid(self):
        # H(p, q) >= H(p) for every encoder, not just the fitted one
        rng = np.random.default_rng(6002)
        for _ in range(60):
            p = FadingParams(
                m=float(rng.uniform(0.7, 8.0)),
                m_s=float(rng.uniform(1.2, 12.0)),
                mean_snr=float(rng.uniform(0.3, 20.0)),
            )
            h = shannon_entropy(p)
            gr = float(rng.uniform(0.3, 20.0))
            mh = float(rng.uniform(0.6, 6.0))
            gn = float(rng.uniform(0.3, 20.0))
            assert cross_entropy_rayleigh(p, gr) >= h
            assert cross_entropy_nakagami(p, mh, gn) >= h


class TestMleFit:
    def test_recovers_gamma_parameters(self):
        rng = philox_stream(6004, 0)
        samples = rng.gamma(2.0, 2.5, size=1_000_000)
        m_hat, mean = fit_nakagami_mle(samples)
        assert abs(m_hat - 2.0) < 0.01
        assert abs(mean - 5.0) / 5.0 < 0.01

    def test_leaves_its_samples_unchanged(self):
        samples = philox_stream(6006, 0).gamma(2.0, 2.5, size=1000)
        kept = samples.copy()
        fit_nakagami_mle(samples)
        assert samples.tobytes() == kept.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_nakagami_mle(np.ones(50))
        with pytest.raises(ValueError):
            fit_nakagami_mle(np.concatenate([np.ones(200), [-1.0]]))
        with pytest.raises(ValueError):
            fit_nakagami_mle(np.concatenate([np.ones(200), [np.inf]]))
        with pytest.raises(ValueError):
            # constant samples leave the shape equation unsolvable
            fit_nakagami_mle(np.full(200, 3.3))

    def test_nearly_constant_samples(self):
        # s = ln(mean) - mean(ln) is about 5e-21 here, where ln k - psi(k)
        # and its derivative cancel to nothing unless taken from their tails
        samples = np.ones(100)
        samples[-1] = 1.0 + 1e-9
        m_hat, _ = fit_nakagami_mle(samples)
        s = math.log(float(np.mean(samples))) - float(np.mean(np.log(samples)))
        with mpmath.workdps(60):
            want = mpmath.findroot(lambda k: mpmath.log(k) - mpmath.digamma(k) - s, 0.5 / s)
        assert math.isclose(m_hat, float(want), rel_tol=1e-12)

    def test_shape_solver_names_s_when_it_fails(self, monkeypatch):
        # at s = 1e-300 the derivative underflows to 0
        with pytest.raises(ConvergenceError, match=r"s=1e-300\)"):
            entropy._solve_gamma_shape(1e-300)
        monkeypatch.setattr(entropy, "_MAX_NEWTON", 1)
        with pytest.raises(ConvergenceError, match=r"in 1 steps \(s=0\.37\)"):
            entropy._solve_gamma_shape(0.37)

    def test_population_projection(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=10.0 ** 0.5)
        m_hat, mean = nakagami_projection(p)
        assert math.isclose(m_hat, 1.1377247, rel_tol=1e-6)
        assert mean == p.mean_snr
        # the projected shape depends only on the shape pair, not the mean
        m_hat2, _ = nakagami_projection(FadingParams(m=2.0, m_s=3.0, mean_snr=42.0))
        assert m_hat2 == m_hat

    def test_fit_approaches_projection(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=2.0)
        rng = philox_stream(6006, 0)
        m_hat, _ = fit_nakagami_mle(sample_snr(p, rng, size=2_000_000))
        want, _ = nakagami_projection(p)
        assert abs(m_hat - want) < 0.01


class TestReport:
    def test_divergences_are_nonnegative(self):
        rep = entropy_report(FadingParams(m=2.0, m_s=3.0, mean_snr=2.0), sample_count=50_000, seed=77)
        assert rep.kl_rayleigh_bits >= 0.0
        assert rep.kl_nakagami_bits >= 0.0
        assert rep.kl_nakagami_bits <= rep.kl_rayleigh_bits + 1e-12
        assert math.isclose(rep.kl_rayleigh_bits, rep.cross_rayleigh_bits - rep.shannon_bits, rel_tol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=2.0)
        assert entropy_report(p, sample_count=50_000, seed=77) == entropy_report(p, sample_count=50_000, seed=77)

    def test_near_nakagami_channel_fits_almost_perfectly(self):
        rep = entropy_report(FadingParams(m=2.5, m_s=1e3, mean_snr=2.0), sample_count=200_000, seed=6003)
        assert rep.kl_nakagami_bits < 0.01

    def test_rejects_negative_divergence(self):
        with pytest.raises(ValueError):
            EntropyReport(
                shannon_bits=3.0,
                cross_rayleigh_bits=2.0,
                cross_nakagami_bits=3.5,
                kl_rayleigh_bits=-1.0,
                kl_nakagami_bits=0.5,
                fitted=FittedEncoders(m_hat=1.0, mean_snr_n=1.0),
            )

    def test_sample_count_validation(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=2.0)
        with pytest.raises(ValueError):
            entropy_report(p, sample_count=50, seed=1)
