"""Tests for the composite fading channel model.

Distributional checks use seeded generators so runs are reproducible;
density oracles are scipy's beta-prime family and direct quadrature.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from specsense.fading import (
    FadingParams,
    db_to_linear,
    envelope_pdf,
    linear_to_db,
    sample_snr,
    snr_pdf,
)
from specsense.montecarlo import philox_stream


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FadingParams(m=0.0, m_s=2.0, mean_snr=1.0)
        with pytest.raises(ValueError):
            FadingParams(m=1.0, m_s=1.0, mean_snr=1.0)
        with pytest.raises(ValueError):
            FadingParams(m=1.0, m_s=2.0, mean_snr=0.0)

    @pytest.mark.parametrize("field", ("m", "m_s", "mean_snr"))
    @pytest.mark.parametrize("value", (math.inf, math.nan))
    def test_non_finite_fields_are_rejected(self, field, value):
        # an infinite shape or SNR used to reach the series and grow NaN
        # ladder rows up to max_terms
        kwargs = dict(m=2.0, m_s=3.0, mean_snr=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FadingParams(**kwargs)

    def test_db_round_trip(self):
        p = FadingParams.from_db(2.0, 3.0, 7.5)
        assert math.isclose(p.mean_snr, db_to_linear(7.5), rel_tol=1e-15)
        assert math.isclose(p.mean_snr_db, 7.5, rel_tol=1e-12)
        assert math.isclose(linear_to_db(db_to_linear(-4.2)), -4.2, rel_tol=1e-12)

    def test_snr_scale(self):
        # scale = (m_s - 1) mean / m keeps the mean at mean_snr
        p = FadingParams(m=2.5, m_s=4.0, mean_snr=6.0)
        assert math.isclose(p.snr_scale, 3.0 * 6.0 / 2.5, rel_tol=1e-15)


class TestSnrPdf:
    def test_origin_behavior(self):
        # m > 1 vanishes at zero; m = 1 starts at m_s/((m_s-1) mean)
        assert snr_pdf(FadingParams(m=2.0, m_s=3.0, mean_snr=1.0), 0.0) == 0.0
        p = FadingParams(m=1.0, m_s=2.0, mean_snr=1.0)
        assert math.isclose(snr_pdf(p, 0.0), 2.0, rel_tol=1e-13)
        assert math.isinf(snr_pdf(FadingParams(m=0.7, m_s=3.0, mean_snr=1.0), 0.0))

    def test_matches_beta_prime(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = FadingParams(
                m=float(rng.uniform(0.5, 12.0)),
                m_s=float(rng.uniform(1.2, 20.0)),
                mean_snr=float(rng.uniform(0.2, 8.0)),
            )
            g = float(rng.uniform(0.01, 10.0))
            want = stats.betaprime.pdf(g, p.m, p.m_s, scale=p.snr_scale)
            assert math.isclose(snr_pdf(p, g), want, rel_tol=1e-12)

    def test_normalization_and_mean(self):
        p = FadingParams(m=1.8, m_s=2.6, mean_snr=3.0)
        total, _ = integrate.quad(lambda g: snr_pdf(p, g), 0.0, np.inf, limit=300)
        mean, _ = integrate.quad(lambda g: g * snr_pdf(p, g), 0.0, np.inf, limit=300)
        assert math.isclose(total, 1.0, abs_tol=1e-8)
        assert math.isclose(mean, 3.0, rel_tol=1e-7)

    def test_accepts_arrays(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=1.0)
        g = np.linspace(0.0, 5.0, 9)
        out = snr_pdf(p, g)
        assert out.shape == g.shape
        assert float(out[0]) == 0.0

    def test_unimodal_above_one(self):
        p = FadingParams(m=3.0, m_s=4.0, mean_snr=2.0)
        g = np.linspace(1e-4, 20.0, 2000)
        f = snr_pdf(p, g)
        peak = int(np.argmax(f))
        assert 0 < peak < len(g) - 1
        assert np.all(np.diff(f[: peak + 1]) > 0)
        assert np.all(np.diff(f[peak:]) < 0)


class TestEnvelopePdf:
    def test_origin_behavior(self):
        assert envelope_pdf(FadingParams(m=1.0, m_s=2.0, mean_snr=1.0), 0.0) == 0.0
        p_half = FadingParams(m=0.5, m_s=2.0, mean_snr=1.0)
        assert np.isfinite(envelope_pdf(p_half, 0.0)) and envelope_pdf(p_half, 0.0) > 0.0
        assert math.isinf(envelope_pdf(FadingParams(m=0.3, m_s=2.0, mean_snr=1.0), 0.0))

    def test_normalization_and_power(self):
        # second moment of the envelope is the mean SNR
        p = FadingParams(m=1.7, m_s=3.2, mean_snr=2.5)
        total, _ = integrate.quad(lambda r: envelope_pdf(p, r), 0.0, np.inf, limit=300)
        power, _ = integrate.quad(lambda r: r * r * envelope_pdf(p, r), 0.0, np.inf, limit=300)
        assert math.isclose(total, 1.0, abs_tol=1e-8)
        assert math.isclose(power, 2.5, rel_tol=1e-6)

    @pytest.mark.parametrize("m", (0.3, 0.5, 1.0, 2.7, 12.0))
    def test_is_the_snr_density_of_r_squared(self, m):
        # r = sqrt(gamma) for the channel's own SNR, so f_R(r) = 2 r f_gamma(r^2)
        r = np.geomspace(1e-6, 30.0, 200)
        for p in (FadingParams(m=m, m_s=3.4, mean_snr=2.3), FadingParams.from_db(m, 3.4, 10.0)):
            np.testing.assert_allclose(envelope_pdf(p, r), 2.0 * r * snr_pdf(p, r * r), rtol=1e-13, atol=0.0)
            at_origin = envelope_pdf(p, 0.0)
            if m < 0.5:
                assert math.isinf(at_origin) and math.isinf(snr_pdf(p, 0.0))
            elif m == 0.5:
                # f_gamma blows up as gamma^{-1/2}, so 2 r f_gamma(r^2) keeps a finite limit
                assert math.isclose(at_origin, 2e-20 * snr_pdf(p, 1e-40), rel_tol=1e-13)
            else:
                assert at_origin == 0.0


class TestSampling:
    def test_scalar_and_shape_conventions(self):
        p = FadingParams(m=2.0, m_s=3.0, mean_snr=1.0)
        rng = philox_stream(1, 0)
        one = sample_snr(p, rng)
        assert isinstance(one, float)
        arr = sample_snr(p, rng, size=(3, 4))
        assert arr.shape == (3, 4)
        assert np.all(arr > 0)

    def test_mean_matches_setting(self):
        p = FadingParams(m=2.2, m_s=3.1, mean_snr=2.0)
        rng = philox_stream(5152, 0)
        s = sample_snr(p, rng, size=1_000_000)
        se = float(np.std(s)) / 1000.0
        assert abs(float(np.mean(s)) - 2.0) < 3.0 * se

    def test_second_moment(self):
        # finite only for m_s > 2: z^2 m (m+1) / ((m_s-1)(m_s-2))
        p = FadingParams(m=2.0, m_s=4.0, mean_snr=1.5)
        z = p.snr_scale
        want = z * z * p.m * (p.m + 1.0) / ((p.m_s - 1.0) * (p.m_s - 2.0))
        rng = philox_stream(5152, 0)
        s = sample_snr(p, rng, size=1_000_000)
        m2 = float(np.mean(s * s))
        se = float(np.std(s * s)) / 1000.0
        assert abs(m2 - want) < 3.0 * se

    def test_distribution_ks(self):
        p = FadingParams(m=2.2, m_s=3.1, mean_snr=2.0)
        rng = philox_stream(5150, 0)
        s = sample_snr(p, rng, size=100_000)
        res = stats.kstest(s, lambda g: stats.betaprime.cdf(g, p.m, p.m_s, scale=p.snr_scale))
        assert res.pvalue > 0.01

    def test_rayleigh_limit_histogram(self):
        # m = 1 with huge m_s collapses to an exponential SNR density
        p = FadingParams(m=1.0, m_s=1e4, mean_snr=2.0)
        rng = philox_stream(5151, 0)
        s = sample_snr(p, rng, size=200_000)
        edges = np.linspace(0.0, 12.0, 61)
        hist, _ = np.histogram(s, bins=edges, density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert float(np.max(np.abs(hist - np.exp(-mids / 2.0) / 2.0))) < 0.01


class TestNakagamiLimit:
    def test_pdf_converges_as_shadowing_vanishes(self):
        # the Nakagami-m SNR density is a gamma law with shape m and mean 2
        g = np.linspace(1e-3, 15.0, 400)
        for m in (1.0, 2.5):
            sup = []
            for ms in (1e3, 1e4):
                p = FadingParams(m=m, m_s=ms, mean_snr=2.0)
                sup.append(float(np.max(np.abs(snr_pdf(p, g) - stats.gamma.pdf(g, m, scale=2.0 / m)))))
            assert sup[1] < sup[0]
            assert sup[1] < 1e-3
