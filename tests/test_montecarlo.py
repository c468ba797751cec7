"""Tests for the Monte Carlo estimators.

Key guarantees: estimates are reproducible bit for bit regardless of the
worker thread count (streams, not workers, partition the trials), and
they agree with the analytic counterparts within binomial error.
"""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from specsense import montecarlo
from specsense.auc import auc_average
from specsense.detection import (
    DetectorConfig,
    average_pd,
    collaborative_pd,
    pd_awgn,
    sls_average_pd,
    sls_pfa,
    threshold_for_pfa,
)
from specsense.fading import FadingParams, sample_snr
from specsense.montecarlo import (
    SimConfig,
    SimResult,
    philox_stream,
    sample_statistic,
    simulate_auc,
    simulate_average_pd,
    simulate_fusion,
    simulate_sls,
)

CH = FadingParams.from_db(3.5, 4.3, 3.0)
CFG = DetectorConfig(u=2, threshold=7.0)


def _with_thread_env(value, fn):
    """Run fn with SPECSENSE_THREADS pinned, restoring the prior value."""
    old = os.environ.get("SPECSENSE_THREADS")
    try:
        if value is None:
            os.environ.pop("SPECSENSE_THREADS", None)
        else:
            os.environ["SPECSENSE_THREADS"] = str(value)
        return fn()
    finally:
        if old is None:
            os.environ.pop("SPECSENSE_THREADS", None)
        else:
            os.environ["SPECSENSE_THREADS"] = old


class TestConfigTypes:
    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=999)
        with pytest.raises(ValueError):
            SimConfig(trials=10_000, stream_count=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10_000, seed=1.5)

    def test_sim_result_from_counts(self):
        r = SimResult.from_counts(250, 1000)
        assert r.estimate == 0.25
        assert r.trials == 1000
        assert math.isclose(r.ci95_halfwidth, 1.96 * math.sqrt(0.25 * 0.75 / 1000), rel_tol=1e-12)
        with pytest.raises(ValueError):
            SimResult(estimate=1.5, trials=10, ci95_halfwidth=0.1)


class TestStreams:
    def test_reproducible_and_distinct(self):
        a = philox_stream(42, 0).standard_normal(8)
        b = philox_stream(42, 0).standard_normal(8)
        c = philox_stream(42, 1).standard_normal(8)
        d = philox_stream(43, 0).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_substream_homogeneity(self):
        # hit counts across substreams look like one binomial population
        from scipy import stats

        lam = threshold_for_pfa(2, 0.1)
        p = FadingParams.from_db(2.0, 3.0, 5.0)
        n_per = 25_000
        counts = []
        for i in range(8):
            rng = philox_stream(777, i)
            g = sample_snr(p, rng, size=n_per)
            y = sample_statistic(2, g, "H1", rng, size=n_per)
            counts.append(int(np.count_nonzero(y > lam)))
        counts = np.array(counts)
        pool = counts.sum() / (8 * n_per)
        expected = n_per * pool
        chi2 = float(np.sum((counts - expected) ** 2 / (expected * (1.0 - pool))))
        assert stats.chi2.sf(chi2, df=7) > 0.01


class TestStatistic:
    def test_moments(self):
        # statistic has mean 2u under H0 and 2u + 2 gamma under H1
        rng = philox_stream(31337, 0)
        y0 = sample_statistic(3, 0.0, "H0", rng, size=1_000_000)
        y1 = sample_statistic(3, 1.7, "H1", rng, size=1_000_000)
        se0 = float(np.std(y0)) / 1000.0
        se1 = float(np.std(y1)) / 1000.0
        assert abs(float(np.mean(y0)) - 6.0) < 3.0 * se0
        assert abs(float(np.mean(y1)) - (6.0 + 2.0 * 1.7)) < 3.0 * se1

    def test_tail_matches_detection_probability(self):
        from specsense.detection import pd_awgn

        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.05))
        rng = philox_stream(424242, 0)
        y = sample_statistic(2, 3.0, "H1", rng, size=400_000)
        est = float(np.mean(y > cfg.threshold))
        want = pd_awgn(cfg, 3.0)
        se = math.sqrt(want * (1.0 - want) / 400_000)
        assert abs(est - want) < 3.0 * se

    def test_scalar_mode_and_validation(self):
        rng = philox_stream(1, 0)
        one = sample_statistic(2, 1.0, "H1", rng)
        assert isinstance(one, float)
        with pytest.raises(ValueError):
            sample_statistic(2, 1.0, "H2", rng)
        with pytest.raises(ValueError):
            sample_statistic(0, 1.0, "H1", rng)

    def test_non_finite_snr_is_rejected(self):
        # a NaN statistic would silently count as a miss
        rng = philox_stream(1, 0)
        for g in (np.array([np.nan, 1.0, np.inf]), np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
                sample_statistic(2, g, "H1", rng, size=3)


class TestLargeU:
    @pytest.mark.parametrize("u, gamma", [(32, 8.0), (500, 30.0)])
    def test_exceedance_rates_match_closed_forms(self, u, gamma):
        cfg = DetectorConfig(u=u, threshold=threshold_for_pfa(u, 0.1))
        n = 200_000
        rng = philox_stream(6100 + u, 0)
        for hyp, g, want in (("H0", 0.0, 0.1), ("H1", gamma, pd_awgn(cfg, gamma))):
            est = float(np.count_nonzero(sample_statistic(u, g, hyp, rng, size=n) > cfg.threshold)) / n
            assert abs(est - want) < 3.0 * math.sqrt(want * (1.0 - want) / n), hyp
        # the stacked (trials, branches) draw of selection combining
        r = simulate_sls(cfg, [CH, CH], SimConfig(trials=100_000, seed=6200 + u, stream_count=1),
                         hypothesis="H0")
        assert abs(r.estimate - sls_pfa(u, cfg.threshold, 2)) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_memory_does_not_grow_with_u(self):
        # 2u normals per trial would peak near 130 MiB here
        cfg = DetectorConfig(u=32, threshold=threshold_for_pfa(32, 0.1))
        sim = SimConfig(trials=140_000, seed=6300, stream_count=1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            simulate_average_pd(cfg, CH, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestThreadCap:
    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-2"])
    def test_invalid_cap_is_rejected(self, monkeypatch, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setenv("SPECSENSE_THREADS", value)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=f"SPECSENSE_THREADS .*{re.escape(repr(value))}"):
            simulate_average_pd(CFG, CH, SimConfig(trials=1000, seed=1))

    def test_valid_cap_is_capped_by_streams(self, monkeypatch):
        for value, want in (("1", 1), (" 3 ", 3), ("16", 8)):
            monkeypatch.setenv("SPECSENSE_THREADS", value)
            assert montecarlo._worker_count(8) == want


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        sim = SimConfig(trials=4000, seed=31007)
        baselines = None
        for threads in (None, 1, 3):
            vals = _with_thread_env(
                threads,
                lambda: (
                    simulate_average_pd(CFG, CH, sim).estimate,
                    simulate_fusion(CFG, CH, 3, "or", sim).estimate,
                    simulate_sls(CFG, [CH, CH], sim).estimate,
                    simulate_auc(2, CH, sim).estimate,
                ),
            )
            if baselines is None:
                baselines = vals
            else:
                assert vals == baselines

    def test_same_seed_same_answer_different_seed_differs(self):
        sim1 = SimConfig(trials=4000, seed=5)
        sim2 = SimConfig(trials=4000, seed=6)
        a = simulate_average_pd(CFG, CH, sim1).estimate
        b = simulate_average_pd(CFG, CH, sim1).estimate
        c = simulate_average_pd(CFG, CH, sim2).estimate
        assert a == b
        assert a != c

    def test_odd_trial_count_is_split_exactly(self):
        r = simulate_average_pd(CFG, CH, SimConfig(trials=1003, seed=5, stream_count=8))
        assert r.trials == 1003


class TestReductions:
    def test_single_user_fusion_equals_plain_detection(self):
        # eight streams, then one stream of three chunks
        for sim in (SimConfig(trials=20_000, seed=99), SimConfig(trials=300_001, seed=99, stream_count=1)):
            a = simulate_average_pd(CFG, CH, sim)
            assert simulate_fusion(CFG, CH, 1, "or", sim) == a
            assert simulate_sls(CFG, [CH], sim) == a

    def test_or_dominates_and_on_shared_draws(self):
        sim = SimConfig(trials=30_000, seed=2)
        assert (
            simulate_fusion(CFG, CH, 4, "or", sim).estimate
            >= simulate_fusion(CFG, CH, 4, "and", sim).estimate
        )


class TestAgreementWithAnalytic:
    def test_average_pd(self):
        sim = SimConfig(trials=200_000, seed=1201)
        r = simulate_average_pd(CFG, CH, sim)
        want = average_pd(CFG, CH)
        assert abs(r.estimate - want) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_fusion(self):
        sim = SimConfig(trials=200_000, seed=1202)
        r = simulate_fusion(CFG, CH, 3, "or", sim)
        want = collaborative_pd(average_pd(CFG, CH), 3, "or")
        assert abs(r.estimate - want) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_sls_detection(self):
        sim = SimConfig(trials=200_000, seed=1203)
        r = simulate_sls(CFG, [CH, CH], sim)
        want = sls_average_pd(CFG, [CH, CH])
        assert abs(r.estimate - want) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_sls_false_alarm(self):
        cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, 0.15))
        r = simulate_sls(cfg, [CH, CH], SimConfig(trials=100_000, seed=123), hypothesis="H0")
        want = sls_pfa(2, cfg.threshold, 2)
        assert abs(r.estimate - want) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_auc_rank_estimate(self):
        sim = SimConfig(trials=200_000, seed=1204)
        r = simulate_auc(2, CH, sim)
        want = auc_average(2, CH)
        assert abs(r.estimate - want) < 3.0 * (r.ci95_halfwidth / 1.96)

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            simulate_sls(CFG, [CH], SimConfig(trials=2000, seed=1), hypothesis="H2")
