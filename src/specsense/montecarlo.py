"""Monte Carlo oracle for the detector chain.

Draws each energy statistic from its exact law, chi-square(2u) under H0
and non-central chi-square(2u, 2*gamma) under H1, as one numpy variate, so
a trial costs the same time and memory at any u. numpy's samplers share no
code with this package's closed forms, so the simulation stays an
independent check. Fading is drawn as a scaled gamma ratio; fusion and
selection combining and the rank-statistic AUC act on the draws. Trials
are partitioned over counter-based random substreams keyed by (seed,
stream index), and results are reduced in fixed stream order, so output is
bit-identical for a given (seed, stream_count, trials) no matter how many
workers execute it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import DetectorConfig, _validate_rule
from .fading import FadingParams, sample_snr
from .special_fn import check_count

__all__ = [
    "SimConfig",
    "SimResult",
    "philox_stream",
    "sample_statistic",
    "simulate_average_pd",
    "simulate_fusion",
    "simulate_sls",
    "simulate_auc",
]

_CHUNK = 1 << 17
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Trial budget and random-stream layout for one simulation."""

    trials: int = 100_000
    seed: int = 1729
    stream_count: int = 8

    def __post_init__(self):
        check_count(self.trials, "trials", 1000)
        check_count(self.stream_count, "stream_count")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")


@dataclass(frozen=True)
class SimResult:
    """Point estimate with its binomial 95% half-width."""

    estimate: float
    trials: int
    ci95_halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("estimate must lie in [0, 1]")

    @classmethod
    def from_counts(cls, hits: float, trials: int) -> "SimResult":
        p = hits / trials
        half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        return cls(estimate=p, trials=trials, ci95_halfwidth=half)


def philox_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for one substream."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _worker_count(streams: int) -> int:
    cap = os.environ.get("SPECSENSE_THREADS", "").strip()
    if not cap:
        return max(1, min(os.cpu_count() or 1, streams))
    try:
        n = int(cap)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SPECSENSE_THREADS must be an integer >= 1, got {cap!r}")
    return min(n, streams)


def _stream_sizes(trials: int, streams: int) -> list[int]:
    base, rem = divmod(trials, streams)
    return [base + (1 if i < rem else 0) for i in range(streams)]


def _run_streams(sim: SimConfig, chunk: int, count) -> SimResult:
    """The SimResult of count(rng, k) summed over chunks of k <= chunk trials
    of each substream; the reduction order is fixed by stream index."""

    def task(i, n):
        rng = philox_stream(sim.seed, i)
        return sum(count(rng, min(chunk, n - done)) for done in range(0, n, chunk))

    jobs = [(i, n) for i, n in enumerate(_stream_sizes(sim.trials, sim.stream_count)) if n > 0]
    workers = _worker_count(sim.stream_count)
    if workers == 1:
        parts = [task(i, n) for i, n in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda j: task(*j), jobs))
    return SimResult.from_counts(float(sum(parts)), sim.trials)


def sample_statistic(u: int, gamma, hypothesis: str, rng: np.random.Generator, size=None):
    """Energy statistic draws: chi-square(2u), non-central under H1.

    One numpy call draws every statistic from its exact law: chisquare(2u)
    under H0, and under H1 noncentral_chisquare(2u, 2*gamma), which for
    2u > 1 degrees of freedom numpy builds as chi-square(2u - 1) plus
    (N + sqrt(2*gamma))^2. A draw costs one or two variates at any u.
    numpy's samplers are not this package's closed forms, so the oracle
    stays independent. gamma may be an array matching size for per-draw
    SNRs; under H1 it must be finite and nonnegative.
    """
    check_count(u)
    hyp = hypothesis.upper()
    if hyp not in ("H0", "H1"):
        raise ValueError("hypothesis must be 'H0' or 'H1'")
    n = 1 if size is None else size
    if hyp == "H0":
        y = rng.chisquare(2 * u, n)
    else:
        g = np.asarray(gamma, dtype=float)
        if not np.all(np.isfinite(g) & (g >= 0.0)):
            raise ValueError("gamma must be finite and nonnegative")
        y = rng.noncentral_chisquare(2 * u, 2.0 * g, n)
    return float(y[0]) if size is None else y


def simulate_average_pd(cfg: DetectorConfig, p: FadingParams, sim: SimConfig) -> SimResult:
    """Fraction of H1 trials over sampled fading exceeding the effective
    threshold; the stochastic counterpart of average_pd."""
    return simulate_fusion(cfg, p, 1, "or", sim)


def simulate_fusion(
    cfg: DetectorConfig, p: FadingParams, n_users: int, rule: str, sim: SimConfig
) -> SimResult:
    """Collaborative detection estimate: n_users i.i.d. channel/statistic
    draws per trial, individual decisions fused by OR or AND."""
    check_count(n_users, "n_users")
    fuse = np.any if _validate_rule(rule) == "or" else np.all
    lam_eff = cfg.effective_threshold

    def count(rng, k):
        g = sample_snr(p, rng, size=(k, n_users))
        y = sample_statistic(cfg.u, g, "H1", rng, size=(k, n_users))
        return int(np.count_nonzero(fuse(y > lam_eff, axis=1)))

    return _run_streams(sim, max(1, _CHUNK // int(n_users)), count)


def simulate_sls(
    cfg: DetectorConfig, branch_params, sim: SimConfig, hypothesis: str = "H1"
) -> SimResult:
    """Square-law selection estimate: decide on the maximum branch
    statistic. hypothesis='H0' estimates the SLS false alarm at the
    nominal threshold instead."""
    branch_params = list(branch_params)
    if len(branch_params) == 0:
        raise ValueError("simulate_sls needs at least one branch")
    hyp = hypothesis.upper()
    if hyp not in ("H0", "H1"):
        raise ValueError("hypothesis must be 'H0' or 'H1'")
    lam = cfg.effective_threshold if hyp == "H1" else cfg.threshold
    u = cfg.u
    n_br = len(branch_params)

    def count(rng, k):
        if hyp == "H1":
            g = np.stack([sample_snr(bp, rng, size=k) for bp in branch_params], axis=1)
            y = sample_statistic(u, g, "H1", rng, size=(k, n_br))
        else:
            y = sample_statistic(u, 0.0, "H0", rng, size=(k, n_br))
        return int(np.count_nonzero(y.max(axis=1) > lam))

    return _run_streams(sim, max(1, _CHUNK // n_br), count)


def simulate_auc(u: int, p: FadingParams, sim: SimConfig) -> SimResult:
    """Rank-statistic AUC: fraction of paired (H1, H0) statistic draws with
    the H1 draw larger; ties count half. Fresh fading per pair."""
    check_count(u)

    def count(rng, k):
        g = sample_snr(p, rng, size=k)
        y1 = sample_statistic(u, g, "H1", rng, size=k)
        y0 = sample_statistic(u, 0.0, "H0", rng, size=k)
        return float(np.count_nonzero(y1 > y0)) + 0.5 * float(np.count_nonzero(y1 == y0))

    return _run_streams(sim, _CHUNK, count)
