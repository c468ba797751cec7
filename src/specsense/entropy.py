"""Entropies of the F composite SNR law and encoder fits.

Shannon entropy of the SNR density, cross entropies against Rayleigh
(exponential SNR) and Nakagami (gamma SNR) encoders, the KL divergences
they imply, and the gamma-law maximum-likelihood fit used to pick the
Nakagami encoder from channel samples. All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fading import FadingParams, _scaled_ratios
from .montecarlo import philox_stream
from .special_fn import ConvergenceError, _ln_minus_digamma, check_count, digamma, ln_beta

__all__ = [
    "FittedEncoders",
    "EntropyReport",
    "shannon_entropy",
    "mean_log_snr",
    "cross_entropy_rayleigh",
    "cross_entropy_nakagami",
    "fit_nakagami_mle",
    "nakagami_projection",
    "entropy_report",
]

_LN2 = math.log(2.0)

# (m, m_s) rows of the reference entropy table, shared by the CLI's
# `entropy --table` and the acceptance anchors.
_TABLE_PAIRS = ((2.0, 3.0), (2.0, 30.0), (20.0, 3.0), (20.0, 30.0))


class FittedEncoders(NamedTuple):
    m_hat: float
    mean_snr_n: float


@dataclass(frozen=True)
class EntropyReport:
    """Entropy table row for one channel: model entropy, encoder cross
    entropies, their KL divergences, and the fitted encoder parameters."""

    shannon_bits: float
    cross_rayleigh_bits: float
    cross_nakagami_bits: float
    kl_rayleigh_bits: float
    kl_nakagami_bits: float
    fitted: FittedEncoders

    def __post_init__(self):
        # Gibbs inequality up to float rounding
        if self.kl_rayleigh_bits < -1e-9 or self.kl_nakagami_bits < -1e-9:
            raise ValueError("negative KL divergence beyond rounding slack")


def shannon_entropy(p: FadingParams) -> float:
    """Differential entropy (bits) of the F composite SNR density."""
    m, ms = p.m, p.m_s
    polygamma_part = (m + ms) * digamma(m + ms) - (m - 1.0) * digamma(m) - (ms + 1.0) * digamma(ms)
    return polygamma_part / _LN2 + (ln_beta(m, ms) + math.log(p.snr_scale)) / _LN2


def mean_log_snr(p: FadingParams) -> float:
    """E[ln gamma] under the F composite SNR law: ln z + psi(m) - psi(m_s)."""
    return math.log(p.snr_scale) + digamma(p.m) - digamma(p.m_s)


def cross_entropy_rayleigh(p: FadingParams, mean_snr_r: float) -> float:
    """Cross entropy (bits) against an exponential-SNR (Rayleigh) encoder.

    Depends on the channel only through its mean SNR, so every channel with
    the same average SNR shares this value.
    """
    if not mean_snr_r > 0.0:
        raise ValueError("mean_snr_r must be positive")
    return math.log2(mean_snr_r) + p.mean_snr / (_LN2 * mean_snr_r)


def cross_entropy_nakagami(p: FadingParams, m_hat: float, mean_snr_n: float) -> float:
    """Cross entropy (bits) against a gamma-SNR (Nakagami) encoder with
    shape m_hat and mean mean_snr_n."""
    if not m_hat > 0.0:
        raise ValueError("m_hat must be positive")
    if not mean_snr_n > 0.0:
        raise ValueError("mean_snr_n must be positive")
    moment_part = m_hat * p.mean_snr / (_LN2 * mean_snr_n)
    norm_part = -(m_hat * math.log(m_hat) - math.lgamma(m_hat) - m_hat * math.log(mean_snr_n)) / _LN2
    log_part = (m_hat - 1.0) / _LN2 * (-mean_log_snr(p))
    return moment_part + norm_part + log_part


_MAX_NEWTON = 100


def _solve_gamma_shape(s: float) -> float:
    """Solve ln k - psi(k) = s for the gamma shape k > 0.

    Newton from the classic moment-based start, with step halving to keep
    the iterate positive; the map is monotone so this cannot cycle. It
    stops once a step is below 1e-10 of k. Raises ConvergenceError naming
    s if the derivative underflows (k past about 1e154) or _MAX_NEWTON
    steps do not get there.
    """
    if not s > 0.0:
        raise ValueError("gamma-shape equation needs ln(mean) > mean(ln)")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MAX_NEWTON):
        f, fp = _ln_minus_digamma(k)
        if not fp < 0.0:
            raise ConvergenceError(f"gamma-shape Newton lost its derivative at k={k} (s={s})")
        step = (f - s) / fp
        while k - step <= 0.0:
            step *= 0.5
        k -= step
        if abs(step) <= 1e-10 * k:
            return k
    raise ConvergenceError(f"gamma-shape Newton did not converge in {_MAX_NEWTON} steps (s={s})")


def fit_nakagami_mle(samples) -> tuple[float, float]:
    """Gamma-law MLE (m_hat, mean) from strictly positive SNR samples.

    The mean is the exact MLE of the scale-mean; the shape solves
    ln m_hat - psi(m_hat) = ln(mean) - mean(ln). The Rayleigh fit is the
    restriction m_hat = 1 with the same mean. The samples are not changed.
    """
    return _fit(np.asarray(samples, dtype=float), None)


def _fit(arr: np.ndarray, log_out) -> tuple[float, float]:
    """fit_nakagami_mle on a float array, writing ln(arr) into log_out; a
    caller that passes arr itself gets the fit without a fourth array."""
    if arr.ndim != 1 or arr.size < 100:
        raise ValueError("need at least 100 samples in a flat sequence")
    # min is nan if any sample is; two reductions allocate no temporaries
    if not (arr.min() > 0.0 and arr.max() < math.inf):
        raise ValueError("samples must be strictly positive and finite")
    mean = float(np.mean(arr))
    s = math.log(mean) - float(np.mean(np.log(arr, out=log_out)))
    if not s > 0.0:
        raise ValueError("degenerate samples: no spread for the shape fit")
    return _solve_gamma_shape(s), mean


def nakagami_projection(p: FadingParams) -> tuple[float, float]:
    """Population-level gamma fit to the F law (infinite-sample MLE).

    The shape equation depends only on (m, m_s), which is why fitted shapes
    coincide across mean-SNR settings; the fitted mean is the channel mean.
    """
    s = math.log(p.m / (p.m_s - 1.0)) + digamma(p.m_s) - digamma(p.m)
    return _solve_gamma_shape(s), p.mean_snr


def entropy_report(p: FadingParams, sample_count: int, seed: int) -> EntropyReport:
    """Sample the channel, fit both encoders, and assemble the entropy row.

    The samples are sample_snr(p, philox_stream(seed, 0), sample_count).
    Channels that differ only in mean SNR draw the same gamma variates from
    one seed, so `specsense entropy --table` fits a pair's 5 dB and 15 dB
    rows, which share seed + k, from one draw; each row still equals
    entropy_report for its channel, bit for bit.
    """
    return _entropy_reports((p,), sample_count, seed)[0]


def _entropy_reports(channels, sample_count: int, seed: int) -> list[EntropyReport]:
    """entropy_report for each of channels, which share (m, m_s), from one
    draw: each channel's samples are built in turn in one buffer, whose
    mean is taken before its logs overwrite it."""
    check_count(sample_count, "sample_count", 100)
    m, ms = channels[0].m, channels[0].m_s
    rng = philox_stream(seed, 0)
    draws = _scaled_ratios(m, ms, [p.snr_scale for p in channels], rng, int(sample_count))
    reports = []
    for p, samples in zip(channels, draws):
        m_hat, mean_n = _fit(samples, samples)
        h_p = shannon_entropy(p)
        h_ray = cross_entropy_rayleigh(p, mean_n)
        h_nak = cross_entropy_nakagami(p, m_hat, mean_n)
        reports.append(EntropyReport(
            shannon_bits=h_p,
            cross_rayleigh_bits=h_ray,
            cross_nakagami_bits=h_nak,
            kl_rayleigh_bits=h_ray - h_p,
            kl_nakagami_bits=h_nak - h_p,
            fitted=FittedEncoders(m_hat=m_hat, mean_snr_n=mean_n),
        ))
    return reports
