"""Independent references for the benchmark's correctness checks.

Everything here is built from scipy and numpy alone, never from specsense,
and is imported only after a run's timed phase:

* average Pd: 1 - integral of chndtr(lam_eff; 2u, 2g) against the closed-form
  beta-prime SNR density, by scipy.integrate.quad on the log-SNR axis;
* AUC: P(Y1 > Y0) written as a Poisson mixture of regularized incomplete
  beta functions, averaged over the same density by quad;
* thresholds: 2 * gammainccinv(u, pf);
* entropy: scipy.stats.betaprime(m, m_s, scale=z).entropy();
* gamma-law MLE: ln k - psi(k) = s solved by brentq.

Nothing is stored: every reference value is recomputed from these formulas
on each run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

_LN2 = math.log(2.0)


def snr_scale(m: float, ms: float, mean_snr: float) -> float:
    """Scale z of the beta-prime SNR law with shapes (m, m_s)."""
    return (ms - 1.0) * mean_snr / m


def _log_axis_density(m: float, ms: float, z: float):
    """g * f(g) as a function of s = ln g, with f the beta-prime density,
    plus the s below which the density holds less than ~1e-20 of its mass."""
    ln_norm = -m * math.log(z) - special.betaln(m, ms)

    def weight(s: float) -> float:
        g = math.exp(s)
        return math.exp(ln_norm + m * s - (m + ms) * math.log1p(g / z))

    # left of the mode the log weight is ln_norm + m s to within ln 2
    s_mode = math.log(z * m / ms)
    s_lo = min(s_mode - 1.0, (-46.0 - ln_norm) / m)
    return weight, s_lo, s_mode


def average_pd(u: int, lam_eff: float, m: float, ms: float, mean_snr: float) -> float:
    """Fading-averaged detection probability at effective threshold lam_eff."""
    if lam_eff == 0.0:
        return 1.0
    z = snr_scale(m, ms, mean_snr)
    weight, s_lo, s_mode = _log_axis_density(m, ms, z)
    # past this SNR the noncentral CDF at lam_eff is below ~1e-300
    s_hi = math.log(0.5 * (math.sqrt(lam_eff) + 45.0) ** 2)
    if s_hi <= s_lo:
        return 1.0

    def integrand(s: float) -> float:
        return special.chndtr(lam_eff, 2 * u, 2.0 * math.exp(s)) * weight(s)

    knee = math.log(0.5 * lam_eff)
    pts = sorted(p for p in (s_mode, knee) if s_lo < p < s_hi)
    miss, _ = integrate.quad(
        integrand, s_lo, s_hi, points=pts or None, limit=400, epsabs=1e-14, epsrel=1e-12
    )
    return min(max(1.0 - miss, 0.0), 1.0)


def awgn_pd(u: int, lam_eff, gamma: float):
    """Detection probability at fixed SNR: the noncentral chi-square tail."""
    return 1.0 - special.chndtr(np.asarray(lam_eff, dtype=float), 2 * u, 2.0 * gamma)


def threshold(u: int, pf: float) -> float:
    """Exact threshold lambda with Q(u, lambda/2) = pf."""
    return 2.0 * float(special.gammainccinv(u, pf))


def pfa(u: int, lam: float) -> float:
    """False-alarm probability Q(u, lambda/2)."""
    return float(special.gammaincc(u, 0.5 * lam))


def auc_average(u: int, m: float, ms: float, mean_snr: float) -> float:
    """Fading-averaged AUC.

    Given the SNR g, Y1 ~ chi2(2u + 2K) with K ~ Poisson(g) and Y0 ~ chi2(2u),
    so P(Y1 > Y0) = sum_k Pois(k; g) * I_{1/2}(u, u + k).
    """
    z = snr_scale(m, ms, mean_snr)
    weight, s_lo, s_mode = _log_axis_density(m, ms, z)
    # 1 - AUC(g) decays like exp(-g/4); past g_hi it is below 1e-40
    g_hi = 400.0 + 20.0 * u
    k_max = int(g_hi + 40.0 * math.sqrt(g_hi) + 60.0)
    k = np.arange(k_max + 1, dtype=float)
    miss_k = special.betainc(u + k, float(u), 0.5)  # 1 - I_{1/2}(u, u+k)
    ln_fact = special.gammaln(k + 1.0)
    s_hi = math.log(g_hi)

    def integrand(s: float) -> float:
        g = math.exp(s)
        pmf = np.exp(k * s - g - ln_fact)
        return float(pmf @ miss_k) * weight(s)

    pts = [s_mode] if s_lo < s_mode < s_hi else None
    miss, _ = integrate.quad(
        integrand, s_lo, s_hi, points=pts, limit=400, epsabs=1e-14, epsrel=1e-12
    )
    return min(max(1.0 - miss, 0.0), 1.0)


def shannon_entropy_bits(m: float, ms: float, mean_snr: float) -> float:
    """Differential entropy of the SNR law, in bits."""
    z = snr_scale(m, ms, mean_snr)
    return float(stats.betaprime(m, ms, scale=z).entropy()) / _LN2


def gamma_shape(s: float) -> float:
    """Gamma shape k solving ln k - psi(k) = s (s > 0)."""

    def f(k: float) -> float:
        return math.log(k) - special.digamma(k) - s

    lo, hi = 1e-8, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(f, lo, hi, xtol=1e-15, rtol=1e-14, maxiter=500)


def gamma_projection(m: float, ms: float) -> float:
    """Population gamma-law shape fitted to the F SNR law."""
    s = math.log(m / (ms - 1.0)) + special.digamma(ms) - special.digamma(m)
    return gamma_shape(s)


def sampled_snr(m: float, ms: float, mean_snr: float, seed: int, stream: int, size: int):
    """SNR draws g = z X / Y with X, Y gamma variates on a Philox substream."""
    key = np.array([seed & (2**64 - 1), stream & (2**64 - 1)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.gamma(m, 1.0, size=size)
    y = rng.gamma(ms, 1.0, size=size)
    return snr_scale(m, ms, mean_snr) * x / y


def sample_mle_shape(samples: np.ndarray) -> float:
    """Gamma-law MLE shape of positive samples."""
    s = math.log(float(np.mean(samples))) - float(np.mean(np.log(samples)))
    return gamma_shape(s)


def cross_entropy_gamma_bits(m: float, ms: float, mean_snr: float, k: float, mu: float) -> float:
    """Cross entropy, in bits, of the F SNR law against a gamma law with
    shape k and mean mu (k = 1 is the Rayleigh encoder)."""
    z = snr_scale(m, ms, mean_snr)
    mean_log = math.log(z) + special.digamma(m) - special.digamma(ms)
    nats = -k * math.log(k / mu) + special.gammaln(k) - (k - 1.0) * mean_log + k * mean_snr / mu
    return float(nats) / _LN2
