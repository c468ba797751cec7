"""Area under the detector's ROC curve.

For a fixed SNR gamma the area of the integer-u energy detector is the
finite double sum

    A(gamma) = 1 - sum_{l<u} sum_{i<=l} C(l+u-1, l-i)
                   * gamma^i / (i! 2^{l+u+i}) * exp(-gamma/2).

Gathering the terms of each i turns it into one sum of u terms,

    A(gamma) = 1 - sum_{i<u} w_i(u) * Pois(i; gamma/2),

where Pois(i; x) = x^i e^{-x} / i! and the l-sum

    w_i(u) = sum_{l=i}^{u-1} C(l+u-1, l-i) / 2^{l+u}
           = P(Binomial(2u-1, 1/2) >= u+i)

is a negative-binomial CDF: the chance that u+i fair successes arrive
before u-i failures, that is within 2u-1 trials. The weights depend on u
alone and cost O(sqrt(u)): a ratio recurrence for the binomial masses
and a reversed cumsum. w_0 = 1/2, so A(0) = 1/2.

Both sums stop at K, the first i with w_i <= 1e-20. The weights fall and
the Poisson weights they meet sum to at most 1, so the terms left out add
at most w_K <= 1e-20. By Hoeffding w_i <= exp(-2(i+1/2)^2/(2u-1)), so K
is below 7 sqrt(u): 655 at u = 1e4. Up to u = 33 every w_i passes 1e-20,
and K = u.

Averaging over F composite fading only replaces Pois(i; gamma/2) by its
fading average E[Pois(i; gamma/2)]. gamma/2 is the SNR of the same channel
at half the mean SNR, so that average is c_i, the i-th coefficient of the
half-SNR channel's series ladder (detection._ladder), which holds exactly
the fading-averaged Poisson weights c_n = E[Pois(n; gamma)]. The AUC then
shares the ladder cache with average_pd and the ROCs: a warm call is a
K-term dot product, and a cold one builds K ladder rows.

Both sums weigh probabilities by 0 <= w_i <= 1/2, so the areas lie in
[1/2, 1] without clipping. They are taken by math.fsum, correctly rounded
and independent of how the arrays were built.
"""

from __future__ import annotations

import math

import numpy as np

from .detection import _ladder, _u_tables
from .fading import FadingParams
from .special_fn import _ln_factorials, check_count, poisson_pmf

__all__ = ["auc_instantaneous", "auc_average"]


def _weights(u: int) -> np.ndarray:
    """Rows (w, ln i!) for i = 0..K-1, with w_i = P(Binomial(2u-1, 1/2) >=
    u+i) and K the first i where w_i <= 1e-20, or u; the area functions
    keep them in detection._u_tables.

    The binomial masses at k = u+i, relative to the one at k = u, follow
    from their ratios (2u-1-k)/(k+1) for i up to min(u-1, J), J = ceil(10
    sqrt(u)) + 20 > K: by the Hoeffding bound above, those past J add w_{J+1}
    < exp(-100), against w_0 = 1/2. w is their reversed cumsum, smallest
    first, scaled so that w_0 is exactly 1/2, as the symmetric binomial
    requires. Masses past the double-precision range read 0.
    """
    k = np.arange(u, u + min(u - 1, math.ceil(10.0 * math.sqrt(u)) + 20), dtype=float)
    mass = np.cumprod(np.concatenate(([1.0], (2 * u - 1 - k) / (k + 1.0))))
    tail = np.cumsum(mass[::-1])[::-1]
    w = 0.5 * (tail / tail[0])
    count = np.count_nonzero(w > 1e-20)  # w falls, so these are its first
    return np.stack((w[:count], _ln_factorials(0, count - 1)))


def auc_instantaneous(u: int, gamma: float) -> float:
    """Area under the AWGN ROC at SNR gamma:
    1 - sum_{i<K} w_i(u) Pois(i; gamma/2), within 1e-20 of the u-term sum.

    Runs from exactly 0.5 (the chance line, gamma = 0, or gamma/2
    underflowing to 0) toward 1 as the SNR grows.
    """
    u = check_count(u)
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and nonnegative")
    x = 0.5 * gamma
    if x == 0.0:
        return 0.5
    w, ln_fact = _u_tables.get(("auc", u), _weights, u)
    top = w.shape[0] - 1
    return 1.0 - math.fsum((w * poisson_pmf(x, 0, top, 0, top, ln_fact)).tolist())


def auc_average(u: int, p: FadingParams) -> float:
    """Area under the ROC averaged over F composite fading:
    1 - sum_{i<K} w_i(u) c_i, with c_i = E[Pois(i; gamma/2)] the first K
    coefficients of the channel at half the mean SNR; within w_K (1 -
    C_{K-1}) <= 1e-20 of the u-term sum.

    The coefficients come from the shared ladder cache, and ladder rows do
    not depend on which block built them, so the result is the same bit for
    bit whatever the cache held.
    """
    u = check_count(u)
    w = _u_tables.get(("auc", u), _weights, u)[0]
    half = FadingParams(p.m, p.m_s, 0.5 * p.mean_snr)
    return 1.0 - math.fsum((w * _ladder(half, w.shape[0])[: w.shape[0]]).tolist())
