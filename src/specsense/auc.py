"""Area under the detector's ROC curve.

auc_instantaneous is the exact finite double sum for a fixed-SNR energy
detector with integer time-bandwidth product; auc_average carries the same
sum through the F composite fading average, which turns the exponential
SNR factor into Tricomi-U coefficients evaluated at half the SNR scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingParams
from .special_fn import Accuracy, ln_beta, ln_gamma, ln_tricomi_u_grid

__all__ = ["AucRequest", "auc_instantaneous", "auc_average"]

_ACC = Accuracy()
_LN2 = math.log(2.0)


def _check_u(u) -> int:
    if not (isinstance(u, (int, np.integer)) and u >= 1):
        raise ValueError("u must be an integer >= 1")
    return int(u)


@dataclass(frozen=True)
class AucRequest:
    """One AUC evaluation: fading-averaged if channel is set, fixed-SNR if
    gamma is set; exactly one of the two must be present."""

    u: int
    channel: FadingParams | None = None
    gamma: float | None = None

    def __post_init__(self):
        _check_u(self.u)
        if (self.channel is None) == (self.gamma is None):
            raise ValueError("exactly one of channel/gamma must be given")
        if self.gamma is not None and not self.gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")

    def evaluate(self) -> float:
        if self.channel is not None:
            return auc_average(self.u, self.channel)
        return auc_instantaneous(self.u, self.gamma)


def _ln_binom(n: float, k: float) -> float:
    return ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)


def auc_instantaneous(u: int, gamma: float) -> float:
    """Area under the AWGN ROC at SNR gamma.

    A(gamma) = 1 - sum_{l<u} sum_{i<=l} C(l+u-1, l-i)
               * gamma^i / (i! 2^{l+u+i}) * exp(-gamma/2).
    Runs from 0.5 (gamma = 0, u = 1) toward 1 as the SNR grows.
    """
    u = _check_u(u)
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        # the chance line Pd = Pf; the double sum is exactly 1/2 here
        return 0.5
    total = 0.0
    for l in range(u):
        for i in range(l + 1):
            ln_t = (
                _ln_binom(l + u - 1.0, float(l - i))
                + i * math.log(gamma)
                - ln_gamma(i + 1.0)
                - (l + u + i) * _LN2
                - 0.5 * gamma
            )
            total += math.exp(ln_t)
    return min(max(1.0 - total, 0.0), 1.0)


def auc_average(u: int, p: FadingParams) -> float:
    """Area under the ROC averaged over F composite fading.

    Replacing gamma^i e^{-gamma/2} by its fading average turns each inner
    term into Gamma(m+i) * U(m+m_s; m_s-i+1; z/2) with z the SNR scale;
    everything is assembled in log-space.
    """
    u = _check_u(u)
    m, ms = p.m, p.m_s
    z = p.snr_scale
    i_vals = np.arange(u, dtype=float)
    ln_u_fam = ln_tricomi_u_grid(m + ms, ms - i_vals + 1.0, 0.5 * z, _ACC)
    ln_base = ms * math.log(z) - ln_beta(m, ms)
    total = 0.0
    for l in range(u):
        for i in range(l + 1):
            ln_t = (
                _ln_binom(l + u - 1.0, float(l - i))
                + ln_gamma(m + i)
                - ln_gamma(i + 1.0)
                + ln_base
                - (l + u + ms) * _LN2
                + float(ln_u_fam[i])
            )
            total += math.exp(ln_t)
    return min(max(1.0 - total, 0.0), 1.0)
