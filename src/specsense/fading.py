"""Fisher-Snedecor F composite fading channel model.

The instantaneous SNR of the channel follows a scaled F law with multipath
shape m and shadowing shape m_s (valid for m_s > 1), equivalently the ratio
of two gamma variates. This module holds the parameter container, the SNR
and envelope densities, and sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_fn import ln_beta

__all__ = [
    "FadingParams",
    "db_to_linear",
    "linear_to_db",
    "snr_pdf",
    "envelope_pdf",
    "sample_snr",
]


def db_to_linear(value_db: float) -> float:
    """dB to linear power ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio to dB."""
    if not value > 0.0:
        raise ValueError("dB conversion requires a positive value")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class FadingParams:
    """F composite fading channel parameters.

    m fades the multipath severity, m_s the shadowing (both dimensionless
    shapes), mean_snr is the average linear SNR. The envelope r = sqrt(SNR)
    has mean power Omega = mean_snr, so r^2 has the density snr_pdf(p).
    """

    m: float
    m_s: float
    mean_snr: float

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise ValueError("m must be finite and positive")
        if not 1.0 < self.m_s < math.inf:
            # the (m_s - 1) mean normalization degenerates at m_s = 1
            raise ValueError("m_s must be finite and exceed 1")
        if not 0.0 < self.mean_snr < math.inf:
            raise ValueError("mean_snr must be finite and positive")

    @classmethod
    def from_db(cls, m: float, m_s: float, mean_snr_db: float) -> "FadingParams":
        return cls(m, m_s, db_to_linear(mean_snr_db))

    @property
    def mean_snr_db(self) -> float:
        return linear_to_db(self.mean_snr)

    @property
    def snr_scale(self) -> float:
        """Scale c of the underlying F law: gamma = c * X/Y with unit-scale
        gamma variates X ~ (shape m), Y ~ (shape m_s)."""
        return (self.m_s - 1.0) * self.mean_snr / self.m


def _f_law_pdf(p: FadingParams, t, k: int, message: str):
    """The F law in t = gamma^{1/k} for the channel's SNR gamma, in log space:
    k = 1 gives snr_pdf, k = 2 envelope_pdf. ValueError(message) if t < 0."""
    tv = np.asarray(t, dtype=float)
    if np.any(tv < 0.0):
        raise ValueError(message)
    m, ms, mean = p.m, p.m_s, p.mean_snr
    ln_norm = (
        math.log(k)
        + m * math.log(m)
        + ms * math.log(ms - 1.0)
        + ms * math.log(mean)
        - ln_beta(m, ms)
    )
    base = m * tv if k == 1 else m * tv * tv
    with np.errstate(divide="ignore", invalid="ignore"):
        # at t = 0, (km-1) ln t is -inf for km > 1 and +inf for km < 1: f is 0 or inf
        ln_f = ln_norm + (k * m - 1.0) * np.log(tv) - (m + ms) * np.log(base + (ms - 1.0) * mean)
    out = np.exp(ln_f)
    if k * m == 1.0:
        # t^{km-1} is identically 1, but 0 * ln 0 is nan: the t=0 value is finite
        out = np.where(tv == 0.0, math.exp(ln_norm - (m + ms) * math.log((ms - 1.0) * mean)), out)
    return out if out.ndim else float(out)


def snr_pdf(p: FadingParams, gamma):
    """SNR density of the F composite channel.

    f(gamma) = m^m (m_s-1)^{m_s} mean^{m_s} gamma^{m-1}
               / (B(m, m_s) [m gamma + (m_s-1) mean]^{m+m_s}),
    evaluated in log space. Accepts scalar or array gamma >= 0.
    """
    return _f_law_pdf(p, gamma, 1, "snr_pdf requires gamma >= 0")


def envelope_pdf(p: FadingParams, r):
    """Envelope (amplitude) density of the F composite channel.

    f(r) = 2 m^m (m_s-1)^{m_s} Omega^{m_s} r^{2m-1}
           / (B(m, m_s) [m r^2 + (m_s-1) Omega]^{m+m_s}),
    with Omega = p.mean_snr, so r^2 has the density snr_pdf(p).
    """
    return _f_law_pdf(p, r, 2, "envelope_pdf requires r >= 0")


def sample_snr(p: FadingParams, rng: np.random.Generator, size=None):
    """Draw instantaneous SNR values: gamma = c X / Y with X ~ Gamma(m),
    Y ~ Gamma(m_s), c = (m_s-1) mean / m.

    numpy's Generator.gamma implements the Marsaglia-Tsang rejection
    sampler (with the power boost below shape 1), which is exactly the
    scheme this model calls for. Returns a scalar when size is None.
    """
    out = next(_scaled_ratios(p.m, p.m_s, (p.snr_scale,), rng, size))
    return float(out) if size is None else out


def _scaled_ratios(m: float, m_s: float, scales, rng: np.random.Generator, size):
    """Yield (c X) / Y for each c in scales from one draw of X ~ Gamma(m),
    then Y ~ Gamma(m_s), into one buffer that each yield overwrites; so
    any number of scales cost three arrays."""
    x = rng.gamma(m, 1.0, size=size)
    y = rng.gamma(m_s, 1.0, size=size)
    out = np.empty(np.shape(x))
    for c in scales:
        np.multiply(c, x, out=out)
        yield np.divide(out, y, out=out)
