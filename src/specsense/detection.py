"""Energy-detection probabilities over AWGN and F composite fading.

Covers the AWGN baseline (false alarm, and Marcum-Q detection, one
vectorized call for pd_awgn and the AWGN ROC alike), the average detection
probability over F composite fading via a confluent hypergeometric series,
collaborative OR/AND fusion, square-law selection diversity, worst-case
noise-power uncertainty, and ROC generation. The Poisson tables of both
ROCs, and the memos that keep what a named threshold grid needs, live in
special_fn; roc_curve alone names a grid, and so decides what a call keeps.

The average-Pd series here is the exact complementary rearrangement of the
direct Tricomi-U expansion: using the normalization identity
C * sum_n g_n U_n = 1 (the zero-threshold case), the average detection
probability equals

    Pd = 1 - C * sum_n P(n+u, lam/2) * [Gamma(n+m)/Gamma(n+1)]
                 * U(m+m_s; m_s-n+1; z),

with C = z^{m_s}/B(m, m_s), z = (m_s-1)*mean_snr/m and P the regularized
lower incomplete gamma. The direct form's terms decay only like
n^{-(1+m_s)} (hopeless near m_s = 1), while these terms inherit factorial
decay from the Poisson-like factor P(n+u, lam/2) once n passes lam/2.

With c_n the coefficients (they sum to 1) and C_k their running sum, the
remainder after N terms is at most P(N+u, lam/2) (1 - C_{N-1}), because P
falls in its shape; truncation_bound returns it. The c_n are the
fading-averaged Poisson weights E[Pois(n; g)], so 1 - C_{N-1} is at most
a closed-form Markov bound in the F law's moments E[g^k], k < m_s. The
series is first tested at the first N where P(u+N, lam/2) times that
bound is at most SeriesControl.rel_tol, an N that grows like sqrt(u), and
then on a schedule of growing steps until the remainder bound itself is
at most rel_tol. It is summed directly: the terms c_n P(u+n, lam/2) over
n < N, read down the columns of a table of the tails P, are added in order
of n, each threshold on its own (special_fn._sums_to).
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fading import FadingParams
from .special_fn import (
    _Memo,
    _ln_factorials,
    _reg_p_int_shapes,
    _sums_to,
    _tail_tables,
    _u_tables,
    ConvergenceError,
    check_count,
    ln_beta,
    ln_tricomi_u_grid,
    marcum_q,
    marcum_q_grid,
    poisson_reach,
)

__all__ = [
    "DetectorConfig",
    "SeriesControl",
    "RocCurve",
    "pfa",
    "threshold_for_pfa",
    "pd_awgn",
    "average_pd",
    "average_pd_detail",
    "average_pd_quadrature",
    "truncation_bound",
    "collaborative_pd",
    "sls_pfa",
    "sls_average_pd",
    "roc_curve",
]

@dataclass(frozen=True)
class DetectorConfig:
    """Energy detector settings.

    u is the integer time-bandwidth product (the test statistic is
    chi-square with 2u degrees of freedom), threshold is the decision
    level lambda, and noise_uncertainty_db the worst-case noise power
    mismatch beta in dB (0 means a perfectly known noise floor).
    """

    u: int
    threshold: float
    noise_uncertainty_db: float = 0.0

    def __post_init__(self):
        check_count(self.u)
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and nonnegative")
        if not 0.0 <= self.noise_uncertainty_db < math.inf:
            raise ValueError("noise_uncertainty_db must be finite and nonnegative")

    @property
    def alpha(self) -> float:
        """Noise-uncertainty factor alpha = 10^{beta/10} >= 1."""
        return 10.0 ** (self.noise_uncertainty_db / 10.0)

    @property
    def effective_threshold(self) -> float:
        """Threshold seen by the detection side: lambda scaled by alpha^2.

        The false-alarm side stays at the nominal threshold; worst-case
        noise uncertainty only degrades detection.
        """
        return self.alpha ** 2 * self.threshold


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the average-Pd series.

    The series stops once its remainder bound is at most rel_tol (see the
    module docstring), so Pd is within rel_tol plus the ladder's defect,
    about 1e-12, of the exact value: an absolute contract. rel_tol=1e-300
    stops too, where the Poisson table ends. A bound still above rel_tol at
    max_terms terms raises ConvergenceError.
    """

    rel_tol: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        check_count(self.max_terms, "max_terms", 10)


_DEFAULT_CTL = SeriesControl()


@dataclass(frozen=True, init=False, eq=False)
class RocCurve:
    """Ordered (pf, pd) samples with the sweep that generated them.

    RocCurve(points, sweep, meta) parses the (pf, pd) pairs, a sequence or
    an (n, 2) array, once into the read-only float arrays pf and pd; points
    rebuilds the pairs on demand.
    """

    pf: np.ndarray
    pd: np.ndarray
    sweep: str
    meta: dict

    def __init__(self, points, sweep: str, meta: dict | None = None):
        pts = np.array(points, dtype=float, order="F")  # pf and pd each contiguous
        if pts.shape != (0,) and (pts.ndim != 2 or pts.shape[1] != 2):
            raise ValueError("ROC points must be (pf, pd) pairs")
        pts.setflags(write=False)  # and so its views pf and pd
        pf, pd = pts.reshape(-1, 2, order="F").T  # no points give shape (0,)
        if not (pts.min(initial=0.0) >= 0.0 and pts.max(initial=1.0) <= 1.0):  # NaN fails too
            raise ValueError("ROC entries must lie in [0, 1]")
        if (pf[1:] < pf[:-1]).any():
            raise ValueError("ROC points must be sorted by pf ascending")
        for name, value in (("pf", pf), ("pd", pd), ("sweep", sweep), ("meta", meta or {})):
            object.__setattr__(self, name, value)

    @property
    def points(self) -> tuple:
        """The samples as a tuple of (pf, pd) float pairs."""
        return tuple(zip(self.pf.tolist(), self.pd.tolist()))


def pfa(cfg: DetectorConfig) -> float:
    """False-alarm probability Q(u, lambda/2); independent of the fading.

    This is the Marcum Q at zero SNR, so pd_awgn(cfg, 0.0) equals it bit
    for bit whenever cfg has no noise uncertainty.
    """
    return marcum_q(cfg.u, 0.0, math.sqrt(cfg.threshold))


def threshold_for_pfa(u: int, target_pfa: float) -> float:
    """Threshold lambda whose false-alarm probability Q(u, lambda/2) is the
    target to a relative accuracy that is near double precision at small u
    and degrades as u grows.

    Inverts the closed-form integer-u tail Q(u, x) = e^{-x} sum_{k<u} x^k/k!
    by Halley's method (see _thresholds) on O(sqrt(u)) terms, so the contract
    is relative down to targets of 1e-15 and below, and time and memory grow
    as sqrt(u). The terms exp(c_k + e_k ln x) have exponents of order u ln u,
    whose rounding leaves a relative error of about u ln u times the double
    epsilon: at Pf = 0.01 the true Pf of the returned threshold is off by
    6e-13, 6e-12 and 8e-11 relative at u = 1e3, 1e4 and 1e5 (against mpmath
    at 40 digits).
    """
    check_count(u)
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie strictly inside (0, 1)")
    return float(_thresholds(u, target_pfa)[0])


# Halley's method converges cubically, so a step below _STEP_TOL (relative)
# leaves an error of order its cube.
_STEP_TOL = 1e-6
_MAX_HALLEY = 20
# Targets within _NEAR_ONE of 1 solve P(u, x) = 1 - pf instead of
# Q(u, x) = pf: there ln Q is so flat that its rounding error moves x by
# more than _STEP_TOL, while ln P stays well conditioned.
_NEAR_ONE = 1e-6


def _thresholds(u: int, pf) -> np.ndarray:
    """Thresholds lambda = 2x with Q(u, x) = pf for a scalar or an array of
    targets in (0, 1); always returns an array.

    The start is Wilson-Hilferty with the Abramowitz-Stegun 26.2.22 normal
    quantile, floored at (u!(1-pf))^{1/u}, a lower bound of the root since
    P(u, x) <= x^u/u!. _halley then solves ln Q = ln pf, or ln P = ln(1-pf)
    for targets within _NEAR_ONE of 1. Every entry depends on its own target
    alone. Raises ConvergenceError naming u and the first pf that did not
    converge.
    """
    pf = np.array(pf, dtype=float, ndmin=1)
    ln_pf = np.log(pf)
    ln_pq = np.log1p(-pf)
    t = np.sqrt(-2.0 * np.minimum(ln_pf, ln_pq))
    z = np.copysign(t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)), 0.5 - pf)
    x = u * (1.0 - 1.0 / (9.0 * u) + z / (3.0 * math.sqrt(u))) ** 3  # < 0 falls to the floor
    x = np.maximum(x, np.exp((math.lgamma(u + 1.0) + ln_pq) / u))

    lam = np.empty_like(x)
    near = pf > 1.0 - _NEAR_ONE
    for sel, sign, ln_target in ((~near, -1.0, ln_pf), (near, 1.0, ln_pq)):
        if sel.any():
            lam[sel] = 2.0 * _halley(u, x[sel], math.lgamma(u) + ln_target[sel], sign, pf[sel])
    return lam


def _halley(u: int, x, shift, sign: float, pf) -> np.ndarray:
    """Root of f(x) = (u-1) ln x - x + ln w(x) - shift, that is
    ln(pmf(u-1; x) w(x)) = shift - ln (u-1)!, with w(x) = sum_k exp(c_k +
    e_k ln x), c_k = ln((u-1)!/k!), e_k = k-u+1, so pmf(u-1; x) w(x) is
    Q(u, x), k < u, for sign = -1 and P(u, x), k >= u, for sign = +1. Each
    step sums marcum_q_grid's or _reg_p_int_shapes' window around its
    iterates, widest over the rows: k from poisson_reach(x) below min(x,
    u-1) to u-1, every k < u up to u = 41, or from u to poisson_reach(x)
    past max(x, u). f' = r = sign/w and f'' = r ((u-1)/x - 1 - r). Each
    entry stops once its own step is below _STEP_TOL relative and is then
    frozen.
    """
    out = np.empty_like(x)
    todo = np.arange(x.shape[0])
    for _ in range(_MAX_HALLEY):
        reach = poisson_reach(x)
        if sign < 0.0:
            lo, hi = max(0, math.floor((np.minimum(x, u - 1.0) - reach).min())), u - 1
        else:
            lo, hi = u, math.ceil((np.maximum(x, u) + reach).max())
        c = math.lgamma(u) - _ln_factorials(lo, hi)
        e = np.arange(lo, hi + 1, dtype=float) - (u - 1.0)
        ln_x = np.log(x)
        w = np.exp(c + np.multiply.outer(ln_x, e)).sum(axis=1)
        r = sign / w
        f = (u - 1.0) * ln_x - x + np.log(w) - shift
        dx = f / (0.5 * f * ((u - 1.0) / x - 1.0 - r) - r)
        x = x + dx
        done = np.abs(dx) <= _STEP_TOL * x
        n_done = np.count_nonzero(done)
        if n_done == x.shape[0]:
            out[todo] = x
            return out
        if n_done:
            out[todo[done]] = x[done]
            keep = ~done
            todo, x, shift = todo[keep], x[keep], shift[keep]
    raise ConvergenceError(
        f"threshold_for_pfa did not converge in {_MAX_HALLEY} Halley steps "
        f"(u={u}, pf={float(pf[todo[0]])})"
    )


def pd_awgn(cfg: DetectorConfig, gamma: float) -> float:
    """Detection probability at fixed SNR: Q_u(sqrt(2 gamma), sqrt(lambda)).

    Any configured noise uncertainty is folded in through the effective
    threshold.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and nonnegative")
    return marcum_q(cfg.u, math.sqrt(2.0 * gamma), math.sqrt(cfg.effective_threshold))


# ---------------------------------------------------------------------------
# series machinery
# ---------------------------------------------------------------------------


def _ln_series_coeff(p: FadingParams, start: int, stop: int) -> np.ndarray:
    """ln of C * Gamma(n+m)/Gamma(n+1) * U(m+m_s; m_s-n+1; z) for
    n = start..stop-1. Over all n >= 0 these coefficients sum to exactly 1.

    Each row takes its log-gammas from math.lgamma directly, so a
    coefficient is the same whichever block it was built in.
    """
    m, ms = p.m, p.m_s
    z = p.snr_scale
    n = np.arange(start, stop, dtype=float)
    ln_u = ln_tricomi_u_grid(m + ms, ms - n + 1.0, z)
    ln_c = ms * math.log(z) - ln_beta(m, ms)
    ln_g = np.fromiter(map(math.lgamma, n + m), float, n.shape[0]) - _ln_factorials(start, stop - 1)
    return ln_c + ln_g + ln_u


# Stop schedule: a series is tested for convergence first at b_0, the first
# N where P(u+N, x) B(N) <= rel_tol, with B(N) >= 1 - C_{N-1} the closed-form
# bound of _ladder_tail_bound, and then after b_{k+1} = b_k + min(max(
# _MIN_BLOCK, b_k // 2), _MAX_BLOCK) terms. b_0 reads the row's tail table and
# the channel's F-law moments, so it follows both u and the channel, and the
# check against the ladder itself rarely needs a second point. _ladder builds
# at most _MAX_BLOCK rows per quadrature call, which bounds its temporaries.
_MIN_BLOCK = 16
_MAX_BLOCK = 256


# Coefficient ladders, exp(_ln_series_coeff(p, 0, n)), of the channels used
# most recently. They depend on the channel alone, not on u, the threshold
# or the noise uncertainty, so ROC sweeps, several u values and SLS branches
# share one, and auc_average reads the first u rows of the half-SNR
# channel's. A ladder of the paper's figures is at most about 100 rows, 0.8 KB.
_ladders = _Memo(256 << 10)


def _ladder(p: FadingParams, rows: int) -> np.ndarray:
    """The channel's cached coefficient ladder, grown to at least `rows` rows."""
    coeff = _ladders.get(p)
    if coeff is None:
        coeff = np.empty(0)
    if coeff.shape[0] >= rows:
        return coeff
    blocks = [coeff] + [
        np.exp(_ln_series_coeff(p, lo, min(lo + _MAX_BLOCK, rows)))
        for lo in range(coeff.shape[0], rows, _MAX_BLOCK)
    ]
    # rows are pure functions of (p, n), so the longest ladder wins
    return _ladders.put(p, np.concatenate(blocks))


def _ladder_tail_bound(p: FadingParams, width: int) -> np.ndarray:
    """B(N) >= 1 - C_{N-1} = Pr[Pois(g) >= N] for N = 0..width-1, g the
    channel's SNR: min(1, min over integers k < m_s, k <= N of E[g^k]/(N)_k).

    That is Markov's inequality on the falling factorial (X)_k, whose mean is
    E[g^k] for the mixed Poisson X, with the F law's moments E[g^k] =
    z^k Gamma(m+k) Gamma(m_s-k)/(Gamma(m) Gamma(m_s)). The k+1 bound is
    the k bound times r_k/(N-k), with r_k = E[g^{k+1}]/E[g^k] =
    z(m+k)/(m_s-1-k), so it is the smaller one while N > k + r_k. As
    k + r_k rises with k, the least bound lies at k = the number of j with
    N > j + r_j. O(width) time and memory.
    """
    m, a, z = p.m, p.m_s - 1.0, p.snr_scale
    j = np.arange(min(width - 1, math.ceil(p.m_s) - 1), dtype=float)
    ratio = z * (m + j) / (a - j)
    n = np.arange(width)
    k = (j + ratio).searchsorted(n)
    ln_moment = np.zeros(j.shape[0] + 1)
    np.log(ratio).cumsum(out=ln_moment[1:])
    ln_fact = _ln_factorials(0, width - 1)
    return np.exp(ln_moment[k] - ln_fact + ln_fact[n - k])


def _stops(u: int, lam_effs, upper, p: FadingParams, ctl: SeriesControl) -> np.ndarray:
    """N, the terms each row of the Poisson-tail table upper sums.

    N is the first point of the row's schedule, capped at ctl.max_terms,
    where P(u+N, x) (1 - C_{N-1}) <= ctl.rel_tol; upper's last column is 0,
    the tail past every row's top, so every row has a first point. N reads
    the row's own x and the ladder alone, not the other rows or the cached
    length. Raises ConvergenceError naming u, lambda and the channel if a
    row fails at ctl.max_terms.
    """
    bound = _ladder_tail_bound(p, upper.shape[1])[1:]
    n = np.minimum(np.argmax(upper[:, 1:] * bound <= ctl.rel_tol, axis=1) + 1, ctl.max_terms)
    rows = np.arange(n.shape[0])
    while True:
        top = int(n.max())
        csum = np.cumsum(_ladder(p, top)[:top])
        tail = upper[rows, np.minimum(n, upper.shape[1] - 1)]
        short = tail * (1.0 - csum[n - 1]) > ctl.rel_tol  # a row that passed stays passed
        if not short.any():
            return n
        k = n[short]
        if k.max() >= ctl.max_terms:
            raise ConvergenceError(
                f"average_pd series did not converge within {ctl.max_terms} terms "
                f"(u={u}, lam={lam_effs[short][k.argmax()]}, m={p.m}, m_s={p.m_s}, "
                f"snr={p.mean_snr})"
            )
        n[short] = np.minimum(k + np.clip(k // 2, _MIN_BLOCK, _MAX_BLOCK), ctl.max_terms)


def _series_batch(u: int, lam_effs, p: FadingParams, ctl: SeriesControl, name=None):
    """Average Pd for a batch of effective thresholds sharing one channel.

    The complementary series miss = sum_{n<N} c_n P(u+n, x), on the
    channel's cached ladder c and the grid's tail table from
    special_fn._tail_tables, with N from _stops, is summed by
    special_fn._sums_to, which adds each row's terms in order of n. A grid
    named by roc_curve whose table is kept keeps its N per channel and ctl
    beside it in _u_tables, so a warm ROC runs no _stops; a call without a
    name keeps nothing. Every reduction adds one term at a time, so a row
    equals its single-threshold call whatever the other rows, the table's
    slicing or the cache history. A sum past 1 + 1e-9 means a broken ladder
    and raises ConvergenceError.

    Returns (pd array, terms_used array).
    """
    lam_effs = np.asarray(lam_effs, dtype=float)
    out = np.ones(lam_effs.shape[0])  # zero threshold detects everything
    used = np.zeros(lam_effs.shape[0], dtype=int)
    live = np.nonzero(lam_effs > 0.0)[0]
    x = 0.5 * lam_effs[live, None]
    for lo, upper in _tail_tables(u, x, name):
        rows = live[lo : lo + upper.shape[0]]
        if upper.flags.writeable:  # a table kept in _tails is read-only
            n = _stops(u, lam_effs[rows], upper, p, ctl)
        else:
            n = _u_tables.get(("stops", *name, p, ctl), _stops, u, lam_effs[rows], upper, p, ctl)
        top = int(n.max())
        coeff = _ladder(p, top)
        # P is 0 past the table, so the sum stops at its last column
        cols = min(upper.shape[1], top)
        miss = _sums_to(upper[:, :cols], coeff[:cols], np.minimum(n, cols))
        if miss.max() > 1.0 + 1e-9:
            raise ConvergenceError(
                f"average_pd series exceeded 1 by more than 1e-9 (sum={miss.max()}, u={u}, "
                f"m={p.m}, m_s={p.m_s}, snr={p.mean_snr})"
            )
        out[rows] = np.clip(1.0 - miss, 0.0, 1.0)
        used[rows] = n
    return out, used


def average_pd(cfg: DetectorConfig, p: FadingParams, ctl: SeriesControl | None = None) -> float:
    """Average detection probability over F composite fading.

    Evaluates the Tricomi-U series for the fading-averaged Marcum Q at the
    effective (noise-uncertainty scaled) threshold, truncated per ctl.
    """
    return float(_series_batch(cfg.u, [cfg.effective_threshold], p, ctl or _DEFAULT_CTL)[0][0])


def average_pd_detail(cfg: DetectorConfig, p: FadingParams, ctl: SeriesControl | None = None):
    """average_pd plus series diagnostics: (value, terms, last_term), where
    terms is N, the coefficients summed, and last_term the last
    complementary term c_{N-1} P(u+N-1, lam_eff/2). The exact Pd lies
    within truncation_bound(cfg, p, terms), plus the ladder's defect, of
    value.

    last_term takes P(u+N-1, x), x = lam_eff/2, from _reg_p_int_shapes, as
    truncation_bound does, so it keeps its relative accuracy where u+N-1
    passes the end of the series' own table of tails, x + poisson_reach(x),
    and is 0.0 only where P underflows."""
    pd, used = _series_batch(cfg.u, [cfg.effective_threshold], p, ctl or _DEFAULT_CTL)
    n = int(used[0])
    if n == 0:  # a zero threshold sums no term
        return float(pd[0]), 0, 0.0
    tail = _reg_p_int_shapes(cfg.u + n - 1, 1, 0.5 * cfg.effective_threshold)[0]
    return float(pd[0]), n, float(_ladder(p, n)[n - 1] * tail)


def truncation_bound(cfg: DetectorConfig, p: FadingParams, t0: int, closed_form: bool = False) -> float:
    """Certified remainder of the series average_pd sums, after t0 terms:
    P(u+t0, x) (1 - C_{t0-1}), with x = lam_eff/2 and C the running sum of
    the channel's ladder (see the module docstring); 0.0 at lam_eff = 0
    and wherever P(u+t0, x) underflows, without growing the ladder.

    average_pd_detail's terms N is the first point of its stop schedule
    where this is at most rel_tol, so truncation_bound(cfg, p, N) is the
    certified remainder of the value it returns. The schedule starts where
    P(u+N, x) times a closed-form bound on 1 - C_{N-1} (_ladder_tail_bound)
    is at most rel_tol, so the bound there often lies well below rel_tol:
    1.2e-12 to 5.6e-11 over selftest criterion 4's grid at rel_tol = 1e-10.
    P(u+t0, x) keeps its relative accuracy past the series' own Poisson
    table. Below about 1e-16 the factor 1 - C_{t0-1} is rounding, and where
    it rounds below 0 the bound reads 0.0.

    With closed_form=True this evaluates the fully closed-form bound of the
    direct series, whose rearrangement contains the factor 1F0(m;;1) =
    (1-1)^{-m}: a divergent geometric limit for every m > 0. That form is
    mathematically infinite, so the infinity sentinel is returned and
    documented rather than a finite stand-in.
    """
    check_count(t0, "t0")
    if closed_form:
        return math.inf
    lam_eff = cfg.effective_threshold
    if lam_eff == 0.0:
        return 0.0
    tail = _reg_p_int_shapes(cfg.u + t0, 1, 0.5 * lam_eff)[0]
    if tail == 0.0:
        return 0.0
    return float(tail * max(1.0 - np.cumsum(_ladder(p, t0)[:t0])[-1], 0.0))


def _log_axis_miss(u: int, lam_eff: float, m: float, ln_norm: float, s_mode: float, ln_decay):
    """(miss, err) of the missed-detection mass 1 - Pd by scipy's quad.

    Integrates chndtr(lam_eff; 2u, 2g) * g f(g) over s = ln g, for an SNR
    density whose log weight is ln g f(g) = ln_norm + m s - ln_decay(g),
    with ln_decay(g) ~ 0 as g -> 0 and s_mode the weight's peak. Below
    min(s_mode - 1, (-46 - ln_norm)/m) the density holds less than ~1e-20
    of its mass; past (sqrt(lam_eff)+45)^2/2 the CDF is below ~1e-300
    whatever the SNR tail. Breakpoints at s_mode and at the knee
    ln(lam_eff/2) put QUADPACK's first panels on the two features that
    shape the integrand, however narrow the peak. The CDF is scipy's
    compiled chndtr, called through cython_special without ufunc dispatch.
    """
    from scipy import integrate
    from scipy.special import cython_special

    s_lo = min(s_mode - 1.0, (-46.0 - ln_norm) / m)
    s_hi = math.log(0.5 * (math.sqrt(lam_eff) + 45.0) ** 2)
    if s_hi <= s_lo:
        return 0.0, 0.0
    pts = sorted(x for x in (s_mode, math.log(0.5 * lam_eff)) if s_lo < x < s_hi)
    chndtr, exp, df = cython_special.chndtr, math.exp, 2 * u

    def integrand(s):
        g = exp(s)
        return chndtr(lam_eff, df, 2.0 * g) * exp(ln_norm + m * s - ln_decay(g))

    return integrate.quad(
        integrand, s_lo, s_hi, points=pts or None, limit=400, epsabs=1e-11, epsrel=1e-10
    )


def average_pd_quadrature(cfg: DetectorConfig, p: FadingParams) -> float:
    """Independent oracle for average_pd by adaptive quadrature.

    Integrates the missed-detection mass, 1 - Pd = int (1 - Q_u) f(gamma)
    dgamma, over the log-SNR axis s = ln gamma, with breakpoints at the
    beta-prime mode ln(z m/m_s) and at the detection knee ln(lam_eff/2).
    Its contract is absolute: quad is asked for max(1e-11, 1e-10 * miss)
    and an error estimate past 1e-7 raises ConvergenceError naming the
    parameters, so a tiny Pd is right in absolute terms only. Deliberately
    built on scipy (noncentral chi-square CDF and the closed-form
    beta-prime density) rather than this package's own special functions.
    scipy.special and scipy.integrate are imported on the first call, so
    importing the package does not load them; scipy.stats is never loaded.
    """
    from scipy import special

    lam_eff = cfg.effective_threshold
    if lam_eff == 0.0:
        return 1.0
    m, ms, z = p.m, p.m_s, p.snr_scale
    miss, err = _log_axis_miss(
        cfg.u, lam_eff, m, -m * math.log(z) - special.betaln(m, ms), math.log(z * m / ms),
        lambda g: (m + ms) * math.log1p(g / z),
    )
    if err > 1e-7:
        raise ConvergenceError(
            f"average_pd_quadrature error estimate {err:.3g} exceeds 1e-7 "
            f"(u={cfg.u}, lam_eff={lam_eff}, m={m}, m_s={ms}, snr={p.mean_snr})"
        )
    return min(max(1.0 - miss, 0.0), 1.0)


# ---------------------------------------------------------------------------
# fusion, diversity, ROC
# ---------------------------------------------------------------------------


def _validate_rule(rule: str) -> str:
    r = rule.lower()
    if r not in ("or", "and"):
        raise ValueError("rule must be 'or' or 'and'")
    return r


def _fuse(p, n: int, rule: str):
    """Chance that any ("or") or all ("and") of n i.i.d. units fire, each
    with chance p (a float or an array); p itself at n = 1."""
    if n == 1:
        return p
    return 1.0 - (1.0 - p) ** n if rule == "or" else p ** n


def _unit_target(p, n: int, rule: str):
    """The inverse of _fuse: the per-unit chance that n units combined by
    rule take to p; p itself at n = 1."""
    if n == 1:
        return p
    return 1.0 - (1.0 - p) ** (1.0 / n) if rule == "or" else p ** (1.0 / n)


def collaborative_pd(pd_single: float, n_users: int, rule: str) -> float:
    """Fused detection probability for N i.i.d. users at equal threshold;
    the same combining of per-user false alarms gives the fused Pf. One
    user gives pd_single itself."""
    if not 0.0 <= pd_single <= 1.0:
        raise ValueError("pd_single must lie in [0, 1]")
    check_count(n_users, "n_users")
    return _fuse(pd_single, n_users, _validate_rule(rule))


def sls_pfa(u: int, lam: float, branches: int) -> float:
    """False-alarm probability of square-law selection over L branches: the
    OR of L branch false alarms, so one branch gives pfa itself."""
    check_count(branches, "branches")
    return _fuse(pfa(DetectorConfig(u=u, threshold=lam)), branches, "or")


def _sls_batch(u: int, lam_effs, branches, name=None) -> np.ndarray:
    """Square-law selection Pd at each effective threshold. Selection fires
    when any branch does, so over independent branches the misses multiply,
    in branch order; _series_batch sums each distinct branch once, on the
    grid's name, and one branch gives its own Pd."""
    pds = {bp: _series_batch(u, lam_effs, bp, _DEFAULT_CTL, name)[0] for bp in dict.fromkeys(branches)}
    if len(branches) == 1:
        return pds[branches[0]]
    return 1.0 - math.prod(1.0 - pds[bp] for bp in branches)


def sls_average_pd(cfg: DetectorConfig, branch_params) -> float:
    """Average detection probability of square-law selection diversity.

    The decision statistic is the per-branch maximum, so over independent
    branches the miss probabilities multiply; one branch gives average_pd.
    """
    branch_params = list(branch_params)
    if not branch_params:
        raise ValueError("sls_average_pd needs at least one branch")
    return float(_sls_batch(cfg.u, [cfg.effective_threshold], branch_params)[0])


def _roc_units(channel, fusion: str, n_users: int):
    """Checked (kind, rule, n_units) of roc_curve: kind is "fading", "sls"
    or "awgn", and a point's Pf is _fuse(unit Pf, n_units, rule). SLS is the
    OR over its branches; without fusion a channel is one unit."""
    if isinstance(channel, FadingParams):
        kind = "fading"
    elif isinstance(channel, (list, tuple)):
        if not channel or not all(isinstance(b, FadingParams) for b in channel):
            raise ValueError("branch list must hold FadingParams")
        kind = "sls"
    else:
        # a real number or 0-d real array, as pd_awgn's gamma takes: not a
        # str, bytes or longer array, which float() would read or refuse
        real = isinstance(channel, (numbers.Real, np.bool_)) or (
            isinstance(channel, np.ndarray) and channel.shape == () and channel.dtype.kind in "biuf"
        )
        if not (real and 0.0 <= channel < math.inf):
            raise ValueError("AWGN SNR must be finite, nonnegative and a real number")
        kind = "awgn"
    fusion = fusion.lower()
    if fusion not in ("none", "or", "and"):
        raise ValueError("fusion must be 'none', 'or' or 'and'")
    if fusion == "none":
        return kind, "or", len(channel) if kind == "sls" else 1
    if kind == "sls":
        raise ValueError("fusion rules do not combine with SLS branches")
    check_count(n_users, "n_users")
    return kind, fusion, int(n_users)


# roc_curve's default sweep: 200 targets, log-spaced over [1e-4, 0.999]
_DEFAULT_PF_GRID = np.logspace(-4.0, math.log10(0.999), 200)
_DEFAULT_PF_GRID.setflags(write=False)


def roc_curve(
    channel,
    cfg: DetectorConfig,
    pf_grid=None,
    fusion: str = "none",
    n_users: int = 1,
) -> RocCurve:
    """ROC curve swept by target false-alarm probability.

    channel selects the evaluation path: a FadingParams gives the
    F-composite average Pd, a sequence of FadingParams gives square-law
    selection over those branches, and a bare nonnegative number is the
    AWGN SNR. Fusion targets are the collaborative false alarm, and SLS
    targets the OR of its branch false alarms; the unit threshold is
    recovered by the closed-form inverse before the unit Pd is computed.
    One user or one branch gives the plain curve exactly.

    The unit-Pf grid is named once, by u and a 16-byte blake2b digest of
    its targets, which keys its thresholds. A grid of several targets
    passes (u, digest, alpha) down, and what it needs is kept under that
    name (see special_fn._tails).
    """
    if pf_grid is None:
        pf_grid = _DEFAULT_PF_GRID  # valid as built
    else:
        pf_grid = np.asarray(pf_grid, dtype=float)
        if pf_grid.ndim != 1 or pf_grid.size == 0:
            raise ValueError("pf_grid must be a non-empty 1-d sequence")
        if not np.all((pf_grid > 0.0) & (pf_grid < 1.0)):
            raise ValueError("pf_grid entries must be finite and lie strictly inside (0, 1)")
        if np.any(np.diff(pf_grid) <= 0.0):
            raise ValueError("pf_grid must be strictly increasing")

    kind, rule, n_units = _roc_units(channel, fusion, n_users)
    unit = _unit_target(pf_grid, n_units, rule)
    digest = hashlib.blake2b(unit.tobytes(), digest_size=16).digest()
    lams = _u_tables.get(("grid", cfg.u, digest), _thresholds, cfg.u, unit)
    name = (cfg.u, digest, cfg.alpha) if pf_grid.size > 1 else None
    lam_effs = cfg.alpha ** 2 * lams
    meta = {
        "kind": kind,
        "u": cfg.u,
        "noise_uncertainty_db": cfg.noise_uncertainty_db,
        "fusion": fusion.lower(),
        "n_units": n_units,
    }
    if kind == "sls":
        pd_vals = _sls_batch(cfg.u, lam_effs, channel, name)
        meta["branches"] = [(b.m, b.m_s, b.mean_snr) for b in channel]
    elif kind == "fading":
        pd_vals = _fuse(_series_batch(cfg.u, lam_effs, channel, _DEFAULT_CTL, name)[0], n_units, rule)
        meta["channel"] = (channel.m, channel.m_s, channel.mean_snr)
    else:
        # the same squares of square roots as pd_awgn's marcum_q call
        a, b = math.sqrt(2.0 * float(channel)), np.sqrt(lam_effs)
        pd_vals = _fuse(marcum_q_grid(cfg.u, 0.5 * a * a, 0.5 * b * b, name), n_units, rule)
        meta["awgn_snr"] = float(channel)
    sweep = f"{pf_grid.size} pf targets in [{pf_grid[0]:.3g}, {pf_grid[-1]:.3g}]"
    return RocCurve(np.column_stack((pf_grid, pd_vals)), sweep, meta)
