"""Self-contained special functions for the sensing analytics.

Everything here is built on the standard library's math module and numpy:
log-gamma (a checked math.lgamma), digamma, regularized incomplete gamma
(series + continued fraction), the Kummer and Tricomi confluent
hypergeometric functions, and the generalized Marcum Q. numpy supplies the
node arrays for the Tricomi quadrature. Nothing here uses scipy; in this
package only the independent oracle (detection.average_pd_quadrature), the
acceptance suite behind `selftest` and the tests do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Accuracy",
    "ConvergenceError",
    "ln_gamma",
    "digamma",
    "ln_beta",
    "reg_gamma_p",
    "reg_gamma_q",
    "kummer_1f1",
    "tricomi_u",
    "ln_tricomi_u_grid",
    "marcum_q",
]

MACHEP = 1.11022302462515654042e-16
MAXLOG = 709.782712893383996732
BIG = 4.503599627370496e15
BIGINV = 2.22044604925031308085e-16

# The continued fraction for Q(a, x) needs the most terms at x = a + 1,
# growing like sqrt(a): 911 at a = 1e6, 19,159 at a = 1e10.
_MAX_CF_TERMS = 1_000_000


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to reach its tolerance."""


@dataclass(frozen=True)
class Accuracy:
    """Tolerance bundle for the iterative evaluations.

    rel_tol is the target relative error, abs_tol an absolute floor below
    which results are not chased further.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")


_DEFAULT_ACC = Accuracy()


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError("ln_gamma requires x > 0")
    return math.lgamma(x)


# Asymptotic tail coefficients -B_{2n}/(2n): psi(x) ~ ln x - 1/(2x)
# + sum c_k x^{-2k}. Truncation error at x = 6 is below 2e-13.
_PSI_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Psi function for x > 0: recurrence lift to x > 6, then the
    Bernoulli asymptotic series."""
    if not x > 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x <= 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _PSI_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


_TRI_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _trigamma(x: float) -> float:
    """psi'(x); internal helper for the gamma-shape Newton iteration."""
    if not x > 0.0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x <= 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2 / x
    for c in _TRI_TAIL:
        tail += c * p
        p *= inv2
    return acc + 1.0 / x + 0.5 * inv2 + tail


def ln_beta(a: float, b: float) -> float:
    """Natural log of the beta function for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("ln_beta requires a, b > 0")
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by power series; wants x < a + 1."""
    ax = a * math.log(x) - x - ln_gamma(a)
    if ax < -MAXLOG:
        return 0.0
    ax = math.exp(ax)
    r = a
    c = 1.0
    ans = 1.0
    while c / ans > MACHEP:
        r += 1.0
        c *= x / r
        ans += c
    return ans * ax / a


def _gamma_q_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by continued fraction; wants
    x >= a + 1."""
    ax = a * math.log(x) - x - ln_gamma(a)
    if ax < -MAXLOG:
        return 0.0
    ax = math.exp(ax)
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAX_CF_TERMS):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > BIG:
            pkm2 *= BIGINV
            pkm1 *= BIGINV
            qkm2 *= BIGINV
            qkm1 *= BIGINV
        if t <= MACHEP:
            return ans * ax
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge in {_MAX_CF_TERMS} terms "
        f"(a={a}, x={x})"
    )


def _check_gamma_args(name: str, a: float, x: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"{name} requires finite a > 0")
    if not x >= 0.0:
        raise ValueError(f"{name} requires x >= 0 (not NaN)")


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a);
    Q(a, inf) = 0."""
    _check_gamma_args("reg_gamma_q", a, x)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_cf(a, x)


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = 1 - Q(a, x);
    P(a, inf) = 1."""
    _check_gamma_args("reg_gamma_p", a, x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_cf(a, x)


def kummer_1f1(a: float, b: float, z: float, acc: Accuracy | None = None) -> float:
    """Kummer confluent hypergeometric 1F1(a; b; z) by direct power series.

    Args:
      a: numerator parameter.
      b: denominator parameter; must not be a non-positive integer.
      z: argument; the direct series is reliable for moderate |z|.
      acc: optional tolerance bundle.

    Returns:
      The series sum, truncated once three consecutive terms drop below
      rel_tol times the accumulated sum.
    """
    if acc is None:
        acc = _DEFAULT_ACC
    if b <= 0.0 and abs(b - round(b)) < 1e-9:
        raise ValueError("kummer_1f1 pole: b is a non-positive integer")
    total = 1.0
    term = 1.0
    small = 0
    for n in range(100_000):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        total += term
        if abs(term) < acc.rel_tol * max(abs(total), acc.abs_tol):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError("kummer_1f1 did not converge within 1e5 terms")


# ---------------------------------------------------------------------------
# Tricomi U via the real integral representation
#
#   U(a, b, z) = (1/Gamma(a)) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt
#
# valid for a > 0, z > 0 and every real b, including the integer-b cases
# where the series definitions degenerate. The integral is taken on the
# log axis t = e^y, where the exponent
#
#   phi(y) = -z e^y + a y + (b - a - 1) ln(1 + e^y)
#
# has a single interior maximum. Panels: a sigma-scaled core around the
# mode plus a geometric ladder for the wings, Gauss-Legendre 32 per panel,
# and a uniform refinement pass as the error estimate.
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Panel layout in units of the mode width sigma: flat core to 13 sigma
# (width 1.3 sigma keeps the per-panel exponent variation within GL-32
# resolution) plus a ratio-1.28 ladder reaching ~1e6 sigma for slow tails.
_CORE = np.linspace(-13.0, 13.0, 21)
_LADDER = 13.0 * 1.28 ** np.arange(1, 49)
_OFFSETS = np.concatenate((-_LADDER[::-1], _CORE, _LADDER))
# Panels with both endpoint exponents this far under the mode contribute
# less than e^-90 relatively and are skipped.
_DROP = 90.0


def _phi(y, a, bma1, z):
    """Exponent of the U integrand on the log axis, stable for large |y|.

    bma1 is b - a - 1, either scalar or per-row column vector.
    """
    t = np.exp(np.minimum(y, MAXLOG))
    sp = np.where(y > 33.0, y + np.exp(-np.abs(y)), np.log1p(np.exp(np.minimum(y, 33.0))))
    with np.errstate(over="ignore"):  # -z*t saturating to -inf is the intent
        return -z * t + a * y + bma1 * sp


def _panel_sum(edges, a, bma1_col, z, shift):
    """Sum of exp(phi - shift) over all panels, per row.

    edges: (rows, n_edges); bma1_col: (rows, 1); shift: (rows,).
    """
    rows = edges.shape[0]
    phi_e = _phi(edges, a, bma1_col, z) - shift[:, None]
    keep = np.maximum(phi_e[:, :-1], phi_e[:, 1:]) > -_DROP
    ridx, pidx = np.nonzero(keep)
    if ridx.size == 0:
        return np.zeros(rows)
    lo = edges[ridx, pidx]
    hi = edges[ridx, pidx + 1]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    f = np.exp(_phi(y, a, bma1_col[ridx, 0][:, None], z) - shift[ridx, None])
    part = half * (f @ _GL_WEIGHTS)
    return np.bincount(ridx, weights=part, minlength=rows)


def _refine(edges):
    """Insert panel midpoints, doubling the panel count."""
    rows, n = edges.shape
    out = np.empty((rows, 2 * n - 1))
    out[:, 0::2] = edges
    out[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
    return out


def ln_tricomi_u_grid(a: float, b_values, z: float, acc: Accuracy | None = None) -> np.ndarray:
    """ln U(a, b, z) for a shared (a, z) and a vector of b values.

    This is the workhorse behind tricomi_u and the detection series, where
    one (a, z) pair meets a whole ladder of b parameters. Entries of the
    returned array may lie far outside exp() range; callers combine them
    with other log factors before exponentiating.
    """
    if acc is None:
        acc = _DEFAULT_ACC
    if not a > 0.0:
        raise ValueError("tricomi_u requires a > 0")
    if not z > 0.0:
        raise ValueError("tricomi_u requires z > 0")
    b = np.atleast_1d(np.asarray(b_values, dtype=float))
    bma1 = (b - a - 1.0)[:, None]

    # Interior maximum of phi: z t^2 + (z + 1 - b) t - a = 0; the positive
    # root in whichever form avoids cancellation.
    lin = z + 1.0 - b
    disc = np.sqrt(lin * lin + 4.0 * z * a)
    t_star = np.where(lin >= 0.0, 2.0 * a / (lin + disc), (disc - lin) / (2.0 * z))
    y_star = np.log(t_star)
    # curvature -phi'' at the mode sets the core scale
    curv = z * t_star - bma1[:, 0] * t_star / (1.0 + t_star) ** 2
    sigma = 1.0 / np.sqrt(np.clip(curv, 1e-8, None))
    sigma = np.clip(sigma, 1e-6, 1e4)

    shift = _phi(y_star, a, bma1[:, 0], z)
    edges = y_star[:, None] + sigma[:, None] * _OFFSETS[None, :]

    # A row stops refining once it converges, so its value depends on its
    # own b alone and not on which other rows share the call.
    tol = max(acc.rel_tol, 5e-14)
    out = np.empty(b.shape[0])
    todo = np.arange(b.shape[0])
    prev = _panel_sum(edges, a, bma1, z, shift)
    for _ in range(3):
        edges = _refine(edges)
        vals = _panel_sum(edges, a, bma1, z, shift)
        done = np.abs(vals - prev) <= tol * np.abs(vals)
        out[todo[done]] = shift[done] + np.log(vals[done]) - ln_gamma(a)
        if np.all(done):
            return out
        todo, edges, bma1, shift, prev = todo[~done], edges[~done], bma1[~done], shift[~done], vals[~done]
    raise ConvergenceError("tricomi_u quadrature did not reach tolerance")


def tricomi_u(a: float, b: float, z: float, acc: Accuracy | None = None) -> float:
    """Tricomi confluent hypergeometric U(a, b, z) for a > 0, z > 0, any b."""
    ln_u = float(ln_tricomi_u_grid(a, [b], z, acc)[0])
    if ln_u > MAXLOG:
        raise OverflowError("tricomi_u overflows double precision")
    return math.exp(ln_u)


def marcum_q(u: int, a: float, b: float, acc: Accuracy | None = None) -> float:
    """Generalized Marcum Q_u(a, b) for integer order u >= 1.

    Canonical series: with g = a^2/2 and x = b^2/2,
    Q_u(a, b) = sum_n e^{-g} g^n / n! * Q(n + u, x), summed outward from
    the Poisson mode so that e^{-g} never underflows on its own.

    Args:
      u: integer order (time-bandwidth product in the detector context).
      a: noncentrality-side argument, finite and >= 0.
      b: threshold-side argument, >= 0; b = inf gives 0.
      acc: optional tolerance bundle.
    """
    if acc is None:
        acc = _DEFAULT_ACC
    if not (isinstance(u, (int, np.integer)) and u >= 1):
        raise ValueError("marcum_q requires integer u >= 1")
    if not (0.0 <= a < math.inf and b >= 0.0):
        raise ValueError("marcum_q requires finite a >= 0 and b >= 0 (not NaN)")
    if b == 0.0:
        return 1.0
    if b == math.inf:
        return 0.0
    g = 0.5 * a * a
    x = 0.5 * b * b
    if g == 0.0:
        return reg_gamma_q(float(u), x)

    tol = 0.1 * acc.rel_tol
    n0 = int(g)
    w0 = math.exp(-g + n0 * math.log(g) - ln_gamma(n0 + 1.0))
    r0 = reg_gamma_q(n0 + u, x)
    total = w0 * r0

    # Upward sweep. Gamma-tail recurrence: Q(s+1, x) = Q(s, x) + T(s) with
    # T(s) = x^s e^{-x} / Gamma(s+1); here s = n + u.
    lt = (n0 + u) * math.log(x) - x - ln_gamma(n0 + u + 1.0)
    t_up = math.exp(lt) if lt > -MAXLOG else 0.0
    w = w0
    r = r0
    n = n0
    while True:
        r += t_up
        n += 1
        t_up *= x / (n + u)
        w *= g / n
        total += w * r
        if n + 1 > g:
            rho = g / (n + 1)
            # remaining Poisson mass bounded by the geometric tail; R <= 1
            if w * rho / (1.0 - rho) <= tol * total:
                break
        if n - n0 > 10_000_000:
            raise ConvergenceError("marcum_q upward sweep did not converge")

    # Downward sweep. Q(s-1, x) = Q(s, x) - T(s-1); terms below the mode
    # stop mattering once R itself is negligible against the total.
    lt = (n0 + u - 1) * math.log(x) - x - ln_gamma(n0 + u)
    t_dn = math.exp(lt) if lt > -MAXLOG else 0.0
    w = w0
    r = r0
    n = n0
    while n > 0:
        r -= t_dn
        t_dn *= (n + u - 1) / x
        w *= n / g
        n -= 1
        if r <= 0.0:
            # rounding artifact of the subtraction; true R is tiny here
            break
        total += w * r
        rho = n / g
        if rho < 1.0 and r * w * rho / (1.0 - rho) <= tol * total:
            break

    return min(max(total, 0.0), 1.0)
