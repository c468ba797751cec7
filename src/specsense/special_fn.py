"""Self-contained special functions for the sensing analytics.

Everything here is built on the standard library's math module and numpy:
digamma and ln x - digamma(x) from one Bernoulli tail, log-beta, the
Tricomi confluent hypergeometric function on a log grid, every Poisson(x)
table over a threshold grid, and the generalized Marcum Q as a Poisson
mixture of gamma tails, vectorized over the threshold. A grid's tables,
the F-fading series' upper tails P(u+i, x) and marcum_q_grid's lower
running sums, and marcum_q_grid's per-(order, SNR, grid) plans share one
byte-bounded memo, _tails (a _Memo, as are detection's two caches).
Log-gammas come from math.lgamma, those of j! < 2048 tabulated once. At zero noncentrality the Marcum Q is the
integer-order gamma tail Q(u, x), so the false-alarm probability is the
same Poisson-table sum. numpy supplies the node arrays for the Tricomi
quadrature and the Poisson tables. Nothing here uses scipy; in this package
only the independent oracle (detection.average_pd_quadrature), the
acceptance suite behind `selftest` and the tests do.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

__all__ = [
    "ConvergenceError",
    "digamma",
    "ln_beta",
    "ln_tricomi_u_grid",
    "marcum_q",
]

MAXLOG = 709.782712893383996732


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to reach its tolerance."""


def check_count(value, name: str = "u", least: int = 1) -> int:
    """value as an int, or ValueError("<name> must be an integer >= <least>")."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


class _Memo:
    """Least recently used read-only entries, dropped once their bytes pass
    budget; the newest entry always stays. An entry is an array, or a tuple
    of arrays and scalars (marcum_q_grid's plans). The arrays kept under one
    key are prefixes of one another, so the longest one wins; a tuple is a
    pure function of its key, so the first one stays. An entry's bytes are
    its arrays' plus those of the bytes objects in its key, since a grid key
    holds the grid itself."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build=None, *args):
        """The entry under key; else build(*args)'s, now kept, or None without build."""
        self._lock.acquire()  # cheaper than `with` on a warm hit
        try:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                return table
        finally:
            self._lock.release()
        return None if build is None else self.put(key, build(*args))

    def put(self, key, table):
        """Keep table read-only under key unless a longer one is; return the kept one."""
        if type(table) is tuple:
            for part in _arrays(table):
                part.setflags(write=False)
        else:
            table.setflags(write=False)
        size = _entry_bytes(table)
        with self._lock:
            kept = self._tables.get(key)
            if kept is None or _entry_bytes(kept) < size:
                self.nbytes += size + (_key_bytes(key) if kept is None else -_entry_bytes(kept))
                self._tables[key] = kept = table
            self._tables.move_to_end(key)
            while self.nbytes > self.budget and len(self._tables) > 1:
                old_key, old = self._tables.popitem(last=False)
                self.nbytes -= _entry_bytes(old) + _key_bytes(old_key)
        return kept

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.nbytes = 0


def _arrays(entry: tuple) -> list:
    """The arrays in a tuple entry of a memo."""
    return [part for part in entry if isinstance(part, np.ndarray)]


def _entry_bytes(entry) -> int:
    """An entry's bytes: its array's, or those of the arrays in its tuple."""
    return sum(part.nbytes for part in _arrays(entry)) if type(entry) is tuple else entry.nbytes


def _key_bytes(key) -> int:
    """Bytes held by the bytes objects in a tuple key; 0 for any other key."""
    return sum(len(part) for part in key if isinstance(part, bytes)) if isinstance(key, tuple) else 0


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


_TRI_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _ln_minus_digamma(x: float) -> tuple[float, float]:
    """ln x - psi(x) and its derivative 1/x - psi'(x) for x > 0; internal
    helper for digamma and the gamma-shape Newton iteration.

    Both are lifted by the recurrences to y = x + j > 6, where the
    asymptotic series give ln y - psi(y) = 1/(2y) - sum c_k y^{-2k} and
    1/y - psi'(y) = -1/(2y^2) - sum d_k y^{-2k-1} outright, so neither
    difference cancels at large x.
    """
    val = der = 0.0
    y = x
    while y <= 6.0:
        val += 1.0 / y
        der -= 1.0 / (y * y)
        y += 1.0
    inv2 = 1.0 / (y * y)
    val += math.log(x / y) + 0.5 / y
    der += 1.0 / x - 1.0 / y - 0.5 * inv2
    p, q = inv2, inv2 / y
    for c in _PSI_TAIL:
        val -= c * p
        p *= inv2
    for d in _TRI_TAIL:
        der -= d * q
        q *= inv2
    return val, der


def digamma(x: float) -> float:
    """Psi function for x > 0, as ln x - (ln x - psi(x))."""
    if not x > 0.0:
        raise ValueError("digamma requires x > 0")
    return math.log(x) - _ln_minus_digamma(x)[0]


def ln_beta(a: float, b: float) -> float:
    """Natural log of the beta function for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("ln_beta requires a, b > 0")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


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
# has a single interior maximum: phi' = a - z t + (b - a - 1) t/(1 + t)
# has the sign of a - (z + 1 - b) t - z t^2, which starts at a > 0 and
# crosses 0 once, at the t* solved for below, for every a > 0, z > 0 and
# real b. Panels: a sigma-scaled core around the mode plus a geometric
# ladder for the wings, Gauss-Legendre 32 per panel, and a uniform
# refinement pass as the error estimate. A pass evaluates phi at the new
# midpoints alone; the edges keep their exponents, shifted by the mode's,
# from the pass before. A panel whose two edge exponents lie _DROP under
# the mode is skipped: phi has one maximum, so it adds under e^-50 of the
# mode's value per unit of width, short of a row's last bit. Against a
# drop at e^-90, every output tools/fingerprint.py hashes and 256-row
# blocks stay the same bit for bit, and a test holds that. For the same
# reason a row's live edges, those within _DROP of the mode, form one run
# around the mode edge, so the passes see only the span of these runs
# (ln_tricomi_u_grid), about 20 of the layout's 117 edges. Nodes
# are formed _BLOCK panels at a time, 64 KiB arrays, so a call's
# temporaries do not grow with its rows: a 256-row ladder block peaks at
# 1.1 MiB (tracemalloc), against 9.9 MiB with all the nodes of its
# uncropped layout at once. Under
# glibc's default 128 KiB mmap and trim thresholds such arrays stay on the
# heap; 256 KiB ones were trimmed and faulted in again on every call.
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Panel layout in units of the mode width sigma: flat core to 13 sigma
# (width 1.3 sigma keeps the per-panel exponent variation within GL-32
# resolution) plus a ratio-1.28 ladder reaching ~1e6 sigma for slow tails.
_CORE = np.linspace(-13.0, 13.0, 21)
_LADDER = 13.0 * 1.28 ** np.arange(1, 49)
_OFFSETS = np.concatenate((-_LADDER[::-1], _CORE, _LADDER))
# the drop rule and the panels per block of nodes, as set out above
_DROP = 50.0
_BLOCK = 256
# A row is done once a refinement pass moves it by at most this, relatively,
# within this many passes.
_U_TOL = 1e-12
_U_PASSES = 3


def _phi(y, a, bma1, z):
    """Exponent of the U integrand on the log axis, stable for large |y|.

    bma1 is b - a - 1, either scalar or per-row column vector. Works in
    place, so a call holds at most three temporaries the size of y. -z*t
    saturating to -inf is the intent; the caller ignores that overflow.
    """
    out = np.minimum(y, MAXLOG)
    np.exp(out, out=out)
    sp = np.log1p(out)  # ln(1 + e^y) wherever y <= 33
    out *= -z
    out += a * y
    if y.max(initial=-math.inf) > 33.0:  # ln(1 + e^y) = y + ln(1 + e^-y), and e^-y < 1e-14 there
        big = y > 33.0
        sp[big] = y[big] + np.exp(-y[big])
    sp *= bma1
    out += sp
    return out


def _panel_sum(edges, phi_e, a, bma1_col, z, shift):
    """Sum of exp(phi - shift) over all panels, per row.

    edges, and phi_e = phi - shift at them: (rows, n_edges); bma1_col:
    (rows, 1); shift: (rows,).
    """
    keep = np.maximum(phi_e[:, :-1], phi_e[:, 1:]) > -_DROP
    ridx, pidx = np.nonzero(keep)
    left, right = edges[ridx, pidx], edges[ridx, pidx + 1]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    bma1_p, shift_p = bma1_col[ridx], shift[ridx, None]
    # numpy's bundled OpenBLAS weighs the rows of f four at a time from the
    # first, and the last one to three rows by a kernel that rounds
    # differently; blocks of whole fours keep each panel in the group it
    # has with all panels at once, so its sum keeps its bits. A BLAS that
    # groups otherwise would break this; test_node_blocks_change_no_bit
    # names the BLAS it ran on
    step = -(-_BLOCK // 4) * 4
    part = np.empty(ridx.size)
    for lo in range(0, ridx.size, step):
        s = slice(lo, lo + step)
        y = half[s, None] * _GL_NODES
        y += mid[s, None]
        f = _phi(y, a, bma1_p[s], z)
        f -= shift_p[s]
        part[s] = half[s] * (np.exp(f, out=f) @ _GL_WEIGHTS)
    return np.bincount(ridx, weights=part, minlength=edges.shape[0])


def _refine(edges, phi_e, a, bma1_col, z, shift):
    """Insert panel midpoints, doubling the panel count; phi is evaluated
    at the midpoints alone, the edges keeping their exponents."""
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    phi_mid = _phi(mid, a, bma1_col, z)
    phi_mid -= shift[:, None]
    return _interleave(edges, mid), _interleave(phi_e, phi_mid)


def _interleave(even, odd):
    """Rows of even with the columns of odd set between their columns."""
    out = np.empty((even.shape[0], 2 * even.shape[1] - 1))
    out[:, 0::2] = even
    out[:, 1::2] = odd
    return out


def _layout(a: float, b, z: float):
    """(bma1, shift, edges, phi_e) of every row's panel layout: b - a - 1 as a
    column, phi at the mode, the edges y* + sigma * _OFFSETS, and phi - shift
    at them. The caller ignores overflow, as _phi asks."""
    bma1 = (b - a - 1.0)[:, None]
    # Interior maximum of phi: z t^2 + (z + 1 - b) t - a = 0; the positive
    # root in whichever form avoids cancellation.
    lin = z + 1.0 - b
    disc = np.sqrt(lin * lin + 4.0 * z * a)
    with np.errstate(divide="ignore"):  # lin + disc can be 0 only where lin < 0, a dropped branch
        t_star = np.where(lin >= 0.0, 2.0 * a / (lin + disc), (disc - lin) / (2.0 * z))
    y_star = np.log(t_star)
    # curvature -phi'' at the mode sets the core scale
    curv = z * t_star - bma1[:, 0] * t_star / (1.0 + t_star) ** 2
    sigma = np.minimum(np.maximum(1.0 / np.sqrt(np.maximum(curv, 1e-8)), 1e-6), 1e4)
    shift = _phi(y_star, a, bma1[:, 0], z)
    edges = y_star[:, None] + sigma[:, None] * _OFFSETS[None, :]
    return bma1, shift, edges, _phi(edges, a, bma1, z) - shift[:, None]


@np.errstate(over="ignore")  # _phi's -z*t saturating to -inf
def ln_tricomi_u_grid(a: float, b_values, z: float) -> np.ndarray:
    """ln U(a, b, z) for a shared (a, z) and a vector of b values.

    The detection series calls it with one (a, z) pair and a whole ladder
    of b parameters. Entries of the returned array may lie far outside
    exp() range; callers combine them with other log factors before
    exponentiating. a, b and z must be finite.

    Every row's panels span the same columns of _OFFSETS: from one before
    the first to one after the last edge where any row of the call lies
    within _DROP of its mode, and always the mode edge. phi rises to its one
    maximum and falls past it, so the panels outside are skipped on every
    pass whatever the call's other rows, and a row keeps its bits.
    """
    if not a > 0.0:
        raise ValueError("ln_tricomi_u_grid requires a > 0")
    if not z > 0.0:
        raise ValueError("ln_tricomi_u_grid requires z > 0")
    b = np.atleast_1d(np.asarray(b_values, dtype=float))
    if not (a < math.inf and z < math.inf and np.isfinite(b).all()):
        raise ValueError("ln_tricomi_u_grid requires finite a, b and z")

    bma1, shift, edges, phi_e = _layout(a, b, z)
    live = np.flatnonzero((phi_e > -_DROP).any(axis=0) | (_OFFSETS == 0.0))
    span = slice(max(live[0] - 1, 0), live[-1] + 2)
    edges, phi_e = edges[:, span], phi_e[:, span]

    # A row stops refining once it converges, so its value depends on its
    # own b alone and not on which other rows share the call.
    out = np.empty(b.shape[0])
    todo = np.arange(b.shape[0])
    prev = _panel_sum(edges, phi_e, a, bma1, z, shift)
    for _ in range(_U_PASSES):
        edges, phi_e = _refine(edges, phi_e, a, bma1, z, shift)
        vals = _panel_sum(edges, phi_e, a, bma1, z, shift)
        change = np.abs(vals - prev)
        done = change <= _U_TOL * np.abs(vals)
        out[todo[done]] = shift[done] + np.log(vals[done]) - math.lgamma(a)
        if done.all():
            return out
        todo, edges, phi_e, bma1, shift, prev = (
            todo[~done], edges[~done], phi_e[~done], bma1[~done], shift[~done], vals[~done]
        )
    raise ConvergenceError(
        f"ln_tricomi_u_grid quadrature did not reach relative change {_U_TOL:g} in {_U_PASSES} "
        f"refinement passes (a={a}, z={z}, first unconverged b={b[todo[0]]}, "
        f"last relative change {change[~done][0] / prev[0]:.3g})"
    )


def poisson_reach(x):
    """9 sqrt(x) + 40: past this distance from a point beyond its mean, the
    Poisson(x) pmf adds less than 1e-16 of the sums a table feeds."""
    return 9.0 * np.sqrt(x) + 40.0


def poisson_pmf(xs, lo: int, hi: int, first, last, ln_fact) -> np.ndarray:
    """Poisson(x) pmf at j = lo..hi, one row per entry of the column xs, and
    0 outside that row's [first, last]; ln_fact holds ln j! for those j."""
    j = np.arange(lo, hi + 1.0)
    pmf = np.exp(-xs + j * np.log(xs) - ln_fact)
    pmf[(j < first) | (j > last)] = 0.0
    return pmf


def _ln_factorials(lo: int, hi: int) -> np.ndarray:
    """ln j! for j = lo..hi, each from math.lgamma; a read-only view of
    _LN_FACT when hi is below its length."""
    if hi < _LN_FACT.shape[0]:
        return _LN_FACT[lo : hi + 1]
    return np.fromiter(map(math.lgamma, range(lo + 1, hi + 2)), float, hi - lo + 1)


# ln j! for j < 2048, the k and n windows of most Poisson tables here
_LN_FACT = np.fromiter(map(math.lgamma, range(1, 2049)), float, 2048)
_LN_FACT.setflags(write=False)


def _chernoff(g: float, x, s) -> np.ndarray:
    """Least over n of the Chernoff exponents of Poisson(g) at n plus
    Poisson(x) at n + s, taken at n(n + s) = g x. Where the two tails face
    each other, exp(-it) bounds every term of their mixture. At g = 0 the
    mixture is its n = 0 term, which leaves the Poisson(x) exponent at s."""
    r = math.sqrt(g) * np.sqrt(x)
    # n underflowing to 0, or g = 0 with s = 0: NaN, settles nothing; a
    # subnormal x: inf, settles the entry
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = 2.0 * r * (r / (s + np.hypot(s, 2.0 * r)))
        k = n + s
        head = n * np.log(n / g) - n + g if g > 0.0 else 0.0
        return head + k * np.log(k / x) - k + x


_SURE = 800.0  # a sum of terms all below exp(-_SURE) rounds to 0
_MAX_CELLS = 1 << 18  # cells per slice of a Poisson table, bounding its temporaries
_MAX_WINDOW = 1 << 20  # Poisson terms per row of a marcum_q_grid call

# Poisson(x) tail tables of threshold grids, both kinds in one memo: the
# F-fading series' upper tails P(u+i, x), keyed ("upper", u, bytes of x), and
# marcum_q_grid's lower running sums, keyed ("lower", u, n_lo, bytes of the
# unsettled x). A table depends on u, the grid and n_lo alone, not on the
# channel, and n_lo is 0 for every g below about 150. Beside its table each
# marcum_q_grid call keeps its plan, keyed ("plan", u, g, bytes of x): the
# settled entries, windows and Poisson(g) weights, which do depend on g.
# Only a call of several thresholds whose table fits in one _MAX_CELLS slice
# keeps its table and plan; a single threshold or a sliced scan builds them
# every call. Each table is at most one 2 MiB slice, and a plan of a
# 200-point grid about 12 KB with its key. The paper's figure grids keep 13
# tables and 3 plans, 1.85 MiB in all with their keys.
_tails = _Memo(4 << 20)


def _sums_to(a, b, stop, scale=None) -> np.ndarray:
    """For each row r of a, the sum over j < stop[r] <= len(b) of a[r, j] b[j]
    (over scale[r] if given), a's last column standing for the entries past
    it, added one term at a time from j = 0: the row's running sum read at
    stop[r] - 1, bit for bit, whatever the other rows.

    Row r's terms fill column r of a C-ordered buffer of zeros, zeroed past
    its stop, and np.add.reduce adds the buffer's rows in order. numpy sums
    a one-column buffer pairwise, so it has at least two columns, and one
    row takes the same path as a grid.
    """
    (rows, cols), width = a.shape, b.shape[0]
    buf = np.zeros((width, max(rows, 2)))
    terms = buf[:, :rows]
    np.multiply(b[:cols, None], a.T, out=terms[:cols])
    if cols < width:
        np.multiply(b[cols:, None], a[:, -1], out=terms[cols:])
    if scale is not None:
        terms /= scale
    lo = stop.min()
    if lo < width:  # the band where some rows have stopped
        np.copyto(terms[lo:], 0.0, where=np.arange(lo, width)[:, None] >= stop)
    return np.add.reduce(buf, axis=0)[:rows]


def _upper_tails(pmf) -> np.ndarray:
    """upper[:, i] = P(u+i, x) from a table of the Poisson(x) pmf at j = u..top,
    one row per x and 0 past that row's own top, summed from the top down.
    The zeros past a row's top change nothing, so a row does not depend on
    the others."""
    return np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]


def _reg_p_int_shapes(u: int, count: int, x) -> np.ndarray:
    """P(u+n, x) for n = 0..count-1; one row per entry when x is an array.

    Each row's window runs to its own top, poisson_reach(x) past max(x,
    u+count-1), so P keeps its relative accuracy over all count shapes.
    """
    xs = np.array(x, dtype=float, ndmin=1)[:, None]
    tops = np.ceil(np.maximum(xs, u + count - 1.0) + poisson_reach(xs))
    top = int(tops.max())
    upper = _upper_tails(poisson_pmf(xs, u, top, u, tops, _ln_factorials(u, top)))
    return upper[:, :count] if np.ndim(x) else upper[0, :count]


def _tail_tables(u: int, x):
    """(lo, upper) for each slice of the column x = lam_eff/2 from row lo:
    upper[:, i] = P(u+i, x), each row to its own x + poisson_reach(x) and 0
    past it, then a last column of zeros past every top. A grid's table
    comes from _tails when kept there."""
    key = ("upper", u, x.tobytes())
    kept = _tails.get(key)
    if kept is not None:
        yield 0, kept
        return
    tops = np.ceil(x + poisson_reach(x))
    top = max(u, int(tops.max(initial=0.0))) + 1
    step = max(1, _MAX_CELLS // (top - u + 1))
    ln_fact = _ln_factorials(u, top)
    for lo in range(0, x.shape[0], step):
        upper = _upper_tails(poisson_pmf(x[lo : lo + step], u, top, u, tops[lo : lo + step], ln_fact))
        # a kept table is column-major, so _sums_to reads each column in one run
        yield lo, _tails.put(key, np.asfortranarray(upper)) if 1 < x.shape[0] <= step else upper


def _lower_tables(u: int, n_lo: int, x, k_lo, k_hi, bulk_hi, n_width: int, keep: bool):
    """(rows, k0, lower) for each slice of x: lower[:, i] = the Poisson(x)
    mass from the row's k_lo to k0 + i, a running sum and so the same
    whatever k0 or the other rows, constant past the row's k_hi, or past
    its bulk_hi in a table kept in _tails, as is the whole table when keep."""
    k0 = int(k_lo.min())
    key = ("lower", u, n_lo, x.tobytes()) if keep else None
    kept = _tails.get(key) if keep else None
    if kept is not None:
        yield slice(None), k0, kept
        return
    last = bulk_hi if keep else k_hi
    step = x.shape[0] if keep else max(1, _MAX_CELLS // (int(k_hi.max()) - k0 + 1 + n_width))
    for lo in range(0, x.shape[0], step):
        rows = slice(lo, lo + step)
        k0, k1 = int(k_lo[rows].min()), int(last[rows].max())
        pmf = poisson_pmf(x[rows, None], k0, k1, k_lo[rows, None], last[rows, None], _ln_factorials(k0, k1))
        lower = np.cumsum(pmf, axis=1)
        # column-major, as in _tail_tables
        yield rows, k0, _tails.put(key, np.asfortranarray(lower)) if keep else lower


def _marcum_plan(u: int, g: float, x) -> tuple:
    """What marcum_q_grid(u, g, x) derives from its arguments alone, before
    it reads a table: (keep, out, live, n_lo, k_lo, k_hi, bulk_hi, w, pick),
    out holding the entries settled with no table and live the indices of
    the rest, or (False, out, live) when none is left. keep says that the
    call keeps its lower table, and so this plan, in _tails: it has more
    than one live threshold, and its table fits in one _MAX_CELLS slice."""
    out = (x == 0.0).astype(float)  # b = 0 detects everything, b = inf nothing
    live = np.nonzero((x > 0.0) & (x < math.inf))[0]
    xl = x[live]
    # past g + u - 1 the terms of Q are the small ones, below it those of 1 - Q
    above = xl > g + u - 1.0
    sure = _chernoff(g, xl, np.where(above, u - 1.0, float(u))) > _SURE
    out[live[sure & ~above]] = 1.0
    live, xl = live[~sure], xl[~sure]
    if live.size == 0:
        return False, out, live
    n_lo = max(0, math.floor(g - poisson_reach(g)))
    if g > 0.0:
        peak = 0.5 * (g - u - 1.0 + np.sqrt((u - 1.0 + g) ** 2 + 4.0 * g * xl))
        far = np.maximum(g, np.minimum(xl - u, peak))
        n_top = np.ceil(far + poisson_reach(far))
    else:  # the point mass at n = 0, leaving Q(u, x) itself
        n_top = np.zeros_like(xl)
    reach = poisson_reach(xl)
    k_lo = np.maximum(0.0, np.floor(np.minimum(xl, u + n_lo - 1.0) - reach))
    bulk_hi = np.ceil(xl + reach)
    k_hi = np.minimum(u + n_top - 1.0, bulk_hi)
    if max(n_top.max() - n_lo, (k_hi - k_lo).max()) >= _MAX_WINDOW:
        raise ConvergenceError(f"marcum_q needs over {_MAX_WINDOW} Poisson terms (u={u}, g={g})")
    n_hi = max(int(n_top.max()), n_lo)
    w = poisson_pmf(g, n_lo, n_hi, n_lo, n_hi, _ln_factorials(n_lo, n_hi)) if g > 0.0 else np.ones(1)
    w /= w[: math.ceil(g + poisson_reach(g)) - n_lo + 1].sum()
    pick = (n_top - n_lo).astype(int)
    keep = 1 < live.size <= _MAX_CELLS // (int(bulk_hi.max()) - int(k_lo.min()) + 1 + w.shape[0])
    return keep, out, live, n_lo, k_lo, k_hi, bulk_hi, w, pick


def marcum_q_grid(u: int, g: float, x) -> np.ndarray:
    """Q_u(sqrt(2g), sqrt(2x)) for one g >= 0 and an array of x >= 0.

    The direct Poisson(g) mixture sum_n w_n Q(u+n, x), each Q(u+n, x) the
    Poisson(x) mass below u+n, adds positive terms only, so a small result
    keeps its relative accuracy. At g = 0 the weights are the point mass at
    n = 0 and the sum is Q(u, x). An entry whose terms, or those of 1 - Q,
    all lie below exp(-_SURE) by _chernoff is 0, or 1, with no table; the
    rest have sqrt(x) within about 30 + sqrt(u) of sqrt(g). For those, n
    runs from n_lo = g - poisson_reach(g) to n_top, the reach past max(g,
    min(x - u, peak)), peak the root of (n+1)(n+u) = g(n+u+x) past which
    the terms fall, and k from k_lo, the reach below min(x, u+n_lo-1), to
    k_hi = min(u+n_top-1, bulk_hi), bulk_hi the reach above x. The windows
    are O(sqrt(g) + sqrt(x) + u) wide; one wider than _MAX_WINDOW raises
    ConvergenceError. Each pmf is normalised over its bulk, which cancels
    the rounding of ln k!. Each row's mixture is summed by _sums_to, term
    by term up to its own n_top, so an entry depends on its own x alone.

    All of this up to the table is the call's plan (_marcum_plan), a
    function of (u, g, x). The table of running sums Q(k+1, x) depends on
    g through n_lo alone. A call that keeps its table in _tails, which runs
    its rows to bulk_hi, keeps its plan there too, so a warm call only reads
    both, sums and picks; a row reads the same entries up to its n_top as
    the k_hi-wide rows of a single threshold, bit for bit. A plan whose
    table was dropped builds it again.
    """
    x = np.array(x, dtype=float, ndmin=1)
    key = ("plan", u, g, x.tobytes()) if x.shape[0] > 1 else None
    plan = _tails.get(key) if key else None
    if plan is None:
        plan = _marcum_plan(u, g, x)
        if plan[0]:
            _tails.put(key, plan)
    keep, out, live, *window = plan
    if keep:  # a kept plan's arrays are read-only
        out = out.copy()
    if not window:
        return out
    n_lo, k_lo, k_hi, bulk_hi, w, pick = window
    for rows, k0, lower in _lower_tables(u, n_lo, x[live], k_lo, k_hi, bulk_hi, w.shape[0], keep):
        whole = np.where(k_hi[rows] == bulk_hi[rows], lower[:, -1], 1.0)  # constant past bulk_hi
        # term i is w_i Q(u + n_lo + i, x) / whole; past the table's last
        # column every row's Q is constant, so q ends there (or is that one
        # column) and _sums_to repeats it
        s = u + n_lo - 1 - k0
        q = lower[:, min(s, lower.shape[1] - 1) : s + w.shape[0]]
        out[live[rows]] = np.minimum(_sums_to(q, w, pick[rows] + 1, whole), 1.0)
    return out


def marcum_q(u: int, a: float, b: float) -> float:
    """Generalized Marcum Q_u(a, b) for integer order u >= 1.

    With g = a^2/2 and x = b^2/2, Q_u(a, b) = sum_n e^{-g} g^n / n! Q(n+u, x),
    evaluated as a one-element marcum_q_grid call; a = 0 leaves the gamma
    tail Q(u, x), the false-alarm probability at threshold b^2.

    Args:
      u: integer order (time-bandwidth product in the detector context).
      a: noncentrality-side argument, finite and >= 0.
      b: threshold-side argument, >= 0; b = inf gives 0.
    """
    check_count(u)
    if not (0.0 <= a < math.inf and b >= 0.0):
        raise ValueError("marcum_q requires finite a >= 0 and b >= 0 (not NaN)")
    return float(marcum_q_grid(u, 0.5 * a * a, [0.5 * b * b])[0])
