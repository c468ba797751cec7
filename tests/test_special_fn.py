"""Tests for the scalar special-function kernels.

Frozen reference values come from 30-digit arbitrary precision evaluation
(mpmath); identities and recurrences are checked on seeded random grids.
"""

import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from specsense import special_fn
from specsense.fading import FadingParams
from specsense.special_fn import (
    ConvergenceError,
    digamma,
    ln_beta,
    ln_tricomi_u_grid,
    marcum_q,
)

EULER_GAMMA = 0.5772156649015329


class TestNonFiniteArguments:
    # each of these once spun forever in an unbounded continued fraction,
    # so each runs in a subprocess that a hang fails instead of stalling
    # the suite
    @pytest.mark.parametrize(
        "expr",
        [
            "marcum_q(2, 1.0, math.inf) == 0.0",
            "raises(lambda: marcum_q(2, 1.0, math.nan))",
            "raises(lambda: marcum_q(2, math.nan, 1.0))",
            "raises(lambda: pfa(DetectorConfig(2, math.inf)))",
        ],
    )
    def test_returns_or_raises_promptly(self, expr):
        code = (
            "import math\n"
            "from specsense.detection import DetectorConfig, pfa\n"
            "from specsense.special_fn import marcum_q\n"
            "def raises(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except ValueError:\n"
            "        return True\n"
            "    return False\n"
            f"assert {expr}\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr


class TestDigamma:
    def test_frozen_values(self):
        for x, want in (
            (1.0, -EULER_GAMMA),
            (2.0, 1.0 - EULER_GAMMA),
            (5.0, 1.5061176684318005),
            (0.01, -100.56088545786868),
            (1e6, 13.815510057964191),
        ):
            assert math.isclose(digamma(x), want, rel_tol=1e-12)

    def test_recurrence(self):
        for x in np.geomspace(0.02, 1e4, 40):
            assert math.isclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rel_tol=1e-11, abs_tol=1e-11)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(-1.0)


class TestLnBeta:
    def test_anchors(self):
        assert ln_beta(1.0, 1.0) == 0.0
        assert math.isclose(ln_beta(2.0, 3.0), -2.4849066497880004, rel_tol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.1, 60.0, size=2)
            assert ln_beta(a, b) == ln_beta(b, a)


class TestTricomiU:
    def test_unit_value(self):
        # U(a, a+1, z) = z^{-a}; at a=1, z=1 this is exactly 1
        assert math.isclose(math.exp(ln_tricomi_u_grid(1.0, [2.0], 1.0)[0]), 1.0, rel_tol=1e-12)

    def test_power_identity(self):
        # U(a, a+1, z) = z^{-a} over a wide random box
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = float(10.0 ** rng.uniform(-1.0, math.log10(50.0)))
            z = float(10.0 ** rng.uniform(-3.0, 3.0))
            ln_u = float(ln_tricomi_u_grid(a, [a + 1.0], z)[0])
            assert math.isclose(ln_u, -a * math.log(z), rel_tol=1e-11, abs_tol=1e-11)

    def test_frozen_values(self):
        for (a, b, z), want in (
            ((0.8, 0.5, 2.0), 0.4112413445398791),
            ((3.0, -1.5, 8.0), 0.0004779441099693985),
            ((1.5, 1.5, 1.0), 0.4842556877173758),
            ((0.3, 2.7, 0.04), 78.85181533712202),
            ((10.0, 2.0, 3.0), 4.486380817382795e-10),
        ):
            assert math.isclose(math.exp(ln_tricomi_u_grid(a, [b], z)[0]), want, rel_tol=5e-12)

    def test_connection_to_kummer_pair(self):
        # U(a,b,z) = G(1-b)/G(a-b+1) M(a,b,z) + G(b-1)/G(a) z^{1-b} M(a-b+1,2-b,z).
        # The two terms can cancel catastrophically, which says nothing about
        # either routine, so only well-conditioned draws are kept.
        rng = np.random.default_rng(43)
        kept = 0
        attempts = 0
        while kept < 20 and attempts < 4000:
            attempts += 1
            a = float(rng.uniform(0.3, 6.0))
            b = float(rng.uniform(-2.5, 3.5))
            z = float(rng.uniform(0.1, 8.0))
            if abs(b - round(b)) < 0.15:
                continue
            m1 = float(mpmath.hyp1f1(a, b, z))
            m2 = float(mpmath.hyp1f1(a - b + 1.0, 2.0 - b, z))
            t1 = math.gamma(1.0 - b) / math.gamma(a - b + 1.0) * m1
            t2 = math.gamma(b - 1.0) / math.gamma(a) * z ** (1.0 - b) * m2
            want = t1 + t2
            if want <= 0.0 or (abs(t1) + abs(t2)) / abs(want) > 1e3:
                continue
            kept += 1
            assert math.isclose(math.exp(ln_tricomi_u_grid(a, [b], z)[0]), want, rel_tol=1e-9)
        assert kept == 20

    def test_log_grid_against_arbitrary_precision(self):
        # The b ladder mirrors how the detection series consumes this routine:
        # a = m + m_s fixed, b = m_s - n + 1 marching down with the series index.
        # The references are mpmath's at 40 digits, frozen in _LN_HYPERU.
        for m in (0.6, 3.5, 20.0):
            for ms in (1.1, 30.0):
                a = m + ms
                b_vals = [ms - n + 1.0 for n in (0, 5, 40, 300)]
                for z in (0.02, 1.3, 57.0, 1308.0):
                    got = ln_tricomi_u_grid(a, b_vals, z)
                    for g, want in zip(got, _LN_HYPERU[(m, ms, z)], strict=True):
                        assert abs(g - want) <= 5e-11 * max(1.0, abs(want))

    def test_grid_rows_do_not_depend_on_their_neighbours(self):
        # series ladder of the channel m=1.5, m_s=6600 at 22 dB, where a few
        # rows need one more refinement pass than the rest, row by row
        m, ms = 1.5, 6600.0
        a, z = m + ms, (ms - 1.0) * 10.0 ** 2.2 / m
        b = ms - np.arange(300.0) + 1.0
        one_call = ln_tricomi_u_grid(a, b, z)
        for k in range(b.size):
            assert one_call[k] == ln_tricomi_u_grid(a, b[k : k + 1], z)[0]
        # the ladder memo keeps the longest ladder, so a row must not depend
        # on how many rows its call had, which rests on the BLAS: 20 ladders
        # over pd_scatter's ranges (m in [0.6, 20], m_s - 1 in [0.05, 30],
        # -5..15 dB), each split in two at a random row
        rng = np.random.default_rng(24)
        for _ in range(20):
            m, ms = 0.6 * (20.0 / 0.6) ** rng.random(), 1.0 + 0.05 * 600.0 ** rng.random()
            db = rng.uniform(-5.0, 15.0)
            a, b, z = _ladder_args(m, ms, db, int(rng.integers(64, 700)))
            k = int(rng.integers(1, b.size))
            split = np.concatenate((ln_tricomi_u_grid(a, b[:k], z), ln_tricomi_u_grid(a, b[k:], z)))
            assert split.tobytes() == ln_tricomi_u_grid(a, b, z).tobytes(), (m, ms, db, k)

    @pytest.mark.parametrize("block", [1, 7])
    def test_node_blocks_change_no_bit(self, block, monkeypatch):
        # blocks round up to 4 and 8 panels, whole groups of the four rows
        # OpenBLAS's dgemv weighs together; the guarantee is for that BLAS,
        # named in the message. The last channel has rows that need more
        # refinement passes, so kept edge exponents are subset between
        # passes too
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        default = [ln_tricomi_u_grid(*_ladder_args(m, ms, db, 300)) for m, ms, db in _THREE_CHANNELS]
        monkeypatch.setattr(special_fn, "_BLOCK", block)
        for (m, ms, db), want in zip(_THREE_CHANNELS, default, strict=True):
            got = ln_tricomi_u_grid(*_ladder_args(m, ms, db, 300))
            assert got.tobytes() == want.tobytes(), f"{(m, ms, db)} under {blas}"

    def test_dropped_panels_never_reach_a_bit(self, monkeypatch):
        # the panels between e^-90 and e^-50 of the mode, which the drop
        # rule skips, over the fingerprinted 120-row ladders and one 256-row
        # block
        cases = [(m, ms, db, 120) for m in (0.6, 1.0, 3.5, 20.0) for ms in (1.1, 2.7, 30.0, 300.0)
                 for db in (-10.0, 0.0, 7.0, 15.0)] + [(2.0, 3.0, 5.0, 256)]
        default = [ln_tricomi_u_grid(*_ladder_args(*case)) for case in cases]
        monkeypatch.setattr(special_fn, "_DROP", 90.0)
        for case, want in zip(cases, default, strict=True):
            assert ln_tricomi_u_grid(*_ladder_args(*case)).tobytes() == want.tobytes(), case

    def test_live_edges_form_one_run_around_the_mode(self):
        # phi' has the sign of a - (z + 1 - b) t - z t^2, so phi has one
        # maximum for every b; past b = a + 1 it is not concave. The crop
        # rests on this run, over z from 1e-20 to 1e6
        mode = np.flatnonzero(special_fn._OFFSETS == 0.0)[0]
        rng = np.random.default_rng(29)
        for _ in range(300):
            a = float(10.0 ** rng.uniform(-1.0, 4.0))
            z = float(10.0 ** rng.uniform(-20.0, 6.0))
            b = a + 1.0 + rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-3.0, 4.0, 64)
            with np.errstate(over="ignore"):
                live = special_fn._layout(a, b, z)[3] > -special_fn._DROP
            first = live.argmax(axis=1)
            last = live.shape[1] - 1 - live[:, ::-1].argmax(axis=1)
            assert live[:, mode].all(), (a, z)
            assert (live.sum(axis=1) == last - first + 1).all(), (a, z)

    def test_passes_see_only_the_live_span(self, monkeypatch):
        # every pass gets the same cropped columns: one dead edge for every
        # row past each end of the live edges of any row, about 20 of the
        # layout's 117 in all on pd_scatter's channels (m in [0.6, 20], m_s
        # - 1 in [0.05, 30], -5..15 dB), where the widest 256-row block
        # spans 24
        widths = []

        def panel_sum(edges, phi_e, *args):
            assert (phi_e[:, [0, -1]] <= -special_fn._DROP).all()
            return panel_sum_(edges, phi_e, *args)

        def refine(edges, *args):
            widths.append(edges.shape[1])
            return refine_(edges, *args)

        panel_sum_, refine_ = special_fn._panel_sum, special_fn._refine
        monkeypatch.setattr(special_fn, "_panel_sum", panel_sum)
        monkeypatch.setattr(special_fn, "_refine", refine)
        rng = np.random.default_rng(29)
        for _ in range(40):
            m, ms = 0.6 * (20.0 / 0.6) ** rng.random(), 1.0 + 0.05 * 600.0 ** rng.random()
            a, b, z = _ladder_args(m, ms, rng.uniform(-5.0, 15.0), 256)
            with np.errstate(over="ignore"):
                live = np.flatnonzero((special_fn._layout(a, b, z)[3] > -special_fn._DROP).any(axis=0))
            widths.clear()
            ln_tricomi_u_grid(a, b, z)
            assert widths[0] == live[-1] - live[0] + 3 <= 26, (m, ms)

    def test_working_set_is_bounded(self):
        args = _ladder_args(2.0, 3.0, 5.0, 256)
        tracemalloc.start()
        try:
            ln_tricomi_u_grid(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_exponent_on_both_sides_of_its_switch(self):
        # ln(1 + e^y) changes form at y = 33; both forms agree with logaddexp
        y = np.tile(np.linspace(-60.0, 700.0, 2001), (2, 1))
        bma1 = np.array([[-3.5], [2.0]])
        got = special_fn._phi(y, 1.7, bma1, 1e-300)
        want = -1e-300 * np.exp(y) + 1.7 * y + bma1 * np.logaddexp(0.0, y)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)

    def test_unconverged_row_names_its_parameters(self):
        # a row of the channel m=1, m_s=1e5 at 0 dB, whose refinement
        # passes keep moving it by about 2e-12
        with pytest.raises(ConvergenceError) as info:
            ln_tricomi_u_grid(100001.0, [99990.0, 99982.0], 99999.0)
        msg = str(info.value)
        for part in ("ln_tricomi_u_grid quadrature", "a=100001.0", "z=99999.0", "b=99982.0", "3 refinement passes",
                     "last relative change 2.29e-12"):
            assert part in msg

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError, match="^ln_tricomi_u_grid requires a > 0$"):
            ln_tricomi_u_grid(-1.0, [0.5], 1.0)
        with pytest.raises(ValueError, match="^ln_tricomi_u_grid requires z > 0$"):
            ln_tricomi_u_grid(1.0, [0.5], 0.0)
        # each of these once returned NaN with RuntimeWarnings
        for a, b, z in ((math.inf, [0.5], 1.0), (1.0, [0.5], math.inf), (1.0, [0.5, math.inf], 1.0),
                        (1.0, [-math.inf], 1.0), (1.0, [math.nan, 0.5], 1.0)):
            with pytest.raises(ValueError, match="^ln_tricomi_u_grid requires finite a, b and z$"):
                ln_tricomi_u_grid(a, b, z)


class TestMarcumQ:
    def test_zero_noncentrality_reduces_to_gamma_tail(self):
        for u in (1, 2, 5):
            for b in (0.5, 2.0, 7.0):
                with mpmath.workdps(30):
                    want = float(mpmath.gammainc(u, 0.5 * b * b, regularized=True))
                assert math.isclose(marcum_q(u, 0.0, b), want, rel_tol=1e-12)

    def test_zero_threshold_is_certain(self):
        assert marcum_q(3, 1.7, 0.0) == 1.0

    def test_frozen_values(self):
        for (u, a, b), want in (
            ((1, 1.0, 1.0), 0.7328798037968203),
            ((2, 0.5, 1.7), 0.6061845302905624),
            ((3, 4.0, 6.2), 0.044590897121328),
        ):
            assert math.isclose(marcum_q(u, a, b), want, rel_tol=1e-12)

    def test_monotonicity(self):
        # increasing in a, decreasing in b, increasing in u
        rng = np.random.default_rng(44)
        for _ in range(200):
            u = int(rng.integers(1, 6))
            a = float(rng.uniform(0.0, 6.0))
            b = float(rng.uniform(0.1, 8.0))
            q = marcum_q(u, a, b)
            assert 0.0 <= q <= 1.0
            assert marcum_q(u, a + 0.3, b) >= q - 1e-13
            assert marcum_q(u, a, b + 0.3) <= q + 1e-13
            assert marcum_q(u + 1, a, b) >= q - 1e-13

    def test_memory_grows_with_the_root_of_the_noncentrality(self):
        tracemalloc.start()
        try:
            q = marcum_q(2, math.sqrt(2e6), math.sqrt(2e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < q < 0.51
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize(
        "u, a, b",
        [(2, math.sqrt(20.0), 1e8), (2, 30.0, 1e10), (2, 30.0, 1e150), (2, 1e7, 1.0), (2**21, 0.0, 1e7)],
    )
    def test_settled_tails_need_no_table(self, u, a, b):
        # every term lies far below the smallest double, on Q's side or on
        # 1 - Q's, so the call builds no window that grows with a * b
        tracemalloc.start()
        try:
            q = marcum_q(u, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q == (1.0 if a > b else 0.0)
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("u", [1, 2, 50, 1000])
    @pytest.mark.parametrize("g", [0.0, 1e-3, 1.0, 10.0, 1e3, 1e4])
    def test_settled_entries_agree_with_the_sum(self, u, g, monkeypatch):
        # across the edges where entries are settled as 0 or 1 without a
        # table, the full sum gives the same to rounding
        lo, hi = max(math.sqrt(g) - 45.0, 1e-3), math.sqrt(g) + math.sqrt(u) + 45.0
        x = np.linspace(lo, hi, 1000) ** 2
        q = special_fn.marcum_q_grid(u, g, x)
        monkeypatch.setattr(special_fn, "_SURE", math.inf)
        summed = special_fn.marcum_q_grid(u, g, x)
        zeros, ones = q == 0.0, q == 1.0
        assert zeros.any()
        assert np.all(summed[zeros] <= 1e-300)
        assert np.all(summed[ones] >= 1.0 - 1e-12)

    def test_huge_noncentrality_raises_instead_of_allocating(self):
        with pytest.raises(ConvergenceError, match="Poisson terms"):
            marcum_q(2, math.sqrt(2e13), math.sqrt(2e13))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(2, -0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q(2, 1.0, -1.0)


class TestOrderedSums:
    # special_fn._sums_to relies on numpy adding the rows of a C-ordered
    # array of two or more columns one after another; a one-column array
    # is summed pairwise. The message names the numpy it ran on
    N = sorted(set(range(1, 21)) | set(np.linspace(21, 300, 31).astype(int).tolist()))
    K = (2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 127, 200, 255, 256, 511, 1000, 1024)

    def test_numpy_adds_the_rows_in_order(self):
        rng = np.random.default_rng(26)
        told = 0
        for n in self.N:
            for k in self.K:
                a = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, k))
                forward, backward = a[0].copy(), a[-1].copy()
                for i in range(1, n):  # one add per column and row, left to right
                    forward += a[i]
                    backward += a[n - 1 - i]
                told += np.any(forward != backward)
                got = np.add.reduce(a, axis=0)
                assert got.tobytes() == forward.tobytes(), f"shape {(n, k)} under numpy {np.__version__}"
        assert len(self.N) * len(self.K) == 969
        assert told > 900  # the data tell one order of the sum from another

    @pytest.mark.parametrize("rows", [1, 2, 3, 40])
    def test_sums_are_running_sums_read_at_each_stop(self, rows):
        # products by a, by a's last column past its width, with and
        # without a scale, against np.cumsum along each row
        rng = np.random.default_rng(rows)
        for width, cols in ((1, 1), (5, 5), (60, 45), (60, 60), (30, 1)):
            a = rng.random((rows, cols)) * 10.0 ** rng.uniform(-6.0, 0.0, (rows, cols))
            b = rng.random(width)
            stop = rng.integers(1, width + 1, rows)
            scale = rng.uniform(0.5, 2.0, rows)
            full = np.concatenate((a, np.repeat(a[:, -1:], width - cols, axis=1)), axis=1)
            for sc in (None, scale):
                terms = full * b if sc is None else full * b / sc[:, None]
                want = np.cumsum(terms, axis=1)[np.arange(rows), stop - 1]
                got = special_fn._sums_to(a, b, stop, sc)
                assert got.tobytes() == want.tobytes(), (rows, width, cols, sc is None)
                for r in range(rows):  # each row alone, as a one-row call
                    one = special_fn._sums_to(a[r : r + 1], b, stop[r : r + 1], None if sc is None else sc[r : r + 1])
                    assert one.tobytes() == want[r : r + 1].tobytes()


def _ladder_args(m, ms, db, rows):
    """(a, b, z) of the first `rows` rows of the channel's series ladder,
    as detection._ln_series_coeff passes them."""
    p = FadingParams.from_db(m, ms, db)
    return p.m + p.m_s, p.m_s - np.arange(float(rows)) + 1.0, p.snr_scale


_THREE_CHANNELS = ((2.0, 3.0, 5.0), (0.6, 1.1, -10.0), (1.5, 6600.0, 22.0))


def test_convergence_error_is_arithmetic_error():
    assert issubclass(ConvergenceError, ArithmeticError)


# float(mpmath.log(mpmath.hyperu(m + m_s, m_s - n + 1, z))) at mp.dps = 40 for
# n = 0, 5, 40 and 300, keyed by (m, m_s, z). Evaluating them takes mpmath
# about 45 s, mostly at z = 1308 and n = 300; tools/hyperu_refs.py
# regenerates this table.
_LN_HYPERU = {
    (0.6, 1.1, 0.02): (
        4.311969693917638, -2.463962137449292,
        -6.239727396463019, -9.692287518971815,
    ),
    (0.6, 1.1, 1.3): (
        -0.8725145703788857, -3.0131484271785807,
        -6.296096032167975, -9.699575701509824,
    ),
    (0.6, 1.1, 57.0): (
        -6.890589881662708, -7.029330528380472,
        -7.777823248268494, -9.98960741374906,
    ),
    (0.6, 1.1, 1308.0): (
        -12.200411539532757, -12.206888021576779,
        -12.251546761405994, -12.551036874427167,
    ),
    (0.6, 30.0, 0.02): (
        115.32355347019204, 79.2868783498628,
        -96.10789445676347, -172.93224687312107,
    ),
    (0.6, 30.0, 1.3): (
        -9.933930725330667, -25.36146774528082,
        -99.55593797692615, -173.07745503283778,
    ),
    (0.6, 30.0, 57.0): (
        -123.97331416198503, -126.05230743824099,
        -138.29439520094257, -178.75703316185943,
    ),
    (0.6, 30.0, 1308.0): (
        -219.60725551609974, -219.72257445822194,
        -220.5181327359789, -225.86783624902964,
    ),
    (3.5, 1.1, 0.02): (
        1.4913348546204295, -7.913001017982973,
        -17.048741294558166, -26.248386297534466,
    ),
    (3.5, 1.1, 1.3): (
        -5.483173074005283, -9.27552043498398,
        -17.201071634738977, -26.26810683811665,
    ),
    (3.5, 1.1, 57.0): (
        -18.860604999814715, -19.213235111435747,
        -21.15222513820797, -27.05232288452818,
    ),
    (3.5, 1.1, 1308.0): (
        -33.0230371552279, -33.04050414403747,
        -33.160957890799835, -33.96913298786082,
    ),
    (3.5, 30.0, 0.02): (
        105.31289079947886, 69.2757998636616,
        -106.9217589744752, -189.48836656559416,
    ),
    (3.5, 30.0, 1.3): (
        -20.069284091639993, -35.52068703599999,
        -110.65511271311969, -189.64733209815773,
    ),
    (3.5, 30.0, 57.0): (
        -137.0286913483206, -139.2125664279349,
        -152.16999914417363, -195.85990195675382,
    ),
    (3.5, 30.0, 1308.0): (
        -240.4928925974834, -240.6187366720196,
        -241.48697027287145, -247.32801721996717,
    ),
    (20.0, 1.1, 0.02): (
        -39.009221692087145, -53.25724852748111,
        -81.94169877727991, -120.96741002830434,
    ),
    (20.0, 1.1, 1.3): (
        -50.92341314346308, -58.018710129521196,
        -82.63541602611478, -121.05785623085299,
    ),
    (20.0, 1.1, 57.0): (
        -90.95705591538147, -92.19987340917893,
        -99.49594393936647, -124.64017926650237,
    ),
    (20.0, 1.1, 1308.0): (
        -151.7365443559162, -151.81520845758428,
        -152.3579201693583, -156.00880713990878,
    ),
    (20.0, 30.0, 0.02): (
        44.03820039388002, 7.998745713029037,
        -171.84222226529255, -284.2075092884317,
    ),
    (20.0, 30.0, 1.3): (
        -82.04344941453304, -97.62427928205292,
        -177.11058765483514, -284.4447357566046,
    ),
    (20.0, 30.0, 57.0): (
        -213.87241046587394, -216.55638565862887,
        -232.9848668481476, -293.6730975830132,
    ),
    (20.0, 30.0, 1308.0): (
        -359.5573659934921, -359.7418683530023,
        -361.01532089400683, -369.603730017662,
    ),
}
