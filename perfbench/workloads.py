"""The four benchmark workloads.

Each workload is one closed-loop caller: it sends its next operation only
after the last one returned. A run repeats whole rounds, each a fixed list
of operations made from the seed, so every run attempts the same mix.
Outputs are kept during the timed phase and checked only after it, against
the scipy references in reference.py (imported at check time, so scipy's
own import cost never hides inside a workload's set-up).

This module imports numpy and specsense, never scipy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import specsense
from specsense import auc, detection, entropy, montecarlo
from specsense.detection import DetectorConfig
from specsense.fading import FadingParams


class Op:
    """One operation: fn() is timed; kind groups operations in reports.
    An operation that repeats is the same call in every round; trials counts
    the detector trials a simulation draws."""

    __slots__ = ("kind", "fn", "meta", "repeats", "trials")

    def __init__(self, kind: str, fn, meta=None, repeats: bool = True, trials: int = 0):
        self.kind = kind
        self.fn = fn
        self.meta = meta
        self.repeats = repeats
        self.trials = trials


def _digest(value) -> str:
    """Bit-exact fingerprint of an operation's output."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(value, detection.RocCurve):
        h.update(np.asarray(value.points, dtype=float).tobytes())
    elif isinstance(value, (bytes, str)):
        h.update(value.encode() if isinstance(value, str) else value)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


class Checks:
    """Collects failed checks; each failure names the operation it hit."""

    def __init__(self):
        self.errors: list[str] = []

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.errors.append(f"{what}: got {got!r}, reference {want!r}, tol {tol:g}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.errors.append(what)


# Absolute tolerance on an average Pd. The series stops once three terms in
# a row fall below 1e-10 of its running sum (at most 1), so its error is a
# few 1e-10; the reference quadrature is good to about 1e-13.
PD_TOL = 2e-9


class Workload:
    name = ""
    tail_pct = 90.0  # 0: too few operations; see worker.slowest_per_round

    def __init__(self, seed: int):
        self.seed = seed
        self.kept: list[tuple] = []  # (round, index, op, output) to check
        self.digests: dict[int, str] = {}  # by id() of a repeating Op
        self.mismatch: list[str] = []

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def keep(self, r: int, i: int, op: Op, out) -> None:
        """Store an output for checking; a repeated call is instead compared
        bit for bit with its first output."""
        if op.repeats and id(op) in self.digests:
            if _digest(out) != self.digests[id(op)]:
                self.mismatch.append(f"round {r} op {i} ({op.kind}) differs from its first run")
            return
        self.kept.append((r, i, op, out))
        if op.repeats:
            self.digests[id(op)] = _digest(out)

    def check(self) -> tuple[int, list[str], list[str]]:
        """(failed operations per the whole run, failure notes, check errors)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pd_scatter
# ---------------------------------------------------------------------------

# Deep false-alarm targets, the same on every seed: threshold_for_pfa stops
# its bisection on an absolute |Pf - target| <= 1e-12, which misses every
# one of these by far more than 1e-6 relative.
_DEEP_RNG = np.random.default_rng(180706112)
DEEP_TARGETS = tuple(
    (int(u), float(10.0 ** lp))
    for u, lp in zip(range(1, 9), _DEEP_RNG.uniform(-15.0, -12.0, 8))
)


class PdScatter(Workload):
    """Independent queries, no channel repeated: threshold_for_pfa(u, Pf)
    followed by average_pd on a fresh channel."""

    name = "pd_scatter"
    # p99 left about 19 queries beyond it, the few extremes each seed draws,
    # and spread 12-17 % over ten runs; p95 leaves about 90
    tail_pct = 95.0
    ROUND = 40
    DEEP_AT = (13, 33)  # positions of the two deep-Pf queries in a round

    def _query(self, u: int, pf: float, beta: float, ch: FadingParams) -> Op:
        def fn():
            lam = detection.threshold_for_pfa(u, pf)
            return lam, detection.average_pd(DetectorConfig(u, lam, beta), ch)

        return Op("deep_pf" if pf < 1e-11 else "query", fn, (u, pf, beta, ch), repeats=False)

    def round_ops(self, r: int) -> list[Op]:
        return self._round(np.random.default_rng([self.seed, r]), r)

    def _round(self, rng, r: int) -> list[Op]:
        # Latin hypercube over the six inputs: each round covers every range
        # evenly, so a run's mix of cheap and costly queries, and with it the
        # median, does not drift with the seed
        n = self.ROUND
        cube = (rng.permuted(np.tile(np.arange(n), (6, 1)), axis=1) + rng.random((6, n))) / n
        ops = []
        for i in range(n):
            cm, cms, csnr, cu, cbeta, cpf = cube[:, i]
            ch = FadingParams.from_db(
                10.0 ** (math.log10(0.6) + cm * math.log10(20.0 / 0.6)),
                1.0 + 10.0 ** (math.log10(0.05) + cms * math.log10(30.0 / 0.05)),
                -5.0 + 20.0 * csnr,
            )
            beta = 0.0 if cbeta < 0.5 else 3.0 * (2.0 * cbeta - 1.0)
            if i in self.DEEP_AT:
                u, pf = DEEP_TARGETS[(len(self.DEEP_AT) * r + self.DEEP_AT.index(i)) % len(DEEP_TARGETS)]
            else:
                u = 1 + int(8.0 * cu)
                pf = 10.0 ** (-4.0 + cpf * math.log10(0.5 / 1e-4))
            ops.append(self._query(u, pf, beta, ch))
        return ops

    def warmup(self) -> None:
        for op in self._round(np.random.default_rng(1729), 0)[:6]:
            op.fn()

    def check(self):
        import reference as ref

        chk = Checks()
        failed, notes = 0, []
        for r, i, op, (lam, pd) in self.kept:
            u, pf, beta, ch = op.meta
            got = ref.pfa(u, lam)
            if not abs(got - pf) <= 1e-6 * pf:
                failed += 1
                notes.append(
                    f"threshold_for_pfa(u={u}, pf={pf:.3e}) -> lambda={lam!r} gives Pf={got:.3e} "
                    f"({got / pf:.3g}x the target)"
                )
                continue
            alpha2 = 10.0 ** (beta / 5.0)
            want = ref.average_pd(u, alpha2 * lam, ch.m, ch.m_s, ch.mean_snr)
            chk.close(f"round {r} query {i} average_pd(u={u}, m={ch.m:.4g}, m_s={ch.m_s:.4g})",
                      pd, want, PD_TOL)
        return failed, notes, chk.errors


# ---------------------------------------------------------------------------
# figure_sweep
# ---------------------------------------------------------------------------

# The entropy-table pairs and the noise-uncertainty anchor channel, each at
# the mean SNR (dB) it is plotted at.
FIGURE_CHANNELS = ((2.0, 3.0, 5.0), (2.0, 30.0, 15.0), (20.0, 3.0, 5.0),
                   (20.0, 30.0, 15.0), (1.3, 2.7, 6.0))
AUC_M = (1.0, 2.0, 5.0, 10.0, 20.0)
AUC_MS = (1.5, 3.0, 5.0, 10.0, 30.0)
AUC_U = (1, 2, 5)
AUC_SNR_DB = 5.0
ROC_CHECK_AT = (0, 40, 80, 120, 160, 199)  # ROC points checked against the reference


def _pf_grid() -> np.ndarray:
    return np.logspace(-4.0, math.log10(0.999), 200)


class FigureSweep(Workload):
    """The paper's figure grid on fixed channels: fading, fusion, SLS and
    AWGN ROCs, AUC rows and the closed-form entropy rows."""

    name = "figure_sweep"
    # 2.5 of a round's 83 operations lie beyond p97: the middle of the five
    # 4-branch SLS curves, the costliest operations. p95 fell on the edge
    # between two of their costs and jumped with the number of rounds run.
    tail_pct = 97.0

    def __init__(self, seed: int):
        super().__init__(seed)
        ops = []
        snrs = []
        for m, ms, db in FIGURE_CHANNELS:
            ch = FadingParams.from_db(m, ms, db)
            for u in (1, 2, 5):
                for beta in (0.0, 2.0):
                    ops.append(Op("roc", self._roc(ch, u, beta), ("fading", ch, u, beta)))
            for rule in ("or", "and"):
                for n in (3, 8):
                    ops.append(Op("roc_fusion", self._roc(ch, 2, 0.0, rule, n), ("fusion", ch, rule, n)))
            for branches in (2, 4):
                ops.append(Op("roc_sls", self._roc([ch] * branches, 2, 0.0), ("sls", ch, branches)))
            ops.append(Op("entropy_row", self._entropy_row(ch), ch))
            if db not in snrs:
                snrs.append(db)
        for db in snrs:
            gamma = 10.0 ** (db / 10.0)
            ops.append(Op("roc_awgn", self._roc(gamma, 2, 0.0), ("awgn", gamma)))
        for u in AUC_U:
            for m in AUC_M:
                ops.append(Op("auc_row", self._auc_row(u, m), (u, m)))
        order = np.random.default_rng(self.seed).permutation(len(ops))
        self.ops = [ops[k] for k in order]

    @staticmethod
    def _roc(channel, u, beta, fusion="none", n_users=1):
        cfg = DetectorConfig(u, 1.0, beta)
        return lambda: detection.roc_curve(channel, cfg, fusion=fusion, n_users=n_users)

    @staticmethod
    def _auc_row(u, m):
        chans = [FadingParams.from_db(m, ms, AUC_SNR_DB) for ms in AUC_MS]
        return lambda: [auc.auc_average(u, ch) for ch in chans]

    @staticmethod
    def _entropy_row(ch):
        def fn():
            k, mean = entropy.nakagami_projection(ch)
            return (entropy.shannon_entropy(ch), entropy.cross_entropy_rayleigh(ch, ch.mean_snr),
                    k, entropy.cross_entropy_nakagami(ch, k, mean))

        return fn

    def round_ops(self, r: int) -> list[Op]:
        return self.ops

    def warmup(self) -> None:
        ch = FadingParams.from_db(1.5, 4.0, 3.0)
        detection.roc_curve(ch, DetectorConfig(2, 1.0), pf_grid=np.geomspace(1e-3, 0.5, 20))
        detection.roc_curve(1.5, DetectorConfig(2, 1.0), pf_grid=np.geomspace(1e-3, 0.5, 20))
        auc.auc_average(2, ch)

    def check(self):
        import reference as ref

        chk = Checks()
        grid = _pf_grid()
        for _, _, op, out in self.kept:
            if op.kind.startswith("roc"):
                self._check_roc(chk, ref, grid, op.meta, out)
            elif op.kind == "auc_row":
                u, m = op.meta
                for ms, got in zip(AUC_MS, out):
                    mean = 10.0 ** (AUC_SNR_DB / 10.0)
                    chk.close(f"auc_average(u={u}, m={m}, m_s={ms})", got,
                              ref.auc_average(u, m, ms, mean), 1e-9)
            else:
                ch = op.meta
                h, h_ray, k, h_nak = out
                chk.close(f"shannon_entropy(m={ch.m}, m_s={ch.m_s})", h,
                          ref.shannon_entropy_bits(ch.m, ch.m_s, ch.mean_snr), 1e-9)
                chk.close(f"nakagami_projection(m={ch.m}, m_s={ch.m_s})", k,
                          ref.gamma_projection(ch.m, ch.m_s), 1e-9 * k)
                chk.close(f"cross_entropy_rayleigh(m={ch.m}, m_s={ch.m_s})", h_ray,
                          ref.cross_entropy_gamma_bits(ch.m, ch.m_s, ch.mean_snr, 1.0, ch.mean_snr), 1e-9)
                chk.close(f"cross_entropy_nakagami(m={ch.m}, m_s={ch.m_s})", h_nak,
                          ref.cross_entropy_gamma_bits(ch.m, ch.m_s, ch.mean_snr, k, ch.mean_snr), 1e-9)
        return 0, [], chk.errors + self.mismatch

    @staticmethod
    def _check_roc(chk, ref, grid, meta, curve):
        pf, pd = curve.pf, curve.pd
        what = f"roc_curve{meta[:1] + tuple(getattr(x, 'm', x) for x in meta[1:])}"
        chk.true(f"{what}: Pf grid differs from the default", np.array_equal(pf, grid))
        chk.true(f"{what}: values leave [0, 1]", bool(np.all((pd >= 0.0) & (pd <= 1.0))))
        chk.true(f"{what}: Pd decreases along the curve", bool(np.all(np.diff(pd) >= 0.0)))
        kind = meta[0]
        beta = meta[3] if kind == "fading" else 0.0
        if beta == 0.0:
            chk.true(f"{what}: Pd < Pf", bool(np.all(pd >= pf)))
        if kind == "awgn":
            gamma = meta[1]
            lam = np.array([ref.threshold(2, p) for p in pf])
            want = ref.awgn_pd(2, lam, gamma)
            bad = np.abs(pd - want) > 1e-9
            chk.true(f"{what}: {int(bad.sum())} AWGN points off the reference", not bad.any())
            return
        for j in ROC_CHECK_AT:
            if kind == "fading":
                _, ch, u, beta = meta
                want = ref.average_pd(u, 10.0 ** (beta / 5.0) * ref.threshold(u, pf[j]),
                                      ch.m, ch.m_s, ch.mean_snr)
            elif kind == "fusion":
                _, ch, rule, n = meta
                unit = 1.0 - (1.0 - pf[j]) ** (1.0 / n) if rule == "or" else pf[j] ** (1.0 / n)
                p1 = ref.average_pd(2, ref.threshold(2, unit), ch.m, ch.m_s, ch.mean_snr)
                want = 1.0 - (1.0 - p1) ** n if rule == "or" else p1 ** n
            else:
                _, ch, branches = meta
                unit = 1.0 - (1.0 - pf[j]) ** (1.0 / branches)
                p1 = ref.average_pd(2, ref.threshold(2, unit), ch.m, ch.m_s, ch.mean_snr)
                want = 1.0 - (1.0 - p1) ** branches
            chk.close(f"{what} at Pf={pf[j]:.4g}", pd[j], want, PD_TOL * 4)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# (trials, substreams) per u. At u = 32 a single substream fills whole
# 2^17-trial chunks, so the memory of drawing 2u normals per trial shows.
MC_TRIALS = {2: (200_000, 8), 32: (140_000, 1)}
MC_PFA = 0.1
MC_CHANNELS = ((2.0, 3.0, 5.0), (1.3, 2.7, 6.0))  # (m, m_s, mean SNR dB)
ENTROPY_PAIRS = ((2.0, 3.0), (2.0, 30.0), (20.0, 3.0), (20.0, 30.0))


class Validation(Workload):
    """The paper's simulation check: seeded Monte Carlo estimates at u = 2
    and u = 32 and sampled entropy rows, the same in every round, plus fresh
    quadrature oracle points. Every cost level is dense around the median."""

    name = "validation"
    tail_pct = 90.0
    ENTROPY_SAMPLES = 500_000
    ORACLE_POINTS = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 7])
        ch_a, ch_b = (FadingParams.from_db(*c) for c in MC_CHANNELS)
        ops = []
        for u, (trials, streams) in MC_TRIALS.items():
            cfg = DetectorConfig(u, detection.threshold_for_pfa(u, MC_PFA))
            sim = montecarlo.SimConfig(trials=trials, seed=int(rng.integers(1 << 31)),
                                       stream_count=streams)
            ops.append(Op("mc_pd", lambda c=cfg, s=sim: montecarlo.simulate_average_pd(c, ch_a, s),
                          ("pd", u, cfg, (ch_a,)), trials=trials))
            ops.append(Op("mc_fusion",
                          lambda c=cfg, s=sim: montecarlo.simulate_fusion(c, ch_a, 3, "or", s),
                          ("fusion", u, cfg, (ch_a,)), trials=trials))
            ops.append(Op("mc_sls", lambda c=cfg, s=sim: montecarlo.simulate_sls(c, [ch_a, ch_b], s),
                          ("sls", u, cfg, (ch_a, ch_b)), trials=trials))
            ops.append(Op("mc_auc", lambda u=u, s=sim: montecarlo.simulate_auc(u, ch_a, s),
                          ("auc", u, cfg, (ch_a,)), trials=trials))
        for m, ms in ENTROPY_PAIRS:
            ch = FadingParams.from_db(m, ms, 5.0)
            seed = int(rng.integers(1 << 31))
            ops.append(Op("entropy_report",
                          lambda ch=ch, s=seed: entropy.entropy_report(ch, self.ENTROPY_SAMPLES, s),
                          (ch, seed)))
        self.fixed = ops

    def round_ops(self, r: int) -> list[Op]:
        """The fixed estimates and rows, plus fresh oracle points: a Latin
        hypercube over m, m_s, mean SNR, u and Pf."""
        rng = np.random.default_rng([self.seed, r])
        n = self.ORACLE_POINTS
        cube = (rng.permuted(np.tile(np.arange(n), (5, 1)), axis=1) + rng.random((5, n))) / n
        ops = list(self.fixed)
        for cm, cms, csnr, cu, cpf in cube.T:
            ch = FadingParams.from_db(20.0 ** cm, 1.0 + 0.1 * 290.0 ** cms, 15.0 * csnr)
            u = 1 + int(3.0 * cu)
            cfg = DetectorConfig(u, detection.threshold_for_pfa(u, 1e-3 * 300.0 ** cpf))
            ops.append(Op("oracle", lambda c=cfg, ch=ch: detection.average_pd_quadrature(c, ch),
                          (cfg, ch), repeats=False))
        order = np.random.default_rng([self.seed, r, 1]).permutation(len(ops))
        return [ops[k] for k in order]

    def warmup(self) -> None:
        ch = FadingParams.from_db(2.0, 3.0, 5.0)
        cfg = DetectorConfig(2, 4.6)
        montecarlo.simulate_average_pd(cfg, ch, montecarlo.SimConfig(trials=20_000, seed=1))
        montecarlo.simulate_auc(2, ch, montecarlo.SimConfig(trials=20_000, seed=1))
        detection.average_pd_quadrature(cfg, ch)
        entropy.entropy_report(ch, 20_000, 1)

    def check(self):
        import reference as ref

        chk = Checks()
        for _, _, op, out in self.kept:
            if op.kind.startswith("mc_"):
                kind, u, cfg, chans = op.meta
                lam = cfg.effective_threshold
                pds = [ref.average_pd(u, lam, c.m, c.m_s, c.mean_snr) for c in chans]
                if kind == "pd":
                    want = pds[0]
                elif kind == "fusion":
                    want = 1.0 - (1.0 - pds[0]) ** 3
                elif kind == "sls":
                    want = 1.0 - (1.0 - pds[0]) * (1.0 - pds[1])
                else:
                    c = chans[0]
                    want = ref.auc_average(u, c.m, c.m_s, c.mean_snr)
                sigma = math.sqrt(want * (1.0 - want) / out.trials)
                chk.close(f"simulate_{kind}(u={u}) estimate (4 sigma)", out.estimate, want,
                          4.0 * sigma)
            elif op.kind == "oracle":
                cfg, ch = op.meta
                want = ref.average_pd(cfg.u, cfg.effective_threshold, ch.m, ch.m_s, ch.mean_snr)
                chk.close(f"average_pd_quadrature(u={cfg.u}, m={ch.m:.4g}, m_s={ch.m_s:.4g})",
                          out, want, 1e-8)
            else:
                ch, seed = op.meta
                what = f"entropy_report(m={ch.m:.4g}, m_s={ch.m_s:.4g})"
                chk.close(f"{what} shannon", out.shannon_bits,
                          ref.shannon_entropy_bits(ch.m, ch.m_s, ch.mean_snr), 1e-9)
                samples = ref.sampled_snr(ch.m, ch.m_s, ch.mean_snr, seed, 0, self.ENTROPY_SAMPLES)
                k = ref.sample_mle_shape(samples)
                chk.close(f"{what} fitted m_hat", out.fitted.m_hat, k, 1e-8 * k)
                mean = float(np.mean(samples))
                chk.close(f"{what} fitted mean", out.fitted.mean_snr_n, mean, 1e-12 * mean)
                chk.close(f"{what} Nakagami cross entropy", out.cross_nakagami_bits,
                          ref.cross_entropy_gamma_bits(ch.m, ch.m_s, ch.mean_snr, k, mean), 1e-8)
        return 0, [], chk.errors + self.mismatch


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The README's documented invocations, except the full selftest and the
# simulated SLS ROC: its 5 s of Monte Carlo, which validation measures,
# was 40 % of a run's time, and as the slowest operation it alone set
# op_tail_ms, which then spread 17-29 % over ten runs.
CLI_INVOCATIONS = (
    "pd --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --pf-grid 1e-4:0.999:200",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --fusion or --users 3",
    "auc --u 2 --snr-db 2 --sweep m:1:15:8 --sweep ms:1.5:30:8",
    "entropy --table --samples 1000000",
    "simulate --kind fusion --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1 --users 3 --rule or",
)


class Cli(Workload):
    """Fresh `python -m specsense.cli ... --format json` processes."""

    name = "cli"
    tail_pct = 0.0

    def __init__(self, seed: int, in_process: bool = False):
        super().__init__(seed)
        self.env = dict(os.environ)
        self.in_process = in_process
        order = np.random.default_rng(self.seed).permutation(len(CLI_INVOCATIONS))
        self.argvs = [CLI_INVOCATIONS[k].split() + ["--format", "json"] for k in order]
        self.ops = [Op("cli_" + argv[0], self._call(argv), argv) for argv in self.argvs]

    def _call(self, argv):
        if self.in_process:
            def fn():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = specsense.cli.run(argv)
                return rc, buf.getvalue()
        else:
            cmd = [sys.executable, "-m", "specsense.cli"] + argv

            def fn():
                p = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, check=False)
                return p.returncode, p.stdout.decode()
        return fn

    def round_ops(self, r: int) -> list[Op]:
        return self.ops

    def warmup(self) -> None:
        self._call(CLI_INVOCATIONS[0].split() + ["--format", "json"])()

    def check(self):
        chk = Checks()
        for _, _, op, (rc, text) in self.kept:
            what = "specsense " + " ".join(op.meta)
            chk.true(f"{what}: exit code {rc}", rc == 0)
            if rc == 0:
                try:
                    doc = json.loads(text)
                except json.JSONDecodeError as exc:
                    chk.true(f"{what}: output is not JSON ({exc})", False)
                    continue
                _check_cli(chk, what, op.meta, doc)
        return 0, [], chk.errors + self.mismatch


def _check_cli(chk: Checks, what: str, argv: list[str], doc: dict) -> None:
    """The JSON values equal, bit for bit, the library call they report."""
    from specsense import fading

    rows = doc["rows"]
    ch = fading.FadingParams.from_db(2.0, 3.0, 5.0)
    same = lambda label, got, want: chk.true(f"{what}: {label} {got!r} != {want!r}", got == want)
    cmd = argv[0]
    if cmd == "pd":
        lam = detection.threshold_for_pfa(2, 0.1)
        value, terms, last = detection.average_pd_detail(
            DetectorConfig(2, lam, 0.0), ch, detection.SeriesControl(1e-10, 10_000))
        same("threshold", doc["params"]["threshold"], lam)
        same("row", rows, [{"pd": value, "terms": terms, "last_term": last}])
    elif cmd == "roc":
        grid = np.geomspace(1e-4, 0.999, 200)
        fusion, users = ("or", 3) if "--fusion" in argv else ("none", 1)
        curve = detection.roc_curve(ch, DetectorConfig(2, 1.0, 0.0), pf_grid=grid,
                                    fusion=fusion, n_users=users)
        same("points", [(r["pf"], r["pd"]) for r in rows], [tuple(p) for p in curve.points])
    elif cmd == "auc":
        want = [
            {"m": float(m), "ms": float(ms), "snr_db": 2.0,
             "auc": auc.auc_average(2, FadingParams.from_db(float(m), float(ms), 2.0))}
            for m in np.linspace(1.0, 15.0, 8) for ms in np.linspace(1.5, 30.0, 8)
        ]
        same("rows", rows, want)
    elif cmd == "entropy":
        pairs = ((2.0, 3.0), (2.0, 30.0), (20.0, 3.0), (20.0, 30.0))
        want = []
        for snr_db in (5.0, 15.0):
            for k, (m, ms) in enumerate(pairs):
                rep = entropy.entropy_report(FadingParams.from_db(m, ms, snr_db), 1_000_000, 1729 + k)
                want.append({
                    "m": m, "ms": ms, "snr_db": snr_db, "h_p": rep.shannon_bits,
                    "h_pq_ray": rep.cross_rayleigh_bits, "h_pq_nak": rep.cross_nakagami_bits,
                    "kl_ray": rep.kl_rayleigh_bits, "kl_nak": rep.kl_nakagami_bits,
                    "m_hat": rep.fitted.m_hat, "mean_snr_n": rep.fitted.mean_snr_n,
                })
        same("rows", rows, want)
    else:
        lam = detection.threshold_for_pfa(2, 0.1)
        cfg = DetectorConfig(2, lam, 0.0)
        res = montecarlo.simulate_fusion(cfg, ch, 3, "or", montecarlo.SimConfig(100_000, 1729, 8))
        analytic = detection.collaborative_pd(detection.average_pd(cfg, ch), 3, "or")
        same("row", rows, [{"kind": "fusion", "estimate": res.estimate, "ci95": res.ci95_halfwidth,
                            "trials": res.trials, "analytic": analytic}])


WORKLOADS = {w.name: w for w in (PdScatter, FigureSweep, Validation, Cli)}
