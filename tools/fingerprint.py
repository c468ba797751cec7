"""Bit-for-bit output fingerprints of a parent commit against this tree.

    python3 tools/fingerprint.py [--parent HEAD] [--workdir DIR]

A change that claims to keep every number must leave these outputs
unchanged. The parent ref is exported with `git archive` into a scratch
directory; the change is this working tree. Each tree then runs this script
with `--collect ROOT` in a fresh interpreter, with ROOT/src and this tree's
perfbench/ on the path, so both import their own specsense and share the
benchmark code. Every output is hashed (SHA-256 of an array's dtype, shape
and bytes, or of a repr), and the script prints each group's key count and
every key whose hash differs or that one side lacks. For a differing key
that holds floats on both sides, it also prints the largest absolute,
relative and ulp difference between them, and at the end the largest
absolute and relative one over all keys, so a change can say how far its
numbers moved. It exits 1 if any key differs. Covered:

- every output of two `figure_sweep` rounds at seed 41
- the threshold and Pd of each of the 40 queries of one `pd_scatter` round
  at seed 41, every one on a fresh channel
- selftest criterion 4's (Pd, terms) and quadrature value at all 240 points,
  its `last_term`, and `truncation_bound` at each point's terms
- cold `average_pd_detail` (value and terms, and apart from them
  `last_term`) and `truncation_bound` at its terms for u in {32, 336, 1e3,
  1e4} at Pf = 0.01 on the channels (m, m_s, dB) = (2, 3, 5), (1.3, 1.1, 0)
  and (20, 30, 15), every memo cleared first
- the coefficient ladder, 120 rows, of m in {0.6, 1, 3.5, 20} x m_s in
  {1.1, 2.7, 30, 300} x {-10, 0, 7, 15} dB
- `ln_tricomi_u_grid` where b > a + 1, so phi is not concave: 24 b values
  from a + 1.001 to a + 1001 at a in {0.5, 3, 40} x z in {1e-6, 0.3, 20,
  1e4}, once in one call and once a row per call, or the error's message
- `average_pd` at u = 2, Pf = 0.01 over m in {0.5, 1, 2, 4, 20} x {-10, 0,
  10, 20} dB x m_s in {1e4, 2e4, 5e4, 1e5, 1 + 1e-6}, the edge where the
  ladder quadrature stops converging: each value, or its
  `ConvergenceError` message
- `snr_pdf` and `envelope_pdf` on grids that include t = 0, for km < 1,
  km = 1 and km > 1, scalar calls with their return type, and the
  negative-argument error messages
- AWGN ROCs for u in {1, 2, 8, 32, 200} x SNR in {0, 1e-3, 0.1, 1, 3.16,
  31.6, 200, 1e3, 1e4} x noise uncertainty in {0, 2} dB, on the default Pf
  grid and on 40 targets in [1e-12, 0.999], each computed twice: first
  cold, with every `_Memo` that `special_fn` or `detection` binds cleared
  (whatever each tree names them), then again, warm; plus `pd_awgn` and
  `pfa` at every 7th threshold of each grid
- AWGN ROCs at SNR 3.16, 31.6, 1e3, 3.16 and 31.6 in turn on the 40 targets
  in [1e-12, 0.999], for u in {2, 8} x noise uncertainty in {0, 2} dB,
  every memo cleared before each sequence and not within it, so the later
  calls read the plans and tables that the earlier ones kept
- fading, fusion (OR of 3), SLS (2 branches) and AWGN (SNR 0, 3.16 and
  31.6) ROCs at u in {2, 8} x noise uncertainty in {0, 2} dB: on 1-, 2- and
  3-point Pf grids, each cold (every memo cleared) and then warm, and on
  the default grid with `special_fn._MAX_CELLS` at 1, so every table is
  built and summed one threshold at a time
- `threshold_for_pfa` at u in {1..8, 32, 41, 42, 100, 336, 1e3, 1e4, 1e5,
  1e6} x Pf in {1e-300, 1e-100, 1e-15, 1e-4, 0.01, 0.5, 0.999, 1 - 1e-7,
  1 - 1e-13}, and the thresholds of 40 targets in [1e-12, 0.999] at each u
- the AUC weights, `auc_average` on the (2, 3, 5 dB) channel and
  `auc_instantaneous` at SNR 0.5, 3.16 and u, for u in {1..39, 100,
  129..131, 200, 336, 1e3, 1e4, 1e5}
- `digamma`, the gamma-shape fit, `collaborative_pd`, criterion 8's result
- the JSON of the README's CLI invocations (selftest aside, as it prints
  timings), of `roc --simulate` with `--sls 2`, with `--fusion and --users
  2` and with neither, and of `simulate --kind pd, sls and auc`

Uses the standard library and numpy; criterion 4's quadrature loads scipy
inside specsense.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import _export

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")

README_CLI = (
    "pd --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --pf-grid 1e-4:0.999:200",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --fusion or --users 3",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --sls 2 --simulate --trials 50000",
    "auc --u 2 --snr-db 2 --sweep m:1:15:8 --sweep ms:1.5:30:8",
    "entropy --table --samples 1000000",
    "simulate --kind fusion --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1 --users 3 --rule or",
)
EXTRA_CLI = (
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --pf-grid 1e-3:0.9:25 --simulate --trials 20000",
    "roc --u 2 --m 2 --ms 3 --snr-db 5 --pf-grid 1e-3:0.9:25 --simulate --trials 20000 --sls 2",
    "roc --u 3 --m 1.3 --ms 2.7 --snr-db 7 --pf-grid 1e-3:0.9:25 --simulate --trials 20000"
    " --fusion and --users 2",
    "simulate --kind pd --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1 --trials 20000",
    "simulate --kind sls --u 2 --m 2 --ms 3 --snr-db 5 --pfa 0.1 --trials 20000 --sls 3",
    "simulate --kind auc --u 2 --m 2 --ms 3 --snr-db 5 --trials 20000",
    "entropy --m 2 --ms 3 --snr-db 5 --samples 100000",
)


def _digest(value) -> str:
    from specsense.detection import RocCurve

    h = hashlib.sha256()
    if isinstance(value, RocCurve):
        value = (np.asarray(value.points, dtype=float), repr(value.meta))
    if isinstance(value, tuple) and any(isinstance(v, np.ndarray) for v in value):
        for v in value:
            h.update(_digest(v).encode())
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()[:32]


def _floats(value) -> list:
    """Every float that value holds, in order; ints, bools and strings are left out."""
    from specsense.detection import RocCurve

    if isinstance(value, RocCurve):
        value = (value.pf, value.pd, value.meta)
    if isinstance(value, np.ndarray):
        return value.ravel().tolist() if value.dtype.kind == "f" else []
    if isinstance(value, (float, np.floating)):
        return [float(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _floats(v)]
    return []


def _gap(parent, change):
    """(largest absolute, largest relative, largest ulp) difference between
    two lists of floats, relative to the larger magnitude of each pair, and
    in units in the last place, counted between the two bit patterns; None
    when the lists differ in length or are empty."""
    a, b = np.array(parent, dtype=float), np.array(change, dtype=float)
    if a.shape != b.shape or not a.size:
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        same = a == b
        gap = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, gap / np.maximum(np.abs(a), np.abs(b)))
    ulp = np.where(same, 0, np.abs(a.view(np.int64) - b.view(np.int64)))
    return float(gap.max()), float(rel.max()), int(ulp.max())


def _error(fn, *args) -> str:
    try:
        fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return "no error"


def _try(fn, *args):
    """fn(*args), or its ConvergenceError's message."""
    from specsense.special_fn import ConvergenceError

    try:
        return fn(*args)
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


def _collect(root: str) -> dict[str, list]:
    """[hash, floats] of every covered output of root's specsense, keyed by name."""
    import workloads
    from specsense import acceptance, auc, cli, detection, entropy, fading, special_fn

    if not os.path.abspath(fading.__file__).startswith(os.path.join(os.path.abspath(root), "src")):
        raise RuntimeError(f"specsense was imported from {fading.__file__}, not from {root}")
    out: dict = {}
    sweep = workloads.FigureSweep(41)
    for r in range(2):
        for i, op in enumerate(sweep.round_ops(r)):
            out[f"figure_sweep/{r}/{i}/{op.kind}"] = (op.fn())

    for i, op in enumerate(workloads.PdScatter(41).round_ops(0)):
        out[f"pd_scatter/0/{i}/{op.kind}"] = op.fn()

    for i, (cfg, p) in enumerate(acceptance._criterion4_grid()):
        value, terms, last = detection.average_pd_detail(cfg, p)
        quad = detection.average_pd_quadrature(cfg, p)
        out[f"criterion4/{i}"] = ((value, terms, quad))
        out[f"criterion4/{i}/last_term"] = last
        out[f"truncation_bound/{i}"] = detection.truncation_bound(cfg, p, terms)

    memos = {id(v): v for mod in (special_fn, detection) for v in vars(mod).values()
             if isinstance(v, special_fn._Memo)}.values()
    for u in (32, 336, 1000, 10_000):
        cfg = detection.DetectorConfig(u, detection.threshold_for_pfa(u, 0.01))
        for m, ms, db in ((2.0, 3.0, 5.0), (1.3, 1.1, 0.0), (20.0, 30.0, 15.0)):
            p = fading.FadingParams.from_db(m, ms, db)
            for memo in memos:
                memo.clear()
            value, terms, last = detection.average_pd_detail(cfg, p)
            out[f"large_u/{u}/{m}/{ms}/{db}"] = (value, terms)
            out[f"large_u/{u}/{m}/{ms}/{db}/last_term"] = last
            out[f"large_u/{u}/{m}/{ms}/{db}/truncation_bound"] = detection.truncation_bound(cfg, p, terms)

    for m in (0.6, 1.0, 3.5, 20.0):
        for ms in (1.1, 2.7, 30.0, 300.0):
            for db in (-10.0, 0.0, 7.0, 15.0):
                p = fading.FadingParams.from_db(m, ms, db)
                out[f"ladder/{m}/{ms}/{db}"] = (detection._ladder(p, 120)[:120].copy())

    for a in (0.5, 3.0, 40.0):
        b = a + 1.0 + np.geomspace(1e-3, 1e3, 24)
        for z in (1e-6, 0.3, 20.0, 1e4):
            out[f"tricomi/{a}/{z}/one_call"] = _try(special_fn.ln_tricomi_u_grid, a, b, z)
            out[f"tricomi/{a}/{z}/row_calls"] = [_try(special_fn.ln_tricomi_u_grid, a, b[k : k + 1], z)
                                                 for k in range(b.size)]

    cfg = detection.DetectorConfig(2, detection.threshold_for_pfa(2, 0.01))
    for ms in (1e4, 2e4, 5e4, 1e5, 1.0 + 1e-6):
        for m in (0.5, 1.0, 2.0, 4.0, 20.0):
            for db in (-10.0, 0.0, 10.0, 20.0):
                try:
                    value = detection.average_pd(cfg, fading.FadingParams.from_db(m, ms, db))
                except special_fn.ConvergenceError as exc:
                    value = f"ConvergenceError: {exc}"
                out[f"convergence_edge/{m}/{ms}/{db}"] = value

    grids = {"default": detection._DEFAULT_PF_GRID, "deep": np.geomspace(1e-12, 0.999, 40)}
    for u in (1, 2, 8, 32, 200):
        for name, grid in grids.items():
            lams = detection._grid_thresholds(u, grid.tobytes())[::7]
            out[f"awgn/{u}/{name}/pfa"] = [detection.pfa(detection.DetectorConfig(u, float(v))) for v in lams]
            for beta in (0.0, 2.0):
                cfg = detection.DetectorConfig(u, 1.0, beta)
                for gamma in (0.0, 1e-3, 0.1, 1.0, 3.16, 31.6, 200.0, 1e3, 1e4):
                    for memo in memos:
                        memo.clear()
                    for state in ("cold", "warm"):
                        out[f"awgn/{u}/{name}/{beta}/{gamma}/{state}"] = detection.roc_curve(gamma, cfg, grid)
                    out[f"awgn/{u}/{name}/{beta}/{gamma}/pd_awgn"] = [
                        detection.pd_awgn(detection.DetectorConfig(u, float(v), beta), gamma) for v in lams
                    ]

    for u in (2, 8):
        for beta in (0.0, 2.0):
            cfg = detection.DetectorConfig(u, 1.0, beta)
            for memo in memos:
                memo.clear()
            for i, gamma in enumerate((3.16, 31.6, 1e3, 3.16, 31.6)):
                out[f"awgn_interleaved/{u}/{beta}/{i}/{gamma}"] = detection.roc_curve(gamma, cfg, grids["deep"])

    p, q = fading.FadingParams.from_db(2.0, 3.0, 5.0), fading.FadingParams.from_db(1.3, 2.7, 6.0)
    rocs = {
        "fading": lambda cfg, grid: detection.roc_curve(p, cfg, grid),
        "fusion": lambda cfg, grid: detection.roc_curve(p, cfg, grid, fusion="or", n_users=3),
        "sls": lambda cfg, grid: detection.roc_curve([p, q], cfg, grid),
        **{f"awgn/{g}": lambda cfg, grid, g=g: detection.roc_curve(g, cfg, grid) for g in (0.0, 3.16, 31.6)},
    }
    cells = special_fn._MAX_CELLS
    for u in (2, 8):
        for beta in (0.0, 2.0):
            cfg = detection.DetectorConfig(u, 1.0, beta)
            for kind, roc in rocs.items():
                for points in (1, 2, 3):
                    for memo in memos:
                        memo.clear()
                    for state in ("cold", "warm"):
                        out[f"small_grid/{u}/{beta}/{kind}/{points}/{state}"] = roc(cfg, np.geomspace(1e-3, 0.5, points))
                for memo in memos:
                    memo.clear()
                special_fn._MAX_CELLS = 1
                try:
                    out[f"one_row_slices/{u}/{beta}/{kind}"] = roc(cfg, None)
                finally:
                    special_fn._MAX_CELLS = cells

    for u in tuple(range(1, 9)) + (32, 41, 42, 100, 336, 1000, 10_000, 100_000, 1_000_000):
        for pf in (1e-300, 1e-100, 1e-15, 1e-4, 0.01, 0.5, 0.999, 1.0 - 1e-7, 1.0 - 1e-13):
            out[f"threshold/{u}/{pf!r}"] = detection.threshold_for_pfa(u, pf)
        out[f"threshold/{u}/grid"] = detection._thresholds(u, np.geomspace(1e-12, 0.999, 40))

    p = fading.FadingParams.from_db(2.0, 3.0, 5.0)
    for u in tuple(range(1, 40)) + (100, 129, 130, 131, 200, 336, 1000, 10_000, 100_000):
        out[f"auc/{u}/weights"] = auc._weights(u)
        out[f"auc/{u}/average"] = auc.auc_average(u, p)
        for gamma in (0.5, 3.16, float(u)):
            out[f"auc/{u}/instantaneous/{gamma}"] = auc.auc_instantaneous(u, gamma)

    t = np.concatenate(([0.0], np.geomspace(1e-8, 1e3, 400)))
    for m in (0.2, 0.5, 0.7, 1.0, 2.0, 12.0):
        for ms in (1.1, 3.4, 300.0):
            for mean in (0.1, 2.3, 31.6):
                p = fading.FadingParams(m, ms, mean)
                for name in ("snr_pdf", "envelope_pdf"):
                    fn = getattr(fading, name)
                    scalars = [fn(p, float(v)) for v in (0.0, 1e-3, 1.0, 40.0)]
                    out[f"{name}/{m}/{ms}/{mean}"] = (
                        (fn(p, t), fn(p, t.reshape(1, -1, 1)), repr([(type(s), s) for s in scalars]))
                    )
    p = fading.FadingParams(2.0, 3.0, 1.0)
    out["snr_pdf/negative"] = (_error(fading.snr_pdf, p, [1.0, -1e-300]))
    out["envelope_pdf/negative"] = (_error(fading.envelope_pdf, p, -2.0))

    x = np.geomspace(1e-4, 1e8, 300)
    out["digamma"] = ([special_fn.digamma(float(v)) for v in x])
    out["digamma/nonpositive"] = ([_error(special_fn.digamma, v) for v in (0.0, -1.0, np.nan)])
    shapes = [entropy._solve_gamma_shape(float(s)) for s in np.geomspace(1e-9, 50.0, 300)]
    out["gamma_shape"] = (shapes)
    rng = np.random.default_rng(5)
    out["collaborative_pd"] = ([
        detection.collaborative_pd(float(q), int(n), rule)
        for q, n in zip(rng.random(200), rng.integers(1, 9, 200)) for rule in ("or", "and")
    ])
    out["criterion8"] = (acceptance.criterion_8())

    for line in README_CLI + EXTRA_CLI:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(line.split() + ["--format", "json"])
        out[f"cli/{line}"] = (code, json.loads(buf.getvalue()))
    return {key: [_digest(value), _floats(value)] for key, value in out.items()}


def _run_collector(root: str) -> dict[str, list]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), os.path.join(REPO, "perfbench")])
    env["SPECSENSE_THREADS"] = "2"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--collect", root],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git ref to compare against (default HEAD)")
    ap.add_argument("--workdir", default=None, help="directory for the exported parent")
    ap.add_argument("--collect", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.collect:
        json.dump(_collect(args.collect), sys.stdout)
        return 0

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="fingerprint-", dir=args.workdir)
    try:
        sides = {
            "parent": _run_collector(_export(args.parent, os.path.join(work, "parent"))),
            "change": _run_collector(REPO),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    keys = sorted(set(sides["parent"]) | set(sides["change"]))
    groups = collections.Counter(key.split("/")[0] for key in keys)
    parent, change = ({k: v[0] for k, v in sides[s].items()} for s in SIDES)
    differ = [k for k in keys if parent.get(k) != change.get(k)]
    print(f"parent {args.parent} against the working tree: {len(keys)} keys")
    for group, count in groups.items():
        print(f"  {group}: {count}")
    worst = {"absolute": (0.0, None), "relative": (0.0, None)}
    for key in differ:
        line = f"DIFFERS {key}: parent {parent.get(key)} change {change.get(key)}"
        gap = _gap(*(sides[s][key][1] for s in SIDES)) if key in parent and key in change else None
        if gap is not None:
            line += f"; largest absolute difference {gap[0]:.3g}, relative {gap[1]:.3g}, {gap[2]} ulp"
            for kind, value in zip(worst, gap[:2]):
                if not value <= worst[kind][0]:  # NaN counts as the largest
                    worst[kind] = (value, key)
        print(line)
    print(f"{len(differ)} of {len(keys)} keys differ")
    for kind, (value, key) in worst.items():
        if key is not None:
            print(f"largest {kind} difference of a float: {value:.3g} ({key})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
