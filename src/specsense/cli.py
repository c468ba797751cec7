"""Command-line front end for the sensing analytics.

Subcommands: roc, pd, auc, entropy, simulate, selftest. Output is CSV
(RFC 4180) or a single JSON document; every float is printed with repr so
a parser recovers it bit-exactly. SNR-like flags are in dB. Randomized
commands default to the documented fixed seed 1729.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .auc import auc_average, auc_instantaneous
from .detection import (
    DetectorConfig,
    SeriesControl,
    _roc_units,
    _unit_target,
    average_pd,
    average_pd_detail,
    collaborative_pd,
    roc_curve,
    sls_average_pd,
    threshold_for_pfa,
)
from .entropy import _TABLE_PAIRS, _entropy_reports, entropy_report
from .fading import FadingParams, db_to_linear
from .montecarlo import (
    SimConfig,
    simulate_auc,
    simulate_average_pd,
    simulate_fusion,
    simulate_sls,
)
from .special_fn import ConvergenceError, check_count

SCHEMA_VERSION = "1"
DEFAULT_SEED = 1729

__all__ = ["run", "console_main", "SCHEMA_VERSION", "DEFAULT_SEED"]


def _emit(fmt: str, command: str, params: dict, columns: list[str], rows, stream) -> None:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        json.dump(doc, stream)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["schema_version", "command"] + columns)
    for row in rows:
        writer.writerow(
            [SCHEMA_VERSION, command]
            + [repr(v) if isinstance(v, float) else v for v in row]
        )


def _parse_pf_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError("--pf-grid must look like lo:hi:count, e.g. 1e-4:0.999:200")
    if not (0.0 < lo < hi < 1.0 and count >= 2):
        raise ValueError("--pf-grid needs 0 < lo < hi < 1 and count >= 2")
    return np.geomspace(lo, hi, count)


def _parse_sweep(text: str):
    try:
        axis, lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError("--sweep must look like axis:lo:hi:steps, e.g. m:1:15:10")
    if axis not in ("m", "ms"):
        raise ValueError("--sweep axis must be 'm' or 'ms'")
    if not (lo > 0.0 and hi >= lo and steps >= 1):
        raise ValueError("--sweep needs 0 < lo <= hi and steps >= 1")
    return axis, np.linspace(lo, hi, steps)


def _channel_from(args) -> FadingParams:
    if args.m is None or args.ms is None:
        raise ValueError("--m and --ms are required for a fading channel")
    if args.snr_db is None:
        raise ValueError("--snr-db is required")
    return FadingParams.from_db(args.m, args.ms, args.snr_db)


def _threshold_from(args, u: int) -> float:
    if (args.threshold is None) == (args.pfa is None):
        raise ValueError("exactly one of --threshold/--pfa is required")
    if args.threshold is not None:
        if args.threshold < 0.0:
            raise ValueError("--threshold must be nonnegative")
        return args.threshold
    return threshold_for_pfa(u, args.pfa)


def _cmd_roc(args, stream) -> int:
    pf_grid = _parse_pf_grid(args.pf_grid)
    cfg = DetectorConfig(u=args.u, threshold=1.0, noise_uncertainty_db=args.noise_db)
    check_count(args.sls, "--sls")
    check_count(args.users, "--users")
    fading = args.m is not None or args.ms is not None
    if args.sls > 1 and (args.fusion != "none" or not fading):
        raise ValueError("--sls needs a fading channel and --fusion none")

    if fading:
        base = _channel_from(args)
        channel = [base] * args.sls if args.sls > 1 else base
    else:
        if args.snr_db is None:
            raise ValueError("--snr-db is required")
        channel = db_to_linear(args.snr_db)

    params = {
        "u": args.u, "snr_db": args.snr_db, "m": args.m, "ms": args.ms,
        "fusion": args.fusion, "users": args.users, "sls": args.sls,
        "noise_db": args.noise_db, "simulate": bool(args.simulate),
        "trials": args.trials, "seed": args.seed,
    }

    if not args.simulate:
        curve = roc_curve(channel, cfg, pf_grid=pf_grid, fusion=args.fusion, n_users=args.users)
        rows = [(float(a), float(b)) for a, b in curve.points]
        _emit(args.format, "roc", params, ["pf", "pd"], rows, stream)
        return 0

    if not fading:
        raise ValueError("--simulate requires a fading channel")
    _, rule, n_units = _roc_units(channel, args.fusion, args.users)
    rows = []
    for k, (pf_target, pf_unit) in enumerate(zip(pf_grid, _unit_target(pf_grid, n_units, rule))):
        lam = threshold_for_pfa(args.u, float(pf_unit))
        cfg_k = DetectorConfig(u=args.u, threshold=lam, noise_uncertainty_db=args.noise_db)
        sim = SimConfig(trials=args.trials, seed=args.seed + k)
        if args.sls > 1:
            res = simulate_sls(cfg_k, channel, sim)
        else:
            res = simulate_fusion(cfg_k, base, n_units, rule, sim)
        rows.append((float(pf_target), res.estimate, res.ci95_halfwidth))
    _emit(args.format, "roc", params, ["pf", "pd", "ci95"], rows, stream)
    return 0


def _cmd_pd(args, stream) -> int:
    lam = _threshold_from(args, args.u)
    cfg = DetectorConfig(u=args.u, threshold=lam, noise_uncertainty_db=args.noise_db)
    chan = _channel_from(args)
    ctl = SeriesControl(rel_tol=args.rel_tol, max_terms=args.max_terms)
    value, terms, last = average_pd_detail(cfg, chan, ctl)
    params = {
        "u": args.u, "threshold": lam, "m": args.m, "ms": args.ms,
        "snr_db": args.snr_db, "noise_db": args.noise_db,
        "rel_tol": args.rel_tol, "max_terms": args.max_terms,
    }
    _emit(args.format, "pd", params, ["pd", "terms", "last_term"], [(value, terms, last)], stream)
    return 0


def _cmd_auc(args, stream) -> int:
    params = {"u": args.u, "snr_db": args.snr_db, "m": args.m, "ms": args.ms}
    if args.snr_db is None:
        raise ValueError("--snr-db is required")
    if args.instantaneous:
        gamma = db_to_linear(args.snr_db)
        rows = [(float(args.snr_db), auc_instantaneous(args.u, gamma))]
        _emit(args.format, "auc", params, ["gamma_db", "auc"], rows, stream)
        return 0

    sweeps = dict(_parse_sweep(s) for s in args.sweep or [])
    m_axis = sweeps.get("m", None)
    ms_axis = sweeps.get("ms", None)
    if m_axis is None:
        if args.m is None:
            raise ValueError("--m is required (or sweep it with --sweep m:lo:hi:steps)")
        m_axis = np.array([args.m])
    if ms_axis is None:
        if args.ms is None:
            raise ValueError("--ms is required (or sweep it with --sweep ms:lo:hi:steps)")
        ms_axis = np.array([args.ms])
    rows = []
    for m in m_axis:
        for ms in ms_axis:
            p = FadingParams.from_db(float(m), float(ms), args.snr_db)
            rows.append((float(m), float(ms), float(args.snr_db), auc_average(args.u, p)))
    _emit(args.format, "auc", params, ["m", "ms", "snr_db", "auc"], rows, stream)
    return 0


_ENTROPY_COLUMNS = [
    "m", "ms", "snr_db", "h_p", "h_pq_ray", "h_pq_nak", "kl_ray", "kl_nak",
    "m_hat", "mean_snr_n",
]


def _entropy_row(p: FadingParams, snr_db: float, rep):
    return (
        p.m, p.m_s, snr_db, rep.shannon_bits, rep.cross_rayleigh_bits,
        rep.cross_nakagami_bits, rep.kl_rayleigh_bits, rep.kl_nakagami_bits,
        rep.fitted.m_hat, rep.fitted.mean_snr_n,
    )


def _cmd_entropy(args, stream) -> int:
    params = {
        "m": args.m, "ms": args.ms, "snr_db": args.snr_db,
        "samples": args.samples, "seed": args.seed, "table": bool(args.table),
    }
    if args.table:
        # pair k's 5 dB and 15 dB rows share seed + k, so one draw fits both
        rows = []
        for k, (m, ms) in enumerate(_TABLE_PAIRS):
            chans = [FadingParams.from_db(m, ms, db) for db in (5.0, 15.0)]
            reps = _entropy_reports(chans, args.samples, args.seed + k)
            rows += [_entropy_row(p, db, rep) for p, db, rep in zip(chans, (5.0, 15.0), reps)]
        rows.sort(key=lambda row: row[2])  # all 5 dB rows, then all 15 dB, pairs in order
    else:
        if args.m is None or args.ms is None or args.snr_db is None:
            raise ValueError("--m, --ms and --snr-db are required without --table")
        p = FadingParams.from_db(args.m, args.ms, args.snr_db)
        rows = [_entropy_row(p, args.snr_db, entropy_report(p, args.samples, args.seed))]
    _emit(args.format, "entropy", params, _ENTROPY_COLUMNS, rows, stream)
    return 0


def _cmd_simulate(args, stream) -> int:
    chan = _channel_from(args)
    sim = SimConfig(trials=args.trials, seed=args.seed, stream_count=args.streams)
    params = {
        "kind": args.kind, "u": args.u, "m": args.m, "ms": args.ms,
        "snr_db": args.snr_db, "trials": args.trials, "seed": args.seed,
        "streams": args.streams, "noise_db": args.noise_db,
    }
    if args.kind == "auc":
        res = simulate_auc(args.u, chan, sim)
        analytic = auc_average(args.u, chan)
    else:
        lam = _threshold_from(args, args.u)
        cfg = DetectorConfig(u=args.u, threshold=lam, noise_uncertainty_db=args.noise_db)
        params["threshold"] = lam
        if args.kind == "pd":
            res = simulate_average_pd(cfg, chan, sim)
            analytic = average_pd(cfg, chan)
        elif args.kind == "fusion":
            res = simulate_fusion(cfg, chan, args.users, args.rule, sim)
            analytic = collaborative_pd(average_pd(cfg, chan), args.users, args.rule)
        else:
            res = simulate_sls(cfg, [chan] * args.sls, sim)
            analytic = sls_average_pd(cfg, [chan] * args.sls)
    rows = [(args.kind, res.estimate, res.ci95_halfwidth, res.trials, analytic)]
    _emit(args.format, "simulate", params, ["kind", "estimate", "ci95", "trials", "analytic"], rows, stream)
    return 0


def _cmd_selftest(args, stream) -> int:
    # acceptance loads scipy.stats and scipy.integrate; only selftest needs them
    from . import acceptance

    only = None
    if args.only:
        only = [int(tok) for chunk in args.only for tok in chunk.split(",") if tok]
    records = acceptance.run_all(only)
    rows = [
        (r["criterion"], r["name"], "pass" if r["passed"] else "fail", r["detail"], r["seconds"])
        for r in records
    ]
    _emit(
        args.format, "selftest", {"only": only},
        ["criterion", "name", "status", "detail", "seconds"], rows, stream,
    )
    return 0 if all(r["passed"] for r in records) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsense",
        description="Energy-detection spectrum sensing analytics over F composite fading.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    def chan_flags(sp, need_u=True):
        if need_u:
            sp.add_argument("--u", type=int, default=2, help="time-bandwidth product (default 2)")
        sp.add_argument("--snr-db", type=float, default=None, help="average SNR in dB")
        sp.add_argument("--m", type=float, default=None, help="multipath shape m")
        sp.add_argument("--ms", type=float, default=None, help="shadowing shape m_s (> 1)")

    sp = sub.add_parser("roc", parents=[common], help="ROC table swept by target Pf")
    chan_flags(sp)
    sp.add_argument("--pf-grid", default="1e-4:0.999:200",
                    help="Pf sweep as lo:hi:count, log-spaced (default 1e-4:0.999:200)")
    sp.add_argument("--fusion", choices=("or", "and", "none"), default="none")
    sp.add_argument("--users", type=int, default=1, help="collaborating users for --fusion")
    sp.add_argument("--sls", type=int, default=1, help="square-law selection branches")
    sp.add_argument("--noise-db", type=float, default=0.0, help="noise uncertainty beta in dB")
    sp.add_argument("--simulate", action="store_true", help="Monte Carlo instead of closed form")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(handler=_cmd_roc)

    sp = sub.add_parser("pd", parents=[common], help="average detection probability")
    chan_flags(sp)
    sp.add_argument("--threshold", type=float, default=None, help="decision threshold lambda")
    sp.add_argument("--pfa", type=float, default=None, help="target Pf to derive the threshold")
    sp.add_argument("--noise-db", type=float, default=0.0)
    sp.add_argument("--rel-tol", type=float, default=1e-10)
    sp.add_argument("--max-terms", type=int, default=10_000)
    sp.set_defaults(handler=_cmd_pd)

    sp = sub.add_parser("auc", parents=[common], help="area under the ROC curve")
    chan_flags(sp)
    sp.add_argument("--sweep", action="append", default=None, metavar="AXIS:LO:HI:STEPS",
                    help="sweep m or ms linearly, e.g. --sweep m:1:15:10 (repeatable)")
    sp.add_argument("--instantaneous", action="store_true",
                    help="fixed-SNR AUC; --snr-db is the instantaneous SNR")
    sp.set_defaults(handler=_cmd_auc)

    sp = sub.add_parser("entropy", parents=[common], help="entropy report rows")
    chan_flags(sp, need_u=False)
    sp.add_argument("--table", action="store_true",
                    help="emit the full 8-row reference table")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(handler=_cmd_entropy)

    sp = sub.add_parser("simulate", parents=[common], help="Monte Carlo estimate with CI")
    sp.add_argument("--kind", choices=("pd", "fusion", "sls", "auc"), required=True)
    chan_flags(sp)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--pfa", type=float, default=None)
    sp.add_argument("--noise-db", type=float, default=0.0)
    sp.add_argument("--users", type=int, default=2, help="users for --kind fusion")
    sp.add_argument("--rule", choices=("or", "and"), default="or")
    sp.add_argument("--sls", type=int, default=2, help="branches for --kind sls")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--streams", type=int, default=8)
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("selftest", parents=[common], help="run acceptance criteria")
    sp.add_argument("--only", action="append", default=None, metavar="N[,N...]",
                    help="run a subset of criteria, e.g. --only 1,2,4")
    sp.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except ConvergenceError as exc:
        print(f"specsense {args.command}: non-convergence: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"specsense {args.command}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull so the
        # flush at exit stays quiet, and exit as a SIGPIPE death would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
