"""One workload in its own process; run.py starts it and reads its result.

Set-up runs first: `import specsense` before anything else heavy, then the
workload's inputs and its warm-up. The time set-up ended is reported on the
system-wide monotonic clock, so run.py can measure set-up from the moment
it started this process. With --setup-only the process stops there.

The timed phase repeats whole rounds until --seconds have passed. With
--trace 1 the odd rounds run traced and the even rounds untraced, and the
run ends on a traced round.

The host changes speed by up to a third over seconds to minutes, and all
kinds of work slow together. Between operations, at most CAL_EVERY_S
apart, the worker therefore times a fixed calibration kernel. Each
operation's wall time is scaled by CAL_REF_S over the kernel's median time
within CAL_WINDOW_S of the operation, and set-up by a kernel sample taken
as it ends. Times are thus reported in milliseconds of the reference host
(2 vCPU, Python 3.11.7, numpy 2.4.6) at its usual speed. Over ten runs this
halved the spread of op_ms, op_tail_ms and ops_per_s.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import sys
import time
from time import perf_counter


CAL_REF_S = 0.35e-3  # the kernel's usual median time on the reference host
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 0.5


class Calibration:
    """Kernel timings taken between operations, and the scale they give."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.1, 5.0, 20_000)
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        # mostly numpy on mid-sized arrays plus some interpreter work; of the
        # kernels tried, this one tracked average_pd's speed best
        s = 0.0
        for i in range(300):
            s += (i * 0.5) % 7.0
        for _ in range(4):
            s += float(self._np.exp(-self._x) @ self._np.log1p(self._x))
        return s

    def sample(self) -> float:
        """Time the kernel 7 times, after one untimed run that brings its
        data back into cache; record and return the median."""
        t_start = perf_counter()
        self._kernel()
        runs = []
        for _ in range(7):
            t0 = perf_counter()
            self._kernel()
            runs.append(perf_counter() - t0)
        self.at.append(t_start)
        self.kernel_s.append(statistics.median(runs))
        return self.kernel_s[-1]

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= CAL_EVERY_S

    def scale(self, t0: float, dt: float) -> float:
        """CAL_REF_S over the kernel's median time around [t0, t0 + dt]."""
        lo = bisect.bisect_left(self.at, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, t0 + dt + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.kernel_s[lo:hi])


def tail(values: list[float], pct: float) -> float:
    """Nearest-rank percentile pct, moved down so that at least ten values
    lie beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1]
    k = min(max(math.ceil(pct / 100.0 * n) - 1, 0), n - 11)
    return v[k]


def slowest_per_round(rounds: list[int], values: list[float]) -> float:
    """Median over rounds of each round's slowest operation: the tail of a
    workload with too few operations for a percentile with ten beyond it."""
    worst: dict[int, float] = {}
    for r, v in zip(rounds, values):
        worst[r] = max(worst.get(r, 0.0), v)
    return statistics.median(worst.values())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None, help="file for the trace spans")
    args = ap.parse_args()

    import specsense  # noqa: F401  -- the first heavy import, timed as set-up

    import workloads
    import tracer as tracing

    cls = workloads.WORKLOADS[args.workload]
    in_process = bool(args.trace) and cls is workloads.Cli
    if in_process:
        import specsense.cli  # noqa: F401
        wl = cls(args.seed, in_process=True)
    else:
        wl = cls(args.seed)
    wl.warmup()
    setup_end = time.monotonic()
    cal = Calibration()
    setup_scale = CAL_REF_S / cal.sample()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "setup_scale": setup_scale}))
        return 0

    tr = tracing.Tracer() if args.trace else None
    times: list[tuple[int, float, float, bool, int]] = []  # (round, start, seconds, traced, trials)
    windows: list[tuple[float, float]] = []
    attempted = 0
    r = 0
    t_start = perf_counter()
    while True:
        ops = wl.round_ops(r)
        traced = tr is not None and r % 2 == 1
        if traced:
            tr.install()
            w0 = perf_counter()
        for i, op in enumerate(ops):
            if cal.due():
                cal.sample()
            t0 = perf_counter()
            out = tr.call_op(op.fn) if traced else op.fn()
            dt = perf_counter() - t0
            times.append((r, t0, dt, traced, op.trials))
            wl.keep(r, i, op, out)
        attempted += len(ops)
        if traced:
            windows.append((w0, perf_counter()))
            tr.uninstall()
        r += 1
        if perf_counter() - t_start >= args.seconds and (tr is None or r % 2 == 0):
            break
    elapsed = perf_counter() - t_start
    cal.sample()
    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli and not in_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    failed, notes, errors = wl.check()

    scaled = [(dt * cal.scale(t0, dt), traced, n) for _, t0, dt, traced, n in times]
    plain = [dt for dt, traced, _ in scaled if not traced]
    result = {
        "setup_end": setup_end,
        "setup_scale": setup_scale,
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(notes)),
        "errors": errors[:20],
        "error_count": len(errors),
        "elapsed_s": elapsed,
    }
    if tr is None:
        result["metrics"] = {
            "op_ms": 1e3 * statistics.median(plain),
            "op_tail_ms": 1e3 * (
                tail(plain, wl.tail_pct) if wl.tail_pct
                else slowest_per_round([r for r, *_ in times], plain)),
            "ops_per_s": len(plain) / sum(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        result["tail_pct"] = wl.tail_pct
        result["wall"] = {
            "op_ms": 1e3 * statistics.median(dt for _, _, dt, _, _ in times),
            "ops_per_s": len(times) / elapsed,
            "kernel_ms": 1e3 * statistics.median(cal.kernel_s),
        }
    else:
        traced_s = [dt for dt, traced, _ in scaled if traced]
        mc = [(dt, n) for dt, traced, n in scaled if n and not traced]
        layers = tracing.layer_metrics(tr, windows)
        layers["montecarlo.trials_per_s"] = sum(n for _, n in mc) / sum(dt for dt, _ in mc) if mc else 0.0
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain) - 1.0)
        layers["cli.handler_ms"] = 1e3 * statistics.median(plain) if in_process else 0.0
        result["metrics"] = layers
        result["absent"] = tr.absent
        if args.out:
            tr.write(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
