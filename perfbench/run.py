"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload pd_scatter --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
./src, so nothing needs installing. The workload runs in a fresh process
(perfbench/worker.py) with its thread pools and malloc thresholds pinned.
Set-up is timed from that process's start; two more processes that only
set up give the median setup_s. Times are scaled to the reference host's
speed by a calibration kernel (see worker.py). The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, by the names and units BENCHMARK.json declares. Details of
every run (pins, failures and what they were attributed to, every set-up
time) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pd_scatter", "figure_sweep", "validation", "cli")
SETUP_PROBES = 2
DEADLINE_S = 170.0

# Thread pools pinned in every process the benchmark starts; none may
# exceed the CPU count, and 1 keeps runs steady on a shared host.
THREADS = min(1, os.cpu_count() or 1)
PINNED = {k: str(THREADS) for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SPECSENSE_THREADS",
)}
# glibc malloc fixed at the thresholds its own dynamic adjustment reaches
# at most (mmap 32 MiB, trim twice that). Left dynamic, they move with the
# allocation history, and average_pd's large temporaries then swing between
# heap and fresh mmap pages: the same query ran 9 to 16 ms, by process and
# by seed, so runs of identical code differed by 17 %.
PINNED.update(MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(64 << 20))


class RunError(Exception):
    pass


def _run(cmd, env, deadline, capture_err=False):
    """Run cmd to completion in its own process group; kill it at the deadline."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_err else None,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{cmd[1:3]} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:4])} exited with {proc.returncode}")
    return out.decode(), (err.decode() if capture_err else "")


def _worker(args, env, deadline, setup_only=False, out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if out:
        cmd += ["--out", out]
    t0 = time.monotonic()
    stdout, _ = _run(cmd, env, deadline)
    res = json.loads(stdout.strip().splitlines()[-1])
    res["setup_wall_s"] = res["setup_end"] - t0
    res["setup_s"] = res["setup_wall_s"] * res["setup_scale"]
    return res


def _import_ms(report: str, package: str) -> float:
    """Cumulative import time of package from a -X importtime report.

    scipy loads its subpackages lazily, so a subpackage may show only as
    its submodules' lines; the outermost lines of the package are summed.
    """
    lines = []
    for m in _IMPORT_LINE.finditer(report):
        name = m.group(3)
        if name == package or name.startswith(package + "."):
            lines.append((len(m.group(2)), int(m.group(1)) / 1e3))
    if not lines:
        return 0.0
    top = min(indent for indent, _ in lines)
    return sum(ms for indent, ms in lines if indent == top)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)")
_IMPORT_ROWS = {"cli.import_ms": "specsense", "cli.import.numpy_ms": "numpy",
                "cli.import.scipy_special_ms": "scipy.special",
                "cli.import.scipy_stats_ms": "scipy.stats",
                "cli.import.scipy_integrate_ms": "scipy.integrate"}


def _import_rows(env, deadline) -> dict:
    """Interpreter start and `import specsense.cli` as `python -X importtime`
    reports it, each the median of three fresh processes."""
    rows = {k: [] for k in ["cli.interpreter_ms", *_IMPORT_ROWS]}
    for _ in range(3):
        t0 = time.monotonic()
        _run([sys.executable, "-c", "pass"], env, deadline)
        rows["cli.interpreter_ms"].append(1e3 * (time.monotonic() - t0))
        _, err = _run([sys.executable, "-X", "importtime", "-c", "import specsense.cli"],
                      env, deadline, capture_err=True)
        for key, package in _IMPORT_ROWS.items():
            rows[key].append(_import_ms(err, package))
    return {k: statistics.median(v) for k, v in rows.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="specsense benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "specsense", "__init__.py")):
        print(f"run.py: no specsense sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **PINNED)
    # one CPU for this process and all it starts, so that the calibration
    # kernel runs where the timed work, a CLI child included, runs
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        if args.trace:
            res = _worker(args, env, deadline, out=stem + ".npz")
            metrics = dict(res["metrics"])
            metrics.update(_import_rows(env, deadline))
            setups = []
        else:
            setups = [_worker(args, env, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
            res = _worker(args, env, deadline)
            setups.append(res)
            metrics = dict(res["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    correct = res["error_count"] == 0
    detail = dict(res, setups_s=[s["setup_s"] for s in setups],
                  setups_wall_s=[s["setup_wall_s"] for s in setups], cpu=cpu, threads=PINNED, python=sys.version.split()[0],
                  correct=correct, metrics=metrics)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in res["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in res["failures"]:
        print(f"failed operation: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
