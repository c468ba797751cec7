"""Paired benchmark runs of a parent commit against a change.

    python3 tools/bench_pairs.py --parent HEAD --pr 6 --workload validation \
        --seeds 1001-1010 [--trace-seeds 1021-1022]

The parent ref is exported with `git archive` into a scratch directory; the
change is this working tree. The change's perfbench/ replaces the parent's,
so both sides run identical benchmark code. For each seed,
`python3 perfbench/run.py` runs from each tree's root, parent first on even
pairs and change first on odd ones.

Every run lasts BENCHMARK.json's run_seconds. BENCH_<pr>.json, at the
repository root, gets, per workload, each side's runs and the median and
quartiles of every end-to-end metric that BENCHMARK.json declares, the
change's win count per metric (ties count for neither side), and with
--trace-seeds the median of every per-layer metric. Each end-to-end metric
also carries its bound from BENCHMARK.json, a verdict (better,
within_bound, unresolved or worse; see _judge) and whether it meets the
gain rule: at least 9 wins in 10 pairs and a median gap wider than the
parent's IQR. Each side also records its `src/` line count, the measure
of `wc -l src/specsense/*.py`. Entries for other
workloads already in the file are kept, so one file can collect several
invocations. The machine, Python, numpy and scipy versions are recorded
too. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True).stdout


def _export(ref: str, dest: str) -> str:
    """Write the committed files of ref into dest and return dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _src_lines(root: str) -> int:
    """Newlines in root's src/specsense/*.py, as `wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "specsense", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _seeds(text: str) -> list[int]:
    """'1001-1010' or '5,7,9' (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    row = {"seed": seed}
    if proc.returncode != 0:
        return dict(row, error=f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return dict(row, correct=res["correct"], attempted=res["attempted"], failed=res["failed"],
                metrics={k: v["value"] for k, v in res["metrics"].items()})


def _paired(roots: dict, workload: str, seeds: list[int], seconds: float, trace: int) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            row = _run(roots[side], workload, seed, seconds, trace)
            runs[side].append(row)
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"{row.get('error') or row['metrics']}", file=sys.stderr, flush=True)
    return runs


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs: dict, declared: list[dict]) -> dict:
    out = {}
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if "metrics" in p and "metrics" in c]
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name] for r in runs[side] if "metrics" in r] for side in SIDES}
        if not all(vals.values()):
            continue
        row = {"unit": m["unit"], "better": m["better"]}
        row.update({side: _spread(vals[side]) for side in SIDES})
        base = row["parent"]["median"]
        row["delta_pct"] = 100.0 * (row["change"]["median"] - base) / base if base else None
        row["change_wins"] = sum(
            (c["metrics"][name] < p["metrics"][name]) if lower else (c["metrics"][name] > p["metrics"][name])
            for p, c in pairs)
        row["pairs"] = len(pairs)
        if "bound" in m:
            row.update(_judge(row, m["bound"], lower))
        out[name] = row
    return out


def _judge(row: dict, bound: float, lower: bool) -> dict:
    """The bound, a verdict and the gain rule for one end-to-end metric.

    verdict: 'unresolved' if the parent's IQR, relative to its median, is
    wider than the bound; else 'worse' if the change's median is worse than
    the parent's by more than the bound (relative); else 'better' if it is
    better at all; else 'within_bound'. gain: the change wins at least 9 of
    every 10 pairs and its median beats the parent's by more than the
    parent's IQR.
    """
    parent, change = row["parent"], row["change"]
    base = parent["median"]
    iqr = parent["q3"] - parent["q1"]
    gap = (base - change["median"]) if lower else (change["median"] - base)  # > 0: better
    if base and iqr / abs(base) > bound:
        verdict = "unresolved"
    elif base and -gap / abs(base) > bound:
        verdict = "worse"
    else:
        verdict = "better" if gap > 0 else "within_bound"
    gain = row["pairs"] > 0 and 10 * row["change_wins"] >= 9 * row["pairs"] and gap > iqr
    return {"bound": bound, "verdict": verdict, "gain": gain}


def _environment() -> dict:
    probe = ("import json, numpy, scipy, sys; print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], check=True,
                                         capture_output=True, text=True).stdout)
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    machine = {"platform": platform.platform(), "machine": platform.machine(), "cpu": model,
               "cpu_count": os.cpu_count()}
    return {"machine": machine, "versions": versions}


def main() -> int:
    ap = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1001-1010")
    ap.add_argument("--trace-seeds", type=_seeds, default=[], help="seeds of traced pairs")
    ap.add_argument("--workdir", default=None,
                    help="where the exported trees go (created if missing; the trees are removed after)")
    args = ap.parse_args()

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir)
    try:
        roots = {"parent": _export(args.parent, os.path.join(work, "parent")), "change": REPO}
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        shutil.rmtree(os.path.join(roots["parent"], "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(REPO, "perfbench"),
                        os.path.join(roots["parent"], "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        seconds = bench["run_seconds"]
        refs = {"parent": {"ref": args.parent, "commit": _git("rev-parse", args.parent).decode().strip()},
                "change": {"ref": "working tree", "commit": _git("rev-parse", "HEAD").decode().strip(),
                           "uncommitted_changes": bool(_git("status", "--porcelain").strip())}}
        for side in SIDES:
            refs[side]["src_lines"] = _src_lines(roots[side])

        out_path = os.path.join(REPO, f"BENCH_{args.pr}.json")
        doc = {"workloads": {}}
        if os.path.exists(out_path):
            with open(out_path) as fh:
                doc = json.load(fh)
        doc.update(pr=args.pr, **_environment())
        for w in args.workload:
            runs = _paired(roots, w, args.seeds, seconds, 0)
            entry = dict(refs, seconds=seconds, seeds=args.seeds,
                         first=[SIDES[i % 2] for i in range(len(args.seeds))],
                         end_to_end=_summary(runs, bench["end_to_end"]), runs=runs)
            if args.trace_seeds:
                traced = _paired(roots, w, args.trace_seeds, seconds, 1)
                entry["traced"] = {"seeds": args.trace_seeds,
                                   "per_layer": _summary(traced, bench["per_layer"]), "runs": traced}
            doc["workloads"][w] = entry
            with open(out_path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        print(out_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
