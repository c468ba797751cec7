"""Span tracing around the public functions of each specsense layer.

A traced round replaces each function named in LAYERS, in every loaded
specsense module that refers to it, by a wrapper that records one span:
its name, start, end and parent, on a stack kept per thread. Nothing under
src/ changes; the originals are put back when the round ends. Spans stay in
memory until the run ends, when they are summarised into per-layer metrics
and written out. A function that a later version of the program no longer
has is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import sys
import threading
from array import array
from time import perf_counter

import numpy as np

OP = "op"


def _rows(args, kwargs, result):
    return float(np.size(args[1] if len(args) > 1 else kwargs["b_values"]))


def _draws(args, kwargs, result):
    return float(np.size(result))


def _series(args, kwargs, result):
    used = np.asarray(result[1])
    live = used[used > 0]
    if live.size == 0:
        return 0.0, (0.0, 0.0, 0.0)
    return float(live.sum()), (float(live.sum()), float(live.size), float(live.max()))


# (module, function, count taken from the call) for every traced function
LAYERS = (
    ("special_fn", "ln_tricomi_u_grid", _rows),
    ("special_fn", "reg_gamma_q", None),
    ("special_fn", "marcum_q", None),
    ("detection", "threshold_for_pfa", None),
    ("detection", "_series_batch", _series),
    ("detection", "average_pd", None),
    ("detection", "average_pd_detail", None),
    ("detection", "sls_average_pd", None),
    ("detection", "roc_curve", None),
    ("detection", "average_pd_quadrature", None),
    ("auc", "auc_average", None),
    ("entropy", "entropy_report", None),
    ("montecarlo", "sample_statistic", _draws),
    ("fading", "sample_snr", _draws),
)

# functions whose own time, outside the traced calls they make, is the
# series layer: Poisson weights, the stopping rule and assembly
SERIES_SELF = (
    "detection._series_batch",
    "detection.average_pd",
    "detection.average_pd_detail",
    "detection.sls_average_pd",
    "detection.roc_curve",
)


class _Store:
    """Spans recorded by one thread, in start order."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.extra: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self):
        self.names = [OP] + [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stores: list[_Store] = []
        self._patched: list[tuple] = []

    def _store(self) -> _Store:
        st = getattr(self._local, "store", None)
        if st is None:
            st = _Store()
            self._local.store = st
            with self._lock:
                self._stores.append(st)
        return st

    def _wrap(self, name_id: int, fn, count_fn):
        def traced(*args, **kwargs):
            st = self._store()
            idx = len(st.name)
            st.name.append(name_id)
            st.parent.append(st.stack[-1] if st.stack else -1)
            st.start.append(0.0)
            st.end.append(0.0)
            st.count.append(0.0)
            st.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.start[idx] = t0
                st.end[idx] = t1
            if count_fn is not None:
                c = count_fn(args, kwargs, result)
                if isinstance(c, tuple):
                    st.count[idx], st.extra[idx] = c
                else:
                    st.count[idx] = c
            return result

        return traced

    def call_op(self, fn):
        """Run one benchmark operation as a root span."""
        return self._wrap(0, fn, None)()

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "specsense" or k.startswith("specsense."))]
        absent = []
        for name_id, (mod, fn_name, count_fn) in enumerate(LAYERS, start=1):
            home = sys.modules.get(f"specsense.{mod}")
            orig = getattr(home, fn_name, None) if home is not None else None
            if orig is None:
                absent.append(f"{mod}.{fn_name}")
                continue
            wrapped = self._wrap(name_id, orig, count_fn)
            for m in mods:
                if m.__dict__.get(fn_name) is orig:
                    setattr(m, fn_name, wrapped)
                    self._patched.append((m, fn_name, orig))
        self.absent = absent

    def uninstall(self) -> None:
        for m, fn_name, orig in reversed(self._patched):
            setattr(m, fn_name, orig)
        self._patched.clear()

    def spans(self) -> dict:
        """All spans as flat arrays; parents indexed into the same arrays."""
        cols = {k: [] for k in ("name", "parent", "start", "end", "count", "thread")}
        extra = {}
        offset = 0
        for st in self._stores:
            par = np.frombuffer(st.parent, dtype=np.int32).astype(np.int64)
            cols["name"].append(np.frombuffer(st.name, dtype=np.int32).astype(np.int64))
            cols["parent"].append(np.where(par >= 0, par + offset, -1))
            cols["start"].append(np.frombuffer(st.start, dtype=float))
            cols["end"].append(np.frombuffer(st.end, dtype=float))
            cols["count"].append(np.frombuffer(st.count, dtype=float))
            cols["thread"].append(np.full(par.size, st.thread, dtype=np.int64))
            extra.update({k + offset: v for k, v in st.extra.items()})
            offset += par.size
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        out["extra"] = extra
        return out

    def write(self, path: str) -> None:
        sp = self.spans()
        keys = sorted(sp["extra"])
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=sp["name"], parent=sp["parent"], start=sp["start"], end=sp["end"],
            count=sp["count"], thread=sp["thread"],
            extra_index=np.array(keys, dtype=np.int64),
            extra=np.array([sp["extra"][k] for k in keys], dtype=float).reshape(-1, 3),
        )


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]]) -> dict:
    """Per-layer metrics from the traced rounds.

    windows are the (start, end) times of the traced rounds. Counts per
    operation come from the first traced round alone, so they repeat exactly
    for a given seed; times and shares come from every traced round.
    """
    sp = tracer.spans()
    name, parent = sp["name"], sp["parent"]
    start, end = sp["start"], sp["end"]
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}

    def in_windows(ws):
        mask = np.zeros(name.shape, dtype=bool)
        for a, b in ws:
            mask |= (start >= a) & (start <= b)
        return mask

    every = in_windows(windows)
    first = in_windows(windows[:1])
    is_op = name == ids[OP]
    ops_first = max(int(np.count_nonzero(is_op & first)), 1)
    op_time = float(dur[is_op & every].sum()) or 1.0
    child = np.zeros(name.shape[0])
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def sel(label, mask):
        return (name == ids[label]) & mask

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    def layer(label):
        every_l, first_l = sel(label, every), sel(label, first)
        return {
            "calls_per_op": ratio(np.count_nonzero(first_l), ops_first),
            "count_per_op": ratio(sp["count"][first_l].sum(), ops_first),
            "time": float(dur[every_l].sum()),
            "calls": int(np.count_nonzero(every_l)),
            "count": float(sp["count"][every_l].sum()),
            "share": 100.0 * ratio(dur[every_l].sum(), op_time),
        }

    tri = layer("special_fn.ln_tricomi_u_grid")
    thr = layer("detection.threshold_for_pfa")
    rgq = layer("special_fn.reg_gamma_q")
    mq = layer("special_fn.marcum_q")
    aucl = layer("auc.auc_average")
    quad = layer("detection.average_pd_quadrature")
    ent = layer("entropy.entropy_report")
    stat = layer("montecarlo.sample_statistic")
    snr = layer("fading.sample_snr")

    batch = np.nonzero(sel("detection._series_batch", first))[0]
    terms = evals = needed = 0.0
    for i in batch:
        t, e, mx = sp["extra"].get(int(i), (0.0, 0.0, 0.0))
        terms, evals, needed = terms + t, evals + e, needed + mx
    in_batch = np.isin(parent, batch) & sel("special_fn.ln_tricomi_u_grid", first)
    rows_for_series = float(sp["count"][in_batch].sum())

    series = np.zeros(name.shape, dtype=bool)
    for label in SERIES_SELF:
        series |= sel(label, every)
    ops_every = max(int(np.count_nonzero(is_op & every)), 1)
    workers = np.unique(sp["thread"][sel("montecarlo.sample_statistic", every)]).size

    return {
        "special_fn.tricomi.rows_per_op": tri["count_per_op"],
        "special_fn.tricomi.us_per_row": 1e6 * ratio(tri["time"], tri["count"]),
        "special_fn.tricomi.share": tri["share"],
        "detection.series.row_use": ratio(needed, rows_for_series),
        "detection.series.terms_per_eval": ratio(terms, evals),
        "detection.series.self_ms_per_op": 1e3 * float(self_time[series].sum()) / ops_every,
        "detection.threshold.calls_per_op": thr["calls_per_op"],
        "detection.threshold.us_per_call": 1e6 * ratio(thr["time"], thr["calls"]),
        "detection.threshold.share": thr["share"],
        "special_fn.reg_gamma_q.calls_per_op": rgq["calls_per_op"],
        "special_fn.reg_gamma_q.us_per_call": 1e6 * ratio(rgq["time"], rgq["calls"]),
        "special_fn.marcum_q.calls_per_op": mq["calls_per_op"],
        "special_fn.marcum_q.us_per_call": 1e6 * ratio(mq["time"], mq["calls"]),
        "auc.auc_average.us_per_call": 1e6 * ratio(aucl["time"], aucl["calls"]),
        "auc.auc_average.share": aucl["share"],
        "detection.quadrature.ms_per_call": 1e3 * ratio(quad["time"], quad["calls"]),
        "entropy.entropy_report.ms_per_call": 1e3 * ratio(ent["time"], ent["calls"]),
        "montecarlo.sample_statistic.ns_per_trial": 1e9 * ratio(stat["time"], stat["count"]),
        "fading.sample_snr.ns_per_draw": 1e9 * ratio(snr["time"], snr["count"]),
        "montecarlo.workers": float(workers),
    }
