"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of every sinailab
layer module from the outside: the program itself is not edited. Each
call becomes a span ``[id, name, start, end, parent, job, attrs]`` kept in
memory; ``attrs`` holds the work counts read from the call's arguments or
result. Names imported by other modules (``from .matrixcore import
log_wedge_total_from_rows``) are patched in the importing module too, so
hot paths that bypass the defining module are still seen.

Sweep grid points run in forked worker processes. The workers inherit the
patched modules and the open span stack, so their spans name the parent's
``sweep.run_sweep`` span as parent. Each worker writes its spans to a spool
directory after every grid point, and the parent merges them when the job
ends. ``install_rss_probe`` uses the same hook, without timing, to report
each worker's memory growth for ``peak_rss_mb``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("systems", "matrixcore", "measures", "oseledets", "entropy",
          "sweep", "serialize", "cli")

#: private functions that mark a layer boundary the metrics need
EXTRA_FUNCTIONS = {"sweep": ("_sweep_point",)}

POINT = "sweep._sweep_point"
ROOT = "bench.job"


def rss_kb() -> tuple:
    """(VmRSS, VmHWM) of this process in KiB, from /proc/self/status."""
    rss = hwm = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                rss = int(line.split()[1])
            elif line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    return rss, hwm


# ---------------------------------------------------------------------------
# Work counts read at the span boundary
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _orbit_attrs(args, kwargs, result):
    system, x0, n = args[0], _arg(args, kwargs, 1, "x0"), _arg(args, kwargs, 2, "n")
    key = repr((system.name, system.params, [float(v) for v in x0], int(n)))
    return {"steps": int(n), "key": key}


def _wedge_step_attrs(args, kwargs, result):
    acc, dfs = args[0], _arg(args, kwargs, 1, "dfs")
    m = int(dfs.shape[0])
    minors = sum(math.comb(acc.dim, j) ** 2 for j in acc.orders)
    return {"points": m, "minors": m * minors}


def _benettin_attrs(args, kwargs, result):
    burn = int(_arg(args, kwargs, 2, "burn_in"))
    steps = int(_arg(args, kwargs, 3, "n_steps"))
    return {"steps": burn + steps}


def _ls_attrs(args, kwargs, result):
    n_max = int(_arg(args, kwargs, 2, "n_max", 40))
    diag = result.diagnostics
    return {"depth": len(diag["a_n"]),
            "converged": int(diag["argmin_n"] < n_max)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _run_sweep_attrs(args, kwargs, result):
    return {"workers": int(_arg(args, kwargs, 0, "config").workers)}


COUNTERS = {
    "systems.DynamicalSystem.orbit": _orbit_attrs,
    "systems.DynamicalSystem.step_batch":
        lambda a, k, r: {"points": int(_arg(a, k, 1, "pts").shape[0])},
    "matrixcore.WedgeAccumulatorBatch.step": _wedge_step_attrs,
    "oseledets.benettin_spectrum": _benettin_attrs,
    "entropy.ls_entropy": _ls_attrs,
    "measures.birkhoff_sample":
        lambda a, k, r: {"restarts": int(r.provenance["restarts"])},
    "measures.ulam_matrix":
        lambda a, k, r: {"samples": int(r.matrix.shape[0]) * r.samples_per_cell},
    "measures.ulam_stationary":
        lambda a, k, r: {"iters": int(r.provenance["iterations"])},
    "serialize.write_json": _file_attrs,
    "serialize.write_csv": _file_attrs,
    "serialize.svg_line_chart": _file_attrs,
    "sweep.run_sweep": _run_sweep_attrs,
}


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span store for one process and its forked workers."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spans = []
        self.stack = []
        self.job = None
        self.pid = self.parent_pid = os.getpid()
        self._count = 0
        self._points = 0

    def _new_id(self) -> int:
        self._count += 1
        return self.pid * 10_000_000 + self._count

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [self._new_id(), name, time.perf_counter(), 0.0, parent,
                self.job, None]
        self.stack.append(span[0])
        return span

    def close(self, span: list, attrs=None) -> None:
        span[3] = time.perf_counter()
        span[6] = attrs
        self.stack.pop()
        self.spans.append(span)

    def begin_job(self, job: int) -> list:
        self.job = job
        return self.open(ROOT)

    def end_job(self, root: list) -> list:
        """Close the job's root span and return every span of the job,
        worker spans included."""
        self.close(root)
        spans = [s for s in self.spans if s[5] == root[5]]
        self.spans = [s for s in self.spans if s[5] != root[5]]
        for path in sorted(self.spool.glob(f"spans-{root[5]}-*.json")):
            spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return spans

    # -- forked sweep workers ---------------------------------------------
    def enter_worker(self) -> None:
        """Forget the parent's finished spans after a fork; the open stack
        is kept, so worker spans point at the parent's sweep span."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._count = 0
            self._points = 0

    def flush_worker(self) -> None:
        self._points += 1
        path = self.spool / f"spans-{self.job}-{self.pid}-{self._points}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        self.spans = []


def _span_wrapper(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    point = name == POINT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if point:
            tracer.enter_worker()
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span, {"error": type(exc).__name__})
            raise
        tracer.close(span, counter(args, kwargs, result) if counter else None)
        if point and os.getpid() != tracer.parent_pid:
            tracer.flush_worker()
        return result

    return wrapper


def _layer_targets(layer: str):
    """(owner, attribute, function, qualified name) for every public
    function and method defined in the layer module."""
    mod = importlib.import_module(f"sinailab.{layer}")
    names = set(EXTRA_FUNCTIONS.get(layer, ()))
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and (not name.startswith("_") or name in names):
            yield mod, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") or not inspect.isfunction(member):
                    continue
                yield obj, attr, member, f"{layer}.{obj.__name__}.{attr}"


class Patch:
    """Replace layer functions with wrappers everywhere sinailab holds
    them; ``restore`` puts the originals back."""

    def __init__(self, make_wrapper, layers=LAYERS, only=None):
        self._saved = []
        replaced = {}
        for layer in layers:
            for owner, attr, fn, qual in _layer_targets(layer):
                if only is not None and qual not in only:
                    continue
                wrapper = make_wrapper(qual, fn)
                replaced[id(fn)] = wrapper
                self._set(owner, attr, wrapper)
        package = importlib.import_module("sinailab")
        modules = [package] + [importlib.import_module(f"sinailab.{m}")
                               for m in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(mod, attr, replaced[id(obj)])

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []


def install_tracer(tracer: Tracer) -> Patch:
    return Patch(lambda qual, fn: _span_wrapper(tracer, qual, fn))


def install_rss_probe(spool: Path, job: int) -> Patch:
    """Wrap the sweep's grid-point function so each forked worker records
    its resident memory at its first point and its high-water mark after
    every point, in ``rss-<job>-<pid>.json`` under ``spool``."""
    parent = os.getpid()
    start = {}

    def make(qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != parent and pid not in start:
                start[pid] = rss_kb()[0]
            result = fn(*args, **kwargs)
            if pid != parent:
                path = Path(spool) / f"rss-{job}-{pid}.json"
                path.write_text(json.dumps([start[pid], rss_kb()[1]]),
                                encoding="utf-8")
            return result
        return wrapper

    return Patch(make, layers=("sweep",), only={POINT})


def worker_growth_kb(spool: Path, job: int) -> int:
    """Sum over the job's sweep workers of (peak RSS - RSS at first point);
    removes the probe files."""
    total = 0
    for path in Path(spool).glob(f"rss-{job}-*.json"):
        first, peak = json.loads(path.read_text(encoding="utf-8"))
        total += max(peak - first, 0)
        path.unlink()
    return total


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part its direct children cover.

    Children are clipped to the parent's interval; children running in
    parallel (sweep workers) are counted once where they overlap.
    """
    kids = defaultdict(list)
    for s in spans:
        kids[s[4]].append(s)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        clipped = [(max(c[2], start), min(c[3], end)) for c in kids[s[0]]]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out[s[0]] = (end - start) - covered(clipped)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _subtree(spans, root_names):
    """Spans inside (and including) every span named in root_names."""
    kids = defaultdict(list)
    for s in spans:
        kids[s[4]].append(s)
    todo = [s for s in spans if s[1] in root_names]
    seen = {}
    while todo:
        s = todo.pop()
        if s[0] not in seen:
            seen[s[0]] = s
            todo.extend(kids[s[0]])
    return list(seen.values())


def _outermost_total(spans, names) -> float:
    """Summed duration of spans named in `names` whose ancestors carry none
    of those names (nested calls are not counted twice)."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p = by_id.get(s[4])
        while p is not None and p[1] not in names:
            p = by_id.get(p[4])
        if p is None:
            total += s[3] - s[2]
    return total


def _attr_sum(spans, name, key) -> int:
    return sum(s[6][key] for s in spans if s[1] == name and s[6] and key in s[6])


def _group_self(spans, selfs, root_name) -> float:
    layer = layer_of(root_name)
    return sum(selfs[s[0]] for s in _subtree(spans, {root_name})
               if layer_of(s[1]) == layer)


def job_metrics(spans) -> dict:
    """Per-layer metrics of one job from its spans (all processes)."""
    selfs = self_times(spans)
    orbit = "systems.DynamicalSystem.orbit"
    keys = [s[6]["key"] for s in sorted(spans, key=lambda s: s[2])
            if s[1] == orbit and s[6]]
    dup = sum(1 for i, k in enumerate(keys) if k in keys[:i])
    ls_calls = [s for s in spans if s[1] == "entropy.ls_entropy" and s[6]]
    points = [s[3] - s[2] for s in spans if s[1] == POINT]
    runs = [s for s in spans if s[1] == "sweep.run_sweep"]
    run_s = sum(s[3] - s[2] for s in runs)
    workers = max([s[6]["workers"] for s in runs if s[6]] or [1])
    writes = {"serialize.write_json", "serialize.write_csv",
              "serialize.svg_line_chart"}
    wedge_logs = {"matrixcore.WedgeAccumulatorBatch.log_wedge_all",
                  "matrixcore.WedgeAccumulatorBatch.log_wedge",
                  "matrixcore.log_wedge_total_from_rows"}
    root = next(s for s in spans if s[1] == ROOT)
    unattributed = selfs[root[0]] + sum(
        selfs[s[0]] for s in spans if layer_of(s[1]) == "cli")
    return {
        "systems.orbit_s": _outermost_total(spans, {orbit}),
        "systems.orbit_steps": _attr_sum(spans, orbit, "steps"),
        "systems.orbit_dup_frac": dup / len(keys) if keys else 0.0,
        "systems.step_batch_s": _outermost_total(
            spans, {"systems.DynamicalSystem.step_batch"}),
        "systems.step_batch_points": _attr_sum(
            spans, "systems.DynamicalSystem.step_batch", "points"),
        "systems.singular_check_s": _outermost_total(
            spans, {"systems.DynamicalSystem.hits_singular_set"}),
        "matrixcore.wedge_step_s": _outermost_total(
            spans, {"matrixcore.WedgeAccumulatorBatch.step"}),
        "matrixcore.log_wedge_s": _outermost_total(spans, wedge_logs),
        "matrixcore.wedge_step_points": _attr_sum(
            spans, "matrixcore.WedgeAccumulatorBatch.step", "points"),
        "matrixcore.minors_computed": _attr_sum(
            spans, "matrixcore.WedgeAccumulatorBatch.step", "minors"),
        "oseledets.benettin_s": _outermost_total(
            spans, {"oseledets.benettin_spectrum"}),
        "oseledets.benettin_self_s": _group_self(
            spans, selfs, "oseledets.benettin_spectrum"),
        "oseledets.benettin_steps": _attr_sum(
            spans, "oseledets.benettin_spectrum", "steps"),
        "entropy.ls_s": _outermost_total(spans, {"entropy.ls_entropy"}),
        "entropy.ls_self_s": _group_self(spans, selfs, "entropy.ls_entropy"),
        "entropy.ls_depth_used": sum(s[6]["depth"] for s in ls_calls),
        "entropy.ls_converged_frac": (
            sum(s[6]["converged"] for s in ls_calls) / len(ls_calls)
            if ls_calls else 0.0),
        "entropy.jacobian_s": _outermost_total(
            spans, {"entropy.jacobian_formula_entropy"}),
        "entropy.jacobian_self_s": _group_self(
            spans, selfs, "entropy.jacobian_formula_entropy"),
        "measures.birkhoff_s": _outermost_total(
            spans, {"measures.birkhoff_sample"}),
        "measures.birkhoff_restarts": _attr_sum(
            spans, "measures.birkhoff_sample", "restarts"),
        "measures.moments_s": _outermost_total(
            spans, {"measures.dictionary_moments"}),
        "measures.ulam_build_s": _outermost_total(
            spans, {"measures.ulam_matrix"}),
        "measures.ulam_samples": _attr_sum(
            spans, "measures.ulam_matrix", "samples"),
        "measures.ulam_power_s": _outermost_total(
            spans, {"measures.ulam_stationary"}),
        "measures.ulam_iters": _attr_sum(
            spans, "measures.ulam_stationary", "iters"),
        "sweep.run_s": run_s,
        "sweep.point_s_sum": sum(points),
        "sweep.point_s_max": max(points, default=0.0),
        "sweep.parallel_eff": (sum(points) / (workers * run_s)
                               if run_s > 0.0 else 0.0),
        "serialize.write_s": _outermost_total(spans, writes),
        "serialize.bytes_written": sum(_attr_sum(spans, n, "bytes")
                                       for n in writes),
        "cli.unattributed_s": unattributed,
    }
