"""Tracing, per-layer attribution and host readings for the benchmark.

Spans are recorded only from the benchmark's own files, around its calls
into the package's public functions. Ray Data executions that happen
inside those calls are captured through Ray Data's execution-callback
hook (``before_execution_starts`` / ``after_execution_succeeds``), which
hands over the executor's final ``DatasetStats``: per-operator task wall,
UDF time, output rows and bytes. Everything is kept in memory and only
reduced when the run ends.

Self time per layer for one iteration is its duration split so that the
parts add up to the whole:

* a benchmark span's self time is its duration minus the union of the
  intervals covered by its child spans and by Dataset executions started
  under it (the driver-side work of that call);
* overlapping Dataset executions under one span form a cluster whose
  union duration is shared among their operators in proportion to task
  wall time; when the tasks were busy for less than the cluster lasted,
  the remainder is Ray Data scheduling (``ray.overhead_s``).
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory spans plus Ray Data execution records."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: List[dict] = []
        self.datasets: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._open: Dict[str, tuple] = {}
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None):
        """``layer`` names where the span's own (driver-side) time goes."""
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(dict(id=sid, name=name, layer=layer or name,
                                   start=start, end=time.perf_counter(),
                                   parent=parent, run_id=self.run_id))

    # -- Ray Data execution callback ------------------------------------
    def install(self) -> None:
        """Register with the current DataContext, keeping Ray's own
        default callbacks in place."""
        import ray.data as rd
        from ray.data._internal.execution.execution_callback import (
            EXECUTION_CALLBACKS_CONFIG_KEY, ExecutionCallback,
            get_execution_callbacks)

        tracer = self

        class _Callback(ExecutionCallback):
            def before_execution_starts(self, executor):
                tracer._dataset_started(executor)

            def after_execution_succeeds(self, executor):
                tracer._dataset_ended(executor)

            def __deepcopy__(self, memo):
                # every Dataset deep-copies the DataContext: share this
                # instance so executions still reach the tracer
                return self

            def __reduce__(self):
                # Ray ships the DataContext to its stats actor; the copy
                # there records nothing
                return (ExecutionCallback, ())

        ctx = rd.DataContext.get_current()
        ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY,
                       list(get_execution_callbacks(ctx)) + [_Callback()])

    def _dataset_started(self, executor) -> None:
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        with self._lock:
            self._open[executor._dataset_id] = (time.perf_counter(), parent)

    def _dataset_ended(self, executor) -> None:
        with self._lock:
            opened = self._open.pop(executor._dataset_id, None)
        if opened is None:
            return
        start, parent = opened
        summary = executor._final_stats.to_summary()
        with self._lock:
            self.datasets.append(dict(
                name=executor._dataset_id, start=start,
                end=time.perf_counter(), parent=parent, run_id=self.run_id,
                ops=[_op_record(o) for o in _walk_ops(summary)]))


def _walk_ops(summary):
    for parent in summary.parents:
        yield from _walk_ops(parent)
    yield from summary.operators_stats


def _op_record(op) -> dict:
    def total(d):
        return float(d["sum"]) if d else 0.0

    return dict(name=op.operator_name, sub=op.is_sub_operator,
                wall=total(op.wall_time), udf=total(op.udf_time),
                rows=total(op.output_num_rows),
                bytes=total(op.output_size_bytes),
                rows_max=float(op.output_num_rows["max"]) if op.output_num_rows else 0.0,
                rows_mean=float(op.output_num_rows["mean"]) if op.output_num_rows else 0.0)


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

OpLayer = Callable[[str, str], List[tuple]]


def _union(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _clusters(datasets):
    out = []
    for d in sorted(datasets, key=lambda d: d["start"]):
        if out and d["start"] < out[-1]["end"]:
            out[-1]["end"] = max(out[-1]["end"], d["end"])
            out[-1]["members"].append(d)
        else:
            out.append(dict(start=d["start"], end=d["end"], members=[d]))
    return out


def self_times(tracer: Tracer, root_id: int, op_layer: OpLayer) -> Dict[str, float]:
    """Per-layer self seconds for the span ``root_id`` and everything
    under it. ``op_layer(span_name, op_name)`` maps one Ray Data operator
    (seen under the named benchmark span) to ``[(layer, seconds_key)]``
    pairs, where ``seconds_key`` is ``"wall"`` (task wall time),
    ``"udf"`` (UDF time) or ``"io"`` (wall minus UDF, for fused reads)."""
    by_id = {s["id"]: s for s in tracer.spans}
    children = defaultdict(list)
    for s in tracer.spans:
        children[s["parent"]].append(s)
    ds_under = defaultdict(list)
    for d in tracer.datasets:
        ds_under[d["parent"]].append(d)

    out: Dict[str, float] = defaultdict(float)

    def visit(span):
        kids = children[span["id"]]
        dss = ds_under[span["id"]]
        covered = _union([(k["start"], k["end"]) for k in kids]
                         + [(d["start"], d["end"]) for d in dss])
        out[span["layer"]] += max(0.0, span["end"] - span["start"] - covered)
        for c in _clusters(dss):
            dur = c["end"] - c["start"]
            busy: Dict[str, float] = defaultdict(float)
            for d in c["members"]:
                for op in d["ops"]:
                    for layer, key in op_layer(span["name"], op["name"]):
                        v = op["wall"] - op["udf"] if key == "io" else op[key]
                        busy[layer] += max(0.0, v)
            total = sum(busy.values())
            scale = dur / total if total > dur else 1.0
            for layer, v in busy.items():
                out[layer] += v * scale
            out["ray.overhead_s"] += max(0.0, dur - total)
        for k in kids:
            visit(k)

    visit(by_id[root_id])
    return dict(out)


def descends(tracer: Tracer, sid: Optional[int], root_id: int) -> bool:
    """True when span ``sid`` is ``root_id`` or lies under it."""
    parent_of = {s["id"]: s["parent"] for s in tracer.spans}
    while sid is not None:
        if sid == root_id:
            return True
        sid = parent_of.get(sid)
    return False


def ops_under(tracer: Tracer, root_id: int) -> List[tuple]:
    """(span name, op record) for every operator executed under the span."""
    name_of = {s["id"]: s["name"] for s in tracer.spans}
    return [(name_of[d["parent"]], op) for d in tracer.datasets
            if descends(tracer, d["parent"], root_id) for op in d["ops"]]


def span_seconds(tracer: Tracer, root_id: int, name: str) -> float:
    """Total duration of spans called ``name`` under ``root_id``."""
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["name"] == name and descends(tracer, s["id"], root_id))


# ---------------------------------------------------------------------------
# host readings
# ---------------------------------------------------------------------------

def timed_burn(iters: int = 3_000_000) -> float:
    """Single-core pure-bytecode burn (same loop as bench.py's)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iters):
        x = (x * 3 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def memcpy_gb_per_s(mb: int = 64, reps: int = 5) -> float:
    import numpy as np

    src = np.ones(mb << 20, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return (mb / 1024) / best


def session_pids() -> List[int]:
    """The benchmark process and every Ray worker process (``ray::*``:
    task workers and actors). Ray's own daemons are left out."""
    me = os.getpid()
    pids = [me]
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    pids.append(int(name))
        except OSError:
            continue
    return pids


def cpu_by_pid() -> Dict[int, float]:
    """On-CPU seconds so far of each of :func:`session_pids`, from
    ``/proc/<pid>/schedstat``, which leaves out time the hypervisor gave
    to other guests."""
    out = {}
    for pid in session_pids():
        try:
            with open(f"/proc/{pid}/schedstat") as f:
                out[pid] = int(f.read().split()[0]) / 1e9
        except (OSError, IndexError, ValueError):
            continue
    return out


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds spent between two :func:`cpu_by_pid` readings; a
    process that started in between counts in full, one that ended in
    between not at all."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


class RssSampler:
    """Peak of the summed resident set size of the driver and every Ray
    worker process (``ray::*``), sampled from /proc inside a ``with``
    block; each block starts a new peak."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> int:
        total = 0
        for pid in session_pids():
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                continue
        self.peak_bytes = max(self.peak_bytes, total)
        return total

    def _loop(self):
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self):
        self.peak_bytes = 0
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self._stop.clear()
        self.sample()
