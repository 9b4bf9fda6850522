"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: `patched` swaps public
functions on their modules or classes for timing wrappers and puts the
originals back on exit.  Each span stores its name, start, end, parent
span and request id.  Every thread owns a buffer of columns and a stack
of open spans, so recording takes no lock.  `reduce_spans` turns the
buffers into per-name counts, inclusive times and self times, less the
cost of the wrappers themselves, which `span_cost_ns` measures.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
from array import array
from time import perf_counter_ns

import numpy as np


class _ThreadBuffer:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}


class SpanRecorder:
    """Per-thread span columns plus counters keyed by metric name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        # set by the driving thread before each request; worker threads
        # started by the package read it, since the loop is closed
        self.request = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, name_id: int) -> tuple[_ThreadBuffer, int]:
        buf = self.buffer()
        idx = len(buf.start)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.request.append(self.request)
        buf.end.append(0)
        buf.stack.append(idx)
        buf.start.append(perf_counter_ns())
        return buf, idx

    @staticmethod
    def finish(buf: _ThreadBuffer, idx: int) -> None:
        buf.end[idx] = perf_counter_ns()
        buf.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        buf, idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(buf, idx)

    def count(self, key: str, n: float) -> None:
        counts = self.buffer().counts
        counts[key] = counts.get(key, 0) + n

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for buf in self._buffers:
            for k, v in buf.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parents index into the same arrays."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "request", "main_thread")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n]
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int64)[:n])
            cols["start"].append(np.frombuffer(buf.start, dtype=np.int64)[:n])
            cols["end"].append(np.frombuffer(buf.end, dtype=np.int64)[:n])
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["request"].append(np.frombuffer(buf.request, dtype=np.int64)[:n])
            cols["main_thread"].append(np.full(n, buf.is_main))
            offset += n
        return {
            k: np.concatenate(v) if v else np.zeros(0, dtype=bool if k == "main_thread" else np.int64)
            for k, v in cols.items()
        }

    def save(self, path) -> None:
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def timed(rec: SpanRecorder, name: str, fn, count=None):
    """Wrap `fn` in a span; `count(rec, args, kwargs, result)` adds counters."""
    nid = rec.name_id(name)
    begin, finish = rec.begin, rec.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        buf, idx = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(buf, idx)
        if count is not None:
            count(rec, args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def patched(rec: SpanRecorder, targets):
    """Swap each (owner, attribute, span name, counter) for a timing wrapper.

    Class methods are rebound as class methods so `Cls.meth(...)` keeps
    working; the originals are restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, count in targets:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(timed(rec, name, raw.__func__, count))
            else:
                wrapped = timed(rec, name, raw, count)
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def span_cost_ns(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Wrapper cost per span, as (inside, outside) the span's own interval.

    Both are measured on a wrapped no-op against the bare no-op: `inside`
    is what a span's duration adds to the call it times, `outside` is the
    time the wrapper costs its caller around that interval, which lands in
    the parent span's self time.  Medians over `repeats` loops.
    """
    rec = SpanRecorder()

    def noop():
        return None

    wrapped = timed(rec, "noop", noop)
    inside, outside = [], []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = perf_counter_ns() - t0
        buf = rec.buffer()
        first = len(buf.start)
        t0 = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        total = perf_counter_ns() - t0
        spans = sum(buf.end[first:]) - sum(buf.start[first:])
        inside.append(max(spans - bare, 0) / calls)
        outside.append(max(total - spans, 0) / calls)
    return statistics.median(inside), statistics.median(outside)


def adopt_worker_roots(cols: dict) -> tuple[np.ndarray, np.ndarray]:
    """Parents with each worker thread's root spans hung under their cause.

    A span that opens a worker thread's stack belongs to the main-thread
    root span of the same request that was open when it started, such as
    the `cli.simulate` command whose thread pool ran it.  Returns the new
    parent array and the indices of the adopted spans.
    """
    parent = cols["parent"].copy()
    start, end, request = cols["start"], cols["end"], cols["request"]
    roots_by_request: dict[int, list[int]] = {}
    for i in np.flatnonzero(cols["main_thread"] & (parent < 0)):
        roots_by_request.setdefault(int(request[i]), []).append(int(i))
    adopted = []
    for i in np.flatnonzero(~cols["main_thread"] & (parent < 0)):
        for r in roots_by_request.get(int(request[i]), ()):
            if start[r] <= start[i] <= end[r]:
                parent[i] = r
                adopted.append(int(i))
                break
    return parent, np.array(adopted, dtype=np.int64)


def covered_ns(starts: np.ndarray, ends: np.ndarray) -> int:
    """Length of the union of intervals."""
    order = np.argsort(starts, kind="stable")
    total, cur_start, cur_end = 0, None, None
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    return total + (cur_end - cur_start if cur_end is not None else 0)


def reduce_spans(rec: SpanRecorder, cost_ns: tuple[float, float] = (0.0, 0.0)) -> dict:
    """Per-name span count, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Children on the span's own thread nest on its stack and
    never overlap, so their durations add up; children adopted from
    worker threads run in parallel, so for their parent the union of all
    its children's intervals is subtracted instead.  With `cost_ns` from
    `span_cost_ns`, self time also leaves out the wrapper's cost inside
    the span and, per same-thread child, outside the child; it is never
    below 0.
    """
    cols = rec.columns()
    n = len(cols["start"])
    dur_ns = cols["end"] - cols["start"]
    parent, adopted = adopt_worker_roots(cols)
    has_parent = parent >= 0
    inside, outside = cost_ns
    child_ns = np.bincount(parent[has_parent], weights=dur_ns[has_parent] + outside, minlength=n)
    for p in np.unique(parent[adopted]):
        kids = np.flatnonzero(parent == p)
        child_ns[p] = covered_ns(cols["start"][kids], cols["end"][kids])
    dur = dur_ns.astype(float) * 1e-9
    self_s = np.maximum(dur_ns - child_ns - inside, 0.0) * 1e-9
    k = len(rec.names)
    calls = np.bincount(cols["name"], minlength=k)
    incl = np.bincount(cols["name"], weights=dur, minlength=k)
    excl = np.bincount(cols["name"], weights=self_s, minlength=k)
    by_name = {
        name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
        for i, name in enumerate(rec.names)
    }
    return {"by_name": by_name, "cols": cols, "dur": dur, "self": self_s}
