"""Span tracer that times certias' public functions from outside.

``Tracer.install`` replaces every module-level binding of each target
function inside the ``certias`` package with a timing wrapper: the defining
module and every module that imported the name (``certifier.is_empty``,
``lpp.solve_lp``, ``validation.run`` and so on). Calls resolve module
globals at call time, so every call path goes through a wrapper.

Spans are kept in memory in per-thread column buffers, with a per-thread
nesting stack giving each span its parent; nothing is shared between threads
while tracing, so no lock is taken on the hot path. A span's self time is
its duration minus the durations of its direct children on the same thread.
Work a function hands to a pool thread therefore counts as the caller's self
time (it is waiting), and as the pool thread's own spans.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs to time; module names are relative to certias.
TARGETS = (
    ("geometry", "solve_lp"),
    ("geometry", "phase1_measure"),
    ("geometry", "is_empty"),
    ("geometry", "remove_redundant"),
    ("geometry", "project_fm"),
    ("geometry", "contains"),
    ("lpp", "lift_partition_project"),
    ("mpqp", "subproblem_maps"),
    ("solver", "run"),
    ("solver", "step"),
    ("certifier", "partition_step"),
    ("certifier", "certify"),
    ("validation", "validate_conformance"),
    ("analysis", "sweep"),
    ("analysis", "slack_profile"),
    ("cli", "main"),
)

class _Buffer:
    """Spans recorded by one thread, as parallel columns."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.fid = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.rows_in = 0
        self.rows_out = 0
        self.fm_rows_out = 0
        self.empty = 0
        self.working_sets: set = set()
        # Problems seen by subproblem_maps, held so that their ids stay unique.
        self.problems: dict[int, object] = {}


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.bindings: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.fid)
            buf.fid.append(fid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.stack.append(idx)
            buf.t1.append(0.0)
            t0 = perf_counter()
            buf.t0.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.t1[idx] = perf_counter()
                buf.stack.pop()
            if count is not None:
                count(buf, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target inside the certias package."""
        import certias  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "certias" or n.startswith("certias."))]
        for fid, (mod, fn_name) in enumerate(TARGETS):
            original = getattr(sys.modules[f"certias.{mod}"], fn_name)
            wrapper = self._wrap(fid, original)
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        count += 1
            self.bindings[self.names[fid]] = count

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as arrays; parent indexes are global span indexes."""
        fid, parent, t0, t1, thread = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            n = len(buf.fid)
            p = np.frombuffer(buf.parent, dtype=np.int64, count=n).copy()
            p[p >= 0] += offset
            fid.append(np.frombuffer(buf.fid, dtype=np.int32, count=n))
            parent.append(p)
            t0.append(np.frombuffer(buf.t0, dtype=np.float64, count=n))
            t1.append(np.frombuffer(buf.t1, dtype=np.float64, count=n))
            thread.append(np.full(n, buf.thread, dtype=np.int32))
            offset += n
        cat = (lambda parts, dt: np.concatenate(parts) if parts else np.zeros(0, dt))
        return {"fid": cat(fid, np.int32), "parent": cat(parent, np.int64),
                "t0": cat(t0, np.float64), "t1": cat(t1, np.float64),
                "thread": cat(thread, np.int32)}

    def total_calls(self, name: str) -> int:
        fid = self.names.index(name)
        return sum(buf.fid.count(fid) for buf in self._buffers)

    def save(self, path) -> None:
        """Write every span, with the function-name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer statistics, counts and times divided by n_ops."""
        col = self.columns()
        fid, parent = col["fid"], col["parent"]
        dur = col["t1"] - col["t0"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.self_s"] = self_s[i] / n_ops
        steps = dur[fid == self.names.index("certifier.partition_step")]
        out["certifier.partition_step.p50_s"] = (
            float(np.percentile(steps, 50)) if steps.size else 0.0)
        out["certifier.partition_step.p99_s"] = (
            float(np.percentile(steps, 99)) if steps.size else 0.0)
        bufs = self._buffers
        out["geometry.remove_redundant.rows_in"] = sum(b.rows_in for b in bufs) / n_ops
        out["geometry.remove_redundant.rows_out"] = sum(b.rows_out for b in bufs) / n_ops
        out["geometry.project_fm.rows_out"] = sum(b.fm_rows_out for b in bufs) / n_ops
        n_empty_tests = calls[self.names.index("geometry.is_empty")]
        out["geometry.is_empty.empty_ratio"] = (
            sum(b.empty for b in bufs) / n_empty_tests if n_empty_tests else 0.0)
        n_maps = calls[self.names.index("mpqp.subproblem_maps")]
        distinct = set().union(*(b.working_sets for b in bufs)) if bufs else set()
        out["mpqp.subproblem_maps.distinct_ratio"] = (
            len(distinct) / n_maps if n_maps else 0.0)
        return out


def _count_remove_redundant(buf, args, out):
    buf.rows_in += args[0].nrows
    buf.rows_out += out.nrows


def _count_project_fm(buf, args, out):
    buf.fm_rows_out += out.nrows


def _count_is_empty(buf, args, out):
    buf.empty += bool(out)


def _count_subproblem_maps(buf, args, out):
    buf.problems[id(args[0])] = args[0]
    buf.working_sets.add((id(args[0]), tuple(int(i) for i in args[1])))


_COUNTERS = {
    "geometry.remove_redundant": _count_remove_redundant,
    "geometry.project_fm": _count_project_fm,
    "geometry.is_empty": _count_is_empty,
    "mpqp.subproblem_maps": _count_subproblem_maps,
}
