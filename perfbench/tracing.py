"""In-memory span recorder for the traced benchmark run.

A span is (name, parent span, trial id, start, end), with times from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so spans timed in a
child process line up with the parent's).  Spans are appended to flat
arrays while the run is going and written out once, at the end.  Self time
is a span's duration minus the durations of its direct children; it is
meaningful only where children do not overlap (a span whose children ran
on two threads at once gets a negative self time).

The recorder times calls into the package from the outside only; it is not
thread-safe, so work timed on another thread is added afterwards with
``record``.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.trial = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        #: Trial id stamped on every span opened from now on.
        self.trial_id = -1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.trial.append(self.trial_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(sid)

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Add a span timed elsewhere (another thread or process)."""
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.trial.append(self.trial_id)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return sid

    def __len__(self) -> int:
        return len(self.start)

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trial=np.frombuffer(self.trial, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class SpanTable:
    """Spans as numpy columns, with self times derived."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.trial = np.frombuffer(tracer.trial, dtype=np.int64).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur = end - start
        has_parent = self.parent >= 0
        child_sum = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_ns = self.dur - child_sum

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total_self_ns(self, name: str, where: np.ndarray | None = None) -> float:
        m = self.mask(name)
        if where is not None:
            m &= where
        return float(self.self_ns[m].sum())

    def durations_ns(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def per_trial_ns(self, name: str) -> dict[int, float]:
        """Summed duration of ``name`` spans, keyed by trial id."""
        m = self.mask(name)
        out: dict[int, float] = {}
        for trial, dur in zip(self.trial[m].tolist(), self.dur[m].tolist()):
            out[trial] = out.get(trial, 0.0) + dur
        return out
