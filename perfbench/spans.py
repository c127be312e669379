"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent) around one call into the package.
Calls are wrapped by replacing the attribute where the caller looks the
function up (a module global or a class method), so the package itself
carries no tracing code.  The package is single-threaded, so one stack of
open spans gives each span its parent.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """Records spans into flat arrays; nothing is written until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module global or class method) by a
        traced wrapper until unpatch()."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        """Write every span and the name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls are synchronous), so the
    part of the interval they cover is the sum of their durations.
    """
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=duration.size)
    return duration - child


class SpanTable:
    """Aggregates over recorded spans, by span name and by parent name."""

    def __init__(self, names: list[str], name_id: np.ndarray, parent: np.ndarray,
                 start: np.ndarray, end: np.ndarray):
        self.names = list(names)
        self.name_id = name_id
        self.duration = end - start
        self.self_time = self_times(parent, self.duration)
        parent_name = np.full(name_id.size, -1, dtype=np.int64)
        has_parent = parent >= 0
        parent_name[has_parent] = name_id[parent[has_parent]]
        self.parent_name = parent_name

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        return cls(tracer.names, **tracer.arrays())

    def _select(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        sel = self.name_id == self.names.index(name)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            sel &= self.parent_name == pid
        return sel

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._select(name, parent).sum())

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed inclusive seconds."""
        return float(self.duration[self._select(name, parent)].sum())

    def self_total(self, name: str, parent: str | None = None) -> float:
        """Summed self seconds (children excluded)."""
        return float(self.self_time[self._select(name, parent)].sum())
