"""In-memory spans for the traced run.

The traced run wraps public entry points of the program from outside (see
:func:`wrap`).  Each span records a name, a start, an end, its parent span,
an op id (training step or request slot) and the phase of the run it fell
in.  Spans live in per-thread lists while the run goes on, so recording
takes no lock, and are merged and written out once at the end.

A span's parent is the innermost span open on the same thread when it
started.  Self time is a span's duration minus the durations of its
children; children of one parent never overlap because they share a
thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

_START, _END, _NAME, _PARENT, _OP, _PHASE = range(6)


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase = "setup"
        self._local = threading.local()
        self._threads: List[List[list]] = []
        self._register = threading.Lock()

    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.op = -1
            with self._register:
                self._threads.append(spans)
        return spans, local.stack

    def set_op(self, op: int) -> None:
        """Op id given to this thread's root spans opened from now on."""
        self._state()
        self._local.op = op

    def open(self, name: str, op: int = -1, start: Optional[float] = None) -> list:
        """Open a span on this thread; it becomes the parent of later ones.

        Without an explicit ``op`` a span takes its parent's op id, or the
        thread's :meth:`set_op` value when it has no parent.
        """
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        if op == -1:
            op = spans[parent][_OP] if parent >= 0 else self._local.op
        record = [
            self.clock() if start is None else start,
            None,
            name,
            parent,
            op,
            self.phase,
        ]
        stack.append(len(spans))
        spans.append(record)
        return record

    def close(self, record: list) -> None:
        """Close the innermost open span (which must be ``record``)."""
        record[_END] = self.clock()
        self._local.stack.pop()

    def discard(self, record: list) -> None:
        """Drop an open span that turned out not to happen (and its children)."""
        spans, stack = self._state()
        index = stack.pop()
        del spans[index:]

    def table(self) -> "SpanTable":
        """All closed spans merged into columns (parents re-indexed globally)."""
        starts, ends, names, parents, ops, phases = [], [], [], [], [], []
        with self._register:
            threads = list(self._threads)
        for spans in threads:
            offset = len(starts)
            for record in spans:
                starts.append(record[_START])
                ends.append(record[_END] if record[_END] is not None else np.nan)
                names.append(record[_NAME])
                parent = record[_PARENT]
                parents.append(parent + offset if parent >= 0 else -1)
                ops.append(record[_OP])
                phases.append(record[_PHASE])
        return SpanTable(starts, ends, names, parents, ops, phases)


class SpanTable:
    """Column view of a finished trace with self-time bookkeeping."""

    def __init__(self, starts, ends, names, parents, ops, phases) -> None:
        self.start = np.asarray(starts, dtype=np.float64)
        self.end = np.asarray(ends, dtype=np.float64)
        self.name = np.asarray(names, dtype=object)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.op = np.asarray(ops, dtype=np.int64)
        self.phase = np.asarray(phases, dtype=object)
        self.duration = self.end - self.start
        covered = np.zeros(len(self.start))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.start)

    def select(self, name: str, phase: Optional[str] = None,
               parent_name: Optional[str] = None) -> np.ndarray:
        """Indices of spans called ``name`` (optionally in a phase, under a parent)."""
        mask = self.name == name
        if phase is not None:
            mask &= self.phase == phase
        if parent_name is not None:
            parent_names = np.where(
                self.parent >= 0, self.name[np.maximum(self.parent, 0)], None
            )
            mask &= parent_names == parent_name
        return np.flatnonzero(mask)

    def names(self) -> List[str]:
        return sorted(set(self.name.tolist()))

    def write(self, path: Path) -> Path:
        """Write the spans as JSON columns (times in seconds, relative)."""
        origin = float(np.nanmin(self.start)) if len(self) else 0.0
        payload: Dict[str, list] = {
            "name": self.name.tolist(),
            "start_s": np.round(self.start - origin, 9).tolist(),
            "end_s": np.round(self.end - origin, 9).tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "phase": self.phase.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


def wrap(tracer: Tracer, owner: type, attr: str, name, *,
         when: Optional[Callable[[object], bool]] = None):
    """Replace ``owner.attr`` with a span-recording wrapper; returns an undo.

    ``name`` is a span name or a callable ``(self, args) -> name`` (``None``
    skips the span).  ``when(self)`` false calls straight through.
    """
    had_own = attr in owner.__dict__
    original = getattr(owner, attr)
    naming = name if callable(name) else None

    def wrapper(self, *args, **kwargs):
        if when is not None and not when(self):
            return original(self, *args, **kwargs)
        span_name = naming(self, args) if naming is not None else name
        if span_name is None:
            return original(self, *args, **kwargs)
        record = tracer.open(span_name)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.close(record)

    wrapper.__name__ = getattr(original, "__name__", attr)
    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)

    def undo() -> None:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    return undo


@contextmanager
def installed(undos: List[Callable[[], None]]) -> Iterator[None]:
    """Run the undo callables (in reverse) when the block exits."""
    try:
        yield
    finally:
        for undo in reversed(undos):
            undo()
