"""In-memory span tracing for the traced benchmark run.

A span is one call of a wrapped entry point: its name, its parent span
and its start and end time.  Spans are kept in four flat arrays while
the run goes (one ``array`` element each, no object per span) and
written out when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover; spans nest by call
stack, so that is the duration minus the summed durations of the direct
children (:func:`self_times`).

The tracer keeps one span stack, so every wrapped call must come from
one thread.  The benchmark drives each engine from its main thread.
"""

from __future__ import annotations

import pickle
import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Callable

#: Marks a function this module wrapped (so it is never wrapped twice).
TRACED = "_perfbench_traced"


class Tracer:
    """Records spans; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: rows delivered per span name, for entry points given a row count
        self.rows: dict[int, int] = {}
        self._stack: list[int] = [-1]
        self._owners: list[object] = [None]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.rows[nid] = 0
        return nid

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self.name_id(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._owners.append(None)
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._owners.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        owner: object = None,
        rows: Callable[[tuple], int] | None = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``owner`` (an operator instance) suppresses spans for calls made
        while a span of the same owner is open: a base-class shim that
        replays a batch through the operator's own per-event entry point
        is one delivery, not many.  ``rows`` maps the call's positional
        arguments to the number of rows it delivers.
        """
        nid = self.name_id(name)
        stack, owners = self._stack, self._owners
        name_of, parent = self.name_of, self.parent
        start, end = self.start, self.end
        row_counts = self.rows
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if owner is not None and owners[-1] is owner:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if rows is not None:
                row_counts[nid] += rows(args)
            stack.append(idx)
            owners.append(owner)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                owners.pop()

        traced.__wrapped__ = fn
        setattr(traced, TRACED, True)
        return traced

    def dump(self, path) -> None:
        """Write every span (and the name table) to ``path``."""
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "names": self.names,
                    "name_of": self.name_of,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "rows": self.rows,
                },
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )


_NO_SPAN = nullcontext()


def maybe_span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context without a tracer."""
    return tracer.span(name) if tracer is not None else _NO_SPAN


def self_times(parent, start, end) -> array:
    """Each span's duration minus the durations of its direct children.

    Spans are indexed in opening order, so a parent always precedes its
    children; ``parent[i]`` is ``-1`` for a root.
    """
    own = array("d", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def roots(parent) -> array:
    """The root span index of every span."""
    out = array("q")
    for i, p in enumerate(parent):
        out.append(i if p < 0 else out[p])
    return out
