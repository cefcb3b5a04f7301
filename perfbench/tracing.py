"""Span tracing from outside the program: wrap public layer entry points.

The benchmark's traced pass replaces the attributes that callers inside
``repro`` actually look up (a class method, a module-level name bound by
``from … import …``) with thin wrappers that record one span per call —
name, start, end and the span that caused it — and restores the originals
afterwards.  Nothing in ``src/`` knows it is being traced.

Spans live in memory as flat columns and are written out once, at the end
(:meth:`Tracer.write`).  :func:`layer_table` reduces them to calls, total
time and self time per layer, where a span's self time is its duration minus
the part of it that its child spans cover (children may overlap in time when
worker threads run in parallel, so covered time is a union of intervals).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """An in-memory span recorder shared by every thread of the process.

    Each thread keeps its own stack of open spans.  A thread whose stack is
    empty parents its spans to :attr:`adopt` when set — the benchmark's
    closed-loop HTTP client sets it to its in-flight request span, so the
    server's handler and worker threads attribute their work to the request
    that caused it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        #: Counters recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)
        self.adopt: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (-1 if self.adopt is None else self.adopt)
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            self.span_start.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, on_call=None) -> None:
        """Trace every call through ``owner.attr`` as a span called ``name``.

        ``owner`` is a class or a module that defines ``attr`` itself.
        Class-level ``classmethod`` objects are unwrapped and re-wrapped so
        the binding still works.  ``on_call(args, kwargs, result, error)``
        runs after each call, inside the span's thread, to record counters.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result = error = None
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(index)
                if on_call is not None:
                    on_call(args, kwargs, result, error)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------------

    def write(self, path: Path, origin: float) -> None:
        """Write every span as columns, times in microseconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "name": self.span_name,
            "start_us": [round((t - origin) * 1e6) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6) for t in self.span_end],
            "parent": self.span_parent,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_table(tracer: Tracer) -> tuple[dict[str, dict[str, float]], float]:
    """Per-layer ``{calls, total_s, self_s}`` and the time covered by root spans.

    ``total_s`` counts a span only when no ancestor belongs to the same
    layer, so a layer that re-enters itself (a replicate group running its
    rows) is not counted twice.
    """
    names = tracer.span_name
    starts = tracer.span_start
    ends = tracer.span_end
    parents = tracer.span_parent
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    roots: list[tuple[float, float]] = []
    for index, parent in enumerate(parents):
        if parent < 0:
            roots.append((starts[index], ends[index]))
        else:
            children[parent].append((starts[index], ends[index]))
    table: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names
    }
    for index, name_id in enumerate(names):
        entry = table[tracer.names[name_id]]
        duration = ends[index] - starts[index]
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(children.get(index, []))
        ancestor = parents[index]
        while ancestor >= 0 and names[ancestor] != name_id:
            ancestor = parents[ancestor]
        if ancestor < 0:
            entry["total_s"] += duration
    return table, _covered(roots)
