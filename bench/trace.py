"""Span recorder for the benchmark's traced runs.

A traced run wraps public functions of the program at the bindings their
callers look up (``repro.service.host.run_batched_masks``, not the
definition in ``repro.engine.batched``), so the program is unchanged and
an untraced run executes none of this code.  Every call through a
wrapped binding records one span: name, start, end, parent span, thread
id and the op id the workload set (the round, arrival, pass, chunk or
seed being timed), plus shape and byte counts read from the call's
arguments.  Spans stay in memory until :meth:`Recorder.write` dumps them
as JSON lines.

Parents are tracked per thread, so a kernel tile running on a pool
thread is a top-level span of that thread.  Self time is a span's
duration minus its children's, per thread; summing a name's self time
over every thread gives its busy time, which for tile kernels can exceed
the wall time they ran in.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: Optional[int]
    attrs: Dict[str, int]


class _Open:
    """One span being recorded; closes when the ``with`` block ends."""

    __slots__ = ("recorder", "name", "attrs", "stack", "id", "parent",
                 "start")

    def __init__(self, recorder: "Recorder", name: str, attrs):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.stack = stack = self.recorder._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.recorder._ids)
        stack.append(self.id)
        self.start = time.perf_counter()

    def __exit__(self, *_exc):
        end = time.perf_counter()
        self.stack.pop()
        recorder = self.recorder
        # A plain tuple in Span's field order: cheaper than a Span.
        recorder._raw.append((
            self.id, self.name, self.start, end, self.parent,
            threading.get_ident(), recorder.op, self.attrs,
        ))


class Recorder:
    """Collects spans from wrapped bindings and from explicit blocks."""

    def __init__(self):
        self._raw: List[tuple] = []
        #: Op id stamped on every span; set by the workload per op and
        #: read by tile threads too, which run inside the op.
        self.op: Optional[int] = None
        #: ``module:attr`` -> ``"wrapped"`` or ``"absent"``.
        self.bindings: Dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @property
    def spans(self) -> List[Span]:
        """Every span recorded so far."""
        return [Span._make(raw) for raw in self._raw]

    def span(self, name: str) -> _Open:
        """Record the enclosed ``with`` block as one span."""
        return _Open(self, name, {})

    def wrap(self, target: str, name: str,
             measure: Optional[Callable[..., Dict[str, int]]] = None) -> None:
        """Record a span around every call through ``target``.

        ``target`` is ``"package.module:attr"`` or
        ``"package.module:Class.method"``.  ``measure(*args, **kwargs)``
        returns counts to attach to the span.  A binding that does not
        exist is noted as ``absent`` and left alone, so the same
        benchmark runs on commits that removed or renamed internals.
        """
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.bindings[target] = "absent"
            return
        recorder = self

        def traced(*args, **kwargs):
            attrs = measure(*args, **kwargs) if measure is not None else {}
            with _Open(recorder, name, attrs):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        self.bindings[target] = "wrapped"

    def restore(self) -> None:
        """Put every wrapped binding back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Dump the spans as JSON lines, times relative to the first."""
        spans = sorted(self.spans, key=lambda span: span.start)
        origin = spans[0].start if spans else 0.0
        with open(path, "w") as handle:
            for span in spans:
                record = {
                    "id": span.id, "name": span.name,
                    "start": span.start - origin, "end": span.end - origin,
                    "parent": span.parent, "thread": span.thread,
                    "op": span.op,
                }
                record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, threads, attr sums.

    Self time is computed within each span's own thread (children always
    share their parent's thread) and then summed over threads.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start
            )
    table: Dict[str, Dict[str, float]] = {}
    threads: Dict[str, set] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span.end - span.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span.id, 0.0)
        for key, value in span.attrs.items():
            row[key] = row.get(key, 0) + value
        threads.setdefault(span.name, set()).add(span.thread)
    for name, row in table.items():
        row["threads"] = len(threads[name])
    return table
