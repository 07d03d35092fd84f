"""Spans and runtime counters recorded from outside the program.

The benchmark wraps each call into a layer of the program in a span;
the program itself is not instrumented.  Spans are kept in memory and
written out once, when the run ends.  A disabled tracer records
nothing, so untraced runs pay for one branch per call.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: name, start, end, parent and trace id.

    Spans opened inside another span become its children and inherit
    its trace id, so every span of one pass (or one serve cycle)
    shares the id given to the pass's root span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, trace: str = None, **attrs):
        """Record the enclosed block as span ``name``; ``trace`` names
        a root span's trace id, ``attrs`` are stored on the span."""
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "trace": trace if parent is None else parent["trace"],
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def self_times(self) -> dict:
        """Return ``{trace id: {span name: summed self seconds}}``.

        A span's self time is its duration minus the durations of its
        direct children, which never overlap (spans nest on one
        thread).
        """
        child_s = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        out = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_s.get(span["id"], 0.0)
            by_name = out.setdefault(span["trace"], {})
            by_name[span["name"]] = by_name.get(span["name"], 0.0) + own
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write the recorded spans (start order) and ``meta`` as JSON."""
        spans = sorted(self.spans, key=lambda span: span["start"])
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": spans}, handle)
            handle.write("\n")


class GcMeter:
    """Counts garbage collections and their pause time via gc.callbacks.

    Collection runs with the interpreter lock held, so a start/stop
    pair never interleaves with another, whichever thread triggers it.
    A disabled meter installs no callback.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.pause_s = 0.0
        self.collections = 0
        self._started = None

    def __enter__(self) -> "GcMeter":
        if self.enabled:
            gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None
