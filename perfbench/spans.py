"""In-memory span recorder for the traced runs.

A span is (name, start, end, parent, run id, attrs).  Spans are opened only
from the benchmark's own files, around calls into the package; the package
itself is not instrumented.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """Records nested spans; ``run_id`` tags every span opened until changed."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as one span; yields its attrs dict for the caller to fill."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = [name, 0.0, 0.0, parent, self.run_id, attrs]
        self.spans.append(rec)
        self._open.append(idx)
        rec[START] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def of_run(self, run_id: str) -> list[list]:
        return [s for s in self.spans if s[RUN] == run_id]

    def self_times(self, run_id: str) -> dict[str, float]:
        """Self time per span name over the spans of one run."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[RUN] == run_id:
                totals[s[NAME]] += s[END] - s[START] - child[i]
        return dict(totals)

    def dump(self, path, stamp: dict) -> None:
        rows = [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "run": s[RUN], **({"attrs": s[ATTRS]} if s[ATTRS] else {})}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stamp": stamp, "spans": rows}, fh)
            fh.write("\n")


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs

    def call(self, name: str, fn, *args):
        return fn(*args)
