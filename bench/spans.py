"""Spans held in memory: one per call into a layer, with its parent.

A span is a dict with id, name, start and end (perf_counter nanoseconds,
CLOCK_MONOTONIC, so comparable across processes), parent, workload and
any counters the caller adds. A layer's self time is its duration minus
the time its child spans cover.
"""

import contextlib
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self, workload, parent=None):
        self.workload = workload
        self.spans = []
        self._open = [parent]

    @contextlib.contextmanager
    def span(self, name, **counters):
        rec = {"id": f"{os.getpid()}.{len(self.spans)}", "name": name,
               "parent": self._open[-1], "workload": self.workload,
               "start": time.perf_counter_ns(), "end": None, **counters}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        except Exception as e:
            rec["error"] = f"{type(e).__name__}: {e}"
            raise
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def seconds(span):
    return (span["end"] - span["start"]) / 1e9


def self_times(spans):
    """{(workload, name): (calls, total_s, self_s)} over all spans.

    Children of one span run one after another, so the time they cover is
    the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += seconds(s)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[(s["workload"], s["name"])]
        row[0] += 1
        row[1] += seconds(s)
        row[2] += max(seconds(s) - covered[s["id"]], 0.0)
    return {key: tuple(row) for key, row in out.items()}
