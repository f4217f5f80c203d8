"""The one recorder of the benchmark's calls into conedge.

A span is [name, start, end, parent].  ``span`` opens one around each call
the benchmark makes into a conedge module and always records it: the
end-to-end latencies (solve time, decisions per second) are read from
these spans with tracing off too.  ``phase`` opens one around a phase of
the benchmark's own (layer ``bench``) and records it only while ``phases``
is on, which is what ``--trace 1`` adds: with the phases every call span
has a parent, and the spans of a repetition form one tree from which self
times follow.

The layer of a span is the first dotted component of its name
(``cones.contains`` is in layer ``cones``).  Spans stay in memory until
``dump`` writes them out; a stretch of the run is the index range between
two ``mark`` calls.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL_SPAN = nullcontext()


class Tracer:
    def __init__(self, phases: bool = False):
        self.phases = phases
        self.spans: list[list] = []    # [name, start, end, parent index]
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def phase(self, name: str):
        return _Span(self, name) if self.phases else _NULL_SPAN

    def mark(self) -> int:
        return len(self.spans)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer self time over spans lo..hi-1: each span's duration
        minus the durations of its direct children."""
        child_sum = dict.fromkeys(range(lo, hi), 0.0)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent in child_sum:
                child_sum[parent] += end - start
        out: dict[str, float] = {}
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_sum[i]
        return out

    def by_name(self, ranges) -> dict[str, list[tuple[float, float]]]:
        """(start, end) of every span in the given index ranges, by name."""
        out: dict[str, list[tuple[float, float]]] = {}
        for lo, hi in ranges:
            for name, start, end, _ in self.spans[lo:hi]:
                out.setdefault(name, []).append((start, end))
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
