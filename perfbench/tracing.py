"""In-memory spans around the benchmark's own calls into the package.

A span has a name ``<layer>.<call>``, a start, an end and the span that
caused it.  A span's self time is its duration minus the time its child
spans cover, so the self times of one tree add up to its root's duration.
Spans are kept in memory and turned into metrics when the operation ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("scenario", "params", "galerkin", "integrate", "diagnostics")


@dataclass
class Span:
    name: str
    alias: str | None
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced operation.

    ``alias`` gives a span a second metric name for a break-out, such as the
    differential check's dt/2 rerun of ``integrate``; the span still counts
    toward the layer of its own name.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, alias: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, alias, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def metrics(self, root: str) -> dict[str, float]:
        """Self times per span name (``<name>_s``), per layer
        (``<layer>.self_s``, spans under ``root`` only), counters, error
        counts, and the root's wall time and attributed share."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        root_wall = 0.0
        for i, s in enumerate(self.spans):
            self_s = s.duration - child_time[i]
            out[s.name + "_s"] += self_s
            if s.alias:
                out[s.alias + "_s"] += self_s
            if s.name == root:
                root_wall += s.duration
            elif self._top(i) == root:
                out[s.name.split(".", 1)[0] + ".self_s"] += self_s
        attributed = sum(out[layer + ".self_s"] for layer in LAYERS)
        out["trace.op_wall_s"] = root_wall
        out["trace.attributed_frac"] = attributed / root_wall if root_wall > 0 else 0.0
        out.update(self.counts)
        for layer in LAYERS:
            out[layer + ".errors"] = self.errors.get(layer, 0)
        return dict(out)

    def _top(self, i: int) -> str:
        while self.spans[i].parent is not None:
            i = self.spans[i].parent
        return self.spans[i].name
