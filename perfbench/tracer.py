"""In-memory spans recorded around calls into the library's public layers.

A span holds its name, start and end (CLOCK_MONOTONIC seconds), the index
of the span that encloses it, the run id of the iteration it belongs to,
and how much the process's peak RSS grew while it was open. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import List, Optional


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int
    maxrss_growth_mb: float
    source: str = "call"  # "call": timed here; "timings": from PipelineResult.timings

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.run_id = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id, 0.0))
        self._open.append(index)
        rss = maxrss_mb()
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._open.pop()
            s = self.spans[index]
            s.start, s.end, s.maxrss_growth_mb = start, end, maxrss_mb() - rss

    def add_child(self, parent: int, name: str, start: float, end: float) -> None:
        """Record a span measured by the library itself, inside ``parent``."""
        self.spans.append(Span(name, start, end, parent, self.run_id, 0.0, "timings"))

    def self_times(self) -> List[float]:
        """Duration minus the time covered by direct children (which nest
        and do not overlap)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                row = asdict(s)
                row["self_s"] = self_s
                fh.write(json.dumps(row) + "\n")
