"""Span recording around the benchmark's calls into each layer.

:class:`Timer` is the untraced recorder: it only sums the seconds spent in
each named span, which the end-to-end metrics need. :class:`Tracer` also
keeps every span (name, start, end, parent and the design it belongs to)
in memory, so the traced run can report each layer's self time and write
the spans out as a Chrome trace-event file at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Spans with this name count IR sizes from outside the layers. They are
#: not part of the design flow, so flow time excludes them.
PROBE = "probe.ir"


class Timer:
    """Sums host seconds per span name; keeps nothing else."""

    traced = False

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start


@dataclass
class Span:
    name: str
    design: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        # Spans of one thread nest without overlap, so the children's
        # summed durations are exactly the part of this span they cover.
        return self.seconds - self.child_seconds


class Tracer(Timer):
    """A :class:`Timer` that also keeps every span for the trace file."""

    traced = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.design = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.design, perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._open.pop()
            self.seconds[name] += record.seconds
            if parent is not None:
                self.spans[parent].child_seconds += record.seconds

    def self_seconds(self, first: int = 0) -> Dict[str, float]:
        """Self time per span name over the spans recorded since ``first``."""
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans[first:]:
            totals[record.name] += record.self_seconds
        return dict(totals)

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ("X" complete) event."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": s.design,
                    "parent": None if s.parent is None else self.spans[s.parent].name,
                    "self_us": s.self_seconds * 1e6,
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
