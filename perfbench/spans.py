"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent)``, where ``parent`` is the index
of the enclosing span or -1. Spans are kept in memory and written once,
when the run ends. A disabled tracer hands out one shared no-op context,
so the untraced run pays almost nothing for the ``with`` statements.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _OFF

    @contextmanager
    def _record(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self._open.append(index)
        self.spans.append(None)
        start = perf_counter()
        try:
            yield
        finally:
            # a tuple of atoms drops out of the garbage collector's scans
            self.spans[index] = (name, start, perf_counter(), parent)
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to `self_seconds` for the spans recorded after now."""
        return len(self.spans)

    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Self time per span name, over the spans recorded since ``since``:
        each span's duration minus the part its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans[since:], start=since):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump(
                {**header, "fields": ["name", "start", "end", "parent"], "spans": self.spans},
                f,
            )
