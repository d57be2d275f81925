"""Spans recorded around the harness's calls into thresholdkit.

Nothing here reaches inside the package: a span starts when the harness
calls one of the package's public functions and ends when that call
returns.  Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Parent of a span that has none.
ROOT = -1


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent, item]``: start and end are
    ``perf_counter`` readings, parent is the index of the enclosing span
    (or ROOT) and item is the id of the workload item being processed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        record = [name, perf_counter(), 0.0, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def root_of(self, index: int) -> str:
        """Name of the outermost span enclosing span ``index``."""
        while self.spans[index][3] != ROOT:
            index = self.spans[index][3]
        return self.spans[index][0]

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """Calls and busy seconds per span name, split by outermost span.

        Returns ``{name: {root: {"calls": n, "busy_s": s}}}``; root is
        ``harness.item`` for the item's own work, ``harness.check`` for the
        correctness checks and ``harness.probe`` for the separately timed LP.
        """
        out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "busy_s": 0.0}))
        for index, (name, start, end, _parent, _item) in enumerate(self.spans):
            cell = out[name][self.root_of(index)]
            cell["calls"] += 1
            cell["busy_s"] += end - start
        return out

    def write(self, path, origin: float) -> None:
        """One JSON object per line; times in seconds after ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "item": item,
                }) + "\n")
