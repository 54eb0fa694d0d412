"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code around calls into each
layer; the program itself is not modified.  A span is
``(name, start, end, parent, op)``: ``parent`` indexes the enclosing
span (``-1`` at the top) and ``op`` identifies the operation the span
belongs to.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Span tree of one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        """Record a span named ``name`` around the ``with`` body."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span measured elsewhere (e.g. on a client thread)."""
        self.spans.append([name, start, end, -1, self.op])

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        spanned wrapper; returns a function that restores the original.

        ``on_result`` sees each call's return value (to read counts off
        it).  A missing attribute raises, so a renamed layer entry point
        fails the traced run instead of silently going unmeasured.
        """
        if isinstance(owner, dict):
            get, put = owner.__getitem__, owner.__setitem__
        else:
            get = lambda key: getattr(owner, key)  # noqa: E731
            put = lambda key, value: setattr(owner, key, value)  # noqa: E731
        original = get(attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        put(attr, spanned)
        return lambda: put(attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[k]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, child spans included."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
