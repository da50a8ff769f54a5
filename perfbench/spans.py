"""Outside-in tracing: spans and counts recorded around calls into the
program's public functions, by replacing the names where the calling module
imported them.  Nothing in the program changes.

A span is ``(name, start, end, parent, query)``; times are
``time.perf_counter()`` seconds, ``parent`` is the index of the enclosing
span or -1, and ``query`` is the timed query's index in the run.  Spans stay
in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query = -1
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` recording a span ``name``; ``count(tracer, result)`` runs
        after the span closes, so counting costs no span time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, *self.spans[idx][3:])
            if count is not None:
                count(self, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, count: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a module global or a classmethod) with its
        traced version."""
        wrapped = self.wrap(getattr(owner, attr), name, count)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)

    def total_ms(self, name: str) -> float:
        return sum(e - s for (n, s, e, _p, _q) in self.spans if n == name) * 1e3

    def self_ms(self, name: str) -> float:
        """Summed duration of the ``name`` spans minus the time their direct
        children cover (children run one after another on one thread)."""
        child = defaultdict(float)
        for (_n, s, e, p, _q) in self.spans:
            if p >= 0:
                child[p] += e - s
        return sum(
            (e - s) - child[i] for i, (n, s, e, _p, _q) in enumerate(self.spans) if n == name
        ) * 1e3

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for (n, s, e, p, q) in self.spans:
                f.write(json.dumps({"name": n, "start": s, "end": e, "parent": p, "query": q}) + "\n")
            f.write(json.dumps({"counts": self.counts}) + "\n")
