"""Spans around the benchmark's calls into qfbsde, and the per-layer table.

The benchmark calls the library only through the namespace that
:meth:`Tracer.bind` returns.  A disabled tracer hands back the library's own
functions, so untraced runs execute exactly the code a user would.  An
enabled tracer wraps each function in a span (name, start, end, parent span,
run id) kept in memory and written out when the benchmark ends.  Spans are
taken at the library's public boundary only; nothing inside ``src/`` is
instrumented.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    """In-memory span recorder; with ``enabled=False`` it wraps nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._origin = perf_counter()

    def wrap(self, name: str, fn, *, count_points: bool = False):
        """``fn`` itself when disabled, else ``fn`` inside a span ``name``.

        ``count_points`` records the row count of the second argument, which
        is how the drift wrappers count the states they are evaluated at.
        """
        if not self.enabled or fn is None:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": perf_counter() - self._origin}
            if count_points:
                span["points"] = int(len(args[1]))
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = perf_counter() - self._origin

        return traced

    def bind(self, table: dict) -> SimpleNamespace:
        """Namespace ``attr -> wrapped callable`` from ``{attr: (span, fn)}``."""
        return SimpleNamespace(**{attr: self.wrap(span, fn)
                                  for attr, (span, fn) in table.items()})

    def timed_problem(self, problem):
        """The problem with its drift and drift Jacobian wrapped in spans.

        The wrap sits at the forward layer's boundary (whatever callable
        the problem carries), so the counts stay meaningful when the drift's
        implementation changes.  Disabled, the problem is returned as is.
        """
        if not self.enabled:
            return problem
        return problem.with_drift(
            self.wrap("forward.drift", problem.drift, count_points=True),
            gradient=self.wrap("forward.drift_jacobian",
                               problem.drift_gradient, count_points=True))

    def seconds(self, run_id: str, name: str) -> float:
        """Summed duration of the spans called ``name`` in one run."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["run"] == run_id and s["name"] == name)

    def count(self, run_id: str, name: str, field: str | None = None) -> int:
        """Number of spans ``name`` in one run, or the sum of ``field``."""
        return sum(1 if field is None else s[field] for s in self.spans
                   if s["run"] == run_id and s["name"] == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"time_origin": "seconds since tracer creation",
                       "spans": self.spans}, fh)


def median_table(tables: list[dict]) -> dict:
    """Per-key median over several metric tables with the same keys."""
    return {k: statistics.median(t[k] for t in tables) for k in tables[0]}
