"""Span tracer that times library functions from outside the package.

Each traced function is replaced, under the name its caller looks up, by a
wrapper that records one span: a name, a start, an end and the span that
was open when it began (its parent).  Callers import names into their own
module namespace (``training`` calls ``backward``, not
``models.backward``), so a function is patched at every call site that
should be timed, not only where it is defined.

Spans are kept in flat arrays until the run ends; :meth:`Tracer.summary`
then gives calls, total time and self time (total minus the time covered
by child spans) per span name.  :meth:`Tracer.restore` puts every original
back.  A function that no longer exists is recorded in ``absent`` and
skipped, so the tracer outlives refactors of the code it times.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.counts: dict[str, float] = {}

    def wrap(self, module, attr: str, span: str, count=None) -> None:
        """Replace ``module.attr`` by a timing wrapper recording spans named ``span``.

        ``count(counts, args, result)``, when given, runs after the call
        returns and adds to the ``counts`` dict (rows, cells, weights).
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        span_id = self._ids[span]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every original function back; spans recorded so far are kept."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> tuple[dict[str, SpanStats], float]:
        """Per-name calls, total and self time, plus the summed top-level span time.

        The summed self time of all spans equals the summed duration of the
        top-level spans (those with no parent).
        """
        n = len(self._start)
        k = len(self.names)
        if n == 0:
            return {name: SpanStats(0, 0.0, 0.0) for name in self.names}, 0.0
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        nested = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[nested], dur[nested])
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        stats = {
            self.names[i]: SpanStats(int(calls[i]), float(total[i]), float(own[i]))
            for i in range(k)
        }
        return stats, float(dur[~nested].sum())


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from timing a traced no-op."""
    clock = time.perf_counter
    target = SimpleNamespace(noop=lambda: None)
    t0 = clock()
    for _ in range(calls):
        target.noop()
    bare = clock() - t0
    probe = Tracer()
    probe.wrap(target, "noop", "probe")
    try:
        t0 = clock()
        for _ in range(calls):
            target.noop()
        traced = clock() - t0
    finally:
        probe.restore()
    return max(0.0, (traced - bare) / calls)
