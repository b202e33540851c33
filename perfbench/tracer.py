"""In-memory span tracer, independent of the program it traces.

A span records (name, start, end, parent, job).  Spans stay in memory until
the run ends.  Counts go to the innermost open span.  A span's self time is
its duration minus the part of it that its child spans cover.  Spans whose
name starts with ``trace.`` are the tracer's own bookkeeping: their time is
taken out of every enclosing span's duration.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, COUNTS = range(6)

# Spans of leaf work.  Their calls and time are attributed to the nearest
# enclosing span that is not a leaf, their "owner".
LEAVES = frozenset({"rhs", "jac", "lu.factor", "lu.solve", "mesh.restrict",
                    "trace.lu_nnz"})


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.job, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans closed out of order")
        self._stack.pop()
        self.spans[index][END] = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, key: str, n=1, index: int | None = None) -> None:
        """Add n to ``key`` on span ``index``, by default the innermost open
        one."""
        if index is None:
            if not self._stack:
                raise RuntimeError("count outside any span")
            index = self._stack[-1]
        record = self.spans[index]
        if record[COUNTS] is None:
            record[COUNTS] = Counter()
        record[COUNTS][key] += n

    def wrap(self, fn, name, label=None, after=None):
        """``fn`` inside a span.  ``label(args, kwargs)`` picks the span name
        when given; ``after(result, args, kwargs)`` runs inside the span, so
        its counts land on it."""
        def traced(*args, **kwargs):
            index = self.open(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self.close(index)
        traced.__wrapped__ = fn
        return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanTable:
    """Per-span derived times for every span a tracer recorded.

    duration excludes nested ``trace.*`` time; self_time is the duration
    minus child coverage; owner is the nearest non-leaf ancestor's index.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        children = defaultdict(list)
        for k, s in enumerate(spans):
            if s[END] is None:
                raise ValueError(f"span {s[NAME]!r} never closed")
            if s[PARENT] is not None:
                children[s[PARENT]].append(k)
        bookkeeping = [0.0] * len(spans)
        for k in range(len(spans) - 1, -1, -1):
            for c in children[k]:
                bookkeeping[k] += (spans[c][END] - spans[c][START]
                                   if spans[c][NAME].startswith("trace.")
                                   else bookkeeping[c])
        self.duration = [s[END] - s[START] - bookkeeping[k]
                         for k, s in enumerate(spans)]
        self.self_time = [
            s[END] - s[START] - _covered(
                [(spans[c][START], spans[c][END]) for c in children[k]],
                s[START], s[END])
            for k, s in enumerate(spans)]
        self.owner = []
        for s in spans:
            parent = s[PARENT]
            while parent is not None and spans[parent][NAME] in LEAVES:
                parent = spans[parent][PARENT]
            self.owner.append(parent)

    def select(self, jobs) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s[JOB] in jobs]


class LayerSums:
    """Sums over the selected spans, keyed by span name and by owner."""

    def __init__(self, table: SpanTable, jobs):
        spans = table.spans
        self.time = defaultdict(float)       # name -> summed duration
        self.self_time = defaultdict(float)  # name -> summed self time
        self.calls = Counter()               # name -> spans
        self.counts = defaultdict(Counter)   # name -> counts on its spans
        self.leaf_time = defaultdict(float)  # (owner name, leaf) -> time
        self.leaf_calls = Counter()          # (owner name, leaf) -> calls
        self.leaf_max = defaultdict(Counter)  # (owner name, leaf) -> maxima
        for k in table.select(jobs):
            name = spans[k][NAME]
            self.time[name] += table.duration[k]
            self.self_time[name] += table.self_time[k]
            self.calls[name] += 1
            counts = spans[k][COUNTS] or {}
            for key, n in counts.items():
                self.counts[name][key] += n
            if name in LEAVES:
                owner = table.owner[k]
                pair = (None if owner is None else spans[owner][NAME], name)
                self.leaf_time[pair] += table.duration[k]
                self.leaf_calls[pair] += 1
                for key, n in counts.items():
                    self.leaf_max[pair][key] = max(self.leaf_max[pair][key], n)

    def over(self, names, field: str, key=None) -> float:
        """Sum of one field over several span names."""
        source = getattr(self, field)
        return sum(source[n][key] if key else source[n] for n in names)

    def leaf(self, owners, leaf: str, calls: bool = False):
        source = self.leaf_calls if calls else self.leaf_time
        return sum(source[o, leaf] for o in owners)
