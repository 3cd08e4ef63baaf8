"""Spans, attribute patching and the statistics helpers of the benchmark.

Nothing here imports bbsolve: the tracer wraps whatever callables it is
given, and ``layers.py`` decides which bbsolve functions to wrap.

A span is one call across a layer boundary, kept in memory as the tuple
``(name id, start, end, parent index, run id)`` and written out once, when
the run ends. Calls are single-threaded and strictly nested, so the child
spans of a span never overlap and the time they cover is the sum of their
durations.
"""

import csv
import gzip
import math
from time import perf_counter


class Patches:
    """Replaces module attributes and class methods, and puts them back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Records a span per wrapped call, plus counters kept at the same boundary.

    ``leaf`` wrappers are for calls too frequent to keep a span each (a
    scalar cost evaluation takes a few microseconds): they add their count
    and time to a total, and their time to what the enclosing span's
    children cover.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.covered = {}  # span index -> time covered by leaf calls
        self.leaf_totals = {}  # name -> [calls, seconds]
        self.counts = {}  # counter name -> total
        self.run_id = 0
        self._stack = []
        self.t0 = perf_counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def innermost(self):
        """Name of the innermost open span, or None outside every span."""
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]]

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name, fn, on_exit=None):
        """``fn`` wrapped in a span; ``on_exit(args)`` may update counters."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((nid, 0.0, 0.0, parent, self.run_id))
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.run_id)
                if on_exit is not None:
                    on_exit(args)

        return wrapper

    def leaf(self, name, fn):
        totals = self.leaf_totals.setdefault(name, [0, 0.0])
        covered, stack = self.covered, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                totals[0] += 1
                totals[1] += took
                if stack:
                    covered[stack[-1]] = covered.get(stack[-1], 0.0) + took

        return wrapper

    def layer_totals(self):
        """name -> (calls, total seconds, self seconds) over all spans."""
        selfs = self_times(self.spans, self.covered)
        out = {}
        for (nid, start, end, _, _), own in zip(self.spans, selfs):
            calls, total, self_s = out.get(self.names[nid], (0, 0.0, 0.0))
            out[self.names[nid]] = (calls + 1, total + (end - start), self_s + own)
        return out

    def write_spans(self, path):
        """Write the spans as gzipped CSV, times in seconds from tracer start."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run"])
            for idx, (nid, start, end, parent, run) in enumerate(self.spans):
                writer.writerow(
                    [idx, self.names[nid], repr(start - self.t0), repr(end - self.t0), parent, run]
                )


def self_times(spans, covered=None):
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` holds ``(name id, start, end, parent index, run id)`` tuples
    with parent -1 at the top; ``covered`` maps a span index to extra time
    covered by children that kept no span of their own.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    for idx, seconds in (covered or {}).items():
        out[idx] -= seconds
    return out


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
