"""Span recorder for the traced benchmark run.

The package imports its functions by name (``from .tensor import lsvd``), so
wrapping a function in its defining module alone would miss most calls.
``Recorder.patched`` rebinds each traced name in every ``pmtc`` module that
holds the original object, and restores the originals on exit.  The package
itself is not modified.

Each call of a traced function becomes one span: name, start, end, parent
span and operation id.  Spans stay in memory until ``write`` dumps them as
JSON lines.  ``summary`` derives calls, inclusive time, self time (inclusive
time minus the time covered by direct child spans), and the sum and maximum
of each counter that the observers attach at the call boundary.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    op: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class Stats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)

    def peak(self, key: str) -> float:
        return self.peaks.get(key, 0.0)


class Recorder:
    """Collects spans for calls into the package's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``targets``, a list of ``(module, function, span name, observer)``.

        An observer receives ``(args, kwargs, result)`` of each call and
        returns a dict of counters for its span, or is None.
        """
        undo = []
        try:
            for module, fname, name, observe in targets:
                original = getattr(sys.modules[module], fname)
                traced = self._wrap(name, original, observe)
                for modname, mod in list(sys.modules.items()):
                    if modname.split(".")[0] == "pmtc" and getattr(mod, fname, None) is original:
                        setattr(mod, fname, traced)
                        undo.append((mod, fname, original))
            yield self
        finally:
            for mod, fname, original in reversed(undo):
                setattr(mod, fname, original)

    def _ancestors(self, span: Span):
        while span.parent >= 0:
            span = self.spans[span.parent]
            yield span

    def summary(self, ops: set[str]) -> dict[str, Stats]:
        """Per-name statistics over the spans of the operations in ``ops``."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out: dict[str, Stats] = {}
        for span, child_s in zip(self.spans, covered):
            if span.op not in ops:
                continue
            st = out.setdefault(span.name, Stats())
            st.calls += 1
            st.inclusive_s += span.end - span.start
            st.self_s += span.end - span.start - child_s
            for key, value in span.counts.items():
                st.counts[key] = st.counts.get(key, 0.0) + value
                st.peaks[key] = max(st.peaks.get(key, value), value)
        return out

    def group_s(self, ops: set[str], prefix: str, exclude_under: str) -> float:
        """Inclusive time of the outermost spans named ``prefix*``, leaving out
        spans nested inside a span named ``exclude_under``."""
        total = 0.0
        for span in self.spans:
            if span.op not in ops or not span.name.startswith(prefix):
                continue
            names = [a.name for a in self._ancestors(span)]
            if exclude_under in names or any(n.startswith(prefix) for n in names):
                continue
            total += span.end - span.start
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "op": span.op, "parent": span.parent,
                    "start": span.start, "end": span.end, **span.counts,
                }) + "\n")
