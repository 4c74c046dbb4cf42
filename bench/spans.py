"""In-memory span recorder that wraps functions from outside the program.

A span is (name, unit, start, end, parent): `unit` is the index of the
benchmark unit (one request) the span belongs to, `parent` the index of the
enclosing span or -1.  Spans stay in a list until the run ends.  A span's
self time is its duration minus the durations of its direct children; since
one thread runs the calls one after another, children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Counting work done on a return value is recorded under this name, so it
# lands in no layer's self time.
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()   # (span name, counter) -> total
        self.unit = 0
        self._stack = []

    def wrap(self, name, fn, counter=None):
        """fn wrapped in a span; counter(result, args, kwargs) -> {key: int}
        runs after the span has ended."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # tuples of atoms, which the garbage collector stops tracking:
                # a run holds many spans and must not slow the passes after it
                spans[idx] = (name, self.unit, start, end, parent)
            self.counts[name, "calls"] += 1
            if counter is not None:
                start = perf_counter()
                for key, value in counter(return_value, args, kwargs).items():
                    self.counts[name, key] += value
                spans.append((COUNT_SPAN, self.unit, start, perf_counter(), parent))
            return return_value

        return traced

    @contextmanager
    def installed(self, targets, modules):
        """Wrap each (span name, module, attribute, counter) target under
        every name that any of `modules` binds to the same function, and
        restore the originals on exit."""
        patches = []
        try:
            for name, module, attr, counter in targets:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield
        finally:
            for mod, key, value in reversed(patches):
                setattr(mod, key, value)

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return dict(out)

    def write(self, path):
        """Spans as JSON lines: name, unit, start, end, parent."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
