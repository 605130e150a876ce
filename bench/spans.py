"""In-memory span recording by rebinding functions of the shapelift modules.

A ``Tracer`` wraps chosen functions (and methods) so that each call records
a span ``[name, start, end, parent, facts]``.  Spans stay in a list until the
benchmark writes them out; nothing is logged while the traced code runs.

Rebinding is done from outside the program: every ``shapelift`` module
attribute that is the original function object is replaced by the wrapper,
so ``from .linalg import least_squares`` aliases are traced as well.
``uninstall`` puts every original back, and ``leftover_wrappers`` proves it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Facts that add up over calls; every other fact keeps its last value.
ADDITIVE_FACTS = ("bytes", "flops_computed")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._bound = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, label, facts):
        def traced(*args, **kwargs):
            index = self._open(name if label is None else f"{name}.{label(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if facts is not None:
                self.spans[index][4] = facts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.bench_traced = True
        return traced

    def install(self, targets):
        """Wrap each ``(owner, attr, label, facts)``; owner is a module or class.

        ``label(args, kwargs)`` appends a suffix to the span name and
        ``facts(args, kwargs, result)`` returns a dict stored on the span.
        """
        for owner, attr, label, facts in targets:
            original = owner.__dict__[attr]
            prefix = getattr(owner, "__name__", "")
            if isinstance(owner, type):
                prefix = owner.__module__
            name = f"{prefix.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(original, name, label, facts)
            holders = [owner] if isinstance(owner, type) else _shapelift_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._bound.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._bound:
            holder, key, original = self._bound.pop()
            setattr(holder, key, original)


def _shapelift_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "shapelift" or name.startswith("shapelift."))]


def leftover_wrappers(classes=()) -> list:
    """Names of module or class attributes that are still tracing wrappers."""
    found = []
    for holder in [*_shapelift_modules(), *classes]:
        for key, value in vars(holder).items():
            if getattr(value, "bench_traced", False):
                found.append(f"{getattr(holder, '__name__', holder)}.{key}")
    return found


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    result = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for kid in kids:  # children open in order, so they come sorted by start
            low, high = max(spans[kid][1], reach), min(spans[kid][2], end)
            if high > low:
                covered += high - low
                reach = high
        result.append(end - start - covered)
    return result


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and facts."""
    stats = {}
    for (name, start, end, _, facts), own in zip(spans, self_times(spans)):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        for key, value in (facts or {}).items():
            entry[key] = entry.get(key, 0) + value if key in ADDITIVE_FACTS else value
    return stats


def self_time_gaps(spans) -> dict:
    """Per root span: its duration minus the self times of its whole tree.

    Every gap is zero up to rounding when each span lies inside its parent
    and siblings do not overlap; a span that escapes its parent or overlaps
    a sibling makes the gap negative.
    """
    root_of, gaps = [], {}
    for index, ((_, start, end, parent, _), own) in enumerate(zip(spans, self_times(spans))):
        root = index if parent is None else root_of[parent]
        root_of.append(root)
        if parent is None:
            gaps[root] = end - start
        gaps[root] -= own
    return {spans[root][0]: gap for root, gap in gaps.items()}


def span_records(spans) -> list:
    origin = spans[0][1] if spans else 0.0
    return [{"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "facts": facts}
            for name, start, end, parent, facts in spans]
