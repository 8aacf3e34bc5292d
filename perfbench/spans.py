"""Spans recorded by the benchmark around its calls into satlink.

A span has a name, a start, an end, the span that was open when it began
(its parent), the run unit it belongs to (``warmup``, ``setup2``,
``pass5``, ...) and optional counts such as rows in.  Spans stay in memory
and are written out once, when the run ends.

When tracing is off, :meth:`Tracer.call` is a plain call, so the untimed
and timed code paths are the same apart from the span bookkeeping.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Optional

Counter = Optional[Callable[[tuple, dict, object], dict]]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.unit = "none"
        # Each span: [name, unit, parent index or -1, start, end, counts].
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, counts: Counter = None, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span[5] = counts(args, kwargs, result)
        return result

    @contextmanager
    def span(self, name: str):
        """A span around a block; yields the span record (None when off)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, self.unit, parent, perf_counter(), None, {}]
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span[4] = perf_counter()
            self._open.pop()

    @contextmanager
    def patched(self, patches: Iterable[tuple[object, str, str, Counter]]):
        """Route calls made inside satlink through spans.

        Each patch is ``(module, attribute, span name, counter)``.  The
        module attribute is replaced by a wrapper while the block runs and
        restored afterwards, so calls one satlink function makes into
        another (``forecast_route`` into ``encode_features``, say) become
        child spans without any change to satlink itself.
        """
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for module, attr, name, counter in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name: str, fn: Callable, counter: Counter) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counter, **kwargs)

        return traced

    def self_times(self, units: set[str]) -> dict[str, dict]:
        """Per span name over the given units: self seconds, inclusive
        seconds, number of spans and summed counts.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap, because the benchmark is one thread.
        """
        child_s = [0.0] * len(self.spans)
        for name, unit, parent, start, end, counts in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, unit, parent, start, end, counts) in enumerate(self.spans):
            if unit not in units:
                continue
            agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "counts": {}})
            agg["self_s"] += (end - start) - child_s[i]
            agg["total_s"] += end - start
            agg["calls"] += 1
            for key, value in counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "unit", "parent", "start", "end", "counts"],
                    "spans": self.spans,
                },
                fh,
            )
