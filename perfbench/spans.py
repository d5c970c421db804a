"""In-memory span tracer for the benchmark's traced repetition.

The tracer replaces a public function at the module (or class) attribute its
caller looks up, so a call made through that name opens a span. Spans are
plain lists `[name, start, end, parent]` (perf_counter seconds, parent index
or -1) held in memory until the run ends. Nothing inside `tapc` is changed:
the wrappers are installed for one repetition and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: `owner.attr` is replaced while tracing.

    `count`, when given, maps the call's return value to counter increments,
    so counts are taken where the work happens.
    """

    name: str
    owner: object
    attr: str
    count: Callable[[object], dict] | None = None


@contextlib.contextmanager
def patched(owner, attr: str, wrap: Callable[[Callable], Callable]):
    """Replace `owner.attr` by `wrap(original)` and restore it on exit."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Callable[[object], dict] | None = None):
        """Run `fn(*args, **kwargs)` inside a span called `name`."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            for key, inc in count(result).items():
                self.counts[key] = self.counts.get(key, 0) + inc
        return result

    def _wrapper(self, target: Target):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(target.name, fn, args, kwargs, target.count)
            return traced
        return wrap

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        with contextlib.ExitStack() as stack:
            for t in targets:
                stack.enter_context(patched(t.owner, t.attr, self._wrapper(t)))
            yield self

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def dump(self, path):
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
