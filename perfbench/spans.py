"""In-memory spans and counts around calls into the package's public functions.

The tracer patches attributes of the package's modules and classes from the
benchmark's own files; the package itself carries no tracing. Spans are kept
in memory (name, start, end, parent span, request id) and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.request = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._open.append(i)
        try:
            yield i
        finally:
            self.spans[i][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None, before=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper. ``count(counts, args,
        result, state)`` adds counts after the call; ``before(args)`` computes
        ``state`` before it."""
        raw = owner.__dict__[attr] if attr in vars(owner) else getattr(owner, attr)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            with self.span(name):
                out = fn(*args, **kwargs)
            if count:
                count(self.counts, args, out, state)
            return out

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # --------------------------------------------------------------- reading
    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans ``first..``: a span's
        duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, t0, t1, _, _ = self.spans[i]
            out[name] += (t1 - t0) - child[i]
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "request": req}) + "\n")
