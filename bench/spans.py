"""In-memory spans around calls into extlasso's layers.

The tracer times the program from outside.  While tracing, each public
function registered with `instrument` is rebound in every loaded extlasso
module that holds it, so calls the program makes internally (for example
`solve_cell_trial` calling `cell_instance`, which calls `gen_instance`)
open spans too.  `stop` puts the original functions back, so untraced
rounds run exactly the program's own code.

A span records its name, start, end, parent span and trial; a layer's self
time is its spans' durations minus the parts covered by their child spans.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []          # [name, start, end, parent, trial, counts]
        self._stack = []
        self._trial = -1
        self._wanted = []        # (function, span name, counts)
        self._patched = []       # (module, attribute, original)

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self._trial, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def trial(self, trial_id: int):
        """Root span of one trial; every span opened inside belongs to it."""
        if not self.enabled:
            return nullcontext()
        self._trial = trial_id
        return self._span("trial")

    def count(self, name: str, value: float) -> None:
        """Add a count to the innermost open span."""
        if self.enabled and self._stack:
            counts = self.spans[self._stack[-1]][5]
            counts[name] = counts.get(name, 0) + value

    # -- instrumentation -------------------------------------------------
    def instrument(self, func, name: str, counts=None) -> None:
        """Register `func` to run inside a span called `name` while tracing.

        `counts(result)` may return {counter: value} recorded on the span."""
        self._wanted.append((func, name, counts))

    def start(self) -> None:
        """Rebind every registered function in each extlasso module that
        holds it, and record spans until `stop`."""
        for func, name, counts in self._wanted:
            traced = self._traced(func, name, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "extlasso" and \
                        getattr(mod, func.__name__, None) is func:
                    setattr(mod, func.__name__, traced)
                    self._patched.append((mod, func.__name__, func))
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched.clear()

    def _traced(self, func, name, counts):
        def traced(*args, **kwargs):
            with self._span(name) as span_counts:
                result = func(*args, **kwargs)
                if counts is not None:
                    span_counts.update(counts(result))
                return result
        return traced

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        child = defaultdict(float)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _, counts) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "counts": {}})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
            for key, v in counts.items():
                s["counts"][key] = s["counts"].get(key, 0) + v
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "trial", "counts")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "summary": self.summary()}, fh)
