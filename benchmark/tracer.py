"""Span tracer that times calls into declab from outside the package.

A traced function is replaced, for the duration of a `with tracer.active():`
block, by a wrapper bound under the same name in every loaded `declab`
module that holds it. Rebinding only the defining module would miss callers
that imported the name with `from ... import` (verify, for instance, binds
`schatten_norm` and `perm_operator` that way). The originals are put back
when the block exits.

Spans are kept in memory as (name, start, end, parent) and written out with
`dump`/`write`. A span's self time is its duration minus the durations of
its direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._targets: list = []
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, after=None):
        """A traced version of `fn`.

        `name` is a span name, or a callable (args, kwargs) -> span name.
        `after(tracer, fn, args, kwargs, result)` runs once the span has
        closed and returns the result handed back to the caller.
        """
        static_id = None if callable(name) else self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = static_id if static_id is not None else self._name_id(name(args, kwargs))
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((nid, 0.0, 0.0, parent))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                result = after(self, fn, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def add(self, module: str, attr: str, name, after=None) -> None:
        """Register `declab.<module>.<attr>` to be traced under `name`."""
        self._targets.append((module, attr, name, after))

    @contextmanager
    def active(self):
        """Rebind every registered function while the block runs."""
        if self._saved:
            raise RuntimeError("tracer is already active")
        try:
            for module, attr, name, after in self._targets:
                original = getattr(importlib.import_module(f"declab.{module}"), attr)
                wrapper = self.wrap(original, name, after)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "declab" or mod_name.startswith("declab.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(self._saved):
                setattr(mod, key, original)
            self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"names": list(self.names), "spans": [list(s) for s in self.spans],
                "counters": dict(self.counters)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def span_stats(dump: dict) -> dict:
    """Per span name: call count, total self time (s) and inclusive durations (s)."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict] = {}
    for i, (nid, t0, t1, _parent) in enumerate(spans):
        entry = stats.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_time[i]
        entry["durations"].append(t1 - t0)
    return stats
