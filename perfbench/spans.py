"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call of a wrapped function: its name, the thread it ran on,
start and end on ``time.perf_counter``, and the span that caused it. Each
thread keeps its own stack of open spans, so calls running at once on a
thread pool nest under their own callers. A call that opens first on a
thread other than the main one is attributed to the span open on the main
thread at that moment, which is the code that handed the work to the pool.

Spans stay in memory until :meth:`Tracer.dump` writes them out, so the
traced program does no extra I/O while it runs.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (calls from a thread pool); the union
    of their intervals, clipped to the parent's, is what gets subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(clipped)
    return out


class Tracer:
    """Wraps functions so that every call records a span and, optionally,
    adds to named counters from the call's arguments and result."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def _parent_for(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if threading.get_ident() == threading.main_thread().ident:
            return None
        # a slice, not main[-1]: the main thread may pop between test and read
        top = self._stacks.get(threading.main_thread().ident, [])[-1:]
        return top[0] if top else None

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after a call that
        returned, outside the span's timed interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span_id = next(self._ids)
            parent = self._parent_for(stack)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, tid, start, end, parent))
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets: dict, hooks: dict | None = None) -> None:
        """Wrap ``package.<module>.<function>`` for every pair in ``targets``
        at every module attribute of the package that binds the original,
        so names re-imported with ``from .x import f`` are covered too.

        A module or function that does not exist is recorded in
        ``missing`` and reports zero calls.
        """
        hooks = hooks or {}
        originals = {}
        for module, functions in targets.items():
            try:
                mod = importlib.import_module(f"{package}.{module}")
            except ImportError:
                mod = None
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                originals[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path) -> None:
        payload = {
            "spans": [
                [s.id, s.name, s.thread, s.start, s.end, s.parent]
                for s in sorted(self.spans, key=lambda s: s.id)
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load(path) -> tuple[list[Span], dict[str, float], list[str]]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spans = [Span(*row) for row in payload["spans"]]
    return spans, payload["counts"], payload["missing"]
