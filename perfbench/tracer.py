"""Wrapper-based tracing of the iquantum layers, installed from outside.

The tracer replaces a function at every module that holds a binding to it
(``shapes.expand`` and ``klr.expand`` are separate bindings from
``qring.expand``), and replaces methods on their class.  ``remove`` puts every original back.

Two kinds of wrapper exist.  A *span* wrapper records one span per call:
name, start, end, parent span, item id, and the time spent in leaf calls
directly under it.  A *leaf* wrapper is for the hottest functions (RatQ runs
about 12k times per pairing block) and aggregates in place: a call count
and the self time, with no per-call record.  A span called from inside a
leaf is counted as a leaf, so leaf time never hides a span.

Self time of a span is its duration minus its child spans minus its direct
leaf time (``span_self_times``); self time of a leaf is its duration minus
the wrapped calls it made.  Nothing here imports the package, so a child
process can load it before timing ``import iquantum.cli``.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

SPAN = "span"
LEAF = "leaf"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` of module ``module``, or of its class
    ``owner``, reported under ``metric``.  A leaf's ``observe(extra, args,
    kwargs, result)`` updates its extra counters."""

    module: str
    attr: str
    metric: str
    kind: str = LEAF
    owner: str | None = None
    observe: Callable | None = None


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    item: int
    leaf_s: float


@dataclass
class LeafStats:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus child spans minus the leaf
    time recorded directly under it."""
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent in child:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] - s.leaf_s for s in spans}


class Tracer:
    """Install wrappers for ``targets`` with ``install``; undo with ``remove``."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.leaves: dict[str, LeafStats] = {}
        self.item = -1
        # frame = [time of direct leaf children, span id or None for a leaf]
        self._stack: list[list] = [[0.0, 0]]
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, fn, metric: str, observe):
        stats = self.leaves.setdefault(metric, LeafStats())
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                stats.calls += 1
                stats.self_s += dur - frame[0]
            if observe is not None:
                observe(stats.extra, args, kwargs, out)
            return out

        return wrapper

    def _span(self, fn, metric: str):
        as_leaf = self._leaf(fn, metric, None)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            if parent is None:
                return as_leaf(*args, **kwargs)
            sid = self._next
            self._next += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append(Span(sid, metric, t0, t1, parent, self.item, frame[0]))

        return wrapper

    @contextlib.contextmanager
    def open_item(self, item: int, name: str = "item"):
        """One benchmark item: a root span that its calls nest in."""
        self.item = item
        sid = self._next
        self._next += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, t0, t1, 0, item, frame[0]))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            home = sys.modules[t.module]
            if t.owner is not None:
                cls = getattr(home, t.owner)
                orig = cls.__dict__[t.attr]
                sites = [(cls, t.attr)]
            else:
                orig = getattr(home, t.attr)
                sites = binding_sites(orig)
            if t.kind == SPAN:
                wrapped = self._span(orig, t.metric)
            else:
                wrapped = self._leaf(orig, t.metric, t.observe)
            for site, name in sites:
                self._patched.append((site, name, orig))
                setattr(site, name, wrapped)

    def remove(self) -> None:
        for site, attr, orig in reversed(self._patched):
            setattr(site, attr, orig)
        self._patched = []

    def patched_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per metric: calls, self seconds and extra counters."""
        out: dict[str, dict] = {}
        selfs = span_self_times(self.spans)
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "extra": {}})
            row["calls"] += 1
            row["self_s"] += selfs[s.sid]
        for name, st in self.leaves.items():
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "extra": {}})
            row["calls"] += st.calls
            row["self_s"] += st.self_s
            for k, v in st.extra.items():
                row["extra"][k] = row["extra"].get(k, 0) + v
        return out

    def inclusive_s(self, name: str) -> float:
        """Wall time under outermost spans called ``name``."""
        by_id = {s.sid: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                total += s.end - s.start
        return total


def binding_sites(obj) -> list[tuple[object, str]]:
    """Every (module, name) among the loaded iquantum modules bound to obj,
    aliases included."""
    out = []
    for modname, m in sorted(sys.modules.items()):
        if m is None or not (modname == "iquantum" or modname.startswith("iquantum.")):
            continue
        out.extend((m, k) for k, v in vars(m).items() if v is obj)
    return out
