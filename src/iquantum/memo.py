"""The memo tables behind the package's module-level caches.

A ``Memo`` is a dict whose owner does each lookup and counts it inline in
``hits`` or ``misses``, so a lookup costs what a plain dict's does.  A
scoped table holds the entries of one scope, such as one (datum content,
weight) pair: its owner compares ``scope`` inline and calls ``rescope`` when
another arrives, so the scope is the table's bound.  Every table registers
in ``MEMOS`` on creation; ``iquantum.cache_stats`` and
``iquantum.clear_caches`` read that registry.  A size cap, should one be
needed, belongs here.
"""

from __future__ import annotations

MEMOS: list[Memo] = []


class Memo(dict):
    """A dict registered as ``name`` (``module.NAME``), with hit and miss
    counters and the scope of its entries (None when unscoped)."""

    __slots__ = ("name", "hits", "misses", "scope")

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.hits = self.misses = 0
        self.scope = None
        MEMOS.append(self)

    def rescope(self, scope) -> None:
        """Empty the table for the entries of another scope."""
        self.clear()
        self.scope = scope

    def reset(self) -> None:
        """Empty the table, forget its scope and zero its counters."""
        self.rescope(None)
        self.hits = self.misses = 0
