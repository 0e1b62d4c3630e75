"""The memo tables behind the package's module-level caches.

A ``Memo`` is a dict that does its owner's lookups: ``get_or_make`` returns
the stored value or makes and stores it, counting a hit or a miss.  A scoped
table holds the entries of one scope, such as one (datum content, weight)
pair; its owner passes each call's scope to ``within``, which empties the
table when another arrives, so the scope is the table's bound.  Every table
registers in ``MEMOS`` under its name on creation, replacing a table made
earlier under that name (as a module reload does); ``iquantum.cache_stats``
and ``iquantum.clear_caches`` read that registry.  A size cap, should one be
needed, belongs in ``get_or_make``.
"""

from __future__ import annotations

MEMOS: dict[str, Memo] = {}


class Memo(dict):
    """A dict registered as ``name`` (``module.NAME``), with hit and miss
    counters and the scope of its entries (None when unscoped)."""

    __slots__ = ("name", "hits", "misses", "scope")

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.hits = self.misses = 0
        self.scope = None
        MEMOS[name] = self

    def get_or_make(self, key, make, *args):
        """The value stored under key, or make(*args) stored there on a miss.

        A stored value is tested with ``is None``, so falsy values such as
        ``{}`` and ``0`` are hits; a maker never returns None.
        """
        value = self.get(key)
        if value is None:
            self.misses += 1
            value = self[key] = make(*args)
        else:
            self.hits += 1
        return value

    def within(self, scope) -> Memo:
        """The table for the entries of scope, emptied first when it holds
        another scope's."""
        if scope != self.scope:
            self.clear()
            self.scope = scope
        return self

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def reset(self) -> None:
        """Empty the table, forget its scope and zero its counters."""
        self.clear()
        self.scope = None
        self.hits = self.misses = 0
