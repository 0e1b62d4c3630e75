"""Exact symbolic computation for quasi-split iquantum groups.

Submodules:

* ``qring``: Laurent polynomials, the rational function field Q(q),
  truncated series and quantum binomials.
* ``satake``: Cartan data with involution, iweights and word bookkeeping.
* ``freealg``: the free-type algebra on theta generators with twisted
  derivations and its bilinear form.
* ``iuea``: b-monomials and (i)divided powers through the recursive
  isometries, the sesquilinear pairing, the iSerre check and the
  straightening coefficients.
* ``shapes``: cup/cap/propagating diagram enumeration, degrees, pairing and
  graded rank series.
* ``klr``: the quiver Hecke algebra with signed two-variable parameters,
  normal forms, divided-power idempotents and the Serre complex check.
* ``memo``: the ``Memo`` dict behind every module-level memo table: its
  one counted lookup (``get_or_make``) and scope rule (``within``), and
  the registry that ``cache_stats`` and ``clear_caches`` read.
* ``cli``: configuration parsing and the command line front end
  (``python -m iquantum``).

Every quantity with more than one available algorithm is computed by
independent routes and compared at exact structural equality.
"""

__version__ = "0.1.0"

__all__ = [
    "qring",
    "satake",
    "freealg",
    "iuea",
    "shapes",
    "klr",
    "memo",
    "cli",
]


def _memos():
    # importing the modules that own memo tables registers every table
    from . import freealg, iuea, klr, shapes  # noqa: F401
    from .memo import MEMOS

    return MEMOS


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and size of every module-level memo table, keyed
    ``module.NAME``: ``freealg._WORD_PAIR_CACHE``, ``iuea._B_WORD_MEMO``,
    ``shapes._ARC_MEMO``, ``shapes._SHAPE_MEMO`` (a word pair's matchings
    and degree histograms), ``klr._STEP_MEMO`` and ``klr._REWORD_MEMO``
    (the straightening route's steps and word rewrites) and the four caches
    of the twisted route that the tests keep as ``mul``'s reference.  Read
    on request (``selftest --cache-stats`` writes them to stderr)."""
    return {m.name: m.stats() for m in _memos().values()}


def clear_caches() -> None:
    """Empty every module-level memo table, forget its scope and zero its
    counters; the tables are all the state the package keeps."""
    for m in _memos().values():
        m.reset()
