"""Boundary matchings ("shapes") between two words, their degrees, and the
combinatorial pairing and graded-rank formulas built from them.

A shape records which boundary points are joined: cups pair two top points,
caps pair two bottom points, props carry a bottom point to a top point.
Equivalence classes of diagrams are identified with these matchings, so
"reduced" never needs a geometric test: strands cross exactly when their
endpoints interleave.

The degree of a shape is computed by realizing one concrete reduced
representative as a sequence of elementary slices (see ``degree``).  All
defining relations of the calculus are homogeneous, so any realization gives
the same number; ``degree_alt`` realizes a second, differently ordered
representative and exists purely so that independence can be asserted.

A degree is two annihilation terms, closing off the caps on the bottom word
and the cups on the top word, plus the crossing degree of the props.  The
annihilation terms depend only on (datum, word, arcs, weight, realization),
and the matchings of one word pair share a few dozen arc sets, so they are
memoized in ``_ARC_MEMO`` keyed by (word, arcs, reflected).  The crossing
term depends only on (datum, bottom word, props) and no realization orders
it, so the same memo holds it keyed by (bottom, props), and ``degree`` and
``degree_alt`` share it: the two realizations differ only in the
annihilation terms.  The memo holds the (datum, weight) scope of its last
call and is emptied whenever another datum or weight arrives, data compared
by content (``iquantum.cache_stats``, ``iquantum.clear_caches``).

The shape sums (``pair_b`` and its restricted modes, ``pair_theta`` and
``hom_rank``) need only a histogram of the degrees.  Every strand joins two
points of one tau-orbit and tau-partners share d, so all matchings of one
word pair carry the same strands, counted once from the letters; the sum is
the histogram over one product of strand factors 1 - q^(2d).  One word pair
has one table, ``_SHAPE_MEMO``, scoped to the (datum, top, bottom) of
its last call, so that scope is its bound: it holds the pair's matchings
keyed by mode (``enumerate_shapes``) and the histograms of ``degree`` over
them keyed by (mode, weight).  ``hom_rank`` and ``pair_b`` on one pair at
one weight enumerate and take degrees once; each still assembles its own
signed sum, and their agreement (``hom_rank`` against the bar of
``pair_b``) stays a check of ``_assemble``, ``bar`` and ``expand``.  A
caller that walks the matchings after a shape sum on the same pair
(``degree`` against ``degree_alt`` after ``hom_rank``) reads them instead
of enumerating again.  A restricted mode the table lacks is read off the
pair's ``all`` matchings when the table holds them (``pair_b_nabla`` and
``pair_theta`` after ``pair_b``), and enumerated by itself otherwise, since
``all`` can be far longer than the mode asked for.  ``enumerate_shapes``
returns a new list over the stored tuple; the mode check and the empty list
of an odd total length come before any lookup.  ``pair_theta`` sums the
weight-free crossing degree outside ``_ARC_MEMO`` and keeps no histogram.

No enumeration builds a reference cycle (``_enumerate`` keeps its open
branches on an explicit stack, not in a function that calls itself), so a
pair's matchings die by reference count as soon as the table moves to the
next pair, and the garbage collector never has to find them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, perm, prod

from .memo import Memo
from .qring import ASC_Q, LaurentPoly, PowerSeriesTrunc, RatQ, expand
from .satake import IWeight, SatakeDatum, Word, orbit_reps
# Not called here any more; perfbench's tracer test still lists this binding
# site (perfbench/tests/test_perfbench.py), so it stays until that list moves.
from .satake import apply_word  # noqa: F401

MODES = ("all", "cap_free", "cup_cap_free")


@dataclass(frozen=True)
class Shape:
    """A label-compatible matching of the boundary of an i x j rectangle.

    cups hold pairs (p, q) of top indices with p < q, caps pairs of bottom
    indices, and props pairs (bottom index, top index), all 0-based.
    """

    top: Word
    bottom: Word
    cups: tuple[tuple[int, int], ...]
    caps: tuple[tuple[int, int], ...]
    props: tuple[tuple[int, int], ...]


# the matchings of one word pair keyed by mode and their degree histograms
# keyed (mode, lw), scoped to the (datum, top, bottom) of the last call
_SHAPE_MEMO = Memo("shapes._SHAPE_MEMO")


def enumerate_shapes(
    datum: SatakeDatum, top: Word, bottom: Word, mode: str = "all"
) -> list[Shape]:
    """All label-compatible matchings between the two words, as a new list.

    Cups need the later top label to be the involution partner of the
    earlier one, caps likewise on the bottom, props need equal labels; modes
    drop caps, or both cups and caps (``_enumerate``).  The matchings are
    read through ``_SHAPE_MEMO``, which holds those of the last word pair.
    A restricted mode missing there is read off the pair's ``all`` matchings
    when the table holds them (``_restrict``), and enumerated otherwise:
    ``all`` can be far longer than the mode asked for.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    top = tuple(top)
    bottom = tuple(bottom)
    if (len(top) + len(bottom)) % 2:
        return []
    table = _SHAPE_MEMO.within((datum, top, bottom))
    if mode == "all" or mode in table or "all" not in table:
        return list(table.get_or_make(mode, _enumerate, datum, top, bottom, mode))
    every = table.get_or_make("all", _enumerate, datum, top, bottom, "all")
    return list(table.get_or_make(mode, _restrict, every, mode))


def _restrict(every: tuple[Shape, ...], mode: str) -> tuple[Shape, ...]:
    """The matchings of a restricted mode among the pair's ``all`` ones, in
    the order ``_enumerate`` gives them: they are the leaves of the same
    walk that the mode's pruning keeps."""
    if mode == "cap_free":
        return tuple(sh for sh in every if not sh.caps)
    return tuple(sh for sh in every if not sh.caps and not sh.cups)


def _enumerate(datum: SatakeDatum, top: Word, bottom: Word, mode: str) -> tuple[Shape, ...]:
    """The matchings of one mode, on tuples of even total length.

    A depth-first walk that always matches the first open point, so each
    matching is produced exactly once, and cups and caps come out sorted by
    their first foot.  The walk keeps its open branches on an explicit stack,
    pushing each point's options last to first so that the first is popped
    first: cups in the order of their second foot, then props in the order
    of their bottom point.  No function refers to itself, so nothing here
    builds a reference cycle, and the matchings die by reference count as
    soon as the table lets them go.
    """
    allow_cups = mode != "cup_cap_free"
    allow_caps = mode == "all"
    tau = datum.tau
    out: list[Shape] = []
    stack = [(tuple(range(len(top))), tuple(range(len(bottom))), (), (), ())]
    pop, push = stack.pop, stack.append
    while stack:
        ut, ub, cups, caps, props = pop()
        if ut:
            p = ut[0]
            rest = ut[1:]
            label = top[p]
            for k in range(len(ub) - 1, -1, -1):
                b = ub[k]
                if bottom[b] == label:
                    push((rest, ub[:k] + ub[k + 1 :], cups, caps, props + ((b, p),)))
            if allow_cups:
                want = tau[label]
                for k in range(len(rest) - 1, -1, -1):
                    q = rest[k]
                    if top[q] == want:
                        push((rest[:k] + rest[k + 1 :], ub, cups + ((p, q),), caps, props))
        elif not ub:
            out.append(Shape(top, bottom, cups, caps, tuple(sorted(props))))
        elif allow_caps:
            p = ub[0]
            rest = ub[1:]
            want = tau[bottom[p]]
            for k in range(len(rest) - 1, -1, -1):
                q = rest[k]
                if bottom[q] == want:
                    push((ut, rest[:k] + rest[k + 1 :], cups, caps + ((p, q),), props))
    return tuple(out)


def _matchings(n: int, allowed: bool) -> int:
    """Perfect matchings of n interchangeable points: (n-1)!!, and only the
    empty one when arcs among them are not allowed."""
    if n % 2:
        return 0
    if not allowed:
        return 1 if n == 0 else 0
    return prod(range(n - 1, 0, -2))


def shape_count(datum: SatakeDatum, top: Word, bottom: Word, mode: str = "all") -> int:
    """len(enumerate_shapes(datum, top, bottom, mode)) without enumerating.

    Points of different tau-orbits never meet, so the count is a product
    over orbits.  At a fixed node with A top and C bottom points, p props
    leave A - p tops to pair by cups and C - p bottoms by caps; with both
    allowed the sum is (A+C-1)!!.  On a two-point orbit {i, j} with tops
    A, B and bottoms C, D, k cups each join an i top to a j top; the other
    tops go down as props, and the m = C-(A-k) = D-(B-k) bottoms left over
    pair off by caps:

        sum_k C(A,k) C(B,k) k! P(C,A-k) P(D,B-k) m!.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    allow_cups = mode in ("all", "cap_free")
    allow_caps = mode == "all"
    ct, cb = Counter(top), Counter(bottom)
    two, fixed = orbit_reps(datum)
    total = 1
    for i in fixed:
        A, C = ct[i], cb[i]
        total *= sum(
            comb(A, p) * perm(C, p) * _matchings(A - p, allow_cups) * _matchings(C - p, allow_caps)
            for p in range(min(A, C) + 1)
        )
    for i in two:
        j = datum.tau[i]
        A, B, C, D = ct[i], ct[j], cb[i], cb[j]
        orbit = 0
        for k in range(min(A, B) + 1 if allow_cups else 1):
            m = C - (A - k)
            if m < 0 or m != D - (B - k) or (m and not allow_caps):
                continue
            orbit += (
                comb(A, k) * comb(B, k) * factorial(k)
                * perm(C, A - k) * perm(D, B - k) * factorial(m)
            )
        total *= orbit
    return total


def _close_arcs(
    datum: SatakeDatum,
    word: Word,
    arcs: tuple[tuple[int, int], ...],
    lw: IWeight,
    reflected: bool,
) -> int:
    """Degree collected while closing off the arcs of one boundary word.

    Arcs are processed inner-before-outer (shorter intervals first).  In the
    canonical order ties go left to right and the left foot slides rightward
    through the letters between the feet; in the reflected order ties go
    right to left and the right foot slides leftward.  Either way the
    annihilation generator then acts on the adjacent pair, reading its label
    i from the right foot and its weight from the letters w_r still strictly
    to the right of the pair.  That weight is lam_i of lw minus the weight of
    those letters, and the weight is additive in the letters:

        mu_i = lw.lam_of(i) - sum_r (a[i, w_r] - a[i, tau w_r]),

    the same closed form by which ``satake.apply_word`` takes the weight of
    a word off lw.  At a tau-fixed i it is 0, since an IWeight holds no lam
    at a fixed node.
    """
    if reflected:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], -a[0]))
    else:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], a[0]))
    a, d, tau = datum.a, datum.d, datum.tau
    n = len(word)
    alive = [True] * n
    deg = 0
    for p, q in ordered:
        slider = word[q] if reflected else word[p]
        i = word[q]
        moved = tau[i] != i
        mu = lw.lam_of(i) if moved else 0
        for b in range(p + 1, q):
            if alive[b]:
                w = word[b]
                deg -= d[slider] * a[(slider, w)]
                if reflected and moved:
                    mu -= a[(i, w)] - a[(i, tau[w])]
        if moved:
            for r in range(q + 1, n):
                if alive[r]:
                    w = word[r]
                    mu -= a[(i, w)] - a[(i, tau[w])]
        deg += d[i] * (1 + datum.varsigma[i] - mu)
        alive[p] = alive[q] = False
    return deg


# annihilation degrees keyed (word, arcs, reflected) and prop crossing degrees
# keyed (bottom, props), scoped to the (datum, lw) of the last call
_ARC_MEMO = Memo("shapes._ARC_MEMO")


def _crossing_degree(datum: SatakeDatum, strands: list[tuple[str, int]]) -> int:
    """Crossing degree of (label, target) strands listed by source.

    Two strands cross exactly when their targets are out of order, and the
    crossing of a left strand labelled i over a right one labelled j has
    degree -d_i a_{i,j}.
    """
    a, d = datum.a, datum.d
    deg = 0
    for k, (i, t) in enumerate(strands):
        for j, u in strands[k + 1 :]:
            if t > u:
                deg -= d[i] * a[(i, j)]
    return deg


def _prop_crossing(datum: SatakeDatum, sh: Shape) -> int:
    """``_crossing_degree`` of the shape's props; they are sorted by bottom
    index, so they list the strands by source."""
    return _crossing_degree(datum, [(sh.bottom[b], t) for b, t in sh.props])


def _degree(datum: SatakeDatum, sh: Shape, lw: IWeight, reflected: bool) -> int:
    """The caps' and the cups' ``_close_arcs`` plus the props'
    ``_prop_crossing``, each read through ``_ARC_MEMO``.

    All matchings of one word pair close off the same two words, and only a
    few dozen distinct cup or cap sets occur among hundreds of matchings, so
    most lookups repeat one.  The memo holds one (datum, lw) scope: a call
    with another datum, compared by content, or weight empties it first, so
    the scope is its only bound.  ``reflected`` is part of the annihilation
    keys: the two realizations differ only in the annihilation terms, and
    they share the realization-free crossing term, keyed (bottom, props).
    """
    arcs = _ARC_MEMO.within((datum, lw))
    return (
        arcs.get_or_make(
            (sh.bottom, sh.caps, reflected), _close_arcs, datum, sh.bottom, sh.caps, lw, reflected
        )
        + arcs.get_or_make((sh.bottom, sh.props), _prop_crossing, datum, sh)
        + arcs.get_or_make(
            (sh.top, sh.cups, reflected), _close_arcs, datum, sh.top, sh.cups, lw, reflected
        )
    )


def degree(datum: SatakeDatum, sh: Shape, lw: IWeight) -> int:
    """Degree of a reduced representative of the shape over the weight lw."""
    return _degree(datum, sh, lw, reflected=False)


def degree_alt(datum: SatakeDatum, sh: Shape, lw: IWeight) -> int:
    """Same degree from an independently ordered realization.

    Agreement with ``degree`` on arbitrary shapes is the realization
    independence check; the two share no ordering choices beyond processing
    inner arcs before the arcs that enclose them, which any flat realization
    must respect.
    """
    return _degree(datum, sh, lw, reflected=True)


def _strand_counts(datum: SatakeDatum, top: Word, bottom: Word) -> dict[int, int]:
    """Number of strands of each d-value, shared by every matching.

    A strand joins two points of one tau-orbit (a prop i over i, a cup or
    cap i beside tau i), and tau-partners share d, so each orbit carries
    half of its top and bottom letters as strands of its d.  Read off the
    letters once per word pair; meaningful only when a matching exists.
    """
    points = Counter(map(datum.qi, (*top, *bottom)))
    return {v: n // 2 for v, n in points.items()}


def _assemble(degs: Counter, strands: dict[int, int], sign: int) -> RatQ:
    """Sum of q^(sign*deg) / prod(1 - q^(2*sign*d)) over the matchings.

    ``degs`` is the degree histogram of the matchings and ``strands`` the
    strand count of ``_strand_counts``.  Each strand contributes a
    geometric factor 1/(1 - q^(2*sign*d)) for its dots, and every matching
    of one word pair has the same strands, so the sum is the histogram over
    one denominator and RatQ normalizes it once.
    """
    den = LaurentPoly.one()
    for v, n in strands.items():
        f = LaurentPoly({0: 1, 2 * sign * v: -1})
        for _ in range(n):
            den = den * f
    return RatQ(LaurentPoly({sign * deg: n for deg, n in degs.items()}), den)


def _degree_histogram(datum: SatakeDatum, top: Word, bottom: Word, mode: str, lw: IWeight):
    """Counter of ``degree`` over the matchings of one mode."""
    return Counter([degree(datum, sh, lw) for sh in enumerate_shapes(datum, top, bottom, mode)])


def _shape_sum(
    datum: SatakeDatum, top: Word, bottom: Word, mode: str, lw: IWeight, sign: int
) -> RatQ:
    """``_assemble`` over the histogram of one mode at lw, read through
    ``_SHAPE_MEMO``; zero when there is no matching, found before any
    lookup when the total length is odd."""
    top, bottom = tuple(top), tuple(bottom)
    if (len(top) + len(bottom)) % 2:
        return RatQ.zero()
    hist = _SHAPE_MEMO.within((datum, top, bottom)).get_or_make(
        (mode, lw), _degree_histogram, datum, top, bottom, mode, lw
    )
    if not hist:
        return RatQ.zero()
    return _assemble(hist, _strand_counts(datum, top, bottom), sign)


def pair_b(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight) -> RatQ:
    """Shape sum over all matchings; the combinatorial route to ipair."""
    return _shape_sum(datum, top, bottom, "all", lw, -1)


def pair_b_nabla(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight) -> RatQ:
    """Shape sum over cap-free matchings; nonzero forces |bottom| <= |top|."""
    return _shape_sum(datum, top, bottom, "cap_free", lw, -1)


def pair_theta(datum: SatakeDatum, top: Word, bottom: Word) -> RatQ:
    """Permutation matchings with the weight-independent crossing degree."""
    found = enumerate_shapes(datum, top, bottom, "cup_cap_free")
    if not found:
        return RatQ.zero()
    degs = Counter(_prop_crossing(datum, sh) for sh in found)
    return _assemble(degs, _strand_counts(datum, top, bottom), -1)


@dataclass(frozen=True)
class RankSeries:
    """A truncated series whose coefficients count basis elements."""

    series: PowerSeriesTrunc

    def __post_init__(self):
        for e, c in self.series.coeffs.items():
            if c < 0:
                raise ValueError(f"negative coefficient {c} at q^{e} in a rank series")

    def coeff(self, e: int) -> int:
        return self.series.coeff(e)

    def __str__(self) -> str:
        return str(self.series)


def hom_rank(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight, order: int = 20) -> RankSeries:
    """Graded rank of the hom space as a free right module over the dot ring.

    Each shape contributes q^degree times a geometric factor per strand for
    its dots; the total is expanded ascending in q.  Equivalently this is
    the bar of pair_b.  Freeness (hence coefficient nonnegativity) holds
    under the nondegeneracy the construction assumes throughout.
    """
    return RankSeries(expand(_shape_sum(datum, top, bottom, "all", lw, 1), ASC_Q, order))


def end_grdim(datum: SatakeDatum, order: int = 20) -> RankSeries:
    """Graded dimension series of the endomorphism ring of the empty word.

    One free polynomial generator in degree 2 d_i n per two-element orbit
    representative i and n >= 1, and one per fixed node i and odd n >= 1.
    """
    two, fixed = orbit_reps(datum)
    series = PowerSeriesTrunc.one(order)
    for i in two + fixed:
        d = datum.qi(i)
        for n in range(1, order // (2 * d) + 1, 1 if i in two else 2):
            series = series * _geometric(2 * d * n, order)
    return RankSeries(series)


def _geometric(step: int, order: int) -> PowerSeriesTrunc:
    """1/(1 - q^step) truncated."""
    return PowerSeriesTrunc(order, {e: 1 for e in range(0, order + 1, step)})
