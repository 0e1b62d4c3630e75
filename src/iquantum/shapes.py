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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .qring import ASC_Q, LaurentPoly, PowerSeriesTrunc, RatQ, expand
from .satake import IWeight, SatakeDatum, Word, apply_word, orbit_reps

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


def enumerate_shapes(
    datum: SatakeDatum, top: Word, bottom: Word, mode: str = "all"
) -> list[Shape]:
    """All label-compatible matchings between the two words.

    Cups need the later top label to be the involution partner of the
    earlier one, caps likewise on the bottom, props need equal labels.  The
    recursion always matches the first open point, so each matching is
    produced exactly once; modes drop caps, or both cups and caps.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    allow_cups = mode in ("all", "cap_free")
    allow_caps = mode == "all"
    top = tuple(top)
    bottom = tuple(bottom)
    out: list[Shape] = []
    if (len(top) + len(bottom)) % 2:
        return out

    def rec(ut, ub, cups, caps, props):
        if not ut and not ub:
            out.append(
                Shape(top, bottom, tuple(sorted(cups)), tuple(sorted(caps)), tuple(sorted(props)))
            )
            return
        if ut:
            p = ut[0]
            rest = ut[1:]
            if allow_cups:
                want = datum.tau[top[p]]
                for k, q in enumerate(rest):
                    if top[q] == want:
                        rec(rest[:k] + rest[k + 1 :], ub, cups + ((p, q),), caps, props)
            for k, b in enumerate(ub):
                if bottom[b] == top[p]:
                    rec(rest, ub[:k] + ub[k + 1 :], cups, caps, props + ((b, p),))
        elif allow_caps:
            p = ub[0]
            rest = ub[1:]
            want = datum.tau[bottom[p]]
            for k, q in enumerate(rest):
                if bottom[q] == want:
                    rec(ut, rest[:k] + rest[k + 1 :], cups, caps + ((p, q),), props)

    rec(tuple(range(len(top))), tuple(range(len(bottom))), (), (), ())
    return out


def _annihilation_degree(
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
    from the right foot and its weight from the letters still strictly to
    the right of the pair.
    """
    if reflected:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], -a[0]))
    else:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], a[0]))
    cur = list(range(len(word)))
    deg = 0
    for p, q in ordered:
        ip = cur.index(p)
        iq = cur.index(q)
        between = cur[ip + 1 : iq]
        slider = word[q] if reflected else word[p]
        for b in between:
            deg -= datum.qi(slider) * datum.a[(slider, word[b])]
        i = word[q]
        if reflected:
            right = between + cur[iq + 1 :]
        else:
            right = cur[iq + 1 :]
        mu = apply_word(datum, lw, tuple((word[r], 1) for r in right))
        deg += datum.qi(i) * (1 + datum.varsigma[i] - mu.lam_of(i))
        cur.remove(p)
        cur.remove(q)
    return deg


def _crossing_degree(datum: SatakeDatum, strands: list[tuple[str, int]]) -> int:
    """Bubble-sort the (label, target) strands; each swap is one crossing."""
    arr = list(strands)
    deg = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k][1] > arr[k + 1][1]:
                a, b = arr[k][0], arr[k + 1][0]
                deg -= datum.qi(a) * datum.a[(a, b)]
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                changed = True
    return deg


def _degree(datum: SatakeDatum, sh: Shape, lw: IWeight, reflected: bool) -> int:
    deg = _annihilation_degree(datum, sh.bottom, sh.caps, lw, reflected)
    capped = {p for arc in sh.caps for p in arc}
    targets = dict(sh.props)
    strands = [(sh.bottom[b], targets[b]) for b in range(len(sh.bottom)) if b not in capped]
    deg += _crossing_degree(datum, strands)
    deg += _annihilation_degree(datum, sh.top, sh.cups, lw, reflected)
    return deg


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


def _strand_dvalues(datum: SatakeDatum, sh: Shape) -> list[int]:
    """The d-value of each strand; partner labels share d, so the choice of
    which end labels a strand does not matter."""
    vals = []
    for p, q in sh.cups:
        vals.append(datum.qi(sh.top[p]))
    for p, q in sh.caps:
        vals.append(datum.qi(sh.bottom[p]))
    for b, t in sh.props:
        vals.append(datum.qi(sh.bottom[b]))
    return vals


def _assemble(shapes_data: list[tuple[int, list[int]]], sign: int) -> RatQ:
    """Sum q^(sign*deg) / prod(1 - q^(2*sign*d)) over (deg, strand d-values).

    Each strand contributes a geometric factor 1/(1 - q^(2*sign*d)).  All
    terms are accumulated over one common denominator so the gcd reduction
    in RatQ runs once per sum rather than once per shape.
    """
    if not shapes_data:
        return RatQ.zero()
    counts = [Counter(vals) for _, vals in shapes_data]
    worst: Counter = Counter()
    for c in counts:
        for v, n in c.items():
            if n > worst[v]:
                worst[v] = n
    den = LaurentPoly.one()
    for v in sorted(worst):
        f = LaurentPoly({0: 1, 2 * sign * v: -1})
        for _ in range(worst[v]):
            den = den * f
    num = LaurentPoly.zero()
    for (deg, _), c in zip(shapes_data, counts):
        term = LaurentPoly.q_power(sign * deg)
        for v, n in worst.items():
            f = LaurentPoly({0: 1, 2 * sign * v: -1})
            for _ in range(n - c[v]):
                term = term * f
        num = num + term
    return RatQ(num, den)


def _shape_data(
    datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight, mode: str
) -> list[tuple[int, list[int]]]:
    """(degree, strand d-values) of every matching of one mode."""
    return [
        (degree(datum, sh, lw), _strand_dvalues(datum, sh))
        for sh in enumerate_shapes(datum, top, bottom, mode)
    ]


def _pair_sum(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight, mode: str) -> RatQ:
    return _assemble(_shape_data(datum, top, bottom, lw, mode), -1)


def pair_b(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight) -> RatQ:
    """Shape sum over all matchings; the combinatorial route to ipair."""
    return _pair_sum(datum, top, bottom, lw, "all")


def pair_b_nabla(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight) -> RatQ:
    """Shape sum over cap-free matchings; nonzero forces |bottom| <= |top|."""
    return _pair_sum(datum, top, bottom, lw, "cap_free")


def pair_delta_nabla(datum: SatakeDatum, top: Word, bottom: Word, lw: IWeight) -> RatQ:
    """Shape sum over permutation matchings (no cups, no caps)."""
    return _pair_sum(datum, top, bottom, lw, "cup_cap_free")


def pair_theta(datum: SatakeDatum, top: Word, bottom: Word) -> RatQ:
    """Permutation matchings with the weight-independent crossing degree."""
    data = []
    for sh in enumerate_shapes(datum, top, bottom, "cup_cap_free"):
        strands = [(sh.bottom[b], t) for b, t in sh.props]
        data.append((_crossing_degree(datum, strands), _strand_dvalues(datum, sh)))
    return _assemble(data, -1)


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
    data = _shape_data(datum, top, bottom, lw, "all")
    return RankSeries(expand(_assemble(data, 1), ASC_Q, order))


def end_grdim(datum: SatakeDatum, order: int = 20) -> RankSeries:
    """Graded dimension series of the endomorphism ring of the empty word.

    One free polynomial generator in degree 2 d_i n per two-element orbit
    representative i and n >= 1, and one per fixed node i and odd n >= 1.
    """
    two, fixed = orbit_reps(datum)
    series = PowerSeriesTrunc.one(ASC_Q, order)
    for i in two:
        d = datum.qi(i)
        n = 1
        while 2 * d * n <= order:
            series = series * _geometric(2 * d * n, order)
            n += 1
    for i in fixed:
        d = datum.qi(i)
        n = 1
        while 2 * d * n <= order:
            if n % 2:
                series = series * _geometric(2 * d * n, order)
            n += 1
    return RankSeries(series)


def _geometric(step: int, order: int) -> PowerSeriesTrunc:
    """1/(1 - q^step) truncated."""
    return PowerSeriesTrunc(ASC_Q, order, {e: 1 for e in range(0, order + 1, step)})
