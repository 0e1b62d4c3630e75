"""Dotted permutation diagrams colored by nodes, multiplied exactly.

Elements are integer combinations of basis diagrams: a permutation wiring
between a bottom and a top word, with dot exponents on the bottom ends.  A
two-variable polynomial table drives the defining relations: a dot sliding
through a crossing of equal colors leaves a correction term, the square of
a mixed-color crossing is the table polynomial pinned to the strands, and
triple crossings satisfy the deformed braid relation.  ``geometric_qtable``
builds the table from a quiver and signs it by tau, by default in the
convention that ``usable_sign_convention`` derives, the one place it is chosen.

``mul`` straightens every product in the integer polynomial ring, on the
basis theorem of Khovanov-Lauda ("A diagrammatic approach to
categorification of quantum groups I", 2009): the diagrams psi_w x^d e(c),
with psi_w read through the lexicographically smallest reduced word of w,
form a basis.  The left factor is a state {u: p}, the sum of
psi_{lexmin(u)} p e(c), and the crossings of each right diagram are applied
one at a time.  A crossing moves past the dots by
p psi_r = psi_r s_r(p) + d_r(p), the divided difference d_r in closed form
and present on equal colors only; psi_{lexmin(u)} psi_r is then one
memoized step.  When the length grows it is a reduced word of u s_r,
rewritten into the lexmin one.  When it drops the word of u is first
rewritten to end in r, and psi_r^2 e(c) is the table polynomial pinned to
the strands on mixed colors and 0 on equal ones.  Rewriting one reduced word
into another follows Tits' solution of the word problem ("Le probleme des
mots dans les groupes de Coxeter", 1969): only a braid move i j i with
i != j leaves a term, a polynomial times a shorter word.  Both local rules
are closed forms in the table's integer factors, so no rational function
arises, and on one color the table is never read.

The twisted group algebra route (``_mul_twisted``) is kept below as the
tests' reference for ``mul``; no package code calls it.  It acts
faithfully on polynomial vectors: a crossing acts as the
difference-quotient operator on equal colors and as a (possibly
table-weighted) variable swap otherwise.  Composites live in the twisted
group algebra over rational functions, from which the basis coefficients
are recovered by peeling longest permutations; the transition is
triangular, so the peeling terminates and the recovered coefficients are
the unique integral normal form.  Every table entry is +-(x - y)^n and is
held as its integer factor (sign, n), so each rational function that
arises is an integer polynomial times signed powers of the linear forms
x_s - x_t; it is held in exactly that shape, a sum is taken over the
componentwise minimum exponent with no gcd, and each peel divides exactly
by one form at a time, term by term.  Nothing here computes symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb
from operator import add, itemgetter, sub

# Unused: loaded only because perfbench's tracer installs on sympy.polys.fields,
# and skipped where sympy is not installed; ROADMAP item 1 step B deletes it.
try:
    import sympy  # noqa: F401
except ImportError:
    pass

from .memo import Memo
from .qring import ASC_Q, LaurentPoly, RatQ, expand
from .satake import SatakeDatum, Word
from .shapes import RankSeries


def _identity(l: int) -> tuple[int, ...]:
    return tuple(range(l))


def _inverse(p):
    out = [0] * len(p)
    for s, t in enumerate(p):
        out[t] = s
    return tuple(out)


def _compose(u, w):
    """(u after w) as maps from bottom positions to top positions."""
    return tuple(u[t] for t in w)


def _swap_values(p, r):
    return tuple(r + 1 if t == r else r if t == r + 1 else t for t in p)


def _length(p) -> int:
    """The number of inversions of p."""
    return sum(a > b for s, a in enumerate(p) for b in p[s + 1 :])


def _lexmin_word(p) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, greedy on left descents:
    r is a left descent when value r sits right of value r + 1, and taking
    the smallest one swaps those two values.  That can only make r - 1 a
    descent, so the scan resumes there."""
    pos = list(_inverse(p))
    out = []
    r = 0
    while r < len(pos) - 1:
        if pos[r] > pos[r + 1]:
            out.append(r)
            pos[r], pos[r + 1] = pos[r + 1], pos[r]
            r = max(r - 1, 0)
        else:
            r += 1
    return tuple(out)


# -- exact coefficients of the twisted group algebra ---------------------
#
# The twisted route (these kernels, the expansions and peel from
# _PSI_CACHE to _extract, and _mul_twisted) is the tests' reference for
# mul, and no package code calls it.  It stays in this module because
# perfbench reads it by name: the untraced pass takes len() of _PSI_CACHE,
# _ENTRY_CACHE, _ELEM_CACHE and _FIELDS (perfbench/layers.py:20-26 and
# :123-129, called from perfbench/worker.py:106,111,126,131), and the traced
# pass wraps _expand_psi and _extract (perfbench/layers.py:69-70).  It moves
# to the tests when those lists move.
#
# On l strands a coefficient is a pair (num, ex): num is a sparse integer
# polynomial {exponent tuple: int} and ex a signed exponent vector over the
# linear forms x_s - x_t (s < t, in the order of _Forms.pairs).  The value
# is num * prod (x_s - x_t)^ex.  Every table entry is +-(x - y)^n, so the
# divided differences, the table weights and the variable permutations keep
# this shape.  A sum (_cadd) lifts both sides to their componentwise
# minimum exponent and adds the numerators into a fresh one.  No gcd runs:
# once per basis diagram the peel divides exactly by each negative power
# (x_s - x_t)^m, one form at a time and term by term (_div_form), and
# multiplies by each positive power, one pass per form (_times_form).


class _Forms:
    """The linear forms x_s - x_t (s < t) on l strands, and how a strand
    permutation x_t -> x_{p[t]} acts on them, cached per permutation, so
    the cache is bounded by l!."""

    def __init__(self, l: int):
        self.pairs = tuple((s, t) for s in range(l) for t in range(s + 1, l))
        self.index = {st: k for k, st in enumerate(self.pairs)}
        self.identity = _identity(l)
        self.zero = (0,) * len(self.pairs)
        self._moves: dict[tuple, tuple] = {}

    def move(self, p):
        """(read, src, rev) for x_t -> x_{p[t]}: a monomial's new exponents
        are its old ones read through p^-1 by the itemgetter read, form k of
        the image is form src[k] of the original, and the forms in rev came
        out reversed.  p is not the identity, so it moves at least two
        strands and read returns a tuple."""
        got = self._moves.get(p)
        if got is None:
            src = [0] * len(self.pairs)
            rev = []
            for k, (s, t) in enumerate(self.pairs):
                a, b = p[s], p[t]
                if a < b:
                    src[self.index[(a, b)]] = k
                else:
                    src[self.index[(b, a)]] = k
                    rev.append(k)
            got = (itemgetter(*_inverse(p)), tuple(src), tuple(rev))
            self._moves[p] = got
        return got


_FIELDS = Memo("klr._FIELDS")


def _forms(l: int) -> _Forms:
    return _FIELDS.get_or_make(l, _Forms, l)


def _pmul(a: dict, b: dict) -> dict:
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _times_form(num: dict, s: int, t: int, n: int) -> dict:
    """num * (x_s - x_t)^n, in one pass over num and the n + 1 terms
    C(n, i) (-1)^(n-i) x_s^i x_t^(n-i) of the binomial expansion."""
    terms = [(i, n - i, (-1) ** (n - i) * comb(n, i)) for i in range(n + 1)]
    out: dict = {}
    for e, c in num.items():
        e = list(e)
        a, b = e[s], e[t]
        for i, j, w in terms:
            e[s] = a + i
            e[t] = b + j
            key = tuple(e)
            out[key] = out.get(key, 0) + w * c
    return {e: c for e, c in out.items() if c}


def _div_form(num: dict, s: int, t: int, m: int):
    """num / (x_s - x_t)^m, or None when the division leaves a remainder.

    One form at a time, term by term: x_s^k = (x_s - x_t) sum_(i<k) x_s^i
    x_t^(k-1-i) + x_t^k, so the sums make the quotient and the x_t^k parts
    the remainder, which must cancel.
    """
    for _ in range(m):
        quo: dict = {}
        rem: dict = {}
        for e, c in num.items():
            e = list(e)
            k = e[s]
            d = k + e[t]
            for i in range(k):
                e[s] = i
                e[t] = d - 1 - i
                key = tuple(e)
                quo[key] = quo.get(key, 0) + c
            e[s] = 0
            e[t] = d
            key = tuple(e)
            rem[key] = rem.get(key, 0) + c
        if any(rem.values()):
            return None
        num = {e: c for e, c in quo.items() if c}
    return num


def _cmul(f, g):
    return _pmul(f[0], g[0]), tuple(map(add, f[1], g[1]))


def _merge(cur: dict, num: dict) -> None:
    """cur += num in place, dropping the monomials that cancel."""
    for e, c in num.items():
        c += cur.get(e, 0)
        if c:
            cur[e] = c
        else:
            del cur[e]


def _cneg(f):
    return {e: -c for e, c in f[0].items()}, f[1]


def _cdiv_form(f, k: int):
    """f / (x_s - x_t) for form k = (s, t), sharing f's numerator."""
    num, ex = f
    return num, ex[:k] + (ex[k] - 1,) + ex[k + 1 :]


def _permute(forms: _Forms, f, p):
    """Substitute x_t by x_{p[t]}; the coefficient twist when a permutation
    moves past a function in the twisted group algebra."""
    if p == forms.identity:
        return f
    num, ex = f
    read, src, rev = forms.move(p)
    sign = -1 if sum(map(ex.__getitem__, rev)) & 1 else 1
    num = {read(e): sign * c for e, c in num.items()}
    return num, tuple(map(ex.__getitem__, src))


def _acc(d, k, v):
    cur = d.get(k)
    d[k] = v if cur is None else cur + v


def _cadd(forms: _Forms, f, g):
    """f + g over their componentwise minimum exponent: each side is
    multiplied out by its excess, one form at a time, and the numerators
    are added into a fresh one."""
    (nf, ef), (ng, eg) = f, g
    if ef != eg:
        low = tuple(map(min, ef, eg))
        for k, (a, b, m) in enumerate(zip(ef, eg, low)):
            if a > m:
                nf = _times_form(nf, *forms.pairs[k], a - m)
            elif b > m:
                ng = _times_form(ng, *forms.pairs[k], b - m)
        ef = low
    out = dict(nf)
    _merge(out, ng)
    return out, ef


def _cacc(forms: _Forms, d, k, v):
    """d[k] += v for a coefficient v, dropping a sum that cancels."""
    cur = d.get(k)
    if cur is not None:
        v = _cadd(forms, cur, v)
    if v[0]:
        d[k] = v
    else:
        d.pop(k, None)


class QTable:
    """Crossing polynomials Q_{i,j}(x, y) = sign * (x - y)^n for ordered
    pairs of distinct nodes, held as factors[(i, j)] = (sign, n) with the
    involution sign already applied; the sign is the leading coefficient.

    Every table is validated here: it must hold exactly the ordered pairs of
    distinct datum nodes, each entry must be +-(x - y)^n, and the symmetry
    Q_{i,j}(x, y) = Q_{j,i}(y, x), that is sign_ij = sign_ji * (-1)^n, is
    what makes the polynomial action associative, so a violation is an error
    naming the offending pair.  The convention name only goes into that
    error and is not kept: a table is equal and hashed by its datum and
    factors, so equal tables share cache keys.
    """

    def __init__(self, datum: SatakeDatum, factors, sign_convention: str):
        nodes = datum.nodes
        for i, j in factors:
            if i == j or i not in nodes or j not in nodes:
                raise ValueError(f"table entry ({i}, {j}) is not a pair of distinct datum nodes")
        for i in nodes:
            for j in nodes:
                if i != j and (i, j) not in factors:
                    raise ValueError(f"table has no entry for ({i}, {j})")
        for (i, j), (sign, n) in factors.items():
            if sign not in (1, -1) or n < 0:
                raise ValueError(f"table entry ({i}, {j}) is not +-(x - y)^n")
        for (i, j), (sign, n) in factors.items():
            if factors.get((j, i)) != (sign * (-1) ** n, n):
                raise ValueError(
                    f"signed table is not symmetric on ({i}, {j}); "
                    f"convention {sign_convention!r} is unusable for this datum"
                )
        self.datum = datum
        self.factors: dict[tuple[str, str], tuple[int, int]] = dict(factors)
        self._key = (datum, tuple(sorted(self.factors.items())))
        self._hash = hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QTable) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def order(self, i: str) -> int:
        return self.datum.nodes.index(i)


def edge_counts(datum: SatakeDatum, orientation=None) -> dict[tuple[str, str], int]:
    """The number of arrows i -> j of the quiver, for every ordered pair of
    distinct nodes.

    With no orientation every edge points from the earlier node to the later
    one in node order.  An orientation maps pairs of datum nodes to
    nonnegative arrow counts, absent pairs counting 0.  Either way the
    arrows between i and j, both directions together, must number -a_ij.
    """
    nodes = datum.nodes
    if orientation is None:
        orientation = {
            (i, j): -datum.a[(i, j)] for k, i in enumerate(nodes) for j in nodes[k + 1 :]
        }
    else:
        for (i, j), n in orientation.items():
            if i not in nodes or j not in nodes:
                raise ValueError(f"orientation names unknown pair ({i}, {j})")
            if n < 0:
                raise ValueError(f"negative edge count for ({i}, {j})")
    counts = {(i, j): int(orientation.get((i, j), 0)) for i in nodes for j in nodes if i != j}
    for (i, j), nij in counts.items():
        nji = counts[(j, i)]
        if nij + nji != -datum.a[(i, j)]:
            raise ValueError(
                f"orientation of ({i}, {j}) has {nij}+{nji} edges, expected {-datum.a[(i, j)]}"
            )
    return counts


def usable_sign_convention(datum: SatakeDatum) -> str:
    """"body" when tau fixes every node or none, else "intro": "body" negates
    the rows of tau-fixed nodes and the table has an entry for every ordered
    pair of distinct nodes, so it is symmetric exactly then; "intro" always is."""
    return "body" if len({datum.tau[i] == i for i in datum.nodes}) == 1 else "intro"


def geometric_qtable(datum: SatakeDatum, orientation=None, sign_convention=None) -> QTable:
    """Build the quiver choice (x-y)^{#(i->j)} (y-x)^{#(j->i)} over the
    arrow counts of ``edge_counts`` and apply the involution sign: the
    factor is (sign * (-1)^{#(j->i)}, #(i->j) + #(j->i)).

    sign_convention "body" multiplies row i by -1 when i is tau-fixed;
    "intro" multiplies entry (i,j) by -1 when i = tau(j); None, the
    default, takes ``usable_sign_convention(datum)``.  ``QTable`` rejects a
    convention that breaks the table's symmetry on this datum.
    """
    if sign_convention is None:
        sign_convention = usable_sign_convention(datum)
    if sign_convention not in ("body", "intro"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    for i in datum.nodes:
        if datum.qi(i) != 1:
            raise ValueError(f"geometric parameters need d_i = 1, got d_{i} = {datum.qi(i)}")
    counts = edge_counts(datum, orientation)
    factors = {}
    for (i, j), nij in counts.items():
        nji = counts[(j, i)]
        if sign_convention == "body":
            sign = -1 if datum.tau[i] == i else 1
        else:
            sign = -1 if datum.tau[j] == i else 1
        factors[(i, j)] = (sign * (-1) ** nji, nij + nji)
    return QTable(datum, factors, sign_convention)


def _wiring_degree(datum: SatakeDatum, bottom: Word, perm) -> int:
    """Degree of the crossings of a wiring: strands s < t cross when
    perm[s] > perm[t], each crossing of bottom letters a, b costing
    -d_a a_{a,b}.  Kept apart from ``shapes._crossing_degree``, since
    ``graded_dim`` is checked against ``shapes.pair_theta``."""
    deg = 0
    for s in range(len(bottom)):
        for t in range(s + 1, len(bottom)):
            if perm[s] > perm[t]:
                a, b = bottom[s], bottom[t]
                deg -= datum.qi(a) * datum.a[(a, b)]
    return deg


@dataclass(frozen=True)
class KLRBasisElem:
    """A wiring diagram: perm[s] is the top endpoint of bottom strand s,
    dots[s] the dot exponent at the bottom of strand s.  The crossing part
    is read through the lexicographically smallest reduced word."""

    top: Word
    bottom: Word
    perm: tuple[int, ...]
    dots: tuple[int, ...]

    def degree(self, datum: SatakeDatum) -> int:
        dots = sum(2 * datum.qi(c) * n for c, n in zip(self.bottom, self.dots))
        return dots + _wiring_degree(datum, self.bottom, self.perm)


@dataclass
class KLRElem:
    top: Word
    bottom: Word
    terms: dict[KLRBasisElem, int]

    def __post_init__(self):
        self.terms = {b: c for b, c in self.terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "KLRElem"):
        if self.top != other.top or self.bottom != other.bottom:
            raise ValueError("boundary words differ")

    def __add__(self, other: "KLRElem") -> "KLRElem":
        self._check(other)
        out = dict(self.terms)
        for b, c in other.terms.items():
            _acc(out, b, c)
        return KLRElem(self.top, self.bottom, out)

    def __sub__(self, other: "KLRElem") -> "KLRElem":
        return self + other.scale(-1)

    def scale(self, c: int) -> "KLRElem":
        return KLRElem(self.top, self.bottom, {b: c * v for b, v in self.terms.items()})

    def degrees(self, datum: SatakeDatum) -> set[int]:
        return {b.degree(datum) for b in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, b, c in sorted(
            ((_lexmin_word(b.perm), b, c) for b, c in self.terms.items()),
            key=lambda it: (len(it[0]), it[1].perm, it[1].dots),
        ):
            bits = [f"x{t + 1}^{n}" for t, n in enumerate(b.dots) if n]
            if word:
                bits.append("s(" + " ".join(str(r + 1) for r in word) + ")")
            label = " ".join(bits) if bits else "e"
            parts.append(f"({c:+d})*[{label}]")
        return " + ".join(parts)


def zero(top: Word, bottom: Word) -> KLRElem:
    return KLRElem(tuple(top), tuple(bottom), {})


def diagram(top: Word, bottom: Word, perm, dots) -> KLRElem:
    """The single basis diagram (perm, dots) from bottom to top."""
    top, bottom = tuple(top), tuple(bottom)
    return KLRElem(top, bottom, {KLRBasisElem(top, bottom, tuple(perm), tuple(dots)): 1})


def e(word: Word) -> KLRElem:
    return diagram(word, word, _identity(len(word)), (0,) * len(word))


def dot(word: Word, t: int) -> KLRElem:
    """x_t e_word, t counted from 1."""
    word = tuple(word)
    if not 1 <= t <= len(word):
        raise ValueError(f"dot position {t} outside word of length {len(word)}")
    dots = tuple(1 if s == t - 1 else 0 for s in range(len(word)))
    return diagram(word, word, _identity(len(word)), dots)


def crossing(word: Word, r: int) -> KLRElem:
    """psi_r e_word crossing strands r and r+1, r counted from 1."""
    word = tuple(word)
    if not 1 <= r <= len(word) - 1:
        raise ValueError(f"crossing position {r} outside word of length {len(word)}")
    top = list(word)
    top[r - 1], top[r] = top[r], top[r - 1]
    perm = _swap_values(_identity(len(word)), r - 1)
    return diagram(top, word, perm, (0,) * len(word))


def tensor(a: KLRElem, b: KLRElem) -> KLRElem:
    """Place a to the left of b; disjoint strands never interact, so basis
    diagrams combine to basis diagrams."""
    off = len(a.bottom)
    out: dict[KLRBasisElem, int] = {}
    top = a.top + b.top
    bottom = a.bottom + b.bottom
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            key = KLRBasisElem(
                top,
                bottom,
                ba.perm + tuple(off + t for t in bb.perm),
                ba.dots + bb.dots,
            )
            _acc(out, key, ca * cb)
    return KLRElem(top, bottom, out)


# -- the twisted route's expansions and peel (the tests' reference; these
# memos and _expand_psi and _extract are read by name in perfbench, see the
# coefficient section above) -----------------------------------------------

_PSI_CACHE = Memo("klr._PSI_CACHE")
_ENTRY_CACHE = Memo("klr._ENTRY_CACHE")
_ELEM_CACHE = Memo("klr._ELEM_CACHE")


def _pinned_entry(qt: QTable, i: str, j: str, l: int, r: int):
    """The table polynomial at (i, j) as a coefficient on l strands, pinned
    to strands r, r+1 (0-based): sign * (x_r - x_{r+1})^n."""
    return _ENTRY_CACHE.get_or_make((qt, i, j, l, r), _make_entry, qt, i, j, l, r)


def _make_entry(qt: QTable, i: str, j: str, l: int, r: int):
    """``_pinned_entry``'s maker."""
    forms = _forms(l)
    sign, n = qt.factors[(i, j)]
    k = forms.index[(r, r + 1)]
    return {(0,) * l: sign}, forms.zero[:k] + (n,) + forms.zero[k + 1 :]


def _expand_psi(qt: QTable, bottom: Word, perm) -> dict:
    """Expand the crossing diagram of perm over the bottom word into the
    twisted group algebra: a map permutation -> coefficient.

    The expansion is supported on products of subwords of the reduced word,
    so the only term of maximal length sits at perm itself; that is the
    triangularity the extraction in mul relies on.
    """
    return _PSI_CACHE.get_or_make((qt, bottom, perm), _psi_terms, qt, bottom, perm)


def _psi_terms(qt: QTable, bottom: Word, perm) -> dict:
    """``_expand_psi``'s maker: one crossing of the reduced word per step."""
    l = len(bottom)
    forms = _forms(l)
    terms = {forms.identity: ({(0,) * l: 1}, forms.zero)}
    cw = list(bottom)
    for r in reversed(_lexmin_word(perm)):
        a, b = cw[r], cw[r + 1]
        swap = _swap_values(forms.identity, r)
        new: dict = {}
        if a == b:
            k = forms.index[(r, r + 1)]
            for u, f in terms.items():
                _cacc(forms, new, u, _cdiv_form(f, k))
                g = _cneg(_permute(forms, f, swap))
                _cacc(forms, new, _swap_values(u, r), _cdiv_form(g, k))
        else:
            mult = None if qt.order(a) < qt.order(b) else _pinned_entry(qt, b, a, l, r)
            for u, f in terms.items():
                g = _permute(forms, f, swap)
                _cacc(forms, new, _swap_values(u, r), g if mult is None else _cmul(mult, g))
            cw[r], cw[r + 1] = cw[r + 1], cw[r]
        terms = new
    return terms


def _expand_elem(qt: QTable, x: KLRElem) -> dict:
    key = (qt, x.top, x.bottom, frozenset(x.terms.items()))
    return _ELEM_CACHE.get_or_make(key, _elem_terms, qt, x)


def _elem_terms(qt: QTable, x: KLRElem) -> dict:
    """``_expand_elem``'s maker: each diagram's dots moved through its
    crossing expansion."""
    forms = _forms(len(x.bottom))
    out: dict = {}
    for bas, c in x.terms.items():
        mono = ({bas.dots: c}, forms.zero)
        for u, f in _expand_psi(qt, x.bottom, bas.perm).items():
            _cacc(forms, out, u, _cmul(f, _permute(forms, mono, u)))
    return out


def _polynomial(forms: _Forms, f):
    """The coefficient f as a polynomial, or None if it is not one."""
    num, ex = f
    for k, n in enumerate(ex):
        if n < 0:
            num = _div_form(num, *forms.pairs[k], -n)
            if num is None:
                return None
    for k, n in enumerate(ex):
        if n > 0:
            num = _times_form(num, *forms.pairs[k], n)
    return num


def _extract(qt: QTable, top: Word, bottom: Word, work: dict) -> KLRElem:
    """Peel the basis coefficients off a composite {permutation:
    coefficient}, which is consumed.

    The longest permutation w left is read first: its coefficient is
    divided by the single path to w in its crossing expansion, and the dot
    polynomial found there is recorded; its multiple of that expansion is
    then subtracted from every shorter permutation.  The term at w cancels
    exactly, so w is popped and never comes back.
    """
    l = len(bottom)
    forms = _forms(l)
    for u in work:
        for s in range(l):
            if top[u[s]] != bottom[s]:
                raise ArithmeticError("mismatched strand colors in straightening")
    out: dict[KLRBasisElem, int] = {}
    while work:
        w = max(work, key=_length)
        num, ex = work.pop(w)
        exp = _expand_psi(qt, bottom, w)
        # the single path to w: a sign times a product of linear forms
        lead, lead_ex = exp[w]
        sign = lead.get((0,) * l)
        if len(lead) != 1 or sign not in (1, -1):
            raise ArithmeticError("leading crossing coefficient is not a signed product of forms")
        quot = ({e: sign * c for e, c in num.items()}, tuple(map(sub, ex, lead_ex)))
        dotspoly = _polynomial(forms, _permute(forms, quot, _inverse(w)))
        if dotspoly is None:
            raise ArithmeticError("straightening left a non-polynomial dot part")
        for exps, coeff in dotspoly.items():
            _acc(out, KLRBasisElem(tuple(top), tuple(bottom), w, exps), coeff)
        neg = _cneg((dotspoly, forms.zero))
        for u, f in exp.items():
            if u != w:
                _cacc(forms, work, u, _cmul(f, _permute(forms, neg, u)))
    return KLRElem(tuple(top), tuple(bottom), out)


def _swap_positions(t: tuple, r: int) -> tuple:
    """t with its entries at r and r+1 exchanged."""
    return t[:r] + (t[r + 1], t[r]) + t[r + 2 :]


def _divided_difference(p: dict, r: int) -> dict:
    """(p - s_r p) / (x_r - x_(r+1)), monomial by monomial in closed form:
    x_r^a x_(r+1)^b goes to +-sum_(lo <= i < hi) x_r^i x_(r+1)^(lo + hi - 1 - i)
    with lo, hi = min(a, b), max(a, b), signed + when a > b."""
    out: dict = {}
    for e, c in p.items():
        a, b = e[r], e[r + 1]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail = e[:r], e[r + 2 :]
        for i in range(b, a):
            key = head + (i, a + b - 1 - i) + tail
            out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


# -- the straightening route -----------------------------------------------
#
# A state {u: p} over a bottom word c is the sum of psi_{lexmin(u)} p e(c):
# u a permutation (bottom position -> top position) and p an integer
# polynomial {exponent tuple: int} in the dots at the bottom.  The step
# memo's values are states too and are shared, so every sum below builds
# fresh dicts and never merges into a value it read.  The memo is keyed by
# the table value, as a product's only dependence on it, and by the bottom
# word; it is not scoped, since a run that changes table on every product
# would empty a scoped memo on every product.

_STEP_MEMO = Memo("klr._STEP_MEMO")


def _add_state(out: dict, state: dict) -> None:
    """out += state, copying every polynomial it keeps."""
    for u, p in state.items():
        cur = out.get(u)
        if cur is None:
            out[u] = dict(p)
        else:
            _merge(cur, p)


def _square(qt: QTable, c: Word, r: int) -> dict:
    """psi_r^2 e(c) on mixed colors a, b at r, r+1: the table polynomial
    Q_{a,b}(x_r, x_{r+1}) = sign (x_r - x_{r+1})^n, with (sign, n) =
    factors[(a, b)].  The table's symmetry makes this the entry of the node
    earlier in node order, its sign times (-1)^n when that node is b."""
    sign, n = qt.factors[(c[r], c[r + 1])]
    head, tail = (0,) * r, (0,) * (len(c) - r - 2)
    return {head + (i, n - i) + tail: sign * (-1) ** (n - i) * comb(n, i) for i in range(n + 1)}


def _braid_term(qt: QTable, c: Word, k: int) -> dict:
    """(psi_k psi_{k+1} psi_k - psi_{k+1} psi_k psi_{k+1}) e(c) for colors
    i j i at k, k+1, k+2 with i != j: (Q_{i,j}(x_k, x_{k+1}) -
    Q_{i,j}(x_{k+2}, x_{k+1})) / (x_k - x_{k+2}), which for
    Q_{i,j}(x, y) = sign (x - y)^n is
    sign sum_(a<n) (x_k - x_{k+1})^a (x_{k+2} - x_{k+1})^(n-1-a)."""
    sign, n = qt.factors[(c[k], c[k + 1])]
    head, tail = (0,) * k, (0,) * (len(c) - k - 3)
    out: dict = {}
    for a in range(n):
        b = n - 1 - a
        for i in range(a + 1):
            for j in range(b + 1):
                mid = a - i + b - j
                e = head + (i, mid, j) + tail
                out[e] = out.get(e, 0) + sign * (-1) ** mid * comb(a, i) * comb(b, j)
    return {e: v for e, v in out.items() if v}


def _times_word(p, word) -> tuple[int, ...]:
    """p s_(word[0]) s_(word[1]) ...: the permutation of psi_word on
    len(p) strands when p is the identity."""
    for r in word:
        p = _swap_positions(p, r)
    return p


def _times_psi(qt: QTable, state: dict, c: Word, r: int) -> dict:
    """state psi_r e(c), for a state over c with its entries at r, r+1
    exchanged: p psi_r = psi_r s_r(p) + d_r(p), the divided difference only
    on equal colors, and psi_{lexmin(u)} psi_r from ``_step``."""
    unit = {(0,) * len(c): 1}
    equal = c[r] == c[r + 1]
    out: dict = {}
    for u, p in state.items():
        swapped = {e[:r] + (e[r + 1], e[r]) + e[r + 2 :]: v for e, v in p.items()}
        for w, q in _step(qt, c, u, r).items():
            term = swapped if q == unit else _pmul(q, swapped)
            cur = out.get(w)
            if cur is None:
                out[w] = dict(term)
            else:
                _merge(cur, term)
        if equal:
            dd = _divided_difference(p, r)
            cur = out.get(u)
            if cur is None:
                out[u] = dd
            else:
                _merge(cur, dd)
    return {u: p for u, p in out.items() if p}


def _step(qt: QTable, c: Word, u, r: int) -> dict:
    """psi_{lexmin(u)} psi_r e(c) as a state over c, memoized."""
    return _STEP_MEMO.get_or_make((qt, c, u, r), _make_step, qt, c, u, r)


def _make_step(qt: QTable, c: Word, u, r: int) -> dict:
    """``_step``'s maker.  When u s_r is longer, lexmin(u) r is one of its
    reduced words; otherwise lexmin(u) = lexmin(u s_r) r + T, and
    psi_r^2 e(c) is the pinned table polynomial or 0."""
    v = _swap_positions(u, r)
    out: dict = {}
    if u[r] < u[r + 1]:
        out[v] = {(0,) * len(c): 1}
        x, y = _lexmin_word(u) + (r,), _lexmin_word(v)
        if x != y:
            _add_state(out, _reword(qt, c, x, y))
    else:
        if c[r] != c[r + 1]:
            out[v] = _square(qt, c, r)
        x, y = _lexmin_word(u), _lexmin_word(v) + (r,)
        if x != y:
            _add_state(out, _times_psi(qt, _reword(qt, _swap_positions(c, r), x, y), c, r))
    return {w: p for w, p in out.items() if p}


def _reword(qt: QTable, c: Word, x, y) -> dict:
    """T = psi_x e(c) - psi_y e(c) for two distinct reduced words x, y of
    one permutation, as a state over c, by Tits' recursion on the last
    letters.  Equal last letters r recurse on the heads, times psi_r.
    Otherwise, with s = x[-1] and t = y[-1], both are right descents of the
    permutation, so it is rest w_st with w_st the longest element of
    <s, t>, and both words pass through lexmin(rest) followed by an
    alternating word of s and t, one ending in s and one in t; those two
    differ by one braid move, which leaves a term only on colors i j i with
    i != j.  Every recursion is on shorter words or on words with equal
    last letters.  It is not memoized; ``_step``, its caller, is."""
    s, t = x[-1], y[-1]
    if s == t:
        return _times_psi(qt, _reword(qt, _swap_positions(c, s), x[:-1], y[:-1]), c, s)
    one = _identity(len(c))
    p = _times_word(one, x)
    if p != _times_word(one, y):
        raise ArithmeticError("rewriting between reduced words of different permutations")
    braid = abs(s - t) == 1
    tail_s, tail_t = ((s, t, s), (t, s, t)) if braid else ((t, s), (s, t))
    rest = _times_word(p, reversed(tail_s))
    z = _lexmin_word(rest)
    xs, ys = z + tail_s, z + tail_t
    out: dict = {}
    if x != xs:
        _add_state(out, _reword(qt, c, x, xs))
    k = min(s, t)
    if braid and c[k] == c[k + 2] != c[k + 1]:
        term = _braid_term(qt, c, k)
        if s != k:
            term = {e: -v for e, v in term.items()}
        _add_state(out, {rest: term})
    if ys != y:
        _add_state(out, _reword(qt, c, ys, y))
    return {w: q for w, q in out.items() if q}


def mul(qt: QTable, a: KLRElem, b: KLRElem) -> KLRElem:
    """The product a b, a on top of b, straightened in the polynomial ring:
    a is the starting state, each diagram of b applies its crossings top to
    bottom through ``_times_psi`` and multiplies its dots in last.  A
    wiring whose strands end on other colors is an invariant failure,
    raised as ArithmeticError."""
    if a.bottom != b.top:
        raise ValueError("inner boundary words differ")
    if a.is_zero() or b.is_zero():
        return zero(a.top, b.bottom)
    top, bottom = a.top, b.bottom
    start: dict = {}
    for bas, c in a.terms.items():
        start.setdefault(bas.perm, {})[bas.dots] = c
    out: dict = {}
    for bas, c in b.terms.items():
        state, colors = start, b.top
        for r in _lexmin_word(bas.perm):
            colors = _swap_positions(colors, r)
            state = _times_psi(qt, state, colors, r)
        for u, p in state.items():
            for e, v in p.items():
                key = (u, tuple(map(add, e, bas.dots)))
                out[key] = out.get(key, 0) + c * v
    for u in {u for u, _ in out}:
        if any(top[t] != bottom[s] for s, t in enumerate(u)):
            raise ArithmeticError("mismatched strand colors in straightening")
    terms = {KLRBasisElem(top, bottom, u, d): v for (u, d), v in out.items() if v}
    return KLRElem(top, bottom, terms)


def _mul_twisted(qt: QTable, a: KLRElem, b: KLRElem) -> KLRElem:
    """The product of nonzero a and b with a.bottom == b.top, through the
    twisted group algebra and the peel; the tests' reference for mul."""
    forms = _forms(len(b.bottom))
    ea = _expand_elem(qt, a)
    eb = _expand_elem(qt, b)
    comp: dict = {}
    for u, f in ea.items():
        for w, g in eb.items():
            _cacc(forms, comp, _compose(u, w), _cmul(f, _permute(forms, g, u)))
    return _extract(qt, a.top, b.bottom, comp)


def graded_dim(datum: SatakeDatum, top: Word, bottom: Word, order: int = 20) -> RankSeries:
    """Graded dimension of the span of dotted wiring diagrams: one free
    polynomial strand factor per bottom letter, summed over the
    permutations carrying each bottom position to an equal-colored top one."""
    top = tuple(top)
    bottom = tuple(bottom)
    num = LaurentPoly({})
    if len(top) == len(bottom):
        for w in permutations(range(len(bottom))):
            if all(top[t] == c for c, t in zip(bottom, w)):
                num = num + LaurentPoly.q_power(_wiring_degree(datum, bottom, w))
    den = LaurentPoly.q_power(0)
    for c in bottom:
        den = den * (LaurentPoly.q_power(0) - LaurentPoly.q_power(2 * datum.qi(c)))
    return RankSeries(expand(RatQ(num, den), ASC_Q, order))


def divided_idempotent(qt: QTable, i: str, n: int) -> KLRElem:
    """Staircase dots over the longest-permutation crossing diagram on n
    equal-colored strands; an idempotent projecting to the thick strand."""
    if n < 0:
        raise ValueError("negative thickness")
    word = (i,) * n
    if n <= 1:
        return e(word)
    cross = diagram(word, word, reversed(range(n)), (0,) * n)
    dots = diagram(word, word, _identity(n), (n - 1 - s for s in range(n)))
    return mul(qt, dots, cross)


@dataclass(frozen=True)
class SerreComplexReport:
    i: str
    j: str
    m: int
    dd_zero: bool
    split_ok: bool
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.dd_zero and self.split_ok


def serre_complex_check(qt: QTable, i: str, j: str) -> SerreComplexReport:
    """Verify that peeling one strand off the thick bundle gives a split
    exact complex through the alternating-sum words i^(n) j i^(m-n).

    The differential d_n peels the leftmost strand of the left thick bundle
    across its own bundle and j, sandwiched in divided-power idempotents;
    the splitting s_n peels the rightmost strand of the right bundle back,
    scaled by (-1)^n over the leading coefficient of the table entry.
    """
    datum = qt.datum
    if i == j:
        raise ValueError("need two distinct nodes")
    if datum.tau[j] == i:
        raise ValueError("the involution-paired case has no explicit differential here")
    m = 1 - datum.a[(i, j)]
    if m > 3:
        raise ValueError(f"complex length {m} out of the supported range")
    t = qt.factors[(i, j)][0]
    words = [(i,) * n + (j,) + (i,) * (m - n) for n in range(m + 1)]
    idem = [
        tensor(tensor(divided_idempotent(qt, i, n), e((j,))), divided_idempotent(qt, i, m - n))
        for n in range(m + 1)
    ]
    # each differential is one strand over a block of parallel strands: its
    # permutation avoids the pattern 321, so every reduced word gives this
    # diagram
    flat = (0,) * (m + 1)
    d = {}
    for n in range(1, m + 1):
        # leftmost strand of the left bundle crosses its bundle and j
        perm = (n,) + tuple(range(n)) + tuple(range(n + 1, m + 1))
        d[n] = mul(qt, idem[n - 1], mul(qt, diagram(words[n - 1], words[n], perm, flat), idem[n]))
    s = {}
    for n in range(m):
        # rightmost strand of the right bundle crosses its bundle and j
        perm = tuple(range(n)) + (n + 1,) + tuple(range(n + 2, m + 1)) + (n,)
        elem = mul(qt, idem[n + 1], mul(qt, diagram(words[n + 1], words[n], perm, flat), idem[n]))
        s[n] = elem.scale((-1) ** n * t)
    details = []
    dd_zero = True
    for n in range(1, m):
        prod = mul(qt, d[n], d[n + 1])
        ok = prod.is_zero()
        dd_zero = dd_zero and ok
        details.append(f"d_{n} d_{n + 1} = 0: {'ok' if ok else 'FAIL'}")
    split_ok = True
    for n in range(m + 1):
        acc = zero(words[n], words[n])
        if n >= 1:
            acc = acc + mul(qt, s[n - 1], d[n])
        if n < m:
            acc = acc + mul(qt, d[n + 1], s[n])
        ok = (acc - idem[n]).is_zero()
        split_ok = split_ok and ok
        details.append(f"splitting at n={n}: {'ok' if ok else 'FAIL'}")
    return SerreComplexReport(i, j, m, dd_zero, split_ok, tuple(details))
