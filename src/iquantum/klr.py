"""Dotted permutation diagrams colored by nodes, multiplied exactly.

Elements are integer combinations of basis diagrams: a permutation wiring
between a bottom and a top word, with dot exponents on the bottom ends.  A
two-variable polynomial table drives the defining relations: a dot sliding
through a crossing of equal colors leaves a correction term, the square of
a mixed-color crossing is the table polynomial pinned to the strands, and
triple crossings satisfy the deformed braid relation.

Products are computed through a faithful action on polynomial vectors: a
crossing acts as the difference-quotient operator on equal colors and as a
(possibly table-weighted) variable swap otherwise.  Composites live in the
twisted group algebra over rational functions, from which the basis
coefficients are recovered by peeling longest permutations; the transition
is triangular, so the peeling terminates and the recovered coefficients are
the unique integral normal form.  Every table entry is +-(x - y)^n and is
held as its integer factor (sign, n), so each rational function that arises
is an integer polynomial times signed powers of the linear forms x_s - x_t;
it is held in exactly that shape, sums need no gcd, and each peel divides
exactly by the forms.  Nothing here computes symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

# Unused: loaded only because perfbench's tracer installs on sympy.polys.fields.
import sympy  # noqa: F401

from .memo import Memo
from .qring import ASC_Q, LaurentPoly, RatQ, expand
from .satake import SatakeDatum, Word
from .shapes import RankSeries

# One small id per distinct table content, (datum.key(), sorted (sign, n)
# factors); the product caches are keyed by it, so equal tables share
# entries.  It holds one entry per distinct table and is never cleared, so
# an id always names one content.
_TABLE_IDS: dict[tuple, int] = {}


def _identity(l: int) -> tuple[int, ...]:
    return tuple(range(l))


def _inv_count(p) -> int:
    return sum(1 for s in range(len(p)) for t in range(s + 1, len(p)) if p[s] > p[t])


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


def _lexmin_word(p) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, greedy on left descents."""
    out = []
    cur = list(p)
    while True:
        pos = {t: s for s, t in enumerate(cur)}
        for r in range(len(cur) - 1):
            if pos[r] > pos[r + 1]:
                out.append(r)
                cur = [r + 1 if t == r else r if t == r + 1 else t for t in cur]
                break
        else:
            return tuple(out)


# -- exact coefficients of the twisted group algebra ---------------------
#
# On l strands a coefficient is a pair (num, ex): num is a sparse integer
# polynomial {exponent tuple: int} and ex a signed exponent vector over the
# linear forms x_s - x_t (s < t, in the order of _Forms.pairs).  The value
# is num * prod (x_s - x_t)^ex.  Every table entry is +-(x - y)^n, so the
# divided differences, the table weights and the variable permutations keep
# this shape.  Sums are lazy (_lazy_add): while a sum is built, a
# coefficient is a map {ex: num}, and a term merges its numerator into the
# one under the same exponent with no multiplication.  The parts are lifted
# to their componentwise minimum exponent once per permutation (_lift): at
# the end of each crossing step of _psi_terms, at the end of _elem_terms,
# and when the peel in _extract reads the coefficient.  No gcd runs: the
# peel divides exactly by the forms once per basis diagram.


class _Forms:
    """The linear forms x_s - x_t (s < t) on l strands, and how a strand
    permutation x_t -> x_{p[t]} acts on them."""

    def __init__(self, l: int):
        self.pairs = tuple((s, t) for s in range(l) for t in range(s + 1, l))
        self.index = {st: k for k, st in enumerate(self.pairs)}
        self.identity = _identity(l)
        self.zero = (0,) * len(self.pairs)
        self._moves: dict[tuple, tuple] = {}

    def move(self, p):
        """(q, src, rev) for x_t -> x_{p[t]}: a monomial's new exponents are
        its old ones read through q = p^-1, form k of the image is form
        src[k] of the original, and the forms in rev came out reversed."""
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
            got = (_inverse(p), tuple(src), tuple(rev))
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
        return {tuple(x + y for x, y in zip(ea, eb)): ca * cb for eb, cb in b.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _times_form(num: dict, s: int, t: int, n: int) -> dict:
    """num * (x_s - x_t)^n."""
    for _ in range(n):
        out: dict = {}
        for e, c in num.items():
            up = e[:s] + (e[s] + 1,) + e[s + 1 :]
            out[up] = out.get(up, 0) + c
            up = e[:t] + (e[t] + 1,) + e[t + 1 :]
            out[up] = out.get(up, 0) - c
        num = {e: c for e, c in out.items() if c}
    return num


def _div_form(num: dict, s: int, t: int):
    """num / (x_s - x_t), or None when x_s = x_t leaves a remainder.

    x_s^k = (x_s - x_t) * sum_{i<k} x_s^i x_t^(k-1-i) + x_t^k, term by term.
    """
    quo: dict = {}
    rem: dict = {}
    for e, c in num.items():
        k, j = e[s], e[t]
        head, mid, tail = e[:s], e[s + 1 : t], e[t + 1 :]
        for i in range(k):
            key = head + (i,) + mid + (j + k - 1 - i,) + tail
            quo[key] = quo.get(key, 0) + c
        key = head + (0,) + mid + (j + k,) + tail
        rem[key] = rem.get(key, 0) + c
    if any(rem.values()):
        return None
    return {e: c for e, c in quo.items() if c}


def _cmul(f, g):
    return _pmul(f[0], g[0]), tuple(a + b for a, b in zip(f[1], g[1]))


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
    q, src, rev = forms.move(p)
    sign = -1 if sum(ex[k] for k in rev) & 1 else 1
    num = {tuple(e[i] for i in q): sign * c for e, c in num.items()}
    return num, tuple(ex[k] for k in src)


def _acc(d, k, v):
    cur = d.get(k)
    d[k] = v if cur is None else cur + v


def _lazy_add(d, k, v):
    """Add the coefficient v = (num, ex) into d[k], a map {ex: num}, with no
    lift.  A numerator that cancels drops its exponent, and a key with no
    exponent left is dropped.  Later terms merge into num in place, so d
    takes ownership of it: the caller passes a numerator nothing else holds,
    a fresh product or a copy."""
    num, ex = v
    parts = d.get(k)
    if parts is None:
        d[k] = {ex: num}
        return
    cur = parts.get(ex)
    if cur is None:
        parts[ex] = num
        return
    _merge(cur, num)
    if not cur:
        del parts[ex]
        if not parts:
            del d[k]


def _lift(forms: _Forms, parts: dict):
    """The sum of the parts {ex: num}, owned by the caller, as one
    coefficient (num, ex) over their componentwise minimum exponent.

    The excess is multiplied out one form at a time, and the parts that then
    agree on every form are merged, so a factor that several parts share is
    multiplied once.
    """
    if len(parts) == 1:
        ((ex, num),) = parts.items()
        return num, ex
    low = tuple(map(min, zip(*parts)))
    acc = {tuple(a - m for a, m in zip(ex, low)): num for ex, num in parts.items()}
    for k, (s, t) in enumerate(forms.pairs):
        lifted: dict = {}
        for exc, num in acc.items():
            if exc[k]:
                num = _times_form(num, s, t, exc[k])
                exc = exc[:k] + (0,) + exc[k + 1 :]
            cur = lifted.get(exc)
            if cur is None:
                lifted[exc] = num
            else:
                _merge(cur, num)
        acc = lifted
    ((_, num),) = acc.items()
    return num, low


def _lift_all(forms: _Forms, d: dict) -> dict:
    """The lazy sums {key: {ex: num}} lifted to {key: (num, ex)}, dropping
    the sums that vanish."""
    out = {}
    for k, parts in d.items():
        f = _lift(forms, parts)
        if f[0]:
            out[k] = f
    return out


class QTable:
    """Crossing polynomials Q_{i,j}(x, y) = sign * (x - y)^n for ordered
    pairs of distinct nodes, held as factors[(i, j)] = (sign, n) with the
    involution sign already applied; t[(i, j)] is the leading coefficient,
    the sign.

    Every table is validated here: each entry must be +-(x - y)^n, and the
    symmetry Q_{i,j}(x, y) = Q_{j,i}(y, x), that is sign_ij = sign_ji *
    (-1)^n, is what makes the polynomial action associative, so a violation
    is an error naming the offending pair.
    """

    def __init__(self, datum: SatakeDatum, factors, sign_convention: str):
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
        self.t = {ij: sign for ij, (sign, _) in self.factors.items()}
        self.sign_convention = sign_convention
        content = (datum.key(), tuple(sorted(self.factors.items())))
        self.content_id = _TABLE_IDS.setdefault(content, len(_TABLE_IDS))

    def order(self, i: str) -> int:
        return self.datum.nodes.index(i)


def geometric_qtable(datum: SatakeDatum, orientation=None, sign_convention: str = "body") -> QTable:
    """Build the quiver choice (x-y)^{#(i->j)} (y-x)^{#(j->i)} and apply the
    involution sign: the factor is (sign * (-1)^{#(j->i)}, #(i->j) + #(j->i)).

    sign_convention "body" multiplies row i by -1 when i is tau-fixed;
    "intro" multiplies entry (i,j) by -1 when i = tau(j).  ``QTable``
    rejects a convention that breaks the table's symmetry on this datum.
    """
    if sign_convention not in ("body", "intro"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    for i in datum.nodes:
        if datum.qi(i) != 1:
            raise ValueError(f"geometric parameters need d_i = 1, got d_{i} = {datum.qi(i)}")
    counts: dict[tuple[str, str], int] = {}
    if orientation is None:
        for i in datum.nodes:
            for j in datum.nodes:
                if datum.nodes.index(i) < datum.nodes.index(j):
                    counts[(i, j)] = -datum.a[(i, j)]
    else:
        for (i, j), n in orientation.items():
            if i not in datum.nodes or j not in datum.nodes:
                raise ValueError(f"orientation names unknown pair ({i}, {j})")
            if n < 0:
                raise ValueError(f"negative edge count for ({i}, {j})")
            counts[(i, j)] = int(n)
    factors = {}
    for i in datum.nodes:
        for j in datum.nodes:
            if i == j:
                continue
            nij = counts.get((i, j), 0)
            nji = counts.get((j, i), 0)
            if nij + nji != -datum.a[(i, j)]:
                raise ValueError(
                    f"orientation of ({i}, {j}) has {nij}+{nji} edges, expected {-datum.a[(i, j)]}"
                )
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
            out[b] = out.get(b, 0) + c
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
        for b, c in sorted(
            self.terms.items(), key=lambda it: (_inv_count(it[0].perm), it[0].perm, it[0].dots)
        ):
            bits = [f"x{t + 1}^{n}" for t, n in enumerate(b.dots) if n]
            word = _lexmin_word(b.perm)
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


_PSI_CACHE = Memo("klr._PSI_CACHE")
_ENTRY_CACHE = Memo("klr._ENTRY_CACHE")
_ELEM_CACHE = Memo("klr._ELEM_CACHE")


def _pinned_entry(qt: QTable, i: str, j: str, l: int, r: int):
    """The table polynomial at (i, j) as a coefficient on l strands, pinned
    to strands r, r+1 (0-based): sign * (x_r - x_{r+1})^n."""
    return _ENTRY_CACHE.get_or_make((qt.content_id, i, j, l, r), _make_entry, qt, i, j, l, r)


def _make_entry(qt: QTable, i: str, j: str, l: int, r: int):
    """``_pinned_entry``'s maker."""
    forms = _forms(l)
    sign, n = qt.factors[(i, j)]
    k = forms.index[(r, r + 1)]
    return {(0,) * l: sign}, forms.zero[:k] + (n,) + forms.zero[k + 1 :]


def _expand_psi(qt: QTable, bottom: Word, perm) -> tuple[Word, dict]:
    """Expand the crossing diagram of perm over the bottom word into the
    twisted group algebra: a map permutation -> coefficient.

    The expansion is supported on products of subwords of the reduced word,
    so the only term of maximal length sits at perm itself; that is the
    triangularity the extraction in mul relies on.
    """
    return _PSI_CACHE.get_or_make((qt.content_id, bottom, perm), _psi_terms, qt, bottom, perm)


def _psi_terms(qt: QTable, bottom: Word, perm) -> tuple[Word, dict]:
    """``_expand_psi``'s maker: one crossing of the reduced word per step."""
    l = len(bottom)
    forms = _forms(l)
    # terms owns its numerators: _cdiv_form hands f's own to _lazy_add
    terms = {forms.identity: ({(0,) * l: 1}, forms.zero)}
    cw = list(bottom)
    for r in reversed(_lexmin_word(perm)):
        a, b = cw[r], cw[r + 1]
        swap = _swap_values(forms.identity, r)
        new: dict = {}
        if a == b:
            k = forms.index[(r, r + 1)]
            for u, f in terms.items():
                _lazy_add(new, u, _cdiv_form(f, k))
                g = _cneg(_permute(forms, f, swap))
                _lazy_add(new, _swap_values(u, r), _cdiv_form(g, k))
        else:
            mult = None if qt.order(a) < qt.order(b) else _pinned_entry(qt, b, a, l, r)
            for u, f in terms.items():
                g = _permute(forms, f, swap)
                _lazy_add(new, _swap_values(u, r), g if mult is None else _cmul(mult, g))
            cw[r], cw[r + 1] = cw[r + 1], cw[r]
        terms = _lift_all(forms, new)
    return tuple(cw), terms


def _expand_elem(qt: QTable, x: KLRElem) -> dict:
    key = (qt.content_id, x.top, x.bottom, frozenset(x.terms.items()))
    return _ELEM_CACHE.get_or_make(key, _elem_terms, qt, x)


def _elem_terms(qt: QTable, x: KLRElem) -> dict:
    """``_expand_elem``'s maker: each diagram's dots moved through its
    crossing expansion."""
    forms = _forms(len(x.bottom))
    out: dict = {}
    for bas, c in x.terms.items():
        mono = ({bas.dots: c}, forms.zero)
        _, exp = _expand_psi(qt, x.bottom, bas.perm)
        for u, f in exp.items():
            _lazy_add(out, u, _cmul(f, _permute(forms, mono, u)))
    return _lift_all(forms, out)


def _polynomial(forms: _Forms, f):
    """The coefficient f as a polynomial, or None if it is not one."""
    num, ex = f
    for k, n in enumerate(ex):
        for _ in range(-n):
            num = _div_form(num, *forms.pairs[k])
            if num is None:
                return None
    for k, n in enumerate(ex):
        if n > 0:
            num = _times_form(num, *forms.pairs[k], n)
    return num


def _extract(qt: QTable, top: Word, bottom: Word, work: dict) -> KLRElem:
    """Peel the basis coefficients off a composite {permutation: {ex: num}},
    which is consumed.

    The longest permutation w left is read first: its parts are lifted once
    and summed, divided by the single path to w in its crossing expansion,
    and the dot polynomial found there is recorded; its multiple of that
    expansion is then subtracted lazily from every shorter permutation.  The
    term at w cancels exactly, so w is popped and never comes back.  Parts
    that sum to zero at the lift are skipped.
    """
    l = len(bottom)
    forms = _forms(l)
    for u in work:
        for s in range(l):
            if top[u[s]] != bottom[s]:
                raise ValueError("mismatched strand colors in straightening")
    out: dict[KLRBasisElem, int] = {}
    while work:
        w = max(work, key=_inv_count)
        num, ex = _lift(forms, work.pop(w))
        if not num:
            continue
        _, exp = _expand_psi(qt, bottom, w)
        # the single path to w: a sign times a product of linear forms
        lead, lead_ex = exp[w]
        sign = lead.get((0,) * l)
        if len(lead) != 1 or sign not in (1, -1):
            raise ArithmeticError("leading crossing coefficient is not a signed product of forms")
        quot = ({e: sign * c for e, c in num.items()}, tuple(a - b for a, b in zip(ex, lead_ex)))
        dotspoly = _polynomial(forms, _permute(forms, quot, _inverse(w)))
        if dotspoly is None:
            raise ValueError("straightening left a non-polynomial dot part")
        for exps, coeff in dotspoly.items():
            _acc(out, KLRBasisElem(tuple(top), tuple(bottom), w, exps), coeff)
        neg = _cneg((dotspoly, forms.zero))
        for u, f in exp.items():
            if u != w:
                _lazy_add(work, u, _cmul(f, _permute(forms, neg, u)))
    return KLRElem(tuple(top), tuple(bottom), out)


def mul(qt: QTable, a: KLRElem, b: KLRElem) -> KLRElem:
    if a.bottom != b.top:
        raise ValueError("inner boundary words differ")
    if a.is_zero() or b.is_zero():
        return zero(a.top, b.bottom)
    forms = _forms(len(b.bottom))
    ea = _expand_elem(qt, a)
    eb = _expand_elem(qt, b)
    comp: dict = {}
    for u, f in ea.items():
        for w, g in eb.items():
            _lazy_add(comp, _compose(u, w), _cmul(f, _permute(forms, g, u)))
    return _extract(qt, a.top, b.bottom, comp)


def _matchings(top: Word, bottom: Word):
    """Permutations carrying bottom positions to equal-colored top positions."""
    l = len(bottom)
    out = []

    def rec(s, used, acc):
        if s == l:
            out.append(tuple(acc))
            return
        for t in range(l):
            if t not in used and top[t] == bottom[s]:
                rec(s + 1, used | {t}, acc + [t])

    if len(top) == l:
        rec(0, frozenset(), [])
    return out


def graded_dim(datum: SatakeDatum, top: Word, bottom: Word, order: int = 20) -> RankSeries:
    """Graded dimension of the span of dotted wiring diagrams: one free
    polynomial strand factor per bottom letter, summed over matchings."""
    top = tuple(top)
    bottom = tuple(bottom)
    num = LaurentPoly({})
    for w in _matchings(top, bottom):
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
    t = qt.t[(i, j)]
    words = [(i,) * n + (j,) + (i,) * (m - n) for n in range(m + 1)]
    idem = [
        tensor(tensor(divided_idempotent(qt, i, n), e((j,))), divided_idempotent(qt, i, m - n))
        for n in range(m + 1)
    ]

    def lateral(bottom, top, perm):
        # one strand over a block of parallel strands: the permutation
        # avoids the pattern 321, so every reduced word gives this diagram
        return diagram(top, bottom, perm, (0,) * len(bottom))

    d = {}
    for n in range(1, m + 1):
        # leftmost strand of the left bundle crosses its bundle and j
        perm = (n,) + tuple(range(n)) + tuple(range(n + 1, m + 1))
        d[n] = mul(qt, idem[n - 1], mul(qt, lateral(words[n], words[n - 1], perm), idem[n]))
    s = {}
    for n in range(m):
        # rightmost strand of the right bundle crosses its bundle and j
        perm = tuple(range(n)) + (n + 1,) + tuple(range(n + 2, m + 1)) + (n,)
        elem = mul(qt, idem[n + 1], mul(qt, lateral(words[n], words[n + 1], perm), idem[n]))
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
