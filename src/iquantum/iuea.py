"""Module elements over an iweight, driven by the b-generator recursion.

An ``IElem`` is a base iweight together with two free-algebra images that
evolve in parallel under ``act_b``: ``jt`` feeds the left slot of the
sesquilinear pairing and ``j`` the right slot.  Both are kept because only
bar-symmetric elements allow recovering one image from the other.

Both images are stored as integer Laurent numerators, one per word, over one
denominator ``den`` that they share.  The recursion knows every denominator
in advance: each action of b_i multiplies ``den`` by f = 1 - q^{2 d_i},
which absorbs the twisted derivations' values 1/f and
1/(1 - q^{-2 d_i}) = -q^{2 d_i}/f, and each divided power multiplies it by
[n]_i!.  So ``act_b`` and ``b_divided`` run on Laurent polynomials and never
take a gcd.  ``ipair`` builds one normalized RatQ per pairing, and reading
``.jt`` or ``.j`` builds the free-algebra image with one normalized RatQ per
word.

``b_word`` memoizes the images of word suffixes, since b_word(w) is one
``b_divided`` on b_word(w[1:]).  The memo's scope is its bound: it holds the
suffixes computed at the (datum content, weight) of the last call, and a
call at another datum content or weight empties it.
``iquantum.cache_stats`` reports its hits, misses and size.

Equality of module elements (``iserre_check``) is tested through the
pairing: the difference of the two sides is paired against every monomial
whose letter content occurs in its support.  Coefficientwise comparison of
the images would be wrong here, since the images live in the free algebra
and the module only sees them modulo the radical of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import freealg
from .freealg import FElem, inv_one_minus_q2
from .memo import Memo
from .qring import LaurentPoly, RatQ, qbinom, qfact, qint
from .satake import (
    DPWord,
    IWeight,
    SatakeDatum,
    Word,
    apply_word,
    to_dpword,
    to_word,
)

Numerators = dict[Word, LaurentPoly]


def _times(nums: Numerators, p: LaurentPoly) -> Numerators:
    if p.is_zero():
        return {}
    if p.c == {0: 1}:
        # shared, not copied: numerator maps are never mutated in place
        return nums
    return {w: n * p for w, n in nums.items()}


def _add(a: Numerators, b: Numerators) -> Numerators:
    out = dict(a)
    for w, n in b.items():
        if w in out:
            s = out[w] + n
            if s.is_zero():
                del out[w]
                continue
            n = s
        out[w] = n
    return out


def _image(nums: Numerators, den: LaurentPoly) -> FElem:
    return FElem({w: RatQ(n, den) for w, n in nums.items()})


class IElem:
    """A module element: base weight plus the two images over ``den``.

    ``num_jt`` and ``num_j`` map words to nonzero Laurent numerators.
    """

    __slots__ = ("base", "den", "num_jt", "num_j")

    def __init__(self, base: IWeight, den: LaurentPoly, num_jt: Numerators, num_j: Numerators):
        self.base = base
        self.den = den
        self.num_jt = num_jt
        self.num_j = num_j

    @property
    def jt(self) -> FElem:
        return _image(self.num_jt, self.den)

    @property
    def j(self) -> FElem:
        return _image(self.num_j, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IElem):
            return NotImplemented
        return self.base == other.base and self.jt == other.jt and self.j == other.j

    __hash__ = None

    def __repr__(self) -> str:
        return f"IElem({self.base}, jt={self.jt}, j={self.j})"

    def __add__(self, other: "IElem") -> "IElem":
        if self.base != other.base:
            raise ValueError("cannot add elements over different base weights")
        if not self.num_jt and not self.num_j:
            return other
        if not other.num_jt and not other.num_j:
            return self
        if self.den == other.den:
            return IElem(
                self.base, self.den, _add(self.num_jt, other.num_jt), _add(self.num_j, other.num_j)
            )
        # cross-multiplied; the sum is normalized only when an image is read
        a, b = self.den, other.den
        return IElem(
            self.base,
            a * b,
            _add(_times(self.num_jt, b), _times(other.num_jt, a)),
            _add(_times(self.num_j, b), _times(other.num_j, a)),
        )

    def __sub__(self, other: "IElem") -> "IElem":
        return self + other.scale(RatQ.from_int(-1))

    def over(self, num: LaurentPoly, den: LaurentPoly) -> "IElem":
        """self times num/den, multiplied out without normalizing."""
        return IElem(
            self.base,
            self.den * den,
            _times(self.num_jt, num),
            _times(self.num_j, num),
        )

    def scale(self, c: RatQ) -> "IElem":
        return self.over(c.num, c.den)


def unit(lw: IWeight) -> IElem:
    """The generator 1_lambda: both images are the empty word."""
    return IElem(lw, LaurentPoly.one(), {(): LaurentPoly.one()}, {(): LaurentPoly.one()})


def zero(lw: IWeight) -> IElem:
    return IElem(lw, LaurentPoly.one(), {}, {})


def _component_weight(datum: SatakeDatum, base: IWeight, w: Word) -> IWeight:
    return apply_word(datum, base, to_dpword(w))


def _support(xi: IElem) -> set[Word]:
    return xi.num_jt.keys() | xi.num_j.keys()


def act_b(datum: SatakeDatum, i: str, xi: IElem) -> IElem:
    """Act by the generator b_i.

    Each image gains a concatenated letter plus a twisted-derivation
    correction whose q-power reads off the weight of the component the
    correction came from.  Over the new denominator den * f, with
    f = 1 - q^{2 d}, the concatenated words carry n * f, iRtilde's value
    1/f is 1 and iR's value -q^{2d}/f is a shift and a sign, so each
    numerator is twisted first and each image takes one derivation scan.
    """
    ti = datum.tau[i]
    di = datum.qi(i)
    d = datum.qi(ti)
    vs = datum.varsigma[i]
    f = LaurentPoly({0: 1, 2 * d: -1})
    lam = {w: _component_weight(datum, xi.base, w).lam_of(i) for w in _support(xi)}
    jt = freealg._derivation(
        datum,
        ti,
        {w: n.shifted(di * (lam[w] - vs - 1)) for w, n in xi.num_jt.items()},
        "left",
        -1,
    )
    j = freealg._derivation(
        datum,
        ti,
        {w: -n.shifted(di * (1 + vs - lam[w]) + 2 * d) for w, n in xi.num_j.items()},
        "left",
        1,
    )
    return IElem(
        xi.base,
        xi.den * f,
        _add({(i,) + w: n * f for w, n in xi.num_jt.items()}, jt),
        _add({(i,) + w: n * f for w, n in xi.num_j.items()}, j),
    )


def _split_by_parity(datum: SatakeDatum, i: str, xi: IElem) -> dict[int, IElem]:
    """Partition an element by the parity of its component weights at i;
    every part keeps the element's denominator."""
    par = {w: _component_weight(datum, xi.base, w).par_of(i) for w in _support(xi)}
    parts: dict[int, tuple[Numerators, Numerators]] = {}
    for k, nums in enumerate((xi.num_jt, xi.num_j)):
        for w, n in nums.items():
            parts.setdefault(par[w], ({}, {}))[k][w] = n
    return {p: IElem(xi.base, xi.den, a, b) for p, (a, b) in parts.items()}


def b_divided(datum: SatakeDatum, i: str, n: int, xi: IElem) -> IElem:
    """The n-th divided power of b_i.

    Away from the fixed locus this is n actions divided by [n]!.  At a
    tau-fixed node the numerator is instead a product of (b_i^2 - [m]^2)
    factors over m of one parity, with b_i left over once when n is odd; the
    parity is read off the source weight of each component, so the element
    is split by parity first.  Two actions multiply the denominator by f^2,
    so [m]^2 cur is subtracted as [m]^2 f^2 cur over the same denominator,
    and both parity parts take as many steps and end over one denominator.
    """
    if n < 0:
        raise ValueError("divided power needs n >= 0")
    if n == 0:
        return xi
    di = datum.qi(i)
    one = LaurentPoly.one()
    fact = qfact(n, di)
    if datum.tau[i] != i:
        out = xi
        for _ in range(n):
            out = act_b(datum, i, out)
        return out.over(one, fact)
    f = LaurentPoly({0: 1, 2 * di: -1})
    f2 = f * f
    result = zero(xi.base)
    for p, part in _split_by_parity(datum, i, xi).items():
        cur = part
        for m in range(n % 2, n):
            if m % 2 != p:
                continue
            cur = act_b(datum, i, act_b(datum, i, cur)) - cur.over(qint(m, di) ** 2 * f2, f2)
        if n % 2:
            cur = act_b(datum, i, cur)
        result = result + cur.over(one, fact)
    return result


# b_word's suffix images, scoped to the (datum.key(), lw) of its last call
_B_WORD_MEMO = Memo("iuea._B_WORD_MEMO")


def b_word(datum: SatakeDatum, word: DPWord, lw: IWeight) -> IElem:
    """Apply the divided powers of a word right to left to 1_lambda.

    b_word(w) = b_divided(w[0], b_word(w[1:])), so a new word is folded
    from its longest suffix in the memo, and every new suffix image is
    stored.  The memo holds one (datum.key(), lw) scope: a call with another
    datum content or weight empties it.  The empty word's 1_lambda, where
    every fold ends, is put back whenever it is missing.  Elements are
    never mutated in place, so the stored images are shared with callers.
    """
    memo = _B_WORD_MEMO.within((datum.key(), lw))
    if () not in memo:
        memo[()] = unit(lw)
    return memo.get_or_make(word, _fold_suffixes, memo, datum, word)


def _fold_suffixes(memo: dict, datum: SatakeDatum, word: DPWord) -> IElem:
    """``b_word``'s maker: fold word onto its longest proper suffix in
    memo, storing each new suffix image."""
    k = 1
    while word[k:] not in memo:
        k += 1
    xi = memo[word[k:]]
    for k in range(k - 1, -1, -1):
        i, n = word[k]
        xi = b_divided(datum, i, n, xi)
        memo[word[k:]] = xi
    return xi


def ipair(datum: SatakeDatum, xi: IElem, eta: IElem) -> RatQ:
    """Sesquilinear pairing: bar the left jt-image against the right j-image.

    Sums bar(n_x) n_y (w_x, w_y) over the memoized word pairings, grouped by
    the denominator of the word pairing, then divides by bar(den_x) den_y
    and normalizes once.  Words of different letter content pair to zero,
    so the right words are bucketed by sorted content once, and a left word
    meets only its own bucket.
    """
    if xi.base != eta.base:
        return RatQ.zero()
    buckets: dict[Word, list[tuple[Word, LaurentPoly]]] = {}
    for wy, ny in eta.num_j.items():
        buckets.setdefault(tuple(sorted(wy)), []).append((wy, ny))
    groups: dict[LaurentPoly, LaurentPoly] = {}
    for wx, nx in xi.num_jt.items():
        bucket = buckets.get(tuple(sorted(wx)))
        if bucket is None:
            continue
        bx = nx.bar()
        for wy, ny in bucket:
            p = freealg._word_pair(datum, wx, wy)
            if p.is_zero():
                continue
            t = bx * ny * p.num
            groups[p.den] = groups[p.den] + t if p.den in groups else t
    if not groups:
        return RatQ.zero()
    num, den = LaurentPoly.zero(), LaurentPoly.one()
    for g, t in groups.items():
        num, den = num * g + t * den, den * g
    return RatQ(num, den * xi.den.bar() * eta.den)


def pair_nabla(datum: SatakeDatum, xi: IElem, word: DPWord) -> RatQ:
    """Pair an element against the dual spanning vector indexed by word.

    The dual vector's j-image is the divided theta word, and the two bar
    twists cancel, leaving a plain bilinear pairing of the jt-image.
    """
    return freealg.pair(datum, xi.jt, freealg.theta_word(datum, word))


def jt_delta_coeff(datum: SatakeDatum, xi: IElem, word: DPWord) -> RatQ:
    """Coefficient of the delta vector of word in xi, read off the jt-image."""
    num = xi.num_jt.get(to_word(word), LaurentPoly.zero())
    for i, n in word:
        num = num * qfact(n, datum.qi(i))
    return RatQ(num, xi.den)


def _radical_zero(datum: SatakeDatum, x: FElem) -> bool:
    """True when x pairs to zero against every word of matching content."""
    contents = {tuple(sorted(w)) for w in x.terms}
    for content in contents:
        for perm in set(permutations(content)):
            if not freealg.pair(datum, x, FElem({perm: RatQ.one()})).is_zero():
                return False
    return True


@dataclass(frozen=True)
class ISerreResult:
    lhs: IElem
    rhs: IElem
    equal: bool


def iserre_check(datum: SatakeDatum, i: str, j: str, lw: IWeight) -> ISerreResult:
    """Both sides of the degree-(1 - a_ij) straightening relation at lw.

    lhs is the alternating sum of b_i-divided powers around b_j; rhs is
    nonzero only when j is the involution partner of i, where it is the
    q-scalar ``bkl_product_form`` times b_i^{(-a_ij)}.  Equality is tested
    on jt-images modulo the radical of the pairing.
    """
    if i == j:
        raise ValueError("iserre_check needs two distinct nodes")
    aij = datum.a[(i, j)]
    nmax = 1 - aij
    lhs = zero(lw)
    for n in range(nmax + 1):
        term = unit(lw)
        term = b_divided(datum, i, nmax - n, term)
        term = act_b(datum, j, term)
        term = b_divided(datum, i, n, term)
        if n % 2:
            term = term.scale(RatQ.from_int(-1))
        lhs = lhs + term
    if datum.tau[j] == i:
        rhs = b_divided(datum, i, -aij, unit(lw)).scale(bkl_product_form(datum, i, lw))
    else:
        rhs = zero(lw)
    equal = _radical_zero(datum, (lhs - rhs).jt)
    return ISerreResult(lhs, rhs, equal)


def _check_fc_args(datum: SatakeDatum, n: int, m: int, i: str) -> None:
    if datum.tau[i] == i:
        raise ValueError("coefficient formulas need a non-fixed node")
    if m < 1 or n < 0 or n > m:
        raise ValueError(f"need 1 <= m and 0 <= n <= m, got n={n}, m={m}")


def f_coeff(datum: SatakeDatum, n: int, m: int, i: str, lw: IWeight) -> RatQ:
    """Closed form of the lower-order coefficient in the word straightening."""
    _check_fc_args(datum, n, m, i)
    di = datum.qi(i)
    a = datum.a[(i, datum.tau[i])]
    li = lw.lam_of(i)
    vs = datum.varsigma[i]
    inv = inv_one_minus_q2(di)
    e1 = 1 + li - vs - (m - n - 1) * (1 - a) - m
    e2 = 1 + (m - n - 1) * (1 - a) + vs - li
    t1 = RatQ.q_power(di * e1) * RatQ.from_laurent(qbinom(m - 1, n - 1, di)) * inv
    t2 = RatQ.q_power(di * e2) * RatQ.from_laurent(qbinom(m - 1, n, di)) * inv
    return t1 + t2


def f_coeff_oracle(datum: SatakeDatum, n: int, m: int, i: str, lw: IWeight) -> RatQ:
    """The same coefficient as a sum over slid strand positions.

    Used as an independent cross-check of f_coeff: the two expressions are
    computed along different routes and must agree exactly.
    """
    _check_fc_args(datum, n, m, i)
    ti = datum.tau[i]
    di = datum.qi(i)
    vs_i = datum.varsigma[i]
    vs_j = datum.varsigma[ti]
    inv = inv_one_minus_q2(di)
    mu1 = apply_word(datum, lw, ((i, m - n - 1),) if m - n - 1 else ())
    mu2 = apply_word(datum, lw, ((i, m - n),) if m - n else ())
    s = RatQ.zero()
    for k in range(m - n):
        s = s + RatQ.q_power(di * (1 + vs_i - mu1.lam_of(i) - 2 * k)) * inv
    for l in range(n):
        s = s + RatQ.q_power(di * (1 + vs_j - mu2.lam_of(ti) - 2 * l)) * inv
    c = RatQ.from_laurent(qfact(m - 1, di)) / (
        RatQ.from_laurent(qfact(n, di)) * RatQ.from_laurent(qfact(m - n, di))
    )
    return c * s


def bkl_sum(datum: SatakeDatum, i: str, lw: IWeight) -> RatQ:
    """Alternating sum of the straightening coefficients at maximal length."""
    m = 1 - datum.a[(i, datum.tau[i])]
    total = RatQ.zero()
    for n in range(m + 1):
        term = f_coeff(datum, n, m, i, lw)
        if n % 2:
            term = -term
        total = total + term
    return total


def bkl_product_form(datum: SatakeDatum, i: str, lw: IWeight) -> RatQ:
    """Closed product form of the alternating straightening sum at i.

    The same scalar multiplies b_i^{(m-1)} on the right side of the
    relation at (i, tau(i)), m = 1 - a_{i,tau(i)}; ``bkl_sum`` reaches it
    through the coefficients instead.
    """
    d = datum.qi(i)
    m = 1 - datum.a[(i, datum.tau[i])]
    li = lw.lam_of(i)
    vs = datum.varsigma[i]
    c2 = m * (m - 1) // 2
    prod = RatQ.one()
    for r in range(1, m):
        prod = prod * RatQ.from_laurent(LaurentPoly({d * r: 1, -d * r: -1}))
    s = RatQ.q_power(d * (li - vs - c2))
    if (m - 1) % 2:
        s = -s
    s = s - RatQ.q_power(d * (c2 + vs - li))
    return prod * s / RatQ.from_laurent(LaurentPoly({d: 1, -d: -1}))


def nahacurry_expand(
    datum: SatakeDatum, i: str, j: str, n: int, m: int, lw: IWeight
) -> dict[DPWord, RatQ]:
    """Expansion of b over the word i^(n) j i^(m-n) in the delta spanning set.

    Returns the word itself with coefficient one, plus an i^(m-1) correction
    exactly when j is the involution partner of i.
    """
    if i == j:
        raise ValueError("nahacurry_expand needs two distinct nodes")
    _check_fc_args(datum, n, m, i)
    head: DPWord = ((i, n),) if n else ()
    tail: DPWord = ((i, m - n),) if m - n else ()
    out: dict[DPWord, RatQ] = {head + ((j, 1),) + tail: RatQ.one()}
    if datum.tau[j] == i:
        key: DPWord = ((i, m - 1),) if m > 1 else ()
        out[key] = f_coeff(datum, n, m, i, lw)
    return out
