"""Module elements over an iweight, driven by the b-generator recursion.

An ``IElem`` is a base iweight together with two free-algebra images that
evolve in parallel under ``act_b``: ``jt`` feeds the left slot of the
sesquilinear pairing and ``j`` the right slot.  Both are kept because only
bar-symmetric elements allow recovering one image from the other.

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


@dataclass
class IElem:
    """A module element: base weight plus the two free-algebra images."""

    base: IWeight
    jt: FElem
    j: FElem | None

    def __add__(self, other: "IElem") -> "IElem":
        if self.base != other.base:
            raise ValueError("cannot add elements over different base weights")
        if self.j is None or other.j is None:
            raise ValueError("cannot add elements without materialized j-images")
        return IElem(self.base, self.jt + other.jt, self.j + other.j)

    def __sub__(self, other: "IElem") -> "IElem":
        return self + other.scale(RatQ.from_int(-1))

    def scale(self, c: RatQ) -> "IElem":
        return IElem(self.base, self.jt.scale(c), None if self.j is None else self.j.scale(c))


def unit(lw: IWeight) -> IElem:
    """The generator 1_lambda: both images are the empty word."""
    return IElem(lw, FElem.one(), FElem.one())


def zero(lw: IWeight) -> IElem:
    return IElem(lw, FElem.zero(), FElem.zero())


def _component_weight(datum: SatakeDatum, base: IWeight, w: Word) -> IWeight:
    return apply_word(datum, base, to_dpword(w))


def act_b(datum: SatakeDatum, i: str, xi: IElem) -> IElem:
    """Act by the generator b_i.

    Each image gains a concatenated letter plus a twisted-derivation
    correction whose q-power reads off the weight of the component the
    correction came from.
    """
    if xi.j is None:
        raise ValueError("cannot act on an element without a materialized j-image")
    ti = datum.tau[i]
    di = datum.qi(i)
    vs = datum.varsigma[i]
    th = FElem.theta(i)
    new_jt = th * xi.jt
    new_j = th * xi.j
    for w, c in xi.jt.terms.items():
        ki = _component_weight(datum, xi.base, w).lam_of(i)
        tw = RatQ.q_power(di * (ki - vs - 1))
        new_jt = new_jt + freealg.iRtilde(datum, ti, FElem({w: c})).scale(tw)
    for w, c in xi.j.terms.items():
        ki = _component_weight(datum, xi.base, w).lam_of(i)
        tw = RatQ.q_power(di * (1 + vs - ki))
        new_j = new_j + freealg.iR(datum, ti, FElem({w: c})).scale(tw)
    return IElem(xi.base, new_jt, new_j)


def _split_by_parity(datum: SatakeDatum, i: str, xi: IElem) -> dict[int, IElem]:
    """Partition an element by the parity of its component weights at i."""
    parts: dict[int, list[FElem]] = {}
    for w, c in xi.jt.terms.items():
        p = _component_weight(datum, xi.base, w).par_of(i)
        slot = parts.setdefault(p, [FElem.zero(), FElem.zero()])
        slot[0] = slot[0] + FElem({w: c})
    for w, c in xi.j.terms.items():
        p = _component_weight(datum, xi.base, w).par_of(i)
        slot = parts.setdefault(p, [FElem.zero(), FElem.zero()])
        slot[1] = slot[1] + FElem({w: c})
    return {p: IElem(xi.base, a, b) for p, (a, b) in parts.items()}


def b_divided(datum: SatakeDatum, i: str, n: int, xi: IElem) -> IElem:
    """The n-th divided power of b_i.

    Away from the fixed locus this is n actions divided by [n]!.  At a
    tau-fixed node the numerator is instead a product of (b_i^2 - [m]^2)
    factors over m of one parity, with b_i left over once when n is odd; the
    parity is read off the source weight of each component, so the element
    is split by parity first.
    """
    if n < 0:
        raise ValueError("divided power needs n >= 0")
    if n == 0:
        return xi
    di = datum.qi(i)
    fact = RatQ.one() / RatQ.from_laurent(qfact(n, di))
    if datum.tau[i] != i:
        out = xi
        for _ in range(n):
            out = act_b(datum, i, out)
        return out.scale(fact)
    result = zero(xi.base)
    for p, part in _split_by_parity(datum, i, xi).items():
        cur = part
        for m in range(n % 2, n):
            if m % 2 != p:
                continue
            sq = RatQ.from_laurent(qint(m, di)) ** 2
            cur = act_b(datum, i, act_b(datum, i, cur)) - cur.scale(sq)
        if n % 2:
            cur = act_b(datum, i, cur)
        result = result + cur.scale(fact)
    return result


def b_word(datum: SatakeDatum, word: DPWord, lw: IWeight) -> IElem:
    """Apply the divided powers of a word right to left to 1_lambda."""
    xi = unit(lw)
    for i, n in reversed(word):
        xi = b_divided(datum, i, n, xi)
    return xi


def delta(datum: SatakeDatum, word: DPWord, lw: IWeight) -> IElem:
    """Spanning vector with jt-image exactly the divided theta word.

    The j-image is deliberately left unmaterialized: recovering it would
    mean inverting the recursion, and every pairing this package needs
    consumes these vectors through ``pair_nabla`` instead.
    """
    return IElem(lw, freealg.theta_word(datum, word), None)


def ipair(datum: SatakeDatum, xi: IElem, eta: IElem) -> RatQ:
    """Sesquilinear pairing: bar the left jt-image against the right j-image."""
    if eta.j is None:
        raise ValueError("right argument has no materialized j-image; use pair_nabla")
    if xi.base != eta.base:
        return RatQ.zero()
    return freealg.sesq(datum, xi.jt, eta.j)


def pair_nabla(datum: SatakeDatum, xi: IElem, word: DPWord) -> RatQ:
    """Pair an element against the dual spanning vector indexed by word.

    The dual vector's j-image is the divided theta word, and the two bar
    twists cancel, leaving a plain bilinear pairing of the jt-image.
    """
    return freealg.pair(datum, xi.jt, freealg.theta_word(datum, word))


def jt_delta_coeff(datum: SatakeDatum, xi: IElem, word: DPWord) -> RatQ:
    """Coefficient of the delta vector of word in xi, read off the jt-image."""
    c = xi.jt.coeff(to_word(word))
    for i, n in word:
        c = c * RatQ.from_laurent(qfact(n, datum.qi(i)))
    return c


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
    equal = _radical_zero(datum, lhs.jt - rhs.jt)
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
