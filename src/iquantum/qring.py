"""Exact arithmetic in Z[q, q^-1], its fraction field, and truncated series.

Encodings:

* ``LaurentPoly`` is a sparse map exponent -> integer coefficient with no zero
  entries.  All arithmetic is exact; coefficients are Python ints so quantum
  factorials never overflow.
* ``RatQ`` is a normalized quotient num/den of Laurent polynomials.  The
  normal form (gcd over Q[q] removed, denominator with lowest exponent 0 and
  positive leading coefficient, joint integer content 1) is unique, so
  structural equality of the two dictionaries is mathematical equality.  That
  structural equality is the tolerance used by every cross-check in this
  package: there is none.  Normalizing uses integers only: the common factor
  is the primitive gcd over Z[q], which by Gauss's lemma is the gcd over
  Q[q] up to a unit, and it is skipped when either side has one term.
* ``PowerSeriesTrunc`` is a truncated expansion ascending in q, with
  integer coefficients and all stored exponents of magnitude <= order.

Quantum combinatorics (balanced quantum integers, factorials and binomials
in q_i = q^d) live here too, since everything downstream consumes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ASC_Q = "q"


class LaurentPoly:
    """Sparse Laurent polynomial over the integers."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    self.c[int(e)] = int(v)

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = LaurentPoly()
        r.c = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly()
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            r = LaurentPoly()
            if other:
                r.c = {e: v * other for e, v in self.c.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        r = LaurentPoly()
        r.c = out
        return r

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        r = LaurentPoly()
        r.c = {-e: v for e, v in self.c.items()}
        return r

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        r = LaurentPoly()
        r.c = {e + k: v for e, v in self.c.items()}
        return r

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            sign = "+" if v > 0 else "-"
            parts.append(f"{sign}{abs(v)}*q^{e}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.c!r})"


def _int_dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(lowest exponent, ascending dense int coefficient list) of a nonzero p.

    The list starts at the lowest exponent, so its constant term is nonzero:
    the powers of q, units of Z[q, q^-1], are stripped off.
    """
    lo, hi = min(p.c), max(p.c)
    out = [0] * (hi - lo + 1)
    for e, v in p.c.items():
        out[e - lo] = v
    return lo, out


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, signed so the top coefficient is positive."""
    g = 0
    for v in a:
        g = gcd(g, v)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [v // g for v in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b, trimmed.

    Each step cancels a's top term against b's.  It divides exactly when
    b's top coefficient divides a's, and otherwise scales a by it first, as
    pseudo-division does, so every value stays an integer.
    """
    a = list(a)
    n = len(b) - 1
    lead = b[-1]
    while len(a) > n:
        c = a.pop()
        if not c:
            continue
        k = len(a) - n
        if c % lead:
            a = [lead * v for v in a]
        else:
            c //= lead
        for j in range(n):
            a[k + j] -= c * b[j]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z[q] of two nonzero ascending int lists.

    The primitive polynomial remainder sequence (Knuth, TAOCP vol. 2,
    4.6.1): each pseudo-remainder is replaced by its primitive part, so the
    coefficients stay small.  The result has content 1 and a positive top
    coefficient; by Gauss's lemma it is the gcd over Q[q] up to a unit.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _exact_quo(a: list[int], g: list[int]) -> list[int]:
    """a / g over Z[q] for ascending int lists, where g divides a."""
    a = list(a)
    n = len(g) - 1
    lead = g[-1]
    out = [0] * (len(a) - n)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(a[k + n], lead)
        if r:
            raise ArithmeticError("internal error: inexact division by a polynomial gcd")
        if c:
            out[k] = c
            for j in range(n + 1):
                a[k + j] -= c * g[j]
    if any(a[:n]):
        raise ArithmeticError("internal error: inexact division by a polynomial gcd")
    return out


class RatQ:
    """Normalized quotient of Laurent polynomials: the field Q(q) element.

    ``RatQ(num, den)`` brings num/den to the normal form of the module
    docstring without leaving the integers.  Both sides are read as dense
    int lists from their lowest exponents, which strips the powers of q.  If
    both still have two or more terms, they are divided exactly by their
    primitive gcd over Z[q] (``_poly_gcd``); a one-term side shares no
    factor but a constant with the other.  Then the joint integer content is
    divided out, signed so that den's top coefficient is positive.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("RatQ with zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        ln, dn = _int_dense(num)
        ld, dd = _int_dense(den)
        # a one-term side is a unit times a constant, so the gcd is 1
        if len(dn) > 1 and len(dd) > 1:
            g = _poly_gcd(dn, dd)
            if len(g) > 1:
                dn = _exact_quo(dn, g)
                dd = _exact_quo(dd, g)
        # clear the joint integer content, fix the sign on den's top term
        c = 0
        for v in dn:
            c = gcd(c, v)
        for v in dd:
            c = gcd(c, v)
        if dd[-1] < 0:
            c = -c
        shift = ln - ld
        self.num = LaurentPoly()
        self.num.c = {shift + k: v // c for k, v in enumerate(dn) if v}
        self.den = LaurentPoly()
        self.den.c = {k: v // c for k, v in enumerate(dd) if v}

    @staticmethod
    def _trusted(num: LaurentPoly, den: LaurentPoly) -> "RatQ":
        """num/den that is already in normal form, taken as it is."""
        r = RatQ.__new__(RatQ)
        r.num = num
        r.den = den
        return r

    @staticmethod
    def zero() -> "RatQ":
        return RatQ._trusted(LaurentPoly.zero(), LaurentPoly.one())

    @staticmethod
    def one() -> "RatQ":
        return RatQ._trusted(LaurentPoly.one(), LaurentPoly.one())

    @staticmethod
    def from_int(n: int) -> "RatQ":
        return RatQ.q_power(0, n)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "RatQ":
        """coeff * q^e; over the denominator 1 a single term is normal."""
        return RatQ._trusted(LaurentPoly.q_power(e, coeff), LaurentPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatQ") -> "RatQ":
        if not isinstance(other, RatQ):
            return NotImplemented
        return RatQ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatQ":
        if self.is_zero():
            return self
        # sign convention keeps den's leading coefficient positive, so simply
        # negating the numerator preserves the normal form
        return RatQ._trusted(-self.num, self.den)

    def __sub__(self, other: "RatQ") -> "RatQ":
        return self + (-other)

    def __mul__(self, other: "RatQ") -> "RatQ":
        if not isinstance(other, RatQ):
            return NotImplemented
        return RatQ(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatQ") -> "RatQ":
        if not isinstance(other, RatQ):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("RatQ division by zero")
        return RatQ(self.num * other.den, self.den * other.num)

    def bar(self) -> "RatQ":
        """The involution q -> q^-1.

        q -> q^-1 maps coprime sides to coprime sides and keeps their joint
        content, so the normal form needs no gcd: mirror both sides, shift
        them by den's top exponent h so that den's lowest is 0 again, and
        negate both if den's new top coefficient, its old constant term, is
        negative.
        """
        h = max(self.den.c)
        s = -1 if self.den.c[0] < 0 else 1
        num = LaurentPoly()
        num.c = {h - e: s * v for e, v in self.num.c.items()}
        den = LaurentPoly()
        den.c = {h - e: s * v for e, v in self.den.c.items()}
        return RatQ._trusted(num, den)

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatQ({self})"


def qint(n: int, d: int = 1) -> LaurentPoly:
    """Balanced quantum integer [n] in q_i = q^d; [-n] = -[n]."""
    if n < 0:
        return -qint(-n, d)
    return LaurentPoly({d * (n - 1 - 2 * k): 1 for k in range(n)})


def qfact(n: int, d: int = 1) -> LaurentPoly:
    """Quantum factorial [n]!."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    r = LaurentPoly.one()
    for k in range(1, n + 1):
        r = r * qint(k, d)
    return r


def qbinom(m: int, n: int, d: int = 1) -> LaurentPoly:
    """Balanced quantum binomial [m; n]; zero for n < 0.

    Built row by row with no division, by the q-Pascal rule
    [m; k] = q_i^-k [m-1; k] + q_i^(m-k) [m-1; k-1] from [0; k] = 0^k;
    a negative m goes through [m; n] = (-1)^n [n - m - 1; n].
    """
    if n < 0:
        return LaurentPoly.zero()
    if m < 0:
        r = qbinom(n - m - 1, n, d)
        return -r if n % 2 else r
    row = [LaurentPoly.one()] + [LaurentPoly.zero()] * n
    for top in range(1, m + 1):
        row = [row[0]] + [
            row[k].shifted(-d * k) + row[k - 1].shifted(d * (top - k)) for k in range(1, n + 1)
        ]
    return row[n]


class PowerSeriesTrunc:
    """Truncated integer series ascending in q."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, int] | None = None):
        self.order = order
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v and abs(e) <= order:
                    self.coeffs[int(e)] = int(v)

    @staticmethod
    def one(order: int) -> "PowerSeriesTrunc":
        return PowerSeriesTrunc(order, {0: 1})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeriesTrunc):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __mul__(self, other: "PowerSeriesTrunc") -> "PowerSeriesTrunc":
        if self.order != other.order:
            raise ValueError("mismatched series order")
        out: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if abs(e) > self.order:
                    continue
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return PowerSeriesTrunc(self.order, out)

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def __str__(self) -> str:
        return str(LaurentPoly(self.coeffs))

    def __repr__(self) -> str:
        return f"PowerSeriesTrunc({self.order}, {self.coeffs!r})"


def expand(a: RatQ, dir: str, order: int) -> PowerSeriesTrunc:
    """Expand a rational function as a truncated integer series in q.

    ``dir`` must be ``ASC_Q``.  Long division in integers: each coefficient
    is divided exactly by the denominator's lowest term.  A non-integer
    coefficient in the result means some upstream quantity was not the
    integer series it claims to be, so it raises rather than rounding.
    """
    if dir != ASC_Q:
        raise ValueError(f"unknown direction {dir!r}")
    if a.is_zero():
        return PowerSeriesTrunc(order, {})
    ln, nd = _int_dense(a.num)
    ld, dd = _int_dense(a.den)
    val = ln - ld  # valuation of the expansion
    out: dict[int, int] = {}
    coeffs: list[int] = []
    for k in range(order - val + 1):
        c = nd[k] if k < len(nd) else 0
        for j in range(1, min(k, len(dd) - 1) + 1):
            c -= dd[j] * coeffs[k - j]
        c, r = divmod(c, dd[0])
        if r:
            raise _expand_error(nd, dd, coeffs, val, order)
        coeffs.append(c)
        e = val + k
        if c and abs(e) <= order:
            out[e] = c
    return PowerSeriesTrunc(order, out)


def _expand_error(nd: list[int], dd: list[int], coeffs: list[int], val: int, order: int) -> ValueError:
    """The error of an expansion whose next coefficient is not an integer.

    It names the first non-integer coefficient at an exponent within the
    order, or the first one at all if none is; the division goes on over Q
    from ``coeffs``, the integer coefficients so far, to find it.
    """
    seq = [Fraction(c) for c in coeffs]
    first = None
    for k in range(len(coeffs), order - val + 1):
        c = Fraction(nd[k] if k < len(nd) else 0)
        for j in range(1, min(k, len(dd) - 1) + 1):
            c -= dd[j] * seq[k - j]
        c /= dd[0]
        seq.append(c)
        if c.denominator != 1:
            if val + k >= -order:
                first = (c, val + k)
                break
            first = first or (c, val + k)
    c, e = first
    return ValueError(f"non-integer coefficient {c} at q^{e} in series expansion")
