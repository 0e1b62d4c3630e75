"""The free-type algebra on theta generators over Q(q).

Encodings:

* ``FElem``: finite map from words (tuples of node names) to RatQ
  coefficients, never storing zeros; the weight of a word is its letter
  multiset.  The package reads an element through its constructors,
  ``scale``, ``==`` and ``str``.  The product (word concatenation), the sum
  and the bar involution psi are the tests' (``tests/freealg_reference.py``).
* Twisted derivations: iR peels from the left, Ri from the right, both
  sending theta_j to delta_{ij}/(1 - q_i^-2); iRtilde is the psi-conjugate
  of iR, with value delta_{ij}/(1 - q_i^2) and inverse twist.  The package
  needs only iRtilde's scan over letter positions, with the exponent prefix
  sums of the Cartan pairing: ``_derivation`` runs it on the Laurent
  numerators of ``iuea.act_b``.  The three whole-element derivations on
  RatQ coefficients, with a scan of their own, are the tests' oracles.
* ``pair`` is the bilinear form with (1,1) = 1 and adjunction peeling the
  left argument's leading letter through iR.
  Symmetry of ``pair`` is a tested property, not an assumption.
"""

from __future__ import annotations

from .memo import Memo
from .qring import LaurentPoly, RatQ, qfact
from .satake import DPWord, SatakeDatum, Word, to_word


def inv_one_minus_qinv2(d: int) -> RatQ:
    """1/(1 - q^{-2d})."""
    return RatQ(LaurentPoly.one(), LaurentPoly({0: 1, -2 * d: -1}))


def inv_one_minus_q2(d: int) -> RatQ:
    """1/(1 - q^{2d})."""
    return RatQ(LaurentPoly.one(), LaurentPoly({0: 1, 2 * d: -1}))


class FElem:
    """Linear combination of words with RatQ coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, RatQ] | None = None):
        self.terms: dict[Word, RatQ] = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(w)] = c

    @staticmethod
    def zero() -> "FElem":
        return FElem()

    @staticmethod
    def one() -> "FElem":
        return FElem({(): RatQ.one()})

    @staticmethod
    def theta(i: str) -> "FElem":
        return FElem({(i,): RatQ.one()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FElem):
            return NotImplemented
        return self.terms == other.terms

    def scale(self, c: RatQ) -> "FElem":
        if c.is_zero():
            return FElem.zero()
        r = FElem()
        r.terms = {w: v * c for w, v in self.terms.items()}
        return r

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            label = " ".join(w) if w else "-"
            parts.append(f"({self.terms[w]})*[{label}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FElem({self})"


def _derivation(datum: SatakeDatum, i: str, terms: dict[Word, LaurentPoly]) -> dict[Word, LaurentPoly]:
    """The iRtilde scan that ``iuea.act_b`` runs on its Laurent numerators,
    before the derivation's value.

    Removes each letter i of each word, shifting the word's numerator by
    q_i^-e, with e the sum of the Cartan entries a_{i, letter} over the
    letters strictly before the removed position.  The caller multiplies by
    the value on theta_i.
    """
    d = datum.qi(i)
    out: dict[Word, LaurentPoly] = {}
    for w, c in terms.items():
        e = 0
        for s, letter in enumerate(w):
            if letter == i:
                key = w[:s] + w[s + 1 :]
                v = c.shifted(-d * e)
                if key in out:
                    v = out[key] + v
                if v.is_zero():
                    del out[key]
                else:
                    out[key] = v
            e += datum.a[(i, letter)]
    return out


def theta_word(datum: SatakeDatum, word: DPWord) -> FElem:
    """Product of divided powers theta_i^(n) = theta_i^n/[n]!."""
    coeff = RatQ.one()
    for i, n in word:
        coeff = coeff / RatQ(qfact(n, datum.qi(i)))
    return FElem({to_word(word): coeff})


def pair(datum: SatakeDatum, x: FElem, y: FElem) -> RatQ:
    """Bilinear form: (1,1) = 1, left letters peel through iR."""
    total = RatQ.zero()
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            p = _word_pair(datum, wx, wy)
            if not p.is_zero():
                total = total + cx * cy * p
    return total


_WORD_PAIR_CACHE = Memo("freealg._WORD_PAIR_CACHE")


def _word_pair(datum: SatakeDatum, wx: Word, wy: Word) -> RatQ:
    """Pairing of two bare words, memoized across calls.

    Peeling removes one matching letter per step, so words with different
    letter multisets pair to zero; that case is filtered before recursing.
    """
    if len(wx) != len(wy) or sorted(wx) != sorted(wy):
        return RatQ.zero()
    if not wx:
        return RatQ.one()
    return _WORD_PAIR_CACHE.get_or_make((datum, wx, wy), _peel_pair, datum, wx, wy)


def _peel_pair(datum: SatakeDatum, wx: Word, wy: Word) -> RatQ:
    """``_word_pair``'s maker: peel the first letter of wx against each
    matching letter of wy."""
    i = wx[0]
    rest = wx[1:]
    d = datum.qi(i)
    value = inv_one_minus_qinv2(d)
    total = RatQ.zero()
    pref = 0
    for s, letter in enumerate(wy):
        if letter == i:
            sub = _word_pair(datum, rest, wy[:s] + wy[s + 1 :])
            if not sub.is_zero():
                total = total + RatQ.q_power(d * pref) * value * sub
        pref += datum.a[(i, letter)]
    return total

