"""The free algebra's operations that only the tests read, as plain
functions over ``FElem.terms``: the sum, the product (the bilinear extension
of word concatenation), the bar involution psi and the three whole-element
twisted derivations.  The derivations run the package's own scan,
``freealg._derivation``, on RatQ coefficients and multiply by their value on
theta_i; ``iuea`` runs the same scan on Laurent numerators.
"""

from iquantum.freealg import FElem, _derivation, inv_one_minus_q2, inv_one_minus_qinv2
from iquantum.qring import RatQ


def add(x: FElem, y: FElem) -> FElem:
    out = dict(x.terms)
    for w, c in y.terms.items():
        out[w] = out.get(w, RatQ.zero()) + c
    return FElem(out)


def mul(x: FElem, y: FElem) -> FElem:
    out: dict = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            out[w1 + w2] = out.get(w1 + w2, RatQ.zero()) + c1 * c2
    return FElem(out)


def psi(x: FElem) -> FElem:
    """Bar-conjugate every coefficient; words are fixed."""
    return FElem({w: c.bar() for w, c in x.terms.items()})


def iR(datum, i: str, y: FElem) -> FElem:
    """Left-peeling twisted derivation with theta_j -> delta_ij/(1-q_i^-2)."""
    return FElem(_derivation(datum, i, y.terms, "left", 1)).scale(inv_one_minus_qinv2(datum.qi(i)))


def Ri(datum, i: str, y: FElem) -> FElem:
    """Right-peeling twisted derivation with theta_j -> delta_ij/(1-q_i^-2)."""
    return FElem(_derivation(datum, i, y.terms, "right", 1)).scale(inv_one_minus_qinv2(datum.qi(i)))


def iRtilde(datum, i: str, y: FElem) -> FElem:
    """psi-conjugate of iR: theta_j -> delta_ij/(1-q_i^2), inverse twist."""
    return FElem(_derivation(datum, i, y.terms, "left", -1)).scale(inv_one_minus_q2(datum.qi(i)))
