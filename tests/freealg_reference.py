"""The free algebra's operations that only the tests read, as plain
functions over ``FElem.terms``: the sum, the product (the bilinear extension
of word concatenation), the bar involution psi and the three whole-element
twisted derivations.  The derivations have a scan of their own on RatQ
coefficients, apart from ``freealg._derivation``, the one ``iuea.act_b``
runs on its Laurent numerators, so a fault in that scan shows as a
disagreement with these.
"""

from iquantum.freealg import FElem, inv_one_minus_q2, inv_one_minus_qinv2
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


def _peel(datum, i: str, y: FElem, side: str, twist: int) -> FElem:
    """Remove each letter i of each word of y, times q_i^(twist * e): e sums
    the Cartan entries a_{i, letter} over the letters before the removed
    one (side "left") or after it (side "right")."""
    d = datum.qi(i)
    out: dict = {}
    for w, c in y.terms.items():
        for s, letter in enumerate(w):
            if letter != i:
                continue
            rest = w[:s] if side == "left" else w[s + 1 :]
            e = sum(datum.a[(i, x)] for x in rest)
            key = w[:s] + w[s + 1 :]
            out[key] = out.get(key, RatQ.zero()) + c * RatQ.q_power(d * twist * e)
    return FElem(out)


def iR(datum, i: str, y: FElem) -> FElem:
    """Left-peeling twisted derivation with theta_j -> delta_ij/(1-q_i^-2)."""
    return _peel(datum, i, y, "left", 1).scale(inv_one_minus_qinv2(datum.qi(i)))


def Ri(datum, i: str, y: FElem) -> FElem:
    """Right-peeling twisted derivation with theta_j -> delta_ij/(1-q_i^-2)."""
    return _peel(datum, i, y, "right", 1).scale(inv_one_minus_qinv2(datum.qi(i)))


def iRtilde(datum, i: str, y: FElem) -> FElem:
    """psi-conjugate of iR: theta_j -> delta_ij/(1-q_i^2), inverse twist."""
    return _peel(datum, i, y, "left", -1).scale(inv_one_minus_q2(datum.qi(i)))
