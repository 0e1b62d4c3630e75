"""Free-type algebra: derivations, bar involution, and the bilinear form."""

import random

from freealg_reference import Ri, add, iR, iRtilde, mul, psi
from iquantum.freealg import FElem, _derivation, inv_one_minus_qinv2, pair, theta_word
from iquantum.qring import LaurentPoly, RatQ, qfact
from iquantum.standard import STANDARD, qs_a2, split_a1

ALL_DATA = list(STANDARD.values())


def test_mul():
    t1, t2 = FElem.theta("1"), FElem.theta("2")
    assert mul(t1, t2).terms == {("1", "2"): RatQ.one()}
    x = add(mul(t1, t2), t2)
    assert mul(FElem.one(), x) == x
    assert mul(add(t1, t2), t1) == FElem({("1", "1"): RatQ.one(), ("2", "1"): RatQ.one()})


def test_iR_basic():
    datum = qs_a2()
    assert iR(datum, "1", FElem.theta("2")) == FElem.zero()
    assert iR(datum, "1", FElem.one()) == FElem.zero()
    assert iR(datum, "1", FElem.theta("1")) == FElem({(): inv_one_minus_qinv2(1)})
    # one Leibniz step across theta_2: twist by q^{a_{1,2}}
    y = mul(FElem.theta("2"), FElem.theta("1"))
    got = iR(datum, "1", y)
    want = FElem({("2",): RatQ.q_power(-1) * inv_one_minus_qinv2(1)})
    assert got == want


def test_Ri_basic():
    datum = qs_a2()
    y = mul(FElem.theta("1"), FElem.theta("2"))
    got = Ri(datum, "1", y)
    want = FElem({("2",): RatQ.q_power(-1) * inv_one_minus_qinv2(1)})
    assert got == want
    assert Ri(datum, "2", FElem.theta("2")) == FElem({(): inv_one_minus_qinv2(1)})


def test_psi_involution():
    rng = random.Random(3)
    datum = qs_a2()
    x = _rand_elem(rng, datum, 3)
    assert psi(psi(x)) == x
    assert psi(FElem.theta("1")) == FElem.theta("1")
    assert psi(FElem({("1",): RatQ.q_power(1)})) == FElem({("1",): RatQ.q_power(-1)})


def test_iRtilde_is_psi_conjugate():
    rng = random.Random(4)
    for make in ALL_DATA:
        datum = make()
        for _ in range(8):
            y = _rand_elem(rng, datum, 3)
            for i in datum.nodes:
                assert iRtilde(datum, i, y) == psi(iR(datum, i, psi(y)))


def test_derivation_scan_drops_a_key_whose_terms_cancel():
    """On qs_a2, r_1 of q^(-d_1 a_12) theta_1 theta_2 - theta_2 theta_1 is 0:
    the package scan drops the key its two terms reach, as iRtilde does."""
    datum = qs_a2()
    shift = -datum.qi("1") * datum.a[("1", "2")]
    numerators = {("1", "2"): LaurentPoly.q_power(shift), ("2", "1"): -LaurentPoly.one()}
    assert _derivation(datum, "1", numerators) == {}
    assert iRtilde(datum, "1", FElem({w: RatQ(c) for w, c in numerators.items()})) == FElem.zero()


def test_theta_word():
    datum = split_a1()
    x = theta_word(datum, (("1", 2),))
    assert x.terms == {
        ("1", "1"): RatQ.one() / RatQ(qfact(2, 1))
    }
    assert theta_word(datum, ()) == FElem.one()
    a2 = qs_a2()
    y = theta_word(a2, (("1", 2), ("2", 1)))
    assert y.terms[("1", "1", "2")] == RatQ(
        LaurentPoly.one(), LaurentPoly({1: 1, -1: 1})
    )


def test_pair_base_cases():
    datum = qs_a2()
    assert pair(datum, FElem.one(), FElem.one()) == RatQ.one()
    assert pair(datum, FElem.theta("1"), FElem.theta("2")).is_zero()
    assert pair(datum, FElem.theta("1"), FElem.theta("1")) == inv_one_minus_qinv2(1)
    x = mul(FElem.theta("1"), FElem.theta("2"))
    assert pair(datum, x, x) == inv_one_minus_qinv2(1) * inv_one_minus_qinv2(1)


def test_pair_orthogonal_weights():
    datum = qs_a2()
    x = mul(FElem.theta("1"), FElem.theta("1"))
    y = mul(FElem.theta("1"), FElem.theta("2"))
    assert pair(datum, x, y).is_zero()
    assert pair(datum, FElem.one(), y).is_zero()


def _rand_elem(rng, datum, max_len, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        w = tuple(rng.choice(datum.nodes) for _ in range(rng.randint(0, max_len)))
        c = RatQ.q_power(rng.randint(-3, 3), rng.randint(-2, 2))
        if not c.is_zero():
            terms[w] = c
    return FElem(terms)


def _rand_homogeneous(rng, datum, length):
    base = [rng.choice(datum.nodes) for _ in range(length)]
    words = []
    for _ in range(3):
        w = list(base)
        rng.shuffle(w)
        words.append(tuple(w))
    return FElem({w: RatQ.q_power(rng.randint(-2, 2), 1) for w in words})


def test_pair_symmetry_random():
    rng = random.Random(11)
    for make in ALL_DATA:
        datum = make()
        for _ in range(6):
            x = _rand_homogeneous(rng, datum, rng.randint(1, 4))
            y = _rand_homogeneous(rng, datum, rng.randint(1, 4))
            assert pair(datum, x, y) == pair(datum, y, x)


def test_pair_adjunctions_random():
    rng = random.Random(12)
    for make in ALL_DATA:
        datum = make()
        for _ in range(6):
            x = _rand_elem(rng, datum, 2)
            y = _rand_elem(rng, datum, 3)
            for i in datum.nodes:
                ti = FElem.theta(i)
                assert pair(datum, mul(x, ti), y) == pair(datum, x, Ri(datum, i, y))
                assert pair(datum, mul(ti, x), y) == pair(datum, x, iR(datum, i, y))
                # the sesquilinear adjunctions: pair(psi(x), y)
                assert pair(datum, psi(mul(ti, x)), y) == pair(datum, psi(x), iR(datum, i, y))
                assert pair(datum, psi(x), mul(ti, y)) == pair(datum, psi(iRtilde(datum, i, x)), y)


def test_canonical_text():
    x = FElem({("1", "2"): RatQ.one(), (): RatQ.q_power(2)})
    assert str(x) == "(+1*q^2)*[-] + (+1*q^0)*[1 2]"
    assert str(FElem.zero()) == "0"
