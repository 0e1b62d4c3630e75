"""Tests for the module-element layer: generator action, divided powers,
pairings, straightening coefficients and the degree-(1-a) relation."""

import os
import random
import subprocess
import sys

import pytest

import iquantum
from iquantum import freealg, iuea, satake, selftest, shapes
from iquantum.freealg import FElem, inv_one_minus_q2, inv_one_minus_qinv2
from iquantum.qring import LaurentPoly, RatQ, qint
from iquantum.standard import STANDARD


def make(name):
    return STANDARD[name]()


def weight(datum, lam=None, par=None):
    return satake.make_iweight(datum, lam or {}, par)


def test_unit_and_single_action():
    for name in STANDARD:
        datum = make(name)
        for lw in satake.weight_sweep(datum, -1, 1):
            one = iuea.unit(lw)
            assert one.jt == FElem.one() and one.j == FElem.one()
            for i in datum.nodes:
                xi = iuea.act_b(datum, i, one)
                assert xi.jt == FElem.theta(i)
                assert xi.j == FElem.theta(i)
            assert iuea.ipair(datum, one, one) == RatQ.one()


def _act_b_reference(datum, i, base, jt, j):
    """b_i on the two images coefficient by coefficient: theta_i times the
    image plus the iRtilde (jt) or iR (j) correction of each word, twisted
    by the weight of the component it came from."""
    ti = datum.tau[i]
    di = datum.qi(i)
    vs = datum.varsigma[i]
    th = FElem.theta(i)
    new_jt = th * jt
    new_j = th * j
    for w, c in jt.terms.items():
        ki = satake.apply_word(datum, base, satake.to_dpword(w)).lam_of(i)
        tw = RatQ.q_power(di * (ki - vs - 1))
        new_jt = new_jt + freealg.iRtilde(datum, ti, FElem({w: c})).scale(tw)
    for w, c in j.terms.items():
        ki = satake.apply_word(datum, base, satake.to_dpword(w)).lam_of(i)
        tw = RatQ.q_power(di * (1 + vs - ki))
        new_j = new_j + freealg.iR(datum, ti, FElem({w: c})).scale(tw)
    return new_jt, new_j


def _random_laurent(rng):
    return LaurentPoly({rng.randint(-4, 4): rng.choice([-3, -1, 1, 2]) for _ in range(rng.randint(1, 3))})


def _random_ielem(rng, datum, lw):
    """Random numerators over a random denominator, on random words of
    length at most 3; the two images get independent numerators."""
    words = {tuple(rng.choice(datum.nodes) for _ in range(rng.randint(0, 3))) for _ in range(4)}
    num_jt = {w: _random_laurent(rng) for w in words}
    num_j = {w: _random_laurent(rng) for w in words if rng.randrange(4)}
    den = LaurentPoly({0: 1, 2 * rng.randint(1, 3): -1}) * LaurentPoly.q_power(rng.randint(-2, 2))
    return iuea.IElem(lw, den, num_jt, num_j)


def test_act_b_matches_the_derivation_reference():
    rng = random.Random(6061)
    for name in STANDARD:
        datum = make(name)
        lws = satake.weight_sweep(datum, -2, 2)
        for _ in range(12):
            lw = rng.choice(lws)
            xi = _random_ielem(rng, datum, lw)
            i = rng.choice(datum.nodes)
            got = iuea.act_b(datum, i, xi)
            want_jt, want_j = _act_b_reference(datum, i, lw, xi.jt, xi.j)
            assert got.jt == want_jt and got.j == want_j, (name, i, lw)
            assert got.base == lw


def test_two_step_constant():
    # Acting by b_i then b_{tau i} on 1_lambda leaves, besides the length-two
    # word, a constant whose exponent collapses to 1 + vs_i - lam_i.
    for name in ("diag_a1a1", "qs_a2", "qs_a3"):
        datum = make(name)
        for i in datum.nodes:
            ti = datum.tau[i]
            if ti == i:
                continue
            di = datum.qi(i)
            vs = datum.varsigma[i]
            for lw in satake.weight_sweep(datum, -2, 2):
                li = lw.lam_of(i)
                xi = iuea.act_b(datum, ti, iuea.act_b(datum, i, iuea.unit(lw)))
                c_jt = RatQ.q_power(di * (1 + vs - li)) * inv_one_minus_q2(di)
                c_j = RatQ.q_power(di * (li - vs - 1)) * inv_one_minus_qinv2(di)
                assert xi.jt == FElem({(ti, i): RatQ.one(), (): c_jt})
                assert xi.j == FElem({(ti, i): RatQ.one(), (): c_j})
                assert c_j == c_jt.bar()


def test_single_strand_and_single_cup_pairings():
    for name in STANDARD:
        datum = make(name)
        for i in datum.nodes:
            ti = datum.tau[i]
            di = datum.qi(i)
            vs = datum.varsigma[i]
            for lw in satake.weight_sweep(datum, -2, 2):
                strand = iuea.b_word(datum, ((i, 1),), lw)
                assert iuea.ipair(datum, strand, strand) == inv_one_minus_qinv2(di)
                cup = iuea.b_word(datum, ((ti, 1), (i, 1)), lw)
                want = RatQ.q_power(-di * (1 + vs - lw.lam_of(i))) * inv_one_minus_qinv2(di)
                assert iuea.ipair(datum, cup, iuea.unit(lw)) == want


def test_ipair_base_weight_orthogonality():
    datum = make("qs_a2")
    lw1 = weight(datum, {"1": 1})
    lw2 = weight(datum, {"1": 2})
    x = iuea.b_word(datum, (("1", 1),), lw1)
    y = iuea.b_word(datum, (("1", 1),), lw2)
    assert iuea.ipair(datum, x, y) == RatQ.zero()


def test_b_words_are_bar_symmetric():
    rng = random.Random(20260823)
    for name in STANDARD:
        datum = make(name)
        lws = satake.weight_sweep(datum, -1, 1)
        for _ in range(6):
            lw = rng.choice(lws)
            word = tuple((rng.choice(datum.nodes), rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))
            xi = iuea.b_word(datum, word, lw)
            assert xi.j == xi.jt.psi()


def test_rho_adjunction():
    rng = random.Random(991)
    for name in STANDARD:
        datum = make(name)
        lws = satake.weight_sweep(datum, -1, 1)
        for _ in range(8):
            lw = rng.choice(lws)
            wx = tuple((rng.choice(datum.nodes), 1) for _ in range(rng.randint(0, 2)))
            wy = tuple((rng.choice(datum.nodes), 1) for _ in range(rng.randint(0, 3)))
            i = rng.choice(datum.nodes)
            x = iuea.b_word(datum, wx, lw)
            y = iuea.b_word(datum, wy, lw)
            kappa = satake.apply_word(datum, lw, wx)
            mult = RatQ.q_power(datum.qi(i) * (1 + datum.varsigma[i] - kappa.lam_of(i)))
            lhs = iuea.ipair(datum, iuea.act_b(datum, i, x), y)
            rhs = mult * iuea.ipair(datum, x, iuea.act_b(datum, datum.tau[i], y))
            assert lhs == rhs


def _b_word_reference(datum, word, lw):
    """b_word without the memo: every letter folded right to left from 1_lambda."""
    xi = iuea.unit(lw)
    for i, n in reversed(word):
        xi = iuea.b_divided(datum, i, n, xi)
    return xi


def _seeded_dpwords(rng, datum, count, weight_budget):
    """Seeded divided-power words with their suffixes and one-letter
    extensions, so later calls find partial suffixes in the memo."""
    out = set()
    while len(out) < count:
        word, used = [], 0
        for _ in range(rng.randint(1, 3)):
            n = rng.choice((1, 1, 2, 3))
            if used + n > weight_budget:
                break
            word.append((rng.choice(datum.nodes), n))
            used += n
        word = tuple(word)
        out.update(word[k:] for k in range(len(word) + 1))
        if used < weight_budget:
            out.add(((rng.choice(datum.nodes), 1),) + word)
    words = sorted(out)
    rng.shuffle(words)
    return words


def test_b_word_memo_matches_the_reference_fold():
    rng = random.Random(1010)
    # two data over the same nodes with different Cartan rows, whose
    # weights at equal parities are equal IWeight values
    a1a1 = satake.make_datum(
        ["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
    )
    data = [make(name) for name in STANDARD] + [a1a1]
    powers = {"fixed": 0, "moved": 0}
    for datum in data:
        sweep = satake.weight_sweep(datum, -2, 2)
        lw_a, lw_b = rng.sample(sweep, 2)
        words = _seeded_dpwords(rng, datum, 16, 4 if len(datum.nodes) > 2 else 5)
        for i, n in {letter for w in words for letter in w}:
            if n > 1:
                powers["fixed" if datum.tau[i] == i else "moved"] += 1
        want = {
            lw: {w: _b_word_reference(datum, w, lw) for w in words} for lw in (lw_a, lw_b)
        }
        for lw in (lw_a, lw_b, lw_a):
            for w in words:
                assert iuea.b_word(datum, w, lw) == want[lw][w], (datum.key(), lw, w)
    assert powers["fixed"] >= 5 and powers["moved"] >= 5
    split = make("split_a2")
    assert split.nodes == a1a1.nodes and split.key() != a1a1.key()
    par = {"1": 0, "2": 1}
    lw = satake.make_iweight(split, {}, par)
    assert satake.make_iweight(a1a1, {}, par) == lw
    words = [(), (("2", 1),), (("1", 2), ("2", 1)), (("2", 1), ("1", 2), ("2", 1))]
    want = {d.key(): [_b_word_reference(d, w, lw) for w in words] for d in (split, a1a1)}
    assert want[split.key()][-1] != want[a1a1.key()][-1]
    for datum in (split, a1a1, split, a1a1):
        assert [iuea.b_word(datum, w, lw) for w in words] == want[datum.key()]


def test_b_word_acts_once_per_distinct_word_in_a_block(monkeypatch):
    # one criterion-01 block: every word within the budget on qs_a2 at one
    # weight, where every letter is one b_i
    datum = make("qs_a2")
    words, _ = selftest.word_pairs(datum, selftest._budget("qs_a2"))
    lw = weight(datum, {"1": 1})
    iuea.b_word(datum, (), weight(datum, {"1": 2}))  # another scope empties the memo
    calls = []
    act_b = iuea.act_b

    def counted(datum, i, xi):
        calls.append(i)
        return act_b(datum, i, xi)

    monkeypatch.setattr(iuea, "act_b", counted)
    before = iquantum.cache_stats()["iuea._B_WORD_MEMO"]
    images = {w: iuea.b_word(datum, satake.to_dpword(w), lw) for w in words}
    assert len(calls) == len(words) - 1 == 62
    after = iquantum.cache_stats()["iuea._B_WORD_MEMO"]
    assert after["misses"] - before["misses"] == 62
    assert after["hits"] - before["hits"] == 1  # the empty word
    assert after["size"] == len(words)
    # a repeat is served from the memo, and so is any order of the words
    for w in reversed(words):
        assert iuea.b_word(datum, satake.to_dpword(w), lw) is images[w]
    assert len(calls) == 62
    shuffled = list(words)
    random.Random(11).shuffle(shuffled)
    calls.clear()
    other = weight(datum, {"1": -1})
    for w in shuffled:
        iuea.b_word(datum, satake.to_dpword(w), other)
    assert len(calls) == 62


def test_clear_caches_forgets_the_scopes():
    datum = make("qs_a2")
    lw = weight(datum, {"1": 1})
    word = satake.to_dpword(("1", "2"))
    iuea.b_word(datum, word, lw)
    (sh,) = shapes.enumerate_shapes(datum, ("1",), ("1",))
    shapes.degree(datum, sh, lw)
    assert iuea._B_WORD_MEMO.scope == shapes._ARC_MEMO.scope == (datum.key(), lw)
    iquantum.clear_caches()
    assert iuea._B_WORD_MEMO.scope is None and shapes._ARC_MEMO.scope is None
    # the same weight again is a new scope: the memo is seeded with () and
    # the word's image is computed afresh
    iuea.b_word(datum, word, lw)
    assert iquantum.cache_stats()["iuea._B_WORD_MEMO"] == {"hits": 0, "misses": 1, "size": 3}
    assert () in iuea._B_WORD_MEMO


_BARE_CLEAR = """
from iquantum import iuea, satake
from iquantum.standard import qs_a2

datum = qs_a2()
lw = satake.make_iweight(datum, {"1": 1}, None)
word = satake.to_dpword(("1", "2"))
iuea.b_word(datum, word, lw)
iuea._B_WORD_MEMO.clear()
xi = iuea.b_word(datum, word, lw)
print(xi.jt)
print(xi.j)
"""


def test_b_word_survives_a_bare_clear_of_its_memo():
    # the dict's own clear() keeps the scope but drops every entry; a hang
    # here must fail the test, not stall the suite, so a child runs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(iquantum.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BARE_CLEAR],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    datum = make("qs_a2")
    want = _b_word_reference(datum, satake.to_dpword(("1", "2")), weight(datum, {"1": 1}))
    assert proc.stdout.splitlines() == [str(want.jt), str(want.j)]


def test_divided_power_basics():
    datum = make("qs_a2")
    lw = weight(datum, {"1": 1})
    xi = iuea.b_word(datum, (("1", 1), ("2", 1)), lw)
    assert iuea.b_divided(datum, "1", 0, xi).jt == xi.jt
    one_step = iuea.b_divided(datum, "1", 1, iuea.unit(lw))
    assert one_step.jt == FElem.theta("1")
    with pytest.raises(ValueError):
        iuea.b_divided(datum, "1", -1, iuea.unit(lw))


def test_divided_powers_of_nonfixed_node_stay_monomial():
    # With tau moving i, the correction derivations see no matching letter,
    # so the divided power is exactly the divided theta word.
    for name in ("diag_a1a1", "qs_a2", "qs_a3"):
        datum = make(name)
        for lw in satake.weight_sweep(datum, -1, 1):
            for i in datum.nodes:
                if datum.tau[i] == i:
                    continue
                for n in range(4):
                    xi = iuea.b_word(datum, ((i, n),) if n else (), lw)
                    assert xi.jt == freealg.theta_word(datum, ((i, n),) if n else ())
                    assert xi.j == xi.jt


def test_divided_square_at_fixed_node():
    datum = make("split_a1")
    d = datum.qi("1")
    for p in (0, 1):
        lw = weight(datum, par={"1": p})
        xi = iuea.b_divided(datum, "1", 2, iuea.unit(lw))
        # exponent 1 when the length 2 matches the weight parity, else 3
        e = 1 if p == 0 else 3
        extra = RatQ.q_power(d * e) / RatQ.from_laurent(
            LaurentPoly({0: 1, 4 * d: -1})
        )
        want = freealg.theta_word(datum, (("1", 2),)) + FElem({(): extra})
        assert xi.jt == want


def test_fixed_node_expansion_table():
    # Full table of delta coefficients of b_{i^(n)} 1_lambda on the split
    # rank-one datum, n <= 6, both parities.
    datum = make("split_a1")
    d = datum.qi("1")
    for p in (0, 1):
        lw = weight(datum, par={"1": p})
        for n in range(7):
            xi = iuea.b_word(datum, (("1", n),) if n else (), lw)
            words = {w for w in xi.jt.terms}
            assert words <= {("1",) * (n - 2 * m) for m in range(n // 2 + 1)}
            for m in range(n // 2 + 1):
                got = iuea.jt_delta_coeff(datum, xi, (("1", n - 2 * m),) if n - 2 * m else ())
                e = m * (2 * m - 1) if (n - p) % 2 == 0 else m * (2 * m + 1)
                den = LaurentPoly.one()
                for k in range(1, m + 1):
                    den = den * LaurentPoly({0: 1, 4 * d * k: -1})
                assert got == RatQ(LaurentPoly.q_power(d * e), den)


def test_iserre_relation_sweep():
    for name in STANDARD:
        datum = make(name)
        for lw in satake.weight_sweep(datum, -2, 2):
            for i in datum.nodes:
                for j in datum.nodes:
                    if i == j:
                        continue
                    res = iuea.iserre_check(datum, i, j, lw)
                    assert res.equal, (name, i, j, lw)


def test_iserre_specialization_commutator():
    # a_{i, tau i} = 0: the commutator of the two partner generators acts as
    # the quantum integer of the weight coordinate.
    datum = make("diag_a1a1")
    for lam in range(-3, 4):
        lw = weight(datum, {"1": lam})
        res = iuea.iserre_check(datum, "1", "2", lw)
        want = RatQ.from_laurent(qint(lam, datum.qi("1")))
        assert res.rhs.jt == FElem.one().scale(want)
        assert res.equal


def test_iserre_specialization_length_two():
    # a_{i, tau i} = -1: the right side is an explicit two-term q-scalar
    # times the partner generator.
    datum = make("qs_a2")
    d = datum.qi("1")
    for lam in range(-3, 4):
        lw = weight(datum, {"1": lam})
        res = iuea.iserre_check(datum, "1", "2", lw)
        vs = datum.varsigma["1"]
        c = -(RatQ.q_power(d * (lam - vs - 1)) + RatQ.q_power(d * (1 + vs - lam)))
        assert res.rhs.jt == FElem.theta("1").scale(c)
        assert res.equal


def test_iserre_rejects_equal_nodes():
    datum = make("qs_a2")
    with pytest.raises(ValueError):
        iuea.iserre_check(datum, "1", "1", weight(datum))


def test_f_coeff_against_oracle():
    for name in ("diag_a1a1", "qs_a2", "qs_a3"):
        datum = make(name)
        for lw in satake.weight_sweep(datum, -2, 2):
            for i in datum.nodes:
                if datum.tau[i] == i:
                    continue
                for m in range(1, 5):
                    for n in range(m + 1):
                        assert iuea.f_coeff(datum, n, m, i, lw) == iuea.f_coeff_oracle(
                            datum, n, m, i, lw
                        ), (name, i, n, m)


def test_f_coeff_base_value():
    datum = make("diag_a1a1")
    for lam in range(-3, 4):
        lw = weight(datum, {"1": lam})
        d = datum.qi("1")
        vs = datum.varsigma["1"]
        want = RatQ.q_power(d * (1 + vs - lam)) * inv_one_minus_q2(d)
        assert iuea.f_coeff(datum, 0, 1, "1", lw) == want


def test_f_coeff_range_errors():
    datum = make("qs_a2")
    lw = weight(datum)
    with pytest.raises(ValueError):
        iuea.f_coeff(datum, 2, 1, "1", lw)
    with pytest.raises(ValueError):
        iuea.f_coeff(datum, 0, 0, "1", lw)
    split = make("split_a1")
    with pytest.raises(ValueError):
        iuea.f_coeff(split, 0, 1, "1", weight(split, par={"1": 0}))


def test_bkl_sum_product_form():
    for name in ("diag_a1a1", "qs_a2", "qs_a3"):
        datum = make(name)
        for lw in satake.weight_sweep(datum, -2, 2):
            for i in datum.nodes:
                ti = datum.tau[i]
                if ti == i:
                    continue
                d = datum.qi(i)
                m = 1 - datum.a[(i, ti)]
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
                want = prod * s / RatQ.from_laurent(LaurentPoly({d: 1, -d: -1}))
                assert iuea.bkl_sum(datum, i, lw) == want


def test_nahacurry_single_term_when_not_partner():
    datum = make("qs_a3")
    lw = weight(datum, {"1": 1}, {"2": 0})
    out = iuea.nahacurry_expand(datum, "1", "2", 1, 2, lw)
    assert out == {(("1", 1), ("2", 1), ("1", 1)): RatQ.one()}


def test_nahacurry_partner_correction():
    datum = make("qs_a2")
    lw = weight(datum, {"1": 2})
    out = iuea.nahacurry_expand(datum, "1", "2", 1, 2, lw)
    assert set(out) == {(("1", 1), ("2", 1), ("1", 1)), (("1", 1),)}
    assert out[(("1", 1),)] == iuea.f_coeff(datum, 1, 2, "1", lw)


def test_nahacurry_constant_matches_pairing_quotient():
    # m = n = 1: the coefficient of the empty delta vector is recovered as a
    # quotient of nabla pairings, computed by an entirely different route.
    for name in ("diag_a1a1", "qs_a2"):
        datum = make(name)
        for lw in satake.weight_sweep(datum, -2, 2):
            i, j = "1", "2"
            out = iuea.nahacurry_expand(datum, i, j, 1, 1, lw)
            num = iuea.pair_nabla(datum, iuea.b_word(datum, ((i, 1), (j, 1)), lw), ())
            den = iuea.pair_nabla(datum, iuea.unit(lw), ())
            assert den == RatQ.one()
            assert out[()] == num / den


def test_triangularity_of_nabla_pairing():
    from itertools import product

    datum = make("qs_a2")
    lw = weight(datum, {"1": 1})
    words = [w for n in range(4) for w in product(datum.nodes, repeat=n)]
    for wi in words:
        xi = iuea.b_word(datum, satake.to_dpword(wi), lw)
        for wj in words:
            val = iuea.pair_nabla(datum, xi, satake.to_dpword(wj))
            if not val.is_zero():
                assert satake.leq_lambda(
                    datum,
                    satake.word_weight(satake.to_dpword(wj)),
                    satake.word_weight(satake.to_dpword(wi)),
                )


def _ipair_reference(datum, xi, eta):
    """bar(n_x / den_x) (n_y / den_y) (w_x, w_y) summed over every word pair."""
    total = RatQ.zero()
    for wx, nx in xi.num_jt.items():
        for wy, ny in eta.num_j.items():
            total = total + RatQ(nx, xi.den).bar() * RatQ(ny, eta.den) * freealg._word_pair(
                datum, wx, wy
            )
    return total


def test_ipair_pairs_only_words_of_one_content(monkeypatch):
    rng = random.Random(1118)
    word_pair = freealg._word_pair
    seen = []

    def recorded(datum, wx, wy):
        seen.append((wx, wy))
        return word_pair(datum, wx, wy)

    nonzero = 0
    for name in STANDARD:
        datum = make(name)
        lws = satake.weight_sweep(datum, -1, 1)
        for _ in range(10):
            lw = rng.choice(lws)
            xi = _random_ielem(rng, datum, lw)
            eta = _random_ielem(rng, datum, lw)
            want = _ipair_reference(datum, xi, eta)
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(freealg, "_word_pair", recorded)
                got = iuea.ipair(datum, xi, eta)
            assert got == want
            nonzero += not got.is_zero()
            # every pair of equal content is paired once, and no other pair
            same = [
                (wx, wy) for wx in xi.num_jt for wy in eta.num_j if sorted(wx) == sorted(wy)
            ]
            assert sorted(seen) == sorted(same)
    assert nonzero >= 20


def test_over_by_one_shares_the_numerators():
    rng = random.Random(1119)
    datum = make("qs_a2")
    xi = _random_ielem(rng, datum, rng.choice(satake.weight_sweep(datum, -1, 1)))
    fact = qint(2) * qint(3)
    got = xi.over(LaurentPoly.one(), fact)
    assert got.num_jt is xi.num_jt and got.num_j is xi.num_j
    assert got.den == xi.den * fact
    assert got.jt == xi.jt.scale(RatQ(LaurentPoly.one(), fact))
    assert got.j == xi.j.scale(RatQ(LaurentPoly.one(), fact))
