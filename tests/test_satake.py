"""Satake data, iweights, the weight of a word, the cone order, and word
bookkeeping."""

import random
from collections import Counter

import pytest

from iquantum.satake import (
    IWeight,
    SatakeDatum,
    apply_word,
    format_dpword,
    leq_lambda,
    make_datum,
    make_iweight,
    orbit_reps,
    parse_dpword,
    to_word,
    validate,
    weight_sweep,
    word_weight,
)
from iquantum.standard import STANDARD, qs_a2, qs_a3, split_a1, split_a2
from small_data import FIXED_A1A1, MIXED_D


ALL_DATA = list(STANDARD.values())


def shift(datum, lw, j, sign):
    """Reference for ``apply_word``: shift an iweight by +alpha_j (sign=+1)
    or -alpha_j (sign=-1), one letter at a time."""
    tj = datum.tau[j]
    lam = {}
    par = {}
    for i in datum.nodes:
        if datum.tau[i] == i:
            par[i] = (lw.par_of(i) + datum.a[(i, j)]) % 2
        else:
            v = lw.lam_of(i) + sign * (datum.a[(i, j)] - datum.a[(i, tj)])
            if v:
                lam[i] = v
    return IWeight(
        lam=tuple((i, lam[i]) for i in datum.nodes if i in lam),
        par=tuple((i, par[i]) for i in datum.nodes if i in par),
    )


@pytest.mark.parametrize("make", ALL_DATA)
def test_standard_data_validate(make):
    assert validate(make()) == []


def test_validate_diagnostics():
    swap = {"1": "2", "2": "1"}
    fixed = {"1": "1", "2": "2"}
    # (nodes, cartan rows, d, tau, varsigma, a fragment of one error)
    checks = [
        (["1", "2"], [[2, -1], [-1, 2]], [1, 1], swap, {"1": 0, "2": 0}, "varsigma sum rule"),
        (["1"], [[2]], [1], {"1": "1"}, {"1": 0}, "must be -1"),
        (["1", "2"], [[2, 0], [0, 2]], [1, 1], swap, {"1": 1, "2": -1}, "must be 0 when"),
        (["1", "2"], [[2, -1], [-1, 2]], [1, 1], swap, {"1": -2, "2": 3}, "negative at non-fixed"),
        (
            ["1", "2"], [[2, 0], [0, 2]], [1, 1], swap, {"1": 0},
            "missing d/tau/varsigma entry for node 2",
        ),
        (
            ["1", "2"], [[3, 0], [0, 2]], [1, 1], swap, {"1": 0, "2": 0},
            "diagonal cartan entry a[1,1] = 3 != 2",
        ),
        (
            ["1", "2"], [[2, 0], [0, 2]], [0, 0], swap, {"1": 0, "2": 0},
            "symmetrizer d[1] = 0 not positive",
        ),
        (
            ["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "9", "2": "1"}, {"1": 0, "2": 0},
            "tau[1] = 9 is not a node",
        ),
        (
            ["1", "2", "3"], [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1, 1, 1],
            {"1": "2", "2": "3", "3": "1"}, {"1": 0, "2": 0, "3": 0},
            "tau is not an involution at 1",
        ),
        (
            ["1", "2"], [[2, 1], [1, 2]], [1, 1], swap, {"1": 0, "2": 0},
            "off-diagonal a[1,2] = 1 positive",
        ),
        (
            ["1", "2"], [[2, 0], [-1, 2]], [1, 1], fixed, {"1": -1, "2": -1},
            "zero pattern of a not symmetric at (1,2)",
        ),
        (
            ["1", "2"], [[2, -1], [-2, 2]], [1, 1], fixed, {"1": -1, "2": -1},
            "symmetrizability d_i a_ij = d_j a_ji fails at (1,2)",
        ),
        (
            ["1", "2", "3"], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1],
            {"1": "2", "2": "1", "3": "3"}, {"1": 0, "2": 0, "3": -1},
            "tau-invariance of a fails at (1,3)",
        ),
        (
            ["1", "2"], [[2, 0], [0, 2]], [1, 2], swap, {"1": 0, "2": 0},
            "tau-invariance of d fails at 1",
        ),
    ]
    for *data, message in checks:
        msgs = validate(make_datum(*data))
        assert any(message in m and not m.startswith("warning:") for m in msgs), (message, msgs)


def test_validate_parity_warning_only():
    # two tau-fixed nodes with a_{12} = -1, a_{21} = -2: mod-2 mismatch
    msgs = validate(MIXED_D)
    assert msgs and all(m.startswith("warning:") for m in msgs)


def test_iweight_construction():
    datum = qs_a2()
    lw = make_iweight(datum, {"1": 3})
    assert lw.lam_of("1") == 3 and lw.lam_of("2") == -3
    with pytest.raises(KeyError):
        lw.par_of("1")  # no parity at a node that tau moves
    with pytest.raises(ValueError):
        make_iweight(datum, {"7": 1})
    with pytest.raises(ValueError):
        make_iweight(datum, {"1": 3, "2": 3})
    with pytest.raises(ValueError):
        make_iweight(datum, {"1": 1}, {"1": 0})
    a3 = qs_a3()
    with pytest.raises(ValueError):
        make_iweight(a3, {"1": 1})  # parity for node 2 missing
    lw3 = make_iweight(a3, {"1": 2}, {"2": 1})
    assert lw3.lam_of("3") == -2 and lw3.par_of("2") == 1
    with pytest.raises(ValueError):
        make_iweight(a3, {"2": 1}, {"2": 0})  # nonzero lam at fixed node


def test_shift_examples():
    datum = qs_a2()
    lw = make_iweight(datum, {})
    up = shift(datum, lw, "1", 1)
    assert up.lam_of("1") == 3 and up.lam_of("2") == -3
    assert apply_word(datum, up, (("1", 1),)) == lw
    assert apply_word(datum, lw, (("1", 2),)) == make_iweight(datum, {"1": -6})
    a1 = split_a1()
    lw1 = make_iweight(a1, {}, {"1": 0})
    assert apply_word(a1, lw1, (("1", 1),)).par_of("1") == 0  # a_11 = 2 even
    a2 = split_a2()
    lw2 = make_iweight(a2, {}, {"1": 0, "2": 0})
    # a_21 = -1 is odd: each letter 1 flips the parity at 2
    assert apply_word(a2, lw2, (("1", 1),)).par == (("1", 0), ("2", 1))
    assert apply_word(a2, lw2, (("1", 2),)).par == (("1", 0), ("2", 0))
    assert apply_word(a2, lw2, (("1", 3), ("2", 1))).par == (("1", 1), ("2", 1))


def test_shift_tau_pair_cancels():
    datum = qs_a3()
    lw = make_iweight(datum, {"1": 1}, {"2": 0})
    out = apply_word(datum, lw, (("1", 1), ("3", 1)))
    for i in datum.nodes:
        assert out.lam_of(i) == lw.lam_of(i)
    assert out == shift(datum, shift(datum, lw, "1", -1), "3", -1)


def test_dontmentionit_identity():
    rng = random.Random(7)
    for make in ALL_DATA:
        datum = make()
        for _ in range(20):
            free = {i: rng.randint(-4, 4) for i in datum.nodes if datum.tau[i] > i}
            par = {i: rng.randint(0, 1) for i in datum.nodes if datum.tau[i] == i}
            lw = make_iweight(datum, free, par)
            for i in datum.nodes:
                ti = datum.tau[i]
                lhs = datum.varsigma[ti] - lw.lam_of(ti)
                rhs = lw.lam_of(i) - datum.varsigma[i] - datum.a[(i, ti)]
                assert lhs == rhs


def test_leq_lambda_examples():
    a1 = split_a1()
    zero = Counter()
    assert leq_lambda(a1, zero, zero)
    assert leq_lambda(a1, zero, Counter({"1": 2}))
    assert not leq_lambda(a1, zero, Counter({"1": 1}))
    a2 = qs_a2()
    assert leq_lambda(a2, zero, Counter({"1": 1, "2": 1}))
    assert not leq_lambda(a2, zero, Counter({"1": 1}))
    assert not leq_lambda(a2, Counter({"1": 1}), zero)


def test_leq_lambda_partial_order_random():
    rng = random.Random(41)
    datum = qs_a3()
    vecs = [
        Counter({i: rng.randint(0, 3) for i in datum.nodes})
        for _ in range(40)
    ]
    for a in vecs:
        assert leq_lambda(datum, a, a)
    for a in vecs:
        for b in vecs:
            if leq_lambda(datum, a, b) and leq_lambda(datum, b, a):
                assert a == b
    for a in vecs:
        for b in vecs:
            for c in vecs:
                if leq_lambda(datum, a, b) and leq_lambda(datum, b, c):
                    assert leq_lambda(datum, a, c)


def test_words():
    datum = qs_a2()
    w = parse_dpword("1^(2) 2", datum)
    assert w == (("1", 2), ("2", 1))
    assert word_weight(w) == Counter({"1": 2, "2": 1})
    assert to_word(w) == ("1", "1", "2")
    assert format_dpword(w) == "1^(2) 2"
    assert parse_dpword("", datum) == ()
    with pytest.raises(ValueError):
        parse_dpword("7", datum)
    with pytest.raises(ValueError):
        parse_dpword("1^(0)", datum)
    with pytest.raises(ValueError):
        parse_dpword("1^[2]", datum)


def test_apply_word_roundtrip():
    datum = qs_a2()
    lw = make_iweight(datum, {"1": 2})
    w = parse_dpword("1 2^(2) 1", datum)
    out = apply_word(datum, lw, w)
    back = out
    for i, n in reversed(w):
        for _ in range(n):
            back = shift(datum, back, i, 1)
    assert back == lw
    assert apply_word(datum, lw, ()) == lw
    # two words of equal weight shift lambda identically
    w2 = parse_dpword("2 1^(2) 2", datum)
    assert word_weight(w2) == word_weight(w)
    assert apply_word(datum, lw, w2) == out


def test_apply_word_matches_the_letter_by_letter_reference():
    rng = random.Random(2301)
    for make in ALL_DATA:
        datum = make()
        for lw in weight_sweep(datum, -2, 2):
            for _ in range(8):
                word = tuple(
                    (rng.choice(datum.nodes), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))
                )
                want = lw
                for j, n in word:
                    for _ in range(n):
                        want = shift(datum, want, j, -1)
                assert apply_word(datum, lw, word) == want, (datum.nodes, lw, word)


def test_orbit_reps():
    two, fixed = orbit_reps(qs_a3())
    assert two == ["1"] and fixed == ["2"]
    two2, fixed2 = orbit_reps(split_a2())
    assert two2 == [] and fixed2 == ["1", "2"]


def test_orbit_reps_ignore_node_order():
    # the representative is the smaller name, whichever node is listed first
    datum = make_datum(
        ["b", "a"], [[2, -1], [-1, 2]], [1, 1], {"a": "b", "b": "a"}, {"a": 1, "b": 0}
    )
    assert validate(datum) == []
    assert orbit_reps(datum) == (["a"], [])
    assert [lw.lam for lw in weight_sweep(datum, 1, 2)] == [
        (("b", -1), ("a", 1)),
        (("b", -2), ("a", 2)),
    ]


@pytest.mark.parametrize("make", ALL_DATA)
def test_key_is_the_content_computed_at_construction(make):
    datum = make()
    twin = make()
    assert twin is not datum
    assert twin == datum and hash(twin) == hash(datum)
    # the content is compared, not the order its dicts were filled in
    shuffled = SatakeDatum(
        datum.nodes,
        *(dict(reversed(m.items())) for m in (datum.a, datum.d, datum.tau, datum.varsigma)),
    )
    assert shuffled == datum and hash(shuffled) == hash(datum)
    assert repr(twin) == repr(datum) == (
        f"SatakeDatum(nodes={datum.nodes!r}, a={datum.a!r}, d={datum.d!r}, "
        f"tau={datum.tau!r}, varsigma={datum.varsigma!r})"
    )
    assert "_key" not in repr(datum) and "_hash" not in repr(datum)


def test_key_tells_apart_data_over_the_same_nodes():
    a2 = split_a2()
    b2, a1a1 = MIXED_D, FIXED_A1A1
    assert a2.nodes == b2.nodes == a1a1.nodes == ("1", "2")
    # equality and hashing see the whole content, not only the node tuple
    assert a2 != b2 and b2 != a1a1 and a2 != a1a1
    assert len({a2, b2, a1a1}) == 3
    assert qs_a2() != a2 and len({qs_a2(), a2}) == 2
