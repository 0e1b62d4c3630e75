"""Tests for shape enumeration, degrees, the combinatorial pairings, and the
graded-rank series, including the cross-checks against the algebraic routes."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import iquantum
from iquantum import freealg, iuea, satake, selftest, shapes
from iquantum.freealg import FElem, inv_one_minus_qinv2
from iquantum.qring import ASC_Q, LaurentPoly, PowerSeriesTrunc, RatQ, expand
from iquantum.satake import to_dpword, word_weight
from iquantum.standard import STANDARD, diag_a1a1, qs_a2, qs_a3, split_a1, split_a2
from small_data import FIXED_A1A1, MIXED_D, SMALL_DATA, golden_weights, strand_pair, weight


def monomial(word):
    return FElem({tuple(word): RatQ.one()})


# ------------------------------------------------------ reference degree route
#
# The letter-by-letter route the package used before it read each weight off
# the Cartan matrix: every annihilation weight comes from shifting lw through
# satake.apply_word, and the crossings are counted by bubble-sorting.  Kept
# unchanged as the oracle of shapes.degree and shapes.degree_alt.


def _annihilation_degree_reference(datum, word, arcs, lw, reflected):
    if reflected:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], -a[0]))
    else:
        ordered = sorted(arcs, key=lambda a: (a[1] - a[0], a[0]))
    cur = list(range(len(word)))
    deg = 0
    for p, q in ordered:
        ip = cur.index(p)
        iq = cur.index(q)
        between = cur[ip + 1 : iq]
        slider = word[q] if reflected else word[p]
        for b in between:
            deg -= datum.qi(slider) * datum.a[(slider, word[b])]
        i = word[q]
        if reflected:
            right = between + cur[iq + 1 :]
        else:
            right = cur[iq + 1 :]
        mu = satake.apply_word(datum, lw, tuple((word[r], 1) for r in right))
        deg += datum.qi(i) * (1 + datum.varsigma[i] - mu.lam_of(i))
        cur.remove(p)
        cur.remove(q)
    return deg


def _crossing_degree_reference(datum, strands):
    arr = list(strands)
    deg = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k][1] > arr[k + 1][1]:
                a, b = arr[k][0], arr[k + 1][0]
                deg -= datum.qi(a) * datum.a[(a, b)]
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                changed = True
    return deg


def _degree_reference(datum, sh, lw, reflected):
    deg = _annihilation_degree_reference(datum, sh.bottom, sh.caps, lw, reflected)
    capped = {p for arc in sh.caps for p in arc}
    targets = dict(sh.props)
    strands = [(sh.bottom[b], targets[b]) for b in range(len(sh.bottom)) if b not in capped]
    deg += _crossing_degree_reference(datum, strands)
    deg += _annihilation_degree_reference(datum, sh.top, sh.cups, lw, reflected)
    return deg


# ------------------------------------------------------- reference shape sums
#
# The per-shape assembly the package used before it summed a degree
# histogram: every shape lists its strands' d-values and gets the cofactor
# product that brings it over the common denominator.  Kept unchanged as the
# oracle of the histogram route.


def _strand_dvalues_reference(datum, sh):
    vals = []
    for p, q in sh.cups:
        vals.append(datum.qi(sh.top[p]))
    for p, q in sh.caps:
        vals.append(datum.qi(sh.bottom[p]))
    for b, t in sh.props:
        vals.append(datum.qi(sh.bottom[b]))
    return vals


def _assemble_reference(shapes_data, sign):
    if not shapes_data:
        return RatQ.zero()
    counts = [Counter(vals) for _, vals in shapes_data]
    worst = Counter()
    for c in counts:
        for v, n in c.items():
            if n > worst[v]:
                worst[v] = n
    den = LaurentPoly.one()
    for v in sorted(worst):
        f = LaurentPoly({0: 1, 2 * sign * v: -1})
        for _ in range(worst[v]):
            den = den * f
    num = LaurentPoly.zero()
    for (deg, _), c in zip(shapes_data, counts):
        term = LaurentPoly.q_power(sign * deg)
        for v, n in worst.items():
            f = LaurentPoly({0: 1, 2 * sign * v: -1})
            for _ in range(n - c[v]):
                term = term * f
        num = num + term
    return RatQ(num, den)


# ---------------------------------------------------------------- enumeration


def test_enumerate_single_prop():
    datum = split_a1()
    out = shapes.enumerate_shapes(datum, ("1",), ("1",))
    assert len(out) == 1
    sh = out[0]
    assert sh.cups == () and sh.caps == () and sh.props == ((0, 0),)
    lw = weight(datum, {"1": 0}, {"1": 0})
    assert shapes.degree(datum, sh, lw) == 0


def test_enumerate_single_cup():
    datum = qs_a2()
    out = shapes.enumerate_shapes(datum, ("2", "1"), ())
    assert len(out) == 1
    assert out[0].cups == ((0, 1),)
    assert shapes.enumerate_shapes(datum, ("2", "1"), (), "cap_free") == out
    assert shapes.enumerate_shapes(datum, ("2", "1"), (), "cup_cap_free") == []
    # the label rule rejects a cup on (1, 1): tau(1) = 2
    assert shapes.enumerate_shapes(datum, ("1", "1"), ()) == []


def test_enumerate_counts_fixed_node():
    datum = split_a1()
    word = ("1", "1")
    assert len(shapes.enumerate_shapes(datum, word, word, "all")) == 3
    assert len(shapes.enumerate_shapes(datum, word, word, "cap_free")) == 2
    assert len(shapes.enumerate_shapes(datum, word, word, "cup_cap_free")) == 2


def test_enumerate_odd_or_mismatched():
    datum = split_a2()
    assert shapes.enumerate_shapes(datum, ("1",), ()) == []
    assert shapes.enumerate_shapes(datum, ("1",), ("2",)) == []


def test_enumerate_unknown_mode():
    datum = split_a1()
    with pytest.raises(ValueError):
        shapes.enumerate_shapes(datum, (), (), "reduced")
    with pytest.raises(ValueError):
        shapes.shape_count(datum, (), (), "reduced")


def test_shape_count_is_the_number_of_matchings():
    rng = random.Random(90210)
    for name in STANDARD:
        datum = STANDARD[name]()
        pairs = [strand_pair(rng, datum, rng.randint(0, 5)) for _ in range(30)]
        pairs += [
            tuple(tuple(rng.choice(datum.nodes) for _ in range(rng.randint(0, 5))) for _ in "tb")
            for _ in range(30)
        ]
        for top, bottom in pairs:
            if max(len(top), len(bottom)) > 5:
                continue
            for mode in shapes.MODES:
                got = shapes.shape_count(datum, top, bottom, mode)
                assert got == len(shapes.enumerate_shapes(datum, top, bottom, mode)), (
                    name, top, bottom, mode,
                )


def test_shape_count_closed_forms():
    split = split_a1()
    ones = ("1",) * 8
    assert shapes.shape_count(split, ones, ones) == 2027025  # 15!!
    assert shapes.shape_count(split, ones[:7], ones[:7]) == 135135  # 13!!
    assert shapes.shape_count(split, ones, ones, "cup_cap_free") == 40320  # 8!
    assert shapes.shape_count(split, ones[:7], ()) == 0
    qs = qs_a2()  # tau swaps 1 and 2
    assert shapes.shape_count(qs, ("1", "2"), ()) == 1
    assert shapes.shape_count(qs, ("1", "1"), ()) == 0
    assert shapes.shape_count(qs, ("1",) * 8, ("1",) * 8) == 40320


# --------------------------------------------------------------------- degree


def test_degree_single_cup():
    # cup over (tau i, i) contributes d_i (1 + vs_i - lam_i), read off the
    # right endpoint label
    datum = qs_a2()
    sh = shapes.enumerate_shapes(datum, ("2", "1"), ())[0]
    for lam in range(-3, 4):
        lw = weight(datum, {"1": lam})
        assert shapes.degree(datum, sh, lw) == 1 + datum.varsigma["1"] - lam


def test_degree_crossing():
    datum = split_a2()
    out = shapes.enumerate_shapes(datum, ("1", "2"), ("2", "1"))
    assert len(out) == 1
    lw = weight(datum, {}, {"1": 0, "2": 0})
    # crossing of strands labelled 1, 2: -d_1 a_{12} = 1
    assert shapes.degree(datum, out[0], lw) == 1


def test_degree_realizations_agree():
    rng = random.Random(20260823)
    for datum in SMALL_DATA:
        pool = satake.weight_sweep(datum, -2, 2)
        for _ in range(10):
            top = tuple(rng.choice(datum.nodes) for _ in range(rng.randrange(5)))
            bottom = tuple(rng.choice(datum.nodes) for _ in range(rng.randrange(5)))
            lw = rng.choice(pool)
            for sh in shapes.enumerate_shapes(datum, top, bottom):
                assert shapes.degree(datum, sh, lw) == shapes.degree_alt(datum, sh, lw)


def test_degrees_match_the_letter_by_letter_reference():
    rng = random.Random(31337)
    checked = 0
    for name in STANDARD:
        datum = STANDARD[name]()
        pairs = [strand_pair(rng, datum, rng.randint(1, 5)) for _ in range(12)]
        pairs = [(t, b) for t, b in pairs if max(len(t), len(b)) <= 5]
        for lw in golden_weights(rng, datum).values():
            for top, bottom in pairs:
                for sh in shapes.enumerate_shapes(datum, top, bottom):
                    want = _degree_reference(datum, sh, lw, reflected=False)
                    assert shapes.degree(datum, sh, lw) == want, (name, sh, lw)
                    want_alt = _degree_reference(datum, sh, lw, reflected=True)
                    assert shapes.degree_alt(datum, sh, lw) == want_alt, (name, sh, lw)
                    checked += 1
    assert checked >= 1500


# ------------------------------------------------------------------- arc memo
#
# degree and degree_alt read each annihilation term and the crossing term
# through shapes._ARC_MEMO, scoped to the (datum, weight) of the last call.
# Each memo promise of the shapes module docstring is tested once, and the
# work is counted through iquantum.cache_stats() and the memo's keys and
# scope: a miss is the one time a term is made.

GOLDEN = Path(__file__).resolve().parent / "golden" / "shape_degrees.json"

# the per-datum word content of perfbench's shape_series items, 630 to 945
# matchings per pair
SERIES_CONTENT = {
    "split_a1": "11111",
    "diag_a1a1": "111222",
    "qs_a2": "111222",
    "qs_a3": "1132222",
    "split_a2": "111112",
}


def _golden_pairs():
    """The word pairs of tests/golden/shape_degrees.json, by datum name."""
    out = {}
    for key in json.loads(GOLDEN.read_text(encoding="utf-8"))["pair_theta"]:
        name, pair = key.split(" ", 1)
        top, bottom = (tuple(side.strip()[1:-1].split()) for side in pair.split("|"))
        out.setdefault(name, []).append((top, bottom))
    return out


def _series_pair(rng, name):
    content = list(SERIES_CONTENT[name])
    return tuple(rng.sample(content, len(content))), tuple(rng.sample(content, len(content)))


def _all_shapes(datum, pairs):
    """Every matching of the pairs in all three modes."""
    return [
        sh
        for top, bottom in pairs
        for mode in shapes.MODES
        for sh in shapes.enumerate_shapes(datum, top, bottom, mode)
    ]


def _memo_table(datum, found, lw):
    return [(shapes.degree(datum, sh, lw), shapes.degree_alt(datum, sh, lw)) for sh in found]


def _arc_stats():
    return iquantum.cache_stats()["shapes._ARC_MEMO"]


def _arc_terms(found):
    """The number of arc sets that each realization closes and the number of
    (bottom, props) crossing terms that the two share."""
    arc_sets = {(sh.top, sh.cups) for sh in found} | {(sh.bottom, sh.caps) for sh in found}
    return len(arc_sets), len({(sh.bottom, sh.props) for sh in found})


def test_arc_memo_closes_each_arc_set_once_per_realization():
    iquantum.clear_caches()
    datum = qs_a2()
    top, bottom = _series_pair(random.Random(77), "qs_a2")
    lw = weight(datum, {"1": 1})
    found = shapes.enumerate_shapes(datum, top, bottom)
    assert len(found) == 720
    n, k = _arc_terms(found)
    assert 1 < k < len(found)
    # degree closes each arc set once and makes each crossing term once;
    # every other of its three lookups per matching is a hit
    degs = [shapes.degree(datum, sh, lw) for sh in found]
    assert _arc_stats() == {"hits": 3 * len(found) - n - k, "misses": n + k, "size": n + k}
    # the reflected realization closes every arc set again and reads the
    # crossing terms that degree stored
    assert [shapes.degree_alt(datum, sh, lw) for sh in found] == degs
    stored = 2 * n + k
    assert _arc_stats() == {"hits": 6 * len(found) - stored, "misses": stored, "size": stored}
    # a repeat of either is served from the memo
    assert _memo_table(datum, found, lw) == [(deg, deg) for deg in degs]
    assert _arc_stats() == {"hits": 12 * len(found) - stored, "misses": stored, "size": stored}


def test_each_new_scope_recomputes_every_degree_term_once():
    rng = random.Random(2020)
    golden = _golden_pairs()
    # two weights of qs_a3, whose moved nodes read lam; two data over the
    # same nodes with different content, at one IWeight value
    qs, split, a1a1 = qs_a3(), split_a2(), FIXED_A1A1
    reps, fixed = satake.orbit_reps(qs)
    par = {i: 1 for i in fixed}
    lw_a, lw_b = weight(qs, {i: 2 for i in reps}, par), weight(qs, {i: -1 for i in reps}, par)
    # equal IWeight values that are distinct instances share one scope
    twin = weight(qs, {i: -1 for i in reps}, par)
    assert twin == lw_b and twin is not lw_b
    assert split.nodes == a1a1.nodes and split != a1a1
    lw = weight(split, {}, {"1": 0, "2": 1})
    assert weight(a1a1, {}, {"1": 0, "2": 1}) == lw
    pairs = {
        qs: golden["qs_a3"][:4] + [_series_pair(rng, "qs_a3")],
        split: [(("1", "2", "1", "2"), ("2", "1")), _series_pair(rng, "split_a2")],
    }
    pairs[a1a1] = pairs[split]
    found = {datum: _all_shapes(datum, pairs[datum]) for datum in pairs}
    # each scope with whether it is new: the twin keeps lw_b's
    scopes = [
        (qs, lw_a, True), (qs, lw_b, True), (qs, twin, False),
        (split, lw, True), (a1a1, lw, True), (split, lw, True),
    ]
    want = {
        (datum, lw): [
            (_degree_reference(datum, sh, lw, False), _degree_reference(datum, sh, lw, True))
            for sh in found[datum]
        ]
        for datum, lw, _ in scopes
    }
    assert want[qs, lw_a] != want[qs, lw_b] and want[split, lw] != want[a1a1, lw]
    iquantum.clear_caches()
    for datum, lw, new in scopes:
        n, k = _arc_terms(found[datum])
        misses = _arc_stats()["misses"]
        # every term is made once per scope, whatever reads it: degree,
        # degree_alt, a repeat of both, the histograms of the sums
        assert _memo_table(datum, found[datum], lw) == want[datum, lw], (datum, lw)
        assert _memo_table(datum, found[datum], lw) == want[datum, lw]
        for top, bottom in pairs[datum]:
            for route in SUMS.values():
                route(datum, top, bottom, lw)
        assert _arc_stats()["misses"] - misses == (2 * n + k if new else 0)
        assert _arc_stats()["size"] == 2 * n + k
        assert shapes._ARC_MEMO.scope == (datum, lw)


def test_one_prop_set_on_two_bottom_words_keeps_two_crossing_terms():
    datum = split_a2()
    lw = golden_weights(random.Random(2021), datum)["L0"]
    crossed = ((0, 1), (1, 0))
    (mixed,) = shapes.enumerate_shapes(datum, ("1", "2"), ("2", "1"))
    (equal,) = [
        sh for sh in shapes.enumerate_shapes(datum, ("1", "1"), ("1", "1")) if sh.props == crossed
    ]
    assert mixed.props == crossed and not mixed.caps and not equal.caps
    want = {sh: _degree_reference(datum, sh, lw, False) for sh in (mixed, equal)}
    assert want == {mixed: 1, equal: -2}
    for order in ((mixed, equal), (equal, mixed)):
        iquantum.clear_caches()
        for sh in order:
            assert shapes.degree(datum, sh, lw) == want[sh]
            assert shapes.degree_alt(datum, sh, lw) == want[sh]
        assert shapes._ARC_MEMO.scope == (datum, lw)


# -------------------------------------------------------------- histogram memo
#
# pair_b, its restricted modes and hom_rank read one degree histogram per
# (mode, weight) through shapes._SHAPE_MEMO, in the (datum, top, bottom) scope
# that also holds the pair's matchings per mode.


def _cup_cap_free_sum(datum, top, bottom, lw):
    """The shape sum over permutation matchings (no cups, no caps)."""
    return shapes._shape_sum(datum, top, bottom, "cup_cap_free", lw, -1)


SUMS = {
    "all": shapes.pair_b,
    "cap_free": shapes.pair_b_nabla,
    "cup_cap_free": _cup_cap_free_sum,
}


def _shape_stats():
    return iquantum.cache_stats()["shapes._SHAPE_MEMO"]


def test_memoized_histogram_is_the_counter_of_degrees():
    iquantum.clear_caches()
    rng = random.Random(1616)
    golden = _golden_pairs()
    empty = 0
    for name in STANDARD:
        datum = STANDARD[name]()
        pairs = golden[name] + [_series_pair(rng, name) for _ in range(2)]
        pairs += [strand_pair(rng, datum, rng.randint(1, 3)) for _ in range(4)]
        # even length with mismatched letters: no matching in any mode
        pairs.append(((datum.nodes[0],) * 2, (datum.nodes[-1],) * 2))
        for lw in list(golden_weights(rng, datum).values())[1:3]:
            for top, bottom in pairs:
                for mode, route in SUMS.items():
                    want = Counter(
                        shapes.degree(datum, sh, lw)
                        for sh in shapes.enumerate_shapes(datum, top, bottom, mode)
                    )
                    route(datum, top, bottom, lw)
                    hist = shapes._SHAPE_MEMO[(mode, lw)]
                    assert shapes._SHAPE_MEMO.scope == (datum, top, bottom)
                    if want:
                        assert hist == want, (name, top, bottom, mode, lw)
                    else:
                        # an empty Counter is stored too, and read back as a hit
                        assert hist == Counter()
                        before = _shape_stats()
                        assert route(datum, top, bottom, lw).is_zero()
                        after = _shape_stats()
                        assert after["hits"] == before["hits"] + 1
                        assert after["misses"] == before["misses"]
                        empty += 1
    assert empty >= 20


def test_one_enumeration_serves_both_sums_at_two_weights_and_a_walk():
    datum = qs_a3()
    top, bottom = _series_pair(random.Random(16), "qs_a3")
    lw_a, lw_b = weight(datum, {"1": 1}, {"2": 1}), weight(datum, {"1": -2}, {"2": 0})
    fresh = {}
    for lw in (lw_a, lw_b):
        iquantum.clear_caches()
        fresh[lw] = shapes.pair_b(datum, top, bottom, lw)
    assert fresh[lw_a] != fresh[lw_b]
    iquantum.clear_caches()
    # the histogram's miss enumerates the matchings: a second miss, in the
    # same table
    assert shapes.pair_b(datum, top, bottom, lw_a) == fresh[lw_a]
    assert _shape_stats() == {"hits": 0, "misses": 2, "size": 2}
    # hom_rank reads pair_b's histogram at its weight, and at the other one
    # makes a histogram over the stored matchings; each side still assembles
    # its own sum, so the check compares two signs
    for lw, seen in ((lw_a, 1), (lw_b, 2)):
        rank = shapes.hom_rank(datum, top, bottom, lw, order=12)
        assert rank.series == expand(fresh[lw].bar(), ASC_Q, 12)
        assert _shape_stats() == {"hits": seen, "misses": 1 + seen, "size": 1 + seen}
    # a walk of the matchings after the sums reads them too
    found = shapes.enumerate_shapes(datum, top, bottom, "all")
    assert _shape_stats() == {"hits": 3, "misses": 3, "size": 3}
    assert len(found) == shapes.shape_count(datum, top, bottom)
    assert all(shapes.degree(datum, sh, lw_b) == shapes.degree_alt(datum, sh, lw_b) for sh in found)


# ------------------------------------------------------------------ shape memo
#
# enumerate_shapes reads the matchings of one word pair through
# shapes._SHAPE_MEMO, keyed by mode at the (datum, top, bottom) scope; a
# mode enumerated on a cold table is the reference of every other read.


def test_another_pair_or_datum_empties_the_shape_memo():
    iquantum.clear_caches()
    qs, split = qs_a2(), split_a2()
    assert qs.nodes == split.nodes and qs != split
    long, short = _series_pair(random.Random(1719), "qs_a2"), (("1", "2"), ())
    lw = weight(qs, {"1": 1})
    want = shapes.pair_b(qs, *long, lw)
    # the histogram and the matchings it enumerated
    assert _shape_stats() == {"hits": 0, "misses": 2, "size": 2}
    assert shapes._SHAPE_MEMO.scope == (qs, *long)
    # another pair: the table holds only its entry
    assert len(shapes.enumerate_shapes(qs, *short)) == 1
    assert _shape_stats() == {"hits": 0, "misses": 3, "size": 1}
    assert shapes._SHAPE_MEMO.scope == (qs, *short)
    # the same words on another datum: 1 and 2 are not partners there
    assert shapes.enumerate_shapes(split, *short) == []
    assert _shape_stats() == {"hits": 0, "misses": 4, "size": 1}
    assert shapes._SHAPE_MEMO.scope == (split, *short)
    assert len(shapes.enumerate_shapes(qs, *short)) == 1
    assert _shape_stats() == {"hits": 0, "misses": 5, "size": 1}
    # the first pair again is made afresh
    assert shapes.pair_b(qs, *long, lw) == want
    assert _shape_stats() == {"hits": 0, "misses": 7, "size": 2}


def test_restricted_modes_after_all_are_read_off_it():
    rng = random.Random(1727)
    golden = _golden_pairs()
    npairs = proper = 0
    for name in STANDARD:
        datum = STANDARD[name]()
        pairs = golden[name] + [_series_pair(rng, name) for _ in range(2)]
        pairs += [strand_pair(rng, datum, rng.randint(1, 4)) for _ in range(4)]
        for top, bottom in pairs:
            cold = {}
            for mode in ("cap_free", "cup_cap_free"):
                iquantum.clear_caches()
                cold[mode] = shapes.enumerate_shapes(datum, top, bottom, mode)
            iquantum.clear_caches()
            every = shapes.enumerate_shapes(datum, top, bottom, "all")
            for mode in ("cap_free", "cup_cap_free"):
                assert shapes.enumerate_shapes(datum, top, bottom, mode) == cold[mode], (
                    name, top, bottom, mode,
                )
                proper += 0 < len(cold[mode]) < len(every)
            # each restricted mode is a hit on "all" and a miss on its own key
            assert _shape_stats() == {"hits": 2, "misses": 3, "size": 3}
            npairs += 1
    assert npairs == 40 + 5 * 6
    assert proper >= 40


def test_a_cold_restricted_mode_is_enumerated_by_itself():
    iquantum.clear_caches()
    datum = split_a1()
    top, bottom = ("1",) * 7, ("1",) * 3
    for mode in ("cup_cap_free", "cap_free"):
        found = shapes.enumerate_shapes(datum, top, bottom, mode)
        assert len(found) == shapes.shape_count(datum, top, bottom, mode)
    # "all" holds 945 matchings against none and 630: it is never made for them
    assert shapes.shape_count(datum, top, bottom) == 945
    assert sorted(shapes._SHAPE_MEMO) == ["cap_free", "cup_cap_free"]
    assert _shape_stats() == {"hits": 0, "misses": 2, "size": 2}
    assert len(shapes.enumerate_shapes(datum, top, bottom, "all")) == 945
    # a stored restricted mode is one hit, with no read of "all"
    assert len(shapes.enumerate_shapes(datum, top, bottom, "cap_free")) == 630
    assert _shape_stats() == {"hits": 1, "misses": 3, "size": 3}


def test_returned_lists_are_copies():
    iquantum.clear_caches()
    datum = qs_a2()
    top, bottom = _series_pair(random.Random(1718), "qs_a2")
    first = shapes.enumerate_shapes(datum, top, bottom)
    want = list(first)
    assert len(want) == 720
    first.reverse()
    first.append(first[0])
    second = shapes.enumerate_shapes(datum, top, bottom)
    assert second == want and second is not first
    second.clear()
    # lists name the same pair as tuples
    assert shapes.enumerate_shapes(datum, list(top), list(bottom)) == want
    assert _shape_stats() == {"hits": 2, "misses": 1, "size": 1}


def test_odd_lengths_never_touch_the_shape_memo():
    # an odd total length is empty or zero, and an unknown mode an error,
    # before any lookup
    iquantum.clear_caches()
    datum = qs_a2()
    lw = weight(datum, {"1": 1})
    assert len(shapes.enumerate_shapes(datum, ("1", "2"), ("2", "1"))) == 2
    before, scope = _shape_stats(), shapes._SHAPE_MEMO.scope
    for mode in shapes.MODES:
        assert shapes.enumerate_shapes(datum, ("1", "2", "1"), ("2", "1"), mode) == []
        assert shapes.enumerate_shapes(datum, ("1",), (), mode) == []
    for route in SUMS.values():
        assert route(datum, ("1", "2", "1"), ("2", "1"), lw).is_zero()
    assert shapes.hom_rank(datum, ("1",), (), lw).series.coeffs == {}
    with pytest.raises(ValueError, match="unknown mode"):
        shapes.enumerate_shapes(datum, ("1", "2"), ("2", "1"), "no_props")
    assert _shape_stats() == before and shapes._SHAPE_MEMO.scope == scope


# ------------------------------------------------------------------- pairings


def test_pair_b_single_letter():
    for name in STANDARD:
        datum = STANDARD[name]()
        lw = satake.weight_sweep(datum, 1, 1)[0]
        for i in datum.nodes:
            assert shapes.pair_b(datum, (i,), (i,), lw) == inv_one_minus_qinv2(datum.qi(i))


def test_pair_b_single_cup_value():
    datum = qs_a2()
    for lam in (-2, 0, 3):
        lw = weight(datum, {"1": lam})
        got = shapes.pair_b(datum, ("2", "1"), (), lw)
        want = RatQ.q_power(-(1 + datum.varsigma["1"] - lam)) * inv_one_minus_qinv2(1)
        assert got == want


def test_pair_theta_distinct_letters():
    datum = split_a2()
    got = shapes.pair_theta(datum, ("1", "2"), ("1", "2"))
    assert got == inv_one_minus_qinv2(1) * inv_one_minus_qinv2(1)


def test_pair_theta_matches_freealg():
    rng = random.Random(97)
    for name in STANDARD:
        datum = STANDARD[name]()
        words = selftest.word_pairs(datum, 3)[0]
        for _ in range(40):
            wi, wj = rng.choice(words), rng.choice(words)
            got = shapes.pair_theta(datum, wi, wj)
            want = freealg.pair(datum, monomial(wi), monomial(wj))
            assert got == want, (name, wi, wj)


def test_pair_b_matches_ipair():
    # the two routes to the bilinear form share no code: one walks shapes,
    # the other walks the recursive generator action; two 3-letter words
    # make a pair longer than selftest criterion 01 runs (5, or 4 on qs_a3)
    for name in STANDARD:
        datum = STANDARD[name]()
        words = [w for w in selftest.word_pairs(datum, 3)[0] if len(w) == 3]
        for lw in satake.weight_sweep(datum, 0, 0):
            images = {w: iuea.b_word(datum, to_dpword(w), lw) for w in words}
            for wi in words:
                for wj in words:
                    got = shapes.pair_b(datum, wi, wj, lw)
                    want = iuea.ipair(datum, images[wi], images[wj])
                    assert got == want, (name, wi, wj, lw)


def test_pair_b_symmetric():
    rng = random.Random(5150)
    for name in STANDARD:
        datum = STANDARD[name]()
        words = selftest.word_pairs(datum, 3)[0]
        pool = satake.weight_sweep(datum, -2, 2)
        for _ in range(25):
            wi, wj = rng.choice(words), rng.choice(words)
            lw = rng.choice(pool)
            assert shapes.pair_b(datum, wi, wj, lw) == shapes.pair_b(datum, wj, wi, lw)


def test_pair_b_nabla_triangular():
    for name in ("split_a1", "qs_a2", "split_a2"):
        datum = STANDARD[name]()
        words = selftest.word_pairs(datum, 3)[0]
        lw = satake.weight_sweep(datum, 0, 0)[0]
        for wi in words:
            for wj in words:
                if not shapes.pair_b_nabla(datum, wi, wj, lw).is_zero():
                    assert satake.leq_lambda(
                        datum, word_weight(to_dpword(wj)), word_weight(to_dpword(wi))
                    )


def test_pair_delta_nabla_weight_free():
    # without cups or caps the degree never sees the weight, so the
    # permutation-only pairing collapses to the theta pairing
    datum = qs_a3()
    words = selftest.word_pairs(datum, 2)[0]
    for lw in satake.weight_sweep(datum, -1, 1)[:4]:
        for wi in words:
            for wj in words:
                assert _cup_cap_free_sum(datum, wi, wj, lw) == shapes.pair_theta(
                    datum, wi, wj
                )


def test_every_shape_has_the_strands_counted_from_the_letters():
    rng = random.Random(4242)
    data = [(name, STANDARD[name]()) for name in STANDARD] + [("mixed_d", MIXED_D)]
    seen_mixed = 0
    for name, datum in data:
        for _ in range(25):
            top, bottom = strand_pair(rng, datum, rng.randint(1, 4))
            if max(len(top), len(bottom)) > 5:
                continue
            strands = shapes._strand_counts(datum, top, bottom)
            for mode in shapes.MODES:
                for sh in shapes.enumerate_shapes(datum, top, bottom, mode):
                    assert Counter(_strand_dvalues_reference(datum, sh)) == strands, (
                        name, sh,
                    )
            seen_mixed += len(strands) > 1
    assert seen_mixed >= 5


def test_shape_sums_match_the_per_shape_assembly():
    rng = random.Random(8086)
    data = [(name, STANDARD[name]()) for name in STANDARD] + [("mixed_d", MIXED_D)]
    routes = (
        ("all", shapes.pair_b),
        ("cap_free", shapes.pair_b_nabla),
        ("cup_cap_free", _cup_cap_free_sum),
    )
    mixed = 0
    for name, datum in data:
        pairs = [strand_pair(rng, datum, rng.randint(1, 4)) for _ in range(10)]
        if name == "mixed_d":
            pairs += [strand_pair(rng, datum, rng.randint(2, 4)) for _ in range(20)]
        pairs += [
            tuple(tuple(rng.choice(datum.nodes) for _ in range(rng.randint(0, 4))) for _ in "tb")
            for _ in range(5)
        ]
        pairs = [(t, b) for t, b in pairs if max(len(t), len(b)) <= 5]
        for lw in list(golden_weights(rng, datum).values())[1:3]:
            for top, bottom in pairs:
                for mode, route in routes:
                    found = shapes.enumerate_shapes(datum, top, bottom, mode)
                    data_ = [
                        (shapes.degree(datum, sh, lw), _strand_dvalues_reference(datum, sh))
                        for sh in found
                    ]
                    want = _assemble_reference(data_, -1)
                    assert route(datum, top, bottom, lw) == want, (name, top, bottom, mode)
                    mixed += bool(want) and len({v for _, vals in data_ for v in vals}) > 1
                    if mode == "all":
                        rank = shapes.hom_rank(datum, top, bottom, lw, order=12)
                        assert rank.series == expand(
                            _assemble_reference(data_, 1), ASC_Q, 12
                        ), (name, top, bottom)
        for top, bottom in pairs:
            found = shapes.enumerate_shapes(datum, top, bottom, "cup_cap_free")
            data_ = [
                (
                    _crossing_degree_reference(datum, [(sh.bottom[b], t) for b, t in sh.props]),
                    _strand_dvalues_reference(datum, sh),
                )
                for sh in found
            ]
            assert shapes.pair_theta(datum, top, bottom) == _assemble_reference(data_, -1), (
                name, top, bottom,
            )
    assert mixed >= 30


# --------------------------------------------------------------- rank series


def test_hom_rank_single_strand():
    for name in ("split_a1", "qs_a2"):
        datum = STANDARD[name]()
        lw = satake.weight_sweep(datum, 0, 0)[0]
        for i in datum.nodes:
            d = datum.qi(i)
            rs = shapes.hom_rank(datum, (i,), (i,), lw, order=12)
            for e in range(-12, 13):
                assert rs.coeff(e) == (1 if e >= 0 and e % (2 * d) == 0 else 0)


def test_hom_rank_empty_words():
    datum = split_a1()
    lw = weight(datum, {}, {"1": 0})
    rs = shapes.hom_rank(datum, (), (), lw, order=8)
    assert rs.coeff(0) == 1 and all(rs.coeff(e) == 0 for e in range(1, 9))


def test_hom_rank_incompatible():
    datum = split_a2()
    lw = weight(datum, {}, {"1": 0, "2": 0})
    rs = shapes.hom_rank(datum, ("1",), (), lw, order=8)
    assert rs.series.coeffs == {}


def test_hom_rank_three_shape_example():
    # (i, i) at a fixed node with vs_i - lam_i = -1: shapes contribute
    # degrees 0, -2, 0 and the series is (2 + q^-2)/(1 - q^2)^2
    datum = split_a1()
    lw = weight(datum, {"1": 0}, {"1": 0})
    assert datum.varsigma["1"] - 0 == -1
    rs = shapes.hom_rank(datum, ("1", "1"), ("1", "1"), lw, order=10)
    assert rs.coeff(-2) == 1
    for m in range(6):
        assert rs.coeff(2 * m) == 3 * m + 4
    assert all(rs.coeff(e) == 0 for e in range(-9, 10, 2))


def test_hom_rank_equals_bar_pair_b():
    # selftest criterion 07's check at orbit coordinates 5 <= |lam| <= 8 and
    # to order 30 (the criterion runs -4..4 and order 20)
    rng = random.Random(777)
    for name in STANDARD:
        datum = STANDARD[name]()
        words = selftest.word_pairs(datum, 2)[0]
        pool = satake.weight_sweep(datum, -8, -5) + satake.weight_sweep(datum, 5, 8)
        for _ in range(15):
            wi, wj = rng.choice(words), rng.choice(words)
            lw = rng.choice(pool)
            rs = shapes.hom_rank(datum, wi, wj, lw, order=30)
            want = expand(shapes.pair_b(datum, wi, wj, lw).bar(), ASC_Q, 30)
            assert rs.series == want, (name, wi, wj, lw)

def test_rank_series_rejects_negative():
    with pytest.raises(ValueError):
        shapes.RankSeries(PowerSeriesTrunc(4, {2: -1}))


def test_end_grdim_split_a1():
    # the coefficient of q^(2k) counts the partitions of k into odd parts,
    # counted here by a recursion of their own to order 30 (selftest
    # criterion 07 compares a table to order 10)
    rs = shapes.end_grdim(split_a1(), order=30)
    odd = [1] + [0] * 15
    for part in range(1, 16, 2):
        for k in range(part, 16):
            odd[k] += odd[k - part]
    assert [rs.coeff(e) for e in range(31)] == [
        odd[e // 2] if e % 2 == 0 else 0 for e in range(31)
    ]

def test_end_grdim_partition_series():
    rs = shapes.end_grdim(diag_a1a1(), order=10)
    assert [rs.coeff(2 * k) for k in range(6)] == [1, 1, 2, 3, 5, 7]


def test_end_grdim_order_zero():
    for name in STANDARD:
        rs = shapes.end_grdim(STANDARD[name](), order=0)
        assert rs.coeff(0) == 1 and rs.series.coeffs == {0: 1}
