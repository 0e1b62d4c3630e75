"""Quiver Hecke layer: relations, normal forms, idempotents, Serre complex."""

import copy
import random

import pytest
import sympy

import iquantum
from iquantum import klr
from iquantum.klr import (
    KLRBasisElem,
    KLRElem,
    QTable,
    crossing,
    diagram,
    divided_idempotent,
    dot,
    e,
    geometric_qtable,
    graded_dim,
    mul,
    serre_complex_check,
    tensor,
    zero,
)
from iquantum.qring import ASC_Q, expand
from iquantum.satake import make_datum
from iquantum.selftest import _random_elem as random_elem
from iquantum.selftest import _shuffled as shuffled
from iquantum.selftest import _tables
from iquantum.shapes import pair_theta
from iquantum.standard import SIGN_CONVENTION, STANDARD, diag_a1a1, qs_a2, qs_a3, split_a1, split_a2


def aux_a1a1():
    """Two fixed nodes, no edge: the shortest Serre complex (m = 1)."""
    return make_datum(["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1})


def aux_double_edge():
    """Two fixed nodes joined by a double edge: m = 3."""
    return make_datum(
        ["1", "2"], [[2, -2], [-2, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
    )


def qs_a3_table():
    return geometric_qtable(qs_a3(), sign_convention=SIGN_CONVENTION["qs_a3"])


_QX, _QY = sympy.symbols("qt_x qt_y")


def poly(qt, i, j):
    """The table entry Q_{i,j}(qt_x, qt_y) as a sympy expression: 0 on the
    diagonal, sign * (qt_x - qt_y)**n off it."""
    if i == j:
        return sympy.Integer(0)
    sign, n = qt.factors[(i, j)]
    return sympy.expand(sign * (_QX - _QY) ** n)


def test_geometric_qtable_split_a2():
    qt = geometric_qtable(split_a2())
    x, y = sorted(poly(qt, "1", "2").free_symbols, key=str)
    assert poly(qt, "1", "2") == y - x
    assert poly(qt, "2", "1") == x - y
    assert poly(qt, "1", "1") == 0
    assert qt.t == {("1", "2"): -1, ("2", "1"): 1}


def test_geometric_qtable_no_edge():
    qt = geometric_qtable(diag_a1a1())
    assert poly(qt, "1", "2") == 1
    assert qt.t == {("1", "2"): 1, ("2", "1"): 1}
    # the swapped-pair sign flips the constant
    qt = geometric_qtable(diag_a1a1(), sign_convention="intro")
    assert poly(qt, "1", "2") == -1


def test_geometric_qtable_sign_conventions_on_a3():
    with pytest.raises(ValueError, match=r"\(1, 2\)|\(2, 1\)"):
        geometric_qtable(qs_a3(), sign_convention="body")
    qt = qs_a3_table()
    assert poly(qt, "1", "3") == -1
    assert poly(qt, "3", "1") == -1


def test_geometric_qtable_orientation():
    qt = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
    x, y = sorted(poly(qt, "1", "2").free_symbols, key=str)
    assert poly(qt, "1", "2") == x - y
    with pytest.raises(ValueError):
        geometric_qtable(split_a2(), orientation={("1", "2"): 2})
    with pytest.raises(ValueError):
        geometric_qtable(split_a1(), sign_convention="nope")


def test_geometric_qtable_needs_unit_d():
    datum = make_datum(["1"], [[2]], [2], {"1": "1"}, {"1": -1})
    with pytest.raises(ValueError):
        geometric_qtable(datum)


def test_idempotents_and_errors():
    qt = geometric_qtable(qs_a2())
    w = ("1", "2")
    assert mul(qt, e(w), e(w)) == e(w)
    with pytest.raises(ValueError):
        dot(w, 3)
    with pytest.raises(ValueError):
        crossing(w, 2)
    with pytest.raises(ValueError):
        mul(qt, e(("1",)), e(("2",)))


def test_dot_slide_equal_colors():
    qt = geometric_qtable(split_a1())
    w = ("1", "1")
    psi = crossing(w, 1)
    assert mul(qt, psi, dot(w, 1)) - mul(qt, dot(w, 2), psi) == e(w)
    assert mul(qt, dot(w, 1), psi) - mul(qt, psi, dot(w, 2)) == e(w)
    # dots on the strand that is not crossed commute through
    w3 = ("1", "1", "1")
    psi3 = crossing(w3, 1)
    assert mul(qt, psi3, dot(w3, 3)) == mul(qt, dot(w3, 3), psi3)


def test_dot_slide_distinct_colors():
    qt = geometric_qtable(qs_a2())
    w = ("1", "2")
    psi = crossing(w, 1)
    assert mul(qt, psi, dot(w, 1)) == mul(qt, dot(("2", "1"), 2), psi)
    assert mul(qt, psi, dot(w, 2)) == mul(qt, dot(("2", "1"), 1), psi)


def test_quadratic():
    qt = geometric_qtable(split_a1())
    w = ("1", "1")
    assert mul(qt, crossing(w, 1), crossing(w, 1)).is_zero()

    # mixed colors: the square is the table polynomial pinned to the strands
    qt = geometric_qtable(qs_a2())
    w = ("1", "2")
    sq = mul(qt, crossing(("2", "1"), 1), crossing(w, 1))
    assert sq == diagram(w, w, (0, 1), (1, 0)) - diagram(w, w, (0, 1), (0, 1))

    qt = geometric_qtable(split_a2())
    sq = mul(qt, crossing(("2", "1"), 1), crossing(w, 1))
    assert sq == diagram(w, w, (0, 1), (0, 1)) - diagram(w, w, (0, 1), (1, 0))

    qt = geometric_qtable(diag_a1a1())
    sq = mul(qt, crossing(("2", "1"), 1), crossing(w, 1))
    assert sq == e(w)


def triple_crossing(qt, w, first):
    """psi psi psi with the first crossing at position `first` (1 or 2)."""
    second = 3 - first
    a = crossing(w, first)
    b = crossing(a.top, second)
    c = crossing(b.top, first)
    return mul(qt, c, mul(qt, b, a))


def test_braid_without_correction():
    qt = qs_a3_table()
    w = ("1", "2", "3")
    assert triple_crossing(qt, w, 1) == triple_crossing(qt, w, 2)


def test_braid_correction_signs():
    # ((x2-x1) - (x2-x3))/(x1-x3) = -1 when the table entry is y - x
    qt = geometric_qtable(split_a2())
    w = ("1", "2", "1")
    assert triple_crossing(qt, w, 1) - triple_crossing(qt, w, 2) == e(w).scale(-1)
    # and +1 when it is x - y
    qt = geometric_qtable(qs_a2())
    assert triple_crossing(qt, w, 1) - triple_crossing(qt, w, 2) == e(w)


def test_distant_crossings_commute():
    qt = qs_a3_table()
    w = ("1", "2", "3", "2")
    a = crossing(w, 1)
    b = crossing(a.top, 3)
    c = crossing(w, 3)
    d = crossing(c.top, 1)
    assert mul(qt, b, a) == mul(qt, d, c)


def test_mul_associative_random():
    rng = random.Random(20260823)
    tables = [
        geometric_qtable(qs_a2()),
        geometric_qtable(split_a2()),
        qs_a3_table(),
    ]
    for qt in tables:
        nodes = qt.datum.nodes
        for _ in range(10):
            wd = tuple(rng.choice(nodes) for _ in range(3))
            wc = shuffled(rng, wd)
            wb = shuffled(rng, wd)
            wa = shuffled(rng, wd)
            x = random_elem(rng, wa, wb)
            y = random_elem(rng, wb, wc)
            z = random_elem(rng, wc, wd)
            assert mul(qt, mul(qt, x, y), z) == mul(qt, x, mul(qt, y, z))


def test_mul_degree_additive():
    rng = random.Random(424242)
    qt = geometric_qtable(split_a2())
    nodes = qt.datum.nodes
    for _ in range(20):
        wc = tuple(rng.choice(nodes) for _ in range(3))
        wb = shuffled(rng, wc)
        wa = shuffled(rng, wc)
        x = random_elem(rng, wa, wb, nterms=1)
        y = random_elem(rng, wb, wc, nterms=1)
        dx = next(iter(x.terms)).degree(qt.datum)
        dy = next(iter(y.terms)).degree(qt.datum)
        prod = mul(qt, x, y)
        assert prod.degrees(qt.datum) <= {dx + dy}


def test_graded_dim_single_letter():
    for make in (split_a1, qs_a2, qs_a3):
        datum = make()
        for i in datum.nodes:
            series = graded_dim(datum, (i,), (i,), order=10)
            step = 2 * datum.qi(i)
            for k in range(-4, 11):
                assert series.coeff(k) == (1 if k >= 0 and k % step == 0 else 0)


def test_graded_dim_color_mismatch():
    series = graded_dim(qs_a2(), ("1",), ("2",), order=10)
    assert series.coeff(0) == 0 and series.coeff(2) == 0


def test_graded_dim_equal_pair():
    series = graded_dim(split_a1(), ("1", "1"), ("1", "1"), order=12)
    assert series.coeff(-2) == 1
    assert series.coeff(0) == 3
    assert series.coeff(2) == 5
    assert series.coeff(1) == 0


def test_graded_dim_matches_diagram_pairing():
    rng = random.Random(31337)
    for make in (split_a1, diag_a1a1, qs_a2, qs_a3, split_a2):
        datum = make()
        for _ in range(8):
            n = rng.randrange(4)
            top = tuple(rng.choice(datum.nodes) for _ in range(n))
            bottom = shuffled(rng, top) if rng.random() < 0.7 else tuple(
                rng.choice(datum.nodes) for _ in range(n)
            )
            series = graded_dim(datum, top, bottom, order=12)
            flipped = pair_theta(datum, top, bottom).bar()
            assert series.series.coeffs == expand(flipped, ASC_Q, 12).coeffs


def test_divided_idempotent_normal_form():
    qt = geometric_qtable(split_a1())
    w = ("1", "1")
    got = divided_idempotent(qt, "1", 2)
    assert got == e(w) + diagram(w, w, (1, 0), (0, 1))
    assert got.degrees(qt.datum) == {0}


def test_divided_idempotent_is_idempotent():
    qt = geometric_qtable(split_a1())
    for n in range(5):
        d = divided_idempotent(qt, "1", n)
        assert mul(qt, d, d) == d
    qt = geometric_qtable(qs_a2())
    for n in range(4):
        d = divided_idempotent(qt, "1", n)
        assert mul(qt, d, d) == d


def test_empty_word_products_scale_the_identity():
    qt = geometric_qtable(split_a1())
    got = mul(qt, e(()).scale(3), e(()).scale(-2))
    assert got == e(()).scale(-6) and str(got) == "(-6)*[e]"


def test_divided_idempotent_kills_lower_crossings():
    qt = geometric_qtable(split_a1())
    w = ("1", "1", "1")
    d3 = divided_idempotent(qt, "1", 3)
    for r in (1, 2):
        assert mul(qt, d3, crossing(w, r)).is_zero()


def test_tensor():
    qt = geometric_qtable(split_a2())
    assert tensor(e(("1",)), e(("2",))) == e(("1", "2"))
    a = divided_idempotent(qt, "1", 2)
    b = e(("2",))
    big = tensor(a, b)
    assert mul(qt, big, big) == big
    left = mul(qt, tensor(crossing(("1", "1"), 1), b), tensor(dot(("1", "1"), 1), b))
    right = tensor(mul(qt, crossing(("1", "1"), 1), dot(("1", "1"), 1)), b)
    assert left == right


def test_serre_complex_shortest():
    qt = geometric_qtable(aux_a1a1())
    report = serre_complex_check(qt, "1", "2")
    assert report.m == 1
    assert report.ok


def test_serre_complex_single_edge():
    report = serre_complex_check(geometric_qtable(split_a2()), "1", "2")
    assert report.m == 2
    assert report.dd_zero and report.split_ok
    qt = qs_a3_table()
    for i, j in (("1", "2"), ("3", "2")):
        report = serre_complex_check(qt, i, j)
        assert report.m == 2
        assert report.ok, report.details


def test_serre_complex_double_edge():
    report = serre_complex_check(geometric_qtable(aux_double_edge()), "1", "2")
    assert report.m == 3
    assert report.ok, report.details


def test_serre_complex_rejects():
    qt = geometric_qtable(split_a2())
    with pytest.raises(ValueError):
        serre_complex_check(qt, "1", "1")
    with pytest.raises(ValueError):
        serre_complex_check(geometric_qtable(qs_a2()), "1", "2")
    triple = make_datum(
        ["1", "2"], [[2, -3], [-3, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
    )
    with pytest.raises(ValueError):
        serre_complex_check(geometric_qtable(triple), "1", "2")


class _NoSympy:
    def __getattr__(self, name):
        raise AssertionError(f"klr computed with sympy.{name}")


def test_klr_computes_without_sympy(monkeypatch):
    monkeypatch.setattr(klr, "sympy", _NoSympy())
    iquantum.clear_caches()
    tables = _tables()
    oriented = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
    qt = tables["split_a1"]
    d3 = divided_idempotent(qt, "1", 3)
    assert mul(qt, d3, d3) == d3
    assert serre_complex_check(oriented, "1", "2").ok


def test_zero_and_scale():
    w = ("1", "2")
    z = zero(w, w)
    assert z.is_zero()
    assert (e(w) + e(w).scale(-1)).is_zero()
    assert str(z) == "0"
    assert "e" in str(e(w))


@pytest.mark.parametrize(
    "pair, factor, message",
    [
        (("1", "2"), (2, 1), r"table entry \(1, 2\) is not"),
        (("1", "2"), (0, 1), r"table entry \(1, 2\) is not"),
        (("1", "2"), (-1, -1), r"table entry \(1, 2\) is not"),
        (("2", "1"), (-1, 1), r"signed table is not symmetric on \(1, 2\)"),
    ],
    ids=["content", "zero", "negative-power", "flipped-sign"],
)
def test_qtable_entry_must_be_a_signed_power_of_x_minus_y(pair, factor, message):
    good = geometric_qtable(split_a2())
    factors = dict(good.factors)
    factors[pair] = factor
    with pytest.raises(ValueError, match=message):
        QTable(good.datum, factors, good.sign_convention)


def _sympy_qtable(datum, orientation=None, sign_convention="body"):
    """The symbolic construction of the geometric table, kept as a
    reference: (polys, t) with every entry expanded by sympy, the symmetry
    checked by substitution and t read off the x^n coefficient."""
    x, y = _QX, _QY
    if sign_convention not in ("body", "intro"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    for i in datum.nodes:
        if datum.qi(i) != 1:
            raise ValueError(f"geometric parameters need d_i = 1, got d_{i} = {datum.qi(i)}")
    counts = {}
    if orientation is None:
        for i in datum.nodes:
            for j in datum.nodes:
                if datum.nodes.index(i) < datum.nodes.index(j):
                    counts[(i, j)] = -datum.a[(i, j)]
    else:
        for (i, j), n in orientation.items():
            if i not in datum.nodes or j not in datum.nodes:
                raise ValueError(f"orientation names unknown pair ({i}, {j})")
            if n < 0:
                raise ValueError(f"negative edge count for ({i}, {j})")
            counts[(i, j)] = int(n)
    polys = {}
    for i in datum.nodes:
        for j in datum.nodes:
            if i == j:
                polys[(i, j)] = sympy.Integer(0)
                continue
            nij = counts.get((i, j), 0)
            nji = counts.get((j, i), 0)
            if nij + nji != -datum.a[(i, j)]:
                raise ValueError(
                    f"orientation of ({i}, {j}) has {nij}+{nji} edges, expected {-datum.a[(i, j)]}"
                )
            base = (x - y) ** nij * (y - x) ** nji
            if sign_convention == "body":
                sign = -1 if datum.tau[i] == i else 1
            else:
                sign = -1 if datum.tau[j] == i else 1
            polys[(i, j)] = sympy.expand(sign * base)
    for i in datum.nodes:
        for j in datum.nodes:
            if i != j:
                flipped = polys[(j, i)].subs({x: y, y: x}, simultaneous=True)
                if sympy.expand(polys[(i, j)] - flipped) != 0:
                    raise ValueError(
                        f"signed table is not symmetric on ({i}, {j}); "
                        f"convention {sign_convention!r} is unusable for this datum"
                    )
    t = {}
    for (i, j), p in polys.items():
        if i != j:
            t[(i, j)] = int(p.coeff(y, 0).coeff(x, -datum.a[(i, j)]))
    return polys, t


def _grid():
    """(datum, convention, orientation) over eight data, two conventions and
    an unknown one, and ten orientations of the pair of nodes 1 and 2."""
    data = [make() for make in STANDARD.values()] + [
        aux_a1a1(),
        aux_double_edge(),
        make_datum(["1", "2"], [[2, -1], [-1, 2]], [2, 2], {"1": "1", "2": "2"}, {"1": -1, "2": -1}),
    ]
    orientations = [None]
    for pair in (("1", "2"), ("2", "1")):
        orientations += [{pair: n} for n in range(3)]
    orientations += [{("1", "2"): 1, ("2", "1"): 1}, {("1", "2"): -1}, {("1", "9"): 1}]
    for datum in data:
        for convention in ("body", "intro", "nope"):
            for orientation in orientations:
                yield datum, convention, orientation


def test_geometric_qtable_matches_the_symbolic_construction():
    valid = errors = 0
    for datum, convention, orientation in _grid():
        try:
            want = _sympy_qtable(datum, orientation, convention)
        except ValueError as exc:
            with pytest.raises(Exception) as got:
                geometric_qtable(datum, orientation, convention)
            assert type(got.value) is type(exc), (datum.nodes, convention, orientation)
            assert str(got.value) == str(exc), (datum.nodes, convention, orientation)
            errors += 1
            continue
        polys, t = want
        qt = geometric_qtable(datum, orientation, convention)
        for i in datum.nodes:
            for j in datum.nodes:
                assert poly(qt, i, j) == polys[(i, j)], (datum.nodes, convention, orientation)
        assert qt.t == t
        valid += 1
    assert (valid, errors) == (35, 205)


# -- an independent oracle: the polynomial action, no twisted group algebra --


def _act(qt, elem, g, xs):
    """elem acting on the polynomial g (a sympy Poly in xs) at its bottom
    word: dots multiply, an equal-color crossing is the divided difference
    (g - s_r g)/(x_r - x_{r+1}), a mixed crossing swaps x_r and x_{r+1}, and
    when the lower strand comes later in the node order it also multiplies
    by the table entry Q(x_r, x_{r+1})."""
    x, y = _QX, _QY
    out = sympy.Poly(0, *xs)
    for b, c in elem.terms.items():
        h = g * sympy.Poly.from_dict({b.dots: 1}, *xs)
        cw = list(b.bottom)
        for r in reversed(klr._lexmin_word(b.perm)):
            swapped = sympy.Poly.from_dict(
                {e[:r] + (e[r + 1], e[r]) + e[r + 2 :]: v for e, v in h.as_dict().items()}, *xs
            )
            lo, hi = cw[r], cw[r + 1]
            if lo == hi:
                h = (h - swapped).exquo(sympy.Poly(xs[r] - xs[r + 1], *xs))
            else:
                h = swapped
                if qt.order(lo) > qt.order(hi):
                    weight = poly(qt, hi, lo).subs({x: xs[r], y: xs[r + 1]}, simultaneous=True)
                    h = h * sympy.Poly(weight, *xs)
                cw[r], cw[r + 1] = hi, lo
        out = out + c * h
    return out


def _probes(xs):
    staircase = sympy.prod(v ** (len(xs) - 1 - s) for s, v in enumerate(xs))
    mixed = sum((s + 1) * v ** (s + 1) for s, v in enumerate(xs)) - 3 * xs[0] * xs[-1] ** 2
    return [sympy.Poly(p, *xs) for p in (sympy.Integer(1), staircase + 2, mixed)]


def test_mul_agrees_with_the_polynomial_action():
    rng = random.Random(5150)
    for name, qt in _tables().items():
        nodes = qt.datum.nodes
        for k in range(6):
            wc = tuple(rng.choice(nodes) for _ in range(3 if k % 3 else 4))
            wb = shuffled(rng, wc)
            wa = shuffled(rng, wc)
            a = random_elem(rng, wa, wb)
            b = random_elem(rng, wb, wc)
            xs = sympy.symbols(f"z1:{len(wc) + 1}")
            prod = mul(qt, a, b)
            for g in _probes(xs):
                assert _act(qt, prod, g, xs) == _act(qt, a, _act(qt, b, g, xs), xs), (name, k)


def test_cache_stats_count_hits_misses_and_sizes():
    iquantum.clear_caches()
    stats = iquantum.cache_stats()
    others = {"freealg._WORD_PAIR_CACHE", "iuea._B_WORD_MEMO", "shapes._ARC_MEMO"}
    mine = {"klr._PSI_CACHE", "klr._ENTRY_CACHE", "klr._ELEM_CACHE", "klr._FIELDS"}
    assert set(stats) == mine | others
    assert all(v == {"hits": 0, "misses": 0, "size": 0} for v in stats.values())
    qt = geometric_qtable(qs_a2())
    w = ("1", "2")
    x = crossing(("2", "1"), 1)
    y = crossing(w, 1)
    mul(qt, x, y)
    first = iquantum.cache_stats()
    mul(qt, x, y)
    second = iquantum.cache_stats()
    for name, cache in (
        ("_PSI_CACHE", klr._PSI_CACHE),
        ("_ENTRY_CACHE", klr._ENTRY_CACHE),
        ("_ELEM_CACHE", klr._ELEM_CACHE),
        ("_FIELDS", klr._FIELDS),
    ):
        assert first[f"klr.{name}"]["size"] == len(cache) > 0
        assert first[f"klr.{name}"]["misses"] == len(cache)
    # the repeat expands both factors from the element cache
    assert second["klr._ELEM_CACHE"]["hits"] == first["klr._ELEM_CACHE"]["hits"] + 2
    assert second["klr._ELEM_CACHE"]["misses"] == first["klr._ELEM_CACHE"]["misses"]
    every = iquantum.cache_stats()
    assert set(every) == set(stats)
    for name in others:
        assert set(every[name]) == {"hits", "misses", "size"}
    iquantum.clear_caches()
    assert iquantum.cache_stats() == stats
    assert mul(qt, x, y) == diagram(w, w, (0, 1), (1, 0)) - diagram(w, w, (0, 1), (0, 1))


_PRODUCT_CACHES = ("klr._PSI_CACHE", "klr._ENTRY_CACHE", "klr._ELEM_CACHE")


def _mixed_products(qt):
    """Products on two strands of split_a2 that read the (1, 2) table entry."""
    x = crossing(("2", "1"), 1)
    y = crossing(("1", "2"), 1)
    return [mul(qt, x, y), mul(qt, y, x), mul(qt, mul(qt, x, y), dot(("1", "2"), 1))]


def test_equal_tables_share_cache_entries():
    iquantum.clear_caches()
    qt = geometric_qtable(split_a2())
    twin = geometric_qtable(split_a2())
    assert twin is not qt and twin.content_id == qt.content_id
    want = _mixed_products(qt)
    first = iquantum.cache_stats()
    assert _mixed_products(twin) == want
    second = iquantum.cache_stats()
    for name in _PRODUCT_CACHES:
        assert second[name]["misses"] == first[name]["misses"], name
        assert second[name]["size"] == first[name]["size"], name
    assert second["klr._PSI_CACHE"]["hits"] > first["klr._PSI_CACHE"]["hits"]
    iquantum.clear_caches()


def test_tables_of_different_content_never_share_entries():
    iquantum.clear_caches()
    flipped = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
    fresh = _mixed_products(flipped)
    fresh_stats = iquantum.cache_stats()
    iquantum.clear_caches()
    qt = geometric_qtable(split_a2())
    assert flipped.content_id != qt.content_id
    theirs = _mixed_products(qt)
    assert theirs[0] != fresh[0]
    before = iquantum.cache_stats()
    assert _mixed_products(flipped) == fresh
    after = iquantum.cache_stats()
    # the flipped table's products record exactly the hits and misses they
    # record on empty caches: not one of them was read from qt's entries
    for name in _PRODUCT_CACHES:
        for field in ("hits", "misses"):
            assert after[name][field] - before[name][field] == fresh_stats[name][field], (name, field)
    ids = {qt.content_id, flipped.content_id}
    for cache in (klr._PSI_CACHE, klr._ENTRY_CACHE, klr._ELEM_CACHE):
        assert {key[0] for key in cache} == ids
    iquantum.clear_caches()


# -- the eager peel, kept as a reference for the lazy sums in mul ----------


def _cadd(forms, f, g):
    """f + g lifted at once to the componentwise minimum exponent."""
    (nf, ef), (ng, eg) = f, g
    if ef != eg:
        low = tuple(map(min, ef, eg))
        for k, (a, b, m) in enumerate(zip(ef, eg, low)):
            if a > m:
                nf = klr._times_form(nf, *forms.pairs[k], a - m)
            elif b > m:
                ng = klr._times_form(ng, *forms.pairs[k], b - m)
        ef = low
    out = dict(nf)
    klr._merge(out, ng)
    return out, ef


def _acc_coeff(forms, d, k, v):
    cur = d.get(k)
    d[k] = v if cur is None else _cadd(forms, cur, v)


def _extract_reference(qt, top, bottom, table):
    """The peel as it was before the lazy sums: work holds one coefficient
    (num, ex) per permutation, and every subtraction lifts both sides to
    their componentwise minimum exponent at once (_cadd)."""
    l = len(bottom)
    forms = klr._forms(l)
    out = {}
    work = {u: f for u, f in table.items() if f[0]}
    while work:
        w = max(work, key=klr._inv_count)
        _, exp = klr._expand_psi(qt, bottom, w)
        lead, lead_ex = exp[w]
        sign = lead[(0,) * l]
        num, ex = work[w]
        quot = ({e: sign * c for e, c in num.items()}, tuple(a - b for a, b in zip(ex, lead_ex)))
        dotspoly = klr._polynomial(forms, klr._permute(forms, quot, klr._inverse(w)))
        assert dotspoly is not None
        for exps, coeff in dotspoly.items():
            klr._acc(out, klr.KLRBasisElem(top, bottom, w, exps), coeff)
        neg = klr._cneg((dotspoly, forms.zero))
        for u, f in exp.items():
            g = klr._cmul(f, klr._permute(forms, neg, u))
            cur = work.get(u)
            if cur is not None:
                g = _cadd(forms, cur, g)
            if g[0]:
                work[u] = g
            else:
                work.pop(u, None)
    return klr.KLRElem(top, bottom, out)


def _mul_reference(qt, a, b):
    """mul with the eager composite table and the eager peel."""
    assert a.bottom == b.top
    if a.is_zero() or b.is_zero():
        return zero(a.top, b.bottom)
    if not b.bottom:
        return e(()).scale(sum(a.terms.values()) * sum(b.terms.values()))
    forms = klr._forms(len(b.bottom))
    ea = klr._expand_elem(qt, a)
    eb = klr._expand_elem(qt, b)
    comp = {}
    for u, f in ea.items():
        for w, g in eb.items():
            _acc_coeff(forms, comp, klr._compose(u, w), klr._cmul(f, klr._permute(forms, g, u)))
    return _extract_reference(qt, a.top, b.bottom, comp)


def _reference_cases():
    """(table, a, b): seeded products on 2-4 strands over the five tables,
    squares of the 3- and 4-strand divided idempotents, and the products
    that build a Serre differential."""
    rng = random.Random(20261018)
    tables = _tables()
    for qt in tables.values():
        nodes = qt.datum.nodes
        for k in range(9):
            wc = tuple(rng.choice(nodes) for _ in range(2 + k % 3))
            wb = shuffled(rng, wc)
            wa = shuffled(rng, wc)
            yield qt, random_elem(rng, wa, wb, nterms=1 + k % 3), random_elem(rng, wb, wc)
    for name, i, n in (("split_a1", "1", 3), ("split_a1", "1", 4), ("qs_a2", "2", 3)):
        d = divided_idempotent(tables[name], i, n)
        yield tables[name], d, d
    # d_2 of the double-edge complex, from i^(2) j i^(1) to i^(1) j i^(2)
    qt = geometric_qtable(aux_double_edge())
    left = tensor(tensor(divided_idempotent(qt, "1", 1), e(("2",))), divided_idempotent(qt, "1", 2))
    right = tensor(tensor(divided_idempotent(qt, "1", 2), e(("2",))), divided_idempotent(qt, "1", 1))
    top, bottom = left.bottom, right.top
    lateral = KLRElem(top, bottom, {KLRBasisElem(top, bottom, (2, 0, 1, 3), (0,) * 4): 1})
    yield qt, lateral, right
    yield qt, left, mul(qt, lateral, right)


def test_mul_matches_the_eager_reference():
    iquantum.clear_caches()
    cases = list(_reference_cases())
    nonzero = 0
    for qt, a, b in cases:
        got = mul(qt, a, b)
        assert got == _mul_reference(qt, a, b), (a, b)
        nonzero += not got.is_zero()
    assert nonzero >= 30
    # the lazy sums merge only into their own products: a second pass reads
    # every expansion from the caches and leaves them as they were
    snapshot = copy.deepcopy((klr._PSI_CACHE, klr._ELEM_CACHE, klr._ENTRY_CACHE))
    for qt, a, b in cases:
        mul(qt, a, b)
    assert (klr._PSI_CACHE, klr._ELEM_CACHE, klr._ENTRY_CACHE) == snapshot
    iquantum.clear_caches()


def _count_times_form(monkeypatch, product):
    calls = [0]
    times_form = klr._times_form

    def counted(*args):
        calls[0] += 1
        return times_form(*args)

    iquantum.clear_caches()
    qt = geometric_qtable(split_a1())
    d = divided_idempotent(qt, "1", 4)
    with monkeypatch.context() as m:
        m.setattr(klr, "_times_form", counted)
        assert product(qt, d, d) == d
    iquantum.clear_caches()
    return calls[0]


def test_lazy_sums_multiply_by_fewer_forms(monkeypatch):
    # one square of the 4-strand divided idempotent, each from the same
    # cache state: lifting once per peel multiplies by fewer forms than
    # lifting at every addition
    assert _count_times_form(monkeypatch, mul) < _count_times_form(monkeypatch, _mul_reference)
