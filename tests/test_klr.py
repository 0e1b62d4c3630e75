"""Quiver Hecke layer: relations, normal forms, idempotents, Serre complex."""

import copy
import itertools
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
from iquantum.standard import STANDARD, diag_a1a1, qs_a2, qs_a3, split_a1, split_a2
from small_data import SMALL_DATA, small_data


def aux_a1a1():
    """Two fixed nodes, no edge: the shortest Serre complex (m = 1)."""
    return make_datum(["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1})


def aux_double_edge():
    """Two fixed nodes joined by a double edge: m = 3."""
    return make_datum(
        ["1", "2"], [[2, -2], [-2, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
    )


def qs_a3_table():
    return geometric_qtable(qs_a3())


_QX, _QY = sympy.symbols("qt_x qt_y")


def poly(qt, i, j):
    """The table entry Q_{i,j}(qt_x, qt_y) as a sympy expression: 0 on the
    diagonal, sign * (qt_x - qt_y)**n off it."""
    if i == j:
        return sympy.Integer(0)
    sign, n = qt.factors[(i, j)]
    return sympy.expand(sign * (_QX - _QY) ** n)


def signs(qt):
    """The leading coefficient of every table entry."""
    return {ij: sign for ij, (sign, _) in qt.factors.items()}


def test_geometric_qtable_split_a2():
    qt = geometric_qtable(split_a2())
    x, y = sorted(poly(qt, "1", "2").free_symbols, key=str)
    assert poly(qt, "1", "2") == y - x
    assert poly(qt, "2", "1") == x - y
    assert poly(qt, "1", "1") == 0
    assert signs(qt) == {("1", "2"): -1, ("2", "1"): 1}


def test_geometric_qtable_no_edge():
    qt = geometric_qtable(diag_a1a1())
    assert poly(qt, "1", "2") == 1
    assert signs(qt) == {("1", "2"): 1, ("2", "1"): 1}
    # the swapped-pair sign flips the constant
    qt = geometric_qtable(diag_a1a1(), sign_convention="intro")
    assert poly(qt, "1", "2") == -1


def test_geometric_qtable_sign_conventions_on_a3():
    with pytest.raises(ValueError, match=r"\(1, 2\)|\(2, 1\)"):
        geometric_qtable(qs_a3(), sign_convention="body")
    qt = qs_a3_table()
    assert poly(qt, "1", "3") == -1
    assert poly(qt, "3", "1") == -1


def test_sign_convention_rule_on_small_data():
    # the table holds an entry for every ordered pair, edge or no edge, so
    # "body", which negates the rows of tau-fixed nodes, is symmetric exactly
    # when tau fixes every node or none; "intro" always is, and the default
    # is "body" exactly where it builds
    data = list(small_data((0, -1), distinct=False))
    assert len(data) == 32
    for datum in data:
        geometric_qtable(datum, sign_convention="intro")
        usable = klr.usable_sign_convention(datum)
        assert geometric_qtable(datum) == geometric_qtable(datum, sign_convention=usable)
        if len({datum.tau[i] == i for i in datum.nodes}) == 1:
            assert usable == "body"
            geometric_qtable(datum, sign_convention="body")
        else:
            assert usable == "intro"
            with pytest.raises(ValueError, match="not symmetric"):
                geometric_qtable(datum, sign_convention="body")


def test_builtin_tables_keep_their_conventions():
    # the conventions the built-in data were built with before the default
    # was derived from tau
    conventions = {
        "split_a1": "body",
        "diag_a1a1": "body",
        "qs_a2": "body",
        "qs_a3": "intro",
        "split_a2": "body",
    }
    for name, make in STANDARD.items():
        datum = make()
        assert geometric_qtable(datum) == geometric_qtable(datum, sign_convention=conventions[name])


def test_geometric_qtable_orientation():
    qt = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
    x, y = sorted(poly(qt, "1", "2").free_symbols, key=str)
    assert poly(qt, "1", "2") == x - y
    assert klr.edge_counts(split_a2()) == {("1", "2"): 1, ("2", "1"): 0}
    assert klr.edge_counts(split_a2(), {("2", "1"): 1}) == {("1", "2"): 0, ("2", "1"): 1}
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


@pytest.mark.parametrize(
    "change, message",
    [
        ("empty", r"table has no entry for \(1, 2\)"),
        ("drop-pair", r"table has no entry for \(2, 1\)"),
        ("foreign-node", r"table entry \(1, 9\) is not a pair of distinct datum nodes"),
        ("diagonal", r"table entry \(2, 2\) is not a pair of distinct datum nodes"),
    ],
)
def test_qtable_holds_exactly_the_pairs_of_distinct_nodes(change, message):
    # unchecked, each table builds and a missing pair surfaces as a KeyError
    # at the first mixed crossing in mul
    good = geometric_qtable(split_a2())
    factors = dict(good.factors)
    if change == "empty":
        factors = {}
    elif change == "drop-pair":
        del factors[("2", "1")]
    elif change == "foreign-node":
        factors[("1", "9")] = factors[("9", "1")] = (1, 0)
    else:
        factors[("2", "2")] = (1, 0)
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
        assert signs(qt) == t
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


def test_div_form_matches_sympy():
    # seeded g on 2-6 strands, every pair s < t and m = 1..3: dividing
    # sympy's expansion of g * (x_s - x_t)^m gives g back, the same input
    # with one stray monomial added is not divisible, and _times_form
    # multiplies as sympy does
    rng = random.Random(24)
    cases = 0
    for l in range(2, 7):
        xs = sympy.symbols(f"w0:{l}")
        for s in range(l):
            for t in range(s + 1, l):
                for m in (1, 2, 3):
                    g = {}
                    for _ in range(rng.randint(1, 5)):
                        e = tuple(rng.randrange(4) for _ in range(l))
                        g[e] = g.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
                    g = {e: c for e, c in g.items() if c} or {(0,) * l: 1}
                    form = sympy.Poly((xs[s] - xs[t]) ** m, *xs)
                    num = (sympy.Poly.from_dict(g, *xs) * form).as_dict()
                    assert klr._times_form(g, s, t, m) == num, (l, s, t, m)
                    assert klr._div_form(num, s, t, m) == g, (l, s, t, m)
                    stray = tuple(rng.randrange(5) for _ in range(l))
                    bad = dict(num)
                    bad[stray] = bad.get(stray, 0) + 1
                    bad = {e: c for e, c in bad.items() if c}
                    assert klr._div_form(bad, s, t, m) is None, (l, s, t, m, stray)
                    cases += 1
    assert cases == 3 * (1 + 3 + 6 + 10 + 15)
    # a nonzero form of degree below m is never divisible, a zero one is
    assert klr._div_form({(1, 0, 2): 1, (0, 1, 2): -1}, 0, 1, 2) is None
    assert klr._div_form({}, 0, 1, 2) == {}
    assert klr._times_form({(1, 2): 5}, 0, 1, 0) == {(1, 2): 5}


def test_cache_stats_count_hits_misses_and_sizes():
    iquantum.clear_caches()
    stats = iquantum.cache_stats()
    others = {
        "freealg._WORD_PAIR_CACHE", "iuea._B_WORD_MEMO", "shapes._ARC_MEMO", "shapes._SHAPE_MEMO",
    }
    mine = {"klr._STEP_MEMO", "klr._REWORD_MEMO"}
    twisted = {"klr._PSI_CACHE", "klr._ENTRY_CACHE", "klr._ELEM_CACHE", "klr._FIELDS"}
    assert set(stats) == mine | twisted | others
    assert all(v == {"hits": 0, "misses": 0, "size": 0} for v in stats.values())
    qt = geometric_qtable(split_a2())
    w = ("1", "2", "1")
    triple_crossing(qt, w, 2)
    first = iquantum.cache_stats()
    triple_crossing(qt, w, 2)
    second = iquantum.cache_stats()
    for name, cache in (("_STEP_MEMO", klr._STEP_MEMO), ("_REWORD_MEMO", klr._REWORD_MEMO)):
        assert first[f"klr.{name}"]["size"] == len(cache) > 0
        assert first[f"klr.{name}"]["misses"] == len(cache)
    # mul never reaches the twisted route's memos
    assert all(first[name]["size"] == 0 for name in twisted)
    # the repeat reads each of its three steps from the memo
    assert second["klr._STEP_MEMO"]["hits"] == first["klr._STEP_MEMO"]["hits"] + 3
    assert second["klr._STEP_MEMO"]["misses"] == first["klr._STEP_MEMO"]["misses"]
    assert second["klr._REWORD_MEMO"] == first["klr._REWORD_MEMO"]
    # the twisted route, the tests' reference, counts in its own memos
    x = crossing(("2", "1"), 1)
    y = crossing(("1", "2"), 1)
    klr._mul_twisted(qt, x, y)
    first = iquantum.cache_stats()
    klr._mul_twisted(qt, x, y)
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
    assert mul(qt, x, y) == diagram(y.bottom, y.bottom, (0, 1), (0, 1)) - diagram(
        y.bottom, y.bottom, (0, 1), (1, 0)
    )


_PRODUCT_CACHES = ("klr._STEP_MEMO", "klr._REWORD_MEMO")


def _mixed_products(qt):
    """Products on split_a2 that read the (1, 2) table entry: the squares
    of a crossing on two strands, one with a dot, and both triple crossings
    on 1 2 1, whose difference is the braid term."""
    x = crossing(("2", "1"), 1)
    y = crossing(("1", "2"), 1)
    w = ("1", "2", "1")
    return [
        mul(qt, x, y),
        mul(qt, y, x),
        mul(qt, mul(qt, x, y), dot(("1", "2"), 1)),
        triple_crossing(qt, w, 1),
        triple_crossing(qt, w, 2),
    ]


def test_equal_tables_share_cache_entries():
    iquantum.clear_caches()
    qt = geometric_qtable(split_a2())
    twin = geometric_qtable(split_a2())
    assert twin is not qt and twin == qt and hash(twin) == hash(qt)
    want = _mixed_products(qt)
    first = iquantum.cache_stats()
    assert _mixed_products(twin) == want
    second = iquantum.cache_stats()
    for name in _PRODUCT_CACHES:
        assert second[name]["misses"] == first[name]["misses"], name
        assert second[name]["size"] == first[name]["size"], name
    assert second["klr._STEP_MEMO"]["hits"] > first["klr._STEP_MEMO"]["hits"]
    iquantum.clear_caches()


def test_tables_of_different_content_never_share_entries():
    iquantum.clear_caches()
    flipped = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
    fresh = _mixed_products(flipped)
    fresh_stats = iquantum.cache_stats()
    iquantum.clear_caches()
    qt = geometric_qtable(split_a2())
    assert flipped != qt
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
    for cache in (klr._STEP_MEMO, klr._REWORD_MEMO):
        assert {key[0] for key in cache} == {qt, flipped}
    iquantum.clear_caches()


def test_rewriting_needs_words_of_one_permutation():
    # an invariant of the straightening, raised as ArithmeticError so that
    # the klr subcommand reports a rejected normal form
    qt = geometric_qtable(split_a2())
    with pytest.raises(ArithmeticError, match="different permutations"):
        klr._make_reword(qt, ("1", "2", "1"), (0,), (1,))


# -- the eager peel, the reference for the twisted route's lazy sums --------


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


def _inv_count(p):
    return sum(1 for s in range(len(p)) for t in range(s + 1, len(p)) if p[s] > p[t])


def _extract_reference(qt, top, bottom, table):
    """The peel as it was before the lazy sums: work holds one coefficient
    (num, ex) per permutation, every subtraction lifts both sides to their
    componentwise minimum exponent at once (_cadd), the longest permutation
    is found by counting inversions, and the dot part is read through
    klr._polynomial."""
    l = len(bottom)
    forms = klr._forms(l)
    out = {}
    work = {u: f for u, f in table.items() if f[0]}
    while work:
        w = max(work, key=_inv_count)
        exp = klr._expand_psi(qt, bottom, w)
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
    """_mul_twisted with the eager composite table and the eager peel."""
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
        assert got == klr._mul_twisted(qt, a, b), (a, b)
        nonzero += not got.is_zero()
    assert nonzero >= 30
    # both routes' sums merge only into their own products: a second pass
    # reads every step and expansion from the memos and leaves them as they
    # were
    memos = (
        klr._STEP_MEMO, klr._REWORD_MEMO, klr._PSI_CACHE, klr._ELEM_CACHE, klr._ENTRY_CACHE,
    )
    snapshot = copy.deepcopy(memos)
    for qt, a, b in cases:
        mul(qt, a, b)
        klr._mul_twisted(qt, a, b)
    assert memos == snapshot
    iquantum.clear_caches()


def _count_calls(monkeypatch, name, product):
    """The calls of klr.<name> in one square of the idempotent of
    1^(4) 2 on split_a2, from empty caches."""
    calls = [0]
    wrapped = getattr(klr, name)

    def counted(*args):
        calls[0] += 1
        return wrapped(*args)

    iquantum.clear_caches()
    qt = geometric_qtable(split_a2())
    d = tensor(divided_idempotent(qt, "1", 4), e(("2",)))
    with monkeypatch.context() as m:
        m.setattr(klr, name, counted)
        assert product(qt, d, d) == d
    iquantum.clear_caches()
    return calls[0]


def test_lazy_sums_multiply_by_fewer_forms(monkeypatch):
    # a square of two colors, which mul straightens without the twisted
    # route: there, lifting once per peel multiplies by fewer forms than
    # lifting at every addition
    assert _count_calls(monkeypatch, "_mul_twisted", mul) == 0
    lazy = _count_calls(monkeypatch, "_times_form", klr._mul_twisted)
    assert 0 < lazy < _count_calls(monkeypatch, "_times_form", _mul_reference)


# -- one color: the nilHecke straightening against the twisted route -------


def _one_color_elem(rng, l, nterms):
    """A seeded element on l strands of one color with dots up to 3.  On 5
    and 6 strands each permutation is a product of at most 3 crossings, so
    that the twisted route stays fast."""
    w = ("1",) * l
    terms = {}
    for _ in range(nterms):
        if l < 5:
            perm = tuple(rng.sample(range(l), l))
        else:
            perm = tuple(range(l))
            for _ in range(rng.randrange(4)):
                perm = klr._swap_values(perm, rng.randrange(l - 1))
        b = KLRBasisElem(w, w, perm, tuple(rng.randrange(4) for _ in w))
        terms[b] = terms.get(b, 0) + rng.choice((-2, -1, 1, 2))
    return KLRElem(w, w, terms)


def _one_color_cases(qt):
    """(a, b): seeded products on 1-6 strands with 1-4 terms per factor,
    the squares of the 3- and 4-strand divided idempotents, and each step
    of the longest crossing on six strands (W0) built one crossing at a
    time, as ``klr --expr`` builds it."""
    rng = random.Random(20261019)
    for k in range(48):
        l = 1 + k % 6
        yield _one_color_elem(rng, l, 1 + k % 4), _one_color_elem(rng, l, 1 + (k // 6) % 4)
    for n in (3, 4):
        d = divided_idempotent(qt, "1", n)
        yield d, d
    w = ("1",) * 6
    cur = e(w)
    for r in (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1):
        yield cur, crossing(w, r)
        cur = mul(qt, cur, crossing(w, r))
    assert cur == diagram(w, w, (5, 4, 3, 2, 1, 0), (0,) * 6)


def test_one_color_products_match_the_twisted_route():
    iquantum.clear_caches()
    qt = geometric_qtable(split_a1())
    nonzero = 0
    for a, b in _one_color_cases(qt):
        got = mul(qt, a, b)
        want = klr._mul_twisted(qt, a, b)
        assert got == want and str(got) == str(want), (a, b)
        nonzero += not got.is_zero()
    assert nonzero >= 50
    iquantum.clear_caches()


def _lexmin_word_reference(p):
    """The greedy definition: the smallest left descent r first, then the
    word of s_r p, each descent found by a fresh scan."""
    out = []
    cur = p
    while True:
        pos = {t: s for s, t in enumerate(cur)}
        for r in range(len(cur) - 1):
            if pos[r] > pos[r + 1]:
                out.append(r)
                cur = klr._swap_values(cur, r)
                break
        else:
            return tuple(out)


def test_lexmin_word_matches_the_greedy_reference():
    # every permutation on at most six strands: the same word, reduced, and
    # spelling the permutation as mul applies it
    count = 0
    for l in range(7):
        for p in itertools.permutations(range(l)):
            word = klr._lexmin_word(p)
            assert word == _lexmin_word_reference(p), p
            assert len(word) == klr._length(p)
            assert klr._times_word(tuple(range(l)), word) == p
            count += 1
    assert count == 1 + 1 + 2 + 6 + 24 + 120 + 720


# -- mixed colors: the straightening against the twisted route -------------


def _mixed_word(rng, nodes, l):
    """A seeded word on l strands with at least two colors."""
    while True:
        w = tuple(rng.choice(nodes) for _ in range(l))
        if len(set(w)) > 1:
            return w


def _mixed_cases(rng, qt, count, lengths):
    """(a, b): count seeded products of 1-3 by 1-2 terms on mixed words,
    cycling through the strand counts in lengths."""
    nodes = qt.datum.nodes
    for k in range(count):
        wc = _mixed_word(rng, nodes, lengths[k % len(lengths)])
        wb = shuffled(rng, wc)
        wa = shuffled(rng, wc)
        yield random_elem(rng, wa, wb, nterms=1 + k % 3), random_elem(rng, wb, wc, nterms=1 + k % 2)


def _longest_crossing_steps(qt, word):
    """(a, b): the longest crossing on four strands after four dots, built
    one crossing at a time, as ``klr --expr`` builds it."""
    cur = e(word)
    for t in (1, 2, 2, 3):
        nxt = dot(cur.bottom, t)
        yield cur, nxt
        cur = mul(qt, cur, nxt)
    for r in (1, 2, 1, 3, 2, 1):
        w = list(cur.bottom)
        w[r - 1], w[r] = w[r], w[r - 1]
        nxt = crossing(tuple(w), r)
        yield cur, nxt
        cur = mul(qt, cur, nxt)


def _assert_routes_agree(qt, cases):
    nonzero = 0
    for a, b in cases:
        got = mul(qt, a, b)
        want = klr._mul_twisted(qt, a, b)
        assert got == want and str(got) == str(want), (qt.datum.nodes, qt.factors, a, b)
        nonzero += not got.is_zero()
    return nonzero


def test_mixed_products_match_the_twisted_route():
    # the four built-in tables with two or more nodes: seeded products on
    # 3-5 strands, and the longest crossing on 1 2 1 2 and 2 1 1 1 after
    # four dots, where the rewriting meets every braid move
    iquantum.clear_caches()
    rng = random.Random(20261020)
    nonzero = 0
    for qt in _tables().values():
        nodes = qt.datum.nodes
        if len(nodes) < 2:
            continue
        nonzero += _assert_routes_agree(qt, _mixed_cases(rng, qt, 24, (3, 4, 5)))
        for word in ((nodes[0], nodes[1]) * 2, (nodes[1],) + (nodes[0],) * 3):
            nonzero += _assert_routes_agree(qt, _longest_crossing_steps(qt, word))
    assert nonzero >= 165
    iquantum.clear_caches()


def _small_tables():
    """Each small datum with two or three nodes under its default table,
    the "intro" table where "body" is the default, and every arrow
    reversed."""
    for datum in SMALL_DATA:
        if len(datum.nodes) < 2:
            continue
        yield geometric_qtable(datum)
        if klr.usable_sign_convention(datum) == "body":
            yield geometric_qtable(datum, sign_convention="intro")
        reversed_arrows = {(j, i): n for (i, j), n in klr.edge_counts(datum).items()}
        yield geometric_qtable(datum, reversed_arrows)


def test_small_data_products_match_the_twisted_route():
    # 450 seeded products on 3 and 4 strands over 75 tables of the small data
    iquantum.clear_caches()
    rng = random.Random(20261021)
    tables = list(_small_tables())
    assert len(tables) == 75
    nonzero = sum(_assert_routes_agree(qt, _mixed_cases(rng, qt, 6, (3, 4))) for qt in tables)
    assert nonzero >= 430
    iquantum.clear_caches()


def test_one_color_products_never_read_the_table():
    # psi^2 = 0, the braid relation without correction and the dot slide,
    # with no table at all: the table value only keys the memos, and no
    # other memo is filled
    iquantum.clear_caches()
    w = ("1",) * 3
    s1, s2 = crossing(w, 1), crossing(w, 2)
    assert mul(None, s1, s1).is_zero()
    assert mul(None, mul(None, s1, s2), s1) == mul(None, mul(None, s2, s1), s2)
    assert mul(None, dot(w, 1), s1) - mul(None, s1, dot(w, 2)) == e(w)
    stats = iquantum.cache_stats()
    assert stats["klr._STEP_MEMO"]["size"] > 0 and stats["klr._REWORD_MEMO"]["size"] > 0
    assert {key[0] for key in (*klr._STEP_MEMO, *klr._REWORD_MEMO)} == {None}
    assert all(v["size"] == 0 for name, v in stats.items() if name not in _PRODUCT_CACHES)
    iquantum.clear_caches()
