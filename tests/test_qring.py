"""Exact-arithmetic foundation: frozen values and algebraic properties.

The RatQ normal form is pinned by golden values and by hypothesis
properties: cancellation of common factors, the normal-form invariants
(coprimality checked with sympy's gcd), and evaluation at exact rational q.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from iquantum.qring import (
    ASC_Q,
    LaurentPoly,
    PowerSeriesTrunc,
    RatQ,
    _exact_quo,
    expand,
    qbinom,
    qfact,
    qint,
)


def L(coeffs):
    return LaurentPoly(coeffs)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b by long division over Q, requiring an exact integer Laurent
    quotient: the division-based reference for qbinom's product formula."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    la, lb = min(a.c), min(b.c)
    num = [Fraction(a.c.get(la + k, 0)) for k in range(max(a.c) - la + 1)]
    den = [Fraction(b.c.get(lb + k, 0)) for k in range(max(b.c) - lb + 1)]
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    terms = [(j, v) for j, v in enumerate(den) if v]
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        if c:
            quot[k] = c
            for j, v in terms:
                num[k + j] -= c * v
    if any(num):
        raise ValueError("inexact Laurent division")
    if any(c.denominator != 1 for c in quot):
        raise ValueError("non-integer coefficient in Laurent division")
    return L({k + la - lb: int(c) for k, c in enumerate(quot)})


def test_qint_small():
    assert qint(2, 1) == L({1: 1, -1: 1})
    assert qint(0, 3) == L({})
    assert qint(1, 5) == LaurentPoly.one()
    assert qint(-2, 1) == L({1: -1, -1: -1})
    # [3] in q_i = q^2, computed independently as (q^6 - q^-6)/(q^2 - q^-2)
    assert qint(3, 2) == L({4: 1, 0: 1, -4: 1})
    assert exact_div(L({6: 1, -6: -1}), L({2: 1, -2: -1})) == qint(3, 2)


def test_qfact_qbinom_values():
    assert qfact(0, 1) == LaurentPoly.one()
    assert qfact(3, 1) == L({3: 1, 1: 2, -1: 2, -3: 1})
    with pytest.raises(ValueError):
        qfact(-1, 1)
    assert qbinom(1, 0, 1) == LaurentPoly.one()
    assert qbinom(4, 2, 1) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert qbinom(5, -1, 1) == L({})
    assert qbinom(3, 5, 1) == L({})
    # negative top argument stays integral: [-1; n] = (-1)^n q^{+-...}
    assert qbinom(-1, 1, 1) == L({0: -1})
    assert qbinom(-1, 2, 1) == exact_div(qint(-1) * qint(-2), qint(1) * qint(2))


def test_qbinom_matches_the_product_formula():
    # the product formula prod_{k=1..n} [m-n+k] / [n]!, divided over Q
    for d in (1, 2, 3):
        for m in range(-6, 9):
            assert qbinom(m, -1, d) == qbinom(m, -2, d) == LaurentPoly.zero()
            for n in range(0, 9):
                top = LaurentPoly.one()
                for k in range(1, n + 1):
                    top = top * qint(m - n + k, d)
                assert qbinom(m, n, d) == exact_div(top, qfact(n, d)), (m, n, d)


@pytest.mark.parametrize("m", range(0, 9))
def test_qbinom_pascal(m):
    for n in range(0, m + 1):
        lhs = qbinom(m, n, 1)
        rhs = qbinom(m - 1, n, 1).shifted(n) + qbinom(m - 1, n - 1, 1).shifted(n - m)
        assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 9))
def test_alternating_qbinom_identity(m):
    """prod_{r<m}(q_i^r - q_i^-r) as two signed binomial sums in q_i = q^d,
    the form bkl_product_form takes; selftest criterion 04 runs d = 1."""
    for d in (2, 3):
        prod = LaurentPoly.one()
        for r in range(1, m):
            prod = prod * L({d * r: 1, -d * r: -1})
        c2 = m * (m - 1) // 2
        mid = LaurentPoly.zero()
        alt = LaurentPoly.zero()
        for n in range(0, m):
            sign = -1 if n % 2 else 1
            mid = mid + qbinom(m - 1, n, d).shifted(d * (c2 - n * m)) * sign
            alt = alt + qbinom(m - 1, n, d).shifted(d * (n * m - c2)) * sign
        if m % 2 == 0:
            alt = -alt
        assert prod == mid, d
        assert prod == alt, d


def test_ratq_normal_form():
    x = RatQ(L({1: 1, -1: -1}), L({2: 1, -2: -1}))
    assert x == RatQ(L({1: 1}), L({0: 1, 2: 1}))
    assert x * RatQ(L({1: 1, -1: 1})) == RatQ.one()
    # same value entered four different ways collapses to one representation
    y = RatQ(L({3: 2, 1: -2}), L({4: 2, 0: -2}))
    assert y == x
    assert RatQ(L({0: 5}), L({0: 10})) == RatQ(LaurentPoly.one(), L({0: 2}))


def test_ratq_zero_and_div():
    z = RatQ(L({1: 1}), L({0: 1, 2: 1})) - RatQ(L({1: 1}), L({0: 1, 2: 1}))
    assert z.is_zero()
    assert z == RatQ.zero()
    assert z.den == LaurentPoly.one()
    with pytest.raises(ZeroDivisionError):
        RatQ.one() / z
    with pytest.raises(ZeroDivisionError):
        RatQ(LaurentPoly.one(), LaurentPoly.zero())


def test_ratq_takes_only_ratq_operands():
    # integers enter the field through RatQ.from_int, never by coercion
    one = RatQ.one()
    with pytest.raises(TypeError):
        one + 1
    with pytest.raises(TypeError):
        2 * one
    with pytest.raises(TypeError):
        one / 2
    assert (one == 1) is False
    assert one == RatQ.from_int(1)


def test_bar_of_geometric_factor():
    x = RatQ(LaurentPoly.one(), L({0: 1, -2: -1}))  # 1/(1 - q^-2)
    b = x.bar()
    assert b * RatQ(L({0: 1, 2: -1})) == RatQ.one()
    assert b == RatQ(LaurentPoly.one(), L({0: 1, 2: -1}))
    assert b.bar() == x
    assert RatQ.q_power(2).bar() == RatQ.q_power(-2)
    sym = RatQ(L({1: 1, -1: 1}))
    assert sym.bar() == sym


def _rand_laurent(rng, allow_zero=True):
    while True:
        p = LaurentPoly(
            {rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        if allow_zero or not p.is_zero():
            return p


def test_field_axioms_random():
    rng = random.Random(20260823)
    for _ in range(60):
        a = RatQ(_rand_laurent(rng), _rand_laurent(rng, allow_zero=False))
        b = RatQ(_rand_laurent(rng), _rand_laurent(rng, allow_zero=False))
        c = RatQ(_rand_laurent(rng), _rand_laurent(rng, allow_zero=False))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if not b.is_zero():
            assert (a / b) * b == a
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_expand_geometric():
    s = expand(RatQ(LaurentPoly.one(), L({0: 1, 2: -1})), ASC_Q, 6)
    assert s == PowerSeriesTrunc(6, {0: 1, 2: 1, 4: 1, 6: 1})


def test_expand_with_numerator():
    a = RatQ(L({0: 1, 2: 1}), L({0: 1, 2: -1}) * L({0: 1, 2: -1}))
    s = expand(a, ASC_Q, 6)
    assert s == PowerSeriesTrunc(6, {0: 1, 2: 3, 4: 5, 6: 7})


def test_expand_negative_valuation():
    a = RatQ(L({-3: 1}), L({0: 1, 1: -1}))  # q^-3/(1-q)
    s = expand(a, ASC_Q, 3)
    assert s.coeffs == {e: 1 for e in range(-3, 4)}
    # exponents below -order fall outside the storable window
    assert expand(a, ASC_Q, 2).coeff(-3) == 0


def test_expand_rejects_an_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction"):
        expand(RatQ.one(), "descending", 3)


def test_expand_integrality_guard():
    with pytest.raises(ValueError):
        expand(RatQ(LaurentPoly.one(), L({0: 2, 1: -1})), ASC_Q, 3)


@pytest.mark.parametrize(
    "num,den,order,message",
    [
        # 1/(2 - q): the first coefficient is already 1/2
        ({0: 1}, {0: 2, 1: -1}, 3, "non-integer coefficient 1/2 at q^0 in series expansion"),
        # (1 + q^2)/(3 - q): 1/3, then (0 + 1/3)/3 = 1/9 at q^1
        ({1: 3, 3: 3}, {0: 9, 1: -3}, 3, "non-integer coefficient 1/3 at q^1 in series expansion"),
        # a non-integer below the window defers to the first one inside it ...
        ({-5: 1, 0: 1}, {0: 2}, 2, "non-integer coefficient 1/2 at q^0 in series expansion"),
        # ... and is named itself when the window holds none
        ({-5: 1}, {0: 2}, 2, "non-integer coefficient 1/2 at q^-5 in series expansion"),
    ],
)
def test_expand_error_names_the_coefficient(num, den, order, message):
    with pytest.raises(ValueError) as ei:
        expand(RatQ(L(num), L(den)), ASC_Q, order)
    assert str(ei.value) == message


def test_trusted_constructors_give_the_normal_form():
    cases = [
        (RatQ.zero(), RatQ(LaurentPoly.zero())),
        (RatQ.one(), RatQ(LaurentPoly.one())),
    ]
    for e in range(-3, 4):
        for c in (-7, -1, 0, 1, 2, 12):
            cases.append((RatQ.q_power(e, c), RatQ(LaurentPoly({e: c}))))
            cases.append((RatQ.from_int(c), RatQ(LaurentPoly({0: c}))))
    cases.append((RatQ.q_power(5), RatQ(LaurentPoly({5: 1}))))
    for got, want in cases:
        assert got.num.c == want.num.c and got.den.c == want.den.c
        assert_normal_form(got)
    # fresh objects: a caller may not mutate a shared zero by accident
    assert RatQ.zero().num is not RatQ.zero().num


def test_series_arithmetic():
    a = PowerSeriesTrunc(4, {0: 1, 2: 1})
    b = PowerSeriesTrunc(4, {0: 1, 2: -1})
    assert a * b == PowerSeriesTrunc(4, {0: 1, 4: -1})
    big = PowerSeriesTrunc(4, {4: 1})
    assert (big * big).coeffs == {}  # q^8 falls outside the order
    with pytest.raises(ValueError):
        a * PowerSeriesTrunc(5, {0: 1})


def test_canonical_text():
    assert str(L({})) == "0"
    assert str(qint(2, 1)) == "+1*q^-1 +1*q^1"
    assert str(L({0: -3})) == "-3*q^0"
    assert str(RatQ.from_int(-3)) == "-3*q^0"
    x = RatQ(LaurentPoly.one(), L({0: -1, 2: 1}))
    assert str(x) == "(+1*q^0)/(-1*q^0 +1*q^2)"
    s = PowerSeriesTrunc(4, {0: 1, -2: 2})
    assert str(s) == "+2*q^-2 +1*q^0"
    assert str(PowerSeriesTrunc(4, {})) == "0"


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        exact_div(L({1: 1, 0: 1}), L({0: 1, -1: 1, 1: 1}))
    with pytest.raises(ZeroDivisionError):
        exact_div(LaurentPoly.one(), LaurentPoly.zero())


# --- The normal form: golden values, cancellation, invariants, evaluation ---

# (num, den, normal-form num, normal-form den), computed independently by a
# Euclid over Q with Fraction coefficients, not by the integer gcd RatQ uses
GOLDEN_NORMAL_FORMS = [
    # one-term numerator
    ({3: -4}, {0: 2, 2: -2}, {3: 2}, {0: -1, 2: 1}),
    # one-term denominator
    ({-1: 6, 1: -4, 3: 2}, {5: -8}, {-6: -3, -4: 2, -2: -1}, {0: 4}),
    # both sides one term
    ({2: -6}, {-3: -9}, {5: 2}, {0: 3}),
    # nontrivial gcd: (q^2 - q^-2)/(q - q^-1) = q + q^-1
    ({2: 1, -2: -1}, {1: 1, -1: -1}, {-1: 1, 1: 1}, {0: 1}),
    # a non-monic gcd 2q + 3, and content 5 left on top
    ({0: 15, 1: 10, 2: 15, 3: 10}, {0: 3, 1: 2, 2: -6, 3: -4}, {0: -5, 2: -5}, {0: -1, 2: 2}),
    # the gcd [3] of q^2 + 1 + q^-2 and 1 - q^6
    ({2: 1, 0: 1, -2: 1}, {0: 1, 6: -1}, {-2: -1}, {0: -1, 2: 1}),
    # negative top coefficient of the denominator, no gcd
    ({0: 1, 1: 1}, {0: 1, 1: 2, 2: -3}, {0: -1, 1: -1}, {0: -1, 1: -2, 2: 3}),
    # joint content above 1, and a negative top coefficient
    ({-2: 4, 0: 6}, {1: 2, 3: -10}, {-3: -2, -1: -3}, {0: -1, 2: 5}),
    # coprime dense sides
    ({0: 2, 1: -1, 2: 3}, {-1: 1, 0: 1, 1: 1}, {1: 2, 2: -1, 3: 3}, {0: 1, 1: 1, 2: 1}),
    # a gcd of cyclotomic factors: [2][3] over (1 - q^4)(1 - q^6)
    ({-3: 1, -1: 2, 1: 2, 3: 1}, {0: 1, 4: -1, 6: -1, 10: 1}, {-3: 1}, {0: 1, 2: -2, 4: 1}),
    # a repeated factor: (1 + q)^3 over (1 + q)^2 (1 - q)
    ({0: 1, 1: 3, 2: 3, 3: 1}, {0: 1, 1: 1, 2: -1, 3: -1}, {0: -1, 1: -1}, {0: -1, 1: 1}),
    # the denominator divides the numerator, content 4 shared
    ({0: 12, 2: -12}, {0: 4, 1: -4}, {0: 3, 1: 3}, {0: 1}),
]


@pytest.mark.parametrize("num,den,want_num,want_den", GOLDEN_NORMAL_FORMS)
def test_ratq_golden_normal_forms(num, den, want_num, want_den):
    x = RatQ(L(num), L(den))
    assert x.num.c == want_num
    assert x.den.c == want_den
    assert_normal_form(x)


def test_exact_quo_rejects_a_non_divisor():
    assert _exact_quo([2, 3, 1], [1, 1]) == [2, 1]  # (1 + q)(2 + q)
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 0, 1], [1, 1])  # 1 + q^2 over 1 + q
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 1], [1, 2])  # 1 + q over 1 + 2q


_SYM_Q = sympy.Symbol("q")


def _sym(p: LaurentPoly):
    """p times q^-lowest as a sympy polynomial with a nonzero constant term."""
    lo = min(p.c)
    return sympy.Poly({(e - lo,): v for e, v in p.c.items()}, _SYM_Q)


def assert_normal_form(x: RatQ):
    """The invariants the qring docstring promises, checked from outside."""
    if x.is_zero():
        assert x.num.c == {} and x.den == LaurentPoly.one()
        return
    assert min(x.den.c) == 0
    assert x.den.c[max(x.den.c)] > 0
    assert gcd(*x.num.c.values(), *x.den.c.values()) == 1
    # coprime over Q[q], by sympy's gcd rather than the package's own
    assert sympy.gcd(_sym(x.num), _sym(x.den)).degree() == 0


_laurent = st.dictionaries(
    st.integers(-4, 4), st.integers(-5, 5), min_size=0, max_size=4
).map(L)
_nonzero = _laurent.filter(bool)


def _cyclotomic(kind, k):
    if kind == 0:
        return L({0: 1, 2 * k: -1})  # 1 - q^{2k}
    if kind == 1:
        return L({k: 1, -k: -1})  # q^k - q^-k
    return qint(k)  # [k]


_cofactor = st.one_of(
    _nonzero,  # non-monic, mixed signs
    st.tuples(st.integers(2, 6), _nonzero).map(lambda t: t[1] * t[0]),  # content >= 2
    st.builds(_cyclotomic, st.integers(0, 2), st.integers(1, 4)),
    st.builds(lambda c, e: L({e: c}), st.sampled_from([-6, -2, 3, 4]), st.integers(-3, 3)),
)

_ratq = st.builds(RatQ, _laurent, _nonzero)

_PROPERTY = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@_PROPERTY
@given(_laurent, _nonzero, _cofactor, _cofactor)
def test_ratq_cancels_common_factors(a, b, c1, c2):
    c = c1 * c2
    x = RatQ(a, b)
    y = RatQ(a * c, b * c)
    assert y.num.c == x.num.c and y.den.c == x.den.c
    assert_normal_form(x)


@_PROPERTY
@given(_ratq, _ratq)
def test_ratq_arithmetic_stays_normal(x, y):
    for z in (x + y, x - y, x * y, x.bar(), -x):
        assert_normal_form(z)
    if y:
        assert_normal_form(x / y)


def _ev_laurent(p: LaurentPoly, q0: Fraction) -> Fraction:
    return sum((v * q0**e for e, v in p.c.items()), Fraction(0))


def _ev(x: RatQ, q0: Fraction) -> Fraction:
    """x at q = q0; skips the example when q0 is a root of x's denominator."""
    d = _ev_laurent(x.den, q0)
    assume(d != 0)
    return _ev_laurent(x.num, q0) / d


_q0 = st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@_PROPERTY
@given(_ratq, _ratq, _q0)
def test_ratq_evaluation_is_a_field_map(x, y, q0):
    ex, ey = _ev(x, q0), _ev(y, q0)
    assert _ev(x + y, q0) == ex + ey
    assert _ev(x * y, q0) == ex * ey
    if ey:
        assert _ev(x / y, q0) == ex / ey
    assert _ev(x.bar(), q0) == _ev(x, 1 / q0)


@_PROPERTY
@given(_laurent, _nonzero, _cofactor)
def test_ratq_bar_is_the_normalized_mirror(a, b, c):
    """bar skips the gcd; it must equal normalizing the mirrored sides."""
    for x in (RatQ(a, b), RatQ(a * c, b), RatQ(a, b * c)):
        z = x.bar()
        want = RatQ(x.num.bar(), x.den.bar())
        assert z.num.c == want.num.c and z.den.c == want.den.c
        assert z.bar().num.c == x.num.c and z.bar().den.c == x.den.c


def _unit_ended(p: LaurentPoly, top: int, low: int) -> LaurentPoly:
    """p with its lowest and highest coefficients set to the units low, top."""
    c = dict(p.c) or {0: 1}
    c[min(c)] = low
    c[max(c)] = top
    return LaurentPoly(c)


# denominators whose lowest and highest coefficients are +-1, so their
# expansions have integer coefficients
_unit_den = st.builds(_unit_ended, _laurent, st.sampled_from([1, -1]), st.sampled_from([1, -1]))


def _window_agrees(series: PowerSeriesTrunc, x: RatQ):
    """series * den == num at every exponent the truncation leaves exact.

    The full expansion S vanishes below its valuation; at e, (S * den)_e
    sums den_j S_{e-j}, so it is exact when each S_{e-j} is either stored
    or known to vanish.
    """
    n = series.order
    val = min(x.num.c) - min(x.den.c)
    prod = {}
    for e, v in series.coeffs.items():
        for j, w in x.den.c.items():
            prod[e + j] = prod.get(e + j, 0) + v * w
    exact = [
        e
        for e in range(-n - 12, n + 13)
        if all(-n <= e - j <= n or e - j < val for j in x.den.c)
    ]
    for e in exact:
        assert prod.get(e, 0) == x.num.c.get(e, 0), (e, series, x)
    return exact


@_PROPERTY
@given(_laurent, _unit_den, st.integers(0, 12))
def test_expand_times_denominator_is_the_numerator(num, den, order):
    x = RatQ(num, den)
    series = expand(x, ASC_Q, order)
    assert series.order == order
    if x.is_zero():
        assert series.coeffs == {}
        return
    exact = _window_agrees(series, x)
    # the leading term is checked whenever every S_{val-j} it sums is stored
    val = min(x.num.c) - min(x.den.c)
    if -order <= val - max(x.den.c) and val - min(x.den.c) <= order:
        assert val in exact
