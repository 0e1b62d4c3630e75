"""Cross-check harness.

Every check the package promises is implemented here as a function returning
(ok, detail).  The detail strings carry deterministic counts, never timings,
so a passing report is byte-identical across runs.  ``checks`` runs them in
order for the ``selftest`` subcommand, which prints one line per check;
tests/test_contract.py replays ``selftest`` and ``selftest --json`` against
their recorded output and bounds the replays' wall time.  That replay is each
criterion's one check in the test suite: no unit test runs a criterion's
check on a subset of its inputs.
Wall seconds per check, and the garbage collections that ran inside it with
their seconds, are available on request, on a separate channel
(``checks(timing)``, ``selftest --timings``).

All comparisons are exact: RatQ equality is structural equality of canonical
forms, never numeric tolerance.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

from . import freealg, iuea, klr
from .freealg import FElem
from .qring import ASC_Q, LaurentPoly, RatQ, expand, qbinom, qint
from .satake import leq_lambda, make_iweight, to_dpword, weight_sweep, word_weight
from .shapes import (
    degree,
    degree_alt,
    end_grdim,
    enumerate_shapes,
    hom_rank,
    pair_b,
    pair_b_nabla,
    pair_theta,
)
from .standard import STANDARD


def word_pairs(datum, total: int):
    """All words of length <= total and all pairs of combined length <= total."""
    words = [
        w for n in range(total + 1) for w in itertools.product(datum.nodes, repeat=n)
    ]
    pairs = [(a, b) for a in words for b in words if len(a) + len(b) <= total]
    return words, pairs


def _budget(name: str) -> int:
    # the rank-3 datum gets a smaller combined length so the sweep stays fast
    return 4 if name == "qs_a3" else 5


def _data():
    return [(name, make()) for name, make in STANDARD.items()]


def _fmt(word) -> str:
    return " ".join(word) if word else "(empty)"


def pairing_both_routes():
    """Shape-sum pairing against the recursive-isometry pairing."""
    checks = 0
    for name, datum in _data():
        words, pairs = word_pairs(datum, _budget(name))
        for lw in weight_sweep(datum):
            images = {w: iuea.b_word(datum, to_dpword(w), lw) for w in words}
            for top, bottom in pairs:
                lhs = pair_b(datum, top, bottom, lw)
                rhs = iuea.ipair(datum, images[top], images[bottom])
                if lhs != rhs:
                    return False, (
                        f"mismatch on {name} for {_fmt(top)} | {_fmt(bottom)} at {lw}"
                    )
                checks += 1
    return True, f"{checks} word pairs agree on both routes"


def theta_pairing_matches():
    """Crossing-degree pairing against the free-algebra bilinear form."""
    checks = 0
    for name, datum in _data():
        words, pairs = word_pairs(datum, 5)
        cache = {w: freealg.theta_word(datum, to_dpword(w)) for w in words}
        for top, bottom in pairs:
            if pair_theta(datum, top, bottom) != freealg.pair(
                datum, cache[top], cache[bottom]
            ):
                return False, f"mismatch on {name} for {_fmt(top)} | {_fmt(bottom)}"
            checks += 1
    return True, f"{checks} word pairs agree"


def iserre_sweep():
    """The straightening relation holds at every weight on every datum, and
    the two rank-one scalar specializations come out exactly."""
    checks = 0
    for name, datum in _data():
        for lw in weight_sweep(datum):
            for i in datum.nodes:
                for j in datum.nodes:
                    if i == j:
                        continue
                    if not iuea.iserre_check(datum, i, j, lw).equal:
                        return False, f"relation fails on {name} ({i},{j}) at {lw}"
                    checks += 1
    datum = STANDARD["diag_a1a1"]()
    for lw in weight_sweep(datum):
        lam = lw.lam_of("1")
        res = iuea.iserre_check(datum, "1", "2", lw)
        want = FElem.one().scale(RatQ(qint(lam, datum.qi("1"))))
        if res.rhs.jt != want:
            return False, f"commutator scalar differs at lam={lam}"
        checks += 1
    datum = STANDARD["qs_a2"]()
    d = datum.qi("1")
    for lw in weight_sweep(datum):
        lam = lw.lam_of("1")
        vs = datum.varsigma["1"]
        res = iuea.iserre_check(datum, "1", "2", lw)
        c = -(RatQ.q_power(d * (lam - vs - 1)) + RatQ.q_power(d * (1 + vs - lam)))
        if res.rhs.jt != FElem.theta("1").scale(c):
            return False, f"two-term scalar differs at lam={lam}"
        checks += 1
    return True, f"{checks} relation checks"


def coefficient_formulas():
    """Straightening coefficients: closed form vs slid-strand sum, the
    product form of the alternating sum, and the signed binomial identity."""
    checks = 0
    for name in ("diag_a1a1", "qs_a2", "qs_a3"):
        datum = STANDARD[name]()
        for lw in weight_sweep(datum):
            for i in datum.nodes:
                if datum.tau[i] == i:
                    continue
                for m in range(1, 5):
                    for n in range(m + 1):
                        if iuea.f_coeff(datum, n, m, i, lw) != iuea.f_coeff_oracle(
                            datum, n, m, i, lw
                        ):
                            return False, (
                                f"coefficient differs on {name} i={i} n={n} m={m}"
                            )
                        checks += 1
                if iuea.bkl_sum(datum, i, lw) != iuea.bkl_product_form(datum, i, lw):
                    return False, f"alternating sum differs on {name} i={i}"
                checks += 1
    for m in range(1, 9):
        prod = LaurentPoly.one()
        for r in range(1, m):
            prod = prod * LaurentPoly({r: 1, -r: -1})
        c2 = m * (m - 1) // 2
        mid = LaurentPoly.zero()
        alt = LaurentPoly.zero()
        for n in range(m):
            sign = -1 if n % 2 else 1
            mid = mid + qbinom(m - 1, n, 1).shifted(c2 - n * m) * sign
            alt = alt + qbinom(m - 1, n, 1).shifted(n * m - c2) * sign
        if m % 2 == 0:
            alt = -alt
        if prod != mid or prod != alt:
            return False, f"signed binomial identity fails at m={m}"
        checks += 1
    return True, f"{checks} coefficient identities"


def divided_power_table():
    """Rank-one divided powers: expansion words drop by steps of two and the
    coefficients are q^(m(2m-1)) or q^(m(2m+1)) over (1-q^4)...(1-q^(4m))."""
    datum = STANDARD["split_a1"]()
    d = datum.qi("1")
    checks = 0
    for p in (0, 1):
        lw = make_iweight(datum, {"1": 0}, {"1": p})
        for n in range(7):
            xi = iuea.b_word(datum, (("1", n),) if n else (), lw)
            support = set(xi.jt.terms)
            allowed = {("1",) * (n - 2 * m) for m in range(n // 2 + 1)}
            if not support <= allowed:
                return False, f"unexpected word in the n={n} expansion"
            for m in range(n // 2 + 1):
                word = (("1", n - 2 * m),) if n - 2 * m else ()
                got = iuea.jt_delta_coeff(datum, xi, word)
                e = m * (2 * m - 1) if (n - p) % 2 == 0 else m * (2 * m + 1)
                den = LaurentPoly.one()
                for k in range(1, m + 1):
                    den = den * LaurentPoly({0: 1, 4 * d * k: -1})
                if got != RatQ(LaurentPoly.q_power(d * e), den):
                    return False, f"coefficient differs at n={n} m={m} parity={p}"
                checks += 1
    return True, f"{checks} expansion coefficients"


def capfree_triangularity():
    """A nonzero cap-free pairing forces the bottom content below the top."""
    checks = 0
    nonzero = 0
    for name, datum in _data():
        _, pairs = word_pairs(datum, _budget(name))
        for lw in weight_sweep(datum):
            for top, bottom in pairs:
                val = pair_b_nabla(datum, top, bottom, lw)
                checks += 1
                if val.is_zero():
                    continue
                nonzero += 1
                if not leq_lambda(
                    datum, word_weight(to_dpword(bottom)), word_weight(to_dpword(top))
                ):
                    return False, (
                        f"order violated on {name} for {_fmt(top)} | {_fmt(bottom)}"
                    )
    return True, f"{checks} pairings, {nonzero} nonzero, no violations"


def graded_ranks():
    """hom_rank builds (so its coefficients are nonnegative integers) and
    matches the bar of the pairing; the empty-word endomorphism series of
    the split rank-one datum counts partitions into odd parts."""
    checks = 0
    for name, datum in _data():
        _, pairs = word_pairs(datum, _budget(name))
        for lw in weight_sweep(datum):
            for top, bottom in pairs:
                series = hom_rank(datum, top, bottom, lw, order=20)
                flipped = expand(pair_b(datum, top, bottom, lw).bar(), ASC_Q, 20)
                if series.series.coeffs != flipped.coeffs:
                    return False, (
                        f"rank series differs on {name} for {_fmt(top)} | {_fmt(bottom)}"
                    )
                checks += 1
    want = {0: 1, 2: 1, 4: 1, 6: 2, 8: 2, 10: 3}
    series = end_grdim(STANDARD["split_a1"](), order=10)
    for k in range(11):
        if series.coeff(k) != want.get(k, 0):
            return False, f"endomorphism series differs at q^{k}"
    checks += 1
    return True, f"{checks} rank series verified"


def degree_well_defined():
    """Two independently ordered realizations give every shape one degree."""
    checks = 0
    for name, datum in _data():
        rng = random.Random(f"degree:{name}")
        sweeps = weight_sweep(datum)
        made = 0
        while made < 500:
            lt = rng.randrange(4)
            lb = rng.randrange(4)
            if (lt + lb) % 2:
                lb += 1
            top = tuple(rng.choice(datum.nodes) for _ in range(lt))
            bottom = tuple(rng.choice(datum.nodes) for _ in range(lb))
            found = enumerate_shapes(datum, top, bottom, "all")
            if not found:
                continue
            sh = rng.choice(found)
            lw = rng.choice(sweeps)
            if degree(datum, sh, lw) != degree_alt(datum, sh, lw):
                return False, f"degree differs on {name} for {sh}"
            made += 1
            checks += 1
    return True, f"{checks} randomized shapes"


def _tables():
    """The geometric Q-table of every built-in datum, in registry order."""
    return {name: klr.geometric_qtable(make()) for name, make in STANDARD.items()}


def _random_perm(rng, top, bottom):
    slots = {}
    for t, c in enumerate(top):
        slots.setdefault(c, []).append(t)
    for v in slots.values():
        rng.shuffle(v)
    taken = {c: iter(v) for c, v in slots.items()}
    return tuple(next(taken[c]) for c in bottom)


def _random_elem(rng, top, bottom, nterms=2):
    terms = {}
    for _ in range(nterms):
        b = klr.KLRBasisElem(
            tuple(top),
            tuple(bottom),
            _random_perm(rng, top, bottom),
            tuple(rng.randrange(3) for _ in bottom),
        )
        terms[b] = terms.get(b, 0) + rng.choice([-2, -1, 1, 2])
    return klr.KLRElem(tuple(top), tuple(bottom), terms)


def _shuffled(rng, w):
    out = list(w)
    rng.shuffle(out)
    return tuple(out)


def operator_algebra():
    """Graded dimensions against the flipped pairing series, associativity
    on random products, divided idempotents, and relation instances."""
    checks = 0
    for name, datum in _data():
        _, pairs = word_pairs(datum, 4)
        for top, bottom in pairs:
            series = klr.graded_dim(datum, top, bottom, order=20)
            flipped = expand(pair_theta(datum, top, bottom).bar(), ASC_Q, 20)
            if series.series.coeffs != flipped.coeffs:
                return False, (
                    f"graded dimension differs on {name} "
                    f"for {_fmt(top)} | {_fmt(bottom)}"
                )
            checks += 1
    tables = _tables()
    rng = random.Random("associativity")
    for qt in tables.values():
        nodes = qt.datum.nodes
        for _ in range(40):
            wd = tuple(rng.choice(nodes) for _ in range(3))
            wc = _shuffled(rng, wd)
            wb = _shuffled(rng, wd)
            wa = _shuffled(rng, wd)
            x = _random_elem(rng, wa, wb)
            y = _random_elem(rng, wb, wc)
            z = _random_elem(rng, wc, wd)
            lhs = klr.mul(qt, klr.mul(qt, x, y), z)
            rhs = klr.mul(qt, x, klr.mul(qt, y, z))
            if lhs != rhs:
                return False, f"associativity fails over nodes {qt.datum.nodes}"
            checks += 1
    nil = tables["split_a1"]
    for n in range(1, 5):
        big = klr.divided_idempotent(nil, "1", n)
        if klr.mul(nil, big, big) != big:
            return False, f"divided idempotent not idempotent at n={n}"
        checks += 1
    w = ("1", "1")
    psi = klr.crossing(w, 1)
    slides = (
        klr.mul(nil, psi, klr.dot(w, 1)) - klr.mul(nil, klr.dot(w, 2), psi),
        klr.mul(nil, klr.dot(w, 1), psi) - klr.mul(nil, psi, klr.dot(w, 2)),
    )
    if slides[0] != klr.e(w) or slides[1] != klr.e(w):
        return False, "equal-color dot slide differs from the identity correction"
    if not klr.mul(nil, psi, psi).is_zero():
        return False, "equal-color double crossing is not zero"
    checks += 3
    mixed = tables["qs_a2"]
    w = ("1", "2")
    if klr.mul(mixed, klr.crossing(w, 1), klr.dot(w, 1)) != klr.mul(
        mixed, klr.dot(("2", "1"), 2), klr.crossing(w, 1)
    ):
        return False, "mixed-color dot slide fails"
    sq = klr.mul(mixed, klr.crossing(("2", "1"), 1), klr.crossing(w, 1))
    if sq != klr.diagram(w, w, (0, 1), (1, 0)) - klr.diagram(w, w, (0, 1), (0, 1)):
        return False, "mixed-color double crossing differs from the table value"
    checks += 2
    return True, f"{checks} operator identities"


def _serre_jobs(tables):
    """(table name, i, j) of each Serre complex checked: both ordered pairs
    on split_a2, and each ordered pair of qs_a3 nodes that tau does not
    swap."""
    jobs = [("split_a2", "1", "2"), ("split_a2", "2", "1")]
    datum3 = tables["qs_a3"].datum
    for i in datum3.nodes:
        for j in datum3.nodes:
            if i != j and datum3.tau[j] != i:
                jobs.append(("qs_a3", i, j))
    return jobs


def serre_complexes():
    """The alternating-word complexes compose to zero and split."""
    tables = _tables()
    checks = 0
    for name, i, j in _serre_jobs(tables):
        rep = klr.serre_complex_check(tables[name], i, j)
        # a report of the complex of length 1 - a_ij holds all of its checks:
        # m - 1 squares and m + 1 splittings, whatever its own ok says
        m = 1 - tables[name].datum.a[(i, j)]
        if not rep.ok or rep.m != m or len(rep.details) != 2 * m:
            bad = "; ".join(s for s in rep.details if s.endswith("FAIL")) or (
                f"{len(rep.details)} checks for m = {rep.m}"
            )
            return False, f"complex fails on {name} ({i},{j}): {bad}"
        checks += 1
    return True, f"{checks} complexes square to zero and split"


CRITERIA = (
    ("pairing agrees along shape and recursion routes", pairing_both_routes),
    ("theta pairing matches the free-algebra form", theta_pairing_matches),
    ("straightening relation holds across the sweep", iserre_sweep),
    ("straightening coefficients match their closed forms", coefficient_formulas),
    ("rank-one divided powers expand as stated", divided_power_table),
    ("cap-free pairing is triangular", capfree_triangularity),
    ("hom ranks are nonnegative and match the pairing", graded_ranks),
    ("shape degree is realization independent", degree_well_defined),
    ("operator algebra relations and dimensions hold", operator_algebra),
    ("serre complexes square to zero and split", serre_complexes),
)


class _CollectorClock:
    """Counts garbage collections and their wall seconds while it sits in
    ``gc.callbacks``; a profiler never shows the collector's time."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.count += 1
            self.seconds += time.perf_counter() - self._start


def checks(timing=None):
    """Run every check in order, yielding (title, ok, detail).

    A check that raises ArithmeticError or ValueError yields ok False with
    the exception's type and text as its detail.  ``timing``, if given,
    receives one line per check with its wall seconds and the number and
    seconds of the garbage collections run inside it (``selftest
    --timings`` writes them to stderr); the seconds never enter a detail
    string.
    """
    clock = _CollectorClock()
    if timing is not None:
        gc.callbacks.append(clock)
    try:
        for k, (title, fn) in enumerate(CRITERIA, start=1):
            t0, runs, spent = time.perf_counter(), clock.count, clock.seconds
            try:
                ok, detail = fn()
            except (ArithmeticError, ValueError) as exc:
                # a rejected series or normal form fails this check, and
                # the later checks still run
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            if timing is not None:
                timing(
                    f"[{k:2d}/{len(CRITERIA)}] {time.perf_counter() - t0:.2f} s  {title}"
                    f"  (gc: {clock.count - runs} in {clock.seconds - spent:.2f} s)"
                )
            yield title, ok, detail
    finally:
        if timing is not None:
            gc.callbacks.remove(clock)
