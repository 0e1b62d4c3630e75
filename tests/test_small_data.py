"""The pure cross-checks on every small datum of symmetric type, not only
the five built-ins: the 30 data of ``small_data.SMALL_DATA``.

Three of them equal a built-in (split_a1, diag_a1a1 and split_a2).  On
those, criteria 01, 02, 03 and 09 of ``selftest`` run the pairing, theta,
relation and graded-dimension checks on more inputs than here, so this file
skips the four there; the degree and associativity checks run on all 30.
It also checks the environment ``small_data.child_env`` gives the tests'
child interpreters."""

import inspect
import os
import random

import iquantum
from iquantum import freealg, iuea, klr, satake, shapes
from iquantum.qring import ASC_Q, expand
from iquantum.selftest import _random_elem as random_elem
from iquantum.selftest import _shuffled as shuffled
from iquantum.selftest import word_pairs
from iquantum.standard import STANDARD
from small_data import SMALL_DATA, canonical, child_env, small_data

BUILTINS = [make() for make in STANDARD.values()]


def test_the_enumeration():
    assert len(SMALL_DATA) == 30
    assert len({canonical(datum) for datum in SMALL_DATA}) == 30
    # every datum up to relabelling, with a double edge in some
    assert {canonical(datum) for datum in small_data(distinct=False)} == {
        canonical(datum) for datum in SMALL_DATA
    }
    assert any(-2 in datum.a.values() for datum in SMALL_DATA)


def _criteria_checks(datum):
    """The checks of criteria 02 and 09 (theta pairing, graded dimension) on
    pairs of total length 4, and of 01 and 03 (both pairing routes, the
    relation) at orbit coordinates -1..1 on pairs of total length 3."""
    # total length 4 is the shortest with two crossing props
    words, pairs = word_pairs(datum, 4)
    thetas = {w: freealg.theta_word(datum, satake.to_dpword(w)) for w in words}
    for top, bottom in pairs:
        where = (datum, top, bottom)
        theta = shapes.pair_theta(datum, top, bottom)
        assert theta == freealg.pair(datum, thetas[top], thetas[bottom]), where
        series = klr.graded_dim(datum, top, bottom, order=12)
        assert series.series.coeffs == expand(theta.bar(), ASC_Q, 12).coeffs, where
    words, pairs = word_pairs(datum, 3)
    for lw in satake.weight_sweep(datum, -1, 1):
        images = {w: iuea.b_word(datum, satake.to_dpword(w), lw) for w in words}
        for top, bottom in pairs:
            got = shapes.pair_b(datum, top, bottom, lw)
            assert got == iuea.ipair(datum, images[top], images[bottom]), (datum, top, bottom, lw)
        for i in datum.nodes:
            for j in datum.nodes:
                if i != j:
                    assert iuea.iserre_check(datum, i, j, lw).equal, (datum, i, j, lw)


def test_cross_checks_on_every_small_datum():
    rng = random.Random(2029)
    for datum in SMALL_DATA:
        if datum not in BUILTINS:
            _criteria_checks(datum)
        _, pairs = word_pairs(datum, 3)
        for lw in satake.weight_sweep(datum, -1, 1):
            for top, bottom in pairs:
                for sh in shapes.enumerate_shapes(datum, top, bottom):
                    where = (datum, sh, lw)
                    assert shapes.degree(datum, sh, lw) == shapes.degree_alt(datum, sh, lw), where
        # the table's default sign convention is the one usable on the datum
        qt = klr.geometric_qtable(datum)
        for _ in range(5):
            wd = tuple(rng.choice(datum.nodes) for _ in range(3))
            wc, wb, wa = shuffled(rng, wd), shuffled(rng, wd), shuffled(rng, wd)
            x, y, z = random_elem(rng, wa, wb), random_elem(rng, wb, wc), random_elem(rng, wc, wd)
            lhs = klr.mul(qt, klr.mul(qt, x, y), z)
            assert lhs == klr.mul(qt, x, klr.mul(qt, y, z)), (datum, x, y, z)


def test_child_env_puts_the_package_and_the_tests_before_the_inherited_path(monkeypatch):
    # a child imports the package this process tests, and the tests' own
    # modules, ahead of anything the inherited path holds
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("IQUANTUM_CHILD_ENV_PROBE", "kept")
    env = child_env()
    src, tests, rest = env["PYTHONPATH"].split(os.pathsep)
    assert os.path.join(src, "iquantum", "__init__.py") == os.path.abspath(iquantum.__file__)
    assert os.path.join(tests, "small_data.py") == os.path.abspath(inspect.getfile(child_env))
    assert rest == "elsewhere" and env["IQUANTUM_CHILD_ENV_PROBE"] == "kept"
    monkeypatch.delenv("PYTHONPATH")
    assert child_env()["PYTHONPATH"] == os.pathsep.join([src, tests])
