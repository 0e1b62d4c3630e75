"""No package call leaves cyclic garbage.

Whatever a call builds dies by reference count once its last reference
goes, so the collector has nothing to find after it.  The calls go to the
functions directly, not through ``cli.run``: argparse builds reference
cycles of its own.
"""

import gc

import iquantum
from iquantum import iuea, klr, shapes
from iquantum.satake import make_iweight, to_dpword
from iquantum.standard import qs_a2, split_a1, split_a2


def _one_call_per_layer():
    qs = qs_a2()
    lw = make_iweight(qs, {"1": 1})
    top, bottom = ("1", "2", "1", "2"), ("2", "1", "1", "2")
    for mode in shapes.MODES:
        assert shapes.enumerate_shapes(qs, top, bottom, mode)
    assert not shapes.pair_b(qs, top, bottom, lw).is_zero()
    shapes.pair_b_nabla(qs, top, bottom, lw)
    shapes.hom_rank(qs, top, bottom, lw, order=8)
    shapes.pair_theta(qs, top, bottom)

    xi = iuea.b_word(qs, to_dpword(top), lw)
    eta = iuea.b_word(qs, to_dpword(bottom), lw)
    iuea.ipair(qs, xi, eta)
    assert iuea.iserre_check(qs, "1", "2", lw).equal

    one = klr.geometric_qtable(split_a1())
    klr.mul(one, klr.crossing(("1",) * 3, 1), klr.dot(("1",) * 3, 2))
    two = klr.geometric_qtable(split_a2())
    klr.mul(two, klr.crossing(("1", "2", "1"), 1), klr.crossing(("2", "1", "1"), 1))
    klr.divided_idempotent(one, "1", 3)
    klr.graded_dim(split_a2(), ("1", "2", "1"), ("2", "1", "1"), order=8)
    assert klr.serre_complex_check(two, "1", "2").dd_zero


def test_no_package_call_leaves_cyclic_garbage():
    iquantum.clear_caches()
    gc.collect()
    gc.disable()
    try:
        _one_call_per_layer()
        assert gc.collect() == 0
    finally:
        gc.enable()
