"""Shape degrees and the shape-route values pinned byte for byte.

``tests/golden/shape_degrees.json`` holds, for seeded word pairs on the five
built-in data at the weights L0, L1 and two seeded sweep weights, the
``degree`` and ``degree_alt`` of every matching, the ``str()`` of
``pair_b`` and of ``hom_rank``, and, once per pair, the ``str()`` of
``pair_theta``.  The values were captured from the route that read each
annihilation weight through ``satake.apply_word`` and bubble-sorted the
crossings, so they pin the degrees across rewrites of ``shapes``.
Regenerate them (``python tests/test_shapes_golden.py --write``) only for an
intended change.
"""

import json
import random
import sys
from pathlib import Path

from iquantum import shapes
from iquantum.standard import STANDARD
from small_data import golden_weights, strand_pair

GOLDEN = Path(__file__).resolve().parent / "golden" / "shape_degrees.json"


def _arcs(arcs) -> str:
    return " ".join(f"{p}:{q}" for p, q in arcs) or "-"


def _pairs(rng, datum):
    """Eight distinct seeded pairs of one to four strands each
    (``small_data.strand_pair``), both words of at most five letters."""
    out = []
    while len(out) < 8:
        pair = strand_pair(rng, datum, rng.randint(1, 4))
        if max(map(len, pair)) <= 5 and pair not in out:
            out.append(pair)
    return out


def _capture():
    values, thetas = {}, {}
    for name, make in STANDARD.items():
        datum = make()
        rng = random.Random(f"shape-golden:{name}")
        pairs = _pairs(rng, datum)
        for label, lw in golden_weights(rng, datum).items():
            for top, bottom in pairs:
                pair = f"[{' '.join(top)}] | [{' '.join(bottom)}]"
                degrees = [
                    f"{_arcs(sh.cups)} / {_arcs(sh.caps)} / {_arcs(sh.props)}: "
                    f"{shapes.degree(datum, sh, lw)} {shapes.degree_alt(datum, sh, lw)}"
                    for sh in shapes.enumerate_shapes(datum, top, bottom)
                ]
                values[f"{name} {label} {lw} {pair}"] = {
                    "degrees": degrees,
                    "pair_b": str(shapes.pair_b(datum, top, bottom, lw)),
                    "hom_rank": str(shapes.hom_rank(datum, top, bottom, lw, order=12)),
                }
                thetas[f"{name} {pair}"] = str(shapes.pair_theta(datum, top, bottom))
    return {"values": values, "pair_theta": thetas}


def test_shape_degrees_and_values_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _capture()
    assert len(got["values"]) == 160
    assert sum(len(v["degrees"]) for v in got["values"].values()) >= 1900
    assert got == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_shapes_golden.py --write")
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
