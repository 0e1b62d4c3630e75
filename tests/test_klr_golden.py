"""KLR normal forms pinned byte for byte.

``tests/golden/klr_normal_forms.json`` holds the ``str()`` of seeded
products on the five built-in Q-tables: associativity triples, divided
idempotents and the relation instances of the operator-algebra self-test.
It pins no check the self-test makes: criterion 09 squares the divided
idempotents of split_a1 and ``tests/test_klr.py`` those of qs_a2, and the
self-test's six Serre complexes are checked by criterion 10 alone.
The values were captured from the sympy fraction-field engine, so they pin
the normal form across rewrites of the product engine.  Regenerate them
(``python tests/test_klr_golden.py --write``) only for an intended change.
"""

import json
import random
import sys
from pathlib import Path

from iquantum import klr
from iquantum.selftest import _random_elem, _shuffled, _tables

GOLDEN = Path(__file__).resolve().parent / "golden" / "klr_normal_forms.json"


def _products():
    tables = _tables()
    out = {}
    rng = random.Random("klr-golden")
    for name, qt in tables.items():
        nodes = qt.datum.nodes
        for k in range(8):
            wd = tuple(rng.choice(nodes) for _ in range(3))
            wc = _shuffled(rng, wd)
            wb = _shuffled(rng, wd)
            wa = _shuffled(rng, wd)
            x = _random_elem(rng, wa, wb)
            y = _random_elem(rng, wb, wc)
            z = _random_elem(rng, wc, wd)
            out[f"{name} triple {k}"] = str(klr.mul(qt, klr.mul(qt, x, y), z))
    for name, ns in (("split_a1", range(1, 5)), ("qs_a2", range(1, 4))):
        qt = tables[name]
        for n in ns:
            out[f"{name} idempotent {n}"] = str(klr.divided_idempotent(qt, "1", n))
    nil = tables["split_a1"]
    w = ("1", "1")
    psi = klr.crossing(w, 1)
    out["split_a1 psi x1"] = str(klr.mul(nil, psi, klr.dot(w, 1)))
    out["split_a1 x2 psi"] = str(klr.mul(nil, klr.dot(w, 2), psi))
    out["split_a1 x1 psi"] = str(klr.mul(nil, klr.dot(w, 1), psi))
    out["split_a1 psi x2"] = str(klr.mul(nil, psi, klr.dot(w, 2)))
    out["split_a1 psi psi"] = str(klr.mul(nil, psi, psi))
    for name in ("qs_a2", "split_a2", "diag_a1a1"):
        qt = tables[name]
        w = ("1", "2")
        out[f"{name} psi x1"] = str(klr.mul(qt, klr.crossing(w, 1), klr.dot(w, 1)))
        out[f"{name} x2 psi"] = str(klr.mul(qt, klr.dot(("2", "1"), 2), klr.crossing(w, 1)))
        out[f"{name} psi psi"] = str(klr.mul(qt, klr.crossing(("2", "1"), 1), klr.crossing(w, 1)))
    for name, w in (("split_a2", ("1", "2", "1")), ("qs_a2", ("1", "2", "1")), ("qs_a3", ("1", "2", "3"))):
        qt = tables[name]
        for first in (1, 2):
            a = klr.crossing(w, first)
            b = klr.crossing(a.top, 3 - first)
            c = klr.crossing(b.top, first)
            out[f"{name} braid {first}"] = str(klr.mul(qt, c, klr.mul(qt, b, a)))
    return out


def _capture():
    return {"products": _products()}


def test_klr_normal_forms_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _capture()
    assert len(got["products"]) >= 60
    assert got == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_klr_golden.py --write")
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
