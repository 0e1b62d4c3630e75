"""Recursion images and pairings pinned byte for byte.

``tests/golden/b_word_images.json`` holds, for seeded divided-power words on
the five built-in data at the weights L0, L1 and two seeded sweep weights,
the ``str()`` of the ``jt`` image of ``b_word`` and of its psi (stored under
``j``, the iR image that psi(jt) equals on these elements) and the
``ipair`` value of every ordered pair of those words.  The words include
divided powers, at nodes the involution moves and at nodes it fixes.  The
values were captured from the recursion route that normalized every
coefficient after every action, so they pin the images across rewrites of
``iuea``.  Regenerate them
(``python tests/test_iuea_golden.py --write``) only for an intended change.
"""

import json
import random
import sys
from pathlib import Path

from freealg_reference import psi
from iquantum import iuea
from iquantum.satake import format_dpword
from iquantum.standard import STANDARD
from small_data import golden_weights

GOLDEN = Path(__file__).resolve().parent / "golden" / "b_word_images.json"


def _words(rng, datum, letters):
    """The empty word plus up to seven distinct seeded words of at most
    ``letters`` letters; one letter in three is a divided power 2 or 3."""
    out = [()]
    for _ in range(50):
        word, used = [], 0
        for _ in range(rng.randint(1, letters)):
            i = rng.choice(datum.nodes)
            n = 1 if rng.randrange(3) else rng.choice((2, 3))
            if used + n > letters:
                break
            word.append((i, n))
            used += n
        if tuple(word) not in out:
            out.append(tuple(word))
        if len(out) == 8:
            break
    return out


def _capture():
    images, pairings = {}, {}
    for name, make in STANDARD.items():
        datum = make()
        rng = random.Random(f"b-word-golden:{name}")
        words = _words(rng, datum, 4 if name == "qs_a3" else 5)
        for label, lw in golden_weights(rng, datum).items():
            xs = {w: iuea.b_word(datum, w, lw) for w in words}
            for w, xi in xs.items():
                key = f"{name} {label} {lw} [{format_dpword(w)}]"
                images[key] = {"jt": str(xi.jt), "j": str(psi(xi.jt))}
            for wx in words:
                for wy in words:
                    key = f"{name} {label} [{format_dpword(wx)}] | [{format_dpword(wy)}]"
                    pairings[key] = str(iuea.ipair(datum, xs[wx], xs[wy]))
    return {"images": images, "pairings": pairings}


def test_b_word_images_and_pairings_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _capture()
    assert len(got["images"]) >= 140 and len(got["pairings"]) >= 1100
    assert got == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_iuea_golden.py --write")
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
