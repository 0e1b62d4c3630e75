"""Built-in Satake data: the one source for the self-test harness, the
command line's built-in config names and the docs.

Five small data cover the behaviors that matter at desk scale:

* ``split_a1``: one node, tau = id (rank one, parity-sensitive).
* ``diag_a1a1``: two nodes swapped by tau, no edge (a_{1,2} = 0).
* ``qs_a2``: two nodes swapped by tau, single edge, varsigma = (1, 0).
* ``qs_a3``: three nodes, tau swaps the ends and fixes the middle.
* ``split_a2``: two nodes, tau = id, single edge.

No datum here names a sign convention: ``klr.geometric_qtable`` derives it
from tau (``klr.usable_sign_convention``), "intro" for qs_a3, else "body".
"""

from __future__ import annotations

from .satake import SatakeDatum, make_datum, orbit_reps


def split_a1() -> SatakeDatum:
    return make_datum(["1"], [[2]], [1], {"1": "1"}, {"1": -1})


def diag_a1a1() -> SatakeDatum:
    return make_datum(
        ["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "2", "2": "1"}, {"1": 0, "2": 0}
    )


def qs_a2() -> SatakeDatum:
    return make_datum(
        ["1", "2"], [[2, -1], [-1, 2]], [1, 1], {"1": "2", "2": "1"}, {"1": 1, "2": 0}
    )


def qs_a3() -> SatakeDatum:
    return make_datum(
        ["1", "2", "3"],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [1, 1, 1],
        {"1": "3", "2": "2", "3": "1"},
        {"1": 0, "2": -1, "3": 0},
    )


def split_a2() -> SatakeDatum:
    return make_datum(
        ["1", "2"], [[2, -1], [-1, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
    )


STANDARD = {
    "split_a1": split_a1,
    "diag_a1a1": diag_a1a1,
    "qs_a2": qs_a2,
    "qs_a3": qs_a3,
    "split_a2": split_a2,
}


def builtin_weights(datum: SatakeDatum) -> dict[str, tuple[dict[str, int], dict[str, int]]]:
    """The (lam, parity) of the built-in weights by name: L0 is zero, L1 is
    1 at each orbit representative with odd parities."""
    reps, fixed = orbit_reps(datum)
    return {
        "L0": ({}, {i: 0 for i in fixed}),
        "L1": ({i: 1 for i in reps}, {i: 1 for i in fixed}),
    }

