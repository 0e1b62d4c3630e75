"""The test inputs that more than one test file reads, each written once:
every small valid datum of symmetric type (``SMALL_DATA``), three named
data off the built-ins, the weights at which the golden files pin each
built-in datum, the seeded word pairs with at least one matching, and the
environment of the tests' child interpreters."""

import itertools
import os

import iquantum
from iquantum.satake import make_datum, make_iweight, validate, weight_sweep
from iquantum.standard import builtin_weights


# Two fixed nodes named like split_a2's, with no edge: the shortest Serre
# complex (m = 1).
FIXED_A1A1 = make_datum(
    ["1", "2"], [[2, 0], [0, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
)
# Two fixed nodes joined by a double edge: a Serre complex with m = 3.
DOUBLE_EDGE = make_datum(
    ["1", "2"], [[2, -2], [-2, 2]], [1, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
)
# Two fixed nodes with d = 2, 1 (type B2): strands of two d-values, and a
# Cartan matrix whose parity check only warns.
MIXED_D = make_datum(
    ["1", "2"], [[2, -1], [-2, 2]], [2, 1], {"1": "1", "2": "2"}, {"1": -1, "2": -1}
)


def child_env():
    """The environment of a child interpreter: it imports the package from
    where this process did, and the tests' own modules beside it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(iquantum.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def weight(datum, lam=None, par=None):
    return make_iweight(datum, lam or {}, par)


def golden_weights(rng, datum):
    """The built-in weights L0, L1 of a datum and two weights drawn by rng
    from its sweep, as ``tests/test_shapes_golden.py`` and
    ``tests/test_iuea_golden.py`` pin them."""
    sweep = weight_sweep(datum)
    return {
        **{name: weight(datum, *lp) for name, lp in builtin_weights(datum).items()},
        "sweep a": rng.choice(sweep),
        "sweep b": rng.choice(sweep),
    }


def strand_pair(rng, datum, strands):
    """Two shuffled words built from seeded strands, a prop (i over i), a cup
    (i, tau i on top) or a cap (i, tau i below): at least one matching."""
    top, bottom = [], []
    for _ in range(strands):
        i = rng.choice(datum.nodes)
        kind = rng.choice(("prop", "cup", "cap"))
        if kind == "prop":
            top.append(i)
            bottom.append(i)
        else:
            (top if kind == "cup" else bottom).extend((i, datum.tau[i]))
    rng.shuffle(top)
    rng.shuffle(bottom)
    return tuple(top), tuple(bottom)


def canonical(datum):
    """The least (cartan, tau, d, varsigma) over the orders of the nodes,
    with tau as positions in that order: two data get the same key exactly
    when they are equal up to relabelling the nodes."""
    keys = []
    for order in itertools.permutations(datum.nodes):
        pos = {i: k for k, i in enumerate(order)}
        keys.append((
            tuple(tuple(datum.a[(i, j)] for j in order) for i in order),
            tuple(pos[datum.tau[i]] for i in order),
            tuple(datum.d[i] for i in order),
            tuple(datum.varsigma[i] for i in order),
        ))
    return min(keys)


def small_data(entries=(0, -1, -2), distinct=True):
    """Every valid datum with d = 1 on one to three nodes whose Cartan
    entries a_ij = a_ji off the diagonal lie in ``entries``: each involution
    tau of the diagram and each valid varsigma.  A valid varsigma is -1 at a
    fixed node and nonnegative elsewhere, where varsigma_i +
    varsigma_tau(i) = -a_{i,tau(i)}, so its entries lie in -1..max(-a_ij).
    With ``distinct`` only the first datum of each class up to relabelling
    the nodes is kept."""
    top = max(-a for a in entries)
    seen = set()
    for n in (1, 2, 3):
        nodes = [str(k + 1) for k in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        for edges in itertools.product(entries, repeat=len(pairs)):
            cartan = [[2 if r == c else 0 for c in range(n)] for r in range(n)]
            for (r, c), a in zip(pairs, edges):
                cartan[r][c] = cartan[c][r] = a
            for perm in itertools.permutations(range(n)):
                if any(perm[perm[k]] != k for k in range(n)):
                    continue
                tau = {nodes[k]: nodes[perm[k]] for k in range(n)}
                for signs in itertools.product(range(-1, top + 1), repeat=n):
                    datum = make_datum(nodes, cartan, [1] * n, tau, dict(zip(nodes, signs)))
                    if [m for m in validate(datum) if not m.startswith("warning:")]:
                        continue
                    key = canonical(datum) if distinct else datum
                    if key in seen:
                        continue
                    seen.add(key)
                    yield datum


# d = 1, a_ij in {0, -1, -2}, at most 3 nodes, up to relabelling: it holds
# each of the five built-in data under some relabelling.
SMALL_DATA = tuple(small_data())
