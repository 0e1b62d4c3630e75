"""Cartan data with involution, iweights, the positive cone, and words.

Encodings:

* ``SatakeDatum`` holds the node list I, the integer matrix a, symmetrizers
  d, the involution tau and the varsigma parameters.  ``validate`` returns a
  list of diagnostics instead of raising; entries beginning with
  ``"warning:"`` do not make the datum unusable.
* ``IWeight`` stores only the coordinates lam_i and the parity bit at
  tau-fixed nodes.  No ambient weight lattice is kept: every formula in this
  package consumes exactly this data.
* A word's content (``word_weight``) is a ``collections.Counter`` of its
  letter multiplicities, an element of the positive cone spanned by the
  alpha_i.
* A ``Word`` is a tuple of node names; a ``DPWord`` is a tuple of
  (node, multiplicity) pairs with positive multiplicities, written on the
  command line as e.g. ``1^(2) 2``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SatakeDatum:
    """A value: equal and hashed by its full content, whose sorted form and
    hash are computed once, at construction (the content is never mutated)."""

    nodes: tuple[str, ...] = field(compare=False)
    a: dict[tuple[str, str], int] = field(compare=False)
    d: dict[str, int] = field(compare=False)
    tau: dict[str, str] = field(compare=False)
    varsigma: dict[str, int] = field(compare=False)
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = (
            self.nodes,
            tuple(sorted(self.a.items())),
            tuple(sorted(self.d.items())),
            tuple(sorted(self.tau.items())),
            tuple(sorted(self.varsigma.items())),
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def qi(self, i: str) -> int:
        """The exponent d_i with q_i = q^{d_i}."""
        return self.d[i]


def make_datum(
    nodes,
    cartan_rows,
    d,
    tau,
    varsigma,
) -> SatakeDatum:
    """Assemble a SatakeDatum from row-major data in node order."""
    nodes = tuple(str(n) for n in nodes)
    a = {}
    for r, i in enumerate(nodes):
        for c, j in enumerate(nodes):
            a[(i, j)] = int(cartan_rows[r][c])
    return SatakeDatum(
        nodes=nodes,
        a=a,
        d={i: int(d[k]) for k, i in enumerate(nodes)},
        tau={str(k): str(v) for k, v in tau.items()},
        varsigma={str(k): int(v) for k, v in varsigma.items()},
    )


def validate(datum: SatakeDatum) -> list[str]:
    """Check every structural constraint; return diagnostics, empty if ok.

    Error-level diagnostics name the violated constraint.  The parity
    compatibility a_{i,j} = a_{j,i} mod 2 between tau-fixed nodes is only a
    warning: no formula computed here depends on it.
    """
    out: list[str] = []
    I = datum.nodes
    for i in I:
        if i not in datum.d or i not in datum.tau or i not in datum.varsigma:
            out.append(f"missing d/tau/varsigma entry for node {i}")
            return out
    for i in I:
        if datum.a[(i, i)] != 2:
            out.append(f"diagonal cartan entry a[{i},{i}] = {datum.a[(i, i)]} != 2")
        if datum.d[i] <= 0:
            out.append(f"symmetrizer d[{i}] = {datum.d[i]} not positive")
        ti = datum.tau[i]
        if ti not in I:
            out.append(f"tau[{i}] = {ti} is not a node")
            return out
        if datum.tau[ti] != i:
            out.append(f"tau is not an involution at {i}")
    for i in I:
        for j in I:
            if i != j and datum.a[(i, j)] > 0:
                out.append(f"off-diagonal a[{i},{j}] = {datum.a[(i, j)]} positive")
            if (datum.a[(i, j)] == 0) != (datum.a[(j, i)] == 0):
                out.append(f"zero pattern of a not symmetric at ({i},{j})")
            if datum.d[i] * datum.a[(i, j)] != datum.d[j] * datum.a[(j, i)]:
                out.append(f"symmetrizability d_i a_ij = d_j a_ji fails at ({i},{j})")
            if datum.a[(datum.tau[i], datum.tau[j])] != datum.a[(i, j)]:
                out.append(f"tau-invariance of a fails at ({i},{j})")
        if datum.d[datum.tau[i]] != datum.d[i]:
            out.append(f"tau-invariance of d fails at {i}")
    for i in I:
        ti = datum.tau[i]
        s, st = datum.varsigma[i], datum.varsigma[ti]
        if s + st != -datum.a[(i, ti)]:
            out.append(
                f"varsigma sum rule violated at {i}: "
                f"{s} + {st} != -a[{i},{ti}] = {-datum.a[(i, ti)]}"
            )
        if i == ti and s != -1:
            out.append(f"varsigma[{i}] must be -1 at the tau-fixed node {i}")
        if i != ti:
            if s < 0:
                out.append(f"varsigma[{i}] negative at non-fixed node {i}")
            if datum.a[(i, ti)] == 0 and s != 0:
                out.append(
                    f"varsigma[{i}] must be 0 when a[{i},{ti}] = 0 and {i} != tau({i})"
                )
    for i in I:
        for j in I:
            if i < j and datum.tau[i] == i and datum.tau[j] == j:
                if (datum.a[(i, j)] - datum.a[(j, i)]) % 2 != 0:
                    out.append(
                        f"warning: a[{i},{j}] and a[{j},{i}] differ mod 2 between "
                        "tau-fixed nodes; 2-category parameters need not exist"
                    )
    return out


@dataclass(frozen=True)
class IWeight:
    """Iweight data: coordinates lam_i plus parity bits at tau-fixed nodes."""

    lam: tuple[tuple[str, int], ...]
    par: tuple[tuple[str, int], ...]

    def lam_of(self, i: str) -> int:
        for k, v in self.lam:
            if k == i:
                return v
        return 0

    def par_of(self, i: str) -> int:
        for k, v in self.par:
            if k == i:
                return v
        raise KeyError(f"no parity stored for node {i}")


def make_iweight(datum: SatakeDatum, lam: dict[str, int], par: dict[str, int] | None = None) -> IWeight:
    """Build an IWeight, filling tau-partners and checking the constraints."""
    par = dict(par or {})
    filled: dict[str, int] = {}
    for i, v in lam.items():
        if i not in datum.nodes:
            raise ValueError(f"unknown node {i} in iweight")
        ti = datum.tau[i]
        if i == ti:
            if v != 0:
                raise ValueError(f"lam[{i}] must be 0 at the tau-fixed node {i}")
            continue
        if i in filled and filled[i] != v:
            raise ValueError(f"conflicting lam values for node {i}")
        filled[i] = int(v)
        if ti in lam and lam[ti] != -v:
            raise ValueError(f"lam[{ti}] must equal -lam[{i}]")
        filled[ti] = -int(v)
    for i in datum.nodes:
        if datum.tau[i] == i:
            if i not in par:
                raise ValueError(f"missing parity for tau-fixed node {i}")
        elif i in par:
            raise ValueError(f"parity given for non-fixed node {i}")
    lam_items = tuple((i, filled[i]) for i in datum.nodes if filled.get(i, 0) != 0)
    par_items = tuple((i, int(par[i]) % 2) for i in datum.nodes if i in par)
    return IWeight(lam=lam_items, par=par_items)


def leq_lambda(datum: SatakeDatum, alpha: Counter, beta: Counter) -> bool:
    """Order test on two word contents: beta - alpha must lie in the cone
    spanned by alpha_i + alpha_{tau i}.

    Closed form: on each 2-element tau-orbit both coordinates of the
    difference agree and are >= 0; at tau-fixed nodes the difference is even
    and >= 0.
    """
    diff = {i: beta[i] - alpha[i] for i in datum.nodes}
    for i in datum.nodes:
        ti = datum.tau[i]
        if diff[i] < 0:
            return False
        if i == ti:
            if diff[i] % 2 != 0:
                return False
        elif diff[i] != diff[ti]:
            return False
    return True


Word = tuple[str, ...]
DPWord = tuple[tuple[str, int], ...]


def word_weight(word: DPWord) -> Counter:
    """The content of a word: its letter multiplicities."""
    m: Counter = Counter()
    for i, n in word:
        m[i] += n
    return m


def apply_word(datum: SatakeDatum, lw: IWeight, word: DPWord) -> IWeight:
    """lambda minus the weight of the word, in one pass over its letters.

    Each letter j^(n) moves lam_i by -n * (a[i, j] - a[i, tau j]) at a node
    i moved by tau, and the parity at a tau-fixed node i by n * a[i, j],
    read mod 2 at the end.
    """
    a, tau = datum.a, datum.tau
    lam = dict(lw.lam)
    par = dict(lw.par)
    for j, n in word:
        tj = tau[j]
        for i in datum.nodes:
            if tau[i] == i:
                par[i] += n * a[(i, j)]
            else:
                lam[i] = lam.get(i, 0) - n * (a[(i, j)] - a[(i, tj)])
    return IWeight(
        lam=tuple((i, lam[i]) for i in datum.nodes if lam.get(i)),
        par=tuple((i, par[i] % 2) for i in datum.nodes if i in par),
    )


def to_word(word: DPWord) -> Word:
    return tuple(i for i, n in word for _ in range(n))


def to_dpword(word: Word) -> DPWord:
    return tuple((i, 1) for i in word)


def parse_dpword(text: str, datum: SatakeDatum) -> DPWord:
    """Parse whitespace-separated letters with optional ^(n) suffixes."""
    out = []
    for tok in text.split():
        if "^" in tok:
            name, _, rest = tok.partition("^")
            rest = rest.strip()
            if not (rest.startswith("(") and rest.endswith(")")):
                raise ValueError(f"malformed divided-power suffix in {tok!r}")
            try:
                mult = int(rest[1:-1])
            except ValueError:
                raise ValueError(f"malformed divided-power suffix in {tok!r}") from None
        else:
            name, mult = tok, 1
        if name not in datum.nodes:
            raise ValueError(f"unknown node {name!r} in word")
        if mult < 1:
            raise ValueError(f"multiplicity must be positive in {tok!r}")
        out.append((name, mult))
    return tuple(out)


def format_dpword(word: DPWord) -> str:
    if not word:
        return "-"
    return " ".join(i if n == 1 else f"{i}^({n})" for i, n in word)


def orbit_reps(datum: SatakeDatum) -> tuple[list[str], list[str]]:
    """(one representative per 2-element tau-orbit, list of fixed nodes).

    The representative of {i, tau(i)} is the smaller name, so it does not
    depend on the order the nodes are listed in.
    """
    two = [i for i in datum.nodes if datum.tau[i] != i and i <= datum.tau[i]]
    fixed = [i for i in datum.nodes if datum.tau[i] == i]
    return two, fixed


def weight_sweep(datum: SatakeDatum, lo: int = -4, hi: int = 4) -> list[IWeight]:
    """Every iweight with orbit coordinates in [lo, hi], both parities at
    fixed nodes."""
    two, fixed = orbit_reps(datum)
    return [
        make_iweight(datum, dict(zip(two, vals)), dict(zip(fixed, pars)))
        for vals in itertools.product(range(lo, hi + 1), repeat=len(two))
        for pars in itertools.product((0, 1), repeat=len(fixed))
    ]
