"""Seeded inputs and item runners for the four benchmark workloads.

Every input is built here from public constructors (``standard.STANDARD``,
``satake.make_iweight``, ``klr.KLRElem``/``KLRBasisElem``), never from the
self-test's private helpers, so deduplicating those cannot shift the inputs.
A workload's items come from ``random.Random(f"{name}:{seed}")`` in rounds:
each round visits every datum (or table, or subcommand) once in a seeded
order, so two seeds differ in which words, weights and elements they draw
but not in the mix of data.  A run does whole rounds, as many as fit
``--seconds`` at the workload's typical round time, so the same seed and
``--seconds`` always give the same items.  Runners call the package through module
attributes (``shapes.degree``, never a local alias) so the tracer's wrappers
see every call.

A runner appends the canonical text of what it computed to ``out`` and
returns whether its two routes agreed by exact structural equality.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from iquantum import cli, freealg, iuea, klr, qring, shapes
from iquantum.satake import (
    IWeight,
    SatakeDatum,
    leq_lambda,
    make_iweight,
    to_dpword,
    word_weight,
)
from iquantum.standard import STANDARD

# Length budget of the pairing blocks, as in the self-test's criterion 01.
PAIR_BUDGET = {"qs_a3": 4}
PAIR_BUDGET_DEFAULT = 5
# Letters of both words of a shape_series pair.  The number of shapes
# depends only on the two contents, so fixing them per datum gives every
# item 630 to 945 shapes and about the same cost; left to the seed, the
# count ranged from 18 to 10395 and the median item swung between runs.
SHAPE_CONTENT = {
    "split_a1": "11111",
    "diag_a1a1": "111222",
    "qs_a2": "111222",
    "qs_a3": "1132222",
    "split_a2": "111112",
}
SERIES_ORDER = 20
SIGN_CONVENTION = {"qs_a3": "intro"}
SERRE_JOBS = (
    ("split_a2", "1", "2"),
    ("split_a2", "2", "1"),
    ("qs_a3", "1", "2"),
    ("qs_a3", "2", "1"),
    ("qs_a3", "2", "3"),
    ("qs_a3", "3", "2"),
)
CLI_COMMANDS = ("pair", "iserre", "bkl", "grdim", "shapes", "klr")
CLI_TIMEOUT_S = 60


@dataclass
class Context:
    """Data, iweights and Q-tables shared by the items of one run."""

    root: Path
    data: dict[str, SatakeDatum]
    sweeps: dict[str, list[IWeight]]
    tables: dict[str, klr.QTable]
    words: dict[str, list[tuple[str, ...]]]
    pairs: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]]
    # Set by a traced cli_cold pass: children run cli_child.py and append
    # their layer totals here.
    trace_children: bool = False
    child_stats: list[dict] = field(default_factory=list)


@dataclass
class Item:
    kind: str
    datum: str
    args: tuple
    stdout: bytes | None = None

    def describe(self) -> str:
        return f"{self.kind} {self.datum} {self.args!r}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random, Context], Iterator[Item]]
    run: Callable[[Context, Item, list], bool]
    # items per round (every datum, table or subcommand once) and the
    # round's typical wall time on the machine in machine.json
    round_len: int
    round_s: float
    runs_in_children: bool = False
    finish: Callable[[Context, list[Item], list[bool]], None] | None = None


def weight_sweep(datum: SatakeDatum, lo: int = -4, hi: int = 4) -> list[IWeight]:
    """Every iweight with orbit coordinates in lo..hi, both parities at
    tau-fixed nodes."""
    reps = [i for i in datum.nodes if datum.tau[i] != i and i <= datum.tau[i]]
    fixed = [i for i in datum.nodes if datum.tau[i] == i]
    out = []
    for vals in itertools.product(range(lo, hi + 1), repeat=len(reps)):
        for pars in itertools.product((0, 1), repeat=len(fixed)):
            out.append(make_iweight(datum, dict(zip(reps, vals)), dict(zip(fixed, pars))))
    return out


def build_context(root: Path) -> Context:
    data = {name: make() for name, make in STANDARD.items()}
    words, pairs = {}, {}
    for name, d in data.items():
        budget = PAIR_BUDGET.get(name, PAIR_BUDGET_DEFAULT)
        ws = [w for n in range(budget + 1) for w in itertools.product(d.nodes, repeat=n)]
        words[name] = ws
        pairs[name] = [(a, b) for a in ws for b in ws if len(a) + len(b) <= budget]
    return Context(
        root=root,
        data=data,
        sweeps={name: weight_sweep(d) for name, d in data.items()},
        tables={
            name: klr.geometric_qtable(d, sign_convention=SIGN_CONVENTION.get(name, "body"))
            for name, d in data.items()
        },
        words=words,
        pairs=pairs,
    )


def _shuffled(rng: random.Random, seq) -> list:
    out = list(seq)
    rng.shuffle(out)
    return out


# -- pairing_sweep ----------------------------------------------------------


def _gen_pairing(rng: random.Random, ctx: Context) -> Iterator[Item]:
    multi = [n for n, d in ctx.data.items() if len(d.nodes) > 1]
    while True:
        for name in _shuffled(rng, ctx.data):
            yield Item("block", name, (rng.choice(ctx.sweeps[name]),))
        name = rng.choice(multi)
        yield Item("iserre", name, (rng.choice(ctx.sweeps[name]),))


def _run_pairing(ctx: Context, item: Item, out: list) -> bool:
    d = ctx.data[item.datum]
    (lw,) = item.args
    ok = True
    if item.kind == "block":
        images = {w: iuea.b_word(d, to_dpword(w), lw) for w in ctx.words[item.datum]}
        for top, bottom in ctx.pairs[item.datum]:
            lhs = shapes.pair_b(d, top, bottom, lw)
            rhs = iuea.ipair(d, images[top], images[bottom])
            ok = ok and lhs == rhs
            out.append(str(rhs))
        return ok
    for i in d.nodes:
        for j in d.nodes:
            if i != j:
                res = iuea.iserre_check(d, i, j, lw)
                ok = ok and res.equal
                out.append(f"{res.lhs.jt}|{res.rhs.jt}")
    return ok


# -- shape_series -----------------------------------------------------------


def _gen_shapes(rng: random.Random, ctx: Context) -> Iterator[Item]:
    """Top and bottom are two seeded shuffles of the datum's content.  The
    content holds involution partners, so every pair has cups, caps and
    crossings."""
    while True:
        for name in _shuffled(rng, ctx.data):
            content = SHAPE_CONTENT[name]
            top = tuple(_shuffled(rng, content))
            bottom = tuple(_shuffled(rng, content))
            yield Item("pair", name, (top, bottom, rng.choice(ctx.sweeps[name])))


def _run_shapes(ctx: Context, item: Item, out: list) -> bool:
    d = ctx.data[item.datum]
    top, bottom, lw = item.args
    series = shapes.hom_rank(d, top, bottom, lw, SERIES_ORDER)
    pb = shapes.pair_b(d, top, bottom, lw)
    ok = series.series.coeffs == qring.expand(pb.bar(), qring.ASC_Q, SERIES_ORDER).coeffs
    nab = shapes.pair_b_nabla(d, top, bottom, lw)
    if not nab.is_zero():
        ok = ok and leq_lambda(d, word_weight(to_dpword(bottom)), word_weight(to_dpword(top)))
    found = shapes.enumerate_shapes(d, top, bottom, "all")
    for sh in found:
        ok = ok and shapes.degree(d, sh, lw) == shapes.degree_alt(d, sh, lw)
    theta = shapes.pair_theta(d, top, bottom)
    ok = ok and theta == freealg.pair(
        d, freealg.theta_word(d, to_dpword(top)), freealg.theta_word(d, to_dpword(bottom))
    )
    out += [str(series), str(pb), str(nab), str(theta), str(len(found))]
    return ok


# -- operator_products ------------------------------------------------------


def _content_patterns(nodes: int) -> list[tuple[int, ...]]:
    """Letter multiplicities of a 3-letter word, cycled round by round.

    Three equal letters make the nilHecke computation whatever the table, so
    only the one-node table (where nothing else exists) gets them; every
    other table gets mixed colors, where its Q entries matter, with (2,1)
    and (1,1,1) in the 3:1 ratio uniform random letters give them.  A fixed
    cycle instead of a draw keeps the costly items the same share of every
    run.
    """
    return {
        1: [(3,)],
        2: [(2, 1)],
        3: [(2, 1)] * 3 + [(1, 1, 1)],
    }[nodes]


def _random_perm(rng: random.Random, top, bottom) -> tuple[int, ...]:
    """A seeded matching of bottom positions to equal-colored top positions."""
    slots: dict[str, list[int]] = {}
    for t, c in enumerate(top):
        slots.setdefault(c, []).append(t)
    for v in slots.values():
        rng.shuffle(v)
    taken = {c: iter(v) for c, v in slots.items()}
    return tuple(next(taken[c]) for c in bottom)


def _random_elem(rng: random.Random, top, bottom) -> klr.KLRElem:
    terms: dict[klr.KLRBasisElem, int] = {}
    for _ in range(2):
        b = klr.KLRBasisElem(
            top, bottom, _random_perm(rng, top, bottom), tuple(rng.randrange(3) for _ in bottom)
        )
        terms[b] = terms.get(b, 0) + rng.choice((-2, -1, 1, 2))
    return klr.KLRElem(top, bottom, terms)


def _gen_operator(rng: random.Random, ctx: Context) -> Iterator[Item]:
    serre = _shuffled(rng, SERRE_JOBS)
    for r in itertools.count():
        for name in _shuffled(rng, ctx.tables):
            nodes = ctx.data[name].nodes
            patterns = _content_patterns(len(nodes))
            # offset by table so the costly rounds of the tables do not align
            pattern = patterns[(r + list(ctx.tables).index(name)) % len(patterns)]
            letters = rng.sample(nodes, len(pattern))
            wd = tuple(_shuffled(rng, [c for c, m in zip(letters, pattern) for _ in range(m)]))
            wc, wb, wa = (tuple(_shuffled(rng, wd)) for _ in range(3))
            x = _random_elem(rng, wa, wb)
            y = _random_elem(rng, wb, wc)
            z = _random_elem(rng, wc, wd)
            yield Item("assoc", name, (x, y, z))
        name = rng.choice(list(ctx.tables))
        yield Item("idempotent", name, (rng.choice(ctx.data[name].nodes), 2 + r % 2))
        job = serre[r % len(serre)]
        yield Item("serre", job[0], job[1:])


def _run_operator(ctx: Context, item: Item, out: list) -> bool:
    qt = ctx.tables[item.datum]
    if item.kind == "assoc":
        x, y, z = item.args
        lhs = klr.mul(qt, klr.mul(qt, x, y), z)
        rhs = klr.mul(qt, x, klr.mul(qt, y, z))
        out.append(str(lhs))
        return lhs == rhs
    if item.kind == "idempotent":
        i, n = item.args
        big = klr.divided_idempotent(qt, i, n)
        sq = klr.mul(qt, big, big)
        out.append(str(sq))
        return sq == big
    rep = klr.serre_complex_check(qt, *item.args)
    out.append("|".join(rep.details))
    return rep.ok


# -- cli_cold ---------------------------------------------------------------


def _cli_word(rng: random.Random, d: SatakeDatum, lo: int, hi: int) -> str:
    return " ".join(rng.choice(d.nodes) for _ in range(rng.randint(lo, hi)))


def _cli_argv(rng: random.Random, ctx: Context, cmd: str) -> list[str]:
    names = list(ctx.data)
    lam = rng.choice(("L0", "L1"))
    if cmd == "iserre":
        name = rng.choice([n for n in names if len(ctx.data[n].nodes) > 1])
        i, j = rng.sample(ctx.data[name].nodes, 2)
        argv = ["iserre", "--config", name, "--i", i, "--j", j, "--lambda", lam]
    elif cmd == "bkl":
        moved = {n: [i for i in d.nodes if d.tau[i] != i] for n, d in ctx.data.items()}
        name = rng.choice([n for n in names if moved[n]])
        argv = ["bkl", "--config", name, "--i", rng.choice(moved[name]), "--lambda", lam]
    elif cmd == "klr":
        name = rng.choice(names)
        d = ctx.data[name]
        n = rng.randint(2, 3)
        factors = [f"e({' '.join(rng.choice(d.nodes) for _ in range(n))})"]
        for _ in range(rng.randint(1, 3)):
            factors.append(rng.choice((f"x{rng.randint(1, n)}", f"s{rng.randint(1, n - 1)}")))
        argv = ["klr", "--config", name, "--expr", " ; ".join(factors)]
    else:
        name = rng.choice(names)
        d = ctx.data[name]
        top = _cli_word(rng, d, 0, 2)
        bottom = _cli_word(rng, d, 0, 2)
        argv = [cmd, "--config", name, "--i", top, "--j", bottom, "--lambda", lam]
        if cmd == "grdim":
            argv += ["--N", "10"]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _gen_cli(rng: random.Random, ctx: Context) -> Iterator[Item]:
    while True:
        for cmd in CLI_COMMANDS:
            argv = _cli_argv(rng, ctx, cmd)
            yield Item("cli", argv[2], tuple(argv))


def _run_cli(ctx: Context, item: Item, out: list) -> bool:
    """One cold ``python -m iquantum`` call; stdout is checked in finish.
    The child finds the package through the PYTHONPATH run.py set."""
    if ctx.trace_children:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), *item.args]
    else:
        cmd = [sys.executable, "-m", "iquantum", *item.args]
    proc = subprocess.run(cmd, cwd=ctx.root, capture_output=True, timeout=CLI_TIMEOUT_S)
    item.stdout = proc.stdout
    if ctx.trace_children and proc.returncode == 0:
        ctx.child_stats.append(json.loads(proc.stderr.decode().splitlines()[-1]))
    out.append(proc.stdout.decode())
    return proc.returncode == 0


def _run_cli_in_process(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv))
    return rc, buf.getvalue().encode()


def _finish_cli(ctx: Context, items: list[Item], oks: list[bool]) -> None:
    """A call passes when its stdout is byte-identical to ``cli.run`` on
    the same argv in this process."""
    for k, item in enumerate(items):
        rc, ref = _run_cli_in_process(item.args)
        oks[k] = oks[k] and rc == 0 and item.stdout == ref


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pairing_sweep",
            "recursion route (b_word, act_b, twisted derivations, RatQ gcd) against the "
            "shape sum on whole (datum, iweight) blocks, plus iSerre checks that skip b_word",
            _gen_pairing,
            _run_pairing,
            round_len=6,
            round_s=2.4,
        ),
        Workload(
            "shape_series",
            "shape enumeration, degrees and the one-sum _assemble/expand route on word pairs "
            "with 630-945 shapes; never calls iuea or klr, so recursion and KLR rewrites "
            "predict no change",
            _gen_shapes,
            _run_shapes,
            round_len=5,
            round_s=0.8,
        ),
        Workload(
            "operator_products",
            "KLR products over sympy fraction fields on the five geometric Q-tables: "
            "associativity triples, divided idempotents, Serre complexes; qring/iuea/shapes idle",
            _gen_operator,
            _run_operator,
            round_len=7,
            round_s=0.5,
        ),
        Workload(
            "cli_cold",
            "one cold python -m iquantum call per item over the README subcommands: "
            "interpreter start, import iquantum.cli (sympy) and cli.run",
            _gen_cli,
            _run_cli,
            round_len=6,
            round_s=2.8,
            runs_in_children=True,
            finish=_finish_cli,
        ),
    )
}


def item_count(workload: str, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` at the typical round time, at least one."""
    wl = WORKLOADS[workload]
    return wl.round_len * max(1, int(seconds / wl.round_s + 0.5))


def generate(workload: str, seed: int, ctx: Context, count: int) -> list[Item]:
    gen = WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"), ctx)
    return list(itertools.islice(gen, count))
