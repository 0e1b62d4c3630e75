"""Compare the behaviour contract of two checkouts, call by call.

    python3 tools/contract_diff.py PARENT_DIR [--change DIR]

The contract is the ``selftest`` report, CLI stdout, ``--json`` output and
the exit codes.  One fixed call list is run on each tree: ``selftest``
plain and with ``--json``; every ``python3 -m iquantum`` line of the
README (read from the change's checkout), as written and with ``--json``;
seeded calls of every subcommand on the five built-in data (read from the
change's ``iquantum.standard``); two ``klr`` products on strands of one
color and two on two colors, one of them with five strands of one color;
one input over each ``cli.MAX_*`` bound; one ``klr`` call on a config that
names no sign convention; and one call per config error and usage error,
so that the exit-2 messages are compared too.

Each tree runs the whole list in one child interpreter, with the tree's
``src`` alone on its path.  Every call goes through ``cli.run`` with every
memo emptied first, as in a fresh process, and the child reports the
sha256 of its stdout, of its stderr, and its exit code.  The script prints
every call that differs, with its index, its argv and which of the three
differ, or that none does; it exits 0 when every call agrees and 1
otherwise.

DIR defaults to the checkout this script sits in.  The two children run at
the same time.  Standard library only; the children import each tree's
package, and the script imports the change's ``iquantum.standard``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "python3 -m iquantum "
SEED = 2101

# Runs in the child: reads the call list on stdin, writes one result per call.
CHILD = """
import contextlib, hashlib, io, json, sys
import iquantum
from iquantum import cli

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

results = []
for argv in json.load(sys.stdin):
    iquantum.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    results.append({"stdout": sha(out.getvalue()), "stderr": sha(err.getvalue()), "exit": code})
sys.__stdout__.write(json.dumps(results))
"""


def readme_examples(root: Path) -> list[list[str]]:
    """The argv of every README example, then each again with --json."""
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    argvs = [shlex.split(line[len(PREFIX):]) for line in lines if line.startswith(PREFIX)]
    return argvs + [argv + ["--json"] for argv in argvs]


def _word(rng: random.Random, nodes, powers, letters: int) -> str:
    """A word of up to ``letters`` letters; one letter in four at a node of
    ``powers`` is a divided power 2."""
    out = []
    for _ in range(rng.randint(0, letters)):
        i = rng.choice(nodes)
        out.append(f"{i}^(2)" if i in powers and rng.random() < 0.25 else i)
    return " ".join(out)


def builtin_data(tree: Path) -> dict[str, tuple[tuple[str, ...], list[str]]]:
    """The built-in data of a tree by name, with their nodes and the nodes
    tau fixes, read from its ``iquantum.standard`` (which imports
    ``satake`` alone)."""
    sys.path.insert(0, str(tree / "src"))
    from iquantum.satake import orbit_reps
    from iquantum.standard import STANDARD

    data = {name: make() for name, make in STANDARD.items()}
    return {name: (datum.nodes, orbit_reps(datum)[1]) for name, datum in data.items()}


def seeded_calls(seed: int, data: dict[str, tuple[tuple[str, ...], list[str]]]) -> list[list[str]]:
    """Every subcommand on each built-in, with seeded words and weights."""
    rng = random.Random(seed)
    calls = []
    for name, (nodes, fixed) in data.items():
        cfg = ["--config", name]
        moved = [i for i in nodes if i not in fixed]
        for _ in range(3):
            lam = rng.choice(("L0", "L1"))
            calls.append(["pair", *cfg, "--i", _word(rng, nodes, moved, 3),
                          "--j", _word(rng, nodes, moved, 3), "--lambda", lam])
        top, bottom = _word(rng, nodes, (), 3), _word(rng, nodes, (), 3)
        calls.append(["shapes", *cfg, "--i", top, "--j", bottom, "--lambda", "L1",
                      "--mode", rng.choice(("all", "cap_free", "cup_cap_free"))])
        calls.append(["grdim", *cfg, "--i", top, "--j", bottom, "--lambda", "L0", "--N", "8"])
        calls.append(["grdim", *cfg, "--end", "--N", str(rng.randint(4, 12))])
        calls.append(["iserre", *cfg, "--all", "--lambda-range", "-1..1"])
        calls.append(["bkl", *cfg, "--i", rng.choice(moved or nodes), "--lambda", "L1"])
        strands = " ".join(rng.choice(nodes) for _ in range(3))
        calls.append(["klr", *cfg, "--expr", f"e({strands}) ; s1 ; x2 ; s2"])
    return calls + [argv + ["--json"] for argv in calls]


def _config(cartan: int, lam: int) -> str:
    """A two-node config with off-diagonal Cartan entries -cartan and one
    weight of lam at node 1."""
    return json.dumps({
        "nodes": ["1", "2"],
        "cartan": [[2, -cartan], [-cartan, 2]],
        "d": [1, 1],
        "tau": {"1": "2", "2": "1"},
        "varsigma": {"1": 1, "2": 0},
        "weights": {"L0": {"lam": {}}, "L": {"lam": {"1": lam}}},
    })


# Products on one color, which never read the table: the longest crossing
# on six strands (W0), and a dotted product on five strands.
W0_CROSSINGS = " ; ".join(f"s{r}" for r in (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1))
W0 = "e(1 1 1 1 1 1) ; " + W0_CROSSINGS
ONE_COLOR_CALLS = [
    ["klr", "--config", "split_a1", "--expr", W0],
    ["klr", "--config", "split_a1", "--expr",
     "e(1 1 1 1 1) ; x1 ; x2 ; x2 ; x3 ; s1 ; s2 ; s1 ; s3 ; s2 ; s4 ; x5 ; s3"],
]
# A product on two colors, through the lazy sums and the peel: W0's
# crossings after six dots on e(2 1 1 1 1 1).
MIXED_COLOR_CALL = [
    "klr", "--config", "split_a2", "--expr",
    "e(2 1 1 1 1 1) ; x1 ; x2 ; x2 ; x3 ; x3 ; x3 ; " + W0_CROSSINGS,
]
# The same on e(1 1 1 1 2 1), whose five strands of one color make the
# peel's kernels (_lift, _div_form, _times_form) carry most of the time.
FIVE_STRAND_CALL = [
    "klr", "--config", "split_a2", "--expr",
    "e(1 1 1 1 2 1) ; x1 ; x2 ; x2 ; x3 ; x3 ; x3 ; " + W0_CROSSINGS,
]


def bound_calls(configs: Path) -> list[list[str]]:
    """One input over each cli.MAX_* bound (each an exit-2 message)."""
    over_cartan = configs / "cartan5.json"
    over_cartan.write_text(_config(5, 0), encoding="utf-8")
    over_lam = configs / "lam1001.json"
    over_lam.write_text(_config(1, 1001), encoding="utf-8")
    over_d = configs / "d5.json"
    over_d.write_text(json.dumps({
        "nodes": ["1"], "cartan": [[2]], "d": [5], "tau": {"1": "1"}, "varsigma": {"1": -1},
        "weights": {"L0": {"lam": {}, "parity": {"1": 0}}},
    }), encoding="utf-8")
    crossings = " ; ".join(["s1 ; s3 ; s5"] * 21)
    return [
        # MAX_ORDER
        ["grdim", "--config", "qs_a2", "--end", "--N", "1001"],
        # MAX_CARTAN
        ["pair", "--config", str(over_cartan), "--i", "1", "--j", "1", "--lambda", "L0"],
        # MAX_LAM, in a config and in a sweep
        ["bkl", "--config", str(over_lam), "--i", "1", "--lambda", "L"],
        ["iserre", "--config", "qs_a2", "--all", "--lambda-range", "1001..1001"],
        # MAX_D
        ["pair", "--config", str(over_d), "--i", "1", "--j", "1", "--lambda", "L0"],
        # MAX_WORD
        ["pair", "--config", "qs_a2", "--i", "1 2 1 2 1 2 1 2 1", "--j", "1", "--lambda", "L0"],
        # MAX_SHAPES: two 8-letter words of one fixed-node letter have 15!! shapes
        ["pair", "--config", "split_a1", "--i", " ".join("1" * 8), "--j", " ".join("1" * 8),
         "--lambda", "L0"],
        # MAX_SWEEP
        ["iserre", "--config", "qs_a2", "--all", "--lambda-range", "-500..500"],
        # MAX_STRANDS
        ["klr", "--config", "qs_a2", "--expr", "e(1 2 1 2 1 2 1)"],
        # MAX_FACTORS
        ["klr", "--config", "qs_a2", "--expr", "e(1 2) ; " + " ; ".join(["x1"] * 65)],
        # MAX_TERMS: the product passes 1000 terms after 58 of the 63 factors
        ["klr", "--config", "split_a2", "--expr", f"e(1 2 1 2 1 2) ; {crossings}"],
    ]


# Config documents that parse_config refuses, as patches of the qs_a2-like
# _config(1, 0): None drops the key, and a patch that is not a dict is the
# whole document.
CONFIG_ERRORS = [
    [1, 2],
    {"nodes": None},
    {"nodes": "1 2"},
    {"nodes": []},
    {"nodes": [1, "2"]},
    {"nodes": ["1", "1"]},
    {"cartan": [[2, -1]]},
    {"cartan": [[2, -1], [-1]]},
    {"tau": {"1": "2"}},
    {"varsigma": {"1": 1}},
    {"orientation": [["1", "2"]]},
    {"orientation": {"1 2": -1}},
    {"orientation": {"1 2": 3}},
    {"weights": {"W": {"lam": {}, "parity": {}, "mu": {}}}},
]

# Usage errors of the subcommands on a built-in.
USAGE_ERRORS = [
    ["iserre", "--config", "qs_a2", "--all", "--lambda-range", "1to3"],
    ["iserre", "--config", "qs_a2", "--all", "--lambda-range", "3..1"],
    ["iserre", "--config", "qs_a2", "--i", "1", "--lambda", "L0"],
    ["iserre", "--config", "qs_a2", "--i", "1", "--j", "9", "--lambda", "L0"],
    ["bkl", "--config", "qs_a2", "--i", "9", "--lambda", "L0"],
    ["grdim", "--config", "qs_a2", "--i", "1", "--j", "1"],
    ["klr", "--config", "qs_a2", "--expr", "e(1 9)"],
    ["klr", "--config", "qs_a2", "--expr", "e(1 2) ; s2"],
    ["selftest", "--config", "qs_a2"],
]


def error_calls(configs: Path) -> list[list[str]]:
    """One call per config error, one on a config with a warning, one on a
    config with an orientation and one on a config with no sign_convention,
    then one call per usage error."""
    base = json.loads(_config(1, 0))
    calls = []
    for k, patch in enumerate(CONFIG_ERRORS):
        doc = patch
        if isinstance(patch, dict):
            doc = {key: v for key, v in {**base, **patch}.items() if v is not None}
        path = configs / f"error{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        calls.append(["grdim", "--config", str(path), "--end", "--N", "4"])
    # two tau-fixed nodes whose Cartan entries differ mod 2
    warn = configs / "warning.json"
    warn.write_text(json.dumps({
        "nodes": ["1", "2"],
        "cartan": [[2, -1], [-2, 2]],
        "d": [2, 1],
        "tau": {"1": "1", "2": "2"},
        "varsigma": {"1": -1, "2": -1},
        "weights": {"L0": {"lam": {}, "parity": {"1": 0, "2": 0}}},
    }), encoding="utf-8")
    calls.append(["grdim", "--config", str(warn), "--end", "--N", "4"])
    reversed_edge = configs / "orientation.json"
    reversed_edge.write_text(json.dumps({**base, "orientation": {"2 1": 1}}), encoding="utf-8")
    calls.append(["klr", "--config", str(reversed_edge), "--expr", "e(1 2) ; s1 ; s1"])
    # qs_a3's fields with no sign_convention: tau fixes one node and moves
    # two, so the table takes "intro"
    no_convention = configs / "no_convention.json"
    no_convention.write_text(json.dumps({
        "nodes": ["1", "2", "3"],
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "d": [1, 1, 1],
        "tau": {"1": "3", "2": "2", "3": "1"},
        "varsigma": {"1": 0, "2": -1, "3": 0},
        "weights": {"L0": {"lam": {}, "parity": {"2": 0}}},
    }), encoding="utf-8")
    calls.append(["klr", "--config", str(no_convention), "--expr", "e(1 2 3) ; s1 ; s2"])
    return calls + USAGE_ERRORS


def start(tree: Path, calls: list[list[str]], out: Path) -> subprocess.Popen:
    """Start the child interpreter of one tree on the call list.  Its
    results go to the file out and its stderr beside it, so that neither
    child can fill a pipe while the other runs."""
    src = str(tree / "src")
    with open(out, "w") as stdout, open(out.with_suffix(".err"), "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{CHILD}"],
            cwd=tree, stdin=subprocess.PIPE, stdout=stdout, stderr=stderr, text=True,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    proc.stdin.write(json.dumps(calls))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path, out: Path) -> list[dict]:
    """The child's results, once it has exited."""
    if proc.wait() != 0:
        err = out.with_suffix(".err").read_text(encoding="utf-8")
        sys.exit(f"{tree}: the child failed with exit code {proc.returncode}\n{err}")
    return json.loads(out.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the changed checkout")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        # the README list starts with selftest
        calls = (
            readme_examples(trees["change"])
            + seeded_calls(SEED, builtin_data(trees["change"]))
            + ONE_COLOR_CALLS
            + [MIXED_COLOR_CALL, FIVE_STRAND_CALL]
            + bound_calls(Path(scratch))
            + error_calls(Path(scratch))
        )
        t0 = time.perf_counter()
        outs = {side: Path(scratch) / f"{side}.json" for side in trees}
        procs = {side: start(trees[side], calls, outs[side]) for side in trees}
        found = {side: finish(procs[side], trees[side], outs[side]) for side in trees}
        seconds = time.perf_counter() - t0
    diffs = [k for k, (a, b) in enumerate(zip(found["parent"], found["change"])) if a != b]
    print(f"{len(calls)} calls on each tree in {seconds:.1f} s")
    if not diffs:
        print("no difference")
        return 0
    print(f"{len(diffs)} calls differ:")
    for k in diffs:
        a, b = found["parent"][k], found["change"][k]
        parts = ", ".join(key for key in ("stdout", "stderr", "exit") if a[key] != b[key])
        print(f"call {k}: python3 -m iquantum {shlex.join(calls[k])}")
        print(f"  differs in {parts} (exit {a['exit']} at the parent, {b['exit']} at the change)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
