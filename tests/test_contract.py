"""The behaviour contract, recorded call by call and replayed.

The contract is the ``selftest`` report, CLI stdout, ``--json`` output and
the exit codes.  ``tests/golden/contract.json`` holds, for one fixed list
of calls, each call's argv, stdout, stderr and exit code.  The list:
``selftest`` and every other ``python3 -m iquantum`` line of the README,
plain and with ``--json``; seeded calls of every subcommand on the five
built-in data; four heavy ``klr`` products; one input over each
``cli.MAX_*`` bound, and inputs at six of them; calls that each pin one
behaviour the others miss (divided powers, repeated and one-weight ranges,
``grdim`` on a word pair and at a config's own order); one call per config
error and usage error; three subcommands on a config whose orientation is
refused; and one ``klr`` product on a config with no ``sign_convention``,
with "intro" and with "body".  Each argv is in the list once.  A call that
reads a config file names it ``$CONFIGS/<name>``; the record holds those
documents, and the replay writes them to a temporary directory that takes
the place of ``$CONFIGS``.

This is the one home of plain CLI checks, an argv with its stdout, stderr
and exit code; ``tests/test_cli.py`` keeps only what a record cannot hold:
library calls, monkeypatched internals, child processes under a resource
limit, wall-time bounds and argparse's own text.

Each call runs in process through ``cli.run`` with every memo emptied
first, as in a fresh process, and must reproduce its record byte for byte;
the record pins each ``selftest`` check's result and detail, and
``test_runtime_budget`` bounds the wall time of the ``selftest`` replays.
The record must also hold exactly the call list built here, so neither can
change alone.  Regenerate it (``python tests/test_contract.py --write``)
only for an intended change, which then shows as a diff of the record: a
change keeps its parent's contract when the tests pass and
``git diff PARENT -- tests/golden/contract.json`` is empty.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import random
import shlex
import sys
import tempfile
import time
from pathlib import Path

import pytest

import iquantum
from iquantum import cli
from iquantum.satake import orbit_reps
from iquantum.standard import STANDARD

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "contract.json"
PREFIX = "python3 -m iquantum "
CONFIGS = "$CONFIGS"
SEED = 2101


def readme_examples() -> list[list[str]]:
    """The argv of every ``python3 -m iquantum`` line of the README."""
    lines = (TESTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line[len(PREFIX):]) for line in lines if line.startswith(PREFIX)]


def _word(rng: random.Random, nodes, powers, letters: int) -> str:
    """A word of up to ``letters`` letters; one letter in four at a node of
    ``powers`` is a divided power 2."""
    out = []
    for _ in range(rng.randint(0, letters)):
        i = rng.choice(nodes)
        out.append(f"{i}^(2)" if i in powers and rng.random() < 0.25 else i)
    return " ".join(out)


def seeded_calls() -> list[list[str]]:
    """Every subcommand on each built-in, with seeded words and weights."""
    rng = random.Random(SEED)
    calls = []
    for name, make in STANDARD.items():
        datum = make()
        nodes, fixed = datum.nodes, orbit_reps(datum)[1]
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


def _config(cartan: int, lam: int) -> dict:
    """A two-node config with off-diagonal Cartan entries -cartan and one
    weight of lam at node 1."""
    return {
        "nodes": ["1", "2"],
        "cartan": [[2, -cartan], [-cartan, 2]],
        "d": [1, 1],
        "tau": {"1": "2", "2": "1"},
        "varsigma": {"1": 1, "2": 0},
        "weights": {"L0": {"lam": {}}, "L": {"lam": {"1": lam}}},
    }


# Products on one color, which never read the table: the longest crossing
# on six strands (W0), and a dotted product on five strands.
W0_CROSSINGS = " ; ".join(f"s{r}" for r in (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1))
W0 = "e(1 1 1 1 1 1) ; " + W0_CROSSINGS
ONE_COLOR_CALLS = [
    ["klr", "--config", "split_a1", "--expr", W0],
    ["klr", "--config", "split_a1", "--expr",
     "e(1 1 1 1 1) ; x1 ; x2 ; x2 ; x3 ; s1 ; s2 ; s1 ; s3 ; s2 ; s4 ; x5 ; s3"],
]
# A product on two colors, straightened in the polynomial ring like every
# mul product: W0's crossings after six dots on e(2 1 1 1 1 1), 0.008 s cold.
MIXED_COLOR_CALL = [
    "klr", "--config", "split_a2", "--expr",
    "e(2 1 1 1 1 1) ; x1 ; x2 ; x2 ; x3 ; x3 ; x3 ; " + W0_CROSSINGS,
]
# The same on e(1 1 1 1 2 1), five strands of one color beside one of
# another, through the same straightening: 0.016 s cold.
FIVE_STRAND_CALL = [
    "klr", "--config", "split_a2", "--expr",
    "e(1 1 1 1 2 1) ; x1 ; x2 ; x2 ; x3 ; x3 ; x3 ; " + W0_CROSSINGS,
]

def _one_node(d: int) -> dict:
    """One tau-fixed node with symmetrizer d."""
    return {
        "nodes": ["1"], "cartan": [[2]], "d": [d], "tau": {"1": "1"}, "varsigma": {"1": -1},
        "weights": {"L0": {"lam": {}, "parity": {"1": 0}}},
    }


BOUND_CONFIGS = {
    "cartan5.json": _config(5, 0),
    "lam1001.json": _config(1, 1001),
    "d5.json": _one_node(5),
    # at the bounds; a_12 = -4 needs varsigma_1 = 4 for the sum rule
    "cartan4.json": {**_config(4, 1), "varsigma": {"1": 4, "2": 0}},
    "lam-1000.json": _config(1, -1000),
    "d4.json": _one_node(4),
}


def bound_calls() -> list[list[str]]:
    """One input over each cli.MAX_* bound (each an exit-2 message)."""
    crossings = " ; ".join(["s1 ; s3 ; s5"] * 21)
    return [
        # MAX_ORDER
        ["grdim", "--config", "qs_a2", "--end", "--N", "1001"],
        # MAX_CARTAN
        ["pair", "--config", f"{CONFIGS}/cartan5.json", "--i", "1", "--j", "1", "--lambda", "L0"],
        # MAX_LAM, in a config and in a sweep
        ["bkl", "--config", f"{CONFIGS}/lam1001.json", "--i", "1", "--lambda", "L"],
        ["iserre", "--config", "qs_a2", "--all", "--lambda-range", "1001..1001"],
        # MAX_D
        ["pair", "--config", f"{CONFIGS}/d5.json", "--i", "1", "--j", "1", "--lambda", "L0"],
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
        # MAX_SWEEP again, where the tau-fixed node doubles the count
        ["iserre", "--config", "qs_a3", "--all", "--lambda-range", "-250..250"],
    ]


def at_bound_calls() -> list[list[str]]:
    """Inputs at the cli.MAX_* bounds, each answered."""
    head = "e(1 2 1 2 1 2)"
    return [
        ["iserre", "--config", f"{CONFIGS}/cartan4.json", "--all", "--lambda", "L"],
        ["bkl", "--config", f"{CONFIGS}/lam-1000.json", "--i", "1", "--lambda", "L"],
        ["iserre", "--config", "qs_a2", "--i", "1", "--j", "2", "--lambda-range", "1000..1000"],
        ["pair", "--config", f"{CONFIGS}/d4.json", "--i", "1", "--j", "1", "--lambda", "L0"],
        ["klr", "--config", "split_a1", "--expr", "e(1 1 1 1 1 1) ; x5 ; s5"],
        ["klr", "--config", "qs_a2", "--expr", head + " ; x1" * 64],
        # 64 factors, and 1000 terms from the 54th on
        ["klr", "--config", "qs_a2", "--expr", head + " ; s1 ; s3 ; s5" * 18 + " ; x1" * 10],
    ]


# Calls that each pin one behaviour the README and seeded calls miss.
EDGE_CALLS = [
    # a divided power at a moved node is a q-factorial rescaling
    ["pair", "--config", "qs_a2", "--i", "1^(2)", "--j", "1 1", "--lambda", "L0"],
    # the last --lambda-range wins
    ["iserre", "--config", "qs_a2", "--i", "1", "--j", "2",
     "--lambda-range", "-1..1", "--lambda-range", "-2..2"],
    ["iserre", "--config", "qs_a2", "--i", "1", "--j", "2", "--lambda-range", "-2..2"],
    ["iserre", "--config", "qs_a2", "--i", "1", "--j", "2", "--lambda", "L1", "--json"],
    ["grdim", "--config", "qs_a2", "--i", "1", "--j", "1", "--lambda", "L0", "--N", "6"],
    ["grdim", "--config", "qs_a2", "--i", "1", "--j", "1", "--lambda", "L0", "--N", "6", "--json"],
    # the config's own truncation order, with no --N
    ["grdim", "--config", f"{CONFIGS}/order6.json", "--i", "1", "--j", "1", "--lambda", "L0"],
    # the nilHecke square
    ["klr", "--config", "split_a1", "--expr", "e(1 1) ; s1 ; s1"],
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

# Usage errors, and config errors that need no config document.
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
    # an empty --config is a path like any other, not "no config"
    ["grdim", "--config", "", "--end"],
    ["pair", "--config", "nosuch.json", "--i", "", "--j", "", "--lambda", "L0"],
    ["pair", "--config", "qs_a2", "--i", "7", "--j", "", "--lambda", "L0"],
    # a weight the config lacks names the config section to fix
    ["pair", "--config", "qs_a2", "--i", "", "--j", "", "--lambda", "NOPE"],
    ["bkl", "--config", "qs_a2", "--i", "1", "--lambda", "NOPE"],
    ["iserre", "--config", "qs_a2", "--all"],
    # a divided power at a fixed node has no factorial bridge to its word
    ["pair", "--config", "split_a1", "--i", "1^(2)", "--j", "", "--lambda", "L0"],
    *(["pair", "--config", "qs_a2", "--i", token, "--j", "1", "--lambda", "L0"]
      for token in ("1^(x)", "1^()", "1^(2.5)")),
    *(["grdim", "--config", "split_a1", "--end", "--N", n] for n in ("-3", "0")),
    ["klr", "--config", "qs_a2", "--expr", "x1 ; s1"],
    ["klr", "--config", "qs_a2", "--expr", "e(1 2) ; y3"],
    ["klr", "--config", "qs_a2", "--expr", "e(1) ; e(2)"],
]


def contract_configs() -> dict[str, object]:
    """Every config document a call reads, by file name: those of
    bound_calls and at_bound_calls, of CONFIG_ERRORS, and a config with a
    warning, one with an orientation, one with its own truncation order,
    and one with no sign_convention, then the same with each convention."""
    base = _config(1, 0)
    docs = dict(BOUND_CONFIGS)
    for k, patch in enumerate(CONFIG_ERRORS):
        if isinstance(patch, dict):
            patch = {key: v for key, v in {**base, **patch}.items() if v is not None}
        docs[f"error{k}.json"] = patch
    # two tau-fixed nodes whose Cartan entries differ mod 2
    docs["warning.json"] = {
        "nodes": ["1", "2"],
        "cartan": [[2, -1], [-2, 2]],
        "d": [2, 1],
        "tau": {"1": "1", "2": "2"},
        "varsigma": {"1": -1, "2": -1},
        "weights": {"L0": {"lam": {}, "parity": {"1": 0, "2": 0}}},
    }
    docs["orientation.json"] = {**base, "orientation": {"2 1": 1}}
    docs["order6.json"] = {**base, "N": 6}
    # qs_a3's fields with no sign_convention: tau fixes one node and moves
    # two, so the table takes "intro"
    docs["no_convention.json"] = {
        "nodes": ["1", "2", "3"],
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "d": [1, 1, 1],
        "tau": {"1": "3", "2": "2", "3": "1"},
        "varsigma": {"1": 0, "2": -1, "3": 0},
        "weights": {"L0": {"lam": {}, "parity": {"2": 0}}},
    }
    # "body" is unusable for this datum
    for convention in ("intro", "body"):
        docs[f"no_convention_{convention}.json"] = {
            **docs["no_convention.json"], "sign_convention": convention
        }
    return docs


def error_calls() -> list[list[str]]:
    """One call per config error, one on a config with a warning, one on a
    config with an orientation and one on a config with no sign_convention,
    then one call per usage error, pair and klr on the refused orientation,
    and klr with each sign_convention."""
    calls = [["grdim", "--config", f"{CONFIGS}/error{k}.json", "--end", "--N", "4"]
             for k in range(len(CONFIG_ERRORS))]
    calls.append(["grdim", "--config", f"{CONFIGS}/warning.json", "--end", "--N", "4"])
    calls.append(["klr", "--config", f"{CONFIGS}/orientation.json", "--expr", "e(1 2) ; s1 ; s1"])
    s1s2 = "e(1 2 3) ; s1 ; s2"
    calls.append(["klr", "--config", f"{CONFIGS}/no_convention.json", "--expr", s1s2])
    # pair and klr check the orientation as grdim does: error12 has three
    # arrows where the Cartan matrix gives one
    three_arrows = f"{CONFIGS}/error12.json"
    return calls + USAGE_ERRORS + [
        ["pair", "--config", three_arrows, "--i", "1", "--j", "1", "--lambda", "L0"],
        ["klr", "--config", three_arrows, "--expr", "e(1 2)"],
        *(["klr", "--config", f"{CONFIGS}/no_convention_{c}.json", "--expr", s1s2]
          for c in ("intro", "body")),
    ]


def contract_calls() -> list[list[str]]:
    """The whole call list, in record order, each argv at its first place;
    the README's starts with selftest."""
    readme = readme_examples()
    calls = (
        readme + [argv + ["--json"] for argv in readme] + seeded_calls() + ONE_COLOR_CALLS
        + [MIXED_COLOR_CALL, FIVE_STRAND_CALL] + bound_calls() + at_bound_calls() + EDGE_CALLS
        + error_calls()
    )
    return [list(argv) for argv in dict.fromkeys(map(tuple, calls))]


def write_configs(docs: dict[str, object], directory: Path) -> None:
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def run_call(argv: list[str], directory: Path) -> dict:
    """Stdout, stderr and exit code of one call, run cold through cli.run
    with ``$CONFIGS`` read as directory."""
    iquantum.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([arg.replace(CONFIGS, str(directory)) for arg in argv])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


# A missing record reads as empty, so that --write can make the first one
# and the guard below fails until it does.
RECORD = (
    json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists()
    else {"configs": {}, "calls": []}
)


def test_the_record_holds_the_call_list():
    argvs = [call["argv"] for call in RECORD["calls"]]
    assert argvs == contract_calls()
    assert len(set(map(tuple, argvs))) == len(argvs)
    assert RECORD["configs"] == contract_configs()


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")
    write_configs(RECORD["configs"], directory)
    return directory


@pytest.fixture(scope="module")
def seconds() -> dict[int, float]:
    """Wall seconds of each replayed call, by record index."""
    return {}


def _timed_replay(k: int, directory: Path, seconds: dict[int, float]) -> dict:
    start = time.monotonic()
    got = run_call(RECORD["calls"][k]["argv"], directory)
    seconds[k] = time.monotonic() - start
    return got


@pytest.mark.parametrize(
    "k,want", enumerate(RECORD["calls"]),
    ids=[shlex.join(call["argv"]) for call in RECORD["calls"]],
)
def test_call_replays_its_record(k, want, config_dir, seconds):
    got = _timed_replay(k, config_dir, seconds)
    problems = [] if got["exit"] == want["exit"] else [f"exit {got['exit']}, recorded {want['exit']}"]
    for stream in ("stdout", "stderr"):
        if got[stream] != want[stream]:
            problems.append("".join(difflib.unified_diff(
                want[stream].splitlines(keepends=True), got[stream].splitlines(keepends=True),
                f"recorded {stream}", f"replayed {stream}",
            )))
    if problems:
        pytest.fail("\n".join([PREFIX + shlex.join(want["argv"]), *problems]), pytrace=False)


def test_runtime_budget(config_dir, seconds):
    # the selftest sweep is meant to stay interactive: its replays above,
    # each cold, fit in two minutes together; a call the run has not
    # replayed yet, as when this test runs alone, is replayed here
    selftests = [k for k, call in enumerate(RECORD["calls"]) if call["argv"][0] == "selftest"]
    assert len(selftests) >= 2
    for k in selftests:
        if k not in seconds:
            _timed_replay(k, config_dir, seconds)
    elapsed = sum(seconds[k] for k in selftests)
    print(f"{len(selftests)} selftest calls took {elapsed:.1f}s")
    assert elapsed < 120.0


def _capture() -> dict:
    docs = contract_configs()
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(docs, Path(tmp))
        calls = [{"argv": argv, **run_call(argv, Path(tmp))} for argv in contract_calls()]
    return {"configs": docs, "calls": calls}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_contract.py --write")
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
