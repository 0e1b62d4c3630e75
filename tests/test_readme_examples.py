"""The README's command-line examples are pinned by the contract record.

Every ``python3 -m iquantum`` line of the README, once as written and once
with ``--json``, must be a call of ``tests/golden/contract.json`` that
exits 0; ``tests/test_contract.py`` replays it byte for byte.  Here the
examples are only looked up, so a README example cannot change without
the record being written again.

The package depends on the standard library alone: the examples other
than ``selftest`` run once more in a child interpreter that cannot import
sympy, and must print their recorded output.
"""

import json
import subprocess
import sys

import pytest

from small_data import child_env
from test_contract import RECORD, readme_examples

RECORDED_CALLS = {tuple(call["argv"]): call for call in RECORD["calls"]}
EXAMPLES = readme_examples()
CASES = [(argv[0], argv) for argv in EXAMPLES] + [
    (f"{argv[0]}_json", argv + ["--json"]) for argv in EXAMPLES
]
NO_SYMPY_CASES = [(name, argv) for name, argv in CASES if argv[0] != "selftest"]


def test_readme_lists_one_example_per_subcommand():
    assert [argv[0] for argv in EXAMPLES] == [
        "selftest", "pair", "iserre", "bkl", "grdim", "shapes", "klr"
    ]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_readme_example(name, argv):
    assert tuple(argv) in RECORDED_CALLS, "run python tests/test_contract.py --write"
    assert RECORDED_CALLS[tuple(argv)]["exit"] == 0


# Runs in the child: blocks sympy, runs the examples read on stdin and the
# products of a split and an oriented table, then reports the top-level
# modules it loaded beyond those the interpreter loaded at start-up.
NO_SYMPY = """
import sys
start = {name.partition(".")[0] for name in sys.modules}
sys.modules["sympy"] = None
import contextlib, io, json
from iquantum import cli
from iquantum.klr import divided_idempotent, geometric_qtable, mul, serre_complex_check
from iquantum.selftest import _tables
from iquantum.standard import split_a2

examples = {}
for name, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    examples[name] = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
qt = _tables()["split_a1"]
d3 = divided_idempotent(qt, "1", 3)
oriented = geometric_qtable(split_a2(), orientation={("2", "1"): 1})
products = [mul(qt, d3, d3) == d3, serre_complex_check(oriented, "1", "2").ok]
loaded = {name.partition(".")[0] for name, mod in sys.modules.items() if mod is not None}
foreign = sorted(loaded - start - set(sys.stdlib_module_names) - {"iquantum"})
json.dump({"examples": examples, "products": products, "foreign": foreign}, sys.stdout)
"""


def test_package_runs_without_sympy():
    # sympy is an extra for the test oracles only; with it blocked, every
    # example still prints its recorded output and nothing else is imported
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY],
        input=json.dumps(NO_SYMPY_CASES),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name, argv in NO_SYMPY_CASES:
        want = {key: RECORDED_CALLS[tuple(argv)][key] for key in ("stdout", "stderr", "exit")}
        assert got["examples"][name] == want, name
    assert got["products"] == [True, True]
    assert got["foreign"] == []
