"""The README's command-line examples, pinned byte for byte.

Every ``python3 -m iquantum`` line of the README except ``selftest`` (which
tests/test_acceptance.py covers) runs in process through ``cli.run``, once
as written and once with ``--json``.  Stdout must equal
``tests/golden/<name>.stdout`` and the exit code the entry in
``tests/golden/exit_codes.json``, where ``<name>`` is the subcommand, with a
``_json`` suffix for the second run.  Regenerate a golden file only for an
intended change of output.

The package depends on the standard library alone: the same examples run
once more in a child interpreter that cannot import sympy.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import iquantum
from iquantum import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
PREFIX = "python3 -m iquantum "


def _readme_examples():
    lines = (TESTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    argvs = [shlex.split(line[len(PREFIX):]) for line in lines if line.startswith(PREFIX)]
    return [argv for argv in argvs if argv[0] != "selftest"]


EXAMPLES = _readme_examples()
CASES = [(argv[0], argv) for argv in EXAMPLES] + [
    (f"{argv[0]}_json", argv + ["--json"]) for argv in EXAMPLES
]
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_readme_lists_one_example_per_subcommand():
    assert [argv[0] for argv in EXAMPLES] == ["pair", "iserre", "bkl", "grdim", "shapes", "klr"]
    assert sorted(EXIT_CODES) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_readme_example(name, argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    examples[name] = [code, out.getvalue()]
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
    # example still prints its golden output and nothing else is imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(iquantum.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY],
        input=json.dumps(CASES),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name, _ in CASES:
        want = [EXIT_CODES[name], (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")]
        assert got["examples"][name] == want, name
    assert got["products"] == [True, True]
    assert got["foreign"] == []
