"""The README's command-line examples, pinned byte for byte.

Every ``python3 -m iquantum`` line of the README except ``selftest`` (which
tests/test_acceptance.py covers) runs in process through ``cli.run``, once
as written and once with ``--json``.  Stdout must equal
``tests/golden/<name>.stdout`` and the exit code the entry in
``tests/golden/exit_codes.json``, where ``<name>`` is the subcommand, with a
``_json`` suffix for the second run.  Regenerate a golden file only for an
intended change of output.
"""

import json
import shlex
from pathlib import Path

import pytest

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
