"""List the iquantum functions that the behaviour contract never enters.

    python3 tools/contract_trace.py

The contract is the record ``tests/golden/contract.json``.  Each of its
calls runs in this process as ``tests/test_contract.py`` replays it:
through ``cli.run``, with its stdout and stderr captured and every memo
table emptied first, so each run is as cold as a fresh process.  Here the
runs go under ``sys.settrace``, and the package is imported under the
trace too, so code run at import counts as entered.

Every ``def`` in the package source (methods, properties and nested
functions included) that no run entered is printed as
``module.qualname  N lines``, with N counted from its first decorator to
its last line.  Dataclass-generated methods have no source, so they are
never listed; nor are lambdas and comprehensions.  ``cli.main`` is always
listed: ``python -m iquantum`` reaches ``cli.run`` through it, and this
script calls ``cli.run`` directly.

It starts no process, and needs pytest, which ``tests/test_contract.py``
imports.  It reads the package and record of the checkout it sits in.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "iquantum"


def _defs(node: ast.AST, prefix: str):
    """(first line, qualname, line count) of every def below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            name = f"{prefix}{child.name}"
            yield first, name, child.end_lineno - first + 1
            yield from _defs(child, f"{name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def package_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (module.qualname, line count) of every def.

    The first line is the first decorator's, as in the code object's
    ``co_firstlineno``, so the keys match what the trace records."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for first, name, lines in _defs(tree, ""):
            out[(str(path), first)] = (f"{path.stem}.{name}", lines)
    return out


def entered_under_contract() -> tuple[set[tuple[str, int]], list[int]]:
    """(file, first line) of every code object entered, and the exit codes."""
    entered: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.settrace(trace)
    try:
        from test_contract import RECORD, run_call, write_configs

        with tempfile.TemporaryDirectory() as configs:
            write_configs(RECORD["configs"], Path(configs))
            codes = [run_call(call["argv"], Path(configs))["exit"] for call in RECORD["calls"]]
    finally:
        sys.settrace(None)
    return entered, codes


def main() -> int:
    entered, codes = entered_under_contract()
    functions = package_functions()
    missed = [functions[key] for key in sorted(functions) if key not in entered]
    print(f"{len(codes)} runs, exit codes {' '.join(str(c) for c in codes)}")
    for name, lines in missed:
        print(f"{name}  {lines} lines")
    print(f"{len(missed)} of {len(functions)} functions never entered, "
          f"{sum(lines for _, lines in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
