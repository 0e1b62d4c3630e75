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

``NAMED`` gives each function that may stay in the package unentered the
reason it stays.  The listing is the gate: the script exits 1, after
printing them, when some unentered function is not named or some named one
is entered or no longer in the package, and 0 when the unentered
functions are exactly ``NAMED``.

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

_TWISTED = ("the twisted KLR route, the tests' reference for klr.mul; "
            "perfbench/layers.py times it by name")
_DUNDER = "a dunder no contract output goes through"
NAMED = {
    **{f"klr.{name}": _TWISTED for name in (
        "_length", "_compose", "_Forms.__init__", "_Forms.move", "_forms",
        "_times_form", "_div_form", "_cmul", "_cneg", "_cdiv_form", "_permute",
        "_cadd", "_cacc", "QTable.order", "_pinned_entry",
        "_make_entry", "_expand_psi", "_psi_terms", "_expand_elem", "_elem_terms",
        "_polynomial", "_extract", "_mul_twisted",
    )},
    "shapes._restrict": "restricted modes off a pair's `all` list: shape_series "
                        "runs 9% slower enumerating them directly",
    "freealg.FElem.__str__": "perfbench's pairing_sweep prints FElem images; "
                             "test_freealg's test_canonical_text pins the text",
    "__init__.cache_stats": "selftest --cache-stats, covered in tests/test_cli.py",
    "memo.Memo.stats": "selftest --cache-stats, covered in tests/test_cli.py",
    "selftest._CollectorClock.__call__": "selftest --timings, covered in tests/test_cli.py",
    "qring._expand_error": "an internal-fault message that tests/test_qring.py pins",
    "selftest._fmt": "formats the words of a selftest mismatch message",
    "cli.main": "python -m iquantum reaches cli.run through it; the trace calls cli.run",
    **{name: _DUNDER for name in (
        "freealg.FElem.__repr__", "iuea.IElem.__eq__", "iuea.IElem.__repr__",
        "qring.LaurentPoly.__bool__", "qring.LaurentPoly.__repr__", "qring.RatQ.__bool__",
        "qring.RatQ.__hash__", "qring.RatQ.__repr__", "qring.PowerSeriesTrunc.__eq__",
        "qring.PowerSeriesTrunc.__repr__",
    )},
}


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
    unnamed = [name for name, _ in missed if name not in NAMED]
    stale = sorted(set(NAMED) - {name for name, _ in missed})
    print(f"never entered and not in NAMED: {' '.join(unnamed) or 'none'}")
    print(f"in NAMED but entered or gone: {' '.join(stale) or 'none'}")
    return 1 if unnamed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
