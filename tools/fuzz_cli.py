"""Fuzz the command line in process with mutated built-in configs and argv.

    python3 tools/fuzz_cli.py [--seed N ...] [--cases N] [--limit SECONDS]

Each case takes the JSON config of one built-in datum and an argv of one
subcommand on it, then mutates both.  The config gets up to three edits at
random places of the document: a value replaced by a value of another JSON
type (null, a bool, huge or negative numbers, odd strings, a list or an
object), a key or list item deleted, or a value appended; a node renamed
everywhere to an odd name; or ``sign_convention`` made absent, null, unusable
on the datum or unknown.  The argv may get a flag's value replaced, a flag
dropped or a flag appended.  The config is written to a temporary file and
``cli.run`` runs on it in this process, with its output discarded, every
memo emptied first and a SIGALRM timer set to the time limit.

A case is reported when an exception escapes ``cli.run``, when the exit
code is not 0 or 2, or when it runs over the limit.  Exit 1 counts: it is a
cross-check that disagreed or a rejected result, the very thing the engine
exists to report.  Each report gives the seed and case number, the argv and
the config, which reproduce it.  The script exits 1 if any case was
reported and 0 otherwise.  Case k of seed s is drawn from
``random.Random(f"{s}:{k}")`` alone, so it can be rerun by itself.

Standard library only; it starts no process.  It runs the package of the
checkout it sits in.  SIGALRM makes it Unix only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shlex
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import iquantum  # noqa: E402
from iquantum import cli  # noqa: E402
from iquantum.standard import STANDARD  # noqa: E402

BUILTINS = {name: json.loads(cli._builtin_config(name)) for name in STANDARD}

NUMBERS = [0, 1, -1, 2, -2, 3, 4, 5, -5, 1000, 1001, -1001, 10**6, -(10**9), 2**63, -(10**30)]
STRINGS = ["", " ", "1", "2", "3", "9", "1 2", "^", "1^(2)", "e(1)", ";", "é", "x" * 40,
           "body", "intro", "L0", "-1", "0..0"]
ODD_NAMES = [" ", "1 2", "^", "1^(2)", "(", ")", ";", "s1", "x1", "e(1)", "é", "-1", "0" * 30]
WORD_TOKENS = ["", "9", "1 1 1 1 1 1 1 1 1", "1^(2)", "1^(9)", "1^(x)", "2^(3) 1", "1  2"]
EXPR_TOKENS = ["e(1)", "e(", "e(1 2) ; s9", "e(1 2) ; s0", "e(1 1) ; x0", "e() ; s1",
               "e(1 1 1) ; s1 ; s2 ; s1", "e(2 1) ; s1 ; s1 ; x2", "e(1 9)"]


def _value(rng: random.Random, depth: int = 0):
    """A random JSON value of any type, nested at most twice."""
    kind = rng.choice(("null", "bool", "int", "float", "str", "list", "dict"))
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(NUMBERS)
    if kind == "float":
        return rng.choice([0.5, -1.0, 2.0, 1e308, -0.0])
    if kind == "str" or depth >= 2:
        return rng.choice(STRINGS)
    if kind == "list":
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(STRINGS): _value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _places(doc):
    """(container, key) of every value below the dict or list doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in list(items):
        yield doc, key
        if isinstance(val, (dict, list)):
            yield from _places(val)


def _containers(doc):
    """doc and every dict or list below it."""
    yield doc
    for parent, key in _places(doc):
        if isinstance(parent[key], (dict, list)):
            yield parent[key]


def _rename(doc, old: str, new: str):
    """doc with every string equal to old, as key or value, renamed to new;
    the space-separated keys of an orientation are renamed part by part."""
    if isinstance(doc, dict):
        return {_rename_key(k, old, new): _rename(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rename(v, old, new) for v in doc]
    return new if doc == old else doc


def _rename_key(key: str, old: str, new: str) -> str:
    return " ".join(new if part == old else part for part in key.split(" "))


def mutate_config(rng: random.Random, name: str):
    """A copy of the built-in config of name with up to three edits."""
    doc = json.loads(json.dumps(BUILTINS[name]))
    for _ in range(rng.randrange(4)):
        if not isinstance(doc, dict):
            break
        edit = rng.choice(("replace", "replace", "delete", "append", "rename", "convention"))
        if edit == "rename":
            doc = _rename(doc, rng.choice(BUILTINS[name]["nodes"]), rng.choice(ODD_NAMES))
        elif edit == "convention":
            choice = rng.choice(("absent", None, "body", "intro", "magic", 1))
            doc.pop("sign_convention", None)
            if choice != "absent":
                doc["sign_convention"] = choice
        elif edit == "append":
            box = rng.choice(list(_containers(doc)))
            if isinstance(box, list):
                box.append(_value(rng))
            else:
                box[rng.choice(STRINGS + ["N", "orientation", "sign_convention"])] = _value(rng)
        else:
            places = list(_places(doc))
            if not places:
                doc = _value(rng)
                continue
            parent, key = rng.choice(places)
            if edit == "replace":
                parent[key] = _value(rng)
            elif isinstance(parent, dict):
                del parent[key]
            else:
                parent.pop(key)
    return doc


def _word(rng: random.Random, nodes) -> str:
    """A word of up to three letters."""
    return " ".join(rng.choice(nodes) for _ in range(rng.randrange(4)))


def base_argv(rng: random.Random, name: str) -> list[str]:
    """A well-formed call of one subcommand on the built-in config name,
    without its --config."""
    nodes = BUILTINS[name]["nodes"]
    lam = ["--lambda", rng.choice(("L0", "L1"))]
    words = ["--i", _word(rng, nodes), "--j", _word(rng, nodes)]
    i, j = rng.choice(nodes), rng.choice(nodes)
    return rng.choice([
        ["pair", *words, *lam],
        ["iserre", "--all", *lam],
        ["iserre", "--i", i, "--j", j, "--lambda-range", f"-{rng.randrange(3)}..{rng.randrange(3)}"],
        ["bkl", "--i", i, *lam],
        ["grdim", "--end", "--N", str(rng.randint(1, 12))],
        ["grdim", *words, *lam, "--N", str(rng.randint(1, 12))],
        ["shapes", *words, *lam, "--mode", rng.choice(("all", "cap_free", "cup_cap_free"))],
        ["klr", "--expr", f"e({_word(rng, nodes) or nodes[0]}) ; s1 ; x1"],
    ])


# The flags of each subcommand beside --config and --json.
FLAGS = {
    "pair": ["--i", "--j", "--lambda"],
    "iserre": ["--i", "--j", "--all", "--lambda", "--lambda-range"],
    "bkl": ["--i", "--lambda"],
    "grdim": ["--i", "--j", "--lambda", "--end", "--N"],
    "shapes": ["--i", "--j", "--lambda", "--mode"],
    "klr": ["--expr"],
}
SWITCHES = {"--all", "--end", "--json"}
VALUES = (STRINGS + WORD_TOKENS + EXPR_TOKENS + [str(n) for n in NUMBERS]
          + ["-3..3", "3..1", "1to3", "-1000..1000", "1001..1001"])


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with up to two edits: a flag's value replaced, a flag dropped
    (with its value) or a flag of the subcommand, --json or an unknown flag
    appended."""
    argv = list(argv)
    for _ in range(rng.randrange(3)):
        flags = [k for k, tok in enumerate(argv) if tok.startswith("--")]
        edit = rng.choice(("replace", "drop", "append"))
        if edit == "append" or not flags:
            flag = rng.choice(FLAGS[argv[0]] + ["--json", "--bogus"])
            argv += [flag] if flag in SWITCHES else [flag, rng.choice(VALUES)]
            continue
        k = rng.choice(flags)
        has_value = k + 1 < len(argv) and not argv[k + 1].startswith("--")
        if edit == "drop":
            del argv[k : k + 1 + has_value]
        elif has_value:
            argv[k + 1] = rng.choice(VALUES)
    return argv


def make_case(seed, k: int):
    """(argv, config document) of case k of seed; the argv's config path is
    the placeholder CONFIG."""
    rng = random.Random(f"{seed}:{k}")
    name = rng.choice(list(BUILTINS))
    argv = base_argv(rng, name)
    argv[1:1] = ["--config", "CONFIG"]
    return mutate_argv(rng, argv), mutate_config(rng, name)


class _Timeout(BaseException):
    """Raised by the SIGALRM handler; a BaseException, so that no handler
    in the package can catch it."""


def _on_alarm(signum, frame):
    raise _Timeout


def run_case(argv, doc, path: Path, limit: float) -> str | None:
    """Run one case through cli.run; what went wrong, or None."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(path) if tok == "CONFIG" else tok for tok in argv]
    iquantum.clear_caches()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    except _Timeout:
        return f"over the {limit:g} s limit"
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None if code in (0, 2) else f"exit code {code!r}"


def fuzz(seed, cases: int, limit: float = 10.0) -> list[dict]:
    """The reports of cases 0..cases-1 of seed."""
    found = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        for k in range(cases):
            argv, doc = make_case(seed, k)
            problem = run_case(argv, doc, path, limit)
            if problem is not None:
                found.append({"seed": seed, "case": k, "problem": problem,
                              "argv": argv, "config": doc})
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", nargs="+", default=["1"], help="one or more seeds")
    parser.add_argument("--cases", type=int, default=1000, help="cases per seed")
    parser.add_argument("--limit", type=float, default=10.0, help="seconds per case")
    args = parser.parse_args()
    total = 0
    for seed in args.seed:
        t0 = time.perf_counter()
        found = fuzz(seed, args.cases, args.limit)
        total += len(found)
        print(f"seed {seed}: {args.cases} cases in {time.perf_counter() - t0:.1f} s, "
              f"{len(found)} reported")
        for rep in found:
            print(f"  case {rep['case']}: {rep['problem']}")
            print(f"    python3 -m iquantum {shlex.join(rep['argv'])}")
            print(f"    CONFIG = {json.dumps(rep['config'])}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
