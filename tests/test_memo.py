"""The memo protocol: one counted get-or-make path and one scope rule."""

import json
import subprocess
import sys

import pytest

import iquantum
from iquantum.memo import MEMOS, Memo
from small_data import child_env


@pytest.fixture
def memo():
    m = Memo("test.MEMO")
    yield m
    MEMOS.pop(m.name)


def test_get_or_make_counts_one_miss_then_hits_and_keeps_falsy_values(memo):
    assert MEMOS[memo.name] is memo
    made = []

    def make(value):
        made.append(value)
        return value

    for key, value in (("dict", {}), ("zero", 0)):
        first = memo.get_or_make(key, make, value)
        for _ in range(3):
            assert memo.get_or_make(key, make, "unused") is first
    assert made == [{}, 0]
    assert memo == {"dict": {}, "zero": 0}
    assert memo.stats() == {"hits": 6, "misses": 2, "size": 2}


def test_within_empties_only_on_a_new_scope(memo):
    assert memo.within(("a", 1)) is memo
    memo.get_or_make("k", str, 1)
    # an equal scope, built anew, keeps the entries
    memo.within(tuple(["a", 1])).get_or_make("k", str, 2)
    assert memo == {"k": "1"} and memo.scope == ("a", 1)
    memo.within(("b", 1))
    assert memo == {} and memo.scope == ("b", 1)
    memo.get_or_make("k", str, 3)
    assert memo == {"k": "3"}
    assert memo.stats() == {"hits": 1, "misses": 2, "size": 1}


def test_reset_forgets_the_scope_and_zeroes_the_counters(memo):
    memo.within("a").get_or_make("k", str, 1)
    memo.get_or_make("k", str, 1)
    memo.reset()
    assert memo.scope is None
    assert memo.stats() == {"hits": 0, "misses": 0, "size": 0}
    # the old scope is new again and is stored once more
    memo.within("a").get_or_make("k", str, 2)
    assert memo == {"k": "2"} and memo.scope == "a"
    assert memo.stats() == {"hits": 0, "misses": 1, "size": 1}


def test_a_name_registered_again_replaces_its_table(memo):
    memo.get_or_make("k", str, 1)
    again = Memo(memo.name)
    assert MEMOS[memo.name] is again
    again.get_or_make("k", str, 2)
    assert iquantum.cache_stats()[memo.name] == again.stats()
    iquantum.clear_caches()
    assert again == {} and memo == {"k": "1"}


# Imports every submodule, records len() of each module-level dict, list and
# set, fills the memos (a pair and a klr product on every built-in, products
# on several distinct Q-tables), clears the caches and prints the lengths
# before, after the work and after the clear.
_STATE_SCRIPT = r"""
import contextlib, importlib, io, json, pkgutil, sys
import iquantum
for info in pkgutil.iter_modules(iquantum.__path__):
    if info.name != "__main__":
        importlib.import_module("iquantum." + info.name)
from iquantum import cli, klr
from iquantum.standard import STANDARD, split_a2

def lengths():
    return {
        f"{name}.{attr}": len(value)
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "iquantum"
        for attr, value in vars(mod).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }

start = lengths()
with contextlib.redirect_stdout(io.StringIO()):
    for name in STANDARD:
        assert cli.run(["pair", "--config", name, "--i", "1 1", "--j", "1 1", "--lambda", "L0"]) == 0
        assert cli.run(["klr", "--config", name, "--expr", "e(1 1 1) ; x1 ; s1 ; s2 ; s1"]) == 0
x, y = klr.crossing(("2", "1"), 1), klr.crossing(("1", "2"), 1)
for orientation in (None, {("2", "1"): 1}, {("1", "2"): 1}):
    for convention in ("body", "intro"):
        qt = klr.geometric_qtable(split_a2(), orientation, convention)
        klr.mul(qt, klr.mul(qt, x, y), klr.dot(("1", "2"), 1))
worked = lengths()
iquantum.clear_caches()
print(json.dumps([start, worked, lengths()]))
"""


def test_no_package_state_survives_clear_caches():
    proc = subprocess.run(
        [sys.executable, "-c", _STATE_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    start, worked, cleared = json.loads(proc.stdout)
    assert set(start) == set(worked) == set(cleared)
    # the snapshot sees every memo, and the work filled those it reaches
    for name in MEMOS:
        if not name.startswith("test."):
            assert f"iquantum.{name}" in start, name
    assert all(worked[f"iquantum.{name}"] > 0 for name in ("freealg._WORD_PAIR_CACHE", "klr._STEP_MEMO"))
    assert {name: n for name, n in cleared.items() if n != start[name]} == {}
