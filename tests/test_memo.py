"""The memo protocol: one counted get-or-make path and one scope rule."""

import pytest

import iquantum
from iquantum.memo import MEMOS, Memo


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
