"""One test per published cross-check, in the order the harness runs them.

Every comparison inside these checks is exact structural equality of
canonical rational forms; there is no tolerance anywhere.  Each case prints
its one-line summary so a verbose run reads like `python -m iquantum
selftest`, and the final case asserts the whole sweep fit the time budget.
The detail strings are pinned byte for byte by the ``selftest`` and
``selftest --json`` calls of the contract record (tests/test_contract.py),
so a count that drifts fails there.
"""

import time

import pytest

from iquantum import selftest

_T0 = time.monotonic()

_IDS = [
    f"{k:02d} {title.replace(' ', '-')}"
    for k, (title, _) in enumerate(selftest.CRITERIA, start=1)
]


@pytest.mark.parametrize("title,fn", selftest.CRITERIA, ids=_IDS)
def test_criterion(title, fn):
    ok, detail = fn()
    line = f"{'pass' if ok else 'FAIL'}  {title}: {detail}"
    print(line)
    assert ok, line


def test_runtime_budget():
    # the whole suite above is meant to stay interactive
    elapsed = time.monotonic() - _T0
    print(f"acceptance sweep took {elapsed:.1f}s")
    assert elapsed < 120.0
