"""One test per published cross-check, in the order the harness runs them.

The checks are not recomputed here.  The contract record
(tests/golden/contract.json) holds the output of ``selftest`` and
``selftest --json``, and tests/test_contract.py replays both calls and
requires the live output to match the record byte for byte.  These tests
require each recorded criterion to be the one ``selftest.CRITERIA`` lists
at its place and to read as a pass, so the record cannot be regenerated
over a failing check without a test failing.
"""

import json
from pathlib import Path

import pytest

from iquantum import selftest

RECORD = json.loads((Path(__file__).parent / "golden" / "contract.json").read_text(encoding="utf-8"))
_TITLES = [title for title, _ in selftest.CRITERIA]
_IDS = [
    f"{k:02d} {title.replace(' ', '-')}" for k, title in enumerate(_TITLES, start=1)
]


def _recorded(argv: list[str]) -> dict:
    (call,) = [call for call in RECORD["calls"] if call["argv"] == argv]
    return call


@pytest.mark.parametrize("k,title", enumerate(_TITLES), ids=_IDS)
def test_criterion(k, title):
    text = _recorded(["selftest"])
    report = _recorded(["selftest", "--json"])
    assert text["exit"] == report["exit"] == 0
    check = json.loads(report["stdout"])["checks"][k]
    line = text["stdout"].splitlines()[k]
    print(line)
    assert check["title"] == title
    assert check["ok"] is True, line
    assert line == f"[{k + 1:2d}/{len(_TITLES)}] pass  {title}: {check['detail']}"
