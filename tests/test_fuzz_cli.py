"""The command-line fuzzer of tools/fuzz_cli.py: a fixed list of seeds runs
clean, and the harness reports what it is there to report."""

import importlib.util
import time
from pathlib import Path

from iquantum import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fuzz_cli.py"
_spec = importlib.util.spec_from_file_location("fuzz_cli", TOOL)
fuzz_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_cli)


def test_fuzzed_calls_exit_cleanly():
    found = [rep for seed in ("t1", "t2", "t3") for rep in fuzz_cli.fuzz(seed, 100)]
    assert found == []


def test_cases_are_reproducible():
    assert fuzz_cli.make_case("t1", 7) == fuzz_cli.make_case("t1", 7)
    assert fuzz_cli.make_case("t1", 7) != fuzz_cli.make_case("t1", 8)


def test_the_harness_reports_escapes_exit_codes_and_hangs(monkeypatch, tmp_path):
    path = tmp_path / "config.json"
    argv = ["grdim", "--config", "CONFIG", "--end", "--N", "4"]
    doc = fuzz_cli.BUILTINS["qs_a2"]
    assert fuzz_cli.run_case(argv, doc, path, 5) is None
    monkeypatch.setitem(cli._HANDLERS, "grdim", lambda cfg, args: {}["x"])
    assert fuzz_cli.run_case(argv, doc, path, 5).startswith("KeyError: 'x'")
    monkeypatch.setitem(cli._HANDLERS, "grdim", lambda cfg, args: 1)
    assert fuzz_cli.run_case(argv, doc, path, 5) == "exit code 1"
    monkeypatch.setitem(cli._HANDLERS, "grdim", lambda cfg, args: 3)
    assert fuzz_cli.run_case(argv, doc, path, 5) == "exit code 3"
    monkeypatch.setitem(cli._HANDLERS, "grdim", lambda cfg, args: time.sleep(5))
    assert fuzz_cli.run_case(argv, doc, path, 0.1) == "over the 0.1 s limit"
