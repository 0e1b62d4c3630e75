"""The paired benchmark runner of tools/bench_pairs.py: the command it writes
into its BENCH file runs the seeds that were run."""

import importlib.util
import json
import shlex
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("seeds", ["1751-1760", "1751,1753,1760"])
def test_the_written_command_runs_the_same_seeds(monkeypatch, tmp_path, seeds):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "checks_per_s", "better": "higher"}]})
    )

    def run_once(root, workload, seed, seconds):
        return {"exit": 0, "digest": "d", "failed": 0, "values": {"checks_per_s": seed}}

    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path), "--change", str(tmp_path),
        "--workload", "w", "--seeds", seeds, "--out", str(out),
    ])
    assert bench_pairs.main() == 0
    result = json.loads(out.read_text())["workloads"]["w"]
    argv = shlex.split(result["command"])
    written = argv[argv.index("--seeds") + 1]
    assert bench_pairs.parse_seeds(written) == result["seeds"] == bench_pairs.parse_seeds(seeds)
