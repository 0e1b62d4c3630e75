"""Tests of the benchmark's own logic.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)
# cli_cold children find the package the way run.py's passes do
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Span, Tracer, binding_sites, span_self_times  # noqa: E402

import workloads  # noqa: E402  (imports the package)


@pytest.fixture(scope="module")
def ctx():
    return workloads.build_context(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_inputs(ctx, name):
    first = [it.describe() for it in workloads.generate(name, 7, ctx, 30)]
    again = [it.describe() for it in workloads.generate(name, 7, ctx, 30)]
    other = [it.describe() for it in workloads.generate(name, 8, ctx, 30)]
    assert first == again
    assert first != other


def test_seconds_fix_whole_rounds():
    wl = workloads.WORKLOADS["pairing_sweep"]
    assert workloads.item_count("pairing_sweep", 0) == wl.round_len
    assert workloads.item_count("pairing_sweep", 3 * wl.round_s) == 3 * wl.round_len


def test_rounds_keep_the_data_mix_fixed(ctx):
    for seed in (1, 2):
        items = workloads.generate("pairing_sweep", seed, ctx, 12)
        assert sorted(it.datum for it in items[:5]) == sorted(ctx.data)
        assert [it.kind for it in items[:6]] == ["block"] * 5 + ["iserre"]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(1, "item", 0.0, 10.0, 0, 0, 1.0),
        Span(2, "a", 1.0, 5.0, 1, 0, 0.5),
        Span(3, "b", 2.0, 3.0, 2, 0, 0.0),
        Span(4, "c", 6.0, 9.0, 1, 0, 0.25),
    ]
    got = span_self_times(spans)
    assert got == pytest.approx({1: 10 - 4 - 3 - 1.0, 2: 4 - 1 - 0.5, 3: 1.0, 4: 3 - 0.25})


def test_leaf_self_time_excludes_wrapped_callees():
    from iquantum import freealg
    from iquantum.standard import STANDARD

    datum = STANDARD["qs_a2"]()
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.open_item(0):
            freealg._WORD_PAIR_CACHE.clear()
            freealg.pair(
                datum,
                freealg.theta_word(datum, (("1", 1), ("2", 1))),
                freealg.theta_word(datum, (("2", 1), ("1", 1))),
            )
    finally:
        tracer.remove()
    totals = tracer.totals()
    (item,) = tracer.spans
    inside = sum(totals[n]["self_s"] for n in totals if n != "item")
    assert totals["freealg.pair"]["calls"] == 1
    assert totals["freealg._word_pair"]["calls"] >= 2
    assert totals["qring.RatQ"]["calls"] > 0
    # self times of everything under the item add up to the item's leaf time
    assert inside == pytest.approx(item.leaf_s, rel=1e-6, abs=1e-9)


def _all_sites():
    out = []
    for t in layers.TARGETS:
        home = sys.modules[t.module]
        if t.owner is not None:
            cls = getattr(home, t.owner)
            out.append((cls, t.attr, cls.__dict__[t.attr]))
        else:
            orig = getattr(home, t.attr)
            out += [(site, name, orig) for site, name in binding_sites(orig)]
    return out


def test_wrappers_reach_every_binding_site_and_are_removed():
    from iquantum import klr, qring, shapes

    sites = _all_sites()
    names = {(getattr(s, "__name__", ""), n) for s, n, _ in sites}
    for expected in [
        ("iquantum.qring", "expand"),
        ("iquantum.shapes", "expand"),
        ("iquantum.klr", "expand"),
        ("iquantum.satake", "apply_word"),
        ("iquantum.iuea", "apply_word"),
        ("iquantum.shapes", "apply_word"),
    ]:
        assert expected in names
    orig_expand = qring.expand
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        assert shapes.expand is klr.expand is qring.expand
        assert qring.expand is not orig_expand
        assert len(tracer.patched_sites()) == len(sites)
    finally:
        tracer.remove()
    for site, name, orig in sites:
        got = site.__dict__[name] if isinstance(site, type) else getattr(site, name)
        assert got is orig, (site, name)


def test_traced_run_restores_every_original():
    sites = _all_sites()
    res = worker.measure("shape_series", 3, 0, trace=True)
    assert all(res["ok"])
    for site, name, orig in sites:
        got = site.__dict__[name] if isinstance(site, type) else getattr(site, name)
        assert got is orig, (site, name)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_layer_metric_records_on_its_workload(name):
    # one round: every datum, table or subcommand once
    res = worker.measure(name, 5, 0, trace=True)
    assert all(res["ok"]), res["errors"]
    tr = res["trace"]
    metrics = layers.layer_metrics(tr["totals"], tr["growth"], tr["final"], tr["cli_s"], 0.0)
    missing = [
        m
        for m, _, wls in layers.PER_LAYER
        if name in wls and m != "trace.overhead_s" and not metrics[m]["value"] > 0
    ]
    assert not missing


def test_same_seed_gives_the_same_digest():
    a = worker.measure("shape_series", 11, 0)
    b = worker.measure("shape_series", 11, 0)
    c = worker.measure("shape_series", 12, 0)
    assert a["digest"] == b["digest"] != c["digest"]


def test_a_failing_item_is_counted(monkeypatch):
    def broken(ctx, item, out):
        raise ValueError("boom")

    wl = dataclasses.replace(workloads.WORKLOADS["shape_series"], run=broken)
    monkeypatch.setitem(workloads.WORKLOADS, "shape_series", wl)
    res = worker.measure("shape_series", 1, 0)
    assert res["ok"] == [False] * 5
    assert "ValueError: boom" in res["errors"][0]


def test_tail_has_ten_samples_beyond_it():
    lat = [float(k) for k in range(41)]
    value, pct, n = run.tail(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert (value, n) == (30.0, 41)
    assert pct == pytest.approx(100 * 31 / 41)


def test_end_to_end_divides_by_the_speed_factor():
    res = {
        "latencies_s": [0.2, 0.8, 0.3],
        "speeds": [1.0, 2.0, 1.5],
        "ok": [True, False, True],
        "peak_rss_mb": 50.0,
    }
    setups = [{"setup_s": 1.0, "setup_speed": 1.0}, {"setup_s": 3.0, "setup_speed": 1.5},
              {"setup_s": 3.0, "setup_speed": 2.0}]
    metrics, _ = run.end_to_end(res, setups)
    vals = {k: m["value"] for k, m in metrics.items()}
    assert run.reference_times(res) == pytest.approx([0.2, 0.4, 0.2])
    assert vals["item_p50_ms"] == pytest.approx(200.0)
    assert vals["checks_per_s"] == pytest.approx(2 / 0.8)
    assert vals["ok_frac"] == pytest.approx(2 / 3)
    assert vals["setup_s"] == pytest.approx(1.5)
    assert vals["peak_rss_mb"] == 50.0


def test_speed_factor_is_near_one_on_an_idle_core():
    assert 0.2 < min(worker.speed_factor() for _ in range(20)) < 5


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()
    }
    for w in spec["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, u) for n, u, _ in layers.PER_LAYER
    ]
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def test_machine_record_names_the_toolchain():
    rec = json.loads((BENCH / "machine.json").read_text())
    assert set(rec) >= {"nproc", "python", "sympy", "sympy_ground_types"}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shape_series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
