"""Benchmark of the iquantum cross-checking engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--seconds`` sets how many seeded items
a run does: whole rounds that take about that long on the machine in
``machine.json``, so the same seed always does the same work.

``--trace 0`` measures the end-to-end metrics in one pass of a fresh
interpreter, plus ``SETUP_RUNS - 1`` set-up-only interpreters for the
median set-up time.  Times are reported at the reference speed: each wall
time is divided by the speed factor a calibration loop measured around it
(``worker.speed_factor``), because the CPU speed of a shared machine drifts
by tens of percent within seconds and raw wall times record that drift
rather than the program.  The raw wall figures are printed beside them.
Every process of the run is pinned to one CPU, so the calibration loop and
the items it calibrates run on the same one.

``--trace 1`` runs one untraced pass, then a traced pass over the same
items, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced time of the items, at the reference speed).

Every item checks its routes by exact equality; any failure makes the exit
code 1.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it print each metric
by name and unit, the output digest and the toolchain.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pairing_sweep", "shape_series", "operator_products", "cli_cold")
# set-up samples: SETUP_RUNS - 1 set-up-only interpreters plus the measured pass
SETUP_RUNS = 5
# the whole command must end within 180 s, a stuck pass included
DEADLINE_S = 170
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker(deadline: float, *args: str) -> dict:
    """Run one worker pass.  It gets its own process group, so a pass that
    overruns the deadline is killed together with any CLI child it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"pass ran past the deadline: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({' '.join(args)}):\n{err.decode()[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it: (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n, n


def toolchain() -> str:
    try:
        sym = f"sympy {importlib.metadata.version('sympy')}"
    except importlib.metadata.PackageNotFoundError:
        sym = "sympy missing"
    fast = [m for m in ("gmpy2", "flint") if importlib.util.find_spec(m)]
    sym += f" (ground types from {', '.join(fast)})" if fast else " (pure-Python ground types)"
    return (
        f"nproc {os.cpu_count()}, {platform.python_implementation()} "
        f"{platform.python_version()}, {sym}, {platform.machine()}"
    )


def reference_times(res: dict) -> list[float]:
    """Item latencies divided by the speed factor measured around each."""
    return [t / f for t, f in zip(res["latencies_s"], res["speeds"])]


def end_to_end(res: dict, setups: list[dict]) -> tuple[dict, str]:
    lat = reference_times(res)
    passed = sum(res["ok"])
    value, pct, n = tail(lat)
    vals = {
        "setup_s": statistics.median(r["setup_s"] / r["setup_speed"] for r in setups),
        "checks_per_s": passed / sum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_tail_ms": 1000 * value,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": passed / len(lat),
    }
    wall_value, _, _ = tail(res["latencies_s"])
    note = (
        f"{n} items; item_tail_ms is p{pct:.1f}, {min(TAIL_BEYOND, n - 1)} samples beyond it\n"
        f"raw wall: setup_s {statistics.median(r['setup_s'] for r in setups):.4g}, "
        f"checks_per_s {passed / sum(res['latencies_s']):.4g}, "
        f"item_p50_ms {1000 * statistics.median(res['latencies_s']):.4g}, "
        f"item_tail_ms {1000 * wall_value:.4g}; "
        f"median speed factor {statistics.median(res['speeds']):.3f}"
    )
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in vals.items()}, note


def _pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    p = argparse.ArgumentParser(description="iquantum benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "iquantum" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'iquantum'}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            runs = [_worker(deadline, *common), _worker(deadline, *common, "--trace")]
        else:
            setups = [_worker(deadline, *common, "--setup-only") for _ in range(SETUP_RUNS - 1)]
            runs = [_worker(deadline, *common)]
            setups.append(runs[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base = runs[0]
    attempted = sum(len(r["ok"]) for r in runs)
    failed = sum(len(r["ok"]) - sum(r["ok"]) for r in runs)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, one client")
    print(f"toolchain: {toolchain()}")
    print(f"digest {base['digest']} over {len(base['ok'])} items")
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {err}")
    for r in runs[1:]:
        # the traced pass runs the same seeded items and must compute the same outputs
        if r["digest"] != base["digest"]:
            print(f"FAILED digest {r['digest']} of the traced pass differs")
            failed += 1
    if args.trace:
        traced = runs[1]
        tr = traced["trace"]
        overhead = sum(reference_times(traced)) - sum(reference_times(base))
        metrics = layers.layer_metrics(
            tr["totals"], tr["growth"], tr["final"], tr["cli_s"], overhead
        )
        applicable = {name: args.workload in wls for name, _, wls in layers.PER_LAYER}
        for name, m in metrics.items():
            mark = "" if applicable[name] else "  (not applicable on this workload)"
            print(f"{name} = {m['value']:.6g} {m['unit']}{mark}")
        print(
            f"tracing overhead {overhead:.3f} s on {sum(reference_times(base)):.3f} s untraced "
            f"({len(base['ok'])} items, reference speed); spans in {tr['file']}"
        )
        print("share of item time: " + ", ".join(f"{k} {v:.1%}" for k, v in tr["shares"].items()))
    else:
        metrics, note = end_to_end(base, setups)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"failed_frac = {failed / attempted:.6g} ratio")
        print(note)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
