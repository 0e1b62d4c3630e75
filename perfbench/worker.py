"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so the package's module-level
caches (``_WORD_PAIR_CACHE``, ``_PSI_CACHE``, ``_ENTRY_CACHE``,
``_ELEM_CACHE``, ``_FIELDS``) start empty and every pass pays for filling
them, as every CLI call does.  A pass is a closed loop with one client: set
up, then run the seeded items one after another.  ``--seconds`` fixes how
many (``workloads.item_count``), so passes with the same arguments do the
same work.  The last stdout line is one JSON object with the raw
measurements.

A short calibration loop runs before set-up, after set-up and after every
item.  Its time over ``CAL_REF_S`` is the machine's speed factor at that
moment (1 at the reference speed, about 1.7 when a busy neighbour shares
the core); ``run.py`` divides each wall time by the factor measured around
it.

With ``--trace`` the layer wrappers are installed for the loop only, spans
are written to ``.perfbench/`` in the checkout, and the JSON carries the
per-layer totals.  Without it nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"
INTERPRETER_PROBES = 5
MAX_ERRORS = 5
CAL_ITERS = 8000
# calibration-loop time on an uncontended core of the machine in machine.json
CAL_REF_S = 0.0013


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kind the package does: dict updates
    and small-integer arithmetic.  It never changes, so its time tracks only
    how fast the machine runs Python at the moment."""
    d: dict[int, int] = {}
    s = 0
    for i in range(CAL_ITERS):
        d[i % 97] = d.get(i % 97, 0) + i
        s += i * i % 7
    return s


def speed_factor() -> float:
    t0 = perf_counter()
    _calibration_loop()
    return (perf_counter() - t0) / CAL_REF_S


def setup(workload: str, seed: int, seconds: float):
    """Import the package, build data, iweights, Q-tables and the seeded
    inputs.  Returns the workload, context, items, set-up seconds, the speed
    factor around set-up and the seconds spent importing ``iquantum.cli``."""
    before = speed_factor()
    t0 = perf_counter()
    import iquantum.cli  # noqa: F401  (pulls in every layer, sympy included)

    import_s = perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[workload]
    ctx = workloads.build_context(ROOT)
    items = workloads.generate(workload, seed, ctx, workloads.item_count(workload, seconds))
    setup_s = perf_counter() - t0
    return wl, ctx, items, setup_s, (before + speed_factor()) / 2, import_s


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _interpreter_start_s() -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERPRETER_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    import layers

    wl, ctx, items, setup_s, setup_speed, import_s = setup(workload, seed, seconds)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(layers.TARGETS)
        ctx.trace_children = True
        tracer.install()
    start_sizes = layers.cache_sizes()
    latencies, speeds, oks, digests, errors, growth = [], [], [], [], [], []
    speed = speed_factor()
    try:
        for k, item in enumerate(items):
            before = layers.cache_sizes()
            out: list[str] = []
            t0 = perf_counter()
            with tracer.open_item(k) if tracer else contextlib.nullcontext():
                try:
                    ok = wl.run(ctx, item, out)
                except Exception as exc:  # a failing item is a result, not a crash
                    ok = False
                    errors.append(f"{item.describe()}: {type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t0)
            after_speed = speed_factor()
            speeds.append((speed + after_speed) / 2)
            speed = after_speed
            oks.append(bool(ok))
            digests.append(_digest("\n".join(out)))
            after = layers.cache_sizes()
            growth.append({c: after[c] - before[c] for c in after if after[c] != before[c]})
    finally:
        if tracer:
            tracer.remove()
    final_sizes = layers.cache_sizes()
    if wl.finish is not None:
        wl.finish(ctx, items, oks)
    for item, ok in zip(items, oks):
        if not ok and len(errors) < MAX_ERRORS:
            errors.append(f"{item.describe()}: routes disagree")
    who = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "import_s": import_s,
        "latencies_s": latencies,
        "speeds": speeds,
        "ok": oks,
        "errors": errors[:MAX_ERRORS],
        "digest": _digest("".join(digests)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer:
        totals = tracer.totals()
        run_growth = {c: final_sizes[c] - start_sizes[c] for c in final_sizes}
        cli_s = {"import_s": import_s}
        if ctx.child_stats:
            for st in ctx.child_stats:
                layers.merge_totals(totals, st["totals"])
                for c, n in st["caches"].items():
                    run_growth[c] = run_growth.get(c, 0) + n
            cli_s["import_s"] = statistics.median(st["import_s"] for st in ctx.child_stats)
            cli_s["interpreter_s"] = _interpreter_start_s()
        items_s = sum(latencies)
        result["trace"] = {
            "totals": totals,
            "growth": run_growth,
            "final": final_sizes,
            "cli_s": cli_s,
            "shares": {
                "iuea.b_word": tracer.inclusive_s("iuea.b_word") / items_s,
                "shapes.degree+satake.apply_word": (
                    totals.get("shapes.degree", {}).get("self_s", 0.0)
                    + totals.get("satake.apply_word", {}).get("self_s", 0.0)
                )
                / items_s,
                "klr.mul": tracer.inclusive_s("klr.mul") / items_s,
                "cli.import_s": (
                    cli_s["import_s"] / statistics.median(latencies) if ctx.child_stats else 0.0
                ),
            },
        }
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["sid", "name", "start", "end", "parent", "item", "leaf_s"],
                    "spans": [
                        [s.sid, s.name, s.start, s.end, s.parent, s.item, s.leaf_s]
                        for s in tracer.spans
                    ],
                    "totals": totals,
                    "cache_growth_per_item": growth,
                },
                fh,
            )
        result["trace"]["file"] = str(path.relative_to(ROOT))
    return result


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.setup_only:
        _, _, _, setup_s, setup_speed, _ = setup(args.workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
