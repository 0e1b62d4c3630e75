"""Paired parent/change runs of the benchmark, written to one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 1751-1760 [--seconds 16] --out BENCH_N.json

DIR is the root of a checkout (an archive of the parent commit, a copy of
the changed tree).  Each seed is one pair: ``perfbench/run.py`` of that
checkout runs once on each side, one run at a time, and the side that runs
first alternates from pair to pair, so a drift of the machine's speed
spreads over both.  Every run uses the runner and metric list of its own
checkout, and the better direction of each metric comes from the change's
``BENCHMARK.json``.

For every end-to-end metric the file records both sides' values in seed
order, their quartiles, the ratio of the medians (change / parent) and how
many pairs the change won; per workload it records the digest of each run
and whether the two sides agree on every seed.  An existing ``--out`` file
keeps its other keys and workloads, so one file can collect several
workloads and notes written by hand.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1751-1760' or '1751,1753,1760'."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def format_seeds(seeds: list[int]) -> str:
    """The --seeds text that parse_seeds reads back to seeds: 'a-b' for a
    contiguous ascending run, a comma list otherwise."""
    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}-{seeds[-1]}"
    return ",".join(str(s) for s in seeds)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in root: exit code, digest and the
    end-to-end metric values of its last stdout line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {
        "exit": proc.returncode,
        "digest": digest,
        "failed": summary.get("failed"),
        "values": {k: m["value"] for k, m in summary.get("metrics", {}).items()},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(med, 5), "q3": round(q3, 5)}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: the values of both sides, their quartiles, the ratio of
    the medians and the pairs the change won."""
    out = {}
    for name in runs["change"][0]["values"]:
        vals = {s: [round(r["values"][name], 5) for r in runs[s]] for s in SIDES}
        higher = better.get(name, "lower") == "higher"
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"])
        )
        pq, cq = quartiles(vals["parent"]), quartiles(vals["change"])
        out[name] = {
            **vals,
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "ratio_of_medians": round(cq["median"] / pq["median"], 4) if pq["median"] else None,
            "change_wins": f"{wins}/{len(vals['parent'])}",
            "better": "higher" if higher else "lower",
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": args.parent, "change": args.change}

    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    first = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            r = run_once(roots[side], args.workload, seed, args.seconds)
            runs[side].append(r)
            shown = ", ".join(f"{n} {v:.4g}" for n, v in r["values"].items())
            print(f"{args.workload} seed {seed} {side}: exit {r['exit']}; {shown}", flush=True)
        if not all(runs[s][-1]["values"] for s in SIDES):
            print(f"error: a run of seed {seed} printed no metrics", file=sys.stderr)
            return 1

    digests = {
        str(seed): {s: runs[s][k]["digest"] for s in SIDES} for k, seed in enumerate(args.seeds)
    }
    result = {
        "command": (
            f"python3 tools/bench_pairs.py --parent PARENT --change CHANGE --workload "
            f"{args.workload} --seeds {format_seeds(args.seeds)} --seconds {args.seconds:g}"
        ),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "first_side": first,
        "digests_identical": all(d["parent"] == d["change"] for d in digests.values()),
        "digests": digests,
        "failed": {s: sum(r["failed"] or 0 for r in runs[s]) for s in SIDES},
        "exit_codes": {s: sorted({r["exit"] for r in runs[s]}) for s in SIDES},
        "metrics": summarize(runs, better),
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = result
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.workload} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
