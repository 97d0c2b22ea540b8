"""Summarize benchmark records across seeds.

    python3 bench/summarize.py [--write bench/baseline.json]

Reads every ``bench/results/*.json`` record and prints, per workload and
metric, the median and quartiles over the untraced runs and the spread
(interquartile distance as a share of the median) that the bound of each
end-to-end metric in BENCHMARK.json must cover. Traced runs contribute the
median of each per-layer metric. ``--write`` also stores the summary, with
the machine description, the per-layer map of ``tracing.PER_LAYER``, and
the bounds, as the baseline of this commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for workload in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry: dict = {
            "seeds": sorted(r["seed"] for r in untraced),
            "input_digests": sorted({r["input_digest"] for r in untraced}),
            "failed": sum(r["failed"] for r in records if r["workload"] == workload),
        }
        if untraced:
            names = set.intersection(*(set(r["figures"]) for r in untraced))
            entry["figures"] = {n: _stats([r["figures"][n] for r in untraced]) for n in sorted(names)}
        if traced:
            entry["per_layer_median"] = {
                name: statistics.median(r["per_layer"][name] for r in traced)
                for name, *_ in tracing.PER_LAYER
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted((BENCH_DIR / "results").glob("*-trace[01].json"))]
    if not records:
        print("no records under bench/results", file=sys.stderr)
        return 1
    bounds = {m["name"]: m["bound"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = summarize(records)
    for workload, entry in summary.items():
        print(f"# {workload}: seeds {entry['seeds']}, failed operations {entry['failed']}")
        for name, s in entry.get("figures", {}).items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}{'  OVER' if s['spread'] > bound / 3 else ''}"
            print(f"  {name:<34} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
                  f"q3 {s['q3']:>12.6g}  spread {s['spread']:.3f}{flag}")
    if args.write:
        env = next(r["env"] for r in records)
        baseline = {
            "env": env,
            "bounds": bounds,
            "workloads": summary,
            "per_layer_map": {
                name: {"unit": unit, "workloads": list(workloads), "moves": moves}
                for name, unit, _better, workloads, moves in tracing.PER_LAYER
            },
        }
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
