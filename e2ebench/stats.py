"""Median and quartile summaries.

Run as a script, it summarizes the metrics of the result files that run.py
leaves in e2ebench/out/, per workload, across runs (one per seed):

    python3 e2ebench/stats.py e2ebench/out/result-*-trace0.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summary(values) -> dict:
    """Median, first and third quartile (Python's default 'exclusive'
    method) and sample count; a single sample is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(paths: list[str]) -> None:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        runs[result["workload"]].append(result)
    print("| workload | metric | median | q1 | q3 | (q3 - q1) / median | runs |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for metric in results[0]["metrics"]:
            s = summary(r["metrics"][metric]["value"] for r in results)
            share = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"| {workload} | `{metric}` | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {share:.3f} | {s['n']} |")


if __name__ == "__main__":
    main(sys.argv[1:])
