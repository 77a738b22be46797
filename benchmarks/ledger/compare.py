"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/ledger/compare.py A.json B.json

A and B are files that ``run.py --json`` appended to: one line per run
of a workload, as many runs (seeds) as were made.  For every workload
and end-to-end metric this prints both medians, B's as a ratio of A's
(A is the base), each side's spread (distance between the quartiles of
its runs as a share of their median), the bound, and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — either side's spread is wider than the bound, so the
  runs cannot tell.

More failed operations in B than in A is ``worse`` whatever the
timings.  Exits 1 if any line is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

import stats
from metrics import END_TO_END, WORKLOADS


def load(path: str) -> Dict[str, List[dict]]:
    """Workload -> its untraced run records, in file order."""
    runs: Dict[str, List[dict]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(base: List[float], other: List[float], better: str,
            bound: float) -> Tuple[str, float, Optional[float],
                                   Optional[float]]:
    """(verdict, other/base ratio of medians, base spread, other spread)."""
    ratio = stats.median(other) / stats.median(base)
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = (stats.spread(base), stats.spread(other))
    if any(s is not None and s > bound for s in spreads):
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "ok"
    return word, ratio, spreads[0], spreads[1]


def _share(value: Optional[float]) -> str:
    return "    n/a" if value is None else f"{value:7.1%}"


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]]) -> int:
    """Print the table; the number of ``worse`` lines."""
    worse = 0
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  "
          "verdict")
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        runs_a, runs_b = a[workload], b[workload]
        for name, (unit, better, bound) in END_TO_END.items():
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            word, ratio, sa, sb = verdict(va, vb, better, bound)
            worse += word == "worse"
            print(f"{workload:14s} {name:12s} {stats.median(va):12.5f} "
                  f"{stats.median(vb):12.5f} {ratio:7.3f} {_share(sa)}  "
                  f"{_share(sb)}  {bound:6.0%}  {word}  "
                  f"({unit}, n={len(va)}/{len(vb)})")
        fa = sum(r["failed"] for r in runs_a) / sum(
            r["attempted"] for r in runs_a)
        fb = sum(r["failed"] for r in runs_b) / sum(
            r["attempted"] for r in runs_b)
        word = "worse" if fb > fa else "ok"
        worse += word == "worse"
        print(f"{workload:14s} {'failed_frac':12s} {fa:12.5f} {fb:12.5f} "
              f"{'':7s} {'':8s} {'':8s} {'any':>6s}  {word}")
    return worse


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(load(argv[1]), load(argv[2])) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
