"""Compare two sets of benchmark records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that ``run.py --out`` wrote for
untraced runs.  Runs pair up by (workload, seed), so run both sides with the
same seeds, alternating which side goes first.  For every workload and
end-to-end metric the table gives each side's median and quartiles, the
pair count, the change's wins and losses, and a verdict:

* ``better``: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile range.
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median).
* ``unresolved``: fewer than 10 pairs, or the parent's own spread (IQR over
  median) is wider than the bound and not every change run beats every
  parent run.
* ``same``: none of the above; the change is within the bound.

Exit code 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict:
    """(workload, seed) -> record, untraced runs only."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    n = len(gains)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    iqr = q3 - q1
    gain = sign * (med_c - med_p)
    scale = abs(med_p)
    worse_share = (-gain / scale if scale else (float("inf") if gain < 0 else 0.0))
    spread = iqr / scale if scale else 0.0
    if n < MIN_PAIRS:
        return "unresolved", wins, losses
    if wins >= WIN_SHARE * n and gain > iqr:
        return "better", wins, losses
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, losses
    if worse_share > bound:
        return "worse", wins, losses
    return "same", wins, losses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark records.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("compare: no (workload, seed) pairs in common", file=sys.stderr)
        return 2

    for side, recs in (("parent", parent), ("change", change)):
        facts = {json.dumps(r["machine"], sort_keys=True) for r in recs.values()}
        print(f"{side}: {len(recs)} records; machine {' | '.join(sorted(facts))}")
    for workload in sorted({w for w, _ in keys}):
        for side, recs in (("parent", parent), ("change", change)):
            designs = {json.dumps(r["designs"], sort_keys=True)
                       for (w, _), r in recs.items() if w == workload}
            print(f"{workload} {side} designs: {' | '.join(sorted(designs))}")

    header = (f"{'workload':<13} {'metric':<22} {'unit':<9} {'parent p50 [q1, q3]':>30} "
              f"{'change p50 [q1, q3]':>30} {'pairs':>5} {'w/l':>7}  verdict")
    print(header)
    any_worse = False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        names = [name for name, m in parent[(workload, seeds[0])]["metrics"].items()
                 if m.get("better") and m.get("bound") is not None]
        for name in names:
            pairs = [(parent[(workload, s)]["metrics"][name]["value"],
                      change[(workload, s)]["metrics"][name]["value"]) for s in seeds
                     if name in change[(workload, s)]["metrics"]]
            if not pairs:
                continue
            meta = parent[(workload, seeds[0])]["metrics"][name]
            p_vals, c_vals = [p for p, _ in pairs], [c for _, c in pairs]
            result, wins, losses = verdict(p_vals, c_vals, meta["better"], meta["bound"])
            any_worse |= result == "worse"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            p_text = f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
            c_text = f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            print(f"{workload:<13} {name:<22} {meta['unit']:<9} {p_text:>30} {c_text:>30} "
                  f"{len(pairs):>5} {wins:>3}/{losses:<3}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
