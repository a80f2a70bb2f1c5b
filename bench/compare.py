#!/usr/bin/env python3
"""Compare two benchmark result sets (parent, change) metric by metric.

    python3 bench/compare.py parent.json change.json

Both sets come from ``collect.py`` (ideally one call with ``--parent``, so
the runs are alternating pairs). Runs are paired by workload and seed.
For every (workload, metric) pair it prints the medians and quartiles of
both sides, the change's wins, and a verdict:

- improved: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither side) and the medians differ by more than the
  parent's quartile spread (q3 - q1);
- regressed: an end-to-end median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json; for a per-layer metric, the
  parent wins by the improved rule;
- unresolved: an end-to-end metric whose run-to-run spread, (q3 - q1) /
  median on either side, is wider than its bound, unless every change run
  beats every parent run; a per-layer metric that is neither;
- unchanged: otherwise.

End-to-end metrics are read from ``--trace 0`` runs, per-layer metrics
from ``--trace 1`` runs. Exits 1 when an end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def section_pairs(parent: dict, change: dict, section: str) -> dict:
    """(workload, metric) -> [(parent value, change value)] by seed."""
    trace = 1 if section == "per_layer" else 0

    def index(result_set):
        return {(r["workload"], r["seed"]): r[section]
                for r in result_set["runs"]
                if r["trace"] == trace and section in r}

    p_runs, c_runs = index(parent), index(change)
    pairs = {}
    for key in sorted(set(p_runs) & set(c_runs)):
        workload = key[0]
        for name, p_value in p_runs[key].items():
            if name in c_runs[key]:
                pairs.setdefault((workload, name), []).append(
                    (p_value, c_runs[key][name]))
    return pairs


def _wins(pairs, sign) -> tuple:
    """(change wins, parent wins); sign = +1 when higher is better."""
    change = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent = sum(1 for p, c in pairs if sign * (p - c) > 0)
    return change, parent


def _clear_win(pairs, sign, winner_wins, winner_med, loser_med, loser_iqr) -> bool:
    """At least 9/10 wins over at least 10 pairs, and a median gap wider
    than the loser's quartile spread, in the winner's favour."""
    return (len(pairs) >= MIN_PAIRS and winner_wins >= WIN_SHARE * len(pairs)
            and sign * (winner_med - loser_med) > loser_iqr)


def verdict(pairs: list, better: str, bound=None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_vals = [p for p, _ in pairs]
    c_vals = [c for _, c in pairs]
    p1, p_med, p3 = quartiles(p_vals)
    c1, c_med, c3 = quartiles(c_vals)
    c_wins, p_wins = _wins(pairs, sign)
    if _clear_win(pairs, sign, c_wins, c_med, p_med, p3 - p1):
        return "improved"
    if bound is None:
        if len(set(p_vals)) == 1 and len(set(c_vals)) == 1:
            # a count that repeats exactly on both sides
            if p_vals[0] == c_vals[0]:
                return "unchanged"
            return "improved" if sign * (c_vals[0] - p_vals[0]) > 0 else "regressed"
        if _clear_win(pairs, -sign, p_wins, p_med, c_med, c3 - c1):
            return "regressed"
        return "unchanged" if abs(c_med - p_med) <= p3 - p1 else "unresolved"
    spreads = [(q3 - q1) / med if med else float("inf")
               for q1, med, q3 in ((p1, p_med, p3), (c1, c_med, c3))]
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if max(spreads) > bound and not all_better:
        return "unresolved"
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return "regressed" if worse_by > bound else "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list:
    """Rows (workload, metric, parent quartiles, change quartiles, change
    wins, pairs, verdict)."""
    rows = []
    for section in ("end_to_end", "per_layer"):
        meta = {m["name"]: m for m in spec[section]}
        for (workload, name), pairs in section_pairs(parent, change, section).items():
            if name not in meta:
                continue
            m = meta[name]
            sign = 1.0 if m["better"] == "higher" else -1.0
            rows.append((workload, name,
                         quartiles([p for p, _ in pairs]),
                         quartiles([c for _, c in pairs]),
                         _wins(pairs, sign)[0], len(pairs),
                         verdict(pairs, m["better"], m.get("bound"))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    ns = parser.parse_args(argv)
    parent = json.loads(Path(ns.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(ns.change).read_text(encoding="utf-8"))
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    regressed = False
    print(f"parent {parent['env']['git_commit']}  change {change['env']['git_commit']}")
    rows = compare(parent, change, spec)
    if not rows:
        print("error: the sets share no (workload, seed) runs to pair",
              file=sys.stderr)
        return 2
    for workload, name, pq, cq, wins, n, result in rows:
        print(f"{workload:<14} {name:<28} parent {pq[1]:>11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
              f"  change {cq[1]:>11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
              f"  wins {wins}/{n}  {result}")
        regressed |= result == "regressed" and name in end_to_end
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
