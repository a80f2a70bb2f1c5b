#!/usr/bin/env python3
"""Run the benchmark over several seeds and save the runs as a result set.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds S] --out set.json
                             [--parent DIR --parent-out parent.json]

Each run is ``bench/run.py`` in a fresh process; the result set holds an
environment block and every run's full result. With ``--parent``, the same
benchmark code also measures the checkout at DIR (its ``src/``), in
alternating pairs: on even seeds the parent runs first, on odd seeds the
change does. The summary prints, per workload and metric, the median and
the quartile spread (q3 - q1) / median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from envinfo import environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """One benchmark run against the sources in root/src."""
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
        out = Path(tmp) / "result.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out), "--root", str(root)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["run_elapsed_s"] = time.perf_counter() - t0
        return result


def metric_values(runs: list, workload: str, section: str) -> dict:
    """metric -> values over the runs of one workload."""
    values = {}
    for r in runs:
        if r["workload"] == workload and section in r:
            for name, value in r[section].items():
                values.setdefault(name, []).append(value)
    return values


def spread(values: list) -> float:
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize(result_set: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = result_set["runs"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for section in ("end_to_end", "per_layer"):
            for name, vals in metric_values(runs, workload, section).items():
                if section == "per_layer" and not any(vals):
                    continue
                s = spread(vals)
                note = ""
                if name in bounds:
                    note = ("ok" if s < bounds[name] / 3
                            else "WIDE" if s > bounds[name] else "near bound")
                print(f"{workload:<14} {name:<28} median {statistics.median(vals):>12.6g}"
                      f"  spread {s:8.4f}  {note}")
        failed = sum(r["failed"] for r in runs if r["workload"] == workload)
        print(f"{workload:<14} failed operations: {failed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", help="checkout root of the parent commit")
    parser.add_argument("--parent-out")
    ns = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (ns.workloads.split(",") if ns.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = ns.seconds if ns.seconds is not None else spec["run_seconds"]
    if ns.parent and not ns.parent_out:
        parser.error("--parent needs --parent-out")
    sides = {"change": ROOT}
    if ns.parent:
        sides["parent"] = Path(ns.parent).resolve()
    sets = {side: {"env": environment(root), "benchmark": spec, "runs": []}
            for side, root in sides.items()}
    for root in sides.values():
        (root / ".bench_out").mkdir(exist_ok=True)
    for seed in parse_seeds(ns.seeds):
        order = list(sides)
        if seed % 2 == 0:
            order.reverse()
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed, seconds, ns.trace)
                result["order"] = order.index(side)
                sets[side]["runs"].append(result)
                print(f"[{side}] {workload} seed {seed}: "
                      + json.dumps(result["result"]["metrics"])[:200],
                      file=sys.stderr)
    Path(ns.out).write_text(json.dumps(sets["change"], indent=1), encoding="utf-8")
    if ns.parent:
        Path(ns.parent_out).write_text(json.dumps(sets["parent"], indent=1),
                                       encoding="utf-8")
    for side, result_set in sets.items():
        print(f"== {side} ({result_set['env']['git_commit']})")
        summarize(result_set, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
