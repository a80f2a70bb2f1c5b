#!/usr/bin/env python3
"""Run one sinailab benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--out result.json]

Run from the root of a checkout: sinailab is imported from ``src/``. The
inputs come from ``--seed`` only. The run measures set-up time in fresh
interpreters, then repeats one job in-process for ``--seconds`` seconds
(at least three times) and checks every job's outputs against the
workload's analytic oracle. Times are scaled to a reference host speed
by ``hostspeed``'s reference kernel: each set-up probe runs it right
after its set-up, and the run runs it before every job and once after
the last. ``setup_s`` and ``wall_s`` are medians of the scaled times.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``). With ``--trace 1`` untraced
and traced jobs alternate, and it carries the per-layer metrics from the
traced jobs plus ``trace.overhead_frac``. The lines before it print every
metric with its unit, ``failed_frac`` and ``oracle_err`` included.
Traced spans are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans

BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 7
MIN_TIMED_JOBS = 3
MIN_TRACED_PAIRS = 2
PROBE_TIMEOUT_S = 60


def load_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure_setup(name: str, inputs_path: Path, env: dict, root: Path) -> tuple:
    """Seconds from spawning a fresh interpreter until the probe has
    imported sinailab and prepared the inputs, and the reference kernel's
    seconds, run by each probe right after; one untimed warm-up probe
    first (it also compiles the bytecode)."""
    cmd = [sys.executable, str(BENCH / "probe.py"), name, str(inputs_path)]
    samples, kernels = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=root, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            kernel = proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if i:
            samples.append(t1 - t0)
            kernels.append(float(kernel))
    return samples, kernels


class Runner:
    """Runs one workload's jobs and tallies their oracle outcomes."""

    def __init__(self, workload, inputs: dict, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.spool = workdir / "spool"
        self.spool.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.oracle_err = 0.0
        self.jobs = 0

    def _run_checked(self):
        from sinailab import SinaiLabError
        from workloads import Outcome

        t0 = time.perf_counter()
        try:
            result = self.workload.job(self.inputs)
        except SinaiLabError:
            result = None
        wall = time.perf_counter() - t0
        outcome = (Outcome(1, 1, float("inf")) if result is None
                   else self.workload.check(self.inputs, result))
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.oracle_err = max(self.oracle_err, outcome.oracle_err)
        return wall

    def plain_job(self) -> tuple:
        """(wall seconds, worker memory growth in KiB) of an untraced job."""
        self.jobs += 1
        probe = spans.install_rss_probe(self.spool, self.jobs)
        try:
            wall = self._run_checked()
        finally:
            probe.restore()
        return wall, spans.worker_growth_kb(self.spool, self.jobs)

    def traced_job(self, tracer) -> tuple:
        """(wall seconds, spans) of a traced job."""
        self.jobs += 1
        patch = spans.install_tracer(tracer)
        try:
            root = tracer.begin_job(self.jobs)
            wall = self._run_checked()
            job_spans = tracer.end_job(root)
        finally:
            patch.restore()
        return wall, job_spans


def run(ns, root: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[ns.workload]
    out_dir = root / ".bench_out"
    workdir = out_dir / f"{ns.workload}-s{ns.seed}-p{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        inputs = workload.inputs(ns.seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
        setup, setup_kernels = measure_setup(ns.workload, inputs_path, env, root)

        runner = Runner(workload, inputs, workdir)
        tracer = spans.Tracer(runner.spool) if ns.trace else None
        walls, is_traced, kernels = [], [], []
        growth, layer_rows, kept = [], [], []
        t_start = time.perf_counter()
        while True:
            kernels.append(hostspeed.kernel_s(workload.processes))
            trace_job = (tracer is not None
                         and is_traced.count(True) < is_traced.count(False))
            if trace_job:
                wall, job_spans = runner.traced_job(tracer)
                layer_rows.append(spans.job_metrics(job_spans))
                kept.extend(job_spans)
            else:
                wall, grown = runner.plain_job()
                growth.append(grown)
            walls.append(wall)
            is_traced.append(trace_job)
            n_plain, n_traced = is_traced.count(False), is_traced.count(True)
            if tracer is None:
                done = n_plain >= MIN_TIMED_JOBS
            else:
                done = n_traced == n_plain >= MIN_TRACED_PAIRS
            if done and time.perf_counter() - t_start >= ns.seconds:
                break
        kernels.append(hostspeed.kernel_s(workload.processes))
        peak_kb = spans.rss_kb()[1] + max(growth)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scaled = hostspeed.at_reference(walls, kernels)
    plain = [w for w, t in zip(scaled, is_traced) if not t]
    traced = [w for w, t in zip(scaled, is_traced) if t]
    result = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "inputs": inputs,
        "samples": {"setup_s": setup, "setup_kernel_s": setup_kernels,
                    "wall_s": plain, "traced_wall_s": traced,
                    "measured_job_s": walls, "job_traced": is_traced,
                    "job_kernel_s": kernels, "worker_growth_kb": growth},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "oracle_err": runner.oracle_err,
        "failed_frac": runner.failed / runner.attempted,
        "end_to_end": {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(map(hostspeed.scale, setup, setup_kernels)),
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }
    if tracer is not None:
        per_job = {k: [row[k] for row in layer_rows] for k in layer_rows[0]}
        layers = {k: statistics.median(v) for k, v in per_job.items()}
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1.0)
        layers["failed_frac"] = runner.failed / runner.attempted
        layers["oracle_err"] = runner.oracle_err
        result["per_layer"] = layers
        result["per_layer_samples"] = per_job
        spans_path = out_dir / f"spans-{ns.workload}-s{ns.seed}.json"
        spans_path.write_text(json.dumps(kept), encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(root))
    return result


def emit(result: dict, spec: dict, trace_on: bool) -> dict:
    """Print the human-readable table and build the final JSON line."""
    extra = {"failed_frac": result["failed_frac"], "oracle_err": result["oracle_err"]}
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"jobs {len(result['samples']['wall_s'])} untraced, "
          f"{len(result['samples']['traced_wall_s'])} traced")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<28} {result['end_to_end'][m['name']]:>14.6g} {m['unit']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in ("failed_frac", "oracle_err"):
        print(f"  {name:<28} {extra[name]:>14.6g} {units[name]}")
    if trace_on:
        layers = result["per_layer"]
        for m in spec["per_layer"]:
            if m["name"] not in extra:
                print(f"  {m['name']:<28} {layers[m['name']]:>14.6g} {m['unit']}")
        samples = result["samples"]
        share = layers["cli.unattributed_s"] / statistics.median(
            w for w, t in zip(samples["measured_job_s"], samples["job_traced"]) if t)
        if share > 0.10:
            print(f"warning: cli.unattributed_s is {share:.1%} of the traced "
                  "wall time (over 10%)", file=sys.stderr)
        source, names = layers, spec["per_layer"]
    else:
        source, names = result["end_to_end"], spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in names}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result file here")
    parser.add_argument("--root", default=str(BENCH.parent),
                        help="checkout whose src/ is measured (default: the "
                             "one holding this benchmark)")
    ns = parser.parse_args(argv)
    root = Path(ns.root).resolve()
    src = root / "src"
    if not (src / "sinailab" / "__init__.py").is_file():
        print(f"error: no sinailab sources under {src}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("SINAILAB_WORKERS", None)
    spec = load_spec()
    from workloads import WORKLOADS

    if ns.workload not in WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(ns, root)
    line = emit(result, spec, bool(ns.trace))
    if ns.out:
        from envinfo import environment

        result["env"] = environment(root, ns.seed)
        result["result"] = line
        Path(ns.out).write_text(json.dumps(result, indent=1, sort_keys=True),
                                encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
