"""The four benchmark workloads: inputs from a seed, one job, the oracle.

Each workload turns the benchmark seed into program inputs (a CLI argument
list or a sweep config file), runs one job through sinailab's public API
or CLI, and checks the outputs against an analytic oracle. ``check``
returns how many operations were attempted and failed, and the largest
absolute error against the oracle in nats. ``processes`` is how many
processes the job's work runs in; the host-speed kernel runs in as many.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sinailab
from sinailab import cli

LOG_LAM = math.log((3.0 + math.sqrt(5.0)) / 2.0)
LOG2 = math.log(2.0)


def program_seed(seed: int, salt: int) -> int:
    """Seed handed to sinailab, derived from the benchmark seed."""
    return int(np.random.SeedSequence([int(seed), salt]).generate_state(1)[0]) % 2**31


@dataclass
class Outcome:
    attempted: int
    failed: int
    oracle_err: float


def _tally(checks) -> Outcome:
    """Outcome of oracle checks given as (error, tolerance) pairs."""
    failed = sum(1 for err, tol in checks if not err <= tol)
    worst = max((err for err, _ in checks), default=0.0)
    return Outcome(len(checks), failed, worst)


def _quiet_cli(argv) -> int:
    """Run the CLI in-process with its stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# cat-lyapunov: sinailab lyapunov --system cat --steps 1e6
# ---------------------------------------------------------------------------


class CatLyapunov:
    name = "cat-lyapunov"
    processes = 1
    steps = "1e6"
    tolerance = 1e-5

    def inputs(self, seed: int, workdir: Path) -> dict:
        argv = ["lyapunov", "--system", "cat", "--steps", self.steps,
                "--seed", str(program_seed(seed, 1)), "--out", str(workdir / "out")]
        return {"argv": argv, "out": str(workdir / "out")}

    def setup(self, inputs: dict) -> None:
        ns = cli.build_parser().parse_args(inputs["argv"])
        sinailab.build_system(ns.system)

    def job(self, inputs: dict):
        return _quiet_cli(inputs["argv"])

    def check(self, inputs: dict, code) -> Outcome:
        if code != 0:
            return Outcome(1, 1, math.inf)
        spec = json.loads((Path(inputs["out"]) / "spectrum.json").read_text())
        exps = spec["exponents"]
        errs = [abs(exps[0] - LOG_LAM), abs(exps[1] + LOG_LAM)]
        out = _tally([(e, self.tolerance) for e in errs])
        return Outcome(out.attempted + 1, out.failed, out.oracle_err)


# ---------------------------------------------------------------------------
# skew-entropy: birkhoff_sample + cross_validate on the d = 4 skew product
# ---------------------------------------------------------------------------


class SkewEntropy:
    name = "skew-entropy"
    processes = 1
    length = 4_000
    burn_in = 40_000
    n_max = 60
    dim_f = 2
    sum_tolerance = 1e-3
    gap_tolerance = 0.02

    def inputs(self, seed: int, workdir: Path) -> dict:
        return {"seed": program_seed(seed, 2), "length": self.length,
                "burn_in": self.burn_in, "n_max": self.n_max,
                "dim_f": self.dim_f, "K": 0.5, "N": 2}

    def setup(self, inputs: dict):
        return sinailab.make_standard_skew(inputs["K"], inputs["N"])

    def job(self, inputs: dict):
        system = self.setup(inputs)
        measure = sinailab.birkhoff_sample(system, seed=inputs["seed"],
                                           burn_in=inputs["burn_in"],
                                           length=inputs["length"])
        # the spectrum runs along the cloud's own orbit (cross_validate's
        # default provenance), computed here so the oracle can read it
        spectrum = sinailab.benettin_spectrum(system, seed=inputs["seed"],
                                              burn_in=inputs["burn_in"],
                                              n_steps=inputs["length"])
        report = sinailab.cross_validate(system, measure, dim_f=inputs["dim_f"],
                                         n_max=inputs["n_max"],
                                         tolerance=self.gap_tolerance,
                                         spectrum=spectrum)
        return spectrum, report

    def check(self, inputs: dict, result) -> Outcome:
        spectrum, report = result
        checks = [(abs(float(np.sum(spectrum.exponents))), self.sum_tolerance)]
        checks += [(gap, self.gap_tolerance) for gap in report.gaps.values()]
        out = _tally(checks)
        # the three layer calls (sample, spectrum, cross-validation) ran
        return Outcome(out.attempted + 3, out.failed, out.oracle_err)


# ---------------------------------------------------------------------------
# the two sweeps: sinailab sweep --config <generated file>
# ---------------------------------------------------------------------------


class _Sweep:
    config_lines: dict

    @property
    def processes(self) -> int:
        return self.config_lines["workers"]

    def inputs(self, seed: int, workdir: Path) -> dict:
        lines = ["[sweep]", f"seed = {program_seed(seed, self.salt)}"]
        lines += [f"{k} = {v}" for k, v in self.config_lines.items()]
        path = workdir / f"{self.name}.ini"
        workdir.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = workdir / "out"
        return {"config": str(path), "out": str(out),
                "argv": ["sweep", "--config", str(path), "--out", str(out)]}

    def setup(self, inputs: dict):
        return cli.load_sweep_config(inputs["config"])

    def job(self, inputs: dict):
        return _quiet_cli(inputs["argv"])

    def check(self, inputs: dict, code) -> Outcome:
        if code != 0:
            return Outcome(1, 1, math.inf)
        data = json.loads((Path(inputs["out"]) / "sweep.json").read_text())
        rows = data["rows"]
        errors = sum(1 for r in rows if r["error"] is not None)
        out = _tally(self.oracle(rows))
        return Outcome(1 + len(rows) + out.attempted, errors + out.failed,
                       out.oracle_err)


class MpSweep(_Sweep):
    name = "mp-sweep"
    salt = 3
    tolerance = 0.01
    config_lines = {"family": "mp", "grid": "0.0:0.9:10",
                    "estimators": "pesin,ls,jacobian", "length": 10_000,
                    "burn_in": 1_000, "n_max": 40, "workers": 2}

    def oracle(self, rows):
        """h(alpha = 0) is log 2 for every estimator (doubling map)."""
        first = rows[0]
        return [(abs(est["value"] - LOG2), self.tolerance)
                for est in first["estimates"].values()]


class DaUlamSweep(_Sweep):
    name = "da-ulam-sweep"
    salt = 4
    tolerance = 0.02
    config_lines = {"family": "da", "grid": "0.0:0.3:4", "estimators": "all",
                    "ulam_resolution": 128, "length": 20_000,
                    "burn_in": 1_000, "n_max": 40, "workers": 2}

    def oracle(self, rows):
        """The DA bump changes only the stable rate: every estimator at
        every point equals log((3 + sqrt 5) / 2)."""
        return [(abs(est["value"] - LOG_LAM), self.tolerance)
                for row in rows for est in row["estimates"].values()]


WORKLOADS = {w.name: w for w in (CatLyapunov(), SkewEntropy(), MpSweep(),
                                 DaUlamSweep())}
