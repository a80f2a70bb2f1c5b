"""Command-line surface: lyapunov, entropy, sweep, and diagnose.

Every command writes its data files plus a run manifest (command, resolved
config, seed, version, wall clock, output digests) into the --out
directory and nowhere else. Reruns with identical flags and seed produce
byte-identical data files; only the manifest's wall-clock field varies.

A run that fails leaves no --out directory. Exit codes: 0 success, 2
usage/config error (a flag value the library rejects with ValueError
included), 3 runtime/orbit error, 4 sweep failure threshold exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    ESTIMATORS,
    JACOBIAN_F,
    LEDRAPPIER_STRELCYN,
    PESIN,
    check_estimator_args,
    combine_estimates,
    run_estimators,
)
from .errors import ConfigError, SinaiLabError, SweepAbortError
from .measures import (
    birkhoff_sample,
    bounded_jacobian_check,
    holder_parameter_check,
    ls1_fit,
    ls2_integral,
    split_log_det_integral,
)
from .oseledets import (_check_splitting, benettin_spectrum, domination_report,
                        estimate_bundles_many)
from .serialize import (
    entropy_csv_rows,
    spectrum_csv_rows,
    sha256_file,
    svg_line_chart,
    sweep_csv_rows,
    write_csv,
    write_json,
)
from .sweep import (
    SweepConfig,
    check_usc_args,
    continuity_modulus,
    run_sweep,
    usc_check,
)
from .systems import FAMILIES, build_system, finite_nonnegative, whole_number

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_SWEEP_FAILURES = 4

_METHOD_ALIASES = {
    "pesin": PESIN,
    "ls": LEDRAPPIER_STRELCYN,
    "jacobian": JACOBIAN_F,
    "all": "all",
}


def _env_workers():
    """SINAILAB_WORKERS as a worker count, or None when unset; ConfigError
    when it is set to anything but a positive integer."""
    text = os.environ.get("SINAILAB_WORKERS")
    if text is not None and not (text.strip().isdigit() and int(text) >= 1):
        raise ConfigError(f"SINAILAB_WORKERS must be a positive integer, got {text!r}")
    return None if text is None else int(text)


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(f"--param {key}: {value!r} is not a number")
    return out


def _system_from_args(ns) -> tuple:
    """(system, params) named by --system and --param; ConfigError when
    the name or a parameter is invalid."""
    params = _parse_params(ns.param)
    try:
        return build_system(ns.system, params), params
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc))


def _steps(text) -> int:
    return whole_number(text, "a step count")


class _Manifest:
    """The run's manifest.json; wall_clock_s counts from started, the
    perf_counter reading main took on entry."""

    def __init__(self, command: str, config: dict, out_dir, started: float):
        self.command = command
        self.config = config
        self.out_dir = Path(out_dir)
        self.outputs = {}
        self.t0 = started

    def open(self) -> Path:
        """Create the output directory, once the results are ready."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir

    def add(self, name: str) -> None:
        self.outputs[name] = sha256_file(self.out_dir / name)

    def write(self) -> None:
        write_json(self.out_dir / "manifest.json", {
            "command": self.command,
            "config": self.config,
            "version": __version__,
            "wall_clock_s": time.perf_counter() - self.t0,
            "outputs": self.outputs,
        })


# ---------------------------------------------------------------------------
# lyapunov
# ---------------------------------------------------------------------------


def cmd_lyapunov(ns) -> int:
    system, params = _system_from_args(ns)
    finite_nonnegative(ns.seed, "--seed")
    config = {"system": ns.system, "params": params, "seed": ns.seed,
              "steps": _steps(ns.steps), "burn_in": _steps(ns.burn_in),
              "blocks": ns.blocks}
    manifest = _Manifest("lyapunov", config, ns.out, ns.started)
    spectrum = benettin_spectrum(system, seed=ns.seed,
                                 burn_in=config["burn_in"],
                                 n_steps=config["steps"], blocks=ns.blocks)
    out = manifest.open()
    write_json(out / "spectrum.json", spectrum.to_json_dict())
    header, rows = spectrum_csv_rows(spectrum)
    write_csv(out / "spectrum.csv", header, rows)
    manifest.add("spectrum.json")
    manifest.add("spectrum.csv")
    manifest.write()
    print("exponents:", " ".join(f"{e:.6f}" for e in spectrum.exponents))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cmd_entropy(ns) -> int:
    system, params = _system_from_args(ns)
    method = _METHOD_ALIASES[ns.method]
    if ns.no_early_stop and method != LEDRAPPIER_STRELCYN:
        raise ConfigError("--no-early-stop applies only to --method ls")
    methods = ESTIMATORS if method == "all" else (method,)
    finite_nonnegative(ns.tol, "--tol")
    finite_nonnegative(ns.seed, "--seed")
    config = {"system": ns.system, "params": params, "seed": ns.seed,
              "method": method, "length": _steps(ns.length),
              "burn_in": _steps(ns.burn_in), "n_max": ns.nmax,
              "dim_f": ns.dimf, "tolerance": ns.tol}
    check_estimator_args(methods, ns.nmax, ns.dimf, system.space.dim, config["length"])
    manifest = _Manifest("entropy", config, ns.out, ns.started)
    measure = birkhoff_sample(system, seed=ns.seed,
                              burn_in=config["burn_in"],
                              length=config["length"])
    estimates, _ = run_estimators(
        system, measure, methods, ns.seed, config["burn_in"], config["length"],
        n_max=ns.nmax, dim_f=ns.dimf, early_stop=not ns.no_early_stop)
    if method == "all":
        report = combine_estimates(*estimates.values(), ns.tol)
        payload = report.to_json_dict()
        verdict = "Sinai-consistent" if report.sinai_consistent else "inconsistent"
        print(f"cross-validation: {verdict}; gaps "
              + " ".join(f"{k}={v:.4f}" for k, v in report.gaps.items()))
    else:
        est = estimates[method]
        payload = est.to_json_dict()
        print(f"{est.method}: {est.value:.6f} (se {est.std_error:.2e})")
    out = manifest.open()
    write_json(out / "entropy.json", payload)
    write_csv(out / "entropy.csv", *entropy_csv_rows(list(estimates.values())))
    manifest.add("entropy.json")
    manifest.add("entropy.csv")
    manifest.write()
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_grid(text: str):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        if count == 1:
            return (start,)
        return tuple(np.linspace(start, stop, count))
    return tuple(float(v) for v in text.split(","))


#: [sweep] keys passed to SweepConfig as they are, with their parsers
_SWEEP_FIELDS = {"seed": int, "burn_in": _steps, "length": _steps,
                 "ulam_resolution": int, "n_max": int, "dim_f": int}
#: [checks] keys, with the usc_check argument each sets and its parser
_CHECKS_FIELDS = {"usc_window": ("window", int), "usc_slack": ("slack", float)}


def load_sweep_config(path, workers=None) -> tuple:
    """Parse the INI-style sweep config; returns (SweepConfig, checks), where
    checks holds the usc_check keyword arguments the [checks] section sets.
    Every value is checked here, before any orbit is drawn.

    The worker count is SINAILAB_WORKERS when set, else `workers` (the
    --workers flag), else the config's, else the machine's CPU count.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        # configparser errors carry line numbers in their messages
        raise ConfigError(f"malformed config: {exc}")
    if not parser.has_section("sweep"):
        raise ConfigError("missing [sweep] section")
    s = parser["sweep"]
    # only the keys the file sets: SweepConfig and usc_check hold the defaults
    fields = {}
    if "estimators" in s:
        try:
            estimators = tuple(_METHOD_ALIASES[e.strip()]
                               for e in s["estimators"].split(",") if e.strip())
        except KeyError as exc:
            raise ConfigError(f"unknown estimator {exc}")
        fields["estimators"] = ESTIMATORS if "all" in estimators else estimators
    env_workers = _env_workers()
    try:
        for key, parse in _SWEEP_FIELDS.items():
            if key in s:
                fields[key] = parse(s[key])
        if workers is None:
            workers = s.getint("workers", fallback=os.cpu_count() or 1)
        config = SweepConfig(
            family=s.get("family", "mp"),
            grid=_parse_grid(s.get("grid", "0.0:0.9:10")),
            workers=env_workers or workers,
            **fields,
        )
        c = parser["checks"] if parser.has_section("checks") else {}
        checks = {arg: parse(c[key]) for key, (arg, parse) in _CHECKS_FIELDS.items()
                  if key in c}
        check_usc_args(**checks)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad sweep config: {exc}")
    return config, checks


def cmd_sweep(ns) -> int:
    config, checks = load_sweep_config(ns.config, workers=ns.workers)
    manifest = _Manifest("sweep", {"config_file": str(ns.config), **config.to_json_dict(),
                                   "workers": config.workers}, ns.out, ns.started)
    result = run_sweep(config)
    payload = result.to_json_dict()
    n_ok = sum(1 for r in result.rows if r.ok)
    if n_ok >= 3:
        report = usc_check(result, **checks)
        payload["usc_check"] = report.to_json_dict()
        print(f"usc_check: {'pass' if report.passed else 'FAIL'} "
              f"({len(report.witnesses)} witnesses)")
    if n_ok >= 2:
        modulus = continuity_modulus(result)
        payload["continuity_modulus"] = modulus.to_json_dict()
        for method, info in modulus.per_method.items():
            print(f"max adjacent gap [{method}]: {info['max_gap']:.6f} "
                  f"at t in {info['at']}")
    out = manifest.open()
    write_json(out / "sweep.json", payload)
    header, rows = sweep_csv_rows(result)
    write_csv(out / "sweep.csv", header, rows)
    manifest.add("sweep.json")
    manifest.add("sweep.csv")
    if ns.svg:
        series = []
        for method in config.estimators:
            ts, vs, es = result.curve(method)
            if ts.shape[0]:
                series.append((method, ts.tolist(), vs.tolist(), es.tolist()))
        if series:
            svg_line_chart(out / "sweep.svg", series,
                           title=f"entropy vs parameter ({config.family})",
                           xlabel="parameter", ylabel="entropy (nats/iter)")
            manifest.add("sweep.svg")
    manifest.write()
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(ns) -> int:
    system, params = _system_from_args(ns)
    finite_nonnegative(ns.delta, "--delta")
    finite_nonnegative(ns.bound, "--bound")
    finite_nonnegative(ns.seed, "--seed")
    if ns.dimf is not None:
        _check_splitting(system, ns.dimf)
    config = {"system": ns.system, "params": params, "seed": ns.seed,
              "length": _steps(ns.length), "burn_in": _steps(ns.burn_in),
              "dim_f": ns.dimf, "bound": ns.bound, "delta": ns.delta}
    manifest = _Manifest("diagnose", config, ns.out, ns.started)
    measure = birkhoff_sample(system, seed=ns.seed,
                              burn_in=config["burn_in"],
                              length=config["length"])
    report = {"system": ns.system, "params": params}
    if system.singular_set:
        report["ls1"] = ls1_fit(system, measure, np.logspace(-3, -1, 9))
    report["ls2"] = ls2_integral(system, measure)
    report["bounded_jacobian"] = bounded_jacobian_check(system, measure, ns.bound)
    family_id = {"mp": "mp", "da": "da", "viana": "viana"}.get(ns.system)
    if family_id is not None:
        handle = FAMILIES[family_id]
        t0 = float(params.get(handle.parameter_name,
                              system.params[handle.parameter_name]))
        half = 0.02
        grid = [max(handle.lo, t0 - half), t0, min(handle.hi, t0 + half)]
        grid = sorted(set(grid))
        if len(grid) >= 2:
            rng = np.random.default_rng(ns.seed)
            cand = system.space.uniform(rng, 400)
            keep = system.singular_distance(cand) > 1e-3
            pts = cand[keep][:100]
            report["holder"] = holder_parameter_check(handle, grid, pts)
    if family_id is not None and system.singular_set:
        split = split_log_det_integral(system, measure, ns.delta)
        split["t"] = float(system.params[FAMILIES[family_id].parameter_name])
        split["family"] = family_id
        report["neighborhood_split"] = split
    if ns.dimf is not None:
        rng = np.random.default_rng([ns.seed, 1])
        anchors = system.space.uniform(rng, 3)
        splitting = estimate_bundles_many(system, anchors, ns.dimf)
        dom = domination_report(system, splitting, n_grid=range(1, 13))
        report["domination"] = dom.to_json_dict()
        print(f"domination: {dom.verdict} (rho {dom.rho:.6f}, C {dom.C:.3f})")
    out = manifest.open()
    write_json(out / "diagnose.json", report)
    manifest.add("diagnose.json")
    manifest.write()
    if "ls1" in report:
        print(f"ls1: beta {report['ls1']['beta']:.4f} C {report['ls1']['C']:.4f}")
    print(f"ls2: forward {report['ls2']['forward']:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--out", default="sinailab_out", help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--burn-in", dest="burn_in", default="10000",
                   help="orbit burn-in steps")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="system parameter (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinailab",
        description="Lyapunov spectra, SRB/Sinai measures, and entropy "
                    "estimators for explicit map families",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyapunov", help="Benettin QR Lyapunov spectrum")
    p.add_argument("--system", required=True)
    p.add_argument("--steps", default="1000000")
    p.add_argument("--blocks", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("entropy", help="entropy estimates and cross-validation")
    p.add_argument("--system", required=True)
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), default="all")
    p.add_argument("--length", default="100000", help="measure orbit length")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--dimf", type=int, default=None)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--no-early-stop", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="parameter sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", action="store_true", help="emit a line chart")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: config or machine)")
    p.add_argument("--out", default="sinailab_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="singular-set and splitting diagnostics")
    p.add_argument("--system", required=True)
    p.add_argument("--length", default="100000")
    p.add_argument("--dimf", type=int, default=None)
    p.add_argument("--bound", type=float, default=100.0,
                   help="bound for the Jacobian integral check")
    p.add_argument("--delta", type=float, default=0.01,
                   help="singular neighborhood radius for the entropy split")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    ns = parser.parse_args(argv)
    ns.started = started
    try:
        return ns.func(ns)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SweepAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SWEEP_FAILURES
    except SinaiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
