"""CLI surface: files, manifests, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sinailab
import sinailab.cli as cli
from sinailab.cli import load_sweep_config, main
from sinailab.entropy import ESTIMATORS
from sinailab.measures import birkhoff_sample, split_log_det_integral
from sinailab.serialize import sha256_file
from sinailab.systems import build_system

LAM = (3.0 + math.sqrt(5.0)) / 2.0
LOG2 = math.log(2.0)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestLyapunovCommand:
    def test_cat_files_and_values(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", "cat", "--steps", "2e4",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        spec = read_json(out / "spectrum.json")
        assert spec["exponents"][0] == pytest.approx(math.log(LAM), abs=1e-5)
        assert (out / "spectrum.csv").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["outputs"]["spectrum.json"] == sha256_file(out / "spectrum.json")

    def test_manifest_clock_starts_at_main(self, tmp_path, monkeypatch):
        # wall_clock_s counts from cli.main's entry, so the system build
        # and the argument checks before the run are in it
        def slow_build(name, params):
            time.sleep(0.05)
            return build_system(name, params)

        monkeypatch.setattr(cli, "build_system", slow_build)
        out = tmp_path / "run"
        assert main(["lyapunov", "--system", "cat", "--steps", "1000",
                     "--burn-in", "10", "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["wall_clock_s"] >= 0.05

    def test_mp_alpha_zero(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", "mp", "--param", "alpha=0",
                     "--steps", "2e4", "--out", str(out)])
        assert code == 0
        spec = read_json(out / "spectrum.json")
        assert spec["exponents"][0] == pytest.approx(LOG2, abs=1e-3)

    def test_missing_system_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lyapunov", "--steps", "100"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_system_exit_two(self, tmp_path, capsys):
        code = main(["lyapunov", "--system", "lorenz", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: unknown system 'lorenz'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestEntropyCommand:
    def test_cat_all_methods_consistent(self, tmp_path):
        # no --dimf: the expanding dimension comes from the spectrum
        out = tmp_path / "run"
        code = main(["entropy", "--system", "cat", "--method", "all",
                     "--length", "2e4", "--tol", "0.02", "--out", str(out)])
        assert code == 0
        rep = read_json(out / "entropy.json")
        assert rep["sinai_consistent"] is True

    def test_ls_nmax_one_closed_form(self, tmp_path):
        out = tmp_path / "run"
        code = main(["entropy", "--system", "cat", "--method", "ls",
                     "--length", "1e3", "--nmax", "1", "--out", str(out)])
        assert code == 0
        est = read_json(out / "entropy.json")
        assert est["value"] == pytest.approx(math.log(2.0 + LAM), abs=1e-9)

    def test_pesin_draws_one_orbit(self, tmp_path, orbit_calls):
        code = main(["entropy", "--system", "cat", "--method", "pesin",
                     "--length", "5000", "--burn-in", "100",
                     "--out", str(tmp_path / "p")])
        assert code == 0
        assert orbit_calls == [5_099]

    def test_jacobian_default_dim_f_is_expanding(self, tmp_path):
        # without --dimf, dim_f counts the positive exponents of the
        # cloud's own spectrum: 1 for cat, so h = log lambda, not log |det|
        out = tmp_path / "run"
        code = main(["entropy", "--system", "cat", "--method", "jacobian",
                     "--length", "5000", "--burn-in", "500", "--out", str(out)])
        assert code == 0
        est = read_json(out / "entropy.json")
        assert est["diagnostics"]["dim_f"] == 1
        assert est["value"] == pytest.approx(math.log(LAM), abs=0.02)

    def test_invalid_method_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--system", "cat", "--method", "bogus"])
        assert exc.value.code == 2

    def test_ls_method_matches_cross_validation(self, tmp_path):
        # one pipeline: each --method m file is the m entry of --method all
        # (same seed for the dithered viana cloud steps, same spectrum and
        # default dim_f)
        args = ["entropy", "--system", "viana", "--length", "3000",
                "--burn-in", "1000", "--nmax", "20", "--seed", "5"]
        assert main(args + ["--method", "all", "--out", str(tmp_path / "all")]) == 0
        crossed = read_json(tmp_path / "all" / "entropy.json")["estimates"]
        for flag, method in zip(("pesin", "ls", "jacobian"), ESTIMATORS):
            assert main(args + ["--method", flag, "--out", str(tmp_path / flag)]) == 0
            assert read_json(tmp_path / flag / "entropy.json") == crossed[method], flag

    def test_no_early_stop_needs_ls_exit_two(self, tmp_path, capsys):
        code = main(["entropy", "--system", "cat", "--method", "pesin",
                     "--no-early-stop", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--no-early-stop" in capsys.readouterr().err


class TestSweepCommand:
    def _write_config(self, path, body):
        path.write_text(body, encoding="utf-8")
        return str(path)

    def test_small_sweep_files(self, tmp_path):
        cfg = self._write_config(tmp_path / "sweep.ini", """
[sweep]
family = mp
grid = 0.0,0.2,0.4
estimators = pesin
seed = 11
burn_in = 200
length = 5000
""")
        out = tmp_path / "run"
        code = main(["sweep", "--config", cfg, "--svg", "--out", str(out)])
        assert code == 0
        payload = read_json(out / "sweep.json")
        assert len(payload["rows"]) == 3
        assert "usc_check" in payload
        assert (out / "sweep.svg").exists()
        lines = (out / "sweep.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"t,method,value,std_error,weak_star_prev,flags"

    def test_single_point_no_verdict(self, tmp_path):
        cfg = self._write_config(tmp_path / "one.ini", """
[sweep]
family = mp
grid = 0.3:0.3:1
estimators = pesin
burn_in = 100
length = 2000
""")
        out = tmp_path / "run"
        code = main(["sweep", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = read_json(out / "sweep.json")
        assert len(payload["rows"]) == 1
        assert "usc_check" not in payload

    def test_readme_config_loads(self, tmp_path, monkeypatch):
        # the grammar's example, as printed, with its inline ; comments
        monkeypatch.delenv("SINAILAB_WORKERS", raising=False)
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        config, checks = load_sweep_config(self._write_config(tmp_path / "r.ini", block))
        assert (config.family, len(config.grid), config.grid[-1]) == ("mp", 10, 0.9)
        assert config.estimators == ESTIMATORS[:2]
        assert (config.seed, config.burn_in, config.length) == (7, 10_000, 200_000)
        assert (config.ulam_resolution, config.n_max, config.dim_f) == (256, 40, 1)
        assert config.workers == 2
        assert checks == {"window": 1, "slack": 0.05}

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path / "bad.ini", "grid = oops\nno section")
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err or "config" in err

    def test_missing_config_exit_two(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_failure_threshold_exit_four(self, tmp_path):
        # eps far outside the viana escape bound fails at 3 of 4 points
        cfg = self._write_config(tmp_path / "fail.ini", """
[sweep]
family = viana
grid = 0.0:0.05:4
estimators = pesin
burn_in = 50
length = 1000
""")
        import sinailab.sweep as sweep_mod
        from sinailab.systems import FamilyHandle, make_viana

        orig = sweep_mod.get_family
        sweep_mod.get_family = lambda fid: FamilyHandle(
            "viana", "eps", 0.0, 0.05,
            lambda e: make_viana(1.99, e, 16))
        try:
            code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")])
        finally:
            sweep_mod.get_family = orig
        assert code == 4


class TestDiagnoseCommand:
    def test_mp_diagnostics(self, tmp_path):
        out = tmp_path / "run"
        code = main(["diagnose", "--system", "mp", "--param", "alpha=0",
                     "--length", "1e5", "--out", str(out)])
        assert code == 0
        rep = read_json(out / "diagnose.json")
        assert 0.9 <= rep["ls1"]["beta"] <= 1.1
        assert rep["ls2"]["forward"] == pytest.approx(LOG2, abs=1e-6)
        assert "neighborhood_split" in rep

    @pytest.mark.parametrize("params", [{}, {"d": 32}])
    def test_viana_split_uses_the_diagnosed_system(self, tmp_path, params):
        out = tmp_path / "run"
        argv = ["diagnose", "--system", "viana", "--length", "2e4",
                "--seed", "7", "--out", str(out)]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        assert main(argv) == 0
        split = read_json(out / "diagnose.json")["neighborhood_split"]
        assert split["t"] == 0.02
        assert split["family"] == "viana"
        system = build_system("viana", params)
        mu = birkhoff_sample(system, seed=7, burn_in=10_000, length=20_000)
        expect = split_log_det_integral(system, mu, 0.01)
        for key in ("inside", "outside", "inside_mass", "skipped"):
            assert split[key] == pytest.approx(expect[key], rel=1e-12, abs=1e-15)

    def test_cat_domination(self, tmp_path):
        out = tmp_path / "run"
        code = main(["diagnose", "--system", "cat", "--dimf", "1",
                     "--length", "1e4", "--out", str(out)])
        assert code == 0
        rep = read_json(out / "diagnose.json")
        assert rep["domination"]["verdict"] == "dominated"
        assert rep["domination"]["rho"] == pytest.approx(LAM ** -2, rel=0.05)

    def test_noninvertible_bundle_request_exit_three(self, tmp_path, capsys):
        code = main(["diagnose", "--system", "viana", "--dimf", "1",
                     "--length", "1e3", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "invertible" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_identical_data_files(self, tmp_path):
        args = ["lyapunov", "--system", "cat", "--steps", "1e4", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("spectrum.json", "spectrum.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("argv, names", [
        (["entropy", "--system", "mp", "--param", "alpha=0.3", "--length", "20000",
          "--burn-in", "1000", "--nmax", "20", "--seed", "5"],
         ("entropy.json", "entropy.csv")),
        (["diagnose", "--system", "da", "--length", "2e4", "--seed", "7"],
         ("diagnose.json",)),
    ], ids=["entropy-mp", "diagnose-da"])
    def test_data_files_do_not_depend_on_blas_threads(self, tmp_path, argv, names):
        # OpenBLAS reads its thread count at load time, so each count needs
        # its own interpreter; a 2e4-point cloud is above the size at which
        # it splits a dot product between threads
        src = str(Path(sinailab.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "sinailab.cli", *argv,
                            "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True)
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_env_workers_beat_the_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.0,0.2\nworkers = 2\n",
                       encoding="utf-8")
        monkeypatch.setenv("SINAILAB_WORKERS", "3")
        assert load_sweep_config(cfg)[0].workers == 3
        assert load_sweep_config(cfg, workers=1)[0].workers == 3
        monkeypatch.delenv("SINAILAB_WORKERS")
        assert load_sweep_config(cfg, workers=1)[0].workers == 1
        assert load_sweep_config(cfg)[0].workers == 2

    def test_negative_workers_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SINAILAB_WORKERS", raising=False)
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.0,0.2\n", encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--workers", "-4",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # a set but invalid SINAILAB_WORKERS is named, not ignored
        for value in ("0", "-4", "abc"):
            monkeypatch.setenv("SINAILAB_WORKERS", value)
            code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")])
            assert code == 2, value
            assert "SINAILAB_WORKERS" in capsys.readouterr().err, value
            assert not (tmp_path / "x").exists(), value

    def test_env_workers_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINAILAB_WORKERS", "1")
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.0,0.2\n"
                       "estimators = pesin\nburn_in = 50\nlength = 2000\n",
                       encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 0

    def test_sweep_data_files_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        # the worker count is how a run was made, not what it computed:
        # only the manifest records it
        monkeypatch.delenv("SINAILAB_WORKERS", raising=False)
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.0,0.2,0.4\n"
                       "estimators = pesin\nburn_in = 50\nlength = 2000\n",
                       encoding="utf-8")
        for workers in ("1", "2"):
            code = main(["sweep", "--config", str(cfg), "--workers", workers,
                         "--out", str(tmp_path / workers)])
            assert code == 0
        for name in ("sweep.json", "sweep.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        assert read_json(tmp_path / "2" / "manifest.json")["config"]["workers"] == 2


def test_cli_import_leaves_scipy_out():
    # scipy.sparse is imported where the Ulam matrix is built, so commands
    # that build none do not pay for it
    src = str(Path(sinailab.__file__).resolve().parents[1])
    code = "import sys, sinailab.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["entropy", "--system", "cat", "--nmax", "100", "--length", "2e3"], ""),
        (["entropy", "--system", "cat", "--method", "jacobian", "--dimf", "5",
          "--length", "2e3"], ""),
        (["entropy", "--system", "cat", "--length", "0"], ""),
        (["lyapunov", "--system", "cat", "--steps", "5"], ""),
        (["diagnose", "--system", "skew", "--dimf", "7", "--length", "2e3"], ""),
        (["lyapunov", "--system", "mp", "--param", "alpha=0.3", "--steps", "2e4",
          "--blocks", "0"], ""),
        # entropy has no --blocks flag: a short orbit is named by its length
        (["entropy", "--system", "mp", "--param", "alpha=0.3", "--length", "15",
          "--burn-in", "10", "--method", "pesin"], "n_steps = 15 must be >= 20"),
        (["lyapunov", "--system", "cat", "--steps", "2e4", "--seed", "-1"], "--seed"),
    ], ids=["nmax", "dimf", "length", "steps", "diagnose-dimf", "blocks",
            "short-1d-orbit", "seed-negative"])
    def test_out_of_range_number_exit_two(self, tmp_path, capsys, argv, message):
        # the library's argument checks raise ValueError, a usage error:
        # one error line, exit 2 and no output directory
        code = main(argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--system", "cat", "--steps", "inf"],
        ["lyapunov", "--system", "cat", "--steps", "2e4", "--burn-in", "inf"],
        ["lyapunov", "--system", "cat", "--steps", "20000.7"],
        ["lyapunov", "--system", "cat", "--steps", "2e4", "--burn-in", "1.5"],
        ["lyapunov", "--system", "skew", "--param", "K=nan", "--steps", "2e4"],
        ["lyapunov", "--system", "skew", "--param", "K=inf", "--steps", "2e4"],
        ["lyapunov", "--system", "viana", "--param", "eps=nan", "--steps", "2e4"],
        ["lyapunov", "--system", "viana", "--param", "a0=nan", "--steps", "2e4"],
        ["lyapunov", "--system", "skew", "--param", "N=2.5", "--steps", "2e4"],
        ["lyapunov", "--system", "skew", "--param", "k=2", "--steps", "2e4"],
        ["lyapunov", "--system", "cat", "--param", "alpha=0.3", "--steps", "2e4"],
        ["lyapunov", "--system", "da", "--param", "t=0.2", "--steps", "2e4"],
    ], ids=["steps-inf", "burn-in-inf", "steps-fractional", "burn-in-fractional",
            "skew-K-nan", "skew-K-inf", "viana-eps-nan", "viana-a0-nan",
            "skew-N-fractional", "skew-unknown-k", "cat-unknown-alpha",
            "da-unknown-t"])
    def test_bad_count_or_parameter_exit_two(self, tmp_path, capsys, orbit_calls,
                                             argv):
        # a step count must be a finite whole number and a family parameter
        # one the family takes, at a value it is defined for: one error
        # line and exit 2, before
        # any orbit is drawn, and no output directory
        code = main(argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["entropy", "--system", "cat", "--tol", "nan"], "--tol"),
        (["entropy", "--system", "cat", "--tol", "-0.01"], "--tol"),
        (["diagnose", "--system", "mp", "--delta", "nan"], "--delta"),
        (["diagnose", "--system", "mp", "--delta", "inf"], "--delta"),
        (["diagnose", "--system", "cat", "--bound", "nan"], "--bound"),
        (["diagnose", "--system", "cat", "--bound", "-1"], "--bound"),
    ], ids=["tol-nan", "tol-negative", "delta-nan", "delta-inf", "bound-nan",
            "bound-negative"])
    def test_bad_tolerance_delta_or_bound_exit_two(self, tmp_path, capsys,
                                                   orbit_calls, argv, flag):
        # a NaN tolerance or bound compares false with every value, and a
        # NaN delta puts no point inside: each must be finite and >= 0,
        # checked before any orbit is drawn
        code = main(argv + ["--length", "2000", "--burn-in", "100",
                            "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, code", [
        (["diagnose", "--system", "skew", "--dimf", "7"], 2),
        (["diagnose", "--system", "viana", "--dimf", "1"], 3),
    ], ids=["out-of-range", "non-invertible"])
    def test_diagnose_dimf_checked_before_sampling(self, tmp_path, capsys,
                                                   orbit_calls, argv, code):
        # dim_f is checked against the system's dimension and invertibility
        # before any orbit is drawn
        assert main(argv + ["--length", "2e3", "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()

    def test_short_1d_orbit_with_few_blocks_runs(self, tmp_path):
        # 10 steps per dimension suffice when there are fewer blocks
        code = main(["lyapunov", "--system", "mp", "--steps", "15", "--blocks", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["entropy", "--system", "skew", "--nmax", "100"],
        ["entropy", "--system", "skew", "--method", "jacobian", "--dimf", "5"],
        ["entropy", "--system", "mp", "--length", "15", "--method", "pesin"],
        # below full dimension Jacobian-F reads the spectrum's gap
        ["entropy", "--system", "cat", "--method", "jacobian", "--dimf", "1",
         "--length", "10", "--burn-in", "1e3"],
    ], ids=["nmax", "dimf", "length-short-for-spectrum", "jacobian-short-for-spectrum"])
    def test_entropy_range_checked_before_sampling(self, tmp_path, capsys,
                                                   orbit_calls, argv):
        # n_max, dim_f and the spectrum's orbit length are checked against
        # the system before any orbit
        code = main(argv + ["--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body", [
        "family = mp\ngrid = 0.1,0.2,0.3\nestimators = ls\nn_max = 100\n",
        "family = da\ngrid = 0.1,0.2,0.3\nestimators = jacobian\ndim_f = 3\n",
        "family = nope\ngrid = 0.1,0.2,0.3\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nburn_in = -1\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nburn_in = 1.5\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nlength = 0\n",
        "family = da\ngrid = 0.1,0.2,0.3\nulam_resolution = 1\n",
        "family = mp\ngrid = 0.0,0.5,1.2\n",
        "family = mp\ngrid = 0.0:1.5:10\n",
        "family = mp\ngrid = 0.0,nan,0.5\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nlength = inf\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nlength = 2000.5\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nseed = -1\n",
        "family = mp\ngrid = 0.1,0.2,0.3\nlength = 10\n",
        "family = skew\ngrid = 0.1,0.2,0.3\nestimators = jacobian\nlength = 30\n",
        "family = da\ngrid = 0.1,0.2,0.3\nulam_resolution = 4000\n",
    ], ids=["nmax", "dimf", "family", "burn_in", "burn_in-fractional", "length",
            "ulam_resolution", "grid-above", "grid-range-above", "grid-nan",
            "length-inf", "length-fractional", "seed-negative",
            "length-short-for-pesin", "length-short-for-jacobian-dim",
            "ulam_resolution-too-many-cells"])
    def test_sweep_range_checked_before_sampling(self, tmp_path, capsys,
                                                 orbit_calls, body):
        # burn_in and length are added unless the body sets them: a
        # duplicate key would fail as a malformed config instead
        defaults = "".join(f"{key} = {value}\n" for key, value in
                           (("burn_in", 100), ("length", 2000))
                           if f"\n{key} =" not in body)
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\n" + body + defaults, encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--workers", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bad sweep config" in capsys.readouterr().err
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()

    def test_sweep_counts_read_like_the_flags(self, tmp_path):
        # burn_in and length are step counts, written as --burn-in and
        # --length may be
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.1,0.2\nburn_in = 1e3\n"
                       "length = 2e3\n", encoding="utf-8")
        config, _ = load_sweep_config(cfg, workers=1)
        assert (config.burn_in, config.length) == (1000, 2000)
        assert isinstance(config.burn_in, int)

    @pytest.mark.parametrize("checks", [
        "usc_window = 0\nusc_slack = -5\n",
        "usc_window = -1\n",
        "usc_slack = -0.01\n",
        "usc_slack = nan\n",
        "usc_slack = inf\n",
        "usc_window = two\n",
    ], ids=["window-0-slack-negative", "window-negative", "slack-negative",
            "slack-nan", "slack-inf", "window-not-a-number"])
    def test_sweep_checks_checked_before_sampling(self, tmp_path, capsys,
                                                  orbit_calls, checks):
        # a [checks] value usc_check would reject is a config error: with
        # usc_window = 0 it would compare nothing and pass any curve
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\nfamily = mp\ngrid = 0.1,0.2,0.3,0.4\n"
                       "estimators = pesin\nburn_in = 100\nlength = 2000\n"
                       "[checks]\n" + checks, encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--workers", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bad sweep config" in capsys.readouterr().err
        assert orbit_calls == []
        assert not (tmp_path / "x").exists()
