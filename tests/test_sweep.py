"""Parameter sweeps, semicontinuity checks, and the entropy splitting."""

import ctypes
import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import sinailab.entropy as entropy_mod
from sinailab.entropy import (
    ESTIMATORS,
    JACOBIAN_F,
    LEDRAPPIER_STRELCYN,
    PESIN,
    EntropyEstimate,
    cross_validate,
)
from sinailab.errors import SamplingFailureError, SweepAbortError
from sinailab.measures import EmpiricalMeasure, birkhoff_sample, split_log_det_integral
from sinailab.serialize import write_json
from sinailab.sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    _sweep_point,
    continuity_modulus,
    run_sweep,
    usc_check,
)
from sinailab.systems import FamilyHandle, get_family, make_manneville_pomeau

LOG2 = math.log(2.0)
LOG_LAM = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def openblas_thread_counts():
    """Thread count each OpenBLAS loaded in this process reports (empty
    when none is loaded or none exports a getter)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    counts.append(getter())
    return counts


def report_blas_threads(config, index):
    """Stand-in sweep point: this process's OS thread count and every
    OpenBLAS count, at its start and after a product large enough for
    OpenBLAS to thread, and the LS thread budget with the block count of a
    cloud large enough to split."""
    seen = [(len(os.listdir("/proc/self/task")), openblas_thread_counts())]
    np.ones((2**18, 2)) @ np.ones((2, 2))
    seen.append((len(os.listdir("/proc/self/task")), openblas_thread_counts()))
    row = SweepRow(index=index, t=config.grid[index])
    row.estimates["seen"] = seen
    row.estimates["ls"] = (entropy_mod._ls_threads, len(entropy_mod._ls_blocks(10**6, 4)))
    return row


def failed_point(config, index):
    return SweepRow(index=index, t=config.grid[index], error="system: ValueError: stand-in")


def raising_point(config, index):
    raise RuntimeError("stand-in")


def staircase_result(values, slack_se=0.0):
    """Pesin values on the mp grid t = 0, 0.1, 0.2, ..."""
    rows = []
    for i, v in enumerate(values):
        row = SweepRow(index=i, t=i / 10)
        row.estimates[PESIN] = EntropyEstimate(value=v, method=PESIN,
                                               std_error=slack_se)
        rows.append(row)
    cfg = SweepConfig(family="mp", grid=tuple(row.t for row in rows))
    return SweepResult(config=cfg, rows=rows)


class TestSweepConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepConfig(family="mp", grid=(0.1, 0.1))

    @pytest.mark.parametrize("family, grid", [
        ("mp", (0.0, 0.5, 1.2)),
        ("mp", (-0.1, 0.5)),
        ("mp", (0.0, math.nan, 0.5)),
        ("mp", (0.0, math.inf)),
        ("viana", (0.0, 0.1)),
    ], ids=["above", "below", "nan", "inf", "viana-above"])
    def test_grid_inside_the_family_interval(self, family, grid):
        with pytest.raises(ValueError, match="parameter interval"):
            SweepConfig(family=family, grid=grid)

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(family="mp", grid=(0.0, 0.1), workers=0)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            SweepConfig(family="mp", grid=(0.0,), estimators=("nope",))

    def test_estimator_args_in_range(self):
        with pytest.raises(ValueError, match="n_max"):
            SweepConfig(family="mp", grid=(0.0,), estimators=(LEDRAPPIER_STRELCYN,),
                        n_max=61)
        with pytest.raises(ValueError, match="dim_f"):
            SweepConfig(family="skew", grid=(0.5,), estimators=(JACOBIAN_F,), dim_f=5)
        # each value is checked only for the estimator that reads it
        SweepConfig(family="skew", grid=(0.5,), estimators=(PESIN,), n_max=61, dim_f=5)

    def test_orbit_length_checked_where_the_spectrum_runs(self):
        # the spectrum runs for Pesin and for Jacobian-F below full dimension
        # or without dim_f, and needs 10 steps per dimension (40 on skew)
        # and one per error block
        with pytest.raises(ValueError, match="n_steps = 30 must be >= 40"):
            SweepConfig(family="skew", grid=(0.5,), estimators=(JACOBIAN_F,), length=30)
        with pytest.raises(ValueError, match="n_steps = 30 must be >= 40"):
            SweepConfig(family="skew", grid=(0.5,), estimators=(JACOBIAN_F,), length=30,
                        dim_f=2)
        with pytest.raises(ValueError, match="n_steps = 10 must be >= 20"):
            SweepConfig(family="mp", grid=(0.5,), estimators=(PESIN,), length=10)
        SweepConfig(family="skew", grid=(0.5,), estimators=(JACOBIAN_F,), length=30,
                    dim_f=4)
        SweepConfig(family="mp", grid=(0.5,), estimators=(LEDRAPPIER_STRELCYN,), length=10)

    def test_ulam_cells_checked_against_the_guard(self):
        # 4000 ** 2 cells would make ulam_matrix raise MemoryError at a point
        with pytest.raises(ValueError, match="ulam_resolution"):
            SweepConfig(family="da", grid=(0.2,), ulam_resolution=4000)
        SweepConfig(family="mp", grid=(0.2,), ulam_resolution=4000)

    def test_point_seeds_differ(self):
        cfg = SweepConfig(family="mp", grid=(0.0, 0.1, 0.2))
        seeds = [cfg.point_seed(i) for i in range(3)]
        assert len(set(seeds)) == 3
        assert seeds == [cfg.point_seed(i) for i in range(3)]


class TestRunSweep:
    def test_mp_endpoint_log_two(self):
        cfg = SweepConfig(family="mp", grid=(0.0, 0.3), estimators=(PESIN,),
                          seed=5, burn_in=500, length=20_000)
        result = run_sweep(cfg)
        assert result.rows[0].estimates[PESIN].value == pytest.approx(LOG2, abs=0.01)

    def test_single_point_grid(self):
        cfg = SweepConfig(family="mp", grid=(0.2,), estimators=(PESIN,),
                          seed=1, burn_in=100, length=5_000)
        result = run_sweep(cfg)
        assert len(result.rows) == 1
        with pytest.raises(ValueError):
            usc_check(result)
        with pytest.raises(ValueError):
            continuity_modulus(result)

    def test_da_endpoint_cat_entropy(self):
        cfg = SweepConfig(family="da", grid=(0.0, 0.1, 0.2), estimators=(PESIN,),
                          seed=3, burn_in=1000, length=100_000)
        result = run_sweep(cfg)
        lam = (3.0 + math.sqrt(5.0)) / 2.0
        assert result.rows[0].estimates[PESIN].value == pytest.approx(
            math.log(lam), abs=0.01)

    def test_determinism_bytes(self, tmp_path):
        cfg = SweepConfig(family="mp", grid=(0.0, 0.2, 0.4), estimators=(PESIN,),
                          seed=9, burn_in=100, length=5_000)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_json(pa, a.to_json_dict())
        write_json(pb, b.to_json_dict())
        assert pa.read_bytes() == pb.read_bytes()

    def test_row_count_preserved_with_failures(self):
        bad = FamilyHandle("bad", "t", 0.0, 1.0,
                           lambda t: (_ for _ in ()).throw(ValueError("boom"))
                           if 0.15 < t < 0.25 else make_manneville_pomeau(t))
        import sinailab.sweep as sweep_mod

        sweep_mod_families = dict(t=bad)
        # patch the registry lookup through a tiny family table
        orig = sweep_mod.get_family
        sweep_mod.get_family = lambda fid: bad
        try:
            cfg = SweepConfig(family="bad", grid=(0.0, 0.2, 0.4, 0.6, 0.8),
                              estimators=(PESIN,), seed=1, burn_in=50,
                              length=2_000)
            result = run_sweep(cfg)
        finally:
            sweep_mod.get_family = orig
        assert len(result.rows) == 5
        errors = [r for r in result.rows if not r.ok]
        assert len(errors) == 1
        assert errors[0].error == "system: ValueError: boom"

    @pytest.mark.parametrize("broken, stage, message", [
        # every orbit leaves the reals, on every restart
        ("orbit_fn", "measure",
         "SamplingFailureError: manneville_pomeau: orbit hit the singular set on"),
        # a zero derivative is singular at the spectrum's first logged step
        ("differential_batch", "estimators",
         "SamplingFailureError: manneville_pomeau: the derivative is singular at "
         "orbit step 50"),
    ], ids=["measure", "estimators"])
    def test_failed_row_names_its_stage(self, monkeypatch, broken, stage, message):
        import sinailab.sweep as sweep_mod

        stand_ins = {
            "orbit_fn": lambda x0, n, noise: np.full((n + 1, 1), math.nan),
            "differential_batch": lambda pts: np.zeros((1, 1, np.atleast_2d(pts).shape[0])),
        }
        family = FamilyHandle("broken", "t", 0.0, 1.0, lambda t: dataclasses.replace(
            make_manneville_pomeau(t), **{broken: stand_ins[broken]}))
        monkeypatch.setattr(sweep_mod, "get_family", lambda fid: family)
        cfg = SweepConfig(family="mp", grid=(0.3,), estimators=(PESIN, JACOBIAN_F),
                          seed=1, burn_in=50, length=2_000)
        row = _sweep_point(cfg, 0)
        assert row.error.startswith(f"{stage}: {message}")
        assert row.estimates == {} and row.moments is None

    def test_abort_over_threshold(self):
        always_bad = FamilyHandle("bad", "t", 0.0, 1.0,
                                  lambda t: (_ for _ in ()).throw(ValueError("no")))
        import sinailab.sweep as sweep_mod

        orig = sweep_mod.get_family
        sweep_mod.get_family = lambda fid: always_bad
        try:
            cfg = SweepConfig(family="bad", grid=(0.0, 0.5), estimators=(PESIN,))
            with pytest.raises(SweepAbortError):
                run_sweep(cfg)
        finally:
            sweep_mod.get_family = orig

    def test_ulam_measure_sweep(self):
        # grid-measure route: the ls/jacobian estimators integrate over the
        # Ulam stationary density instead of an orbit cloud. One dyadic cell
        # center ((2^k - 1)/2^k) descends exactly onto the branch point and
        # exercises the skip-and-reweight path (1/256 < the 1% threshold).
        from sinailab.entropy import LEDRAPPIER_STRELCYN

        cfg = SweepConfig(family="mp", grid=(0.0, 0.1),
                          estimators=(LEDRAPPIER_STRELCYN,),
                          seed=3, ulam_resolution=256, n_max=30)
        result = run_sweep(cfg)
        row0 = result.rows[0].estimates[LEDRAPPIER_STRELCYN]
        assert row0.value == pytest.approx(LOG2, abs=0.01)
        # alpha = 0 advances with the dither (no exact hit); alpha = 0.1
        # steps exactly and loses the one dyadic center
        row1 = result.rows[1].estimates[LEDRAPPIER_STRELCYN]
        assert row1.diagnostics["skipped_points"] == 1

    def test_jacobian_alone_takes_dim_f_from_the_spectrum(self):
        # the DA bump changes only the stable rate, so h = log lambda along
        # the one-dimensional unstable bundle; dim_f = 2 would give 0
        cfg = SweepConfig(family="da", grid=(0.0, 0.1, 0.2),
                          estimators=(JACOBIAN_F,), seed=5, burn_in=500,
                          length=5_000)
        for row in run_sweep(cfg).rows:
            est = row.estimates[JACOBIAN_F]
            assert est.diagnostics["dim_f"] == 1
            assert est.value == pytest.approx(LOG_LAM, abs=0.02)

    def test_worker_count_independence(self):
        # alpha = 0.7 quadruples the orbit: a 4e5-point cloud, long enough
        # for a threaded BLAS to split a sum over it. Pool workers run one
        # BLAS thread, this process its default count, so the weak* column
        # must not depend on the BLAS.
        cfg1 = SweepConfig(family="mp", grid=(0.0, 0.2, 0.4, 0.6, 0.7),
                           estimators=(PESIN,), seed=13, burn_in=100,
                           length=100_000, workers=1)
        cfg2 = SweepConfig(family="mp", grid=(0.0, 0.2, 0.4, 0.6, 0.7),
                           estimators=(PESIN,), seed=13, burn_in=100,
                           length=100_000, workers=2)
        r1 = run_sweep(cfg1)
        r2 = run_sweep(cfg2)
        assert r1.rows[-1].length_used == 400_000
        for a, b in zip(r1.rows, r2.rows):
            assert a.estimates[PESIN].value == b.estimates[PESIN].value
            # bit for bit: a float's repr round-trips
            assert repr(a.weak_star_prev) == repr(b.weak_star_prev)

    def test_ulam_sweep_rows_independent_of_worker_count(self, tmp_path):
        # 128^2 cells: the LS and Jacobian-F means run over a 16384-point
        # grid cloud, long enough for a threaded BLAS to split a dot product;
        # pool workers run one BLAS thread, this process its default count
        rows = []
        for workers in (1, 2):
            cfg = SweepConfig(family="da", grid=(0.0, 0.2), estimators=ESTIMATORS,
                              seed=4, burn_in=200, length=2_000,
                              ulam_resolution=128, n_max=8, workers=workers)
            path = tmp_path / f"{workers}.json"
            write_json(path, [r.to_json_dict() for r in run_sweep(cfg).rows])
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]

    def test_threaded_ls_rows_match_the_workers(self, tmp_path, monkeypatch):
        # 4000 d = 4 points: the serial sweep's LS table runs two blocks on
        # two threads, each pool worker's one block on its own thread
        monkeypatch.setattr(entropy_mod, "_ls_threads", 2)
        assert len(entropy_mod._ls_blocks(4000, 4)) == 2
        rows = []
        for workers in (1, 2):
            cfg = SweepConfig(family="skew", grid=(0.3, 0.5),
                              estimators=(LEDRAPPIER_STRELCYN,), seed=4, burn_in=2000,
                              length=4000, n_max=10, workers=workers)
            path = tmp_path / f"{workers}.json"
            write_json(path, [r.to_json_dict() for r in run_sweep(cfg).rows])
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]

    def test_pool_no_larger_than_the_grid(self, monkeypatch):
        # a fork pool starts all of its workers at once: a 2-point grid on
        # 3 workers gets a pool of 2, and the rows of the serial sweep
        import sinailab.sweep as sweep_mod

        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", Recording)
        rows = {}
        for workers in (3, 1):
            cfg = SweepConfig(family="mp", grid=(0.0, 0.3), estimators=(PESIN,),
                              seed=1, burn_in=100, length=2_000, workers=workers)
            rows[workers] = [r.to_json_dict() for r in run_sweep(cfg).rows]
        assert sizes == [2]
        assert rows[3] == rows[1]

    def test_one_blas_thread_in_a_forked_worker(self, monkeypatch):
        # the cap is set before the fork: a worker that set it itself would
        # start a spinning helper thread, as would OpenBLAS's default count
        # on a product it threads; the caller's counts come back afterwards
        import sinailab.sweep as sweep_mod

        before = openblas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count getter is loaded")
        monkeypatch.setattr(sweep_mod, "_sweep_point", report_blas_threads)
        cfg = SweepConfig(family="mp", grid=(0.0, 0.3), workers=2)
        for caller in (None, 3):
            monkeypatch.setattr(entropy_mod, "_ls_threads", caller)
            rows = run_sweep(cfg).rows
            assert openblas_thread_counts() == before
            assert entropy_mod._ls_threads == caller
            for row in rows:
                for threads, counts in row.estimates["seen"]:
                    assert threads == 1
                    assert counts and all(c == 1 for c in counts)
                # the worker's LS table keeps even a 1e6-point cloud in one block
                assert row.estimates["ls"] == (1, 1)

    @pytest.mark.parametrize("point, error", [
        (failed_point, SweepAbortError),
        (raising_point, RuntimeError),
    ], ids=["abort", "raise"])
    def test_caller_blas_counts_restored_on_failure(self, monkeypatch, point, error):
        import sinailab.sweep as sweep_mod

        before = openblas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count getter is loaded")
        monkeypatch.setattr(sweep_mod, "_sweep_point", point)
        monkeypatch.setattr(entropy_mod, "_ls_threads", 3)
        cfg = SweepConfig(family="mp", grid=(0.0, 0.3), workers=2)
        with pytest.raises(error):
            run_sweep(cfg)
        assert openblas_thread_counts() == before
        assert entropy_mod._ls_threads == 3

    def test_pesin_point_draws_one_orbit(self, orbit_calls):
        cfg = SweepConfig(family="mp", grid=(0.0, 0.3), estimators=(PESIN,),
                          seed=1, burn_in=100, length=2_000)
        row = _sweep_point(cfg, 1)
        assert row.ok
        assert orbit_calls == [2_099]

    def test_point_matches_cross_validation(self):
        # one pipeline: a Birkhoff point (alpha < MP_SLOW_ALPHA, so its own
        # length) gets the estimates cross_validate gives on the same cloud
        cfg = SweepConfig(family="mp", grid=(0.0, 0.4), estimators=ESTIMATORS,
                          seed=6, burn_in=300, length=3_000, n_max=20)
        row = _sweep_point(cfg, 1)
        assert row.ok and row.length_used == 3_000
        system = get_family("mp").build(0.4)
        mu = birkhoff_sample(system, seed=cfg.point_seed(1), burn_in=300,
                             length=3_000)
        assert row.estimates == cross_validate(system, mu, n_max=20).estimates

    def test_weak_star_column_filled(self):
        cfg = SweepConfig(family="mp", grid=(0.0, 0.2, 0.4), estimators=(PESIN,),
                          seed=2, burn_in=100, length=5_000)
        result = run_sweep(cfg)
        assert result.rows[0].weak_star_prev is None
        assert result.rows[1].weak_star_prev is not None
        assert result.rows[1].weak_star_prev >= 0.0


class TestUSCCheck:
    def test_constant_curve_passes(self):
        rep = usc_check(staircase_result([1.0, 1.0, 1.0, 1.0]), slack=0.1)
        assert rep.passed and not rep.witnesses

    @pytest.mark.parametrize("window, slack", [
        (0, 0.05), (-1, 0.05), (0, -5.0), (1, -0.01), (1, math.nan),
        (1, math.inf), (1, -math.inf),
    ])
    def test_window_and_slack_bounds(self, window, slack):
        # window 0 compares nothing, so it would pass any curve
        dip = staircase_result([1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            usc_check(dip, window=window, slack=slack)

    def test_zero_slack_allowed(self):
        rep = usc_check(staircase_result([1.0, 1.0, 1.0, 1.0]), window=2, slack=0.0)
        assert rep.passed

    def test_staircase_dip_witness_at_middle(self):
        rep = usc_check(staircase_result([1.0, 1.0, 0.0, 1.0, 1.0]), slack=0.1)
        assert not rep.passed
        assert len(rep.witnesses) == 1
        assert rep.witnesses[0]["t"] == 0.2

    def test_error_bars_absorb_dips(self):
        rep = usc_check(staircase_result([1.0, 1.0, 0.0, 1.0, 1.0], slack_se=0.6),
                        slack=0.1)
        assert rep.passed

    def test_steep_ramp_passes(self):
        # Every step (0.15) exceeds the slack, but the descent is even: no
        # point stands out from the trend of its neighborhood.
        ramp = [1.0 - 0.15 * i for i in range(6)]
        rep = usc_check(staircase_result(ramp), slack=0.1)
        assert rep.passed and not rep.witnesses

    def test_drop_on_steep_ramp_single_witness(self):
        # A 0.2 drop (> slack + err = 0.1) below the ramp at t = 0.4, next to
        # the lower end. A dip further from that end would raise a second
        # witness two grid steps past it, whose trend step it spoils.
        ramp = [1.0 - 0.15 * i for i in range(6)]
        ramp[4] -= 0.2
        rep = usc_check(staircase_result(ramp), slack=0.1)
        assert not rep.passed
        assert len(rep.witnesses) == 1
        assert rep.witnesses[0]["t"] == 0.4
        assert rep.witnesses[0]["neighbor_t"] == 0.3
        assert rep.witnesses[0]["excess"] == pytest.approx(0.2)

    @pytest.mark.parametrize("dip", [1, 2, 3, 4])
    def test_dip_on_steep_ramp_witnesses(self, dip):
        # A 0.2 dip below a 0.15-step ramp spoils the trend step of the
        # point two grid steps past it; the step from that point onward
        # stands in. Past the last grid point there is none, so a dip two
        # steps before the end is still witnessed twice.
        ramp = [1.0 - 0.15 * i for i in range(7)]
        ramp[dip] -= 0.2
        rep = usc_check(staircase_result(ramp), slack=0.1)
        expected = [dip] if dip + 2 < len(ramp) - 1 else [dip, dip + 2]
        assert [w["t"] for w in rep.witnesses] == [t / 10 for t in expected]


class TestContinuityModulus:
    def test_constant_curve_zero(self):
        mod = continuity_modulus(staircase_result([0.7, 0.7, 0.7]))
        assert mod.max_gap(PESIN) == 0.0

    def test_endpoint_grid_single_gap(self):
        mod = continuity_modulus(staircase_result([0.2, 0.9]))
        assert mod.max_gap(PESIN) == pytest.approx(0.7)
        assert mod.per_method[PESIN]["at"] == [0.0, 0.1]

    def test_locates_worst_gap(self):
        mod = continuity_modulus(staircase_result([0.0, 0.1, 0.5, 0.55]))
        assert mod.per_method[PESIN]["at"] == [0.1, 0.2]


class TestSinaiConsistencyAlongSweep:
    def test_mp_pesin_ls_agree_below_half(self):
        # agreement between the exponent route and the wedge route at every
        # alpha <= 0.5 (the fast-mixing regime)
        from sinailab.entropy import LEDRAPPIER_STRELCYN

        cfg = SweepConfig(family="mp",
                          grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                          estimators=(PESIN, LEDRAPPIER_STRELCYN),
                          seed=23, burn_in=2_000, length=50_000)
        result = run_sweep(cfg)
        for row in result.rows:
            p = row.estimates[PESIN]
            ls = row.estimates[LEDRAPPIER_STRELCYN]
            combined = 2.0 * (p.std_error + ls.std_error) + 0.02
            assert abs(p.value - ls.value) <= combined, (
                f"alpha={row.t}: pesin {p.value:.5f} vs ls {ls.value:.5f}"
            )


class TestNeighborhoodSplit:
    def test_doubling_band_mass(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=3, burn_in=1000, length=200_000)
        out = split_log_det_integral(sys, mu, 0.01)
        assert out["inside"] == pytest.approx(0.02 * LOG2, rel=0.10)
        assert out["outside"] == pytest.approx(0.98 * LOG2, rel=0.02)

    def test_zero_delta_empty_inside(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=3, burn_in=100, length=10_000)
        out = split_log_det_integral(sys, mu, 0.0)
        assert out["inside"] == 0.0

    def test_partition_identity(self):
        sys = make_manneville_pomeau(0.3)
        mu = birkhoff_sample(sys, seed=4, burn_in=500, length=50_000)
        full = split_log_det_integral(sys, mu, 10.0)  # everything inside
        split = split_log_det_integral(sys, mu, 0.07)
        total = full["inside"] + full["outside"]
        assert split["inside"] + split["outside"] == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("delta", [math.nan, -0.01, math.inf])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        sys = make_manneville_pomeau(0.5)
        mu = birkhoff_sample(sys, seed=3, burn_in=100, length=1_000)
        with pytest.raises(ValueError, match="delta"):
            split_log_det_integral(sys, mu, delta)

    def test_no_usable_point_raises(self):
        sys = make_manneville_pomeau(0.3)
        mu = EmpiricalMeasure(sys.space, np.array([[0.5], [0.0]]),
                              np.array([0.5, 0.5]))
        with pytest.raises(SamplingFailureError):
            split_log_det_integral(sys, mu, 0.01)

    def test_monotone_in_delta(self):
        sys = make_manneville_pomeau(0.2)
        mu = birkhoff_sample(sys, seed=5, burn_in=500, length=50_000)
        vals = [split_log_det_integral(sys, mu, d)["inside"]
                for d in (0.005, 0.01, 0.02, 0.05)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-3
