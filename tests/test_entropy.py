"""The three entropy estimators and their cross-validation."""

import dataclasses
import math
import threading

import numpy as np
import pytest

import sinailab.entropy as entropy_mod
from sinailab.entropy import (
    JACOBIAN_F,
    EntropyEstimate,
    combine_estimates,
    cross_validate,
    jacobian_formula_entropy,
    ls_entropy,
    pesin_entropy,
    run_estimators,
)
from sinailab.errors import SamplingFailureError
from sinailab.matrixcore import WedgeAccumulatorBatch, log_wedge_total_from_rows
from sinailab.measures import (
    EmpiricalMeasure,
    _masked_mean_se,
    birkhoff_sample,
    dictionary_moments,
    ulam_matrix,
    ulam_stationary,
)
from sinailab.oseledets import LyapunovSpectrum, benettin_spectrum
from sinailab.systems import (
    DynamicalSystem,
    PhaseSpace,
    SingularHyperplane,
    _cloud_walk,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_manneville_pomeau,
    make_standard_skew,
    make_viana,
)
from test_oseledets import constant_cocycle

LAM = (3.0 + math.sqrt(5.0)) / 2.0
LOG_LAM = math.log(LAM)


def spectrum_of(*exps, se=0.0):
    exps = np.asarray(exps, dtype=float)
    return LyapunovSpectrum(exponents=exps, n_steps=1000,
                            std_error=np.full(exps.shape, se))


def make_torus_identity(d=2):
    def ev(pts):
        return np.atleast_2d(pts).copy()

    def dfb(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(d)[:, :, None], (d, d, pts.shape[0])).copy()

    return DynamicalSystem(
        name="identity",
        space=PhaseSpace.torus(d),
        params={},
        eval_batch=ev,
        differential_batch=dfb,
        inverse_eval_batch=ev,
    )


def small_cloud(system, seed=1, length=200):
    return birkhoff_sample(system, seed=seed, burn_in=50, length=length)


def wedge_order_minima(system, mu, n_max):
    """min over n <= n_max of (1/n) <log ||Df^n(x)^(wedge i)||>_mu for each
    order i, from one WedgeAccumulatorBatch driven by the shared cloud walk."""
    pts, w = mu.points, mu.weights / mu.weights.sum()
    m, d = pts.shape
    acc = WedgeAccumulatorBatch(np.broadcast_to(np.eye(d)[:, :, None], (d, d, m)))
    best = np.full(d, np.inf)
    for n, (dfs, _) in zip(range(1, n_max + 1), _cloud_walk(system, pts, 0)):
        acc.step(dfs)
        best = np.minimum(best, acc.log_wedge_all() @ w / n)
    return best


class TestPesinEntropy:
    def test_cat_spectrum(self):
        est = pesin_entropy(spectrum_of(LOG_LAM, -LOG_LAM))
        assert est.value == pytest.approx(LOG_LAM, abs=1e-15)

    def test_all_negative_zero(self):
        est = pesin_entropy(spectrum_of(-0.3, -1.2))
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_doubling(self):
        est = pesin_entropy(spectrum_of(math.log(2.0)))
        assert est.value == pytest.approx(math.log(2.0))

    def test_error_propagates_in_quadrature(self):
        est = pesin_entropy(spectrum_of(0.5, 0.4, -1.0, se=0.01))
        assert est.std_error == pytest.approx(0.01 * math.sqrt(2.0), abs=1e-12)


class TestLSSequence:
    def test_cat_closed_form_table(self):
        # constant cocycle: a_n = (1/n) log(2 + lambda^n)
        sys = make_cat_map()
        mu = small_cloud(sys, length=50)
        est = ls_entropy(sys, mu, n_max=40, early_stop=False)
        for k, a in enumerate(est.diagnostics["a_n"], start=1):
            expected = math.log(2.0 + LAM ** k) / k
            assert a == pytest.approx(expected, abs=1e-10)
        # the tail is flat to machine precision, so only pin the region
        assert est.diagnostics["argmin_n"] >= 35
        assert abs(est.value - LOG_LAM) <= 3e-3

    def test_identity_map_table(self):
        sys = make_torus_identity(2)
        pts = np.random.default_rng(1).random((20, 2))
        mu = EmpiricalMeasure(sys.space, pts, np.full(20, 0.05))
        est = ls_entropy(sys, mu, n_max=20, early_stop=False)
        for k, a in enumerate(est.diagnostics["a_n"], start=1):
            assert a == pytest.approx(math.log(3.0) / k, abs=1e-12)
        assert est.diagnostics["argmin_n"] == 20

    def test_table_subadditive_scaled(self):
        sys = make_cat_map()
        mu = small_cloud(sys, length=30)
        a = ls_entropy(sys, mu, n_max=24, early_stop=False).diagnostics["a_n"]
        for n in range(1, 12):
            for m in range(1, 12):
                lhs = (n + m) * a[n + m - 1]
                rhs = n * a[n - 1] + m * a[m - 1]
                assert lhs <= rhs + 1e-9

    def test_min_nonincreasing_in_n_max(self):
        sys = make_derived_from_anosov(0.3)
        mu = small_cloud(sys, length=100)
        v1 = ls_entropy(sys, mu, n_max=10, early_stop=False).value
        v2 = ls_entropy(sys, mu, n_max=25, early_stop=False).value
        assert v2 <= v1 + 1e-12

    def test_early_stop_shortens_table(self):
        sys = make_cat_map()
        mu = small_cloud(sys, length=30)
        est = ls_entropy(sys, mu, n_max=40, early_stop=True)
        assert len(est.diagnostics["a_n"]) < 40

    def test_constant_symmetric_closed_form(self):
        # normal constant cocycles: a_n = (1/n) log(1 + sum_j prod_i<=j s_i^n)
        rng = np.random.default_rng(8)
        s = rng.standard_normal((3, 3))
        a = s + s.T + 4.0 * np.eye(3)
        sv = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]

        def ev(pts):
            return np.mod(np.atleast_2d(pts) @ a.T, 1.0)

        def dfb(pts):
            pts = np.atleast_2d(pts)
            return np.broadcast_to(a[:, :, None], (3, 3, pts.shape[0])).copy()

        sys = DynamicalSystem("const", PhaseSpace.torus(3), {}, ev, dfb)
        pts = rng.random((5, 3))
        mu = EmpiricalMeasure(sys.space, pts, np.full(5, 0.2))
        est = ls_entropy(sys, mu, n_max=12, early_stop=False)
        for k, got in enumerate(est.diagnostics["a_n"], start=1):
            wedges = np.cumsum(k * np.log(sv))
            expected = (np.logaddexp.reduce(np.concatenate([[0.0], wedges]))) / k
            assert got == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_n_max(self):
        sys = make_cat_map()
        mu = small_cloud(sys, length=10)
        with pytest.raises(ValueError):
            ls_entropy(sys, mu, n_max=0)
        with pytest.raises(ValueError):
            ls_entropy(sys, mu, n_max=61)

    def test_orbit_failures_above_threshold_abort(self):
        # 5% of the cloud sits exactly on the branch point: both cloud
        # estimators must refuse rather than silently reweight that much mass
        sys = make_manneville_pomeau(0.4)
        pts = np.linspace(0.05, 0.95, 100)[:, None]
        pts[::20] = 0.5
        mu = EmpiricalMeasure(sys.space, pts, np.full(100, 0.01))
        with pytest.raises(SamplingFailureError):
            ls_entropy(sys, mu, n_max=10)
        with pytest.raises(SamplingFailureError):
            jacobian_formula_entropy(sys, mu, dim_f=1)

    @pytest.mark.parametrize("start, step", [(0.5, 0), (0.75, 1), (0.875, 2)])
    def test_walk_failure_names_its_map_step(self, start, step):
        # 5 of 400 points (over the 1% limit) reach mp's branch point 0.5
        # after `step` maps, and no other point does
        sys = make_manneville_pomeau(0.4)
        pts = np.random.default_rng(8).uniform(0.01, 0.99, (400, 1))
        pts[:5] = start
        walk = _cloud_walk(sys, pts, 0)
        with pytest.raises(SamplingFailureError,
                           match=rf"5/400 orbit failures in the cloud walk at map step {step}$"):
            for _ in range(step + 1):
                next(walk)

    def test_row_means_bits_as_points_die(self):
        # ls_entropy forms its normalized weights once and again only when
        # a point dies: 0.75 reaches the branch point 0.5 after one step,
        # 0.875 after two. Each a_n must be the masked mean of its row over
        # the points alive at that step, bit for bit.
        sys = make_manneville_pomeau(0.4)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.01, 0.99, (400, 1))
        pts[[17, 230], 0] = 0.75, 0.875
        w = rng.uniform(0.5, 1.5, 400)
        w /= w.sum()
        est = ls_entropy(sys, EmpiricalMeasure(sys.space, pts, w), 12,
                         early_stop=False)
        acc = WedgeAccumulatorBatch(np.ones((1, 1, 400)))
        reference, dead = [], []
        for n, (dfs, alive) in zip(range(1, 13), _cloud_walk(sys, pts, 0)):
            acc.step(dfs)
            row = log_wedge_total_from_rows(acc.log_wedge_all())
            reference.append(_masked_mean_se(row, w, alive)[0] / n)
            dead.append(int((~alive).sum()))
        assert dead == [0, 1] + [2] * 10
        assert est.diagnostics["skipped_points"] == 2
        assert np.array(est.diagnostics["a_n"]).tobytes() == np.array(reference).tobytes()


    def test_error_bar_over_the_points_alive_at_argmin(self):
        # a_n bottoms out at n = 2 (the derivative is 1 + x, then 1e6 at
        # the third step), and the point at 0.05 reaches the wall at the
        # fourth: the error bar must cover the points its row's mean does
        def ev(pts):
            return np.atleast_2d(pts) + 0.2

        def dfb(pts):
            x = np.atleast_2d(pts)[:, 0]
            out = np.where(x < 0.4, 1.0 + x, np.where(x < 0.6, 1e6, 1.0))
            return out[None, None, :].copy()

        wall = 0.05 + 0.2 + 0.2 + 0.2
        sys = DynamicalSystem(name="drift", space=PhaseSpace.unit_interval(), params={},
                              eval_batch=ev, differential_batch=dfb,
                              singular_set=[SingularHyperplane(0, wall, "wall")])
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 0.1, (400, 1))
        pts[9, 0] = 0.05
        w = rng.uniform(0.5, 1.5, 400)
        w /= w.sum()
        est = ls_entropy(sys, EmpiricalMeasure(sys.space, pts, w), 5, early_stop=False)
        assert est.diagnostics["argmin_n"] == 2
        assert est.diagnostics["skipped_points"] == 1
        row = np.log1p((1.0 + pts[:, 0]) * (1.2 + pts[:, 0])) / 2
        alive = np.ones(400, dtype=bool)
        assert est.std_error == _masked_mean_se(row, w, alive)[1]
        alive[9] = False
        assert est.std_error != _masked_mean_se(row, w, alive)[1]


@pytest.fixture(scope="module")
def skew_cloud():
    sys = make_standard_skew(0.5, 2)
    return sys, birkhoff_sample(sys, seed=5, burn_in=2000, length=4000)


def ls_bits(est):
    return (np.array(est.diagnostics["a_n"]).tobytes(), est.value, est.std_error,
            est.diagnostics["argmin_n"], est.diagnostics["skipped_points"])


class TestLSBlocks:
    # the LS table keeps its products in contiguous blocks, one thread
    # each; every number must have the bits of one block, whatever the
    # block count (4000 or 400 points cut 3 or 7 ways: uneven blocks)

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_skew_bits_independent_of_blocks(self, skew_cloud, monkeypatch, early_stop):
        sys, mu = skew_cloud
        monkeypatch.setattr(entropy_mod, "LS_BLOCK_WORK", 1)
        seen = {}
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(entropy_mod, "_ls_threads", threads)
            assert len(entropy_mod._ls_blocks(4000, 4)) == threads
            seen[threads] = ls_bits(ls_entropy(sys, mu, 30, early_stop=early_stop, seed=5))
        assert seen[2] == seen[1] and seen[3] == seen[1] and seen[7] == seen[1]

    def test_early_stop_bits_independent_of_blocks(self, monkeypatch):
        # the dithered viana cloud stops its table early, past its minimum
        sys = make_viana()
        mu = birkhoff_sample(sys, seed=5, burn_in=2000, length=4000)
        monkeypatch.setattr(entropy_mod, "LS_BLOCK_WORK", 1)
        seen = {}
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(entropy_mod, "_ls_threads", threads)
            seen[threads] = ls_bits(ls_entropy(sys, mu, 60, seed=5))
        assert seen[1][3] < len(np.frombuffer(seen[1][0])) < 60
        assert seen[2] == seen[1] and seen[3] == seen[1] and seen[7] == seen[1]

    def test_dying_points_bits_independent_of_blocks(self, monkeypatch):
        # the cloud of test_row_means_bits_as_points_die: its two dying
        # points fall in different blocks
        sys = make_manneville_pomeau(0.4)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.01, 0.99, (400, 1))
        pts[[17, 230], 0] = 0.75, 0.875
        w = rng.uniform(0.5, 1.5, 400)
        w /= w.sum()
        mu = EmpiricalMeasure(sys.space, pts, w)
        monkeypatch.setattr(entropy_mod, "LS_BLOCK_WORK", 1)
        seen = {}
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(entropy_mod, "_ls_threads", threads)
            seen[threads] = ls_bits(ls_entropy(sys, mu, 12, early_stop=False))
        assert seen[1][4] == 2
        assert seen[2] == seen[1] and seen[3] == seen[1] and seen[7] == seen[1]

    @pytest.mark.parametrize("m, threads", [(4000, 3), (4001, 7), (10, 7)])
    def test_blocks_tile_the_cloud(self, monkeypatch, m, threads):
        monkeypatch.setattr(entropy_mod, "LS_BLOCK_WORK", 1)
        monkeypatch.setattr(entropy_mod, "_ls_threads", threads)
        blocks = entropy_mod._ls_blocks(m, 4)
        assert len(blocks) == threads
        assert blocks[0][0] == 0 and blocks[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = {hi - lo for lo, hi in blocks}
        assert max(sizes) - min(sizes) <= 1

    def test_block_count_rule(self, monkeypatch):
        # min(cores this process may run on, work // LS_BLOCK_WORK), at
        # least 1; work is points x sum_j C(d, j)^2 (69 at d = 4)
        monkeypatch.setattr(entropy_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        unit = entropy_mod.LS_BLOCK_WORK
        assert len(entropy_mod._ls_blocks(10**6, 4)) == 3
        assert len(entropy_mod._ls_blocks(2 * unit // 69 + 1, 4)) == 2
        assert len(entropy_mod._ls_blocks(2 * unit // 69 - 1, 4)) == 1
        assert len(entropy_mod._ls_blocks(2 * unit, 1)) == 2
        assert len(entropy_mod._ls_blocks(1, 1)) == 1
        monkeypatch.setattr(entropy_mod.os, "sched_getaffinity", lambda pid: {0})
        assert len(entropy_mod._ls_blocks(10**6, 4)) == 1
        monkeypatch.setattr(entropy_mod, "_ls_threads", 2)
        assert len(entropy_mod._ls_blocks(10**6, 4)) == 2

    def test_small_cloud_starts_no_thread(self, monkeypatch):
        # under twice the work constant the table runs one block in the
        # calling thread, whatever the budget: no pool is opened
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was opened")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(entropy_mod, "_ls_threads", 7)
        sys = make_standard_skew(0.5, 2)
        mu = birkhoff_sample(sys, seed=5, burn_in=500, length=1000)
        assert len(entropy_mod._ls_blocks(1000, 4)) == 1
        before = threading.active_count()
        ls_entropy(sys, mu, 5)
        assert threading.active_count() == before

    def test_pool_threads_run_in_the_callers_error_state(self, skew_cloud, monkeypatch):
        # numpy keeps its error state in a context variable, which a new
        # thread starts without: each block must see the caller's state
        sys, mu = skew_cloud
        monkeypatch.setattr(entropy_mod, "_ls_threads", 2)
        assert len(entropy_mod._ls_blocks(4000, 4)) == 2
        seen = []
        wedge_row = entropy_mod._wedge_row

        def recorded(acc, dfs):
            seen.append((threading.get_ident(), np.geterr()))
            return wedge_row(acc, dfs)

        monkeypatch.setattr(entropy_mod, "_wedge_row", recorded)
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            caller = np.geterr()
            ls_entropy(sys, mu, 5, early_stop=False)
        assert len({ident for ident, _ in seen}) == 2 and len(seen) == 10
        assert all(state == caller for _, state in seen)

    def test_no_thread_outlives_the_table(self, skew_cloud, monkeypatch):
        sys, mu = skew_cloud
        monkeypatch.setattr(entropy_mod, "_ls_threads", 2)
        assert len(entropy_mod._ls_blocks(4000, 4)) == 2
        before = set(threading.enumerate())
        ls_entropy(sys, mu, 5)
        assert set(threading.enumerate()) == before


class TestExponentFunction:
    # the minimum over n of the order-i column approximates the sum of the
    # top-i Lyapunov exponents from above
    def test_cat_top(self):
        sys = make_cat_map()
        mu = small_cloud(sys, length=50)
        assert wedge_order_minima(sys, mu, 30)[0] == pytest.approx(LOG_LAM, abs=1e-9)

    def test_cat_full_wedge_is_zero(self):
        sys = make_cat_map()
        mu = small_cloud(sys, length=50)
        assert wedge_order_minima(sys, mu, 30)[1] == pytest.approx(0.0, abs=1e-10)

    def test_top_wedge_is_log_det_average(self):
        sys = make_manneville_pomeau(0.0)
        mu = small_cloud(sys, length=500)
        assert wedge_order_minima(sys, mu, 20)[0] == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_telescoping_on_block_cat(self):
        sys = make_cat_block(2)
        mu = small_cloud(sys, length=50)
        vals = wedge_order_minima(sys, mu, 30)
        lams = [LOG_LAM, LOG_LAM, -LOG_LAM, -LOG_LAM]
        prev = 0.0
        for i, v in enumerate(vals):
            assert (v - prev) == pytest.approx(lams[i], abs=0.02)
            prev = v


def cloud_spectrum(system, mu):
    """The Benettin spectrum along a small_cloud's own orbit."""
    return benettin_spectrum(system, 1, 50, mu.orbit.shape[0] - 50, orbit=mu.orbit)


#: the g T at which a frame's error exp(-g T) reaches FRAME_TOL
FRAME_NEED = math.log(1.0 / entropy_mod.FRAME_TOL)


class TestJacobianFormulaEntropy:
    def test_cat_unstable(self):
        # gap 2 log(lambda): the transient is sized from it, clipped below
        sys = make_cat_map()
        mu = small_cloud(sys, length=2000)
        est = jacobian_formula_entropy(sys, mu, dim_f=1, spectrum=cloud_spectrum(sys, mu))
        assert est.value == pytest.approx(LOG_LAM, abs=1e-6)
        assert est.diagnostics["n_transient"] == max(
            entropy_mod.T_MIN, math.ceil(FRAME_NEED / (2.0 * LOG_LAM)))
        assert est.diagnostics["gap"] == pytest.approx(2.0 * LOG_LAM, abs=1e-9)
        assert est.diagnostics["transient_capped"] is False

    def test_bias_follows_the_gap(self):
        # a constant non-normal cocycle with gap g = 0.5: a random frame's
        # error, and so the bias of the log volume, decays like exp(-g T),
        # and at the sized T = ceil(log(1/FRAME_TOL)/g) it is below FRAME_TOL
        gap = 0.5
        sys = constant_cocycle(np.array([[math.exp(gap), 1.0], [0.0, 1.0]]))
        pts = np.random.default_rng(0).uniform(size=(500, 2))
        mu = EmpiricalMeasure(sys.space, pts, np.full(500, 1.0 / 500))

        def bias(spectrum):
            est = jacobian_formula_entropy(sys, mu, dim_f=1, spectrum=spectrum)
            return est.diagnostics["raw_mean"] - gap, est.diagnostics

        # spectra whose gaps ask for T = 20, 30 and 40 steps
        scaled = [bias(spectrum_of(FRAME_NEED / (t - 0.5), 0.0))
                  for t in (20, 30, 40)]
        assert [diag["n_transient"] for _, diag in scaled] == [20, 30, 40]
        rates = [b * math.exp(gap * diag["n_transient"]) for b, diag in scaled]
        assert rates[0] > 0.0
        assert rates == pytest.approx([rates[0]] * 3, rel=0.02)
        sized, diag = bias(spectrum_of(gap, 0.0))
        assert diag["n_transient"] == math.ceil(FRAME_NEED / gap)
        assert 0.0 < sized < entropy_mod.FRAME_TOL

    def test_cat4_transient_capped(self):
        # cat4's two unstable exponents are equal: no gap at dim_f = 1, so
        # the frames take T_MAX steps and the run says they may not settle
        sys = make_cat_block(2)
        mu = small_cloud(sys, length=500)
        est = jacobian_formula_entropy(sys, mu, dim_f=1, spectrum=cloud_spectrum(sys, mu))
        assert est.diagnostics["transient_capped"] is True
        assert est.diagnostics["n_transient"] == entropy_mod.T_MAX
        assert est.value == pytest.approx(LOG_LAM, abs=1e-6)

    def test_small_gap_capped(self):
        # a gap g with g T_MAX < log(1/FRAME_TOL), well outside 2 SE of 0
        spec = spectrum_of(0.5 * FRAME_NEED / entropy_mod.T_MAX, 0.0, se=1e-6)
        assert entropy_mod.frame_transient(spec, 1)[1:] == (entropy_mod.T_MAX, True)
        spec = spectrum_of(2.0 * FRAME_NEED / entropy_mod.T_MAX, 0.0, se=1e-6)
        assert entropy_mod.frame_transient(spec, 1)[1:] == (entropy_mod.T_MAX // 2, False)

    def test_full_dim_takes_one_step_and_no_spectrum(self):
        sys = make_standard_skew(0.5, 2)
        calls = []
        counted = dataclasses.replace(
            sys, differential_batch=lambda pts: calls.append(1) or sys.differential_batch(pts))
        mu = small_cloud(sys, length=2000)
        est = jacobian_formula_entropy(counted, mu, dim_f=4)
        assert len(calls) == 1
        assert est.diagnostics["n_transient"] == 0
        assert "gap" not in est.diagnostics and "transient_capped" not in est.diagnostics

    def test_below_full_dim_needs_the_spectrum(self):
        sys = make_standard_skew(0.5, 2)
        mu = small_cloud(sys, length=200)
        with pytest.raises(ValueError, match="spectrum"):
            jacobian_formula_entropy(sys, mu, dim_f=2)
        with pytest.raises(ValueError, match="spectrum"):
            jacobian_formula_entropy(sys, mu, dim_f=2, spectrum=spectrum_of(1.0, -1.0))

    def test_full_dim_volume_preserving_zero(self):
        sys = make_standard_skew(0.5, 2)
        mu = small_cloud(sys, length=2000)
        est = jacobian_formula_entropy(sys, mu, dim_f=4)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_doubling_full_dim(self):
        sys = make_manneville_pomeau(0.0)
        mu = small_cloud(sys, length=5000)
        est = jacobian_formula_entropy(sys, mu, dim_f=1)
        assert est.value == pytest.approx(math.log(2.0), abs=1e-9)


class TestCrossValidate:
    def test_cat_sinai_consistent(self):
        sys = make_cat_map()
        mu = birkhoff_sample(sys, seed=3, burn_in=1000, length=20_000)
        rep = cross_validate(sys, mu, dim_f=1, n_max=40, tolerance=0.02)
        assert rep.sinai_consistent
        assert not rep.ruelle_violated

    def test_doubling_sinai_consistent(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=4, burn_in=1000, length=50_000)
        rep = cross_validate(sys, mu, dim_f=1, n_max=40, tolerance=0.02)
        assert rep.sinai_consistent
        values = [e.value for e in rep.estimates.values()]
        assert np.allclose(values, math.log(2.0), atol=0.01)

    def test_viana_triple_agreement(self):
        # non-invertible, singular critical set, dithered base: all three
        # estimators still land together
        from sinailab.systems import make_viana

        sys = make_viana(1.7808, 0.02, 16)
        mu = birkhoff_sample(sys, seed=3, burn_in=5000, length=20_000)
        spec = benettin_spectrum(sys, seed=3, burn_in=5000, n_steps=200_000)
        rep = cross_validate(sys, mu, dim_f=2, n_max=40, tolerance=0.02,
                             spectrum=spec)
        assert rep.sinai_consistent, rep.gaps

    def test_spectrum_runs_along_the_cloud_orbit(self, orbit_calls):
        sys = make_standard_skew(0.5, 2)
        mu = birkhoff_sample(sys, seed=3, burn_in=500, length=2_000)
        rep = cross_validate(sys, mu, dim_f=2, n_max=5)
        assert orbit_calls == [2_499]
        spec = benettin_spectrum(sys, 3, 500, 2_000)
        assert rep.estimates["pesin"].value == pesin_entropy(spec).value

    def test_jacobian_below_full_dim_runs_the_spectrum(self, orbit_calls):
        # its gap sizes the transient; at full dimension no spectrum runs
        sys = make_standard_skew(0.5, 2)
        mu = birkhoff_sample(sys, seed=3, burn_in=500, length=2_000)
        ests, spec = run_estimators(sys, mu, (JACOBIAN_F,), 3, 500, 2_000, dim_f=2)
        assert orbit_calls == [2_499]
        assert ests[JACOBIAN_F].diagnostics["gap"] == spec.exponents[1] - spec.exponents[2]
        assert run_estimators(sys, mu, (JACOBIAN_F,), 3, 500, 2_000, dim_f=4)[1] is None

    def test_forced_inconsistency_flags_ruelle(self):
        zero_spec = pesin_entropy(spectrum_of(0.0, 0.0))
        ls = EntropyEstimate(value=1.53, method="ledrappier_strelcyn")
        jac = EntropyEstimate(value=0.0, method="jacobian_F")
        rep = combine_estimates(zero_spec, ls, jac, tolerance=0.02)
        assert rep.ruelle_violated
        assert not rep.sinai_consistent

    @pytest.mark.parametrize("tolerance", [math.nan, -0.01, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        # a NaN tolerance compared false with every gap: "inconsistent" at
        # gap 0
        est = pesin_entropy(spectrum_of(0.5, -0.5))
        with pytest.raises(ValueError, match="tolerance"):
            combine_estimates(est, est, est, tolerance=tolerance)


class TestEntropyEstimateInvariants:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            EntropyEstimate(value=-0.1, method="pesin")

    def test_eq32_consistency_cat(self):
        # Pesin value vs restricted-Jacobian value on the cat map
        sys = make_cat_map()
        mu = birkhoff_sample(sys, seed=5, burn_in=500, length=20_000)
        spec = benettin_spectrum(sys, seed=5, burn_in=500, n_steps=20_000)
        p = pesin_entropy(spec)
        j = jacobian_formula_entropy(sys, mu, dim_f=1, spectrum=spec)
        assert abs(p.value - j.value) <= 2.0 * (p.std_error + j.std_error) + 0.01


def make_constant_map():
    """The constant map of T^2 onto (0.3, 0.7), with its zero derivative."""
    return DynamicalSystem(
        name="constant", space=PhaseSpace.torus(2), params={},
        eval_batch=lambda pts: np.tile([0.3, 0.7], (np.atleast_2d(pts).shape[0], 1)),
        differential_batch=lambda pts: np.zeros((2, 2, np.atleast_2d(pts).shape[0])),
    )


class TestDegenerateInput:
    # what each entry point does with a degenerate map, cloud or weights,
    # under the suite's raising numpy error state
    def test_constant_map(self):
        system = make_constant_map()
        with pytest.raises(SamplingFailureError, match="singular at orbit step 50"):
            benettin_spectrum(system, seed=1, burn_in=50, n_steps=2_000)
        birkhoff = birkhoff_sample(system, seed=1, burn_in=50, length=2_000)
        ulam = ulam_stationary(ulam_matrix(system, 16, 16, seed=1))
        for mu in (birkhoff, ulam):
            with pytest.raises(SamplingFailureError, match="no usable points in the cloud"):
                jacobian_formula_entropy(system, mu, dim_f=2)
            est = ls_entropy(system, mu)
            assert (est.value, est.std_error) == (0.0, 0.0)

    def test_one_point_cloud(self):
        # the cat map's derivative is constant, so one point gives the LS
        # upper bound for log lambda; one point has no spread, and its
        # standard error reads 0
        system = make_cat_map()
        mu = EmpiricalMeasure(system.space, np.array([[0.123, 0.456]]), np.array([1.0]))
        est = ls_entropy(system, mu)
        assert LOG_LAM <= est.value < LOG_LAM + 1e-6 and est.std_error == 0.0
        est = jacobian_formula_entropy(system, mu, dim_f=2)
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert np.all(np.isfinite(dictionary_moments(mu, 4)))

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalMeasure(PhaseSpace.torus(2), np.array([[0.1, 0.2], [0.3, 0.4]]),
                             np.zeros(2))
