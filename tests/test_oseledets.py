"""Lyapunov spectra, subbundle estimation, domination, restricted Jacobians."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sinailab.measures as measures_mod
from sinailab.entropy import jacobian_formula_entropy
from sinailab.entropy import EntropyEstimate
from sinailab.errors import NonFiniteError, SamplingFailureError, UnsupportedSystemError
from sinailab.matrixcore import (
    WedgeAccumulatorBatch,
    _qr_step,
    log_singular_values_from_wedges,
)
from sinailab.measures import EmpiricalMeasure, birkhoff_sample, log_det_batch, ls2_integral
from sinailab.oseledets import (
    FRAME_TRANSIENT,
    WARM,
    LyapunovSpectrum,
    SplittingEstimate,
    _lockstep_logs,
    benettin_spectrum,
    domination_report,
    estimate_bundles_many,
)
from sinailab.systems import (
    DynamicalSystem,
    PhaseSpace,
    _cloud_walk,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_manneville_pomeau,
    make_standard_skew,
    make_viana,
)

LAM = (3.0 + math.sqrt(5.0)) / 2.0
LOG_LAM = math.log(LAM)

# orthonormal eigenvectors of the symmetric cat matrix
_VU = np.array([1.0, LAM - 2.0])
_VU /= np.linalg.norm(_VU)
_VS = np.array([-(LAM - 2.0), 1.0])
_VS /= np.linalg.norm(_VS)


def jacobian_at(system, x, frame):
    """Restricted Jacobian of one orthonormal frame at one point: the
    product of diag(R) of the QR step that pushes the frame."""
    dfs = system.differential_batch(np.atleast_2d(np.asarray(x, dtype=float)))
    log_r = _qr_step(dfs, np.asarray(frame, dtype=float)[:, :, None])[1]
    return float(np.exp(log_r.sum(axis=0))[0])


class TestBenettinSpectrum:
    def test_cat_analytic(self):
        spec = benettin_spectrum(make_cat_map(), seed=1, burn_in=100,
                                 n_steps=100_000)
        assert spec.exponents[0] == pytest.approx(LOG_LAM, abs=1e-6)
        assert spec.exponents[1] == pytest.approx(-LOG_LAM, abs=1e-6)

    def test_block_cat_direct_sum(self):
        spec = benettin_spectrum(make_cat_block(2), seed=2, burn_in=100,
                                 n_steps=50_000)
        expect = np.array([LOG_LAM, LOG_LAM, -LOG_LAM, -LOG_LAM])
        assert np.allclose(spec.exponents, expect, atol=1e-5)

    def test_doubling_map(self):
        spec = benettin_spectrum(make_manneville_pomeau(0.0), seed=3,
                                 burn_in=100, n_steps=50_000)
        assert spec.exponents[0] == pytest.approx(math.log(2.0), abs=1e-3)

    @pytest.mark.parametrize("make", [
        lambda: make_standard_skew(0.7, 2),
        lambda: make_cat_block(2),
        lambda: make_derived_from_anosov(0.2),
        lambda: make_viana(1.7808, 0.02, 16),
    ], ids=["skew", "cat4", "da", "viana"])
    def test_sum_matches_log_det_average(self, make):
        # exact bookkeeping identity of the QR scheme, along the orbit that
        # birkhoff_sample draws for the same arguments
        sys = make()
        seed, burn, n = 5, 50, 20_000
        spec = benettin_spectrum(sys, seed=seed, burn_in=burn, n_steps=n)
        orbit = birkhoff_sample(sys, seed=seed, burn_in=burn, length=n).points
        avg_logdet = float(log_det_batch(sys, orbit).mean())
        assert spec.exponents.sum() == pytest.approx(avg_logdet, abs=1e-8)

    @pytest.mark.parametrize("burn_in", [0, 50, WARM, 3 * WARM])
    def test_cat_any_burn_in_and_uneven_blocks(self, burn_in):
        # 20_007 steps: 100 blocks, the first 7 one step longer
        spec = benettin_spectrum(make_cat_map(), seed=1, burn_in=burn_in,
                                 n_steps=20_007)
        assert spec.exponents == pytest.approx([LOG_LAM, -LOG_LAM], abs=1e-3)

    def test_volume_preserving_sum_zero(self):
        spec = benettin_spectrum(make_standard_skew(0.5, 2), seed=4,
                                 burn_in=100, n_steps=100_000)
        assert abs(spec.exponents.sum()) <= 1e-3

    def test_seed_invariance_within_error_bars(self):
        a = benettin_spectrum(make_standard_skew(0.5, 2), seed=11,
                              burn_in=1000, n_steps=80_000)
        b = benettin_spectrum(make_standard_skew(0.5, 2), seed=12,
                              burn_in=1000, n_steps=80_000)
        gap = np.abs(a.exponents - b.exponents)
        assert np.all(gap <= 2.0 * (a.std_error + b.std_error) + 1e-9)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            benettin_spectrum(make_cat_map(), seed=0, burn_in=0, n_steps=10)

    def test_viana_base_exponent_exact(self):
        # the base block of Df is the constant d, so the top exponent is
        # log d regardless of the fiber dynamics
        spec = benettin_spectrum(make_viana(1.7808, 0.02, 16), seed=3,
                                 burn_in=2000, n_steps=50_000)
        assert spec.exponents[0] == pytest.approx(math.log(16.0), abs=1e-8)
        assert spec.exponents[1] > 0.1  # non-uniformly expanding fiber

    @pytest.mark.parametrize("make", [
        make_cat_map,
        lambda: make_standard_skew(0.5, 2),
        lambda: make_manneville_pomeau(0.0),
        lambda: make_manneville_pomeau(0.5),
    ], ids=["cat", "skew", "mp0", "mp0.5"])
    def test_orbit_of_the_cloud_gives_the_same_spectrum(self, make, orbit_calls):
        sys = make()
        mu = birkhoff_sample(sys, seed=6, burn_in=300, length=3_000)
        got = benettin_spectrum(sys, 6, 300, 3_000, orbit=mu.orbit)
        assert len(orbit_calls) == 1
        ref = benettin_spectrum(sys, 6, 300, 3_000)
        assert np.array_equal(got.exponents, ref.exponents)
        assert np.array_equal(got.std_error, ref.std_error)

    def test_orbit_of_the_wrong_length_rejected(self):
        sys = make_cat_map()
        mu = birkhoff_sample(sys, seed=6, burn_in=300, length=3_000)
        with pytest.raises(ValueError):
            benettin_spectrum(sys, 6, 200, 3_000, orbit=mu.orbit)
        with pytest.raises(ValueError):
            benettin_spectrum(sys, 6, 300, 2_000, orbit=mu.orbit)

    def test_cat_standard_error_zero(self):
        spec = benettin_spectrum(make_cat_map(), seed=1, burn_in=10,
                                 n_steps=10_000)
        assert np.all(spec.std_error < 1e-12)

    @pytest.mark.parametrize("make, n_steps", [
        (make_cat_map, 200_000),
        (lambda: make_standard_skew(0.5, 2), 100_000),
        (lambda: make_manneville_pomeau(0.5), 200_000),
    ], ids=["cat", "skew", "mp"])
    def test_peak_memory_is_the_log_table(self, make, n_steps):
        # the derivatives come a run of lockstep steps at a time, about
        # BLOCK_POINTS values (d = 1: the whole orbit's, in one buffer that
        # becomes the logs), so the spectrum allocates little beyond its
        # (d, n_steps) table of logs
        system = make()
        burn_in = 1_000
        orbit = birkhoff_sample(system, seed=5, burn_in=burn_in, length=n_steps).orbit
        tracemalloc.start()
        try:
            benettin_spectrum(system, 5, burn_in, n_steps, orbit=orbit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * system.space.dim * n_steps * 8


def step_table(mats):
    """A system and orbit whose differential at an orbit point is the step
    matrix of an (n, d, d) sequence indexed by the point's first
    coordinate: _lockstep_logs reads exactly that step's matrix."""
    n, d = mats.shape[:2]
    orbit = np.zeros((n, d))
    orbit[:, 0] = np.arange(n)
    system = DynamicalSystem(
        name="steps", space=PhaseSpace.torus(d), params={},
        eval_batch=lambda pts: pts.copy(),
        differential_batch=lambda pts: np.ascontiguousarray(
            mats[pts[:, 0].astype(int)].transpose(1, 2, 0)),
    )
    return system, orbit


def _sequential_qr_logs(mats):
    """Reference discrete QR from the identity frame, one LAPACK QR per
    step of an (n, d, d) sequence."""
    q = np.eye(mats.shape[1])
    logs = []
    for a in mats:
        q, r = np.linalg.qr(a @ q)
        sign = np.sign(np.diag(r))
        q = q * sign
        logs.append(np.log(np.abs(np.diag(r))))
    return np.array(logs)


class TestLockstepLogs:
    def test_every_step_logged_once_in_time_order(self):
        # a column's logs sum to log |det| of exactly that step's matrix
        rng = np.random.default_rng(3)
        for burn_in, n_steps in [(0, 1_234), (70, 2_001), (500, 40_013)]:
            mats = rng.standard_normal((burn_in + n_steps, 3, 3))
            logs = _lockstep_logs(*step_table(mats), burn_in)
            assert logs.shape == (3, n_steps)
            logdet = np.linalg.slogdet(mats[burn_in:])[1]
            assert np.allclose(logs.sum(axis=0), logdet, atol=1e-10)

    @pytest.mark.parametrize("burn_in", [0, 70, WARM + 30])
    def test_blocks_warm_up_over_the_steps_before_them(self, burn_in):
        # 1_001 live steps: 5 blocks, the first 201 steps long; block 0 warms
        # up from max(0, burn_in - WARM), block 3 from its start - WARM
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((burn_in + 1_001, 2, 2))
        logs = _lockstep_logs(*step_table(mats), burn_in).T
        first = max(0, burn_in - WARM)
        ref0 = _sequential_qr_logs(mats[first:burn_in + 201])[burn_in - first:]
        assert np.allclose(logs[:201], ref0, atol=1e-10)
        start3 = burn_in + 201 + 2 * 200
        ref3 = _sequential_qr_logs(mats[start3 - WARM:start3 + 200])[WARM:]
        assert np.allclose(logs[601:801], ref3, atol=1e-10)

    @pytest.mark.parametrize("make", [
        lambda: make_cat_block(2), lambda: make_standard_skew(0.5, 2), make_viana,
        lambda: make_derived_from_anosov(0.35),
    ], ids=["cat4", "skew", "viana", "da"])
    @pytest.mark.parametrize("burn_in, n_steps", [(1_000, 20_000), (100, 20_123)])
    def test_logs_do_not_depend_on_the_derivative_block(self, make, burn_in, n_steps,
                                                         monkeypatch):
        # each differential_batch call covers about BLOCK_POINTS values of
        # consecutive lockstep steps; one step per call and a whole run per
        # call must give the default's bits. At (1_000, 20_000) the 100
        # blocks are live together over all WARM + 200 steps, so the whole
        # run is one call; at (100, 20_123) block 0 joins late and 123
        # blocks take a last step alone
        system = make()
        orbit = birkhoff_sample(system, seed=5, burn_in=burn_in, length=n_steps).orbit
        calls = []

        def counted(pts):
            calls.append(pts.shape[0])
            return system.differential_batch(pts)

        counting = dataclasses.replace(system, differential_batch=counted)
        ref = _lockstep_logs(counting, orbit, burn_in)
        runs = {"default": len(calls)}
        for name, block_points in [("step", 1), ("whole", 2 ** 40)]:
            monkeypatch.setattr(measures_mod, "BLOCK_POINTS", block_points)
            calls.clear()
            assert _lockstep_logs(counting, orbit, burn_in).tobytes() == ref.tobytes()
            runs[name] = len(calls)
        if burn_in == 1_000:
            assert runs["step"] == WARM + 200 > runs["default"] > runs["whole"] == 1

    def test_constant_non_normal_small_gap(self):
        # eigenvalues 1.01 and 1 (log gap 0.01), far from the singular
        # values; the QR rates converge to log |eigenvalues|. The warm-up
        # leaves each 200-step block a start-up bias of about
        # exp(-0.01 * WARM) / 200 ~ 7e-4.
        a = np.array([[1.0, 0.0], [1.0, 1.01]])
        rates = _lockstep_logs(constant_cocycle(a), np.zeros((100_000, 2)), 0).mean(axis=1)
        assert rates == pytest.approx([math.log(1.01), 0.0], abs=1e-3)
        assert np.linalg.svd(a, compute_uv=False)[0] > 1.5


class TestEstimateBundles:
    def test_cat_unstable_line(self):
        est = estimate_bundles_many(make_cat_map(), [[0.123, 0.456]], dim_f=1)
        f = est.f_frames[:, 0, 0]
        # sine of the angle (acos saturates at sqrt(eps) near alignment)
        angle = float(np.linalg.norm(f - (f @ _VU) * _VU))
        assert angle <= 1e-8

    def test_cat_stable_line(self):
        est = estimate_bundles_many(make_cat_map(), [[0.2, 0.9]], dim_f=1)
        e = est.e_frames[:, 0, 0]
        angle = float(np.linalg.norm(e - (e @ _VS) * _VS))
        assert angle <= 1e-8

    def test_full_space_trivial(self):
        est = estimate_bundles_many(make_manneville_pomeau(0.3), [[0.4]], dim_f=1)
        assert est.dim_e == 0
        assert np.allclose(est.f_frames[:, :, 0], np.eye(1))

    def test_frames_orthonormal(self):
        est = estimate_bundles_many(make_cat_block(2),
                                    np.random.default_rng(0).random((5, 4)),
                                    dim_f=2)
        for i in range(5):
            f = est.f_frames[:, :, i]
            assert np.allclose(f.T @ f, np.eye(2), atol=1e-10)
            e = est.e_frames[:, :, i]
            assert np.allclose(e.T @ e, np.eye(2), atol=1e-10)

    def test_noninvertible_with_e_requested(self):
        from sinailab.systems import make_viana

        with pytest.raises(UnsupportedSystemError, match="invertible"):
            estimate_bundles_many(make_viana(1.7808, 0.02, 16), [[0.3, 0.5]], dim_f=1)

    @pytest.mark.parametrize("build, dim_f", [
        (lambda: make_derived_from_anosov(0.3), 1),
        (lambda: make_derived_from_anosov(0.9), 1),
        (lambda: make_cat_block(2), 2),
    ], ids=["da-0.3", "da-0.9", "cat4"])
    def test_estimate_is_invariant(self, build, dim_f):
        # the anchors are the starts' FRAME_TRANSIENT-step images, and the
        # estimate from f(x) is the one from x carried a step further: Df(y)
        # maps F(y) onto F(f(y)) and E(y) onto E(f(y))
        system = build()
        x = system.space.uniform(np.random.default_rng(30), 6)
        est = estimate_bundles_many(system, x, dim_f)
        y = x
        for _ in range(FRAME_TRANSIENT):
            y = system.eval_batch(y)
        assert est.points.tobytes() == y.tobytes()
        carried = estimate_bundles_many(system, system.eval_batch(x), dim_f)
        assert carried.points.tobytes() == system.eval_batch(est.points).tobytes()
        dfs = system.differential_batch(est.points)
        for frames, moved in ((est.f_frames, carried.f_frames),
                              (est.e_frames, carried.e_frames)):
            for i in range(x.shape[0]):
                image = np.linalg.qr(dfs[:, :, i] @ frames[:, :, i])[0]
                target = moved[:, :, i]
                sine = np.linalg.norm(image - target @ (target.T @ image), 2)
                assert sine <= 1e-12


def constant_cocycle(a):
    """The identity map of the torus with the constant derivative a."""
    return DynamicalSystem(
        name="constant", space=PhaseSpace.torus(a.shape[0]), params={},
        eval_batch=lambda pts: pts.copy(),
        differential_batch=lambda pts: np.broadcast_to(a[:, :, None],
                                                       a.shape + (pts.shape[0],)).copy(),
    )


class TestDominationReport:
    def _cat_splitting(self, swapped=False):
        pts = np.array([[0.13, 0.57], [0.71, 0.22], [0.4, 0.9]])
        m = pts.shape[0]
        vu = np.broadcast_to(_VU[:, None, None], (2, 1, m)).copy()
        vs = np.broadcast_to(_VS[:, None, None], (2, 1, m)).copy()
        if swapped:
            return SplittingEstimate(pts, e_frames=vu, f_frames=vs)
        return SplittingEstimate(pts, e_frames=vs, f_frames=vu)

    def test_cat_dominated(self):
        rep = domination_report(make_cat_map(), self._cat_splitting(),
                                n_grid=range(1, 13))
        assert rep.verdict == "dominated"
        assert rep.rho == pytest.approx(LAM ** -2, rel=1e-6)
        assert rep.C == pytest.approx(1.0, rel=1e-6)
        assert rep.ratios[0, 0] == pytest.approx(LAM ** -2, rel=1e-9)

    def test_swapped_undetermined(self):
        rep = domination_report(make_cat_map(), self._cat_splitting(swapped=True),
                                n_grid=range(1, 13))
        assert rep.verdict == "undetermined"
        assert rep.rho == pytest.approx(LAM ** 2, rel=1e-6)

    def test_vacuous_empty_e(self):
        sys = make_manneville_pomeau(0.3)
        est = estimate_bundles_many(sys, [[0.4]], dim_f=1)
        rep = domination_report(sys, est, n_grid=[1, 2, 3])
        assert rep.verdict == "dominated"
        assert rep.rho == 0.0

    def test_graded_restricted_extremes(self):
        # A = Q diag(e^4, e^0.5, e^-0.5, e^-4) Q^T and F a rotated basis of
        # its top-2 eigenspace: Df^n F has singular values e^4n and e^0.5n.
        # Formed directly, Df^n F loses e^0.5n to round-off within a few
        # steps (its condition number grows like e^3.5n).
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = q @ np.diag(np.exp([4.0, 0.5, -0.5, -4.0])) @ q.T
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        frames = (q[:, :2] @ rot)[:, :, None]
        acc = WedgeAccumulatorBatch(frames)
        lo, hi = [], []
        walk = _cloud_walk(constant_cocycle(a), np.zeros((1, 4)), 0)
        for _, (dfs, _) in zip(range(12), walk):
            acc.step(dfs)
            log_sv = log_singular_values_from_wedges(acc.log_wedge_all())[:, 0]
            lo.append(log_sv[-1])
            hi.append(log_sv[0])
        n = np.arange(1, 13)
        assert np.allclose(lo, 0.5 * n, rtol=0.0, atol=1e-12)
        assert np.allclose(hi, 4.0 * n, rtol=0.0, atol=1e-12)

    def test_one_walk_for_both_bundles(self):
        # E and F advance off one walk of the anchors: one differential
        # batch per step up to max(n_grid)
        system = make_cat_map()
        calls = []

        def counted(pts):
            calls.append(pts.shape[0])
            return make_cat_map().differential_batch(pts)

        system.differential_batch = counted
        domination_report(system, self._cat_splitting(), n_grid=[2, 5, 9])
        assert calls == [3] * 9

    def test_frames_are_left_as_given(self):
        # the accumulators read the caller's frames in place: a report must
        # not write to them
        cat4 = make_cat_block(2)
        anchors = np.random.default_rng(12).random((4, 4))
        for system, splitting in ((cat4, estimate_bundles_many(cat4, anchors, dim_f=2)),
                                  (make_cat_map(), self._cat_splitting())):
            before = (splitting.e_frames.tobytes(), splitting.f_frames.tobytes())
            domination_report(system, splitting, n_grid=range(1, 13))
            assert (splitting.e_frames.tobytes(), splitting.f_frames.tobytes()) == before

    def test_json_has_full_table(self):
        rep = domination_report(make_cat_map(), self._cat_splitting(),
                                n_grid=[1, 2, 4])
        d = rep.to_json_dict()
        assert len(d["ratios"][0]) == 3


class TestJacobianAlongF:
    def test_cat_unstable_stretch(self):
        v = jacobian_at(make_cat_map(), [0.3, 0.8], _VU[:, None])
        assert v == pytest.approx(LAM, abs=1e-12)

    def test_log_matches_top_exponent_exactly(self):
        v = jacobian_at(make_cat_map(), [0.1, 0.2], _VU[:, None])
        assert math.log(v) == pytest.approx(LOG_LAM, abs=1e-12)

    def test_full_space_is_det(self):
        v = jacobian_at(make_cat_map(), [0.3, 0.8], np.eye(2))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_identity_frame_independence(self):
        # two orthonormal bases of the same 2-subspace in dim 4
        rng = np.random.default_rng(3)
        base = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        sys = make_standard_skew(0.9, 2)
        x = [0.1, 0.2, 0.3, 0.4]
        v1 = jacobian_at(sys, x, base)
        v2 = jacobian_at(sys, x, base @ rot)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_rank_deficient_returns_zero(self):
        # a singular case from the viana critical set
        from sinailab.systems import make_viana

        v = make_viana(1.7808, 0.02, 16)
        val = jacobian_at(v, [0.2, 0.0], np.array([[0.0], [1.0]]))
        assert val == 0.0


# |det A| = 1e-8 and sigma_min(A) = 1e-16: the Gram matrix A^T A has
# det 0 in floating point and an eigenvalue of 1e-32 lost below eps * 1e16
GRADED = np.array([[1.0, 1e8], [0.0, 1e-8]])


class TestGradedCocycle:
    def _cloud(self, system):
        pts = np.array([[0.1, 0.2], [0.3, 0.7], [0.6, 0.4]])
        return EmpiricalMeasure(system.space, pts, np.full(3, 1.0 / 3.0))

    def test_jacobian_full_dim_is_log_det(self):
        system = constant_cocycle(GRADED)
        est = jacobian_formula_entropy(system, self._cloud(system), dim_f=2)
        assert est.diagnostics["raw_mean"] == pytest.approx(-8.0 * math.log(10.0),
                                                            rel=0.0, abs=1e-12)
        assert est.diagnostics["skipped_points"] == 0

    def test_ls2_forward_and_backward(self):
        system = constant_cocycle(GRADED)
        system.invertible = True
        out = ls2_integral(system, self._cloud(system))
        assert out["forward"] == pytest.approx(8.0 * math.log(10.0), rel=0.0, abs=1e-12)
        assert out["backward"] == pytest.approx(16.0 * math.log(10.0), rel=0.0, abs=1e-12)


class TestNonFiniteGuards:
    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_derivative_names_its_step(self, d):
        # the derivative vanishes at one orbit point only: log 0 there
        def dfb(pts):
            keep = (np.atleast_2d(pts)[:, 0] != 0.5).astype(float)
            return np.eye(d)[:, :, None] * keep
        system = DynamicalSystem(name="zero", space=PhaseSpace.torus(d), params={},
                                 eval_batch=lambda pts: pts.copy(),
                                 differential_batch=dfb)
        orbit = np.random.default_rng(2).uniform(0.0, 0.4, (100 + 400, d))
        orbit[100 + 237] = 0.5
        with pytest.raises(SamplingFailureError, match="singular at orbit step 337$"):
            benettin_spectrum(system, 0, 100, 400, orbit=orbit)
        orbit[100 + 237] = 0.25
        assert benettin_spectrum(system, 0, 100, 400, orbit=orbit).exponents.tolist() == [0.0] * d

    @pytest.mark.parametrize("exponents, std_error", [
        ([0.5, -math.inf], [0.1, 0.1]), ([0.5, math.nan], [0.1, 0.1]),
        ([0.5, -0.5], [0.1, math.nan]), ([0.5, -0.5], [math.inf, 0.1]),
    ])
    def test_spectrum_rejects_non_finite(self, exponents, std_error):
        with pytest.raises(NonFiniteError):
            LyapunovSpectrum(np.array(exponents), 100, np.array(std_error))

    @pytest.mark.parametrize("value, std_error", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf),
    ])
    def test_estimate_rejects_non_finite(self, value, std_error):
        with pytest.raises(NonFiniteError):
            EntropyEstimate(value=value, method="pesin", std_error=std_error)
