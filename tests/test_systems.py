"""Example families: exact maps, exact Jacobians, phase-space contracts."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sinailab.systems as systems_mod
from sinailab.errors import EscapeError, UnsupportedSystemError
from sinailab.systems import (
    CAT_MATRIX,
    DA_BUMP_RADIUS,
    DA_LOG_WEAK_RATE,
    FAMILIES,
    MAX_FAILURE_FRACTION,
    VIANA_A0,
    PhaseSpace,
    _cloud_walk,
    _wrap_unit,
    build_system,
    get_family,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_manneville_pomeau,
    make_standard_skew,
    make_torus_automorphism,
    make_viana,
)
from conftest import displacement, point_differential, point_eval

LAM = (3.0 + math.sqrt(5.0)) / 2.0


def finite_difference_jacobian(system, x, h=1e-5):
    """Central-difference Jacobian with wrap-aware displacements.

    Independent check of the analytic differential; only meaningful at
    points whose h-neighborhood avoids the singular set and branch lines.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = system.space.dim
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fp = system.eval_batch((x + e)[None, :])
        fm = system.eval_batch((x - e)[None, :])
        jac[:, j] = displacement(system.space, fm, fp)[0] / (2.0 * h)
    return jac


def _unscreened_da(t):
    """(eval_batch, differential_batch) of the DA map with the bump worked
    out at every point, none screened out: the reference the screened
    batch map must match bit for bit. It projects onto the eigenbasis
    element-wise, as the map does."""
    a = np.asarray(CAT_MATRIX, dtype=float)
    lam_inv = 1.0 / LAM
    vu = np.array([1.0, LAM - 2.0])
    vu /= math.sqrt(float(vu @ vu))
    vs = np.array([-(LAM - 2.0), 1.0])
    vs /= math.sqrt(float(vs @ vs))
    r2 = DA_BUMP_RADIUS ** 2
    kappa = math.log(LAM) + DA_LOG_WEAK_RATE

    def bump_terms(pts):
        y = np.mod(pts + 0.5, 1.0) - 0.5
        u = y[:, 0] * vu[0] + y[:, 1] * vu[1]
        s = y[:, 0] * vs[0] + y[:, 1] * vs[1]
        q = u * u + s * s
        inside = q < r2
        z = np.where(inside, 1.0 - q / r2, 0.0)
        hp = np.where(inside, -3.0 * z * z / r2, 0.0)
        g = np.expm1(t * kappa * z ** 3)
        return u, s, hp, g

    def ev(pts):
        _, s, _, g = bump_terms(pts)
        return np.mod(pts @ a.T + (s * lam_inv * g)[:, None] * vs, 1.0)

    def dfb(pts):
        u, s, hp, g = bump_terms(pts)
        gp = (g + 1.0) * t * kappa * hp
        grad_s = lam_inv * (g + 2.0 * s * s * gp)
        grad_u = lam_inv * (2.0 * u * s * gp)
        grad = grad_s[:, None] * vs + grad_u[:, None] * vu
        return a + vs[None, :, None] * grad[:, None, :]

    return ev, dfb


def _bump_edge_points():
    """Points where screening the DA bump could go wrong: both sides of the
    screen box and of the circle q = r^2, the four wrap corners, lattice
    points, and coordinates outside [0, 1) or equal to -0.0."""
    r = DA_BUMP_RADIUS
    rng = np.random.default_rng(31)
    box = r * (1.0 + 1e-9)
    # the bump is C^2-flat at its edge: 1e-8 inside it, a point the screen
    # missed would still change bits of the differential
    edges = [r * (1.0 - 1e-8), r, box] + [np.nextafter(v, w) for v in (r, box)
                                          for w in (0.0, 1.0)]
    rows = [(sign * e, y) for e in edges for sign in (1.0, -1.0)
            for y in (0.0, -0.0, 1e-9, rng.uniform(-0.02, 0.02))]
    rows += [(y, x) for x, y in rows]
    rows += [(x + 1.0, y - 1.0) for x, y in rows]
    for eps in (1e-12, 1e-3, 0.05, 0.07, 0.0999):
        rows += [(eps, eps), (1.0 - eps, 1.0 - eps), (eps, 1.0 - eps), (1.0 - eps, eps)]
    # on the circle, in the eigenbasis the bump is measured in
    vu = np.array([1.0, LAM - 2.0]) / math.sqrt(1.0 + (LAM - 2.0) ** 2)
    vs = np.array([-vu[1], vu[0]])
    theta = rng.uniform(0.0, 2.0 * math.pi, 400)
    circle = r * (np.cos(theta)[:, None] * vu + np.sin(theta)[:, None] * vs)
    circle = np.vstack([circle, np.nextafter(circle, 0.0), np.nextafter(circle, 2.0)])
    rows += [(-0.3, 1.7), (1.7, -0.3), (-0.0, 0.05), (0.05, -0.0), (-0.0, -0.0),
             (0.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (2.0, -3.0), (0.5, -0.5),
             (-0.97, 1.02), (2.03, -0.98), (-0.3, 0.04), (1.7, 1.95)]
    pts = np.vstack([np.array(rows), circle, np.mod(circle, 1.0),
                     rng.normal(scale=0.08, size=(2000, 2)),
                     rng.uniform(-1.0, 2.0, size=(2000, 2))])
    return pts


def _sample_points_off_singular(system, n, seed, margin=2e-2):
    """Seeded uniform points with a safety margin from the singular set and
    from non-periodic boundaries (so central differences stay one-sided-free)."""
    rng = np.random.default_rng(seed)
    pts = []
    lo = np.asarray(system.space.lo)
    hi = np.asarray(system.space.hi)
    while len(pts) < n:
        cand = system.space.uniform(rng, 4 * n)
        ok = system.singular_distance(cand) > margin
        for i, per in enumerate(system.space.periodic):
            if not per:
                ok &= (cand[:, i] > lo[i] + margin) & (cand[:, i] < hi[i] - margin)
        pts.extend(cand[ok][: n - len(pts)])
    return np.array(pts)


def _assert_differential_matches_fd(system, seed=123, n=100, tol=1e-6):
    pts = _sample_points_off_singular(system, n, seed)
    for x in pts:
        analytic = point_differential(system, x)
        fd = finite_difference_jacobian(system, x)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - fd)) / scale <= tol, (
            f"{system.name}: Jacobian mismatch at {x}"
        )


class TestPhaseSpace:
    def test_displacement_wraps_shortest(self):
        sp = PhaseSpace.torus(1)
        d = displacement(sp, np.array([[0.95]]), np.array([[0.05]]))
        assert d[0, 0] == pytest.approx(0.1, abs=1e-12)

    def test_cylinder_contains(self):
        sp = PhaseSpace.cylinder(-1.5, 1.8)
        assert sp.contains(np.array([[0.2, -1.0]])).all()
        assert not sp.contains(np.array([[0.2, 2.5]])).any()


class TestTorusAutomorphism:
    def test_fixed_point(self):
        sys = make_cat_map()
        assert np.allclose(point_eval(sys, [0.0, 0.0]), [0.0, 0.0])

    def test_direct_arithmetic(self):
        sys = make_cat_map()
        assert np.allclose(point_eval(sys, [0.5, 0.5]), [0.5, 0.0])

    def test_block_four_dim(self):
        sys = make_cat_block(2)
        assert sys.space.dim == 4
        df = point_differential(sys, [0.1, 0.2, 0.3, 0.4])
        assert round(float(np.linalg.det(df))) == 1

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            make_torus_automorphism([[2, 0], [0, 2]])

    def test_outputs_in_unit_box(self):
        sys = make_cat_map()
        rng = np.random.default_rng(0)
        pts = sys.eval_batch(rng.random((500, 2)) * 3.0 - 1.0)
        assert np.all((pts >= 0.0) & (pts < 1.0))

    def test_orbit_matches_eval(self):
        sys = make_cat_map()
        orb = sys.orbit(np.array([0.123, 0.456]), 50)
        cur = np.array([[0.123, 0.456]])
        for k in range(50):
            cur = sys.eval_batch(cur)
            assert np.allclose(orb[k + 1], cur[0], atol=0.0)

    def test_differential_fd(self):
        _assert_differential_matches_fd(make_cat_map())


class TestMannevillePomeau:
    def test_alpha_zero_is_doubling(self):
        sys = make_manneville_pomeau(0.0)
        assert point_eval(sys, [0.3])[0] == pytest.approx(0.6, abs=1e-15)
        assert point_differential(sys, [0.3])[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert point_differential(sys, [0.8])[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_neutral_fixed_point(self):
        for alpha in (0.2, 0.5, 0.9):
            sys = make_manneville_pomeau(alpha)
            assert point_eval(sys, [0.0])[0] == 0.0
            assert point_differential(sys, [0.0])[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_branch_values_at_half(self):
        # left-branch formula at 1/2 equals exactly 1; right branch limits to 0+
        sys = make_manneville_pomeau(0.5)
        assert point_eval(sys, [0.5])[0] == pytest.approx(1.0, abs=1e-15)
        assert point_eval(sys, [0.5 + 1e-12])[0] == pytest.approx(0.0, abs=1e-11)

    def test_singular_set_contents(self):
        assert len(make_manneville_pomeau(0.0).singular_set) == 1
        assert len(make_manneville_pomeau(0.3).singular_set) == 2

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            make_manneville_pomeau(1.0)
        with pytest.raises(ValueError):
            make_manneville_pomeau(-0.1)

    def test_differential_fd(self):
        for alpha in (0.0, 0.3, 0.7):
            _assert_differential_matches_fd(make_manneville_pomeau(alpha))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 0.95])
    def test_eval_batch_bits_equal_both_branches_joined(self, alpha):
        # eval_batch works the left branch out only on the points that take
        # it, so every element must get the bits it gets when both branches
        # run on the whole array, in a batch and alone
        rng = np.random.default_rng(23)
        edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0, -0.0,
                 np.nan, np.inf, -np.inf, 1.5, -0.2]
        x = np.concatenate([rng.random(200_000), edges])
        sys = make_manneville_pomeau(alpha)
        with np.errstate(invalid="ignore"):
            left = x * (1.0 + 2.0 ** alpha * np.power(x, alpha))
            ref = np.clip(np.where(x <= 0.5, left, 2.0 * x - 1.0), 0.0, 1.0)
            got = sys.eval_batch(x[:, None])
            assert got.shape == (x.size, 1)
            assert got[:, 0].tobytes() == ref.tobytes()
            for i in [*range(0, 200_000, 1000), *range(200_000, x.size)]:
                assert sys.eval_batch(x[i:i + 1, None]).tobytes() == got[i].tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8, 0.95])
    def test_differential_batch_bits_equal_both_branches_joined(self, alpha):
        # differential_batch puts the right branch's 2 by index: every
        # element must get the bits of the two-branch formula, in a batch
        # and alone
        rng = np.random.default_rng(29)
        edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0, -0.0,
                 np.nan, np.inf, -np.inf, 1.5, -0.2]
        x = np.concatenate([rng.random(200_000), edges])
        sys = make_manneville_pomeau(alpha)
        with np.errstate(invalid="ignore"):
            left = 1.0 + 2.0 ** alpha * (1.0 + alpha) * np.power(x, alpha)
            ref = np.where(x <= 0.5, left, 2.0)
            got = sys.differential_batch(x[:, None])
            assert got.shape == (1, 1, x.size)
            assert got[0, 0].tobytes() == ref.tobytes()
            for i in [*range(0, 200_000, 1000), *range(200_000, x.size)]:
                assert sys.differential_batch(x[i:i + 1, None]).tobytes() == got[..., i].tobytes()

    def test_dithered_orbit_escapes_float_collapse(self):
        # Pure float doubling hits 0 exactly within ~53 steps and freezes;
        # the dithered driver must keep the orbit alive.
        sys = make_manneville_pomeau(0.0)
        rng = np.random.default_rng(42)
        orb = sys.orbit(np.array([0.37], dtype=float), 2000, rng)
        tail = orb[1000:, 0]
        assert np.all(tail >= 0.0)
        assert np.count_nonzero(tail == 0.0) == 0
        assert abs(tail.mean() - 0.5) < 0.05

    def test_undithered_orbit_does_collapse(self):
        # Documents why the dither exists: float doubling absorbs at the
        # fixed points 0 (bit exhaustion) or 1 (through an exact hit of 1/2).
        sys = make_manneville_pomeau(0.0)
        orb = sys.orbit(np.array([0.37], dtype=float), 200, None)
        assert orb[-1, 0] in (0.0, 1.0)


class TestDerivedFromAnosov:
    def test_zero_deformation_identical_to_cat(self):
        da = make_derived_from_anosov(0.0)
        cat = make_cat_map()
        rng = np.random.default_rng(77)
        pts = rng.random((1000, 2))
        assert np.array_equal(da.eval_batch(pts), cat.eval_batch(pts))

    def test_origin_fixed(self):
        for t in (0.0, 0.2, 0.5, 0.9):
            sys = make_derived_from_anosov(t)
            assert np.allclose(point_eval(sys, [0.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_differential_fd(self):
        for t in (0.0, 0.2, 0.6):
            _assert_differential_matches_fd(make_derived_from_anosov(t))

    def test_still_contracting_in_bump_at_small_t(self):
        # stable multiplier at the bump center: interpolated in log scale
        sys = make_derived_from_anosov(0.2)
        df = point_differential(sys, [0.0, 0.0])
        ev = np.sort(np.abs(np.linalg.eigvals(df)))
        expected = math.exp(0.8 * -math.log(LAM) + 0.2 * 0.1)
        assert ev[0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.35, 0.95])
    def test_screened_bump_matches_unscreened(self, t):
        # the batch map works the bump out only at points near the lattice
        # Z^2; every bit must be what the unscreened map gives
        sys = make_derived_from_anosov(t)
        ev, dfb = _unscreened_da(t)
        pts = _bump_edge_points()
        assert sys.eval_batch(pts).tobytes() == ev(pts).tobytes()
        dfs = sys.differential_batch(pts)
        assert np.ascontiguousarray(dfs.transpose(2, 0, 1)).tobytes() == dfb(pts).tobytes()
        for p in pts[::97]:  # one point at a time: subsets of size one
            assert point_eval(sys, p).tobytes() == ev(p[None, :])[0].tobytes()
            assert point_differential(sys, p).tobytes() == dfb(p[None, :])[0].tobytes()

    @pytest.mark.parametrize("t", [0.1, 0.35, 0.95])
    def test_outside_the_bump_is_the_cat_map(self, t):
        sys = make_derived_from_anosov(t)
        pts = np.random.default_rng(41).uniform(-1.0, 2.0, size=(5000, 2))
        wrapped = np.mod(pts + 0.5, 1.0) - 0.5
        pts = pts[np.hypot(wrapped[:, 0], wrapped[:, 1]) > 1.01 * DA_BUMP_RADIUS]
        assert np.array_equal(sys.eval_batch(pts), make_cat_map().eval_batch(pts))
        dfs = sys.differential_batch(pts)
        cat = np.asarray(CAT_MATRIX, float)[:, :, None]
        assert np.array_equal(dfs, np.broadcast_to(cat, dfs.shape))

    def test_orbit_matches_eval(self):
        sys = make_derived_from_anosov(0.35)
        orb = sys.orbit(np.array([0.01, 0.02]), 200)
        cur = np.array([[0.01, 0.02]])
        for k in range(200):
            cur = sys.eval_batch(cur)
            assert np.allclose(orb[k + 1], cur[0], atol=1e-12)


class TestStandardSkew:
    def test_unit_determinant_everywhere(self):
        sys = make_standard_skew(0.5, 2)
        rng = np.random.default_rng(3)
        dfs = sys.differential_batch(rng.random((1000, 4)))
        assert np.max(np.abs(np.abs(np.linalg.det(dfs.transpose(2, 0, 1))) - 1.0)) < 1e-10

    def test_zero_coupling_is_shear(self):
        sys = make_standard_skew(0.0, 1)
        df = point_differential(sys, [0.3, 0.1, 0.7, 0.9])
        assert np.allclose(df[:2, :2], [[1.0, 1.0], [0.0, 1.0]])

    def test_fiber_block_is_exact_power(self):
        n = 2
        sys = make_standard_skew(0.5, n)
        a = np.asarray(CAT_MATRIX, dtype=float)
        a2n = np.linalg.matrix_power(a, 2 * n)
        df = point_differential(sys, [0.11, 0.22, 0.33, 0.44])
        assert np.array_equal(df[2:, 2:], a2n)

    def test_differential_fd(self):
        _assert_differential_matches_fd(make_standard_skew(0.5, 2), tol=2e-6)

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_K(self, K):
        with pytest.raises(ValueError):
            make_standard_skew(K, 2)

    def test_orbit_matches_eval(self):
        sys = make_standard_skew(0.5, 2)
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        orb = sys.orbit(x0, 100)
        cur = x0[None, :]
        for k in range(100):
            cur = sys.eval_batch(cur)
            assert np.allclose(orb[k + 1], cur[0], atol=1e-12)


class TestDitherRule:
    # orbits and cloud steps dither the same coordinate by the same rule
    @pytest.mark.parametrize("make, starts", [
        (lambda: make_manneville_pomeau(0.0), [[0.37], [1.0], [0.5], [0.999]]),
        (make_viana, [[0.37, 0.5], [0.99, -1.2], [0.0, 0.0], [0.6, 1.7]]),
    ], ids=["mp0", "viana"])
    def test_orbit_step_matches_step_batch(self, make, starts):
        sys = make()
        for seed, x0 in enumerate(starts):
            x0 = np.array(x0)
            orbit_step = sys.orbit(x0, 1, np.random.default_rng(seed))[1]
            batch_step = sys.step_batch(x0[None, :], np.random.default_rng(seed))[0]
            assert np.max(np.abs(orbit_step - batch_step)) <= 1e-15
            undithered = sys.eval_batch(x0[None, :])[0]
            assert np.array_equal(batch_step[1:], undithered[1:])

    @pytest.mark.parametrize("make", [lambda: make_manneville_pomeau(0.0), make_viana],
                             ids=["mp0", "viana"])
    def test_orbit_loop_gets_float_noise(self, make):
        # orbit() hands the loop its noise as Python floats, so that it runs
        # on floats; the orbit is the one the numpy noise array gives
        sys = make()
        d, n = sys.space.dim, 20_000
        x0 = np.linspace(0.37, 0.5, d)
        noise = sys._dither(n, np.random.default_rng(3))
        expected = sys.orbit_fn(x0, n, noise)
        orb = sys.orbit(x0, n, np.random.default_rng(3))
        assert orb.tobytes() == expected.tobytes()

    def test_dither_needs_an_orbit_loop(self):
        sys = make_manneville_pomeau(0.0)
        sys.orbit_fn = None
        with pytest.raises(UnsupportedSystemError):
            sys.orbit(np.array([0.3]), 5, np.random.default_rng(0))


def masked_walk(system, pts, dither_key):
    """Reference cloud walk that masks every step, dead points or none."""
    m, d = pts.shape
    dither = np.random.default_rng(dither_key) if system.dither_scale else None
    alive = np.ones(m, dtype=bool)
    cur = pts.copy()
    while True:
        alive &= ~system.unusable(cur)
        assert (~alive).sum() <= MAX_FAILURE_FRACTION * m
        dfs = system.differential_batch(np.where(alive[:, None], cur, pts))
        if not np.all(alive):
            dfs[:, :, ~alive] = np.eye(d)[:, :, None]
        yield dfs, alive
        cur[alive] = system.step_batch(cur[alive], dither)


class TestCloudWalk:
    def test_matches_the_masked_walk_when_a_point_dies(self):
        # theta = 0 and x = sqrt(a0) map to x = a0 - x^2, within 1e-15 of
        # the critical line: that point dies after one step, one of 200,
        # while the dithered rest walks on
        system = make_viana()
        pts = system.space.uniform(np.random.default_rng(5), 200)
        pts[17] = (0.0, math.sqrt(VIANA_A0))
        start = pts.copy()
        runs = []
        for walk in (_cloud_walk, masked_walk):
            seen = []

            def dfb(x, seen=seen):
                seen.append(x.copy())
                return system.differential_batch(x)

            recording = dataclasses.replace(system, differential_batch=dfb)
            steps = [(dfs.copy(), alive.copy())
                     for _, (dfs, alive) in zip(range(6), walk(recording, pts, 9))]
            runs.append((steps, seen))
        (steps, seen), (ref_steps, ref_seen) = runs
        assert [int(alive.sum()) for _, alive in steps] == [200] + [199] * 5
        for (dfs, alive), (ref_dfs, ref_alive) in zip(steps, ref_steps):
            assert np.array_equal(alive, ref_alive)
            assert dfs.tobytes() == ref_dfs.tobytes()
        assert len(seen) == len(ref_seen) == 6
        for x, ref_x in zip(seen, ref_seen):
            assert x.tobytes() == ref_x.tobytes()
        assert np.array_equal(pts, start)


class TestWrapRule:
    def test_wrap_unit_is_np_mod_bit_for_bit(self):
        # signed zeros, values that wrap to 1.0, exact integers and values
        # past 2^53 included
        edges = [-1e-20, -0.0, 0.0, -1.0, 1.0, 1.0 - 2.0 ** -53, -0.3, 3.0, 1e17,
                 -1e17, 2.0 ** 53 + 2.0, -(2.0 ** -1074)]
        rng = np.random.default_rng(11)
        x = np.concatenate([edges, rng.uniform(-4.0, 4.0, 5000),
                            rng.standard_normal(5000) * 1e6])
        expected = np.mod(x, 1.0)
        out = x.copy()
        assert _wrap_unit(out) is out
        assert out.tobytes() == expected.tobytes()


class TestOrbitStore:
    # every family's orbit_fn, and the eval_batch fallback, return the
    # orbit in one buffer; tol is 0 where the orbit and eval_batch do the
    # same float operations
    @pytest.mark.parametrize("make, tol", [
        (make_cat_map, 0.0),
        (make_cat_block, 0.0),
        (lambda: make_manneville_pomeau(0.5), 1e-12),
        (lambda: make_derived_from_anosov(0.35), 1e-12),
        (lambda: make_standard_skew(0.5, 2), 1e-12),
        (make_viana, 1e-12),
    ], ids=["cat", "cat4", "mp", "da", "skew", "viana"])
    def test_orbit_is_iterated_eval_batch(self, make, tol):
        system = make()
        d = system.space.dim
        x0 = np.linspace(0.011, 0.37, d)
        orbits = []
        for sys in (system, dataclasses.replace(system, orbit_fn=None)):
            orb = sys.orbit(x0, 300)
            orbits.append(orb)
            assert orb.shape == (301, d) and orb.dtype == np.float64
            assert orb.flags.c_contiguous and orb.flags.writeable
            assert np.array_equal(orb[0], x0)
            for k in range(300):
                step = sys.eval_batch(orb[k][None, :])[0]
                if tol == 0.0:
                    assert np.array_equal(orb[k + 1], step)
                else:
                    assert np.max(np.abs(displacement(sys.space, orb[k + 1], step))) <= tol
            assert np.array_equal(sys.orbit(x0, 0), x0[None, :])
            with pytest.raises(ValueError):
                sys.orbit(x0, -1)
        if tol == 0.0:
            assert np.array_equal(*orbits)

    def test_orbit_allocates_its_array_once(self):
        # a 1e5-step cat orbit is a 1.6 MB array; a list or a growing
        # buffer behind it would peak well above that
        sys = make_cat_map()
        x0 = np.array([0.123, 0.456])
        tracemalloc.start()
        try:
            orb = sys.orbit(x0, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * orb.nbytes


def float_loop_orbit(matrix, x0, n):
    """Reference torus-automorphism orbit: the general-d float loop,
    sum(r[i] * cur[i]) % 1.0 in index order, run for every step."""
    rows = [tuple(float(v) for v in r) for r in np.asarray(matrix, dtype=float)]
    cur = [float(v) for v in x0]
    out = [cur]
    for _ in range(n):
        cur = [sum(r[i] * cur[i] for i in range(len(cur))) % 1.0 for r in rows]
        out.append(cur)
    return np.array(out)


def first_lattice_row(orbit, e):
    """Index of the first orbit row whose coordinates all lie in [0, 1) on
    2^-e Z, or None."""
    for k, row in enumerate(orbit.tolist()):
        if all(0.0 <= c < 1.0 and (c * 2.0 ** e).is_integer() for c in row):
            return k
    return None


#: matrix and e = 53 - ceil(log2 S), S its largest row sum of |a_ij|
#: (at most 52)
LATTICE_CASES = {
    "cat": (CAT_MATRIX, 51),
    "cat4": (np.kron(np.eye(2), CAT_MATRIX).astype(int).tolist(), 51),
    "negative": (((2, -1), (-1, 1)), 51),
    "shear": (((1, 1), (0, 1)), 52),
    "e49": (((5, 8), (3, 5)), 49),
}


class TestTorusLattice:
    # a torus automorphism's orbit leaves its float loop for exact integer
    # blocks once it lands on the lattice 2^-e Z^d; every bit must be the
    # float loop's. 20000 steps span several blocks, the last one ragged
    @pytest.mark.parametrize("case", sorted(LATTICE_CASES))
    def test_lattice_orbit_is_the_float_loop(self, case):
        # from a start on the lattice, where the blocks begin at row 0, and
        # from a random one that reaches it after a transient (1 to 47
        # steps here); negative entries wrap in uint64
        matrix, e = LATTICE_CASES[case]
        system = make_torus_automorphism(matrix)
        rng = np.random.default_rng(7)
        d = len(matrix)
        on_lattice = np.floor(rng.random(d) * 2.0 ** e) / 2.0 ** e
        for x0 in (on_lattice, rng.random(d)):
            ref = float_loop_orbit(matrix, x0, 20_000)
            assert first_lattice_row(ref, e) < 100
            for n in (0, 5, 20_000):
                assert system.orbit(x0, n).tobytes() == ref[:n + 1].tobytes()

    @pytest.mark.parametrize("case", ["cat", "cat4"])
    def test_lattice_orbit_after_a_transient(self, case):
        # this start lands on the lattice at step 18 on both maps: n ends
        # before, at and after the switch, and several blocks past it
        matrix, e = LATTICE_CASES[case]
        system = make_torus_automorphism(matrix)
        x0 = np.random.default_rng(19).random(len(matrix))
        ref = float_loop_orbit(matrix, x0, 20_000)
        k = first_lattice_row(ref, e)
        assert k == 18
        for n in (0, k - 1, k, k + 1, 20_000):
            assert system.orbit(x0, n).tobytes() == ref[:n + 1].tobytes()

    @pytest.mark.parametrize("x0", [[-0.0, 0.3], [3.0, 0.5], [-0.5, 0.25], [math.nan, 0.2]],
                             ids=["minus-zero", "three", "minus-half", "nan"])
    def test_lattice_orbit_from_edge_starts(self, x0):
        # -0.0 is on the lattice and stays in row 0 as given; 3.0 and -0.5
        # are on 2^-51 Z but outside [0, 1); a NaN never reaches the lattice
        ref = float_loop_orbit(CAT_MATRIX, x0, 2_000)
        assert make_cat_map().orbit(np.array(x0), 2_000).tobytes() == ref.tobytes()

    def test_lattice_orbit_off_the_lattice(self):
        # the swap keeps 1e-300 off 2^-52 Z forever (S = 1, e capped at
        # 52): the float loop runs to n
        matrix, x0 = ((0, 1), (1, 0)), [1e-300, 0.3]
        ref = float_loop_orbit(matrix, x0, 2_000)
        assert first_lattice_row(ref, 52) is None
        orb = make_torus_automorphism(matrix).orbit(np.array(x0), 2_000)
        assert orb.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("block_points", [8, 16, 64])
    @pytest.mark.parametrize("make", [make_cat_map, make_cat_block], ids=["cat", "cat4"])
    def test_lattice_orbit_block_size(self, monkeypatch, make, block_points):
        # blocks of 1 to 16 rows give the default's bits
        system = make()
        x0 = np.linspace(0.123, 0.456, system.space.dim)
        expected = system.orbit(x0, 3_000)
        monkeypatch.setattr(systems_mod, "BLOCK_POINTS", block_points)
        assert make().orbit(x0, 3_000).tobytes() == expected.tobytes()


class TestLoopAgainstBatch:
    # each family's orbit_fn and eval_batch are two codings of one map.
    # Over 3 x 2e4 undithered steps they agree bit for bit, except on two
    # maps whose loop and batch call different math:
    # - da: the loop takes tk * z * z * z through math.expm1, the batch
    #   t * kappa * z ** 3 through np.expm1;
    # - mp: the loop's x ** alpha is libm pow, the batch's np.power.
    # Those two are held to 4 and 3 ulp, the largest gaps measured (here
    # da differs at 5 steps by 1 ulp, and mp at 670 by up to 3 with
    # numpy's AVX-512 kernels on, at none without). A wrap to the other
    # side of [0, 1) would break the bound. The signed and the 5-8 torus
    # maps' orbits may never reach their integer lattice, so there the
    # loop and the batch meet on rounded products
    @pytest.mark.parametrize("make, ulps", [
        (make_cat_map, 0),
        (make_cat_block, 0),
        (lambda: make_torus_automorphism([[2, -1], [-1, 1]]), 0),
        (lambda: make_torus_automorphism([[5, 8], [3, 5]]), 0),
        (lambda: make_manneville_pomeau(0.0), 0),
        (lambda: make_standard_skew(0.5, 2), 0),
        (make_viana, 0),
        (lambda: make_derived_from_anosov(0.35), 4),
        (lambda: make_manneville_pomeau(0.3), 3),
    ], ids=["cat", "cat4", "signed", "5-8", "mp0", "skew", "viana", "da", "mp"])
    def test_loop_against_batch(self, make, ulps):
        system = make()
        d = system.space.dim
        # the second start sits inside da's bump
        for x0 in (np.linspace(0.011, 0.37, d), np.full(d, 0.02),
                   np.linspace(0.6, 0.93, d)):
            orb = system.orbit(x0, 20_000)
            step = system.eval_batch(orb[:-1])
            if ulps == 0:
                assert step.tobytes() == orb[1:].tobytes()
            else:  # coordinates in [0, 1]: the int64 views are ordered
                gap = np.abs(step.view(np.int64) - orb[1:].view(np.int64))
                assert gap.max() <= ulps


class TestViana:
    def test_eps_zero_decouples(self):
        sys = make_viana(1.7808, 0.0, 16)
        out = point_eval(sys, [0.37, 0.5])
        assert out[1] == pytest.approx(1.7808 - 0.25, abs=1e-12)

    def test_critical_derivative(self):
        sys = make_viana()
        df = point_differential(sys, [0.2, 0.0])
        assert df[1, 1] == 0.0
        assert df[0, 0] == 16.0
        assert df[0, 1] == 0.0

    def test_invariant_interval_traps_orbits(self):
        sys = make_viana(1.7808, 0.05, 16)
        lo, hi = sys.space.lo[1], sys.space.hi[1]
        rng = np.random.default_rng(5)
        pts = sys.space.uniform(rng, 400)
        for _ in range(60):
            pts = sys.eval_batch(pts)
            assert np.all((pts[:, 1] >= lo) & (pts[:, 1] <= hi))

    def test_escape_rejected_with_witness(self):
        with pytest.raises(EscapeError) as err:
            make_viana(1.95, 0.04, 16)
        assert err.value.witness is not None

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            make_viana(1.7808, 0.01, 8)

    @pytest.mark.parametrize("a0, eps", [
        (1.7808, math.nan), (math.nan, 0.02), (1.7808, math.inf), (math.inf, 0.02),
    ])
    def test_rejects_non_finite_parameters(self, a0, eps):
        # not an EscapeError: nan has no fiber interval to escape from
        with pytest.raises(ValueError):
            make_viana(a0, eps, 16)

    def test_differential_fd(self):
        _assert_differential_matches_fd(make_viana(1.7808, 0.03, 16), tol=2e-6)


class TestFamilies:
    def test_registry_builds(self):
        for fid in ("mp", "da", "viana", "skew"):
            fam = get_family(fid)
            sys = fam.build((fam.lo + min(fam.hi, fam.lo + 0.2)) / 2.0)
            assert sys.space.dim >= 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FAMILIES["mp"].build(1.5)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            get_family("nope")

    def test_builders_deterministic(self):
        rng = np.random.default_rng(9)
        pts2 = rng.random((50, 2))
        for fid, t in (("da", 0.3), ("viana", 0.02)):
            s1 = get_family(fid).build(t)
            s2 = get_family(fid).build(t)
            p = s1.space.uniform(rng, 50) if fid == "viana" else pts2
            assert np.array_equal(s1.eval_batch(p), s2.eval_batch(p))
            assert np.array_equal(s1.differential_batch(p), s2.differential_batch(p))


def _layout_points(name, system, rng, m=300):
    """m points for the layout contract: DA's inside its bump (near the
    lattice Z^2) or outside it, the rest uniform in the phase space."""
    if name == "da-inside":
        return np.mod(rng.normal(scale=0.04, size=(m, 2)), 1.0)
    if name == "da-outside":
        pts = rng.random((4 * m, 2))
        wrapped = np.mod(pts + 0.5, 1.0) - 0.5
        return pts[np.hypot(wrapped[:, 0], wrapped[:, 1]) > 1.01 * DA_BUMP_RADIUS][:m]
    return system.space.uniform(rng, m)


LAYOUT_SYSTEMS = {"cat": make_cat_map, "cat4": lambda: make_cat_block(2),
                  "mp": lambda: make_manneville_pomeau(0.3),
                  "da-inside": lambda: make_derived_from_anosov(0.35),
                  "da-outside": lambda: make_derived_from_anosov(0.35),
                  "skew": lambda: make_standard_skew(0.5, 2), "viana": make_viana}


@pytest.mark.parametrize("name", list(LAYOUT_SYSTEMS))
def test_differential_batch_is_batch_last(name):
    # every derivative stack is one C-contiguous (d, d, m) float array, and
    # a point's slice is what the point alone gets, bit for bit (da's bump
    # projects element-wise, so inside the bump too)
    system = LAYOUT_SYSTEMS[name]()
    pts = _layout_points(name, system, np.random.default_rng(43))
    m, d = pts.shape
    dfs = system.differential_batch(pts)
    assert dfs.shape == (d, d, m)
    assert dfs.dtype == np.float64 and dfs.flags.c_contiguous
    alone = np.concatenate([system.differential_batch(pts[i:i + 1]) for i in range(m)],
                           axis=2)
    assert dfs.tobytes() == alone.tobytes()
    if name == "da-inside":
        assert not np.array_equal(dfs, np.broadcast_to(
            np.asarray(CAT_MATRIX, float)[:, :, None], dfs.shape))


@pytest.mark.parametrize("name", list(LAYOUT_SYSTEMS))
def test_eval_batch_point_alone_is_its_batch(name):
    # the cloud walk steps its live subset and the Ulam build a chunk at a
    # time, batches of every size: a point's image must not depend on them
    system = LAYOUT_SYSTEMS[name]()
    pts = _layout_points(name, system, np.random.default_rng(47))
    images = system.eval_batch(pts)
    alone = np.concatenate([system.eval_batch(pts[i:i + 1]) for i in range(pts.shape[0])])
    assert images.tobytes() == alone.tobytes()
    if name == "da-inside":
        assert not np.array_equal(images, make_cat_map().eval_batch(pts))


class TestBuildSystem:
    def test_known_names(self):
        assert build_system("cat").space.dim == 2
        assert build_system("cat4").space.dim == 4
        assert build_system("mp", {"alpha": 0.2}).params["alpha"] == 0.2
        assert build_system("skew", {"K": 1.0, "N": 3}).params["N"] == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_system("lorenz")

    @pytest.mark.parametrize("name, params", [
        ("skew", {"k": 2}), ("cat", {"alpha": 0.3}), ("cat4", {"K": 1.0}),
        ("da", {"t": 0.2}), ("mp", {"alpha": 0.2, "eps": 0.1}),
    ])
    def test_rejects_parameters_the_system_does_not_take(self, name, params):
        with pytest.raises(ValueError, match="takes no parameter"):
            build_system(name, params)

    @pytest.mark.parametrize("name, params", [
        ("skew", {"N": 2.5}), ("skew", {"N": math.inf}), ("skew", {"N": math.nan}),
        ("viana", {"d": 16.5}),
    ])
    def test_rejects_non_integral_counts(self, name, params):
        with pytest.raises(ValueError):
            build_system(name, params)
