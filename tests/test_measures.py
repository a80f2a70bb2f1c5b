"""Birkhoff/Ulam measure construction, weak* proxy, and diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import sinailab.measures as measures_mod
from sinailab.errors import SamplingFailureError, UlamConvergenceError
from sinailab.measures import (
    BLOCK_POINTS,
    EmpiricalMeasure,
    TransferMatrix,
    _kept_weights,
    _lattice_offsets,
    birkhoff_sample,
    bounded_jacobian_check,
    dictionary_moments,
    holder_parameter_check,
    ls1_fit,
    ls2_integral,
    ulam_matrix,
    ulam_stationary,
    weak_star_distance,
)
from sinailab.systems import (
    FAMILIES,
    DynamicalSystem,
    FamilyHandle,
    PhaseSpace,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_manneville_pomeau,
    make_standard_skew,
    make_viana,
)

LAM = (3.0 + math.sqrt(5.0)) / 2.0


def make_interval_identity():
    def ev(pts):
        return np.atleast_2d(pts).copy()

    def dfb(pts):
        pts = np.atleast_2d(pts)
        return np.ones((1, 1, pts.shape[0]))

    return DynamicalSystem(
        name="identity",
        space=PhaseSpace.unit_interval(),
        params={},
        eval_batch=ev,
        differential_batch=dfb,
    )


def one_shot_ulam(system, resolution, samples_per_cell, seed):
    """Reference Ulam matrix built in one pass: every sample point mapped at
    once, each sample counting one toward its (cell, image cell) entry, the
    counts divided by samples_per_cell, rows rescaled to sum 1."""
    d = system.space.dim
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (d,))
    n_cells = int(np.prod(res))
    lo = np.asarray(system.space.lo)
    cell_w = system.space.widths() / res
    offsets = _lattice_offsets(samples_per_cell, d,
                               np.random.default_rng([seed, 0x0E11]))
    idx = np.arange(n_cells)
    corners = lo + np.column_stack(np.unravel_index(idx, tuple(res))) * cell_w
    pts = (corners[:, None, :] + offsets[None, :, :] * cell_w).reshape(-1, d)
    img = np.floor((system.eval_batch(pts) - lo) / cell_w).astype(np.int64)
    cols = np.ravel_multi_index(tuple(np.clip(img, 0, res - 1).T), tuple(res))
    rows = np.repeat(idx, samples_per_cell)
    # summing ones counts exactly, whatever the order
    data = np.ones(rows.shape[0])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n_cells, n_cells)).tocsr()
    mat.sum_duplicates()
    mat.data /= samples_per_cell
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    return (sp.diags(1.0 / row_sums) @ mat).tocsr()


def dirac(space, location):
    return EmpiricalMeasure(space, np.array([location], dtype=float),
                            np.array([1.0]), {"kind": "dirac"})


def identity_ulam(space, resolution):
    """Ulam cloud of the identity transfer matrix: the uniform density on
    the cell centers."""
    n = int(np.prod(resolution))
    return ulam_stationary(TransferMatrix(space, resolution, sp.identity(n, format="csr"), 1))


def half_box(d, cutoff):
    """The wavevectors with |k|_inf <= cutoff whose first nonzero entry is
    positive, in lexicographic order."""
    ks = np.array(list(np.ndindex(*(2 * cutoff + 1,) * d))) - cutoff
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    return ks[first > 0]


def traced_moments(mu, cutoff):
    """dictionary_moments and its traced peak, after a warm-up call."""
    dictionary_moments(mu, cutoff)
    tracemalloc.start()
    try:
        m = dictionary_moments(mu, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return m, peak


def few_rows(mu):
    """Bytes of six float64 rows of max(BLOCK_POINTS, points) values (a
    point block's mode arrays, their products and the weights) beside the
    cloud's coordinates as d rows of its m points."""
    m, d = mu.points.shape
    return 8 * (6 * max(BLOCK_POINTS, m) + d * m)


class TestMeasureContainers:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(PhaseSpace.unit_interval(),
                             np.array([[0.1], [0.2]]),
                             np.array([0.5, 0.4]))

    def test_density_must_normalize(self):
        # An Ulam density is the weights of the cell-center cloud.
        with pytest.raises(ValueError):
            EmpiricalMeasure(PhaseSpace.unit_interval(),
                             np.array([[0.125], [0.375], [0.625], [0.875]]),
                             np.array([0.5, 0.5, 0.5, 0.5]))

    def test_grid_centers(self):
        g = identity_ulam(PhaseSpace.unit_interval(), (4,))
        assert np.allclose(g.points[:, 0], [0.125, 0.375, 0.625, 0.875])
        assert g.orbit is None and g.provenance["resolution"] == (4,)


class TestBirkhoffSample:
    def test_single_point_is_dirac(self):
        mu = birkhoff_sample(make_cat_map(), seed=1, burn_in=0, length=1)
        assert mu.points.shape == (1, 2)
        assert mu.weights[0] == 1.0

    def test_deterministic(self):
        a = birkhoff_sample(make_cat_map(), seed=3, burn_in=10, length=500)
        b = birkhoff_sample(make_cat_map(), seed=3, burn_in=10, length=500)
        assert np.array_equal(a.points, b.points)

    def test_cat_equidistributes_on_grid(self):
        # Lebesgue is the cat map's SRB measure; 8x8 cell frequencies should
        # sit within 3 binomial sigmas of 1/64 for this seed.
        n = 100_000
        mu = birkhoff_sample(make_cat_map(), seed=7, burn_in=1000, length=n)
        cells = (np.floor(mu.points * 8).astype(int) * np.array([8, 1])).sum(axis=1)
        counts = np.bincount(cells, minlength=64)
        p = 1.0 / 64.0
        sigma = math.sqrt(n * p * (1.0 - p))
        assert np.max(np.abs(counts - n * p)) <= 3.0 * sigma

    def test_doubling_map_mean_half(self):
        n = 1_000_000
        mu = birkhoff_sample(make_manneville_pomeau(0.0), seed=11,
                             burn_in=1000, length=n)
        sigma = math.sqrt(1.0 / 12.0 / n)
        assert abs(float(mu.points.mean()) - 0.5) <= 3.0 * sigma

    def test_points_stay_in_space(self):
        mu = birkhoff_sample(make_viana(1.7808, 0.03, 16), seed=5,
                             burn_in=100, length=5000)
        assert mu.space.contains(mu.points).all()

    def test_persistent_singular_hits_fail(self):
        # every orbit lands exactly on the singular point: all restarts fail
        from sinailab.errors import SamplingFailureError
        from sinailab.systems import SingularHyperplane

        def ev(pts):
            return np.full_like(np.atleast_2d(pts), 0.5)

        def dfb(pts):
            pts = np.atleast_2d(pts)
            return np.ones((1, 1, pts.shape[0]))

        trap = DynamicalSystem(
            name="trap", space=PhaseSpace.unit_interval(), params={},
            eval_batch=ev, differential_batch=dfb,
            singular_set=[SingularHyperplane(0, 0.5)],
        )
        with pytest.raises(SamplingFailureError):
            birkhoff_sample(trap, seed=0, burn_in=0, length=10)


class TestUlam:
    def test_doubling_rows_split_exactly_in_half(self):
        t = ulam_matrix(make_manneville_pomeau(0.0), 64,
                        samples_per_cell=64, seed=0)
        dense = t.matrix.toarray()
        for i in range(64):
            nz = np.nonzero(dense[i])[0]
            assert nz.shape[0] == 2
            assert np.allclose(dense[i, nz], 0.5)

    def test_identity_map_gives_identity_matrix(self):
        t = ulam_matrix(make_interval_identity(), 16, samples_per_cell=8, seed=0)
        assert np.allclose(t.matrix.toarray(), np.eye(16))

    def test_rows_sum_to_one(self):
        t = ulam_matrix(make_cat_map(), 8, samples_per_cell=25, seed=2)
        rows = np.asarray(t.matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-12)

    def test_memory_guard(self):
        with pytest.raises(MemoryError):
            ulam_matrix(make_cat_map(), 4000, samples_per_cell=4, seed=0)

    @pytest.mark.parametrize("resolution, samples", [
        (8, 0), (8, -4), (8, 4.5), (2.7, 4),
    ], ids=["zero-samples", "negative-samples", "fractional-samples",
            "fractional-resolution"])
    def test_rejects_non_whole_arguments(self, resolution, samples):
        # a fractional resolution must not be truncated into a smaller grid
        with pytest.raises(ValueError):
            ulam_matrix(make_cat_map(), resolution, samples_per_cell=samples, seed=0)

    @pytest.mark.parametrize("system, resolution, samples", [
        (make_cat_map(), 37, 256),
        (make_manneville_pomeau(0.3), 256, 256),
        (make_standard_skew(0.5, 2), 6, 16),
        (make_derived_from_anosov(0.2), 64, 256),
        (make_cat_block(2), 5, 64),
        (make_standard_skew(0.5, 2), (5, 3, 4, 2), 16),
        (make_cat_map(), 37, 25),
        (make_derived_from_anosov(0.2), 64, 25),
        (make_derived_from_anosov(0.2), (24, 40), 50),
        (make_manneville_pomeau(0.3), 8, BLOCK_POINTS + 1),
    ], ids=["cat", "mp", "skew", "da", "cat4", "skew-tuple", "cat-25", "da-25",
            "da-tuple-50", "mp-over-a-chunk"])
    def test_chunked_build_matches_one_shot(self, system, resolution, samples):
        # both builds divide exact counts by samples, so they agree bit for
        # bit at any sample count. At 256 samples cat's 37^2 = 1369 cells
        # fill ten 128-cell chunks and part of an eleventh; 50 samples leave
        # one seeded random point beside the 7 x 7 lattice; more samples than
        # BLOCK_POINTS give one-cell chunks
        t = ulam_matrix(system, resolution, samples_per_cell=samples, seed=3)
        ref = one_shot_ulam(system, resolution, samples, seed=3)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(t.matrix, name), getattr(ref, name)), name
        rows = np.asarray(t.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(rows - 1.0)) <= 1e-14
        if system.space.dim == 2:
            ref_t = TransferMatrix(t.space, t.resolution, ref, samples)
            assert np.array_equal(ulam_stationary(t, tol=1e-10).weights,
                                  ulam_stationary(ref_t, tol=1e-10).weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_image_names_its_cell(self, bad, axis, monkeypatch):
        # cells (4, 5) and (6, 2) of an 8^2 grid map to a non-finite point;
        # the build names the first, in a chunk after the first (4 cells a
        # chunk), instead of counting it toward cell 0
        def ev(pts):
            out = np.atleast_2d(pts).copy()
            cell = np.floor(out * 8.0)
            out[((cell[:, 0] == 4) & (cell[:, 1] == 5))
                | ((cell[:, 0] == 6) & (cell[:, 1] == 2)), axis] = bad
            return out

        system = DynamicalSystem(name="holed", space=PhaseSpace.torus(2), params={},
                                 eval_batch=ev,
                                 differential_batch=lambda pts: np.ones((2, 2, len(pts))))
        monkeypatch.setattr(measures_mod, "BLOCK_POINTS", 16)
        with pytest.raises(SamplingFailureError, match=r"holed: .* Ulam cell 37 \(4, 5\) "
                                                       "has a non-finite image"):
            ulam_matrix(system, 8, samples_per_cell=4, seed=0)

    def test_finite_images_outside_the_grid_go_to_the_edge_cells(self):
        # each cell of [0, 1) maps to one value; those outside [0, 1) land
        # in the nearer edge cell, as mp's image 1.0 of x = 1/2 does
        targets = np.array([-1e300, -0.2, -0.0, 1.0, 1.5, 1e300, 0.3, 0.999])

        def ev(pts):
            return targets[np.floor(np.atleast_2d(pts)[:, 0] * 8.0).astype(int)][:, None]

        system = DynamicalSystem(name="edges", space=PhaseSpace.unit_interval(), params={},
                                 eval_batch=ev,
                                 differential_batch=lambda pts: np.ones((1, 1, len(pts))))
        t = ulam_matrix(system, 8, samples_per_cell=4, seed=0)
        assert np.array_equal(t.matrix.toarray(), np.eye(8)[[0, 0, 0, 7, 7, 7, 2, 7]])
        mp = make_manneville_pomeau(0.3)
        assert mp.eval_batch(np.array([[0.5]]))[0, 0] == 1.0
        assert ulam_matrix(mp, 256, samples_per_cell=64, seed=0).matrix.indices.max() == 255

    def test_build_memory_stays_chunk_sized(self):
        # 128^2 cells x 256 samples: the one-shot build peaks near 390 MB,
        # the chunked one near 6 MB (the CSR arrays and one chunk's arrays).
        # The first build imports scipy.sparse, whose import is not the build's
        ulam_matrix(make_derived_from_anosov(0.1), 4, samples_per_cell=4, seed=3)
        tracemalloc.start()
        try:
            ulam_matrix(make_derived_from_anosov(0.1), 128, samples_per_cell=256, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_doubling_stationary_is_uniform(self):
        t = ulam_matrix(make_manneville_pomeau(0.0), 64,
                        samples_per_cell=64, seed=0)
        g = ulam_stationary(t, tol=1e-13)
        assert np.max(np.abs(g.weights - 1.0 / 64.0)) < 1e-6

    def test_identity_matrix_returns_uniform(self):
        g = identity_ulam(PhaseSpace.unit_interval(), (8,))
        assert np.allclose(g.weights, 1.0 / 8.0)

    def test_stationary_satisfies_balance(self):
        # ||density . T - density||_1 <= 10 tol
        t = ulam_matrix(make_manneville_pomeau(0.3), 128,
                        samples_per_cell=32, seed=4)
        tol = 1e-10
        g = ulam_stationary(t, tol=tol)
        residual = float(np.abs(t.matrix.T.dot(g.weights) - g.weights).sum())
        assert residual <= 10.0 * tol

    def test_period_two_oscillation_diverges(self):
        # A bare period-2 permutation is doubly stochastic, so the uniform
        # start is already stationary; add a transient state feeding the
        # 2-cycle so the iteration oscillates forever.
        p = np.zeros((4, 4))
        p[0, 1] = p[1, 0] = 1.0   # period-2 cycle
        p[2, 0] = 1.0             # transient state unbalances the cycle
        p[3, 3] = 1.0
        t = TransferMatrix(PhaseSpace.unit_interval(), (4,), sp.csr_matrix(p), 1)
        with pytest.raises(UlamConvergenceError) as err:
            ulam_stationary(t, tol=1e-12, max_iters=200)
        assert err.value.residual > 0.1


@pytest.fixture(scope="module")
def dictionary_clouds():
    t = ulam_matrix(make_derived_from_anosov(0.2), 128, samples_per_cell=16, seed=3)
    return {
        # the benchmark's da sweep cloud: 16384 points on T^2
        "da-ulam-128": ulam_stationary(t, tol=1e-10),
        # more points than BLOCK_POINTS: its weights outweigh a block
        "cat-40000": birkhoff_sample(make_cat_map(), seed=2, burn_in=10, length=40_000),
        # an odd length leaves a SIMD tail in every row
        "skew-2001": birkhoff_sample(make_standard_skew(0.5, 2), seed=1,
                                     burn_in=10, length=2001),
        "mp-interval": birkhoff_sample(make_manneville_pomeau(0.3), seed=1,
                                       burn_in=10, length=2001),
        "viana-cylinder": birkhoff_sample(make_viana(1.7808, 0.02, 16), seed=2,
                                          burn_in=10, length=2001),
    }


class TestWeakStar:
    def test_identical_measures_zero(self):
        mu = birkhoff_sample(make_cat_map(), seed=1, burn_in=0, length=100)
        assert weak_star_distance(mu, mu, 3) == 0.0

    def test_diracs_on_circle(self):
        sp1 = PhaseSpace.torus(1)
        d = weak_star_distance(dirac(sp1, [0.0]), dirac(sp1, [0.5]), 1)
        assert d == pytest.approx(2.0, abs=1e-14)  # |cos 0 - cos pi|

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        space = PhaseSpace.torus(2)
        ms = []
        for _ in range(3):
            pts = rng.random((40, 2))
            w = rng.random(40)
            w /= w.sum()
            ms.append(EmpiricalMeasure(space, pts, w))
        d01 = weak_star_distance(ms[0], ms[1])
        d10 = weak_star_distance(ms[1], ms[0])
        d02 = weak_star_distance(ms[0], ms[2])
        d12 = weak_star_distance(ms[1], ms[2])
        assert d01 == pytest.approx(d10, abs=1e-15)
        assert d02 <= d01 + d12 + 1e-15

    @pytest.mark.parametrize("cutoff", [0, -1, 2.5])
    def test_bad_cutoff_rejected(self, cutoff):
        # 0 and -1 leave no function; 2.5 would give non-integer wavevectors
        mu = dirac(PhaseSpace.torus(2), [0.1, 0.2])
        nu = dirac(PhaseSpace.torus(2), [0.3, 0.4])
        with pytest.raises(ValueError, match="cutoff"):
            dictionary_moments(mu, cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            weak_star_distance(mu, nu, cutoff)

    def test_mismatched_spaces_rejected(self):
        mu = dirac(PhaseSpace.torus(1), [0.1])
        nu = dirac(PhaseSpace.unit_interval(), [0.1])
        with pytest.raises(ValueError):
            weak_star_distance(mu, nu)

    def test_torus_dictionary_memory_stays_chunk_sized(self, dictionary_clouds):
        # T^4 at cutoff 4 has 3280 wavevectors: on a 2001-point cloud the
        # whole (3280, 2001) phase array with its cos and sin peaks near
        # 150 MB, and 64 wavevectors at a time near 4.5 MB
        mu = dictionary_clouds["skew-2001"]
        m, peak = traced_moments(mu, 4)
        assert peak < few_rows(mu)
        # the moments are the integrals of cos, then sin(2 pi k.x)
        sub = EmpiricalMeasure(mu.space, mu.points[:200], np.full(200, 1.0 / 200))
        phases = 2.0 * math.pi * (sub.points @ half_box(4, 4).T)
        ref = np.concatenate([np.cos(phases).mean(axis=0), np.sin(phases).mean(axis=0)])
        got = dictionary_moments(sub, 4)
        assert m.shape == got.shape == (2 * 3280,)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("cloud", ["da-ulam-128", "cat-40000"])
    def test_torus_dictionary_memory_stays_block_sized(self, dictionary_clouds, cloud):
        # 40 T^2 wavevectors 64 at a time held (40, m) arrays: 15 MB on the
        # 128^2-cell Ulam cloud. Point blocks hold about BLOCK_POINTS values
        # per array, beside a few rows of m values
        _, peak = traced_moments(dictionary_clouds[cloud], 4)
        assert peak < few_rows(dictionary_clouds[cloud])

    def test_grid_vs_empirical_same_uniform(self):
        g = identity_ulam(PhaseSpace.unit_interval(), (128,))
        pts = (np.arange(4096)[:, None] + 0.5) / 4096.0
        e = EmpiricalMeasure(PhaseSpace.unit_interval(), pts, np.full(4096, 1.0 / 4096))
        assert weak_star_distance(g, e, 4) < 1e-3

    def test_cylinder_dictionary_nonempty(self):
        v = make_viana(1.7808, 0.02, 16)
        mu = birkhoff_sample(v, seed=2, burn_in=10, length=200)
        m = dictionary_moments(mu, 2)
        assert m.shape[0] > 4 and np.all(np.isfinite(m))


def canonical_moments(mu, cutoff):
    """The dictionary moments one function at a time, in the documented
    order: torus cos(2 pi k.x) over the half box, then sin; interval
    Chebyshev T_1..T_cutoff; cylinder the Chebyshev modes, then the
    cos(2 pi k x) T_j blocks, then the sin(2 pi k x) T_j blocks, for
    k = 1..cutoff and j = 0..cutoff."""
    w = _kept_weights(mu.weights)
    pts = mu.points
    kind, lo, widths = mu.space.kind, mu.space.lo, mu.space.widths()
    if kind == "torus":
        phases = [2.0 * math.pi * sum(kj * x for kj, x in zip(k, pts.T))
                  for k in half_box(mu.space.dim, cutoff)]
        rows = [np.cos(p) for p in phases] + [np.sin(p) for p in phases]
    elif kind == "interval":
        u = 2.0 * (pts[:, 0] - lo[0]) / widths[0] - 1.0
        rows = list(np.polynomial.chebyshev.chebvander(u, cutoff).T[1:])
    else:
        u = 2.0 * (pts[:, 1] - lo[1]) / widths[1] - 1.0
        cheb = np.polynomial.chebyshev.chebvander(u, cutoff).T
        rows = list(cheb[1:])
        for trig in (np.cos, np.sin):
            rows += [trig(2.0 * math.pi * k * pts[:, 0]) * c
                     for k in range(1, cutoff + 1) for c in cheb]
    return np.array([np.sum(w * r) for r in rows])


class TestDictionaryBlocks:
    # the dictionary is summed a block of points at a time; every moment
    # must keep its place and its value, to rounding, whatever the block

    @pytest.mark.parametrize("cloud", ["da-ulam-128", "cat-40000", "skew-2001",
                                       "mp-interval", "viana-cylinder"])
    def test_moments_match_canonical_in_any_block(self, dictionary_clouds, cloud,
                                                  monkeypatch):
        mu = dictionary_clouds[cloud]
        ref = canonical_moments(mu, 4)
        m = mu.points.shape[0]
        for per_block in (1, 2, 7, 3280):
            monkeypatch.setattr(measures_mod, "BLOCK_POINTS", per_block * m)
            got = dictionary_moments(mu, 4)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15, per_block


def gauss_chebyshev(n, lo, hi):
    """The n Gauss-Chebyshev nodes cos(pi (k + 1/2) / n), mapped from
    [-1, 1] onto [lo, hi]."""
    return lo + (hi - lo) * (1.0 + np.cos(math.pi * (np.arange(n) + 0.5) / n)) / 2.0


class TestDictionaryOracle:
    # discrete orthogonality: on these grids every moment is 0 in exact
    # arithmetic, which checks the tensor product without a reference

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_torus_cell_centers(self, d):
        # the r^d cell centers sum e^(2 pi i k.x) to 0 for 0 < |k|_inf < r
        mu = identity_ulam(PhaseSpace.torus(d), (5,) * d)
        m = dictionary_moments(mu, 4)
        assert m.shape == ((9 ** d - 1),)
        assert np.max(np.abs(m)) <= 1e-15

    def test_interval_gauss_chebyshev(self):
        # n nodes sum T_j to 0 for 0 < j < 2n: here j = 1..5 on 3 nodes
        pts = gauss_chebyshev(3, 0.0, 1.0)[:, None]
        mu = EmpiricalMeasure(PhaseSpace.unit_interval(), pts, np.full(3, 1.0 / 3))
        m = dictionary_moments(mu, 5)
        assert m.shape == (5,)
        assert np.max(np.abs(m)) <= 1e-15

    def test_cylinder_product_grid(self):
        space = PhaseSpace.cylinder(-1.5, 2.0)
        angle = (np.arange(5) + 0.5) / 5.0
        grid = np.array([(a, x) for a in angle for x in gauss_chebyshev(3, -1.5, 2.0)])
        mu = EmpiricalMeasure(space, grid, np.full(15, 1.0 / 15))
        m = dictionary_moments(mu, 4)
        assert m.shape == (4 + 2 * 4 * 5,)
        assert np.max(np.abs(m)) <= 1e-15


class TestLS1:
    def test_doubling_lebesgue_scaling(self):
        # mass of B_eps({1/2}) under Lebesgue is exactly 2 eps
        sys = make_manneville_pomeau(0.0)
        pts = (np.arange(200_000)[:, None] + 0.5) / 200_000.0
        mu = EmpiricalMeasure(sys.space, pts, np.full(200_000, 1.0 / 200_000))
        fit = ls1_fit(sys, mu, np.logspace(-3, -1, 9))
        assert fit["beta"] == pytest.approx(1.0, abs=0.01)
        assert fit["C"] == pytest.approx(2.0, rel=0.02)
        assert fit["residual"] >= 0.0

    def test_measure_away_from_singular_set(self):
        sys = make_manneville_pomeau(0.0)
        mu = dirac(sys.space, [0.1])
        fit = ls1_fit(sys, mu, [1e-3, 1e-2])
        assert fit["beta"] == math.inf and fit["C"] == 0.0

    def test_empty_singular_set_rejected(self):
        with pytest.raises(ValueError):
            ls1_fit(make_cat_map(), dirac(PhaseSpace.torus(2), [0.1, 0.1]), [0.01])


class TestLS2:
    def test_cat_constant_norm(self):
        mu = birkhoff_sample(make_cat_map(), seed=1, burn_in=0, length=1000)
        out = ls2_integral(make_cat_map(), mu)
        assert out["forward"] == pytest.approx(math.log(LAM), abs=1e-12)
        assert out["backward"] == pytest.approx(math.log(LAM), abs=1e-12)

    def test_identity_map_zero(self):
        sys = make_interval_identity()
        pts = np.linspace(0.05, 0.95, 50)[:, None]
        mu = EmpiricalMeasure(sys.space, pts, np.full(50, 0.02))
        assert ls2_integral(sys, mu)["forward"] == 0.0

    def test_doubling_log_two(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=9, burn_in=100, length=100_000)
        out = ls2_integral(sys, mu)
        assert out["forward"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert out["backward"] is None


class TestHolderCheck:
    def test_constant_family(self):
        fam = FamilyHandle("const", "t", 0.0, 1.0,
                           lambda t: make_manneville_pomeau(0.3))
        pts = np.array([[0.2], [0.3], [0.7]])
        out = holder_parameter_check(fam, [0.1, 0.4, 0.8], pts)
        assert out["beta"] == math.inf

    def test_mp_right_branch_independent_of_alpha(self):
        pts = np.linspace(0.6, 0.95, 8)[:, None]
        out = holder_parameter_check(FAMILIES["mp"], [0.1, 0.3, 0.5], pts)
        assert out["c"] == 0.0

    def test_viana_family_jacobian_parameter_free(self):
        # det Df = -2 x d for every eps, so direct evaluation over the grid
        # gives identically zero differences: the bound holds vacuously.
        rng = np.random.default_rng(3)
        theta = rng.random(30)
        x = rng.uniform(0.2, 1.2, 30)
        pts = np.column_stack([theta, x])
        out = holder_parameter_check(FAMILIES["viana"], [0.005, 0.01, 0.02, 0.04], pts)
        assert out["c"] == 0.0 and out["beta"] == math.inf

    def test_mp_left_branch_finite_constants(self):
        # log f'_alpha varies smoothly in alpha on the left branch, so the
        # fit returns finite constants.
        pts = np.linspace(0.05, 0.45, 12)[:, None]
        out = holder_parameter_check(FAMILIES["mp"], [0.1, 0.2, 0.3, 0.5], pts)
        assert math.isfinite(out["c"]) and out["c"] > 0.0
        assert math.isfinite(out["beta"]) and out["beta"] > 0.0

    def test_sample_on_singular_set_rejected(self):
        # on the critical line, and within SINGULAR_HIT_DISTANCE of it
        for pts in ([[0.2, 0.0]], [[0.2, 1e-16]]):
            with pytest.raises(ValueError):
                holder_parameter_check(FAMILIES["viana"], [0.01, 0.02], np.array(pts))


class TestBoundedJacobian:
    def test_cat_unimodular(self):
        mu = birkhoff_sample(make_cat_map(), seed=2, burn_in=0, length=500)
        out = bounded_jacobian_check(make_cat_map(), mu, 1.0)
        assert out["value"] == pytest.approx(0.0, abs=1e-12)
        assert out["passed"]

    def test_doubling_log_two(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=2, burn_in=0, length=10_000)
        out = bounded_jacobian_check(sys, mu, 1.0)
        assert out["value"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert out["passed"]

    def test_fail_path(self):
        sys = make_manneville_pomeau(0.0)
        mu = birkhoff_sample(sys, seed=2, burn_in=0, length=10_000)
        out = bounded_jacobian_check(sys, mu, 0.1)
        assert not out["passed"]

    @pytest.mark.parametrize("bound", [math.nan, -1.0, math.inf])
    def test_bound_must_be_finite_and_nonnegative(self, bound):
        mu = birkhoff_sample(make_cat_map(), seed=2, burn_in=0, length=500)
        with pytest.raises(ValueError, match="bound"):
            bounded_jacobian_check(make_cat_map(), mu, bound)
