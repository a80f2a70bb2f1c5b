"""Singular values, wedge norms, and the Gram-Schmidt QR kernel."""

import math

import numpy as np
import pytest

from sinailab.errors import OrbitFailureError
from sinailab.matrixcore import (
    LOG_ZERO,
    MAX_DIM,
    _gram_schmidt,
    compounds,
    exact_cocycle_wedge,
    singular_values,
    wedge_profile,
)
from sinailab.systems import make_cat_map, make_manneville_pomeau

# Analytic eigen-decomposition of the symmetric integer matrix [[2,1],[1,1]]:
# eigenvalues (3 +- sqrt 5)/2, which are also its singular values.
LAM = (3.0 + math.sqrt(5.0)) / 2.0
LAM_INV = (3.0 - math.sqrt(5.0)) / 2.0
CAT = np.array([[2.0, 1.0], [1.0, 1.0]])


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])

    def test_cat_matrix_analytic(self):
        sv = singular_values(CAT)
        assert sv == pytest.approx([LAM, LAM_INV], abs=1e-12)

    def test_diagonal_with_zero(self):
        assert np.allclose(singular_values(np.diag([3.0, 0.0])), [3.0, 0.0])

    def test_against_numpy_svd_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.integers(1, 9)
            a = rng.standard_normal((d, d))
            ours = singular_values(a)
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.integers(2, 9)
            a = rng.standard_normal((d, d))
            q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            assert np.allclose(
                singular_values(q1 @ a @ q2), singular_values(a),
                rtol=1e-10, atol=1e-10,
            )

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            singular_values(np.ones((2, 3)))
        with pytest.raises(ValueError):
            singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            singular_values(np.ones((9, 9)))


class TestWedgeProfile:
    def test_identity_two(self):
        p = wedge_profile(np.eye(2))
        assert p.log_wedge_j == pytest.approx([0.0, 0.0], abs=1e-15)
        assert p.log_wedge_total == pytest.approx(math.log(3.0), abs=1e-14)

    def test_cat_matrix(self):
        p = wedge_profile(CAT)
        assert math.exp(p.log_wedge_j[0]) == pytest.approx(LAM, abs=1e-12)
        assert math.exp(p.log_wedge_j[1]) == pytest.approx(1.0, abs=1e-12)
        assert p.log_wedge_total == pytest.approx(math.log(2.0 + LAM), abs=1e-12)

    def test_diagonal(self):
        p = wedge_profile(np.diag([2.0, 0.5]))
        assert math.exp(p.log_wedge_j[0]) == pytest.approx(2.0)
        assert math.exp(p.log_wedge_j[1]) == pytest.approx(1.0)
        assert p.log_wedge_total == pytest.approx(math.log(4.0), abs=1e-14)

    def test_singular_matrix_total_finite(self):
        p = wedge_profile(np.diag([3.0, 0.0]))
        assert p.log_wedge_j[1] == LOG_ZERO
        assert p.log_wedge_total == pytest.approx(math.log(4.0), abs=1e-14)
        assert all(np.isfinite([p.log_wedge_total]))

    def test_log_wedge_concave_in_order(self):
        # increments of the cumulative sums are the sorted log singular
        # values, so the sequence is concave in j
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = rng.integers(2, 7)
            p = wedge_profile(rng.standard_normal((d, d)))
            lw = [0.0] + list(p.log_wedge_j)
            for j in range(1, d):
                assert lw[j + 1] - lw[j] <= lw[j] - lw[j - 1] + 1e-9

    def test_wedge_dim_is_log_abs_det(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = rng.integers(1, 6)
            a = rng.standard_normal((d, d))
            det = abs(np.linalg.det(a))
            p = wedge_profile(a)
            assert math.exp(p.log_wedge_dim) == pytest.approx(det, rel=1e-10)

    def test_submultiplicative_every_order(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = rng.integers(2, 5)
            a = rng.standard_normal((d, d)) * rng.uniform(0.1, 5.0)
            b = rng.standard_normal((d, d)) * rng.uniform(0.1, 5.0)
            pa, pb, pab = wedge_profile(a), wedge_profile(b), wedge_profile(a @ b)
            for j in range(d):
                assert pab.log_wedge_j[j] <= pa.log_wedge_j[j] + pb.log_wedge_j[j] + 1e-10
            assert pab.log_wedge_total <= pa.log_wedge_total + pb.log_wedge_total + 1e-10


def _qr_cocycle(mats):
    """Push the identity frame through matrices with the Gram-Schmidt kernel.

    Yields (frame, log diag(R)) after every step.
    """
    q = np.eye(mats[0].shape[0])[:, :, None]
    for a in mats:
        q, log_r = _gram_schmidt(np.einsum("il,ljn->ijn", a, q))
        yield q[:, :, 0], log_r[:, 0]


def _qr_cocycle_sums(mats):
    return sum(log_r for _, log_r in _qr_cocycle(mats))


class TestCocycleAccumulator:
    """The Gram-Schmidt kernel iterated along a cocycle (discrete QR)."""

    def test_diagonal_cocycle(self):
        logs = _qr_cocycle_sums([np.diag([2.0, 0.5])])
        assert logs == pytest.approx([math.log(2.0), -math.log(2.0)], abs=1e-14)

    def test_frame_orthonormal(self):
        rng = np.random.default_rng(2)
        for f, _ in _qr_cocycle(rng.standard_normal((50, 4, 4))):
            assert np.allclose(f.T @ f, np.eye(4), atol=1e-12)

    def test_constant_cat_rate(self):
        n = 400
        rates = _qr_cocycle_sums([CAT] * n) / n
        assert abs(rates[0] - math.log(LAM)) <= 2.0 / n
        assert abs(rates[1] + math.log(LAM)) <= 2.0 / n

    def test_constant_normal_cocycle_converges_to_log_singular_values(self):
        # For normal matrices the per-column rates converge, at rate O(1/n),
        # to the log singular values (general constant cocycles converge to
        # log |eigenvalues| instead).
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = rng.integers(2, 5)
            s = rng.standard_normal((d, d))
            a = s + s.T + np.eye(d) * 3.0
            target = np.sort(np.log(np.abs(np.linalg.eigvalsh(a))))[::-1]
            n = 300
            rates = np.sort(_qr_cocycle_sums([a] * n) / n)[::-1]
            assert np.all(np.abs(rates - target) <= 20.0 / n)


class TestGramSchmidt:
    def test_matches_positive_diagonal_qr(self):
        rng = np.random.default_rng(5)
        for shape in [(300, 2, 1), (300, 4, 2), (300, 4, 4)]:
            m = rng.standard_normal(shape)
            q_ref, r_ref = np.linalg.qr(m)
            sign = np.sign(np.einsum("mkk->mk", r_ref))
            q, log_r = _gram_schmidt(m.transpose(1, 2, 0))
            assert np.allclose(q.transpose(2, 0, 1), q_ref * sign[:, None, :], atol=1e-12)
            assert np.allclose(log_r.T, np.log(np.abs(np.einsum("mkk->mk", r_ref))),
                               atol=1e-12)

    def test_zero_column_restarts_at_unit_vector(self):
        m = np.array([[[2.0], [0.0]], [[0.0], [0.0]]])  # (d, k, n) = (2, 2, 1)
        q, log_r = _gram_schmidt(m)
        assert np.array_equal(q[:, :, 0], np.eye(2))
        assert log_r[:, 0].tolist() == [math.log(2.0), LOG_ZERO]


class TestCompoundBatch:
    def test_functorial_on_products(self):
        # Cauchy-Binet: C_j(AB) = C_j(A) C_j(B), also for rectangular factors
        rng = np.random.default_rng(4)
        for _ in range(60):
            r, s, c = rng.integers(1, MAX_DIM + 1, size=3)
            a = rng.standard_normal((3, r, s))
            b = rng.standard_normal((3, s, c))
            ca, cb, cab = compounds(a), compounds(b), compounds(np.matmul(a, b))
            assert len(cab) == min(r, c)
            for j in range(1, min(r, s, c) + 1):
                assert cab[j - 1].shape == (3, math.comb(r, j), math.comb(c, j))
                assert np.allclose(cab[j - 1], np.matmul(ca[j - 1], cb[j - 1]),
                                   rtol=1e-9, atol=1e-9)

    def test_top_compound_is_det(self):
        rng = np.random.default_rng(6)
        for d in range(1, MAX_DIM + 1):
            a = rng.standard_normal((20, d, d))
            c = compounds(a)[-1]
            assert c.shape == (20, 1, 1)
            assert np.allclose(c[:, 0, 0], np.linalg.det(a), rtol=1e-10, atol=1e-12)


class TestExactCocycleWedge:
    def test_cat_map_closed_form(self):
        sys = make_cat_map()
        p = exact_cocycle_wedge(sys, np.array([0.2, 0.7]), 10)
        expected = math.log(2.0 + LAM ** 10) / 10.0
        assert p.log_wedge_total / 10.0 == pytest.approx(expected, abs=1e-12)

    def test_single_step_matches_wedge_profile(self):
        sys = make_cat_map()
        x = np.array([0.3, 0.4])
        p1 = exact_cocycle_wedge(sys, x, 1)
        p2 = wedge_profile(sys.differential(x))
        assert p1.log_wedge_total == pytest.approx(p2.log_wedge_total, abs=1e-12)
        assert np.allclose(p1.log_wedge_j, p2.log_wedge_j, atol=1e-12)

    def test_deep_product_keeps_det_exact(self):
        # At n = 40 the 2-step wedge (the determinant) is ~5e16 times smaller
        # than the dominant one; per-order compound products must keep it.
        sys = make_cat_map()
        p = exact_cocycle_wedge(sys, np.array([0.2, 0.7]), 40)
        assert p.log_wedge_dim == pytest.approx(0.0, abs=1e-9)
        expected = math.log(2.0 + LAM ** 40) / 40.0
        assert p.log_wedge_total / 40.0 == pytest.approx(expected, abs=1e-10)

    def test_orbit_failure_carries_step(self):
        sys = make_manneville_pomeau(0.5)
        with pytest.raises(OrbitFailureError) as err:
            exact_cocycle_wedge(sys, np.array([0.5]), 3)
        assert err.value.step == 0

    def test_rejects_bad_n(self):
        sys = make_cat_map()
        with pytest.raises(ValueError):
            exact_cocycle_wedge(sys, np.array([0.1, 0.1]), 0)
