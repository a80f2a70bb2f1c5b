"""Wedge norms, top singular values, and the Gram-Schmidt QR kernel."""

import functools
import math
from itertools import combinations

import numpy as np
import pytest

import sinailab.entropy as entropy
import sinailab.matrixcore as matrixcore
from sinailab.entropy import ls_entropy
from sinailab.matrixcore import (
    LOG_ZERO,
    WedgeAccumulatorBatch,
    _gram_schmidt,
    _qr_step,
    compounds,
    log_wedge_total_from_rows,
    top_singular_values,
)
from sinailab.measures import birkhoff_sample
from sinailab.systems import (
    _cloud_walk,
    make_cat_block,
    make_cat_map,
    make_derived_from_anosov,
    make_standard_skew,
    make_viana,
)
from conftest import point_differential

# Analytic eigen-decomposition of the symmetric integer matrix [[2,1],[1,1]]:
# eigenvalues (3 +- sqrt 5)/2, which are also its singular values.
LAM = (3.0 + math.sqrt(5.0)) / 2.0
LAM_INV = (3.0 - math.sqrt(5.0)) / 2.0
CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
#: largest matrix dimension the compound tests draw
MAX_DIM = 8


def _batch_last(mats):
    """An (m, r, c) stack as the kernel's contiguous (r, c, m) layout."""
    return np.ascontiguousarray(np.transpose(mats, (1, 2, 0)))


def _batch_first(mats):
    """An (r, c, m) stack as an (m, r, c) view."""
    return np.transpose(mats, (2, 0, 1))


def wedge_logs(a):
    """(log ||A^(wedge j)|| for j = 1..d, log(1 + sum_j ||A^(wedge j)||)) of
    one square matrix: one step of the identity frame's WedgeAccumulatorBatch."""
    a = np.asarray(a, dtype=float)
    acc = WedgeAccumulatorBatch(np.eye(a.shape[0])[:, :, None])
    acc.step(a[:, :, None])
    lw = acc.log_wedge_all()
    return lw[:, 0], log_wedge_total_from_rows(lw)[0]


class TestWedgeProfile:
    def test_identity_two(self):
        lw, total = wedge_logs(np.eye(2))
        assert lw == pytest.approx([0.0, 0.0], abs=1e-15)
        assert total == pytest.approx(math.log(3.0), abs=1e-14)

    def test_cat_matrix(self):
        lw, total = wedge_logs(CAT)
        assert math.exp(lw[0]) == pytest.approx(LAM, abs=1e-12)
        assert math.exp(lw[1]) == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(math.log(2.0 + LAM), abs=1e-12)

    def test_diagonal(self):
        lw, total = wedge_logs(np.diag([2.0, 0.5]))
        assert math.exp(lw[0]) == pytest.approx(2.0)
        assert math.exp(lw[1]) == pytest.approx(1.0)
        assert total == pytest.approx(math.log(4.0), abs=1e-14)

    def test_singular_matrix_total_finite(self):
        lw, total = wedge_logs(np.diag([3.0, 0.0]))
        assert lw[1] == LOG_ZERO
        assert total == pytest.approx(math.log(4.0), abs=1e-14)
        assert all(np.isfinite([total]))

    def test_log_wedge_concave_in_order(self):
        # increments of the cumulative sums are the sorted log singular
        # values, so the sequence is concave in j
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = rng.integers(2, 7)
            lw = [0.0] + list(wedge_logs(rng.standard_normal((d, d)))[0])
            for j in range(1, d):
                assert lw[j + 1] - lw[j] <= lw[j] - lw[j - 1] + 1e-9

    def test_wedge_dim_is_log_abs_det(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = rng.integers(1, 6)
            a = rng.standard_normal((d, d))
            det = abs(np.linalg.det(a))
            assert math.exp(wedge_logs(a)[0][-1]) == pytest.approx(det, rel=1e-10)

    def test_submultiplicative_every_order(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = rng.integers(2, 5)
            a = rng.standard_normal((d, d)) * rng.uniform(0.1, 5.0)
            b = rng.standard_normal((d, d)) * rng.uniform(0.1, 5.0)
            (la, ta), (lb, tb), (lab, tab) = wedge_logs(a), wedge_logs(b), wedge_logs(a @ b)
            for j in range(d):
                assert lab[j] <= la[j] + lb[j] + 1e-10
            assert tab <= ta + tb + 1e-10


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


# The pushes _qr_step replaced: batch-first, a stacked np.matmul (F leg,
# Jacobian-F) or np.linalg.solve (E leg) re-orthonormalized through a
# transpose into the Gram-Schmidt kernel; batch-last, the broadcast sum of
# the Benettin time blocks.


def _orthonormalize_batch(frames):
    """_gram_schmidt of an (m, d, k) stack: (q, log_r), with q of shape
    (m, d, k) and log diag(R) of shape (k, m)."""
    q, log_r = _gram_schmidt(frames.transpose(1, 2, 0))
    return q.transpose(2, 0, 1), log_r


def _broadcast_sum(dfs, q):
    """Df q for one-step derivatives (d, d, m) and frames (d, k, m)."""
    return (dfs[:, :, None, :] * q[None]).sum(axis=1)


class TestQRStep:
    @pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (4, 2), (4, 4)])
    def test_matches_the_batch_first_pushes(self, d, k):
        rng = np.random.default_rng(31)
        m = 400
        dfs = _with_singular_values(rng, m, d, d, np.linspace(2.0, 0.5, d))
        frames = np.linalg.qr(rng.standard_normal((m, d, k)))[0]
        for step, pushed in ((dfs, np.matmul(dfs, frames)),
                             (np.linalg.inv(dfs), np.linalg.solve(dfs, frames))):
            q, log_r = _qr_step(_batch_last(step), _batch_last(frames))
            q_ref, log_r_ref = _orthonormalize_batch(pushed)
            assert np.allclose(_batch_first(q), q_ref, rtol=0.0, atol=1e-12)
            assert np.allclose(log_r, log_r_ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bits_match_the_broadcast_sum(self, d):
        # the guarantee that Benettin spectra stay byte-identical: contiguous
        # frames and the sliced views of the time-block loop alike
        rng = np.random.default_rng(32)
        for k in range(1, d + 1):
            for m in (1, 2, 3, 7, 16, 17, 100, 1001):
                if k == 1 and m == 1:
                    # a single one-column frame makes einsum a dot product,
                    # summed in another order; Benettin frames are square
                    continue
                dfs = _batch_last(rng.standard_normal((m, d, d)))
                q = rng.standard_normal((d, k, m + 1))
                for frames in (np.ascontiguousarray(q[:, :, 1:]), q[:, :, 1:], q[:, :, :m]):
                    got = _qr_step(dfs, frames)
                    want = _gram_schmidt(_broadcast_sum(dfs, frames))
                    assert got[0].tobytes() == want[0].tobytes(), (d, k, m)
                    assert got[1].tobytes() == want[1].tobytes(), (d, k, m)


class TestCompoundBatch:
    def test_functorial_on_products(self):
        # Cauchy-Binet: C_j(AB) = C_j(A) C_j(B), also for rectangular factors
        rng = np.random.default_rng(4)
        for _ in range(60):
            r, s, c = rng.integers(1, MAX_DIM + 1, size=3)
            a = rng.standard_normal((3, r, s))
            b = rng.standard_normal((3, s, c))
            ca, cb, cab = ([_batch_first(x) for x in compounds(_batch_last(y))]
                           for y in (a, b, np.matmul(a, b)))
            assert len(cab) == min(r, c)
            for j in range(1, min(r, s, c) + 1):
                assert cab[j - 1].shape == (3, math.comb(r, j), math.comb(c, j))
                assert np.allclose(cab[j - 1], np.matmul(ca[j - 1], cb[j - 1]),
                                   rtol=1e-9, atol=1e-9)

    def test_top_compound_is_det(self):
        rng = np.random.default_rng(6)
        for d in range(1, MAX_DIM + 1):
            a = rng.standard_normal((20, d, d))
            c = compounds(_batch_last(a))[-1]
            assert c.shape == (1, 1, 20)
            assert np.allclose(c[0, 0], np.linalg.det(a), rtol=1e-10, atol=1e-12)

    def test_bits_match_the_batch_first_kernel(self):
        rng = np.random.default_rng(8)
        for r in range(1, MAX_DIM + 1):
            for c in range(1, MAX_DIM + 1):
                a = rng.standard_normal((30, r, c))
                got = compounds(_batch_last(a))
                want = _batch_first_compounds(a)
                assert len(got) == len(want) == min(r, c)
                for x, y in zip(got, want):
                    assert x.tobytes() == _batch_last(y).tobytes(), (r, c)


# A batch-first wedge kernel (fancy indexing on the middle axes, stacked
# matmul): the reference the batch-last kernel is checked against.


@functools.lru_cache(maxsize=None)
def _batch_first_laplace_tables(r, c, j):
    prev_rows = {s: i for i, s in enumerate(combinations(range(r), j - 1))}
    prev_cols = {s: i for i, s in enumerate(combinations(range(c), j - 1))}
    rows = list(combinations(range(r), j))
    cols = list(combinations(range(c), j))
    lead = np.array([s[0] for s in rows])
    rest = np.array([prev_rows[s[1:]] for s in rows])
    pick = np.array(cols)
    drop = np.array([[prev_cols[s[:t] + s[t + 1:]] for t in range(j)] for s in cols])
    return lead, rest, pick, drop


def _batch_first_compounds(mats):
    """Every compound of an (m, r, c) stack, indexed along the middle axes."""
    _, r, c = mats.shape
    out = [mats]
    for j in range(2, min(r, c) + 1):
        lead, rest, pick, drop = _batch_first_laplace_tables(r, c, j)
        first = mats[:, lead]
        minors = out[-1][:, rest]
        cj = first[:, :, pick[:, 0]] * minors[:, :, drop[:, 0]]
        for t in range(1, j):
            term = first[:, :, pick[:, t]] * minors[:, :, drop[:, t]]
            if t % 2:
                cj -= term
            else:
                cj += term
        out.append(cj)
    return out


class _MaskedAccumulator(WedgeAccumulatorBatch):
    """The accumulator without its fast paths: every order multiplied by
    the einsum, every step through the dead-point masks and the LOG_ZERO
    clamp, every log_wedge through the 1e-320 floor and the clamp."""

    def step(self, dfs):
        for i, cj in enumerate(compounds(dfs)[:len(self.orders)]):
            prod = np.einsum("akm,kbm->abm", cj, self._mats[i])
            scale = np.abs(prod).max(axis=(0, 1))
            self._rescale(i, prod, scale)

    def _rescale(self, i, prod, scale):
        dead = scale == 0.0
        safe = np.where(dead, 1.0, scale)
        prod /= safe
        with np.errstate(divide="ignore", over="ignore"):
            self._logs[i] += np.where(dead, LOG_ZERO, np.log(safe))
        self._logs[i][self._logs[i] < LOG_ZERO] = LOG_ZERO
        self._mats[i] = prod

    def log_wedge(self, j):
        top, self._starts[j - 1] = top_singular_values(self._mats[j - 1],
                                                       self._starts[j - 1])
        with np.errstate(divide="ignore", over="ignore"):
            lw = np.where(top > 0.0, np.log(np.maximum(top, 1e-320)), LOG_ZERO)
            lw = lw + self._logs[j - 1]
        lw[lw < LOG_ZERO] = LOG_ZERO
        return lw


class _BatchFirstAccumulator(_MaskedAccumulator):
    """Products multiplied batch-first with np.matmul and rescaled per
    matrix; each is stored batch-last only for log_wedge to read."""

    def step(self, dfs):
        for i, cj in enumerate(_batch_first_compounds(_batch_first(dfs))[:len(self.orders)]):
            prod = np.matmul(cj, np.ascontiguousarray(_batch_first(self._mats[i])))
            self._rescale(i, _batch_last(prod), np.max(np.abs(prod), axis=(1, 2)))


@pytest.mark.parametrize("d, dies_at", [(1, None), (2, None), (2, 3)],
                         ids=["d1", "d2", "d2-dies-at-step-3"])
def test_fast_paths_change_no_bit(d, dies_at):
    # the 1x1 orders (every order at d = 1, the determinant at d = 2)
    # multiply element-wise and, while no product has scale 0, step and
    # log_wedge skip their masks and clamps. Against the accumulator
    # without them every log is the same bit for bit, on every order, and
    # against the batch-first kernel on the 1x1 orders (its 2x2 matmul
    # rounds otherwise). In the last stack one point's derivative is 0 at
    # step 3, so its products die after two live steps.
    m = 300
    steps = np.random.default_rng(40 + d).standard_normal((8, d, d, m))
    if dies_at:
        steps[dies_at - 1, :, :, 7] = 0.0
    frames = np.broadcast_to(np.eye(d)[:, :, None], (d, d, m))
    fast, masked, batch_first = (kind(frames) for kind in (
        WedgeAccumulatorBatch, _MaskedAccumulator, _BatchFirstAccumulator))
    for dfs in steps:
        for acc in (fast, masked, batch_first):
            acc.step(dfs)
        lw = fast.log_wedge_all()
        assert lw.tobytes() == masked.log_wedge_all().tobytes()
        assert lw[-1].tobytes() == batch_first.log_wedge_all()[-1].tobytes()
        for i in range(d):
            assert fast._logs[i].tobytes() == masked._logs[i].tobytes()
            assert np.array_equal(fast._mats[i], masked._mats[i])
        assert fast._logs[-1].tobytes() == batch_first._logs[-1].tobytes()
    if dies_at:
        assert np.all(lw[:, 7] == LOG_ZERO)
        assert np.all(lw[:, np.arange(m) != 7] > LOG_ZERO)


def cocycle_wedge(system, x, n):
    """(log wedge norms, log_wedge_total) of Df^n(x): the identity frame's
    WedgeAccumulatorBatch stepped n times by the shared cloud walk from x."""
    acc = WedgeAccumulatorBatch(np.eye(system.space.dim)[:, :, None])
    for _, (dfs, _) in zip(range(n), _cloud_walk(system, np.atleast_2d(x), 0)):
        acc.step(dfs)
    lw = acc.log_wedge_all()
    return lw[:, 0], log_wedge_total_from_rows(lw)[0]


class TestExactCocycleWedge:
    def test_cat_map_closed_form(self):
        sys = make_cat_map()
        _, total = cocycle_wedge(sys, np.array([0.2, 0.7]), 10)
        expected = math.log(2.0 + LAM ** 10) / 10.0
        assert total / 10.0 == pytest.approx(expected, abs=1e-12)

    def test_single_step_matches_wedge_profile(self):
        # the reference wedge norms: cumulative sums of log singular values
        sys = make_cat_map()
        x = np.array([0.3, 0.4])
        lw, total = cocycle_wedge(sys, x, 1)
        ref = np.cumsum(np.log(np.linalg.svd(point_differential(sys, x),
                                             compute_uv=False)))
        assert total == pytest.approx(math.log(1.0 + np.exp(ref).sum()), abs=1e-12)
        assert np.allclose(lw, ref, atol=1e-12)

    def test_deep_product_keeps_det_exact(self):
        # At n = 40 the 2-step wedge (the determinant) is ~5e16 times smaller
        # than the dominant one; per-order compound products must keep it.
        sys = make_cat_map()
        lw, total = cocycle_wedge(sys, np.array([0.2, 0.7]), 40)
        assert lw[-1] == pytest.approx(0.0, abs=1e-9)
        expected = math.log(2.0 + LAM ** 40) / 40.0
        assert total / 40.0 == pytest.approx(expected, abs=1e-10)


def _svd_top(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _with_singular_values(rng, m, r, c, sv):
    """(m, r, c) stack U diag(sv) V^T with random orthogonal U and V."""
    u = np.linalg.qr(rng.standard_normal((m, r, r)))[0][:, :, :c]
    v = np.linalg.qr(rng.standard_normal((m, c, c)))[0]
    return np.matmul(u * np.asarray(sv)[None, None, :], np.transpose(v, (0, 2, 1)))


class TestTopSingularValues:
    """The certified power iteration against np.linalg.svd."""

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (6, 6), (8, 8),
                                       (4, 2), (6, 1), (6, 4), (28, 8)])
    def test_random_stacks(self, shape):
        rng = np.random.default_rng(21)
        mats = rng.standard_normal((500,) + shape)
        top, v = top_singular_values(_batch_last(mats))
        assert np.allclose(top, _svd_top(mats), rtol=1e-13, atol=0.0)
        # the returned vectors are unit and, where certified, top singular
        assert np.allclose((v * v).sum(axis=0), 1.0, atol=1e-12)

    def test_graded_stacks(self):
        rng = np.random.default_rng(22)
        for c in (2, 4, 6):
            mats = _with_singular_values(rng, 300, c, c, np.logspace(0, -12, c))
            top, _ = top_singular_values(_batch_last(mats * 1e5))
            assert np.allclose(top, _svd_top(mats * 1e5), rtol=1e-13, atol=0.0)

    def test_exactly_degenerate_stacks(self):
        rng = np.random.default_rng(23)
        for sv in ([2.0, 2.0], [3.0, 3.0, 1.0, 0.5], [1.0] * 6,
                   [2.0, 2.0 * (1.0 - 1e-9), 1.0]):
            mats = _with_singular_values(rng, 200, len(sv), len(sv), sv)
            top, _ = top_singular_values(_batch_last(mats))
            assert np.allclose(top, _svd_top(mats), rtol=1e-13, atol=0.0), sv
        # integer powers of cat + cat: sigma_1 = sigma_2 = LAM^n exactly
        block = np.kron(np.eye(2), CAT)
        mats = np.stack([np.linalg.matrix_power(block, n) for n in range(1, 12)])
        top, _ = top_singular_values(_batch_last(mats))
        assert np.allclose(top, LAM ** np.arange(1, 12), rtol=1e-13, atol=0.0)

    def test_zero_and_rank_deficient_stacks(self):
        rng = np.random.default_rng(24)
        top, _ = top_singular_values(np.zeros((4, 4, 5)))
        assert np.array_equal(top, np.zeros(5))
        a = rng.standard_normal((100, 5, 1))
        b = rng.standard_normal((100, 1, 3))
        rank_one = np.matmul(a, b)
        top, _ = top_singular_values(_batch_last(rank_one))
        expected = np.linalg.norm(a[:, :, 0], axis=1) * np.linalg.norm(b[:, 0], axis=1)
        assert np.allclose(top, expected, rtol=1e-13, atol=0.0)
        rank_two = _with_singular_values(rng, 100, 6, 6, [4.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        top, _ = top_singular_values(_batch_last(rank_two))
        assert np.allclose(top, 4.0, rtol=1e-13, atol=0.0)
        # a start vector in the null space is an eigenvector too, of 0
        top, _ = top_singular_values(np.array([[2.0, 0.0], [0.0, 0.0]])[:, :, None],
                                     np.array([[0.0], [1.0]]))
        assert top.tolist() == [2.0]

    def test_one_by_one_stacks_take_the_absolute_value(self):
        mats = np.array([-3.0, 0.0, 2.5]).reshape(1, 1, 3)
        top, v = top_singular_values(mats)
        assert top.tolist() == [3.0, 0.0, 2.5]
        assert v is None

    def test_start_on_the_second_eigenvector(self):
        rng = np.random.default_rng(25)
        for c in (2, 3, 6):
            mats = _with_singular_values(rng, 50, c, c, np.linspace(3.0, 1.0, c))
            gram = np.matmul(np.transpose(mats, (0, 2, 1)), mats)
            second = np.linalg.eigh(gram)[1][:, :, -2]
            top, _ = top_singular_values(_batch_last(mats), second.T)
            assert np.allclose(top, 3.0, rtol=1e-13, atol=0.0), c

    def test_warm_start_needs_no_eigvalsh(self, monkeypatch):
        # started on the top right singular vector, a stack whose top
        # eigenvalue of P^T P outweighs the rest of its trace is certified
        # without the fallback
        rng = np.random.default_rng(26)
        mats = _with_singular_values(rng, 400, 6, 6, [3.0, 1.5, 1.0, 0.5, 0.2, 0.1])
        start = np.linalg.svd(mats)[2][:, 0, :].T

        def refuse(_):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        top, v = top_singular_values(_batch_last(mats), start)
        assert np.allclose(top, 3.0, rtol=1e-13, atol=0.0)
        assert np.allclose(np.abs((v * start).sum(axis=0)), 1.0, atol=1e-12)

    @staticmethod
    def _eigvalsh_top(mats, start):
        """Reference top singular values: eigvalsh of the Gram matrices."""
        mats = _batch_first(mats)
        gram = np.matmul(np.transpose(mats, (0, 2, 1)), mats)
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)), None

    @pytest.mark.parametrize("make", [lambda: make_cat_block(2),
                                      lambda: make_standard_skew(0.5, 2)],
                             ids=["cat4", "skew"])
    def test_ls_table_matches_eigvalsh(self, make, monkeypatch):
        system = make()
        measure = birkhoff_sample(system, seed=3, burn_in=500, length=1500)
        a_n = ls_entropy(system, measure, 20, early_stop=False, seed=3).diagnostics["a_n"]
        monkeypatch.setattr(matrixcore, "top_singular_values", self._eigvalsh_top)
        reference = ls_entropy(system, measure, 20, early_stop=False,
                               seed=3).diagnostics["a_n"]
        assert np.allclose(a_n, reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda: make_cat_block(2),
                                      lambda: make_standard_skew(0.5, 2),
                                      lambda: make_derived_from_anosov(0.2),
                                      make_viana],
                             ids=["cat4", "skew", "da", "viana"])
    def test_ls_table_matches_the_batch_first_kernel(self, make, monkeypatch):
        system = make()
        measure = birkhoff_sample(system, seed=4, burn_in=500, length=1500)
        a_n = ls_entropy(system, measure, 20, early_stop=False, seed=4).diagnostics["a_n"]
        monkeypatch.setattr(entropy, "WedgeAccumulatorBatch", _BatchFirstAccumulator)
        reference = ls_entropy(system, measure, 20, early_stop=False,
                               seed=4).diagnostics["a_n"]
        assert np.allclose(a_n, reference, rtol=0.0, atol=1e-12)


def test_ls_identity_frames_are_never_written(monkeypatch):
    # ls_entropy starts its products from a read-only broadcast identity,
    # which the accumulator keeps as its order-1 product until the first step
    seen = []

    class Recording(WedgeAccumulatorBatch):
        def __init__(self, frames):
            seen.append(frames)
            super().__init__(frames)

    monkeypatch.setattr(entropy, "WedgeAccumulatorBatch", Recording)
    system = make_cat_block(2)
    measure = birkhoff_sample(system, seed=5, burn_in=100, length=300)
    ls_entropy(system, measure, 5, early_stop=False, seed=5)
    (frames,) = seen
    assert frames.shape == (4, 4, 300) and not frames.flags.writeable
    assert np.array_equal(frames, np.broadcast_to(np.eye(4)[:, :, None], frames.shape))


def test_log_wedge_total_from_rows_against_direct_sum():
    rng = np.random.default_rng(27)
    for k in (1, 2, 4, 8):
        rows = rng.uniform(-40.0, 40.0, (60, k))
        rows[rng.random(rows.shape) < 0.2] = LOG_ZERO
        rows[:10] = rng.uniform(695.0, 705.0, (10, k))
        rows[10, :] = LOG_ZERO
        got = log_wedge_total_from_rows(rows.T)
        for row, value in zip(rows, got):
            direct = math.log(1.0 + sum(math.exp(x) for x in row))
            assert value == pytest.approx(direct, rel=1e-14, abs=1e-15)
