"""Small dense linear algebra for derivative cocycles.

Everything here works on real square matrices of dimension 1..8: singular
values, exterior-power (wedge) norms carried in log scale, and the one QR
reduction of the package, a modified Gram-Schmidt kernel batched over
stacks of frames (Benettin spectra and bundle frames both run on it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import OrbitFailureError

MAX_DIM = 8

#: log-scale stand-in for log(0); kept finite so sums and comparisons work.
LOG_ZERO = -1.0e308

_JACOBI_TOL = 1e-15
_JACOBI_MAX_SWEEPS = 60


def as_square_matrix(a) -> np.ndarray:
    """Validate and return a float64 square matrix of dimension 1..8."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} outside [1, {MAX_DIM}]")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _jacobi_column_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of an (n, k) matrix, k <= n, by one-sided Jacobi.

    Cyclic sweeps rotate column pairs until all pairs are numerically
    orthogonal; the singular values are the final column norms. For the
    tiny dimensions used here this is robust and gives good relative
    accuracy on graded spectra.
    """
    a = np.array(m, dtype=float)
    k = a.shape[1]
    if k == 1:
        return np.array([math.sqrt(float(a[:, 0] @ a[:, 0]))])
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(k - 1):
            for q in range(p + 1, k):
                cp = a[:, p]
                cq = a[:, q]
                app = float(cp @ cp)
                aqq = float(cq @ cq)
                apq = float(cp @ cq)
                if app == 0.0 or aqq == 0.0 or apq == 0.0:
                    continue
                scale = math.sqrt(app * aqq)
                if abs(apq) <= _JACOBI_TOL * scale:
                    continue
                off = max(off, abs(apq) / scale)
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
        if off == 0.0:
            break
    sv = np.sqrt(np.sum(a * a, axis=0))
    sv.sort()
    return sv[::-1].copy()


def singular_values(a) -> np.ndarray:
    """Sorted (descending) singular values of a square matrix.

    The squared values are the eigenvalues of A^T A; degenerate input
    simply yields zeros.
    """
    return _jacobi_column_singular_values(as_square_matrix(a))


def gram_singular_values(mats: np.ndarray) -> np.ndarray:
    """Ascending singular values of each matrix in an (m, c, c) stack.

    They are the square roots of the eigenvalues of the Gram matrices
    M^T M, clipped at zero; a 1x1 stack needs only the absolute value.
    """
    if mats.shape[1] == 1:
        return np.abs(mats[:, :, 0])
    gram = np.matmul(np.transpose(mats, (0, 2, 1)), mats)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))


@dataclass(frozen=True)
class WedgeProfile:
    """Log-scale summary of all exterior-power norms of one matrix.

    log_wedge_j[j-1] = log of the operator norm of the j-th exterior power,
    which equals the sum of the top-j log singular values. log_wedge_total
    is log(1 + sum_j ||A^(wedge j)||), the aggregate used by the
    Ledrappier-Strelcyn entropy characterization. A zero singular value is
    carried as the LOG_ZERO sentinel, never NaN, so totals stay finite.
    """

    dim: int
    log_singular_values: tuple
    log_wedge_j: tuple
    log_wedge_total: float

    @property
    def log_wedge_dim(self) -> float:
        """log |det A| (the top wedge)."""
        return self.log_wedge_j[-1]

    @staticmethod
    def from_log_singular_values(log_sv) -> "WedgeProfile":
        lsv = sorted((float(v) for v in log_sv), reverse=True)
        with np.errstate(over="ignore"):  # summed LOG_ZERO sentinels give -inf
            lw = np.maximum(np.cumsum(lsv), LOG_ZERO)
        return WedgeProfile(
            dim=len(lsv),
            log_singular_values=tuple(lsv),
            log_wedge_j=tuple(float(v) for v in lw),
            log_wedge_total=float(log_wedge_total_from_rows(lw[None, :])[0]),
        )


def wedge_profile(a) -> WedgeProfile:
    """WedgeProfile of a square matrix from its singular values."""
    sv = singular_values(a)
    log_sv = [math.log(s) if s > 0.0 else LOG_ZERO for s in sv]
    return WedgeProfile.from_log_singular_values(log_sv)


def _gram_schmidt(m: np.ndarray):
    """Modified Gram-Schmidt on a batch of (d, k) matrices, k <= d.

    The batch runs along the last axis: m has shape (d, k, n), so every
    entry m[i, j] is one contiguous vector over the batch and each numpy
    operation sweeps the whole batch. Returns (q, log_r): the orthonormal
    columns, shape (d, k, n), and log diag(R), shape (k, n), of the QR
    factorization with diag(R) >= 0. A column left with zero norm restarts
    at e_j and logs LOG_ZERO.
    """
    d, k, n = m.shape
    q = np.empty((d, k, n))
    log_r = np.empty((k, n))
    for j in range(k):
        v = m[:, j].copy()
        for i in range(j):
            qi = q[:, i]
            v -= (qi * v).sum(axis=0) * qi
        norm = np.sqrt((v * v).sum(axis=0))
        dead = ~(norm > 0.0)
        if dead.any():
            v[:, dead] = np.eye(d)[:, j, None]
            norm[dead] = 1.0
            log_r[j] = np.where(dead, LOG_ZERO, np.log(norm))
        else:
            log_r[j] = np.log(norm)
        q[:, j] = v / norm
    return q, log_r


# ---------------------------------------------------------------------------
# Exterior-power (compound matrix) machinery.
#
# The j-th compound of the one-step derivative is multiplied up along the
# orbit, with a per-step max-abs rescaling whose log is tracked separately.
# Multiplying compounds of the well-conditioned one-step matrices keeps
# every wedge norm accurate; forming sigma_j from the accumulated full
# product instead loses all singular values below eps * sigma_1 to
# round-off once the product is strongly graded.
# ---------------------------------------------------------------------------


def _index_subsets(dim: int, j: int):
    return list(combinations(range(dim), j))


def compound_batch(dfs: np.ndarray, j: int) -> np.ndarray:
    """j-th exterior power of a stack of (m, d, d) matrices.

    Entry (I, J) of the compound is the minor det(A[I, J]) over the
    lexicographically ordered j-subsets.
    """
    m, d, _ = dfs.shape
    if j == 1:
        return dfs
    if j == d:
        return np.linalg.det(dfs).reshape(m, 1, 1)
    subs = _index_subsets(d, j)
    c = len(subs)
    out = np.empty((m, c, c))
    for a, rows in enumerate(subs):
        block = dfs[:, rows, :]
        for b, cols in enumerate(subs):
            sub = block[:, :, cols]
            if j == 2:
                out[:, a, b] = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
            else:
                out[:, a, b] = np.linalg.det(sub)
    return out


class WedgeAccumulatorBatch:
    """Running exterior-power products for a batch of base points.

    For each order j, keeps the rescaled compound product and the log of
    the accumulated scale, so log ||Df^n(x)^(wedge j)|| is available at any
    step without overflow and with full round-off accuracy.
    """

    def __init__(self, dim: int, n_points: int):
        self.dim = dim
        self.n_points = n_points
        self.orders = tuple(range(1, dim + 1))
        self._mats = {}
        self._logs = {}
        for j in self.orders:
            c = math.comb(dim, j)
            eye = np.broadcast_to(np.eye(c), (n_points, c, c)).copy()
            self._mats[j] = eye
            self._logs[j] = np.zeros(n_points)
        self.steps = 0

    def step(self, dfs: np.ndarray) -> None:
        """Multiply the compounds of a (m, d, d) stack onto the products."""
        for j in self.orders:
            cj = compound_batch(dfs, j)
            prod = np.matmul(cj, self._mats[j])
            scale = np.max(np.abs(prod), axis=(1, 2))
            dead = scale == 0.0
            safe = np.where(dead, 1.0, scale)
            prod /= safe[:, None, None]
            with np.errstate(divide="ignore"):
                self._logs[j] += np.where(dead, LOG_ZERO, np.log(safe))
            self._logs[j][self._logs[j] < LOG_ZERO] = LOG_ZERO
            self._mats[j] = prod
        self.steps += 1

    def log_wedge(self, j: int) -> np.ndarray:
        """log ||P^(wedge j)|| per point for the current product P."""
        top = gram_singular_values(self._mats[j])[:, -1]
        with np.errstate(divide="ignore"):
            lw = np.where(top > 0.0, np.log(np.maximum(top, 1e-320)), LOG_ZERO)
        lw = lw + self._logs[j]
        lw[lw < LOG_ZERO] = LOG_ZERO
        return lw

    def log_wedge_all(self) -> np.ndarray:
        """(m, dim) array of log wedge norms for every order."""
        return np.column_stack([self.log_wedge(j) for j in self.orders])


def log_wedge_total_from_rows(log_wedges: np.ndarray) -> np.ndarray:
    """Vectorized log(1 + sum_j exp(lw_j)) over rows of wedge logs."""
    rows = np.concatenate(
        [np.zeros((log_wedges.shape[0], 1)), log_wedges], axis=1
    )
    m = np.max(rows, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(rows - m), axis=1, keepdims=True)))[:, 0]


def exact_cocycle_wedge(system, x, n: int) -> WedgeProfile:
    """WedgeProfile of Df^n(x) along the orbit of x.

    Maintains one rescaled compound product per exterior order, so all
    singular values of the n-step derivative are recovered in log scale
    exactly up to round-off. Raises OrbitFailureError (with the step index)
    if the orbit hits the singular set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    d = system.space.dim
    acc = WedgeAccumulatorBatch(d, 1)
    cur = pt[None, :]
    for step in range(n):
        if system.hits_singular_set(cur)[0]:
            raise OrbitFailureError(step, point=cur[0].copy())
        dfs = system.differential_batch(cur)
        if not np.all(np.isfinite(dfs)):
            raise OrbitFailureError(step, point=cur[0].copy())
        acc.step(dfs)
        cur = system.eval_batch(cur)
    lw = acc.log_wedge_all()[0]
    log_sv = []
    prev = 0.0
    for j in range(d):
        if lw[j] <= LOG_ZERO:
            log_sv.append(LOG_ZERO)
            prev = LOG_ZERO
        else:
            log_sv.append(lw[j] - prev if prev > LOG_ZERO else LOG_ZERO)
            prev = lw[j]
    # Guard: tiny round-off can break monotonicity of the diffs.
    log_sv.sort(reverse=True)
    return WedgeProfile.from_log_singular_values(log_sv)
