"""Small dense linear algebra for derivative cocycles.

Everything here works on real square matrices of dimension 1..8: singular
values, exterior-power (wedge) norms carried in log scale, and the one QR
step of the package, _qr_step: a modified Gram-Schmidt kernel on frames
pushed one step (Benettin blocks, Jacobian-F and both bundle legs).

All of it runs batch-last: a stack of m matrices is an (r, c, m)
array, so each entry is one contiguous vector over the batch. One-step
derivatives (d, d, m) and frames (d, k, m) come in so and are used as
given. compounds builds each order from flat index tables with one
contiguous take per factor of each Laplace term, WedgeAccumulatorBatch
multiplies and rescales its products in that layout, top_singular_values
reads them in place, and log_wedge_all returns (k, m).

A wedge norm is the top singular value of a compound product P. It comes
from top_singular_values: a power iteration on the Gram matrices P^T P,
warm-started from the vector the previous step found (P grows by one
factor per step, so that vector settles). Each point is accepted
only under a Kato-Temple certificate that bounds the relative error of
sigma_1^2 by 2e-14 and proves it is the top eigenvalue; the few points
that fail it (a repeated top singular value, a slow start) go to one
batched eigvalsh.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

#: log-scale stand-in for log(0); kept finite so sums and comparisons work.
LOG_ZERO = -1.0e308

#: power steps top_singular_values takes before it hands a point to eigvalsh
POWER_STEPS = 6
#: relative accuracy its certificate demands of the top eigenvalue of P^T P
#: (the bound it proves is twice this)
POWER_TOL = 1e-14


def top_singular_values(mats: np.ndarray, start=None) -> tuple:
    """(sigma_1, v) for each matrix P of an (r, c, m) stack, r >= c.

    Power iteration on G = P^T P, batch-last (c, c, m), from the unit
    vectors start (c, m), or from e_argmax(diag G) when start is None. A
    point is accepted with sigma_1^2 = rho = v^T G v once g > 0 and
    eps^2 <= POWER_TOL * rho * g, where eps = ||Gv - rho v|| and
    g = 2 rho - tr G is a lower bound on rho - lambda_2. That certifies
    rho <= lambda_1 <= (1 + 2 POWER_TOL) rho. If eps^2 <= g^2 / 2, the
    Kato-Temple bound lambda_1 - rho <= eps^2 / (g (1 - eps^2 / g^2)) gives
    it. Otherwise g < sqrt(2) eps, so eps < sqrt(2) POWER_TOL rho; some
    eigenvalue lies within eps of rho, and whether it is lambda_1 or a
    lower one (then lambda_1 <= tr G - it), lambda_1 <= rho + eps.

    A point whose residual has settled while g <= 0 (a repeated top
    singular value), or that is still uncertified after POWER_STEPS steps,
    gets eigvalsh instead. v holds the last iterate per point, the warm
    start for the next call. A stack of 1x1 matrices needs only the
    absolute value and returns v = None.
    """
    r, c, m = mats.shape
    if r == 1:
        return np.abs(mats[0, 0]), None
    gram = np.einsum("iam,ibm->abm", mats, mats)
    trace = np.einsum("aam->m", gram)
    if start is None:
        v = np.eye(c)[:, np.argmax(np.einsum("aam->am", gram), axis=0)]
    else:
        v = np.array(start, dtype=float)
    sigma = np.empty(m)
    todo = np.arange(m)
    vt = v
    solve, solve_grams = [], []
    for step in range(POWER_STEPS):
        if step:
            vt = w / np.sqrt((w * w).sum(axis=0))
            v[:, todo] = vt
        w = np.einsum("abm,bm->am", gram, vt)
        rho = (vt * w).sum(axis=0)
        res = w - rho * vt
        eps2 = (res * res).sum(axis=0)
        gap = 2.0 * rho - trace
        done = (gap > 0.0) & (eps2 <= POWER_TOL * rho * gap)
        stuck = (gap <= 0.0) & (eps2 <= POWER_TOL * rho * rho)
        sigma[todo[done]] = np.sqrt(rho[done])
        if stuck.any():
            solve.append(todo[stuck])
            solve_grams.append(gram[:, :, stuck])
        more = ~(done | stuck)
        todo = todo[more]
        if todo.size == 0:
            break
        w, gram, trace = w[:, more], gram[:, :, more], trace[more]
    if todo.size:
        solve.append(todo)
        solve_grams.append(gram)
    if solve:
        grams = np.concatenate(solve_grams, axis=2).transpose(2, 0, 1)
        top = np.linalg.eigvalsh(grams)[:, -1]
        sigma[np.concatenate(solve)] = np.sqrt(np.maximum(top, 0.0))
    return sigma, v


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


def _qr_step(dfs: np.ndarray, q: np.ndarray):
    """One discrete QR step, _gram_schmidt(Df q), of frames q (d, k, m)
    under one-step derivatives dfs (d, d, m): one einsum, no BLAS, on the
    stack as given. Returns (q, log_r) as _gram_schmidt."""
    return _gram_schmidt(np.einsum("ikm,kjm->ijm", dfs, q))


def _random_frames(rng: np.random.Generator, m: int, d: int, k: int) -> np.ndarray:
    """m random orthonormal (d, k) frames, batch-last (d, k, m)."""
    return _gram_schmidt(rng.standard_normal((m, d, k)).transpose(1, 2, 0))[0]


# ---------------------------------------------------------------------------
# Exterior-power (compound matrix) machinery.
#
# The j-th compound of the one-step derivative is multiplied up along the
# orbit, with a per-step max-abs rescaling whose log is tracked separately.
# Multiplying compounds of the well-conditioned one-step matrices keeps
# every wedge norm accurate; forming sigma_j from the accumulated full
# product instead loses all singular values below eps * sigma_1 to
# round-off once the product is strongly graded. The same holds for a
# product restricted to a frame, Df^n F: the round-off happens when Df^n F
# is formed, before any singular value solver sees it.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _laplace_tables(r: int, c: int, j: int) -> tuple:
    """Flat index tables that expand order-j minors of an (r, c) matrix
    along the first row of each row subset.

    Subsets are in lexicographic order. For row subset I = rows[a] and
    column subset J = cols[b], det A[I, J] = sum_t (-1)^t A[lead[a], pick[b, t]]
    * minor(rest[a], drop[b, t]), where rest and drop index the order-(j-1)
    subsets I without its first row and J without its t-th column. Term t
    reads its two factors at firsts[t] = lead * c + pick[:, t] in the
    matrix and minors[t] = rest * C(c, j-1) + drop[:, t] in the order-(j-1)
    compound, both flattened over (row, column); each table is (C(r, j),
    C(c, j)).
    """
    prev_rows = {s: i for i, s in enumerate(combinations(range(r), j - 1))}
    prev_cols = {s: i for i, s in enumerate(combinations(range(c), j - 1))}
    rows = list(combinations(range(r), j))
    cols = list(combinations(range(c), j))
    lead = np.array([s[0] for s in rows])[:, None]
    rest = np.array([prev_rows[s[1:]] for s in rows])[:, None]
    pick = np.array(cols)
    drop = np.array([[prev_cols[s[:t] + s[t + 1:]] for t in range(j)] for s in cols])
    firsts = tuple(lead * c + pick[:, t] for t in range(j))
    minors = tuple(rest * len(prev_cols) + drop[:, t] for t in range(j))
    return firsts, minors


def compounds(mats: np.ndarray) -> list:
    """Every exterior power of an (r, c, m) stack, orders 1..min(r, c).

    Entry (I, J, p) of the order-j compound is the minor det(A_p[I, J])
    over the lexicographically ordered row and column j-subsets. Each
    order is built from the one before by Laplace expansion, batch-last:
    the factors of each term are one contiguous take of whole batch
    vectors from the flattened matrix and the flattened order j - 1.
    """
    r, c, m = mats.shape
    flat = mats.reshape(r * c, m)
    out = [mats]
    for j in range(2, min(r, c) + 1):
        firsts, minors = _laplace_tables(r, c, j)
        prev = out[-1].reshape(-1, m)
        cj = flat.take(firsts[0], axis=0) * prev.take(minors[0], axis=0)
        for t in range(1, j):
            term = flat.take(firsts[t], axis=0) * prev.take(minors[t], axis=0)
            if t % 2:
                cj -= term
            else:
                cj += term
        out.append(cj)
    return out


class WedgeAccumulatorBatch:
    """Running exterior-power products Df^n(x) F for a batch of base points.

    F is a (d, k, m) stack of frames the products start from: the
    identity for full wedge norms, an orthonormal frame for a product
    restricted to a subspace. For each order j = 1..k, keeps the rescaled
    compound product and the log of the accumulated scale, so
    log ||(Df^n F)^(wedge j)|| is available at any step without overflow
    and with full round-off accuracy. Each order also keeps the top right
    singular vector its last log_wedge found, the warm start of the next.
    The products are batch-last, (C(d, j), C(k, j), m); F and the steps'
    stacks are read in place and never written (order 1 starts as F).
    """

    def __init__(self, frames: np.ndarray):
        self.dim, k, m = frames.shape
        self.orders = tuple(range(1, k + 1))
        self._mats = compounds(frames)
        self._logs = [np.zeros(m) for _ in self.orders]
        self._starts = [None] * k

    def step(self, dfs: np.ndarray) -> None:
        """Multiply the compounds of a (d, d, m) stack onto the products.

        A 1x1 order (every order at d = 1, the top order of a square
        frame) multiplies element-wise and its scale is the absolute
        value. While no product of an order has scale 0, the step divides
        by the scale and adds its log with no dead-point masks and no
        LOG_ZERO clamp: each log is above -745, so no sum falls below
        LOG_ZERO. A zero product keeps scale 1 and logs LOG_ZERO, clamped.
        """
        for i, cj in enumerate(compounds(dfs)[:len(self.orders)]):
            if cj.shape[0] == 1:  # j = d, so the frame is square too
                prod = cj * self._mats[i]
                scale = np.abs(prod[0, 0])
            else:
                prod = np.einsum("akm,kbm->abm", cj, self._mats[i])
                scale = np.abs(prod).max(axis=(0, 1))
            if scale.all():
                prod /= scale
                self._logs[i] += np.log(scale, out=scale)
            else:
                dead = scale == 0.0
                safe = np.where(dead, 1.0, scale)
                prod /= safe
                with np.errstate(divide="ignore", over="ignore"):
                    self._logs[i] += np.where(dead, LOG_ZERO, np.log(safe))
                self._logs[i][self._logs[i] < LOG_ZERO] = LOG_ZERO
            self._mats[i] = prod

    def log_wedge(self, j: int) -> np.ndarray:
        """log ||P^(wedge j)|| per point for the current product P.

        When every top singular value is >= 1e-320 its log is taken
        directly: each is above -737, so no sum falls below LOG_ZERO.
        """
        top, self._starts[j - 1] = top_singular_values(self._mats[j - 1],
                                                       self._starts[j - 1])
        if np.all(top >= 1e-320):  # top is a new array: log in place
            lw = np.log(top, out=top)
            lw += self._logs[j - 1]
            return lw
        with np.errstate(divide="ignore", over="ignore"):  # LOG_ZERO twice is -inf
            lw = np.where(top > 0.0, np.log(np.maximum(top, 1e-320)), LOG_ZERO)
            lw = lw + self._logs[j - 1]
        lw[lw < LOG_ZERO] = LOG_ZERO
        return lw

    def log_wedge_all(self) -> np.ndarray:
        """(k, m) array of log wedge norms: one row per order."""
        return np.array([self.log_wedge(j) for j in self.orders])


def log_singular_values_from_wedges(log_wedges: np.ndarray) -> np.ndarray:
    """Log singular values from a (k, m) array of log wedge norms.

    log sigma_j = log ||wedge_j|| - log ||wedge_(j-1)||, so row j-1 is the
    j-th largest up to round-off; a LOG_ZERO wedge makes its own value and
    the next one LOG_ZERO.
    """
    prev = np.concatenate([np.zeros((1, log_wedges.shape[1])), log_wedges[:-1]])
    alive = (log_wedges > LOG_ZERO) & (prev > LOG_ZERO)
    return np.where(alive, log_wedges - np.where(alive, prev, 0.0), LOG_ZERO)


def log_wedge_total_from_rows(log_wedges: np.ndarray) -> np.ndarray:
    """Vectorized log(1 + sum_j exp(lw_j)) per point of a (k, m) array of
    wedge logs, one row per order: top + log(exp(-top) + sum_j
    exp(lw_j - top)) with top = max(0, max_j lw_j). Past top, it works in
    two buffers the length of a row: every exp and the log run in place.
    """
    top = log_wedges.max(axis=0, initial=0.0)
    total = np.negative(top)
    np.exp(total, out=total)
    term = np.empty_like(total)
    for row in log_wedges:
        np.subtract(row, top, out=term)
        total += np.exp(term, out=term)
    np.log(total, out=total)
    total += top
    return total

