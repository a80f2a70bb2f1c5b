"""Invariant-measure approximation and regularity diagnostics.

Two routes to an approximate Sinai/SRB measure, both giving one weighted
point cloud (EmpiricalMeasure) that every consumer reads as (points,
weights): Birkhoff orbit clouds from Lebesgue-random starts, and the
stationary density of the Ulam transfer-operator discretization on the
grid cell centers. Diagnostics cover singular-set mass scaling, log-norm
integrability, parameter Hölder regularity of log |det Df|, Jacobian
boundedness, and the split of <log |det Df|> at the singular set. One
routine, _weighted_mean, sums every cloud integral, under weights that
_kept_weights renormalizes once per set of kept points. The LS table's
rows, the diagnose integrals and the singular-neighborhood masses take
the mean alone; _masked_mean_se adds the standard error to it for the
estimators' values. The weak* test dictionary is one rule for every
phase space: products of per-coordinate Fourier or Chebyshev modes, whose
moments dictionary_moments gets in one real-arithmetic contraction of
the first half of the coordinates against the second, a block of points
at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import SamplingFailureError, UlamConvergenceError
from .systems import (BLOCK_POINTS, DynamicalSystem, FamilyHandle, PhaseSpace,
                      finite_nonnegative, whole_number)

if TYPE_CHECKING:
    import scipy.sparse as sp

#: largest Ulam grid. The sample points are mapped in chunks, so it bounds
#: what is held whole: the density vector, and a CSR matrix of at most
#: n_cells * samples_per_cell nonzeros (at most one per sample point).
MAX_ULAM_CELLS = 10_000_000


# ---------------------------------------------------------------------------
# Measure containers
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMeasure:
    """Weighted point cloud approximating an invariant measure.

    Both routes give one. A Birkhoff cloud has equal weights and keeps its
    whole sampled orbit, burn-in included; points is a view of its tail.
    An Ulam cloud holds the grid cell centers, weighted by the stationary
    density, and no orbit.
    """

    space: PhaseSpace
    points: np.ndarray      # (n, d)
    weights: np.ndarray     # (n,), non-negative, sums to 1
    provenance: dict = field(default_factory=dict)
    orbit: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape[0] != self.points.shape[0]:
            raise ValueError("weights and points must have equal length")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total})")
        if not self.space.contains(self.points).all():
            raise ValueError("measure has points outside the phase space")


def _kept_weights(weights: np.ndarray, keep=True) -> np.ndarray:
    """The weights renormalized over the kept points (a bool mask; True
    keeps every point), 0 at the dropped ones. SamplingFailureError when
    the kept points carry no weight."""
    w = weights * keep
    total = w.sum()
    if total <= 0.0:
        raise SamplingFailureError("no usable points in the cloud")
    return w / total


def _weighted_mean(values: np.ndarray, w: np.ndarray, keep=None) -> float:
    """Mean of values under the normalized weights w (from _kept_weights).
    Values where keep is False are ignored, finite or not; keep=None
    means every point is kept, and nothing is masked.

    The one place a single cloud integral is summed (dictionary_moments
    contracts its many at once). The sum is a numpy reduction, never a
    BLAS product: a threaded BLAS splits a long dot into per-thread
    partial sums, so its last bits would depend on the host's thread
    count.
    """
    if keep is not None:
        values = np.where(keep, values, 0.0)
    return float(np.sum(w * values))


def _masked_mean_se(values: np.ndarray, weights: np.ndarray, keep: np.ndarray):
    """(mean, std_error) of values under the weights renormalized over the
    kept points; std_error = sqrt(weighted variance / number kept). Values
    at dropped points are ignored, finite or not. The mean is
    _weighted_mean's; the variance is a numpy reduction too.
    """
    w = _kept_weights(weights, keep)
    values = np.where(keep, values, 0.0)
    mean = _weighted_mean(values, w)
    var = float(np.sum(w * (values - mean) ** 2))
    return mean, math.sqrt(max(var, 0.0) / max(int(keep.sum()), 1))


def _cloud_integral(system: DynamicalSystem, measure, integrand):
    """(means, skipped): per row of integrand(points), a (rows, n) array,
    its weighted mean over the cloud points it is given, and the number
    of points left out: those system.unusable flags (integrand never sees
    them) and those where a row is not finite.
    """
    usable = ~system.unusable(measure.points)
    values = integrand(measure.points[usable])
    finite = np.all(np.isfinite(values), axis=0)
    w = _kept_weights(measure.weights[usable], finite)
    means = [_weighted_mean(row, w, finite) for row in values]
    return means, int(usable.size - finite.sum())


@dataclass
class TransferMatrix:
    """Sparse row-stochastic Ulam matrix over grid cells."""

    space: PhaseSpace
    resolution: tuple
    matrix: sp.csr_matrix
    samples_per_cell: int

    def __post_init__(self):
        rows = np.asarray(self.matrix.sum(axis=1)).ravel()
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError("transfer matrix rows must sum to 1")
        if self.matrix.nnz and self.matrix.data.min() < 0.0:
            raise ValueError("transfer matrix entries must be non-negative")


# ---------------------------------------------------------------------------
# Birkhoff sampling
# ---------------------------------------------------------------------------

MAX_RESTARTS = 100


def _sample_orbit(system: DynamicalSystem, seed: int, burn_in: int,
                  length: int):
    """(orbit, restart): burn_in + length points from a Lebesgue-uniform
    random start whose last `length` points are finite and off the
    singular set.

    A rejected orbit is redrawn with an incremented sub-seed (at most
    MAX_RESTARTS times); restart is the sub-seed that was kept.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    for restart in range(MAX_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        x0 = system.space.uniform(rng, 1)[0]
        dither = np.random.default_rng([seed, restart, 0xD17])
        orbit = system.orbit(x0, burn_in + length - 1, dither)
        if not system.unusable(orbit[burn_in:]).any():
            return orbit, restart
    raise SamplingFailureError(
        f"{system.name}: orbit hit the singular set on {MAX_RESTARTS} restarts"
    )


def birkhoff_sample(system: DynamicalSystem, seed: int, burn_in: int,
                    length: int) -> EmpiricalMeasure:
    """Equal-weight orbit cloud from a Lebesgue-uniform random start.

    Orbits that hit the singular set exactly are restarted with an
    incremented sub-seed (at most MAX_RESTARTS times). Deterministic given
    (system, seed, burn_in, length). The measure keeps the whole orbit, so
    benettin_spectrum(..., orbit=measure.orbit) need not draw it again.
    """
    orbit, restart = _sample_orbit(system, seed, burn_in, length)
    return EmpiricalMeasure(
        space=system.space,
        points=orbit[burn_in:],
        weights=np.full(length, 1.0 / length),
        provenance={
            "kind": "birkhoff",
            "seed": int(seed),
            "burn_in": int(burn_in),
            "length": int(length),
            "restarts": restart,
        },
        orbit=orbit,
    )


# ---------------------------------------------------------------------------
# Ulam discretization
# ---------------------------------------------------------------------------


def _lattice_offsets(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n points stratified inside the unit cell.

    A regular midpoint sub-lattice (as close to n points as a d-dim lattice
    allows) plus seeded uniform fill for the remainder. Midpoint strata make
    piecewise-affine dyadic maps split cell images exactly, which random
    strata only achieve to O(1/sqrt(n)).
    """
    k = max(1, int(round(n ** (1.0 / d))))
    while k ** d > n:
        k -= 1
    counts = [k] * d
    # grow axes greedily while the lattice still fits
    for i in range(d):
        trial = counts.copy()
        trial[i] += 1
        if int(np.prod(trial)) <= n:
            counts = trial
    axes = [(np.arange(c) + 0.5) / c for c in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.column_stack([m.ravel() for m in mesh])
    rem = n - lattice.shape[0]
    if rem > 0:
        lattice = np.vstack([lattice, rng.random((rem, d))])
    return lattice


def _check_finite_images(system: DynamicalSystem, images: np.ndarray, start: int,
                         s: int, res: np.ndarray) -> None:
    """SamplingFailureError naming the first Ulam cell, of a chunk that
    begins at cell `start`, with a sample point whose image is not finite."""
    bad = ~np.isfinite(images).all(axis=1)
    if bad.any():
        cell = start + int(np.argmax(bad)) // s
        raise SamplingFailureError(
            f"{system.name}: a sample point of Ulam cell {cell} "
            f"{tuple(int(i) for i in np.unravel_index(cell, tuple(res)))} "
            "has a non-finite image")


def ulam_matrix(system: DynamicalSystem, resolution, samples_per_cell: int,
                seed: int) -> TransferMatrix:
    """Row-stochastic Ulam matrix: row i is the empirical image-cell
    distribution of stratified sample points in cell i.

    The sample points are mapped in chunks of whole cells. Within a chunk
    the grid and the image-cell index are built one coordinate at a time,
    and each cell's entries are counted as the runs of its sorted image
    columns, so the chunks give their entries in (row, column) order.
    A finite image outside the grid counts toward the nearest edge cell; a
    non-finite one raises SamplingFailureError naming its cell. Sample
    counts and resolution entries must be whole numbers, >= 1 and >= 2.
    """
    import scipy.sparse as sp

    d = system.space.dim
    s = whole_number(samples_per_cell, "samples_per_cell")
    if s < 1:
        raise ValueError(f"samples_per_cell must be >= 1, got {samples_per_cell!r}")
    res = np.array([whole_number(r, "resolution") for r in np.atleast_1d(resolution)])
    if res.shape[0] == 1 and d > 1:
        res = np.full(d, res[0])
    if res.shape[0] != d:
        raise ValueError(f"resolution must have {d} entries")
    if np.any(res < 2):
        raise ValueError("resolution must be >= 2 per dimension")
    n_cells = int(np.prod(res))
    if n_cells > MAX_ULAM_CELLS:
        raise MemoryError(f"{n_cells} cells exceed the {MAX_ULAM_CELLS} guard")
    widths = system.space.widths()
    if np.any(widths <= 0.0):
        raise ValueError("phase-space cell volume is zero")
    lo = np.asarray(system.space.lo)
    cell_w = widths / res

    rng = np.random.default_rng([seed, 0x0E11])
    # (s, d) sample offsets inside a cell, in phase-space units
    offsets = _lattice_offsets(s, d, rng) * cell_w

    chunk = max(1, BLOCK_POINTS // s)
    # the image-cell index and one coordinate's cell, for a whole chunk
    index_buf, coord_buf = np.empty(chunk * s), np.empty(chunk * s)
    rows, cols, counts = [], [], []
    for start in range(0, n_cells, chunk):
        idx = np.arange(start, min(start + chunk, n_cells))
        # (cells, s, d) sample points, cell-major
        pts = np.empty((idx.shape[0], s, d))
        for k, coord in enumerate(np.unravel_index(idx, tuple(res))):
            corner = lo[k] + coord * cell_w[k]
            np.add(corner[:, None], offsets[:, k], out=pts[:, :, k])
        images = system.eval_batch(pts.reshape(-1, d))
        # C-order image cell index by Horner's rule in float, exact below
        # MAX_ULAM_CELLS < 2^31 < 2^53; each coordinate's cell is clipped
        # into the grid only when an image lies outside it. The int32
        # columns halve the sort's work
        col = index_buf[:images.shape[0]]
        for k in range(d):
            c = col if k == 0 else coord_buf[:images.shape[0]]
            np.subtract(images[:, k], lo[k], out=c)
            np.divide(c, cell_w[k], out=c)
            np.floor(c, out=c)
            if not (c.min() >= 0.0 and c.max() <= res[k] - 1):
                _check_finite_images(system, images, start, s, res)
                np.clip(c, 0, res[k] - 1, out=c)
            if k:
                col *= res[k]
                col += c
        # a cell's entries are the runs of its sorted columns
        col = col.astype(np.int32).reshape(-1, s)
        col.sort(axis=1)
        col = col.ravel()
        run = np.empty(col.shape[0], dtype=bool)
        np.not_equal(col[1:], col[:-1], out=run[1:])
        run[::s] = True
        starts = np.flatnonzero(run)
        rows.append(start + starts // s)
        cols.append(col[starts])
        counts.append(np.diff(starts, append=col.shape[0]))
    data = np.concatenate(counts) / s
    mat = sp.coo_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n_cells, n_cells)).tocsr()
    # kill accumulated float drift so rows sum to 1 exactly
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    mat = sp.diags(1.0 / row_sums) @ mat
    return TransferMatrix(
        space=system.space,
        resolution=tuple(int(r) for r in res),
        matrix=mat.tocsr(),
        samples_per_cell=s,
    )


def ulam_stationary(transfer: TransferMatrix, tol: float = 1e-12,
                    max_iters: int = 20_000) -> EmpiricalMeasure:
    """Stationary density of the Ulam matrix by left power iteration from
    the uniform vector, as weights on the cell centers (C order); raises
    UlamConvergenceError on non-convergence."""
    p_t = transfer.matrix.T.tocsr()
    n = p_t.shape[0]
    v = np.full(n, 1.0 / n)
    residual = math.inf
    for it in range(max_iters):
        v_next = p_t.dot(v)
        residual = float(np.abs(v_next - v).sum())
        v = v_next
        if residual < tol:
            break
    else:
        raise UlamConvergenceError(residual=residual, iterations=max_iters)
    space = transfer.space
    axes = [np.asarray(space.lo)[i] + (np.arange(r) + 0.5) * (space.widths()[i] / r)
            for i, r in enumerate(transfer.resolution)]
    centers = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    v = np.maximum(v, 0.0)
    return EmpiricalMeasure(space, centers, v / v.sum(),
                            {"kind": "ulam", "resolution": transfer.resolution,
                             "iterations": it + 1, "residual": residual, "tol": tol})


# ---------------------------------------------------------------------------
# Weak* distance via a finite test dictionary
# ---------------------------------------------------------------------------


def _modes(x: np.ndarray, js: np.ndarray, periodic: bool) -> np.ndarray:
    """One coordinate's modes at x: (2, len(js), points) real and imaginary
    parts of e^(2 pi i j x) if periodic, else (1, len(js), points) T_j
    (js = 0..cutoff), which are real."""
    if periodic:
        phases = 2.0 * math.pi * np.multiply.outer(js, x)
        return np.stack([np.cos(phases), np.sin(phases, out=phases)])
    out = np.empty((1, len(js), x.shape[0]))
    out[0, 0], out[0, 1] = 1.0, x
    for j in js[2:]:
        out[0, j] = 2.0 * x * out[0, j - 1] - out[0, j - 2]
    return out


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every row of a times every row of b, a's rows major: as complex
    numbers when both have an imaginary part (a leading axis of 2), else
    each part of one times the other's real part."""
    if len(a) == 1 or len(b) == 1:
        return (a[:, :, None] * b[:, None]).reshape(max(len(a), len(b)), -1, a.shape[2])
    out = np.empty((2, a.shape[1], b.shape[1], a.shape[2]))
    np.multiply(a[0][:, None], b[0], out=out[0])
    out[0] -= a[1][:, None] * b[1]
    np.multiply(a[0][:, None], b[1], out=out[1])
    out[1] += a[1][:, None] * b[0]
    return out.reshape(2, -1, a.shape[2])


def _block_gram(space: PhaseSpace, x: np.ndarray, w: np.ndarray, ranges) -> np.ndarray:
    """One point block's sums of w times each first-half mode product times
    each second-half one: (2, 2, first, second), real and imaginary parts,
    the latter 0 for a half without a periodic coordinate."""
    u = np.where(space.periodic, x, 2.0 * (x - space.lo) / space.widths() - 1.0)
    modes = list(map(_modes, u.T, ranges, space.periodic))
    h = len(modes) // 2
    head = reduce(_times, modes[:h], w[None, None])
    tail = reduce(_times, modes[h:])
    gram = np.zeros((2, 2, head.shape[1], tail.shape[1]))
    gram[:len(head), :len(tail)] = np.einsum("cap,dbp->cdab", head, tail)
    return gram


def dictionary_moments(measure, cutoff: int) -> np.ndarray:
    """Integrals of the test dictionary against the measure, every point
    counted; ValueError unless cutoff is an integer >= 1.

    The dictionary is the products of one mode per coordinate (_modes) over
    the multi-indices with |j| <= cutoff whose first nonzero entry is
    positive, in lexicographic order: their real parts, then the imaginary
    parts of those with a nonzero periodic entry. Torus: every cos(2 pi k.x),
    then every sin(2 pi k.x). Interval: T_1..T_cutoff. Cylinder: the T_j,
    then the cos(2 pi k x) T_j, then the sin(2 pi k x) T_j. Each moment is
    an entry of one contraction of the first half's mode products against
    the second half's, summed over contiguous point blocks in order, with
    about BLOCK_POINTS values per array. numpy element-wise ops and
    np.einsum do the real arithmetic: no BLAS, so no thread count moves a
    bit.
    """
    if not isinstance(cutoff, numbers.Integral) or cutoff < 1:
        raise ValueError(f"cutoff must be an integer >= 1 (got {cutoff!r})")
    space, pts, w = measure.space, measure.points, _kept_weights(measure.weights)
    h, periodic = space.dim // 2, np.array(space.periodic)
    # the dictionary has no index of negative first entry: skip its modes
    ranges = [np.arange(-cutoff if p and k else 0, cutoff + 1)
              for k, p in enumerate(periodic)]
    halves = [math.prod(map(len, ranges[:h])), math.prod(map(len, ranges[h:]))]
    step = max(1, BLOCK_POINTS // (2 * max(halves)))
    gram = sum(_block_gram(space, pts[i:i + step], w[i:i + step], ranges)
               for i in range(0, w.shape[0], step))
    (rr, ri), (ir, ii) = gram
    index = list(product(*ranges))
    real = np.array([k > (0,) * space.dim for k in index])  # lexicographically
    imag = real & np.any(np.array(index)[:, periodic] != 0, axis=1)
    return np.concatenate([(rr - ii).ravel()[real], (ri + ir).ravel()[imag]])


def moment_gap(m1: np.ndarray, m2: np.ndarray) -> float:
    """Largest absolute gap between two dictionary-moment vectors."""
    return float(np.max(np.abs(m1 - m2)))


def weak_star_distance(mu, nu, mode_cutoff: int = 4) -> float:
    """Max dictionary-moment gap; a computable weak* proxy metric."""
    if mu.space != nu.space:
        raise ValueError("measures live on different phase spaces")
    return moment_gap(dictionary_moments(mu, mode_cutoff),
                      dictionary_moments(nu, mode_cutoff))


# ---------------------------------------------------------------------------
# Singular-set and Jacobian diagnostics
# ---------------------------------------------------------------------------


def ls1_fit(system: DynamicalSystem, measure, eps_grid) -> dict:
    """Power-law fit of the singular-set neighborhood mass.

    Measures mu(B_eps(S)) on eps_grid and fits log mass against log eps by
    least squares. Returns C (exp intercept), beta (slope), and the RMS fit
    residual; if every eps has zero mass the condition holds vacuously and
    beta is reported as +inf.
    """
    if not system.singular_set:
        raise ValueError("system has an empty singular set")
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))
    if np.any(eps_grid <= 0.0):
        raise ValueError("eps values must be positive")
    dist = system.singular_distance(measure.points)
    w = _kept_weights(measure.weights)
    masses = np.array([_weighted_mean(dist < e, w) for e in eps_grid])
    positive = masses > 0.0
    if not np.any(positive):
        return {"C": 0.0, "beta": math.inf, "residual": 0.0,
                "eps": eps_grid.tolist(), "mass": masses.tolist()}
    x = np.log(eps_grid[positive])
    y = np.log(masses[positive])
    if x.shape[0] == 1:
        beta, intercept = 0.0, y[0]
        residual = 0.0
    else:
        beta, intercept = np.polyfit(x, y, 1)
        residual = float(np.sqrt(np.mean((np.polyval([beta, intercept], x) - y) ** 2)))
    return {"C": float(np.exp(intercept)), "beta": float(beta),
            "residual": residual, "eps": eps_grid.tolist(),
            "mass": masses.tolist()}


def ls2_integral(system: DynamicalSystem, measure) -> dict:
    """Weighted log+ norms of Df (and of Df^-1 when invertible).

    Both norms come from one batched SVD, which keeps sigma_min accurate
    where the Gram matrix Df^T Df would lose it. skipped counts the points
    _cloud_integral leaves out, a non-finite Df included.
    """
    def log_norms(pts):
        dfs = system.differential_batch(pts).transpose(2, 0, 1)
        finite = np.all(np.isfinite(dfs), axis=(1, 2))
        sv = np.full(dfs.shape[:2], np.nan)
        sv[finite] = np.linalg.svd(dfs[finite], compute_uv=False)
        with np.errstate(divide="ignore"):
            norms = [np.log(sv[:, 0])]
            if system.invertible:
                norms.append(np.log(1.0 / sv[:, -1]))
        return np.maximum(norms, 0.0)

    means, skipped = _cloud_integral(system, measure, log_norms)
    return {"forward": means[0], "backward": means[1] if system.invertible else None,
            "skipped": skipped}


def holder_parameter_check(family: FamilyHandle, t_grid, sample_points) -> dict:
    """Hölder regularity of t -> log |det Df_t(x)| over sample points.

    The exponent beta is the least-squares slope of the log max-difference
    against log |t - s| over parameter pairs; the constant c is then the
    smallest envelope making the bound hold on those same pairs, so the
    check describes the sample and cannot fail on it. A family whose
    Jacobian does not depend on t returns c = 0, beta = +inf. A sample
    point that DynamicalSystem.unusable flags at some t raises ValueError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.shape[0] < 2:
        raise ValueError("need at least two parameter values")
    systems = [family.build(t) for t in t_grid]
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if any(sys_t.unusable(pts).any() for sys_t in systems):
        raise ValueError("sample point on the singular set or not finite")
    logs = np.array([log_det_batch(sys_t, pts) for sys_t in systems])
    n_t = t_grid.shape[0]
    gaps, diffs = [], []
    for a in range(n_t - 1):
        for b in range(a + 1, n_t):
            gaps.append(abs(t_grid[b] - t_grid[a]))
            diffs.append(float(np.max(np.abs(logs[a] - logs[b]))))
    gaps = np.array(gaps)
    diffs = np.array(diffs)
    positive = diffs > 0.0
    if not np.any(positive):
        return {"c": 0.0, "beta": math.inf}
    x = np.log(gaps[positive])
    y = np.log(diffs[positive])
    beta = float(np.polyfit(x, y, 1)[0]) if x.shape[0] > 1 else 1.0
    bound = gaps ** beta
    c = float(np.max(diffs / np.maximum(bound, 1e-300)))
    return {"c": c, "beta": beta}


def log_det_batch(system: DynamicalSystem, pts: np.ndarray) -> np.ndarray:
    dfs = system.differential_batch(pts)
    if dfs.shape[0] == 1:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(dfs[0, 0]))
    sign, logdet = np.linalg.slogdet(dfs.transpose(2, 0, 1))
    return np.where(sign == 0.0, -np.inf, logdet)


def bounded_jacobian_check(system: DynamicalSystem, measure, bound: float) -> dict:
    """|integral of log |det Df|| compared against an a-priori bound;
    ValueError unless the bound is finite and >= 0."""
    finite_nonnegative(bound, "bound")
    (mean,), skipped = _cloud_integral(
        system, measure, lambda pts: log_det_batch(system, pts)[None])
    value = abs(mean)
    return {"value": value, "bound": float(bound), "passed": value <= bound,
            "skipped": skipped}


def split_log_det_integral(system: DynamicalSystem, measure, delta: float) -> dict:
    """Split <log |det Df|>_mu at the delta-neighborhood of the singular set.

    The points _cloud_integral leaves out are skipped (reweighted) as in
    the other cloud integrals, and SamplingFailureError is raised when
    none is usable; delta = 0 gives an empty inside part. ValueError
    unless delta is finite and >= 0.
    """
    finite_nonnegative(delta, "delta")

    def parts(pts):
        logdet = log_det_batch(system, pts)
        inside = system.singular_distance(pts) < delta
        return np.array([np.where(inside, logdet, 0.0),
                         np.where(inside, 0.0, logdet), inside])

    (inside, outside, mass), skipped = _cloud_integral(system, measure, parts)
    return {"delta": float(delta), "inside": inside, "outside": outside,
            "inside_mass": mass, "skipped": skipped}
