"""Lyapunov spectra, invariant subbundles and domination.

The spectrum comes from the discrete QR (Benettin) scheme run along a
Birkhoff orbit, cut into contiguous time blocks whose frames advance
together: one matrixcore._qr_step per map step, on the blocks' slice of a
differential_batch call that covers a run of steps. Each block's frame
first warms up over the WARM orbit steps before it. The per-step logs are
put back in time order, so the batch means read them as one sequential
run. For d = 1 the spectrum is the closed-form orbit average of log |f'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError, SamplingFailureError, UnsupportedSystemError
from .matrixcore import (
    LOG_ZERO,
    WedgeAccumulatorBatch,
    _qr_step,
    _random_frames,
    log_singular_values_from_wedges,
)
from . import measures
from .systems import DynamicalSystem, _cloud_walk


@dataclass
class LyapunovSpectrum:
    """Sorted (descending) exponents in nats per iteration."""

    exponents: np.ndarray
    n_steps: int
    std_error: np.ndarray

    def __post_init__(self):
        self.exponents = np.asarray(self.exponents, dtype=float)
        self.std_error = np.asarray(self.std_error, dtype=float)
        if not (np.isfinite(self.exponents).all() and np.isfinite(self.std_error).all()):
            raise NonFiniteError(f"spectrum {self.exponents.tolist()} (se "
                                 f"{self.std_error.tolist()}) is not finite")

    def to_json_dict(self) -> dict:
        return {
            "exponents": self.exponents.tolist(),
            "std_error": self.std_error.tolist(),
            "n_steps": int(self.n_steps),
        }


# ---------------------------------------------------------------------------
# Benettin QR over time blocks in lockstep
# ---------------------------------------------------------------------------

#: orbit steps over which a time block's frame relaxes before its first
#: logged step
WARM = 200
#: most time blocks advanced together; a block is never shorter than WARM
MAX_BLOCKS = 1000


def _lockstep_logs(system: DynamicalSystem, orbit: np.ndarray, burn_in: int) -> np.ndarray:
    """Per-step log diag(R) of the QR scheme along orbit[burn_in:], (d, n_steps).

    The live steps are cut into contiguous time blocks (the first
    n_steps % n_blocks one step longer) that advance together: one
    _qr_step per map step. Each block's frame starts at the identity WARM
    steps before the block, or at step 0 if later, and is not logged until
    the block begins: by then it has forgotten its start, since the QR
    frame converges exponentially fast onto the Oseledets flag when
    exponents separate. The derivatives come from one differential_batch
    call per run of consecutive steps, at all their blocks' points: about
    measures.BLOCK_POINTS values, BLOCK_POINTS // (d^2 x live blocks)
    steps, and each step reads its slice of that stack. A point's
    derivative has the same bits in any batch, so the run length does not
    change the logs.
    """
    n_steps, d = orbit.shape[0] - burn_in, orbit.shape[1]
    n_blocks = max(1, min(MAX_BLOCKS, n_steps // WARM))
    length, extra = divmod(n_steps, n_blocks)
    blocks = np.arange(n_blocks)
    starts = burn_in + blocks * length + np.minimum(blocks, extra)
    q = np.broadcast_to(np.eye(d)[:, :, None], (d, d, n_blocks)).copy()
    logs = np.empty((d, n_steps))
    t, stop = -min(WARM, int(starts[-1])), length + (extra > 0)
    while t < stop:
        # the live blocks change only where block 0 starts and at `length`
        first = 0 if starts[0] + t >= 0 else 1
        live = slice(first, n_blocks if t < length else extra)
        end = -int(starts[0]) if first else (length if t < length else stop)
        n_live = live.stop - first
        upto = min(end, t + max(1, measures.BLOCK_POINTS // (d * d * n_live)))
        idx = starts[live] + np.arange(t, upto)[:, None]
        dfs = system.differential_batch(orbit[idx.ravel()])
        for j in range(upto - t):
            q[:, :, live], step_logs = _qr_step(dfs[:, :, j * n_live:(j + 1) * n_live],
                                                q[:, :, live])
            if t + j >= 0:
                logs[:, idx[j] - burn_in] = step_logs
        t = upto
    return logs


def check_spectrum_length(n_steps: int, d: int, blocks: int = 20) -> None:
    """ValueError unless n_steps >= max(10 d, blocks); it needs no orbit."""
    if n_steps < max(10 * d, blocks):
        raise ValueError(f"n_steps = {n_steps} must be >= {max(10 * d, blocks)} "
                         f"(10 per dimension, one per error block)")


def benettin_spectrum(system: DynamicalSystem, seed: int, burn_in: int,
                      n_steps: int, blocks: int = 20,
                      orbit: Optional[np.ndarray] = None) -> LyapunovSpectrum:
    """QR-cocycle Lyapunov spectrum along a Birkhoff orbit.

    The orbit is the one birkhoff_sample draws for (seed, burn_in,
    n_steps); a caller that holds that cloud passes orbit=measure.orbit
    instead of having it drawn again; no derivative stack the length of the
    orbit is built. Standard errors are the batch standard errors over
    `blocks` (at least 2) contiguous orbit segments, and n_steps must pass
    check_spectrum_length. Exponents are sorted descending, stable ties.
    """
    d = system.space.dim
    if blocks < 2:
        raise ValueError(f"blocks = {blocks} must be >= 2")
    check_spectrum_length(n_steps, d, blocks)
    if orbit is None:
        orbit, _ = measures._sample_orbit(system, seed, burn_in, n_steps)
    elif orbit.shape[0] != burn_in + n_steps:
        raise ValueError(f"orbit has {orbit.shape[0]} points, "
                         f"expected burn_in + n_steps = {burn_in + n_steps}")
    if d == 1:
        logs = system.differential_batch(orbit[burn_in:])[0]
        np.abs(logs, out=logs)
        step = int(np.argmin(logs))  # the first zero (or NaN), if any
        if not logs[0, step] > 0.0:
            _raise_singular(system, burn_in + step)
        np.log(logs, out=logs)
    else:
        logs = _lockstep_logs(system, orbit, burn_in)
        if not logs.min() > LOG_ZERO:  # _qr_step logs a killed direction as LOG_ZERO
            step = int(np.argmin((logs > LOG_ZERO).all(axis=0)))
            _raise_singular(system, burn_in + step)
    # an orbit drawn here has no other reference: free it before the batch
    # statistics, so that their first-call costs do not add to the peak
    # that holds both the orbit and the logs
    del orbit
    return _spectrum_from_logs(logs, n_steps, blocks)


def _raise_singular(system: DynamicalSystem, step: int):
    """SamplingFailureError naming the orbit step whose derivative is
    singular: its log diag(R) holds a log 0."""
    raise SamplingFailureError(f"{system.name}: the derivative is singular at "
                               f"orbit step {step}")


def _spectrum_from_logs(logs: np.ndarray, n_steps: int, blocks: int) -> LyapunovSpectrum:
    """Exponents and batch standard errors from one log column per step."""
    exponents = logs.sum(axis=1) / n_steps
    order = np.argsort(-exponents, kind="stable")
    edges = np.linspace(0, n_steps, blocks + 1).astype(int)
    rates = np.array([logs[:, a:b].sum(axis=1) / (b - a) for a, b in zip(edges, edges[1:])])
    se = rates.std(axis=0, ddof=1) / math.sqrt(blocks)
    return LyapunovSpectrum(exponents=exponents[order], n_steps=n_steps,
                            std_error=se[order])


# ---------------------------------------------------------------------------
# Invariant subbundle estimation
# ---------------------------------------------------------------------------


@dataclass
class SplittingEstimate:
    """Orthonormal E/F frames at a set of base points (E + F spans)."""

    points: np.ndarray        # (m, d)
    e_frames: np.ndarray      # (d, dim_e, m)
    f_frames: np.ndarray      # (d, dim_f, m)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.e_frames = np.asarray(self.e_frames, dtype=float)
        self.f_frames = np.asarray(self.f_frames, dtype=float)

    @property
    def dim_e(self) -> int:
        return self.e_frames.shape[1]

    @property
    def dim_f(self) -> int:
        return self.f_frames.shape[1]


#: steps a random frame is pushed along an orbit before it stands for its
#: Oseledets subspace, in both legs of estimate_bundles_many. It stays
#: fixed, while Jacobian-F sizes its transient from the gap g: the
#: domination report pushes E on for up to 12 more steps, over which the
#: frame error grows like exp(g n), and a gap-sized 10-step leg on cat
#: (e^-19.3) would reach e^(-19.3 + 23.1) > 1 at n = 12
FRAME_TRANSIENT = 60


def _check_splitting(system: DynamicalSystem, dim_f: int) -> None:
    """ValueError unless 1 <= dim_f <= dim; UnsupportedSystemError for
    dim_f < dim on a non-invertible system. It needs no orbit."""
    d = system.space.dim
    if not 1 <= dim_f <= d:
        raise ValueError(f"dim_f must be in [1, {d}]")
    if dim_f < d and not system.invertible:
        raise UnsupportedSystemError(
            f"{system.name}: estimating a splitting with dim E = {d - dim_f} > 0 "
            "requires an invertible system: F of a non-invertible map depends on the past"
        )


def estimate_bundles_many(system: DynamicalSystem, points: np.ndarray,
                          dim_f: int) -> SplittingEstimate:
    """Splitting estimates at the anchors y = f^FRAME_TRANSIENT(x) of
    several starts x at once, by forward iteration only: F at y is a random
    dim_f-frame pushed along x's orbit, stepped with eval_batch (an
    invertible family has no dither and no singular set), and E at y a
    random complementary frame pulled through Df^-1 along the forward walk
    from y, both with _qr_step. At dim_f = dim, the one case non-invertible
    systems support, the starts stay the anchors.
    """
    _check_splitting(system, dim_f)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    rng = np.random.default_rng([0, 0xF])
    if dim_f == d:
        eye = np.repeat(np.eye(d)[:, :, None], m, axis=2)
        return SplittingEstimate(pts, np.empty((d, 0, m)), eye)
    f_frames = _random_frames(rng, m, d, dim_f)
    for _ in range(FRAME_TRANSIENT):
        f_frames = _qr_step(system.differential_batch(pts), f_frames)[0]
        pts = system.eval_batch(pts)
    walk = _cloud_walk(system, pts, [0, 0xE])
    invs = [np.linalg.inv(next(walk)[0].transpose(2, 0, 1)) for _ in range(FRAME_TRANSIENT)]
    e_frames = _random_frames(rng, m, d, d - dim_f)
    for inv in reversed(invs):
        e_frames = _qr_step(inv.transpose(1, 2, 0), e_frames)[0]
    return SplittingEstimate(pts, e_frames, f_frames)


# ---------------------------------------------------------------------------
# Domination reports
# ---------------------------------------------------------------------------


#: "dominated" needs a fitted rho and an RMS log-residual at most these
DOMINATION_RHO = 0.99
DOMINATION_RESIDUAL = 0.1


@dataclass
class DominationReport:
    """Growth-ratio table r_n = ||Df^n|E|| * ||(Df^n|F)^-1|| with a
    log-linear fit r_n ~ C rho^n and a dominated/undetermined verdict."""

    n_grid: tuple
    ratios: np.ndarray        # (m, len(n_grid)) per base point
    C: float
    rho: float
    fit_residual: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "ratios": self.ratios.tolist(),
            "C": self.C,
            "rho": self.rho,
            "fit_residual": self.fit_residual,
            "verdict": self.verdict,
            "rho_threshold": DOMINATION_RHO,
            "residual_threshold": DOMINATION_RESIDUAL,
        }


def domination_report(system: DynamicalSystem, splitting: SplittingEstimate,
                      n_grid) -> DominationReport:
    """Measure the domination ratios of a candidate splitting.

    Ratios are exact restricted norms, read from the wedge products of the
    restricted derivatives: E and F advance off one walk of the anchors,
    sigma_max(Df^n E) is the order-1 wedge and sigma_min(Df^n F) the last
    singular value of F's wedge orders. The fit is pooled least squares of
    log r_n against n; "dominated" requires rho <= DOMINATION_RHO and RMS
    log-residual <= DOMINATION_RESIDUAL. dim E = 0 is vacuously dominated.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if any(n < 1 for n in n_grid) or list(n_grid) != sorted(set(n_grid)):
        raise ValueError("n_grid must be strictly increasing positive ints")
    pts = splitting.points
    d = system.space.dim
    if splitting.e_frames.shape[0] != d or splitting.f_frames.shape[0] != d:
        raise ValueError("splitting frames do not match the system dimension")
    if splitting.dim_e + splitting.dim_f != d:
        raise ValueError("dim E + dim F must equal the phase-space dimension")
    if splitting.dim_e == 0:
        return DominationReport(
            n_grid=n_grid, ratios=np.zeros((pts.shape[0], len(n_grid))),
            C=0.0, rho=0.0, fit_residual=0.0, verdict="dominated",
        )
    acc_e = WedgeAccumulatorBatch(splitting.e_frames)
    acc_f = WedgeAccumulatorBatch(splitting.f_frames)
    log_r = []
    for n, (dfs, _) in zip(range(1, max(n_grid) + 1), _cloud_walk(system, pts, 0xD0)):
        acc_e.step(dfs)
        acc_f.step(dfs)
        # read at every n: each order's warm start follows the products
        log_e = acc_e.log_wedge(1)
        log_f = log_singular_values_from_wedges(acc_f.log_wedge_all())[-1]
        if n in n_grid:
            log_r.append(log_e - log_f)
    log_r = np.column_stack(log_r)
    ns = np.tile(np.asarray(n_grid, dtype=float), pts.shape[0])
    ys = log_r.ravel()
    if ys.shape[0] > 1:
        slope, intercept = np.polyfit(ns, ys, 1)
        residual = float(np.sqrt(np.mean((np.polyval([slope, intercept], ns) - ys) ** 2)))
    else:
        slope, intercept, residual = ys[0] / ns[0], 0.0, 0.0
    rho = float(np.exp(slope))
    c = float(np.exp(intercept))
    dominated = rho <= DOMINATION_RHO and residual <= DOMINATION_RESIDUAL
    verdict = "dominated" if dominated else "undetermined"
    return DominationReport(
        n_grid=n_grid, ratios=np.exp(log_r), C=c, rho=rho,
        fit_residual=residual, verdict=verdict,
    )

