"""Metric entropy estimators.

Three routes to the entropy of an approximate Sinai/SRB measure: the
Pesin formula (sum of positive Lyapunov exponents), the
Ledrappier-Strelcyn exterior-power characterization (infimum over n of
averaged log aggregate wedge norms), and the expected log Jacobian along
the expanding subbundle. A cross-validation report compares all three.
They are not three independent checks on every cloud. On a Birkhoff
cloud Jacobian-F reads the orbit Pesin's spectrum reads. At dim_f = d
(mp, viana) the two are one number, <log |det Df|> over the same points,
with two error bars: they differ by 2.2e-16 on mp (alpha = 0.3, seed 5)
and by -7.4e-16 on viana (mean over seeds 0-5), against reported SEs of
1.9e-3 to 8.0e-3. At dim_f < d they read the same log volume a frame
transient apart (skew, K = 0.5, at 60 steps: a gap of -6.4e-6 with a seed
spread of 2.6e-4, a tenth of either SE). There the independent check is
LS against Pesin. An Ulam cloud gives Jacobian-F points that Pesin's
orbit does not see.

run_estimators, the one pipeline behind cross_validate, `sinailab entropy`
and sweep points, decides which spectrum, default dim_f and seed each
estimator gets; the spectrum runs along the measure's orbit when it
keeps one. The LS table and Jacobian-along-F read a measure as its
(points, weights), advance the points through systems._cloud_walk (one
rule for dead points, dither and the failure limit) and average over
them with measures._weighted_mean, the package's one weighted cloud
mean. The LS table takes each row's mean alone, under normalized weights
it forms again only when a point dies, and masks nothing while every
point lives; its standard error and Jacobian-F's (mean, error) come from
measures._masked_mean_se, which takes its mean from the same routine.
A cloud large enough keeps its LS products in contiguous blocks, one
per process, with the same bits as one block. Jacobian-F pushes its
frames batch-last with matrixcore._qr_step, the QR step the Benettin
spectrum runs on. Below full dimension their transient is sized from
the spectral gap g at the split (frame_transient), since a random
frame's distance from F decays like exp(-g T): T = ceil(log(1/FRAME_TOL)
/ g), clipped to [T_MIN, T_MAX], read off the spectrum run_estimators
holds. The diagnostics record gap, n_transient and transient_capped.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .errors import NonFiniteError
from .matrixcore import (LOG_ZERO, WedgeAccumulatorBatch, _qr_step, _random_frames,
                         log_wedge_total_from_rows)
from .measures import _kept_weights, _masked_mean_se, _weighted_mean
from .oseledets import LyapunovSpectrum, benettin_spectrum, check_spectrum_length
from .systems import DynamicalSystem, _cloud_walk, finite_nonnegative

PESIN = "pesin"
LEDRAPPIER_STRELCYN = "ledrappier_strelcyn"
JACOBIAN_F = "jacobian_F"
#: every estimator, in the order reports and tables list them
ESTIMATORS = (PESIN, LEDRAPPIER_STRELCYN, JACOBIAN_F)

#: longest LS table: n_max runs from 1 to LS_N_MAX
LS_N_MAX = 60

#: early stopping cuts the LS table once STOP_WINDOW consecutive n have
#: lowered it by less than STOP_DELTA in all
STOP_WINDOW = 5
STOP_DELTA = 1e-4

#: least work of an LS block: its points times the sum_j C(d, j)^2
#: compound entries each point carries per step. Two processes against one
#: break even near 2^15 of work in all (2 vCPU, 6 alternating runs: a
#: 500-point skew cloud, 69 entries a point, won 4 of 6 at 0.78-1.29x;
#: 1000 points 6 of 6 at 1.0-1.3x, 4000 at 1.4-1.8x; a 16384-point da
#: cloud, 5 entries a point, at 1.5-1.7x), so a second block starts at
#: twice this.
LS_BLOCK_WORK = 2 ** 15

#: Jacobian-F pushes its frames T = ceil(log(1/FRAME_TOL)/g) steps for the
#: spectral gap g at its split, clipped to [T_MIN, T_MAX]. At 1e-7, cat and
#: da take T_MIN and skew (K = 0.5) 54-61 steps; T_MAX = 240 matched Pesin
#: on skew K = 0.02, whose gap of 0.032 asks for about 500.
FRAME_TOL = 1e-7
T_MIN = 10
T_MAX = 240

#: LS blocks this process may step at once, its own and one per helper
#: process; None: one per core it may run on. run_sweep sets it to 1
#: around its fork pool.
_ls_threads = None


@dataclass
class EntropyEstimate:
    """Entropy value (nats/iteration) with a method tag and diagnostics."""

    value: float
    method: str
    std_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise NonFiniteError(f"{self.method} estimate {self.value!r} "
                                 f"(se {self.std_error!r}) is not finite")
        if self.value < 0.0:
            raise ValueError("entropy estimate must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "std_error": self.std_error,
            "diagnostics": self.diagnostics,
        }


def _runs_spectrum(methods, dim_f: Optional[int], dim: Optional[int]) -> bool:
    """Pesin runs the Benettin spectrum, and so does Jacobian-F unless dim_f
    is the dimension: the spectrum gives it dim_f when none is given, and
    the gap that sizes its transient below full dimension."""
    return PESIN in methods or (JACOBIAN_F in methods and (dim_f is None or dim_f != dim))


def check_estimator_args(methods, n_max: int, dim_f: Optional[int], dim: Optional[int],
                         length: Optional[int] = None) -> None:
    """ValueError when LS is among the methods and n_max lies outside
    [1, LS_N_MAX], Jacobian-F is and a given dim_f outside [1, dim], or a
    given orbit length fails check_spectrum_length for a spectrum they run
    (Pesin's, or Jacobian-F's below full dimension).

    It needs no orbit, so commands and sweep configs run it before they
    sample anything; the two estimators run it on their own arguments.
    """
    if LEDRAPPIER_STRELCYN in methods and not 1 <= n_max <= LS_N_MAX:
        raise ValueError(f"n_max must be in [1, {LS_N_MAX}]")
    if JACOBIAN_F in methods and dim_f is not None and not 1 <= dim_f <= dim:
        raise ValueError(f"dim_f must be in [1, {dim}]")
    if length is not None and _runs_spectrum(methods, dim_f, dim):
        check_spectrum_length(length, dim)


def pesin_entropy(spectrum: LyapunovSpectrum) -> EntropyEstimate:
    """Sum of the positive Lyapunov exponents, errors in quadrature."""
    pos = spectrum.exponents > 0.0
    value = float(spectrum.exponents[pos].sum())
    se = float(np.sqrt((spectrum.std_error[pos] ** 2).sum())) if np.any(pos) else 0.0
    return EntropyEstimate(
        value=value,
        method=PESIN,
        std_error=se,
        diagnostics={"n_positive": int(pos.sum()), "n_steps": spectrum.n_steps},
    )


def _ls_blocks(m: int, d: int) -> list:
    """Contiguous (lo, hi) blocks of the LS table's m points: one per
    process of the budget (the cores this process may run on unless
    _ls_threads is set; 1 where there is no os.fork), but no more than
    leave each LS_BLOCK_WORK of work, and at least one."""
    budget = _ls_threads if hasattr(os, "fork") else 1
    if budget is None:
        try:
            budget = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            budget = os.cpu_count() or 1
    work = m * sum(math.comb(d, j) ** 2 for j in range(1, d + 1))
    blocks = max(1, min(budget, work // LS_BLOCK_WORK))
    cuts = [m * b // blocks for b in range(blocks + 1)]
    return list(zip(cuts, cuts[1:]))


@contextmanager
def _block_pool(blocks: list, d: int):
    """For a with around the LS table: yields step(dfs), which steps each
    block's products by its slice of a (d, d, m) stack and returns their
    log(1 + sum_j ||wedge_j||) rows joined in block order. The caller
    steps the first block; each other one lives in a helper process
    (_helper) forked here, so in the caller's numpy error state, and reaped
    before the with ends, also on an exception. Per step the caller copies
    the helpers' slices into a shared anonymous mapping, signals each on
    its command pipe and, past its own block, waits for each answer on its
    reply pipe; the rows come back through the mapping."""
    eye = np.broadcast_to(np.eye(d)[:, :, None], (d, d, blocks[-1][1]))
    cut = blocks[0][1]
    first = WedgeAccumulatorBatch(eye[:, :, :cut])
    if len(blocks) == 1:
        yield partial(_wedge_row, first)
        return
    shared = mmap.mmap(-1, 8 * (d * d + 1) * (eye.shape[2] - cut))
    stack = np.ndarray((d, d, eye.shape[2] - cut), buffer=shared)
    rows = np.ndarray(stack.shape[2], buffer=shared, offset=stack.nbytes)
    ends, pids = [], []  # the caller's (command, reply) pipe ends; helper pids
    try:
        for lo, hi in blocks[1:]:
            (command, to_helper), (from_helper, reply) = os.pipe(), os.pipe()
            ends.append((to_helper, from_helper))
            try:
                if (pid := os.fork()) == 0:
                    _helper(eye[:, :, lo:hi], stack[:, :, lo - cut:hi - cut],
                            rows[lo - cut:hi - cut], command, reply, chain(*ends))
            finally:
                os.close(command)
                os.close(reply)
            pids.append(pid)

        def step(dfs):
            stack[...] = dfs[:, :, cut:]
            for to_helper, _ in ends:
                os.write(to_helper, b"s")
            row = _wedge_row(first, dfs[:, :, :cut])
            for _, from_helper in ends:
                if (got := os.read(from_helper, 1)) != b"k":  # EOF or a pickle
                    while chunk := os.read(from_helper, 1 << 16):
                        got += chunk
                    raise pickle.loads(got) if got else RuntimeError("an LS helper died")
            return np.concatenate([row, rows])

        yield step
    finally:  # closing the reply pipes too ends a helper blocked on a long answer
        for fd in chain(*ends):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _helper(frames, stack, row, command, reply, inherited) -> None:
    """An LS helper process's body, which never returns: it closes the
    caller's inherited pipe ends, then for each byte on command steps the
    products from frames by stack, puts the row into row and answers b"k",
    until end of file. It sends any exception back pickled."""
    try:
        for fd in inherited:
            os.close(fd)
        acc = WedgeAccumulatorBatch(frames)
        while os.read(command, 1):
            row[...] = _wedge_row(acc, stack)
            os.write(reply, b"k")
    except BaseException as exc:  # interrupts too: the caller raises it again
        os.write(reply, pickle.dumps(exc))
    finally:
        os._exit(0)


def _wedge_row(acc: WedgeAccumulatorBatch, dfs: np.ndarray) -> np.ndarray:
    """Step a block's products by dfs; its log(1 + sum_j ||wedge_j||) row."""
    acc.step(dfs)
    return log_wedge_total_from_rows(acc.log_wedge_all())


def ls_entropy(system: DynamicalSystem, measure, n_max: int = 40,
               early_stop: bool = True, seed: int = 0) -> EntropyEstimate:
    """Ledrappier-Strelcyn entropy: the minimum over n <= n_max of the
    table a_n = (1/n) <log ||Df^n(x)^wedge||>_mu.

    The minimum over the table is an upper bound for the limit value, so
    the reported number is one-sided. Points whose orbit fails are skipped
    and the weights renormalized (more than 1% failures aborts). Early
    stopping cuts the table when STOP_WINDOW consecutive n gain less than
    STOP_DELTA; pass early_stop=False for the full table. std_error is the
    weighted spread of the per-point values at the minimizing n over the
    points alive at that n. Each row's mean is measures._weighted_mean
    under weights renormalized over the live points, formed again only
    when a point dies; a row is masked only once a point has died. The
    diagnostics hold the table (a_n, index k for a_{k+1}), the minimizing
    n (argmin_n, 1-based) and skipped_points.

    One _cloud_walk in the caller advances the whole cloud, so the dither
    draws and the dead points do not depend on the blocks (_ls_blocks) its
    products are kept in. Each block has its own WedgeAccumulatorBatch and
    steps on its slice of each (d, d, m) stack: the caller's first block in
    this process, every other one in a helper process forked for this call
    and reaped before it returns (_block_pool). Their rows are joined in
    block order before the mean. Every point's row has the same bits in
    any block, so every number does too.
    """
    check_estimator_args((LEDRAPPIER_STRELCYN,), n_max, None, system.space.dim)
    pts, weights = measure.points, measure.weights
    m, d = pts.shape
    totals = []
    live = -1
    with _block_pool(_ls_blocks(m, d), d) as step:
        for n, (dfs, alive) in zip(range(1, n_max + 1),
                                   _cloud_walk(system, pts, [seed, 0xD17A])):
            row = step(dfs)
            count = np.count_nonzero(alive)
            if count != live:  # alive only loses points: a new count is a new set
                live, w = count, _kept_weights(weights, alive)
            totals.append(_weighted_mean(row, w, None if live == m else alive) / n)
            if totals[-1] <= min(totals):
                # the walk updates alive in place: keep the set of this n
                best_row, best_alive = row / n, alive.copy()
            if early_stop and n > STOP_WINDOW:
                if totals[-1 - STOP_WINDOW] - totals[-1] < STOP_DELTA:
                    break
    k = int(np.argmin(totals))
    return EntropyEstimate(
        value=max(totals[k], 0.0),
        method=LEDRAPPIER_STRELCYN,
        std_error=_masked_mean_se(best_row, weights, best_alive)[1],
        diagnostics={
            "a_n": totals,
            "argmin_n": k + 1,
            "skipped_points": int((~alive).sum()),
        },
    )


def expanding_dim(spectrum: LyapunovSpectrum) -> int:
    """The default dim_f: the number of positive exponents (at least one)
    of the spectrum along the cloud's own orbit."""
    return max(1, int((spectrum.exponents > 0.0).sum()))


def frame_transient(spectrum: LyapunovSpectrum, dim_f: int) -> tuple:
    """(gap, T, capped): the gap g = lambda_dim_f - lambda_(dim_f + 1) of
    the spectrum at Jacobian-F's split, for 1 <= dim_f < d, and the
    transient T = ceil(log(1/FRAME_TOL)/g), clipped to [T_MIN, T_MAX].

    capped is set, with T = T_MAX, when g lies within 2 standard errors of
    0 (cat4 at dim_f = 1) or when g T_MAX < log(1/FRAME_TOL): then the
    frames may not have settled on F.
    """
    ex, se = spectrum.exponents, spectrum.std_error
    gap = float(ex[dim_f - 1] - ex[dim_f])
    need = math.log(1.0 / FRAME_TOL)
    if abs(gap) <= 2.0 * math.hypot(se[dim_f - 1], se[dim_f]) or gap * T_MAX < need:
        return gap, T_MAX, True
    return gap, max(T_MIN, math.ceil(need / gap)), False


def jacobian_formula_entropy(system: DynamicalSystem, measure, dim_f: int,
                             seed: int = 0,
                             spectrum: Optional[LyapunovSpectrum] = None) -> EntropyEstimate:
    """Expected log volume expansion along the estimated F bundle.

    Below full dimension the cloud walks T steps while random frames are
    pushed forward by _qr_step, batch-last; by invariance of the sampled
    measure the advanced cloud integrates the same observable, so no
    backward orbits are needed. T comes from frame_transient on the given
    spectrum (ValueError without one, or with one of another dimension).
    The log volume at a point is the sum of log diag(R) of the QR step that
    pushes its frame over one more step. dim_f = dim takes no transient and
    reads no spectrum: it is <log |det Df|> over one step.

    The diagnostics hold dim_f, n_transient (T), skipped_points and
    raw_mean (the mean before the clip at 0); below full dimension also the
    gap and transient_capped (see frame_transient).
    """
    pts, weights = measure.points, measure.weights
    m, d = pts.shape
    check_estimator_args((JACOBIAN_F,), None, dim_f, d)
    diagnostics = {"dim_f": dim_f}
    if dim_f == d:
        frames, n_transient = np.broadcast_to(np.eye(d)[:, :, None], (d, d, m)), 0
    else:
        if spectrum is None or spectrum.exponents.shape != (d,):
            raise ValueError(f"Jacobian-F at dim_f = {dim_f} < {d} needs the system's "
                             f"{d}-exponent spectrum to size its frame transient")
        gap, n_transient, capped = frame_transient(spectrum, dim_f)
        diagnostics.update(gap=gap, transient_capped=capped)
        frames = _random_frames(np.random.default_rng([seed, 0xF0]), m, d, dim_f)
    walk = _cloud_walk(system, pts, [seed, 0xF1])
    for _ in range(n_transient + 1):
        dfs, alive = next(walk)
        frames, log_r = _qr_step(dfs, frames)
    good = alive & np.all(log_r > LOG_ZERO, axis=0)
    log_vol = np.where(good, log_r, 0.0).sum(axis=0)
    good &= np.isfinite(log_vol)
    mean, se = _masked_mean_se(log_vol, weights, good)
    diagnostics.update(n_transient=n_transient, skipped_points=int(m - int(good.sum())),
                       raw_mean=mean)
    return EntropyEstimate(
        value=max(mean, 0.0),
        method=JACOBIAN_F,
        std_error=se,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# The estimator pipeline and cross-validation
# ---------------------------------------------------------------------------


@dataclass
class CrossValidationReport:
    estimates: dict            # method -> EntropyEstimate
    gaps: dict                 # "a|b" -> |value_a - value_b|
    tolerance: float
    sinai_consistent: bool
    ruelle_violated: bool

    def to_json_dict(self) -> dict:
        return {
            "estimates": {k: v.to_json_dict() for k, v in self.estimates.items()},
            "gaps": self.gaps,
            "tolerance": self.tolerance,
            "sinai_consistent": self.sinai_consistent,
            "ruelle_violated": self.ruelle_violated,
        }


def combine_estimates(pesin: EntropyEstimate, ls: EntropyEstimate,
                      jac: EntropyEstimate, tolerance: float) -> CrossValidationReport:
    """Flag agreement (all pairwise gaps <= tolerance) and the numerical
    Ruelle signal (LS value above the Pesin value beyond tolerance plus
    twice the combined standard errors). ValueError unless tolerance is
    finite and >= 0."""
    finite_nonnegative(tolerance, "tolerance")
    ests = dict(zip(ESTIMATORS, (pesin, ls, jac)))
    gaps = {f"{a}|{b}": abs(ests[a].value - ests[b].value)
            for a, b in combinations(ESTIMATORS, 2)}
    consistent = max(gaps.values()) <= tolerance
    margin = tolerance + 2.0 * (ls.std_error + pesin.std_error)
    ruelle = (ls.value - pesin.value) > margin
    return CrossValidationReport(
        estimates=ests,
        gaps=gaps,
        tolerance=tolerance,
        sinai_consistent=consistent,
        ruelle_violated=ruelle,
    )


def run_estimators(system: DynamicalSystem, measure, methods, seed: int,
                   burn_in: int, n_steps: int, n_max: int = 40,
                   dim_f: Optional[int] = None, early_stop: bool = True,
                   spectrum: Optional[LyapunovSpectrum] = None) -> tuple:
    """(estimates, spectrum): method -> EntropyEstimate in ESTIMATORS order
    for the named methods, and the spectrum used (None when none was).

    The Benettin spectrum, unless given, runs once and only for Pesin or a
    Jacobian-F below full dimension or without dim_f: along the measure's
    own orbit when it keeps one (benettin_spectrum rejects it unless it has
    burn_in + n_steps points), else (Ulam clouds) along a fresh orbit from
    seed. dim_f defaults to its expanding dimension, and below full
    dimension its gap sizes Jacobian-F's frame transient.
    """
    if spectrum is None and _runs_spectrum(methods, dim_f, system.space.dim):
        spectrum = benettin_spectrum(system, seed, burn_in, n_steps,
                                     orbit=measure.orbit)
    estimates = {}
    if PESIN in methods:
        estimates[PESIN] = pesin_entropy(spectrum)
    if LEDRAPPIER_STRELCYN in methods:
        estimates[LEDRAPPIER_STRELCYN] = ls_entropy(system, measure, n_max,
                                                    early_stop=early_stop, seed=seed)
    if JACOBIAN_F in methods:
        estimates[JACOBIAN_F] = jacobian_formula_entropy(
            system, measure, expanding_dim(spectrum) if dim_f is None else dim_f,
            seed=seed, spectrum=spectrum)
    return estimates, spectrum


def cross_validate(system: DynamicalSystem, measure, dim_f: Optional[int] = None,
                   n_max: int = 40, tolerance: float = 0.02,
                   spectrum: Optional[LyapunovSpectrum] = None) -> CrossValidationReport:
    """Run all three estimators on one system/measure pair and compare.

    Seed, burn-in and orbit length come from the measure's provenance, so
    the spectrum, unless given, runs along the measure's own Birkhoff
    orbit. See run_estimators for the rest.
    """
    prov = measure.provenance
    estimates, _ = run_estimators(system, measure, ESTIMATORS, int(prov.get("seed", 0)),
                                  int(prov.get("burn_in", 10_000)),
                                  int(prov.get("length", 100_000)),
                                  n_max=n_max, dim_f=dim_f, spectrum=spectrum)
    return combine_estimates(*estimates.values(), tolerance)
