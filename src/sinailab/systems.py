"""Executable dynamical systems with exact analytic differentials.

Families provided: linear torus automorphisms (Anosov), the
Manneville-Pomeau intermittent interval family, a derived-from-Anosov
isotopy of the cat map, a standard-map skew product over T^4, and the
quadratic-fiber skew products of Viana type.

Every system bundles a phase space, a vectorized map, its exact Jacobian,
a singular set (a union of coordinate hyperplanes), and (when available)
an inverse. DynamicalSystem.unusable is the one rule for which points an
orbit or a cloud integral may use: orbit sampling, the cloud walk, the
diagnose integrals and the Hölder check drop the points it flags.
Each family's orbit_fn returns its orbit as one (n+1, d) array. The
torus automorphisms build it in exact integer blocks once the orbit
reaches the float lattice it then stays on; the other families' scalar
loops yield the coordinates one float at a time into _streamed, the one
place a float stream becomes an orbit. Batches of points advance through
the derivative cocycle along one generator, _cloud_walk, which every
forward product (LS table, Jacobian-along-F, bundle frames, domination
ratios) consumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EscapeError, SamplingFailureError, UnsupportedSystemError

TWO_PI = 2.0 * math.pi

#: low-bit dither scale for maps whose float iteration is an exact binary
#: shift (doubling-type branches); without it double-precision orbits
#: collapse onto the fixed point at 0 within ~53 steps.
DITHER_SCALE = 2.0 ** -50

#: a point closer than this to the singular set counts as on it (see
#: DynamicalSystem.unusable)
SINGULAR_HIT_DISTANCE = 1e-15

#: orbit-failure fraction above which a cloud walk refuses to go on
MAX_FAILURE_FRACTION = 0.01

#: values a blocked loop holds per array. A torus automorphism's orbit
#: builds BLOCK_POINTS // 2 integer coordinates at a time (rounded down to
#: a power of two of rows), one 128 kB buffer beside the orbit array.
#: measures.ulam_matrix maps this many sample points at a time, rounded
#: down to whole cells: for d = 2 a chunk's sample grid and images (512 kB
#: each), its two float image-cell buffers (256 kB each) and its int32
#: columns (128 kB) fit a 2 MB per-core L2 together. On such a Xeon a
#: 128^2-cell, 256-sample da build took 0.13 s at 2^15 and 0.19 s at 2^18,
#: with traced peaks of 6 and 26 MB. measures.dictionary_moments sums a
#: block of BLOCK_POINTS // (2 x the larger half's mode count) points at a
#: time, so each of its mode-product arrays holds about this many values.
#: Benettin's _lockstep_logs asks differential_batch for BLOCK_POINTS //
#: (d^2 x live time blocks) consecutive lockstep steps at once, so each
#: derivative stack holds about this many values too
BLOCK_POINTS = 2 ** 15


def _wrap_unit(x: np.ndarray) -> np.ndarray:
    """x mod 1, in place: the one wrap rule for the periodic unit
    coordinates of the batch maps. x - floor(x) rounds once, as np.mod's
    fmod-and-correct does, so the bits are np.mod(x, 1.0)'s (+0.0 at the
    integers, 1.0 just below 0), without the divmod that makes np.mod
    about 10x as costly.
    """
    x -= np.floor(x)
    return x


def _streamed(loop: Callable) -> Callable:
    """orbit_fn from a scalar loop(x0, n, noise) that yields an orbit's
    coordinates as floats in row-major order: the one place a float stream
    becomes an orbit. numpy allocates the (n+1)*d buffer once and fills it
    from the stream."""
    def orbit_fn(x0, n, noise):
        d = len(x0)
        return np.fromiter(loop(x0, n, noise), float, d * (n + 1)).reshape(n + 1, d)
    return orbit_fn


# ---------------------------------------------------------------------------
# Phase spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpace:
    """Box-shaped phase space with per-coordinate periodicity.

    kind is one of "torus" (all coordinates periodic on [0,1)), "interval"
    ([0,1]), or "cylinder" (first coordinate periodic on [0,1), second a
    bounded interval; used by the quadratic skew products).
    """

    kind: str
    lo: tuple
    hi: tuple
    periodic: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def torus(d: int) -> "PhaseSpace":
        return PhaseSpace("torus", (0.0,) * d, (1.0,) * d, (True,) * d)

    @staticmethod
    def unit_interval() -> "PhaseSpace":
        return PhaseSpace("interval", (0.0,), (1.0,), (False,))

    @staticmethod
    def cylinder(xlo: float, xhi: float) -> "PhaseSpace":
        return PhaseSpace("cylinder", (0.0, xlo), (1.0, xhi), (True, False))

    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def contains(self, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lo = np.asarray(self.lo) - tol
        hi = np.asarray(self.hi) + tol
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = np.asarray(self.lo)
        return lo + rng.random((n, self.dim)) * self.widths()

    def displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Shortest vector from a to b, wrapping periodic coordinates."""
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        d = b - a
        w = self.widths()
        for i, per in enumerate(self.periodic):
            if per:
                d[:, i] = (d[:, i] + 0.5 * w[i]) % w[i] - 0.5 * w[i]
        return d

    def coord_distance(self, values: np.ndarray, c: float, axis: int) -> np.ndarray:
        """Distance |x_axis - c| along one coordinate, wrapped if periodic."""
        d = np.abs(values - c)
        if self.periodic[axis]:
            w = self.widths()[axis]
            d = np.minimum(d, w - d)
        return d


# ---------------------------------------------------------------------------
# Singular sets: unions of coordinate hyperplanes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularHyperplane:
    """The hyperplane {x_axis = value}; in a 1-d space, the point value."""

    axis: int
    value: float
    label: str = ""


# ---------------------------------------------------------------------------
# The system contract
# ---------------------------------------------------------------------------


@dataclass
class DynamicalSystem:
    """A map with its exact differential on a concrete phase space.

    eval_batch / differential_batch are vectorized over (n, d) point
    arrays; differential_batch returns a new C-contiguous (d, d, n) stack,
    which the caller may overwrite.
    Systems are immutable after construction and all evaluation is pure,
    so instances are safe to share across threads and processes.
    """

    name: str
    space: PhaseSpace
    params: dict
    eval_batch: Callable[[np.ndarray], np.ndarray]
    differential_batch: Callable[[np.ndarray], np.ndarray]
    singular_set: list = field(default_factory=list)
    inverse_eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    orbit_fn: Optional[Callable] = None
    dither_scale: float = 0.0

    @property
    def invertible(self) -> bool:
        return self.inverse_eval_batch is not None

    # -- pointwise conveniences -------------------------------------------
    def eval(self, x) -> np.ndarray:
        return self.eval_batch(np.atleast_1d(np.asarray(x, float))[None, :])[0]

    def differential(self, x) -> np.ndarray:
        return self.differential_batch(np.atleast_1d(np.asarray(x, float))[None, :])[..., 0]

    # -- singular set ------------------------------------------------------
    def singular_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest singular hyperplane;
        +inf everywhere for an empty singular set."""
        pts = np.atleast_2d(pts)
        out = np.full(pts.shape[0], np.inf)
        for plane in self.singular_set:
            out = np.minimum(out, self.space.coord_distance(
                pts[:, plane.axis], plane.value, plane.axis))
        return out

    def hits_singular_set(self, pts: np.ndarray) -> np.ndarray:
        return self.singular_distance(pts) < SINGULAR_HIT_DISTANCE

    def unusable(self, pts: np.ndarray) -> np.ndarray:
        """True where a point is on the singular set or not finite: no
        orbit can be continued from it. The one skip rule: orbit samplers
        restart, the cloud walk kills the point, and cloud integrals and
        the Hölder check leave it out."""
        bad = self.hits_singular_set(pts)
        for coord in pts.T:  # column by column: ~8x faster than all(axis=1)
            bad |= ~np.isfinite(coord)
        return bad

    # -- orbits -------------------------------------------------------------
    def _dither(self, n: int, rng: Optional[np.random.Generator]):
        """Dither noise for n map steps, or None for an undithered run.

        The one dither rule: each step adds rng.random() * dither_scale to
        coordinate 0 and wraps it mod 1, in orbits and cloud steps alike.
        It keeps binary-shift maps off their spurious float fixed points;
        pointwise eval stays exact.
        """
        if self.dither_scale and rng is not None:
            return rng.random(n) * self.dither_scale
        return None

    def orbit(self, x0, n: int, dither_rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """(n+1, d) array [x0, f(x0), ..., f^n(x0)], dithered (see _dither)
        when dither_rng is given; ValueError for n < 0.

        The family's orbit_fn(x0, n, noise) gets the dither noise as a
        list of floats, or None, so that a scalar loop runs on Python
        floats, and returns the (n+1, d) array, allocated once. Without
        one, eval_batch steps the orbit through _streamed.
        """
        if n < 0:
            raise ValueError(f"orbit length n must be >= 0, got {n}")
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        noise = self._dither(n, dither_rng)
        if self.orbit_fn is not None:
            return self.orbit_fn(x0, n, None if noise is None else noise.tolist())
        if noise is not None:
            raise UnsupportedSystemError(f"{self.name}: a dithered orbit needs an orbit_fn")
        return _streamed(self._eval_orbit)(x0, n, None)

    def _eval_orbit(self, x0: np.ndarray, n: int, _noise):
        """The orbit's coordinate stream, one eval_batch call per step."""
        cur = x0[None, :]
        yield from x0.tolist()
        for _ in range(n):
            cur = self.eval_batch(cur)
            yield from cur[0].tolist()

    def step_batch(self, pts: np.ndarray, dither_rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """One map application for a batch, dithered as orbit() dithers."""
        out = self.eval_batch(pts)
        noise = self._dither(out.shape[0], dither_rng)
        if noise is not None:
            out[:, 0] = _wrap_unit(out[:, 0] + noise)
        return out


def _cloud_walk(system: DynamicalSystem, pts: np.ndarray, dither_key):
    """Walk the cloud along its orbits, yielding (dfs, alive) per map step.

    dfs holds the one-step differentials (d, d, m) at the current points.
    A point that hits the singular set or leaves the reals dies: it feeds
    the identity from then on and stops moving. Only live points are stepped,
    with the dithered stepper seeded by dither_key, so binary-shift clouds
    do not degenerate. More than MAX_FAILURE_FRACTION dead points raise
    SamplingFailureError, whose message names the map step at which the
    dead fraction crossed that share. The cloud moves only when the next
    step is asked for.
    """
    m, d = pts.shape
    dither = np.random.default_rng(dither_key) if system.dither_scale else None
    alive = np.ones(m, dtype=bool)
    cur = pts.copy()
    for step in itertools.count():
        alive &= ~system.unusable(cur)
        dead = m - int(np.count_nonzero(alive))
        if dead > MAX_FAILURE_FRACTION * m:
            raise SamplingFailureError(
                f"{system.name}: {dead}/{m} orbit failures in the cloud walk "
                f"at map step {step}"
            )
        if not dead:
            # the usual case: the whole cloud steps as it is, and the
            # dither draws m values either way, so the bits are the same
            yield system.differential_batch(cur), alive
            cur = system.step_batch(cur, dither)
            continue
        dfs = system.differential_batch(np.where(alive[:, None], cur, pts))
        dfs[:, :, ~alive] = np.eye(d)[:, :, None]
        yield dfs, alive
        cur[alive] = system.step_batch(cur[alive], dither)


# ---------------------------------------------------------------------------
# Torus automorphisms
# ---------------------------------------------------------------------------

CAT_MATRIX = ((2, 1), (1, 1))

#: the bits of the float 2^52; or'ed with an integer m < 2^52 they read as
#: the float 2^52 + m
FLOAT_2_52_BITS = 0x4330000000000000


def _integer_inverse(a: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(a)
    inv_round = np.rint(inv)
    if not np.allclose(a @ inv_round, np.eye(a.shape[0]), atol=1e-9):
        raise ValueError("matrix has no integer inverse")
    return inv_round


def make_torus_automorphism(matrix) -> DynamicalSystem:
    """Linear automorphism x -> A x (mod 1) of the d-torus, |det A| = 1.

    The orbit is the float loop x_i <- sum(a_ij * x_j) % 1.0, summed in
    index order. Once every coordinate of a point is a multiple of 2^-e in
    [0, 1), where e = 53 - ceil(log2 S) and S is the largest row sum of
    |a_ij| (e = 51 for the cat map; e is capped at 52), every product
    a_ij * x_j and every partial sum in that order is a multiple of 2^-e
    of magnitude below S <= 2^(53 - e): each is exact, and so is Python's
    % 1.0 (an exact fmod, plus an exact + 1.0 for a negative remainder).
    The loop then stays on the lattice 2^-e Z^d and is the integer map
    m -> A m mod 2^e on m = 2^e x, which uint64 arithmetic, wrapping mod
    2^64, computes exactly because e < 64. So orbit_fn runs the float loop
    only until a point lands on the lattice, a transient of about a
    hundred steps for the cat maps, or to n if none does (a NaN, or a
    coordinate too fine for the lattice on which A does not expand). It
    builds the rest in blocks of rows A^k m by doubling (rows [h, 2h) are
    rows [0, h) times (A^h)^T, masked to e bits) in the orbit array's own
    memory, and turns each block into the floats 2^-e m in place: the
    same bits as the float loop, without its Python cost per step, and no
    memory beyond the orbit array.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, np.rint(a)):
        raise ValueError("matrix must be integer")
    a = np.rint(a)
    det = round(float(np.linalg.det(a)))
    if abs(det) != 1:
        raise ValueError(f"|det| must be 1, got {det}")
    d = a.shape[0]
    space = PhaseSpace.torus(d)
    a_inv = _integer_inverse(a)
    rows = [tuple(float(v) for v in a[i]) for i in range(d)]
    rng_d = range(d)

    def ev(pts):
        return _wrap_unit(np.atleast_2d(pts) @ a.T)

    def dfb(pts):
        return np.broadcast_to(a[:, :, None], (d, d, len(np.atleast_2d(pts)))).copy()

    def inv_ev(pts):
        return _wrap_unit(np.atleast_2d(pts) @ a_inv.T)

    # the lattice 2^-e Z^d (see the docstring); for S > 2^52 it is {0}
    e = min(max(53 - (int(np.abs(a).sum(axis=1).max()) - 1).bit_length(), 0), 52)
    scale, mask = 2.0 ** e, (1 << e) - 1
    block = 1 << (max(BLOCK_POINTS // (2 * d), 1).bit_length() - 1)  # rows, a power of two
    # (A^(2^j))^T mod 2^e for the doubling steps h = 2^j < block
    powers = [np.array([[int(v) & mask for v in col] for col in a.T], dtype=np.uint64)]
    while 2 ** len(powers) < block:
        powers.append((powers[-1] @ powers[-1]) & mask)

    def lattice_blocks(out, m):
        """Fill out[1:] from out[0] = 2^-e m, as the float loop would. Each
        block's rows are built as uint64 in out's own memory, then turned
        into floats in place: m < 2^52 or'ed into the bits of 2^52 reads
        as the float 2^52 + m, from which 2^52 is subtracted exactly."""
        ints = out.view(np.uint64)
        last = np.array([m], dtype=np.uint64)
        for start in range(1, len(out), block):
            rows_int = ints[start:start + block]
            np.matmul(last, powers[0], out=rows_int[:1])
            rows_int[:1] &= mask
            h = 1
            for p in powers:  # p = (A^h)^T
                top = min(2 * h, len(rows_int))
                if h >= top:
                    break
                np.matmul(rows_int[:top - h], p, out=rows_int[h:top])
                rows_int[h:top] &= mask
                h *= 2
            last[0] = rows_int[-1]
            rows_int |= FLOAT_2_52_BITS
            rows_float = out[start:start + len(rows_int)]
            rows_float -= 2.0 ** 52
            rows_float *= 1.0 / scale

    def orbit_fn(x0, n, _noise):
        out = np.empty((n + 1, d))
        cur = [float(v) for v in x0]
        out[0] = cur
        k = 0
        while k < n and not all(0.0 <= c < 1.0 and (c * scale).is_integer() for c in cur):
            cur = [sum(r[i] * cur[i] for i in rng_d) % 1.0 for r in rows]
            k += 1
            out[k] = cur
        if k < n:
            lattice_blocks(out[k:], [int(c * scale) for c in cur])
        return out

    return DynamicalSystem(
        name="torus_automorphism",
        space=space,
        params={"matrix": [[int(v) for v in row] for row in a]},
        eval_batch=ev,
        differential_batch=dfb,
        singular_set=[],
        inverse_eval_batch=inv_ev,
        orbit_fn=orbit_fn,
    )


def make_cat_map() -> DynamicalSystem:
    """Arnold's cat map on T^2."""
    sys = make_torus_automorphism(CAT_MATRIX)
    sys.name = "cat"
    return sys


def make_cat_block(copies: int = 2) -> DynamicalSystem:
    """Block-diagonal direct sum of cat maps on T^(2*copies)."""
    a = np.kron(np.eye(copies), np.asarray(CAT_MATRIX))
    sys = make_torus_automorphism(a)
    sys.name = f"cat_block{copies}"
    return sys


# ---------------------------------------------------------------------------
# Manneville-Pomeau intermittent maps
# ---------------------------------------------------------------------------


def make_manneville_pomeau(alpha: float) -> DynamicalSystem:
    """Intermittent interval map x(1 + 2^a x^a) on [0,1/2], 2x-1 above.

    alpha = 0 is the doubling map; alpha > 0 has a neutral fixed point at
    0 with derivative exactly 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    space = PhaseSpace.unit_interval()
    pow2a = 2.0 ** alpha

    def ev(pts):
        # 2x - 1 everywhere (NaN included), the left branch x(1 + 2^a x^a)
        # in one buffer only on the points that take it, then one clip.
        # The left points go by index: a boolean gather or scatter on a
        # mask that alternates at random costs several times a take.
        x = np.atleast_2d(pts)[:, 0]
        out = 2.0 * x
        out -= 1.0
        left = np.flatnonzero(x <= 0.5)
        xl = x.take(left)
        branch = np.power(xl, alpha)
        branch *= pow2a
        branch += 1.0
        branch *= xl
        out[left] = branch
        np.clip(out, 0.0, 1.0, out=out)
        return out[:, None]

    def dfb(pts):
        # one buffer: 1 + 2^a (1 + a) x^a on the left branch, 2 elsewhere
        # (NaN included), put by index as in ev
        x = np.atleast_2d(pts)[:, 0]
        out = np.power(x, alpha)
        out *= pow2a * (1.0 + alpha)
        out += 1.0
        out[np.flatnonzero(~(x <= 0.5))] = 2.0
        return out[None, None, :]

    singular = [SingularHyperplane(0, 0.5, "branch")]
    if alpha > 0.0:
        singular.append(SingularHyperplane(0, 0.0, "neutral"))

    @_streamed
    def orbit_fn(x0, n, noise):
        x = float(x0[0])
        yield x
        for k in range(n):
            if x <= 0.5:
                x = x * (1.0 + pow2a * x ** alpha)
                if x > 1.0:
                    x = 1.0
            else:
                x = 2.0 * x - 1.0
            if noise is not None:
                x = (x + noise[k]) % 1.0
            yield x

    return DynamicalSystem(
        name="manneville_pomeau",
        space=space,
        params={"alpha": alpha},
        eval_batch=ev,
        differential_batch=dfb,
        singular_set=singular,
        orbit_fn=orbit_fn,
        dither_scale=DITHER_SCALE if alpha == 0.0 else 0.0,
    )


# ---------------------------------------------------------------------------
# Derived-from-Anosov isotopy of the cat map
# ---------------------------------------------------------------------------

#: weak expansion target for the deformed stable rate (log scale)
DA_LOG_WEAK_RATE = 0.1
DA_BUMP_RADIUS = 0.1


def make_derived_from_anosov(deformation: float) -> DynamicalSystem:
    """Isotopy of the cat map weakening the stable contraction near 0.

    Inside a radius-r bump around the fixed point (measured in the
    orthonormal eigenbasis), the log of the stable multiplier is linearly
    interpolated from -log(lambda) toward the weakly expanding target
    DA_LOG_WEAK_RATE, scaled by the deformation parameter. deformation = 0
    reproduces the cat map exactly (bit for bit). The bump profile
    (1 - q/r^2)^3 in q = u^2 + s^2 is C^2 at the edge and smooth inside.

    The batch map and differential work the bump out only inside its
    support: a box test around the lattice Z^2 screens for candidates, a
    superset of the bump, and the unchanged exact test q < r^2 decides
    among them. Everywhere else they return the cat map and A, which is
    what the bump terms, all zero there, would give bit for bit.
    """
    if not 0.0 <= deformation < 1.0:
        raise ValueError(f"deformation must be in [0, 1), got {deformation}")
    a = np.asarray(CAT_MATRIX, dtype=float)
    lam = (3.0 + math.sqrt(5.0)) / 2.0
    lam_inv = 1.0 / lam
    vu = np.array([1.0, lam - 2.0])
    vu /= math.sqrt(float(vu @ vu))
    vs = np.array([-(lam - 2.0), 1.0])
    vs /= math.sqrt(float(vs @ vs))
    r2 = DA_BUMP_RADIUS ** 2
    kappa = math.log(lam) + DA_LOG_WEAK_RATE  # total log-rate swing at full bump
    t = deformation
    space = PhaseSpace.torus(2)

    def _bump_terms(pts):
        """(idx, u, s, hp, g) for the points pts[idx] inside the bump.

        A point is a candidate when both coordinates lie within
        DA_BUMP_RADIUS * (1 + 1e-9) of an integer: x - round(x) is exact,
        and the margin covers the rounding of the wrap and of q. The first
        coordinate is tested on every point and the second only on the
        ~20% that pass, which keeps the candidates in index order. Only the
        candidates are wrapped and given the exact test q < r2. The
        eigenbasis projections are element-wise products and sums, not a
        BLAS product, so a point gets the same bits alone as in any batch.
        """
        lim = DA_BUMP_RADIUS * (1.0 + 1e-9)
        x = pts[:, 0]
        off = np.round(x)
        np.subtract(x, off, out=off)
        cand = np.flatnonzero(np.abs(off, out=off) < lim)
        x = pts[cand, 1]
        cand = cand[np.abs(x - np.round(x)) < lim]
        y = _wrap_unit(pts[cand] + 0.5) - 0.5  # wrap to the cell centered at 0
        y0, y1 = y[:, 0], y[:, 1]
        u = y0 * vu[0] + y1 * vu[1]
        s = y0 * vs[0] + y1 * vs[1]
        q = u * u + s * s
        inside = q < r2
        u, s, q = u[inside], s[inside], q[inside]
        z = 1.0 - q / r2
        hp = -3.0 * z * z / r2
        g = np.expm1(t * kappa * z ** 3)
        return cand[inside], u, s, hp, g

    def ev(pts):
        pts = np.atleast_2d(pts)
        out = pts @ a.T
        idx, _, s, _, g = _bump_terms(pts)
        out[idx] += (s * lam_inv * g)[:, None] * vs
        return _wrap_unit(out)

    def dfb(pts):
        pts = np.atleast_2d(pts)
        out = np.repeat(a[:, :, None], pts.shape[0], axis=2)
        idx, u, s, hp, g = _bump_terms(pts)
        gp = (g + 1.0) * t * kappa * hp  # d/dq of expm1 term
        grad_s = lam_inv * (g + 2.0 * s * s * gp)
        grad_u = lam_inv * (2.0 * u * s * gp)
        grad = grad_s[:, None] * vs + grad_u[:, None] * vu
        out[:, :, idx] += vs[:, None, None] * grad.T
        return out

    a_inv = _integer_inverse(a)

    def inv_ev(pts):
        """Newton solve of f(x) = y on the torus, seeded at A^-1 y."""
        y = np.atleast_2d(pts)
        x = _wrap_unit(y @ a_inv.T)
        for _ in range(60):
            res = space.displacement(ev(x), y)
            if np.max(np.abs(res)) < 1e-14:
                break
            step = np.linalg.solve(dfb(x).transpose(2, 0, 1), res[:, :, None])[:, :, 0]
            x = _wrap_unit(x + step)
        return x

    @_streamed
    def orbit_fn(x0, n, _noise):
        x, y = float(x0[0]), float(x0[1])
        yield x
        yield y
        vux, vuy = float(vu[0]), float(vu[1])
        vsx, vsy = float(vs[0]), float(vs[1])
        tk = t * kappa
        for _ in range(n):
            wx = (x + 0.5) % 1.0 - 0.5
            wy = (y + 0.5) % 1.0 - 0.5
            u = wx * vux + wy * vuy
            s = wx * vsx + wy * vsy
            q = u * u + s * s
            if q < r2 and tk != 0.0:
                z = 1.0 - q / r2
                delta = s * lam_inv * math.expm1(tk * z * z * z)
            else:
                delta = 0.0
            x, y = (2.0 * x + y + delta * vsx) % 1.0, (x + y + delta * vsy) % 1.0
            yield x
            yield y

    return DynamicalSystem(
        name="derived_from_anosov",
        space=space,
        params={"deformation": deformation, "radius": DA_BUMP_RADIUS,
                "log_weak_rate": DA_LOG_WEAK_RATE},
        eval_batch=ev,
        differential_batch=dfb,
        singular_set=[],
        inverse_eval_batch=inv_ev,
        orbit_fn=orbit_fn,
    )


# ---------------------------------------------------------------------------
# Standard-map skew product on T^4
# ---------------------------------------------------------------------------


def _int_matrix_power(a: np.ndarray, n: int) -> np.ndarray:
    out = np.eye(a.shape[0])
    for _ in range(n):
        out = out @ a
    return np.rint(out)


def make_standard_skew(K: float, N: int) -> DynamicalSystem:
    """Skew product (z, w) -> (s(z) + pi_1(A^N w) e_1, A^(2N) w) on T^4.

    s is the area-preserving Chirikov standard map with coupling K, in the
    convention s(x, y) = (x + y + (K/2pi) sin(2pi x), y + (K/2pi) sin(2pi x))
    mod 1; A is the cat matrix. The Jacobian is block upper-triangular with
    unit determinant, so the map preserves volume.
    """
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, got {K}")
    if N < 1:
        raise ValueError("N must be >= 1")
    a = np.asarray(CAT_MATRIX, dtype=float)
    an = _int_matrix_power(a, N)
    a2n = _int_matrix_power(a, 2 * N)
    c = K / TWO_PI
    space = PhaseSpace.torus(4)

    def ev(pts):
        p = np.atleast_2d(pts)
        z0, z1, w0, w1 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        kick = c * np.sin(TWO_PI * z0)
        drive = an[0, 0] * w0 + an[0, 1] * w1
        out = np.empty_like(p)
        out[:, 0] = z0 + z1 + kick + drive
        out[:, 1] = z1 + kick
        out[:, 2] = a2n[0, 0] * w0 + a2n[0, 1] * w1
        out[:, 3] = a2n[1, 0] * w0 + a2n[1, 1] * w1
        return _wrap_unit(out)

    def dfb(pts):
        p = np.atleast_2d(pts)
        cosk = K * np.cos(TWO_PI * p[:, 0])
        out = np.zeros((4, 4, p.shape[0]))
        out[0, 0] = 1.0 + cosk
        out[0, 1] = 1.0
        out[0, 2] = an[0, 0]
        out[0, 3] = an[0, 1]
        out[1, 0] = cosk
        out[1, 1] = 1.0
        out[2:, 2:] = a2n[:, :, None]
        return out

    a2n_inv = _integer_inverse(a2n)

    def inv_ev(pts):
        p = np.atleast_2d(pts)
        w = _wrap_unit(p[:, 2:] @ a2n_inv.T)
        drive = an[0, 0] * w[:, 0] + an[0, 1] * w[:, 1]
        z0p = p[:, 0] - drive
        z0 = _wrap_unit(z0p - p[:, 1])
        kick = c * np.sin(TWO_PI * z0)
        z1 = _wrap_unit(p[:, 1] - kick)
        out = np.empty_like(p)
        out[:, 0] = z0
        out[:, 1] = z1
        out[:, 2:] = w
        return out

    an00, an01 = float(an[0, 0]), float(an[0, 1])
    b00, b01, b10, b11 = (float(a2n[0, 0]), float(a2n[0, 1]),
                          float(a2n[1, 0]), float(a2n[1, 1]))

    @_streamed
    def orbit_fn(x0, n, _noise):
        z0, z1, w0, w1 = (float(x0[0]), float(x0[1]), float(x0[2]), float(x0[3]))
        yield z0
        yield z1
        yield w0
        yield w1
        for _ in range(n):
            kick = c * math.sin(TWO_PI * z0)
            drive = an00 * w0 + an01 * w1
            z0, z1 = (z0 + z1 + kick + drive) % 1.0, (z1 + kick) % 1.0
            w0, w1 = (b00 * w0 + b01 * w1) % 1.0, (b10 * w0 + b11 * w1) % 1.0
            yield z0
            yield z1
            yield w0
            yield w1

    return DynamicalSystem(
        name="standard_skew",
        space=space,
        params={"K": K, "N": N},
        eval_batch=ev,
        differential_batch=dfb,
        singular_set=[],
        inverse_eval_batch=inv_ev,
        orbit_fn=orbit_fn,
    )


# ---------------------------------------------------------------------------
# Viana-type quadratic skew products
# ---------------------------------------------------------------------------

VIANA_A0 = 1.7808  # Misiurewicz-type parameter for the fiber quadratic map


def make_viana(a0: float = VIANA_A0, eps: float = 0.02, d: int = 16) -> DynamicalSystem:
    """(theta, x) -> (d theta mod 1, a0 + eps sin(2 pi theta) - x^2).

    The x-fiber lives on the invariant interval [a_min - a_max^2, a_max];
    construction is rejected with a witness point if the parameters let
    orbits escape it. The critical set {x = 0} is the singular set. The
    base expansion d is a power of two for the classical choice d = 16, so
    long orbits are dithered (see DynamicalSystem.orbit).
    """
    if not (math.isfinite(a0) and math.isfinite(eps)):
        raise ValueError(f"a0 and eps must be finite, got a0={a0}, eps={eps}")
    if d < 16:
        raise ValueError("d must be >= 16")
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    amax = a0 + eps
    amin = a0 - eps
    if not (1.0 < amin and amax < 2.0):
        raise EscapeError(
            witness=(0.25, 0.0),
            message=f"fiber parameter range [{amin}, {amax}] outside (1, 2)",
        )
    if amax * amax > amax + amin:
        # x = -a_max at the theta minimizing the drive escapes below.
        witness = (0.75, -amax)
        raise EscapeError(
            witness=witness,
            message=(
                "invariant interval escapes: a_max^2 > a_max + a_min "
                f"({amax * amax:.6f} > {amax + amin:.6f}); witness {witness}"
            ),
        )
    b_hi = amax
    b_lo = amin - amax * amax
    space = PhaseSpace.cylinder(b_lo, b_hi)
    dd = float(d)

    def ev(pts):
        p = np.atleast_2d(pts)
        theta = _wrap_unit(dd * p[:, 0])
        x = a0 + eps * np.sin(TWO_PI * p[:, 0]) - p[:, 1] ** 2
        return np.column_stack([theta, np.clip(x, b_lo, b_hi)])

    def dfb(pts):
        p = np.atleast_2d(pts)
        out = np.zeros((2, 2, p.shape[0]))
        out[0, 0] = dd
        out[1, 0] = TWO_PI * eps * np.cos(TWO_PI * p[:, 0])
        out[1, 1] = -2.0 * p[:, 1]
        return out

    @_streamed
    def orbit_fn(x0, n, noise):
        theta, x = float(x0[0]), float(x0[1])
        yield theta
        yield x
        for k in range(n):
            new_theta = (dd * theta) % 1.0
            if noise is not None:
                new_theta = (new_theta + noise[k]) % 1.0
            x = a0 + eps * math.sin(TWO_PI * theta) - x * x
            if x < b_lo:
                x = b_lo
            elif x > b_hi:
                x = b_hi
            theta = new_theta
            yield theta
            yield x

    return DynamicalSystem(
        name="viana",
        space=space,
        params={"a0": a0, "eps": eps, "d": d},
        eval_batch=ev,
        differential_batch=dfb,
        singular_set=[SingularHyperplane(1, 0.0, "critical")],
        orbit_fn=orbit_fn,
        dither_scale=DITHER_SCALE,
    )


# ---------------------------------------------------------------------------
# Parameterized families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyHandle:
    """A one-parameter arc of systems with a declared parameter interval."""

    family_id: str
    parameter_name: str
    lo: float
    hi: float
    builder: Callable[[float], DynamicalSystem]

    def build(self, t: float) -> DynamicalSystem:
        if not self.lo <= t <= self.hi:
            raise ValueError(
                f"{self.family_id}: parameter {t} outside [{self.lo}, {self.hi}]"
            )
        return self.builder(t)


FAMILIES = {
    "mp": FamilyHandle("mp", "alpha", 0.0, 1.0 - 1e-9, make_manneville_pomeau),
    "da": FamilyHandle("da", "deformation", 0.0, 1.0 - 1e-9, make_derived_from_anosov),
    "viana": FamilyHandle("viana", "eps", 0.0, 0.05,
                          lambda e: make_viana(VIANA_A0, e, 16)),
    "skew": FamilyHandle("skew", "K", 0.0, 2.0,
                         lambda k: make_standard_skew(k, 2)),
}


def get_family(family_id: str) -> FamilyHandle:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise KeyError(
            f"unknown family {family_id!r}; available: {sorted(FAMILIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Named single systems (CLI surface)
# ---------------------------------------------------------------------------


def whole_number(value, name: str) -> int:
    """value, a number or its text ("1e6" included), as an int; ValueError
    naming it unless it is a finite whole number."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} must be a finite whole number, got {value!r}")
    return int(number)


def finite_nonnegative(value: float, name: str) -> None:
    """ValueError naming value unless it is finite and >= 0; NaN, which
    compares false with everything, is rejected too."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


#: the parameters each named system takes
_SYSTEM_PARAMS = {"cat": (), "cat4": (), "mp": ("alpha",), "da": ("deformation",),
                 "skew": ("K", "N"), "viana": ("a0", "eps", "d")}


def build_system(name: str, params: Optional[dict] = None) -> DynamicalSystem:
    """Construct a system from a name and a parameter mapping; ValueError
    for an unknown name or a parameter the named system does not take."""
    if name not in _SYSTEM_PARAMS:
        raise ValueError(f"unknown system {name!r}; available: {', '.join(_SYSTEM_PARAMS)}")
    p = dict(params or {})
    unknown = sorted(set(p) - set(_SYSTEM_PARAMS[name]))
    if unknown:
        takes = ", ".join(_SYSTEM_PARAMS[name]) or "none"
        raise ValueError(f"system {name!r} takes no parameter {', '.join(unknown)}; "
                         f"its parameters: {takes}")
    if name == "cat":
        return make_cat_map()
    if name == "cat4":
        return make_cat_block(2)
    if name == "mp":
        return make_manneville_pomeau(float(p.get("alpha", 0.0)))
    if name == "da":
        return make_derived_from_anosov(float(p.get("deformation", 0.2)))
    if name == "skew":
        return make_standard_skew(float(p.get("K", 0.5)),
                                  whole_number(p.get("N", 2), "N"))
    return make_viana(float(p.get("a0", VIANA_A0)),
                      float(p.get("eps", 0.02)), whole_number(p.get("d", 16), "d"))
