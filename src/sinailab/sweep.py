"""Parameter sweeps over system families with semicontinuity checks.

Each grid point builds its system, approximates the invariant measure, and
runs entropy.run_estimators with a point-specific seed derived from the
config seed and the grid index (so neighboring points share no
randomness); its weak* column compares measures.dictionary_moments of
adjacent points. Discrete upper-semicontinuity and continuity-modulus
checks operate on the resulting entropy curves with explicit slack and
error bars. Every cloud integral, singular-set handling included, lives
in measures.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import entropy
from .entropy import ESTIMATORS, PESIN, check_estimator_args, run_estimators
from .errors import SinaiLabError, SweepAbortError
from .measures import (
    MAX_ULAM_CELLS,
    birkhoff_sample,
    dictionary_moments,
    moment_gap,
    ulam_matrix,
    ulam_stationary,
)
from .systems import finite_nonnegative, get_family

#: intermittent Manneville-Pomeau points mix polynomially; quadruple orbits
MP_SLOW_ALPHA = 0.7
MP_SLOW_FACTOR = 4

#: mode cutoff of the test dictionary behind the weak* column
WEAK_STAR_CUTOFF = 4


@dataclass(frozen=True)
class SweepConfig:
    family: str
    grid: tuple
    estimators: tuple = (PESIN,)
    seed: int = 0
    burn_in: int = 10_000
    length: int = 100_000
    ulam_resolution: Optional[int] = None
    n_max: int = 40
    dim_f: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        try:
            family = get_family(self.family)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        grid = tuple(float(t) for t in self.grid)
        object.__setattr__(self, "grid", grid)
        if len(grid) == 0:
            raise ValueError("empty parameter grid")
        # NaN fails this comparison as well
        outside = [t for t in grid if not family.lo <= t <= family.hi]
        if outside:
            raise ValueError(f"grid values {outside} outside the {family.family_id} "
                             f"parameter interval [{family.lo}, {family.hi}]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.ulam_resolution is not None and self.ulam_resolution < 2:
            raise ValueError("ulam_resolution must be >= 2")
        ests = tuple(self.estimators)
        for e in ests:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}; valid: {ESTIMATORS}")
        object.__setattr__(self, "estimators", ests)
        try:
            dim = family.build(family.lo).space.dim
        except (SinaiLabError, ValueError):
            # no dimension to check against: the points record the failure
            return check_estimator_args(ests, self.n_max, None, None)
        if (self.ulam_resolution or 0) ** dim > MAX_ULAM_CELLS:
            raise ValueError(f"ulam_resolution ** {dim} exceeds {MAX_ULAM_CELLS} cells")
        check_estimator_args(ests, self.n_max, self.dim_f, dim, self.length)

    def point_seed(self, index: int) -> int:
        ss = np.random.SeedSequence([int(self.seed), int(index)])
        return int(ss.generate_state(1)[0])

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "grid": list(self.grid),
            "estimators": list(self.estimators),
            "seed": self.seed,
            "burn_in": self.burn_in,
            "length": self.length,
            "ulam_resolution": self.ulam_resolution,
            "n_max": self.n_max,
            "dim_f": self.dim_f,
            "weak_star_cutoff": WEAK_STAR_CUTOFF,
        }


@dataclass
class SweepRow:
    index: int
    t: float
    estimates: dict = field(default_factory=dict)   # method -> EntropyEstimate
    spectrum_exponents: Optional[list] = None
    spectrum_std_error: Optional[list] = None
    moments: Optional[np.ndarray] = None
    weak_star_prev: Optional[float] = None
    length_used: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "t": self.t,
            "estimates": {k: v.to_json_dict() for k, v in self.estimates.items()},
            "spectrum_exponents": self.spectrum_exponents,
            "spectrum_std_error": self.spectrum_std_error,
            "weak_star_prev": self.weak_star_prev,
            "length_used": self.length_used,
            "error": self.error,
        }


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list

    def curve(self, method: str):
        """(t, value, std_error) arrays over rows where the method ran."""
        ts, vs, es = [], [], []
        for row in self.rows:
            if row.ok and method in row.estimates:
                ts.append(row.t)
                vs.append(row.estimates[method].value)
                es.append(row.estimates[method].std_error)
        return np.asarray(ts), np.asarray(vs), np.asarray(es)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "rows": [r.to_json_dict() for r in self.rows],
        }


def _orbit_length(config: SweepConfig, t: float) -> int:
    length = config.length
    if config.family == "mp" and t >= MP_SLOW_ALPHA:
        length *= MP_SLOW_FACTOR
    return length


def _sweep_point(config: SweepConfig, index: int) -> SweepRow:
    """One grid point's row. A failure is recorded in the row's error as
    "<stage>: <Type>: <msg>", the stage being the step that raised:
    system, measure, moments or estimators."""
    t = config.grid[index]
    row = SweepRow(index=index, t=t)
    stage = "system"
    try:
        family = get_family(config.family)
        system = family.build(t)
        seed = config.point_seed(index)
        length = _orbit_length(config, t)
        row.length_used = length
        stage = "measure"
        if config.ulam_resolution:
            transfer = ulam_matrix(system, config.ulam_resolution,
                                   samples_per_cell=256, seed=seed)
            measure = ulam_stationary(transfer, tol=1e-10)
        else:
            measure = birkhoff_sample(system, seed=seed,
                                      burn_in=config.burn_in, length=length)
        stage = "moments"
        row.moments = dictionary_moments(measure, WEAK_STAR_CUTOFF)
        stage = "estimators"
        row.estimates, spectrum = run_estimators(
            system, measure, config.estimators, seed, config.burn_in, length,
            n_max=config.n_max, dim_f=config.dim_f)
        if PESIN in row.estimates:
            row.spectrum_exponents = spectrum.exponents.tolist()
            row.spectrum_std_error = spectrum.std_error.tolist()
    except (SinaiLabError, ValueError, KeyError) as exc:
        row.error = f"{stage}: {type(exc).__name__}: {exc}"
        row.estimates = {}
        row.moments = None
    return row


#: (prefix, suffix) of the thread-count getter and setter exported by a
#: stock OpenBLAS and by the scipy_openblas builds in numpy's and scipy's
#: wheels (64_: the ILP64 one)
_OPENBLAS_NAMES = tuple((prefix, suffix) for prefix in ("", "scipy_") for suffix in ("", "64_"))


@contextmanager
def _one_thread():
    """Run every OpenBLAS loaded in this process on one thread, and the LS
    table in one block, for the block.

    run_sweep opens it around its fork pool, so the workers start with the
    cap and keep to their core: the LS table keeps its cloud in one block
    and forks no helper (entropy._ls_threads = 1), and OpenBLAS never runs
    its default pool, whose helper threads busy-wait after each threaded
    call on cores the other workers need. Setting the OpenBLAS count inside
    a fresh fork would itself start a spinning helper, since OpenBLAS's
    fork handler has shut the pool down. Each library's count is read
    through its getter, and both it and the LS budget are set back on
    exit, also on an exception; raising the OpenBLAS count again restarts
    the caller's pool once. The libraries are found in /proc/self/maps;
    without /proc, or under another BLAS, only the LS budget changes.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]}
    except OSError:
        paths = set()
    saved = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                saved.append((setter, getter()))
                setter(1)
    ls_threads, entropy._ls_threads = entropy._ls_threads, 1
    try:
        yield
    finally:
        entropy._ls_threads = ls_threads
        # in reverse, so a library reached under two names ends at the
        # count read before the first of them capped it
        for setter, count in reversed(saved):
            setter(count)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the configured estimators at every grid point.

    Deterministic given the config (including worker count: rows are
    assembled in grid order and every point derives its own seed). Raises
    SweepAbortError when more than 20% of the points fail; individual
    failures are recorded in their rows and the sweep continues. Pool
    workers are forked with every loaded OpenBLAS capped at one thread and
    the LS table at one block each (_one_thread), which the caller gets
    back at its own counts when the pool has shut down; fork is pinned so
    the workers inherit the cap whatever the platform's default start
    method. The cap changes no number: the LS table's blocks and
    OpenBLAS's threads leave every bit as it is. Workers get the points
    longest orbit first, grid order among equal lengths, so no long point
    starts last. The serial path keeps the defaults: OpenBLAS's count, and
    an LS table split across the cores this process may run on.
    """
    n = len(config.grid)
    if config.workers > 1 and n > 1:
        if config.ulam_resolution:
            # ulam_matrix imports scipy.sparse on first use; importing it
            # here, before the fork, spares each worker the import
            import scipy.sparse  # noqa: F401
        order = sorted(range(n), key=lambda i: -_orbit_length(config, config.grid[i]))
        with _one_thread(), ProcessPoolExecutor(
                max_workers=min(config.workers, n),
                mp_context=multiprocessing.get_context("fork")) as pool:
            rows = list(pool.map(_sweep_point, [config] * n, order))
    else:
        rows = [_sweep_point(config, i) for i in range(n)]
    rows.sort(key=lambda r: r.index)
    failed = sum(1 for r in rows if not r.ok)
    if failed > 0.2 * n:
        raise SweepAbortError(failed=failed, total=n)
    for prev, cur in zip(rows, rows[1:]):
        if prev.ok and cur.ok and prev.moments is not None and cur.moments is not None:
            cur.weak_star_prev = moment_gap(cur.moments, prev.moments)
    return SweepResult(config=config, rows=rows)


# ---------------------------------------------------------------------------
# Curve checks
# ---------------------------------------------------------------------------


@dataclass
class USCReport:
    window: int
    slack: float
    witnesses: list          # dicts: {method, t, value, neighbor_t, neighbor_value,
                             #         excess, allowed}
    passed: bool

    def to_json_dict(self) -> dict:
        return {"window": self.window, "slack": self.slack,
                "witnesses": self.witnesses, "passed": self.passed}


def check_usc_args(window: Optional[int] = None, slack: Optional[float] = None) -> None:
    """ValueError when a given usc_check window is below 1 or a given slack
    is negative or not finite. Sweep configs run it before they sample."""
    if window is not None and window < 1:
        raise ValueError(f"usc window must be >= 1, got {window}")
    if slack is not None:
        finite_nonnegative(slack, "usc slack")


def usc_check(result: SweepResult, window: int = 1, slack: float = 0.05) -> USCReport:
    """Flag grid points that sit below the trend of their neighborhood.

    For t at grid index k and a neighbor at index j = k - m or k + m
    (1 <= m <= window), the excess is h(j) - h(t). The trend step is the
    step over the next m grid steps in the same direction: from index
    b = j + (j - k) to j, i.e. h(b) - h(j). When b lies off the grid, or
    that step turns the other way (<= 0, as past a dip at b), the step
    from t onward, h(t) - h(k - (j - k)), stands in for it. A trend step
    that continues the descent toward t (positive) is subtracted from the
    excess; when neither step exists or continues the descent there is
    none, which leaves the plain level comparison. The error is
    se(t) + se(j), plus the standard errors of the trend step's two
    points when it is subtracted (linear propagation, so the neighbor
    counts twice in the second difference h(b) - 2 h(j) + h(t)).

    A witness at t means the corrected excess exceeds slack + error: a
    jump into t's neighborhood standing out from the local trend, the
    discrete failure mode of upper semicontinuity. A continuous curve
    that falls steeply but evenly raises none. Each witness names the
    neighbor with the largest margin over its bound. See check_usc_args
    for the values window and slack may take.
    """
    check_usc_args(window, slack)
    ok_rows = [r for r in result.rows if r.ok]
    if len(ok_rows) < 3:
        raise ValueError("usc_check needs at least 3 successful grid points")
    witnesses = []
    methods = set()
    for row in ok_rows:
        methods.update(row.estimates)
    for method in sorted(methods):
        rows = [r for r in ok_rows if method in r.estimates]
        h = [r.estimates[method].value for r in rows]
        se = [r.estimates[method].std_error for r in rows]
        n = len(rows)
        for k in range(n):
            worst = None
            for m in range(1, window + 1):
                for j in (k - m, k + m):
                    if not 0 <= j < n:
                        continue
                    excess = h[j] - h[k]
                    err = se[k] + se[j]
                    b, f = j + (j - k), k - (j - k)
                    trend = [(h[b] - h[j], se[b] + se[j])] if 0 <= b < n else []
                    if 0 <= f < n:
                        trend.append((h[k] - h[f], se[k] + se[f]))
                    step, step_err = next(((s, e) for s, e in trend if s > 0.0),
                                          (0.0, 0.0))
                    excess -= step
                    err += step_err
                    margin = excess - slack - err
                    if worst is None or margin > worst[0]:
                        worst = (margin, j, excess, slack + err)
            if worst is not None and worst[0] > 0.0:
                _, j, excess, allowed = worst
                witnesses.append({
                    "method": method,
                    "t": rows[k].t,
                    "value": h[k],
                    "neighbor_t": rows[j].t,
                    "neighbor_value": h[j],
                    "excess": excess,
                    "allowed": allowed,
                })
    return USCReport(window=window, slack=slack, witnesses=witnesses,
                     passed=not witnesses)


@dataclass
class ContinuityModulus:
    per_method: dict         # method -> {max_gap, at, gaps}

    def max_gap(self, method: str) -> float:
        return self.per_method[method]["max_gap"]

    def to_json_dict(self) -> dict:
        return {"per_method": self.per_method}


def continuity_modulus(result: SweepResult) -> ContinuityModulus:
    """Largest adjacent entropy gap per method, with its location, plus the
    companion weak* distances where available."""
    ok_rows = [r for r in result.rows if r.ok]
    if len(ok_rows) < 2:
        raise ValueError("continuity_modulus needs at least 2 successful points")
    methods = set()
    for row in ok_rows:
        methods.update(row.estimates)
    per_method = {}
    for method in sorted(methods):
        rows = [r for r in ok_rows if method in r.estimates]
        gaps = []
        for a, b in zip(rows, rows[1:]):
            gaps.append({
                "from_t": a.t,
                "to_t": b.t,
                "gap": abs(b.estimates[method].value - a.estimates[method].value),
                "weak_star": b.weak_star_prev,
            })
        if not gaps:
            continue
        worst = max(gaps, key=lambda g: g["gap"])
        per_method[method] = {
            "max_gap": worst["gap"],
            "at": [worst["from_t"], worst["to_t"]],
            "gaps": gaps,
        }
    return ContinuityModulus(per_method=per_method)

