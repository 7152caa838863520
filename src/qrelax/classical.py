"""Exact classical relaxed row and column iterations.

This module is the ground-truth oracle: both simulators are validated
against the trajectories produced here, and both run on its one loop,
``_drive``, as trackers of the quantum state beside the classical
iterate. The steps use the simplified unit-norm update formulas, so they
insist on normalized systems instead of dividing by row/column norms on
the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QrelaxError, UsageError
from .report import CONVERGED, RunReport
from .schedules import (
    CLASSICAL,
    GREEDY_RESIDUAL,
    QUANTUM,
    RelaxationSchedule,
    SelectionStrategy,
    check_domain,
    index_block,
    relaxation_block,
    rule_horizon,
    select_index,
)
from .system import COLUMNS_NORMALIZED, ROWS_NORMALIZED, LinearSystem, require_normalization

ROW = "row"
COLUMN = "column"
# The residual norm at which a run converges when its caller gives no tol.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class RowIterate:
    x: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class ColumnIterate:
    x: np.ndarray
    r: np.ndarray
    k: int = 0


def kaczmarz_step(it: RowIterate, system: LinearSystem, t: int, lam: float) -> RowIterate:
    """Relaxed projection onto the hyperplane of equation t.

    x <- x + lam * (b_t - a_t.x) * a_t, valid because ||a_t|| = 1.
    """
    require_normalization(system, ROWS_NORMALIZED, "kaczmarz_step")
    check_domain(lam, CLASSICAL, it.k)
    a = system.row(t)
    gap = system.rhs_entry(t) - float(a @ it.x)
    return RowIterate(it.x + lam * gap * a, it.k + 1)


def column_step(it: ColumnIterate, system: LinearSystem, t: int, omega: float) -> ColumnIterate:
    """One coordinate-descent update on component t.

    x_t gains omega * (c_t.r); the residual contracts along c_t as
    r <- (I - omega c_t c_t^T) r, which keeps r = b - A x.
    """
    require_normalization(system, COLUMNS_NORMALIZED, "column_step")
    check_domain(omega, CLASSICAL, it.k)
    c = system.column(t)
    correlation = float(c @ it.r)
    x = np.array(it.x)
    x[t - 1] += omega * correlation
    r = it.r - omega * correlation * c
    return ColumnIterate(x, r, it.k + 1)


def exact_solution(system: LinearSystem):
    """Direct elimination with partial pivoting; None when singular.

    The result is accepted only if ||A x - b|| <= 1e-10 * ||b||, so
    numerically-singular systems also report as singular instead of
    returning garbage, at any scale of b. With b = 0 the defect must be
    0, as it is for x = 0, which the solve returns for any non-singular A.
    """
    try:
        x = np.linalg.solve(system.matrix, system.rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    if _norms(system.matrix @ x - system.rhs) > 1e-10 * _norms(system.rhs):
        return None
    return x


def _solution_of(system: LinearSystem):
    """``exact_solution(system)``, solved once per system and kept on it.

    The system is frozen with read-only arrays, so the cached x* (or None
    when singular) cannot go stale; it is made read-only as well.
    """
    cache = system.__dict__
    if "_x_star" not in cache:
        x_star = exact_solution(system)
        if x_star is not None:
            x_star.setflags(write=False)
        cache["_x_star"] = x_star
    return cache["_x_star"]


def _gram_row(system: LinearSystem, t: int) -> np.ndarray:
    """Row t of the Gram matrix A^T A: entry j is c_t . c_j."""
    return system.matrix.T @ system.matrix[:, t - 1]


def _gram_rows(system: LinearSystem) -> dict:
    """The Gram rows greedy column runs have stepped along, by t.

    Each is built by ``_gram_row`` the first time a run steps along c_t
    and kept on the system, read-only, as ``_solution_of`` keeps x*, so
    a run takes at most one gemv per column it picks and later runs on
    the system take none for it.
    """
    return system.__dict__.setdefault("_gram_rows", {})


def run_classical(
    system: LinearSystem,
    x0: np.ndarray,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    mode: str,
    tol: float = DEFAULT_TOL,
) -> RunReport:
    """Iterate until the residual norm drops to ``tol`` or ``max_steps``.

    Row mode needs a rows-normalized system, column mode a
    columns-normalized one. Per-step records carry the true recomputed
    residual and, when the system is non-singular, the error against the
    directly-solved x*.
    """
    reports, _ = _drive(system, x0, [schedule], strategy, max_steps, mode, tol)
    return reports[0]


def _dots(u, v):
    """u[..., i, :] @ v[..., i, :] for each row i; a 1-D ``u`` stands
    for every row.

    Stacked 1 x n by n x 1 products are one BLAS dot per row, so each
    entry has the bits of the one-row product; ``u @ v.T`` (a gemm) and
    ``np.linalg.norm(u, axis=1)`` (a pairwise sum) do not.
    """
    return np.matmul(u[..., None, :], v[..., None])[..., 0, 0]


# A sum of squares below the smallest normal double may have lost bits
# to underflow, and one above the largest double is inf.
_NORMAL, _LARGEST = float(np.finfo(float).tiny), float(np.finfo(float).max)
# Up to this many squares are range-checked as Python floats: numpy's min
# and max cost about 3.4 us together at any size, the Python check about
# 1.4 us plus 0.08 us a square, so it is the cheaper up to 24 squares and
# even at 27 (2-vCPU host, numpy 2.4). One-step chunks (3 squares a lane)
# fall below, an 8-lane chunk of 2 or more steps above.
_FEW_SQUARES = 24


def _norms(u):
    """The 2-norm of u[..., i, :] for each row i, or of a 1-D ``u``.

    Where a row's sum of squares is normal and finite, its norm is the
    root of that ``_dots`` sum, bit for bit (np.linalg.norm of the row).
    Only the other rows are summed again, scaled by the power of two that
    brings their largest entry into [0.5, 1): that scaling is exact, so a
    row's norm is 0 only for a zero row and inf only for a norm above the
    largest double or a row with an inf. As with np.linalg.norm, a plain
    sum that overflows warns unless numpy's overflow warnings are off,
    as they are in ``_drive``.
    """
    squares = _dots(u, u)
    if squares.size <= _FEW_SQUARES:
        normal = all(_NORMAL <= s <= _LARGEST for s in np.ravel(squares).tolist())
    else:
        normal = squares.min() >= _NORMAL and squares.max() <= _LARGEST
    if normal:
        return np.sqrt(squares)
    rows, flat = u.reshape(-1, u.shape[-1]), np.reshape(squares, -1)
    redo = ~((flat >= _NORMAL) & (flat <= _LARGEST))
    _, exponents = np.frexp(np.abs(rows[redo]).max(axis=1))
    scaled = np.ldexp(rows[redo], -exponents[:, None])
    norms = np.sqrt(flat)
    norms[redo] = np.ldexp(np.sqrt(_dots(scaled, scaled)), exponents)
    return norms.reshape(np.shape(squares))


def _products(matrix, v, out=None):
    """matrix @ v[i] for each row i, one gemv per row; written to ``out`` if given."""
    return np.matmul(matrix, v[:, :, None], out=None if out is None else out[:, :, None])[:, :, 0]


# A chunk holds as many steps as fit CHUNK_BYTES of iterates, at most
# CHUNK_STEPS and at least one; its residuals and norms are one call
# each. The step cap bounds the waste: at most CHUNK_STEPS - 1 steps are
# stepped past a lane's last record (with the byte cap alone a one-lane
# run at n=2 steps 32768 steps per chunk). The byte cap bounds the
# memory: the chunk array of iterates, residuals and, with an x*, errors
# is at most 3 * CHUNK_BYTES, unless one step's block is larger.
#
# Time against 16 steps and 32 KiB, medians of 100 interleaved rounds of
# the grid (2-vCPU host, numpy 2.4), for an 8-lane random row sweep at
# n=50 (3,200 bytes a step) / random row runs at n=1000 / random column
# runs at n=1000 (8,000 bytes a step):
#
#   steps \ KiB        32              128             256             512
#   16          1.00/1.00/1.00  0.95/0.93/0.86  0.93/0.92/0.84  0.95/0.94/0.87
#   32          0.95/0.99/1.01  0.85/0.93/0.85  0.86/0.92/0.81  0.84/0.92/0.80
#   64          0.93/0.98/0.98  0.81/0.95/0.85  0.80/0.93/0.82  0.81/0.91/0.77
#   128         0.94/1.01/1.01  0.81/0.95/0.85  0.80/0.91/0.80  0.79/0.92/0.79
#
# 64 steps at 512 KiB is the smallest pair within noise of the best: at
# 32 steps the sweep takes 1.06 times as long (faster in 31 of 100 paired
# rounds), and at 256 KiB the column runs, whose chunks hold 32 steps
# instead of 64, take 1.06 times as long (slower in 62 of 80 paired
# rounds).
CHUNK_BYTES = 512 * 1024
CHUNK_STEPS = 64
# The most indices one refill takes (see _Lookahead). A block costs
# about 120 us plus 0.12 us an index, so an index of a block of 4096
# costs about a quarter of one of a block of 256.
DRAW_STEPS = 4096


class _Lookahead:
    """The indices of the steps ahead under a rule that does not read the
    iterate, from ``index_block`` in blocks; only the current block is kept.

    When a chunk of steps from step k runs past the block, the block is
    refilled up to step k + max(steps, min(DRAW_STEPS, max(k, DRAW_STEPS
    // 8))), but not past ``max_steps``: the first block holds 512 steps
    (the whole budget of a shorter run), and later ones grow with the
    run. The run goes on past step k, so a random run draws at most
    max(CHUNK_STEPS - 1, min(max(steps taken, DRAW_STEPS // 8),
    DRAW_STEPS)) indices past its last record and none past its budget:
    never more than 4096 (under 1 ms of draws).
    """

    def __init__(self, strategy, n, max_steps):
        self.strategy, self.n, self.max_steps, self.first, self.ts = strategy, n, max_steps, 0, []

    def __call__(self, k, steps):
        """The indices of steps k, ..., k + steps - 1."""
        end = self.first + len(self.ts)
        if end < k + steps:
            stop = min(self.max_steps, k + max(steps, min(DRAW_STEPS, max(k, DRAW_STEPS // 8))))
            ahead = index_block(self.strategy, end, stop - end, self.n)
            self.ts, self.first = self.ts[k - self.first:] + ahead, k
        return self.ts[k - self.first:k - self.first + steps]


# The u of _Correlations' error bounds: machine epsilon, twice the unit
# roundoff, so they also cover the screen's own rounding and columns
# normalized only to within UNIT_TOL of 1.
_EPS = float(np.finfo(float).eps)
# Below this ||r|| the products of the gemv and of the carry may be
# subnormal, with absolute errors the relative bounds do not hold. At or
# above it, the 2^-1075 an underflowing product can lose is under 2^-570
# of the bounds, whose factor-2 margins absorb it.
_TINY = 2.0 ** -450


class _Correlations:
    """Greedy column selection from a carried z = A^T r per block row.

    A column step moves r by -update * c_t, so A^T r moves by
    -update * G[t - 1] with G = A^T A, whose rows ``_gram_rows`` keeps:
    O(n) a step where the gemv ``_products(matrix.T, r)`` is O(n^2). A
    row's E bounds |z - A^T r| entrywise. The gemv itself is within
    gamma * ||r|| of A^T r in any summation order (columns of unit norm,
    gamma = n u / (1 - n u)), so when the largest |z| beats the runner-up
    by more than 2 (E + gamma ||r||), the gemv's argmax is the same
    unique index. Every other step, ties, non-finite entries and
    ||r|| < ``_TINY`` included, takes the gemv and ``select_index`` on
    it, and restarts z from that gemv with E = gamma ||r|| (infinite
    below ``_TINY``). Each index is thus the one the gemv would pick.

    ``carry`` grows E by twice the step's rounding bound: gamma |update|
    for the rounding of G, plus u (4 |update| + max |z| + ||r||) for the
    two vector updates, with max |z| and ||r|| taken at the step's start
    (the 4 |update| also covers their growth within the step).
    """

    def __init__(self, system, strategy, lanes):
        n = system.n
        self.system, self.strategy, self.rows = system, strategy, _gram_rows(system)
        self.gamma = n * _EPS / (1 - n * _EPS)
        self.z, self.drift = np.zeros((lanes, n)), np.full(lanes, math.inf)
        self.top = self.norms = None

    def keep(self, rows):
        self.z, self.drift = self.z[rows], self.drift[rows]

    def __call__(self, k, residual, norms):
        """The index of step k + 1 for each block row, from its residual
        and the residual's norm (``_record``'s)."""
        z, rows = self.z, np.arange(len(self.z))
        magnitude = np.abs(z)
        best = np.argmax(magnitude, axis=1)
        top = magnitude[rows, best]
        magnitude[rows, best] = -1.0
        self.norms = norms
        gemv_error = np.where(self.norms >= _TINY, self.gamma * self.norms, math.inf)
        sure = (top - magnitude.max(axis=1) > 2 * (self.drift + gemv_error)) & (top < math.inf)
        ts = (best + 1).tolist()
        if not sure.all():
            stale = np.flatnonzero(~sure)
            context = _products(self.system.matrix.T, residual[stale])
            z[stale], self.drift[stale] = context, gemv_error[stale]
            top[stale] = np.abs(context).max(axis=1)
            for row, c in zip(stale.tolist(), context):
                ts[row] = select_index(self.strategy, k, self.system.n, c)
        self.top = top
        return ts

    def carry(self, row, t, update):
        """Block row ``row`` stepped ``update`` along column t."""
        gram = self.rows.get(t)
        if gram is None:
            gram = self.rows[t] = _gram_row(self.system, t)
            gram.setflags(write=False)
        self.z[row] -= update * gram
        size = abs(update)
        growth = self.gamma * size + _EPS * (4 * size + self.top[row] + self.norms[row])
        self.drift[row] += 2 * growth


# _require_finite reports overflow; numpy's warnings would only precede it.
@np.errstate(over="ignore", invalid="ignore")
def _drive(system, x0, schedules, strategy, max_steps, mode, tol, track=None,
           report_type=RunReport):
    """The run loop shared by every engine: one lane per schedule, all
    lanes in lockstep; returns (reports, trackers), one of each per lane.

    At its start the run works out each lane's horizon (``rule_horizon``):
    the first step its selection or schedule cannot serve in the run's
    domain, the quantum one when there are trackers. A horizon at or past
    ``max_steps`` is none.

    The live lanes are the rows of one (lanes, n) block of iterates and
    one of residuals, and the loop runs them in chunks of steps, each in
    four phases:

    - plan: the index t and each lane's relaxation for up to C steps,
      slices of ``relaxation_block`` and of the ``_Lookahead``. Greedy
      selection reads the residual of every step, so its chunks are one
      step long. In column mode it reads A^T r, carried per lane in O(n)
      a step through rows of the Gram matrix (``_Correlations``), each
      built on the system the first time a run picks its column, with
      the exact gemv only where the carried vector cannot certify its
      argmax. No chunk steps past the nearest horizon of a live lane.
    - step (``_step``): only the iterates (and, in column mode, the
      carried residuals) move, into a chunk that stacks the (lanes, n)
      blocks of every step.
    - measure: one ``_products`` call gives a row-mode chunk's
      residuals (in ``_step``), and one ``_norms`` call the norms of
      [X; R; X - x*] (in ``_record``).
    - emit (``_record``): lane by lane in step order, the records go to
      each lane's ``report_type()``. A lane's first converged record,
      first non-finite record, failed tracker step or horizon record
      ends its chunk there, so at most C - 1 steps are wasted; a
      failing lane emits none, since the run raises.

    C is the most steps whose (steps, lanes, n) iterate block fits in
    ``CHUNK_BYTES`` (512 KiB, so the chunk array of a chunk of two or
    more steps is at most 1.5 MiB), at most ``CHUNK_STEPS`` (64) and at
    least 1; it grows as lanes leave. Every product is a BLAS call per
    row on the operands of a one-lane, one-step run, so each lane's
    records and final x are those of running its schedule alone, step by
    step, bit for bit.

    A lane leaves the block when it converges or raises a QrelaxError.
    The lanes after a failed lane leave with it, and the first failed
    lane's error is raised once no lane before it is left: the error
    that running the schedules one after another would raise. x* comes
    from ``_solution_of``, so it is solved once per system, not once per
    run. ``track(system, x0)`` builds an optional tracker per lane for a
    quantum engine. In the emit pass each tracker takes its lane's chunk,
    up to the cut, in one ``extend(first, ts, values, xs, x_norms)``: it
    returns the amplitude, success probability and fidelity columns of
    those records, or raises the error of the first step it cannot take.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"tol must be finite and >= 0, got {tol!r}")
    if max_steps < 0:
        raise UsageError(f"max_steps must be >= 0, got {max_steps}")
    if mode not in (ROW, COLUMN):
        raise UsageError(f"mode must be {ROW!r} or {COLUMN!r}, got {mode!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.n,):
        raise UsageError(f"x0 has shape {x0.shape}, expected ({system.n},)")
    if not np.all(np.isfinite(x0)):
        raise UsageError(f"x0 has non-finite entries: {x0.tolist()}")
    kind = ROWS_NORMALIZED if mode == ROW else COLUMNS_NORMALIZED
    require_normalization(system, kind, f"{mode}-mode run")
    trackers = [None if track is None else track(system, x0) for _ in schedules]
    domain = CLASSICAL if track is None else QUANTUM
    horizons = [rule_horizon(strategy, schedule, domain, system.n) for schedule in schedules]
    horizons = [(k, error) if k < max_steps else (math.inf, None) for k, error in horizons]
    x_star = _solution_of(system)
    greedy = strategy.variant == GREEDY_RESIDUAL
    lookahead = None if greedy else _Lookahead(strategy, system.n, max_steps)
    correlations = None
    if greedy and mode == COLUMN:
        correlations = _Correlations(system, strategy, len(schedules))

    reports = [report_type() for _ in schedules]
    error = None
    lanes = list(range(len(schedules)))  # the lane of each block row
    # The chunk: ts[j] holds step first + j's index per block row and
    # values[row] a block row's relaxations, one per step; chunk[0] and
    # chunk[1] hold the iterates and residuals after each step, one block
    # after another, and chunk[2] their errors when there is an x*.
    chunk = np.empty((2 if x_star is None else 3, len(lanes), system.n))
    chunk[0], chunk[1] = x0, system.residual(x0)
    first = 0
    ts, values = [[None] * len(lanes)], [[None]] * len(lanes)
    while True:
        kept, failure, residual_norms = _record(first, chunk, ts, values, x_star, lanes, reports,
                                                trackers, tol, horizons)
        error = error if failure is None else failure
        k, last = first + len(ts) - 1, slice(-len(lanes), None)
        x, residual = chunk[0, last], chunk[1, last]
        if len(kept) < len(lanes):
            lanes, x, residual = [lanes[row] for row in kept], x[kept], residual[kept]
            residual_norms = residual_norms[kept]
            if correlations is not None:
                correlations.keep(kept)
        if k == max_steps or not lanes:
            break

        if correlations is not None:
            ts = [correlations(k, residual, residual_norms)]
        elif greedy:
            ts = [[select_index(strategy, k, system.n, r) for r in residual]]
        else:
            horizon = min(horizons[lane][0] for lane in lanes)
            steps = min(max(1, CHUNK_BYTES // x.nbytes), CHUNK_STEPS, max_steps - k, horizon - k)
            ts = [[t] * len(lanes) for t in lookahead(k, steps)]
        values = [relaxation_block(schedules[lane], k, len(ts)) for lane in lanes]
        chunk = _step(mode, system, x, residual, ts, values, greedy, len(chunk), correlations)
        first = k + 1

    if error is not None:
        raise error
    for row, lane in enumerate(lanes):
        reports[lane].final_x = x[row].copy()
    return reports, trackers


def _step(mode, system, x, residual, ts, values, greedy, depth, correlations):
    """The (lanes, n) block stepped through the plan: a (depth, steps *
    lanes, n) chunk whose first two layers hold the iterates and the
    residuals after each step, one block after another. A column step
    also moves ``correlations``, unless None, by its update."""
    matrix, rhs = system.matrix, system.rhs
    width = len(x)
    chunk = np.empty((depth, len(ts) * width, x.shape[1]))
    xs, rs = chunk[0], chunk[1]
    if mode == ROW:
        scales = np.array(values).T
        for j, chosen in enumerate(ts):
            # One t for every lane: an int index takes a row view, not a
            # gathered copy per lane.
            index = np.array(chosen) - 1 if greedy and len(chosen) > 1 else chosen[0] - 1
            a = matrix[index]
            gap = rhs[index] - _dots(a, x)
            x = np.add(x, (scales[j] * gap)[:, None] * a, out=xs[j * width:(j + 1) * width])
        _products(matrix, xs, out=rs)
        np.subtract(rhs, rs, out=rs)
        return chunk
    # column_step on each row of a copy of the last block. Its dot with
    # the strided column view sums in another order than a dot over a
    # contiguous copy, so it stays one dot per lane.
    for j, chosen in enumerate(ts):
        block = slice(j * width, (j + 1) * width)
        xs[block], rs[block] = x, residual
        x, residual = xs[block], rs[block]
        for row, t in enumerate(chosen):
            column = matrix[:, t - 1]
            update = values[row][j] * float(column @ residual[row])
            x[row, t - 1] += update
            residual[row] -= update * column
            if correlations is not None:
                correlations.carry(row, t, update)
    return chunk


def _require_finite(k, x, residual):
    """The error of a run whose iterate or residual overflowed, or None.

    Called only when a record's norm is not finite; a finite vector whose
    norm is above the largest double also has an infinite norm, so the
    entries themselves decide.
    """
    for name, v in (("iterate", x), ("residual", residual)):
        if not np.all(np.isfinite(v)):
            return QrelaxError(
                f"{name} became non-finite at step k={k} (overflow); "
                "lower the relaxation or rescale the system"
            )


def _record(first, chunk, ts, values, x_star, lanes, reports, trackers, tol, horizons):
    """Measures a chunk and emits its records; returns the block rows
    whose lanes run on, the error of the lane that failed, or None, and
    the residual norm of each block row after the chunk's last step.

    Row j * lanes + row of ``chunk[0]`` and ``chunk[1]`` is the iterate
    and residual of block row ``row`` after step first + j, made by
    ``ts[j][row]`` and ``values[row][j]`` (None at k=0); its error
    against ``x_star`` goes to ``chunk[2]``. A lane's records run in
    step order up to its cut, found for the whole chunk with a few numpy
    calls: its first record that converged or whose norm is not finite.
    A non-finite norm of finite vectors (a norm above about 1.8e308) is
    emitted and the lane goes on; an overflow fails the lane at that
    record. A lane with no cut that reaches its horizon record
    (``horizons[lane]``, the last record of a chunk) fails there with
    the horizon's error. A tracker takes the records up to the cut in
    one ``extend``, whose error wins over an overflow or a horizon. A
    failing lane and the lanes after it build no records, since the run
    raises; any other lane's records go to its report in one ``extend``.
    """
    if x_star is not None:
        np.subtract(chunk[0], x_star, out=chunk[2])
    width = len(lanes)
    norms = _norms(chunk).reshape(len(chunk), len(ts), width)
    x_norms, residual_norms = norms[0], norms[1]
    stops = (residual_norms <= tol) | ~(np.isfinite(x_norms) & np.isfinite(residual_norms))
    stopped = stops.any(axis=0).tolist()
    # Per field, per lane: the lane's records' entries of that field.
    fields = norms.transpose(0, 2, 1).tolist()
    if x_star is None:
        fields.append([[None] * len(ts)] * width)
    lane_ts = list(zip(*ts))
    kept = []
    for row, lane in enumerate(lanes):
        x_norm, residual_norm, error = (field[row] for field in fields)
        cut, failure = None, None
        for j in np.flatnonzero(stops[:, row]).tolist() if stopped[row] else ():
            at = j * width + row
            if not (math.isfinite(x_norm[j]) and math.isfinite(residual_norm[j])):
                failure = _require_finite(first + j, chunk[0, at], chunk[1, at])
            if failure is not None or residual_norm[j] <= tol:
                cut = j
                break
        if cut is None and first + len(ts) - 1 == horizons[lane][0]:
            failure = horizons[lane][1]
        end = len(ts) if cut is None else cut + 1
        chosen, relaxations, x_norm = lane_ts[row][:end], values[row][:end], x_norm[:end]
        observed = ()
        if trackers[lane] is not None:
            try:
                observed = trackers[lane].extend(first, chosen, relaxations, chunk[0, row::width],
                                                 x_norm)
            except QrelaxError as exc:
                failure = exc
        if failure is not None:
            return kept, failure, residual_norms[-1]
        report = reports[lane]
        report.extend(first, chosen, relaxations, x_norm, residual_norm[:end], error[:end],
                      *observed)
        if cut is None:
            kept.append(row)
        else:
            report.status = CONVERGED
            report.final_x = chunk[0, cut * width + row].copy()
    return kept, None, residual_norms[-1]
