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

from .errors import DomainError, QrelaxError, UsageError
from .report import CONVERGED, RunReport, StepRecord
from .schedules import (
    CLASSICAL,
    GREEDY_RESIDUAL,
    RelaxationSchedule,
    SelectionStrategy,
    relaxation_at,
    select_index,
)
from .system import COLUMNS_NORMALIZED, ROWS_NORMALIZED, LinearSystem, require_normalization

ROW = "row"
COLUMN = "column"


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
    if not 0.0 <= lam <= 2.0:
        raise DomainError(lam, CLASSICAL, it.k)
    a = system.row(t)
    gap = system.rhs_entry(t) - float(a @ it.x)
    return RowIterate(it.x + lam * gap * a, it.k + 1)


def column_step(it: ColumnIterate, system: LinearSystem, t: int, omega: float) -> ColumnIterate:
    """One coordinate-descent update on component t.

    x_t gains omega * (c_t.r); the residual contracts along c_t as
    r <- (I - omega c_t c_t^T) r, which keeps r = b - A x.
    """
    require_normalization(system, COLUMNS_NORMALIZED, "column_step")
    if not 0.0 <= omega <= 2.0:
        raise DomainError(omega, CLASSICAL, it.k)
    c = system.column(t)
    correlation = float(c @ it.r)
    x = np.array(it.x)
    x[t - 1] += omega * correlation
    r = it.r - omega * correlation * c
    return ColumnIterate(x, r, it.k + 1)


def exact_solution(system: LinearSystem):
    """Direct elimination with partial pivoting; None when singular.

    The result is accepted only if ||A x - b|| <= 1e-10 * (1 + ||b||), so
    numerically-singular systems also report as singular instead of
    returning garbage.
    """
    try:
        x = np.linalg.solve(system.matrix, system.rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    defect = np.linalg.norm(system.matrix @ x - system.rhs)
    if defect > 1e-10 * (1.0 + np.linalg.norm(system.rhs)):
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


def run_classical(
    system: LinearSystem,
    x0: np.ndarray,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    mode: str,
    tol: float = 1e-10,
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
    """u[i] @ v[i] for each row i; a 1-D ``u`` stands for every row.

    Stacked 1 x n by n x 1 products are one BLAS dot per row, so each
    entry has the bits of the one-row product; ``u @ v.T`` (a gemm) and
    ``np.linalg.norm(u, axis=1)`` (a pairwise sum) do not.
    """
    return np.matmul(u[..., None, :], v[:, :, None])[:, 0, 0]


def _products(matrix, v):
    """matrix @ v[i] for each row i, one gemv per row."""
    return np.matmul(matrix, v[:, :, None])[:, :, 0]


# _require_finite reports overflow; numpy's warnings would only precede it.
@np.errstate(over="ignore", invalid="ignore")
def _drive(system, x0, schedules, strategy, max_steps, mode, tol, track=None,
           report_type=RunReport):
    """The run loop shared by every engine: one lane per schedule, all
    lanes in lockstep; returns (reports, trackers), one of each per lane.

    The live lanes are the rows of one (lanes, n) block of iterates and
    one of residuals. The loop owns these blocks, the greedy context (r
    in row mode, A^T r in column mode; built only for greedy selection,
    the one rule that reads it), index selection, the convergence test
    and the records. Greedy selection picks t per lane; the other rules
    pick one t per step for every lane. Each lane takes its relaxation
    from its own schedule. Every block product is a BLAS call per row on
    the operands of a one-lane run, so each lane's records and final x
    are those of running its schedule alone, bit for bit.

    A lane leaves the block when it converges or raises a QrelaxError.
    The lanes after a failed lane leave with it, and the first failed
    lane's error is raised once no lane before it is left: the error
    that running the schedules one after another would raise. x* comes
    from ``_solution_of``, so it is solved once per system, not once per
    run. ``track(system, x0)`` builds an optional tracker per lane for a
    quantum engine: ``advance(k, t, value)`` runs ahead of each
    classical step, and ``observe(x, x_norm)`` returns the (amplitude,
    success probability, fidelity) of each record. Each lane's records go
    to a ``report_type()``.
    """
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
    x_star = _solution_of(system)
    greedy = strategy.variant == GREEDY_RESIDUAL
    matrix, rhs = system.matrix, system.rhs

    reports = [report_type() for _ in schedules]
    failures = {}
    lanes = list(range(len(schedules)))  # the lane of each block row
    x = np.tile(x0, (len(lanes), 1))
    residual = np.tile(system.residual(x0), (len(lanes), 1))
    chosen = values = [None] * len(lanes)  # the selection that produced each row
    for k in range(max_steps + 1):
        records = _record(k, chosen, values, x, residual, x_star, [trackers[i] for i in lanes])
        kept = []
        for row, (lane, record) in enumerate(zip(lanes, records)):
            if not (math.isfinite(record.x_norm) and math.isfinite(record.residual_norm)):
                try:
                    _require_finite(k, x[row], residual[row])
                except QrelaxError as exc:
                    failures[lane] = exc
                    continue
            reports[lane].append(record)
            if record.residual_norm <= tol:
                reports[lane].status = CONVERGED
                reports[lane].final_x = x[row]
            else:
                kept.append(row)
        lanes, x, residual = _keep(kept, failures, lanes, x, residual)
        if k == max_steps or not lanes:
            break

        try:
            if greedy:
                context = residual if mode == ROW else _products(matrix.T, residual)
                chosen = [select_index(strategy, k, system.n, residual=c) for c in context]
            else:
                chosen = [select_index(strategy, k, system.n)] * len(lanes)
        except QrelaxError as exc:
            failures.update(dict.fromkeys(lanes, exc))
            break
        kept, values = [], []
        for row, (lane, t) in enumerate(zip(lanes, chosen)):
            value = None
            try:
                value = relaxation_at(schedules[lane], k)
                if trackers[lane] is not None:
                    trackers[lane].advance(k, t, value)
                kept.append(row)
            except QrelaxError as exc:
                failures[lane] = exc
            values.append(value)
        lanes, x, residual, chosen, values = _keep(
            kept, failures, lanes, x, residual, chosen, values
        )
        if not lanes:
            break

        if mode == ROW:
            # One t for every lane: an int index takes a row view, not a
            # gathered copy per lane.
            index = np.array(chosen) - 1 if greedy and len(lanes) > 1 else chosen[0] - 1
            a = matrix[index]
            gap = rhs[index] - _dots(a, x)
            x = x + (np.array(values) * gap)[:, None] * a
            residual = rhs - _products(matrix, x)
        else:
            # column_step on each row, in place (a lane's final_x view is
            # only taken of a block that compaction then replaces). Its dot
            # with the strided column view sums in another order than a
            # dot over a contiguous copy, so it stays one dot per lane.
            for row, (t, value) in enumerate(zip(chosen, values)):
                column = matrix[:, t - 1]
                update = value * float(column @ residual[row])
                x[row, t - 1] += update
                residual[row] -= update * column

    if failures:
        raise failures[min(failures)]
    for row, lane in enumerate(lanes):
        reports[lane].final_x = x[row]
    return reports, trackers


def _keep(rows, failures, lanes, x, residual, *lists):
    """The block cut to ``rows``, less the rows of lanes after the first
    failed lane: ``lanes`` and ``lists`` are lists, ``x`` and ``residual``
    arrays, each with one entry per row."""
    if failures:
        first = min(failures)
        rows = [row for row in rows if lanes[row] < first]
    if len(rows) == len(lanes):
        return (lanes, x, residual, *lists)
    cut = [[entries[row] for row in rows] for entries in (lanes, *lists)]
    return (cut[0], x[rows], residual[rows], *cut[1:])


def _require_finite(k, x, residual):
    """Stop a run whose iterate or residual overflowed to inf or nan.

    Called only when a record's norm is not finite; a finite vector with
    entries above about 1e154 also has an infinite norm, so the entries
    themselves decide.
    """
    for name, v in (("iterate", x), ("residual", residual)):
        if not np.all(np.isfinite(v)):
            raise QrelaxError(
                f"{name} became non-finite at step k={k} (overflow); "
                "lower the relaxation or rescale the system"
            )


def _record(k, ts, values, x, residual, x_star, trackers) -> list[StepRecord]:
    """The step-k record of each block row; ``ts`` and ``values`` are the
    rows' selections (None at k=0)."""
    rows = len(x)
    blocks = np.concatenate((x, residual) if x_star is None else (x, residual, x - x_star))
    # The root of a row's dot is np.linalg.norm of that row, bit for bit.
    norms = np.sqrt(_dots(blocks, blocks)).tolist()
    x_norms, residual_norms = norms[:rows], norms[rows:2 * rows]
    errors = norms[2 * rows:] or [None] * rows
    records = []
    for row, tracker in enumerate(trackers):
        observed = (None, None, None) if tracker is None else tracker.observe(x[row], x_norms[row])
        # Positional, in RECORD_FIELDS order: keywords cost a third more per record.
        records.append(StepRecord(k, ts[row], values[row], x_norms[row], residual_norms[row],
                                  errors[row], *observed))
    return records
