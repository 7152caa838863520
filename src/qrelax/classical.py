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
from .report import CONVERGED, MAX_STEPS, RunReport, StepRecord
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
    report, _ = _drive(system, x0, schedule, strategy, max_steps, mode, tol)
    return report


# _require_finite reports overflow; numpy's warnings would only precede it.
@np.errstate(over="ignore", invalid="ignore")
def _drive(system, x0, schedule, strategy, max_steps, mode, tol, track=None):
    """The run loop shared by every engine; returns (report, tracker).

    The loop owns the classical iterate, the residual, the greedy
    context (r in row mode, A^T r in column mode; built only for greedy
    selection, the one rule that reads it), index selection, the
    convergence test and the records. x* comes from ``_solution_of``, so
    it is solved once per system, not once per run. ``track(system, x0)``
    builds an optional tracker for a quantum engine: ``advance(k, t,
    value)`` runs ahead of each classical step, and ``observe(x,
    x_norm)`` returns the (amplitude, success probability, fidelity) of
    each record.
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
    tracker = None if track is None else track(system, x0)
    x_star = _solution_of(system)
    greedy = strategy.variant == GREEDY_RESIDUAL
    if mode == ROW:
        it, step = RowIterate(np.array(x0)), kaczmarz_step
    else:
        it, step = ColumnIterate(np.array(x0), system.residual(x0)), column_step

    report = RunReport()
    t_used, value_used = None, None
    for k in range(max_steps + 1):
        residual = system.residual(it.x) if mode == ROW else it.r
        record = _record(k, t_used, value_used, it.x, residual, x_star, tracker)
        if not (math.isfinite(record.x_norm) and math.isfinite(record.residual_norm)):
            _require_finite(k, it.x, residual)
        report.append(record)
        report.final_x = it.x
        if record.residual_norm <= tol:
            report.status = CONVERGED
            return report, tracker
        if k == max_steps:
            break
        context = None
        if greedy:
            context = residual if mode == ROW else system.matrix.T @ residual
        t_used = select_index(strategy, k, system.n, residual=context)
        value_used = relaxation_at(schedule, k)
        if tracker is not None:
            tracker.advance(k, t_used, value_used)
        it = step(it, system, t_used, value_used)

    report.status = MAX_STEPS
    return report, tracker


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


def _record(k, t, relaxation, x, residual, x_star, tracker) -> StepRecord:
    x_norm = float(np.linalg.norm(x))
    error = None if x_star is None else float(np.linalg.norm(x - x_star))
    observed = (None, None, None) if tracker is None else tracker.observe(x, x_norm)
    amplitude, probability, fidelity = observed
    return StepRecord(
        k=k,
        t=t,
        relaxation=relaxation,
        x_norm=x_norm,
        residual_norm=float(np.linalg.norm(residual)),
        error_norm=error,
        amplitude=amplitude,
        success_probability=probability,
        fidelity=fidelity,
    )
