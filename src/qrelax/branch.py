"""Compressed simulator tracking only the post-selected good branch.

The full statevector never feeds amplitude from junk branches back into
the all-zero-ancilla component (the cross-simulator suite checks this
rather than trusting it), so the good branch is fully described by the
classical iterate plus exact amplitude bookkeeping. That compression is
what lets runs scale to large n and step counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import classical
from .encodings import _check_unit, embedding_factor, next_denominator
from .errors import UsageError
from .report import RunReport
from .schedules import QUANTUM, RelaxationSchedule, SelectionStrategy, check_domain
from .system import COLUMNS_NORMALIZED, LinearSystem, require_normalization


@dataclass(frozen=True)
class BranchState:
    """Unnormalized iterate x, denominator v, and (column mode) residual.

    The good-branch amplitude is ||x||/v and the post-selection success
    probability its square; ``delta`` is the residual embedding factor,
    giving the residual register amplitude delta*||r||.
    """

    x: np.ndarray
    v: float
    k: int = 0
    r: np.ndarray | None = None
    delta: float = 1.0

    @property
    def amplitude(self) -> float:
        return float(classical._norms(self.x)) / self.v

    @property
    def success_probability(self) -> float:
        amplitude = self.amplitude
        return amplitude * amplitude

    @property
    def residual_amplitude(self) -> float:
        if self.r is None:
            raise UsageError("row-mode state has no residual register")
        return self.delta * float(classical._norms(self.r))


def init_row_branch(x0) -> BranchState:
    return BranchState(np.array(_check_unit(x0, "init_row_branch")), v=1.0)


def init_column_branch(x0, system: LinearSystem) -> BranchState:
    require_normalization(system, COLUMNS_NORMALIZED, "init_column_branch")
    x0 = _check_unit(x0, "init_column_branch")
    r0 = system.residual(x0)
    delta = embedding_factor(float(classical._norms(r0)))
    return BranchState(np.array(x0), v=1.0, r=r0, delta=delta)


def row_branch_step(state: BranchState, system: LinearSystem, t: int, lam: float) -> BranchState:
    """x picks up the relaxed projection; v advances by ``next_denominator``."""
    check_domain(lam, QUANTUM, state.k)
    it = classical.kaczmarz_step(classical.RowIterate(state.x, state.k), system, t, lam)
    return BranchState(it.x, v=next_denominator(classical.ROW, state.v, system, t), k=it.k)


def column_branch_step(state: BranchState, system: LinearSystem, t: int, omega: float) -> BranchState:
    """Coordinate update plus residual contraction; v advances by ``next_denominator``."""
    if state.r is None:
        raise UsageError("column_branch_step needs a column-mode state (with residual)")
    check_domain(omega, QUANTUM, state.k)
    it = classical.column_step(classical.ColumnIterate(state.x, state.r, state.k), system, t, omega)
    v = next_denominator(classical.COLUMN, state.v, system, t, state.delta)
    return BranchState(it.x, v=v, k=it.k, r=it.r, delta=state.delta)


class _BranchTracker:
    """Tracker for ``classical._drive``: the good branch is the classical
    iterate over v, so only v and delta are kept."""

    def __init__(self, mode: str, system: LinearSystem, x0: np.ndarray):
        start = init_row_branch(x0) if mode == classical.ROW else init_column_branch(x0, system)
        self.mode, self.system, self.v, self.delta = mode, system, start.v, start.delta

    def extend(self, first, ts, values, xs, x_norms):
        amplitudes = []
        for t, x_norm in zip(ts, x_norms):
            if t is not None:
                self.v = next_denominator(self.mode, self.v, self.system, t, self.delta)
            amplitudes.append(x_norm / self.v)
        return amplitudes, [a * a for a in amplitudes], [1.0] * len(amplitudes)


def run_branch(
    system: LinearSystem,
    x0,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    mode: str,
    tol: float = classical.DEFAULT_TOL,
) -> RunReport:
    """Compressed run with the same record schema as the statevector runs."""
    reports, _ = classical._drive(
        system, x0, [schedule], strategy, max_steps, mode, tol, partial(_BranchTracker, mode)
    )
    return reports[0]
