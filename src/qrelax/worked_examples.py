"""Built-in worked examples and the published values they must reproduce.

Two tiny reference systems are embedded with their two-step explicit
configurations; every quantity below is stored as an exact expression
(sqrt(10)/2, not a decimal) so the 1e-10 comparison tolerance is
meaningful. ``reference_checks`` replays both configurations on all
three engines and returns one row per checked quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import branch, classical, statevector
from .system import LinearSystem, normalize_columns, normalize_rows

TOLERANCE = 1e-10

_R2 = math.sqrt(2.0)


def row_example():
    """2x2 system with unit rows, start (1,0), steps (t=1, 1/3), (t=2, 1)."""
    a = np.array([[1 / _R2, 1 / _R2], [1 / _R2, -1 / _R2]])
    b = np.array([2 * _R2, _R2])
    system = normalize_rows(LinearSystem(a, b))
    x0 = np.array([1.0, 0.0])
    steps = [(1, 1.0 / 3.0), (2, 1.0)]
    return system, x0, steps


def column_example():
    """2x2 system with unit columns, start (0,1), steps (t=1, 1/2), (t=1, 1)."""
    a = np.array([[-1 / _R2, 1 / _R2], [-1 / _R2, -1 / _R2]])
    b = np.array([_R2, 0.0])
    system = normalize_columns(LinearSystem(a, b))
    x0 = np.array([0.0, 1.0])
    steps = [(1, 0.5), (1, 1.0)]
    return system, x0, steps


ROW_EXPECTED = {
    "beta_0": 1.0 / 3.0,
    "beta_1": 3.0 / math.sqrt(11.0),
    "v_1": 3.0,
    "v_2": math.sqrt(11.0),
    "x_norm_1": math.sqrt(10.0) / 2.0,
    "x_norm_2": 2.0,
    "x_dir_1": (3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0)),
    "x_dir_2": (1.0, 0.0),
    "success_2": 4.0 / 11.0,
}

COLUMN_EXPECTED = {
    "r_norm_0": 1.0,
    "r_dir_0": (1 / _R2, 1 / _R2),
    "x_norm_1": math.sqrt(5.0) / 2.0,
    "x_dir_1": (-1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)),
    "r_norm_1": 0.5,
    "r_dir_1": (1 / _R2, 1 / _R2),
    "x_norm_2": _R2,
    "x_dir_2": (-1 / _R2, 1 / _R2),
    "r_norm_2": 0.0,
    "v_1": 2.0,
    "v_2": 3.0,
}


@dataclass(frozen=True)
class Check:
    example: str
    engine: str
    quantity: str
    expected: tuple
    actual: tuple
    tolerance: float = TOLERANCE

    @property
    def deviation(self) -> float:
        return float(max(abs(e - a) for e, a in zip(self.expected, self.actual)))

    @property
    def passed(self) -> bool:
        return len(self.expected) == len(self.actual) and self.deviation <= self.tolerance


def _check(example, engine, quantity, expected, actual) -> Check:
    as_tuple = lambda v: tuple(float(x) for x in np.atleast_1d(v))
    return Check(example, engine, quantity, as_tuple(expected), as_tuple(actual))


def _unit(vec):
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else np.zeros_like(vec)


def _row_checks() -> list[Check]:
    system, x0, steps = row_example()
    exp = ROW_EXPECTED
    checks = []

    # classical oracle
    it = classical.RowIterate(x0)
    for j, (t, lam) in enumerate(steps, start=1):
        it = classical.kaczmarz_step(it, system, t, lam)
        checks.append(_check("row", "classical", f"x_norm_{j}", exp[f"x_norm_{j}"], np.linalg.norm(it.x)))
        checks.append(_check("row", "classical", f"x_dir_{j}", exp[f"x_dir_{j}"], _unit(it.x)))

    # branch simulator: adds the amplitude bookkeeping
    st = branch.init_row_branch(x0)
    v_seen = [st.v]
    for j, (t, lam) in enumerate(steps, start=1):
        st = branch.row_branch_step(st, system, t, lam)
        v_seen.append(st.v)
        checks.append(_check("row", "branch", f"x_norm_{j}", exp[f"x_norm_{j}"], np.linalg.norm(st.x)))
        checks.append(_check("row", "branch", f"x_dir_{j}", exp[f"x_dir_{j}"], _unit(st.x)))
        checks.append(_check("row", "branch", f"v_{j}", exp[f"v_{j}"], st.v))
        checks.append(_check("row", "branch", f"beta_{j - 1}", exp[f"beta_{j - 1}"], v_seen[j - 1] / v_seen[j]))
    checks.append(_check("row", "branch", "success_2", exp["success_2"], st.success_probability))

    # statevector simulator: every quantity measured off the state
    state = statevector.init_row_state(x0)
    for j, (t, lam) in enumerate(steps, start=1):
        prepared = statevector.prepare_Y(state, system, t)
        beta_measured = np.linalg.norm(prepared.vec[:-1])  # all but the fresh-row block
        checks.append(_check("row", "statevector", f"beta_{j - 1}", exp[f"beta_{j - 1}"], beta_measured))
        state = statevector.apply_row_iteration(prepared, system, t, lam)
        amplitude, direction = statevector.extract_good_branch(state)
        checks.append(_check("row", "statevector", f"v_{j}", exp[f"v_{j}"], state.v))
        checks.append(_check("row", "statevector", f"x_norm_{j}", exp[f"x_norm_{j}"], amplitude * state.v))
        checks.append(_check("row", "statevector", f"x_dir_{j}", exp[f"x_dir_{j}"], direction))
    amplitude, _ = statevector.extract_good_branch(state)
    checks.append(_check("row", "statevector", "success_2", exp["success_2"], amplitude * amplitude))
    return checks


def _column_checks() -> list[Check]:
    system, x0, steps = column_example()
    exp = COLUMN_EXPECTED
    checks = []

    # classical oracle
    it = classical.ColumnIterate(x0, system.residual(x0))
    checks.append(_check("column", "classical", "r_norm_0", exp["r_norm_0"], np.linalg.norm(it.r)))
    checks.append(_check("column", "classical", "r_dir_0", exp["r_dir_0"], _unit(it.r)))
    for j, (t, omega) in enumerate(steps, start=1):
        it = classical.column_step(it, system, t, omega)
        checks.append(_check("column", "classical", f"x_norm_{j}", exp[f"x_norm_{j}"], np.linalg.norm(it.x)))
        checks.append(_check("column", "classical", f"x_dir_{j}", exp[f"x_dir_{j}"], _unit(it.x)))
        checks.append(_check("column", "classical", f"r_norm_{j}", exp[f"r_norm_{j}"], np.linalg.norm(it.r)))
        if f"r_dir_{j}" in exp:
            checks.append(_check("column", "classical", f"r_dir_{j}", exp[f"r_dir_{j}"], _unit(it.r)))

    # branch simulator
    st = branch.init_column_branch(x0, system)
    for j, (t, omega) in enumerate(steps, start=1):
        st = branch.column_branch_step(st, system, t, omega)
        checks.append(_check("column", "branch", f"x_norm_{j}", exp[f"x_norm_{j}"], np.linalg.norm(st.x)))
        checks.append(_check("column", "branch", f"x_dir_{j}", exp[f"x_dir_{j}"], _unit(st.x)))
        checks.append(_check("column", "branch", f"r_norm_{j}", exp[f"r_norm_{j}"], np.linalg.norm(st.r)))
        checks.append(_check("column", "branch", f"v_{j}", exp[f"v_{j}"], st.v))

    # statevector simulator
    init = statevector.init_column_states(x0, system)
    checks.append(_check("column", "statevector", "r_norm_0", exp["r_norm_0"],
                         np.linalg.norm(init.residual0)))
    x_state, r_state = init.x_state, init.r_state
    for j, (t, omega) in enumerate(steps, start=1):
        x_state, r_state = statevector.apply_column_iteration(
            x_state, r_state, system, t, omega, init.delta
        )
        x_amp, x_dir = statevector.extract_good_branch(x_state)
        r_amp, r_dir = statevector.extract_good_branch(r_state)
        checks.append(_check("column", "statevector", f"v_{j}", exp[f"v_{j}"], x_state.v))
        checks.append(_check("column", "statevector", f"x_norm_{j}", exp[f"x_norm_{j}"], x_amp * x_state.v))
        checks.append(_check("column", "statevector", f"x_dir_{j}", exp[f"x_dir_{j}"], x_dir))
        # good branch of the residual register carries delta*||r||
        checks.append(_check("column", "statevector", f"r_norm_{j}", exp[f"r_norm_{j}"], r_amp / init.delta))
        if f"r_dir_{j}" in exp:
            checks.append(_check("column", "statevector", f"r_dir_{j}", exp[f"r_dir_{j}"], r_dir))
    return checks


def reference_checks() -> list[Check]:
    """Replay both worked examples on all three engines; one row per value."""
    return _row_checks() + _column_checks()
