"""Dense statevector oracle for the support-sparse engine.

This is the engine as it was before states were stored by support: one
flat amplitude vector over all 2^m ancilla basis states tensored with the
n-level data register, with qubit 1 the leftmost factor. Tests run it
beside ``qrelax.statevector`` and compare through ``densify``. Its memory
guard counts the vectors the dense kernels hold at an iteration's peak,
so a dense run stops where the dense engine would really run out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from qrelax import classical, statevector as sv
from qrelax.encodings import (
    GivensParams,
    column_residual_unitary,
    column_update_unitary,
    givens,
    next_denominator,
    row_unitary,
    state_prep_col,
)
from qrelax.errors import ResourceError, UsageError
from qrelax.schedules import QUANTUM, check_domain

# Peak bytes of one dense iteration, in vectors of its input register's
# size (the prepared vector in row mode), inputs included: measured with
# tracemalloc on the kernels below (6.0 and 12.0 at n=2 and n=8).
ROW_PEAK_VECTORS = 6
COLUMN_PEAK_VECTORS = 12


@dataclass
class DenseState:
    vec: np.ndarray  # ((1 << ancillas) * n,)
    ancillas: int
    k: int
    v: float


def densify(state: sv.SimState) -> np.ndarray:
    """The flat dense amplitude vector of a sparse state."""
    n = state.layout.data_dim
    dense = np.zeros(((1 << state.layout.ancillas), n))
    dense[state.keys] = state.vec
    return dense.reshape(-1)


def sparsify(vec: np.ndarray, layout: sv.RegisterLayout, k: int, v: float) -> sv.SimState:
    """A sparse state that stores every key of a dense vector."""
    keys = np.arange(1 << layout.ancillas, dtype=np.int64)
    return sv.SimState(keys, vec.reshape(keys.size, layout.data_dim).copy(), layout, k, v)


def _swap_qubits(vec: np.ndarray, m: int, n: int, i: int, j: int) -> np.ndarray:
    """Exchange ancilla qubits i and j (1-based)."""
    if not (1 <= i <= m and 1 <= j <= m):
        raise UsageError(f"swap ({i},{j}) outside 1..{m}")
    tensor = vec.reshape((2,) * m + (n,))
    return np.swapaxes(tensor, i - 1, j - 1).reshape(-1)


def _apply_tail_operator(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` on the trailing factors its width spans: 4n-by-4n on
    (last two ancillas) tensor (data), n-by-n on the data register."""
    out = vec.reshape((-1, mat.shape[0])) @ mat.T
    return out.reshape(-1)


def _apply_last_qubit(vec: np.ndarray, n: int, mat2: np.ndarray) -> np.ndarray:
    """Apply a single-qubit operator on the last ancilla."""
    tensor = vec.reshape((-1, 2, n))
    return np.einsum("ab,xbd->xad", mat2, tensor).reshape(-1)


def _park(n: int, parts: dict[int, np.ndarray]) -> np.ndarray:
    """Map equal-size m-ancilla vectors ``{slot: vec}`` to m+2 ancillas.

    Equals prepending two qubits in |slot> (qubit 1 the high bit) to each
    vec, summing, then SWAP(1, m+1) and SWAP(2, m+2).
    """
    size = next(iter(parts.values())).size
    out = np.zeros((4, size // (4 * n), 4, n))
    for slot, vec in parts.items():
        out[:, :, slot, :] = vec.reshape((-1, 4, n)).transpose(1, 0, 2)
    return out.reshape(-1)


def _initial(data: np.ndarray) -> DenseState:
    vec = np.zeros(4 * data.size)
    vec[: data.size] = data
    return DenseState(vec, 2, 0, 1.0)


def init_row_state(x0) -> DenseState:
    return _initial(np.asarray(x0, dtype=float))


def prepare_Y(state: DenseState, system, t: int) -> DenseState:
    n = system.n
    beta, gamma = sv.row_mixing(state.v, system.rhs_entry(t))
    vec = np.zeros(2 * state.vec.size)
    vec[: state.vec.size] = beta * state.vec
    vec[state.vec.size : state.vec.size + n] = gamma * system.row(t)
    return DenseState(vec, state.ancillas + 1, state.k, state.v)


def apply_row_iteration(state: DenseState, system, t: int, lam: float) -> DenseState:
    m, n = state.ancillas, system.n
    vec = _swap_qubits(state.vec, m, n, 1, m - 1)
    vec = _apply_tail_operator(vec, row_unitary(system.row(t), lam).matrix)
    vec = _park(n, {0: vec})
    v_next = next_denominator(classical.ROW, state.v, system, t)
    return DenseState(vec, m + 2, state.k + 1, v_next)


def init_column_states(x0, system):
    """(x state, r state, delta) as ``statevector.init_column_states`` builds them."""
    init = sv.init_column_states(x0, system)
    return _initial(init.x_state.vec[0]), _initial(init.r_state.vec[0]), init.delta


def apply_column_iteration(x_state, r_state, system, t, omega, delta):
    m, n = x_state.ancillas, system.n
    column = system.column(t)
    beta, gamma = sv.column_mixing(x_state.v, delta)
    rotated_r = _apply_tail_operator(r_state.vec, state_prep_col(column, t).matrix)
    psi = _park(n, {0: beta * x_state.vec, 2: gamma * rotated_r})
    psi = _apply_tail_operator(psi, column_update_unitary(t, omega, n).matrix)
    psi = _apply_last_qubit(psi, n, givens(GivensParams(beta, gamma)).matrix)
    v_next = next_denominator(classical.COLUMN, x_state.v, system, t, delta)
    r_vec = _apply_tail_operator(r_state.vec, column_residual_unitary(column, omega).matrix)
    return (DenseState(psi, m + 2, x_state.k + 1, v_next),
            DenseState(_park(n, {0: r_vec}), m + 2, x_state.k + 1, 1.0))


def extract_good_branch(state: DenseState, n: int):
    good = state.vec[:n]
    amplitude = float(np.linalg.norm(good))
    if amplitude == 0.0:
        return 0.0, np.zeros(n)
    return amplitude, good / amplitude


def dump(vec: np.ndarray, m: int, n: int, cutoff: float = 1e-14) -> str:
    """The dense engine's ``SimState.dump`` text."""
    grid = vec.reshape((1 << m, n))
    lines = []
    for anc in range(1 << m):
        for d in range(n):
            amp = grid[anc, d]
            if abs(amp) > cutoff:
                bits = format(anc, f"0{m}b") if m else ""
                lines.append(f"{bits} {d + 1} {float(amp)!r}")
    return "\n".join(lines) + "\n"


def guard(k: int, direction: str, n: int, mem_limit: int) -> None:
    """Raise ResourceError when the dense kernels' peak bytes for
    iteration k -> k+1 are over ``mem_limit``."""
    if direction == classical.ROW:
        required = ROW_PEAK_VECTORS * (1 << (sv.ancillas(direction, k) + 1)) * n * 8
    else:
        required = COLUMN_PEAK_VECTORS * (1 << sv.ancillas(direction, k)) * n * 8
    if required > mem_limit:
        raise ResourceError(k, required, mem_limit)


class _DenseTracker(sv._Tracker):
    def observe(self, x, x_norm):
        amplitude, direction = extract_good_branch(self.state, self.system.n)
        if amplitude == 0.0 or x_norm == 0.0:
            fidelity = 1.0 if amplitude == x_norm else 0.0
        else:
            fidelity = float(abs(direction @ x) / x_norm)
        return amplitude, amplitude * amplitude, fidelity


class _RowTracker(_DenseTracker):
    def __init__(self, system, x0, mem_limit):
        self.system, self.mem_limit = system, mem_limit
        self.state = init_row_state(x0)

    def advance(self, k, t, lam):
        check_domain(lam, QUANTUM, k)
        guard(k, classical.ROW, self.system.n, self.mem_limit)
        self.state = prepare_Y(self.state, self.system, t)
        self.state = apply_row_iteration(self.state, self.system, t, lam)


class _ColumnTracker(_DenseTracker):
    def __init__(self, system, x0, mem_limit):
        self.system, self.mem_limit = system, mem_limit
        self.state, self.r_state, self.delta = init_column_states(x0, system)

    def advance(self, k, t, omega):
        check_domain(omega, QUANTUM, k)
        guard(k, classical.COLUMN, self.system.n, self.mem_limit)
        self.state, self.r_state = apply_column_iteration(
            self.state, self.r_state, self.system, t, omega, self.delta
        )


def run_algorithm1(system, x0, schedule, strategy, max_steps, tol=1e-10,
                   mem_limit=sv.DEFAULT_MEM_LIMIT):
    reports, (tracker,) = classical._drive(
        system, x0, [schedule], strategy, max_steps, classical.ROW, tol,
        partial(_RowTracker, mem_limit=mem_limit),
    )
    return reports[0], tracker.state


def run_algorithm2(system, x0, schedule, strategy, max_steps, tol=1e-10,
                   mem_limit=sv.DEFAULT_MEM_LIMIT):
    reports, (tracker,) = classical._drive(
        system, x0, [schedule], strategy, max_steps, classical.COLUMN, tol,
        partial(_ColumnTracker, mem_limit=mem_limit),
    )
    return reports[0], tracker.state, tracker.r_state
