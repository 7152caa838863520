"""Dense statevector simulation of the block-encoded iteration circuits.

Register conventions
--------------------
The state is a real amplitude vector over ``m`` ancilla qubits tensored
with one n-level data register. Qubit 1 is the leftmost tensor factor,
so reshaping the flat vector to ``(2,)*m + (n,)`` puts qubit i on axis
i-1 and the data register on the last axis. The data register is kept
n-level on purpose: the applied operators are n-dimensional blocks, and
padding to a power of two would introduce behavior on pad states that
nothing defines. Reported qubit totals use ceil(log2 n) for the data
register.

The row algorithm grows three ancillas per iteration (m = 3k+2 after k
iterations); the column algorithm grows two per iteration on each of its
registers (m = 2(k+1)); ``ancillas`` holds that rule. Each iteration
seats a fresh ancilla pair next to the data register and moves the used
pair to the front; ``_park`` does this in one strided copy. The good
branch is the all-zero ancilla component; it carries ||x_k||/v_k times
the unit iterate, where v is the bookkeeping denominator tracked
alongside the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import classical
from .encodings import (
    GivensParams,
    _check_unit,
    column_residual_unitary,
    column_update_unitary,
    embedding_factor,
    givens,
    next_denominator,
    row_unitary,
    state_prep_col,
)
from .errors import InvariantViolation, ResourceError, UsageError
from .schedules import QUANTUM, RelaxationSchedule, SelectionStrategy, check_domain
from .system import COLUMNS_NORMALIZED, ROWS_NORMALIZED, LinearSystem, require_normalization

NORM_TOL = 1e-10
DEFAULT_MEM_LIMIT = 2 * 1024**3  # bytes of statevector, the largest transient included
_FLOAT_BYTES = 8


def ancillas(direction: str, k: int) -> int:
    """Ancillas after k iterations: 3k+2 in row mode, 2(k+1) per column register."""
    if direction not in (classical.ROW, classical.COLUMN):
        raise UsageError(f"direction must be 'row' or 'column', got {direction!r}")
    return 3 * k + 2 if direction == classical.ROW else 2 * (k + 1)


@dataclass(frozen=True)
class RegisterLayout:
    """Ancilla count plus data dimension; qubit 1 = leftmost factor."""

    ancillas: int
    data_dim: int

    @property
    def dim(self) -> int:
        return (1 << self.ancillas) * self.data_dim

    @property
    def qubit_total(self) -> int:
        return self.ancillas + max(1, math.ceil(math.log2(self.data_dim)))


@dataclass(frozen=True)
class SimState:
    """Flat amplitude vector plus layout, step counter and denominator v."""

    vec: np.ndarray
    layout: RegisterLayout
    k: int
    v: float

    def __post_init__(self):
        if self.vec.shape != (self.layout.dim,):
            raise UsageError(
                f"state has {self.vec.shape[0]} amplitudes, layout wants {self.layout.dim}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def dump(self, cutoff: float = 1e-14) -> str:
        """Nonzero amplitudes as '(ancilla bits, data index, amplitude)' lines."""
        m, n = self.layout.ancillas, self.layout.data_dim
        grid = self.vec.reshape((1 << m, n))
        lines = []
        for anc in range(1 << m):
            for d in range(n):
                amp = grid[anc, d]
                if abs(amp) > cutoff:
                    bits = format(anc, f"0{m}b") if m else ""
                    lines.append(f"{bits} {d + 1} {float(amp)!r}")
        return "\n".join(lines) + "\n"


# --- low-level register manipulation ---------------------------------------


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


def assert_normalized(state: SimState, tol: float = NORM_TOL) -> SimState:
    drift = abs(state.norm - 1.0)
    if drift > tol:
        raise InvariantViolation(
            f"statevector norm drifted to {state.norm!r} at k={state.k}"
        )
    return state


# --- shared extraction ------------------------------------------------------


def extract_good_branch(state: SimState):
    """Project onto all-zero ancillas: (amplitude >= 0, unit direction).

    A zeroed good branch reports amplitude 0 with a zero direction.
    """
    n = state.layout.data_dim
    good = state.vec[:n]
    amplitude = float(np.linalg.norm(good))
    if amplitude == 0.0:
        return 0.0, np.zeros(n)
    return amplitude, good / amplitude


@dataclass(frozen=True)
class MeasurementResult:
    outcomes: np.ndarray  # (shots, m) ancilla bits
    success_probability: float  # of the all-zero outcome


def measure_ancillas(state: SimState, seed=None, shots: int = 1) -> MeasurementResult:
    """Sample the ancilla register; reproducible under a fixed seed."""
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    m, n = state.layout.ancillas, state.layout.data_dim
    probs = np.sum(state.vec.reshape((1 << m, n)) ** 2, axis=1)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise InvariantViolation(f"ancilla probabilities sum to {total!r}")
    rng = np.random.default_rng(seed)
    drawn = rng.choice(1 << m, size=shots, p=probs / total)
    bits = ((drawn[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
    return MeasurementResult(outcomes=bits, success_probability=float(probs[0]))


# --- row algorithm ----------------------------------------------------------


def _initial_state(data: np.ndarray) -> SimState:
    vec = np.zeros(4 * data.size)
    vec[: data.size] = data
    return SimState(vec, RegisterLayout(2, data.size), k=0, v=1.0)


def init_row_state(x0) -> SimState:
    """|00> tensor x0 with v=1; x0 must be a unit vector."""
    return _initial_state(_check_unit(x0, "init_row_state"))


def row_mixing(v: float, b_t: float):
    """Weights splitting the iterate branch from the fresh-row branch.

    beta^2 = v^2/(v^2+b_t^2) and gamma = beta*b_t/v (signed so negative
    rhs entries steer the update the right way); beta/v = 1/v' defines
    the next denominator v' = hypot(v, b_t).
    """
    beta = v / math.hypot(v, b_t)
    return beta, beta * b_t / v


def prepare_Y(state: SimState, system: LinearSystem, t: int) -> SimState:
    """Prepend one qubit: beta|0>|X_k> + gamma|1>|0...0>|a_t>."""
    require_normalization(system, ROWS_NORMALIZED, "prepare_Y")
    m, n = state.layout.ancillas, state.layout.data_dim
    if m != ancillas(classical.ROW, state.k):
        raise UsageError(f"iterate state at k={state.k} has {m} ancillas, expected 3k+2")
    beta, gamma = row_mixing(state.v, system.rhs_entry(t))
    vec = np.zeros(2 * state.vec.size)
    vec[: state.vec.size] = beta * state.vec
    vec[state.vec.size : state.vec.size + n] = gamma * system.row(t)
    return SimState(vec, RegisterLayout(m + 1, n), state.k, state.v)


def apply_row_iteration(state: SimState, system: LinearSystem, t: int, lam: float) -> SimState:
    """Execute one full row iteration on a prepared superposition.

    SWAP(1, m-1) routes the fresh-row branch onto the |10> ancilla pair,
    the block operator turns the pair into the relaxed update, and
    ``_park`` moves the used ancillas to the front beside a fresh pair,
    leaving a valid iterate state with 3(k+1)+2 ancillas.
    """
    require_normalization(system, ROWS_NORMALIZED, "apply_row_iteration")
    k = state.k
    m, n = state.layout.ancillas, state.layout.data_dim
    if m != ancillas(classical.ROW, k) + 1:
        raise UsageError(f"prepared state at k={k} has {m} ancillas, expected 3k+3")
    operator = row_unitary(system.row(t), lam)

    vec = _swap_qubits(state.vec, m, n, 1, m - 1)
    vec = _apply_tail_operator(vec, operator.matrix)
    vec = _park(n, {0: vec})

    v_next = next_denominator(classical.ROW, state.v, system, t)
    return SimState(vec, RegisterLayout(m + 2, n), k + 1, v_next)


# --- column algorithm -------------------------------------------------------


@dataclass(frozen=True)
class ColumnInit:
    x_state: SimState
    r_state: SimState | None  # None when r0 = 0 (already solved)
    delta: float
    residual0: np.ndarray
    converged: bool


def init_column_states(x0, system: LinearSystem) -> ColumnInit:
    """Initial iterate and residual registers plus the embedding factor.

    r0 = b - A x0 is computed here. A unit r0 embeds directly (delta=1);
    otherwise delta = 1/||r0|| puts amplitude exactly 1 on the good
    branch, leaving no junk weight. A zero r0 means x0 already solves the
    system and the residual register is not constructed.
    """
    require_normalization(system, COLUMNS_NORMALIZED, "init_column_states")
    x0 = _check_unit(x0, "init_column_states")
    x_state = _initial_state(x0)

    r0 = system.residual(x0)
    r0_norm = float(np.linalg.norm(r0))
    if r0_norm == 0.0:
        return ColumnInit(x_state, None, 1.0, r0, converged=True)
    delta = embedding_factor(r0_norm)
    return ColumnInit(x_state, _initial_state(delta * r0), delta, r0, converged=False)


def column_mixing(v: float, delta: float):
    """Branch weights and the matching rotation for one column iteration.

    beta^2 = c^2 = v*delta/(1 + v*delta); the combined weights satisfy
    c*beta/v = s*gamma*delta = 1/(v + 1/delta), which is what makes the
    good branch land on x_{k+1}/v_{k+1}. For delta=1 this is the
    sqrt((k+1)/(k+2)) schedule with v_k = k+1.
    """
    beta_sq = v * delta / (1.0 + v * delta)
    beta = math.sqrt(beta_sq)
    gamma = math.sqrt(1.0 - beta_sq)
    return beta, gamma


def apply_column_iteration(
    x_state: SimState,
    r_state: SimState,
    system: LinearSystem,
    t: int,
    omega: float,
    delta: float,
):
    """One column iteration: returns (new iterate state, new residual state).

    The iterate register mixes with the prep-rotated residual register on
    a fresh ancilla pair that ``_park`` seats next to the data register,
    the routing operator moves omega*(c_t.r) onto the partner branch, and
    the plane rotation folds it into the good branch. The residual
    register is contracted independently by its own block operator.
    """
    require_normalization(system, COLUMNS_NORMALIZED, "apply_column_iteration")
    k = x_state.k
    if r_state.k != k:
        raise UsageError(f"registers out of step: x at k={k}, r at k={r_state.k}")
    m, n = x_state.layout.ancillas, x_state.layout.data_dim
    if not m == r_state.layout.ancillas == ancillas(classical.COLUMN, k):
        raise UsageError(f"expected 2(k+1) ancillas on both registers at k={k}")
    column = system.column(t)
    beta, gamma = column_mixing(x_state.v, delta)

    rotated_r = _apply_tail_operator(r_state.vec, state_prep_col(column, t).matrix)
    # |00> carries the iterate, |10> the rotated residual.
    psi = _park(n, {0: beta * x_state.vec, 2: gamma * rotated_r})
    psi = _apply_tail_operator(psi, column_update_unitary(t, omega, n).matrix)
    psi = _apply_last_qubit(psi, n, givens(GivensParams(beta, gamma)).matrix)
    v_next = next_denominator(classical.COLUMN, x_state.v, system, t, delta)
    x_next = SimState(psi, RegisterLayout(m + 2, n), k + 1, v_next)

    r_vec = _apply_tail_operator(r_state.vec, column_residual_unitary(column, omega).matrix)
    return x_next, SimState(_park(n, {0: r_vec}), RegisterLayout(m + 2, n), k + 1, 1.0)


# --- full runs ----------------------------------------------------------------


def _guard_memory(k: int, peak_ancillas: int, n: int, mem_limit: int) -> None:
    required = (1 << peak_ancillas) * n * _FLOAT_BYTES
    if required > mem_limit:
        raise ResourceError(k, required, mem_limit)


class _DenseTracker:
    """Tracker for ``classical._drive`` that steps a dense iterate
    register ``state`` ahead of the classical shadow iterate.

    Convergence is detected on the shadow (repeatedly measuring the
    simulated state is not modeled). Records carry the good-branch
    amplitude, the success probability of post-selecting all-zero
    ancillas, and the fidelity between the good branch and the shadow
    direction.
    """

    state: SimState

    def observe(self, x: np.ndarray, x_norm: float):
        amplitude, direction = extract_good_branch(self.state)
        if amplitude == 0.0 or x_norm == 0.0:
            fidelity = 1.0 if amplitude == x_norm else 0.0
        else:
            fidelity = float(abs(direction @ x) / x_norm)
        return amplitude, amplitude * amplitude, fidelity


class _RowTracker(_DenseTracker):
    def __init__(self, system: LinearSystem, x0: np.ndarray, mem_limit: int):
        self.system, self.mem_limit = system, mem_limit
        self.state = assert_normalized(init_row_state(x0))

    def advance(self, k: int, t: int, lam: float) -> None:
        check_domain(lam, QUANTUM, k)
        _guard_memory(k, ancillas(classical.ROW, k + 1), self.system.n, self.mem_limit)
        # Rebinding self.state drops each input as soon as its successor exists.
        self.state = assert_normalized(prepare_Y(self.state, self.system, t))
        self.state = assert_normalized(apply_row_iteration(self.state, self.system, t, lam))


class _ColumnTracker(_DenseTracker):
    def __init__(self, system: LinearSystem, x0: np.ndarray, mem_limit: int):
        self.system, self.mem_limit = system, mem_limit
        init = init_column_states(x0, system)
        self.state, self.r_state, self.delta = init.x_state, init.r_state, init.delta

    def advance(self, k: int, t: int, omega: float) -> None:
        if self.r_state is None:
            raise UsageError("x0 already solves the system; the residual register is empty")
        check_domain(omega, QUANTUM, k)
        _guard_memory(k, ancillas(classical.COLUMN, k + 1), self.system.n, self.mem_limit)
        self.state, self.r_state = apply_column_iteration(
            self.state, self.r_state, self.system, t, omega, self.delta
        )
        assert_normalized(self.state)
        assert_normalized(self.r_state)


def run_algorithm1(
    system: LinearSystem,
    x0,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    tol: float = 1e-10,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """Full row-method simulation; returns (report, final state)."""
    report, tracker = classical._drive(
        system, x0, schedule, strategy, max_steps, classical.ROW, tol,
        partial(_RowTracker, mem_limit=mem_limit),
    )
    return report, tracker.state


def run_algorithm2(
    system: LinearSystem,
    x0,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    tol: float = 1e-10,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """Full column-method simulation; returns (report, x state, r state)."""
    report, tracker = classical._drive(
        system, x0, schedule, strategy, max_steps, classical.COLUMN, tol,
        partial(_ColumnTracker, mem_limit=mem_limit),
    )
    return report, tracker.state, tracker.r_state
