"""Support-sparse statevector simulation of the block-encoded iteration circuits.

Register conventions
--------------------
The state is a real amplitude vector over ``m`` ancilla qubits tensored
with one n-level data register, stored by support: ``keys`` is the
sorted int64 array of the ancilla basis states (keys) whose n-amplitude
data block is stored, and ``vec`` holds those blocks as a (K, n) array.
Every other block is zero. Qubit 1 is the most significant of the m key
bits, so key 0 is the all-zero ancilla state. The data register is kept
n-level on purpose: the applied operators are n-dimensional blocks, and
padding to a power of two would introduce behavior on pad states that
nothing defines. Reported qubit totals use ceil(log2 n) for the data
register.

The row algorithm grows three ancillas per iteration (m = 3k+2 after k
iterations); the column algorithm grows two per iteration on each of its
registers (m = 2(k+1)); ``ancillas`` holds that rule. Each iteration
seats a fresh ancilla pair next to the data register and moves the used
pair to the front; on keys that is the bit map ``_park_keys``, and a
SWAP is an exchange of two key bits. A 4n-by-4n operator on the last
ancilla pair acts on the keys that share ``key >> 2``: each such group
is gathered into one zero-filled row of a (G, 4n) buffer and multiplied
by the operator's matrix. An output key is stored when a non-zero block
of the operator feeds it from a stored key. Support is decided from the
keys and the operators' block patterns only, never by testing an
amplitude against zero, so an amplitude that cancels exactly keeps its
key. A row run therefore stores at most 3^k of the 4*8^k blocks: each
iteration feeds one fresh row into three of the four slots of a pair.

The good branch is key 0; it carries ||x_k||/v_k times the unit
iterate, where v is the bookkeeping denominator tracked alongside the
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .errors import InvariantViolation, KeyWidthError, ResourceError, UsageError
from .schedules import RelaxationSchedule, SelectionStrategy
from .system import COLUMNS_NORMALIZED, ROWS_NORMALIZED, LinearSystem, require_normalization

NORM_TOL = 1e-10
# Bytes one iteration may hold at its predicted peak: the live input
# blocks, the gather buffer and operator output, the new blocks, their
# int64 index arrays and every operator kept on the system (see
# _guard_memory).
DEFAULT_MEM_LIMIT = 2 * 1024**3
_FLOAT_BYTES = 8
# int64 words of keys and indices the guard counts beside each block row;
# with it the prediction is 1.3-2.4x the tracemalloc peak for n = 1..16.
_INDEX_WORDS = 3
# Most ancillas a register may have: prepare_Y adds one qubit to a
# 62-ancilla row register, which fills the 63 value bits of an int64 key.
KEY_BITS = 62


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
    def qubit_total(self) -> int:
        return self.ancillas + max(1, math.ceil(math.log2(self.data_dim)))


@dataclass(frozen=True)
class SimState:
    """Stored ancilla keys and their data blocks, plus layout, step
    counter and denominator v."""

    keys: np.ndarray  # (K,) int64, sorted and distinct
    vec: np.ndarray  # (K, n): the data block of each key
    layout: RegisterLayout
    k: int
    v: float

    def __post_init__(self):
        n, m = self.layout.data_dim, self.layout.ancillas
        if self.keys.ndim != 1 or self.vec.shape != (self.keys.size, n):
            raise UsageError(
                f"state has {self.vec.shape} blocks for {self.keys.size} keys, layout wants n={n}"
            )
        keys = self.keys
        if keys.size and (keys[0] < 0 or keys[-1] >> m or np.any(keys[1:] <= keys[:-1])):
            raise UsageError(f"ancilla keys must be sorted, distinct and below 2^{m}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def dump(self) -> str:
        """Amplitudes above 1e-14 as '(ancilla bits, data index, amplitude)' lines."""
        m = self.layout.ancillas
        lines = []
        for i, d in zip(*np.nonzero(np.abs(self.vec) > 1e-14)):
            bits = format(int(self.keys[i]), f"0{m}b") if m else ""
            lines.append(f"{bits} {d + 1} {float(self.vec[i, d])!r}")
        return "\n".join(lines) + "\n"


# --- keys and routes ------------------------------------------------------------


def _swap_keys(keys: np.ndarray, m: int, i: int, j: int) -> np.ndarray:
    """SWAP(i, j) of 1-based ancilla qubits: exchange key bits m-i and m-j."""
    bi, bj = m - i, m - j
    differ = ((keys >> bi) ^ (keys >> bj)) & 1
    return keys ^ ((differ << bi) | (differ << bj))


def _park_keys(keys: np.ndarray, m: int, slot: int) -> np.ndarray:
    """Map m-ancilla keys to m+2: prepend two qubits in |slot> (qubit 1
    the high bit), then SWAP(1, m+1) and SWAP(2, m+2)."""
    return ((keys & 3) << m) | ((keys >> 2) << 2) | slot


def _pattern(matrix: np.ndarray, slots: int) -> np.ndarray:
    """(out slot, in slot) -> whether that block of a grid operator is non-zero."""
    n = matrix.shape[0] // slots
    return np.any(matrix.reshape(slots, n, slots, n) != 0, axis=(1, 3))


class _Operators(dict):
    """One system's block operators by (kind, t, relaxation): each entry
    is the tuple of read-only arrays its builder returned, matrices with
    their block patterns. ``nbytes`` is the size of all of them."""

    nbytes = 0

    def get_or_build(self, key, build, *args) -> tuple:
        """The entry for ``key``, from ``build(*args)`` the first time.

        An entry is stored only after ``build`` returned, so input it
        refuses raises the same error on every call.
        """
        entry = self.get(key)
        if entry is None:
            entry = build(*args)
            for array in entry:
                array.setflags(write=False)
            self[key] = entry
            self.nbytes += sum(array.nbytes for array in entry)
        return entry


def _operators(system: LinearSystem) -> _Operators:
    """The block operators statevector iterations on ``system`` applied.

    Each depends only on the frozen system, the index and the relaxation,
    so it is built by the ``encodings`` builders the first time an
    iteration needs it and kept on the system, as ``classical._gram_rows``
    keeps Gram rows: a later iteration with the same (t, relaxation), in
    this run or another, takes it with one dict lookup. The relaxation is
    a float key, so -0.0 takes 0.0's entry; the two operators differ only
    in the sign of zero entries.
    """
    return system.__dict__.setdefault("_operators", _Operators())


@dataclass(frozen=True)
class _Route:
    """Where grid operators on the low key bits take each stored block.

    Input block i goes to slot ``slot[i]`` of row ``group[i]`` of a
    zero-filled (rows, slots, n) gather buffer; the operators' output
    keeps the flat buffer rows ``keep``, whose keys are ``keys`` (sorted).
    """

    group: np.ndarray
    slot: np.ndarray
    rows: int
    slots: int
    keep: np.ndarray
    keys: np.ndarray


def _route(keys: np.ndarray, *patterns: np.ndarray) -> _Route:
    """Route distinct (not necessarily sorted) keys through grid operators
    with the given block patterns, applied in order on one slot grid."""
    slots = patterns[0].shape[0]
    bits = slots.bit_length() - 1
    # Keys that share their high bits form a group, numbered in the order
    # of those bits: one stable sort, a mask of where each group starts.
    high = keys >> bits
    order = np.argsort(high, kind="stable")
    high = high[order]
    starts = np.ones(high.size, dtype=bool)
    np.not_equal(high[1:], high[:-1], out=starts[1:])
    groups = high[starts]
    del high
    rank = np.cumsum(starts, dtype=np.intp)
    rank -= 1
    group = np.empty_like(rank)
    group[order] = rank
    del order, rank
    slot = keys & (slots - 1)
    # reach[i, j]: input slot j feeds output slot i through all patterns.
    # Numpy runs a bool matmul as a plain loop, so the groups take one
    # with the composed patterns instead of one per pattern.
    reach = patterns[0]
    for pattern in patterns[1:]:
        reach = pattern @ reach
    fed = np.zeros((groups.size, slots), dtype=bool)
    fed[group, slot] = True
    keep = np.flatnonzero(fed @ reach.T)
    out = (groups[keep >> bits] << bits) | (keep & (slots - 1))
    return _Route(group, slot, groups.size, slots, keep, out)


def _parked(route: _Route, m: int) -> _Route:
    """``route`` followed by parking its m-ancilla output keys in slot 0."""
    keys = _park_keys(route.keys, m, 0)
    order = np.argsort(keys)
    return replace(route, keep=route.keep[order], keys=keys[order])


def _gather(route: _Route, n: int, *sources: np.ndarray) -> np.ndarray:
    """The zero-filled (rows, slots, n) buffer holding the source blocks,
    which follow one another in the order of the routed keys."""
    buf = np.zeros((route.rows, route.slots, n))
    start = 0
    for blocks in sources:
        stop = start + blocks.shape[0]
        buf[route.group[start:stop], route.slot[start:stop]] = blocks
        start = stop
    return buf


def _apply_routed(route: _Route, blocks: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a grid operator: gather by group, one matmul, keep the routed rows."""
    n = blocks.shape[1]
    out = _gather(route, n, blocks).reshape(route.rows, -1) @ matrix.T
    return np.take(out.reshape(-1, n), route.keep, axis=0)


def assert_normalized(state: SimState) -> SimState:
    if abs(state.norm - 1.0) > NORM_TOL:
        raise InvariantViolation(
            f"statevector norm drifted to {state.norm!r} at k={state.k}"
        )
    return state


# --- shared extraction ------------------------------------------------------


def extract_good_branch(state: SimState):
    """Project onto all-zero ancillas (key 0): (amplitude >= 0, unit direction).

    A zeroed good branch reports amplitude 0 with a zero direction.
    """
    n = state.layout.data_dim
    if state.keys.size == 0 or state.keys[0] != 0:
        return 0.0, np.zeros(n)
    good = state.vec[0]
    amplitude = float(np.linalg.norm(good))
    if amplitude == 0.0:
        return 0.0, np.zeros(n)
    return amplitude, good / amplitude


@dataclass(frozen=True)
class MeasurementResult:
    outcomes: np.ndarray  # (shots, m) ancilla bits
    success_probability: float  # of the all-zero outcome


def measure_ancillas(state: SimState, seed=None, shots: int = 1) -> MeasurementResult:
    """Sample the ancilla register over the stored keys; reproducible under
    a fixed seed."""
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    m = state.layout.ancillas
    probs = np.sum(state.vec**2, axis=1)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise InvariantViolation(f"ancilla probabilities sum to {total!r}")
    rng = np.random.default_rng(seed)
    drawn = state.keys[rng.choice(state.keys.size, size=shots, p=probs / total)]
    bits = ((drawn[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
    success = float(probs[0]) if state.keys[0] == 0 else 0.0
    return MeasurementResult(outcomes=bits, success_probability=success)


# --- row algorithm ----------------------------------------------------------


def _initial_state(data: np.ndarray) -> SimState:
    return SimState(np.zeros(1, dtype=np.int64), np.array([data]), RegisterLayout(2, data.size),
                    k=0, v=1.0)


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
    """Prepend one qubit: beta|0>|X_k> + gamma|1>|0...0>|a_t>.

    The fresh-row key is stored even when gamma = 0 (b_t = 0).
    """
    require_normalization(system, ROWS_NORMALIZED, "prepare_Y")
    m, n = state.layout.ancillas, state.layout.data_dim
    if m != ancillas(classical.ROW, state.k):
        raise UsageError(f"iterate state at k={state.k} has {m} ancillas, expected 3k+2")
    beta, gamma = row_mixing(state.v, system.rhs_entry(t))
    vec = np.empty((state.keys.size + 1, n))
    np.multiply(state.vec, beta, out=vec[:-1])
    np.multiply(system.row(t), gamma, out=vec[-1])
    return SimState(np.append(state.keys, 1 << m), vec, RegisterLayout(m + 1, n), state.k, state.v)


def _row_operators(a: np.ndarray, lam: float) -> tuple:
    """U(a_t, lam) and its block pattern."""
    matrix = row_unitary(a, lam).matrix
    return matrix, _pattern(matrix, 4)


def apply_row_iteration(prepared: SimState, system: LinearSystem, t: int, lam: float,
                        mem_limit: int = DEFAULT_MEM_LIMIT) -> SimState:
    """Execute one full row iteration on a prepared superposition.

    SWAP(1, m-1) routes the fresh-row branch onto the |10> ancilla pair,
    the block operator turns the pair into the relaxed update, and
    parking moves the used ancillas to the front beside a fresh pair,
    leaving a valid iterate state with 3(k+1)+2 ancillas. The operator
    is built once per (t, lam) and kept on the system (``_operators``).
    Raises ResourceError when the predicted peak exceeds ``mem_limit``
    bytes.
    """
    require_normalization(system, ROWS_NORMALIZED, "apply_row_iteration")
    k, m, n = prepared.k, prepared.layout.ancillas, prepared.layout.data_dim
    if m != ancillas(classical.ROW, k) + 1:
        raise UsageError(f"prepared state at k={k} has {m} ancillas, expected 3k+3")
    _check_key_width(classical.ROW, k)
    kept = _operators(system)
    operator, pattern = kept.get_or_build((classical.ROW, t, lam), _row_operators,
                                          system.row(t), lam)
    route = _parked(_route(_swap_keys(prepared.keys, m, 1, m - 1), pattern), m)
    _guard_memory(k, n, prepared.keys.size, (route,), kept.nbytes, mem_limit)
    vec = _apply_routed(route, prepared.vec, operator)
    v_next = next_denominator(classical.ROW, prepared.v, system, t)
    return SimState(route.keys, vec, RegisterLayout(m + 2, n), k + 1, v_next)


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
    system and the residual register is not constructed. An ||r0|| whose
    reciprocal is inf or 0 raises UsageError (see ``embedding_factor``).
    """
    require_normalization(system, COLUMNS_NORMALIZED, "init_column_states")
    x0 = _check_unit(x0, "init_column_states")
    x_state = _initial_state(x0)

    r0 = system.residual(x0)
    r0_norm = float(classical._norms(r0))
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


def _column_operators(column: np.ndarray, t: int, omega: float) -> tuple:
    """The column prep S_t, then W(t, omega) and the residual contraction,
    each followed by its block pattern."""
    prep = state_prep_col(column, t).matrix
    update = column_update_unitary(t, omega, column.size).matrix
    contraction = column_residual_unitary(column, omega).matrix
    return prep, update, _pattern(update, 4), contraction, _pattern(contraction, 4)


def apply_column_iteration(
    x_state: SimState,
    r_state: SimState,
    system: LinearSystem,
    t: int,
    omega: float,
    delta: float,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """One column iteration: returns (new iterate state, new residual state).

    The iterate register mixes with the prep-rotated residual register on
    a fresh ancilla pair seated next to the data register, the routing
    operator moves omega*(c_t.r) onto the partner branch, and the plane
    rotation folds it into the good branch. The residual register is
    contracted independently by its own block operator. All but the
    rotation are built once per (t, omega) and kept on the system
    (``_operators``). Raises ResourceError when the predicted peak
    exceeds ``mem_limit`` bytes.
    """
    require_normalization(system, COLUMNS_NORMALIZED, "apply_column_iteration")
    k = x_state.k
    if r_state.k != k:
        raise UsageError(f"registers out of step: x at k={k}, r at k={r_state.k}")
    m, n = x_state.layout.ancillas, x_state.layout.data_dim
    if not m == r_state.layout.ancillas == ancillas(classical.COLUMN, k):
        raise UsageError(f"expected 2(k+1) ancillas on both registers at k={k}")
    _check_key_width(classical.COLUMN, k)
    kept = _operators(system)
    prep, update, update_pattern, contraction, contraction_pattern = kept.get_or_build(
        (classical.COLUMN, t, omega), _column_operators, system.column(t), t, omega)
    beta, gamma = column_mixing(x_state.v, delta)
    rotation = givens(GivensParams(beta, gamma)).matrix

    # |00> carries the iterate, |10> the rotated residual; the rotation on
    # the last qubit mixes slots (0, 1) and (2, 3) of each group.
    mixed = np.concatenate([_park_keys(x_state.keys, m, 0), _park_keys(r_state.keys, m, 2)])
    pair = np.zeros((4, 4), dtype=bool)
    pair[:2, :2] = pair[2:, 2:] = rotation != 0
    x_route = _route(mixed, update_pattern, pair)
    r_route = _parked(_route(r_state.keys, contraction_pattern), m)
    _guard_memory(k, n, x_state.keys.size + r_state.keys.size, (x_route, r_route),
                  kept.nbytes + rotation.nbytes, mem_limit)

    psi = _gather(x_route, n, x_state.vec, r_state.vec @ prep.T)
    psi[:, 0] *= beta
    psi[:, 2] *= gamma
    psi = (psi.reshape(x_route.rows, -1) @ update.T).reshape(x_route.rows, 2, 2, n)
    psi = rotation @ psi
    v_next = next_denominator(classical.COLUMN, x_state.v, system, t, delta)
    x_next = SimState(x_route.keys, np.take(psi.reshape(-1, n), x_route.keep, axis=0),
                      RegisterLayout(m + 2, n), k + 1, v_next)
    del psi  # the grid goes before the residual register's buffers exist
    r_vec = _apply_routed(r_route, r_state.vec, contraction)
    return x_next, SimState(r_route.keys, r_vec, RegisterLayout(m + 2, n), k + 1, 1.0)


# --- full runs ----------------------------------------------------------------


def _check_key_width(direction: str, k: int) -> None:
    """Raise before iteration k+1 would need more ancillas than a key holds."""
    width = ancillas(direction, k + 1)
    if width > KEY_BITS:
        raise KeyWidthError(k, width, KEY_BITS)


def _guard_memory(k: int, n: int, live: int, routes, operator_bytes: int,
                  mem_limit: int) -> None:
    """Raise ResourceError when one iteration's predicted peak is over the limit.

    Called with the routes of the iteration, before any of its new
    blocks exist. The prediction counts the ``live`` input blocks, the
    largest gather buffer twice (it coexists with the operator output)
    and the new blocks of every route, each block row with
    ``_INDEX_WORDS`` int64 words of keys and indices beside it, plus
    ``operator_bytes``: every operator kept on the system, this
    iteration's among them, and a column iteration's rotation. A row
    iteration calls it after ``prepare_Y``; the prepared blocks are the
    live input it counts either way, so the prediction is the one made
    before the preparation.
    """
    gather = max(route.rows * route.slots for route in routes)
    new = sum(route.keys.size for route in routes)
    required = (live + 2 * gather + new) * (n + _INDEX_WORDS) * _FLOAT_BYTES + operator_bytes
    if required > mem_limit:
        raise ResourceError(k, required, mem_limit)


class _Tracker:
    """Tracker for ``classical._drive`` that steps a simulated iterate
    register ``state`` ahead of the classical shadow iterate.

    Convergence is detected on the shadow (repeatedly measuring the
    simulated state is not modeled). Records carry the good-branch
    amplitude, the success probability of post-selecting all-zero
    ancillas, and the fidelity between the good branch and the shadow
    direction.
    """

    state: SimState

    def extend(self, first, ts, values, xs, x_norms):
        """Per record, ``advance`` (unless t is None), then ``observe``."""
        observed = []
        for j, t in enumerate(ts):
            if t is not None:
                self.advance(first + j - 1, t, values[j])
            observed.append(self.observe(xs[j], x_norms[j]))
        return zip(*observed)

    def observe(self, x: np.ndarray, x_norm: float):
        amplitude, direction = extract_good_branch(self.state)
        if amplitude == 0.0 or x_norm == 0.0:
            fidelity = 1.0 if amplitude == x_norm else 0.0
        else:
            fidelity = float(abs(direction @ x) / x_norm)
        return amplitude, amplitude * amplitude, fidelity


class _RowTracker(_Tracker):
    def __init__(self, system: LinearSystem, x0: np.ndarray, mem_limit: int):
        self.system, self.mem_limit = system, mem_limit
        self.state = assert_normalized(init_row_state(x0))

    def advance(self, k: int, t: int, lam: float) -> None:
        # Rebinding self.state drops each input as soon as its successor exists.
        self.state = assert_normalized(prepare_Y(self.state, self.system, t))
        self.state = assert_normalized(
            apply_row_iteration(self.state, self.system, t, lam, self.mem_limit)
        )


class _ColumnTracker(_Tracker):
    def __init__(self, system: LinearSystem, x0: np.ndarray, mem_limit: int):
        self.system, self.mem_limit = system, mem_limit
        init = init_column_states(x0, system)
        self.state, self.r_state, self.delta = init.x_state, init.r_state, init.delta
        assert_normalized(self.state)
        if self.r_state is not None:
            assert_normalized(self.r_state)

    def advance(self, k: int, t: int, omega: float) -> None:
        if self.r_state is None:
            raise UsageError("x0 already solves the system; the residual register is empty")
        self.state, self.r_state = apply_column_iteration(
            self.state, self.r_state, self.system, t, omega, self.delta, self.mem_limit
        )
        assert_normalized(self.state)
        assert_normalized(self.r_state)


def run_algorithm1(
    system: LinearSystem,
    x0,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    tol: float = classical.DEFAULT_TOL,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """Full row-method simulation; returns (report, final state)."""
    reports, (tracker,) = classical._drive(
        system, x0, [schedule], strategy, max_steps, classical.ROW, tol,
        partial(_RowTracker, mem_limit=mem_limit),
    )
    return reports[0], tracker.state


def run_algorithm2(
    system: LinearSystem,
    x0,
    schedule: RelaxationSchedule,
    strategy: SelectionStrategy,
    max_steps: int,
    tol: float = classical.DEFAULT_TOL,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """Full column-method simulation; returns (report, x state, r state)."""
    reports, (tracker,) = classical._drive(
        system, x0, [schedule], strategy, max_steps, classical.COLUMN, tol,
        partial(_ColumnTracker, mem_limit=mem_limit),
    )
    return reports[0], tracker.state, tracker.r_state
