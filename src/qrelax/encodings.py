"""Constructors for every unitary the simulators apply.

All matrices here are real orthogonal. The 4n-by-4n operators are laid
out as a 4x4 grid of n-by-n blocks whose grid index corresponds to the
two-qubit ancilla basis in the fixed order |00>, |01>, |10>, |11>; the
simulators rely on that mapping when they reshape the statevector. One
reflection grid builds all three of them: the row and column-residual
operators directly, the column-update operator with its slots reordered.
Relaxation parameters are restricted to [0, 1] because the coupling
entry sqrt(2*p*(1-p)) must stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ROW
from .errors import UsageError
from .schedules import QUANTUM, check_domain
from .system import UNIT_TOL, LinearSystem

LABEL_ROW_U = "row-U"
LABEL_COLUMN_U = "column-residual-U"
LABEL_W = "W"
LABEL_GIVENS = "givens"
LABEL_ROW_PREP = "row-prep-V"
LABEL_COLUMN_PREP = "column-prep-S"


@dataclass(frozen=True)
class BlockUnitary:
    """Dense orthogonal operator with block-grid metadata.

    ``grid`` gives the number of block rows/columns and ``block_size``
    the dimension of each block, so grid (4, 4) with block_size n is the
    4n-by-4n two-ancilla operator.
    """

    matrix: np.ndarray
    block_size: int
    grid: tuple[int, int]
    label: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        expected = (self.grid[0] * self.block_size, self.grid[1] * self.block_size)
        if m.shape != expected:
            raise UsageError(f"matrix shape {m.shape} does not match grid {expected}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        """The (i, j) block, 1-based grid indices."""
        rows, cols = self.grid
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise UsageError(f"block index ({i},{j}) outside {rows}x{cols} grid")
        s = self.block_size
        return np.array(self.matrix[(i - 1) * s : i * s, (j - 1) * s : j * s])

    def dump(self) -> str:
        """Dense textual form: dimension header, then row-major values."""
        lines = [f"{self.dim} {self.dim} {self.label}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.matrix]
        return "\n".join(lines) + "\n"


def _check_unit(vec, who: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise UsageError(f"{who} needs a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise UsageError(f"{who} has non-finite entries: {v.tolist()}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise UsageError(f"{who} needs a unit vector, got norm {norm!r}; normalize it")
    return v


def embedding_factor(r_norm: float) -> float:
    """Scale delta that embeds a residual of norm ``r_norm`` in a register.

    A unit (or zero) residual embeds directly with delta=1; otherwise
    delta = 1/||r|| puts amplitude exactly 1 on the good branch. A norm
    below about 5.6e-309 (whose reciprocal overflows to inf) or an inf
    norm (reciprocal 0) has no such delta and raises UsageError.
    """
    if r_norm == 0.0 or abs(r_norm - 1.0) <= UNIT_TOL:
        return 1.0
    delta = 1.0 / r_norm
    if delta == 0.0 or math.isinf(delta):
        raise UsageError(
            f"initial residual norm ||b - A x0|| = {r_norm!r} cannot be embedded: "
            f"its reciprocal is {delta!r}"
        )
    return delta


def next_denominator(
    direction: str, v: float, system: LinearSystem, t: int, delta: float = 1.0
) -> float:
    """The good-branch denominator after one iteration on index t: row
    v' = hypot(v, b_t), so v_k^2 = v_0^2 + sum of b_{t_j}^2; column
    v' = v + 1/delta, which is k+1 after k steps when delta=1."""
    if direction == ROW:
        return math.hypot(v, system.rhs_entry(t))
    return v + 1.0 / delta


def _reflection_grid(p: np.ndarray, value: float, order=(0, 1, 2, 3)) -> np.ndarray:
    """The 4x4 grid of all three 4n-by-4n operators; output slot i holds
    the reflection's slot ``order[i]``.

    P is the rank-one projector onto the working vector. On its range the
    operator is the symmetric orthogonal 3x3 core (plus an identity
    fourth block); on the orthogonal complement it acts as
    diag(I, -I, I, I), so the whole matrix is a symmetric involution.
    Each of the six block formulas is evaluated once and written into
    its one or two (symmetric) places of one zero grid.
    """
    n = p.shape[0]
    eye = np.eye(n)
    coupling = math.sqrt(max(2.0 * value * (1.0 - value), 0.0))
    s0, s1, s2, s3 = (order.index(slot) for slot in range(4))
    grid = np.zeros((4, n, 4, n))
    grid[s0, :, s0] = grid[s2, :, s2] = eye - value * p
    grid[s0, :, s1] = grid[s1, :, s0] = coupling * p
    grid[s0, :, s2] = grid[s2, :, s0] = value * p
    grid[s1, :, s1] = 2.0 * value * p - eye
    grid[s1, :, s2] = grid[s2, :, s1] = -coupling * p
    grid[s3, :, s3] = eye
    return grid.reshape(4 * n, 4 * n)


def row_unitary(a, lam: float) -> BlockUnitary:
    """Block-encoding of the relaxed projection I - lam * a a^T.

    Applied to |00>|x> the |00> block yields (I - lam P)x, and applied to
    |10>|a> it contributes lam*a there, which is exactly the material of
    the row update. At lam=1 the couplings vanish and the operator
    reduces to the unrelaxed projection encoding.
    """
    a = _check_unit(a, "row_unitary")
    lam = check_domain(lam, QUANTUM)
    return BlockUnitary(_reflection_grid(np.outer(a, a), lam), a.size, (4, 4), LABEL_ROW_U)


def column_residual_unitary(c, omega: float) -> BlockUnitary:
    """Same construction as ``row_unitary`` along a matrix column; its
    |00> block applies the residual contraction I - omega * c c^T."""
    c = _check_unit(c, "column_residual_unitary")
    omega = check_domain(omega, QUANTUM)
    return BlockUnitary(
        _reflection_grid(np.outer(c, c), omega), c.size, (4, 4), LABEL_COLUMN_U
    )


def column_update_unitary(t: int, omega: float, n: int) -> BlockUnitary:
    """Symmetric involution routing omega*<t|.|t> amplitude between the
    last three ancilla blocks (P = e_t e_t^T): the reflection grid's slots
    in the order (3, 0, 2, 1), so the identity slot acts on |00> and the
    core follows with its slots 1 and 2 swapped."""
    omega = check_domain(omega, QUANTUM)
    if not 1 <= t <= n:
        raise UsageError(f"index t={t} outside 1..{n}")
    p = np.zeros((n, n))
    p[t - 1, t - 1] = 1.0
    return BlockUnitary(_reflection_grid(p, omega, (3, 0, 2, 1)), n, (4, 4), LABEL_W)


@dataclass(frozen=True)
class GivensParams:
    """Plane-rotation parameters with c^2 + s^2 = 1."""

    c: float
    s: float

    def __post_init__(self):
        if abs(self.c**2 + self.s**2 - 1.0) > 1e-14:
            raise UsageError(
                f"Givens parameters must satisfy c^2+s^2=1, got c={self.c} s={self.s}"
            )


def givens(params: GivensParams) -> BlockUnitary:
    """[[c, s], [-s, c]], the determinant-1 rotation combining the iterate
    branch with the routed residual branch."""
    g = np.array([[params.c, params.s], [-params.s, params.c]])
    return BlockUnitary(g, 1, (2, 2), LABEL_GIVENS)


def _householder_sending(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Reflection H with H @ source = target for unit source/target;
    # H = I - 2 u u^T / ||u||^2 with u = target - source. Degenerate u
    # (target == source) means the identity already works.
    u = target - source
    norm_sq = float(u @ u)
    if norm_sq < 1e-28:
        return np.eye(source.size)
    return np.eye(source.size) - (2.0 / norm_sq) * np.outer(u, u)


def state_prep_row(a) -> BlockUnitary:
    """Deterministic orthogonal matrix whose first column is ``a``.

    A single Householder reflection exchanging e_1 and a; any orthogonal
    completion would do, a reflection keeps golden values stable.
    """
    a = _check_unit(a, "state_prep_row")
    e1 = np.zeros(a.size)
    e1[0] = 1.0
    h = _householder_sending(e1, a)
    return BlockUnitary(h, a.size, (1, 1), LABEL_ROW_PREP)


def state_prep_col(c, t: int) -> BlockUnitary:
    """Deterministic orthogonal matrix whose row t equals ``c``.

    Built as the reflection sending e_t to c; reflections are symmetric,
    so the same matrix has <t|S = c^T as required for reading the
    correlation <t|S|r> = c.r off the data register.
    """
    c = _check_unit(c, "state_prep_col")
    if not 1 <= t <= c.size:
        raise UsageError(f"index t={t} outside 1..{c.size}")
    et = np.zeros(c.size)
    et[t - 1] = 1.0
    h = _householder_sending(et, c)
    return BlockUnitary(h, c.size, (1, 1), LABEL_COLUMN_PREP)


@dataclass(frozen=True)
class VerificationReport:
    max_orthogonality_deviation: float
    symmetry_deviation: float
    involution_deviation: float
    symmetric: bool
    involutory: bool
    passed: bool


def verify_unitary(unitary: BlockUnitary, tol: float = 1e-12) -> VerificationReport:
    """Brute-force check by direct multiplication: ||M^T M - I||_max,
    plus symmetry and involution deviations at the same tolerance."""
    m = unitary.matrix
    eye = np.eye(m.shape[0])
    ortho = float(np.max(np.abs(m.T @ m - eye)))
    sym = float(np.max(np.abs(m - m.T)))
    invol = float(np.max(np.abs(m @ m - eye)))
    return VerificationReport(
        max_orthogonality_deviation=ortho,
        symmetry_deviation=sym,
        involution_deviation=invol,
        symmetric=sym <= tol,
        involutory=invol <= tol,
        passed=ortho <= tol,
    )
