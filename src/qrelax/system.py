"""Square linear-system model with row/column normalization bookkeeping.

All public indices are 1-based (``t`` runs over 1..n) to match the
iteration conventions used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, DegenerateRowError, DimensionError, UsageError

RAW = "raw"
ROWS_NORMALIZED = "rows-normalized"
COLUMNS_NORMALIZED = "columns-normalized"

# Rows/columns whose norm is already within this tolerance of 1 are kept
# bit-identical instead of being rescaled.
UNIT_TOL = 1e-12


def _frozen_array(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearSystem:
    """An n-by-n system ``A x = b`` plus normalization metadata.

    ``scale`` records the per-row (or per-column) factors divided out by
    normalization, so a solution of the normalized system can always be
    mapped back to the original one.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    normalization: str = RAW
    scale: np.ndarray | None = None

    def __post_init__(self):
        a = _frozen_array(self.matrix)
        b = _frozen_array(self.rhs)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {a.shape}")
        if b.ndim != 1 or b.shape[0] != a.shape[0]:
            raise DimensionError(
                f"rhs has length {b.shape[0] if b.ndim == 1 else b.shape}, "
                f"expected {a.shape[0]}"
            )
        if a.shape[0] == 0:
            raise DimensionError("system must have at least one equation")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise UsageError("system has non-finite (nan or inf) entries")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rhs", b)
        if self.scale is not None:
            object.__setattr__(self, "scale", _frozen_array(self.scale))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row(self, t: int) -> np.ndarray:
        """Matrix row t (1-based)."""
        self._check_index(t)
        return self.matrix[t - 1]

    def column(self, t: int) -> np.ndarray:
        """Matrix column t (1-based)."""
        self._check_index(t)
        return self.matrix[:, t - 1]

    def rhs_entry(self, t: int) -> float:
        self._check_index(t)
        return float(self.rhs[t - 1])

    def _check_index(self, t):
        if not 1 <= t <= self.n:
            raise UsageError(f"index t={t} outside 1..{self.n}")

    def residual(self, x: np.ndarray) -> np.ndarray:
        """b - A x for the stored (possibly normalized) system."""
        return self.rhs - self.matrix @ x

    def denormalize_solution(self, x: np.ndarray) -> np.ndarray:
        """Map a solution of this system back to the pre-normalization one.

        Row scaling leaves the solution set unchanged; column scaling
        divides component t by the recorded column factor.
        """
        if self.normalization == COLUMNS_NORMALIZED and self.scale is not None:
            return x / self.scale
        return np.array(x, dtype=float)


def _normalize(system: LinearSystem, kind: str, axis: int, error) -> LinearSystem:
    """Divide every row (axis 1), with its rhs entry, or every column
    (axis 0) by its norm. Norms within ``UNIT_TOL`` of 1 count as 1.0, so
    those stay bit-identical; the first zero one raises ``error``."""
    what = "row" if axis == 1 else "column"
    if system.normalization not in (RAW, kind):
        raise UsageError(
            f"cannot {what}-normalize a {system.normalization} system; start from raw"
        )
    a = np.array(system.matrix)
    b = np.array(system.rhs)
    norms = np.linalg.norm(a, axis=axis)
    for i, h in enumerate(norms):
        if h == 0.0:
            raise error(i + 1)
    scale = np.where(np.abs(norms - 1.0) <= UNIT_TOL, 1.0, norms)
    a /= np.expand_dims(scale, axis)
    if axis == 1:
        b /= scale
    return LinearSystem(a, b, kind, scale)


def normalize_rows(system: LinearSystem) -> LinearSystem:
    """Scale every row and its rhs entry by the row norm, which keeps the
    solution set exactly; a zero row raises ``DegenerateRowError``."""
    return _normalize(system, ROWS_NORMALIZED, 1, DegenerateRowError)


def normalize_columns(system: LinearSystem) -> LinearSystem:
    """Scale every column by its norm; the rhs is untouched. The recorded
    scale maps a normalized-system solution back to the original via
    ``x_original[t] = x_normalized[t] / scale[t]``."""
    return _normalize(system, COLUMNS_NORMALIZED, 0, DegenerateColumnError)


def require_normalization(system: LinearSystem, kind: str, who: str) -> None:
    """Guard used by steps whose simplified formulas assume unit rows/columns."""
    if system.normalization != kind:
        raise UsageError(f"{who} requires a {kind} system, got {system.normalization}")
