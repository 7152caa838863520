import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_consistent
from qrelax.errors import DegenerateColumnError, DegenerateRowError, DimensionError, UsageError
from qrelax.system import (
    COLUMNS_NORMALIZED,
    RAW,
    ROWS_NORMALIZED,
    UNIT_TOL,
    LinearSystem,
    normalize_columns,
    normalize_rows,
)


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        LinearSystem(np.ones((3, 2)), np.ones(3))


def test_rejects_rhs_length_mismatch():
    with pytest.raises(DimensionError):
        LinearSystem(np.eye(2), np.ones(3))


def test_arrays_are_read_only():
    sys_ = LinearSystem(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        sys_.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        sys_.rhs[0] = 5.0


def test_one_based_accessors():
    sys_ = LinearSystem(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))
    assert_allclose(sys_.row(1), [1.0, 2.0])
    assert_allclose(sys_.column(2), [2.0, 4.0])
    assert sys_.rhs_entry(2) == 6.0
    with pytest.raises(UsageError):
        sys_.row(0)
    with pytest.raises(UsageError):
        sys_.column(3)


def test_normalize_rows_keeps_unit_rows_bit_identical(row_case):
    system, _, _ = row_case
    again = normalize_rows(system)
    assert again.normalization == ROWS_NORMALIZED
    assert np.array_equal(again.matrix, system.matrix)
    assert np.array_equal(again.rhs, system.rhs)
    assert_allclose(again.scale, [1.0, 1.0])


def test_normalize_rows_scales_row_and_rhs():
    raw = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([10.0, 1.0]))
    normed = normalize_rows(raw)
    assert_allclose(normed.matrix[0], [0.6, 0.8])
    assert normed.rhs[0] == 2.0
    assert normed.scale[0] == 5.0
    assert normed.scale[1] == 1.0


def test_normalize_rows_zero_row_is_hard_error():
    raw = LinearSystem(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DegenerateRowError) as excinfo:
        normalize_rows(raw)
    assert excinfo.value.row == 1


def test_normalize_columns_keeps_unit_columns(column_case):
    system, _, _ = column_case
    again = normalize_columns(system)
    assert np.array_equal(again.matrix, system.matrix)
    assert_allclose(again.scale, [1.0, 1.0])


def test_normalize_columns_scale_and_denormalization():
    # column 2 is (0, 2): normalizes to (0, 1) with scale 2, and the solved
    # x maps back by dividing component 2 by that scale.
    raw = LinearSystem(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0]))
    normed = normalize_columns(raw)
    assert_allclose(normed.matrix[:, 1], [0.0, 1.0])
    assert normed.scale[1] == 2.0
    assert np.array_equal(normed.rhs, raw.rhs)
    x_normed = np.linalg.solve(normed.matrix, normed.rhs)
    x_back = normed.denormalize_solution(x_normed)
    assert_allclose(x_back, np.linalg.solve(raw.matrix, raw.rhs), atol=1e-12)


def test_normalize_columns_zero_column_is_hard_error():
    raw = LinearSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DegenerateColumnError) as excinfo:
        normalize_columns(raw)
    assert excinfo.value.column == 2


def test_cross_normalization_is_rejected(row_case, column_case):
    with pytest.raises(UsageError):
        normalize_columns(row_case[0])
    with pytest.raises(UsageError):
        normalize_rows(column_case[0])


@pytest.mark.parametrize("axis", ["rows", "columns"])
def test_normalizer_rules_on_both_axes(axis):
    rows = axis == "rows"
    normalize = normalize_rows if rows else normalize_columns
    other = normalize_columns if rows else normalize_rows
    error, what = (DegenerateRowError, "row") if rows else (DegenerateColumnError, "column")
    # the first zero row (column) is named when rows (columns) 2 and 3 are zero
    a = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(error) as excinfo:
        normalize(LinearSystem(a if rows else a.T, np.ones(3)))
    assert getattr(excinfo.value, what) == 2
    assert str(excinfo.value) == f"{what} 2 has zero norm and cannot be normalized"
    # 1: norm 1 + UNIT_TOL / 2 keeps its bits; 2: norm 1 + 2 UNIT_TOL is rescaled
    a = np.array([[0.6, 0.8], [0.6, 0.8]]) * np.array([[1.0 + UNIT_TOL / 2], [1.0 + 2 * UNIT_TOL]])
    raw = LinearSystem(a if rows else a.T, np.array([0.3, 0.7]))
    normed = normalize(raw)
    kept = normed.matrix[0] if rows else normed.matrix[:, 0]
    assert kept.tobytes() == a[0].tobytes()
    assert normed.scale[0] == 1.0 and normed.scale[1] != 1.0
    assert normed.rhs[0] == raw.rhs[0]
    assert normed.rhs[1] == (raw.rhs[1] / normed.scale[1] if rows else raw.rhs[1])
    # the wrong-kind texts
    with pytest.raises(UsageError) as excinfo:
        normalize(other(raw))
    kind = COLUMNS_NORMALIZED if rows else ROWS_NORMALIZED
    assert str(excinfo.value) == f"cannot {what}-normalize a {kind} system; start from raw"


def test_row_normalization_preserves_solution_set(rng):
    for _ in range(25):
        raw, _ = random_consistent(rng, 4)
        normed = normalize_rows(raw)
        assert_allclose(
            np.linalg.solve(normed.matrix, normed.rhs),
            np.linalg.solve(raw.matrix, raw.rhs),
            atol=1e-10,
        )


def test_column_normalization_round_trip(rng):
    for _ in range(25):
        raw, _ = random_consistent(rng, 4)
        normed = normalize_columns(raw)
        x_back = normed.denormalize_solution(np.linalg.solve(normed.matrix, normed.rhs))
        assert np.linalg.norm(raw.matrix @ x_back - raw.rhs) <= 1e-10


def test_denormalize_is_identity_for_raw_and_rows():
    raw = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([10.0, 1.0]))
    assert raw.normalization == RAW
    x = np.array([1.0, 2.0])
    assert_allclose(raw.denormalize_solution(x), x)
    assert_allclose(normalize_rows(raw).denormalize_solution(x), x)
    assert normalize_columns(raw).normalization == COLUMNS_NORMALIZED
