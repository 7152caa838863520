import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_unit
from qrelax import encodings as enc
from qrelax.errors import DomainError, UsageError

R2 = math.sqrt(2.0)


def manual_row_grid(a, lam):
    """Assemble the expected 4x4 block grid by hand, independent of the
    constructor's np.block call order."""
    n = a.size
    p = np.outer(a, a)
    eye = np.eye(n)
    q = math.sqrt(2 * lam * (1 - lam))
    top = np.hstack([eye - lam * p, q * p, lam * p, np.zeros((n, n))])
    second = np.hstack([q * p, 2 * lam * p - eye, -q * p, np.zeros((n, n))])
    third = np.hstack([lam * p, -q * p, eye - lam * p, np.zeros((n, n))])
    last = np.hstack([np.zeros((n, 3 * n)), eye])
    return np.vstack([top, second, third, last])


def bits(matrix):
    """The entries' bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(matrix).view(np.uint64)


def test_row_unitary_matches_manual_assembly(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_unit(rng, n)
        lam = float(rng.uniform(0, 1))
        assert np.array_equal(bits(enc.row_unitary(a, lam).matrix), bits(manual_row_grid(a, lam)))


def reflection_literal(p, w):
    """The reflection grid as one np.block literal, each block by its formula."""
    n = p.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    c = math.sqrt(2.0 * w * (1.0 - w))
    return np.block([
        [eye - w * p, c * p, w * p, zero],
        [c * p, 2.0 * w * p - eye, -c * p, zero],
        [w * p, -c * p, eye - w * p, zero],
        [zero, zero, zero, eye],
    ])


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, "uniform"])
def test_projection_unitaries_equal_block_literal_bit_for_bit(rng, lam):
    for n in range(1, 7):
        for _ in range(3):
            w = float(rng.uniform(0, 1)) if lam == "uniform" else lam
            a = random_unit(rng, n)
            # zero and negative entries give the projector signed zeros
            a[rng.random(n) < 0.3] = 0.0
            a = a / np.linalg.norm(a) if a.any() else np.eye(n)[n - 1]
            expected = bits(reflection_literal(np.outer(a, a), w))
            assert np.array_equal(bits(enc.row_unitary(a, w).matrix), expected)
            assert np.array_equal(bits(enc.column_residual_unitary(a, w).matrix), expected)


def test_row_unitary_full_projection_has_no_couplings():
    a = np.array([1 / R2, 1 / R2])
    built = enc.row_unitary(a, 1.0)
    # the sqrt(2*lam*(1-lam)) blocks vanish, leaving the plain projection encoding
    assert_allclose(built.block(1, 2), np.zeros((2, 2)))
    assert_allclose(built.block(2, 1), np.zeros((2, 2)))
    assert_allclose(built.block(1, 1), np.eye(2) - np.outer(a, a), atol=1e-15)
    assert_allclose(built.block(1, 3), np.outer(a, a), atol=1e-15)


def test_row_unitary_zero_relaxation_is_signed_identity_grid(rng):
    a = random_unit(rng, 3)
    built = enc.row_unitary(a, 0.0)
    expected = np.zeros((12, 12))
    expected[0:3, 0:3] = np.eye(3)
    expected[3:6, 3:6] = -np.eye(3)
    expected[6:9, 6:9] = np.eye(3)
    expected[9:12, 9:12] = np.eye(3)
    assert_allclose(built.matrix, expected, atol=1e-15)


def test_row_unitary_half_relaxation_e1():
    built = enc.row_unitary(np.array([1.0, 0.0]), 0.5)
    p = np.diag([1.0, 0.0])
    assert_allclose(built.block(1, 1), np.eye(2) - 0.5 * p)
    assert_allclose(built.block(1, 2), math.sqrt(0.5) * p)
    # brute-force multiplication: symmetric involution
    assert_allclose(built.matrix @ built.matrix, np.eye(8), atol=1e-14)
    assert_allclose(built.matrix, built.matrix.T)


def test_row_unitary_rejects_bad_inputs():
    with pytest.raises(DomainError):
        enc.row_unitary(np.array([1.0, 0.0]), 1.2)
    with pytest.raises(DomainError):
        enc.row_unitary(np.array([1.0, 0.0]), -0.1)
    with pytest.raises(UsageError):
        enc.row_unitary(np.array([1.0, 1.0]), 0.5)


def test_column_residual_unitary_contracts_residual():
    c = np.array([-1 / R2, -1 / R2])
    built = enc.column_residual_unitary(c, 0.5)
    r0 = np.array([1 / R2, 1 / R2])
    contracted = built.block(1, 1) @ r0
    assert_allclose(contracted, [1 / (2 * R2), 1 / (2 * R2)], atol=1e-15)
    assert np.linalg.norm(contracted) == pytest.approx(0.5)


def test_column_residual_unitary_matches_row_construction(rng):
    c = random_unit(rng, 4)
    omega = 0.3
    assert_allclose(
        enc.column_residual_unitary(c, omega).matrix,
        enc.row_unitary(c, omega).matrix,
        atol=1e-15,
    )
    report = enc.verify_unitary(enc.column_residual_unitary(c, omega))
    assert report.max_orthogonality_deviation <= 1e-12


def test_column_update_unitary_full_relaxation_grid():
    # blocks (2..4, 2..4): the routing core on the last three ancilla blocks
    n, t = 3, 2
    core = enc.column_update_unitary(t, 1.0, n).matrix[n:, n:]
    p = np.zeros((n, n))
    p[t - 1, t - 1] = 1.0
    eye = np.eye(n)
    zero = np.zeros((n, n))
    expected = np.block([[eye - p, p, zero], [p, eye - p, zero], [zero, zero, 2 * p - eye]])
    assert_allclose(core, expected, atol=1e-15)


def test_column_update_unitary_half_relaxation_blocks():
    built = enc.column_update_unitary(1, 0.5, 2)
    core = built.matrix[2:, 2:]
    assert_allclose(built.block(2, 3), np.diag([0.5, 0.0]))
    assert_allclose(built.block(2, 4), math.sqrt(0.5) * np.diag([1.0, 0.0]))
    assert_allclose(core, core.T)
    assert_allclose(core @ core, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, "uniform"])
def test_column_update_unitary_matches_block_literal(rng, omega):
    # the identity slot, then the reflection-grid core with slots 1 and 2 swapped
    for n in range(1, 7):
        for t in range(1, n + 1):
            w = float(rng.uniform(0, 1)) if omega == "uniform" else omega
            c = math.sqrt(2.0 * w * (1.0 - w))
            p = np.zeros((n, n))
            p[t - 1, t - 1] = 1.0
            eye, zero = np.eye(n), np.zeros((n, n))
            expected = np.block([
                [eye, zero, zero, zero],
                [zero, eye - w * p, w * p, c * p],
                [zero, w * p, eye - w * p, -c * p],
                [zero, c * p, -c * p, 2.0 * w * p - eye],
            ])
            built = enc.column_update_unitary(t, w, n)
            assert (built.grid, built.block_size, built.label) == ((4, 4), n, enc.LABEL_W)
            assert np.array_equal(bits(built.matrix), bits(expected))


def test_column_update_unitary_block_structure():
    built = enc.column_update_unitary(1, 0.5, 2)
    assert built.grid == (4, 4)
    assert_allclose(built.block(1, 1), np.eye(2))
    for j in (2, 3, 4):
        assert_allclose(built.block(1, j), np.zeros((2, 2)))
        assert_allclose(built.block(j, 1), np.zeros((2, 2)))


def test_column_update_routes_correlation_onto_secondary_branch():
    # applied to a |10> branch carrying S|r>, the core moves
    # omega*<t|S|r> onto the |01> block
    n, t, omega = 2, 1, 0.5
    c = np.array([-1 / R2, -1 / R2])
    r = np.array([1 / R2, 1 / R2])
    rotated = enc.state_prep_col(c, t).matrix @ r
    w = enc.column_update_unitary(t, omega, n)
    state = np.zeros(4 * n)
    state[2 * n : 3 * n] = rotated  # |10> block
    out = w.matrix @ state
    expected_01 = omega * np.array([rotated[t - 1], 0.0])
    assert_allclose(out[n : 2 * n], expected_01, atol=1e-14)
    assert rotated[t - 1] == pytest.approx(c @ r)


def test_embedding_factor_range():
    # tiny_ok is the smallest norm whose reciprocal is finite.
    tiny_bad = 5.562684646268003e-309
    tiny_ok = math.nextafter(tiny_bad, 1.0)
    assert enc.embedding_factor(0.0) == enc.embedding_factor(1.0) == 1.0
    assert enc.embedding_factor(2.0**-1023) == 2.0**1023
    assert enc.embedding_factor(tiny_ok) == 1.0 / tiny_ok < math.inf
    assert enc.embedding_factor(sys.float_info.max) > 0.0
    for r_norm in (tiny_bad, 1e-310, 5e-324, math.inf):
        with pytest.raises(UsageError, match=f"= {r_norm!r} cannot be embedded"):
            enc.embedding_factor(r_norm)


def test_givens_worked_example_values():
    g = enc.givens(enc.GivensParams(math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)))
    assert_allclose(
        g.matrix,
        [[math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)],
         [-math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)]],
    )
    assert np.linalg.det(g.matrix) == pytest.approx(1.0)


def test_givens_edges_and_validation():
    assert_allclose(enc.givens(enc.GivensParams(1.0, 0.0)).matrix, np.eye(2))
    swapish = enc.givens(enc.GivensParams(0.0, 1.0))
    assert_allclose(swapish.matrix, [[0.0, 1.0], [-1.0, 0.0]])
    assert_allclose(swapish.matrix @ swapish.matrix.T, np.eye(2), atol=1e-15)
    with pytest.raises(UsageError):
        enc.GivensParams(1.0, 0.5)


def test_state_prep_row_cases(rng):
    n = 4
    assert_allclose(enc.state_prep_row(np.eye(n)[0]).matrix, np.eye(n))
    a = np.array([1 / R2, 1 / R2])
    v = enc.state_prep_row(a)
    assert_allclose(v.matrix[:, 0], a, atol=1e-13)
    assert_allclose(v.matrix.T @ v.matrix, np.eye(2), atol=1e-12)
    flipped = enc.state_prep_row(-np.eye(3)[0])
    assert_allclose(flipped.matrix[:, 0], [-1.0, 0.0, 0.0])
    assert_allclose(flipped.matrix.T @ flipped.matrix, np.eye(3), atol=1e-12)
    with pytest.raises(UsageError):
        enc.state_prep_row(np.array([1.0, 1.0]))


def test_state_prep_row_reproduces_target(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = random_unit(rng, n)
        v = enc.state_prep_row(a).matrix
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.max(np.abs(v @ e1 - a)) <= 1e-13


def test_state_prep_col_cases():
    n, t = 3, 2
    e_t = np.eye(n)[t - 1]
    assert_allclose(enc.state_prep_col(e_t, t).matrix, np.eye(n))
    c = np.array([-1 / R2, -1 / R2])
    s = enc.state_prep_col(c, 1)
    assert_allclose(s.matrix[0], c, atol=1e-13)
    r0 = np.array([1 / R2, 1 / R2])
    # the row-t reading gives the correlation feeding the column update
    assert (s.matrix @ r0)[0] == pytest.approx(c @ r0)
    assert c @ r0 == pytest.approx(-1.0)
    with pytest.raises(UsageError):
        enc.state_prep_col(c, 3)


def test_state_prep_col_random_orthogonality(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        c = random_unit(rng, n)
        t = int(rng.integers(1, n + 1))
        s = enc.state_prep_col(c, t).matrix
        assert np.max(np.abs(s.T @ s - np.eye(n))) <= 1e-12
        assert np.max(np.abs(s[t - 1] - c)) <= 1e-13


def test_symmetric_involution_property(rng):
    # all three parameterized constructions are symmetric involutions
    for _ in range(200):
        n = int(rng.integers(2, 6))
        vec = random_unit(rng, n)
        value = float(rng.uniform(0, 1))
        t = int(rng.integers(1, n + 1))
        for built in (
            enc.row_unitary(vec, value),
            enc.column_residual_unitary(vec, value),
            enc.column_update_unitary(t, value, n),
        ):
            report = enc.verify_unitary(built, tol=1e-12)
            assert report.passed and report.symmetric and report.involutory


def test_block_identity_property(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = random_unit(rng, n)
        lam = float(rng.uniform(0, 1))
        built = enc.row_unitary(a, lam)
        assert np.max(np.abs(built.block(1, 1) + lam * np.outer(a, a) - np.eye(n))) <= 1e-13
        assert_allclose(built.block(1, 4), np.zeros((n, n)))


def test_entries_continuous_in_relaxation(rng):
    # away from the endpoints (where the coupling's slope diverges) a
    # 1e-6 parameter nudge moves no entry by more than 1e-5
    a = random_unit(rng, 3)
    for lam in np.linspace(0.01, 0.99 - 1e-6, 25):
        m0 = enc.row_unitary(a, float(lam)).matrix
        m1 = enc.row_unitary(a, float(lam) + 1e-6).matrix
        assert np.max(np.abs(m1 - m0)) <= 1e-5


def test_verify_unitary_reports():
    ident = enc.BlockUnitary(np.eye(4), 2, (2, 2), "test")
    report = enc.verify_unitary(ident)
    assert report.passed and report.symmetric and report.involutory
    perturbed = np.eye(4)
    perturbed[0, 1] = 1e-6
    report = enc.verify_unitary(enc.BlockUnitary(perturbed, 2, (2, 2), "test"))
    assert not report.passed
    assert report.max_orthogonality_deviation > 1e-12


def test_extract_block_bounds(rng):
    built = enc.row_unitary(random_unit(rng, 2), 0.5)
    assert built.block(1, 1).shape == (2, 2)
    with pytest.raises(UsageError):
        built.block(0, 1)
    with pytest.raises(UsageError):
        built.block(1, 5)


def test_dump_has_dimension_header(rng):
    built = enc.givens(enc.GivensParams(1.0, 0.0))
    text = built.dump()
    lines = text.strip().split("\n")
    assert lines[0].startswith("2 2")
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split()] == [1.0, 0.0]
