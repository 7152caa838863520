import io
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_oracle as dense
from dense_oracle import densify, sparsify
from helpers import random_consistent, random_unit, unit_residual_system
from qrelax import branch, classical, cli, encodings as enc, statevector as sv
from qrelax import worked_examples
from qrelax.errors import DomainError, InvariantViolation, KeyWidthError, ResourceError, UsageError
from qrelax.report import CONVERGED, MAX_STEPS
from qrelax.schedules import QUANTUM, RelaxationSchedule, SelectionStrategy
from qrelax.system import LinearSystem, normalize_columns, normalize_rows

R2 = math.sqrt(2.0)


# --- initial states ----------------------------------------------------------


def test_init_row_state_basis_vectors():
    state = sv.init_row_state(np.array([1.0, 0.0]))
    vec = densify(state)
    assert vec.size == 8
    assert vec[0] == 1.0
    assert np.count_nonzero(vec) == 1
    assert state.layout.ancillas == 2 and state.v == 1.0

    vec2 = densify(sv.init_row_state(np.array([0.0, 1.0])))
    assert vec2[1] == 1.0
    assert np.count_nonzero(vec2) == 1


def test_init_row_state_general_unit_vector():
    state = sv.init_row_state(np.array([0.6, 0.8]))
    assert state.norm == pytest.approx(1.0)
    assert np.count_nonzero(densify(state)) == 2


def test_init_row_state_rejects_non_unit():
    with pytest.raises(UsageError) as excinfo:
        sv.init_row_state(np.array([0.6, 0.9]))
    assert "branch" in str(excinfo.value) or "normalize" in str(excinfo.value)


# --- mixing weights -----------------------------------------------------------


def test_prepare_Y_mixing_weights(row_case):
    system, x0, _ = row_case
    state = sv.init_row_state(x0)
    prepared = sv.prepare_Y(state, system, 1)
    vec = densify(prepared)
    half = vec.size // 2
    beta = np.linalg.norm(vec[:half])
    gamma = np.linalg.norm(vec[half:])
    assert beta == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert gamma == pytest.approx(2 * R2 / 3.0, abs=1e-14)
    assert prepared.norm == pytest.approx(1.0, abs=1e-12)


def test_prepare_Y_second_iteration_weight(row_case):
    # after one iteration v=3 and the next rhs entry is sqrt(2)
    system, x0, steps = row_case
    state = sv.init_row_state(x0)
    state = sv.apply_row_iteration(sv.prepare_Y(state, system, 1), system, *steps[0])
    vec = densify(sv.prepare_Y(state, system, 2))
    beta = np.linalg.norm(vec[: vec.size // 2])
    assert beta == pytest.approx(3.0 / math.sqrt(11.0), abs=1e-14)


def test_prepare_Y_zero_rhs_entry_keeps_state(row_case):
    system, _, _ = row_case
    zero_rhs = LinearSystem(system.matrix, np.zeros(2), system.normalization, system.scale)
    state = sv.init_row_state(np.array([0.0, 1.0]))
    vec = densify(sv.prepare_Y(state, zero_rhs, 1))
    half = vec.size // 2
    assert_allclose(vec[:half], densify(state))
    assert_allclose(vec[half:], np.zeros(half))


def test_row_mixing_signed_gamma():
    beta, gamma = sv.row_mixing(1.0, -2.0 * R2)
    assert beta == pytest.approx(1.0 / 3.0)
    assert gamma == pytest.approx(-2.0 * R2 / 3.0)
    assert beta**2 + gamma**2 == pytest.approx(1.0)


# --- row iterations ------------------------------------------------------------


def test_row_iteration_worked_example_trace(row_case):
    system, x0, steps = row_case
    state = sv.init_row_state(x0)

    state = sv.apply_row_iteration(sv.prepare_Y(state, system, steps[0][0]), system, *steps[0])
    amp, direction = sv.extract_good_branch(state)
    assert amp == pytest.approx(math.sqrt(10.0) / 6.0, abs=1e-12)
    assert_allclose(direction, [3.0 / math.sqrt(10), 1.0 / math.sqrt(10)], atol=1e-12)
    assert state.v == pytest.approx(3.0)
    assert state.layout.ancillas == 5

    state = sv.apply_row_iteration(sv.prepare_Y(state, system, steps[1][0]), system, *steps[1])
    amp, direction = sv.extract_good_branch(state)
    assert amp == pytest.approx(2.0 / math.sqrt(11.0), abs=1e-12)
    assert_allclose(direction, [1.0, 0.0], atol=1e-12)
    assert state.v == pytest.approx(math.sqrt(11.0))
    assert state.layout.ancillas == 8
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_row_iteration_rejects_classical_only_relaxation(row_case):
    system, x0, _ = row_case
    prepared = sv.prepare_Y(sv.init_row_state(x0), system, 1)
    with pytest.raises(DomainError):
        sv.apply_row_iteration(prepared, system, 1, 1.5)


def test_row_iteration_shape_guards(row_case):
    system, x0, _ = row_case
    state = sv.init_row_state(x0)
    with pytest.raises(UsageError):
        sv.apply_row_iteration(state, system, 1, 0.5)  # not a prepared state
    prepared = sv.prepare_Y(state, system, 1)
    with pytest.raises(UsageError):
        sv.prepare_Y(prepared, system, 1)  # already prepared


# --- good-branch extraction and measurement -------------------------------------


def test_extract_good_branch_initial_and_zeroed(row_case):
    _, x0, _ = row_case
    state = sv.init_row_state(x0)
    amp, direction = sv.extract_good_branch(state)
    assert amp == pytest.approx(1.0)
    assert_allclose(direction, x0)

    hollow = densify(state)
    hollow[:2] = 0.0
    zeroed = sparsify(hollow, state.layout, state.k, state.v)
    amp, direction = sv.extract_good_branch(zeroed)
    assert amp == 0.0
    assert_allclose(direction, np.zeros(2))


def test_measure_ancillas_success_probability(row_case):
    system, x0, steps = row_case
    state = sv.init_row_state(x0)
    result = sv.measure_ancillas(state, seed=1)
    assert result.success_probability == pytest.approx(1.0)
    assert result.outcomes.shape == (1, 2)
    assert np.all(result.outcomes == 0)

    for (t, lam) in steps:
        state = sv.apply_row_iteration(sv.prepare_Y(state, system, t), system, t, lam)
    result = sv.measure_ancillas(state, seed=1)
    assert result.success_probability == pytest.approx(4.0 / 11.0, abs=1e-12)


def test_measure_ancillas_sampling_statistics(row_case):
    system, x0, steps = row_case
    state = sv.init_row_state(x0)
    for (t, lam) in steps:
        state = sv.apply_row_iteration(sv.prepare_Y(state, system, t), system, t, lam)
    shots = 100_000
    result = sv.measure_ancillas(state, seed=123, shots=shots)
    p = 4.0 / 11.0
    freq = np.mean(np.all(result.outcomes == 0, axis=1))
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(freq - p) <= 3 * sigma

    again = sv.measure_ancillas(state, seed=123, shots=shots)
    assert np.array_equal(result.outcomes, again.outcomes)
    with pytest.raises(UsageError):
        sv.measure_ancillas(state, shots=0)


# --- column initialization -------------------------------------------------------


def test_init_column_states_worked_example(column_case):
    system, x0, _ = column_case
    init = sv.init_column_states(x0, system)
    assert not init.converged
    assert init.delta == 1.0
    assert_allclose(init.residual0, [1 / R2, 1 / R2], atol=1e-14)
    amp, direction = sv.extract_good_branch(init.r_state)
    assert amp == pytest.approx(1.0)
    assert_allclose(direction, [1 / R2, 1 / R2], atol=1e-14)
    assert init.x_state.layout.ancillas == 2


def test_init_column_states_short_circuits_at_solution():
    system = normalize_columns(LinearSystem(np.eye(2), np.array([1.0, 0.0])))
    init = sv.init_column_states(np.array([1.0, 0.0]), system)
    assert init.converged
    assert init.r_state is None


def test_init_column_states_scaled_residual_embedding():
    # r0 = (2, 0): delta=1/2 and the good branch carries amplitude exactly 1
    system = normalize_columns(LinearSystem(np.eye(2), np.array([2.0, 1.0])))
    init = sv.init_column_states(np.array([0.0, 1.0]), system)
    assert init.delta == pytest.approx(0.5)
    amp, direction = sv.extract_good_branch(init.r_state)
    assert amp == pytest.approx(1.0)
    assert_allclose(direction, [1.0, 0.0])
    assert init.r_state.norm == pytest.approx(1.0)


# --- column iterations -------------------------------------------------------------


def test_column_iteration_worked_example_trace(column_case):
    system, x0, steps = column_case
    init = sv.init_column_states(x0, system)
    x_state, r_state = init.x_state, init.r_state

    x_state, r_state = sv.apply_column_iteration(x_state, r_state, system, *steps[0], init.delta)
    x_amp, x_dir = sv.extract_good_branch(x_state)
    r_amp, r_dir = sv.extract_good_branch(r_state)
    assert x_amp == pytest.approx((math.sqrt(5.0) / 2.0) / 2.0, abs=1e-12)
    assert_allclose(x_dir, [-1 / math.sqrt(5), 2 / math.sqrt(5)], atol=1e-12)
    assert_allclose(r_amp * r_dir, [1 / (2 * R2), 1 / (2 * R2)], atol=1e-12)
    assert x_state.v == pytest.approx(2.0)
    assert x_state.layout.ancillas == 4 and r_state.layout.ancillas == 4

    x_state, r_state = sv.apply_column_iteration(x_state, r_state, system, *steps[1], init.delta)
    x_amp, x_dir = sv.extract_good_branch(x_state)
    r_amp, _ = sv.extract_good_branch(r_state)
    assert x_amp == pytest.approx(R2 / 3.0, abs=1e-12)
    assert_allclose(x_dir, [-1 / R2, 1 / R2], atol=1e-12)
    assert r_amp <= 1e-14  # residual branch exactly exhausted
    assert x_state.v == pytest.approx(3.0)
    assert x_state.norm == pytest.approx(1.0, abs=1e-12)
    assert r_state.norm == pytest.approx(1.0, abs=1e-12)


def test_column_iteration_zero_relaxation(column_case):
    system, x0, _ = column_case
    init = sv.init_column_states(x0, system)
    x_state, r_state = sv.apply_column_iteration(
        init.x_state, init.r_state, system, 1, 0.0, init.delta
    )
    x_amp, x_dir = sv.extract_good_branch(x_state)
    r_amp, r_dir = sv.extract_good_branch(r_state)
    assert_allclose(x_dir, x0, atol=1e-14)  # direction unchanged
    assert x_amp == pytest.approx(0.5)  # amplitude rescaled by 1/v'
    assert r_amp == pytest.approx(1.0)
    assert_allclose(r_dir, [1 / R2, 1 / R2], atol=1e-14)


def test_column_iteration_register_guards(column_case):
    system, x0, _ = column_case
    init = sv.init_column_states(x0, system)
    stepped_x, _ = sv.apply_column_iteration(
        init.x_state, init.r_state, system, 1, 0.5, init.delta
    )
    with pytest.raises(UsageError):
        sv.apply_column_iteration(stepped_x, init.r_state, system, 1, 0.5, init.delta)


# --- full runs -----------------------------------------------------------------------


def test_run_algorithm1_worked_example(row_case):
    system, x0, steps = row_case
    report, state = sv.run_algorithm1(
        system, x0,
        RelaxationSchedule.explicit([lam for _, lam in steps], QUANTUM),
        SelectionStrategy.explicit([t for t, _ in steps]),
        max_steps=2,
    )
    assert report.status == MAX_STEPS  # two steps do not reach the solution
    amp, direction = sv.extract_good_branch(state)
    assert_allclose(direction, [1.0, 0.0], atol=1e-12)
    assert state.v == pytest.approx(math.sqrt(11.0), abs=1e-12)
    assert [rec.k for rec in report.records] == [0, 1, 2]
    assert report.records[2].fidelity >= 1 - 1e-12
    assert report.records[2].amplitude == pytest.approx(2 / math.sqrt(11), abs=1e-12)


def test_run_algorithm2_worked_example(column_case):
    system, x0, steps = column_case
    report, x_state, r_state = sv.run_algorithm2(
        system, x0,
        RelaxationSchedule.explicit([om for _, om in steps], QUANTUM),
        SelectionStrategy.explicit([t for t, _ in steps]),
        max_steps=2,
    )
    assert report.status == CONVERGED
    r_amp, _ = sv.extract_good_branch(r_state)
    assert r_amp <= 1e-14
    assert report.final.residual_norm <= 1e-12


def test_run_algorithm1_fidelity_against_oracle(rng):
    system, _ = random_consistent(rng, 4)
    normed = normalize_rows(system)
    x0 = random_unit(rng, 4)
    report, _ = sv.run_algorithm1(
        normed, x0, RelaxationSchedule.constant(1.0, QUANTUM),
        SelectionStrategy.cyclic(), max_steps=4, tol=0.0,
    )
    for rec in report.records:
        assert rec.fidelity >= 1 - 1e-9


def test_run_algorithm1_memory_guard(rng):
    system, _ = random_consistent(rng, 3)
    normed = normalize_rows(system)
    x0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ResourceError) as excinfo:
        sv.run_algorithm1(
            normed, x0, RelaxationSchedule.constant(0.5, QUANTUM),
            SelectionStrategy.cyclic(), max_steps=50, tol=0.0, mem_limit=4000,
        )
    err = excinfo.value
    assert err.k >= 1
    # Row iteration k at 0 < lam < 1 stores 3^k keys and gathers them into
    # 3^k groups; the guard counts the prepared input, the gather buffer
    # twice and the new blocks, three index words beside each n=3 block,
    # and the operators kept on the system: cyclic selection has stepped
    # along rows 1..k+1, one 4n x 4n matrix and its 4x4 block pattern each.
    k = err.k
    kept = sv._operators(normed)
    assert set(kept) == {(classical.ROW, t, 0.5) for t in range(1, k + 2)}
    assert kept.nbytes == (k + 1) * (12 * 12 * 8 + 4 * 4)
    blocks = (3**k + 1) + 2 * 4 * 3**k + 3 ** (k + 1)
    assert err.required_bytes == blocks * (3 + 3) * 8 + kept.nbytes
    assert err.required_bytes > 4000


def test_public_iterations_guard_memory(row_case, column_case):
    # Take the first step of each worked example, then give the second one
    # a byte less than its prediction.
    system, x0, ((t1, lam1), (t, lam)) = row_case
    state = sv.init_row_state(x0)
    state = sv.apply_row_iteration(sv.prepare_Y(state, system, t1), system, t1, lam1)
    prepared = sv.prepare_Y(state, system, t)
    with pytest.raises(ResourceError) as excinfo:
        sv.apply_row_iteration(prepared, system, t, lam, mem_limit=0)
    required = excinfo.value.required_bytes
    with pytest.raises(ResourceError, match="at iteration k=1 ") as excinfo:
        sv.apply_row_iteration(prepared, system, t, lam, mem_limit=required - 1)
    assert excinfo.value.k == prepared.k == 1
    assert sv.apply_row_iteration(prepared, system, t, lam, mem_limit=required).k == 2

    system, x0, ((t1, omega1), (t, omega)) = column_case
    init = sv.init_column_states(x0, system)
    x_state, r_state = sv.apply_column_iteration(init.x_state, init.r_state, system, t1,
                                                 omega1, init.delta)
    args = (x_state, r_state, system, t, omega, init.delta)
    with pytest.raises(ResourceError) as excinfo:
        sv.apply_column_iteration(*args, mem_limit=0)
    required = excinfo.value.required_bytes
    with pytest.raises(ResourceError, match="at iteration k=1 ") as excinfo:
        sv.apply_column_iteration(*args, mem_limit=required - 1)
    assert excinfo.value.k == x_state.k == 1
    assert sv.apply_column_iteration(*args, mem_limit=required)[0].k == 2


def test_norm_drift_detection(row_case):
    system, x0, _ = row_case
    state = sv.init_row_state(x0)
    bad = sparsify(densify(state) * 1.5, state.layout, state.k, state.v)
    with pytest.raises(InvariantViolation):
        sv.assert_normalized(bad)


# --- invariants -------------------------------------------------------------------


def test_register_accounting_row_and_column(rng):
    system, _ = random_consistent(rng, 3)
    sys_r, sys_c = normalize_rows(system), normalize_columns(system)
    x0 = random_unit(rng, 3)

    state = sv.init_row_state(x0)
    for k in range(3):
        assert state.layout.ancillas == 3 * k + 2 == sv.ancillas(classical.ROW, k)
        t = int(rng.integers(1, 4))
        state = sv.apply_row_iteration(sv.prepare_Y(state, sys_r, t), sys_r, t, 0.7)
    assert state.layout.ancillas == 3 * 3 + 2
    assert state.layout.qubit_total == state.layout.ancillas + 2  # ceil(log2 3) = 2

    init = sv.init_column_states(x0, sys_c)
    x_state, r_state = init.x_state, init.r_state
    for k in range(3):
        assert x_state.layout.ancillas == 2 * (k + 1) == sv.ancillas(classical.COLUMN, k)
        assert r_state.layout.ancillas == 2 * (k + 1)
        t = int(rng.integers(1, 4))
        x_state, r_state = sv.apply_column_iteration(
            x_state, r_state, sys_c, t, 0.6, init.delta
        )
    assert x_state.layout.ancillas == 2 * 4
    with pytest.raises(UsageError):
        sv.ancillas("diagonal", 0)


def test_v_recursion_row(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        system = normalize_rows(random_consistent(rng, n)[0])
        x0 = random_unit(rng, n)
        state = sv.init_row_state(x0)
        b_seen = []
        for _ in range(3):
            t = int(rng.integers(1, n + 1))
            lam = float(rng.uniform(0, 1))
            state = sv.apply_row_iteration(sv.prepare_Y(state, system, t), system, t, lam)
            b_seen.append(system.rhs_entry(t))
        assert state.v**2 == pytest.approx(1.0 + sum(b * b for b in b_seen), abs=1e-10)


def test_junk_isolation_row(row_case):
    # zeroing every junk amplitude must not change the next good branch
    system, x0, steps = row_case
    state = sv.init_row_state(x0)
    state = sv.apply_row_iteration(sv.prepare_Y(state, system, steps[0][0]), system, *steps[0])
    vec = densify(state)
    assert np.linalg.norm(vec[2:]) > 1e-3  # junk really present

    truncated_vec = np.zeros_like(vec)
    truncated_vec[:2] = vec[:2]
    truncated = sparsify(truncated_vec, state.layout, state.k, state.v)

    t, lam = steps[1]
    full_next = densify(sv.apply_row_iteration(sv.prepare_Y(state, system, t), system, t, lam))
    trunc_next = densify(
        sv.apply_row_iteration(sv.prepare_Y(truncated, system, t), system, t, lam)
    )
    assert np.max(np.abs(full_next[:2] - trunc_next[:2])) <= 1e-12


def test_junk_isolation_column(column_case):
    system, x0, steps = column_case
    init = sv.init_column_states(x0, system)
    x_state, r_state = sv.apply_column_iteration(
        init.x_state, init.r_state, system, *steps[0], init.delta
    )
    vec = densify(x_state)
    assert np.linalg.norm(vec[2:]) > 1e-3

    trunc_vec = np.zeros_like(vec)
    trunc_vec[:2] = vec[:2]
    truncated = sparsify(trunc_vec, x_state.layout, x_state.k, x_state.v)

    t, omega = steps[1]
    full_x, _ = sv.apply_column_iteration(x_state, r_state, system, t, omega, init.delta)
    trunc_x, _ = sv.apply_column_iteration(truncated, r_state, system, t, omega, init.delta)
    assert np.max(np.abs(densify(full_x)[:2] - densify(trunc_x)[:2])) <= 1e-12


def test_norm_preserved_through_operations(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        system = normalize_rows(random_consistent(rng, n)[0])
        x0 = random_unit(rng, n)
        state = sv.init_row_state(x0)
        for _ in range(3):
            t = int(rng.integers(1, n + 1))
            prepared = sv.prepare_Y(state, system, t)
            assert abs(prepared.norm - 1.0) <= 1e-10
            state = sv.apply_row_iteration(prepared, system, t, float(rng.uniform(0, 1)))
            assert abs(state.norm - 1.0) <= 1e-10


def test_generalized_embedding_schedule_against_oracle(rng):
    # brute-force statevector runs on random 2x2 systems with non-unit
    # initial residuals: the generalized weights must track the oracle
    for _ in range(40):
        system = normalize_columns(random_consistent(rng, 2)[0])
        x0 = random_unit(rng, 2)
        init = sv.init_column_states(x0, system)
        if init.converged:
            continue
        assert init.delta != 1.0 or abs(np.linalg.norm(init.residual0) - 1) <= 1e-12
        x_state, r_state = init.x_state, init.r_state
        oracle = classical.ColumnIterate(x0, system.residual(x0))
        for _ in range(3):
            t = int(rng.integers(1, 3))
            omega = float(rng.uniform(0, 1))
            x_state, r_state = sv.apply_column_iteration(
                x_state, r_state, system, t, omega, init.delta
            )
            oracle = classical.column_step(oracle, system, t, omega)
            amp, direction = sv.extract_good_branch(x_state)
            r_amp, _ = sv.extract_good_branch(r_state)
            x_norm = np.linalg.norm(oracle.x)
            assert amp == pytest.approx(x_norm / x_state.v, abs=1e-9)
            assert r_amp == pytest.approx(init.delta * np.linalg.norm(oracle.r), abs=1e-9)
            if x_norm > 1e-9:
                assert abs(direction @ (oracle.x / x_norm)) >= 1 - 1e-9


def test_unit_residual_runs_use_delta_one(rng):
    x0 = random_unit(rng, 3)
    system = normalize_columns(unit_residual_system(rng, 3, x0))
    init = sv.init_column_states(x0, system)
    assert init.delta == 1.0
    x_state, r_state = init.x_state, init.r_state
    for k in range(3):
        t = int(rng.integers(1, 4))
        x_state, r_state = sv.apply_column_iteration(
            x_state, r_state, system, t, float(rng.uniform(0, 1)), init.delta
        )
        assert x_state.v == k + 2  # exactly k+1 after k steps


def test_swap_matches_dense_permutation_operator(rng):
    # brute-force oracle: build the dense SWAP matrix by permuting basis
    # states and compare against the axis-swap implementation
    m, n = 3, 2
    dim = (1 << m) * n
    for i, j in ((1, 2), (1, 3), (2, 3)):
        oracle = np.zeros((dim, dim))
        for anc in range(1 << m):
            bits = [(anc >> (m - 1 - q)) & 1 for q in range(m)]
            bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
            target = sum(b << (m - 1 - q) for q, b in enumerate(bits))
            for d in range(n):
                oracle[target * n + d, anc * n + d] = 1.0
        vec = rng.normal(size=dim)
        assert_allclose(dense._swap_qubits(vec, m, n, i, j), oracle @ vec, atol=1e-15)


def test_tail_and_last_qubit_operators_match_kron_oracle(rng):
    m, n = 3, 2
    vec = rng.normal(size=(1 << m) * n)
    four_block = rng.normal(size=(4 * n, 4 * n))
    oracle = np.kron(np.eye(1 << (m - 2)), four_block)
    assert_allclose(dense._apply_tail_operator(vec, four_block), oracle @ vec, atol=1e-13)

    single = rng.normal(size=(2, 2))
    oracle = np.kron(np.eye(1 << (m - 1)), np.kron(single, np.eye(n)))
    assert_allclose(dense._apply_last_qubit(vec, n, single), oracle @ vec, atol=1e-13)

    data_op = rng.normal(size=(n, n))
    oracle = np.kron(np.eye(1 << m), data_op)
    assert_allclose(dense._apply_tail_operator(vec, data_op), oracle @ vec, atol=1e-13)


def _pad_then_swap(n, m, parts):
    # The routing _park replaces: prepend two qubits in |slot>, then
    # SWAP(1, m+1) and SWAP(2, m+2) on the m+2 ancillas.
    size = next(iter(parts.values())).size
    padded = np.zeros(4 * size)
    for slot, vec in parts.items():
        padded[slot * size : (slot + 1) * size] = vec
    padded = dense._swap_qubits(padded, m + 2, n, 1, m + 1)
    return dense._swap_qubits(padded, m + 2, n, 2, m + 2)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 3])
def test_park_equals_pad_then_two_swaps(rng, m, n):
    vec, other = rng.normal(size=(2, (1 << m) * n))
    cases = [{slot: vec} for slot in range(4)] + [{0: vec, 2: other}]
    for parts in cases:
        parked = dense._park(n, parts)
        assert parked.shape == ((1 << (m + 2)) * n,)
        assert np.array_equal(parked, _pad_then_swap(n, m, parts))


def test_state_dump_lists_nonzero_amplitudes(row_case):
    system, x0, steps = row_case
    state = sv.init_row_state(x0)
    dump = state.dump()
    assert dump.splitlines() == ["00 1 1.0"]
    state = sv.apply_row_iteration(sv.prepare_Y(state, system, steps[0][0]), system, *steps[0])
    lines = state.dump().splitlines()
    assert all(len(line.split()) == 3 for line in lines)
    assert all(len(line.split()[0]) == 5 for line in lines)


# --- the sparse engine against the dense oracle ----------------------------------


def _sparse_state(rng, m, n, count):
    keys = np.sort(rng.choice(1 << m, size=count, replace=False)).astype(np.int64)
    return sv.SimState(keys, rng.normal(size=(count, n)), sv.RegisterLayout(m, n), 0, 1.0)


def test_sparse_kernels_match_dense_helpers(rng):
    m, n = 5, 3
    state = _sparse_state(rng, m, n, 11)
    vec = densify(state)
    for i, j in ((1, 4), (2, 5), (3, 3)):
        keys = sv._swap_keys(state.keys, m, i, j)
        order = np.argsort(keys)
        swapped = sv.SimState(keys[order], state.vec[order], state.layout, 0, 1.0)
        assert np.array_equal(densify(swapped), dense._swap_qubits(vec, m, n, i, j))

    four_block = rng.normal(size=(4 * n, 4 * n))
    four_block[:n, 2 * n : 3 * n] = 0.0  # a zero block feeds nothing
    route = sv._route(state.keys, sv._pattern(four_block, 4))
    occupied = {}
    for key in state.keys.tolist():
        occupied.setdefault(key >> 2, set()).add(key & 3)
    # Slot 0 is fed unless its group holds slot 2 alone.
    assert route.keys.size == sum(3 if slots == {2} else 4 for slots in occupied.values())
    out = sv.SimState(route.keys, sv._apply_routed(route, state.vec, four_block),
                      state.layout, 0, 1.0)
    assert_allclose(densify(out), dense._apply_tail_operator(vec, four_block), atol=1e-13)

    for slot in range(4):
        keys = sv._park_keys(state.keys, m, slot)
        order = np.argsort(keys)
        parked = sv.SimState(keys[order], state.vec[order], sv.RegisterLayout(m + 2, n), 0, 1.0)
        assert np.array_equal(densify(parked), dense._park(n, {slot: vec}))


def _unique_route(keys, *patterns):
    """(group, slot, rows, keep, keys) of a route, grouped by np.unique."""
    slots = patterns[0].shape[0]
    bits = slots.bit_length() - 1
    groups, group = np.unique(keys >> bits, return_inverse=True)
    slot = keys & (slots - 1)
    fed = np.zeros((groups.size, slots), dtype=bool)
    fed[group, slot] = True
    for pattern in patterns:
        fed = fed @ pattern.T
    keep = np.flatnonzero(fed)
    return group, slot, groups.size, keep, (groups[keep // slots] << bits) | (keep % slots)


def _assert_route_equals(route, expected):
    group, slot, rows, keep, keys = expected
    assert route.rows == rows and route.slots == 4
    for got, want in ((route.group, group), (route.slot, slot), (route.keep, keep),
                      (route.keys, keys)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _route_patterns(n, t, omega, rng):
    """The block patterns of the row, residual and column-update routes,
    each checked against its blocks sliced one at a time."""
    column = random_unit(rng, n)
    update = enc.column_update_unitary(t, omega, n).matrix
    rotation = enc.givens(enc.GivensParams(0.6, 0.8)).matrix
    patterns = {}
    for name, matrix in (("row", enc.row_unitary(column, omega).matrix),
                         ("residual", enc.column_residual_unitary(column, omega).matrix),
                         ("update", update)):
        pattern = sv._pattern(matrix, 4)
        blocks = [[matrix[i * n:(i + 1) * n, j * n:(j + 1) * n].any() for j in range(4)]
                  for i in range(4)]
        assert np.array_equal(pattern, blocks)
        patterns[name] = (pattern,)
    patterns["update"] += (np.kron(np.eye(2, dtype=bool), rotation != 0),)
    return patterns


@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_route_groups_like_np_unique(rng, omega):
    high = (1 << 62) - 1
    key_sets = [
        np.zeros(0, dtype=np.int64),
        np.array([5], dtype=np.int64),
        # unsorted, and several keys share each key >> 2
        np.array([13, 4, 15, 1, 6, 12, 0, 7, 3], dtype=np.int64),
        np.array([high, 4, high - 5, high - 2, (1 << 62) + 9, 1 << 62, 0], dtype=np.int64),
        rng.permutation(rng.choice(1 << 12, size=200, replace=False)).astype(np.int64),
    ]
    for patterns in _route_patterns(3, 2, omega, rng).values():
        for keys in key_sets:
            _assert_route_equals(sv._route(keys, *patterns), _unique_route(keys, *patterns))


def test_parked_routes_like_np_unique(rng):
    m = 61
    top = (1 << m) - 1
    key_sets = [
        np.zeros(0, dtype=np.int64),
        np.array([top], dtype=np.int64),
        np.array([top, 2, top - 6, 9, top - 3, 8, 1 << 60], dtype=np.int64),
        rng.permutation(rng.choice(1 << 10, size=100, replace=False)).astype(np.int64),
    ]
    for patterns in _route_patterns(4, 3, 0.5, rng).values():
        for keys in key_sets:
            group, slot, rows, keep, out = _unique_route(keys, *patterns)
            parked = sv._park_keys(out, m, 0)
            order = np.argsort(parked)
            _assert_route_equals(sv._parked(sv._route(keys, *patterns), m),
                                 (group, slot, rows, keep[order], parked[order]))


def _lockstep(direction, strategy, value, steps=5):
    # A seeded n=3 system stepped by the sparse engine and the dense
    # oracle on the trajectory of a sparse run; yields (sparse, dense)
    # register pairs after every iteration.
    rng = np.random.default_rng(7)
    system = random_consistent(rng, 3)[0]
    x0 = random_unit(rng, 3)
    schedule = RelaxationSchedule.constant(value, QUANTUM)
    if direction == classical.ROW:
        system = normalize_rows(system)
        report, _ = sv.run_algorithm1(system, x0, schedule, strategy, steps, tol=0.0)
        state, oracle = sv.init_row_state(x0), dense.init_row_state(x0)
        for rec in report.records[1:]:
            state = sv.apply_row_iteration(sv.prepare_Y(state, system, rec.t), system,
                                           rec.t, rec.relaxation)
            oracle = dense.apply_row_iteration(dense.prepare_Y(oracle, system, rec.t), system,
                                               rec.t, rec.relaxation)
            yield [(state, oracle)]
        return
    system = normalize_columns(system)
    report, _, _ = sv.run_algorithm2(system, x0, schedule, strategy, steps, tol=0.0)
    init = sv.init_column_states(x0, system)
    x_state, r_state = init.x_state, init.r_state
    x_oracle, r_oracle, delta = dense.init_column_states(x0, system)
    for rec in report.records[1:]:
        x_state, r_state = sv.apply_column_iteration(
            x_state, r_state, system, rec.t, rec.relaxation, init.delta
        )
        x_oracle, r_oracle = dense.apply_column_iteration(
            x_oracle, r_oracle, system, rec.t, rec.relaxation, delta
        )
        yield [(x_state, x_oracle), (r_state, r_oracle)]


@pytest.mark.parametrize("value", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("strategy", [SelectionStrategy.cyclic(),
                                      SelectionStrategy.random_uniform(11)],
                         ids=["cyclic", "random"])
@pytest.mark.parametrize("direction", [classical.ROW, classical.COLUMN])
def test_sparse_run_densified_equals_dense_oracle(direction, strategy, value):
    steps = 0
    for registers in _lockstep(direction, strategy, value):
        steps += 1
        for state, oracle in registers:
            assert state.layout.ancillas == oracle.ancillas
            vec = densify(state)
            assert np.max(np.abs(vec - oracle.vec)) <= 1e-15
            assert state.dump() == dense.dump(vec, oracle.ancillas, state.layout.data_dim)
    assert steps == 5


@pytest.mark.parametrize("direction", [classical.ROW, classical.COLUMN])
def test_sparse_run_records_match_dense_run(rng, direction):
    system = random_consistent(rng, 3)[0]
    x0 = random_unit(rng, 3)
    schedule = RelaxationSchedule.constant(0.75, QUANTUM)
    if direction == classical.ROW:
        system, runs = normalize_rows(system), (sv.run_algorithm1, dense.run_algorithm1)
    else:
        system, runs = normalize_columns(system), (sv.run_algorithm2, dense.run_algorithm2)
    args = (system, x0, schedule, SelectionStrategy.random_uniform(5), 5)
    (sparse_report, *states), (dense_report, *oracles) = (run(*args, tol=0.0) for run in runs)
    for a, b in zip(sparse_report.records, dense_report.records, strict=True):
        assert a.t == b.t
        assert abs(a.amplitude - b.amplitude) <= 1e-15
        assert abs(a.fidelity - b.fidelity) <= 1e-15
    for state, oracle in zip(states, oracles, strict=True):
        assert np.max(np.abs(densify(state) - oracle.vec)) <= 1e-15


def test_zero_rhs_entry_still_adds_its_key(row_case):
    system, _, _ = row_case
    zero_rhs = LinearSystem(system.matrix, np.zeros(2), system.normalization, system.scale)
    state = sv.init_row_state(np.array([0.0, 1.0]))
    prepared = sv.prepare_Y(state, zero_rhs, 1)
    assert prepared.keys.tolist() == [0, 1 << 2]
    assert np.array_equal(prepared.vec[1], [0.0, 0.0])
    # The zero block still feeds three slots of its pair.
    assert sv.apply_row_iteration(prepared, zero_rhs, 1, 0.5).keys.size == 3


def _deep_system(rng, direction):
    system = random_consistent(rng, 8, cond=10.0)[0]
    return normalize_rows(system) if direction == classical.ROW else normalize_columns(system)


@pytest.mark.parametrize("direction, depth", [(classical.ROW, 10), (classical.COLUMN, 11)])
def test_deep_runs_fit_the_default_limit(rng, direction, depth):
    # Depths the dense engine cannot reach under the default limit.
    system = _deep_system(rng, direction)
    x0 = np.eye(8)[0]
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    strategy = SelectionStrategy.random_uniform(3)
    if direction == classical.ROW:
        report, _ = sv.run_algorithm1(system, x0, schedule, strategy, depth, tol=0.0)
        state = branch.init_row_branch(x0)
        step = branch.row_branch_step
    else:
        report, _, _ = sv.run_algorithm2(system, x0, schedule, strategy, depth, tol=0.0)
        state = branch.init_column_branch(x0, system)
        step = branch.column_branch_step
    assert report.steps_taken == depth
    for rec in report.records[1:]:
        state = step(state, system, rec.t, rec.relaxation)
        assert abs(rec.amplitude - state.amplitude) <= 1e-9

    # The dense engine's guard stops the same run before its last iteration.
    with pytest.raises(ResourceError):
        dense.guard(depth - 1, direction, system.n, sv.DEFAULT_MEM_LIMIT)


def _traced_peak(tracker, advance):
    # Peak traced bytes of ``advance``, counting the tracker's input
    # registers (copied while tracing) as the guard does.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in ("state", "r_state"):
            if hasattr(tracker, name):
                s = getattr(tracker, name)
                setattr(tracker, name, sv.SimState(s.keys.copy(), s.vec.copy(), s.layout, s.k, s.v))
        tracemalloc.reset_peak()
        advance(tracker)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tracker_class", [sv._RowTracker, sv._ColumnTracker])
def test_memory_guard_bounds_traced_peak(rng, tracker_class):
    k, value = 6, 0.7
    direction = classical.ROW if tracker_class is sv._RowTracker else classical.COLUMN
    system = _deep_system(rng, direction)
    x0 = random_unit(rng, 8)
    ts = [int(t) for t in rng.integers(1, 9, size=k + 1)]

    def at_k(mem_limit):
        tracker = tracker_class(system, x0, sv.DEFAULT_MEM_LIMIT)
        for j in range(k):
            tracker.advance(j, ts[j], value)
        tracker.mem_limit = mem_limit
        return tracker

    tracker = at_k(mem_limit=0)
    with pytest.raises(ResourceError) as excinfo:
        tracker.advance(k, ts[k], value)
    predicted = excinfo.value.required_bytes
    peak = _traced_peak(at_k(sv.DEFAULT_MEM_LIMIT), lambda tr: tr.advance(k, ts[k], value))
    assert peak <= predicted <= 4 * peak


def test_key_width_stops_registers_at_62_ancillas(row_case, column_case):
    system, _, _ = row_case
    for k, fits in ((19, True), (20, False)):
        m = sv.ancillas(classical.ROW, k)
        state = sv.SimState(np.zeros(1, dtype=np.int64), np.array([[1.0, 0.0]]),
                            sv.RegisterLayout(m, 2), k, 1.0)
        prepared = sv.prepare_Y(state, system, 1)
        if fits:
            nxt = sv.apply_row_iteration(prepared, system, 1, 0.5)
            assert nxt.layout.ancillas == sv.KEY_BITS and nxt.keys[-1] < 1 << sv.KEY_BITS
        else:
            with pytest.raises(KeyWidthError, match="62-bit ancilla key width"):
                sv.apply_row_iteration(prepared, system, 1, 0.5)

    system, x0, _ = column_case
    init = sv.init_column_states(x0, system)
    for k, fits in ((29, True), (30, False)):
        layout = sv.RegisterLayout(sv.ancillas(classical.COLUMN, k), 2)
        x_state, r_state = (sv.SimState(s.keys, s.vec, layout, k, s.v)
                            for s in (init.x_state, init.r_state))
        if fits:
            nxt, _ = sv.apply_column_iteration(x_state, r_state, system, 1, 0.5, init.delta)
            assert nxt.layout.ancillas == sv.KEY_BITS
        else:
            with pytest.raises(ResourceError, match="key width"):
                sv.apply_column_iteration(x_state, r_state, system, 1, 0.5, init.delta)


# --- operators kept on the system ------------------------------------------------


def _count_builders(monkeypatch):
    """Wrap the builders statevector iterations call; returns the list of
    (builder, index or vector bytes, relaxation) they are called with."""
    calls = []
    for name, key in (("row_unitary", lambda a, lam: (a.tobytes(), lam)),
                      ("state_prep_col", lambda c, t: (t, None)),
                      ("column_update_unitary", lambda t, omega, n: (t, omega)),
                      ("column_residual_unitary", lambda c, omega: (c.tobytes(), omega))):
        build = getattr(sv, name)

        def counting(*args, name=name, key=key, build=build):
            calls.append((name, *key(*args)))
            return build(*args)

        monkeypatch.setattr(sv, name, counting)
    return calls


def _built(system, keys):
    """The builder calls that make the entries ``keys`` of ``system``."""
    out = []
    for kind, t, value in keys:
        if kind == classical.ROW:
            out.append(("row_unitary", system.row(t).tobytes(), value))
        else:
            out += [("state_prep_col", t, None), ("column_update_unitary", t, value),
                    ("column_residual_unitary", system.column(t).tobytes(), value)]
    return out


def test_operators_are_built_once_per_system(monkeypatch, rng):
    calls = _count_builders(monkeypatch)
    raw = random_consistent(rng, 4)[0]
    x0 = random_unit(rng, 4)
    systems = {classical.ROW: normalize_rows(raw), classical.COLUMN: normalize_columns(raw)}
    runs = {classical.ROW: sv.run_algorithm1, classical.COLUMN: sv.run_algorithm2}
    expected = []
    for direction, system in systems.items():
        # Two runs whose (t, value) pairs overlap, then a sweep whose lanes
        # share the system.
        for strategy, value in ((SelectionStrategy.cyclic(), 0.5),
                                (SelectionStrategy.random_uniform(9), 0.5)):
            report = runs[direction](system, x0, RelaxationSchedule.constant(value, QUANTUM),
                                     strategy, 5, tol=0.0)[0]
            expected += [(direction, rec.t, rec.relaxation) for rec in report.records[1:]]
        base = RelaxationSchedule.constant(1.0, QUANTUM)
        monkeypatch.setattr(cli, "_prepare", lambda config, system=system: (
            system, x0, base, SelectionStrategy.cyclic()))
        config = cli.RunConfig("inline", mode=f"sim-{direction}", steps=4, tol=0.0)
        assert cli.cmd_sweep(config, [0.5, 0.75, 1.0], stdout=io.StringIO()) == cli.EXIT_OK
        expected += [(direction, t, value) for t in range(1, 5) for value in (0.5, 0.75, 1.0)]
    for direction, system in systems.items():
        kept = sv._operators(system)
        assert set(kept) == {key for key in expected if key[0] == direction}
        assert kept.nbytes == sum(array.nbytes for entry in kept.values() for array in entry)
    want = [call for system in systems.values() for call in _built(system, sv._operators(system))]
    assert sorted(calls, key=repr) == sorted(want, key=repr)

    # Each entry is read-only and holds the builders' bits.
    for (kind, t, value), entry in sv._operators(systems[classical.ROW]).items():
        matrix, pattern = entry
        assert matrix.tobytes() == enc.row_unitary(systems[kind].row(t), value).matrix.tobytes()
        assert np.array_equal(pattern, sv._pattern(matrix, 4))
    for (kind, t, value), entry in sv._operators(systems[classical.COLUMN]).items():
        column = systems[kind].column(t)
        prep, update, update_pattern, contraction, contraction_pattern = entry
        assert prep.tobytes() == enc.state_prep_col(column, t).matrix.tobytes()
        assert update.tobytes() == enc.column_update_unitary(t, value, 4).matrix.tobytes()
        assert contraction.tobytes() == enc.column_residual_unitary(column, value).matrix.tobytes()
        assert np.array_equal(update_pattern, sv._pattern(update, 4))
        assert np.array_equal(contraction_pattern, sv._pattern(contraction, 4))
    for system in systems.values():
        for entry in sv._operators(system).values():
            assert not any(array.flags.writeable for array in entry)

    # Classical and branch runs build none; a fresh system builds its own.
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    built = len(calls)
    fresh = {classical.ROW: normalize_rows(raw), classical.COLUMN: normalize_columns(raw)}
    for direction, system in fresh.items():
        classical.run_classical(system, x0, schedule, SelectionStrategy.cyclic(), 5, direction)
        branch.run_branch(system, x0, schedule, SelectionStrategy.cyclic(), 5, direction)
        assert "_operators" not in system.__dict__
    assert len(calls) == built
    report = sv.run_algorithm1(fresh[classical.ROW], x0, schedule, SelectionStrategy.cyclic(), 2,
                               tol=0.0)[0]
    keys = [(classical.ROW, rec.t, 0.5) for rec in report.records[1:]]
    assert calls[built:] == _built(fresh[classical.ROW], keys)
    assert list(sv._operators(fresh[classical.ROW])) == keys


@pytest.mark.parametrize("direction", [classical.ROW, classical.COLUMN])
def test_warm_runs_equal_cold_runs(rng, direction):
    raw = random_consistent(rng, 4)[0]
    x0 = random_unit(rng, 4)
    if direction == classical.ROW:
        normalize, run = normalize_rows, sv.run_algorithm1
    else:
        normalize, run = normalize_columns, sv.run_algorithm2

    def solve(system, value):
        report, *states = run(system, x0, RelaxationSchedule.constant(value, QUANTUM),
                              SelectionStrategy.random_uniform(6), 6, tol=0.0)
        return repr(report.records), [(s.keys.tobytes(), s.vec.tobytes(), s.layout, s.k, s.v)
                                      for s in states]

    system = normalize(raw)
    # -0.0 is in the domain and equals 0.0 as a key, so its run on
    # ``system`` takes the entries the 0.0 run built; the fresh copy
    # builds its own from -0.0.
    for value in (0.5, 0.0, -0.0):
        first = solve(system, value)
        entries = len(sv._operators(system))
        assert solve(system, value) == first
        assert len(sv._operators(system)) == entries
        assert solve(normalize(raw), value) == first
    assert "-0.0" in first[0]


@pytest.mark.parametrize("direction", [classical.ROW, classical.COLUMN])
def test_a_warm_system_predicts_its_kept_operators(rng, direction):
    raw = random_consistent(rng, 3)[0]
    x0 = random_unit(rng, 3)
    if direction == classical.ROW:
        normalize, run = normalize_rows, sv.run_algorithm1
    else:
        normalize, run = normalize_columns, sv.run_algorithm2

    def first_prediction(system):
        with pytest.raises(ResourceError) as excinfo:
            run(system, x0, RelaxationSchedule.constant(0.5, QUANTUM),
                SelectionStrategy.cyclic(), 3, tol=0.0, mem_limit=1)
        assert excinfo.value.k == 0
        return excinfo.value.required_bytes

    cold = normalize(raw)
    cold_bytes = first_prediction(cold)
    warm = normalize(raw)
    run(warm, x0, RelaxationSchedule.explicit([0.25, 0.5, 1.0, 0.5], QUANTUM),
        SelectionStrategy.explicit([2, 3, 1, 1]), 4, tol=0.0)
    kept = sv._operators(warm).nbytes
    assert kept > sv._operators(cold).nbytes > 0
    assert first_prediction(warm) - cold_bytes == kept - sv._operators(cold).nbytes
    assert sv._operators(warm).nbytes == kept


@pytest.mark.parametrize("name, mutant", [
    ("row_unitary", lambda build: lambda a, lam: build(a, lam / 2)),
    ("column_update_unitary", lambda build: lambda t, omega, n: build(t, omega / 2, n)),
    ("column_residual_unitary", lambda build: lambda c, omega: build(c, omega / 2)),
])
def test_a_kept_operator_never_masks_a_builder_on_another_system(monkeypatch, capsys, name,
                                                                 mutant):
    # Warm the worked examples' systems, then swap in a builder the worked
    # examples catch: reproduce-paper builds fresh systems, so it fails,
    # while the warm systems keep the operators built before the swap.
    row_system, row_x0, row_steps = worked_examples.row_example()
    column_system, column_x0, column_steps = worked_examples.column_example()

    def step_examples():
        state = sv.init_row_state(row_x0)
        for t, lam in row_steps:
            state = sv.apply_row_iteration(sv.prepare_Y(state, row_system, t), row_system, t, lam)
        init = sv.init_column_states(column_x0, column_system)
        x_state, r_state = init.x_state, init.r_state
        for t, omega in column_steps:
            x_state, r_state = sv.apply_column_iteration(x_state, r_state, column_system, t,
                                                         omega, init.delta)
        return [(s.keys.tobytes(), s.vec.tobytes()) for s in (state, x_state, r_state)]

    warm = step_examples()
    assert cli.cmd_reproduce_paper() == cli.EXIT_OK
    monkeypatch.setattr(sv, name, mutant(getattr(sv, name)))
    assert cli.cmd_reproduce_paper() == cli.EXIT_ERROR
    assert "FAIL" in capsys.readouterr().out
    assert step_examples() == warm
