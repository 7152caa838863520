import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_consistent, random_unit
from qrelax import branch, classical, statevector as sv
from qrelax.errors import DomainError, UsageError
from qrelax.report import CONVERGED, MAX_STEPS
from qrelax.schedules import QUANTUM, RelaxationSchedule, SelectionStrategy
from qrelax.system import normalize_columns, normalize_rows

R2 = math.sqrt(2.0)


def test_row_branch_worked_example(row_case):
    system, x0, steps = row_case
    state = branch.init_row_branch(x0)
    state = branch.row_branch_step(state, system, *steps[0])
    assert_allclose(state.x, [1.5, 0.5], atol=1e-14)
    assert state.v == pytest.approx(3.0)
    assert state.success_probability == pytest.approx((10.0 / 4.0) / 9.0, abs=1e-14)

    state = branch.row_branch_step(state, system, *steps[1])
    assert_allclose(state.x, [2.0, 0.0], atol=1e-14)
    assert state.v == pytest.approx(math.sqrt(11.0))
    assert state.success_probability == pytest.approx(4.0 / 11.0, abs=1e-14)


def test_row_branch_zero_rhs_zero_relaxation(row_case):
    system, x0, _ = row_case
    from qrelax.system import LinearSystem

    zero_rhs = LinearSystem(system.matrix, np.zeros(2), system.normalization, system.scale)
    state = branch.init_row_branch(x0)
    stepped = branch.row_branch_step(state, zero_rhs, 1, 0.0)
    assert_allclose(stepped.x, state.x)
    assert stepped.v == state.v


def test_row_branch_domain_gate(row_case):
    system, x0, _ = row_case
    with pytest.raises(DomainError):
        branch.row_branch_step(branch.init_row_branch(x0), system, 1, 1.2)


def test_column_branch_worked_example(column_case):
    system, x0, steps = column_case
    state = branch.init_column_branch(x0, system)
    assert state.delta == 1.0
    state = branch.column_branch_step(state, system, *steps[0])
    assert_allclose(state.x, [-0.5, 1.0], atol=1e-14)
    assert_allclose(state.r, [1 / (2 * R2), 1 / (2 * R2)], atol=1e-14)
    assert state.v == 2.0

    state = branch.column_branch_step(state, system, *steps[1])
    assert_allclose(state.x, [-1.0, 1.0], atol=1e-14)
    assert np.linalg.norm(state.r) <= 1e-14
    assert state.v == 3.0


def test_column_branch_zero_relaxation_advances_v(column_case):
    system, x0, _ = column_case
    state = branch.init_column_branch(x0, system)
    stepped = branch.column_branch_step(state, system, 1, 0.0)
    assert_allclose(stepped.x, state.x)
    assert_allclose(stepped.r, state.r)
    assert stepped.v == state.v + 1.0


def test_branch_state_guards(row_case, column_case):
    with pytest.raises(UsageError):
        branch.init_row_branch(np.array([1.0, 1.0]))
    row_state = branch.init_row_branch(np.array([1.0, 0.0]))
    with pytest.raises(UsageError):
        row_state.residual_amplitude
    with pytest.raises(UsageError):
        branch.column_branch_step(row_state, column_case[0], 1, 0.5)


def test_run_branch_matches_statevector_record_stream(row_case):
    system, x0, steps = row_case
    schedule = RelaxationSchedule.explicit([lam for _, lam in steps], QUANTUM)
    strategy = SelectionStrategy.explicit([t for t, _ in steps])
    branch_report = branch.run_branch(system, x0, schedule, strategy, 2, mode="row")
    sim_report, _ = sv.run_algorithm1(system, x0, schedule, strategy, 2)

    assert len(branch_report.records) == len(sim_report.records)
    for mine, theirs in zip(branch_report.records, sim_report.records):
        assert mine.k == theirs.k and mine.t == theirs.t
        assert mine.relaxation == theirs.relaxation
        assert mine.x_norm == pytest.approx(theirs.x_norm, abs=1e-10)
        assert mine.residual_norm == pytest.approx(theirs.residual_norm, abs=1e-10)
        assert mine.amplitude == pytest.approx(theirs.amplitude, abs=1e-10)
        assert mine.success_probability == pytest.approx(theirs.success_probability, abs=1e-10)


def test_run_branch_zero_steps_reports_initial_record_only(row_case):
    system, x0, _ = row_case
    report = branch.run_branch(
        system, x0, RelaxationSchedule.constant(1.0, QUANTUM),
        SelectionStrategy.cyclic(), 0, mode="row",
    )
    assert report.status == MAX_STEPS
    assert len(report.records) == 1
    assert report.records[0].k == 0
    assert report.records[0].amplitude == pytest.approx(1.0)


def test_run_branch_large_system_within_seconds(rng):
    # near-orthogonal rows so five cyclic sweeps reach the tolerance
    system, _ = random_consistent(rng, 1000, cond=1.05)
    normed = normalize_rows(system)
    x0 = np.zeros(1000)
    x0[0] = 1.0
    started = time.perf_counter()
    report = branch.run_branch(
        normed, x0, RelaxationSchedule.constant(1.0, QUANTUM),
        SelectionStrategy.cyclic(), 5000, mode="row", tol=1e-6,
    )
    elapsed = time.perf_counter() - started
    assert report.status == CONVERGED
    assert report.final.residual_norm <= 1e-6
    assert all(rec.success_probability is not None for rec in report.records)
    assert elapsed < 30.0


def test_success_probability_identity(rng):
    # p * v^2 must track ||x||^2 exactly through the run
    for _ in range(10):
        n = int(rng.integers(2, 6))
        system = normalize_rows(random_consistent(rng, n)[0])
        state = branch.init_row_branch(random_unit(rng, n))
        for _ in range(5):
            t = int(rng.integers(1, n + 1))
            state = branch.row_branch_step(state, system, t, float(rng.uniform(0, 1)))
            assert state.success_probability * state.v**2 == pytest.approx(
                np.linalg.norm(state.x) ** 2, abs=1e-12
            )
            assert 0.0 <= state.success_probability <= 1.0 + 1e-12


@pytest.mark.parametrize("mode", ["row", "column"])
def test_success_probability_is_the_rounded_square(mode):
    # The statevector tracker squares as amplitude * amplitude; C pow
    # (amplitude**2) is an ulp away for about 1 double in 1,200.
    rng = np.random.default_rng(50)
    raw, _ = random_consistent(rng, 50, cond=10.0)
    system = normalize_rows(raw) if mode == "row" else normalize_columns(raw)
    report = branch.run_branch(
        system, random_unit(rng, 50), RelaxationSchedule.constant(0.5, QUANTUM),
        SelectionStrategy.random_uniform(seed=7), 4000, mode=mode, tol=0.0,
    )
    assert len(report.records) == 4001
    for rec in report.records:
        assert rec.success_probability == rec.amplitude * rec.amplitude, rec.k
    if mode == "row":
        state = branch.init_row_branch(random_unit(rng, 50))
        for t in range(1, 51):
            state = branch.row_branch_step(state, system, t, 0.5)
            assert state.success_probability == state.amplitude * state.amplitude


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600])
def test_amplitudes_take_the_recorded_norms_at_any_scale(scale):
    # The squares of entries near 2^-600 underflow to 0 and those of
    # entries near 2^600 overflow to inf; the amplitudes use the norms
    # run_branch records (classical._norms), which do neither.
    rng = np.random.default_rng(60)
    x, r = scale * rng.normal(size=4), scale * rng.normal(size=4)
    state = branch.BranchState(x, v=3.0, r=r, delta=0.25)
    with np.errstate(over="ignore"):  # the plain sums' overflow, as in _drive
        amplitude, residual_amplitude = state.amplitude, state.residual_amplitude
        assert amplitude == classical._norms(x) / 3.0
        assert residual_amplitude == 0.25 * classical._norms(r)
    assert 0.0 < amplitude < math.inf and 0.0 < residual_amplitude < math.inf


def test_v_closed_forms(rng):
    # row: v^2 accumulates the squared rhs entries; column with unit
    # residual: v is exactly k+1
    n = 4
    system = normalize_rows(random_consistent(rng, n)[0])
    state = branch.init_row_branch(random_unit(rng, n))
    total = 1.0
    for _ in range(6):
        t = int(rng.integers(1, n + 1))
        state = branch.row_branch_step(state, system, t, 0.5)
        total += system.rhs_entry(t) ** 2
        assert state.v**2 == pytest.approx(total, abs=1e-12)

    from helpers import unit_residual_system

    x0 = random_unit(rng, n)
    sys_c = normalize_columns(unit_residual_system(rng, n, x0))
    col = branch.init_column_branch(x0, sys_c)
    assert col.delta == 1.0
    for k in range(6):
        col = branch.column_branch_step(col, sys_c, int(rng.integers(1, n + 1)), 0.5)
        assert col.v == k + 2  # exact float arithmetic on small integers


@pytest.mark.parametrize("engine", ["branch", "sim"])
@pytest.mark.parametrize("mode", ["row", "column"])
def test_recorded_denominators_follow_their_closed_forms(rng, engine, mode):
    # The cost of post-selection grows with v = x_norm / amplitude: row
    # v_k^2 = 1 + sum_{j<k} b_{t_j}^2, column v_k = 1 + k / delta, where
    # delta = 1 / ||r_0|| here (the residual is not of unit norm).
    n = 4
    system = random_consistent(rng, n)[0]
    system = normalize_rows(system) if mode == "row" else normalize_columns(system)
    x0 = random_unit(rng, n)
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    strategy = SelectionStrategy.random_uniform(int(rng.integers(1000)))
    if engine == "branch":
        report = branch.run_branch(system, x0, schedule, strategy, 60, mode, tol=0.0)
    else:
        run = sv.run_algorithm1 if mode == "row" else sv.run_algorithm2
        report = run(system, x0, schedule, strategy, 6, tol=0.0)[0]
    delta = 1.0 / float(np.linalg.norm(system.residual(x0)))
    assert delta != 1.0
    total = 1.0
    for rec in report.records:
        v = rec.x_norm / rec.amplitude
        if mode == "row":
            total += 0.0 if rec.t is None else system.rhs_entry(rec.t) ** 2
            assert v**2 == pytest.approx(total, rel=1e-12, abs=0)
        else:
            assert v == pytest.approx(1.0 + rec.k / delta, rel=1e-12, abs=0)
    assert report.steps_taken == (60 if engine == "branch" else 6)


def test_branch_trajectory_equals_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        system = normalize_rows(random_consistent(rng, n)[0])
        x0 = random_unit(rng, n)
        state = branch.init_row_branch(x0)
        oracle = classical.RowIterate(x0)
        for _ in range(5):
            t = int(rng.integers(1, n + 1))
            lam = float(rng.uniform(0, 1))
            state = branch.row_branch_step(state, system, t, lam)
            oracle = classical.kaczmarz_step(oracle, system, t, lam)
            assert np.max(np.abs(state.x - oracle.x)) <= 1e-12


def test_cross_simulator_equivalence_column(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        system = normalize_columns(random_consistent(rng, n)[0])
        x0 = random_unit(rng, n)
        init = sv.init_column_states(x0, system)
        if init.converged:
            continue
        x_state, r_state = init.x_state, init.r_state
        br = branch.init_column_branch(x0, system)
        assert br.delta == pytest.approx(init.delta)
        for _ in range(3):
            t = int(rng.integers(1, n + 1))
            omega = float(rng.uniform(0, 1))
            x_state, r_state = sv.apply_column_iteration(
                x_state, r_state, system, t, omega, init.delta
            )
            br = branch.column_branch_step(br, system, t, omega)
            amp, direction = sv.extract_good_branch(x_state)
            r_amp, _ = sv.extract_good_branch(r_state)
            assert amp == pytest.approx(br.amplitude, abs=1e-9)
            assert r_amp == pytest.approx(br.residual_amplitude, abs=1e-9)
            x_norm = np.linalg.norm(br.x)
            if x_norm > 1e-9 and amp > 1e-9:
                assert abs(direction @ (br.x / x_norm)) >= 1 - 1e-9
