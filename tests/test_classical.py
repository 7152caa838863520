import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_consistent, random_unit
from qrelax import branch, classical, statevector
from qrelax.errors import DomainError, QrelaxError, UsageError
from qrelax.report import CONVERGED
from qrelax.schedules import RelaxationSchedule, SelectionStrategy
from qrelax.system import ROWS_NORMALIZED, LinearSystem, normalize_columns, normalize_rows


def brute_force_eliminate(a, b):
    """Independent oracle: textbook Gaussian elimination with partial
    pivoting and back substitution, no numpy.linalg involved."""
    a = [list(map(float, row)) for row in a]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return np.array(x)


def test_kaczmarz_step_worked_example(row_case):
    system, x0, steps = row_case
    it = classical.RowIterate(x0)
    it = classical.kaczmarz_step(it, system, *steps[0])
    assert_allclose(it.x, [1.5, 0.5], atol=1e-14)
    assert np.linalg.norm(it.x) == pytest.approx(math.sqrt(10.0) / 2.0, abs=1e-14)
    it = classical.kaczmarz_step(it, system, *steps[1])
    assert_allclose(it.x, [2.0, 0.0], atol=1e-14)
    assert it.k == 2


def test_kaczmarz_step_zero_relaxation_is_identity(row_case, rng):
    system, _, _ = row_case
    x = rng.normal(size=2)
    it = classical.kaczmarz_step(classical.RowIterate(x), system, 1, 0.0)
    assert_allclose(it.x, x)


def test_kaczmarz_step_requires_normalized_rows():
    raw = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([10.0, 1.0]))
    with pytest.raises(UsageError):
        classical.kaczmarz_step(classical.RowIterate(np.zeros(2)), raw, 1, 1.0)


def test_kaczmarz_step_domain_gate(row_case):
    system, x0, _ = row_case
    with pytest.raises(DomainError):
        classical.kaczmarz_step(classical.RowIterate(x0), system, 1, 2.5)
    # the classical domain does allow values in (1, 2]
    classical.kaczmarz_step(classical.RowIterate(x0), system, 1, 1.7)


def test_column_step_worked_example(column_case):
    system, x0, steps = column_case
    it = classical.ColumnIterate(x0, system.residual(x0))
    it = classical.column_step(it, system, *steps[0])
    assert_allclose(it.x, [-0.5, 1.0], atol=1e-14)
    assert_allclose(it.r, [1 / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2))], atol=1e-14)
    it = classical.column_step(it, system, *steps[1])
    assert_allclose(it.x, [-1.0, 1.0], atol=1e-14)
    assert_allclose(it.r, [0.0, 0.0], atol=1e-14)


def test_column_step_zero_relaxation_is_identity(column_case):
    system, x0, _ = column_case
    it = classical.ColumnIterate(x0, system.residual(x0))
    after = classical.column_step(it, system, 1, 0.0)
    assert_allclose(after.x, it.x)
    assert_allclose(after.r, it.r)


def test_column_step_requires_normalized_columns():
    raw = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([10.0, 1.0]))
    it = classical.ColumnIterate(np.zeros(2), raw.rhs)
    with pytest.raises(UsageError):
        classical.column_step(it, raw, 1, 1.0)


def test_run_classical_column_worked_example(column_case):
    system, x0, steps = column_case
    report = classical.run_classical(
        system,
        x0,
        RelaxationSchedule.explicit([om for _, om in steps]),
        SelectionStrategy.explicit([t for t, _ in steps]),
        max_steps=2,
        mode="column",
    )
    assert report.status == CONVERGED
    assert report.final.residual_norm <= 1e-12
    assert_allclose(report.final_x / np.linalg.norm(report.final_x),
                    [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    # records: k=0 initial, then one per step, with the step parameters
    assert [rec.k for rec in report.records] == [0, 1, 2]
    assert report.records[1].t == 1 and report.records[1].relaxation == 0.5


def test_run_classical_identity_converges_at_zero_steps():
    system = normalize_rows(LinearSystem(np.eye(2), np.array([1.0, 0.0])))
    report = classical.run_classical(
        system, np.array([1.0, 0.0]), RelaxationSchedule.constant(1.0),
        SelectionStrategy.cyclic(), max_steps=10, mode="row",
    )
    assert report.status == CONVERGED
    assert report.steps_taken == 0
    assert report.final.residual_norm == 0.0


def test_run_classical_random_consistent_8x8(rng):
    system, _ = random_consistent(rng, 8, cond=3.0)
    normed = normalize_rows(system)
    report = classical.run_classical(
        normed, np.zeros(8), RelaxationSchedule.constant(1.0),
        SelectionStrategy.cyclic(), max_steps=400, mode="row", tol=1e-6,
    )
    assert report.status == CONVERGED
    assert report.final.residual_norm <= 1e-6
    # cross-check the final iterate against direct elimination
    x_direct = np.linalg.solve(normed.matrix, normed.rhs)
    assert np.linalg.norm(report.final_x - x_direct) <= 1e-4


def test_run_classical_mode_normalization_mismatch(row_case, column_case):
    with pytest.raises(UsageError):
        classical.run_classical(
            row_case[0], row_case[1], RelaxationSchedule.constant(1.0),
            SelectionStrategy.cyclic(), 5, mode="column",
        )
    with pytest.raises(UsageError):
        classical.run_classical(
            column_case[0], column_case[1], RelaxationSchedule.constant(1.0),
            SelectionStrategy.cyclic(), 5, mode="row",
        )
    with pytest.raises(UsageError):
        classical.run_classical(
            row_case[0], row_case[1], RelaxationSchedule.constant(1.0),
            SelectionStrategy.cyclic(), 5, mode="diagonal",
        )


def test_exact_solution_worked_examples(row_case, column_case):
    x_row = classical.exact_solution(row_case[0])
    assert_allclose(x_row, brute_force_eliminate(row_case[0].matrix, row_case[0].rhs), atol=1e-12)
    assert_allclose(x_row, [3.0, 1.0], atol=1e-12)
    assert_allclose(classical.exact_solution(column_case[0]), [-1.0, 1.0], atol=1e-12)


def test_exact_solution_singular_is_none():
    assert classical.exact_solution(LinearSystem(np.zeros((2, 2)), np.ones(2))) is None
    assert classical.exact_solution(LinearSystem(np.ones((2, 2)), np.array([1.0, 2.0]))) is None


def test_exact_solution_defect_is_relative_to_the_rhs():
    # A nearly singular system: at rhs (1, -1) * 1e-12 the solve leaves a
    # defect of 12% of ||b||, which an absolute test would pass.
    matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    for scale in (1e-12, 1e-6):
        assert classical.exact_solution(LinearSystem(matrix, np.array([1.0, -1.0]) * scale)) is None
    # A zero rhs asks for a zero defect, and x = 0 has it.
    x = classical.exact_solution(LinearSystem(np.array([[2.0, 1.0], [1.0, 3.0]]), np.zeros(2)))
    assert np.array_equal(x, np.zeros(2))


def test_exact_solution_matches_brute_force(rng):
    for _ in range(20):
        system, _ = random_consistent(rng, 5)
        assert_allclose(
            classical.exact_solution(system),
            brute_force_eliminate(system.matrix, system.rhs),
            atol=1e-8,
        )


def test_hyperplane_satisfaction_at_full_projection(rng):
    # lam=1 lands exactly on the chosen hyperplane
    for _ in range(50):
        n = int(rng.integers(2, 7))
        system = normalize_rows(random_consistent(rng, n)[0])
        x = rng.normal(size=n)
        t = int(rng.integers(1, n + 1))
        stepped = classical.kaczmarz_step(classical.RowIterate(x), system, t, 1.0)
        assert abs(system.row(t) @ stepped.x - system.rhs_entry(t)) <= 1e-10


def test_monotone_error_for_consistent_systems(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        system = normalize_rows(random_consistent(rng, n)[0])
        x_star = classical.exact_solution(system)
        x = classical.RowIterate(rng.normal(size=n))
        for _ in range(6):
            t = int(rng.integers(1, n + 1))
            lam = float(rng.uniform(0.0, 2.0))
            nxt = classical.kaczmarz_step(x, system, t, lam)
            assert np.linalg.norm(nxt.x - x_star) <= np.linalg.norm(x.x - x_star) + 1e-12
            x = nxt


def test_column_orthogonality_after_full_step(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        system = normalize_columns(random_consistent(rng, n)[0])
        x = random_unit(rng, n)
        it = classical.ColumnIterate(x, system.residual(x))
        t = int(rng.integers(1, n + 1))
        stepped = classical.column_step(it, system, t, 1.0)
        assert abs(system.column(t) @ stepped.r) <= 1e-10


def test_residual_consistency_through_column_runs(rng):
    for _ in range(15):
        n = int(rng.integers(2, 6))
        system = normalize_columns(random_consistent(rng, n)[0])
        x = random_unit(rng, n)
        it = classical.ColumnIterate(x, system.residual(x))
        for k in range(10):
            t = int(rng.integers(1, n + 1))
            it = classical.column_step(it, system, t, float(rng.uniform(0, 2)))
            assert np.linalg.norm(system.residual(it.x) - it.r) <= 1e-10


def test_relaxed_steps_reduce_to_plain_projections_at_one(rng):
    # the lam=1 specialization must equal an independently coded plain
    # projection (explicit division by a.a) step for step
    for _ in range(100):
        n = int(rng.integers(2, 6))
        system = normalize_rows(random_consistent(rng, n)[0])
        x = rng.normal(size=n)
        t = int(rng.integers(1, n + 1))
        relaxed = classical.kaczmarz_step(classical.RowIterate(x), system, t, 1.0).x
        a = system.matrix[t - 1]
        plain = x + ((system.rhs[t - 1] - a @ x) / (a @ a)) * a
        assert np.max(np.abs(relaxed - plain)) <= 1e-12

    for _ in range(100):
        n = int(rng.integers(2, 6))
        system = normalize_columns(random_consistent(rng, n)[0])
        x = rng.normal(size=n)
        it = classical.ColumnIterate(x, system.residual(x))
        t = int(rng.integers(1, n + 1))
        relaxed = classical.column_step(it, system, t, 1.0)
        c = system.matrix[:, t - 1]
        plain_x = np.array(x)
        plain_x[t - 1] += (c @ it.r) / (c @ c)
        plain_r = it.r - np.outer(c, c) @ it.r / (c @ c)
        assert np.max(np.abs(relaxed.x - plain_x)) <= 1e-12
        assert np.max(np.abs(relaxed.r - plain_r)) <= 1e-12


def test_exact_solution_is_solved_once_per_system(monkeypatch, rng):
    from qrelax import branch

    calls = []
    solve = classical.exact_solution

    def counting(system):
        calls.append(system)
        return solve(system)

    monkeypatch.setattr(classical, "exact_solution", counting)
    system = normalize_rows(random_consistent(rng, 4)[0])
    x0 = random_unit(rng, 4)
    schedule = RelaxationSchedule.constant(0.5)
    for strategy in (SelectionStrategy.cyclic(), SelectionStrategy.greedy_residual()):
        classical.run_classical(system, x0, schedule, strategy, 10, "row")
    report = branch.run_branch(system, x0, schedule, SelectionStrategy.cyclic(), 10, "row")
    assert len(calls) == 1
    x_star = classical._solution_of(system)
    assert not x_star.flags.writeable
    assert report.final.error_norm == float(np.linalg.norm(report.final_x - x_star))

    singular = normalize_rows(LinearSystem(np.ones((2, 2)), np.array([1.0, 2.0])))
    for _ in range(2):
        report = classical.run_classical(
            singular, np.zeros(2), schedule, SelectionStrategy.cyclic(), 3, "row"
        )
        assert report.final.error_norm is None
    assert len(calls) == 2


def test_non_finite_iterate_names_its_step():
    system = LinearSystem(np.eye(2), np.array([1.5e308, 0.0]), ROWS_NORMALIZED)
    with pytest.raises(QrelaxError, match="k=1"), np.errstate(over="ignore", invalid="ignore"):
        classical.run_classical(
            system, np.array([0.0, 1.0]), RelaxationSchedule.constant(2.0),
            SelectionStrategy.cyclic(), 4, "row",
        )


def test_huge_finite_iterate_runs_on():
    # a norm above the largest double is infinite while every entry is finite
    system = LinearSystem(np.eye(2), np.array([1.5e308, 1.5e308]), ROWS_NORMALIZED)
    with np.errstate(over="ignore"):
        report = classical.run_classical(
            system, np.zeros(2), RelaxationSchedule.constant(1.0),
            SelectionStrategy.cyclic(), 4, "row",
        )
    assert report.status == CONVERGED
    assert report.records[0].residual_norm == math.inf
    assert report.records[2].x_norm == math.inf


@pytest.mark.parametrize("engine", ["classical", "branch", "sim"])
@pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
def test_runs_reject_a_non_finite_or_negative_tol(row_case, engine, tol):
    system, x0, _ = row_case
    schedule, strategy = RelaxationSchedule.constant(0.5), SelectionStrategy.cyclic()
    with pytest.raises(UsageError, match="tol must be finite and >= 0"):
        if engine == "classical":
            classical.run_classical(system, x0, schedule, strategy, 5, "row", tol=tol)
        elif engine == "branch":
            branch.run_branch(system, x0, schedule, strategy, 5, "row", tol=tol)
        else:
            statevector.run_algorithm1(system, x0, schedule, strategy, 5, tol=tol)


@pytest.mark.parametrize("engine", ["classical", "branch", "sim"])
def test_runs_reject_a_negative_max_steps(row_case, engine):
    system, x0, _ = row_case
    schedule, strategy = RelaxationSchedule.constant(0.5), SelectionStrategy.cyclic()
    with pytest.raises(UsageError, match="max_steps must be >= 0, got -1"):
        if engine == "classical":
            classical.run_classical(system, x0, schedule, strategy, -1, "row")
        elif engine == "branch":
            branch.run_branch(system, x0, schedule, strategy, -1, "row")
        else:
            statevector.run_algorithm1(system, x0, schedule, strategy, -1)


def _scaled_run(mode, scale, x0):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    system = LinearSystem(a, a @ rng.normal(size=6) * scale)
    system = normalize_rows(system) if mode == "row" else normalize_columns(system)
    return classical.run_classical(system, x0 * scale, RelaxationSchedule.constant(1.0),
                                   SelectionStrategy.random_uniform(3), 200, mode, tol=0.0)


SCALES = {"2^-1000": 2.0**-1000, "2^-900": 2.0**-900, "1e-200": 1e-200, "2^900": 2.0**900,
          "2^1000": 2.0**1000}


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
@pytest.mark.parametrize("start", ["zero", "random"])
def test_record_norms_scale_with_the_system(mode, scale, start):
    # The squares of entries below about 1e-162 underflow and those above
    # about 1e154 overflow; the norms must not. With b and x0 scaled,
    # every vector of the run scales with them, exactly so for a power
    # of two.
    x0 = np.zeros(6) if start == "zero" else np.random.default_rng(8).normal(size=6)
    base, report = _scaled_run(mode, 1.0, x0), _scaled_run(mode, scale, x0)
    assert report.status == base.status == "max-steps"
    for field in ("x_norm", "residual_norm", "error_norm"):
        expected = np.array([getattr(rec, field) for rec in base.records]) * scale
        got = np.array([getattr(rec, field) for rec in report.records])
        if math.frexp(scale)[0] == 0.5:
            assert np.array_equal(got, expected), field
        else:
            assert_allclose(got, expected, rtol=1e-12, err_msg=field)


@np.errstate(over="ignore")  # the plain sums of the large rows overflow before they are redone
def test_norms_keep_the_dot_bits_and_rescale_the_rest(rng):
    rows = rng.normal(size=(2, 5, 7))
    assert np.array_equal(classical._norms(rows), np.sqrt(classical._dots(rows, rows)))
    plain = np.sqrt(classical._dots(rows[0], rows[0]))
    for exponent in (-1000, -600, 600, 1000):
        assert np.array_equal(classical._norms(np.ldexp(rows[0], exponent)), np.ldexp(plain, exponent))
    mixed = np.vstack([rows[0, :2], np.zeros(7), np.full(7, 1e300), [math.inf] + [0.0] * 6,
                       np.ldexp(rows[0, 2], -1000)])
    expected = np.concatenate([plain[:2], [0.0, math.sqrt(7) * 1e300, math.inf],
                               [np.ldexp(plain[2], -1000)]])
    assert_allclose(classical._norms(mixed), expected, rtol=1e-15)
    assert np.array_equal(classical._norms(mixed)[:2], plain[:2])
    # Past _FEW_SQUARES rows numpy's min and max check the range instead.
    copies = classical._FEW_SQUARES // len(mixed) + 1
    assert np.array_equal(classical._norms(np.tile(mixed, (copies, 1))),
                          np.tile(classical._norms(mixed), copies))
    assert float(classical._norms(np.array([3.0, 4.0]) * 2.0**-1070)) == 5.0 * 2.0**-1070


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_column_embedding_of_a_residual_at_the_extremes(exponent):
    # r0 = (0, 2^exponent, 0): its plain sum of squares is 0 or inf (the
    # latter with numpy's overflow warning, before the norm is redone).
    system = LinearSystem(np.eye(3), np.array([1.0, 2.0**exponent, 0.0]), "columns-normalized")
    x0 = np.array([1.0, 0.0, 0.0])
    with np.errstate(over="ignore"):
        init = statevector.init_column_states(x0, system)
        assert branch.init_column_branch(x0, system).delta == 2.0**-exponent
    assert not init.converged
    assert init.delta == 2.0**-exponent
