"""Greedy column selection from the carried A^T r (``classical._Correlations``).

The screen must pick, at every step, the index the exact gemv context
``system.matrix.T @ r`` would give ``select_index``; these tests compare
whole runs against that oracle loop, force it to fall back on a tie, and
check its drift bound E step by step.
"""

import numpy as np
import pytest

from helpers import random_consistent, random_unit
from qrelax import branch, classical, statevector
from qrelax.report import CONVERGED
from qrelax.schedules import QUANTUM, RelaxationSchedule, SelectionStrategy, select_index
from qrelax.system import LinearSystem, normalize_columns, normalize_rows

GREEDY = SelectionStrategy.greedy_residual()


def _system(rng, n):
    a = rng.normal(size=(n, n))
    return normalize_columns(LinearSystem(a, a @ rng.normal(size=n)))


def _oracle(system, x0, value, steps):
    """(indices, final x) of the public step loop on the exact gemv context."""
    it = classical.ColumnIterate(np.array(x0), system.residual(x0))
    ts = []
    for k in range(steps):
        t = select_index(GREEDY, k, system.n, system.matrix.T @ it.r)
        it = classical.column_step(it, system, t, value)
        ts.append(t)
    return ts, it.x


def _assert_follows_oracle(system, x0, value, report):
    steps = report.steps_taken
    ts, x = _oracle(system, x0, value, steps)
    assert [rec.t for rec in report.records[1:]] == ts
    assert report.final_x.tobytes() == x.tobytes()


def _run(engine, system, x0, value, steps):
    if engine == "classical":
        return classical.run_classical(system, x0, RelaxationSchedule.constant(value), GREEDY,
                                       steps, "column", tol=0.0)
    schedule = RelaxationSchedule.constant(value, QUANTUM)
    if engine == "branch":
        return branch.run_branch(system, x0, schedule, GREEDY, steps, "column", tol=0.0)
    return statevector.run_algorithm2(system, x0, schedule, GREEDY, steps, tol=0.0)[0]


CASES = [(engine, value) for engine, values in (("classical", (0.5, 1.0, 1.9)),
                                               ("branch", (0.5, 1.0)),
                                               ("sim", (0.5, 1.0)))
         for value in values]


@pytest.mark.parametrize("n", [2, 3, 5, 50, 300])
@pytest.mark.parametrize("engine, value", CASES)
def test_selections_equal_the_exact_gemv_oracle(engine, value, n):
    rng = np.random.default_rng(1000 * n + int(10 * value))
    system = _system(rng, n)
    x0 = random_unit(rng, n)
    if engine == "sim":
        steps = 4 if n == 300 else 8
    else:
        steps = {2: 40, 3: 60, 5: 100, 50: 400, 300: 600}[n]
    _assert_follows_oracle(system, x0, value, _run(engine, system, x0, value, steps))


def test_lanes_of_one_drive_each_follow_the_oracle(rng):
    # tol 1e-10: the lanes converge at different steps, so the screen's
    # block shrinks under the others.
    system = normalize_columns(random_consistent(rng, 5, cond=3)[0])
    x0 = random_unit(rng, 5)
    values = (0.5, 1.0, 1.9)
    schedules = [RelaxationSchedule.constant(value) for value in values]
    reports, _ = classical._drive(system, x0, schedules, GREEDY, 1000, "column", 1e-10)
    assert len({report.steps_taken for report in reports}) == 3
    assert all(report.status == CONVERGED for report in reports)
    for value, report in zip(values, reports):
        _assert_follows_oracle(system, x0, value, report)


def _count_fallbacks(monkeypatch):
    """The steps k at which the screen called the exact gemv."""
    fallbacks, current = [], [None]
    products, screen = classical._products, classical._Correlations.__call__

    def counting(*args, **kwargs):
        fallbacks.append(current[0])
        return products(*args, **kwargs)

    def screening(self, k, residual, norms):
        current[0] = k
        return screen(self, k, residual, norms)

    monkeypatch.setattr(classical, "_products", counting)
    monkeypatch.setattr(classical._Correlations, "__call__", screening)
    return fallbacks


@pytest.mark.parametrize("value", [0.5, 1.0])
@pytest.mark.parametrize("tie", [0, 1], ids=["tie-at-step-0", "tie-at-step-1"])
def test_twin_columns_make_the_screen_fall_back(monkeypatch, tie, value):
    # Columns 2 and 3 are equal, with correlation 1.2 sqrt(2) = 1.70. With
    # tie=1, column 1 leads at step 0 (2 against 1.70), and once it is
    # stepped the twins tie for the lead, which the carried vector cannot
    # order; with tie=0 they lead from the start.
    c = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    a = np.column_stack([[1.0, 0, 0, 0], c, c, [0, 0, 0, 1.0]])
    r0 = np.array([2.0 if tie else 0.5, 1.2, 1.2, 0.1])
    system = normalize_columns(LinearSystem(a, r0))
    x0 = np.zeros(4)
    fallbacks = _count_fallbacks(monkeypatch)
    report = classical.run_classical(system, x0, RelaxationSchedule.constant(value), GREEDY, 6,
                                     "column", tol=0.0)
    assert [rec.t for rec in report.records[1:tie + 2]] == [1] * tie + [2]  # the first twin
    assert fallbacks[:tie + 1] == list(range(tie + 1))
    _assert_follows_oracle(system, x0, value, report)


@pytest.mark.parametrize("perturbed", [False, True], ids=["gram", "gram-off-by-0.45-gamma"])
def test_carried_correlations_stay_within_the_drift_bound(monkeypatch, perturbed):
    # |z - A^T r| <= E + gamma ||r|| at every step of a 2000-step run. With
    # perturbed=True every entry of row t of G is moved by 0.45 gamma (about
    # 0.9 n u, a rounding error the bound must allow) towards the sign of
    # x*_t, so the carried error adds up over the run; without E's
    # per-step growth the bound fails there about fivefold.
    rng = np.random.default_rng(20)
    n = 300
    a = rng.normal(size=(n, n))
    x_true = rng.normal(size=n)
    system = normalize_columns(LinearSystem(a, a @ x_true))
    gamma = n * classical._EPS / (1 - n * classical._EPS)
    if perturbed:
        row = classical._gram_row
        shift = 0.45 * gamma * np.sign(x_true)
        monkeypatch.setattr(classical, "_gram_row", lambda s, t: row(s, t) + shift[t - 1])
    screen = classical._Correlations.__call__
    ratios = []

    def checking(self, k, residual, norms):
        if k > 0:
            assert self.gamma == gamma
            (z,), (drift,), (r,) = self.z, self.drift, residual
            bound = drift + gamma * np.linalg.norm(r)
            ratios.append(np.max(np.abs(z - system.matrix.T @ r)) / bound)
        return screen(self, k, residual, norms)

    monkeypatch.setattr(classical._Correlations, "__call__", checking)
    fallbacks = _count_fallbacks(monkeypatch)
    x0 = np.zeros(n)
    report = classical.run_classical(system, x0, RelaxationSchedule.constant(1.0), GREEDY, 2000,
                                     "column", tol=0.0)
    assert len(ratios) == 1999
    assert max(ratios) <= 1.0
    assert fallbacks == [0]
    _assert_follows_oracle(system, x0, 1.0, report)


@pytest.mark.parametrize("scale", [1e-155, 1e-133])
def test_tiny_residuals_take_the_exact_gemv(monkeypatch, scale):
    # Below ||r|| = 2^-450 (about 3.5e-136) the products may be subnormal
    # and the screen's relative bounds fail, so every such step takes the
    # gemv. At 1e-155 the run is below the floor from the start, and the
    # squares in ||r|| turn subnormal; at 1e-133 it crosses the floor at
    # step 124.
    rng = np.random.default_rng(7)
    n = 5
    system = _system(rng, n)
    system = LinearSystem(system.matrix, system.rhs * (scale / np.linalg.norm(system.rhs)),
                          system.normalization)
    x0 = np.zeros(n)
    fallbacks = _count_fallbacks(monkeypatch)
    report = classical.run_classical(system, x0, RelaxationSchedule.constant(1.0), GREEDY, 300,
                                     "column", tol=0.0)
    steps = report.steps_taken
    assert steps == 300
    _assert_follows_oracle(system, x0, 1.0, report)
    tiny = [rec.k for rec in report.records[:-1] if rec.residual_norm < 2.0**-451]
    assert tiny and set(tiny) <= set(fallbacks)
    if scale == 1e-155:
        assert fallbacks == list(range(steps))
    else:
        assert tiny[0] > 1 and len(fallbacks) < steps


def test_gram_rows_are_built_once_per_system(monkeypatch, rng):
    calls = []
    build = classical._gram_row

    def counting(system, t):
        calls.append((system, t))
        return build(system, t)

    monkeypatch.setattr(classical, "_gram_row", counting)
    system = _system(rng, 4)
    x0 = random_unit(rng, 4)
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    report = classical.run_classical(system, x0, schedule, GREEDY, 10, "column")
    picked = {rec.t for rec in report.records[1:]}
    assert sorted(t for _, t in calls) == sorted(picked)
    branch.run_branch(system, x0, schedule, GREEDY, 10, "column")
    statevector.run_algorithm2(system, x0, schedule, GREEDY, 3)
    # The lanes of a greedy column sweep share them.
    schedules = [RelaxationSchedule.constant(value) for value in (0.5, 1.0, 1.5)]
    reports, _ = classical._drive(system, x0, schedules, GREEDY, 10, "column", 0.0)
    picked |= {rec.t for report in reports for rec in report.records[1:]}
    built = [t for _, t in calls]
    assert len(built) == len(set(built)) == len(picked)
    rows = classical._gram_rows(system)
    assert all(s is system for s, _ in calls) and set(rows) == picked
    for t, row in rows.items():
        assert not row.flags.writeable
        assert row.tobytes() == (system.matrix.T @ system.column(t)).tobytes()

    # Row runs and column runs under the rules that do not read the
    # residual never build one.
    fresh = _system(rng, 4)
    by_rows = normalize_rows(LinearSystem(fresh.matrix, fresh.rhs))
    classical.run_classical(by_rows, x0, schedule, GREEDY, 10, "row")
    branch.run_branch(by_rows, x0, schedule, GREEDY, 10, "row")
    for strategy in (SelectionStrategy.cyclic(), SelectionStrategy.random_uniform(3),
                     SelectionStrategy.explicit([2, 1, 4, 3])):
        classical.run_classical(fresh, x0, schedule, strategy, 4, "column")
        branch.run_branch(fresh, x0, schedule, strategy, 4, "column")
    assert all(s is system for s, _ in calls)
    assert "_gram_rows" not in fresh.__dict__ and "_gram_rows" not in by_rows.__dict__
