"""Exact replay: each engine's record stream equals the public step
functions applied to the recorded (t, relaxation) choices, bit for bit."""

import numpy as np
import pytest

from helpers import random_consistent, random_unit
from qrelax import branch, classical, statevector as sv
from qrelax.schedules import QUANTUM, RelaxationSchedule, SelectionStrategy
from qrelax.system import normalize_columns, normalize_rows

MODES = ["classical-row", "classical-column", "branch-row", "branch-column", "sim-row", "sim-column"]


def _run(mode, system, x0, schedule, strategy, steps):
    engine, _, direction = mode.partition("-")
    if engine == "classical":
        return classical.run_classical(system, x0, schedule, strategy, steps, direction)
    if engine == "branch":
        return branch.run_branch(system, x0, schedule, strategy, steps, direction)
    run = sv.run_algorithm1 if direction == "row" else sv.run_algorithm2
    return run(system, x0, schedule, strategy, steps)[0]


def _replay(mode, system, x0, choices):
    """(x_norm, residual_norm, amplitude, success_probability) for k = 0, 1, ..."""
    engine, _, direction = mode.partition("-")
    row = direction == "row"
    norm = lambda v: float(np.linalg.norm(v))
    if engine == "branch":
        state = branch.init_row_branch(x0) if row else branch.init_column_branch(x0, system)
        step = branch.row_branch_step if row else branch.column_branch_step
        for choice in [None, *choices]:
            if choice is not None:
                state = step(state, system, *choice)
            residual = system.residual(state.x) if row else state.r
            yield norm(state.x), norm(residual), state.amplitude, state.success_probability
        return

    if row:
        it, step = classical.RowIterate(np.array(x0)), classical.kaczmarz_step
        registers = [sv.init_row_state(x0)]
    else:
        it, step = classical.ColumnIterate(np.array(x0), system.residual(x0)), classical.column_step
        init = sv.init_column_states(x0, system)
        registers = [init.x_state, init.r_state]
    for choice in [None, *choices]:
        if choice is not None:
            it = step(it, system, *choice)
            t, value = choice
            if engine == "sim" and row:
                prepared = sv.prepare_Y(registers[0], system, t)
                registers = [sv.apply_row_iteration(prepared, system, t, value)]
            elif engine == "sim":
                registers = list(sv.apply_column_iteration(*registers, system, t, value, init.delta))
        amplitude = sv.extract_good_branch(registers[0])[0] if engine == "sim" else None
        probability = None if amplitude is None else amplitude * amplitude
        residual = system.residual(it.x) if row else it.r
        yield norm(it.x), norm(residual), amplitude, probability


@pytest.mark.parametrize("mode", MODES)
def test_record_stream_replays_exactly(mode):
    rng = np.random.default_rng(7)
    normalize = normalize_rows if mode.endswith("row") else normalize_columns
    steps = 4 if mode.startswith("sim") else 40
    for seed in range(4):
        n = int(rng.integers(2, 5))
        system = normalize(random_consistent(rng, n)[0])
        x0 = random_unit(rng, n)
        for strategy in (SelectionStrategy.cyclic(), SelectionStrategy.random_uniform(seed),
                         SelectionStrategy.greedy_residual()):
            for value in (0.5, 1.0):
                schedule = RelaxationSchedule.constant(value, QUANTUM)
                report = _run(mode, system, x0, schedule, strategy, steps)
                choices = [(rec.t, rec.relaxation) for rec in report.records[1:]]
                replayed = list(_replay(mode, system, x0, choices))
                assert len(replayed) == len(report.records)
                for rec, expected in zip(report.records, replayed):
                    observed = (rec.x_norm, rec.residual_norm, rec.amplitude,
                                 rec.success_probability)
                    assert observed == expected, (strategy.variant, value, rec.k)
