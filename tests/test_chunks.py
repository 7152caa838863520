"""Chunked records: ``classical._drive`` steps a chunk of iterates before it
measures and records them. Every run here gives the records, final x and
error of the same run with one-step chunks, bit for bit, whatever the
chunk size."""

import math
from functools import partial

import numpy as np
import pytest

from helpers import random_consistent, random_unit
from test_replay import _replay
from qrelax import branch, classical, schedules, statevector as sv
from qrelax.errors import DomainError, QrelaxError, UsageError
from qrelax.schedules import (
    CLASSICAL,
    QUANTUM,
    RelaxationSchedule,
    SelectionStrategy,
    random_indices,
)
from qrelax.system import ROWS_NORMALIZED, LinearSystem, normalize_columns, normalize_rows

N, C = 6, 4  # system size; steps per chunk of one lane


def _cap(steps, lanes=1, n=N):
    """The ``CHUNK_BYTES`` that gives chunks of ``steps`` steps."""
    return steps * lanes * n * 8


def _outcome(monkeypatch, cap, run):
    """``run()`` with chunks capped at ``cap`` bytes: each lane's
    (status, records, final x), or the type and text of the error."""
    with monkeypatch.context() as patch:
        patch.setattr(classical, "CHUNK_BYTES", cap)
        try:
            reports = run()
        except QrelaxError as exc:
            return type(exc), str(exc)
    return [(r.status, r.records, r.final_x.tolist()) for r in reports]


def _same_as_one_step_chunks(monkeypatch, run, cap):
    """The outcome of ``run`` in chunks of ``cap`` bytes, checked against one-step chunks."""
    chunked = _outcome(monkeypatch, cap, run)
    assert chunked == _outcome(monkeypatch, 1, run)
    return chunked


def _system(mode, seed=31, n=N):
    rng = np.random.default_rng(seed)
    raw = random_consistent(rng, n, cond=2.0)[0]
    system = normalize_rows(raw) if mode == "row" else normalize_columns(raw)
    return system, random_unit(rng, n)


def _lanes(system, x0, values, strategy, steps, mode, tol, track=None, domain=CLASSICAL):
    schedules = [RelaxationSchedule.constant(v, domain) for v in values]
    return lambda: classical._drive(system, x0, schedules, strategy, steps, mode, tol, track)[0]


def test_the_default_cap_equals_one_step_chunks(monkeypatch):
    system, x0 = _system("row")
    run = _lanes(system, x0, [1.0], SelectionStrategy.cyclic(), 3 * 1024, "row", 0.0)
    steps_per_chunk = min(classical.CHUNK_BYTES // (N * 8), classical.CHUNK_STEPS)
    assert steps_per_chunk > 1
    _same_as_one_step_chunks(monkeypatch, run, classical.CHUNK_BYTES)


def test_a_small_run_plans_at_most_chunk_steps_past_its_end(monkeypatch):
    # At n=2 the byte cap alone allows thousands of steps per chunk. A
    # random run draws its indices in blocks, the first of DRAW_STEPS // 8
    # and later ones growing with the run up to DRAW_STEPS, so it draws at
    # most DRAW_STEPS // 8 or as many indices past its end as it took
    # steps, up to DRAW_STEPS, or one chunk: a 38-step run and a 325-step
    # one, which with DRAW_STEPS = 64 goes past the largest block.
    draws, stepped = [], []

    def draw(seed, first, count, n):
        draws.append((first, count))
        return random_indices(seed, first, count, n)

    def step(*args):
        stepped.append(len(args[4]))  # the plan's ts
        return run_step(*args)

    run_step = classical._step
    monkeypatch.setattr(schedules, "random_indices", draw)
    monkeypatch.setattr(classical, "_step", step)
    for cap, n, tol in ((classical.DRAW_STEPS, 2, 1e-6), (classical.DRAW_STEPS, 6, 1e-14),
                        (64, 6, 1e-14)):
        monkeypatch.setattr(classical, "DRAW_STEPS", cap)
        system, x0 = _system("row", n=n)
        del draws[:], stepped[:]
        (report,) = classical._drive(system, x0, [RelaxationSchedule.constant(1.0)],
                                     SelectionStrategy.random_uniform(6), 10**6, "row", tol)[0]
        assert report.status == "converged"
        taken = report.steps_taken
        firsts, counts = zip(*draws)
        assert list(firsts) == [sum(counts[:i]) for i in range(len(counts))]
        assert max(counts) <= max(classical.CHUNK_STEPS, cap)
        ahead = min(max(taken, cap // 8), cap)
        assert 0 <= sum(counts) - taken <= max(classical.CHUNK_STEPS - 1, ahead)
        assert 0 <= sum(stepped) - taken < classical.CHUNK_STEPS
    # Nor does it draw an index past its budget.
    del draws[:]
    classical._drive(system, x0, [RelaxationSchedule.constant(1.0)],
                     SelectionStrategy.random_uniform(6), 7, "row", 0.0)
    assert sum(count for _, count in draws) == 7


def test_a_sweep_at_the_default_caps_retires_lanes_inside_long_chunks(monkeypatch):
    # The shape of an 8-value random row sweep at n=50, cond 1.5, tol 1e-3.
    rng = np.random.default_rng(3)
    system = normalize_rows(random_consistent(rng, 50, cond=1.5)[0])
    values = (0.6, 0.8, 1.0, 1.2, 1.3, 1.4, 1.6, 1.8)
    run = _lanes(system, np.eye(50)[0], values, SelectionStrategy.random_uniform(3000),
                 200_000, "row", 1e-3)
    planned = []

    def step(*args):
        planned.append(len(args[4]))  # the plan's ts
        return run_step(*args)

    run_step = classical._step
    monkeypatch.setattr(classical, "_step", step)
    outcome = _same_as_one_step_chunks(monkeypatch, run, classical.CHUNK_BYTES)
    assert max(planned) > 16
    assert {status for status, _, _ in outcome} == {"converged"}
    assert len({records[-1].k for _, records, _ in outcome}) >= 4


@pytest.mark.parametrize("mode", ["row", "column"])
def test_a_lane_converges_at_every_offset_inside_a_chunk(monkeypatch, mode):
    system, x0 = _system(mode)
    strategy = SelectionStrategy.random_uniform(3)
    (_, records, _), = _outcome(
        monkeypatch, 1, _lanes(system, x0, [1.0], strategy, 4 * C, mode, 0.0)
    )
    offsets = set()
    for record in records[1:]:
        # The run converges at the first record at or below its residual.
        run = _lanes(system, x0, [1.0], strategy, 4 * C, mode, record.residual_norm)
        (status, chunked, _), = _same_as_one_step_chunks(monkeypatch, run, _cap(C))
        assert status == "converged"
        offsets.add((chunked[-1].k - 1) % C)  # chunks after record 0 hold k = 1..C, C+1..2C, ...
    assert offsets == set(range(C))


@pytest.mark.parametrize("strategy", ["cyclic", "random", "greedy", "seq"])
@pytest.mark.parametrize("mode", ["row", "column"])
def test_lanes_retiring_inside_chunks_equal_one_step_chunks(monkeypatch, mode, strategy):
    system, x0 = _system(mode)
    strategy = {
        "cyclic": SelectionStrategy.cyclic(),
        "random": SelectionStrategy.random_uniform(5),
        "greedy": SelectionStrategy.greedy_residual(),
        "seq": SelectionStrategy.explicit([(7 * k) % N + 1 for k in range(400)]),
    }[strategy]
    values = (0.3, 0.7, 1.0, 1.4, 1.9)
    run = _lanes(system, x0, values, strategy, 400, mode, 1e-4)
    outcome = _same_as_one_step_chunks(monkeypatch, run, _cap(C, len(values)))
    assert len({records[-1].k for _, records, _ in outcome}) > 1


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("max_steps", [0, 1, C - 1, C, C + 1])
def test_max_steps_around_one_chunk(monkeypatch, mode, max_steps):
    system, x0 = _system(mode)
    for values in ([1.0], [0.5, 1.5]):
        run = _lanes(system, x0, values, SelectionStrategy.cyclic(), max_steps, mode, 0.0)
        outcome = _same_as_one_step_chunks(monkeypatch, run, _cap(C, len(values)))
        for status, records, _ in outcome:
            assert status == "max-steps" and [r.k for r in records] == list(range(max_steps + 1))


def _overflowing():
    # A huge rhs: x stays put while the relaxation is 0, and the first
    # relaxed step overflows the iterate.
    return LinearSystem(np.eye(2), np.array([1.5e308, 0.0]), ROWS_NORMALIZED)


def test_an_overflow_inside_a_chunk_names_its_step(monkeypatch):
    system = _overflowing()
    x0 = np.array([0.0, 1.0])
    # A relaxed step on row 1 (even steps, cyclic) overflows: lane 1 at
    # step 6, so record k=7, and lane 2 at record k=3; lane 0 never moves.
    schedules = [RelaxationSchedule.explicit([0.0] * zeros + [2.0] * (20 - zeros))
                 for zeros in (20, 5, 2)]

    def run(lanes):
        return classical._drive(system, x0, schedules[:lanes], SelectionStrategy.cyclic(), 12,
                                "row", 0.0)[0]

    with np.errstate(over="ignore", invalid="ignore"):
        for lanes, k in ((3, 7), (2, 7)):
            error = _same_as_one_step_chunks(monkeypatch, partial(run, lanes), _cap(C, lanes, 2))
            assert error == (QrelaxError, f"iterate became non-finite at step k={k} (overflow); "
                                          "lower the relaxation or rescale the system")
        (_, records, _), = _same_as_one_step_chunks(monkeypatch, partial(run, 1), _cap(C, 1, 2))
        assert len(records) == 13


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("length", [C + 2, 2 * C - 1])
def test_a_seq_strategy_that_runs_out_inside_a_chunk(monkeypatch, mode, length):
    system, x0 = _system(mode)
    strategy = SelectionStrategy.explicit([(k % N) + 1 for k in range(length)])
    run = _lanes(system, x0, [0.5, 1.0], strategy, 3 * C, mode, 0.0)
    error = _same_as_one_step_chunks(monkeypatch, run, _cap(C, 2))
    assert error[1] == f"explicit index list has {length} entries, none for k={length}"


@pytest.mark.parametrize("mode", ["row", "column"])
def test_a_seq_schedule_that_runs_out_inside_a_chunk(monkeypatch, mode):
    system, x0 = _system(mode)
    strategy = SelectionStrategy.cyclic()
    # Lane 1 runs out at k=6 and lane 2 at k=3: the error is lane 1's.
    schedules = [RelaxationSchedule.explicit([1.0] * length) for length in (40, C + 2, 3)]

    def run():
        return classical._drive(system, x0, schedules, strategy, 3 * C, mode, 0.0)[0]

    error = _same_as_one_step_chunks(monkeypatch, run, _cap(C, 3))
    assert error[1] == f"explicit schedule has {C + 2} entries, none for k={C + 2}"

    # A lane that converges before its schedule runs out ends without error.
    (_, records, _), = _outcome(
        monkeypatch, 1,
        lambda: classical._drive(system, x0, schedules[:1], strategy, 3 * C, mode, 0.0)[0],
    )
    tol = records[C + 1].residual_norm
    short = [RelaxationSchedule.explicit([1.0] * (C + 2))]
    outcome = _same_as_one_step_chunks(
        monkeypatch, lambda: classical._drive(system, x0, short, strategy, 3 * C, mode, tol)[0],
        _cap(C),
    )
    assert outcome[0][0] == "converged"


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("strategy", ["cyclic", "random", "greedy"])
def test_branch_trackers_over_several_chunks(monkeypatch, mode, strategy):
    system, x0 = _system(mode)
    strategy = {"cyclic": SelectionStrategy.cyclic(),
                "random": SelectionStrategy.random_uniform(2),
                "greedy": SelectionStrategy.greedy_residual()}[strategy]
    values = (0.2, 0.6, 1.0)
    track = partial(branch._BranchTracker, mode)
    run = _lanes(system, x0, values, strategy, 5 * C, mode, 1e-3, track, QUANTUM)
    outcome = _same_as_one_step_chunks(monkeypatch, run, _cap(C, len(values)))
    for _, records, _ in outcome:
        choices = [(r.t, r.relaxation) for r in records[1:]]
        replayed = list(_replay(f"branch-{mode}", system, x0, choices))
        observed = [(r.x_norm, r.residual_norm, r.amplitude, r.success_probability)
                    for r in records]
        assert observed == replayed


@pytest.mark.parametrize("mode", ["row", "column"])
def test_sim_trackers_over_several_chunks(monkeypatch, mode):
    system, x0 = _system(mode, seed=8, n=3)
    run_sim = sv.run_algorithm1 if mode == "row" else sv.run_algorithm2
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    states = {}

    def run():
        result = run_sim(system, x0, schedule, SelectionStrategy.random_uniform(4), 5, tol=0.0)
        states[classical.CHUNK_BYTES] = result[1:]
        return [result[0]]

    (_, records, _), = _same_as_one_step_chunks(monkeypatch, run, _cap(2, n=3))
    for chunked, stepped in zip(states[_cap(2, n=3)], states[1]):
        assert chunked.layout == stepped.layout and chunked.v == stepped.v
        assert np.array_equal(chunked.keys, stepped.keys)
        assert np.array_equal(chunked.vec, stepped.vec)
    choices = [(r.t, r.relaxation) for r in records[1:]]
    replayed = list(_replay(f"sim-{mode}", system, x0, choices))
    assert [(r.x_norm, r.residual_norm, r.amplitude, r.success_probability)
            for r in records] == replayed


@pytest.mark.parametrize("mode, mem_limit", [("row", 20_000), ("column", 55_000)])
def test_a_memory_guard_trip_inside_a_chunk(monkeypatch, mode, mem_limit):
    rng = np.random.default_rng(3)
    raw = random_consistent(rng, 3)[0]
    system = normalize_rows(raw) if mode == "row" else normalize_columns(raw)
    run_sim = sv.run_algorithm1 if mode == "row" else sv.run_algorithm2
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)

    def run():
        return [run_sim(system, np.eye(3)[0], schedule, SelectionStrategy.cyclic(), 12,
                        tol=0.0, mem_limit=mem_limit)[0]]

    # Chunks of 3 steps hold records 1-3 and 4-6; the trip is at step 4,
    # the step to record 5.
    error_type, text = _same_as_one_step_chunks(monkeypatch, run, _cap(3, n=3))
    assert error_type.__name__ == "ResourceError"
    assert text.startswith("statevector at iteration k=4 needs ")
    assert text.endswith(f"over the {mem_limit}-byte limit; raise --mem-limit or reduce steps")


@pytest.mark.parametrize("mode, mem_limit", [("row", 20_000), ("column", 55_000)])
def test_a_tracker_is_not_stepped_past_convergence(monkeypatch, mode, mem_limit):
    # The same system and guard as above: the guard trips on step 4, the
    # step to record 5, but the run converges at record 4 of the chunk
    # that holds records 4-6, so that step is never taken.
    rng = np.random.default_rng(3)
    raw = random_consistent(rng, 3)[0]
    system = normalize_rows(raw) if mode == "row" else normalize_columns(raw)
    run_sim = sv.run_algorithm1 if mode == "row" else sv.run_algorithm2
    schedule = RelaxationSchedule.constant(0.5, QUANTUM)
    x0 = np.eye(3)[0]
    norms = [r.residual_norm for r in run_sim(system, x0, schedule, SelectionStrategy.cyclic(),
                                              4, tol=0.0)[0].records]
    assert all(later < earlier for earlier, later in zip(norms, norms[1:]))

    def run():
        return [run_sim(system, x0, schedule, SelectionStrategy.cyclic(), 12, tol=norms[4],
                        mem_limit=mem_limit)[0]]

    (status, records, _), = _same_as_one_step_chunks(monkeypatch, run, _cap(3, n=3))
    assert status == "converged"
    assert records[-1].k == 4


def test_chunked_classical_runs_replay_through_the_step_functions(monkeypatch):
    for mode in ("row", "column"):
        system, x0 = _system(mode)
        run = _lanes(system, x0, [0.7], SelectionStrategy.random_uniform(9), 3 * C + 1, mode,
                     0.0)
        (_, records, final_x), = _same_as_one_step_chunks(monkeypatch, run, _cap(C))
        choices = [(r.t, r.relaxation) for r in records[1:]]
        replayed = list(_replay(f"classical-{mode}", system, x0, choices))
        assert [(r.x_norm, r.residual_norm, None, None) for r in records] == replayed
        if mode == "row":
            it = classical.RowIterate(np.array(x0))
            for t, value in choices:
                it = classical.kaczmarz_step(it, system, t, value)
        else:
            it = classical.ColumnIterate(np.array(x0), system.residual(x0))
            for t, value in choices:
                it = classical.column_step(it, system, t, value)
        assert it.x.tolist() == final_x
        assert not math.isnan(records[-1].error_norm)


def _strict_minima(records, lo, hi):
    """The k in lo..hi whose residual is below that of every earlier record."""
    norms = [r.residual_norm for r in records]
    return [k for k in range(lo, hi + 1) if norms[k] < min(norms[:k])]


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("rule", ["schedule", "strategy"])
def test_a_seq_rule_of_l_entries_that_converges_at_record_l(monkeypatch, mode, rule):
    # A lane whose rule has entries for steps 0..L-1 and that converges at
    # record L ends converged: record L needs no step L.
    system, x0 = _system(mode)

    def run(length, tol, steps=3 * C):
        if rule == "schedule":
            schedule = RelaxationSchedule.explicit([1.0] * length)
            strategy = SelectionStrategy.cyclic()
        else:
            schedule = RelaxationSchedule.constant(1.0)
            strategy = SelectionStrategy.explicit([(k % N) + 1 for k in range(length)])
        return lambda: classical._drive(system, x0, [schedule], strategy, steps, mode, tol)[0]

    (_, records, _), = _outcome(monkeypatch, 1, run(3 * C, 0.0))
    lengths = _strict_minima(records, C, 2 * C)
    assert lengths
    for length in lengths:
        (status, chunked, _), = _same_as_one_step_chunks(
            monkeypatch, run(length, records[length].residual_norm), _cap(C)
        )
        assert status == "converged" and chunked[-1].k == length
        # A budget of exactly L steps ends at max-steps, not at the rule's end.
        (status, chunked, _), = _same_as_one_step_chunks(
            monkeypatch, run(length, 0.0, steps=length), _cap(C)
        )
        assert status == "max-steps" and chunked[-1].k == length


def _quantum_runs(mode, schedule, steps):
    """``run_branch`` and the statevector run of ``mode`` on one schedule."""
    system, x0 = _system(mode, seed=8, n=3)
    run_sim = sv.run_algorithm1 if mode == "row" else sv.run_algorithm2
    args = (system, x0, schedule, SelectionStrategy.cyclic(), steps)
    return [lambda: [branch.run_branch(*args, mode, tol=0.0)],
            lambda: [run_sim(*args, tol=0.0)[0]]]


@pytest.mark.parametrize("mode", ["row", "column"])
def test_a_classical_schedule_on_a_quantum_engine(monkeypatch, mode):
    schedule = RelaxationSchedule.explicit([0.5, 1.5], CLASSICAL)
    for run in _quantum_runs(mode, schedule, 5):
        assert _same_as_one_step_chunks(monkeypatch, run, _cap(C, n=3)) == (
            DomainError, "relaxation value 1.5 at step k=1 outside the quantum domain")
    for run in _quantum_runs(mode, schedule, 1):
        (status, records, _), = _same_as_one_step_chunks(monkeypatch, run, _cap(C, n=3))
        assert status == "max-steps" and [r.relaxation for r in records] == [None, 0.5]
    for run in _quantum_runs(mode, RelaxationSchedule.decaying(1.5, CLASSICAL), 5):
        assert _same_as_one_step_chunks(monkeypatch, run, _cap(C, n=3)) == (
            DomainError, "relaxation value 1.5 at step k=0 outside the quantum domain")


@pytest.mark.parametrize("mode", ["row", "column"])
def test_the_first_lane_to_leave_the_quantum_domain_names_the_error(monkeypatch, mode):
    # Lane 1 leaves the quantum domain at k=6 and lane 2 at k=3: the
    # error is lane 1's, as running the lanes one after another gives.
    system, x0 = _system(mode)
    schedules = [RelaxationSchedule.explicit([0.5] * 40, CLASSICAL)] + [
        RelaxationSchedule.explicit([0.5] * out + [1.5] * (40 - out), CLASSICAL)
        for out in (C + 2, 3)
    ]

    def run():
        return classical._drive(system, x0, schedules, SelectionStrategy.cyclic(), 3 * C, mode,
                                0.0, partial(branch._BranchTracker, mode))[0]

    assert _same_as_one_step_chunks(monkeypatch, run, _cap(C, 3)) == (
        DomainError, f"relaxation value 1.5 at step k={C + 2} outside the quantum domain")


@pytest.mark.parametrize("mode", ["row", "column"])
def test_a_selection_error_comes_before_a_relaxation_error(monkeypatch, mode):
    # Step C + 1 picks t = N + 1, the step where lane 0's schedule runs out.
    system, x0 = _system(mode)
    strategy = SelectionStrategy.explicit([(k % N) + 1 for k in range(C + 1)] + [N + 1, 1])
    schedules = [RelaxationSchedule.explicit([1.0] * (C + 1)), RelaxationSchedule.constant(1.0)]

    def run():
        return classical._drive(system, x0, schedules, strategy, 3 * C, mode, 0.0)[0]

    assert _same_as_one_step_chunks(monkeypatch, run, _cap(C, 2)) == (
        UsageError, f"index t={N + 1} outside 1..{N}")


def test_an_overflow_at_the_horizon_record_wins(monkeypatch):
    # The relaxed step 2 on row 1 overflows record 3, the last record the
    # three-entry schedule can reach.
    schedules = [RelaxationSchedule.explicit([0.0, 0.0, 2.0])]

    def run():
        return classical._drive(_overflowing(), np.array([0.0, 1.0]), schedules,
                                SelectionStrategy.cyclic(), 12, "row", 0.0)[0]

    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_as_one_step_chunks(monkeypatch, run, _cap(C, 1, 2)) == (
            QrelaxError, "iterate became non-finite at step k=3 (overflow); "
                         "lower the relaxation or rescale the system")


def test_a_tracker_error_at_the_horizon_record_wins(monkeypatch):
    # The memory guard trips on step 4, the step to record 5, the last
    # record the five-entry schedule can reach.
    rng = np.random.default_rng(3)
    system = normalize_rows(random_consistent(rng, 3)[0])
    schedule = RelaxationSchedule.explicit([0.5] * 5, QUANTUM)

    def run():
        return [sv.run_algorithm1(system, np.eye(3)[0], schedule, SelectionStrategy.cyclic(), 12,
                                  tol=0.0, mem_limit=20_000)[0]]

    error_type, text = _same_as_one_step_chunks(monkeypatch, run, _cap(3, n=3))
    assert error_type.__name__ == "ResourceError"
    assert text.startswith("statevector at iteration k=4 needs ")
