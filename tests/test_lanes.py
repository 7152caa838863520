"""Lockstep lanes: a multi-lane run of ``classical._drive`` gives each lane
the records, final x and error of running its value alone, bit for bit."""

import contextlib
import io
from functools import partial

import numpy as np
import pytest

from helpers import random_consistent, random_unit
from qrelax import branch, classical, cli, statevector
from qrelax.errors import QrelaxError
from qrelax.schedules import CLASSICAL, QUANTUM, RelaxationSchedule, SelectionStrategy
from qrelax.system import LinearSystem, normalize_columns, normalize_rows

N, STEPS, TOL = 16, 800, 1e-4
GRIDS = {"classical": (0.3, 0.7, 1.0, 1.4, 1.9), "branch": (0.2, 0.5, 0.8, 1.0)}
MODES = ["classical-row", "classical-column", "branch-row", "branch-column"]
STRATEGIES = ["cyclic", "random", "greedy", "seq"]


def _case(mode):
    rng = np.random.default_rng(31)
    raw = random_consistent(rng, N, cond=2.0)[0]
    system = normalize_rows(raw) if mode.endswith("row") else normalize_columns(raw)
    seq = [int(t) for t in rng.integers(1, N + 1, size=STEPS)]
    return system, random_unit(rng, N), seq


def _strategy(name, seq):
    if name == "seq":
        return SelectionStrategy.explicit(seq)
    return cli._build_strategy(name, seed=5)


def _solo(mode, system, x0, schedule, strategy, steps=STEPS, tol=TOL):
    engine, _, direction = mode.partition("-")
    run = classical.run_classical if engine == "classical" else branch.run_branch
    return run(system, x0, schedule, strategy, steps, direction, tol=tol)


@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("mode", MODES)
def test_each_lane_equals_its_solo_run(mode, strategy_name):
    engine, _, direction = mode.partition("-")
    system, x0, seq = _case(mode)
    strategy = _strategy(strategy_name, seq)
    domain = CLASSICAL if engine == "classical" else QUANTUM
    schedules = [RelaxationSchedule.constant(v, domain) for v in GRIDS[engine]]
    track = None if engine == "classical" else partial(branch._BranchTracker, direction)
    reports, _ = classical._drive(system, x0, schedules, strategy, STEPS, direction, TOL, track)
    assert len({report.steps_taken for report in reports}) > 1  # lanes retire at different k
    for schedule, report in zip(schedules, reports):
        solo = _solo(mode, system, x0, schedule, strategy)
        assert report.status == solo.status
        assert report.records == solo.records
        assert np.array_equal(report.final_x, solo.final_x)


def _sweep(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", *argv])
    return code, out.getvalue(), err.getvalue()


def _csv_line(value, report):
    probability = report.final.success_probability
    return (
        f"{value:g},{report.status},{report.steps_taken},{report.final.residual_norm:.12e},"
        + ("" if probability is None else f"{probability:.12e}")
    )


@pytest.mark.parametrize("mode", MODES + ["sim-row", "sim-column"])
def test_sweep_text_equals_a_loop_of_solo_runs(tmp_path, mode):
    engine, _, direction = mode.partition("-")
    system, x0, _ = _case(mode)
    path = tmp_path / "system.csv"
    np.savetxt(path, np.vstack([system.matrix, system.rhs]), delimiter=",", fmt="%.17g")
    grid = GRIDS["classical" if engine == "classical" else "branch"]
    steps = 4 if engine == "sim" else STEPS
    code, text, err = _sweep([
        "--system", str(path), "--mode", mode, "--x0=" + ",".join(repr(float(v)) for v in x0),
        "--strategy", "greedy", "--grid", ",".join(map(str, grid)), "--steps", str(steps),
        "--tol", repr(TOL),
    ])
    assert (code, err) == (cli.EXIT_OK, "")
    domain = CLASSICAL if engine == "classical" else QUANTUM
    strategy = SelectionStrategy.greedy_residual()
    expected = ["relaxation,status,steps,final_residual,final_success_probability"]
    for value in grid:
        schedule = RelaxationSchedule.constant(value, domain)
        if engine == "sim":
            run = statevector.run_algorithm1 if direction == "row" else statevector.run_algorithm2
            report = run(system, x0, schedule, strategy, steps, tol=TOL)[0]
        else:
            report = _solo(mode, system, x0, schedule, strategy, steps)
        expected.append(_csv_line(value, report))
    assert text == "\n".join(expected) + "\n"


# Unit rows and columns with b_1 = 1e308 and b_3 = 1.5e308: under cyclic
# selection from e2, a relaxation of 2 overflows x_1 at k=1, while 1.5
# only overflows x_3, at k=3.
OVERFLOW = "1,0,0;0,1,0;0,0,1|1e308,0,1.5e308"


def _solo_loop_error(mode, grid, strategy, steps):
    """The error of running the grid one value after another."""
    engine, _, direction = mode.partition("-")
    raw = LinearSystem(np.eye(3), np.array([1e308, 0.0, 1.5e308]))
    system = normalize_rows(raw) if direction == "row" else normalize_columns(raw)
    x0 = np.array([0.0, 1.0, 0.0])
    try:
        for value in grid:
            schedule = RelaxationSchedule.constant(value, CLASSICAL)
            _solo(mode, system, x0, schedule, strategy, steps, tol=cli.RunConfig.tol)
    except QrelaxError as exc:
        return f"error: {exc}\n"
    raise AssertionError(f"grid {grid} ran without an error")


@pytest.mark.parametrize("mode", ["classical-row", "classical-column"])
@pytest.mark.parametrize("grid", [(1.5, 2.0), (2.0, 1.5), (0.5, 1.5, 2.0), (1.5, 2.5), (2.5, 1.5)])
def test_sweep_error_is_the_first_failing_lane_in_grid_order(mode, grid):
    steps = 10
    code, text, err = _sweep([
        "--system", OVERFLOW, "--format", "inline", "--mode", mode, "--x0", "e2",
        "--strategy", "cyclic", "--grid", ",".join(map(str, grid)), "--steps", str(steps),
    ])
    assert (code, text) == (cli.EXIT_ERROR, "")
    assert err == _solo_loop_error(mode, grid, SelectionStrategy.cyclic(), steps)
    if grid[0] == 1.5:
        assert "k=3" in err  # not the k=1 of the lane after it


def test_exhausted_index_list_fails_every_live_lane():
    system, x0, seq = _case("classical-row")
    strategy = SelectionStrategy.explicit(seq[:5])
    schedules = [RelaxationSchedule.constant(v) for v in (0.5, 1.0)]
    with pytest.raises(QrelaxError) as lanes:
        classical._drive(system, x0, schedules, strategy, 10, classical.ROW, TOL)
    with pytest.raises(QrelaxError) as solo:
        classical.run_classical(system, x0, schedules[0], strategy, 10, classical.ROW, tol=TOL)
    assert str(lanes.value) == str(solo.value)
