"""The four benchmark workloads: seeded inputs, solve jobs and output checks.

A workload writes its systems as CSV files (the program only sees those
files and the arrays passed to the public run functions), then hands out
its solves in passes. A pass is a fixed, balanced set of jobs, so every
run mixes the same solve kinds in the same proportions. Each job has a
timed ``run`` (one call to a public run function, or one ``sweep``
command), a ``steps`` count, and an untimed ``check`` that raises
``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A solve returned, but its output is wrong."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    steps: Callable[[object], int]
    check: Callable[[object], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def make_system(rng, n: int, cond: float):
    """Consistent n x n system with singular values spread from 1 to 1/cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ q2.T
    return a, a @ rng.normal(size=n)


def write_csv(path: str, a, b) -> None:
    """The package's csv format: n matrix rows, then b; repr round-trips."""
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
        fh.write(",".join(repr(float(v)) for v in b) + "\n")


def _unit(n: int, index: int = 0):
    x = np.zeros(n)
    x[index] = 1.0
    return x


class Workload:
    name = ""
    # Passes the traced half runs: fixed work, so call counts repeat exactly.
    trace_passes = 1

    def __init__(self, tiny: bool, seed: int):
        self.tiny = tiny
        self.seed = seed

    def generate(self, workdir: str) -> list[dict]:
        """Write the input files; returns the manifest's system entries."""
        raise NotImplementedError

    def jobs(self, q, systems: list[dict], p: int) -> list[Job]:
        raise NotImplementedError

    def warmup(self, q, systems: list[dict]) -> None:
        """Short untimed solves, so first-call costs stay out of the figures."""
        raise NotImplementedError

    def largest_array_bytes(self, systems: list[dict], result) -> int:
        return max(s["raw"].matrix.nbytes for s in systems)


# --- kaczmarz-n50 -------------------------------------------------------------


class Kaczmarz(Workload):
    name = "kaczmarz-n50"
    LAMBDAS = (0.5, 1.0, 1.5)
    TOL = 1e-6
    MAX_STEPS = 200_000

    def generate(self, workdir):
        rng = np.random.default_rng(self.seed)
        n, count = (8, 1) if self.tiny else (50, 6)
        entries = []
        for i in range(count):
            a, b = make_system(rng, n, cond=10.0)
            write_csv(os.path.join(workdir, f"kaczmarz{i}.csv"), a, b)
            entries.append({"file": f"kaczmarz{i}.csv", "normalize": ["rows", "columns"]})
        return entries

    def _job(self, q, system, mode, strategy, lam, max_steps=MAX_STEPS):
        S = q.schedules
        x0 = np.zeros(system.n)
        schedule = S.RelaxationSchedule.constant(lam)

        def run():
            return q.classical.run_classical(
                system, x0, schedule, strategy, max_steps, mode, tol=self.TOL
            )

        def check(report):
            _require(report.status == q.report.CONVERGED, f"status {report.status}")
            _require(report.final.residual_norm <= self.TOL, "recorded residual above tol")
            # Column runs track r incrementally; allow the 1e-10 drift that
            # acceptance criterion 5 allows between tracked and true residual.
            true = float(np.linalg.norm(system.rhs - system.matrix @ report.final_x))
            _require(true <= self.TOL + 1e-10, f"true residual {true:.3e} above tol")

        label = f"{mode}/{strategy.variant}/{lam}"
        return Job(label, run, lambda report: report.steps_taken, check)

    def jobs(self, q, systems, p):
        sysp = systems[p % len(systems)]
        S = q.schedules.SelectionStrategy
        out = []
        for mode, key in (("row", "rows"), ("column", "columns")):
            for strategy in (S.cyclic(), S.random_uniform(self.seed * 1000 + p)):
                for lam in self.LAMBDAS:
                    out.append(self._job(q, sysp[key], mode, strategy, lam))
        return out

    def warmup(self, q, systems):
        S = q.schedules.SelectionStrategy
        for mode, key in (("row", "rows"), ("column", "columns")):
            self._job(q, systems[0][key], mode, S.random_uniform(0), 1.0, 200).run()


# --- branch-n1000 -------------------------------------------------------------


class Branch(Workload):
    name = "branch-n1000"
    LAMBDAS = (0.5, 1.0)
    trace_passes = 2

    @property
    def budget(self) -> int:
        return 20 if self.tiny else 300

    def generate(self, workdir):
        rng = np.random.default_rng(self.seed)
        n = 20 if self.tiny else 1000
        a, b = make_system(rng, n, cond=10.0)
        write_csv(os.path.join(workdir, "branch.csv"), a, b)
        return [{"file": "branch.csv", "normalize": ["rows", "columns"]}]

    def _job(self, q, system, mode, strategy, lam, budget):
        C = q.classical
        x0 = _unit(system.n)
        schedule = q.schedules.RelaxationSchedule.constant(lam, q.schedules.QUANTUM)

        def run():
            # tol 0: every solve runs its whole step budget.
            return q.branch.run_branch(system, x0, schedule, strategy, budget, mode, tol=0.0)

        def check(report):
            _require(report.status == q.report.MAX_STEPS, f"status {report.status}")
            _require(report.steps_taken == budget, f"{report.steps_taken} steps, budget {budget}")
            stream = [(rec.t, rec.relaxation) for rec in report.records[1:]]
            if mode == "row":
                it = C.RowIterate(np.array(x0))
                for t, value in stream:
                    it = C.kaczmarz_step(it, system, t, value)
                v = math.sqrt(1.0 + sum(float(system.rhs[t - 1]) ** 2 for t, _ in stream))
            else:
                r0 = system.rhs - system.matrix @ x0
                r0_norm = float(np.linalg.norm(r0))
                unit = r0_norm == 0.0 or abs(r0_norm - 1.0) <= 1e-12
                delta = 1.0 if unit else 1.0 / r0_norm
                it = C.ColumnIterate(np.array(x0), r0)
                for t, value in stream:
                    it = C.column_step(it, system, t, value)
                v = 1.0 + len(stream) / delta
            scale = 1.0 + float(np.linalg.norm(it.x))
            drift = float(np.max(np.abs(it.x - report.final_x)))
            _require(drift <= 1e-12 * scale, f"final iterate differs from replay by {drift:.3e}")
            amplitude = float(np.linalg.norm(it.x)) / v
            gap = abs(report.final.amplitude - amplitude)
            _require(gap <= 1e-12 * max(1.0, amplitude), f"amplitude differs by {gap:.3e}")

        label = f"{mode}/{strategy.variant}/{lam}"
        return Job(label, run, lambda report: report.steps_taken, check)

    def jobs(self, q, systems, p):
        S = q.schedules.SelectionStrategy
        out = []
        for mode, key in (("row", "rows"), ("column", "columns")):
            for strategy in (S.greedy_residual(), S.random_uniform(self.seed * 1000 + p)):
                for lam in self.LAMBDAS:
                    out.append(self._job(q, systems[0][key], mode, strategy, lam, self.budget))
        return out

    def warmup(self, q, systems):
        S = q.schedules.SelectionStrategy
        for mode, key in (("row", "rows"), ("column", "columns")):
            self._job(q, systems[0][key], mode, S.random_uniform(0), 1.0, 5).run()


# --- statevector-n8 ----------------------------------------------------------


class Statevector(Workload):
    name = "statevector-n8"

    @property
    def depths(self) -> tuple[int, int]:
        """(row iterations, column iterations) per solve."""
        return (2, 3) if self.tiny else (7, 9)

    def generate(self, workdir):
        rng = np.random.default_rng(self.seed)
        n = 3 if self.tiny else 8
        a, b = make_system(rng, n, cond=10.0)
        write_csv(os.path.join(workdir, "statevector.csv"), a, b)
        return [{"file": "statevector.csv", "normalize": ["rows", "columns"]}]

    def _row_job(self, q, system, strategy, lam, depth):
        x0 = _unit(system.n)
        schedule = q.schedules.RelaxationSchedule.constant(lam, q.schedules.QUANTUM)

        def run():
            return q.statevector.run_algorithm1(system, x0, schedule, strategy, depth, tol=0.0)

        def check(result):
            report, _ = result
            _check_sim_report(report, depth)
            state = q.branch.init_row_branch(x0)
            for rec in report.records[1:]:
                state = q.branch.row_branch_step(state, system, rec.t, rec.relaxation)
                _check_amplitude(rec, state.amplitude)

        return Job(f"row/{strategy.variant}/{lam}", run, lambda r: r[0].steps_taken, check)

    def _column_job(self, q, system, strategy, omega, depth):
        x0 = _unit(system.n)
        schedule = q.schedules.RelaxationSchedule.constant(omega, q.schedules.QUANTUM)

        def run():
            return q.statevector.run_algorithm2(system, x0, schedule, strategy, depth, tol=0.0)

        def check(result):
            report = result[0]
            _check_sim_report(report, depth)
            state = q.branch.init_column_branch(x0, system)
            for rec in report.records[1:]:
                state = q.branch.column_branch_step(state, system, rec.t, rec.relaxation)
                _check_amplitude(rec, state.amplitude)

        return Job(f"column/{strategy.variant}/{omega}", run, lambda r: r[0].steps_taken, check)

    def jobs(self, q, systems, p):
        S = q.schedules.SelectionStrategy
        rows, columns = systems[0]["rows"], systems[0]["columns"]
        row_depth, column_depth = self.depths
        random = S.random_uniform(self.seed * 1000 + p)
        # Two row solves per three column solves: the median falls among the
        # column solves and the tail among the slower row solves, instead of
        # on the gap between two clusters of equal size.
        return [
            self._row_job(q, rows, S.cyclic(), 0.75, row_depth),
            self._row_job(q, rows, random, 1.0, row_depth),
            self._column_job(q, columns, S.cyclic(), 1.0, column_depth),
            self._column_job(q, columns, random, 0.5, column_depth),
            self._column_job(q, columns, S.cyclic(), 0.75, column_depth),
        ]

    def warmup(self, q, systems):
        S = q.schedules.SelectionStrategy
        self._row_job(q, systems[0]["rows"], S.cyclic(), 0.75, 2).run()
        self._column_job(q, systems[0]["columns"], S.cyclic(), 1.0, 2).run()

    def largest_array_bytes(self, systems, result):
        return max(state.vec.nbytes for state in result[1:] if state is not None)


def _check_sim_report(report, depth: int) -> None:
    _require(report.steps_taken == depth, f"{report.steps_taken} iterations, wanted {depth}")
    worst = max(abs(1.0 - rec.fidelity) for rec in report.records)
    _require(worst <= 1e-9, f"fidelity off by {worst:.3e}")


def _check_amplitude(rec, expected: float) -> None:
    gap = abs(rec.amplitude - expected)
    _require(gap <= 1e-9, f"k={rec.k}: amplitude differs from branch engine by {gap:.3e}")


# --- sweep-n50 ----------------------------------------------------------------


class Sweep(Workload):
    name = "sweep-n50"
    GRID = (0.6, 0.8, 1.0, 1.2, 1.3, 1.4, 1.6, 1.8)
    # Sized so one sweep takes well under a second on two cores: enough
    # sweeps per run for a tail percentile.
    TOL = 1e-3
    MAX_STEPS = 200_000
    COND = 1.5
    trace_passes = 3

    def generate(self, workdir):
        rng = np.random.default_rng(self.seed)
        n = 8 if self.tiny else 50
        a, b = make_system(rng, n, cond=self.COND)
        write_csv(os.path.join(workdir, "sweep.csv"), a, b)
        return [{"file": "sweep.csv", "normalize": ["rows"]}]

    def _job(self, q, entry, seed, grid):
        argv = [
            "sweep", "--system", entry["path"], "--format", "csv", "--mode", "classical-row",
            "--grid", ",".join(repr(v) for v in grid), "--strategy", "random",
            "--seed", str(seed), "--steps", str(self.MAX_STEPS), "--tol", repr(self.TOL),
            "--x0", "e1",
        ]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = q.cli.main(argv)
            return code, out.getvalue()

        def steps(result):
            return sum(int(line.split(",")[2]) for line in result[1].splitlines()[1:])

        def check(result):
            code, text = result
            _require(code == 0, f"sweep exit code {code}")
            rows = [line.split(",") for line in text.splitlines()[1:]]
            _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid values")
            for (value, status, _, residual, _), expected in zip(rows, grid):
                _require(float(value) == expected, f"row {value} out of grid order")
                _require(status == q.report.CONVERGED, f"lane {value}: {status}")
                _require(float(residual) <= self.TOL, f"lane {value}: residual {residual}")
            # One lane per sweep, rotating with the seed, against a scalar run.
            lane = seed % len(grid)
            system = entry["rows"]
            report = q.classical.run_classical(
                system, _unit(system.n), q.schedules.RelaxationSchedule.constant(grid[lane]),
                q.schedules.SelectionStrategy.random_uniform(seed), self.MAX_STEPS, "row",
                tol=self.TOL,
            )
            _, status, lane_steps, residual, _ = rows[lane]
            scalar = (report.status, str(report.steps_taken), f"{report.final.residual_norm:.12e}")
            _require(scalar == (status, lane_steps, residual), f"lane {grid[lane]} != scalar run")

        return Job("sweep", run, steps, check)

    def jobs(self, q, systems, p):
        return [self._job(q, systems[0], self.seed * 1000 + p, self.GRID)]

    def warmup(self, q, systems):
        self._job(q, systems[0], 0, self.GRID[:2]).run()


WORKLOADS = {cls.name: cls for cls in (Kaczmarz, Branch, Statevector, Sweep)}
