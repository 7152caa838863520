"""Command-line surface: solve, reproduce-paper, verify, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import branch, classical, statevector, worked_examples
from .encodings import (
    _check_unit,
    column_residual_unitary,
    column_update_unitary,
    embedding_factor,
    row_unitary,
    state_prep_col,
    state_prep_row,
    verify_unitary,
)
from .errors import DomainError, QrelaxError, UsageError
from .loaders import FORMATS, load_system
from .report import CONVERGED, RunReport, StepRecord
from .schedules import CLASSICAL, QUANTUM, RelaxationSchedule, SelectionStrategy
from .system import COLUMNS_NORMALIZED, LinearSystem, normalize_columns, normalize_rows

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_STEPS = 2

MODES = (
    "classical-row",
    "classical-column",
    "sim-row",
    "sim-column",
    "branch-row",
    "branch-column",
)


@dataclass(frozen=True)
class RunConfig:
    """One solver invocation: the only declaration of the run options and
    their defaults. ``_add_run_flags`` maps one flag onto each field."""

    system_source: str
    system_format: str = "csv"
    rhs_source: str | None = None
    mode: str = "classical-row"
    x0: str = "e1"
    schedule: str = "constant:1.0"
    strategy: str = "cyclic"
    steps: int = 100
    tol: float = classical.DEFAULT_TOL
    seed: int = 0
    mem_limit: int = statevector.DEFAULT_MEM_LIMIT
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode {self.mode!r} not one of {MODES}")
        if self.steps < 0:
            raise UsageError(f"steps must be >= 0, got {self.steps}")
        if self.mem_limit <= 0:
            raise UsageError(f"mem-limit must be > 0 bytes, got {self.mem_limit}")


def _resolve_x0(text: str, n: int) -> np.ndarray:
    text = text.strip()
    if text.startswith("e") and text[1:].isdigit():
        idx = int(text[1:])
        if not 1 <= idx <= n:
            raise UsageError(f"basis index {text} outside 1..{n}")
        x0 = np.zeros(n)
        x0[idx - 1] = 1.0
        return x0
    try:
        x0 = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse x0 value {text!r}") from None
    if x0.size != n:
        raise UsageError(f"x0 has {x0.size} entries, expected {n}")
    return x0


def _build_schedule(text: str, domain: str) -> RelaxationSchedule:
    name, _, args = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "constant":
            return RelaxationSchedule.constant(float(args), domain)
        if name == "decaying":
            return RelaxationSchedule.decaying(float(args), domain)
        if name == "seq":
            return RelaxationSchedule.explicit(
                [float(tok) for tok in args.split(",")], domain
            )
    except ValueError:
        raise UsageError(f"cannot parse schedule {text!r}") from None
    raise UsageError(f"unknown schedule {name!r} (constant/decaying/seq)")


def _build_strategy(text: str, seed: int) -> SelectionStrategy:
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name == "cyclic":
        return SelectionStrategy.cyclic()
    if name == "random":
        return SelectionStrategy.random_uniform(seed)
    if name == "greedy":
        return SelectionStrategy.greedy_residual()
    if name == "seq":
        try:
            return SelectionStrategy.explicit([int(tok) for tok in args.split(",")])
        except ValueError:
            raise UsageError(f"cannot parse strategy {text!r}") from None
    raise UsageError(f"unknown strategy {name!r} (cyclic/random/greedy/seq)")


def _prepare(config: RunConfig):
    engine, _, direction = config.mode.partition("-")
    raw = load_system(config.system_source, config.system_format, rhs=config.rhs_source)
    system = normalize_rows(raw) if direction == classical.ROW else normalize_columns(raw)
    schedule = _build_schedule(config.schedule, CLASSICAL if engine == "classical" else QUANTUM)
    strategy = _build_strategy(config.strategy, config.seed)
    x0 = _resolve_x0(config.x0, system.n)
    if engine != "classical":
        _check_unit(x0, f"--x0 in {config.mode} mode")
    return system, x0, schedule, strategy


def _execute(config: RunConfig, system, x0, schedule, strategy):
    """Run the configured engine; returns (report, summary extras)."""
    engine, _, direction = config.mode.partition("-")
    args = (system, x0, schedule, strategy, config.steps)
    if engine == "classical":
        return classical.run_classical(*args, direction, tol=config.tol), {}
    if engine == "branch":
        report = branch.run_branch(*args, direction, tol=config.tol)
        return report, {"ancillas": statevector.ancillas(direction, report.steps_taken)}
    run = statevector.run_algorithm1 if direction == classical.ROW else statevector.run_algorithm2
    report, state, *_ = run(*args, tol=config.tol, mem_limit=config.mem_limit)
    return report, {"ancillas": state.layout.ancillas, "v": state.v}


def _summary_lines(config: RunConfig, system: LinearSystem, report: RunReport, extras) -> list[str]:
    final = report.final
    lines = [
        f"mode: {config.mode}",
        f"n: {system.n}  normalization: {system.normalization}",
        f"scales: {_fmt_vector(system.scale)}",
        f"status: {report.status}  steps: {report.steps_taken}",
        f"final residual: {final.residual_norm:.6e}",
        f"final x norm: {final.x_norm:.12g}",
    ]
    if report.final_x is not None:
        lines.append(f"final x: {_fmt_vector(report.final_x)}")
        if system.normalization == COLUMNS_NORMALIZED:
            lines.append(
                f"de-normalized x: {_fmt_vector(system.denormalize_solution(report.final_x))}"
            )
    if final.error_norm is not None:
        lines.append(f"final error vs direct solve: {final.error_norm:.6e}")
    if "v" in extras:
        lines.append(f"v: {extras['v']:.12g}")
    if final.amplitude is not None:
        lines.append(f"good-branch amplitude: {final.amplitude:.12g}")
        lines.append(f"success probability: {final.success_probability:.12g}")
    if "ancillas" in extras:
        layout = statevector.RegisterLayout(extras["ancillas"], system.n)
        lines.append(
            f"ancilla qubits: {layout.ancillas}  data qubits: "
            f"{layout.qubit_total - layout.ancillas}  total: {layout.qubit_total}"
        )
    return lines


def _fmt_vector(vec) -> str:
    if vec is None:
        return "none"
    return "[" + ", ".join(f"{float(v):.12g}" for v in np.asarray(vec)) + "]"


def _write_outputs(config: RunConfig, system, report: RunReport, summary: list[str]) -> None:
    if not config.out:
        return
    meta = {
        "mode": config.mode,
        "n": system.n,
        "normalization": system.normalization,
        "scale": None if system.scale is None else [float(s) for s in system.scale],
        "schedule": config.schedule,
        "strategy": config.strategy,
        "tol": config.tol,
        "seed": config.seed,
    }
    _write_lines(config.out + ".jsonl", chain([json.dumps({"meta": meta})], report.json_lines()))
    _write_lines(config.out + ".summary.txt", summary)


def _write_lines(path: str, lines) -> None:
    """Write each line to the ``--out`` file ``path``; a file that cannot
    be written is a UsageError that names it."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _check_writable(config: RunConfig, *suffixes: str) -> None:
    """Fail before the run, not after it, when an ``--out`` file cannot
    be created. The check opens each file for appending, so it changes
    no file, and removes a file that it created."""
    for path in (config.out + suffix for suffix in suffixes if config.out):
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise _cannot_write(path, exc) from None
        if not existed:
            os.remove(path)


def _cannot_write(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_solve(config: RunConfig, stdout=None) -> int:
    stdout = stdout or sys.stdout
    system, x0, schedule, strategy = _prepare(config)
    _check_writable(config, ".jsonl", ".summary.txt")
    report, extras = _execute(config, system, x0, schedule, strategy)
    summary = _summary_lines(config, system, report, extras)
    _write_outputs(config, system, report, summary)
    print("\n".join(summary), file=stdout)
    return EXIT_OK if report.status == CONVERGED else EXIT_MAX_STEPS


def cmd_reproduce_paper(stdout=None) -> int:
    """Replay the built-in worked examples on all three engines and verify
    every published value at 1e-10; prints one row per check."""
    stdout = stdout or sys.stdout
    started = time.perf_counter()
    checks = worked_examples.reference_checks()
    width = max(len(c.quantity) for c in checks)
    failures = 0
    for c in checks:
        ok = c.passed
        failures += 0 if ok else 1
        print(
            f"[{'PASS' if ok else 'FAIL'}] {c.example:<6} {c.engine:<11} "
            f"{c.quantity:<{width}}  expected={c.expected}  actual={c.actual}  "
            f"deviation={c.deviation:.3e}",
            file=stdout,
        )
    elapsed = time.perf_counter() - started
    print(
        f"{len(checks) - failures}/{len(checks)} checks passed "
        f"(tolerance {worked_examples.TOLERANCE:g}, {elapsed:.2f}s)",
        file=stdout,
    )
    return EXIT_OK if failures == 0 else EXIT_ERROR


def _verify_unitaries(trials: int, seed: int):
    """Random-draw suite: every constructor must give a symmetric
    orthogonal involution (the state preps are Householder reflections)."""
    rng = np.random.default_rng(seed)
    worst = {"orthogonality": 0.0, "symmetry": 0.0, "involution": 0.0}
    for trial in range(trials):
        n = int(rng.integers(2, 17))
        vec = rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        value = float(rng.uniform(0.0, 1.0))
        t = int(rng.integers(1, n + 1))
        built = [
            row_unitary(vec, value),
            column_residual_unitary(vec, value),
            column_update_unitary(t, value, n),
            state_prep_row(vec),
            state_prep_col(vec, t),
        ]
        for unit in built:
            rep = verify_unitary(unit)
            deviations = (rep.max_orthogonality_deviation, rep.symmetry_deviation,
                          rep.involution_deviation)
            worst = {key: max(w, d) for (key, w), d in zip(worst.items(), deviations)}
            if not (rep.passed and rep.symmetric and rep.involutory):
                return worst, f"trial {trial}: {unit.label} n={n} t={t} value={value!r}"
    return worst, None


def _verify_equivalence(trials: int, seed: int):
    """Cross-engine suite: the classical, branch and statevector runs of
    one explicit selection must agree in record count, x norm, amplitude
    and sim fidelity 1; in column mode the final residual register's good
    branch must carry delta times the final residual norm."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        b = a @ rng.normal(size=n)
        x0 = rng.normal(size=n)
        x0 /= np.linalg.norm(x0)
        steps = [(int(rng.integers(1, n + 1)), float(rng.uniform(0, 1))) for _ in range(3)]
        ts, values = zip(*steps)
        plan = (RelaxationSchedule.explicit(values, QUANTUM), SelectionStrategy.explicit(ts))
        failure = f"trial {trial}: n={n} steps={steps!r}"
        systems = (normalize_rows(LinearSystem(a, b)), normalize_columns(LinearSystem(a, b)))
        runs = (statevector.run_algorithm1, statevector.run_algorithm2)
        for mode, system, run in zip((classical.ROW, classical.COLUMN), systems, runs):
            args = (system, x0, *plan, len(steps))
            exact = classical.run_classical(*args, mode, tol=0.0).records
            good = branch.run_branch(*args, mode, tol=0.0).records
            sim, *states = run(*args, tol=0.0)
            if not len(exact) == len(good) == len(sim.records):
                return worst, f"{failure}: {mode} record counts differ"
            for c, g, s in zip(exact, good, sim.records):
                worst = max(worst, abs(c.x_norm - g.x_norm), abs(c.x_norm - s.x_norm),
                            abs(s.amplitude - g.amplitude), abs(1.0 - s.fidelity))
            if mode == classical.COLUMN:
                r_amp, _ = statevector.extract_good_branch(states[-1])
                delta = embedding_factor(exact[0].residual_norm)
                worst = max(worst, abs(r_amp - delta * sim.final.residual_norm))
        if worst > 1e-9:
            return worst, failure
    return worst, None


def cmd_verify(trials: int = 1000, seed: int = 0, stdout=None) -> int:
    stdout = stdout or sys.stdout
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        # numpy's seed sequence takes only non-negative entropy.
        raise UsageError(f"seed must be >= 0, got {seed}")
    worst, failure = _verify_unitaries(trials, seed)
    print(
        f"unitarity suite ({trials} trials): max ||M^T M - I||_max = "
        f"{worst['orthogonality']:.3e}, symmetry {worst['symmetry']:.3e}, "
        f"involution {worst['involution']:.3e}",
        file=stdout,
    )
    if failure is not None:
        print(f"FAIL unitarity: {failure} (seed {seed})", file=stdout)
        return EXIT_ERROR

    equiv_trials = max(1, trials // 50)
    worst_dev, failure = _verify_equivalence(equiv_trials, seed)
    print(
        f"equivalence suite ({equiv_trials} systems): max cross-engine deviation = "
        f"{worst_dev:.3e}",
        file=stdout,
    )
    if failure is not None:
        print(f"FAIL equivalence: {failure} (seed {seed})", file=stdout)
        return EXIT_ERROR
    print("all suites passed", file=stdout)
    return EXIT_OK


class _LastRecord(RunReport):
    """A sweep lane's report: it keeps only the latest record, the one
    row a sweep prints, and builds no other. Every lane's full stream
    held at once would raise the sweep's peak memory."""

    def extend(self, first, *columns) -> None:
        last = first + len(columns[0]) - 1
        self.records[:] = [StepRecord(last, *(column[-1] for column in columns))]


def cmd_sweep(config: RunConfig, grid: list[float], stdout=None) -> int:
    """One lane per relaxation value, output in grid order; each lane's
    schedule is constant at its value, in the domain of the engine.

    Classical and branch lanes run in lockstep in one ``_drive`` call.
    Sim lanes run one at a time: the memory guard bounds one set of
    registers, not one per lane. Either way the error raised is that of
    the first failing lane in grid order, a value outside the domain
    included. A row's label is its value in %g form, or its repr where
    %g would round it, so no two distinct values share a label.
    """
    stdout = stdout or sys.stdout
    system, x0, base, strategy = _prepare(config)
    _check_writable(config, ".csv")
    engine, _, direction = config.mode.partition("-")
    schedules, bad_value = [], None
    for value in grid:
        try:
            schedules.append(RelaxationSchedule.constant(value, base.domain))
        except DomainError as exc:
            bad_value = exc
            break
    reports = []
    if engine == "sim":
        reports = [_execute(config, system, x0, schedule, strategy)[0] for schedule in schedules]
    elif schedules:
        track = None if engine == "classical" else partial(branch._BranchTracker, direction)
        reports, _ = classical._drive(
            system, x0, schedules, strategy, config.steps, direction, config.tol, track,
            _LastRecord,
        )
    if bad_value is not None:
        raise bad_value
    lines = ["relaxation,status,steps,final_residual,final_success_probability"]
    for value, report in zip(grid, reports):
        probability = report.final.success_probability
        label = f"{value:g}" if float(f"{value:g}") == value else repr(value)
        lines.append(
            f"{label},{report.status},{report.steps_taken},{report.final.residual_norm:.12e},"
            + ("" if probability is None else f"{probability:.12e}")
        )
    if config.out:
        _write_lines(config.out + ".csv", lines)
    print("\n".join(lines), file=stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelax",
        description="Relaxed row/column iteration solvers: classical, statevector, branch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one engine on one system")
    _add_run_flags(solve)

    sub.add_parser("reproduce-paper", help="check the built-in worked examples")

    verify = sub.add_parser("verify", help="unitarity and cross-engine property suites")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="one run per relaxation value")
    _add_run_flags(sweep, schedule=False)
    sweep.add_argument("--grid", required=True, help="comma list of relaxation values")
    return parser


def _add_run_flags(parser: argparse.ArgumentParser, schedule: bool = True) -> None:
    """One flag per ``RunConfig`` field; an unset flag leaves the field's default."""
    flag = partial(parser.add_argument, default=argparse.SUPPRESS)
    flag("--system", dest="system_source", metavar="SYSTEM", required=True,
         help="path (csv/matrixmarket) or inline text")
    flag("--format", dest="system_format", choices=FORMATS)
    flag("--rhs", dest="rhs_source", metavar="RHS", help="rhs file, matrixmarket input only")
    flag("--mode", choices=MODES, help=f"default {RunConfig.mode}")
    flag("--x0", help=f"'e<i>' or comma list, default {RunConfig.x0}")
    if schedule:
        flag("--schedule", help="constant:V | decaying:V | seq:V,...")
    flag("--strategy", help="cyclic | random | greedy | seq:T,...")
    flag("--steps", type=int)
    flag("--tol", type=float)
    flag("--seed", type=int)
    flag("--mem-limit", type=int)
    flag("--out", help="output prefix for record/summary files")


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    fields = (f.name for f in dataclasses.fields(RunConfig))
    return RunConfig(**{name: given[name] for name in fields if name in given})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run_command(args)
        # Flush here, so a reader that is gone shows up inside the try.
        sys.stdout.flush()
    except QrelaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader of stdout closed it (``qrelax solve ... | head -1``).
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


def _run_command(args) -> int:
    if args.command == "solve":
        return cmd_solve(_config_from_args(args))
    if args.command == "reproduce-paper":
        return cmd_reproduce_paper()
    if args.command == "verify":
        return cmd_verify(args.trials, args.seed)
    if args.command == "sweep":
        try:
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"cannot parse sweep grid {args.grid!r}") from None
        if not grid:
            raise UsageError("empty sweep grid")
        return cmd_sweep(_config_from_args(args), grid)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
