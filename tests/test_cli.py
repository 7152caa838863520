import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import random_consistent
from qrelax import cli
from qrelax.errors import UsageError
from qrelax.report import RECORD_FIELDS

R2 = math.sqrt(2.0)

ROW_INLINE = (
    f"{1 / R2},{1 / R2};{1 / R2},{-1 / R2}|{2 * R2},{R2}"
)
COLUMN_INLINE = (
    f"{-1 / R2},{1 / R2};{-1 / R2},{-1 / R2}|{R2},0"
)


def write_identity_csv(tmp_path):
    path = tmp_path / "identity.csv"
    path.write_text("1,0\n0,1\n1,0\n")
    return str(path)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_config_defaults_come_from_run_config(command):
    argv = [command, "--system", "s.csv"] + (["--grid", "0.5"] if command == "sweep" else [])
    args = cli.build_parser().parse_args(argv)
    assert cli._config_from_args(args) == cli.RunConfig(system_source="s.csv")


def test_config_takes_every_given_flag():
    args = cli.build_parser().parse_args([
        "solve", "--system", "a.mtx", "--format", "matrixmarket", "--rhs", "b.txt",
        "--mode", "branch-column", "--x0", "e2", "--schedule", "decaying:0.5",
        "--strategy", "greedy", "--steps", "7", "--tol", "1e-3", "--seed", "4",
        "--mem-limit", "5000", "--out", "run",
    ])
    assert cli._config_from_args(args) == cli.RunConfig(
        system_source="a.mtx", system_format="matrixmarket", rhs_source="b.txt",
        mode="branch-column", x0="e2", schedule="decaying:0.5", strategy="greedy",
        steps=7, tol=1e-3, seed=4, mem_limit=5000, out="run",
    )


def test_sweep_has_no_schedule_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([
            "sweep", "--system", ROW_INLINE, "--format", "inline",
            "--grid", "0.5", "--schedule", "constant:0.3",
        ])
    assert excinfo.value.code == 2


def test_sweep_bad_grid_exits_one(capsys):
    rc = cli.main(["sweep", "--system", ROW_INLINE, "--format", "inline", "--grid", "0.5,x"])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: cannot parse sweep grid '0.5,x'\n"


def test_solve_rhs_with_inline_input_exits_one(tmp_path, capsys):
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    rc = cli.main([
        "solve", "--system", "1,0; 0,1 | 1,0", "--format", "inline", "--rhs", str(rhs),
    ])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--rhs" in err


def test_solve_identity_converges_with_exit_zero(tmp_path, capsys):
    rc = cli.main([
        "solve", "--system", write_identity_csv(tmp_path),
        "--mode", "classical-row", "--x0", "e1",
    ])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "status: converged  steps: 0" in out


def test_solve_sim_row_worked_example(tmp_path, capsys):
    out_prefix = str(tmp_path / "run")
    rc = cli.main([
        "solve", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "sim-row", "--x0", "1,0",
        "--schedule", "seq:0.3333333333333333,1.0", "--strategy", "seq:1,2",
        "--steps", "2", "--out", out_prefix,
    ])
    # two iterations do not solve this system: exit reports max-steps
    assert rc == cli.EXIT_MAX_STEPS
    out = capsys.readouterr().out
    assert "v: 3.31662479036" in out
    assert "success probability: 0.363636363636" in out
    assert "ancilla qubits: 8" in out

    lines = (tmp_path / "run.jsonl").read_text().strip().split("\n")
    meta = json.loads(lines[0])["meta"]
    assert meta["mode"] == "sim-row"
    assert meta["scale"] == [1.0, 1.0]
    for line in lines[1:]:
        record = json.loads(line)
        assert tuple(record.keys()) == RECORD_FIELDS
    assert (tmp_path / "run.summary.txt").exists()


def test_solve_sim_column_denormalizes_solution(capsys):
    # leading '-' in the inline text requires the --flag=value form
    rc = cli.main([
        f"solve", f"--system={COLUMN_INLINE}", "--format", "inline",
        "--mode", "sim-column", "--x0", "0,1",
        "--schedule", "seq:0.5,1.0", "--strategy", "seq:1,1", "--steps", "2",
    ])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "de-normalized x: [-1, 1]" in out
    assert "status: converged" in out


def test_solve_memory_guard_exits_one(rng, tmp_path, capsys):
    system, _ = random_consistent(rng, 3)
    path = tmp_path / "sys.csv"
    rows = [",".join(str(v) for v in row) for row in system.matrix]
    rows.append(",".join(str(v) for v in system.rhs))
    path.write_text("\n".join(rows) + "\n")
    rc = cli.main([
        "solve", "--system", str(path), "--mode", "sim-row",
        "--schedule", "constant:0.5", "--steps", "50",
        "--mem-limit", "4000", "--tol", "0",
    ])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "bytes" in err and "error:" in err


def test_solve_missing_file_exits_one(capsys):
    rc = cli.main(["solve", "--system", "/does/not/exist.csv", "--mode", "classical-row"])
    assert rc == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


def test_solve_on_a_directory_exits_one(tmp_path, capsys):
    assert cli.main(["solve", "--system", str(tmp_path)]) == cli.EXIT_ERROR
    assert _one_error_line(capsys) == f"error: cannot read {tmp_path}: Is a directory\n"


def test_solve_on_a_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,0\n0,1\n\xe9,0\n")
    assert cli.main(["solve", "--system", str(path)]) == cli.EXIT_ERROR
    assert _one_error_line(capsys) == f"error: cannot read {path}: not UTF-8 text\n"


@pytest.mark.parametrize("command, suffix", [
    (["solve"], ".jsonl"), (["sweep", "--grid", "0.5,1.0"], ".csv"),
])
def test_out_in_a_missing_directory_exits_one(tmp_path, command, suffix, capsys):
    out = tmp_path / "missing" / "run"
    rc = cli.main([*command, "--system", ROW_INLINE, "--format", "inline", "--out", str(out)])
    assert rc == cli.EXIT_ERROR
    assert _one_error_line(capsys) == (
        f"error: cannot write {out}{suffix}: No such file or directory\n"
    )


@pytest.mark.parametrize("command, suffix", [
    (["solve"], ".jsonl"), (["sweep", "--grid", "0.5,1.0"], ".csv"),
])
@pytest.mark.parametrize("mode", ["classical-row", "branch-row", "sim-row"])
def test_an_unwritable_out_fails_before_the_run(monkeypatch, tmp_path, command, suffix, mode,
                                                 capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.classical, "_drive", no_run)
    out = tmp_path / "missing" / "run"
    rc = cli.main([*command, "--system", ROW_INLINE, "--format", "inline", "--mode", mode,
                   "--x0", "1,0", "--out", str(out)])
    assert rc == cli.EXIT_ERROR
    assert _one_error_line(capsys) == (
        f"error: cannot write {out}{suffix}: No such file or directory\n"
    )


def test_a_run_that_fails_after_the_out_check_leaves_the_out_files_as_they_were(tmp_path,
                                                                              capsys):
    kept = tmp_path / "run.summary.txt"
    kept.write_text("an earlier summary\n")
    rc = cli.main(["solve", "--system", "1,0; 0,1 | 1.5e308,0", "--format", "inline",
                   "--x0", "e2", "--schedule", "constant:2", "--steps", "4",
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_ERROR
    assert "non-finite at step k=1" in _one_error_line(capsys)
    assert os.listdir(tmp_path) == ["run.summary.txt"]
    assert kept.read_text() == "an earlier summary\n"


def test_solve_domain_error_exits_one(capsys):
    rc = cli.main([
        "solve", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "branch-row", "--schedule", "constant:1.5",
    ])
    assert rc == cli.EXIT_ERROR
    assert "domain" in capsys.readouterr().err


def test_solve_greedy_and_decaying_routes(tmp_path, capsys):
    # the decaying schedule closes the gap only harmonically, so the
    # tolerance is matched to the step budget
    rc = cli.main([
        "solve", "--system", write_identity_csv(tmp_path),
        "--mode", "classical-row", "--x0", "0,1",
        "--schedule", "decaying:1.0", "--strategy", "greedy", "--steps", "30",
        "--tol", "0.05",
    ])
    assert rc == cli.EXIT_OK


def test_solve_matrixmarket_route(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"
    )
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    rc = cli.main([
        "solve", "--system", str(mtx), "--format", "matrixmarket",
        "--rhs", str(rhs), "--mode", "branch-row", "--x0", "e1",
    ])
    assert rc == cli.EXIT_OK


def test_reproduce_paper_passes(capsys):
    rc = cli.main(["reproduce-paper"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 14
    assert all(ln.startswith("[PASS]") for ln in lines)
    assert "checks passed" in out


def test_verify_command(capsys):
    rc = cli.main(["verify", "--trials", "50", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "max ||M^T M - I||_max" in out
    assert "equivalence suite" in out
    assert "all suites passed" in out


def test_verify_single_trial_fast_path(capsys):
    assert cli.main(["verify", "--trials", "1"]) == cli.EXIT_OK


def test_verify_negative_seed_exits_one(capsys):
    assert cli.main(["verify", "--seed", "-1"]) == cli.EXIT_ERROR
    assert _one_error_line(capsys) == "error: seed must be >= 0, got -1\n"


def test_verify_flags_a_broken_branch_tracker(monkeypatch, capsys):
    # The equivalence suite runs the engines through their run loop, so a
    # tracker that reports a wrong amplitude must fail it.
    from qrelax import branch

    extend = branch._BranchTracker.extend

    def scaled(self, *records):
        amplitudes, probabilities, fidelities = extend(self, *records)
        return [amplitude * (1 + 1e-6) for amplitude in amplitudes], probabilities, fidelities

    monkeypatch.setattr(branch._BranchTracker, "extend", scaled)
    rc = cli.main(["verify", "--trials", "50", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_ERROR
    assert "FAIL equivalence: trial 0" in out and "all suites passed" not in out


def test_verify_flags_broken_constructor(monkeypatch, capsys):
    import numpy as np

    from qrelax import encodings

    def corrupted(a, lam):
        built = encodings.row_unitary(a, lam)
        bad = np.array(built.matrix)
        bad[0, 0] += 1e-6
        return encodings.BlockUnitary(bad, built.block_size, built.grid, built.label)

    monkeypatch.setattr(cli, "row_unitary", corrupted)
    rc = cli.main(["verify", "--trials", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_ERROR
    assert "FAIL unitarity" in out and "trial" in out


def test_verify_flags_non_symmetric_state_prep(monkeypatch, capsys):
    from qrelax import encodings

    def rotated(c, t):
        # Orthogonal, but not a reflection: a cyclic shift of the rows.
        built = encodings.state_prep_col(c, t)
        return encodings.BlockUnitary(
            np.roll(built.matrix, 1, axis=0), built.block_size, built.grid, built.label
        )

    monkeypatch.setattr(cli, "state_prep_col", rotated)
    rc = cli.main(["verify", "--trials", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_ERROR
    assert "FAIL unitarity" in out and encodings.LABEL_COLUMN_PREP in out


def test_sweep_emits_csv_rows(tmp_path, capsys):
    out_prefix = str(tmp_path / "sweep")
    rc = cli.main([
        "sweep", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "branch-row", "--x0", "1,0", "--steps", "60",
        "--grid", "0.25,0.5,0.75,1.0", "--out", out_prefix,
    ])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "relaxation,status,steps,final_residual,final_success_probability"
    assert len(lines) == 5
    grid_read = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert grid_read == [0.25, 0.5, 0.75, 1.0]  # merged in grid order
    for ln in lines[1:]:
        assert ln.split(",")[1] in ("converged", "max-steps")


def test_sweep_labels_keep_distinct_values_apart(capsys):
    # %g keeps six significant digits: 0.1234561 and 0.1234562 would both
    # print as 0.123456, and 1.0000001 as 1
    grid = [0.1234561, 0.1234562, 1.0000001, 0.5, 1.0]
    rc = cli.main([
        "sweep", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "classical-row", "--x0", "1,0", "--steps", "5",
        "--grid", ",".join(map(repr, grid)),
    ])
    assert rc == cli.EXIT_OK
    labels = [ln.split(",")[0] for ln in capsys.readouterr().out.strip().split("\n")[1:]]
    assert labels == ["0.1234561", "0.1234562", "1.0000001", "0.5", "1"]
    assert [float(label) for label in labels] == grid


def test_sweep_single_point_matches_solve(tmp_path, capsys):
    rc = cli.main([
        "sweep", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "classical-row", "--x0", "1,0", "--steps", "40",
        "--grid", "1.0",
    ])
    sweep_out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    rc = cli.main([
        "solve", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "classical-row", "--x0", "1,0", "--steps", "40",
        "--schedule", "constant:1.0",
    ])
    solve_out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    # the single sweep row carries the same terminal data as the solve summary
    row = sweep_out.strip().split("\n")[-1].split(",")
    assert f"steps: {row[2]}" in solve_out
    assert row[1] in solve_out


def test_sweep_domain_error_exits_one(capsys):
    rc = cli.main([
        "sweep", "--system", ROW_INLINE, "--format", "inline",
        "--mode", "branch-row", "--x0", "1,0",
        "--grid", "0.5,1.5",
    ])
    assert rc == cli.EXIT_ERROR
    assert "domain" in capsys.readouterr().err


def test_record_schema_is_stable(tmp_path):
    out_prefix = str(tmp_path / "r")
    cli.main([
        "solve", f"--system={COLUMN_INLINE}", "--format", "inline",
        "--mode", "branch-column", "--x0", "0,1",
        "--schedule", "seq:0.5,1.0", "--strategy", "seq:1,1",
        "--steps", "2", "--out", out_prefix,
    ])
    lines = (tmp_path / "r.jsonl").read_text().strip().split("\n")
    for line in lines[1:]:
        record = json.loads(line)
        assert tuple(record.keys()) == RECORD_FIELDS
        assert record["success_probability"] is not None


NON_FINITE = {
    "nan-matrix": ["--system", "1,nan; 0,1 | 1,0"],
    "inf-rhs": ["--system", "1,0; 0,1 | 1,inf"],
    **{f"nan-x0-{mode}": ["--system", "1,0; 0,1 | 1,0", "--x0", "nan,0", "--mode", mode]
       for mode in cli.MODES},
}


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_solve_non_finite_input_exits_one(argv, capsys):
    rc = cli.main(["solve", "--format", "inline", *argv])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def test_solve_matrixmarket_bad_size_line_exits_one(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n2 x\n1\n0\n0\n1\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    rc = cli.main([
        "solve", "--system", str(mtx), "--format", "matrixmarket", "--rhs", str(rhs),
    ])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err


def test_solve_overflowing_iterate_exits_one(capsys):
    # The run's own numpy overflow warnings must not reach the user.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            "solve", "--system", "1,0; 0,1 | 1.5e308,0", "--format", "inline",
            "--mode", "classical-row", "--x0", "e2", "--schedule", "constant:2",
            "--strategy", "cyclic", "--steps", "4",
        ])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "non-finite at step k=1" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["sim-row", "sim-column", "branch-column"])
def test_solve_non_unit_x0_names_the_flag(mode, capsys):
    rc = cli.main([
        "solve", "--system", "1,0; 0,1 | 1,0", "--format", "inline",
        "--mode", mode, "--x0", "2,0", "--steps", "2",
    ])
    assert rc == cli.EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: --x0 in {mode} mode needs a unit vector, got norm 2.0; normalize it\n"
    )


# From x0 = e1, ||r0|| is 1e-310 (1/||r0|| overflows to inf) and inf
# (1/||r0|| is 0): no residual embedding delta exists for either.
EXTREME_RESIDUAL = {"subnormal": ("1,0;0,1|1,1e-310", "1e-310"),
                    "overflowing": ("1,0;0,1|1.5e308,1.5e308", "inf")}


@pytest.mark.parametrize("mode", ["branch-column", "sim-column", "classical-column"])
@pytest.mark.parametrize("system, r0_norm", EXTREME_RESIDUAL.values(),
                         ids=EXTREME_RESIDUAL.keys())
def test_solve_extreme_initial_residual(mode, system, r0_norm, capsys):
    rc = cli.main([
        "solve", "--system", system, "--format", "inline", "--mode", mode,
        "--x0", "e1", "--steps", "3", "--tol", "0",
    ])
    if mode == "classical-column":
        # The classical engine embeds nothing and solves the system.
        assert rc == cli.EXIT_OK
        assert "status: converged  steps: 2" in capsys.readouterr().out
        return
    assert rc == cli.EXIT_ERROR
    assert f"||b - A x0|| = {r0_norm} cannot be embedded" in _one_error_line(capsys)


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--grid", "0.5,1.0"]])
def test_closed_stdout_exits_quietly(command):
    # The read end closes before the child writes, so its first write to
    # stdout fails with EPIPE, whatever the size of the output.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "qrelax.cli", *command, "--system", ROW_INLINE,
         "--format", "inline", "--x0", "1,0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.path.normpath(src)},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (cli.EXIT_ERROR, b"")


def test_random_runs_do_not_import_numpy_random():
    # The random rule is qrelax's own copy of numpy's draw; numpy.random
    # is only its test oracle.
    src = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        os.pardir, "src"))
    script = "\n".join([
        "import io, sys, contextlib",
        "from qrelax import cli",
        "loaded = 'numpy.random' in sys.modules",
        "args = ['--system', sys.argv[1], '--format', 'inline', '--strategy', 'random',",
        "        '--seed', '5', '--x0', '1,0']",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['solve', '--mode', 'classical-row', *args]),",
        "             cli.main(['sweep', '--grid', '0.5,1.0', *args])]",
        "print(loaded, codes, 'numpy.random' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script, ROW_INLINE], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.stderr == ""
    if proc.stdout.startswith("True"):
        pytest.skip("importing numpy loads numpy.random (numpy < 2)")
    assert proc.stdout == "False [0, 0] False\n"


BAD_RUN_FLAGS = {
    "random-negative-seed": ["--strategy", "random", "--seed", "-1"],
    "tol-nan": ["--tol", "nan"],
    "tol-negative": ["--tol", "-1"],
    "tol-inf": ["--tol", "inf"],
    "mem-limit-zero": ["--mem-limit", "0"],
    "mem-limit-negative": ["--mem-limit", "-5", "--mode", "sim-row"],
}


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--grid", "0.5,1.0"]])
@pytest.mark.parametrize("argv", BAD_RUN_FLAGS.values(), ids=BAD_RUN_FLAGS.keys())
def test_bad_run_flag_exits_one_with_one_error_line(command, argv, capsys):
    rc = cli.main([*command, "--system", ROW_INLINE, "--format", "inline", "--x0", "1,0", *argv])
    assert rc == cli.EXIT_ERROR
    _one_error_line(capsys)


def test_run_config_rejects_a_mem_limit_below_one_byte():
    with pytest.raises(UsageError, match="mem-limit must be > 0 bytes, got 0"):
        cli.RunConfig(system_source="s.csv", mem_limit=0)
    assert cli.RunConfig(system_source="s.csv", mem_limit=1).mem_limit == 1
