"""Write the record streams of a fixed set of CLI runs, for byte comparison.

Run it once per source tree and compare the two directories::

    PYTHONPATH=<old tree>/src python tests/record_streams.py streams_old
    PYTHONPATH=<new tree>/src python tests/record_streams.py streams_new
    diff -r -x _inputs streams_old streams_new

A change that keeps every record bit for bit prints nothing. Each run
leaves ``<label>.jsonl`` and ``<label>.summary.txt`` (or ``<label>.csv``
for a sweep) plus ``<label>.stdout``, which holds the printed output and
the exit code. The runs are:

- both worked examples in all six modes, replayed with seq strategies
  and schedules;
- 12 seeded small systems (n 2-4) x {cyclic, random, greedy} x
  {constant:0.5, constant:1.0, decaying:0.9} x all six modes;
- systems with n in {40, 300} x {cyclic, random, greedy, seq} x
  {constant:0.5, constant:1.0} in the classical and branch modes, so
  column-mode greedy runs (which read A^T r) sit beside column-mode
  random and cyclic runs (which do not) at a size where that matters;
- three sweeps on a small system, and an 8-value random row sweep on a
  seeded 50x50 system with singular values from 1 to 1/1.5, whose lanes
  leave the run inside chunks of many steps.

Streams are compared bit for bit only between runs on one numpy and
OpenBLAS build with one BLAS thread count: a 1002x1002 gemv, say, can
round differently with one BLAS thread than with two. Run both trees on
one host with the same ``OPENBLAS_NUM_THREADS``.
"""

import contextlib
import io
import os
import sys

import numpy as np

from qrelax import cli, worked_examples

MODES = ("classical-row", "classical-column", "branch-row", "branch-column", "sim-row", "sim-column")
LARGE_MODES = ("classical-row", "classical-column", "branch-row", "branch-column")


def _write_csv(path, a, b):
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
        fh.write(",".join(repr(float(v)) for v in b) + "\n")


def _x0_text(x0):
    return ",".join(repr(float(v)) for v in x0)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _run(out, label, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv + ["--out", os.path.join(out, label)])
    with open(os.path.join(out, label + ".stdout"), "w") as fh:
        fh.write(buffer.getvalue() + f"exit {code}\n")


def main(out):
    inputs = os.path.join(out, "_inputs")
    os.makedirs(inputs, exist_ok=True)
    count = 0

    for name, example in (("row", worked_examples.row_example),
                          ("column", worked_examples.column_example)):
        system, x0, steps = example()
        path = os.path.join(inputs, f"example_{name}.csv")
        _write_csv(path, system.matrix, system.rhs)
        strategy = "seq:" + ",".join(str(t) for t, _ in steps)
        schedule = "seq:" + ",".join(repr(v) for _, v in steps)
        for mode in MODES:
            _run(out, f"example_{name}_{mode}", [
                "solve", "--system", path, "--mode", mode, f"--x0={_x0_text(x0)}",
                "--strategy", strategy, "--schedule", schedule, "--steps", "2",
            ])
            count += 1

    rng = np.random.default_rng(424242)
    for i in range(12):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        b = a @ rng.normal(size=n)
        path = os.path.join(inputs, f"small{i}.csv")
        _write_csv(path, a, b)
        x0 = "e1" if i % 2 == 0 else _x0_text(_unit(rng, n))
        for strategy in ("cyclic", "random", "greedy"):
            for schedule in ("constant:0.5", "constant:1.0", "decaying:0.9"):
                for mode in MODES:
                    steps = "5" if mode.startswith("sim") else "150"
                    _run(out, f"small{i}_{mode}_{strategy}_{schedule}", [
                        "solve", "--system", path, "--mode", mode, f"--x0={x0}",
                        "--strategy", strategy, "--schedule", schedule, "--steps", steps,
                        "--tol", "1e-8", "--seed", str(i),
                    ])
                    count += 1

    for n, steps in ((40, 400), (300, 150)):
        a = rng.normal(size=(n, n))
        b = a @ rng.normal(size=n)
        path = os.path.join(inputs, f"large{n}.csv")
        _write_csv(path, a, b)
        seq = "seq:" + ",".join(str(int(t)) for t in rng.integers(1, n + 1, size=steps))
        x0 = _x0_text(_unit(rng, n))
        for strategy in ("cyclic", "random", "greedy", seq):
            tag = "seq" if strategy.startswith("seq") else strategy
            for schedule in ("constant:0.5", "constant:1.0"):
                for mode in LARGE_MODES:
                    _run(out, f"large{n}_{mode}_{tag}_{schedule}", [
                        "solve", "--system", path, "--mode", mode, f"--x0={x0}",
                        "--strategy", strategy, "--schedule", schedule,
                        "--steps", str(steps), "--tol", "0", "--seed", str(n),
                    ])
                    count += 1

    small = os.path.join(inputs, "small0.csv")
    for mode, strategy, grid in (("classical-row", "random", "0.25,0.5,1.0,1.5"),
                                 ("classical-column", "greedy", "0.5,1.0,1.9"),
                                 ("branch-column", "cyclic", "0.3,0.6,0.9")):
        _run(out, f"sweep_{mode}_{strategy}", [
            "sweep", "--system", small, "--mode", mode, "--strategy", strategy,
            "--grid", grid, "--steps", "200", "--tol", "1e-8",
        ])
        count += 1

    rng = np.random.default_rng(1500)
    q1, _ = np.linalg.qr(rng.normal(size=(50, 50)))
    q2, _ = np.linalg.qr(rng.normal(size=(50, 50)))
    a = q1 @ np.diag(np.geomspace(1.0, 1.0 / 1.5, 50)) @ q2.T
    path = os.path.join(inputs, "cond1.5_50.csv")
    _write_csv(path, a, a @ rng.normal(size=50))
    _run(out, "sweep_cond1.5_50_classical-row_random", [
        "sweep", "--system", path, "--mode", "classical-row", "--strategy", "random",
        "--grid", "0.6,0.8,1.0,1.2,1.3,1.4,1.6,1.8", "--steps", "200000", "--tol", "1e-3",
        "--seed", "3",
    ])
    count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/record_streams.py OUTDIR")
    print(f"{main(sys.argv[1])} runs written to {sys.argv[1]}")
