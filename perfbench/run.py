"""qrelax benchmark: seeded solve workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-n50 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35     # every workload
    python3 perfbench/run.py --smoke                         # tiny sizes, both modes

Run from anywhere; the package is imported from ``src/`` next to this
directory. Each workload runs in its own child process (``worker.py``),
so peak RSS is that child's alone; ``setup_s`` is the median of several
fresh set-up children. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Solve time at the highest nearest-rank percentile that leaves at least
    ten samples beyond it: (value, percentile, samples beyond).

    Below 21 samples no such percentile lies above the median; the rank
    just above the middle is used and the shortfall shows in the
    reported count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args, "--root", ROOT],
        stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args[0]} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """One workload run; returns (result object, human-readable lines)."""
    workload = WORKLOADS[name](tiny, seed)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(HERE, "_work"))
    try:
        manifest = {
            "workload": name, "seed": seed, "tiny": tiny,
            "systems": workload.generate(workdir),
        }
        with open(os.path.join(workdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        setups = []
        if not trace:
            # One untimed set-up first, so the timed ones all read the
            # package and the inputs from a warm page cache.
            _child(["setup", "--dir", workdir])
            setups = [_child(["setup", "--dir", workdir])["setup_s"]
                      for _ in range(SETUP_REPEATS)]
        child = _child(["run", "--dir", workdir, "--seconds", str(seconds),
                        "--trace", str(trace)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _report(name, seed, trace, setups, child)


def _steps_per_s(phase: dict) -> float:
    busy = sum(phase["samples"])
    return phase["steps"] / busy if busy else 0.0


def _report(name, seed, trace, setups, child):
    phases = [child["untraced"]] + ([child["traced"]] if trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    untraced = child["untraced"]
    samples = untraced["samples"]
    largest = max(p["largest_array_bytes"] for p in phases)
    machine = dict(child["machine"], largest_array_bytes=largest)
    lines = [
        f"workload {name}  seed {seed}  trace {trace}  passes {untraced['passes']}",
        "machine " + json.dumps(machine),
    ]
    if not samples:
        raise BenchError(f"{name}: no solve completed ({failures[:3]})")
    if trace:
        metrics = layers.metrics(
            child["spans"], child["counters"], child["peak_rss_bytes"],
            _steps_per_s(untraced), _steps_per_s(child["traced"]),
        )
        predicted, p_s, found, f_s = layers.largest_self_time(name, child["spans"])
        verdict = "match" if found == predicted else "MISMATCH"
        lines.append(f"largest solve self time: predicted {predicted} ({p_s:.4g} s), "
                     f"found {found} ({f_s:.4g} s): {verdict}")
        for span in child["absent"]:
            lines.append(f"absent (reads 0): {span}")
        lines.append("statevector.bytes_out is computed from array sizes, not measured")
    else:
        tail_s, tail_p, beyond = tail(samples)
        metrics = {
            "solve_s_p50": (statistics.median(samples), "s"),
            "solve_s_tail": (tail_s, "s"),
            "steps_per_s": (_steps_per_s(untraced), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (child["peak_rss_bytes"] / 2**20, "MiB"),
        }
        lines.append(f"solve_s_tail is p{tail_p:.1f} of {len(samples)} solves "
                     f"({beyond} beyond); setup_s is the median of {len(setups)} set-ups")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<{width}}  {value:.6g} {unit}")
    lines.append(f"  {'fail_ratio':<{width}}  {len(failures) / attempted:.6g} ratio "
                 f"({len(failures)} of {attempted} solves failed)")
    lines.extend(f"  FAILED {f}" for f in failures[:10])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "qrelax", "__init__.py")):
        raise BenchError(f"no qrelax sources under {os.path.join(ROOT, 'src')}")


def smoke() -> int:
    """Every workload at tiny size in both modes: every declared metric is
    printed with a unit, and no solve fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_workload(name, seed=0, seconds=1.0, trace=trace, tiny=True)
            print("\n".join(lines))
            for metric in declared[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or not got.get("unit"):
                    problems.append(f"{name} trace {trace}: {metric['name']} missing")
            extra = set(result["metrics"]) - {m["name"] for m in declared[key]}
            problems.extend(f"{name} trace {trace}: {m} not declared" for m in sorted(extra))
            if result["failed"]:
                problems.append(f"{name} trace {trace}: fail_ratio is not 0")
    print("\n".join(problems) or "smoke: every metric printed with a unit, fail_ratio 0")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, both modes")
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        if args.smoke:
            return smoke()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
