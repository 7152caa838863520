"""Child process of the benchmark: one set-up timing, or one workload run.

    python3 perfbench/worker.py setup --root ROOT --dir WORKDIR
    python3 perfbench/worker.py run --root ROOT --dir WORKDIR --seconds S --trace 0|1

Both read ``WORKDIR/manifest.json`` written by ``run.py`` and print one
JSON object as the last line of standard output. Only the standard
library is imported before the set-up clock starts, so ``setup_s``
includes importing qrelax (and with it numpy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from types import SimpleNamespace


def import_qrelax(root: str):
    """Import the package from ROOT/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qrelax  # noqa: F401  (registers the submodules below)
    import qrelax.cli

    if not os.path.abspath(qrelax.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qrelax imported from {qrelax.__file__}, not from {src}")
    names = ("branch", "classical", "cli", "encodings", "loaders", "report",
             "schedules", "statevector", "system")
    return SimpleNamespace(**{name: sys.modules[f"qrelax.{name}"] for name in names})


def load_inputs(q, manifest: dict, workdir: str) -> list[dict]:
    """load_system plus the normalizations each input needs."""
    systems = []
    for entry in manifest["systems"]:
        path = os.path.join(workdir, entry["file"])
        raw = q.loaders.load_system(path, "csv")
        loaded = {"path": path, "raw": raw}
        if "rows" in entry["normalize"]:
            loaded["rows"] = q.system.normalize_rows(raw)
        if "columns" in entry["normalize"]:
            loaded["columns"] = q.system.normalize_columns(raw)
        systems.append(loaded)
    return systems


def peak_rss_bytes() -> int:
    """This process's own high-water RSS (VmHWM, reset by exec)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def machine_info() -> dict:
    import platform

    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # numpy builds differ in what show_config reports
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": min(_blas_threads() or nproc, nproc),
        "llc": _llc_size(),
    }


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes when it is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _llc_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        for index in os.listdir(base):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            best = max(best, (level, f"L{level} {size}"))
    except OSError:
        pass
    return best[1]


def cmd_setup(args) -> dict:
    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    started = time.perf_counter()
    q = import_qrelax(args.root)
    load_inputs(q, manifest, args.dir)
    return {"setup_s": time.perf_counter() - started}


def measure(workload, q, systems, tracer=None, seconds=None, passes=None) -> dict:
    """Run whole passes of jobs; solves are timed, checks are not.

    With ``seconds``, a new pass starts only while the run is expected to
    end near the deadline; with ``passes``, exactly that many run.
    """
    samples, failures = [], []
    steps = attempted = largest = 0
    started = time.perf_counter()
    last_pass = 0.0
    p = 0
    while True:
        if passes is not None and p >= passes:
            break
        if seconds is not None and p > 0:
            if time.perf_counter() - started + 0.5 * last_pass >= seconds:
                break
        pass_started = time.perf_counter()
        for job in workload.jobs(q, systems, p):
            attempted += 1
            if tracer is not None:
                tracer.enabled = True
            try:
                t0 = time.perf_counter()
                result = job.run()
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # a solve that raises counts as failed
                failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            samples.append(elapsed)
            try:
                steps += job.steps(result)
                largest = max(largest, workload.largest_array_bytes(systems, result))
                job.check(result)
            except Exception as exc:  # CheckFailed, or a malformed result
                failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            # Free the output (a state vector can be 512 MiB) before the next
            # solve, so the harness adds nothing to the program's peak RSS.
            del result
        last_pass = time.perf_counter() - pass_started
        p += 1
    return {
        "samples": samples,
        "steps": steps,
        "attempted": attempted,
        "failures": failures,
        "passes": p,
        "largest_array_bytes": largest,
    }


def cmd_run(args) -> dict:
    from workloads import WORKLOADS

    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    q = import_qrelax(args.root)
    workload = WORKLOADS[manifest["workload"]](manifest["tiny"], manifest["seed"])
    systems = load_inputs(q, manifest, args.dir)
    workload.warmup(q, systems)

    seconds = args.seconds / 2 if args.trace else args.seconds
    out = {"untraced": measure(workload, q, systems, seconds=seconds)}
    if args.trace:
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
        tracer.enabled = True
        load_inputs(q, manifest, args.dir)
        tracer.enabled = False
        out["traced"] = measure(
            workload, q, systems, tracer=tracer, passes=workload.trace_passes
        )
        tracer.uninstall()
        out["spans"] = tracer.summary()
        out["counters"] = tracer.counters
        out["absent"] = tracer.absent
    out["peak_rss_bytes"] = peak_rss_bytes()
    out["machine"] = machine_info()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.phase == "setup" else cmd_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
