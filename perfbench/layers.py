"""What the traced run wraps, and how its spans become per-layer metrics.

A layer is a qrelax module. Each target names the span it records, the
module and attribute it patches, and an optional observer that counts
work from the call's arguments and result. Private helpers are wrapped
when present; a refactor that removes one makes the tracer list it as
absent, and its metrics read 0.
"""

from __future__ import annotations


def _count_steps(tracer, args, report):
    tracer.add("classical.steps", report.steps_taken)


def _vector_out(tracer, vec) -> None:
    tracer.add("statevector.bytes_out", vec.nbytes)
    tracer.maximum("statevector.largest_bytes", vec.nbytes)


def _swap(tracer, args, out):
    vec, i, j = args[0], args[3], args[4]
    if i == j:  # returned unchanged, nothing moved
        return
    import numpy as np

    tracer.add("statevector.swap_moved", vec.size)
    tracer.add("statevector.swap_nonzero", int(np.count_nonzero(vec)))
    _vector_out(tracer, out)


def _array_out(tracer, args, out):
    _vector_out(tracer, out)


def _state_out(tracer, args, state):
    _vector_out(tracer, state.vec)


def _lane(tracer, args, result):
    report, _ = result
    tracer.add("cli.lanes", 1)
    tracer.add("cli.lanes_converged", report.status == "converged")


_BUILDERS = ("row_unitary", "column_residual_unitary", "column_update_unitary", "givens",
             "state_prep_row", "state_prep_col")

# (span name, qrelax module, attribute, observer)
TARGETS = [
    ("schedules.select_index", "schedules", "select_index", None),
    ("schedules.relaxation_at", "schedules", "relaxation_at", None),
    ("report.record", "classical", "_record", None),
    ("report.record", "branch", "_branch_record", None),
    ("report.record", "statevector", "_sim_record", None),
    ("classical.step", "classical", "kaczmarz_step", None),
    ("classical.step", "classical", "column_step", None),
    ("classical.run", "classical", "run_classical", _count_steps),
    ("classical.exact_solution", "classical", "exact_solution", None),
    ("system.residual", "system", "LinearSystem.residual", None),
    ("system.normalize", "system", "normalize_rows", None),
    ("system.normalize", "system", "normalize_columns", None),
    ("loaders.load_system", "loaders", "load_system", None),
    ("branch.step", "branch", "row_branch_step", None),
    ("branch.step", "branch", "column_branch_step", None),
    ("branch.run", "branch", "run_branch", None),
    *[("encodings.build", "encodings", name, None) for name in _BUILDERS],
    ("statevector.swap", "statevector", "_swap_qubits", _swap),
    ("statevector.tail_op", "statevector", "_apply_tail_operator", _array_out),
    ("statevector.pad", "statevector", "_prepend_zero_qubits", _array_out),
    ("statevector.prepare_Y", "statevector", "prepare_Y", _state_out),
    ("statevector.norm_check", "statevector", "assert_normalized", None),
    ("statevector.iteration", "statevector", "apply_row_iteration", None),
    ("statevector.iteration", "statevector", "apply_column_iteration", None),
    ("statevector.run", "statevector", "run_algorithm1", None),
    ("statevector.run", "statevector", "run_algorithm2", None),
    ("cli.sweep", "cli", "cmd_sweep", None),
    ("cli.execute", "cli", "_execute", _lane),
]

# Per workload, the spans predicted to hold the largest self time.
PREDICTED = {
    "kaczmarz-n50": ("schedules.select_index", "schedules.relaxation_at", "report.record"),
    "branch-n1000": ("system.residual",),
    "statevector-n8": ("statevector.swap",),
    "sweep-n50": ("cli.sweep", "cli.execute"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(spans: dict, counters: dict, peak_rss: int, sps_untraced: float,
            sps_traced: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""

    def calls(span):
        return float(spans.get(span, {}).get("calls", 0))

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def total_s(span):
        return spans.get(span, {}).get("total_s", 0.0)

    c = counters.get
    out = {}
    for span in ("schedules.select_index", "report.record", "classical.step",
                 "system.residual", "branch.step", "classical.exact_solution",
                 "loaders.load_system", "encodings.build"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.self_s"] = (self_s(span), "s")
    for span in ("schedules.relaxation_at", "classical.run", "branch.run", "system.normalize",
                 "statevector.swap", "statevector.tail_op", "statevector.pad",
                 "statevector.prepare_Y", "statevector.norm_check", "statevector.iteration",
                 "statevector.run"):
        out[f"{span}.self_s"] = (self_s(span), "s")
    out["classical.steps"] = (float(c("classical.steps", 0)), "count")
    out["statevector.bytes_out"] = (float(c("statevector.bytes_out", 0)), "bytes")
    out["statevector.swap_nonzero_ratio"] = (
        _ratio(c("statevector.swap_nonzero", 0), c("statevector.swap_moved", 0)), "ratio")
    out["statevector.peak_ratio"] = (_ratio(peak_rss, c("statevector.largest_bytes", 0)), "ratio")
    out["cli.execute.calls"] = (calls("cli.execute"), "count")
    out["cli.execute.busy_s"] = (total_s("cli.execute"), "s")
    out["cli.sweep.wall_s"] = (total_s("cli.sweep"), "s")
    out["cli.lane_overlap"] = (_ratio(total_s("cli.execute"), total_s("cli.sweep")), "ratio")
    out["cli.lanes_converged_ratio"] = (
        _ratio(c("cli.lanes_converged", 0), c("cli.lanes", 0)), "ratio")
    out["trace.overhead"] = (_ratio(sps_traced, sps_untraced), "ratio")
    return out


# Spans of the traced set-up; they feed setup_s, not solve time.
SETUP_SPANS = ("loaders.load_system", "system.normalize")


def largest_self_time(workload: str, spans: dict):
    """(predicted label, its self time, found label, its self time), ranked
    over the solve spans: the predicted group against every other span."""
    group = PREDICTED[workload]
    ranked = {" + ".join(group): sum(spans.get(s, {}).get("self_s", 0.0) for s in group)}
    for span, entry in spans.items():
        if span not in group and span not in SETUP_SPANS:
            ranked[span] = entry["self_s"]
    found = max(ranked, key=ranked.get)
    predicted = " + ".join(group)
    return predicted, ranked[predicted], found, ranked[found]
