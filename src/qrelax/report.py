"""Per-step run records shared by the classical and simulated engines."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import count

from .errors import UsageError

CONVERGED = "converged"
MAX_STEPS = "max-steps"


@dataclass(frozen=True, slots=True)
class StepRecord:
    """State of the iterate after step k.

    ``t`` and ``relaxation`` are the selection that produced x_k (None at
    k=0). Amplitude, success probability and fidelity are filled only by
    the simulators.
    """

    k: int
    t: int | None
    relaxation: float | None
    x_norm: float
    residual_norm: float
    error_norm: float | None = None
    amplitude: float | None = None
    success_probability: float | None = None
    fidelity: float | None = None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RECORD_FIELDS}


# The jsonl key order is StepRecord's field order.
RECORD_FIELDS = tuple(f.name for f in fields(StepRecord))


@dataclass
class RunReport:
    """Append-only record stream plus terminal status.

    ``final_x`` holds the terminal iterate so callers can de-normalize
    and display the solution without re-running.
    """

    records: list[StepRecord] = field(default_factory=list)
    status: str = MAX_STEPS
    final_x: object = None  # np.ndarray | None

    def extend(self, first: int, *columns) -> None:
        """Append records first, first + 1, ..., one per entry of the
        columns: the fields after ``k`` in RECORD_FIELDS order, as
        sequences of one length. Fields past the last column are None."""
        if first != len(self.records):
            raise UsageError(
                f"records must be appended in step order; got k={first}, "
                f"expected {len(self.records)}"
            )
        self.records.extend(map(StepRecord, count(first), *columns))

    @property
    def final(self) -> StepRecord:
        if not self.records:
            raise UsageError("report has no records")
        return self.records[-1]

    @property
    def steps_taken(self) -> int:
        return self.final.k

    def json_lines(self):
        for record in self.records:
            yield json.dumps(record.to_dict())
