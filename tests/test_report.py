import dataclasses
import json

import pytest

from qrelax.errors import UsageError
from qrelax.report import RECORD_FIELDS, RunReport, StepRecord


def make_record(k, **overrides):
    fields = dict(k=k, t=None, relaxation=None, x_norm=1.0, residual_norm=0.5)
    fields.update(overrides)
    return StepRecord(**fields)


def test_records_append_in_step_order():
    report = RunReport()
    report.extend(0, [None], [None], [1.0], [0.5])
    report.extend(1, [2], [0.5], [1.0], [0.5])
    assert report.records == [make_record(0), make_record(1, t=2, relaxation=0.5)]
    assert report.steps_taken == 1
    assert report.final.t == 2


def test_out_of_order_append_rejected():
    report = RunReport()
    report.extend(0, [None], [None], [1.0], [0.5])
    with pytest.raises(UsageError):
        report.extend(2, [1], [1.0], [1.0], [0.5])
    with pytest.raises(UsageError):
        report.extend(0, [None], [None], [1.0], [0.5])
    assert report.records == [make_record(0)]


def test_empty_report_has_no_final():
    with pytest.raises(UsageError):
        RunReport().final


def test_record_dict_key_order_is_stable():
    record = make_record(0, amplitude=0.5, success_probability=0.25)
    assert tuple(record.to_dict().keys()) == RECORD_FIELDS


def test_jsonl_key_order_is_pinned():
    # RECORD_FIELDS is derived from StepRecord, so a reordered or renamed
    # field would change the public jsonl schema; this literal catches it.
    keys = (
        "k", "t", "relaxation", "x_norm", "residual_norm",
        "error_norm", "amplitude", "success_probability", "fidelity",
    )
    assert RECORD_FIELDS == keys
    report = RunReport()
    report.extend(0, [None], [None], [1.0], [0.5])
    assert tuple(json.loads(next(report.json_lines()))) == keys


def test_json_lines_round_trip():
    report = RunReport()
    report.extend(0, [None, 1], [None, 1.0], [1.0, 1.0], [0.5, 0.5], [None, 0.1])
    lines = list(report.json_lines())
    assert len(lines) == 2
    parsed = json.loads(lines[1])
    assert parsed["k"] == 1 and parsed["error_norm"] == 0.1
    assert [json.loads(line) for line in lines] == [record.to_dict() for record in report.records]


def test_step_record_is_frozen_and_compact():
    record = make_record(3, t=2, relaxation=0.5, error_norm=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.x_norm = 2.0
    assert not hasattr(record, "__dict__")
    assert record.to_dict() == {
        "k": 3, "t": 2, "relaxation": 0.5, "x_norm": 1.0, "residual_norm": 0.5,
        "error_norm": 0.1, "amplitude": None, "success_probability": None, "fidelity": None,
    }
    assert record == make_record(3, t=2, relaxation=0.5, error_norm=0.1)
    assert record != make_record(3, t=2, relaxation=0.5, error_norm=0.2)


def test_extend_appends_the_records_of_its_columns():
    report = RunReport()
    report.extend(0, [None, 2], [None, 0.5], [1.0, 0.8], [0.5, 0.25])
    report.extend(2, [1], [0.5], [0.7], [0.2], [0.1], [0.3], [0.09], [1.0])
    assert report.records == [
        make_record(0, x_norm=1.0, residual_norm=0.5),
        make_record(1, t=2, relaxation=0.5, x_norm=0.8, residual_norm=0.25),
        StepRecord(2, 1, 0.5, 0.7, 0.2, 0.1, 0.3, 0.09, 1.0),
    ]
    with pytest.raises(UsageError):
        report.extend(4, [1], [0.5], [0.7], [0.2])
