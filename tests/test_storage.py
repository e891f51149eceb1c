"""JSONL reading: the line decoder against per-line `json.loads`; history records; typed values."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcopilot.errors import ValidationError
from expcopilot.core import DEFAULT_LEVELS, ParameterDef, SolutionSpace, Task
from expcopilot.storage import (
    load_discretizers, load_history, load_knowledge, load_space, load_tasks, read_jsonl,
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Python whitespace that JSON does not accept, and a BOM, which is neither.
_PAD = st.text(st.sampled_from(" \t\x0b\x0c\xa0\u2003\ufeff"), max_size=3)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


def _line(kind, value, pad_left, pad_right, garbage):
    if kind == "blank":
        return pad_left
    if kind == "garbage":
        return garbage
    text = json.dumps(value)
    if kind == "trailing":
        text += pad_right + garbage
    return pad_left + text + pad_right


_LINES = st.lists(
    st.builds(
        _line,
        st.sampled_from(["value", "value", "blank", "garbage", "trailing"]),
        _JSON, _PAD, _PAD,
        st.one_of(_TEXT, _JSON.map(json.dumps), st.sampled_from(["]", "}", ",", "x", "1"])),
    ),
    max_size=6,
)


def reference_read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in (raw.strip() for raw in fh) if line]


@given(lines=_LINES)
@settings(max_examples=500, deadline=None)
def test_read_jsonl_decodes_like_json_loads(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        expected = reference_read_jsonl(path)
    except json.JSONDecodeError:
        with pytest.raises(ValidationError, match="records.jsonl:"):
            read_jsonl(path)
        return
    # Compared as JSON text, so NaN equals NaN and 1 differs from 1.0.
    assert json.dumps(read_jsonl(path)) == json.dumps(expected)


def test_read_jsonl_of_a_file_that_is_not_utf8_names_it(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"name": "café"}\n'.encode("latin-1"))
    with pytest.raises(ValidationError, match="latin1.jsonl: not UTF-8"):
        read_jsonl(path)


SPACE = SolutionSpace("s", "a space.", (ParameterDef("x", "numeric", numeric_range=(-1.0, 1.0)),))
TASKS = {tid: Task(tid, "s", f"task {tid}") for tid in ("a", "b")}


def test_history_shares_solutions_but_keeps_signed_zeros(tmp_path):
    path = tmp_path / "h.jsonl"
    values = [-0.0, 0.0, 0.5, 0.5]
    path.write_text("".join(
        json.dumps({"task_id": tid, "values": {"x": x}, "metric": 0.1}) + "\n"
        for tid, x in zip("abab", values)
    ))
    records = load_history([path], TASKS, SPACE)
    assert [math.copysign(1.0, r.solution.values["x"]) for r in records] == [-1.0, 1.0, 1.0, 1.0]
    assert records[0].solution is not records[1].solution
    assert records[2].solution is records[3].solution


@pytest.mark.parametrize("metric", ["0.1", True])
def test_history_metric_that_is_not_a_json_number_names_its_line(tmp_path, metric):
    path = tmp_path / "h.jsonl"
    path.write_text("".join(
        json.dumps({"task_id": "a", "values": {"x": 0.5}, "metric": m}) + "\n" for m in (0.1, metric)
    ))
    with pytest.raises(ValidationError, match=f"{path}:2: malformed record.*is not a number"):
        load_history([path], TASKS, SPACE)


def test_history_bad_row_after_a_good_lookalike_names_its_line(tmp_path):
    path = tmp_path / "h.jsonl"
    rows = [{"x": 0.5}, {"x": 0.5}, {"x": 0.5, "y": 0.5}]
    path.write_text("".join(
        json.dumps({"task_id": "a", "values": v, "metric": 0.1}) + "\n" for v in rows
    ))
    with pytest.raises(ValidationError, match=f"{path}:3: malformed record.*unknown parameter"):
        load_history([path], TASKS, SPACE)


@pytest.mark.parametrize("x", ["0.5", True, " 1e-1 "])
def test_history_numeric_value_that_is_not_a_json_number_names_its_line(tmp_path, x):
    path = tmp_path / "h.jsonl"
    path.write_text("".join(
        json.dumps({"task_id": "a", "values": {"x": v}, "metric": 0.1}) + "\n" for v in (0.5, x)
    ))
    with pytest.raises(ValidationError, match=f"{path}:2: malformed record.*is not a number"):
        load_history([path], TASKS, SPACE)


_PARAMETER = {"name": "x", "kind": "numeric", "numeric_range": [0.1, 1.0], "log_scale": False}
_DISCRETIZER = {"parameter": "x", "split_points": [0.5], "level_labels": list(DEFAULT_LEVELS),
                "representatives": {"low": 0.3, "high": 1}, "fitted_in_log": False}
_TASK = {"task_id": "a", "space_id": "s", "description": "task a", "meta_features": [1.5, 2]}


def _space(**changes):
    return {"space_id": "s", "description": "a space.", "parameters": [{**_PARAMETER, **changes}]}


def test_well_typed_values_load(tmp_path):
    for name, value in (("space.json", _space()), ("discretizers.json", {"x": _DISCRETIZER}),
                        ("tasks.jsonl", _TASK)):
        (tmp_path / name).write_text(json.dumps(value))
    (parameter,) = load_space(tmp_path / "space.json").parameters
    assert (parameter.numeric_range, parameter.log_scale) == ((0.1, 1.0), False)
    assert load_discretizers(tmp_path / "discretizers.json")["x"].split_points == (0.5,)
    assert load_tasks(tmp_path / "tasks.jsonl")[0].meta_features == (1.5, 2.0)


@pytest.mark.parametrize(
    "name, load, value",
    [
        ("space.json", load_space, _space(log_scale="false")),
        ("space.json", load_space, _space(numeric_range=["0.1", "1"])),
        ("space.json", load_space, _space(numeric_range=[True, 1.0])),
        ("discretizers.json", load_discretizers, {"x": {**_DISCRETIZER, "split_points": ["0.5"]}}),
        ("discretizers.json", load_discretizers, {"x": {**_DISCRETIZER, "fitted_in_log": "no"}}),
        ("discretizers.json", load_discretizers, {"x": {**_DISCRETIZER, "representatives": {"low": "0.3"}}}),
        ("tasks.jsonl", load_tasks, {**_TASK, "meta_features": ["1.5", True]}),
        ("knowledge.jsonl", load_knowledge, {"space_id": "s", "text": "t", "validation_score": "90"}),
    ],
)
def test_numbers_and_booleans_are_checked_not_cast(tmp_path, name, load, value):
    # Each value used to load cast ("false" as True, "0.5" as 0.5, true as 1.0),
    # or, as a representative, to fail a later comparison with a TypeError.
    path = tmp_path / name
    path.write_text(json.dumps(value))
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        load(path)
