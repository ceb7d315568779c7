"""The shipped exceptional-orbit table: loading, validation, conditions."""

import json

import pytest

from sl2magical import dataset
from sl2magical.dataset import (
    DATASET_ENV,
    ExceptionalOrbitRecord,
    evaluate_conditions,
    find_record,
    load_records,
    parse_centralizer,
)
from sl2magical.errors import DatasetSchemaError, MissingDataError


def _write(tmp_path, rows):
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


GOOD_ROW = {
    "realform": "E6^-14",
    "wdd": [1, 0, 0, 0, 0, 1],
    "dim_V_cap_h": 30,
    "dim_c_cap_h": 22,
    "dim_Veven_cap_m": 8,
    "centralizer": "so(7)+so(2)",
    "source_row": "test",
}

#: The compact form's row: the same diagram as GOOD_ROW, another real form.
OTHER_FORM_ROW = {
    "realform": "E6^-26",
    "wdd": [1, 0, 0, 0, 0, 1],
    "dim_c_cap_h": 21,
    "centralizer": "so(7)+R",
    "source_row": "test",
}


def test_shipped_table_loads():
    records = load_records()
    assert [r.realform for r in records] == ["E6^-14", "E7^7", "E8^8", "E6^-26"]


def test_find_record():
    rec = find_record("E6^-14", (1, 0, 0, 0, 0, 1))
    assert rec is not None
    assert rec.dim_c_cap_h == 22
    assert find_record("E6^-14", (2, 2, 2, 2, 2, 2)) is None


def test_record_derived_data():
    rec = find_record("E6^-14", (1, 0, 0, 0, 0, 1))
    assert rec.sl2_data().as_dict() == {0: 22, 1: 16, 2: 8}
    assert rec.dim_v_even == 8


def test_conditions_on_shipped_rows():
    verdicts = {}
    for rec in load_records():
        ev = evaluate_conditions(rec)
        verdicts.setdefault(rec.realform, []).append((ev.a, ev.b, ev.c))
    assert verdicts["E6^-14"] == [(True, True, True)]
    assert verdicts["E7^7"] == [(True, False, True)]
    assert verdicts["E8^8"] == [(True, False, True)]
    assert verdicts["E6^-26"] == [(False, False, False)]


def test_missing_columns_noted():
    (rec,) = [r for r in load_records() if r.realform == "E6^-26"]
    ev = evaluate_conditions(rec)
    assert any("insufficient data" in note for note in ev.notes)
    assert not ev.all_hold


def test_env_override(tmp_path, monkeypatch):
    path = _write(tmp_path, [GOOD_ROW])
    monkeypatch.setenv(DATASET_ENV, str(path))
    records = load_records()
    assert len(records) == 1
    assert records[0].source_row == "test"


def test_explicit_path_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv(DATASET_ENV, "/nonexistent.jsonl")
    path = _write(tmp_path, [GOOD_ROW])
    assert len(load_records(path)) == 1


def test_a_text_is_parsed_once_and_a_rewritten_file_again(tmp_path, monkeypatch):
    """load_records reads the file on every call but parses a (source,
    text) pair once; each call returns a list of its own."""
    parsed = []
    parse_row = dataset._record_from_json
    monkeypatch.setattr(dataset, "_record_from_json",
                        lambda obj, where: parsed.append(where) or parse_row(obj, where))
    path = _write(tmp_path, [GOOD_ROW, OTHER_FORM_ROW])
    first, second = load_records(path), load_records(path)
    assert first == second and first is not second
    assert parsed == [f"{path}:1", f"{path}:2"]
    first.clear()
    assert len(load_records(path)) == 2
    _write(tmp_path, [OTHER_FORM_ROW])
    assert [rec.realform for rec in load_records(path)] == ["E6^-26"]
    assert parsed == [f"{path}:1", f"{path}:2", f"{path}:1"]


def test_missing_file(monkeypatch):
    monkeypatch.setenv(DATASET_ENV, "/nonexistent.jsonl")
    with pytest.raises(MissingDataError):
        load_records()


def test_missing_shipped_file(monkeypatch):
    """A package whose shipped table is missing is refused with
    MissingDataError, as a missing MAGICAL_DATASET file is."""
    monkeypatch.delenv(DATASET_ENV, raising=False)
    monkeypatch.setattr(dataset, "_DATA_FILE", "data/missing.jsonl")
    with pytest.raises(MissingDataError, match="cannot read dataset data/missing.jsonl"):
        load_records()


@pytest.mark.parametrize("mangle,fragment", [
    (lambda r: r.pop("realform"), "realform"),
    (lambda r: r.update(realform="E9^1"), "E9^1"),
    (lambda r: r.update(wdd=[1, 0]), "wdd"),
    (lambda r: r.update(wdd=[1, 0, 0, 0, 0, 3]), "labels"),
    (lambda r: r.update(dim_c_cap_h=-5), "negative"),
    (lambda r: r.update(dim_c_cap_h=999), "exceeds"),
    (lambda r: r.update(extra_column=1), "unknown"),
    (lambda r: r.update(centralizer="xyz(3)"), "centralizer"),
    # JSON true and false load as Python bools, which are ints
    (lambda r: r.update(wdd=[True, False, False, False, False, True]), "wdd must be a list"),
    (lambda r: r.update(dim_c_cap_h=True), "dim_c_cap_h must be an integer"),
])
def test_schema_rejections(tmp_path, mangle, fragment):
    row = dict(GOOD_ROW)
    mangle(row)
    path = _write(tmp_path, [row])
    with pytest.raises(DatasetSchemaError) as err:
        load_records(path)
    assert fragment in str(err.value)


def test_error_names_the_line(tmp_path):
    rows = [GOOD_ROW, {**GOOD_ROW, "dim_c_cap_h": -1}]
    path = _write(tmp_path, rows)
    with pytest.raises(DatasetSchemaError) as err:
        load_records(path)
    assert ":2" in str(err.value)


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "table.jsonl"
    path.write_text("")
    assert load_records(path) == []


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "table.jsonl"
    path.write_text(json.dumps(GOOD_ROW) + "\n\n" + json.dumps(OTHER_FORM_ROW) + "\n")
    assert len(load_records(path)) == 2


def test_duplicate_record_names_both_lines(tmp_path):
    """A second record of one real form and diagram is rejected, even when
    it agrees with the first; the same diagram under another form is not
    a duplicate."""
    for second in (GOOD_ROW, {**GOOD_ROW, "dim_c_cap_h": 21, "centralizer": "so(7)+R"}):
        path = _write(tmp_path, [GOOD_ROW, OTHER_FORM_ROW, second])
        with pytest.raises(DatasetSchemaError,
                           match=r"table\.jsonl:3: second E6\^-14 record for wdd "
                                 r"\[1, 0, 0, 0, 0, 1\], first on line 1"):
            load_records(path)


def test_centralizer_parsing():
    c = parse_centralizer("so(7)+so(2)")
    assert c.is_compact
    c = parse_centralizer("so(7)+R")
    assert not c.is_compact
    c = parse_centralizer("su(2,1)")
    assert not c.is_compact
    c = parse_centralizer("sp(3)+u(1)")
    assert c.is_compact
    with pytest.raises(DatasetSchemaError):
        parse_centralizer("so(7)+magic(3)")


def test_compact_dimension_cross_check(tmp_path):
    # so(7)+so(2) has dimension 21+1 = 22; a contradicting c-column must fail
    row = dict(GOOD_ROW, dim_c_cap_h=20)
    path = _write(tmp_path, [row])
    with pytest.raises(DatasetSchemaError):
        load_records(path)


def test_wdd_must_grade_consistently(tmp_path):
    # labels that produce a negative multiplicity are rejected at load time
    row = dict(GOOD_ROW, wdd=[0, 1, 0, 0, 1, 0])
    path = _write(tmp_path, [row])
    try:
        load_records(path)
    except DatasetSchemaError:
        pass  # either the grading or a dimension bound catches it
