"""The shipped exceptional-orbit table: loading, validation, verdicts, and
the identity that derives dim(V_even cap m)."""

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
from sl2magical.families import FAMILIES
from sl2magical.magical import family_parameter_space
from sl2magical.matrixoracle import oracle_sigma_split
from sl2magical.orbits import enumerate_partitions, enumerate_signed_data
from sl2magical.realforms import EXCEPTIONAL_FORMS, describe


def _write(tmp_path, rows):
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


GOOD_ROW = {
    "realform": "E6^-14",
    "wdd": [1, 0, 0, 0, 0, 1],
    "dim_V_cap_h": 30,
    "dim_c_cap_h": 22,
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
    """(a) c in h with c compact, (b) V_even in m, (c) dim(V_even cap m) -
    dim(c cap h) = s, read off the witness and the derived column.  (c) is
    the witness's equality whatever (a) is, and given (a) so is (b), so no
    real orbit has (True, False, True)."""
    verdicts = {}
    for rec in load_records():
        w = evaluate_conditions(rec).witness
        a = w.centralizer_compact and rec.dim_c_cap_h == rec.sl2_data().dim_c
        b = rec.dim_Veven_cap_m == rec.dim_v_even
        c = rec.dim_Veven_cap_m - rec.dim_c_cap_h == describe(rec.realform).s
        assert c == (w.m_minus_h == w.g0_minus_2c)
        verdicts.setdefault(rec.realform, []).append((a, b, c))
    assert verdicts["E6^-14"] == [(True, True, True)]
    assert verdicts["E7^7"] == [(True, False, False)]
    assert verdicts["E8^8"] == [(True, False, False)]
    assert verdicts["E6^-26"] == [(False, False, False)]


def test_derived_veven_cap_m():
    """(s - dim c + 2 dim(c cap h) + dim V_even) / 2 on each shipped row;
    E6^-14's 8 is the value its row used to store from Djokovic's table."""
    derived = {rec.realform: rec.dim_Veven_cap_m for rec in load_records()}
    assert derived == {"E6^-14": 8, "E7^7": 11, "E8^8": 18, "E6^-26": 1}
    assert find_record("E6^-14", (1, 0, 0, 0, 0, 1)).slodowy_split() == (22, {1: 8, 2: 8})
    no_c = ExceptionalOrbitRecord("E6^-14", (1, 0, 0, 0, 0, 1), None, None,
                                  parse_centralizer("so(7)+so(2)"), "test")
    assert no_c.dim_Veven_cap_m is None


def test_derived_numerator_is_even():
    """s = dim g - 2 dim h and dim g_0 (the Cartan and root pairs) are both
    the rank mod 2, so no row's numerator is odd."""
    for token in EXCEPTIONAL_FORMS:
        form = describe(token)
        assert (form.s - form.ambient.rank) % 2 == 0, token
    for rec in load_records():
        assert (rec.sl2_data().dim_g0 - rec.ambient.rank) % 2 == 0, rec.realform


def test_signature_is_the_even_weight_split():
    """dim m - dim h = sum over even w of (dim V_w cap m - dim V_w cap h),
    the identity that derives dim(V_even cap m), on every signed datum of
    the seven families of size <= 10."""
    checked = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 10):
            form = describe(family, params)
            for p in enumerate_partitions(form.ambient):
                for signed in enumerate_signed_data(family, params, p):
                    r = oracle_sigma_split(signed)
                    even = sum(m - h for w, (h, m) in r.splits if w % 2 == 0)
                    assert r.dim_m - r.dim_h == form.s == even, signed
                    checked += 1
    assert checked == 5484


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
    (lambda r: r.update(dim_Veven_cap_m=8), "unknown fields ['dim_Veven_cap_m']"),
    (lambda r: r.update(dim_c_cap_h=21, centralizer="so(7)"),
     "so(7): (dim h, dim m) = (21, 0), not (21, 1)"),
    (lambda r: r.update(dim_c_cap_h=10, centralizer="su(2,1)"),
     "gives dim(V_even cap m) = -4, outside 0..dim V_even = 8"),
    (lambda r: r.update(centralizer="su(2,1)"),
     "su(2,1): (dim h, dim m) = (4, 4), not (22, 0)"),
    # consistent in compactness, but su(2,1) has dim 8, not dim c = 22
    (lambda r: r.update(dim_c_cap_h=21, centralizer="su(2,1)"),
     "su(2,1): (dim h, dim m) = (4, 4), not (21, 1)"),
    (lambda r: (r.pop("dim_c_cap_h"), r.update(centralizer="su(2,1)")),
     "su(2,1): (dim h, dim m) = (4, 4), not of total dim c = 22"),
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
    """(dim h, dim m) of each factor, summed; compact iff dim m = 0.  su(2,1)
    is su(3) of dim 8 with m of dim 2ab = 4; so(2,1), sp(1,1) and u(1,1)
    have m of dim ab, 4ab and 2ab in so(3), sp(2) and u(2)."""
    dims = {"so(7)+so(2)": (22, 0), "so(7)+R": (21, 1), "su(2,1)": (4, 4),
            "sp(3)+u(1)": (22, 0), "so(2,1)+sp(1,1)+u(1,1)+R": (9, 9)}
    for text, (h, m) in dims.items():
        c = parse_centralizer(text)
        assert (c.dim_h, c.dim_m, c.is_compact) == (h, m, m == 0), text
    with pytest.raises(DatasetSchemaError):
        parse_centralizer("so(7)+magic(3)")
    # su(0) would count -1 and cancel the u(1) beside it
    with pytest.raises(DatasetSchemaError, match="'su\\(0\\)' has size 0"):
        parse_centralizer("so(7)+so(2)+su(0)+u(1)")


def test_compact_dimension_cross_check(tmp_path):
    # so(7)+so(2) has dimension 21+1 = 22; a contradicting c-column must fail
    row = dict(GOOD_ROW, dim_c_cap_h=20)
    path = _write(tmp_path, [row])
    with pytest.raises(DatasetSchemaError):
        load_records(path)


def test_wdd_must_grade_consistently(tmp_path):
    """Labels that grade E6 with a negative multiplicity label no orbit,
    and are refused at load time: [0,0,0,0,1,2] gives n_2 = 1 - 5."""
    path = _write(tmp_path, [dict(GOOD_ROW, wdd=[0, 0, 0, 0, 1, 2])])
    with pytest.raises(DatasetSchemaError, match=r"labels no orbit \(n_2 = 1 - 5 < 0\)"):
        load_records(path)


def test_columns_must_fit_the_diagram(tmp_path):
    """[0,1,0,0,1,0] grades without a negative multiplicity, but its
    centralizer has dim 8, below the row's dim_c_cap_h."""
    path = _write(tmp_path, [dict(GOOD_ROW, wdd=[0, 1, 0, 0, 1, 0])])
    with pytest.raises(DatasetSchemaError, match="dim_c_cap_h = 22 exceeds dim c = 8"):
        load_records(path)
