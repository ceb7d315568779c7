"""Command-line contract: output documents, formats and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2magical import cli, dataset, moduli, orbits, realforms
from sl2magical.cli import main
from sl2magical.dataset import DATASET_ENV
from sl2magical.families import FAMILIES, FamilySpec
from sl2magical.magical import family_parameter_space, partition_witness
from sl2magical.orbits import (
    Partition,
    SignedPartitionData,
    enumerate_partitions,
    enumerate_signed_data,
    magical_candidates,
)
from sl2magical.realforms import describe
from sl2magical.rootsystems import CLASSICAL_MIN_RANK, LieType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_json_document(capsys):
    code, out, _ = run(capsys, "orbit", "A", "4", "--partition", "2,2,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["wdd"] == [0, 1, 1, 0]
    assert doc["n"] == {"0": 4, "1": 4, "2": 4}
    assert doc["dim_c"] == 4
    assert doc["dim_g0"] == 8


def test_orbit_exponent_syntax_equivalent(capsys):
    _, out1, _ = run(capsys, "orbit", "A", "4", "--partition", "2,2,1")
    _, out2, _ = run(capsys, "orbit", "A", "4", "--partition", "2^2,1")
    assert out1 == out2


def test_orbit_table_lists_weight_rows(capsys):
    code, out, _ = run(capsys, "orbit", "D", "4", "--partition", "2^4")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["n_0"] == "10"
    assert lines["n_2"] == "6"
    assert lines["dim_v_rho"] == "16"


def test_orbit_output_deterministic(capsys):
    _, out1, _ = run(capsys, "orbit", "B", "3", "--partition", "3,2,2",
                     "--format", "json")
    _, out2, _ = run(capsys, "orbit", "B", "3", "--partition", "3,2,2",
                     "--format", "json")
    assert out1 == out2


def test_orbit_parity_violation_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "C", "2", "--partition", "3,1")
    assert code == 2
    assert "parity" in err


def test_orbit_bad_partition_string_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "A", "3", "--partition", "x,y")
    assert code == 2
    assert err.startswith("error:")


def test_classify_su23_single_odd_row(capsys):
    code, out, _ = run(capsys, "classify", "su", "2", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["realform"] == "su(2,3)"
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["orbit"] == "[2^2,1]"
    assert row["verdict"] == "OddMagical"
    assert row["sign_choices"] == 2


def test_classify_sp_empty(capsys):
    code, out, _ = run(capsys, "classify", "sp", "1", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_classify_table_has_headline(capsys):
    code, out, _ = run(capsys, "classify", "sp", "1", "1")
    assert code == 0
    assert "0 magical orbit(s)" in out


def test_classify_csv_header(capsys):
    code, out, _ = run(capsys, "classify", "su", "2", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("orbit,verdict")
    assert len(lines) == 2  # one magical orbit


def test_classify_exceptional_winner(capsys):
    code, out, _ = run(capsys, "classify", "E6^-14", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["verdict"] == "OddMagical"


def test_classify_exceptional_failures_empty(capsys):
    for token in ("E7^7", "E8^8", "E6^-26"):
        code, out, _ = run(capsys, "classify", token, "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == []


def test_classify_keeps_rows_by_the_verdict(capsys, monkeypatch, tmp_path):
    """classify keeps a record by the verdict of its witness, which reads
    no optional column: the E6^-14 row without dim_V_cap_h is still a row."""
    path = tmp_path / "no_v_cap_h.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1],
        "dim_c_cap_h": 22, "centralizer": "so(7)+so(2)", "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, _ = run(capsys, "classify", "E6^-14", "--format", "json")
    assert code == 0
    assert [row["verdict"] for row in json.loads(out)["rows"]] == ["OddMagical"]


@pytest.mark.parametrize("command", [
    ("classify", "E6^-14"),
    ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1", "--genus", "2"),
], ids=["classify", "slodowy"])
def test_duplicate_record_exit_3(capsys, monkeypatch, tmp_path, command):
    """A table listing the E6^-14 row twice is refused, also when the copy
    contradicts the first, before any row is printed or read."""
    row = {"realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1], "dim_V_cap_h": 30,
           "dim_c_cap_h": 22, "centralizer": "so(7)+so(2)", "source_row": "x"}
    path = tmp_path / "twice.jsonl"
    for second in (row, {**row, "dim_c_cap_h": 21, "centralizer": "so(7)+R"}):
        path.write_text(json.dumps(row) + "\n" + json.dumps(second) + "\n")
        monkeypatch.setenv(DATASET_ENV, str(path))
        code, out, err = run(capsys, *command)
        assert (code, out) == (3, "")
        assert err == (f"error: {path}:2: second E6^-14 record for wdd "
                       "[1, 0, 0, 0, 0, 1], first on line 1\n")


@pytest.mark.parametrize("command", [
    ("classify", "E6^-14"),
    ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1", "--genus", "2"),
], ids=["classify", "slodowy"])
def test_negative_a1_dataset_exit_3(capsys, monkeypatch, tmp_path, command):
    """A row whose columns give dim(V_1 cap m) < 0 is refused when the
    table is loaded, so classify prints no row from it, as slodowy
    refuses it."""
    path = tmp_path / "a1.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1], "dim_V_cap_h": 40,
        "dim_c_cap_h": 22, "centralizer": "so(7)+so(2)", "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, err = run(capsys, *command)
    assert (code, out) == (3, "")
    assert err == (f"error: {path}:1: E6^-14 record columns give a negative split "
                   "((0, (22, 0)), (1, (18, -2)), (2, (0, 8)))\n")


@pytest.mark.parametrize("command", [
    ("classify", "E6^-14"),
    ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1", "--genus", "2"),
], ids=["classify", "slodowy"])
def test_v_cap_h_below_c_cap_h_dataset_exit_3(capsys, monkeypatch, tmp_path, command):
    """c lies in V, so dim_V_cap_h 10 below dim_c_cap_h 22 leaves
    dim(V_1 cap h) = -12: the row is refused when the table is loaded, and
    slodowy prints no count from it."""
    path = tmp_path / "v_cap_h.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1], "dim_V_cap_h": 10,
        "dim_c_cap_h": 22, "centralizer": "so(7)+so(2)", "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, err = run(capsys, *command)
    assert (code, out) == (3, "")
    assert err == (f"error: {path}:1: E6^-14 record columns give a negative split "
                   "((0, (22, 0)), (1, (-12, 28)), (2, (0, 8)))\n")


@pytest.mark.parametrize("centralizer,message", [
    ("xyz(3)", "unrecognized centralizer factor 'xyz(3)'"),
    ("so(7)+su(0)", "centralizer factor 'su(0)' has size 0"),
], ids=["unrecognized", "size-0"])
def test_centralizer_error_names_the_line_exit_3(capsys, monkeypatch, tmp_path,
                                                 centralizer, message):
    """A centralizer string the grammar refuses is reported at its file
    and line, as every other record error is."""
    path = tmp_path / "centralizer.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1], "dim_V_cap_h": 30,
        "dim_c_cap_h": 22, "centralizer": centralizer, "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, err = run(capsys, "classify", "E6^-14")
    assert (code, out) == (3, "")
    assert err == f"error: {path}:1: {message}\n"


def test_boolean_wdd_dataset_exit_3(capsys, monkeypatch, tmp_path):
    """JSON true and false are not the labels 1 and 0."""
    path = tmp_path / "bool.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [True, False, False, False, False, True],
        "dim_V_cap_h": 30, "dim_c_cap_h": 22,
        "centralizer": "so(7)+so(2)", "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, err = run(capsys, "classify", "E6^-14")
    assert (code, out) == (3, "")
    assert "wdd must be a list of integers" in err


def test_classify_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "classify", "magic", "3")
    assert code == 2
    assert "magic" in err


def test_classify_missing_dataset_exit_3(capsys, monkeypatch):
    monkeypatch.setenv(DATASET_ENV, "/nonexistent.jsonl")
    code, _, err = run(capsys, "classify", "E6^-14")
    assert code == 3
    assert "nonexistent" in err


def test_classify_missing_shipped_dataset_exit_3(capsys, monkeypatch):
    monkeypatch.delenv(DATASET_ENV, raising=False)
    monkeypatch.setattr(dataset, "_DATA_FILE", "data/missing.jsonl")
    code, out, err = run(capsys, "classify", "E6^-14")
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read dataset data/missing.jsonl")


def test_non_utf8_dataset_exit_3(capsys, monkeypatch, tmp_path):
    """A table that is not UTF-8 cannot be read: classify and slodowy exit
    3 and verify fails its dataset check, each naming the path, with no
    traceback."""
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(b"\xff\xfe" + '{"realform": "E6^-14"}\n'.encode("utf-16-le"))
    monkeypatch.setenv(DATASET_ENV, str(path))
    for command in (("classify", "E6^-14"),
                    ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1", "--genus", "2")):
        code, out, err = run(capsys, *command)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read dataset {path}: 'utf-8' codec")
    code, out, _ = run(capsys, "verify", "--max-rank", "2", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert not checks["dataset-conditions"]["passed"]
    assert f"cannot read dataset {path}" in checks["dataset-conditions"]["detail"]


def test_slodowy_even_magical_gap_zero(capsys):
    code, out, _ = run(capsys, "slodowy", "su", "2", "2", "--partition", "2,2",
                       "--genus", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slodowy_param_dim"] == 30
    assert doc["expected_dim"] == 30
    assert doc["gap"] == 0
    assert doc["milnor_wood"] == 4


def test_slodowy_prefers_magical_datum(capsys):
    # [2^2] of su(2,2) has a noncompact mixed-sign datum; the report must
    # pick a magical one
    code, out, _ = run(capsys, "slodowy", "su", "2", "2", "--partition", "2,2",
                       "--genus", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["gap"] == 0


def test_slodowy_builds_no_centralizer_when_the_partition_cannot_pass(capsys, monkeypatch):
    # [3,1^2] of su(2,3) fails dim m - dim h = dim g_0 - 2 dim c whatever
    # the signs, so the report takes the first datum without testing any
    from sl2magical import magical

    calls = []
    centralizer = magical.centralizer_realform
    monkeypatch.setattr(magical, "centralizer_realform",
                        lambda signed: calls.append(signed) or centralizer(signed))
    code, out, _ = run(capsys, "slodowy", "su", "2", "3", "--partition", "3,1,1",
                       "--genus", "2", "--format", "json")
    assert (code, calls) == (0, [])
    assert out == (
        '{"realform": "su(2,3)", "orbit": "[3,1^2]", "genus": 2, "slodowy_param_dim": 38, '
        '"expected_dim": 48, "gap": 10, "milnor_wood": 4, "dim_c_cap_h": 4, "a": {"2": 5}, '
        '"signs": "[3,1^2]{3:(1,0),1:(0,2)}"}\n')


def _slodowy_workload():
    """The 889 argv of the slodowy benchmark workload at genus 2, each with
    whether its partition's half of the witness can pass: su(p,q), p <= q,
    on each partition that meets it and sl(n,R) on each partition, n from
    2 to 12, then E6^-14 on its odd diagram (None: no partition)."""
    out = []
    for n in range(2, 13):
        forms = [("su", (p, n - p)) for p in range(1, n // 2 + 1)] + [("sl", (n,))]
        for family, params in forms:
            form = describe(family, params)
            for p in enumerate_partitions(LieType.of("A", n - 1)):
                if family == "su" and not enumerate_signed_data(family, params, p):
                    continue
                out.append((("slodowy", family, *map(str, params),
                             "--partition", ",".join(map(str, p.parts))),
                            partition_witness(form, p).verdict.is_magical))
    out.append((("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1"), None))
    return [(argv + ("--genus", "2", "--format", "json"), can_pass) for argv, can_pass in out]


def test_slodowy_workload_builds_what_it_prints(capsys, monkeypatch):
    """Over the slodowy workload, each of the 47 classical forms is
    complexified once (1,776 times when each command described its form
    twice), and a command builds one sign datum unless its partition can
    pass, then each datum once up to the first magical one (2,139 data in
    all when every datum was built, 1,083 when the scan rebuilt the first
    datum and built every datum of such a partition)."""
    workload = _slodowy_workload()
    built, complexified = [], []

    def count(seen, original):
        return lambda *args: seen.append(1) or original(*args)

    monkeypatch.setattr(SignedPartitionData, "__init__",
                        count(built, SignedPartitionData.__init__))
    monkeypatch.setattr(FamilySpec, "complexification",
                        count(complexified, FamilySpec.complexification))
    realforms._descriptor.cache_clear()
    per_command = []
    for argv, can_pass in workload:
        before = len(built)
        assert run(capsys, *argv)[0] == 0
        per_command.append((can_pass, len(built) - before))
    assert len(workload) == 889
    assert sum(1 for can_pass, _ in per_command if can_pass) == 84
    assert all(n == 1 for can_pass, n in per_command if can_pass is False)
    assert (len(complexified), len(built)) == (47, 908)


def test_slodowy_workload_builds_rows_once_per_datum(capsys, monkeypatch):
    """Over the slodowy workload, a signed datum's complex rows are built
    once, when it is made (the 908 data of the test above), and never for
    a sign table that signed_data's plus-box filter rejects: the filter
    counts boxes without building rows."""
    workload = _slodowy_workload()
    built, rows_built = [], []

    def count(seen, original):
        return lambda *args: seen.append(1) or original(*args)

    monkeypatch.setattr(SignedPartitionData, "__init__",
                        count(built, SignedPartitionData.__init__))
    monkeypatch.setattr(orbits, "_rows", count(rows_built, orbits._rows))
    for argv, _ in workload:
        assert run(capsys, *argv)[0] == 0
    assert (len(built), len(rows_built)) == (908, 908)


def test_classify_workload_builds_one_partition_per_walked_partition(capsys, monkeypatch):
    """Over the classify workload, each of the 107 partitions the walk
    yields on the 141 classical forms is built once, and the 12 exceptional
    tokens build none."""
    workload = _classify_workload()
    leaves = sum(1 for family in FAMILIES for params in family_parameter_space(family, 12)
                 for _ in magical_candidates(family, params))
    built = []
    original = Partition.__init__
    monkeypatch.setattr(Partition, "__init__",
                        lambda self, parts: built.append(1) or original(self, parts))
    per_command = []
    for argv in workload:
        before = len(built)
        run(capsys, *argv)
        per_command.append(len(built) - before)
    assert (len(workload), leaves) == (153, 107)
    assert sum(per_command[:141]) == leaves and per_command[141:] == [0] * 12


def test_slodowy_genus_guard_exit_2(capsys, monkeypatch):
    """A genus below 2 is refused before any split is read: on a classical
    form, on two exceptional rows whose split cannot be read (exit 3 at
    genus 2), on a diagram whose grading has no weight-2 summand (exit 2
    at genus 2, on n_2 = 0), on an orbit with no curated record (exit 3
    at genus 2), and on every shipped row."""
    rows = [("su", "2", "2", "--partition", "2,2"),
            ("E7^7", "--wdd", "1,0,0,1,0,1,0"), ("E6^-26", "--wdd", "1,0,0,0,0,1"),
            ("E6^-14", "--wdd", "1,0,0,0,0,0"), ("E6^6", "--wdd", "2,0,0,0,0,2")]
    rows += [(r.realform, "--wdd", ",".join(map(str, r.wdd))) for r in dataset.load_records()]

    def refuse(*args):
        raise AssertionError("a split was read")

    monkeypatch.setattr(moduli, "oracle_sigma_split", refuse)
    monkeypatch.setattr(dataset.ExceptionalOrbitRecord, "splits", refuse)
    for row in rows:
        code, _, err = run(capsys, "slodowy", *row, "--genus", "1")
        assert code == 2, row
        assert "genus" in err, row


def test_slodowy_requires_partition_exit_2(capsys):
    code, _, err = run(capsys, "slodowy", "su", "2", "2", "--genus", "2")
    assert code == 2


def test_slodowy_exceptional_row(capsys):
    code, out, _ = run(capsys, "slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1",
                       "--genus", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["slodowy_param_dim"], doc["expected_dim"]) == (124, 156)
    assert doc["a"] == {"1": 8, "2": 8}  # the weight-2 part derived from the record


def test_slodowy_exceptional_incomplete_row_exit_3(capsys):
    code, _, err = run(capsys, "slodowy", "E7^7", "--wdd", "1,0,0,1,0,1,0",
                       "--genus", "2")
    assert code == 3


def test_slodowy_exceptional_missing_column_exit_3(capsys):
    """The E6^-26 row has no dim_V_cap_h; dim(V_even cap m) is derived, so
    that is the one column the message names."""
    code, out, err = run(capsys, "slodowy", "E6^-26", "--wdd", "1,0,0,0,0,1",
                         "--genus", "2")
    assert (code, out) == (3, "")
    assert err == "error: E6^-26 record lacks columns ['dim_V_cap_h']\n"


def test_slodowy_exceptional_diagram_without_record_exit_3(capsys):
    code, out, err = run(capsys, "slodowy", "E6^-14", "--wdd", "2,2,2,2,2,2",
                         "--genus", "2")
    assert code == 3
    assert out == ""
    assert "no curated record for E6^-14" in err


def test_internal_value_error_is_not_an_argument_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("sl2magical.cli.rigidity_report", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["slodowy", "su", "2", "2", "--partition", "2,2", "--genus", "2"])


def test_verify_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "4")
    assert code == 0
    assert out.rstrip().endswith("0 mismatches")
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert {c["name"] for c in doc["checks"]} == {
        "oracle-equivalence", "parity-lemma", "table-rows", "dataset-conditions"}


def test_verify_rank_bound_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--max-rank", "13")
    assert code == 2


def test_verify_reaches_the_rank_cap(capsys):
    """verify --max-rank 12, the classical rank cap, checks all 4,137
    orbits of rank <= 12 on the three routes with no mismatch."""
    code, out, err = run(capsys, "verify", "--max-rank", "12", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert {c["name"]: c["cases"] for c in doc["checks"]}["oracle-equivalence"] == 4137


def test_verify_corrupt_dataset_exit_1(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({
        "realform": "E6^-14", "wdd": [1, 0, 0, 0, 0, 1], "dim_c_cap_h": -5,
        "centralizer": "so(7)+so(2)", "source_row": "x"}) + "\n")
    monkeypatch.setenv(DATASET_ENV, str(path))
    code, out, _ = run(capsys, "verify", "--max-rank", "2")
    assert code == 1
    assert "1 mismatches" in out
    assert "bad.jsonl:1" in out  # the offending row is named


def test_entry_point_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _case(number, argv, form):
    """A case with a fixed id: a new case takes the next unused number
    wherever it is inserted, so no other case is renamed."""
    return pytest.param(argv, form, id=f"argv{number}-{form}")


MALFORMED_CASES = [
    _case(0, ("classify", "su", "2"), "su(p,q)"),
    _case(1, ("classify", "sl", "3", "4"), "sl(n,R)"),
    _case(2, ("slodowy", "su", "2", "--partition", "2,1", "--genus", "2"), "su(p,q)"),
    _case(3, ("slodowy", "E6^-14", "--wdd", "1,x,0,0,0,1", "--genus", "2"), "E6^-14"),
    _case(4, ("slodowy", "E6^-14", "3", "--wdd", "1,0,0,0,0,1", "--genus", "2"),
          "E6^-14 takes no parameters"),
    _case(5, ("slodowy", "E6^-14", "--wdd", "1,0,0,0,1", "--genus", "2"), "E6^-14"),
    _case(6, ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,3", "--genus", "2"), "E6^-14"),
    _case(7, ("slodowy", "E6^-14", "--partition", "2,1", "--wdd", "1,0,0,0,0,1",
              "--genus", "2"),
          "E6^-14 takes --wdd, not --partition"),
    _case(8, ("slodowy", "su", "2", "3", "--partition", "2,2,1", "--wdd", "1,0",
              "--genus", "2"),
          "su(2,3) takes --partition, not --wdd"),
    _case(9, ("classify", "sl", "14"), "sl(14,R): A13 exceeds the classical rank cap 12"),
    _case(10, ("slodowy", "sl", "14", "--partition", "14", "--genus", "2"), "sl(14,R)"),
    _case(11, ("classify", "spr", "1"), "sp(2,R): C-type needs rank >= 2, got 1"),
    _case(12, ("slodowy", "so", "2", "2", "--genus", "2"),
          "so(2,2): D-type needs rank >= 3, got 2"),
    _case(13, ("slodowy", "su", "2", "3", "--genus", "2"), "su(2,3) needs --partition"),
    _case(14, ("slodowy", "sl", "14", "--genus", "2"),
          "sl(14,R): A13 exceeds the classical rank cap 12"),
    _case(15, ("orbit", "A", "4", "--partition", "1^100000000000000000000"),
          "'1^100000000000000000000' has more than 25 boxes"),
    _case(16, ("slodowy", "su", "2", "3", "--partition", "1^26", "--genus", "2"),
          "'1^26' has more than 25 boxes"),
    _case(17, ("classify", "E6^-14", "3"), "E6^-14 takes no parameters"),
    _case(18, ("slodowy", "E6^-14", "--partition", "", "--wdd", "1,0,0,0,0,1",
               "--genus", "2"),
          "E6^-14 takes --wdd, not --partition"),
    _case(19, ("slodowy", "sl", "3", "--partition", "3", "--wdd", "", "--genus", "2"),
          "sl(3,R) takes --partition, not --wdd"),
    _case(20, ("slodowy", "sl", "3", "--partition", "", "--genus", "2"),
          "cannot parse partition ''"),
    _case(21, ("slodowy", "E6^-14", "--wdd", "", "--genus", "2"),
          "E6^-14: cannot parse --wdd ''"),
    _case(22, ("orbit", "A", "9", "--partition", "1 0"), "cannot parse partition token '1 0'"),
    _case(23, ("slodowy", "E6^-14", "--wdd", "0_1,0,0,0,0,1", "--genus", "2"),
          "E6^-14: cannot parse --wdd '0_1,0,0,0,0,1'"),
    _case(24, ("orbit", "A", "4", "--partition", "]]2,2,1["),
          "cannot parse partition token ']]2'"),
    # g_2 = 0 under a nonzero weight: no triple, whose e, h, f span a weight-2 summand
    _case(25, ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,0", "--genus", "2"),
          "E6^-14: wdd [1, 0, 0, 0, 0, 0] labels no orbit (n_2 = 0, "),
    _case(26, ("slodowy", "E6^-14", "--wdd", "0,0,0,0,0,1", "--genus", "2"),
          "E6^-14: wdd [0, 0, 0, 0, 0, 1] labels no orbit (n_2 = 0, "),
]


@pytest.mark.parametrize("argv,form", MALFORMED_CASES)
def test_malformed_arguments_exit_2_naming_the_form(capsys, argv, form):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and form in err


@pytest.mark.parametrize("token", ["E6^6", "E6^2", "E7^-5", "E7^-25", "E8^-24",
                                   "F4^4", "F4^-20", "G2^2"])
def test_classify_token_without_records_exit_3(capsys, token):
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "classify", token, "--format", fmt)
        assert code == 3
        assert out == ""
        assert f"no curated records for {token}" in err


def test_classify_recorded_token_without_magical_row_exit_0(capsys):
    code, out, _ = run(capsys, "classify", "E7^7")
    assert code == 0
    assert out == "E7^7: 0 magical orbit(s)\n"


def test_internal_assertion_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("weight-zero space lost the Cartan")

    monkeypatch.setattr("sl2magical.cli.run_all", broken)
    code, out, err = run(capsys, "verify", "--max-rank", "2")
    assert code == 4
    assert out == ""
    assert err == "internal error: weight-zero space lost the Cartan\n"


# An integer argument takes ASCII digits only (orbits.parse_digits): argparse
# refuses each of these, saying what it expected and naming the token.
NON_DIGIT_ARGV = (
    (("classify", "sl", "1_2"), "'1_2'"),
    (("slodowy", "su", "2", "3", "--partition", "2,2,1", "--genus", "+0_2"), "'+0_2'"),
    (("verify", "--max-rank", " 2"), "' 2'"),
    (("verify", "--max-rank", "x2"), "'x2'"),
)
# Commands argparse rejects (SystemExit) and the help screen, each run on a
# parser that has served other commands before.
REJECTED_ARGV = (
    ("slodowy", "su", "2", "3", "--partition", "2,2,1"),  # no --genus
    ("cluster", "su", "2", "3"),
    ("classify", "su", "x"),
    ("--help",),
) + tuple(argv for argv, _ in NON_DIGIT_ARGV)
VALID_ARGV = (
    ("classify", "su", "2", "3", "--format", "json"),
    ("slodowy", "su", "2", "3", "--partition", "2,2,1", "--genus", "2", "--format", "json"),
    ("slodowy", "su", "2", "3", "--partition", "2,2,1", "--genus", "3"),
)


@pytest.mark.parametrize("argv,token", NON_DIGIT_ARGV)
def test_integer_arguments_take_ascii_digits_only(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"expected ASCII digits, got {token}" in err
    assert "parse_digits" not in err


def test_main_reuses_one_parser_without_state(capsys):
    """Repeated main calls build the parser once, and neither valid
    commands, rejections nor --help leave anything on it: after each
    rejection every valid command prints exactly what it printed when it
    ran first, on a freshly built parser."""
    first = []
    for argv in VALID_ARGV:
        cli.build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert all(code == 0 and out and err == "" for code, out, err in first)
    cli.build_parser.cache_clear()
    for rejected in REJECTED_ARGV:
        with pytest.raises(SystemExit):
            main(list(rejected))
        capsys.readouterr()
        assert [run(capsys, *argv) for argv in VALID_ARGV] == first
    assert cli.build_parser.cache_info().misses == 1


def _classify_workload():
    """The 153 argv of the classify benchmark workload: every classical
    form of size <= 12 (141) and every exceptional token, in json."""
    heads = [(family, *map(str, params)) for family in FAMILIES
             for params in family_parameter_space(family, 12)]
    heads += [(token,) for token in EXCEPTIONAL_TOKENS]
    return [("classify", *head, "--format", "json") for head in heads]


def _workload_argv():
    """The 1,042 argv of the classify and slodowy benchmark workloads."""
    return _classify_workload() + [argv for argv, _ in _slodowy_workload()]


def _argparse_args(argv):
    """argparse's namespace for argv, or None where argparse exits; what it
    prints on the way out is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(list(argv))
        except SystemExit:
            return None


def _assert_fast_path_agrees(argv):
    """The fast path declines argv or returns argparse's namespace, which
    argparse then gives without exiting."""
    fast = cli._fast_args(argv)
    assert fast is None or fast == _argparse_args(argv), argv
    return fast


def test_fast_path_takes_every_workload_argv_as_argparse_does():
    argvs = _workload_argv()
    assert len(argvs) == 1042
    for argv in argvs:
        assert _assert_fast_path_agrees(argv) is not None, argv


def test_fast_path_declines_or_agrees_on_rejected_and_malformed_argv():
    argvs = [case.values[0] for case in MALFORMED_CASES] + list(REJECTED_ARGV)
    assert [argv for argv in argvs if _assert_fast_path_agrees(argv) is None] == list(REJECTED_ARGV)


@pytest.mark.parametrize("argv", [
    ("slodowy", "su", "2", "--partition", "2,1", "3", "--genus", "2"),  # positional after a flag
    ("classify", "su", "-2", "3"),  # negative param
    ("slodowy", "su", "2", "3", "--partition=2,2,1", "--genus", "2"),
    ("verify", "--max", "3"),  # abbreviation
    ("verify", "--max-rank", "3", "--max-rank", "4"),
    ("verify", "-h"),
    ("classify", "--", "su", "2"),
    ("slodowy", "su", "2", "3", "--partition", "-1", "--genus", "2"),
    ("classify", "su", "2", "--format"),  # missing value
    ("classify", "su", "2", "--format", "xml"),  # unknown choice
    ("orbit", "A", "x", "--partition", "2,1"),  # int() fails
    ("orbit", "A", "--partition", "2,1"),  # missing positional
    ("orbit", "A", "2", "3", "--partition", "2,1"),  # leftover positional
    ("slodowy", "su", "2", "1", "--partition", "2,1"),  # missing required flag
    ("cluster",),
    (),
])
def test_fast_path_declines_what_is_not_plain(argv):
    assert cli._fast_args(argv) is None


# Tokens near the argument grammar: valid and unknown values, negative and
# malformed numbers, each flag in full, abbreviated and with "=", help, "--".
GRAMMAR_VALUES = ("2", "3", "-2", "0", " 4", "x", "", "2,2,1", "2^2,1", "1,0,0,0,0,1",
                  "json", "csv", "table", "xml", "su", "sl", "E6^-14", "A", "Q")
GRAMMAR_FLAGS = ("--partition", "--wdd", "--genus", "--format", "--max-rank", "--part",
                 "--gen", "--form", "--max", "--genus=2", "--format=json", "-h", "--help",
                 "--", "-p")
PLAIN_ARGV = (
    ("orbit", "A", "4", "--partition", "2,2,1", "--format", "csv"),
    ("classify", "su", "2", "3", "--format", "json"),
    ("slodowy", "su", "2", "3", "--partition", "2,2,1", "--genus", "2"),
    ("slodowy", "E6^-14", "--wdd", "1,0,0,0,0,1", "--genus", "3", "--format", "table"),
    ("verify", "--max-rank", "4"),
)


@st.composite
def near_grammar(draw):
    """A plain argv or a random one, then up to two edits: a flag
    abbreviated or joined to its value by "=", or a token replaced,
    inserted, dropped or swapped.  Among the results: repeated or missing
    flags and values, negative params, unknown choices, positionals after
    flags, -h."""
    value, flag = st.sampled_from(GRAMMAR_VALUES), st.sampled_from(GRAMMAR_FLAGS)
    if draw(st.integers(0, 3)):
        argv = list(draw(st.sampled_from(PLAIN_ARGV)))
    else:
        argv = [draw(st.sampled_from(tuple(cli.COMMANDS) + ("cluster", "-h")))]
        argv += draw(st.lists(value, max_size=3))
        argv += [token for pair in draw(st.lists(st.tuples(flag, value), max_size=4))
                 for token in pair]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("respell", "replace", "insert", "drop", "swap")))
        at = draw(st.integers(0, len(argv) - 1))
        if edit == "respell" and argv[at].startswith("--") and at + 1 < len(argv):
            if draw(st.booleans()):  # a prefix, the whole flag included ("--" too)
                size = len(argv[at])
                argv[at] = argv[at][:draw(st.integers(min(3, size), size))]
            else:
                argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
        elif edit == "replace":
            argv[at] = draw(st.one_of(value, flag))
        elif edit == "insert":
            argv.insert(at + 1, draw(st.one_of(value, flag)))
        elif edit == "drop":
            del argv[at]
        elif at + 1 < len(argv):
            argv[at], argv[at + 1] = argv[at + 1], argv[at]
        if not argv:
            break
    return argv


@settings(max_examples=300, deadline=None)
@given(near_grammar())
def test_fast_path_declines_or_agrees_near_the_grammar(argv):
    _assert_fast_path_agrees(argv)


def _valid_value(keywords):
    """A token argparse takes for an argument of the table: one of its
    choices, ASCII digits for an integer, else text that no "-" leads."""
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is cli._digits:
        return st.integers(0, 120).map(str)
    return st.one_of(st.sampled_from(("su", "E6^-14", "2,2,1", "[2^2,1]", "1,0,0,0,0,1")),
                     st.text("0123456789,^[] suEl*", min_size=1))


@st.composite
def plain_argv(draw):
    """A plain command of any subcommand, built from COMMANDS: its
    positionals from valid values, then its flags spelled in full in any
    order, each optional flag sometimes left out."""
    name = draw(st.sampled_from(tuple(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    argv = [name]
    for _, keywords in command.positionals:
        if keywords.get("nargs") == "*":
            argv += draw(st.lists(_valid_value(keywords), max_size=3))
        else:
            argv.append(draw(_valid_value(keywords)))
    flags = [(flag, keywords) for flag, keywords in command.flags
             if keywords.get("required") or draw(st.booleans())]
    for flag, keywords in draw(st.permutations(flags)):
        argv += [flag, draw(_valid_value(keywords))]
    return argv


@settings(max_examples=300, deadline=None)
@given(plain_argv())
def test_compiled_reader_takes_every_plain_command_as_argparse_does(argv):
    fast = cli._fast_args(argv)
    assert fast is not None and fast == _argparse_args(argv), argv


def test_workload_never_builds_the_parser(capsys):
    """Every benchmark workload command is a plain one, so it runs without
    argparse; test_main_reuses_one_parser_without_state covers the rest."""
    cli.build_parser.cache_clear()
    codes = {0: 0, 3: 0}
    for argv in _workload_argv():
        codes[run(capsys, *argv)[0]] += 1
    assert codes == {0: 1034, 3: 8}  # the 8 exceptional tokens without records
    assert cli.build_parser.cache_info().misses == 0


# The verify documents for ranks 6 and 8 (272 and 742 oracle cases), byte for
# byte: a change to how the oracle takes its ranks must not move them.
VERIFY_JSON = {
    "6": '{"checks": [{"name": "oracle-equivalence", "passed": true, "cases": 272, '
         '"detail": ""}, {"name": "parity-lemma", "passed": true, "cases": 272, '
         '"detail": ""}, {"name": "table-rows", "passed": true, "cases": 20, '
         '"detail": ""}, {"name": "dataset-conditions", "passed": true, "cases": 4, '
         '"detail": ""}], "mismatches": 0}\n',
    "8": '{"checks": [{"name": "oracle-equivalence", "passed": true, "cases": 742, '
         '"detail": ""}, {"name": "parity-lemma", "passed": true, "cases": 742, '
         '"detail": ""}, {"name": "table-rows", "passed": true, "cases": 20, '
         '"detail": ""}, {"name": "dataset-conditions", "passed": true, "cases": 4, '
         '"detail": ""}], "mismatches": 0}\n',
}


@pytest.mark.parametrize("max_rank", sorted(VERIFY_JSON))
def test_verify_json_byte_identical(capsys, max_rank):
    code, out, err = run(capsys, "verify", "--max-rank", max_rank, "--format", "json")
    assert (code, out, err) == (0, VERIFY_JSON[max_rank], "")


# One field/value record in each format, byte for byte: orbit and slodowy
# share the renderer of these documents.
ORBIT_ARGV = ("orbit", "A", "4", "--partition", "2,2,1")
SLODOWY_ARGV = ("slodowy", "su", "2", "3", "--partition", "2,2,1", "--genus", "2")
RECORD_OUTPUT = {
    (ORBIT_ARGV, "json"):
        '{"type": "A4", "partition": "[2^2,1]", "wdd": [0, 1, 1, 0], '
        '"n": {"0": 4, "1": 4, "2": 4}, "dim_c": 4, "dim_g0": 8, "dim_v_rho": 12}\n',
    (ORBIT_ARGV, "csv"):
        'field,value\ntype,A4\npartition,"[2^2,1]"\nwdd,0 1 1 0\nn_0,4\nn_1,4\n'
        'n_2,4\ndim_c,4\ndim_g0,8\ndim_v_rho,12\n',
    (ORBIT_ARGV, "table"):
        "type       A4\npartition  [2^2,1]\nwdd        0 1 1 0\nn_0        4\n"
        "n_1        4\nn_2        4\ndim_c      4\ndim_g0     8\ndim_v_rho  12\n",
    (SLODOWY_ARGV, "json"):
        '{"realform": "su(2,3)", "orbit": "[2^2,1]", "genus": 2, '
        '"slodowy_param_dim": 40, "expected_dim": 48, "gap": 8, "milnor_wood": 4, '
        '"dim_c_cap_h": 4, "a": {"1": 2, "2": 4}, "signs": "[2^2,1]{2:(2,0),1:(0,1)}"}\n',
    (SLODOWY_ARGV, "csv"):
        'field,value\nrealform,"su(2,3)"\norbit,"[2^2,1]"\ngenus,2\n'
        'slodowy_param_dim,40\nexpected_dim,48\ngap,8\nmilnor_wood,4\n'
        'dim_c_cap_h,4\na,"{""1"": 2, ""2"": 4}"\nsigns,"[2^2,1]{2:(2,0),1:(0,1)}"\n',
    (SLODOWY_ARGV, "table"):
        "realform           su(2,3)\norbit              [2^2,1]\ngenus              2\n"
        "slodowy_param_dim  40\nexpected_dim       48\ngap                8\n"
        "milnor_wood        4\ndim_c_cap_h        4\n"
        'a                  {"1": 2, "2": 4}\n'
        "signs              [2^2,1]{2:(2,0),1:(0,1)}\n",
}


@pytest.mark.parametrize("argv,fmt", sorted(RECORD_OUTPUT))
def test_record_output_byte_identical(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (0, RECORD_OUTPUT[argv, fmt], "")


def test_module_entry_point_in_a_fresh_interpreter():
    """python -m sl2magical.cli: exit 0 and the json document for a valid
    command; exit 2 and an error line on stderr for malformed ones, both an
    argparse rejection and a domain error returned by main.  The child
    imports the package from where this process did: the checkout's src,
    or an installed wheel."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "sl2magical.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = cli_run(*ORBIT_ARGV, "--format", "json")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, RECORD_OUTPUT[ORBIT_ARGV, "json"], "")
    for argv in (("slodowy", "su", "2", "3", "--partition", "2,2,1"),
                 ("orbit", "C", "2", "--partition", "3,1")):
        done = cli_run(*argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert "error:" in done.stderr


def _slodowy_sweep():
    """Every su(p,q) and sl(n,R) slodowy command of size n <= 8, each
    partition of n, in a fixed order."""
    for n in range(2, 9):
        forms = [("su", str(p), str(n - p)) for p in range(1, n)] + [("sl", str(n))]
        for p in enumerate_partitions(LieType.of("A", n - 1)):
            part = ",".join(map(str, p.parts))
            for form in forms:
                yield ("slodowy", *form, "--partition", part, "--genus", "2",
                       "--format", "json")


def test_slodowy_sweep_digest(capsys):
    """The exit codes and output of the whole sweep, byte for byte: a
    change to how the involution splits are ranked must not move them."""
    digest = hashlib.sha256()
    commands = 0
    for argv in _slodowy_sweep():
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
        commands += 1
    assert commands == 415  # 267 exit 0, 148 exit 2 (no signed datum meets the form)
    assert digest.hexdigest() == (
        "236b6f513071453426e2b115e53040c91a7c921d78fba21e1310d6f1491ba573")


def test_slodowy_large_sweep_digest(capsys):
    """Every su(p,q) with p <= q and sl(n,R) of size 9..12, each partition
    of n, at genus 2 in json: the exit codes and output, byte for byte, as
    recorded while slodowy built every sign datum of its partition and
    described its form twice."""
    digest = hashlib.sha256()
    commands = 0
    for n in range(9, 13):
        forms = [("su", str(p), str(n - p)) for p in range(1, n // 2 + 1)] + [("sl", str(n))]
        for p in enumerate_partitions(LieType.of("A", n - 1)):
            part = ",".join(map(str, p.parts))
            for form in forms:
                argv = ("slodowy", *form, "--partition", part, "--genus", "2",
                        "--format", "json")
                code, out, err = run(capsys, *argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
                commands += 1
    assert commands == 1277  # 702 exit 0, 575 exit 2 (no signed datum meets the form)
    assert digest.hexdigest() == (
        "aa764b39add9b4a88c0775d8bbc8f54fb3088d215f5e64252870ac3266ea57b5")


def test_slodowy_five_families_sweep_digest(capsys):
    """Every so(p,q), so*(2m), sp(2n,R), sp(2p,2q) and su*(2m) slodowy
    command of size <= 8 (family_parameter_space), each orbit partition of
    the form's complexification, at genus 2 in json: it exits 0 exactly
    when the partition has a signed datum of the form, else 2 with "does
    not meet"; the exit codes and output, byte for byte, as recorded when
    the split was first read off the datum's rows in these families."""
    digest = hashlib.sha256()
    codes = Counter()
    for family in ("so", "sostar", "spr", "sp", "sustar"):
        for params in family_parameter_space(family, 8):
            for p in enumerate_partitions(describe(family, params).ambient):
                argv = ("slodowy", family, *map(str, params), "--partition",
                        ",".join(map(str, p.parts)), "--genus", "2", "--format", "json")
                code, out, err = run(capsys, *argv)
                met = bool(enumerate_signed_data(family, params, p))
                assert (code, "does not meet" in err) == ((0, False) if met else (2, True)), argv
                digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
                codes[code] += 1
    assert codes == {0: 523, 2: 944}
    assert digest.hexdigest() == (
        "54d3ab05189f9f4b8d0a677dd03df703635fa4eb0d9053699684b6bfa60de806")


@pytest.mark.parametrize("argv,expected", [
    (("so", "2", "3", "--partition", "5"),
     '{"realform": "so(2,3)", "orbit": "[5]", "genus": 2, "slodowy_param_dim": 20, '
     '"expected_dim": 20, "gap": 0, "milnor_wood": 4, "dim_c_cap_h": 0, "a": {"2": 1, "6": 1}, '
     '"signs": "[5]{5:(0,1)}"}\n'),
    (("sostar", "5", "--partition", "2^4,1^2"),
     '{"realform": "so*(10)", "orbit": "[2^4,1^2]", "genus": 2, "slodowy_param_dim": 74, '
     '"expected_dim": 90, "gap": 16, "milnor_wood": 4, "dim_c_cap_h": 11, '
     '"a": {"1": 4, "2": 6}, "signs": "[2^4,1^2]{2:(2,0)}"}\n'),
], ids=["so23-principal", "sostar10-odd-row"])
def test_slodowy_orthogonal_rows(capsys, argv, expected):
    """The principal orbit of the split so(2,3) has gap 0, and the odd
    magical row [2^4,1^2] of the nontube so*(10) is reported on its
    one-sign datum."""
    assert run(capsys, "slodowy", *argv, "--genus", "2", "--format", "json") == (0, expected, "")


def _orbit_sweep():
    """orbit on every classical orbit of rank <= 6 in json, families A, B,
    C, D, ranks ascending, partitions descending."""
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, 7):
            t = LieType.of(fam, rank)
            for p in enumerate_partitions(t):
                yield ("orbit", fam, str(rank), "--partition", ",".join(map(str, p.parts)),
                       "--format", "json")


def test_orbit_sweep_digest(capsys):
    """The exit codes and output of the whole sweep, byte for byte, as
    recorded while the closed dims were three separate formulas."""
    digest = hashlib.sha256()
    commands = 0
    for argv in _orbit_sweep():
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
        commands += 1
    assert commands == 272  # the oracle-equivalence cases of verify --max-rank 6
    assert digest.hexdigest() == (
        "ba01701e02cba203e1edaa8a3cf23c16fc599566445ca6e05dd5564568144255")


EXCEPTIONAL_TOKENS = ("E6^-14", "E6^-26", "E7^7", "E8^8", "E6^6", "E6^2", "E7^-5",
                      "E7^-25", "E8^-24", "F4^4", "F4^-20", "G2^2")


def _classify_sweep():
    """classify on every classical form of size <= 8 and every exceptional
    token, each in json, csv and table format, in a fixed order."""
    heads = [(family, *map(str, params)) for family in FAMILIES
             for params in family_parameter_space(family, 8)]
    heads += [(token,) for token in EXCEPTIONAL_TOKENS]
    for head in heads:
        for fmt in ("json", "csv", "table"):
            yield ("classify", *head, "--format", fmt)


def test_classify_sweep_digest(capsys):
    """The exit codes and output of the whole sweep, byte for byte: a
    change to how classify rows are built must not move them."""
    digest = hashlib.sha256()
    commands = 0
    for argv in _classify_sweep():
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
        commands += 1
    assert commands == 3 * (69 + 12)  # the 8 tokens without records exit 3
    assert digest.hexdigest() == (
        "c4fb78c50c9a87a8469783b54a221ac5cad124da8a405386b1a3247e10d8fac1")


def test_classify_size12_json_digest(capsys):
    """classify --format json on all 141 classical forms of size <= 12, in
    the family table's order: the exit codes and output, byte for byte, as
    recorded while the candidate walk still built partitions without a
    one-sign datum that meets the form."""
    digest = hashlib.sha256()
    commands = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            argv = ("classify", family, *map(str, params), "--format", "json")
            code, out, err = run(capsys, *argv)
            digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
            commands += 1
    assert commands == 141
    assert digest.hexdigest() == (
        "5f6f8bef2c5437edbe7e4c53243f67c7649bb0fdddea925e5f4678a9e6865c8e")
