"""Slodowy parameter counts and rigidity gaps."""

import json
from collections import Counter

import pytest

from sl2magical.dataset import find_record, load_records
from sl2magical.errors import DatasetSchemaError, DomainError, MissingDataError, RankDomainError
from sl2magical.families import FAMILIES
from sl2magical.magical import (
    Verdict,
    classify_realform,
    family_parameter_space,
    magical_statuses,
    partition_witness,
)
from sl2magical.matrixoracle import oracle_sigma_split
from sl2magical.moduli import (
    expected_dim,
    rigidity_report,
    slodowy_parameter_dim,
)
from sl2magical.orbits import Partition, enumerate_partitions, enumerate_signed_data
from sl2magical.realforms import describe

E6_ROW = (1, 0, 0, 0, 0, 1)  # the diagram of the shipped E6^-14 and E6^-26 rows


def _signed(family, params, spec, split=None):
    p = Partition.parse(spec)
    data = enumerate_signed_data(family, params, p)
    if split is None:
        return data[0]
    return next(s for s in data if dict(s.signs).get(split[0]) == split[1])


def test_parameter_dim_formula():
    assert slodowy_parameter_dim(2, 3, {2: 4}) == 2 * (3 + 12)
    assert slodowy_parameter_dim(3, 0, {1: 2, 2: 1}) == 4 * (2 * 2 + 3)


def test_parameter_dim_guards():
    with pytest.raises(DomainError):
        slodowy_parameter_dim(1, 3, {})
    with pytest.raises(DomainError):
        slodowy_parameter_dim(2, -1, {})
    with pytest.raises(DomainError):
        slodowy_parameter_dim(2, 0, {-1: 2})


def test_expected_dim():
    assert expected_dim(2, describe("su", (2, 2))) == 2 * 15
    assert expected_dim(3, describe("E6^-14")) == 4 * 78


def test_even_magical_orbit_is_unobstructed():
    r = rigidity_report(2, _signed("su", (2, 2), "2^2", (2, (2, 0))))
    assert (r.slodowy_param_dim, r.expected_dim, r.gap) == (30, 30, 0)
    assert r.milnor_wood == 4
    assert r.dim_c_cap_h == 3
    assert dict(r.a) == {2: 4}


def test_odd_magical_orbit_has_gap():
    r = rigidity_report(2, _signed("su", (2, 3), "2^2,1", (2, (2, 0))))
    assert (r.slodowy_param_dim, r.expected_dim, r.gap) == (40, 48, 8)
    assert r.dim_c_cap_h == 4
    assert dict(r.a) == {1: 2, 2: 4}


def test_trivial_orbit_has_maximal_gap():
    r = rigidity_report(2, _signed("su", (2, 3), "1^5"))
    assert (r.slodowy_param_dim, r.expected_dim, r.gap) == (24, 48, 24)
    assert r.dim_c_cap_h == 12
    assert dict(r.a) == {}


@pytest.mark.parametrize("genus", [2, 3, 10])
def test_principal_sl2r_teichmueller_count(genus):
    r = rigidity_report(genus, _signed("sl", (2,), "2"))
    assert r.slodowy_param_dim == 6 * genus - 6
    assert r.gap == 0


def test_genus_scaling_is_linear():
    signed = _signed("su", (2, 3), "2^2,1", (2, (2, 0)))
    base = rigidity_report(2, signed)
    tall = rigidity_report(5, signed)
    assert tall.slodowy_param_dim * (2 - 1) == base.slodowy_param_dim * (5 - 1)


def test_signed_datum_is_read_for_its_own_form():
    """A datum carries its form: the sl(3,R) datum of [3] splits as
    sl(3,R) does, with gap 0, and the su(1,2) datum of [3] has gap 10."""
    assert rigidity_report(2, _signed("sl", (3,), "3")).gap == 0
    assert rigidity_report(2, _signed("su", (1, 2), "3")).gap == 10


def test_rank_cap_is_checked_before_the_split():
    with pytest.raises(RankDomainError, match=r"sl\(14,R\): A13 exceeds the classical rank cap"):
        rigidity_report(2, _signed("sl", (14,), "14"))


def test_exceptional_report():
    r = rigidity_report(2, find_record("E6^-14", E6_ROW))
    assert (r.slodowy_param_dim, r.expected_dim, r.gap) == (124, 156, 32)
    assert r.milnor_wood == 4
    assert r.dim_c_cap_h == 22
    assert dict(r.a) == {1: 8, 2: 8}


def test_exceptional_token_with_parameters_is_rejected():
    """An exceptional token takes no parameters; a report reads the form
    off the record, which carries none."""
    with pytest.raises(DomainError, match="E6\\^-14 takes no parameters"):
        describe("E6^-14", (3,))


def test_exceptional_split_stops_at_weight_2():
    # the E7^7 orbit reaches weight 3, past what the record's columns localize
    with pytest.raises(MissingDataError, match="only localize the involution up to weight 2"):
        rigidity_report(2, find_record("E7^7", (1, 0, 0, 1, 0, 1, 0)))


def test_exceptional_missing_columns():
    # the compact form's row ships without the dim(V cap h) column
    with pytest.raises(MissingDataError, match=r"E6\^-26 record lacks columns "
                                               r"\['dim_V_cap_h'\]"):
        rigidity_report(2, find_record("E6^-26", E6_ROW))


def test_exceptional_inconsistent_columns():
    record = find_record("E6^-14", E6_ROW)._replace(dim_V_cap_h=40)
    with pytest.raises(MissingDataError, match="E6\\^-14 record columns are inconsistent: "
                                               "a_1 = -2"):
        rigidity_report(2, record)


def test_exceptional_inconsistent_columns_refused_at_load(tmp_path):
    """The same row read from a file is refused when it is loaded, before
    any command reads it; a_1 is stated once, on the record."""
    assert find_record("E6^-14", E6_ROW).a_1 == 8
    row = {"realform": "E6^-14", "wdd": list(E6_ROW), "dim_V_cap_h": 40,
           "dim_c_cap_h": 22, "centralizer": "so(7)+so(2)", "source_row": "x"}
    path = tmp_path / "a1.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DatasetSchemaError, match=r"a1.jsonl:1: dim_V_cap_h = 40 gives a_1 = -2$"):
        load_records(path)


def test_nonhermitian_has_no_milnor_wood():
    r = rigidity_report(2, _signed("sl", (3,), "3"))
    assert r.milnor_wood is None
    assert r.gap == 0  # principal orbit of a split form


def test_cayley_domain_exactly_on_odd_magical_forms():
    """An su or so* form up to size 12 has an OddMagical row exactly when
    it is Hermitian and not of tube type, the domain of the Cayley
    correspondence; su(3,2) is su(2,3) mirrored."""
    odd_forms = 0
    for family, params in [(family, params) for family in ("su", "sostar")
                           for params in family_parameter_space(family, 12)] + [("su", (3, 2))]:
        rows = classify_realform(family, params)
        odd = any(row.status.verdict is Verdict.ODD_MAGICAL for row in rows)
        form = describe(family, params)
        assert odd == (form.hermitian and not form.tube_type), (family, params)
        odd_forms += odd
    assert odd_forms == 30 + 5 + 1  # su(p,q), p < q, p + q <= 12; so*(6) to so*(22); su(3,2)


def test_the_split_decides_every_classical_verdict():
    """On every signed datum of the forms of size <= 12 (15,004): the gap
    is 0 exactly on the EvenMagical data, 109 of them; and c cap m = 0
    with V_w cap h = 0 at every even w >= 2 exactly on the magical data,
    179 of them, each of the seven families' splits read off its rows."""
    data, even, magical = 0, Counter(), 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            form = describe(family, params)
            for p in enumerate_partitions(form.ambient):
                signed = enumerate_signed_data(family, params, p)
                for d, status in zip(signed, magical_statuses(partition_witness(form, p), signed)):
                    verdict, splits = status.verdict, oracle_sigma_split(d).splits
                    gap_zero = rigidity_report(2, d).gap == 0
                    assert gap_zero == (verdict is Verdict.EVEN_MAGICAL), d
                    rule = all(m == 0 if w == 0 else h == 0 for w, (h, m) in splits if w % 2 == 0)
                    assert rule == verdict.is_magical, d
                    data += 1
                    even[family] += gap_zero
                    magical += rule
    assert data == 15004
    assert even == {"su": 12, "sl": 11, "so": 32, "sostar": 10, "spr": 44, "sustar": 0, "sp": 0}
    assert magical == 179
