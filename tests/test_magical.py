"""The compact-centralizer criterion, the involution signs and the scan."""

import sys

import pytest

from sl2magical.errors import DomainError
from sl2magical.magical import (
    Verdict,
    admits_even_magical,
    classify_family,
    classify_realform,
    extended_magical_status,
    involution_sign,
)
from sl2magical.families import FAMILIES
from sl2magical.orbits import (
    Partition,
    SignedPartitionData,
    enumerate_partitions,
    enumerate_signed_data,
    magical_candidates,
    one_sign_data,
    orbit_labels,
)
from sl2magical.realforms import centralizer_realform, describe


def test_involution_sign_table():
    assert involution_sign(0, 0) == 1
    # nontrivial summands alternate starting from -1 on the highest vector
    assert [involution_sign(2, k) for k in range(3)] == [-1, 1, -1]
    assert [involution_sign(3, k) for k in range(4)] == [-1, 1, -1, 1]


def test_involution_sign_guard():
    with pytest.raises(DomainError):
        involution_sign(2, 3)
    with pytest.raises(DomainError):
        involution_sign(1, -1)


def test_involution_squares_to_identity_signs():
    for j in range(7):
        for k in range(j + 1):
            assert involution_sign(j, k) in (-1, 1)


def test_su23_oddmagical_orbit():
    p = Partition.parse("2^2,1")
    verdicts = []
    for signed in enumerate_signed_data("su", (2, 3), p):
        st = extended_magical_status(signed)
        verdicts.append((signed.sign_split(2), st.verdict))
    assert ((2, 0), Verdict.ODD_MAGICAL) in verdicts
    assert ((0, 2), Verdict.ODD_MAGICAL) in verdicts
    assert ((1, 1), Verdict.NOT_EXTENDED_MAGICAL) in verdicts


def test_su23_trivial_orbit_not_magical():
    p = Partition.parse("1^5")
    (signed,) = enumerate_signed_data("su", (2, 3), p)
    st = extended_magical_status(signed)
    assert st.verdict is Verdict.NOT_EXTENDED_MAGICAL
    assert not st.witness.centralizer_compact


def test_witness_numbers_su22():
    p = Partition.parse("2^2")
    signed = next(s for s in enumerate_signed_data("su", (2, 2), p)
                  if s.sign_split(2) == (2, 0))
    st = extended_magical_status(signed)
    assert st.verdict is Verdict.EVEN_MAGICAL
    assert st.witness.m_minus_h == 1  # dim m - dim h = 8 - 7
    assert st.witness.g0_minus_2c == 1  # 7 - 2*3
    assert st.witness.even_triple


@pytest.mark.parametrize("family,params,partition,signs", [
    ("su", (2, 1), "2,1", ((2, (0, 1)),)),
    ("su", (2, 1), "2,1", ((2, (1, 0)), (2, (1, 0)), (1, (1, 0)))),
    ("su", (2, 1), "2,1", ((1, (1, 0)), (2, (1, 0)))),
    ("so", (3, 2), "2^2,1", ((1, (1, 0)),)),
], ids=["part-left-out", "part-listed-twice", "ascending", "forced-split-left-out"])
def test_signs_must_list_each_part_once(family, params, partition, signs):
    """A sign table must list, in descending order, each part of a signed
    parity, and every part when the split is forced; otherwise the datum
    is rejected with a DomainError before the criterion reads it."""
    p = Partition.parse(partition)
    with pytest.raises(DomainError, match="the signs of .* list the parts") as err:
        extended_magical_status(SignedPartitionData(family, params, p, signs))
    assert err.type is DomainError


def test_classify_su23():
    rows = classify_realform("su", (2, 3))
    assert len(rows) == 1
    (row,) = rows
    assert str(row.label) == "[2^2,1]"
    assert row.status.verdict is Verdict.ODD_MAGICAL
    assert row.data_count == 2


def test_classify_so34_both_even():
    rows = classify_realform("so", (3, 4))
    assert [(str(r.label), r.status.verdict) for r in rows] == [
        ("[7]", Verdict.EVEN_MAGICAL),
        ("[5,1^2]", Verdict.EVEN_MAGICAL),
    ]


def test_classify_so25_single_row():
    rows = classify_realform("so", (2, 5))
    assert [(str(r.label), r.status.verdict) for r in rows] == [
        ("[3,1^4]", Verdict.EVEN_MAGICAL),
    ]


def test_classify_sostar_very_even_pair():
    rows = classify_realform("sostar", (4,))
    assert [str(r.label) for r in rows] == ["[2^4]_I", "[2^4]_II"]
    assert all(r.status.verdict is Verdict.EVEN_MAGICAL for r in rows)
    assert all(r.data_count == 2 for r in rows)


def test_classify_sostar5_odd():
    rows = classify_realform("sostar", (5,))
    assert [(str(r.label), r.status.verdict) for r in rows] == [
        ("[2^4,1^2]", Verdict.ODD_MAGICAL),
    ]


def test_classify_spr_two_orbits():
    rows = classify_realform("spr", (3,))
    assert [(str(r.label), r.status.verdict) for r in rows] == [
        ("[6]", Verdict.EVEN_MAGICAL),
        ("[2^3]", Verdict.EVEN_MAGICAL),
    ]


def test_classify_empty_families():
    assert classify_realform("sp", (1, 1)) == ()
    assert classify_realform("sp", (2, 2)) == ()
    assert classify_realform("sustar", (2,)) == ()
    assert classify_realform("sustar", (3,)) == ()
    assert classify_realform("so", (1, 5)) == ()


def test_classify_family_scan_bounds():
    rows = classify_family("sl", 4)
    assert [(r.params, str(r.label)) for r in rows] == [((2,), "[2]"), ((3,), "[3]"),
                                                        ((4,), "[4]")]
    with pytest.raises(DomainError):
        classify_family("E6^2", 4)


def test_status_consistency_guard():
    """Witness.verdict on every combination of the criterion's inputs:
    compact or not, equal counts or not, even or odd; a status reads its
    verdict off its witness and stores no verdict of its own."""
    from sl2magical.magical import MagicalStatus, Witness
    from sl2magical.realforms import CentralizerRealForm

    not_magical = Verdict.NOT_EXTENDED_MAGICAL
    cases = {  # (compact, m - h == g0 - 2c, even triple): verdict
        (True, True, True): Verdict.EVEN_MAGICAL,
        (True, True, False): Verdict.ODD_MAGICAL,
        (True, False, True): not_magical,
        (True, False, False): not_magical,
        (False, True, True): not_magical,
        (False, True, False): not_magical,
        (False, False, True): not_magical,
        (False, False, False): not_magical,
    }
    cz = CentralizerRealForm(factors=("u(1)",), dim_h=1, dim_m=0, wrapped=False)
    for (compact, equal, even), verdict in cases.items():
        w = Witness(m_minus_h=2, g0_minus_2c=2 if equal else -2,
                    centralizer_compact=compact, even_triple=even)
        assert w.verdict is verdict
        assert MagicalStatus(w, cz).verdict is verdict
    assert MagicalStatus._fields == ("witness", "centralizer")


def test_admits_even_magical_spot_checks():
    assert admits_even_magical("sl", (5,))  # split
    assert admits_even_magical("su", (3, 3))  # tube type A_5
    assert not admits_even_magical("su", (2, 3))
    assert not admits_even_magical("su", (1, 2))  # tube but A_2 has even rank
    assert admits_even_magical("su", (1, 1))  # tube A_1
    assert admits_even_magical("so", (3, 5))  # p,q >= 3
    assert admits_even_magical("so", (2, 6))  # Hermitian tube D_4
    assert not admits_even_magical("so", (1, 6))
    assert admits_even_magical("sostar", (4,))  # tube D_4
    assert not admits_even_magical("sostar", (5,))
    assert admits_even_magical("spr", (3,))
    assert not admits_even_magical("sp", (2, 2))
    assert not admits_even_magical("sustar", (3,))
    assert admits_even_magical("E7^7")  # split exceptional
    assert admits_even_magical("E7^-25")  # Hermitian tube E7
    assert admits_even_magical("F4^4")
    assert not admits_even_magical("E6^-14")
    assert not admits_even_magical("E6^-26")


def test_admits_even_magical_matches_scan():
    # the membership predicate agrees with the criterion scan on evens
    for family, bound in [("su", 6), ("so", 7), ("sostar", 5), ("spr", 3),
                          ("sl", 4), ("sp", 3), ("sustar", 3)]:
        from sl2magical.magical import family_parameter_space

        for params in family_parameter_space(family, bound):
            has_even = any(r.status.verdict is Verdict.EVEN_MAGICAL
                           for r in classify_realform(family, params))
            assert has_even == admits_even_magical(family, params), (family, params)


def test_classify_family_skips_forms_above_rank_cap():
    # su*(14) complexifies to A13, beyond the classical rank cap
    from sl2magical.magical import family_parameter_space
    from sl2magical.realforms import describe

    assert classify_family("sustar", 8) == ()
    largest = family_parameter_space("sustar", 8)[-1]
    assert describe("sustar", largest).name == "su*(12)"


def _row(row):
    return str(row.label), row.data_count, str(row.status.centralizer), row.status.witness


@pytest.mark.parametrize("family", list(FAMILIES))
def test_classify_realform_matches_the_full_scan(family):
    """On every form of size <= 12, the walk over magical candidates gives
    the rows of the full scan (every orbit label, every sign assignment,
    the criterion on each), and its one-sign data are, in order, the data
    with a compact centralizer whose partition's half of the witness
    passes."""
    from sl2magical.magical import family_parameter_space, magical_statuses, partition_witness

    for params in family_parameter_space(family, 12):
        form = describe(family, params)
        ambient = form.ambient
        reference = []
        for p in enumerate_partitions(ambient):
            data = enumerate_signed_data(family, params, p)
            best = partition_witness(form, p)
            magical = [status for status in magical_statuses(best, data)
                       if status.verdict.is_magical]
            if magical:
                reference.extend((str(label), len(magical), str(magical[0].centralizer),
                                  magical[0].witness) for label in orbit_labels(ambient, p))
        rows = classify_realform(family, params)
        assert [_row(row) for row in rows] == reference, params
        keys = [(tuple(-k for k in row.label.partition.parts), row.label.tag) for row in rows]
        assert keys == sorted(keys)

        best = {p: partition_witness(form, p) for p in enumerate_partitions(ambient)}
        compact = [signed for p in enumerate_partitions(ambient)
                   for signed in enumerate_signed_data(family, params, p)
                   if centralizer_realform(signed).is_compact and best[p].verdict.is_magical]
        candidates = [signed for p in magical_candidates(family, params)
                      for signed in one_sign_data(family, params, p)]
        assert candidates == compact, params  # in order


def test_classify_builds_sign_data_only_where_the_partition_can_pass(monkeypatch):
    """Over the 141 forms of size <= 12 the walk yields only the 107
    partitions whose half of the witness passes; they get one-sign data
    (179 in all) and centralizers, and give the 112 magical rows.  Each
    walked partition's half reads one closed_dims call and builds no n_j
    table: every module's binding of either function is counted."""
    from sl2magical import magical, sl2data
    from sl2magical.magical import family_parameter_space

    walked, built, centralizers = [], [], []
    formulas = {"multiplicities_formula": [], "closed_dims": []}

    def counting(calls, fn):
        def counted(*args):
            result = fn(*args)
            calls.append(result)
            return result
        return counted

    walk = magical.magical_candidates
    monkeypatch.setattr(magical, "magical_candidates",
                        counting(walked, lambda *args: list(walk(*args))))
    monkeypatch.setattr(magical, "one_sign_data", counting(built, magical.one_sign_data))
    monkeypatch.setattr(magical, "centralizer_realform",
                        counting(centralizers, magical.centralizer_realform))
    for formula, calls in formulas.items():
        original = getattr(sl2data, formula)
        for name, module in list(sys.modules.items()):
            if name.startswith("sl2magical") and getattr(module, formula, None) is original:
                monkeypatch.setattr(module, formula, counting(calls, original))
    forms = rows = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            rows += len(classify_realform(family, params))
            forms += 1
    assert (forms, sum(map(len, walked))) == (141, 107)
    assert (len(built), sum(map(len, built))) == (107, 179)
    assert (len(centralizers), rows) == (179, 112)
    assert {formula: len(calls) for formula, calls in formulas.items()} == {
        "multiplicities_formula": 0, "closed_dims": 107}
