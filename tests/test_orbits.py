"""Partitions, orbit labels and signed sign assignments."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2magical import orbits, sl2data
from sl2magical.errors import DomainError
from sl2magical.families import FAMILIES, FamilySpec
from sl2magical.magical import family_parameter_space
from sl2magical.matrixoracle import build_matrix_triple, oracle_sl2_data
from sl2magical.orbits import (
    MAX_BOXES,
    OrbitLabel,
    Partition,
    SignedPartitionData,
    enumerate_partitions,
    enumerate_signed_data,
    magical_candidates,
    one_sign_data,
    orbit_labels,
    partition_fits_family,
    plus_boxes,
    weighted_dynkin_from_partition,
)
from sl2magical.realforms import centralizer_realform, describe
from sl2magical.rootsystems import (
    CLASSICAL_MIN_RANK,
    CLASSICAL_RANK_CAP,
    SELF_PAIRED_PARITY,
    LieType,
    WeightedDynkinDiagram,
)


def test_parse_forms_agree():
    p = Partition((2, 2, 1))
    assert Partition.parse("2,2,1") == p
    assert Partition.parse("2^2,1") == p
    assert Partition.parse("[2^2,1]") == p
    assert Partition.parse(" [2^2 , 1] ") == Partition.parse("2, 2, 1") == p
    assert str(p) == "[2^2,1]"


def test_parts_auto_sorted():
    assert Partition((1, 3, 2)).parts == (3, 2, 1)


def test_parse_rejects_garbage():
    for bad in ("", "0", "2,-1", "a,b", "2^0", "-1^100000000000000000000",
                "[[2,1]]", "2,1]", "[2,1", "]]2,2,1[", "[]", "]2,1["):
        with pytest.raises(DomainError):
            Partition.parse(bad)
    # one matched pair of brackets around the whole text, no more
    assert Partition.parse(" [2^2,1] ") == Partition.parse("2^2,1") == Partition.of(2, 2, 1)
    # a space inside a token, "_", a sign, another script's digit or an
    # empty exponent: none of these is read as some other number
    for bad in ("1 0", "1_0", "2^0_1", "2 2 1", "2 ^2,1", "+2,1", "\uff12,1", "2^,1", "2,,1"):
        with pytest.raises(DomainError, match="cannot parse partition token"):
            Partition.parse(bad)


def test_parse_bounds_the_box_count_before_expanding():
    """A partition of more than 25 boxes, the matrix size of B12, is
    rejected as a domain error, token by token, so a huge exponent is never
    expanded."""
    assert orbits.MAX_BOXES == 25 == LieType.of("B", 12).matrix_size
    assert Partition.parse("1^25").n == Partition.parse("5^4,4,1").n == 25
    for bad in ("1^26", "13,13", "1^100000000000000000000", "1^3000000,2"):
        with pytest.raises(DomainError, match="more than 25 boxes"):
            Partition.parse(bad)


def test_multiplicity_and_n():
    p = Partition.parse("3,2,2,1")
    assert p.n == 8
    assert p.multiplicities() == {3: 1, 2: 2, 1: 1}


def test_counts_are_cached_and_copied_out():
    """A partition counts its parts once; the dict multiplicities()
    returns is a fresh copy each call."""
    p = Partition.parse("3,2,2,1")
    counts = p.multiplicities()
    counts[2] = 7
    assert p.multiplicities() == {3: 1, 2: 2, 1: 1}
    assert list(p.multiplicities()) == [3, 2, 1]
    assert p.multiplicities() is not p.multiplicities()
    assert p == Partition.of(1, 2, 3, 2) and hash(p) == hash(Partition.of(1, 2, 3, 2))


def test_very_even():
    assert Partition.parse("2^4").very_even
    assert Partition.parse("4,4,2,2").very_even
    assert not Partition.parse("3,1").very_even
    assert not Partition.parse("2,2,1,1").very_even  # the 1s are odd parts
    assert not Partition.parse("4,2,1,1").very_even


def _dual(parts):
    """The conjugate partition: column k counts the parts >= k."""
    return [sum(1 for p in parts if p >= k) for k in range(1, parts[0] + 1)]


def _dim_v_rho_by_dual(algebra, parts):
    """dim V_rho by Collingwood-McGovern, Cor. 6.1.4, from the dual's
    squared parts; odd counts the odd parts."""
    sq = sum(s * s for s in _dual(parts))
    odd = sum(p % 2 for p in parts)
    return {"gl": sq - 1, "sp": (sq + odd) // 2, "so": (sq - odd) // 2}[algebra]


def _partitions(n, top=None):
    """Every partition of n, parts descending, each at most top."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


CLASSICAL_TYPES = [LieType.of(letter, rank) for letter, low in CLASSICAL_MIN_RANK.items()
                   for rank in range(low, CLASSICAL_RANK_CAP + 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CLASSICAL_TYPES),
       st.lists(st.one_of(st.integers(2, 4), st.integers(2, MAX_BOXES))))
def test_dim_v_rho_matches_the_dual(t, drawn):
    """closed_dims reads sum s_j^2 off the multiplicity table; the dual
    built here gives the same dim V_rho on the gl, so and sp branches.  A
    drawn part the parity rule pairs comes twice; 1s fill the rest."""
    keep = SELF_PAIRED_PARITY[t.algebra]
    parts, rest = [], t.matrix_size
    for k in drawn:
        copies = 1 if keep is None or k % 2 == keep else 2
        if k * copies <= rest:
            parts += [k] * copies
            rest -= k * copies
    parts = tuple(sorted(parts, reverse=True)) + (1,) * rest
    assert sl2data.closed_dims(t, Partition(parts))[2] == _dim_v_rho_by_dual(t.algebra, parts)


def test_dim_v_rho_matches_the_dual_on_every_partition():
    """Every partition of n <= MAX_BOXES, against each algebra that has a
    type on C^n and whose parity rule it meets: these are exactly the orbit
    partitions of every classical type in the rank window."""
    assert [_dual(parts) for parts in ((3, 2, 2, 1), (2, 2, 1), (1, 1, 1, 1))] == [
        [4, 3, 1], [3, 2], [4]]
    by_size = {}
    for t in CLASSICAL_TYPES:
        by_size.setdefault(t.matrix_size, []).append(t)
    checked = 0
    for n in range(1, MAX_BOXES + 1):
        for parts in _partitions(n):
            p = Partition(parts)
            for t in by_size.get(n, ()):
                if partition_fits_family(t.algebra, p):
                    assert sl2data.closed_dims(t, p)[2] == _dim_v_rho_by_dual(t.algebra, parts)
                    checked += 1
    assert checked == sum(len(enumerate_partitions(t)) for t in CLASSICAL_TYPES)


def test_enumerate_partitions_counts():
    assert len(enumerate_partitions(LieType.of("A", 4))) == 7
    assert len(enumerate_partitions(LieType.of("A", 7))) == 22


def test_parity_constraints():
    # so: even parts have even multiplicity; sp: odd parts do
    assert partition_fits_family("so", Partition.parse("2^4"))
    assert not partition_fits_family("so", Partition.parse("2,1"))
    assert partition_fits_family("sp", Partition.parse("2,2"))
    assert not partition_fits_family("sp", Partition.parse("3,1"))
    assert partition_fits_family("gl", Partition.parse("3,1"))


def test_enumerate_partitions_b3():
    got = list(enumerate_partitions(LieType.of("B", 3)))
    assert Partition.parse("7") in got
    assert Partition.parse("3,2,2") in got
    assert Partition.parse("2,2,2,1") not in got  # three 2s, odd multiplicity


def test_enumerate_partitions_small():
    assert [str(p) for p in enumerate_partitions(LieType.of("A", 2))] == [
        "[3]", "[2,1]", "[1^3]"]
    assert [str(p) for p in enumerate_partitions(LieType.of("C", 2))] == [
        "[4]", "[2^2]", "[2,1^2]", "[1^4]"]
    assert Partition.parse("2^2").very_even


def test_orbit_label_str_and_sort():
    a = OrbitLabel(Partition.parse("2^4"), "I")
    b = OrbitLabel(Partition.parse("2^4"), "II")
    assert str(a) == "[2^4]_I"
    assert orbit_labels(LieType.of("D", 4), a.partition) == (a, b)  # I before II


def test_very_even_labels_doubled_in_d():
    d4 = LieType.of("D", 4)
    labels = [label for p in enumerate_partitions(d4) for label in orbit_labels(d4, p)]
    tags = [str(l) for l in labels if l.partition == Partition.parse("2^4")]
    assert tags == ["[2^4]_I", "[2^4]_II"]
    tags31 = [str(l) for l in labels if l.partition == Partition.parse("3,3,1,1")]
    assert tags31 == ["[3^2,1^2]"]


def test_weighted_dynkin_known_rows():
    t = LieType.of("A", 4)
    wdd = weighted_dynkin_from_partition(t, Partition.parse("2^2,1"))
    assert wdd.labels == (0, 1, 1, 0)
    wdd = weighted_dynkin_from_partition(t, Partition.parse("5"))
    assert wdd.labels == (2, 2, 2, 2)


def test_weighted_dynkin_d4_very_even_base():
    t = LieType.of("D", 4)
    wdd = weighted_dynkin_from_partition(t, Partition.parse("2^4"))
    assert sorted(wdd.labels) == [0, 0, 0, 2]


def test_weighted_dynkin_d5_sostar_row():
    wdd = weighted_dynkin_from_partition(LieType.of("D", 5),
                                         Partition.parse("2^4,1^2"))
    assert wdd.labels == (0, 0, 0, 1, 1)


def test_weighted_dynkin_label_outside_012_is_an_internal_error(monkeypatch):
    """A label outside {0,1,2} is a broken invariant, refused once, by the
    diagram's own check, and raised as an AssertionError (exit 4), not as
    the diagram's DomainError (exit 2)."""
    monkeypatch.setattr(orbits, "sub", lambda a, b: 3)
    made = []
    monkeypatch.setattr(orbits, "WeightedDynkinDiagram",
                        lambda **fields: made.append(fields) or WeightedDynkinDiagram(**fields))
    t = LieType.of("A", 2)
    with pytest.raises(AssertionError, match=r"A2 \[3\]: labels \[3, 3\] leave \{0,1,2\}"):
        weighted_dynkin_from_partition(t, Partition.parse("3"))
    assert made == [{"lie_type": t, "labels": (3, 3)}]


@pytest.mark.parametrize("entry", [
    build_matrix_triple, oracle_sl2_data, weighted_dynkin_from_partition,
    sl2data.multiplicities_formula,
    # one case per closed formula that closed_dims evaluates
    pytest.param(lambda t, p: sl2data.closed_dims(t, p)[0], id="dim_c_formula"),
    pytest.param(lambda t, p: sl2data.closed_dims(t, p)[1], id="dim_g0_formula"),
    pytest.param(lambda t, p: sl2data.closed_dims(t, p)[2], id="dim_v_rho_formula"),
], ids=lambda f: f.__name__)
def test_every_partition_entry_point_validates_alike(entry):
    """Each function taking a classical type and a partition rejects a
    partition of the wrong size, or one breaking the parity rule, with one
    message."""
    with pytest.raises(DomainError, match=r"^C3 needs a partition of 6, got 5$"):
        entry(LieType.of("C", 3), Partition.parse("3,2"))
    with pytest.raises(DomainError, match=r"^\[3,2,1\] violates the C-type parity rule$"):
        entry(LieType.of("C", 3), Partition.parse("3,2,1"))
    with pytest.raises(DomainError, match=r"^E6 orbits are not labeled by partitions$"):
        entry(LieType.of("E6"), Partition.parse("3,2,1"))


def test_plus_boxes():
    assert plus_boxes(2, 1, 0) == 1
    assert plus_boxes(3, 2, 1) == 5  # ceil(3/2)*2 + floor(3/2)*1
    assert plus_boxes(1, 0, 1) == 0


def _plus_boxes_of(rows):
    """The plus boxes of complex rows, (length, leading sign) -> count."""
    return sum(plus_boxes(i, c, 0) if lead > 0 else plus_boxes(i, 0, c)
               for (i, lead), c in rows.items())


def test_su_signed_data_signature():
    data = enumerate_signed_data("su", (2, 3), Partition.parse("2^2,1"))
    assert len(data) == 3
    for signed in data:
        assert _plus_boxes_of(signed.rows) == 2


def test_su_trivial_orbit_single_datum():
    data = enumerate_signed_data("su", (2, 3), Partition.parse("1^5"))
    assert len(data) == 1
    assert dict(data[0].signs)[1] == (2, 3)


def test_so_even_parts_balanced():
    # even parts of a B/D signed datum split evenly
    for signed in enumerate_signed_data("so", (3, 4), Partition.parse("3,2,2")):
        p, q = dict(signed.signs)[2]
        assert p == q == 1


def test_sl_odd_multiplicity_blocks_datum():
    assert enumerate_signed_data("sl", (4,), Partition.parse("2,1,1")) != []
    assert enumerate_signed_data("sustar", (2,), Partition.parse("2,1,1")) == []
    assert len(enumerate_signed_data("sustar", (2,), Partition.parse("2,2"))) == 1


def test_sp_all_multiplicities_even():
    # a lone even part cannot carry a quaternionic structure
    assert enumerate_signed_data("sp", (1, 1), Partition.parse("2,1,1")) == []


def test_sp_quota():
    # sp(2p,2q): even parts contribute a fixed quota, odd splits make up the rest
    (signed,) = enumerate_signed_data("sp", (1, 1), Partition.parse("1^4"))
    assert dict(signed.signs)[1] == (1, 1)
    assert signed.rows == {(1, 1): 2, (1, -1): 2}  # the split, doubled
    (signed,) = enumerate_signed_data("sp", (1, 1), Partition.parse("2,2"))
    assert signed.signs == ()
    assert signed.rows == {(2, 1): 1, (2, -1): 1}  # 2 plus boxes, 2p for p = 1


def test_sostar_needs_even_multiplicities():
    assert enumerate_signed_data("sostar", (3,), Partition.parse("3,2,1")) == []
    assert enumerate_signed_data("sostar", (3,), Partition.parse("2^2,1^2")) != []


@pytest.mark.parametrize("family,params,partition,signs,message", [
    ("so", (2, 3), "3,1^2", ((3, (0, 1)), (1, (2, 0))), r"has 3 plus boxes, not p = 2$"),
    # complex boxes against the p of the printed name, sp(2,2)
    ("sp", (1, 1), "1^4", ((1, (2, 0)),), r"^\[1\^4\]\{1:\(2,0\)\} has 4 plus boxes, not p = 2$"),
    ("sostar", (3,), "3,1^3", (), r"^\[3,1\^3\] does not meet so\*\(6\)$"),
    ("spr", (2,), "3,1", ((3, (1, 0)), (1, (1, 0))), r"^\[3,1\] does not meet sp\(4,R\)$"),
    ("su", (2, 3), "2^2", ((2, (2, 0)),), r"^su\(2,3\) needs a partition of 5, got 4$"),
    ("su", (2,), "2", ((2, (1, 0)),), r"^su\(p,q\) takes 2 parameters, got 1$"),
    ("so", (3, 4), "2^2,1^3", ((2, (2, 0)), (1, (1, 2))), r"signs \(2, 0\) are not a balanced"),
], ids=["plus-boxes", "plus-boxes-quaternionic", "odd-quaternionic", "parity", "size", "arity", "forced-unbalanced"])
def test_signed_data_that_is_no_orbit_is_refused(family, params, partition, signs, message):
    """A datum that is no real orbit of its form is refused when it is
    made, before the criterion or a split can read it."""
    with pytest.raises(DomainError, match=message) as err:
        SignedPartitionData(family, params, Partition.parse(partition), signs)
    assert err.type is DomainError


def _all_partitions(n):
    return [Partition(parts) for parts, _ in orbits._walk(n, lambda state, k, m: state, ())]


def test_constructor_accepts_exactly_the_enumerated_data():
    """On every form of size <= 8, every partition of its size with every
    sign table listing the family's parts, each split nonnegative and of
    sum r_i, is accepted exactly when signed_data enumerates it, and in
    its order, plus-heavy splits first: 69 forms, 18,595 tables tried,
    1,861 data."""
    forms = tried = 0
    accepted, enumerated = [], []
    for family, spec in FAMILIES.items():
        for params in family_parameter_space(family, 8):
            forms += 1
            for p in _all_partitions(spec.size(params)):
                enumerated += enumerate_signed_data(family, params, p)
                splits = [[(i, (a, spec.rows(r) - a)) for a in range(spec.rows(r), -1, -1)]
                          for i, r in p.multiplicities().items()
                          if spec.forced_split or i % 2 in spec.signed_parities]
                for signs in product(*splits):
                    tried += 1
                    try:
                        accepted.append(SignedPartitionData(family, params, p, signs))
                    except DomainError:
                        pass
            assert accepted == enumerated, (family, params)
    assert (forms, tried, len(accepted)) == (69, 18595, 1861)


def _compact_data(family, params):
    """The form's sign data with a compact centralizer, each with its gap
    g_0 - 2c - s, in the order of the full enumeration."""
    form = describe(family, params)
    for p in enumerate_partitions(form.ambient):
        dim_c, dim_g0, _ = sl2data.closed_dims(form.ambient, p)
        for signed in enumerate_signed_data(family, params, p):
            if centralizer_realform(signed).is_compact:
                yield signed, dim_g0 - 2 * dim_c - form.s


def test_compact_walk_is_exact():
    """On every form of size <= 10 the one-sign data of the walk's
    partitions are the data with a compact centralizer and gap 0, in the
    same order: 102 forms, 132 of their 1,383 compact data."""
    forms = data = compact = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 10):
            walked = [signed for p in magical_candidates(family, params)
                      for signed in one_sign_data(family, params, p)]
            gaps = list(_compact_data(family, params))
            assert walked == [signed for signed, gap in gaps if gap == 0], (family, params)
            forms, data, compact = forms + 1, data + len(walked), compact + len(gaps)
    assert (forms, data, compact) == (102, 132, 1383)


def test_gap_of_compact_data_is_even_and_nonnegative():
    """The premise of the walk's cut, on all seven families: on each of the
    3,089 compact data of the 141 forms of size <= 12, g_0 - 2c - s is even
    and >= 0 (twice the h-part of ker ad_e in even weights >= 2), and it
    is 0 on exactly 179 of them."""
    gaps = [gap for family in FAMILIES for params in family_parameter_space(family, 12)
            for _, gap in _compact_data(family, params)]
    assert all(gap >= 0 and gap % 2 == 0 for gap in gaps)
    assert (len(gaps), gaps.count(0)) == (3089, 179)


def test_walk_refuses_an_odd_gap(monkeypatch):
    """A gap the even-weight identity rules out, here from an s off by
    one, stops the walk with an AssertionError rather than a wrong cut."""
    s = FamilySpec.s
    monkeypatch.setattr(FamilySpec, "s", lambda spec, params: s(spec, params) + 1)
    with pytest.raises(AssertionError, match=r"g_0 - 2c - s = -?\d+ after"):
        list(magical_candidates("su", (2, 3)))


def test_row_count_halved_for_quaternionic():
    """A datum's rows are complex rows; r_i, the family's own count, is
    spec.rows of their total, halved in su* and not in su."""
    (signed,) = enumerate_signed_data("sustar", (2,), Partition.parse("2,2"))
    assert signed.rows == {(2, 1): 2}
    assert FAMILIES["sustar"].rows(2) == 1
    data = enumerate_signed_data("su", (2, 2), Partition.parse("2,2"))
    assert all(sum(s.rows.values()) == FAMILIES["su"].rows(2) == 2 for s in data)


def _old_cartan_units(signed):
    """The su/sl split's units as they were read off the sign and
    multiplicity tables: one per row, led by its sign in su, by + in sl."""
    if signed.family == "sl":
        return {(1, part, 1): r for part, r in signed.partition.multiplicities().items()}
    return {(1, part, lead): count for part, split in signed.signs
            for lead, count in zip((1, -1), split) if count}


def test_rows_follow_the_row_rule():
    """On every signed datum of the forms of size <= 12 (15,004), the
    complex rows hold N boxes; under the signature rule their plus boxes
    are size_factor * p; a listed split is doubled in a quaternionic form;
    and on su and sl the rows are the units of the old per-family rule."""
    data = 0
    for family, spec in FAMILIES.items():
        double = 1 + spec.quaternionic
        for params in family_parameter_space(family, 12):
            form = describe(family, params)
            for p in enumerate_partitions(form.ambient):
                for signed in enumerate_signed_data(family, params, p):
                    rows = signed.rows
                    assert sum(i * c for (i, _), c in rows.items()) == spec.size(params)
                    assert 0 not in rows.values()
                    if spec.signature_rule:
                        assert _plus_boxes_of(rows) == spec.size_factor * params[0], signed
                    for i, (a, b) in signed.signs:
                        assert rows.get((i, 1), 0) == double * a, signed
                        assert rows.get((i, -1), 0) == double * b, signed
                    if family in ("su", "sl"):
                        units = {(1, i, lead): c for (i, lead), c in rows.items()}
                        assert units == _old_cartan_units(signed)
                    data += 1
    assert data == 15004


def test_magical_candidates_small():
    """sl(n,R) keeps only [n], and su*(2m) nothing, since a compact
    centralizer inside s(...) has one sign-free factor and [m^2] has gap
    6m - 6; so(p,q) keeps partitions with only odd parts, su(p,q) only
    [2^p,1^(q-p)]; in one_sign_data each signed part carries one sign,
    (r,0) before (0,r)."""
    def listed(family, params):
        return [(str(p), [str(s) for s in one_sign_data(family, params, p)])
                for p in magical_candidates(family, params)]

    assert listed("sl", (4,)) == [("[4]", ["[4]"])]
    assert listed("sustar", (3,)) == []
    assert listed("so", (2, 3)) == [("[5]", ["[5]{5:(0,1)}"]),
                                    ("[3,1^2]", ["[3,1^2]{3:(1,0),1:(0,2)}"])]
    assert listed("su", (2, 3)) == [("[2^2,1]", ["[2^2,1]{2:(2,0),1:(0,1)}",
                                                 "[2^2,1]{2:(0,2),1:(0,1)}"])]
    assert listed("spr", (3,)) == [("[6]", ["[6]{6:(1,0)}", "[6]{6:(0,1)}"]),
                                   ("[2^3]", ["[2^3]{2:(3,0)}", "[2^3]{2:(0,3)}"])]


def test_magical_candidates_build_no_barren_partition(monkeypatch):
    """The walk cuts every branch without a one-sign datum of gap 0, so
    over the 141 forms of size <= 12 one_sign_data gives each of the 107
    partitions the walk yields a datum, 179 in all, and the walk's step
    runs at most 4,527 times."""
    build, walk = orbits._signed_data, orbits._walk
    sizes, steps = [], []

    def counted(*args):
        data = list(build(*args))
        sizes.append(len(data))
        return iter(data)

    def counted_walk(n, step, root):
        return walk(n, lambda *args: steps.append(1) or step(*args), root)

    monkeypatch.setattr(orbits, "_signed_data", counted)
    monkeypatch.setattr(orbits, "_walk", counted_walk)
    forms = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            for p in magical_candidates(family, params):
                one_sign_data(family, params, p)
            forms += 1
    assert 0 not in sizes
    assert (forms, len(sizes), sum(sizes)) == (141, 107, 179)
    assert len(steps) <= 4527


def test_signed_str_round_trip_info():
    (signed,) = enumerate_signed_data("su", (2, 3), Partition.parse("1^5"))
    assert str(signed) == "[1^5]{1:(2,3)}"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_su_signed_data_mirror(p, q):
    """Swapping the two signature slots mirrors the datum list."""
    for part in enumerate_partitions(LieType.of("A", p + q - 1)):
        left = enumerate_signed_data("su", (p, q), part)
        right = enumerate_signed_data("su", (q, p), part)
        flipped = sorted(tuple((k, (b, a)) for k, (a, b) in s.signs) for s in right)
        assert sorted(s.signs for s in left) == flipped
