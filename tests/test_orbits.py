"""Partitions, orbit labels and signed sign assignments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2magical import orbits, sl2data
from sl2magical.errors import DomainError
from sl2magical.families import FAMILIES
from sl2magical.magical import family_parameter_space
from sl2magical.matrixoracle import build_matrix_triple, oracle_sl2_data
from sl2magical.orbits import (
    MAX_BOXES,
    OrbitLabel,
    Partition,
    compact_candidates,
    enumerate_partitions,
    enumerate_signed_data,
    one_sign_data,
    orbit_labels,
    partition_fits_family,
    plus_boxes,
    weighted_dynkin_from_partition,
)
from sl2magical.rootsystems import (
    CLASSICAL_MIN_RANK,
    CLASSICAL_RANK_CAP,
    SELF_PAIRED_PARITY,
    LieType,
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
    assert p.multiplicity(2) == 2
    assert p.multiplicities() == {3: 1, 2: 2, 1: 1}
    assert p.multiplicity(5) == 0


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


def test_su_signed_data_signature():
    data = enumerate_signed_data("su", (2, 3), Partition.parse("2^2,1"))
    assert len(data) == 3
    for signed in data:
        total = sum(plus_boxes(part, p, q) for part, (p, q) in signed.signs)
        assert total == 2


def test_su_trivial_orbit_single_datum():
    data = enumerate_signed_data("su", (2, 3), Partition.parse("1^5"))
    assert len(data) == 1
    assert data[0].sign_split(1) == (2, 3)


def test_so_even_parts_balanced():
    # even parts of a B/D signed datum split evenly
    for signed in enumerate_signed_data("so", (3, 4), Partition.parse("3,2,2")):
        p, q = signed.sign_split(2)
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
    assert signed.sign_split(1) == (1, 1)
    (signed,) = enumerate_signed_data("sp", (1, 1), Partition.parse("2,2"))
    assert signed.signs == ()


def test_sostar_needs_even_multiplicities():
    assert enumerate_signed_data("sostar", (3,), Partition.parse("3,2,1")) == []
    assert enumerate_signed_data("sostar", (3,), Partition.parse("2^2,1^2")) != []


def test_row_count_halved_for_quaternionic():
    (signed,) = enumerate_signed_data("sustar", (2,), Partition.parse("2,2"))
    assert signed.row_count(2) == 1
    data = enumerate_signed_data("su", (2, 2), Partition.parse("2,2"))
    assert any(s.row_count(2) == 2 for s in data)


def test_compact_candidates_small():
    """sl(n,R) keeps only [n] and su*(2m) only [m^2], since a compact
    centralizer inside s(...) has one sign-free factor; so(p,q) keeps the
    partitions with only odd parts; in one_sign_data each signed part
    carries one sign, (r,0) before (0,r)."""
    def listed(family, params):
        return [(str(p), [str(s) for s in one_sign_data(family, params, p)])
                for p in compact_candidates(family, params)]

    assert listed("sl", (4,)) == [("[4]", ["[4]"])]
    assert listed("sustar", (3,)) == [("[3^2]", ["[3^2]"])]
    assert listed("so", (2, 3)) == [("[5]", ["[5]{5:(0,1)}"]),
                                    ("[3,1^2]", ["[3,1^2]{3:(1,0),1:(0,2)}"])]
    assert listed("spr", (3,))[0] == ("[6]", ["[6]{6:(1,0)}", "[6]{6:(0,1)}"])


def test_compact_candidates_build_no_barren_partition(monkeypatch):
    """The walk cuts every branch without a one-sign datum that meets the
    form, so over the 141 forms of size <= 12 one_sign_data gives each
    partition the walk yields a datum."""
    build = orbits._signed_data
    sizes = []

    def counted(*args):
        data = list(build(*args))
        sizes.append(len(data))
        return iter(data)

    monkeypatch.setattr(orbits, "_signed_data", counted)
    forms = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            for p in compact_candidates(family, params):
                one_sign_data(family, params, p)
            forms += 1
    assert 0 not in sizes
    assert (forms, len(sizes), sum(sizes)) == (141, 1162, 3089)


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
