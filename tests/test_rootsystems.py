"""Root systems, Cartan matrices and ad_h gradings."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from sl2magical.errors import DomainError, RankDomainError
from sl2magical.orbits import enumerate_partitions, weighted_dynkin_from_partition
from sl2magical.rootsystems import (
    CLASSICAL_MIN_RANK,
    CLASSICAL_RANK_CAP,
    LieType,
    WeightedDynkinDiagram,
    ad_grading,
    build_root_system,
    cartan_matrix,
)


def test_type_parsing_and_aliases():
    assert LieType.of("A", 4) == LieType.of("A4")
    assert LieType.of("A4").name == "A4"
    with pytest.raises(DomainError):
        LieType.of("b3")


@pytest.mark.parametrize("name,size,dim", [
    ("A4", 5, 24),
    ("B2", 5, 10),
    ("B3", 7, 21),
    ("C3", 6, 21),
    ("D4", 8, 28),
    ("D6", 12, 66),
])
def test_classical_sizes_and_dimensions(name, size, dim):
    t = LieType.of(name)
    assert t.matrix_size == size
    assert t.dim == dim


def test_exceptional_dimensions():
    dims = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}
    for name, dim in dims.items():
        assert LieType.of(name).dim == dim


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2)])
def test_rank_floors(family, rank):
    with pytest.raises(RankDomainError):
        LieType.of(family, rank)


def test_classical_inverts_matrix_size():
    """LieType.classical(algebra, size) gives back every classical type in
    the rank window from its algebra and matrix size, and refuses a size
    outside the window with LieType's own message."""
    for letter, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, CLASSICAL_RANK_CAP + 1):
            t = LieType.of(letter, rank)
            assert LieType.classical(t.algebra, t.matrix_size) == t
    for algebra, size, message in (("sp", 2, "C-type needs rank >= 2, got 1"),
                                   ("so", 3, "B-type needs rank >= 2, got 1"),
                                   ("so", 4, "D-type needs rank >= 3, got 2"),
                                   ("gl", 14, "A13 exceeds the classical rank cap 12")):
        with pytest.raises(RankDomainError, match=message):
            LieType.classical(algebra, size)


def test_rank_cap_and_garbage():
    with pytest.raises(RankDomainError):
        LieType.of("A", 13)
    with pytest.raises(DomainError):
        LieType.of("H3")
    for name, rank in (("", 3), ("AB", 3), ("BCD", 2), ("A", None), ("A0x", None)):
        with pytest.raises(DomainError, match="cannot parse Lie type"):
            LieType.of(name, rank)
    with pytest.raises(RankDomainError, match="E6 has rank 6, got 5"):
        LieType.of("E6", 5)
    assert LieType.of("E6", 6) == LieType.of("E6")
    with pytest.raises(RankDomainError, match="A5 has rank 5, got 3"):
        LieType.of("A5", 3)
    assert LieType.of("A5", 5) == LieType.of("A5") == LieType.of("A", 5)


def test_cartan_matrix_a2():
    assert cartan_matrix(LieType.of("A", 2)) == ((2, -1), (-1, 2))


def test_cartan_matrix_b2_asymmetry():
    c = cartan_matrix(LieType.of("B", 2))
    # the double bond is asymmetric: one off-diagonal entry is -2
    assert sorted((c[0][1], c[1][0])) == [-2, -1]


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "F4", "E6", "G2"])
def test_root_count_matches_dimension(name):
    rs = build_root_system(LieType.of(name))
    assert rs.lie_type.dim == rs.rank + 2 * len(rs.positive_roots)


@pytest.mark.parametrize("name,count", [("A2", 3), ("D5", 20), ("E6", 36)])
def test_positive_root_counts(name, count):
    assert len(build_root_system(LieType.of(name)).positive_roots) == count


def test_principal_a2_grading():
    t = LieType.of("A", 2)
    g = ad_grading(build_root_system(t),
                   WeightedDynkinDiagram(lie_type=t, labels=(2, 2)))
    assert g.as_dict() == {-4: 1, -2: 2, 0: 2, 2: 2, 4: 1}


def test_e6_two_endpoint_grading():
    t = LieType.of("E6")
    g = ad_grading(build_root_system(t),
                   WeightedDynkinDiagram(lie_type=t, labels=(1, 0, 0, 0, 0, 1)))
    assert g.as_dict() == {-2: 8, -1: 16, 0: 30, 1: 16, 2: 8}


def test_highest_root_a_type():
    rs = build_root_system(LieType.of("A", 3))
    assert (1, 1, 1) in rs.positive_roots


def test_diagram_label_guards():
    t = LieType.of("A", 3)
    with pytest.raises(DomainError):
        WeightedDynkinDiagram(lie_type=t, labels=(0, 1))
    with pytest.raises(DomainError):
        WeightedDynkinDiagram(lie_type=t, labels=(0, 3, 0))


def test_grading_totals_and_symmetry():
    t = LieType.of("D", 4)
    rs = build_root_system(t)
    wdd = WeightedDynkinDiagram(lie_type=t, labels=(2, 0, 1, 1))
    g = ad_grading(rs, wdd)
    assert sum(d for _, d in g.dims) == t.dim
    for w, _ in g.dims:
        assert g.as_dict().get(w, 0) == g.as_dict().get(-w, 0)


def test_zero_diagram_is_the_whole_algebra():
    t = LieType.of("B", 3)
    rs = build_root_system(t)
    g = ad_grading(rs, WeightedDynkinDiagram(lie_type=t, labels=(0, 0, 0)))
    assert g.as_dict() == {0: t.dim}


def test_exceptional_gradings_are_pinned():
    """The grading of every label vector in {0,1,2}^rank of G2, F4, E6 and
    E7 hashes to the digest recorded before ad_grading summed coefficient
    columns."""
    digest = hashlib.sha256()
    checked = 0
    for name in ("G2", "F4", "E6", "E7"):
        t = LieType.of(name)
        rs = build_root_system(t)
        for labels in itertools.product((0, 1, 2), repeat=t.rank):
            dims = ad_grading(rs, WeightedDynkinDiagram(lie_type=t, labels=labels)).dims
            digest.update(f"{name} {labels} {dims}\n".encode())
            checked += 1
    assert checked == 3006
    assert digest.hexdigest() == (
        "2529df955a753a7cf559efa8a51b9d9b2db87dd2ab487f4d7529637f14e13a27")


def _window_and_exceptional_types():
    """Every classical type of the rank window, then the five exceptional
    types."""
    for family, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, CLASSICAL_RANK_CAP + 1):
            yield LieType.of(family, rank)
    for name in ("G2", "F4", "E6", "E7", "E8"):
        yield LieType.of(name)


def _plain_weights(rs, labels):
    """The ad_h weight of each positive root, in root order, as the plain
    sum of its coefficients times the labels."""
    return [sum(c * label for c, label in zip(root, labels)) for root in rs.positive_roots]


def _assert_packed_kernel(rs, labels):
    """Byte r of sum_i label_i * packed_i is the plain weight of positive
    root r, and ad_grading's dims are the histogram of those weights, each
    positive weight at w and -w, weight 0 twice plus the rank."""
    weights = _plain_weights(rs, labels)
    total = sum(label * column for label, column in zip(labels, rs.packed))
    assert list(total.to_bytes(len(rs.positive_roots), "little")) == weights, labels
    dims = Counter({0: rs.rank})
    for w in weights:
        dims[w] += 1
        dims[-w] += 1
    grading = ad_grading(rs, WeightedDynkinDiagram(lie_type=rs.lie_type, labels=labels))
    assert grading.dims == tuple(sorted(dims.items())), labels


def test_packed_kernel_on_every_exceptional_label_vector():
    checked = 0
    for name in ("G2", "F4", "E6"):
        t = LieType.of(name)
        rs = build_root_system(t)
        for labels in itertools.product((0, 1, 2), repeat=t.rank):
            _assert_packed_kernel(rs, labels)
            checked += 1
    assert checked == 9 + 81 + 729


def test_packed_kernel_on_every_classical_orbit_diagram():
    """Every orbit diagram of A-D up to the rank cap."""
    checked = 0
    for family, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, CLASSICAL_RANK_CAP + 1):
            t = LieType.of(family, rank)
            rs = build_root_system(t)
            for p in enumerate_partitions(t):
                _assert_packed_kernel(rs, weighted_dynkin_from_partition(t, p).labels)
                checked += 1
    assert checked == 4137  # the oracle-equivalence cases of verify --max-rank 12


def test_packed_kernel_on_seeded_e7_and_e8_samples():
    rng = random.Random(0)
    for name in ("E7", "E8"):
        t = LieType.of(name)
        rs = build_root_system(t)
        for _ in range(300):
            _assert_packed_kernel(rs, tuple(rng.choice((0, 1, 2)) for _ in range(t.rank)))


# The Coxeter number h of each classical family at rank n.
COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2}


def test_largest_weight_of_each_type_is_pinned():
    """The largest ad_h weight of a type is 2 ht(theta) = 2(h - 1), reached
    by the principal diagram (every label 2): at most 58, E8's, so every
    weight fits the byte the packed kernel gives it."""
    pinned = {"G2": 10, "F4": 22, "E6": 22, "E7": 34, "E8": 58}
    for t in _window_and_exceptional_types():
        rs = build_root_system(t)
        principal = ad_grading(rs, WeightedDynkinDiagram(lie_type=t, labels=(2,) * t.rank))
        want = pinned.get(t.name) or 2 * (COXETER[t.family.value](t.rank) - 1)
        assert max(w for w, _ in principal.dims) == 2 * sum(rs.positive_roots[-1]) == want, t.name
        assert want <= 58


def test_root_sets_are_pinned():
    """The ordered positive roots of every classical type of the window and
    of the five exceptional types hash to the digest recorded while the
    closure still recomputed each coroot pairing from the coefficients."""
    digest = hashlib.sha256()
    checked = 0
    for t in _window_and_exceptional_types():
        digest.update(f"{t.name} {build_root_system(t).positive_roots}\n".encode())
        checked += 1
    assert checked == 49
    assert digest.hexdigest() == (
        "99547c2fe7cdf0814cb0437c17dbce64e3de4487816b3a3c7c5585f9043dbbca")
