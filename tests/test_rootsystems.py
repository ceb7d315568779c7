"""Root systems, Cartan matrices and ad_h gradings."""

import hashlib
import itertools

import pytest

from sl2magical.errors import DomainError, RankDomainError
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
    assert g.total == t.dim
    for w in g.weights:
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
