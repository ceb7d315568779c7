"""Adjoint sl2-module data: grading pipeline vs closed formulas."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2magical.errors import InconsistentGradingError
from sl2magical.orbits import (
    Partition,
    enumerate_partitions,
    weighted_dynkin_from_partition,
)
from sl2magical.rootsystems import (
    CLASSICAL_MIN_RANK,
    GradingDims,
    LieType,
    ad_grading,
    build_root_system,
)
from sl2magical.sl2data import (
    closed_dims,
    module_multiplicities,
    multiplicities_formula,
)


def _data_via_grading(t, p):
    rs = build_root_system(t)
    wdd = weighted_dynkin_from_partition(t, p)
    return module_multiplicities(ad_grading(rs, wdd))


def test_a4_subregular_row():
    t = LieType.of("A", 4)
    assert multiplicities_formula(t, Partition.parse("2^2,1")) == {0: 4, 1: 4, 2: 4}


def test_a4_principal_row():
    t = LieType.of("A", 4)
    n = multiplicities_formula(t, Partition.parse("5"))
    assert n == {2: 1, 4: 1, 6: 1, 8: 1}


def test_d4_very_even_row():
    t = LieType.of("D", 4)
    assert multiplicities_formula(t, Partition.parse("2^4")) == {0: 10, 2: 6}


def test_b2_subregular_row():
    t = LieType.of("B", 2)
    assert multiplicities_formula(t, Partition.parse("2^2,1")) == {0: 3, 1: 2, 2: 1}


@pytest.mark.parametrize("name", ["A3", "B2", "C3", "D4"])
def test_formula_matches_grading(name):
    t = LieType.of(name)
    for p in enumerate_partitions(t):
        d = _data_via_grading(t, p)
        assert multiplicities_formula(t, p) == d.as_dict()


def test_closed_dims_are_sums():
    t = LieType.of("C", 3)
    for p in enumerate_partitions(t):
        n = multiplicities_formula(t, p)
        dim_c, dim_g0, dim_v_rho = closed_dims(t, p)
        assert dim_c == n.get(0, 0)
        assert dim_g0 == sum(v for j, v in n.items() if j % 2 == 0)
        assert dim_v_rho == sum(n.values())
        assert sum(v * (j + 1) for j, v in n.items()) == t.dim


def test_trivial_orbit_data():
    t = LieType.of("A", 3)
    p = Partition.parse("1^4")
    assert multiplicities_formula(t, p) == {0: t.dim}
    assert closed_dims(t, p)[0] == t.dim


def test_even_triple_flag():
    """Every weight is even exactly when dim g_0 = dim V_rho, the flag the
    criterion reads off the closed dims."""
    t = LieType.of("A", 3)
    for parts, even in (("2^2", True), ("2,1,1", False)):
        p = Partition.parse(parts)
        data = _data_via_grading(t, p)
        assert all(j % 2 == 0 for j, _ in data.n) is even
        assert (data.dim_g0 == data.dim_v_rho) is even
        _, dim_g0, dim_v_rho = closed_dims(t, p)
        assert (dim_g0 == dim_v_rho) is even


def test_data_accessors():
    t = LieType.of("A", 4)
    d = _data_via_grading(t, Partition.parse("2^2,1"))
    assert d.n_at(1) == 4
    assert d.n_at(7) == 0
    assert d.max_weight == 2
    assert d.dim_c == 4
    assert d.dim_g0 == 8
    assert d.dim_v_rho == 12
    assert tuple(d.n_at(j) for j in range(d.max_weight + 1)) == (4, 4, 4)


def test_grading_checks_every_weight_up_to_the_top():
    """n_j = dim g_j - dim g_{j+2} is checked for every j from 0 to the top
    weight, the weights the grading does not list included: here n_1 reads
    dim g_1 = 0 less dim g_3 = 1."""
    grading = GradingDims(LieType.of("A", 1), ((-3, 1), (0, 1), (3, 1)))
    with pytest.raises(InconsistentGradingError, match=r"^n_1 = 0 - 1 < 0$"):
        module_multiplicities(grading)


def test_grading_needs_a_weight_2_summand():
    """A nonzero triple spans a weight-2 summand, so a grading with a
    nonzero weight and n_2 = 0 is refused: here sl2 graded by weights
    -1, 0, 1, whose n_0 = n_1 = 1 sum to its dimension."""
    grading = GradingDims(LieType.of("A", 1), ((-1, 1), (0, 1), (1, 1)))
    with pytest.raises(InconsistentGradingError, match=r"^n_2 = 0, but e, h, f span"):
        module_multiplicities(grading)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["A", "B", "C", "D"]), st.data())
def test_grading_weights_symmetric(letter, data):
    rank = {"A": 1, "B": 2, "C": 2, "D": 3}[letter]
    t = LieType.of(letter, data.draw(st.integers(min_value=rank, max_value=5)))
    parts = list(enumerate_partitions(t))
    p = data.draw(st.sampled_from(parts))
    rs = build_root_system(t)
    g = ad_grading(rs, weighted_dynkin_from_partition(t, p))
    # ad_h spectrum is symmetric and its weight-j multiples recombine into
    # nonnegative module multiplicities
    for w, _ in g.dims:
        assert g.as_dict().get(w, 0) == g.as_dict().get(-w, 0)
    d = module_multiplicities(g)
    assert all(v > 0 for v in d.as_dict().values())
    assert sum(m * (j + 1) for j, m in d.n) == t.dim


def test_formula_and_grading_routes_are_pinned():
    """The Clebsch-Gordan n_j and the diagram grading of every classical
    orbit of rank <= 12 hash to the digest recorded before both routes
    were rewritten (the formula over distinct parts, the grading as a sum
    of coefficient columns)."""
    digest = hashlib.sha256()
    checked = 0
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, 13):
            t = LieType.of(fam, rank)
            rs = build_root_system(t)
            for p in enumerate_partitions(t):
                n = sorted(multiplicities_formula(t, p).items())
                dims = ad_grading(rs, weighted_dynkin_from_partition(t, p)).dims
                digest.update(f"{t.name} {p} {n} {dims}\n".encode())
                checked += 1
    assert checked == 4137
    assert digest.hexdigest() == (
        "26d31da8ca1121b39064e6480d0d6ed80fc1cf9b4bc0cc036690ec0ebd71bd8c")
