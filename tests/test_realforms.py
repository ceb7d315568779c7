"""Real-form descriptors, Hermitian flags and triple centralizers."""

import pytest

from sl2magical.errors import DomainError
from sl2magical.families import FAMILIES
from sl2magical.magical import family_parameter_space
from sl2magical.orbits import Partition, enumerate_signed_data
from sl2magical.realforms import (
    EXCEPTIONAL_FORMS,
    centralizer_realform,
    describe,
    milnor_wood,
    restricted_root_checksum,
)


@pytest.mark.parametrize("family,params,name,dim_h,dim_m", [
    ("su", (2, 3), "su(2,3)", 12, 12),
    ("su", (1, 1), "su(1,1)", 1, 2),
    ("sl", (4,), "sl(4,R)", 6, 9),
    ("sustar", (2,), "su*(4)", 10, 5),
    ("so", (2, 3), "so(2,3)", 4, 6),
    ("so", (3, 4), "so(3,4)", 9, 12),
    ("sostar", (4,), "so*(8)", 16, 12),
    ("spr", (2,), "sp(4,R)", 4, 6),
    ("sp", (1, 2), "sp(2,4)", 13, 8),
])
def test_classical_descriptors(family, params, name, dim_h, dim_m):
    d = describe(family, params)
    assert d.name == name
    assert d.dim_h == dim_h
    assert d.dim_m == dim_m
    assert d.s == dim_m - dim_h
    assert d.dim_g_real == dim_h + dim_m


def test_describe_gives_one_descriptor_per_form():
    """A repeated form, its params as a list or a tuple, is the same
    descriptor, so its ambient is found once."""
    form = describe("su", [2, 3])
    assert describe("su", (2, 3)) is form and form.params == (2, 3)
    assert form.ambient is describe("su", [2, 3]).ambient
    assert describe("E6^-14") is describe("E6^-14", [])
    assert describe("su", (3, 2)) is not form


def test_compact_dual_dimension_splits():
    # dim h + dim m must always equal the real dimension of the form
    for family, params, dim_g in [("su", (3, 3), 35), ("so", (4, 4), 28),
                                  ("sostar", (5,), 45), ("spr", (4,), 36),
                                  ("sp", (2, 2), 36), ("sustar", (3,), 35),
                                  ("sl", (6,), 35)]:
        d = describe(family, params)
        assert d.dim_h + d.dim_m == d.dim_g_real == dim_g


def test_hermitian_and_tube_flags():
    assert describe("su", (2, 2)).tube_type
    assert describe("su", (2, 3)).hermitian and not describe("su", (2, 3)).tube_type
    assert describe("sl", (2,)).hermitian
    assert not describe("sl", (3,)).hermitian
    assert describe("so", (2, 5)).hermitian and describe("so", (2, 5)).tube_type
    assert not describe("so", (3, 4)).hermitian
    assert describe("sostar", (4,)).tube_type
    assert describe("sostar", (5,)).hermitian and not describe("sostar", (5,)).tube_type
    assert describe("spr", (3,)).tube_type
    assert not describe("sp", (2, 2)).hermitian
    assert not describe("sustar", (3,)).hermitian


def test_maximal_subtube_pointers():
    assert describe("su", (2, 4)).maximal_subtube == "su(2,2)"
    assert describe("sostar", (5,)).maximal_subtube == "so*(8)"
    assert describe("su", (3, 3)).maximal_subtube is None


def test_descriptor_guards():
    for family, params in [("su", (0, 3)), ("sl", (1,)), ("so", (1, 3)),
                           ("sostar", (2,)), ("sustar", (1,)), ("sp", (0, 1))]:
        with pytest.raises(DomainError):
            describe(family, params)
    with pytest.raises(DomainError):
        describe("gl", (3,))


def test_exceptional_tokens_complete():
    """Each token X^s gives its type X and s; dim h = (dim g - s)/2 is
    pinned here for all twelve."""
    dim_h = {"E6^6": 36, "E6^2": 38, "E6^-14": 46, "E6^-26": 52, "E7^7": 63,
             "E7^-5": 69, "E7^-25": 79, "E8^8": 120, "E8^-24": 136, "F4^4": 24,
             "F4^-20": 36, "G2^2": 6}
    assert list(EXCEPTIONAL_FORMS) == list(dim_h)
    for token, want in dim_h.items():
        d = describe(token)
        assert (d.dim_h, d.ambient.name) == (want, token.split("^")[0])
        assert d.name == token
        assert d.is_exceptional


def test_e6_hermitian_form():
    d = describe("E6^-14")
    assert d.hermitian and not d.tube_type
    assert d.maximal_subtube == "so(2,8)"
    assert d.dim_g_real == 78
    assert d.s == -14


def test_sostar6_s_value():
    assert describe("sostar", (3,)).s == -3


def test_sl_centralizer_compact_only_for_principal():
    (principal,) = enumerate_signed_data("sl", (4,), Partition.parse("4"))
    assert centralizer_realform(principal).is_compact
    (sub,) = enumerate_signed_data("sl", (4,), Partition.parse("2,1,1"))
    cz = centralizer_realform(sub)
    assert not cz.is_compact
    assert "gl" in str(cz)


def test_split_forms_have_full_rank():
    for family, params in [("sl", (5,)), ("so", (3, 4)), ("so", (4, 4)),
                           ("spr", (3,))]:
        d = describe(family, params)
        assert d.ss_rank == d.ambient.rank
    assert describe("su", (2, 3)).ss_rank == 2


def test_restricted_root_checksums():
    """rank + sum of root multiplicities = dim m, for every classical form
    of size <= 12 and each exceptional token, whose dim h is derived from
    the token."""
    forms = [describe(family, params) for family in FAMILIES
             for params in family_parameter_space(family, 12)]
    for d in forms + [describe(token) for token in EXCEPTIONAL_FORMS]:
        assert restricted_root_checksum(d), d.name
        assert d.ss_rank <= d.ambient.rank, d.name


def test_milnor_wood_values():
    assert milnor_wood(describe("su", (2, 2)), 2) == 4
    assert milnor_wood(describe("su", (3, 3)), 3) == 12
    assert milnor_wood(describe("spr", (4,)), 2) == 8
    assert milnor_wood(describe("E6^-14"), 2) == 4


def test_milnor_wood_guards():
    with pytest.raises(DomainError):
        milnor_wood(describe("sp", (2, 2)), 2)  # not Hermitian
    with pytest.raises(DomainError):
        milnor_wood(describe("su", (2, 2)), 1)


def test_su_centralizer_compactness():
    p = Partition.parse("2^2,1")
    verdicts = {}
    for signed in enumerate_signed_data("su", (2, 3), p):
        verdicts[signed.sign_split(2)] = centralizer_realform(signed).is_compact
    assert verdicts == {(2, 0): True, (1, 1): False, (0, 2): True}


def test_su_centralizer_str():
    signed = next(s for s in enumerate_signed_data("su", (2, 3), Partition.parse("2^2,1"))
                  if s.sign_split(2) == (2, 0))
    assert str(centralizer_realform(signed)) == "s(u(2,0)+u(0,1))"


def test_so_even_part_forces_noncompact():
    # a balanced even row contributes sp(2r,R), never compact
    for signed in enumerate_signed_data("so", (3, 4), Partition.parse("3,2,2")):
        assert not centralizer_realform(signed).is_compact


def test_spr_odd_part_forces_noncompact():
    for signed in enumerate_signed_data("spr", (3,), Partition.parse("3,3")):
        assert not centralizer_realform(signed).is_compact


def test_families_constant():
    assert set(FAMILIES) == {"su", "sl", "sustar", "so", "sostar", "spr", "sp"}
