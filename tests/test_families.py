"""The per-family fact table and what the generic routines read from it."""

import hashlib

import pytest

from sl2magical.errors import DomainError
from sl2magical.families import FAMILIES, family_spec
from sl2magical.magical import family_parameter_space
from sl2magical.matrixoracle import oracle_sigma_split
from sl2magical.orbits import Partition, enumerate_partitions, enumerate_signed_data
from sl2magical.realforms import centralizer_realform, describe
from sl2magical.sl2data import closed_dims


def test_one_spec_per_classical_tag():
    assert all(spec.tag == tag for tag, spec in FAMILIES.items())


def test_generic_names():
    assert {tag: spec.symbol for tag, spec in FAMILIES.items()} == {
        "su": "su(p,q)", "sl": "sl(n,R)", "sustar": "su*(2m)", "so": "so(p,q)",
        "sostar": "so*(2m)", "spr": "sp(2n,R)", "sp": "sp(2p,2q)"}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_parameter_count_is_checked(tag):
    spec = FAMILIES[tag]
    wrong = (3,) * (3 - spec.arity)
    with pytest.raises(DomainError) as exc:
        family_spec(tag, wrong)
    assert str(exc.value).startswith(f"{spec.symbol} takes {spec.arity} parameter")
    with pytest.raises(DomainError):
        describe(tag, wrong)
    with pytest.raises(DomainError):
        enumerate_signed_data(tag, wrong, Partition.of(1, 1, 1))


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_scan_stays_inside_the_rank_window(tag):
    spec = FAMILIES[tag]
    for params in family_parameter_space(tag, 16):
        d = describe(tag, params)
        n = spec.size(params)
        assert d.ambient.matrix_size == n
        # dim gl_N - 1, so_N, sp_N by their own formulas
        assert d.dim_g_real == {"gl": n * n - 1, "so": n * (n - 1) // 2,
                                "sp": n * (n + 1) // 2}[spec.algebra]
        assert spec.s(params) == d.s  # the table's s, which the classify walk reads


def test_cartan_dims_two_routes():
    """The form's (dim h, dim m), read off the factor table at its zero
    orbit, against the root count of its complexification and against the
    centralizer of its one zero datum [1^N], on all 141 forms of size <= 12."""
    forms = 0
    for tag, spec in FAMILIES.items():
        for params in family_parameter_space(tag, 12):
            dims = spec.cartan(params)
            assert sum(dims) == describe(tag, params).ambient.dim, (tag, params)
            (zero,) = enumerate_signed_data(tag, params, Partition((1,) * spec.size(params)))
            c = centralizer_realform(zero)
            assert (c.dim_h, c.dim_m) == dims, (tag, params)
            forms += 1
    assert forms == 141


def test_gl_type_centralizer_compact_only_with_one_real_line():
    # the trace condition of s(...) removes one real line, not two
    (one,) = enumerate_signed_data("sustar", (3,), Partition.parse("3,3"))
    assert str(centralizer_realform(one)) == "s(u*(2))"
    assert centralizer_realform(one).is_compact
    (two,) = enumerate_signed_data("sustar", (3,), Partition.parse("2,2,1,1"))
    assert str(centralizer_realform(two)) == "s(u*(2)+u*(2))"
    assert not centralizer_realform(two).is_compact


# The sign rules and centralizer factors of each family, written out from
# Collingwood-McGovern, Thms 9.3.3-9.3.5: signed parities, forced split,
# signature rule, size factor, the (dim h, dim m) line that s(...) removes,
# and the name and (dim h, dim m) of signed_factor(1, 2) (None: no signed
# part) and of unsigned_factor(4).  dim h is that of the factor's maximal
# compact subalgebra.  sl's signed and su's unsigned factor follow from the
# gl row of the factor table; neither family has such a part.  Last, the
# Cartan split (CM ch. 9): the square of one row in g_C (so, sp), in k_C
# (sl, su*) or End V (su), and whether k_C holds the box pairs of equal
# signs, or of opposite signs, V+ x V- being in k_C; None: no V+ and V-.
SIGN_RULES = {
    "su": ((0, 1), False, True, 1, (1, 0), ("u(1,2)", (5, 4)), ("gl(4,R)", (6, 10)),
           ("End", True)),
    "sl": ((), False, False, 1, (0, 1), ("u(1,2)", (5, 4)), ("gl(4,R)", (6, 10)),
           ("L2", None)),
    "sustar": ((), False, False, 2, (0, 1), None, ("u*(8)", (36, 28)), ("S2", None)),
    "so": ((1,), True, True, 1, (0, 0), ("so(1,2)", (1, 2)), ("sp(4,R)", (4, 6)),
           ("L2", True)),
    "sostar": ((0,), False, False, 2, (0, 0), ("sp(2,4)", (13, 8)), ("so*(8)", (16, 12)),
               ("L2", False)),
    "spr": ((0,), True, False, 2, (0, 0), ("so(1,2)", (1, 2)), ("sp(4,R)", (4, 6)),
            ("S2", False)),
    "sp": ((1,), False, True, 2, (0, 0), ("sp(2,4)", (13, 8)), ("so*(8)", (16, 12)),
           ("S2", True)),
}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_derived_sign_rules_and_factors(tag):
    spec = FAMILIES[tag]
    signed = tuple(f(1, 2) for f in spec.signed_factor) if spec.signed_factor else None
    unsigned = tuple(f(4) for f in spec.unsigned_factor)
    assert (spec.signed_parities, spec.forced_split, spec.signature_rule, spec.size_factor,
            spec.trace, signed, unsigned, (spec.square, spec.k_agrees)) == SIGN_RULES[tag]


def test_su_data_never_reach_the_unsigned_branch():
    spec = FAMILIES["su"]
    data = [d for params in family_parameter_space("su", 8)
            for p in enumerate_partitions(describe("su", params).ambient)
            for d in enumerate_signed_data("su", params, p)]
    assert data
    for d in data:
        assert all(i % 2 in spec.signed_parities for i in d.partition.multiplicities())
        assert all(f.startswith("u(") for f in centralizer_realform(d).factors)


def test_centralizer_digest():
    """str(centralizer_realform(d)) and is_compact of every signed datum of
    every form of size <= 8, compact or not, hashed to the digest recorded
    while each family still stated its sign rules and factor names by hand:
    69 forms, 1,861 data, 575 compact.  The factors' dims, net of the trace
    line, sum to the closed formula's dim c on each."""
    digest = hashlib.sha256()
    forms = data = compact = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 8):
            forms += 1
            ambient = describe(family, params).ambient
            for p in enumerate_partitions(ambient):
                for d in enumerate_signed_data(family, params, p):
                    c = centralizer_realform(d)
                    assert c.dim_h + c.dim_m == closed_dims(ambient, p)[0], d
                    digest.update(f"{family} {params} {d} {c} {c.is_compact}\n".encode())
                    data += 1
                    compact += c.is_compact
    assert (forms, data, compact) == (69, 1861, 575)
    assert digest.hexdigest() == (
        "5232c7ab2b1ab7e1c1d52643be84e07c68586435779550d2c7283c3340b541d4")


def test_centralizer_dims_are_the_oracle_split():
    """The factors' (dim h, dim m), net of the trace line, are the
    oracle's split of c = V_0 by the Cartan involution, on each of the
    5,484 signed data of the seven families of size <= 10."""
    checked = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 10):
            for p in enumerate_partitions(describe(family, params).ambient):
                for d in enumerate_signed_data(family, params, p):
                    c = centralizer_realform(d)
                    split = dict(oracle_sigma_split(d).splits).get(0, (0, 0))
                    assert (c.dim_h, c.dim_m) == split, d
                    checked += 1
    assert checked == 5484
