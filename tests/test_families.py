"""The per-family fact table and what the generic routines read from it."""

import pytest

from sl2magical.errors import DomainError
from sl2magical.families import FAMILIES, family_spec
from sl2magical.magical import family_parameter_space
from sl2magical.orbits import Partition, enumerate_signed_data
from sl2magical.realforms import centralizer_realform, describe


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


def test_gl_type_centralizer_compact_only_with_one_real_line():
    # the trace condition of s(...) removes one real line, not two
    (one,) = enumerate_signed_data("sustar", (3,), Partition.parse("3,3"))
    assert str(centralizer_realform(one)) == "s(u*(2))"
    assert centralizer_realform(one).is_compact
    (two,) = enumerate_signed_data("sustar", (3,), Partition.parse("2,2,1,1"))
    assert str(centralizer_realform(two)) == "s(u*(2)+u*(2))"
    assert not centralizer_realform(two).is_compact
