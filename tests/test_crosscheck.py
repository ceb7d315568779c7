"""The consistency suite: one shared walk for the two orbit checks."""

from sl2magical import crosscheck
from sl2magical.orbits import Partition, enumerate_partitions
from sl2magical.rootsystems import CLASSICAL_MIN_RANK, LieType
from sl2magical.sl2data import Sl2Data


def _walk_index(name, p, max_rank=6):
    """Position of the orbit p of name in the walk over every classical
    orbit of rank <= max_rank: families A, B, C, D, ranks ascending."""
    index = 0
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, max_rank + 1):
            t = LieType.of(fam, rank)
            for q in enumerate_partitions(t, t.matrix_size):
                if (t.name, q) == (name, p):
                    return index
                index += 1
    raise AssertionError(f"{name} {p} is not in the walk")


def test_one_wrong_oracle_orbit_fails_only_the_oracle_check(monkeypatch):
    """An oracle wrong on one orbit stops the oracle check there, with the
    orbit's index as its case count; the parity lemma, reading the same
    walk, still covers all 272 orbits, and each orbit's closed dim g_0 is
    computed once for both checks."""
    target = Partition.parse("2^2,1^2")
    original = crosscheck.oracle_sl2_data

    def wrong_on_target(layout, tables=None):
        data = original(layout, tables)
        if (layout.algebra, layout.partition) == ("sp", target):
            return Sl2Data(n=((0, data.dim_g),), dim_g=data.dim_g)
        return data

    g0_calls = []
    original_g0 = crosscheck.dim_g0_formula

    def counted_g0(t, p):
        g0_calls.append((t, p))
        return original_g0(t, p)

    monkeypatch.setattr(crosscheck, "oracle_sl2_data", wrong_on_target)
    monkeypatch.setattr(crosscheck, "dim_g0_formula", counted_g0)
    oracle, parity, table_rows, dataset = crosscheck.run_all(6)
    assert not oracle.passed
    assert oracle.detail.startswith(f"C3 {target}: formula ")
    assert oracle.cases == _walk_index("C3", target) > 0
    assert parity.passed and parity.cases == 272, parity.detail
    assert table_rows.passed and dataset.passed
    assert len(g0_calls) == len(set(g0_calls)) == 272
