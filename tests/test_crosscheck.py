"""The consistency suite: one shared walk for the two orbit checks."""

import sys
from collections import Counter

from sl2magical import crosscheck, orbits
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
            for q in enumerate_partitions(t):
                if (t.name, q) == (name, p):
                    return index
                index += 1
    raise AssertionError(f"{name} {p} is not in the walk")


def test_one_wrong_oracle_orbit_fails_only_the_oracle_check(monkeypatch):
    """An oracle wrong on one orbit stops the oracle check there, with the
    orbit's index as its case count; the parity lemma, reading the same
    walk, still covers all 272 orbits, and each orbit's closed dims are
    computed once for both checks."""
    target = Partition.parse("2^2,1^2")
    original = crosscheck.oracle_sl2_data

    def wrong_on_target(t, p, tables=None):
        data = original(t, p, tables)
        if (t.name, p) == ("C3", target):
            return Sl2Data(n=((0, data.dim_g),), dim_g=data.dim_g)
        return data

    dims_calls = []
    original_dims = crosscheck.closed_dims

    def counted_dims(t, p):
        dims_calls.append((t, p))
        return original_dims(t, p)

    monkeypatch.setattr(crosscheck, "oracle_sl2_data", wrong_on_target)
    monkeypatch.setattr(crosscheck, "closed_dims", counted_dims)
    oracle, parity, table_rows, dataset = crosscheck.run_all(6)
    assert not oracle.passed
    assert oracle.detail.startswith(f"C3 {target}: formula ")
    assert oracle.cases == _walk_index("C3", target) > 0
    assert parity.passed and parity.cases == 272, parity.detail
    assert table_rows.passed and dataset.passed
    assert len(dims_calls) == len(set(dims_calls)) == 272


def test_each_orbit_is_validated_four_times(monkeypatch):
    """run_all(6) validates each orbit of the walk four times: closed_dims,
    multiplicities_formula, weighted_dynkin_from_partition and
    oracle_sl2_data, once each; the table rows add one validation per
    multiplicities_formula row they read."""
    calls = []
    original = orbits.check_partition

    def counted(t, p):
        calls.append((t.name, p))
        return original(t, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("sl2magical") and getattr(module, "check_partition", None) is original:
            monkeypatch.setattr(module, "check_partition", counted)
    rows = []
    original_row = crosscheck._n_row

    def counted_row(t, p, top):
        rows.append((t.name, p))
        return original_row(t, p, top)

    monkeypatch.setattr(crosscheck, "_n_row", counted_row)
    results = crosscheck.run_all(6)
    assert all(r.passed for r in results)
    walk = [(t.name, p) for t, _, p in crosscheck._orbits(6)]
    assert len(walk) == 272 and len(rows) == 19
    assert Counter(calls) == Counter({orbit: 4 for orbit in walk}) + Counter(rows)
