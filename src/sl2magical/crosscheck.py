"""Consistency suite tying the computation routes together.

Each check runs a family of exact comparisons and reports the first
counterexample it finds, if any.  The oracle check is the backbone: on
every classical partition orbit up to a rank bound, the closed
Clebsch-Gordan formulas, the root-space grading pipeline, and the matrix
nullity oracle must produce identical multiplicities and dimensions.
The oracle check and the parity lemma share one walk over those orbits:
each orbit's closed dims are computed once and read by both, while each
check keeps its own case count and first counterexample.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple

from .dataset import evaluate_conditions, load_records
from .errors import DatasetSchemaError, MissingDataError
from .matrixoracle import Tables, oracle_sl2_data
from .orbits import Partition, enumerate_partitions, weighted_dynkin_from_partition
from .realforms import describe
from .rootsystems import (
    CLASSICAL_MIN_RANK,
    LieType,
    RootSystem,
    WeightedDynkinDiagram,
    ad_grading,
    build_root_system,
)
from .sl2data import closed_dims, module_multiplicities, multiplicities_formula


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str = ""  # minimal counterexample, empty when passed


def _orbits(max_rank: int) -> Iterator[Tuple[LieType, RootSystem, Partition]]:
    """Every classical orbit up to the rank bound, with its root system."""
    for fam in "ABCD":
        for rank in range(CLASSICAL_MIN_RANK[fam], max_rank + 1):
            t = LieType.of(fam, rank)
            rs = build_root_system(t)
            for p in enumerate_partitions(t):
                yield t, rs, p


def _oracle_mismatch(t: LieType, p: Partition, rs: RootSystem, tables: Tables,
                     dims: Tuple[int, int, int]) -> str:
    """Formula vs grading vs matrix oracle vs closed dims on one orbit: the
    counterexample, or "" when all agree."""
    formula = multiplicities_formula(t, p)
    graded = module_multiplicities(ad_grading(rs, weighted_dynkin_from_partition(t, p))).as_dict()
    oracle = oracle_sl2_data(t, p, tables).as_dict()
    if not formula == graded == oracle:
        return f"{t.name} {p}: formula {formula}, grading {graded}, oracle {oracle}"
    sums = (formula.get(0, 0), sum(m for j, m in formula.items() if j % 2 == 0),
            sum(formula.values()))
    if dims != sums:
        return f"{t.name} {p}: closed dims {dims} != {sums}"
    return ""


def _parity_mismatch(t: LieType, p: Partition, g0: int, v: int) -> str:
    """dim g_0 = dim V_rho against single parity on one orbit: the
    counterexample, or "" when they agree."""
    single_parity = len({part % 2 for part in p.parts}) == 1
    if (g0 == v) == single_parity:
        return ""
    return f"{t.name} {p}: dim g_0 = dim V_rho is {g0 == v}, single parity is {single_parity}"


def _orbit_checks(max_rank: int) -> Tuple[CheckResult, CheckResult]:
    """Oracle equivalence and the parity lemma in one walk over the orbits
    up to the bound.  Each orbit's closed dims are computed once, by one
    closed_dims call, and read by both checks.  Each check counts its cases up
    to its own first counterexample; the walk ends when both have one."""
    oracle = parity = ""
    oracle_cases = parity_cases = 0
    tables: Tables = {}
    for t, rs, p in _orbits(max_rank):
        dims = closed_dims(t, p)
        if not oracle:
            oracle = _oracle_mismatch(t, p, rs, tables, dims)
            if not oracle:
                oracle_cases += 1
        if not parity:
            parity = _parity_mismatch(t, p, dims[1], dims[2])
            if not parity:
                parity_cases += 1
        if oracle and parity:
            break
    return (CheckResult("oracle-equivalence", not oracle, oracle_cases, oracle),
            CheckResult("parity-lemma", not parity, parity_cases, parity))


def _n_row(t: LieType, p: Partition, top: int) -> tuple:
    n = multiplicities_formula(t, p)
    return tuple(n.get(j, 0) for j in range(top + 1))


def check_table_rows() -> CheckResult:
    """The odd-family sl2-data rows in closed form, with s = n_2 - n_0."""
    name = "table-rows"
    # (form, its partition's parts, n_0..n_2 wanted, s wanted)
    forms = [(describe("su", (p, q)), [2] * p + [1] * (q - p),
              (p * p - 1 + (q - p) ** 2, 2 * p * (q - p), p * p), 1 - (q - p) ** 2)
             for q in range(2, 7) for p in range(1, q)]
    forms += [(describe("sostar", (2 * m + 1,)), [2] * (2 * m) + [1, 1],  # so*(4m+2)
               (m * (2 * m + 1) + 1, 4 * m, m * (2 * m - 1)), -(2 * m + 1)) for m in range(1, 5)]
    for cases, (form, parts, want, s_want) in enumerate(forms):
        got = _n_row(form.ambient, Partition.of(*parts), 2)
        s = form.s
        if got != want or s != got[2] - got[0] or s != s_want:
            return CheckResult(name, False, cases, f"{form.name}: n {got}, expected {want}, s {s}")
    cases = len(forms)
    t = LieType.of("E6")
    wdd = WeightedDynkinDiagram(lie_type=t, labels=(1, 0, 0, 0, 0, 1))
    data = module_multiplicities(ad_grading(build_root_system(t), wdd))
    row = tuple(data.n_at(j) for j in range(3))
    s = describe("E6^-14").s
    total = sum(m * (j + 1) for j, m in data.n)
    if row != (22, 16, 8) or total != 78 or s != row[2] - row[0]:
        return CheckResult(name, False, cases,
                           f"E6 odd diagram: n {row}, sum {total}, s {s}")
    cases += 1
    return CheckResult(name, True, cases)


#: Each shipped record's (compact centralizer, dim m - dim h = dim g_0 - 2 dim c).
_RECORD_WITNESSES = {"E6^-14": (True, True), "E7^7": (True, False),
                     "E8^8": (True, False), "E6^-26": (False, False)}


def check_dataset_conditions() -> CheckResult:
    """Exactly the odd E6^-14 record is magical, and each record of a
    shipped form has that form's (compact, equality) pair."""
    name = "dataset-conditions"
    try:
        records = load_records()
    except (DatasetSchemaError, MissingDataError) as exc:
        return CheckResult(name, False, 0, str(exc))
    winners = []
    for cases, rec in enumerate(records):
        w = evaluate_conditions(rec).witness
        if w.verdict.is_magical:
            winners.append(rec.realform)
        got = (w.centralizer_compact, w.m_minus_h == w.g0_minus_2c)
        want = _RECORD_WITNESSES.get(rec.realform, got)
        if got != want:
            return CheckResult(name, False, cases,
                               f"{rec.realform} (compact, equality) {got}, expected {want}")
    if winners != ["E6^-14"]:
        return CheckResult(name, False, len(records),
                           f"magical records {winners}, expected ['E6^-14']")
    return CheckResult(name, True, len(records))


def run_all(max_rank: int = 6) -> List[CheckResult]:
    return [
        *_orbit_checks(max_rank),
        check_table_rows(),
        check_dataset_conditions(),
    ]
