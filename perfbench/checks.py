"""Output checks for the benchmark's commands.

Outputs are parsed and compared field by field against values fixed in
advance, never byte by byte, so that an added output field does not count
as a failure.  Each check returns None when the output is right, or a
one-line reason.

The fixed values are the source paper's results (odd verdicts exactly at
su(p,q) [2^p,1^(q-p)] for p < q, so*(4m+2) [2^(2m),1^2] and E6^-14; gap 0
exactly on even magical data; 6g-6 for the principal sl(2,R) orbit), the
verify case count, and the classify verdicts in classify_reference.json.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REFERENCE_PATH = Path(__file__).with_name("classify_reference.json")

#: Row fields compared against the reference; other fields are ignored.
ROW_FIELDS = ("orbit", "verdict", "m_minus_h", "g0_minus_2c", "centralizer_compact",
              "even_triple")

VERIFY_CHECKS = ("oracle-equivalence", "parity-lemma", "table-rows", "dataset-conditions")
ORACLE_CASES_RANK_10 = 1818

E6_ODD_ORBIT = "wdd 1 0 0 0 0 1"

Reference = Dict[str, Dict]


def load_reference() -> Reference:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def form_key(argv: Sequence[str]) -> str:
    """'su 2 3' for a classify or slodowy argv on su(2,3)."""
    head = []
    for token in argv[1:]:
        if token.startswith("--"):
            break
        head.append(token)
    return " ".join(head)


def partition_label(parts: Sequence[int]) -> str:
    """The package's partition notation, e.g. [2^2,1]."""
    pieces = []
    for part in sorted(set(parts), reverse=True):
        r = list(parts).count(part)
        pieces.append(f"{part}^{r}" if r > 1 else str(part))
    return "[" + ",".join(pieces) + "]"


def odd_orbits(family: str, params: Tuple[int, ...]) -> List[str]:
    """Orbits carrying an odd magical triple, by the paper's classification."""
    if family == "su" and params[0] < params[1]:
        p, q = params
        return [partition_label([2] * p + [1] * (q - p))]
    if family == "sostar" and params[0] % 2 == 1:
        (m,) = params
        return [partition_label([2] * (m - 1) + [1, 1])]
    if family == "E6^-14":
        return [E6_ODD_ORBIT]
    return []


def exit_mismatch(code: int, expected: int) -> str:
    return f"exit {code}, expected {expected}"


def _rows_key(rows: List[Dict]) -> List[tuple]:
    return sorted(tuple(row.get(f) for f in ROW_FIELDS) for row in rows)


def check_classify(argv: Sequence[str], expect_exit: int, code: int, out: str,
                   reference: Reference) -> Optional[str]:
    if code != expect_exit:
        return exit_mismatch(code, expect_exit)
    if expect_exit != 0:
        return None
    doc = json.loads(out)
    key = form_key(argv)
    family, *rest = key.split()
    odd = sorted(r["orbit"] for r in doc["rows"] if r["verdict"] == "OddMagical")
    if odd != odd_orbits(family, tuple(int(x) for x in rest)):
        return f"odd magical rows {odd}"
    ref = reference[key]
    if doc["realform"] != ref["realform"]:
        return f"realform {doc['realform']!r}, expected {ref['realform']!r}"
    if _rows_key(doc["rows"]) != _rows_key(ref["rows"]):
        return "rows differ from the reference verdicts"
    return None


def _dim_real(family: str, params: Tuple[int, ...]) -> int:
    if family == "E6^-14":
        return 78
    n = sum(params)
    return n * n - 1  # su(p,q) and sl(n,R)


def check_slodowy(argv: Sequence[str], expect_exit: int, code: int, out: str,
                  reference: Reference) -> Optional[str]:
    if code != expect_exit:
        return exit_mismatch(code, expect_exit)
    doc = json.loads(out)
    genus = int(argv[argv.index("--genus") + 1])
    key = form_key(argv)
    family, *rest = key.split()
    params = tuple(int(x) for x in rest)
    if "--partition" in argv:
        parts = [int(x) for x in argv[argv.index("--partition") + 1].split(",")]
        orbit = partition_label(parts)
    else:
        orbit = "wdd " + argv[argv.index("--wdd") + 1].replace(",", " ")
    if doc["orbit"] != orbit or doc["genus"] != genus:
        return f"orbit {doc['orbit']!r} genus {doc['genus']}, asked {orbit!r} genus {genus}"
    if doc["expected_dim"] != 2 * (genus - 1) * _dim_real(family, params):
        return f"expected_dim {doc['expected_dim']}"
    if doc["gap"] != doc["expected_dim"] - doc["slodowy_param_dim"]:
        return f"gap {doc['gap']} is not expected_dim - slodowy_param_dim"
    verdicts = {r["orbit"]: r["verdict"] for r in reference[key]["rows"]}
    even = verdicts.get(orbit) == "EvenMagical"
    if (doc["gap"] == 0) != even:
        return f"gap {doc['gap']} but verdict {verdicts.get(orbit, 'NotExtendedMagical')}"
    if key == "sl 2" and orbit == "[2]" and doc["slodowy_param_dim"] != 6 * genus - 6:
        return f"sl(2,R) [2] parameter dim {doc['slodowy_param_dim']}, expected {6 * genus - 6}"
    return None


def check_verify(results) -> Optional[str]:
    names = tuple(r.name for r in results)
    if names != VERIFY_CHECKS:
        return f"checks {names}"
    failed = [r.name for r in results if not r.passed]
    if failed:
        return f"failed checks {failed}"
    if results[0].cases != ORACLE_CASES_RANK_10:
        return f"oracle-equivalence ran {results[0].cases} cases, expected {ORACLE_CASES_RANK_10}"
    return None
