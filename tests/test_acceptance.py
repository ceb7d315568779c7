"""Acceptance suite: one test per headline claim, exact integer checks.

Each test prints a single PASS line (visible under -s); a failure surfaces
as an ordinary pytest failure for that claim.
"""

from pathlib import Path

from sl2magical.cli import main
from sl2magical.crosscheck import run_all
from sl2magical.dataset import evaluate_conditions, load_records
from sl2magical.magical import (
    Verdict,
    admits_even_magical,
    classify_family,
    extended_magical_status,
    family_parameter_space,
)
from sl2magical.moduli import rigidity_report
from sl2magical.orbits import (
    Partition,
    enumerate_partitions,
    enumerate_signed_data,
    orbit_labels,
)
from sl2magical.realforms import (
    centralizer_realform,
    describe,
    exceptional_s_value,
    milnor_wood,
)
from sl2magical.rootsystems import (
    LieType,
    WeightedDynkinDiagram,
    ad_grading,
    build_root_system,
)
from sl2magical.sl2data import module_multiplicities, multiplicities_formula


def test_1_su_odd_family_table():
    """su(p,q), [2^p,1^(q-p)]: n-row and s in closed form, s = n2 - n0."""
    for q in range(2, 7):
        for p in range(1, q):
            t = LieType.of("A", p + q - 1)
            part = Partition((2,) * p + (1,) * (q - p))
            n = multiplicities_formula(t, part)
            assert n.get(0, 0) == p * p - 1 + (q - p) ** 2, (p, q)
            assert n.get(1, 0) == 2 * p * (q - p), (p, q)
            assert n.get(2, 0) == p * p, (p, q)
            s = describe("su", (p, q)).s
            assert s == 1 - (q - p) ** 2, (p, q)
            assert s == n.get(2, 0) - n.get(0, 0), (p, q)
    print("PASS: su(p,q) odd-family table rows, 1 <= p < q <= 6")


def test_2_sostar_odd_family_table():
    """so*(4m+2), [2^(2m),1^2]: n-row and s in closed form."""
    for m in range(1, 5):
        mm = 2 * m + 1  # so*(2 mm), ambient D_mm
        t = LieType.of("D", mm)
        part = Partition((2,) * (2 * m) + (1, 1))
        n = multiplicities_formula(t, part)
        assert n.get(0, 0) == m * (2 * m + 1) + 1, m
        assert n.get(1, 0) == 4 * m, m
        assert n.get(2, 0) == m * (2 * m - 1), m
        assert describe("sostar", (mm,)).s == -2 * m - 1, m
        assert describe("sostar", (mm,)).s == n.get(2, 0) - n.get(0, 0), m
    print("PASS: so*(4m+2) odd-family table rows, m = 1..4")


def test_3_e6_odd_diagram():
    """The E6 odd-magical diagram: n = (22, 16, 8), total 78, s = -14."""
    t = LieType.of("E6")
    wdd = WeightedDynkinDiagram(lie_type=t, labels=(1, 0, 0, 0, 0, 1))
    d = module_multiplicities(ad_grading(build_root_system(t), wdd))
    assert d.as_dict() == {0: 22, 1: 16, 2: 8}
    assert sum(m * (j + 1) for j, m in d.n) == 78
    s = exceptional_s_value("E6^-14")
    assert s == -14
    assert s == d.n_at(2) - d.n_at(0)
    print("PASS: E6 odd diagram (1,0,0,0,0,1) gives n=(22,16,8), s=-14=n2-n0")


# the classification theorem, classical half: every magical orbit within
# the stated bounds, written out family by family
_EXPECTED_ODD = (
    [("su", (p, q), str(Partition((2,) * p + (1,) * (q - p))), "OddMagical")
     for q in range(2, 8) for p in range(1, q) if p + q <= 8]
    + [("sostar", (m,), str(Partition((2,) * (m - 1) + (1, 1))), "OddMagical")
       for m in (3, 5, 7)]
)

_EXPECTED_EVEN = (
    [("su", (p, p), f"[2^{p}]", "EvenMagical") for p in (2, 3, 4)]
    + [("su", (1, 1), "[2]", "EvenMagical")]
    + [("sl", (n,), f"[{n}]", "EvenMagical") for n in range(2, 7)]
    + [("so", (2, 3), "[5]", "EvenMagical"),
       ("so", (2, 3), "[3,1^2]", "EvenMagical"),
       ("so", (3, 3), "[5,1]", "EvenMagical"),
       ("so", (2, 4), "[3,1^3]", "EvenMagical"),
       ("so", (2, 5), "[3,1^4]", "EvenMagical"),
       ("so", (3, 4), "[7]", "EvenMagical"),
       ("so", (3, 4), "[5,1^2]", "EvenMagical"),
       ("so", (2, 6), "[3,1^5]", "EvenMagical"),
       ("so", (3, 5), "[5,1^3]", "EvenMagical"),
       ("so", (4, 4), "[7,1]", "EvenMagical")]
    + [("sostar", (4,), "[2^4]_I", "EvenMagical"),
       ("sostar", (4,), "[2^4]_II", "EvenMagical"),
       ("sostar", (6,), "[2^6]_I", "EvenMagical"),
       ("sostar", (6,), "[2^6]_II", "EvenMagical")]
    + [("spr", (n,), f"[{2 * n}]", "EvenMagical") for n in (2, 3, 4)]
    + [("spr", (n,), f"[2^{n}]", "EvenMagical") for n in (2, 3, 4)]
)

_SCAN_BOUNDS = {"su": 8, "sostar": 7, "sl": 6, "sustar": 3, "spr": 4,
                "sp": 4, "so": 8}


def test_4_classification_theorem_classical():
    """Exhaustive scan equals the stated odd list plus the permitted evens."""
    got = set()
    for family, bound in _SCAN_BOUNDS.items():
        for row in classify_family(family, bound):
            got.add((family, row.params, str(row.label), str(row.status.verdict)))
    expected = set(_EXPECTED_ODD) | set(_EXPECTED_EVEN)
    assert got == expected, (sorted(got - expected), sorted(expected - got))

    # even rows appear exactly on the real forms the membership predicate admits
    for family, bound in _SCAN_BOUNDS.items():
        for params in family_parameter_space(family, bound):
            has_even = any(g[3] == "EvenMagical" for g in got
                           if g[0] == family and g[1] == params)
            assert has_even == admits_even_magical(family, params), (family, params)
    print(f"PASS: classical classification, {len(expected)} magical rows, "
          "evens exactly on admitting forms")


def test_5_classification_theorem_exceptional():
    """Dataset conditions: E6^-14 all-true, E7^7 fails (b), E6^-26 fails (a)."""
    records = {(r.realform, tuple(r.wdd)): r for r in load_records()}
    winners = [r.realform for r in records.values()
               if evaluate_conditions(r).all_hold]
    assert winners == ["E6^-14"]

    e7 = evaluate_conditions(records[("E7^7", (1, 0, 0, 1, 0, 1, 0))])
    assert (e7.a, e7.b, e7.c) == (True, False, True)

    e6o = records[("E6^-26", (1, 0, 0, 0, 0, 1))]
    assert e6o.sl2_data().n_at(0) == 22
    assert e6o.dim_c_cap_h == 21  # 22 != 21 sinks condition (a)
    assert not evaluate_conditions(e6o).a
    print("PASS: dataset conditions pick exactly E6^-14; E7^7 fails (b); "
          "E6^-26 fails (a) via 22 != 21")


def test_6_oracle_equivalence():
    """Formulas, diagram grading and matrix oracle agree on every orbit."""
    result = run_all(6)[0]
    assert result.passed, result.detail
    assert result.cases == 272  # every A/B/C/D orbit of rank <= 6
    print(f"PASS: oracle equivalence on {result.cases} orbits of rank <= 6")


def test_7_parity_lemma():
    """dim g0 = dim V_rho exactly for single-parity partitions."""
    result = run_all(6)[1]
    assert result.passed, result.detail
    assert result.cases == 272  # every A/B/C/D orbit of rank <= 6
    print(f"PASS: parity lemma on {result.cases} orbits of rank <= 6")


def test_8_moduli_arithmetic():
    """Rigidity: gap 0 iff even magical; Teichmueller count; MW bounds."""
    checked = 0
    for params in family_parameter_space("su", 6):
        ambient = describe("su", params).ambient
        for p in enumerate_partitions(ambient):
            for label in orbit_labels(ambient, p):
                for signed in enumerate_signed_data("su", params, p):
                    if not centralizer_realform(signed).is_compact:
                        continue
                    status = extended_magical_status(signed)
                    report = rigidity_report(2, signed)
                    if status.verdict is Verdict.EVEN_MAGICAL:
                        assert report.gap == 0, (params, str(label))
                    else:
                        assert report.gap > 0, (params, str(label))
                    checked += 1

    for g in range(2, 11):
        (signed,) = enumerate_signed_data("sl", (2,), Partition((2,)))
        r = rigidity_report(g, signed)
        assert r.slodowy_param_dim == 6 * g - 6, g
        assert r.gap == 0, g

    hermitian_catalog = [("su", (2, 3)), ("su", (3, 3)), ("sl", (2,)),
                         ("spr", (3,)), ("sostar", (4,)), ("sostar", (5,)),
                         ("so", (2, 5)), ("so", (2, 6)), ("E6^-14", ()),
                         ("E7^-25", ())]
    for family, params in hermitian_catalog:
        d = describe(family, params)
        for g in (2, 3, 5):
            assert milnor_wood(d, g) == d.ss_rank * (2 * g - 2), (family, g)
    print(f"PASS: rigidity gap iff not even magical ({checked} compact data), "
          "principal sl(2,R) count 6g-6, Milnor-Wood = rank (2g-2)")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_9_geometric_results_out_of_scope():
    """The geometric theorems are documented as out of scope, not computed."""
    text = README.read_text()
    assert "out of scope" in text.lower()
    for phrase in ("Cayley", "Hodge"):
        assert phrase in text, phrase
    print("PASS: geometric theorems documented as out of scope in README")


def test_10_readme_examples_print_what_it_shows(capsys):
    """The README's orbit command prints, byte for byte, the json shown in
    the comment lines under it, and each print of its library example
    prints the comment on its line."""
    text = README.read_text()
    lines = text.splitlines()
    start = lines.index("sl2magical orbit A 4 --partition 2,2,1 --format json")
    shown = []
    for line in lines[start + 1:]:
        if not line.startswith("#"):
            break
        shown.append(line[1:].strip())
    assert main(lines[start].split()[1:]) == 0
    assert capsys.readouterr().out == " ".join(shown) + "\n"

    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if "print(" in line]
    assert comments == ["su(2,3) [2^2,1]: OddMagical", "8"]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == comments
    print("PASS: README orbit json and library example reproduced")
