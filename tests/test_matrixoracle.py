"""Matrix sl2-triples as an independent check on the closed formulas."""

import hashlib
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sl2magical import crosscheck, matrixoracle
from sl2magical.errors import DomainError
from sl2magical.linalg import integer_rank
from sl2magical.matrixmodel import (
    ad_e_images,
    eigen_columns,
    identity_involution,
    is_eigen,
    triple_on,
)
from sl2magical.matrixoracle import (
    SigmaSplitReport,
    _key_table,
    _nullity_by_weight,
    _split_table,
    build_matrix_triple,
    oracle_sigma_split,
    oracle_sl2_data,
)
from sl2magical.families import FAMILIES
from sl2magical.magical import family_parameter_space
from sl2magical.moduli import rigidity_report
from sl2magical.orbits import (
    Partition,
    SignedPartitionData,
    enumerate_partitions,
    enumerate_signed_data,
    fold_dims,
    partition_fits_family,
)
from sl2magical.realforms import describe
from sl2magical.rootsystems import (
    CLASSICAL_MIN_RANK,
    CLASSICAL_RANK_CAP,
    SELF_PAIRED_PARITY,
    LieType,
)
from sl2magical.sl2data import multiplicities_formula


def test_triple_weights_come_from_jordan_blocks():
    t = LieType.of("A", 4)
    m = build_matrix_triple(t, Partition.parse("2^2,1"))
    assert m.size == 5
    assert sorted(m.weights) == [-1, -1, 0, 1, 1]


@pytest.mark.parametrize("name,size", [("A4", 5), ("B3", 7), ("C3", 6), ("D4", 8)])
def test_oracle_agrees_with_formula(name, size):
    t = LieType.of(name)
    assert t.matrix_size == size
    for p in enumerate_partitions(t):
        m = build_matrix_triple(t, p)
        n = multiplicities_formula(t, p)
        assert oracle_sl2_data(t, p).as_dict() == oracle_sl2_data(m).as_dict() == n


def _full_route(m):
    """n_j from ranking the whole algebra at once: the nullity of ad_e on
    every tau-fixed column of the triple, less the identity in gl."""
    null = _nullity_by_weight(m, eigen_columns(m, m.tau)[0])
    if m.algebra == "gl":
        null[0] -= 1
    return {j: v for j, v in null.items() if j >= 0 and v}


def test_block_tables_match_the_full_route():
    """n_j summed from the per-key tau tables equals the rank of the whole
    tau-fixed algebra on every classical orbit of rank <= 6, and those
    orbits reach every kind of unit and unit pair."""
    tables = {}
    checked = 0
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, 7):
            t = LieType.of(fam, rank)
            for p in enumerate_partitions(t):
                m = build_matrix_triple(t, p)
                assert oracle_sl2_data(t, p, tables).as_dict() == _full_route(m)
                checked += 1
    assert checked == 272  # the oracle-equivalence cases of verify --max-rank 6
    assert {(model, kind) for model, kind, _, _ in tables} == {("gl", "S"), ("gl", "SS")} | {
        (algebra, kind) for algebra in ("so", "sp") for kind in ("S", "SS", "P", "SP", "PP")}


def test_multiplicity_units_match_the_layout():
    """On every classical orbit of rank <= 8 the units the oracle reads
    from the multiplicity table are the units of its triple, counted by
    (number of strings, length)."""
    checked = 0
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, 9):
            t = LieType.of(fam, rank)
            for p in enumerate_partitions(t):
                laid_out = Counter((len(u), len(u[0]), 1) for u in triple_on(t.algebra, p).units())
                assert matrixoracle._tau_units(t.algebra, p) == laid_out, f"{t.name} {p}"
                checked += 1
    assert checked == 742


def test_parity_rule_holds_exactly_when_the_form_pairs_every_string():
    """For so and sp and every partition of n <= 12, valid or not, the
    parity rule accepts p exactly when triple_on pairs every string of p:
    each one with itself, or with another string of its length."""
    verdicts = Counter()
    for n in range(1, 13):
        partitions = enumerate_partitions(LieType.of("A", n - 1)) if n > 1 else [Partition.of(1)]
        for algebra in ("so", "sp"):
            for p in partitions:
                fits = partition_fits_family(algebra, p)
                try:
                    m = triple_on(algebra, p)
                except AssertionError as exc:
                    assert not fits and "unpaired" in str(exc), f"{algebra} {p}: {exc}"
                else:
                    assert fits, f"{algebra} {p}: the rule rejects a triple that was built"
                    assert sorted(s for u in m.units() for s in u) == sorted(m.strings)
                verdicts[algebra, fits] += 1
    assert verdicts == {("so", True): 111, ("so", False): 160, ("sp", True): 92, ("sp", False): 179}


def test_tau_columns_satisfy_the_dense_form_equation():
    """An M-based route to so(M)/sp(M): M is built as a dense matrix from
    pairing and pairing_sign, and each +1 column X of tau satisfies
    X^T M + M X = 0; the columns number dim g, on every B/C/D orbit of
    rank <= 4."""
    checked = 0
    for fam in "BCD":
        for rank in range(CLASSICAL_MIN_RANK[fam], 5):
            t = LieType.of(fam, rank)
            for p in enumerate_partitions(t):
                m = build_matrix_triple(t, p)
                n = m.size
                form = [[0] * n for _ in range(n)]
                for a in range(n):
                    form[a][m.pairing[a]] = m.pairing_sign[a]
                sym = -1 if fam == "C" else 1
                assert all(form[b][a] == sym * form[a][b] for a in range(n) for b in range(n))
                cols = [x for xs in eigen_columns(m, m.tau)[0].values() for x in xs]
                for x in cols:
                    dense = [[x.get((r, c), 0) for c in range(n)] for r in range(n)]
                    assert all(sum(dense[k][r] * form[k][c] + form[r][k] * dense[k][c]
                                   for k in range(n)) == 0
                               for r in range(n) for c in range(n))
                assert len(cols) == t.dim
                checked += 1
    assert checked == 65


def test_triple_outside_the_form_is_rejected():
    """Flipping one sign of M moves e and f out of the algebra; flipping a
    whole self-paired string only rescales M."""
    m = build_matrix_triple(LieType.of("C", 3), Partition.parse("2,2,1,1"))
    flipped = list(m.pairing_sign)
    flipped[0] = -flipped[0]
    with pytest.raises(AssertionError, match="triple leaves the bilinear form"):
        m._replace(pairing_sign=tuple(flipped))
    string = m.strings[0]
    assert sorted(m.pairing[a] for a in string) == list(string)
    rescaled = [-mu if a in string else mu for a, mu in enumerate(m.pairing_sign)]
    assert m._replace(pairing_sign=tuple(rescaled)).pairing_sign == tuple(rescaled)


def test_involution_checks_each_call():
    """Each su datum covers every row once and its rows hold p plus boxes,
    both checked when it is made, so no split is asked of one that does
    not."""
    p = Partition.parse("2,1")
    for signs in [((2, (0, 1)),), ((2, (1, 0)), (2, (1, 0)))]:
        with pytest.raises(DomainError, match=r"not each of \[2, 1\] once") as err:
            SignedPartitionData("su", (2, 1), p, signs)
        assert err.type is DomainError
    with pytest.raises(DomainError, match="has 2 plus boxes, not p = 1") as err:
        SignedPartitionData("su", (1, 2), p, ((2, (1, 0)), (1, (1, 0))))
    assert err.type is DomainError


def test_template_involution_fixing_e_is_rejected(monkeypatch):
    """The ranked split tables, the check of the closed form, check the
    involution of each template triple: a patched involution that fixes
    e is refused."""
    monkeypatch.setattr(matrixoracle, "_sl_involution", lambda m: identity_involution)
    with pytest.raises(AssertionError, match="template gl.3. .3.: the sl involution"):
        _key_table(("sl", "S", (3,), 1))


def _orbit_involution(m, signed):
    """The Cartan involution of the whole orbit, on its triple m: Ad(S),
    each length's strings led by the datum's plus rows, then its minus
    rows, for su; -B X^T B^{-1} for sl.  Checked to negate e."""
    if signed.family == "su":
        budget = {part: [-1] * minus + [1] * plus for part, (plus, minus) in signed.signs}
        sigma = matrixoracle._ad(m, [budget[len(s)].pop() for s in m.strings])
    else:
        sigma = matrixoracle._sl_involution(m)
    assert is_eigen(sigma, m.e, -1), signed
    return sigma


def _full_sigma_route(m, signed):
    """The h/m split from ranking every eigen-column of the orbit's
    involution on all of gl_N at once, less the identity on the side of
    sigma(I)."""
    sigma = _orbit_involution(m, signed)
    sides = eigen_columns(m, sigma)
    nulls = [_nullity_by_weight(m, cols) for cols in sides]
    dims = [sum(map(len, cols.values())) for cols in sides]
    trace = 0 if sigma(0, 0)[0] == 1 else 1
    nulls[trace][0] -= 1
    dims[trace] -= 1
    weights = sorted(w for w in set(nulls[0]) | set(nulls[1])
                     if w >= 0 and (nulls[0].get(w, 0) or nulls[1].get(w, 0)))
    splits = tuple((w, (nulls[0].get(w, 0), nulls[1].get(w, 0))) for w in weights)
    return SigmaSplitReport(family=signed.family, params=signed.params, splits=splits,
                            dim_h=dims[0], dim_m=dims[1])


def test_sigma_tables_match_the_full_route(monkeypatch):
    """The split summed from the per-key h/m tables equals the rank of the
    whole of gl_N on every su and sl signed datum of size <= 8, and those
    data reach su S, su SS with both sign products, sl S and sl SS keys."""
    monkeypatch.setattr(matrixoracle, "_CARTAN_TABLES", {})
    checked = 0
    for n in range(2, 9):
        forms = [("su", (a, n - a)) for a in range(1, n)] + [("sl", (n,))]
        t = LieType.of("A", n - 1)
        for p in enumerate_partitions(t):
            m = build_matrix_triple(t, p)
            for family, params in forms:
                for signed in enumerate_signed_data(family, params, p):
                    assert oracle_sigma_split(signed) == _full_sigma_route(m, signed)
                    checked += 1
    assert checked == 482  # every su and sl signed datum of size <= 8
    kinds = {(model, kind, sign) for model, kind, _, sign in matrixoracle._CARTAN_TABLES}
    assert kinds == {("su", "S", 1), ("su", "SS", 1), ("su", "SS", -1),
                     ("sl", "S", 1), ("sl", "SS", 1)}


def _refuse(*args):
    raise AssertionError("a template was built or ranked")


def test_warm_splits_build_no_triple(monkeypatch):
    """A rigidity report of an su or sl orbit builds no triple and ranks
    nothing, from a cold start on: its units come from the signed datum
    and its split tables from the closed form.  Cold and warm, the reports
    equal those summed from the ranked template tables."""
    cases = [signed
             for n in range(2, 7)
             for family, params in [("su", (a, n - a)) for a in range(1, n)] + [("sl", (n,))]
             for p in enumerate_partitions(LieType.of("A", n - 1))
             for signed in enumerate_signed_data(family, params, p)]
    monkeypatch.setattr(matrixoracle, "_CARTAN_TABLES", {})
    monkeypatch.setattr(matrixoracle, "_split_table", _key_table)
    ranked = [rigidity_report(2, signed) for signed in cases]
    monkeypatch.undo()
    monkeypatch.setattr(matrixoracle, "_CARTAN_TABLES", {})
    monkeypatch.setattr(matrixoracle, "triple_on", _refuse)
    monkeypatch.setattr(matrixoracle, "integer_rank", _refuse)
    assert [rigidity_report(2, signed) for signed in cases] == ranked
    assert [rigidity_report(2, signed) for signed in cases] == ranked
    assert len(cases) == 154  # every su and sl signed datum of size <= 6


def _negative_slice_nullities(m, columns):
    """The nullity of ad_e on each weight slice w < 0, ranked directly."""
    out = []
    for w, xs in columns.items():
        if w < 0:
            out.append(len(xs) - integer_rank(ad_e_images(m, xs)))
    return out


def test_ad_e_is_injective_below_weight_0():
    """The oracle ranks only the slices w >= 0; ranking the rest shows
    nullity 0 on the tau columns of every classical orbit of rank <= 6 and
    on the h and m columns of every su and sl signed datum of size <= 8."""
    slices = 0
    for fam, low in CLASSICAL_MIN_RANK.items():
        for rank in range(low, 7):
            t = LieType.of(fam, rank)
            for p in enumerate_partitions(t):
                m = build_matrix_triple(t, p)
                nullities = _negative_slice_nullities(m, eigen_columns(m, m.tau)[0])
                assert set(nullities) <= {0}, f"{m.name}: {nullities}"
                slices += len(nullities)
    data = 0
    for n in range(2, 9):
        forms = [("su", (a, n - a)) for a in range(1, n)] + [("sl", (n,))]
        t = LieType.of("A", n - 1)
        for p in enumerate_partitions(t):
            m = build_matrix_triple(t, p)
            for family, params in forms:
                for signed in enumerate_signed_data(family, params, p):
                    for side in eigen_columns(m, _orbit_involution(m, signed)):
                        nullities = _negative_slice_nullities(m, side)
                        assert set(nullities) <= {0}, f"{signed}: {nullities}"
                        slices += len(nullities)
                    data += 1
    assert data == 482  # every su and sl signed datum of size <= 8
    assert slices > data


def test_sigma_splits_up_to_size_12_are_pinned():
    """The repr of every su and sl split of size <= 12, the range of the
    slodowy workload, hashes to the digest recorded before the split tables
    moved onto the shared per-key route."""
    digest = hashlib.sha256()
    checked = 0
    for n in range(2, 13):
        forms = [("su", (a, n - a)) for a in range(1, n)] + [("sl", (n,))]
        for p in enumerate_partitions(LieType.of("A", n - 1)):
            for family, params in forms:
                for signed in enumerate_signed_data(family, params, p):
                    digest.update((repr(oracle_sigma_split(signed)) + "\n").encode())
                    checked += 1
    assert checked == 3377
    assert digest.hexdigest() == (
        "baf751a83b5d23513d1d619619cb3ad7f189bf1193a6c9536d273fb7ff1e40b8")


def test_all_splits_up_to_size_12_are_pinned():
    """The repr of every split of the seven families over their parameter
    spaces of size <= 12 hashes to the digest recorded while each orbit's
    tables were still summed key by key into one dict per side."""
    digest = hashlib.sha256()
    checked = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 12):
            for p in enumerate_partitions(describe(family, params).ambient):
                for signed in enumerate_signed_data(family, params, p):
                    digest.update((repr(oracle_sigma_split(signed)) + "\n").encode())
                    checked += 1
    assert checked == 15004
    assert digest.hexdigest() == (
        "3abfb24d212b8c82ed1003820fee04cde6f884fa37858b6517cd8ca8e6ad6d7b")


def test_a_packed_sum_past_its_field_width_is_refused(monkeypatch):
    """With 4-bit fields, A4 [1^5] (25 columns, n_0 = 24) would carry its
    weight-0 field into weight 1's; the sum refuses it instead."""
    t, p = LieType.of("A", 4), Partition.parse("1^5")
    assert oracle_sl2_data(t, p).as_dict() == {0: 24}
    monkeypatch.setattr(matrixoracle, "_FIELD", 4)
    with pytest.raises(AssertionError, match="25 columns, weight-0 field 9, "):
        oracle_sl2_data(t, p)


def test_a_weight_0_field_below_the_trace_line_is_refused():
    """A memo whose weight-0 fields sum below gl's trace line would borrow
    from the weight-1 field when the line is taken off; it is refused."""
    t, p = LieType.of("A", 1), Partition.parse("1^2")
    keys = dict(matrixoracle._keys("gl", matrixoracle._tau_units("gl", p)))
    assert keys == {("gl", "S", (1,), 1): 2, ("gl", "SS", (1, 1), 1): 1}
    memo = {("gl", "S", (1,), 1): ((1, 0),), ("gl", "SS", (1, 1), 1): ((2, 1 << 16),)}
    with pytest.raises(AssertionError, match="weight-0 field 0, less a trace line of 1"):
        oracle_sl2_data(t, p, memo)


def _dict_sum(keys, table, trace):
    """(column count, {weight: nullity}) of each side, summed key by key
    from the unpacked tables, less the trace line."""
    sums = [[0, Counter()] for _ in trace]
    for key, count in keys:
        for total, (dim, entries) in zip(sums, table(key)):
            total[0] += count * dim
            for w, v in entries:
                total[1][w] += count * v
    for total, line in zip(sums, trace):
        total[0] -= line
        total[1][0] -= line
    return [(dim, {w: v for w, v in null.items() if v}) for dim, null in sums]


def _summed_as_dicts(keys, tables, table, trace):
    return [(dim, {w: v for w, v in enumerate(fields) if v})
            for dim, fields in matrixoracle._summed(keys, tables, table, trace)]


_TAU_TABLES = {}  # ranked once for every example of the property below


@st.composite
def _tau_unit_counts(draw):
    """An algebra and a count of each of up to three unit types, of
    lengths <= 4 fit for it, under 200 strings' worth of boxes."""
    algebra = draw(st.sampled_from(["gl", "so", "sp"]))
    keep = SELF_PAIRED_PARITY[algebra]
    lengths = st.integers(1, 4)
    types = st.tuples(st.just(1), lengths, st.just(1)) if keep is None else lengths.map(
        lambda k: (1 if k % 2 == keep else 2, k, 1))
    counts = draw(st.dictionaries(types, st.integers(1, 60), min_size=1, max_size=3))
    assume(sum(strings * k * c for (strings, k, _), c in counts.items()) < 200)
    return algebra, counts


@settings(max_examples=150, deadline=None)
@given(_tau_unit_counts())
@example(("gl", {(1, 1, 1): 60}))  # n_0 = 3599, a field of two nonzero bytes
def test_packed_tau_sum_equals_the_dict_sum(drawn):
    """On random unit counts of gl, so and sp, with fields past 255, the
    packed one-pass sum equals the sum of the ranked tables key by key."""
    algebra, counts = drawn
    trace = (1,) if algebra == "gl" else (0,)
    keys = list(matrixoracle._keys(algebra, counts))
    expected = _dict_sum(keys, _key_table, trace)
    assert _summed_as_dicts(keys, _TAU_TABLES, _key_table, trace) == expected


@st.composite
def _split_rows(draw):
    """A family and a count of each of up to four rows (length <= 8,
    leading sign, + only in sl and su*), under 200 boxes; each count even
    in su*, where every quaternionic row is two complex rows."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    spec = FAMILIES[family]
    signs = (1,) if spec.k_agrees is None else (1, -1)
    rows = st.tuples(st.just(1), st.integers(1, 8), st.sampled_from(signs))
    pairs = spec.algebra == "gl" and spec.quaternionic
    counts = draw(st.dictionaries(rows, st.integers(1, 60).map(lambda c: 2 * c if pairs else c),
                                  min_size=1, max_size=4))
    assume(sum(k * c for (_, k, _), c in counts.items()) < 200)
    return family, counts


@settings(max_examples=200, deadline=None)
@given(_split_rows())
@example(("su", {(1, 1, 1): 30, (1, 1, -1): 30}))  # (h_0, m_0) = (1799, 1800)
def test_packed_split_sum_equals_the_dict_sum(drawn):
    """On random rows of the seven families, with fields past 255, the
    packed one-pass sum of h and m equals the sum of the counted split
    tables key by key."""
    family, counts = drawn
    trace = FAMILIES[family].trace
    keys = list(matrixoracle._keys(family, counts))
    expected = _dict_sum(keys, _split_table, trace)
    assert _summed_as_dicts(keys, {}, _split_table, trace) == expected


def _tau_keys_of_verify(max_rank):
    """The tau keys of every orbit verify walks up to max_rank."""
    return {key for t, _, p in crosscheck._orbits(max_rank)
            for key, _ in matrixoracle._keys(t.algebra, matrixoracle._tau_units(t.algebra, p))}


def _split_keys_up_to(size):
    """The split keys of every su and sl signed datum of size <= size."""
    keys = set()
    for n in range(2, size + 1):
        forms = [("su", (a, n - a)) for a in range(1, n)] + [("sl", (n,))]
        for p in enumerate_partitions(LieType.of("A", n - 1)):
            for family, params in forms:
                for signed in enumerate_signed_data(family, params, p):
                    units = {(1, i, lead): c for (i, lead), c in signed.rows.items()}
                    keys |= {key for key, _ in matrixoracle._keys(family, units)}
    return keys


def test_split_tables_match_the_ranked_templates():
    """The closed split table of every key an su or sl signed datum of the
    rank window can produce, sizes up to CLASSICAL_RANK_CAP + 1, equals
    the table ranked on its template.  Those keys are every su and sl row
    of length <= that size, and every row pair of total length <= it, su
    with both sign products."""
    size = CLASSICAL_RANK_CAP + 1
    keys = _split_keys_up_to(size)
    pairs = [(a, b) for a in range(1, size) for b in range(a, size - a + 1)]
    assert keys == {(model, "S", (k,), 1) for model in ("su", "sl") for k in range(1, size + 1)} | {
        ("su", "SS", ab, sign) for ab in pairs for sign in (1, -1)} | {
        ("sl", "SS", ab, 1) for ab in pairs}
    for key in sorted(keys):
        assert _split_table(key) == _key_table(key), key


def _box_count(key):
    """(dim, nullity table) of h and of m of a split key, pair by pair of
    boxes: box i of a row of length k led by lead has weight k-1-2i and
    sign lead (-1)^i; g_C holds E_xy of weight h_x - h_y in su, else the
    pairs {x, y} of weight h_x + h_y in one row's L2 or S2 (x < y, x <= y)
    or across two rows; theta keeps those whose signs agree in su, so(p,q)
    and sp(p,q), those that differ in so* and sp(2n,R), and the L2 of sl,
    the S2 of su*, and one copy of a row pair's tensor there."""
    family, kind, lengths, sign = key
    spec = FAMILIES[family]
    rows = [[(k - 1 - 2 * i, lead * (-1) ** i) for i in range(k)]
            for k, lead in zip(lengths, (1, sign))]
    sides = [Counter(), Counter()]  # weight -> pairs in k, in p
    if spec.square == "End":
        blocks = [rows * 2] if kind == "S" else [rows, rows[::-1]]
        for r, s in blocks:
            for (wx, sx), (wy, sy) in product(r, s):
                sides[sx * sy < 0][wx - wy] += 1
    else:
        if kind == "S":
            boxes = list(enumerate(rows[0]))
            pairs = [(x, y, square) for (i, x), (j, y) in product(boxes, repeat=2)
                     for square in ("L2", "S2") if i < j or (i == j and square == "S2")]
        else:
            pairs = [(x, y, None) for x, y in product(*rows)]
        for (wx, sx), (wy, sy), square in pairs:
            if spec.k_agrees is None:
                for side in (0, 1):  # a row's square in k, the other in p; a pair's copies
                    if square is None or (square == spec.square) != side:
                        sides[side][wx + wy] += 1
            elif square in (None, spec.square):
                sides[(sx * sy > 0) != spec.k_agrees][wx + wy] += 1
    k, p = sides
    return tuple((sum(side.values()),
                  tuple(sorted((w, v) for w in side if w >= 0 and (v := side[w] - other[w + 2]))))
                 for side, other in ((k, p), (p, k)))


def test_split_tables_match_the_box_count():
    """The split table of every key of the seven families, one row of
    length <= 25 or two of total length <= 25, either sign product where
    the family has signs, equals the count pair by pair of boxes."""
    checked = 0
    for family, spec in FAMILIES.items():
        signs = (1,) if spec.k_agrees is None else (1, -1)
        keys = [(family, "S", (a,), 1) for a in range(1, 26)] + [
            (family, "SS", (a, b), sign) for a in range(1, 25) for b in range(a, 26 - a)
            for sign in signs]
        for key in keys:
            assert matrixoracle._split_table(key) == _box_count(key), key
            checked += 1
    assert checked == 2047  # sl and su* rows are all led by +: no sign -1


def _su_gap(*rows):
    """g_0 - 2c - s of su rows each led by +, read as the classify walk
    reads a prefix: closed_dims' fold and the family table's s."""
    plus, minus = sum((k + 1) // 2 for k in rows), sum(k // 2 for k in rows)
    dim_c, dim_g0, _ = fold_dims("gl", Partition(rows))
    return dim_g0 - 2 * dim_c - FAMILIES["su"].s((plus, minus))


def _even_h_nullity(key):
    """The h-part of ker ad_e in the even weights >= 2 of a split key."""
    (_, h_table), _ = _split_table(key)
    return sum(v for w, v in h_table if w >= 2 and w % 2 == 0)


def test_su_walk_gap_is_the_closed_split():
    """The su cut of the classify walk is the oracle's closed split: one
    row of length k has gap/2 = floor((k-1)/2), the h-part of its even
    weights >= 2, and a same-sign row pair (a, b) adds, over its two
    rows alone, the h-part of its SS key, for every key of the rank
    window."""
    size = CLASSICAL_RANK_CAP + 1
    for k in range(1, size + 1):
        assert _su_gap(k) // 2 == (k - 1) // 2 == _even_h_nullity(("su", "S", (k,), 1)), k
    pairs = [(a, b) for a in range(1, size) for b in range(a, size - a + 1)]
    for a, b in pairs:
        joint = (_su_gap(a, b) - _su_gap(a) - _su_gap(b)) // 2
        assert joint == _even_h_nullity(("su", "SS", (a, b), 1)), (a, b)


@pytest.mark.parametrize("side,count,expected", [
    ("tau", 192, "13f08ef3f9facb6bbd92a025a3bb384d7ae5a5ff094491753f58478169829716"),
    ("split", 132, "abf71a7858b740b33e39de593eca80b334d6f326eafc1af2d93e8f3e7b6fadcf"),
], ids=["tau", "split"])
def test_key_tables_are_pinned(side, count, expected):
    """The table of every tau key verify --max-rank 10 ranks, and of every
    split key of an su or sl signed datum of size <= 12, hashes to the
    digest recorded while the templates still filtered all size^2 entries
    and built the columns of every weight."""
    keys = sorted(_tau_keys_of_verify(10) if side == "tau" else _split_keys_up_to(12))
    digest = hashlib.sha256()
    for key in keys:
        digest.update(f"{key} {_key_table(key)}\n".encode())
    assert len(keys) == count
    assert digest.hexdigest() == expected


def test_verify_ranks_each_tau_key_once(monkeypatch):
    """One verify --max-rank 10 pass builds one template per tau key, 192,
    and ranks 1,141 weight slices on them, one integer_rank call each; no
    other route ranks anything."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(matrixoracle, "_key_table", counted("templates", _key_table))
    monkeypatch.setattr(matrixoracle, "integer_rank", counted("slices", integer_rank))
    assert all(check.passed for check in crosscheck.run_all(10))
    assert calls == {"templates": 192, "slices": 1141}


def test_partition_size_mismatch():
    with pytest.raises(DomainError):
        build_matrix_triple(LieType.of("A", 4), Partition.parse("2,2"))


def test_parity_rule_enforced():
    with pytest.raises(DomainError):
        build_matrix_triple(LieType.of("C", 2), Partition.parse("3,1"))


def test_sigma_split_su23():
    p = Partition.parse("2^2,1")
    compact, mixed = None, None
    for signed in enumerate_signed_data("su", (2, 3), p):
        r = oracle_sigma_split(signed)
        assert r.dim_m == r.dim_h  # su(2,3) has dim m = dim h
        if dict(signed.signs)[2] == (1, 1):
            mixed = r
        elif compact is None:
            compact = r
    assert dict(compact.splits) == {0: (4, 0), 1: (2, 2), 2: (0, 4)}
    assert dict(mixed.splits) == {0: (2, 2), 1: (2, 2), 2: (2, 2)}
    assert dict(compact.splits)[0] == (4, 0)
    assert {w: m for w, (_, m) in compact.splits} == {0: 0, 1: 2, 2: 4}


def test_sigma_split_totals():
    """h+m at each weight w recovers the multiplicity n_w, and the counted
    Cartan dimensions match the real-form descriptor, on every signed
    datum of the seven families of size <= 7, p > q included."""
    checked = 0
    for family in FAMILIES:
        for params in family_parameter_space(family, 7):
            for params in {params, params[::-1]}:
                form = describe(family, params)
                for p in enumerate_partitions(form.ambient):
                    mult = multiplicities_formula(form.ambient, p)
                    for signed in enumerate_signed_data(family, params, p):
                        r = oracle_sigma_split(signed)
                        assert {w: h + mm for w, (h, mm) in r.splits} == mult
                        assert (r.dim_h, r.dim_m) == (form.dim_h, form.dim_m)
                        checked += 1
    assert checked == 1210


def test_sigma_split_su12_odd_space():
    # V_1 of [2,1] in su(1,2) splits (1,1) whatever the free sign choice
    p = Partition.parse("2,1")
    for signed in enumerate_signed_data("su", (1, 2), p):
        assert dict(signed.signs)[1] == (0, 1)  # signature forces the 1-row
        r = oracle_sigma_split(signed)
        assert dict(r.splits).get(1, (0, 0)) == (1, 1)


def test_sigma_split_su22_even_orbit():
    # [2,2] has no odd weight space and V_2 lies entirely in m for the
    # definite sign choice
    p = Partition.parse("2,2")
    signed = next(s for s in enumerate_signed_data("su", (2, 2), p)
                  if dict(s.signs)[2] == (2, 0))
    r = oracle_sigma_split(signed)
    assert dict(r.splits).get(1, (0, 0)) == (0, 0)
    assert dict(r.splits).get(2, (0, 0)) == (0, 4)


def test_sl_split_is_supported():
    t = LieType.of("A", 2)
    p = Partition.parse("3")
    (signed,) = enumerate_signed_data("sl", (3,), p)
    r = oracle_sigma_split(signed)
    assert r.dim_m - r.dim_h == 2  # sl(3,R): dim m - dim h = 5 - 3
    assert {w: h + mm for w, (h, mm) in r.splits} == multiplicities_formula(t, p)


def test_so23_splits_are_pinned():
    """so(2,3) [3,1^2]: dim h = 4 and dim m = 6 on both sign data, and
    the 3-row's sign moves c = V_0 and V_2 between h and m."""
    p = Partition.parse("3,1,1")
    splits = {str(signed): (r.splits, r.dim_h, r.dim_m)
              for signed in enumerate_signed_data("so", (2, 3), p)
              for r in [oracle_sigma_split(signed)]}
    assert splits == {
        "[3,1^2]{3:(1,0),1:(0,2)}": (((0, (1, 0)), (2, (0, 3))), 4, 6),
        "[3,1^2]{3:(0,1),1:(1,1)}": (((0, (0, 1)), (2, (1, 2))), 4, 6),
    }
