"""Brute-force ground truth: n_j as nullities of ad_e, and Cartan splits.

n_j is ranked on matrices from matrixmodel: sl2-triples on Jordan
strings, gl_N and so(M)/sp(M) the +1 sides of the signed-permutation
involution tau of gl_N, the one involution ranked here.  The h/m split
of a Cartan involution is counted, not ranked, in all seven classical
families; tier-1 ranks whole su and sl orbits of one or two rows as the
check of the count.

The oracle does not rank the whole algebra.  e is block-diagonal over
the strings, so ad_e maps each block (s, t) = span{E_ab : a in s, b in t}
into itself, and tau maps it onto (t*, s*).  Group the strings into
units: a self-paired string S, or a coupled pair P = {u, u*}; in gl,
and for a Cartan split, every string is a unit S.  The blocks within one
unit, or between two, span a space stable under ad_e and the involution,
whose column count and nullity by weight on each side depend only on a
key (model, unit kinds, lengths, sign).  The model is gl, so or sp for
n_j, where the +1 side of tau is ranked, or a family tag for a split,
where h and m are counted; the kinds are S or P, or SS, SP or PP for two
units; the sign is the product of the two units' leading signs (1 for
tau and for one unit).  A tau key is ranked once, on a template triple
of just its units, checked to hold them: each weight slice w >= 0 by the
exact rank of ad_e's images of its columns, sparse maps passed as they
are to linalg.integer_rank.  The template is built by the same
matrixmodel.triple_on, so the tau-merging, the self-paired strings and
the mu signs are ranked, not assumed.  A template lists only the entries
of weight w >= 0 of its one unit block, or of the two blocks between its
two units: such a span is an sl2-submodule, so ad_f^w maps weight w one
to one onto -w, which counts the columns below 0, and ad_e is injective
below weight 0, whose nullity is 0 (tests/test_matrixoracle.py checks
both).  A split key is counted by one rule (_split_table): the box pairs
of its row or rows, by weight, lie in k or in p as the family's square
and k_agrees say (FamilySpec), and ad_e, onto from each weight w >= -1
of a normal triple (Kostant-Sekiguchi; Collingwood-McGovern ch. 9),
gives the highest-weight vectors on each side.  n_j and the h/m split
sum the tables over the units and unit pairs of the orbit, weighted by
multiplicity, in one pass with no dict of keys: the memo keeps each side
of a key as its column count and one integer whose 16-bit field w holds
the nullity at weight w, so each side of an orbit sums to one integer,
read back once as little-endian fields, less the trace line (h, m) of
gl_N, which sl_N lacks.  Every term is >= 0 and no field exceeds its
side's column count, refused from 2^16 on, so no field carries into the
next.  Neither lays out the orbit itself.  For n_j an orbit's units come
from its multiplicity table: a part k of multiplicity r gives r units S
in gl, and in so/sp when k has the self-paired parity, else r/2 units P;
each tau template is checked to hold, by MatrixSl2Triple.units, the
units this rule gives it.  A split's units are the complex rows the
signed datum carries (orbits' row rule), each unit led by its row's sign
there, + in sl and su*.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from struct import unpack
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Tuple, Union)

from .families import FAMILIES
from .linalg import integer_rank
from .matrixmodel import (
    Columns,
    MatrixSl2Triple,
    ad_e_images,
    eigen_columns,
    triple_on,
)
from .orbits import Partition, SignedPartitionData, check_partition
from .rootsystems import SELF_PAIRED_PARITY, LieType
from .sl2data import Sl2Data

# (model, unit kinds, string length of each unit, sign), e.g. ("so", "SP", (3, 2), 1).
Key = Tuple[str, str, Tuple[int, ...], int]
# Nullity of ad_e by weight on one side of a key: sorted (weight, nullity), zeros dropped.
Table = Tuple[Tuple[int, int], ...]
# (column count, nullity table) of each side of a key: tau's +1, or h and m.
Sides = Tuple[Tuple[int, Table], ...]
# (column count, sum of v << _FIELD * w over the table) of each side of a key.
Packed = Tuple[Tuple[int, int], ...]
Tables = Dict[Key, Packed]
# A unit's (number of strings, string length, leading sign).
UnitType = Tuple[int, int, int]

_FIELD = 16  # bits per weight of a packed side, read back as struct's "H"
_CARTAN_TABLES: Tables = {}  # the split tables, each read once per process


def build_matrix_triple(t: LieType, p: Partition) -> MatrixSl2Triple:
    """The triple on the layout of the orbit p of the classical type t,
    validated."""
    return triple_on(check_partition(t, p), p)


def _nullity_by_weight(m: MatrixSl2Triple, columns: Columns) -> Dict[int, int]:
    """Nullity of ad_e on the span of each weight's columns, all of weight
    w >= 0 in the oracle: below 0 ad_e is injective (a kernel vector is a
    highest-weight vector); tests/test_matrixoracle.py ranks those too."""
    return {w: len(xs) - integer_rank(ad_e_images(m, xs)) for w, xs in columns.items()}


def _block_sides(m: MatrixSl2Triple,
                 units: List[Tuple[Tuple[int, ...], ...]]) -> Tuple[int, Columns]:
    """(column count, eigen-columns of weight w >= 0) of tau's +1 side on
    the entries within the one unit of a template, or between its two
    (units, as MatrixSl2Triple.units lays them out); no entry below weight
    0 is listed.  Their span is an sl2-submodule and tau fixes f, so ad_f^w
    maps the side's weight w one to one onto its -w: the count takes the
    columns at each w > 0 twice."""
    blocks = [[a for s in u for a in s] for u in units]
    pairs = (product(blocks[0], repeat=2) if len(blocks) == 1
             else chain(product(*blocks), product(*blocks[::-1])))
    wt = m.weights
    cols = eigen_columns(m, m.tau, [(a, b) for a, b in pairs if wt[a] >= wt[b]])
    return sum((2 if w else 1) * len(xs) for w, xs in cols.items()), cols


def _keys(model: str, unit_counts: Mapping[UnitType, int]) -> Iterator[Tuple[Key, int]]:
    """Each key with the number of units, or pairs of distinct units, it
    stands for, from the count of each unit type, taken in sorted order;
    unit types that differ only in sign give a key more than once."""
    units = sorted(unit_counts.items())
    for i, ((strings, length, sign), count) in enumerate(units, 1):
        kind = "SP"[strings - 1]
        yield (model, kind, (length,), 1), count
        if count > 1:
            yield (model, kind * 2, (length, length), 1), count * (count - 1) // 2
        for (strings2, length2, sign2), count2 in units[i:]:
            yield (model, kind + "SP"[strings2 - 1], (length, length2), sign * sign2), count * count2


def _tau_units(algebra: str, p: Partition) -> Dict[UnitType, int]:
    """The count of each unit type of p in the algebra, from its
    multiplicity table: a part of multiplicity r gives r self-paired
    strings S in gl, and in so/sp when of the self-paired parity; any
    other part gives r/2 coupled pairs P."""
    keep = SELF_PAIRED_PARITY[algebra]
    return {(strings, part, 1): r // strings for part, r in p.multiplicities().items()
            for strings in [1 if keep is None or part % 2 == keep else 2]}


def _key_table(key: Key) -> Sides:
    """(column count, nullity table) of tau's +1 side of a key, on a
    template triple holding just the key's units, checked to hold them:
    over the columns within its one unit, or between its two."""
    model, kind, lengths, _ = key
    parts = [length for unit, length in zip(kind, lengths) for _ in range("SP".index(unit) + 1)]
    m = triple_on(model, Partition.of(*parts))
    laid_out = m.units()
    units = _tau_units(model, m.partition)
    if (Counter((len(u), len(u[0]), 1) for u in laid_out) != units
            or sum(count for k, count in _keys(model, units) if k == key) != 1):
        raise AssertionError(f"template {m.name} does not hold the units of {key}")
    count, cols = _block_sides(m, laid_out)
    return ((count, tuple(sorted((w, v) for w, v in _nullity_by_weight(m, cols).items() if v))),)


def _split_table(key: Key) -> Sides:
    """(column count, nullity table) of h and of m of a split key, one row
    of length a or two rows a, b of sign product sign, ranking nothing.
    The c(t) = min(t+1, a, b, a+b-1-t) box pairs (i, j) of t = i + j have
    weight a+b-2-2t and theta-sign sign (-1)^t; one row's L2 takes
    (c(t) - [t even])/2 of them and its S2 (c(t) + [t even])/2.  In an End
    block Hom(b, a) of su, t = i - j + b - 1 and the sign is
    sign (-1)^(t+b+1).  The family's square and k_agrees (FamilySpec) put
    each group in k or in p.  With h in k and e in p, a normal triple,
    ad_e maps g_w cap k onto g_{w+2} cap p for w >= -1, so
    dim(V_w cap h) = k_t - p_{t-1} and dim(V_w cap m) = p_t - k_{t-1}."""
    family, kind, lengths, sign = key
    spec = FAMILIES[family]
    a, b = lengths * 2 if kind == "S" else lengths
    sides = [[0] * (a + b), [0] * (a + b)]  # k_t, p_t; t = -1 reads the spare last 0
    for t in range(a + b - 1):
        c = min(t + 1, a, b, a + b - 1 - t)
        # the pairs of t in one row's L2 or S2, or in the tensor of two rows
        piece = (c + (1 - t % 2) * (1 if spec.square == "S2" else -1)) // 2 if kind == "S" else c
        if spec.square == "End":  # Hom(b, a), and Hom(a, b) for a pair
            for length in lengths:
                sides[sign * (-1) ** (t + length + 1) < 0][t] += c
        elif spec.k_agrees is None:  # no V+-: the piece in k, the rest of End in p
            sides[0][t] += piece
            sides[1][t] += c * len(lengths) - piece
        else:
            sides[(sign * (-1) ** t > 0) != spec.k_agrees][t] += piece
    k, p = sides
    weights = range(a + b - 2, -1, -2)  # w >= 0, from t = 0
    return tuple((sum(side), tuple(sorted((w, v) for t, w in enumerate(weights)
                                          if (v := side[t] - other[t - 1]))))
                 for side, other in ((k, p), (p, k)))


def _summed(keys: Iterable[Tuple[Key, int]], tables: Tables, make_table: Callable[[Key], Sides],
            trace: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
    """Column count and nullity by weight w = 0, 1, ... of each side, in
    one pass over the keys, less the trace line, a count per side: the
    identity matrix is in gl_N, not in sl_N.  A key missing from tables is
    made by make_table and packed, so callers passing one dict to many
    orbits find or rank each key once.  A side sums count x packed table:
    every term is >= 0 and no field exceeds the side's column count, so
    the sum is exact while that count is below 2^_FIELD, which is checked,
    as is each weight-0 field, which must hold the trace line it loses."""
    dims, packs = [0] * len(trace), [0] * len(trace)
    for key, count in keys:
        sides = tables.get(key)
        if sides is None:
            sides = tables[key] = tuple((dim, sum(v << _FIELD * w for w, v in table))
                                        for dim, table in make_table(key))
        for side, (dim, packed) in enumerate(sides):
            dims[side] += count * dim
            packs[side] += count * packed
    words = (max(packs).bit_length() + 15) // 16  # of 16-bit "H", alike on every side
    out = []
    for dim, packed, line in zip(dims, packs, trace):
        zero = packed & ((1 << _FIELD) - 1)
        if dim >> _FIELD or zero < line:
            raise AssertionError(f"a packed sum of {dim} columns, weight-0 field {zero}, "
                                 f"less a trace line of {line}, leaves its {_FIELD}-bit fields")
        out.append((dim - line, unpack(f"<{words}H", (packed - line).to_bytes(2 * words, "little"))))
    return out


def oracle_sl2_data(t: Union[LieType, MatrixSl2Triple], p: Optional[Partition] = None,
                    tables: Optional[Tables] = None) -> Sl2Data:
    """n_j of the orbit p of the classical type t, validated, as the
    nullity of ad_e on the weight-j slice of the algebra, summed from the
    tau tables of its units and unit pairs.  A triple t carries its
    algebra and partition, and p is then left out."""
    if p is None:
        algebra, p = t.algebra, t.partition
    else:
        algebra = check_partition(t, p)
    # tau fixes I in gl; so_N and sp_N hold no trace line
    ((dim, nulls),) = _summed(_keys(algebra, _tau_units(algebra, p)),
                              {} if tables is None else tables, _key_table,
                              (1,) if algebra == "gl" else (0,))
    return Sl2Data(n=tuple((j, v) for j, v in enumerate(nulls) if v), dim_g=dim)


class SigmaSplitReport(NamedTuple):
    """h/m split of each highest-weight space under a Cartan-type involution."""

    family: str
    params: Tuple[int, ...]
    splits: Tuple[Tuple[int, Tuple[int, int]], ...]  # (weight, (dim h cap V_w, dim m cap V_w))
    dim_h: int
    dim_m: int


def oracle_sigma_split(signed: SignedPartitionData) -> SigmaSplitReport:
    """The h/m split of each highest-weight space, summed from the split
    tables of the datum's complex rows and row pairs, a unit per row led
    by the row's sign (+ in sl and su*), so a pair's sign is their
    product, less the family's trace line."""
    (dim_h, h_null), (dim_m, m_null) = _summed(
        _keys(signed.family, {(1, i, s): c for (i, s), c in signed.rows.items()}),
        _CARTAN_TABLES, _split_table, FAMILIES[signed.family].trace)
    splits = tuple((w, hm) for w, hm in enumerate(zip(h_null, m_null)) if hm != (0, 0))
    return SigmaSplitReport(family=signed.family, params=signed.params, splits=splits,
                            dim_h=dim_h, dim_m=dim_m)
