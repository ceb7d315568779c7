"""Brute-force ground truth: n_j and Cartan splits as nullities of ad_e.

The matrices come from matrixmodel: sl2-triples on Jordan strings, and
every algebra ranked here as an eigenspace of a signed-permutation
involution of gl_N.  gl_N and so(M)/sp(M) are the +1 sides of tau; the
Cartan involutions of su(p,q) and sl(n,R) split gl_N into h (+1) and m
(-1).  For su(p,q) it is Ad(S), S = diag(s) alternating along each
string; for sl(n,R) it is -B X^T B^{-1}, the tau of the per-string
reversal B with every mu = 1.  The other five classical families have
Cartan involutions of the same shape, not modeled yet: callers get
UnsupportedInvolutionError.

Neither oracle ranks the whole algebra.  e is block-diagonal over the
strings, so ad_e maps each block (s, t) = span{E_ab : a in s, b in t}
into itself; tau maps it onto (t*, s*), Ad(S) fixes it up to the sign
s_a s_b and -B X^T B^{-1} maps it onto (t, s).  Group the strings into
units: a self-paired string S, or a coupled pair P = {u, u*}; in gl,
and so under a Cartan involution, every string is a unit S.  The blocks
within one unit, or between two, span a space stable under ad_e and the
involution, whose column count and nullity by weight on each side depend
only on a key (model, unit kinds, lengths, sign).  The model is gl, so
or sp for n_j, where only the +1 side of tau is ranked, or su or sl for
a Cartan split, where h and m are; the kinds are S or P, or SS, SP or PP
for two units; the sign is the product of the two units' leading signs
(1 for tau and for one unit).  A tau key is ranked once, on a template
triple of just its units: each weight slice w >= 0 by the exact rank of
ad_e's images of its columns, sparse maps passed as they are to
linalg.integer_rank.  The template is built by the same
matrixmodel.triple_on, so the tau-merging, the self-paired strings and
the mu signs are ranked, not assumed; a tau template is checked to hold
the key's units.  A split key is read from the signed Clebsch-Gordan
rule (_split_table), which ranks nothing; the same ranked templates
(_key_table), each Cartan template's involution checked to negate e, are
its exhaustive check: tier-1 compares the two on every split key of the
rank window.  A template's entries are listed straight from its one unit
block, or the two blocks between its two units, and an entry is made a
column only at weight w >= 0; the slices w < 0 are counted, not built or
ranked: ad_e is injective below weight 0, since its kernel holds
highest-weight vectors only, so their nullity is 0
(tests/test_matrixoracle.py ranks them to check it).  n_j and the h/m
split sum the tables over the units and unit pairs of the orbit,
weighted by multiplicity, into one dict per side, less the identity
matrix on the side of sigma(I) = +-I: it is in gl_N, not sl_N.  Neither
lays out the orbit itself.  For n_j an orbit's units come from its
multiplicity table: a part k of multiplicity r gives r units S in gl,
and in so/sp when k has the self-paired parity, else r/2 units P; each
tau template is checked to hold, by MatrixSl2Triple.units, the units
this rule gives it.  A split's units are the complex rows the signed
datum carries (orbits' row rule), each unit led by its row's sign there,
+ in sl, and the orbit's involution on one unit or two is the template's.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import UnsupportedInvolutionError
from .families import FAMILIES
from .linalg import integer_rank
from .matrixmodel import (
    Columns,
    Involution,
    MatrixSl2Triple,
    ad_e_images,
    eigen_columns,
    is_eigen,
    transpose_involution,
    triple_on,
)
from .orbits import Partition, SignedPartitionData, check_partition
from .rootsystems import SELF_PAIRED_PARITY, LieType
from .sl2data import Sl2Data

# (model, unit kinds, string length of each unit, sign), e.g. ("so", "SP", (3, 2), 1).
Key = Tuple[str, str, Tuple[int, ...], int]
# Nullity of ad_e by weight on one side of a key: sorted (weight, nullity), zeros dropped.
Table = Tuple[Tuple[int, int], ...]
# Key -> (column count, nullity table) of each ranked side: tau's +1, or h and m.
Tables = Dict[Key, Tuple[Tuple[int, Table], ...]]
# A unit's (number of strings, string length, leading sign).
UnitType = Tuple[int, int, int]

_CARTAN_MODELS = ("su", "sl")
_CARTAN_TABLES: Tables = {}  # the split tables, each read once per process


def build_matrix_triple(t: LieType, p: Partition) -> MatrixSl2Triple:
    """The triple on the layout of the orbit p of the classical type t,
    validated."""
    return triple_on(check_partition(t, p), p)


def _nullity_by_weight(m: MatrixSl2Triple, columns: Columns) -> Dict[int, int]:
    """Nullity of ad_e on the span of each weight's columns, for the
    weights w >= 0 only: below weight 0 ad_e is injective (a kernel vector
    is a highest-weight vector), so those slices are not ranked; a test
    in tests/test_matrixoracle.py ranks them to check it."""
    return {w: len(xs) - integer_rank(ad_e_images(m, xs)) for w, xs in columns.items() if w >= 0}


def _block_sides(m: MatrixSl2Triple, units: List[Tuple[Tuple[int, ...], ...]],
                 sigma: Involution, minus: bool = True) -> Tuple[Tuple[int, Columns], ...]:
    """(column count, eigen-columns of weight w >= 0) of the +1 side of
    sigma, and of the -1 side unless minus is False, on the entries within
    the one unit of a template, or between its two (units, as
    MatrixSl2Triple.units lays them out).  The columns of weight
    w < 0 are counted as eigen_columns would make them, not built: a pair
    of entries sigma swaps gives one on each side, an entry it fixes one on
    the side of its sign."""
    blocks = [[a for s in u for a in s] for u in units]
    pairs = (product(blocks[0], repeat=2) if len(blocks) == 1
             else chain(product(*blocks), product(*blocks[::-1])))
    wt = m.weights
    upper, counts = [], [0, 0]
    for entry in pairs:
        a, b = entry
        if wt[a] >= wt[b]:
            upper.append(entry)
            continue
        eps, img = sigma(a, b)
        if img == entry:
            counts[eps < 0] += 1
        elif entry < img:
            counts[0] += 1
            counts[1] += 1
    sides = eigen_columns(m, sigma, upper, minus)
    return tuple((count + sum(map(len, cols.values())), cols)
                 for count, cols in zip(counts[:1 + minus], sides))


def _keys(model: str, unit_counts: Mapping[UnitType, int]) -> Dict[Key, int]:
    """Key -> the number of units, or pairs of distinct units, with that
    key, from the count of each unit type."""
    units = sorted(unit_counts.items())
    keys: Dict[Key, int] = {}
    for i, ((strings, length, sign), count) in enumerate(units):
        kind = "SP"[strings - 1]
        key = model, kind, (length,), 1
        keys[key] = keys.get(key, 0) + count
        if count > 1:
            key = model, kind * 2, (length, length), 1
            keys[key] = keys.get(key, 0) + count * (count - 1) // 2
        for (strings2, length2, sign2), count2 in units[i + 1:]:
            key = model, kind + "SP"[strings2 - 1], (length, length2), sign * sign2
            keys[key] = keys.get(key, 0) + count * count2
    return keys


def _tau_units(algebra: str, p: Partition) -> Dict[UnitType, int]:
    """The count of each unit type of p in the algebra, from its
    multiplicity table: a part of multiplicity r gives r self-paired
    strings S in gl, and in so/sp when of the self-paired parity; any
    other part gives r/2 coupled pairs P."""
    keep = SELF_PAIRED_PARITY[algebra]
    return dict(((1, part, 1), r) if keep is None or part % 2 == keep else ((2, part, 1), r // 2)
                for part, r in p.multiplicities().items())


def _key_table(key: Key) -> Tuple[Tuple[int, Table], ...]:
    """(column count, nullity table) of each ranked side of a key, on a
    template triple holding just the key's units: over the columns within
    its one unit, or between its two."""
    model, kind, lengths, sign = key
    parts = [length for unit, length in zip(kind, lengths) for _ in range("SP".index(unit) + 1)]
    cartan = model in _CARTAN_MODELS
    m = triple_on("gl" if cartan else model, Partition.of(*parts))
    laid_out = m.units()
    if cartan:
        sigma = _ad(m, (1, sign)) if model == "su" else _sl_involution(m)
        if not is_eigen(sigma, m.e, -1):
            raise AssertionError(f"template {m.name}: the {model} involution does not negate e")
        sides = _block_sides(m, laid_out, sigma)
    else:
        units = _tau_units(model, m.partition)
        if (Counter((len(u), len(u[0]), 1) for u in laid_out) != units
                or _keys(model, units).get(key) != 1):
            raise AssertionError(f"template {m.name} does not hold the units of {key}")
        sides = _block_sides(m, laid_out, m.tau, minus=False)
    return tuple((count, tuple(sorted((w, v) for w, v in _nullity_by_weight(m, cols).items() if v)))
                 for count, cols in sides)


def _split_table(key: Key) -> Tuple[Tuple[int, Table], ...]:
    """(column count, nullity table) of h and of m of an su or sl key, by
    the signed Clebsch-Gordan rule, ranking nothing.  A row pair (a, b)
    gives the weights w_i = a+b-2-2i, i < min(a, b), once in each of its
    two blocks, and one row of length k gives them once with a = b = k:
    gl(V_{k-1}) = V_0 + V_2 + ... + V_{2k-2}.  Ad(S) scales E_xy by
    sign * (-1)^(x+y), so it puts w_i on the side of
    sign * (-1)^(i+length+1) for the length of each row, which keeps the
    top vector e^j of V_2j of one row in h iff j is even.  B X^T B^{-1}
    fixes e, so -B X^T B^{-1} negates every e^j of one row, and it swaps
    a pair's two blocks, so each w_i lies once on each side.  _key_table
    ranks the same tables on template triples; tests/test_matrixoracle.py
    checks that the two agree on every key of the rank window."""
    model, kind, lengths, sign = key
    a, b = lengths * 2 if kind == "S" else lengths
    weights = [a + b - 2 - 2 * i for i in range(min(a, b))]
    if model == "su":
        sides: List[List[int]] = [[], []]
        for i, w in enumerate(weights):
            for length in lengths:
                sides[sign * (-1) ** (i + length + 1) < 0].append(w)
        plus = (a * b + 1) // 2 * len(lengths)  # the entries E_xy with x + y even
        dims = [plus, a * b * len(lengths) - plus][::sign]  # sign -1 swaps h and m
    elif kind == "S":
        sides = [[], weights]
        dims = [a * (a - 1) // 2, a * (a + 1) // 2]
    else:
        sides = [weights, weights]
        dims = [a * b, a * b]
    return tuple((dim, tuple(sorted(Counter(ws).items()))) for dim, ws in zip(dims, sides))


def _summed(keys: Dict[Key, int], tables: Tables,
            identity: int) -> Tuple[List[Dict[int, int]], List[int]]:
    """Nullity by weight and column count of each side, summed over the
    keys, less the identity matrix on side identity (0 or 1): it is in
    gl_N, not in sl_N.  A key missing from tables is added, a split key
    from the closed form and a tau key ranked, so callers passing one dict
    to many orbits find or rank each key once."""
    nulls: List[Dict[int, int]] = [{}, {}]
    dims = [0, 0]
    for key, count in keys.items():
        sides = tables.get(key)
        if sides is None:
            sides = tables[key] = (_split_table if key[0] in _CARTAN_MODELS else _key_table)(key)
        for side, (dim, table) in enumerate(sides):
            dims[side] += count * dim
            null = nulls[side]
            for w, v in table:
                null[w] = null.get(w, 0) + count * v
    null = nulls[identity]
    null[0] = null.get(0, 0) - 1
    dims[identity] -= 1
    return nulls, dims


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
    # tau fixes I in gl; in so/sp it negates I, onto the side not ranked
    identity = 0 if algebra == "gl" else 1
    keys = _keys(algebra, _tau_units(algebra, p))
    nulls, dims = _summed(keys, {} if tables is None else tables, identity)
    pairs = tuple((j, v) for j, v in sorted(nulls[0].items()) if j >= 0 and v)
    return Sl2Data(n=pairs, dim_g=dims[0])


class SigmaSplitReport(NamedTuple):
    """h/m split of each highest-weight space under a Cartan-type involution."""

    family: str
    params: Tuple[int, ...]
    splits: Tuple[Tuple[int, Tuple[int, int]], ...]  # (weight, (dim h cap V_w, dim m cap V_w))
    dim_h: int
    dim_m: int


def _ad(m: MatrixSl2Triple, leads: Sequence[int]) -> Involution:
    """Ad(S), s = eps * (-1)^k at box k of a string with leading sign eps."""
    signs = {idx: lead * (-1) ** k for s, lead in zip(m.strings, leads) for k, idx in enumerate(s)}
    return lambda a, b: (signs[a] * signs[b], (a, b))


def _sl_involution(m: MatrixSl2Triple) -> Involution:
    """-B X^T B^{-1}, B the per-string reversal: an exact normal involution
    with fixed algebra of orthogonal type."""
    rev = list(range(m.size))
    for s in m.strings:
        for k, idx in enumerate(s):
            rev[idx] = s[len(s) - 1 - k]
    return transpose_involution(rev, [1] * m.size)


def oracle_sigma_split(signed: SignedPartitionData) -> SigmaSplitReport:
    """The h/m split of each highest-weight space, summed from the split
    tables of the datum's complex rows and row pairs, a unit per row led
    by the row's sign (+ in sl), so a pair's sign is their product."""
    if signed.family not in _CARTAN_MODELS:
        raise UnsupportedInvolutionError(
            f"no integer matrix involution implemented for family {signed.family!r}")
    keys = _keys(signed.family, {(1, i, s): c for (i, s), c in signed.rows.items()})
    # the trace line's side: I is in h for su (Ad(S) fixes it), in m for sl
    identity = FAMILIES[signed.family].trace[1]
    (h_null, m_null), (dim_h, dim_m) = _summed(keys, _CARTAN_TABLES, identity)
    splits = tuple((w, (h_null.get(w, 0), m_null.get(w, 0)))
                   for w in sorted(h_null.keys() | m_null.keys())
                   if w >= 0 and (h_null.get(w, 0) or m_null.get(w, 0)))
    return SigmaSplitReport(family=signed.family, params=signed.params, splits=splits,
                            dim_h=dim_h, dim_m=dim_m)
