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
units: a self-paired string S, or a coupled pair P = {u, u*}; in gl
every string is a unit S.  The blocks within one unit, or between two,
span a space stable under ad_e and the involution, whose nullity by
weight (and h and m column counts) depends only on a key: the algebra or
family, the unit kinds (S, SS in gl; S, SS, P, SP, PP in so/sp), the
string lengths and, for su SS, the product of the two strings' leading
signs.  Each key is ranked once by exact elimination on a template
triple of just its units, laid out by the same matrixmodel.lay_out, so
the tau-merging, the self-paired strings and the mu signs are ranked,
not assumed; a Cartan template's involution is checked to negate e.
n_j and the h/m split sum the tables over the units and unit pairs of
the orbit, weighted by multiplicity, less the identity in gl.

Slice ranks are summed over row-disjoint blocks, found from the images
themselves (union-find on shared row keys), so the split holds for any
columns.  In a two-unit template they are the tau-orbits of its cross
blocks, or the two cross blocks of two strings that Ad(S) keeps apart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, NormalityError, UnsupportedInvolutionError
from .linalg import integer_rank
from .matrixmodel import (
    Columns,
    Entry,
    Involution,
    MatrixSl2Triple,
    Sparse,
    StringLayout,
    ad_e_images,
    eigen_columns,
    is_eigen,
    lay_out,
    transpose_involution,
    triple_on,
)
from .orbits import Partition, SignedPartitionData, partition_fits_family
from .rootsystems import LieFamily, LieType
from .sl2data import Sl2Data

# (algebra, unit kinds, string length of each unit), e.g. ("so", "SP", (3, 2)).
BlockKey = Tuple[str, str, Tuple[int, ...]]
# Nullity of ad_e by weight on one block orbit: sorted (weight, nullity), zeros dropped.
Table = Tuple[Tuple[int, int], ...]
BlockTables = Dict[BlockKey, Table]
# (family, kinds, lengths, leading-sign product in su SS, else 1), e.g. ("su", "SS", (3, 2), -1).
SplitKey = Tuple[str, str, Tuple[int, ...], int]

_FAMILY_ALGEBRA = {LieFamily.A: "gl", LieFamily.B: "so", LieFamily.C: "sp", LieFamily.D: "so"}
# The simple algebra on C^N: sl_N inside gl_N, so_N, sp_N.
_SIMPLE_DIM = {"gl": lambda n: n * n - 1, "so": lambda n: n * (n - 1) // 2,
               "sp": lambda n: n * (n + 1) // 2}


def string_layout(t: LieType, p: Partition) -> StringLayout:
    """The layout of the orbit p of the classical type t, validated."""
    fam = t.family
    if not fam.is_classical:
        raise DomainError(f"{t.name} has no partition matrix model")
    if p.n != t.matrix_size:
        raise DomainError(f"{t.name} needs a partition of {t.matrix_size}, got {p.n}")
    if not partition_fits_family(t, p):
        raise DomainError(f"{p} violates the {fam.value}-type parity rule")
    return lay_out(_FAMILY_ALGEBRA[fam], p)


def build_matrix_triple(t: LieType, p: Partition) -> MatrixSl2Triple:
    return triple_on(string_layout(t, p))


def _row_disjoint_blocks(images: List[Sparse]) -> List[List[Sparse]]:
    """The nonzero images grouped so that no two groups share a row:
    union-find over the columns, joined at each shared row key."""
    parent = list(range(len(images)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: Dict[Entry, int] = {}
    for j, y in enumerate(images):
        for key in y:
            i = owner.setdefault(key, j)
            if i != j:
                parent[find(i)] = find(j)
    blocks: Dict[int, List[Sparse]] = {}
    for j, y in enumerate(images):
        if y:
            blocks.setdefault(find(j), []).append(y)
    return list(blocks.values())


def _slice_rank(images: List[Sparse]) -> int:
    """Rank of the columns, summed over their row-disjoint blocks: the rank
    of a block-diagonal matrix is the sum of its blocks' ranks."""
    rank = 0
    for block in _row_disjoint_blocks(images):
        keys = sorted({k for y in block for k in y})
        rank += integer_rank([[y.get(k, 0) for y in block] for k in keys])
    return rank


def _nullity_by_weight(m: MatrixSl2Triple, columns: Columns) -> Dict[int, int]:
    """Nullity of ad_e on the span of each weight's columns."""
    return {w: len(xs) - _slice_rank(ad_e_images(m, xs)) for w, xs in columns.items()}


def _table(m: MatrixSl2Triple, columns: Columns) -> Table:
    return tuple(sorted((w, v) for w, v in _nullity_by_weight(m, columns).items() if v))


def _unit_columns(m: MatrixSl2Triple, sigma: Involution, units: int) -> Tuple[Columns, Columns]:
    """sigma's eigen-columns within the one unit of a template, or between its two."""
    unit_of = {a: j for j, u in enumerate(m.units()) for s in u for a in s}
    return eigen_columns(m, sigma, [(a, b) for a in range(m.size) for b in range(m.size)
                                    if len({unit_of[a], unit_of[b]}) == units])


def _block_keys(layout: StringLayout) -> Counter:
    """Block-orbit key -> the number of block orbits of the layout with that
    key: one orbit per unit, one per pair of distinct units."""
    units = sorted(Counter((len(u), len(u[0])) for u in layout.units()).items())
    keys: Counter = Counter()
    for i, ((strings, length), count) in enumerate(units):
        kind = "SP"[strings - 1]
        keys[layout.algebra, kind, (length,)] += count
        if count > 1:
            keys[layout.algebra, kind * 2, (length, length)] += count * (count - 1) // 2
        for (strings2, length2), count2 in units[i + 1:]:
            keys[layout.algebra, kind + "SP"[strings2 - 1], (length, length2)] += count * count2
    return keys


def _block_table(key: BlockKey) -> Table:
    """The nullity table of one block-orbit key, ranked on a template triple
    holding just the key's units: over every tau-fixed column within its one
    unit, or between its two."""
    algebra, kind, lengths = key
    parts = [length for unit, length in zip(kind, lengths) for _ in range("SP".index(unit) + 1)]
    m = triple_on(lay_out(algebra, Partition.of(*parts)))
    if _block_keys(m)[key] != 1:
        raise AssertionError(f"template {m.name} does not hold the units of {key}")
    return _table(m, _unit_columns(m, m.tau, len(kind))[0])


def oracle_sl2_data(layout: StringLayout, tables: Optional[BlockTables] = None) -> Sl2Data:
    """n_j as the nullity of ad_e on the weight-j slice of the algebra,
    summed over the block orbits of the layout.  A key missing from tables
    is ranked and added, so callers passing one dict to many orbits rank
    each key once."""
    if tables is None:
        tables = {}
    null: Counter = Counter()
    for key, count in _block_keys(layout).items():
        if key not in tables:
            tables[key] = _block_table(key)
        null.update({w: count * v for w, v in tables[key]})
    if layout.algebra == "gl":
        null[0] -= 1  # the identity matrix is not in sl
    pairs = tuple((j, v) for j, v in sorted(null.items()) if j >= 0 and v)
    return Sl2Data(n=pairs, dim_g=_SIMPLE_DIM[layout.algebra](layout.size))


@dataclass(frozen=True)
class SigmaSplitReport:
    """h/m split of each highest-weight space under a Cartan-type involution."""

    family: str
    params: Tuple[int, ...]
    splits: Tuple[Tuple[int, Tuple[int, int]], ...]  # (weight, (dim h cap V_w, dim m cap V_w))
    dim_h: int
    dim_m: int

    def split_at(self, w: int) -> Tuple[int, int]:
        return dict(self.splits).get(w, (0, 0))

    def m_parts(self) -> Dict[int, int]:
        return {w: hm[1] for w, hm in self.splits}


def _ad(m: MatrixSl2Triple, leads: Sequence[int]) -> Involution:
    """Ad(S), s = eps * (-1)^k at box k of a string with leading sign eps."""
    signs = {idx: lead * (-1) ** k for s, lead in zip(m.strings, leads) for k, idx in enumerate(s)}
    return lambda a, b: (signs[a] * signs[b], (a, b))


def _su_involution(m: MatrixSl2Triple, signed: SignedPartitionData) -> Involution:
    """Ad(S), each length's strings led by the tableau's plus signs, then its minus."""
    budget = {part: [-1] * minus + [1] * plus for part, (plus, minus) in signed.signs}
    leads = [budget[len(s)].pop() for s in m.strings]
    plus_count = sum((len(s) + (lead == 1)) // 2 for s, lead in zip(m.strings, leads))
    if plus_count != signed.params[0]:
        raise NormalityError(
            f"sign vector has {plus_count} plus entries, wanted {signed.params[0]}"
        )
    return _ad(m, leads)


def _sl_involution(m: MatrixSl2Triple) -> Involution:
    """-B X^T B^{-1}, B the per-string reversal: an exact normal involution
    with fixed algebra of orthogonal type."""
    rev = list(range(m.size))
    for s in m.strings:
        for k, idx in enumerate(s):
            rev[idx] = s[len(s) - 1 - k]
    return transpose_involution(rev, [1] * m.size)


def _involution(m: MatrixSl2Triple, signed: SignedPartitionData) -> Involution:
    """The Cartan involution of the signed datum, checked to negate e."""
    if signed.partition != m.partition:
        raise DomainError("signed data is for a different partition")
    if signed.family not in ("su", "sl"):
        raise UnsupportedInvolutionError(
            f"no integer matrix involution implemented for family {signed.family!r}"
        )
    if m.algebra != "gl":
        raise DomainError(f"{signed.family} splits need a type A model")
    sigma = _su_involution(m, signed) if signed.family == "su" else _sl_involution(m)
    if not is_eigen(sigma, m.e, -1):
        raise NormalityError(f"the {signed.family} involution does not negate e")
    return sigma


def _split_keys(m: MatrixSl2Triple, family: str, sigma: Involution) -> Counter:
    """Split key -> its number of strings or string pairs; in su, sigma(s_0, t_0) = s_0 t_0."""
    keys = Counter((family, "S", (len(s),), 1) for s in m.strings)
    keys.update((family, "SS", (len(s), len(t)), sigma(s[0], t[0])[0] if family == "su" else 1)
                for s, t in combinations(m.strings, 2))
    return keys


@lru_cache(maxsize=None)
def _split_table(key: SplitKey) -> Tuple[Tuple[int, Table], ...]:
    """(column count, nullity table) of the h and m sides of a key, on a gl template."""
    family, kind, lengths, sign = key
    m = triple_on(lay_out("gl", Partition.of(*lengths)))
    sigma = _ad(m, (1, sign)) if family == "su" else _sl_involution(m)
    if not is_eigen(sigma, m.e, -1):
        raise AssertionError(f"template {m.name}: the {family} involution does not negate e")
    return tuple((sum(map(len, cols.values())), _table(m, cols))
                 for cols in _unit_columns(m, sigma, len(kind)))


def oracle_sigma_split(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    """The h/m split of each highest-weight space, summed from the split tables."""
    sigma = _involution(m, signed)
    nulls, dims = (Counter(), Counter()), [0, 0]
    for key, count in _split_keys(m, signed.family, sigma).items():
        for side, (dim, table) in enumerate(_split_table(key)):
            dims[side] += count * dim
            nulls[side].update({w: count * v for w, v in table})
    trace = 0 if sigma(0, 0)[0] == 1 else 1  # the side of sigma(I) = +-I
    nulls[trace][0] -= 1  # I is not in sl
    dims[trace] -= 1
    h_null, m_null = nulls
    splits = tuple((w, (h_null[w], m_null[w])) for w in sorted(h_null.keys() | m_null.keys())
                   if w >= 0 and (h_null[w] or m_null[w]))
    return SigmaSplitReport(family=signed.family, params=signed.params, splits=splits,
                            dim_h=dims[0], dim_m=dims[1])
