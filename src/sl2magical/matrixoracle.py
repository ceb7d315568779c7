"""Brute-force ground truth: n_j and Cartan splits as nullities of ad_e.

The matrices come from matrixmodel: sl2-triples on Jordan strings, and
every algebra ranked here as an eigenspace of a signed-permutation
involution of gl_N.  gl_N and so(M)/sp(M) are the +1 sides of tau.  The
Cartan involutions of su(p,q) and sl(n,R) split gl_N into h (+1) and m
(-1).  For su(p,q) it is Ad(S), S = diag(s) alternating along each string:
eps = s_a s_b, (a,b) fixed.  For sl(n,R) it is -B X^T B^{-1}, the tau of
the form B of the per-string reversal with every mu = 1.  The Cartan
involutions of the other five classical families have the same shape,
each a signed permutation commuting with tau, but are not modeled yet;
callers get UnsupportedInvolutionError.

n_j is the nullity of ad_e on the weight-j slice, but oracle_sl2_data does
not rank the whole algebra.  e is block-diagonal over the strings, so ad_e
maps each block (s, t) = span{E_ab : a in s, b in t} into itself, and tau,
an automorphism fixing e, maps block (s, t) onto block (t*, s*).  The span
of each tau-orbit of blocks is therefore stable under both ad_e and tau,
and the algebra is the direct sum of the tau-fixed parts of these spans.
Group the strings into units: a self-paired string S, or a coupled pair
P = {u, u*}; in gl, where tau is the identity, every string is a unit S of
its own.  The blocks within one unit make up one such span, and so do the
blocks between two units, so each span's nullity by weight depends only
on a key: the algebra, the unit kinds (S, a diagonal block of gl, and SS,
the two cross blocks of two strings; S, SS, P, SP, PP in so/sp) and the
string lengths.  Each key's table is ranked once by exact elimination on a
template triple that holds just those one or two units, laid out by the
same matrixmodel.lay_out, so the tau-merging, the self-paired strings and
the mu signs are ranked, not assumed.  n_j is then the sum of the tables
over the units and unit pairs of the orbit's layout, weighted by their
multiplicities.

Slice ranks are taken per row-disjoint block.  ad_e maps E_ab, a in
string s and b in string t, into the span of block (s, t), and in so/sp
the pairing merges (s, t) with (t*, s*), so the images of one slice fall
into groups that share no row.  The groups are found from the images
themselves (union-find on shared row keys), so the split holds for any
columns, the involution eigen-columns included; the slice rank is the sum
of the Bareiss ranks of its blocks.  Templates hold at most two units, so
the split matters for the sigma split, whose columns run over all of gl_N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    unit_of = {a: j for j, u in enumerate(m.units()) for s in u for a in s}
    columns = {w: [x for x in xs if len({unit_of[a] for a in next(iter(x))}) == len(kind)]
               for w, xs in eigen_columns(m, m.tau)[0].items()}
    return tuple(sorted((w, v) for w, v in _nullity_by_weight(m, columns).items() if v))


def oracle_sl2_data(layout: StringLayout, tables: Optional[BlockTables] = None) -> Sl2Data:
    """n_j as the nullity of ad_e on the weight-j slice of the algebra,
    summed over the block orbits of the layout.  A key missing from tables
    is ranked and added, so callers passing one dict to many orbits rank
    each key once."""
    if tables is None:
        tables = {}
    null: Dict[int, int] = {}
    for key, count in _block_keys(layout).items():
        if key not in tables:
            tables[key] = _block_table(key)
        for w, v in tables[key]:
            null[w] = null.get(w, 0) + count * v
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

    def as_dict(self) -> Dict[int, Tuple[int, int]]:
        return dict(self.splits)

    @property
    def s(self) -> int:
        return self.dim_m - self.dim_h

    def m_parts(self) -> Dict[int, int]:
        return {w: hm[1] for w, hm in self.splits}


def _su_involution(m: MatrixSl2Triple, signed: SignedPartitionData) -> Involution:
    """Ad(S), S = diag(signs).  Leading signs per string come from the
    signed tableau; box k of a row with leading sign eps gets eps * (-1)^k."""
    remaining = {part: pq for part, pq in signed.signs}
    signs = [0] * m.size
    for s in m.strings:
        part = len(s)
        plus, minus = remaining[part]
        if plus:
            lead, remaining[part] = 1, (plus - 1, minus)
        else:
            if not minus:
                raise AssertionError(f"sign budget exhausted for part {part}")
            lead, remaining[part] = -1, (plus, minus - 1)
        for k, idx in enumerate(s):
            signs[idx] = lead * (-1) ** k
    plus_count = signs.count(1)
    if plus_count != signed.params[0]:
        raise NormalityError(
            f"sign vector has {plus_count} plus entries, wanted {signed.params[0]}"
        )
    return lambda a, b: (signs[a] * signs[b], (a, b))


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


def oracle_sigma_split(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    sigma = _involution(m, signed)
    sides = eigen_columns(m, sigma)
    nulls = [_nullity_by_weight(m, cols) for cols in sides]
    dims = [sum(map(len, cols.values())) for cols in sides]
    trace = 0 if sigma(0, 0)[0] == 1 else 1  # the side of sigma(I) = +-I
    nulls[trace][0] = nulls[trace].get(0, 0) - 1  # I is not in sl
    dims[trace] -= 1

    h_null, m_null = nulls
    splits = tuple((w, (h_null.get(w, 0), m_null.get(w, 0)))
                   for w in sorted(set(h_null) | set(m_null))
                   if w >= 0 and (h_null.get(w, 0) or m_null.get(w, 0)))
    return SigmaSplitReport(
        family=signed.family, params=signed.params, splits=splits,
        dim_h=dims[0], dim_m=dims[1],
    )
