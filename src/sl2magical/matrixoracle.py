"""Brute-force ground truth: explicit integer matrix models of sl2-triples.

Type A triples live in gl_N with one Jordan string per part; e raises with
coefficient 1, f lowers with k(i-k) down a string of length i so that
[e,f] = h holds on the nose.  For B/C/D the same strings are made
isotropic for a signed-permutation bilinear form M = sum_a mu_a E_{a,a*}:
strings of the self-paired parity are reversed onto themselves with
mu = (-1)^k along the string, the others are coupled in consecutive pairs.
Matrices are sparse {(row, col): value} maps.

Every algebra the oracle ranks is an eigenspace of a signed-permutation
involution sigma(E_ab) = eps * E_a'b' of gl_N.  One pass over the
elementary matrices gives both eigenspaces, grouped by ad_h weight: an
orbit {E_ab, E_a'b'} gives E_ab + eps E_a'b' (+1) and E_ab - eps E_a'b'
(-1), and a fixed E_ab lies on the side of its eps.
- gl_N is the +1 side of the identity.
- so(M)/sp(M) is the +1 side of tau(X) = -M^{-1} X^T M, which sends E_ab
  to -mu_a mu_b E_{b*a*}; tau(X) = X is the equation X^T M + M X = 0.
- The Cartan involutions of su(p,q) and sl(n,R) split gl_N into h (+1)
  and m (-1).  For su(p,q) it is Ad(S), S = diag(s) alternating along each
  string: eps = s_a s_b, (a,b) fixed.  For sl(n,R) it is -B X^T B^{-1},
  the tau of the form B of the per-string reversal with every mu = 1.
The Cartan involutions of the other five classical families have the
same shape, each a signed permutation commuting with tau, but are not
modeled yet; callers get UnsupportedInvolutionError.

n_j is the nullity of ad_e on the weight-j slice.  ad_e goes through row
and column maps of e built once per triple, so each image costs time
linear in its column.  For tau-fixed x the image [e, x] is tau-fixed too,
so its entries on one key of each tau-orbit (the smaller key) determine
it; images are ranked in those coordinates.

Slice ranks are taken per row-disjoint block.  ad_e maps E_ab, a in
string s and b in string t, into the span of block (s, t), and in so/sp
the pairing merges (s, t) with (t*, s*), so the images of one slice fall
into groups that share no row.  The groups are found from the images
themselves (union-find on shared row keys), so the split holds for any
columns, the involution eigen-columns included; the slice rank is the sum
of the Bareiss ranks of its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import DomainError, NormalityError, UnsupportedInvolutionError
from .linalg import integer_rank
from .orbits import Partition, SignedPartitionData, partition_fits_family
from .rootsystems import LieFamily, LieType
from .sl2data import Sl2Data

Entry = Tuple[int, int]
Sparse = Dict[Entry, int]
Columns = Dict[int, List[Sparse]]  # ad_h weight -> basis columns of that weight
Index = Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int]]]]
# sigma(E_ab) = eps * E_a'b', given as (a, b) -> (eps, (a', b')).
Involution = Callable[[int, int], Tuple[int, Entry]]


def _index(a: Sparse) -> Index:
    """Row and column maps of a: r -> [(c, a_rc)] and c -> [(r, a_rc)]."""
    rows: Dict[int, List[Tuple[int, int]]] = {}
    cols: Dict[int, List[Tuple[int, int]]] = {}
    for (r, c), v in a.items():
        rows.setdefault(r, []).append((c, v))
        cols.setdefault(c, []).append((r, v))
    return rows, cols


def _bracket(a: Index, b: Sparse) -> Sparse:
    """The bracket a b - b a in one pass over b, given the row and column
    maps of a."""
    rows, cols = a
    out: Sparse = {}
    for (k, c), v in b.items():
        for r, w in cols.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + w * v
        for s, w in rows.get(c, ()):
            out[(k, s)] = out.get((k, s), 0) - v * w
    return {key: v for key, v in out.items() if v}


def _scale(a: Sparse, k: int) -> Sparse:
    return {key: k * v for key, v in a.items()}


def _identity(a: int, b: int) -> Tuple[int, Entry]:
    return 1, (a, b)


def _transpose_involution(pair: Sequence[int], sign: Sequence[int]) -> Involution:
    """X -> -M^{-1} X^T M for M = sum_a sign_a E_{a, pair_a}, pair an
    involution of the indices: E_ab -> -sign_a sign_b E_{b*a*}."""
    return lambda a, b: (-sign[a] * sign[b], (pair[b], pair[a]))


def _is_eigen(sigma: Involution, x: Sparse, sign: int) -> bool:
    """Whether sigma(x) = sign * x."""
    for key, v in x.items():
        eps, img = sigma(*key)
        if x.get(img) != sign * eps * v:
            return False
    return True


@dataclass(frozen=True)
class MatrixSl2Triple:
    """An exact sl2-triple in the defining matrix model of the ambient type.

    Construction checks the bracket relations and that e, h and f lie in
    the algebra, tau(x) = x."""

    ambient: LieType
    partition: Partition
    e: Sparse
    h: Sparse
    f: Sparse
    strings: Tuple[Tuple[int, ...], ...]  # basis indices per Jordan string
    pairing: Tuple[int, ...]  # index involution a -> a* with h_{a*} = -h_a
    pairing_sign: Tuple[int, ...]  # mu_a = M[a][a*] (all 1 in type A)

    def __post_init__(self) -> None:
        e, h, f = self.e, self.h, self.f
        h_index = _index(h)
        if (_bracket(h_index, e) != _scale(e, 2) or _bracket(h_index, f) != _scale(f, -2)
                or self.ad_e(f) != h):
            raise AssertionError(f"{self.ambient.name} {self.partition}: bracket relations failed")
        if not all(_is_eigen(self.tau, x, 1) for x in (e, h, f)):
            raise AssertionError(
                f"{self.ambient.name} {self.partition}: triple leaves the bilinear form")

    @property
    def size(self) -> int:
        return len(self.pairing)

    @cached_property
    def weights(self) -> Tuple[int, ...]:
        """The ad_h weight h_a of each basis index a."""
        return tuple(self.h.get((a, a), 0) for a in range(self.size))

    @cached_property
    def tau(self) -> Involution:
        """The involution whose +1 side is the ambient algebra: the identity
        on gl_N, X -> -M^{-1} X^T M on so(M)/sp(M)."""
        if self.ambient.family is LieFamily.A:
            return _identity
        return _transpose_involution(self.pairing, self.pairing_sign)

    @cached_property
    def _e_index(self) -> Index:
        return _index(self.e)

    def ad_e(self, x: Sparse) -> Sparse:
        """[e, x], in time linear in the entries of x."""
        return _bracket(self._e_index, x)


def _self_paired_parity(fam: LieFamily) -> int:
    # so: odd parts are self-paired; sp: even parts are.
    return 1 if fam in (LieFamily.B, LieFamily.D) else 0


def build_matrix_triple(t: LieType, p: Partition) -> MatrixSl2Triple:
    fam = t.family
    if not fam.is_classical:
        raise DomainError(f"{t.name} has no partition matrix model")
    if p.n != t.matrix_size:
        raise DomainError(f"{t.name} needs a partition of {t.matrix_size}, got {p.n}")
    if not partition_fits_family(t, p):
        raise DomainError(f"{p} violates the {fam.value}-type parity rule")

    strings: List[Tuple[int, ...]] = []
    next_index = 0
    for part in p.parts:
        strings.append(tuple(range(next_index, next_index + part)))
        next_index += part
    size = next_index

    e: Sparse = {}
    h: Sparse = {}
    f: Sparse = {}
    for s in strings:
        i = len(s)
        for k, idx in enumerate(s):
            if i - 1 - 2 * k:
                h[(idx, idx)] = i - 1 - 2 * k
            if k:
                e[(s[k - 1], idx)] = 1
            if k + 1 < i:
                f[(s[k + 1], idx)] = (k + 1) * (i - 1 - k)

    pairing = list(range(size))
    mu = [1] * size
    if fam is not LieFamily.A:
        keep = _self_paired_parity(fam)
        open_partner: Dict[int, Tuple[int, ...]] = {}
        for s in strings:
            i = len(s)
            if i % 2 == keep:
                for k, idx in enumerate(s):
                    pairing[idx], mu[idx] = s[i - 1 - k], (-1) ** k
            elif i in open_partner:
                u = open_partner.pop(i)
                for k in range(i):
                    pairing[u[k]], mu[u[k]] = s[i - 1 - k], (-1) ** k
                    pairing[s[k]], mu[s[k]] = u[i - 1 - k], -((-1) ** k)
            else:
                open_partner[i] = s
        if open_partner:
            raise AssertionError(f"unpaired strings {sorted(open_partner)} despite parity check")

    return MatrixSl2Triple(
        ambient=t, partition=p, e=e, h=h, f=f,
        strings=tuple(strings), pairing=tuple(pairing), pairing_sign=tuple(mu),
    )


def _eigen_columns(m: MatrixSl2Triple, sigma: Involution) -> Tuple[Columns, Columns]:
    """The +1 and -1 eigen-columns of sigma on gl_N, grouped by weight."""
    wt = m.weights
    sides: Tuple[Columns, Columns] = ({}, {})
    for a in range(m.size):
        for b in range(m.size):
            eps, img = sigma(a, b)
            if img < (a, b):
                continue
            w = wt[a] - wt[b]
            if img == (a, b):
                sides[0 if eps == 1 else 1].setdefault(w, []).append({img: 1})
            else:
                sides[0].setdefault(w, []).append({(a, b): 1, img: eps})
                sides[1].setdefault(w, []).append({(a, b): 1, img: -eps})
    return sides


def _ad_e_images(m: MatrixSl2Triple, xs: List[Sparse]) -> List[Sparse]:
    """The columns [e, x], each read on the smaller key of every tau-orbit."""
    images = [m.ad_e(x) for x in xs]
    if m.ambient.family is not LieFamily.A:
        tau = m.tau
        images = [{k: v for k, v in y.items() if k <= tau(*k)[1]} for y in images]
    return images


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
    return {w: len(xs) - _slice_rank(_ad_e_images(m, xs)) for w, xs in columns.items()}


def oracle_sl2_data(m: MatrixSl2Triple) -> Sl2Data:
    """n_j as the nullity of ad_e on the weight-j slice of the algebra."""
    null = _nullity_by_weight(m, _eigen_columns(m, m.tau)[0])
    if m.ambient.family is LieFamily.A:
        null[0] -= 1  # the identity matrix is not in sl
    pairs = tuple((j, v) for j, v in sorted(null.items()) if j >= 0 and v)
    return Sl2Data(n=pairs, dim_g=m.ambient.dim)


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
    return _transpose_involution(rev, [1] * m.size)


def _involution(m: MatrixSl2Triple, signed: SignedPartitionData) -> Involution:
    """The Cartan involution of the signed datum, checked to negate e."""
    if signed.partition != m.partition:
        raise DomainError("signed data is for a different partition")
    if signed.family not in ("su", "sl"):
        raise UnsupportedInvolutionError(
            f"no integer matrix involution implemented for family {signed.family!r}"
        )
    if m.ambient.family is not LieFamily.A:
        raise DomainError(f"{signed.family} splits need a type A model")
    sigma = _su_involution(m, signed) if signed.family == "su" else _sl_involution(m)
    if not _is_eigen(sigma, m.e, -1):
        raise NormalityError(f"the {signed.family} involution does not negate e")
    return sigma


def oracle_sigma_split(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    sigma = _involution(m, signed)
    sides = _eigen_columns(m, sigma)
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
