"""Brute-force ground truth: explicit integer matrix models of sl2-triples.

Type A triples live in gl_N with one Jordan string per part; e raises with
coefficient 1, f lowers with k(i-k) down a string of length i so that
[e,f] = h holds on the nose.  For B/C/D the same strings are made
isotropic for an explicit signed-permutation bilinear form M: strings of
the self-paired parity carry M(w_k, w_{i-1-k}) = (-1)^k, the others are
coupled in consecutive pairs.  The algebra so(M)/sp(M) then has the basis
M^{-1}(E_ab -+ E_ba), every element of which is an ad_h weight vector, and
n_j is the nullity of ad_e on the weight-j slice.

Cartan involutions are realized as explicit block/sign involutions for the
su(p,q) and sl(n,R) models, giving exact h/m splits of each highest-weight
space.  Quaternionic and orthogonal-star involutions are not modeled (they
need non-real matrix entries); callers get UnsupportedInvolutionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, NormalityError, UnsupportedInvolutionError
from .linalg import integer_rank
from .orbits import Partition, SignedPartitionData, partition_fits_family
from .rootsystems import LieFamily, LieType
from .sl2data import Sl2Data

Matrix = Tuple[Tuple[int, ...], ...]
Entry = Tuple[int, int]
Sparse = Dict[Entry, int]


def _to_matrix(entries: Sparse, size: int) -> Matrix:
    rows = [[0] * size for _ in range(size)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return tuple(tuple(row) for row in rows)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    out = []
    for r in range(size):
        row_a = a[r]
        out_row = [0] * size
        for k in range(size):
            v = row_a[k]
            if v:
                row_b = b[k]
                for c in range(size):
                    if row_b[c]:
                        out_row[c] += v * row_b[c]
        out.append(tuple(out_row))
    return tuple(out)


def _bracket(a: Matrix, b: Matrix) -> Matrix:
    ab, ba = _matmul(a, b), _matmul(b, a)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))


def _scale(a: Matrix, k: int) -> Matrix:
    return tuple(tuple(k * x for x in row) for row in a)


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


@dataclass(frozen=True)
class MatrixSl2Triple:
    """An exact sl2-triple in the defining matrix model of the ambient type."""

    ambient: LieType
    partition: Partition
    e: Matrix
    h: Matrix
    f: Matrix
    form: Optional[Matrix]  # bilinear form for B/C/D, None in type A
    strings: Tuple[Tuple[int, ...], ...]  # basis indices per Jordan string
    pairing: Tuple[int, ...]  # index involution a -> a* with h_{a*} = -h_a
    pairing_sign: Tuple[int, ...]  # mu_a = M[a][a*] (all 1 in type A)

    @property
    def size(self) -> int:
        return len(self.h)

    def weight(self, a: int) -> int:
        return self.h[a][a]


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

    e_entries: Sparse = {}
    h_entries: Sparse = {}
    f_entries: Sparse = {}
    for s in strings:
        i = len(s)
        for k, idx in enumerate(s):
            h_entries[(idx, idx)] = i - 1 - 2 * k
            if k:
                e_entries[(s[k - 1], idx)] = 1
            if k + 1 < i:
                f_entries[(s[k + 1], idx)] = (k + 1) * (i - 1 - k)

    pairing = list(range(size))
    mu = [1] * size
    form = None
    if fam is not LieFamily.A:
        keep = _self_paired_parity(fam)
        m_entries: Sparse = {}
        open_partner: Dict[int, Tuple[int, ...]] = {}
        for s in strings:
            i = len(s)
            if i % 2 == keep:
                for k, idx in enumerate(s):
                    pairing[idx] = s[i - 1 - k]
                    m_entries[(idx, s[i - 1 - k])] = (-1) ** k
            elif i in open_partner:
                u = open_partner.pop(i)
                for k in range(i):
                    pairing[u[k]] = s[i - 1 - k]
                    pairing[s[k]] = u[i - 1 - k]
                    m_entries[(u[k], s[i - 1 - k])] = (-1) ** k
                    m_entries[(s[k], u[i - 1 - k])] = -((-1) ** k)
            else:
                open_partner[i] = s
        if open_partner:
            raise AssertionError(f"unpaired strings {sorted(open_partner)} despite parity check")
        form = _to_matrix(m_entries, size)
        for a in range(size):
            mu[a] = form[a][pairing[a]]

    e = _to_matrix(e_entries, size)
    h = _to_matrix(h_entries, size)
    f = _to_matrix(f_entries, size)

    if _bracket(h, e) != _scale(e, 2) or _bracket(h, f) != _scale(f, -2) or _bracket(e, f) != h:
        raise AssertionError(f"{t.name} {p}: bracket relations failed")
    if form is not None:
        for x in (e, h, f):
            lhs = _matmul(_transpose(x), form)
            rhs = _scale(_matmul(form, x), -1)
            if lhs != rhs:
                raise AssertionError(f"{t.name} {p}: triple leaves the bilinear form")

    return MatrixSl2Triple(
        ambient=t, partition=p, e=e, h=h, f=f, form=form,
        strings=tuple(strings), pairing=tuple(pairing), pairing_sign=tuple(mu),
    )


def _gl_basis(m: MatrixSl2Triple) -> List[Tuple[Entry, Sparse, int]]:
    """(key, sparse matrix, weight) for the elementary-matrix basis."""
    out = []
    for a in range(m.size):
        for b in range(m.size):
            out.append(((a, b), {(a, b): 1}, m.weight(a) - m.weight(b)))
    return out


def _form_basis(m: MatrixSl2Triple) -> List[Tuple[Entry, Sparse, int]]:
    """Basis M^{-1}(E_ab -+ E_ba) of so(M)/sp(M), keyed by the (a,b) of
    the anti/symmetric coordinate matrix A = M X."""
    sym = m.ambient.family is LieFamily.C
    out = []
    for a in range(m.size):
        start = a if sym else a + 1
        for b in range(start, m.size):
            x: Sparse = {}
            x[(m.pairing[a], b)] = x.get((m.pairing[a], b), 0) + m.pairing_sign[a]
            second = m.pairing_sign[b] if sym else -m.pairing_sign[b]
            key = (m.pairing[b], a)
            x[key] = x.get(key, 0) + second
            x = {k: v for k, v in x.items() if v}
            w = -m.weight(a) - m.weight(b)
            out.append(((a, b), x, w))
    return out


def _ad_e(m: MatrixSl2Triple, x: Sparse) -> Sparse:
    out: Sparse = {}
    for (r, c), v in x.items():
        for rr in range(m.size):
            if m.e[rr][r]:
                out[(rr, c)] = out.get((rr, c), 0) + m.e[rr][r] * v
        for cc in range(m.size):
            if m.e[c][cc]:
                out[(r, cc)] = out.get((r, cc), 0) - m.e[c][cc] * v
    return {k: v for k, v in out.items() if v}


def _coords_form(m: MatrixSl2Triple, y: Sparse) -> Sparse:
    """Coordinates A = M Y of an algebra element Y; read half of A."""
    sym = m.ambient.family is LieFamily.C
    coords: Sparse = {}
    for (r, c), v in y.items():
        a, b = m.pairing[r], c
        val = m.pairing_sign[a] * v
        if a < b or (sym and a == b):
            coords[(a, b)] = coords.get((a, b), 0) + val
        elif b < a:
            # fold onto the stored half: A antisymmetric (so) / symmetric (sp)
            coords[(b, a)] = coords.get((b, a), 0) + (val if sym else -val)
        # a == b in the so case contributes nothing (diagonal of antisym is 0)
    return {k: v for k, v in coords.items() if v}


def _nullity_by_weight(
    m: MatrixSl2Triple,
    basis: List[Tuple[Entry, Sparse, int]],
    column_filter=None,
) -> Dict[int, int]:
    by_weight: Dict[int, List[Sparse]] = {}
    for key, x, w in basis:
        if column_filter is not None and not column_filter(key, w):
            continue
        by_weight.setdefault(w, []).append(_ad_e(m, x))
    out: Dict[int, int] = {}
    for w, images in by_weight.items():
        image_coords = images if m.form is None else [_coords_form(m, y) for y in images]
        row_keys = sorted({k for c in image_coords for k in c})
        rows = [[c.get(k, 0) for c in image_coords] for k in row_keys]
        out[w] = len(images) - integer_rank(rows)
    return out


def oracle_sl2_data(m: MatrixSl2Triple) -> Sl2Data:
    """n_j as the nullity of ad_e on the weight-j slice of the algebra."""
    basis = _gl_basis(m) if m.form is None else _form_basis(m)
    null = _nullity_by_weight(m, basis)
    if m.form is None:
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


def _su_sign_vector(m: MatrixSl2Triple, signed: SignedPartitionData) -> List[int]:
    """Leading signs per string from the signed tableau; box k of a row with
    leading sign eps gets eps * (-1)^k, so conjugation negates e."""
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
    return signs


def oracle_sigma_split(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    if signed.partition != m.partition:
        raise DomainError("signed data is for a different partition")
    if signed.family == "su":
        return _sigma_split_su(m, signed)
    if signed.family == "sl":
        return _sigma_split_sl(m, signed)
    raise UnsupportedInvolutionError(
        f"no integer matrix involution implemented for family {signed.family!r}"
    )


def _sigma_split_su(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    if m.ambient.family is not LieFamily.A:
        raise DomainError("su splits need a type A model")
    p_target, q_target = signed.params
    signs = _su_sign_vector(m, signed)
    if sum(1 for s in signs if s == 1) != p_target:
        raise NormalityError(
            f"sign vector has {sum(1 for s in signs if s == 1)} plus entries, wanted {p_target}"
        )
    # sigma = Ad(S) with S = diag(signs); sigma(e) = -e because signs
    # alternate along every string.
    for s in m.strings:
        for k in range(1, len(s)):
            if signs[s[k - 1]] * signs[s[k]] != -1:
                raise NormalityError("signs fail to alternate along a Jordan string")

    basis = _gl_basis(m)
    h_null = _nullity_by_weight(m, basis, lambda key, w: signs[key[0]] * signs[key[1]] == 1)
    m_null = _nullity_by_weight(m, basis, lambda key, w: signs[key[0]] * signs[key[1]] == -1)
    h_null[0] = h_null.get(0, 0) - 1  # identity sits in the sigma = +1 part
    weights = sorted(w for w in set(h_null) | set(m_null) if w >= 0)
    splits = tuple(
        (w, (h_null.get(w, 0), m_null.get(w, 0)))
        for w in weights
        if h_null.get(w, 0) or m_null.get(w, 0)
    )
    dim_h = p_target * p_target + q_target * q_target - 1
    dim_m = 2 * p_target * q_target
    return SigmaSplitReport(
        family="su", params=signed.params, splits=splits, dim_h=dim_h, dim_m=dim_m
    )


def _sigma_split_sl(m: MatrixSl2Triple, signed: SignedPartitionData) -> SigmaSplitReport:
    """sigma(X) = -B X^T B^{-1}, B the per-string reversal: an exact normal
    involution with fixed algebra of orthogonal type."""
    if m.ambient.family is not LieFamily.A:
        raise DomainError("sl(n,R) splits need a type A model")
    (n_param,) = signed.params
    rev = list(range(m.size))
    for s in m.strings:
        for k, idx in enumerate(s):
            rev[idx] = s[len(s) - 1 - k]

    # sigma(E_ab) = -E_{b* a*}; orbit pairs split one h + one m vector,
    # fixed points (b = a*, a = b*) are pure m.
    h_cols: Dict[int, List[Sparse]] = {}
    m_cols: Dict[int, List[Sparse]] = {}
    for a in range(m.size):
        for b in range(m.size):
            img = (rev[b], rev[a])
            if img < (a, b):
                continue
            w = m.weight(a) - m.weight(b)
            if img == (a, b):
                m_cols.setdefault(w, []).append({(a, b): 1})
            else:
                h_cols.setdefault(w, []).append({(a, b): 1, img: -1})
                m_cols.setdefault(w, []).append({(a, b): 1, img: 1})

    def null_by_weight(cols: Dict[int, List[Sparse]]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for w, xs in cols.items():
            images = [_ad_e(m, x) for x in xs]
            row_keys = sorted({k for c in images for k in c})
            rows = [[c.get(k, 0) for c in images] for k in row_keys]
            out[w] = len(xs) - integer_rank(rows)
        return out

    h_null = null_by_weight(h_cols)
    m_null = null_by_weight(m_cols)
    m_null[0] = m_null.get(0, 0) - 1  # identity: sigma(I) = -I, not in sl
    weights = sorted(w for w in set(h_null) | set(m_null) if w >= 0)
    splits = tuple(
        (w, (h_null.get(w, 0), m_null.get(w, 0)))
        for w in weights
        if h_null.get(w, 0) or m_null.get(w, 0)
    )
    dim_h = n_param * (n_param - 1) // 2
    dim_m = n_param * (n_param + 1) // 2 - 1
    return SigmaSplitReport(
        family="sl", params=signed.params, splits=splits, dim_h=dim_h, dim_m=dim_m
    )
