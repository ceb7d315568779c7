"""Exact integer matrix models of sl2-triples, the input of the matrix oracle.

A triple of gl_N has one Jordan string per part; e raises with
coefficient 1, f lowers with k(i-k) down a string of length i so that
[e,f] = h holds on the nose.  In so_N and sp_N the same strings are made
isotropic for a signed-permutation bilinear form M = sum_a mu_a E_{a,a*}:
strings of the parity rootsystems.SELF_PAIRED_PARITY gives are reversed
onto themselves with mu = (-1)^k, the others coupled in consecutive pairs.
One function, triple_on, places the strings, sets the pairing and the mu
signs, and then e, h and f, for the orbits users name and for the
oracle's small template triples alike.  Matrices are sparse
{(row, col): value} maps.

Every algebra the oracle ranks is an eigenspace of a signed-permutation
involution sigma(E_ab) = eps * E_a'b' of gl_N.  One pass over the
elementary matrices gives both eigenspaces, grouped by ad_h weight: an
orbit {E_ab, E_a'b'} gives E_ab + eps E_a'b' (+1) and E_ab - eps E_a'b'
(-1), and a fixed E_ab lies on the side of its eps.  gl_N is the +1 side
of the identity; so(M)/sp(M) is the +1 side of tau(X) = -M^{-1} X^T M,
which sends E_ab to -mu_a mu_b E_{b*a*}, so tau(X) = X is the equation
X^T M + M X = 0.

ad_e goes through row and column maps of e built once per triple, so each
image costs time linear in its column.  For tau-fixed x the image [e, x]
is tau-fixed too, so its entries on one key of each tau-orbit (the smaller
key, (a, b) <= (b*, a*) by the pairing) determine it; images are read in
those coordinates.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .orbits import Partition
from .records import Checked
from .rootsystems import SELF_PAIRED_PARITY

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


def identity_involution(a: int, b: int) -> Tuple[int, Entry]:
    return 1, (a, b)


def transpose_involution(pair: Sequence[int], sign: Sequence[int]) -> Involution:
    """X -> -M^{-1} X^T M for M = sum_a sign_a E_{a, pair_a}, pair an
    involution of the indices: E_ab -> -sign_a sign_b E_{b*a*}."""
    return lambda a, b: (-sign[a] * sign[b], (pair[b], pair[a]))


def is_eigen(sigma: Involution, x: Sparse, sign: int) -> bool:
    """Whether sigma(x) = sign * x."""
    for key, v in x.items():
        eps, img = sigma(*key)
        if x.get(img) != sign * eps * v:
            return False
    return True


class _TripleFields(NamedTuple):
    algebra: str
    partition: Partition
    strings: Tuple[Tuple[int, ...], ...]  # basis indices per Jordan string
    pairing: Tuple[int, ...]  # index involution a -> a* with h_{a*} = -h_a
    pairing_sign: Tuple[int, ...]  # mu_a = M[a][a*] (all 1 in gl)
    e: Sparse
    h: Sparse
    f: Sparse


class MatrixSl2Triple(Checked, _TripleFields):
    """An exact sl2-triple on the Jordan strings of a partition in C^N,
    with the form pairing them.

    algebra is "gl" (no form), "so" or "sp": the algebra is the +1 side of
    tau, the identity on gl_N.  Construction checks that h is diagonal,
    the bracket relations and that e, h and f lie in the algebra,
    tau(x) = x.  An instance's __dict__ holds its cached properties."""

    def __new__(cls, algebra: str, partition: Partition, strings: Tuple[Tuple[int, ...], ...],
                pairing: Tuple[int, ...], pairing_sign: Tuple[int, ...], e: Sparse, h: Sparse,
                f: Sparse) -> "MatrixSl2Triple":
        self = super().__new__(cls, algebra, partition, strings, pairing, pairing_sign, e, h, f)
        if any(a != b for a, b in h):
            raise AssertionError(f"{self.name}: h is not diagonal")
        # [h, x] = (h_a - h_b) x_ab for the diagonal h
        wt = self.weights
        if (not all(v and wt[a] - wt[b] == 2 for (a, b), v in e.items())
                or not all(v and wt[a] - wt[b] == -2 for (a, b), v in f.items())
                or self.ad_e(f) != h):
            raise AssertionError(f"{self.name}: bracket relations failed")
        if not all(is_eigen(self.tau, x, 1) for x in (e, h, f)):
            raise AssertionError(f"{self.name}: triple leaves the bilinear form")
        return self

    @property
    def name(self) -> str:
        return f"{self.algebra}({self.size}) {self.partition}"

    @property
    def size(self) -> int:
        return len(self.pairing)

    @cached_property
    def tau(self) -> Involution:
        """The involution whose +1 side is the algebra: the identity on
        gl_N, X -> -M^{-1} X^T M on so(M)/sp(M)."""
        if self.algebra == "gl":
            return identity_involution
        return transpose_involution(self.pairing, self.pairing_sign)

    def units(self) -> List[Tuple[Tuple[int, ...], ...]]:
        """The strings grouped into units: a self-paired string (every
        string of gl) or a coupled pair (u, u*), in layout order."""
        string_of = {a: s for s in self.strings for a in s}
        out: List[Tuple[Tuple[int, ...], ...]] = []
        for s in self.strings:
            partner = string_of[self.pairing[s[0]]]
            if partner is s:
                out.append((s,))
            elif s[0] < partner[0]:
                out.append((s, partner))
        return out

    @cached_property
    def weights(self) -> Tuple[int, ...]:
        """The ad_h weight h_a of each basis index a."""
        return tuple(self.h.get((a, a), 0) for a in range(self.size))

    @cached_property
    def _e_index(self) -> Index:
        return _index(self.e)

    def ad_e(self, x: Sparse) -> Sparse:
        """[e, x], in time linear in the entries of x."""
        return _bracket(self._e_index, x)


def triple_on(algebra: str, p: Partition) -> MatrixSl2Triple:
    """The triple on one string of consecutive indices per part of p and,
    outside gl, the form pairing them: a string of the self-paired parity
    is reversed onto itself with mu = (-1)^k, the others are coupled in
    consecutive pairs of equal length.  e raises along each string, f
    lowers with k(i-k).  p must meet the parity rule of the algebra."""
    strings: List[Tuple[int, ...]] = []
    next_index = 0
    for part in p.parts:
        strings.append(tuple(range(next_index, next_index + part)))
        next_index += part
    pairing = list(range(next_index))
    mu = [1] * next_index
    keep = SELF_PAIRED_PARITY[algebra]
    if keep is not None:
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
            raise AssertionError(f"{algebra} {p}: strings {sorted(open_partner)} unpaired")
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
    return MatrixSl2Triple(algebra=algebra, partition=p, strings=tuple(strings),
                           pairing=tuple(pairing), pairing_sign=tuple(mu), e=e, h=h, f=f)


def eigen_columns(m: MatrixSl2Triple, sigma: Involution,
                  entries: Optional[Iterable[Entry]] = None,
                  minus: bool = True) -> Tuple[Columns, Columns]:
    """The +1 and -1 eigen-columns of sigma, grouped by weight, on the span
    of the E_ab with (a, b) in entries, a sigma-stable set (default gl_N);
    the -1 side is left empty unless minus."""
    wt = m.weights
    sides: Tuple[Columns, Columns] = ({}, {})
    for entry in product(range(m.size), repeat=2) if entries is None else entries:
        eps, img = sigma(*entry)
        if img < entry:
            continue
        a, b = entry
        w = wt[a] - wt[b]
        if img != entry:
            sides[0].setdefault(w, []).append({entry: 1, img: eps})
            if minus:
                sides[1].setdefault(w, []).append({entry: 1, img: -eps})
        elif eps == 1 or minus:
            sides[eps != 1].setdefault(w, []).append({img: 1})
    return sides


def ad_e_images(m: MatrixSl2Triple, xs: List[Sparse]) -> List[Sparse]:
    """The columns [e, x], from e's row and column maps, each read on the
    smaller key of every tau-orbit, (a, b) <= (b*, a*); an entry whose
    terms cancel is kept as a zero."""
    rows, cols = m._e_index
    pair = None if m.algebra == "gl" else m.pairing
    images = []
    for x in xs:
        y: Sparse = {}
        for (k, c), v in x.items():
            for r, w in cols.get(k, ()):
                if pair is None or (r, c) <= (pair[c], pair[r]):
                    y[r, c] = y.get((r, c), 0) + w * v
            for s, w in rows.get(c, ()):
                if pair is None or (k, s) <= (pair[s], pair[k]):
                    y[k, s] = y.get((k, s), 0) - v * w
        images.append(y)
    return images
