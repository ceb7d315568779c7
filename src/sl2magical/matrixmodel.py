"""Exact integer matrix models of sl2-triples, the input of the matrix oracle.

A triple of gl_N has one Jordan string per part; e raises with
coefficient 1, f lowers with k(i-k) down a string of length i so that
[e,f] = h holds on the nose.  In so_N and sp_N the same strings are made
isotropic for a signed-permutation bilinear form M = sum_a mu_a E_{a,a*}:
strings of the parity rootsystems.SELF_PAIRED_PARITY gives are reversed
onto themselves with mu = (-1)^k, the others coupled in consecutive pairs.
One function, triple_on, places the strings, sets the pairing and the mu
signs, and then e, h and f, for the oracle's small template triples and
for the whole-orbit triples of matrixoracle.build_matrix_triple, which no
command builds: the tests rank those as the full-route reference.
Matrices are sparse {(row, col): value} maps.

The oracle ranks the +1 side of tau, a signed-permutation involution
sigma(E_ab) = eps * E_a'b' of gl_N: the identity, whose +1 side is gl_N,
or tau(X) = -M^{-1} X^T M, which sends E_ab to -mu_a mu_b E_{b*a*}, so
its +1 side so(M)/sp(M) is the solution of X^T M + M X = 0.
eigen_columns lists a +1 side by ad_h weight: an orbit {E_ab, E_a'b'}
gives E_ab + eps E_a'b', and a fixed E_ab counts when its eps is 1.

ad_e goes through row and column maps of e built once per triple, so each
image costs time linear in its column.  For tau-fixed x the image [e, x]
is tau-fixed too, so its entries on one key of each tau-orbit (the smaller
key, (a, b) <= (b*, a*) by the pairing) determine it; images are read in
those coordinates, and so is the constructor's check of [e, f] = h.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .orbits import Partition
from .records import Checked
from .rootsystems import SELF_PAIRED_PARITY

Entry = Tuple[int, int]
Sparse = Dict[Entry, int]
Columns = Dict[int, List[Sparse]]  # ad_h weight -> basis columns of that weight
Index = Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int]]]]
# sigma(E_ab) = eps * E_a'b', given as (a, b) -> (eps, (a', b')).
Involution = Callable[[int, int], Tuple[int, Entry]]


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
    that e, h and f lie in the algebra, tau(x) = x, and the bracket
    relations.  An instance's __dict__ holds its cached properties."""

    def __new__(cls, algebra: str, partition: Partition, strings: Tuple[Tuple[int, ...], ...],
                pairing: Tuple[int, ...], pairing_sign: Tuple[int, ...], e: Sparse, h: Sparse,
                f: Sparse) -> "MatrixSl2Triple":
        self = super().__new__(cls, algebra, partition, strings, pairing, pairing_sign, e, h, f)
        if any(a != b for a, b in h):
            raise AssertionError(f"{self.name}: h is not diagonal")
        if not all(is_eigen(self.tau, x, 1) for x in (e, h, f)):
            raise AssertionError(f"{self.name}: triple leaves the bilinear form")
        # [h, x] = (h_a - h_b) x_ab for the diagonal h; [e, f] is tau-fixed,
        # as e and f are, so it equals h on one key of each tau-orbit
        wt = self.weights
        (ef,) = ad_e_images(self, [f])
        if (not all(v and wt[a] - wt[b] == 2 for (a, b), v in e.items())
                or not all(v and wt[a] - wt[b] == -2 for (a, b), v in f.items())
                or {key: v for key, v in ef.items() if v}
                != {(a, b): v for (a, b), v in h.items() if (a, b) <= (pairing[b], pairing[a])}):
            raise AssertionError(f"{self.name}: bracket relations failed")
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
        """Row and column maps of e: r -> [(c, e_rc)] and c -> [(r, e_rc)]."""
        rows: Dict[int, List[Tuple[int, int]]] = {}
        cols: Dict[int, List[Tuple[int, int]]] = {}
        for (r, c), v in self.e.items():
            rows.setdefault(r, []).append((c, v))
            cols.setdefault(c, []).append((r, v))
        return rows, cols


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


def eigen_columns(m: MatrixSl2Triple, sigma: Involution, entries: Iterable[Entry]) -> Columns:
    """The +1 eigen-columns of sigma, grouped by weight, on the span of the
    E_ab with (a, b) in entries, a sigma-stable set."""
    wt = m.weights
    cols: Columns = {}
    for entry in entries:
        eps, img = sigma(*entry)
        if img > entry or (img == entry and eps == 1):
            a, b = entry
            # {entry: 1} when sigma fixes the entry
            cols.setdefault(wt[a] - wt[b], []).append({entry: 1, img: eps})
    return cols


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
