"""Exact integer linear algebra: the rank of sparse integer vectors.

Kernels here are only ever needed as dimensions, so rank is the single
primitive.  A vector is a sparse {key: int} map, keys of any one ordered
type (the oracle's are (row, col) entries), and the rank of a list of
them is found by fraction-free echelon on the least key: a vector c whose
least nonzero key k leads a pivot p is reduced to p[k] c - c[k] p, which
cancels k, so its least key strictly increases; a vector whose least key
leads no pivot becomes one.  There is no division: every step stays in
Python integers, and the rank is exact.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping


def integer_rank(vectors: Iterable[Mapping[Hashable, int]]) -> int:
    """The dimension of the span of the vectors; the maps are not modified."""
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    for vector in vectors:
        c = {k: v for k, v in vector.items() if v}
        while c:
            lead = min(c)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = c
                break
            a, b = p[lead], c[lead]
            c = {k: a * v for k, v in c.items()}
            for k, v in p.items():
                v = c.get(k, 0) - b * v
                if v:
                    c[k] = v
                else:
                    del c[k]
    return len(pivots)
