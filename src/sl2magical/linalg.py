"""Exact integer linear algebra: fraction-free rank (Bareiss elimination).

Kernels here are only ever needed as dimensions, so rank is the single
primitive.  Division in the elimination step is exact by the Bareiss
identity; everything stays in Python integers.
"""

from __future__ import annotations

from typing import List, Sequence


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    m: List[List[int]] = [list(row) for row in matrix if any(row)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        lead = m[row][col]
        for r in range(row + 1, len(m)):
            factor = m[r][col]
            for c in range(col + 1, cols):
                m[r][c] = (m[r][c] * lead - factor * m[row][c]) // prev
            m[r][col] = 0
        prev = lead
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank

