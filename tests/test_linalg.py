"""Fraction-free rank against hand cases and rational elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sl2magical.linalg import integer_rank


def fraction_rank(matrix):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_empty_matrix():
    assert integer_rank([]) == 0
    assert integer_rank([[]]) == 0


def test_all_zero_rows():
    assert integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert integer_rank([[0, 0], [1, 2], [0, 0]]) == 1


def test_identity():
    for n in range(1, 6):
        assert integer_rank([[int(i == j) for j in range(n)] for i in range(n)]) == n


def test_rank_deficient():
    assert integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert integer_rank([[2, -4], [-3, 6]]) == 1


def test_tall_and_wide():
    tall = [[1, 0], [0, 1], [1, 1], [2, 3]]
    assert integer_rank(tall) == 2
    assert integer_rank([list(col) for col in zip(*tall)]) == 2
    assert integer_rank([[1, 2, 3, 4]]) == 1
    assert integer_rank([[1], [2], [3]]) == 1


def test_skipped_pivot_column():
    assert integer_rank([[0, 1, 2], [0, 2, 4], [0, 1, 3]]) == 2


def test_exact_division_by_non_unit_previous_pivot():
    # The first pivot is 2, so the second step divides by prev = 2:
    # (3 * 3 - 1 * 1) / 2 = 4 for the full-rank case, (1 * 3 - 3 * 1) / 2 = 0
    # when the third row is the sum of the first two.
    assert integer_rank([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) == 3
    assert integer_rank([[2, 1, 1], [1, 2, 1], [3, 3, 2]]) == 2


def test_argument_is_not_modified():
    matrix = [[2, 1], [4, 2]]
    assert integer_rank(matrix) == 1
    assert matrix == [[2, 1], [4, 2]]


matrices = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=0, max_size=6))


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rank_matches_rational_elimination(matrix):
    assert integer_rank(matrix) == fraction_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.randoms(use_true_random=False))
def test_products_of_thin_factors_are_rank_deficient(rows, cols, inner, rnd):
    """A rows x inner times inner x cols product has rank at most inner."""
    left = [[rnd.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    right = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    assert integer_rank(product) == fraction_rank(product) <= min(rows, cols, inner)
