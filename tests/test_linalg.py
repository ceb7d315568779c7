"""Fraction-free sparse rank against hand cases and rational elimination."""

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


def maps(matrix):
    """Each dense row as a {column: value} map, zeros kept."""
    return [dict(enumerate(row)) for row in matrix]


def dense(vectors):
    """The maps as dense rows over the sorted union of their keys."""
    keys = sorted({k for v in vectors for k in v})
    return [[v.get(k, 0) for k in keys] for v in vectors]


def test_empty_matrix():
    assert integer_rank([]) == 0
    assert integer_rank(maps([[]])) == 0
    assert integer_rank([{}, {}]) == 0


def test_all_zero_rows():
    assert integer_rank(maps([[0, 0, 0], [0, 0, 0]])) == 0
    assert integer_rank(maps([[0, 0], [1, 2], [0, 0]])) == 1


def test_identity():
    for n in range(1, 6):
        assert integer_rank(maps([[int(i == j) for j in range(n)] for i in range(n)])) == n


def test_rank_deficient():
    assert integer_rank(maps([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert integer_rank(maps([[2, -4], [-3, 6]])) == 1


def test_tall_and_wide():
    tall = [[1, 0], [0, 1], [1, 1], [2, 3]]
    assert integer_rank(maps(tall)) == 2
    assert integer_rank(maps([list(col) for col in zip(*tall)])) == 2
    assert integer_rank(maps([[1, 2, 3, 4]])) == 1
    assert integer_rank(maps([[1], [2], [3]])) == 1


def test_skipped_pivot_column():
    assert integer_rank(maps([[0, 1, 2], [0, 2, 4], [0, 1, 3]])) == 2


def test_non_unit_pivots():
    # The first pivot leads with 2, so the second row becomes
    # 2 * (1, 2, 1) - 1 * (2, 1, 1) = (0, 3, 1) with no division; the third
    # row, the sum of the first two, reduces to zero.
    assert integer_rank(maps([[2, 1, 1], [1, 2, 1], [1, 1, 2]])) == 3
    assert integer_rank(maps([[2, 1, 1], [1, 2, 1], [3, 3, 2]])) == 2


def test_argument_is_not_modified():
    matrix = maps([[2, 1], [4, 2]])
    assert integer_rank(matrix) == 1
    assert matrix == [{0: 2, 1: 1}, {0: 4, 1: 2}]


def test_tuple_keys_like_matrix_entries():
    """The oracle's vectors are keyed by (row, col) entries of a matrix."""
    e01, e12, e02 = (0, 1), (1, 2), (0, 2)
    assert integer_rank([{e01: 1, e12: -1}, {e12: 2, e02: 1}, {e01: 2, e02: 1}]) == 2
    assert integer_rank([{e01: 1, e12: -1}, {e12: 2, e02: 1}, {e01: 2, e02: 2}]) == 3


def test_explicit_zero_values_are_ignored():
    assert integer_rank([{0: 0, 1: 0}]) == 0
    assert integer_rank([{0: 0, 1: 3}, {1: -1, 5: 0}]) == 1
    # a zero at the least key must not be taken for the vector's lead
    assert integer_rank([{0: 0, 1: 1}, {0: 1, 1: 0}]) == 2


def test_keys_missing_from_some_vectors():
    assert integer_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert integer_rank([{2: 5}, {0: 1, 2: 1}, {0: 3}]) == 2
    assert integer_rank([{3: 1}, {1: 2, 3: 1}, {1: 1, 2: 1}]) == 3


def test_disjoint_key_sets_add_their_ranks():
    low = maps([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    high = [{k + 10: v for k, v in row.items()} for row in maps([[1, 1], [1, -1], [2, 0]])]
    assert integer_rank(low) == 2 and integer_rank(high) == 2
    assert integer_rank(low + high) == integer_rank(high + low) == 4


def test_maps_are_not_modified():
    vectors = [{(0, 1): 2, (1, 1): 0, (2, 0): 3}, {(0, 1): 4, (2, 0): 6}, {(1, 0): -1}]
    copies = [dict(v) for v in vectors]
    assert integer_rank(vectors) == 2
    assert vectors == copies


matrices = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=0, max_size=6))


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rank_matches_rational_elimination(matrix):
    assert integer_rank(maps(matrix)) == fraction_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.randoms(use_true_random=False))
def test_products_of_thin_factors_are_rank_deficient(rows, cols, inner, rnd):
    """A rows x inner times inner x cols product has rank at most inner."""
    left = [[rnd.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    right = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    assert integer_rank(maps(product)) == fraction_rank(product) <= min(rows, cols, inner)


# Sparse vectors as the oracle makes them: few nonzeros, (row, col) keys
# drawn from a small grid, explicit zeros among them.
sparse_vectors = st.lists(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-3, 3), max_size=4), max_size=12)


@settings(max_examples=300, deadline=None)
@given(sparse_vectors)
def test_sparse_rank_matches_rational_elimination(vectors):
    copies = [dict(v) for v in vectors]
    rank = integer_rank(vectors)
    assert vectors == copies
    assert rank == fraction_rank(dense(vectors)) <= min(len(vectors), 25)
    assert integer_rank(vectors[::-1]) == rank
