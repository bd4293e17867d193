"""Exact linear algebra: the integer routines against their rational oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol.linalg import rank_int_rows, rank_rows

ENTRIES = st.one_of(st.integers(-1, 1), st.integers(-(2**80), 2**80))


@st.composite
def int_matrices(draw):
    """Products (nrows x inner)(inner x ncols): an inner size below nrows and ncols
    makes them rank-deficient; some rows and columns are then zeroed."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 6))
    inner = draw(st.integers(0, 6))
    left = [[draw(ENTRIES) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(inner)]
    rows = [tuple(sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols))
            for row in left]
    if rows:
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            rows[i] = (0,) * ncols
    zero_cols = set(draw(st.lists(st.integers(0, ncols - 1), max_size=2)))
    return [tuple(0 if j in zero_cols else x for j, x in enumerate(r)) for r in rows]


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_int_rows_matches_fraction_rank(rows):
    assert rank_int_rows(rows) == rank_rows([[Fraction(x) for x in r] for r in rows])


def test_rank_int_rows_edge_shapes():
    assert rank_int_rows([]) == 0
    assert rank_int_rows([(0, 0, 0)] * 4) == 0
    assert rank_int_rows([(1, 2), (2, 4), (3, 6)]) == 1
    assert rank_int_rows([(0, 2**70, 1), (0, 2**71, 2), (5, 0, 0)]) == 2
    assert rank_int_rows([(1, 2, 0), (2, 4, 0), (0, 0, 3)]) == 2  # a column without pivot
