"""Exact linear algebra over integers and rationals.

Everything here is tolerance-free: integer matrices go through fraction-free
(Bareiss) elimination, rational ones through plain Gaussian elimination on
``fractions.Fraction``.  The hull engine uses only the integer routines
(``det_int``, ``hyperplane_normal``, ``rank_int_rows``, ``vec_gcd``).  The
rational ones serve ``geometry.matrix_det`` and the probe-interpolation
oracle, and ``rank_rows`` is the tests' oracle for ``rank_int_rows``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            f = row_i[k]
            for j in range(k + 1, n):
                # Bareiss update: division by the previous pivot is exact.
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix."""
    denom = lcm(*(x.denominator for r in rows for x in r))
    scaled = [[x.numerator * (denom // x.denominator) for x in r] for r in rows]
    n = len(rows)
    return Fraction(det_int(scaled), denom**n)


def vec_gcd(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def hyperplane_normal(diffs: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Primitive integer normal to the span of n-1 integer vectors in R^n.

    Computed as the generalized cross product (signed maximal minors), n
    Bareiss determinants.  The hull engine calls it only for the pieces of
    its initial simplex and, under ``strict_checks``, as the oracle for the
    planes it rotates.  Returns None when the vectors are linearly dependent.
    """
    n = len(diffs) + 1
    comps = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in diffs]
        d = det_int(minor)
        comps.append(-d if j % 2 else d)
    g = vec_gcd(comps)
    if g == 0:
        return None
    return tuple(c // g for c in comps)


def rank_rows(rows: list[list[Fraction]]) -> int:
    """Row rank of a rational matrix."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pv = m[rank][col]
        prow = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                row = m[i]
                for j in range(col, ncols):
                    row[j] -= f * prow[j]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank_int_rows(rows: list[tuple[int, ...]]) -> int:
    """Row rank of an integer matrix, by fraction-free (Bareiss) elimination.

    After each pivot step every entry below the pivot rows is a minor of the
    input, so the division by the previous pivot is exact and no ``Fraction``
    is built.  ``rank_rows`` is the rational-arithmetic oracle for it.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        prow = m[rank]
        pv = prow[col]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * pv - f * prow[j]) // prev
        prev = pv
        rank += 1
        if rank == len(m):
            break
    return rank


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square rational system exactly."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if aug[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise ValueError("singular system")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]
