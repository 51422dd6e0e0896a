"""Exact elimination on integers.

``integer_det`` takes the determinant of an int grid without leaving
the integers, by fraction-free (Bareiss) elimination.  It is the
library's only general elimination: the row solves of ``modeq`` are
triangular substitutions through C = L U, and its checks take their
determinants here.  Pivoting picks the first nonzero entry in
column order: exact arithmetic needs no numerical pivoting, and a fixed
rule keeps every intermediate value reproducible across runs.
"""

__all__ = ["IntegralityError", "integer_det"]


class IntegralityError(ArithmeticError):
    """A value that must be an integer was not (never expected)."""


def integer_det(rows):
    """Exact determinant of a square int grid by Bareiss elimination.

    Step c replaces every entry below and right of the pivot by
    (pivot * x - f * y) / previous pivot, which Sylvester's identity
    makes an exact division (Bareiss 1968); each is a ``divmod`` whose
    nonzero remainder raises ``IntegralityError``.  The last pivot is
    the determinant up to the sign of the row swaps.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise ValueError("determinant needs a nonempty square grid")
    sign = 1
    previous = 1
    for c in range(n - 1):
        pivot_row = next((r for r in range(c, n) if a[r][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        top = a[c]
        pivot = top[c]
        for r in range(c + 1, n):
            row = a[r]
            f = row[c]
            steps = [
                divmod(pivot * x - f * y, previous) for x, y in zip(row[c + 1 :], top[c + 1 :])
            ]
            if any(rem for _, rem in steps):
                raise IntegralityError(
                    "Bareiss step %d of a %dx%d determinant left a remainder" % (c, n, n)
                )
            row[c + 1 :] = [value for value, _ in steps]
        previous = pivot
    return sign * a[n - 1][n - 1]
