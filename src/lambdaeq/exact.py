"""Dense exact linear algebra.

Matrices hold exact rationals and are eliminated with plain fraction
arithmetic.  ``integer_det`` takes the determinant of an int grid
without leaving the integers, by fraction-free (Bareiss) elimination.
Pivoting picks the first nonzero entry in column order: exact
arithmetic needs no numerical pivoting, and a fixed rule keeps every
intermediate value reproducible across runs.
"""

from fractions import Fraction

__all__ = [
    "IntegralityError",
    "Matrix",
    "SingularMatrixError",
    "integer_det",
]


class IntegralityError(ArithmeticError):
    """A value that must be an integer was not (never expected)."""


class SingularMatrixError(ArithmeticError):
    """A square system turned out singular during elimination."""


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


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        # tuple() of a list allocates at the final size; tuple() of a
        # generator resizes, which moves the block to another size's
        # free list and slowly inflates memory over many builds
        grid = tuple([tuple([Fraction(x) for x in row]) for row in entries])
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Matrix(%r)" % (self.entries,)

    def mul_vec(self, v):
        """Matrix-vector product, exact."""
        if len(v) != self.cols:
            raise ValueError("vector length %d != column count %d" % (len(v), self.cols))
        return tuple(
            sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in self.entries
        )

    def det(self):
        """Exact determinant by rational Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        a = [list(row) for row in self.entries]
        sign = 1
        result = Fraction(1)
        for c in range(n):
            pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != c:
                a[c], a[pivot_row] = a[pivot_row], a[c]
                sign = -sign
            pivot = a[c][c]
            result *= pivot
            for r in range(c + 1, n):
                f = a[r][c]
                if f == 0:
                    continue
                f = f / pivot
                row, top = a[r], a[c]
                for k in range(c + 1, n):
                    row[k] -= f * top[k]
        return result if sign > 0 else -result

    def solve(self, rhs):
        """Exact solution x of self @ x = rhs for a nonsingular square self."""
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        n = self.rows
        if len(rhs) != n:
            raise ValueError("right-hand side length %d != %d" % (len(rhs), n))
        a = [list(row) + [Fraction(b)] for row, b in zip(self.entries, rhs)]
        for c in range(n):
            pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
            if pivot_row is None:
                raise SingularMatrixError("singular system (pivot column %d)" % c)
            if pivot_row != c:
                a[c], a[pivot_row] = a[pivot_row], a[c]
            pivot = a[c][c]
            for r in range(c + 1, n):
                f = a[r][c]
                if f == 0:
                    continue
                f = f / pivot
                row, top = a[r], a[c]
                for k in range(c + 1, n + 1):
                    row[k] -= f * top[k]
        x = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            acc = a[r][n]
            row = a[r]
            for k in range(r + 1, n):
                acc -= row[k] * x[k]
            x[r] = acc / row[r]
        return tuple(x)
