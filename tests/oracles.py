"""Test-only oracles: rational elimination and API with no production caller.

``Matrix`` is a dense matrix of exact rationals with its own Gaussian
``det`` and ``solve``.  The library eliminates only on integers
(``modeq.integer_det``); ``Matrix`` is the independent reference that
``integer_det``, the row solves and the direct column route are
compared against.  Pivoting picks the first nonzero entry in column
order, as ``integer_det`` does.

``c_coeff`` and ``binomial_moment`` are the moment-polynomial identities
of the acceptance suite, and ``with_entry`` builds the perturbed
matrices of the negative controls.  ``euler_product`` is
prod_{k>=1} (1 - q^{ak}), and the eta-quotient oracles are built from
it: ``xy_normalized_direct`` is X^i Y^h / (2^{ni} q^{mi}) multiplied
out of Euler products, the reference for ``modeq.xy_normalized_lemma``;
``eta_lambda_series`` is lambda from its eta quotient, the route the
library took before it used psi(q^2)/psi(q); and
``one_minus_lambda_series`` is 1 - lambda from its own eta quotient, the
oracle for lambda + (1 - lambda) = 1.

``binary_power`` and ``unit_inverse`` are the series power and inverse
as the library computed them before it used Miller's recurrence: binary
powering on the valuation-aware product, and the inverse loop of a unit
constant term.  ``expanded_ode_residual`` is the lambda ODE residual in
its expanded 11-product form, the reference for the factored form of
``ode_residual``; it squares only distinct copies, so it never runs the
square path of the product kernel that ``ode_residual`` relies on.
``binary_power`` may square through that path: Miller's recurrence,
which it is the reference for, never multiplies two series.

``chained_row1_moment_expectations`` is the row-1 moment closed forms as
chained ``Fraction`` operations, the reference for the int route of
``modeq._row1_moment_expectations``; it takes P_1(m) and P_2(m) from
``p_poly``, where the int route uses their closed forms.

``binomial_solve_leading`` is the L U row solve of ``modeq`` with
back-substitution through the binomials U[j][h] = C(h, j), as the
library solved it before it used a Taylor shift; it is the reference
for ``modeq._solve_leading``, messages included.

``rowwise_factor`` is L of C = L U as the library took it before it
built L's columns from the powers (P - 1)^j: each row of C differenced
on its own, l passes for row l, its l-th differences checked against
(-2n)^l.  It is the reference for ``modeq._lower``.

``lagrange_row1`` is row 1 of A_p by Lagrange-Buermann inversion of
w = P - 1, from the columns b(2, 0) and K^{-1} = b(-1, -1) and products
of its own: the reference for ``modeq.scan_row1``, which reads K and
solves against L' = T_K L.

``fraction_row_moments`` is ``modeq.verify_row_moments`` as it compared
the row-1 moments before it ran on ints: each closed form a
``Fraction`` (from ``chained_row1_moment_expectations``), compared and
printed as one.  It is the reference for that route, details and notes
included.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul, sub

from lambdaeq import (
    CheckResult,
    IntegralityError,
    ModularMatrix,
    Series,
    alpha,
    p_poly,
)


class SingularMatrixError(ArithmeticError):
    """A square system turned out singular during elimination."""


class FactorizationError(ArithmeticError):
    """C = [b_l(2h, 0)] is not L U with diagonal (-2n)^l."""


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


@lru_cache(maxsize=None)
def c_coeff(s, r):
    """Coefficients expanding P_s over a binomial basis:

        P_s(m) = sum_{r=0..s} c_{s,r} * C(m, r),

    with c_{0,0} = 1 and c_{s,r} = r/(s+r) * (c_{s-1,r-1} + c_{s-1,r}).
    """
    if s < 0 or r < 0:
        raise ValueError("c_coeff needs s >= 0 and r >= 0")
    if s == 0 and r == 0:
        return Fraction(1)
    if r == 0 or r > s:
        return Fraction(0)
    return Fraction(r, s + r) * (c_coeff(s - 1, r - 1) + c_coeff(s - 1, r))


def binomial_moment(N, m):
    """sum_{h=0..m} h^N (-1)^{h-1} C(m, h), with the 0^0 = 1 convention.

    Vanishes for 0 <= N < m; for N >= m it equals (-1)^{m-1} P_{N-m}(m) N!.
    """
    if N < 0 or m < 1:
        raise ValueError("binomial_moment needs N >= 0 and m >= 1")
    return sum(h ** N * (1 if h % 2 else -1) * comb(m, h) for h in range(m + 1))


def with_entry(matrix, i, h, value):
    """Copy of a ``ModularMatrix`` with entry (i, h) replaced."""
    grid = [list(r) for r in matrix.entries]
    grid[i][h] = value
    return ModularMatrix(matrix.params, tuple(tuple(r) for r in grid))


def euler_product(a, order):
    """prod_{k>=1} (1 - q^{ak}) truncated at the given order."""
    if not isinstance(a, int) or a < 1:
        raise ValueError("euler_product needs an integer a >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = [0] * (order + 1)
    c[0] = 1
    for j in range(a, order + 1, a):
        # multiply in place by (1 - q^j)
        for t in range(order, j - 1, -1):
            c[t] -= c[t - j]
    return Series(c, order)


def _xy_exponents(n, i, h):
    # eta exponents at arguments (t, 4t, 2t), repeated at (pt, 4pt, 2pt)
    return n * (i + 2 * h), n * (2 * i + h), -3 * n * (i + h)


def xy_normalized_direct(params, i, h, order):
    """X^i Y^h / (2^{ni} q^{mi}) assembled directly from eta products.

    This is the brute-force oracle: integer powers of explicit Euler
    products, multiplied out, no partition machinery involved.
    """
    if i < 0 or h < 0:
        raise ValueError("exponents i, h must be nonnegative")
    e1, e4, e2 = _xy_exponents(params.n, i, h)
    result = Series([1], order)
    for scale, e in ((1, e1), (4, e4), (2, e2)):
        if e:
            factor = euler_product(scale, order) ** e
            result = result * factor
            factor_p = euler_product(scale * params.p, order) ** e
            result = result * factor_p
    return result


def eta_lambda_series(order):
    """q-expansion of lambda as 16 q Q(t)^8 Q(4t)^16 / Q(2t)^24."""
    if order < 1:
        raise ValueError("order must be at least 1")
    t = order - 1
    unit = (
        euler_product(1, t) ** 8
        * euler_product(4, t) ** 16
        * euler_product(2, t) ** -24
    )
    return (unit * 16).shift(1)


def one_minus_lambda_series(order):
    """q-expansion of 1 - lambda, built from its own eta quotient."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return (
        euler_product(1, order) ** 16
        * euler_product(4, order) ** 8
        * euler_product(2, order) ** -24
    )


def unit_inverse(s):
    """Inverse of a ``Series`` with constant term +-1, term by term.

    A zero constant term raises ``ZeroDivisionError``, any other
    ``ValueError``.
    """
    c0 = s.coeffs[0]
    if c0 == 0:
        raise ZeroDivisionError("cannot invert a series with zero constant term")
    if c0 not in (1, -1):
        raise ValueError("only a constant term of +1 or -1 is inverted, got %s" % (c0,))
    a = s.coeffs
    b = [c0]
    for k in range(1, s.order + 1):
        b.append(-sum(map(mul, a[1 : k + 1], reversed(b))) * c0)
    return Series(b, s.order)


def binary_power(s, e):
    """s^e for an integer e by binary powering on the valuation-aware product."""
    if e < 0:
        return binary_power(unit_inverse(s), -e)
    result = Series([1], s.order)
    base = s
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _copy(s):
    """An equal ``Series`` that is a distinct object, so ``s * _copy(s)``
    runs the product kernel as a general product, not as a square."""
    return Series(s.coeffs, s.order)


def expanded_ode_residual(f):
    """2 (D^3 f)(D f) f^2 (1-f)^2 - 3 (D^2 f)^2 f^2 (1-f)^2 + (f^2 - f + 1)(D f)^4.

    The cleared lambda ODE residual multiplied out term by term.  Every
    square, (D f)^4 among them, multiplies two distinct copies, so the
    general product is the reference for the squares of ``ode_residual``.
    """
    d1 = f.qderiv()
    d2 = d1.qderiv()
    d3 = d2.qderiv()
    one_minus = 1 - f
    weight = f * _copy(f) * one_minus * _copy(one_minus)
    d1_squared = d1 * _copy(d1)
    return (
        2 * (d3 * d1 * weight)
        - 3 * (d2 * _copy(d2) * weight)
        + (f * _copy(f) - f + 1) * (d1_squared * _copy(d1_squared))
    )


def chained_row1_moment_expectations(params):
    """The row-1 moment closed forms as chained ``Fraction`` operations.

    The hand-typed forms that ``modeq._row1_moment_expectations`` builds
    from ints: (first, second, third, third_alternate).
    """
    m, n, p = params.m, params.n, params.p
    two = Fraction(2)
    first = -(n ** m) * two ** (m - n)
    second = -(n ** m) * two ** (m + 1 - n) * p_poly(1, m)
    lead = -(n ** m) * two ** (m + 3 - n) * p_poly(2, m)
    mid = Fraction(n) ** (m - 1) * two ** (m + 1 - n) * alpha(p, 2)
    tail = Fraction(n) ** (m - 2) * two ** (m + 1 - n) * m * alpha(p, 3)
    third = lead - mid - tail
    third_alternate = lead + mid - tail
    return first, second, third, third_alternate


def binomial_solve_leading(params, i, lower, rhs):
    """The int solution a of 2^{ni} C_i a = rhs by binomial back-substitution.

    ``lower`` holds the rows of L in C = L U (``modeq._lower``).  Forward
    substitution divides row l by a fresh power (-2n)^l, and U x = y is
    solved from the bottom up with U[j][h] = C(h, j).
    """
    n, p = params.n, params.p
    size = len(rhs)
    y = []
    for l, row in enumerate(lower[:size]):
        value, rem = divmod(rhs[l] - sum(map(mul, row, y)), (-2 * n) ** l)
        if rem:
            raise IntegralityError(
                "row %d of A_%d has no integral solution (forward substitution, l=%d)"
                % (i, p, l)
            )
        y.append(value)
    x = [0] * size
    for j in range(size - 1, -1, -1):
        x[j] = y[j] - sum([comb(h, j) * x[h] for h in range(j + 1, size)])
    scale = 2 ** (n * i)
    bad = next((h for h, value in enumerate(x) if value % scale), None)
    if bad is not None:
        raise IntegralityError(
            "a_{%d,%d} of A_%d solved to the non-integer %d/2^%d" % (i, bad, p, x[bad], n * i)
        )
    return tuple(value // scale for value in x)


def rowwise_factor(params, table):
    """The rows of L in C = L U, C = [b_l(2h, 0)], one row of C at a time.

    Row l is differenced l times on its own, and its l-th differences
    must all equal (-2n)^l; a failure raises ``FactorizationError`` at
    the first bad (l, h) in row order.
    """
    m, n = params.m, params.n
    columns = [table.column(2 * h, 0, m)[: m + 1] for h in range(m + 1)]
    lower = []
    lead = 1
    for l, diffs in enumerate(zip(*columns)):
        row = []
        for _ in range(l):
            row.append(diffs[0])
            diffs = list(map(sub, diffs[1:], diffs))
        if diffs.count(lead) != len(diffs):
            bad = next(h for h, d in enumerate(diffs) if d != lead)
            raise FactorizationError(
                "C of A_%d: row l=%d of [b_l(2h, 0)] is not a degree-%d polynomial in h "
                "with leading binomial coefficient (-2n)^l = %d; its %d-th forward "
                "difference at h=%d is %d" % (params.p, l, l, lead, l, bad, diffs[bad])
            )
        lower.append(row)
        lead *= -2 * n
    return lower


def lagrange_row1(params, table):
    """Row 1 of A_p, a_{1,0}..a_{1,m} (the last 0), by Lagrange-Buermann inversion.

    Row 1's equations say 2^n A_1(P) = -(-1)^m K^{-1} E^m mod q^m, with
    E = (P - 1)/q, and y_j = sum_h C(h, j) a_{1,h} is the coefficient of
    w^j in A_1(1 + w).  As w = P - 1 = q E has valuation 1,
    [w^j] f = res f dw / w^{j+1} = [q^j] f P' E^{-j-1}, so for j < m

        2^n y_j = -(-1)^m [q^j] K^{-1} P' E^{m-1-j},    P' = dP/dq,

    and a_{1,h} = sum_j (-1)^{j-h} C(j, h) y_j.  E^k comes from pairwise
    products, E^k to index m - 1 - k, ~m^3/6 multiply-adds; a
    non-integral y_j raises ``IntegralityError``.
    """
    m, n, p = params.m, params.n, params.p
    column = table.column(2, 0, m)
    reverse_e = column[m:0:-1]  # E[m-1], ..., E[0]
    dp = [l * column[l] for l in range(1, m + 1)]
    kernel = table.column(-1, -1, m - 1)
    g = [sum(map(mul, kernel[: t + 1], dp[t::-1])) for t in range(m)]  # K^-1 P'
    sign = (-1) ** (m + 1)
    y = [0] * m
    power = [1] + [0] * (m - 1)  # E^k to index j = m - 1 - k
    for j in range(m - 1, -1, -1):
        value, rem = divmod(sign * sum(map(mul, g[: j + 1], power[::-1])), 2**n)
        if rem:
            raise IntegralityError("y_%d of row 1 of A_%d is not an integer" % (j, p))
        y[j] = value
        power = [sum(map(mul, power[: t + 1], reverse_e[m - 1 - t :])) for t in range(j)]
    return tuple(
        sum((-1) ** (j - h) * comb(j, h) * y[j] for j in range(h, m)) for h in range(m)
    ) + (0,)


def fraction_row_moments(params, row):
    """The row-1 moment check with every closed form a ``Fraction``."""
    s0 = sum(row)
    s1 = sum((1 + 2 * h) * a for h, a in enumerate(row))
    s2 = sum((1 + 2 * h) ** 2 * a for h, a in enumerate(row))
    e0, e1, e2, e2_alt = chained_row1_moment_expectations(params)
    details = {
        "first": {"actual": str(s0), "expected": str(e0), "ok": s0 == e0},
        "second": {"actual": str(s1), "expected": str(e1), "ok": s1 == e1},
        "third": {"actual": str(s2), "expected": str(e2), "ok": s2 == e2},
        "third_alpha2_sign_flipped": {
            "value": str(e2_alt),
            "matches": s2 == e2_alt,
        },
    }
    passed = s0 == e0 and s1 == e1 and s2 == e2
    note = "third moment uses the negated alpha_p(2) term; the sign-flipped variant %s %s %s" % (
        e2_alt, "matches" if s2 == e2_alt else "does not match", s2
    )
    return CheckResult("rowsums", passed, details, note)
