"""Construction and verification of the modular-equation matrices A_p.

For an odd prime p write (p+1)/8 = m/n in lowest terms (n is always 1,
2 or 4; ``arith.reduced``), so p alone fixes everything below.  With
X = (lambda(t) lambda(pt))^{n/8} and Y = ((1-lambda(t)) (1-lambda(pt)))^{n/8}
there is an (m+1) x (m+1) integer matrix A_p = (a_{i,h}) such that

    sum_{i,h} a_{i,h} X^i Y^h = 0,     a_{i,h} = 0 for i + h > m,

normalized by a_{0,0} = 1.  Substituting X^i Y^h = 2^{ni} q^{mi}
sum_l b_l(i+2h, i) q^l (``xy_normalized_lemma``) and collecting powers
of q turns this into the master system

    0 = sum_{i=0..m} 2^{ni} sum_l ( sum_h a_{i,h} b_l(i+2h, i) ) q^{mi+l}.

Row 0 is the alternating binomial row a_{0,h} = (-1)^h C(m,h).  Row i
is then determined by the coefficients of q^{mi}..q^{mi+(m-i)}, the
square system

    2^{ni} B(i,i) a'_i + 2^{n(i-1)} B(i,i-1) a'_{i-1} + ... + B(i,0) a_0 = 0

over the blocks B(i,r) (``block``), where a'_r holds the first m+1-r
entries of row r.  det B(i,i) = (-2n)^{(m+1-i)(m-i)/2} is nonzero, so
each row is unique.  That the entries come out integral, the symmetries
a_{i,h} = a_{h,i} and a_{i,h} = (-1)^{m(i-1)} a_{i,m-i-h}, and the
vanishing of every master coefficient no solve reads are emergent
facts, which the verify_* functions check after the fact.

The row loop.  Every b_l(u, v) comes from one integer table per prime,
``bpoly.BTable``.  The generating function sum_l b_l(u, v) q^l is the
exponential of a series linear in (u, v), so b(r+2h, r) = K^r P^h with
K = b(1, 1) and P = b(2, 0), K^{-1} = b(-1, -1) is an integer column of
the same table, and the master series is

    F = sum_i 2^{ni} q^{mi} K^i A_i(P),     A_i(P) = sum_h a_{i,h} P^h.

The rows above i start at q^{m(i+1)} and K^{-i} is a unit series, so
row i's equations are equally the coefficients mi..mi+(m-i) of

    K^{-i} F = G_i + 2^{ni} q^{mi} A_i(P) + O(q^{m(i+1)}),
    G_1 = K^{-1} A_0(P),   G_{i+1} = K^{-1} (G_i + 2^{ni} q^{mi} A_i(P)).

Row i therefore solves 2^{ni} C_i a'_i = -G_i[mi..mi+m-i], where C_i is
the leading (m-i+1) block of the one matrix C = [b_l(2h, 0)], l, h =
0..m.  The binomial theorem in P - 1 factors it once as C = L U, the
columns of L the powers (P - 1)^j (``_lower``, ``_solve_leading``).  The
coefficients m(i-1)..mi-1 of G_i are row i-1's equations and the gap
equations, which no solve reads; the loop (``_solve_rows``) asserts
that they vanish.  Each step is one integer combination of the power
columns P^h = b(2h, 0) and one truncated product with K^{-1}.
``assemble`` runs the loop to row m.  ``scan_row1`` needs row 1 alone,
whose equations are equally the coefficients m..2m-1 of F itself: it
solves them against L' = T_K L, the columns K (P - 1)^j / q^j, with no
K^{-1} and no gap to check.

The checks stay independent of the row loop:

* ``verify_block_determinants`` reads each B(i,i) from the direct
  columns b(i+2h, i), which assembly never reads, and takes its
  determinant by generic elimination (``integer_det``).  It never reads
  L, whose diagonal is the product formula it checks, so the check is
  not its own oracle.
* ``verify_global_vanish`` recomputes F from the matrix entries alone,
  top-down by Horner's rule in 2^n q^m K.  It never sees assembly's G_i
  or K^{-1}, so a fault in them cannot cancel out.
* ``row2_pipeline`` (theorem52) solves B(1,1) and B(2,2) from the
  direct columns by Cramer's rule, and never touches the L U solve.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from operator import mul

from .arith import IntegralityError, alpha, is_odd_prime, k_alpha, reduced
from .bpoly import BTable, p_poly
from .qseries import Series, _truncated_product

__all__ = [
    "CHECK_NAMES",
    "SCHEMA_VERSION",
    "CheckResult",
    "ModularMatrix",
    "PrimeParams",
    "assemble",
    "block",
    "bordered_determinant",
    "closed_form_row1",
    "from_doc",
    "global_order",
    "integer_det",
    "render_text",
    "render_typeset",
    "row0",
    "row2_pipeline",
    "run_checks",
    "scan_row1",
    "to_doc",
    "verify_block_determinants",
    "verify_global_vanish",
    "verify_row_moments",
    "verify_symmetry",
    "xy_normalized_lemma",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PrimeParams:
    """The odd prime p with (m, n) = ``arith.reduced(p)``: (p+1)/8 = m/n, n in {1, 2, 4}."""

    p: int
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime, got %r" % (self.p,))
        m, n = reduced(self.p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class ModularMatrix:
    """The (m+1) x (m+1) integer coefficient matrix for one prime."""

    params: PrimeParams
    entries: tuple

    def __post_init__(self):
        m = self.params.m
        if len(self.entries) != m + 1 or any(len(r) != m + 1 for r in self.entries):
            raise ValueError("entries must form an (m+1) x (m+1) grid")
        if any(type(x) is not int for r in self.entries for x in r):
            raise ValueError("entries must be plain integers")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification: JSON-able details and a note on any correction."""

    name: str
    passed: bool
    details: dict
    note: str = ""


def row0(m):
    """The alternating binomial row a_{0,h} = (-1)^h C(m, h)."""
    if m < 1:
        raise ValueError("m must be positive")
    return tuple([(-1) ** h * comb(m, h) for h in range(m + 1)])


def _table_for(params, table):
    if table is None:
        return BTable(params.p)
    if table.p != params.p:
        raise ValueError("b-table of p=%d used for p=%d" % (table.p, params.p))
    return table


def block(params, i, r, table=None):
    """The block B(i, r) = [b_{l+m(i-r)}(r+2h, r)], l = 0..m-i, h = 0..m-r.

    It is a tuple of int rows, laid out as ``ModularMatrix.entries``.
    ``table`` is the prime's shared ``BTable``; without it a fresh one
    is made.
    """
    m = params.m
    if not 1 <= i <= m:
        raise ValueError("row index i must satisfy 1 <= i <= m")
    if not 0 <= r <= i:
        raise ValueError("block index r must satisfy 0 <= r <= i")
    table = _table_for(params, table)
    shift = m * (i - r)
    top = shift + (m - i)
    columns = [table.column(r + 2 * h, r, top)[shift : top + 1] for h in range(m - r + 1)]
    return tuple(zip(*columns))


def xy_normalized_lemma(params, i, h, order):
    """X^i Y^h / (2^{ni} q^{mi}) with coefficient b_l(i+2h, i) at q^l.

    From the eta quotients of lambda and 1 - lambda, with
    Q(at) = prod_{k>=1} (1 - q^{ak}), the series is
    [Q(t)^{n(i+2h)} Q(4t)^{n(2i+h)} Q(2t)^{-3n(i+h)}] times the same at
    pt, since (p+1)/8 = m/n makes the q-power exponent ni(p+1)/8 = mi.
    That product is the test oracle; this route reads the direct b-table
    column (i+2h, i).
    """
    if i < 0 or h < 0:
        raise ValueError("exponents i, h must be nonnegative")
    return Series(BTable(params.p).column(i + 2 * h, i, order), order)


def scan_row1(primes):
    """Yield (params, row 1 of A_p) for each odd prime p of ``primes``, in order.

    Row 1 is the m+1 ints a_{1,0}..a_{1,m}, the last 0.  With E = (P - 1)/q,
    F = (-1)^m q^m E^m + 2^n q^m K A_1(P) + O(q^{2m}), so row 1's equations,
    K times those of K^{-1} F, read 2^n L'_1 U_1 a'_1 = -(-1)^m E^m[0..m-1].
    L'_1 = T_K L_1 and the right-hand side is T_K times the row loop's, so
    forward substitution meets the numerators of ``assemble`` and raises as
    it does.  The route reads b(2, 0) to index m and K = b(1, 1) to m - 1;
    each prime pays E^m to index m - 1 (``_row0_power``, ~m^2/2
    multiply-adds) and its solve, O(m^2).

    Each class n shares one b-table and one L', both from the class's
    largest prime p_top and built at its first prime.  k alpha_p(k)
    has no p-term below k = p (``arith.k_alpha``), so b_l(u, v) with l < p
    depends on n alone, and as m < p <= p_top, p_top's table equals p's at
    every index p reads.  Row l of L' reads K to index l and E to l - 1,
    so p's L' is the leading m rows of p_top's.  The column b(2, 0) and L'
    to M = m(p_top), ~M^3/6 multiply-adds, are paid once per class.  A
    list of one prime is the per-prime route.
    """
    primes = [PrimeParams(p) for p in primes]
    tops = {params.n: params for params in sorted(primes, key=lambda q: q.p)}
    shared = {}
    for params in primes:
        if params.n not in shared:
            top = tops[params.n]
            table = BTable(top.p)
            shared[params.n] = table, _lower(top, table, table.column(1, 1, top.m - 1)[: top.m])
        table, lower = shared[params.n]
        # row 1 reads indices <= m < p, and below p the table of p_top is p's
        assert table.n == params.n and params.m < params.p <= table.p
        rhs = [-c for c in _row0_power(params, table)]
        yield params, _solve_leading(params, 1, lower, rhs) + (0,)


def _lower(params, table, first=None):
    """The rows of L in C = L U, C = [b_l(2h, 0)] with l, h = 0..m.

    By the binomial theorem P^h = sum_j C(h, j) (P - 1)^j, and
    (P - 1)^j = q^j E^j with E = (P - 1)/q, so

        C = L U,    L[l][j] = E^j[l - j],    U[j][h] = C(h, j).

    L is lower triangular with diagonal E[0]^l = b_1(2, 0)^l = (-2n)^l,
    as n k alpha_p(k) = n at k = 1, and U is unit upper triangular, so
    every leading block is C_i = L_i U_i and one L serves every row.
    Column j of L is E^j to index m - j, one truncated product per j
    from the scalar column b(2, 0) to index m: ~m^3/6 multiply-adds.
    Row l of the result holds L[l][0..l-1]; ``_solve_leading`` divides by
    the diagonal.  Given a column ``first`` with first[0] = 1, the chain
    starts there instead of at 1: the columns are first E^j, the rows
    those of T_first L to index len(first) - 1, and the diagonal is kept.
    """
    m = params.m
    e = table.column(2, 0, m)[1 : m + 1]
    columns = [[1] + [0] * m if first is None else first]
    top = len(columns[0]) - 1
    for j in range(1, top):
        columns.append(_truncated_product(columns[-1], e, top - j))
    return [[columns[j][l - j] for j in range(l)] for l in range(top + 1)]


def _solve_leading(params, i, lower, rhs):
    """The int solution a of 2^{ni} C_i a = rhs, C_i = L_i U_i the leading block of C.

    ``lower`` is L from ``_lower``, whose column j is (P - 1)^j / q^j.
    Forward substitution divides row l by its diagonal entry (-2n)^l,
    kept as a running product.  U[j][h] = C(h, j) says that y_j is the
    coefficient of t^j in x(t + 1), with x(t) = sum_h x_h t^h, so
    x(t) = y(t - 1): a Taylor shift by -1, done as size - 1 passes of
    running sums over the coefficients, about size^2/2 additions and no
    binomials.
    """
    n, p = params.n, params.p
    size = len(rhs)
    # forward substitution L y = rhs; y = U x is integral iff x is
    y = []
    lead = 1
    for l, row in enumerate(lower[:size]):
        value, rem = divmod(rhs[l] - sum(map(mul, row, y)), lead)
        if rem:
            raise IntegralityError(
                "row %d of A_%d has no integral solution (forward substitution, l=%d)"
                % (i, p, l)
            )
        y.append(value)
        lead *= -2 * n
    # on z_j = (-1)^j y_j the shift is by +1, whose pass k sets z_j to
    # z_j + ... + z_top for j >= k: running sums over z reversed
    z = [-v if j % 2 else v for j, v in enumerate(y)][::-1]
    for k in range(size - 1):
        z[: size - k] = accumulate(z[: size - k])
    x = [-v if h % 2 else v for h, v in enumerate(z[::-1])]
    scale = 2 ** (n * i)
    bad = next((h for h, value in enumerate(x) if value % scale), None)
    if bad is not None:
        raise IntegralityError(
            "a_{%d,%d} of A_%d solved to the non-integer %d/2^%d" % (i, bad, p, x[bad], n * i)
        )
    return tuple(value // scale for value in x)


def _row0_power(params, table):
    """(-1)^m E^m to index m - 1: row 0's series A_0(P) = (1 - P)^m at q^m..q^{2m-1}."""
    m = params.m
    power = Series(table.column(2, 0, m)[1 : m + 1]) ** m
    return [(-1) ** m * c for c in power.coeffs]


def _solve_rows(params, table, last):
    """Rows 0..last of A_p, row i padded by i zeros, bottom-up in K^{-1} (module docstring).

    The window runs to index m last + m - last, the last coefficient row
    ``last`` reads.  At row i it gains 2^{n(i-1)} A_{i-1}(P), row 0's series
    at i = 1, and so holds G_{i-1} + 2^{n(i-1)} q^{m(i-1)} A_{i-1}(P) from
    index m(i-1).  K^{-1} is a unit series, so the window and
    G_i = K^{-1} window share their first nonzero entry, and checking the
    window's first m entries is the gap check on G_i; a nonzero one raises
    ``ArithmeticError`` naming i, the index and the value.
    """
    m, n, p = params.m, params.n, params.p
    top = m * last + m - last
    window = [0] * (top + 1)
    powers = table.powers(top)
    lower = _lower(params, table)
    kernel = table.column(-1, -1, top - m)
    rows = [row0(m)]
    for i in range(1, last + 1):
        # P^0 = 1 adds a_{i-1,0} at index 0 alone
        weight = 2 ** (n * (i - 1))
        window[0] += weight * rows[-1][0]
        for a, power in zip(rows[-1][1:], powers[1:]):
            if a:
                coef = weight * a
                window = [x + coef * b for x, b in zip(window, power)]
        bad = next((t for t in range(m) if window[t]), None)
        if bad is not None:
            raise ArithmeticError(
                "before row %d of A_%d: coefficient %d of K^-%d F (an equation of row %d "
                "or a gap equation) is %d, not 0"
                % (i, p, m * (i - 1) + bad, i - 1, i - 1, window[bad])
            )
        window = _truncated_product(kernel, window[m:], len(window) - m - 1)
        head = _solve_leading(params, i, lower, [-x for x in window[: m - i + 1]])
        rows.append(head + (0,) * i)
    return rows


def assemble(p, table=None):
    """Build the full matrix A_p, asserting integrality of every entry.

    ``table`` may be the prime's shared b-table.  The row loop runs to
    row m, so its window (``_solve_rows``) ends at index m^2.  Assembly
    reads only the power columns b(2h, 0), to index m^2, b(-1, -1), to
    m^2 - m (each product skips the m entries the gap check cleared), and
    the scalar column b(2, 0), to index m: ~m^3 coefficients, and ~m^5/6
    multiply-adds in the products.  L comes from the scalar column and
    row 0's series from the packed family, so each route checks the other
    to index m: a packed entry P^h[l], h >= 1, l < m, off by d moves
    coefficient l of row 0's series by d a_{0,h} != 0, which the gap check
    before row 1 reads.
    """
    params = PrimeParams(p)
    return ModularMatrix(params, tuple(_solve_rows(params, _table_for(params, table), params.m)))


# ---------------------------------------------------------------------------
# verification


def verify_symmetry(matrix):
    """Check a_{i,h} = a_{h,i} and a_{i,h} = (-1)^{m(i-1)} a_{i,m-i-h}."""
    m = matrix.params.m
    e = matrix.entries
    transpose_bad = [
        (i, h) for i in range(m + 1) for h in range(i + 1, m + 1) if e[i][h] != e[h][i]
    ]
    horizontal_bad = []
    for i in range(1, m + 1):
        sign = (-1) ** (m * (i - 1))
        for h in range(m - i + 1):
            if e[i][h] != sign * e[i][m - i - h]:
                horizontal_bad.append((i, h))
    details = {
        "transpose": not transpose_bad,
        "horizontal": not horizontal_bad,
        "transpose_violations": transpose_bad,
        "horizontal_violations": horizontal_bad,
    }
    return CheckResult("symmetry", not transpose_bad and not horizontal_bad, details)


def _row1_moment_expectations(params):
    """Closed forms for the first three moments of row 1, as int pairs.

    Returns (first, second, third, third_alternate), each a pair of ints
    (numerator, denominator) with a positive denominator, not reduced:
    the third moment carries the alpha_p(2) term with a minus sign, which
    is what the solved rows actually satisfy; ``third_alternate`` flips
    that sign and is reported only as the known-bad variant.  Each is
    built from ints: the common factor n^(m-2) 2^(m-n), the moment
    polynomials in closed form, P_1(m) = m/2 and P_2(m) = m(3m+1)/24
    (``bpoly.p_poly``), and k alpha_p(k) from ``k_alpha``, the two third
    moments over one denominator.
    """
    m, n, p = params.m, params.n, params.p
    nn = n * n
    # every term carries n^(m-2) 2^(m-n) = num / den
    num, den = n ** m << m, nn << n
    # -n^m 2^(m-n)
    first = -nn * num, den
    # -n^m 2^(m+1-n) P_1(m), P_1(m) = m/2
    second = -nn * m * num, den
    # the third moment's terms over 3 den, from k_alpha(p, k) = k alpha_p(k):
    # -n^m 2^(m+3-n) P_2(m), P_2(m) = m(3m+1)/24
    lead = -nn * m * (3 * m + 1)
    # n^(m-1) 2^(m+1-n) alpha_p(2)
    mid = 3 * n * k_alpha(p, 2)
    # n^(m-2) 2^(m+1-n) m alpha_p(3)
    tail = 2 * m * k_alpha(p, 3)
    third_den = 3 * den
    third = (lead - mid - tail) * num, third_den
    third_alternate = (lead + mid - tail) * num, third_den
    return first, second, third, third_alternate


def _ratio_str(num, den):
    """str(Fraction(num, den)) for ints with den > 0, without building the Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else "%d/%d" % (num, den)


def verify_row_moments(params, row):
    """First-row moment identities: sums of a_{1,h} against their closed forms.

    ``row`` is row 1 of A_p, the ints a_{1,0}..a_{1,m}.  The first two
    moments match the classical statements verbatim.  The third matches
    only after flipping the sign of its alpha_p(2) term; both
    evaluations are reported, and the check passes on the corrected
    form.  The sums run on ints, and each is compared with its closed
    form num/den exactly, as sum * den == num; the details print every
    value as ``str(Fraction)`` would.
    """
    odd = range(1, 2 * len(row), 2)
    weighted = list(map(mul, odd, row))
    s0, s1, s2 = sum(row), sum(weighted), sum(map(mul, odd, weighted))
    (n0, d0), (n1, d1), (n2, d2), (n2_alt, d2_alt) = _row1_moment_expectations(params)
    ok0, ok1, ok2 = s0 * d0 == n0, s1 * d1 == n1, s2 * d2 == n2
    flipped = s2 * d2_alt == n2_alt
    e2_alt = _ratio_str(n2_alt, d2_alt)
    details = {
        "first": {"actual": str(s0), "expected": _ratio_str(n0, d0), "ok": ok0},
        "second": {"actual": str(s1), "expected": _ratio_str(n1, d1), "ok": ok1},
        "third": {"actual": str(s2), "expected": _ratio_str(n2, d2), "ok": ok2},
        "third_alpha2_sign_flipped": {"value": e2_alt, "matches": flipped},
    }
    note = "third moment uses the negated alpha_p(2) term; the sign-flipped variant %s %s %s" % (
        e2_alt, "matches" if flipped else "does not match", s2
    )
    return CheckResult("rowsums", ok0 and ok1 and ok2, details, note)


def integer_det(rows):
    """Exact determinant of a square int grid by Bareiss elimination.

    The library's only general elimination.  Step c replaces every entry
    below and right of the pivot by (pivot * x - f * y) / previous pivot,
    which Sylvester's identity makes an exact division (Bareiss 1968);
    each is a ``divmod`` whose nonzero remainder raises
    ``IntegralityError``.  The pivot is the first nonzero entry of its
    column, a fixed rule that keeps every intermediate reproducible.  The
    last pivot is the determinant up to the sign of the row swaps.
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


def verify_block_determinants(params, table=None):
    """det B(i,i) = (-2n)^{(m+1-i)(m-i)/2} for every 1 <= i <= m.

    Each block is read with ``block`` and its determinant taken by
    Bareiss elimination (``integer_det``), independent of how the rows
    are solved; ``table`` may be the prime's shared b-table.
    """
    m, n = params.m, params.n
    table = _table_for(params, table)
    per_block = []
    for i in range(1, m + 1):
        d = integer_det(block(params, i, i, table))
        expected = (-2 * n) ** (((m + 1 - i) * (m - i)) // 2)
        per_block.append({"i": i, "det": str(d), "expected": str(expected), "ok": d == expected})
    return CheckResult("dets", all(b["ok"] for b in per_block), {"blocks": per_block})


def global_order(params, order=None):
    """The q-order of the global check: m^2 + 2m by default, never below m^2."""
    m = params.m
    if order is None:
        return m * m + 2 * m
    if order < m * m:
        raise ValueError("order must be >= m^2 = %d to cover all solved equations" % (m * m))
    return order


def verify_global_vanish(matrix, order=None, table=None):
    """Substitute the matrix back into the master q-series and demand zero.

    Checks every coefficient of q^t for 0 <= t <= order, including the
    equations no solve ever used, so it also exercises the zero triangle
    and the trailing padding.  The order must be at least m^2 (the
    largest index any solve touched); the default adds 2m surplus
    equations on top.  The master series is evaluated top-down by
    Horner's rule in 2^n q^m K,

        acc = A_m(P);  acc = A_i(P) + 2^n q^m K acc  for i = m-1..0,

    the step at row i truncated to index order - m i: an integer
    combination of the power columns P^h = b(2h, 0) plus one truncated
    product with K = b(1, 1), ~m^5/6 multiply-adds.  It reads only
    ``matrix.entries`` and those columns, to the order and to order - m;
    ``table`` may be the prime's shared b-table.
    """
    params = matrix.params
    m, n = params.m, params.n
    order = global_order(params, order)
    table = _table_for(params, table)
    kernel = table.column(1, 1, order - m)
    powers = table.powers(order)
    weight = 2 ** n
    acc = None
    for i in range(m, -1, -1):
        # acc = A_i(P) + 2^n q^m K acc, to index order - m*i; P^0 = 1 adds a_{i,0} at index 0
        top = order - m * i
        row = matrix.entries[i]
        series = [row[0]] + [0] * top
        for a, power in zip(row[1:], powers[1:]):
            if a:
                series = [x + a * b for x, b in zip(series, power)]
        if acc is not None:
            product = _truncated_product(kernel, acc, top - m)
            series[m:] = [x + weight * y for x, y in zip(series[m:], product)]
        acc = series
    bad = next(((t, c) for t, c in enumerate(acc) if c != 0), None)
    details = {"order": order}
    if bad is not None:
        details["first_nonzero"] = {"power": bad[0], "coefficient": str(bad[1])}
    return CheckResult("global", bad is None, details)


# ---------------------------------------------------------------------------
# the m = 3 structure checks


def _require_m3(params, what):
    if params.m != 3:
        raise ValueError("%s is stated for m = 3 only (p in {5, 11, 23})" % what)


def closed_form_row1(matrix):
    """Closed-form expressions for a_{1,0}, a_{1,1}, a_{1,2} when m = 3.

    The expressions are compared with row 1 of ``matrix``.  As stated,
    they evaluate to the negatives of the solved entries; the check
    accepts that global sign flip and records it in the report.
    """
    params = matrix.params
    _require_m3(params, "closed_form_row1")
    m, n = params.m, params.n
    a2, a3 = alpha(params.p, 2), alpha(params.p, 3)
    p1, p2 = p_poly(1, m), p_poly(2, m)
    prefactor = Fraction(2) ** (m - n - 3) * Fraction(n) ** (m - 2)
    expressions = (
        prefactor * (2 * n * a2 + 2 * m * a3 + n * n * (15 - 16 * p1 + 8 * p2)),
        prefactor * (-4 * n * a2 - 4 * m * a3 - 2 * n * n * (5 - 12 * p1 + 8 * p2)),
        prefactor * (2 * n * a2 + 2 * m * a3 + n * n * (3 - 8 * p1 + 8 * p2)),
    )
    row = matrix.entries[1]
    entries = []
    ok = True
    for h, expr in enumerate(expressions):
        match = expr == -row[h]
        ok = ok and match
        entries.append(
            {"h": h, "expression": str(expr), "entry": row[h], "matches_negated_entry": match}
        )
    details = {"sign_flipped": True, "entries": entries}
    note = "the closed forms equal the negated matrix entries" if ok else ""
    return CheckResult("row1-closed-forms", ok, details, note)


def _times(grid, vector):
    """The int vector grid @ vector."""
    return [sum(map(mul, row, vector)) for row in grid]


def _cramer(params, name, grid, rhs):
    """(d, x) with d = det grid and x = d grid^{-1} rhs, all ints, by Cramer's rule.

    x_j is the determinant of grid with column j replaced by rhs.  A zero
    d raises ``ArithmeticError`` naming the block and p.
    """
    d = integer_det(grid)
    if not d:
        raise ArithmeticError(
            "theorem52: block %s of p = %d is singular, so Cramer's rule cannot solve it"
            % (name, params.p)
        )
    columns = list(zip(*grid))
    x = [integer_det(zip(*columns[:j], rhs, *columns[j + 1 :])) for j in range(len(columns))]
    return d, x


def row2_pipeline(matrix, table=None):
    """Determine row 2 from row-1 data alone, for m = 3, and compare with ``matrix``.

    Solves 2^{2n} B(2,2) a'_2 = R with
    R = B(2,1) B(1,1)^{-1} B(1,0) a_0 - B(2,0) a_0, whose first
    coordinate vanishes when m = 3.  Writing C for the second
    coordinate, the solved entries satisfy a_{2,1} = -a_{2,0} and
    C = 2n * 2^{2n} * a_{2,0}; the simpler claim C = 2^{2n} a_{2,0}
    misses the 2n factor and is recorded as such.  ``table`` may be the
    prime's shared b-table.

    Both solves are Cramer's rule on ints.  With d_1 = det B(1,1) the
    vector d_1 R is integral, so every determinant is an ``integer_det``
    and only C, a_{2,0} and a_{2,1} become fractions.  A singular B(1,1)
    or B(2,2) raises ``ArithmeticError``.
    """
    params = matrix.params
    _require_m3(params, "row2_pipeline")
    n = params.n
    table = _table_for(params, table)
    a0 = row0(params.m)
    v = _times(block(params, 1, 0, table), a0)
    d1, w = _cramer(params, "B(1,1)", block(params, 1, 1, table), v)  # B(1,1)^{-1} v = w / d1
    t = _times(block(params, 2, 1, table), w)
    s = _times(block(params, 2, 0, table), a0)
    residual = [ti - d1 * si for ti, si in zip(t, s)]  # d1 R
    first_zero = residual[0] == 0
    c = Fraction(residual[1], d1)
    # B(2,2)^{-1} d1 R = head / d2
    d2, head = _cramer(params, "B(2,2)", block(params, 2, 2, table), residual)
    scale = 2 ** (2 * n)
    a20, a21 = (Fraction(x, d1 * d2 * scale) for x in head)
    reference = matrix.entries[2]
    ok = (
        first_zero
        and a21 == -a20
        and a20 == reference[0]
        and a21 == reference[1]
    )
    details = {
        "first_coordinate_zero": first_zero,
        "C": str(c),
        "a20": str(a20),
        "a21": str(a21),
        "scale_claim_C_eq_4n_a20": c == scale * a20,
        "scale_found_C_eq_2n_4n_a20": c == 2 * n * scale * a20,
    }
    note = "C = 2n * 2^{2n} * a_{2,0}, not 2^{2n} * a_{2,0}" if ok else ""
    return CheckResult("row2-pipeline", ok, details, note)


def bordered_determinant(p, table=None):
    """The 3x3 determinant certifying a_{1,m} = 0 when m = 3.

    Columns are (b_l(3,1)), (b_l(5,1)) and (B(1,0) a_0)_l for l = 0..2;
    the determinant must equal m (-2n)^3 2^n.  ``table`` may be the
    prime's shared b-table.
    """
    params = PrimeParams(p)
    _require_m3(params, "bordered_determinant")
    m, n = params.m, params.n
    table = _table_for(params, table)
    col_a = table.column(3, 1, 2)
    col_b = table.column(5, 1, 2)
    col_c = _times(block(params, 1, 0, table), row0(m))
    det = integer_det([[col_a[l], col_b[l], col_c[l]] for l in range(3)])
    expected = m * (-2 * n) ** 3 * 2 ** n
    details = {"det": str(det), "expected": str(expected)}
    return CheckResult("bordered-det", det == expected, details)


# ---------------------------------------------------------------------------
# the verify plan

# each check of the plan, from the assembled matrix, the b-table it shares
# and the global check's order: assembly grows b(2h, 0) and b(-1, -1),
# global extends b(2h, 0) to its order and adds K = b(1, 1), dets adds the
# B(i,i) heads, and the m = 3 checks read direct columns
_PLAN = {
    "symmetry": lambda matrix, table, order: [verify_symmetry(matrix)],
    "rowsums": lambda matrix, table, order: [
        verify_row_moments(matrix.params, matrix.entries[1])
    ],
    "dets": lambda matrix, table, order: [verify_block_determinants(matrix.params, table)],
    "theorem52": lambda matrix, table, order: [
        closed_form_row1(matrix),
        row2_pipeline(matrix, table),
        bordered_determinant(matrix.params.p, table),
    ],
    "global": lambda matrix, table, order: [verify_global_vanish(matrix, order, table)],
}
CHECK_NAMES = tuple(_PLAN)


def run_checks(params, names=None, order=None):
    """The ``CheckResult``s of the checks ``names`` of ``CHECK_NAMES``, run in order.

    ``None`` runs symmetry, rowsums, dets, global, then theorem52 when
    m = 3; theorem52 is ``closed_form_row1``, ``row2_pipeline`` and
    ``bordered_determinant``.  ``order`` is the global check's.  An
    unknown name, theorem52 when m != 3, or an order below m^2 (whatever
    the plan) raises ``ValueError`` before any table work.  One b-table
    serves assembly and every check, and its power columns grow once: to
    the global order first when the plan runs global, then A_p is
    assembled once.
    """
    if names is None:
        names = ["symmetry", "rowsums", "dets", "global"]
        if params.m == 3:
            names.append("theorem52")
    unknown = [name for name in names if name not in _PLAN]
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(unknown))
    if "theorem52" in names and params.m != 3:
        raise ValueError("the theorem52 checks need m = 3 (p in {5, 11, 23})")
    order = global_order(params, order)
    table = BTable(params.p)
    if "global" in names:
        table.powers(order)  # assembly reads m^2 of them
    matrix = assemble(params.p, table)
    return [result for name in names for result in _PLAN[name](matrix, table, order)]


# ---------------------------------------------------------------------------
# serialization


def to_doc(matrix, verification=None):
    """Canonical structured document for one matrix (plain dict, JSON-able)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": matrix.params.p,
        "m": matrix.params.m,
        "n": matrix.params.n,
        "matrix": [list(row) for row in matrix.entries],
    }
    if verification is not None:
        doc["verification"] = verification
    return doc


def from_doc(doc):
    """Parse a structured document back into a ModularMatrix.

    The document must be a JSON object with the keys of ``to_doc``, its
    schema_version, p, m and n JSON integers, its matrix a list of rows,
    each a list, and every entry a JSON integer; anything else raises
    ``ValueError`` rather than being coerced.
    """
    if not isinstance(doc, dict):
        raise ValueError("a structured document is a JSON object, not %s" % type(doc).__name__)
    missing = [key for key in ("schema_version", "p", "m", "n", "matrix") if key not in doc]
    if missing:
        raise ValueError("the structured document has no %s" % ", ".join(missing))
    # != alone would take true for 1 and 3.0 for 3
    version, p, m, n = (doc[key] for key in ("schema_version", "p", "m", "n"))
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version %r" % (version,))
    if type(p) is not int:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    params = PrimeParams(p)
    if type(m) is not int or type(n) is not int or (params.m, params.n) != (m, n):
        raise ValueError("inconsistent (p, m, n) in document")
    rows = doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("the matrix of a structured document is a list of lists")
    grid = tuple(tuple(row) for row in rows)
    return ModularMatrix(params, grid)  # refuses any entry that is not an int


def render_text(matrix):
    """Aligned plain-text grid with a parameter header."""
    params = matrix.params
    width = max(len(str(x)) for row in matrix.entries for x in row)
    lines = ["p = %d   m = %d   n = %d" % (params.p, params.m, params.n)]
    for row in matrix.entries:
        lines.append("  ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines)


def render_typeset(matrix):
    """LaTeX array block in the conventional layout."""
    params = matrix.params
    m = params.m
    body = " \\\\\n".join(" & ".join(str(x) for x in row) for row in matrix.entries)
    return (
        "A_{%d} =\n"
        "\\left(\\begin{array}{%s}\n%s\n\\end{array}\\right)"
        " \\qquad n = %d,\\ m = %d" % (params.p, "r" * (m + 1), body, params.n, m)
    )
