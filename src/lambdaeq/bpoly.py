"""The two-variable partition polynomials b_l(u, v) and the moment polynomials.

b_l(u, v) is the sum over all partitions J of l of

    (-n)^{|J|} * u^{J_o} * v^{J_e} * W_p(J)

where |J| counts parts, J_o/J_e count odd/even parts, W_p is the
alpha-weight of the partition, and n is fixed by p through
(p+1)/8 = m/n (``arith.reduced``), so every route takes p alone.
Summing the partition generating function gives the series-exponential
recurrence

    l * b_l = sum_{k=1..l} w_k * b_{l-k},   w_k = -n * k * g(k),

with g(k) = u*alpha_p(k) for odd k and v*alpha_p(k) for even k.  Three
evaluation routes exist on purpose:

* ``b_eval`` sums ``partition_weight`` over ``partitions_of(l)``, each
  partition a dict {part k: multiplicity j_k} (the oracle; only
  feasible for small l),
* ``b_series`` runs it at any rational (u, v) = (a/d, c/d), scaled by
  l! d^l to ints, and divides each b_l once at the end,
* ``BTable`` runs the recurrence itself on plain ints at integer (u, v):
  k * alpha_p(k) is an integer, so every w_k is, and the division by l
  is an exact ``divmod`` whose remainder must be zero.  It keeps each
  column and grows it on demand.

Production code reads ``BTable`` columns; ``b_series`` serves the CLI at
rational points.  Tests pin the three routes against each other.  The
table takes its weights from the divisor sieve ``arith.k_alpha_prefix``
and ``b_series`` from ``arith.k_alpha`` one k at a time, so the two
weight routes check each other too.
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm
from itertools import repeat
from operator import index, itemgetter, mul, neg

from .arith import IntegralityError, alpha, k_alpha, k_alpha_prefix, reduced

__all__ = [
    "ENUMERATION_THRESHOLD",
    "BTable",
    "b_eval",
    "b_series",
    "p_poly",
    "partition_weight",
    "partitions_of",
]

# p(30) = 5604 partitions is still cheap to enumerate; beyond that the
# recurrence is the only sensible route.
ENUMERATION_THRESHOLD = 30


def partitions_of(n):
    """All partitions of n as dicts {part k: multiplicity j_k}, largest part first."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out = []
    parts = []

    def rec(remaining, largest):
        if remaining == 0:
            out.append(dict(Counter(parts)))
            return
        for k in range(min(largest, remaining), 0, -1):
            parts.append(k)
            rec(remaining - k, k)
            parts.pop()

    rec(n, n)
    return out


def partition_weight(p, partition):
    """W_p(J) = prod over parts k of alpha_p(k)^{j_k} / j_k!."""
    w = Fraction(1)
    for k, j in partition.items():
        w *= alpha(p, k) ** j
        w /= factorial(j)
    return w


def b_eval(p, l, u, v):
    """b_l(u, v) of the prime p, summed over all partitions of l.

    Exists as the independent oracle for ``b_series`` and for small
    structural checks; raises for l above ``ENUMERATION_THRESHOLD``.
    """
    n = reduced(p)[1]
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l > ENUMERATION_THRESHOLD:
        raise ValueError(
            "l=%d exceeds the enumeration threshold %d; the recurrence (b_series, "
            "bpoly --method recurrence) has no such limit" % (l, ENUMERATION_THRESHOLD)
        )
    total = Fraction(0)
    for part in partitions_of(l):
        odd = sum(j for k, j in part.items() if k % 2)
        even = sum(part.values()) - odd
        # 0**0 == 1 keeps the empty cases right
        total += (-n) ** (odd + even) * partition_weight(p, part) * u**odd * v**even
    return total


def b_series(p, max_l, u, v):
    """The prefix [b_0, ..., b_max_l] at any rational (u, v), via the recurrence.

    With u = a/d and v = c/d over one denominator d, e_l = l! d^l b_l is
    an integer and e_l = sum_k V_k (l-1)!/(l-k)! e_{l-k}, with
    V_k = d^k w_k = -n (a or c) d^{k-1} k alpha_p(k).  The loop runs on
    ints, and each b_l is the one division e_l / (l! d^l).
    """
    n = reduced(p)[1]
    if max_l < 0:
        raise ValueError("max_l must be nonnegative")
    u, v = Fraction(u), Fraction(v)
    d = lcm(u.denominator, v.denominator)
    a, c = u.numerator * (d // u.denominator), v.numerator * (d // v.denominator)
    weights = [0] + [
        -n * (a if k % 2 else c) * d ** (k - 1) * k_alpha(p, k) for k in range(1, max_l + 1)
    ]
    e = [1]
    for l in range(1, max_l + 1):
        # Horner in the falling factorial (l-1)!/(l-k)!, from k = l down to 1
        acc = 0
        for k in range(l, 0, -1):
            acc = acc * (l - k) + weights[k] * e[l - k]
        e.append(acc)
    return [Fraction(e_l, factorial(l) * d ** l) for l, e_l in enumerate(e)]


# the packed ints of one group of power columns hold at most this many
# bytes, unless one slot alone is wider.  A term of a dot costs about the
# same up to ~128 bytes and then grows with the width (~0.7 ns a byte past
# 256 bytes on a 2-core VM), so only narrow slots share a packed int, and
# a wider cap would only keep a longer history alive
_PACKED_BYTES = 256


def _slot_bytes(bits):
    """Bytes per packed slot of at least ``bits`` bits."""
    return (bits + 7) // 8


class BTable:
    """Integer columns [b_0(u, v), b_1(u, v), ...] of one prime p, grown on demand.

    Each column is computed once and extended only when a longer prefix
    is asked for, so every consumer of one table shares the work.  At
    integer (u, v) the weights w_k = -n * scale * (k alpha_p(k)) are
    integers.  The table keeps n k alpha_p(k) for k = 1..top, from one
    divisor sieve (``arith.k_alpha_prefix``), split once into an odd-k
    and an even-k list; it sieves and splits again only when a column
    reaches past them.  Step l is then -u times the dot of the odd list
    with b_{l-1}, b_{l-3}, ..., minus v times the dot of the even list
    with b_{l-2}, b_{l-4}, ... when v != 0: no weight list is built per
    column, and at v = 0, as for the columns b(2h, 0), only the odd list
    is read, which halves the work.  The recurrence runs on ints and
    divides by l with ``divmod``; a nonzero remainder raises
    ``IntegralityError``, which makes every step an integrality check.
    At the points (r+2h, r) the b_l are integer eta-quotient
    coefficients and the check always holds; elsewhere (e.g.
    b_2(1, 0) = 1/2 when n = 1) it fails as it should.

    A column of length L costs ~L^2/2 multiply-adds (~L^2/4 at v = 0).

    The m+1 power columns P^h = b(2h, 0), h = 0..m, that assembly and
    the global check read come from ``powers`` instead, grown together;
    L of the row solves, whose columns are the powers (P - 1)^j, comes
    from the scalar column b(2, 0) (``modeq._lower``).  At odd k,
    k alpha_p(k) = sigma_1(k) + p sigma_1(k/p) > 0, so every stored odd
    weight is positive and every odd w_k at u > 0 negative (checked
    where the weights are sieved).  Then
    (-1)^l b_l(u, 0) = sum over the partitions J of l into
    odd parts of n^|J| u^|J| W_p(J), since |J| = l mod 2: a polynomial in
    u with nonnegative coefficients and no constant term for l >= 1, so
    |b_l(2h, 0)| grows with h and every term of the odd dot of step l
    has the one sign (-1)^l.  P^0 = [1, 0, 0, ...] costs nothing and P^m
    runs the scalar recurrence above.  P^1..P^{m-1} run in groups
    h = a..a+g-1, from the top down, each as one recurrence on packed
    ints.  Column a+g, already grown, bounds every |b_l(2h, 0)| of the
    group below 2^bits, so with the guard c = bits(top) a slot of
    w >= bits + c bits holds l |b_l(2h, 0)|.  The history is
    X_j = sum_h |b_j(2h, 0)| 2^(w (h - a)), and step l is one dot d of
    the odd weights with X_{l-1}, X_{l-3}, ...: slot j of d is
    d_j = l |b_l(2h, 0)| / 2h, h = a + j, with no carry or borrow.  With
    M_t masking the slots whose j has bit t set, sum_t (d & M_t) << t
    holds j d_j in slot j, so e = 2 (a d + that sum) holds 2h d_j =
    l |b_l(2h, 0)| in slot j, again carry-free.  Then one exact division:
    q, r = divmod(e, l) is accepted only if r = 0 and q sets none of the
    top c bits of any slot.  Each slot of l q is then below
    l 2^(w-c) < 2^w, so l q = e digit by digit in base 2^w and every
    slot divided exactly; conversely, exact slots give such a q, as
    |b_l(2h, 0)| < 2^bits.  q is X_l.  A failure names the first slot
    with a remainder (``IntegralityError``), or a slot too narrow
    (``OverflowError``).  The columns are decoded once, at the end.  A
    growth to index L costs one scalar column plus one packed dot per
    index and group, ~L^2/4 multiply-adds each on wide ints where the
    columns one by one took ~m L^2/4 on narrow ones.  A group packs as
    many slots as fit in ``_PACKED_BYTES`` bytes, and at least one;
    assembly grows them to L = m^2 (see ``modeq``).
    """

    __slots__ = ("p", "n", "_odd", "_even", "_columns", "_powers")

    def __init__(self, p):
        self.p = p
        self.n = reduced(p)[1]
        self._odd = []         # n k alpha_p(k) at k = 1, 3, 5, ...
        self._even = []        # n k alpha_p(k) at k = 2, 4, 6, ...
        self._columns = {}
        self._powers = []      # P^0..P^m, built at the first ``powers`` call

    def column(self, u, v, top):
        """b_0..b_top at the integer point (u, v), as a list of ints.

        The list is the table's own column and may be longer than
        top + 1; callers slice it and never modify it.  It is independent
        of ``powers``: a lone point (2h, 0) never builds the family.
        """
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise ValueError(
                "the integer b-table needs integer (u, v), got (%s, %s)" % (u, v)
            ) from None
        column = self._columns.get((u, v))
        if column is None:
            column = self._columns[(u, v)] = [1]
        if len(column) <= top:
            self._grow(column, u, v, top)
        return column

    def powers(self, top):
        """The columns P^h = b(2h, 0) for h = 0..m, each to index top at least.

        The list and its columns are the table's own, equal in length and
        possibly longer than top + 1; callers slice them and never modify
        them.  A read that needs no growth is one length check.
        """
        family = self._powers
        if family and len(family[0]) > top:
            return family
        return self._grow_powers(top)

    def _grow(self, column, u, v, top):
        p, n = self.p, self.n
        if len(self._odd) + len(self._even) < top:
            g = k_alpha_prefix(p, top)
            # the sign lemma of the packed power columns
            bad = next((k for k in range(1, top + 1, 2) if g[k] <= 0), None)
            if bad is not None:
                raise ArithmeticError(
                    "k alpha_p(k) = %d at odd k = %d for p = %d; it is sigma_1(k) + "
                    "p sigma_1(k/p) > 0" % (g[bad], bad, p)
                )
            self._odd = [n * x for x in g[1::2]]
            self._even = [n * x for x in g[2::2]]
        odd, even = self._odd, self._even
        for l in range(len(column), top + 1):
            # w_1 b_{l-1} + w_2 b_{l-2} + ... with w_k = -u odd[k // 2] or -v even[k // 2 - 1];
            # at l = 1 there is no even term, and the slice from l - 2 = -1 would wrap
            total = -u * sum(map(mul, odd, column[l - 1 :: -2]))
            if v and l > 1:
                total -= v * sum(map(mul, even, column[l - 2 :: -2]))
            b_l, rem = divmod(total, l)
            if rem:
                raise IntegralityError(
                    "b_%d(%d, %d) is not an integer for p = %d, n = %d" % (l, u, v, p, n)
                )
            column.append(b_l)

    def _grow_powers(self, top):
        m = reduced(self.p)[0]
        family = self._powers or [[1] for _ in range(m + 1)]
        start = len(family[0])
        self._grow(family[m], 2 * m, 0, top)  # sieves the weights first, and checks their sign
        guard = top.bit_length()
        b = m
        while b > 1:
            # slot h < b holds |b_l(2h, 0)| <= |b_l(2b, 0)|, and l |b_l(2h, 0)| below
            # 2^guard times that
            size = _slot_bytes(max(map(abs, family[b])).bit_length() + guard)
            # a slot wider than the cap is a group of one
            count = max(1, min(b - 1, _PACKED_BYTES // size))
            self._grow_packed(family[b - count : b], b - count, size, top)
            b -= count
        family[0] += [0] * (top + 1 - start)
        self._powers = family
        return family

    def _grow_packed(self, columns, a, size, top):
        """Grow the columns P^a, P^(a+1), ... to index top as one packed recurrence."""
        odd, to_bytes, from_bytes = self._odd, int.to_bytes, int.from_bytes
        start, count, w = len(columns[0]), len(columns), 8 * size
        width = size * count
        # slot j of (d & masks[t]) << (t + 1) is 2^(t+1) d_j if bit t of j is set, else 0
        masks = [
            sum(((1 << w) - 1) << (w * j) for j in range(count) if j >> t & 1)
            for t in range((count - 1).bit_length())
        ]
        guard = top.bit_length()
        high = sum(((1 << guard) - 1) << (w * j + w - guard) for j in range(count))
        history = [
            from_bytes(b"".join([to_bytes(abs(x), size, "little") for x in row]), "little")
            for row in zip(*columns)
        ]
        for l in range(start, top + 1):
            # slot j of d is l |b_l(2h, 0)| / 2h, h = a + j, and of e 2h times that
            d = sum(map(mul, odd, history[l - 1 :: -2]))
            e = 2 * a * d
            for t, mask in enumerate(masks, 1):
                e += (d & mask) << t
            q, r = divmod(e, l)
            if r or q & high:
                self._packed_failure(e, l, a, count, w)
            history.append(q)
        raw = list(map(to_bytes, history[start:], repeat(width), repeat("little")))
        odd_l = (start + 1) & 1  # b_l(2h, 0) < 0 at odd l
        for j, column in enumerate(columns):
            cut = itemgetter(slice(j * size, (j + 1) * size))
            values = list(map(from_bytes, map(cut, raw), repeat("little")))
            values[odd_l::2] = map(neg, values[odd_l::2])
            column += values

    def _packed_failure(self, e, l, a, count, w):
        slots = [(e >> (w * j)) & ((1 << w) - 1) for j in range(count)]
        bad = next((j for j, x in enumerate(slots) if x % l), None)
        if bad is None:
            raise OverflowError(
                "packed slots of %d bits overflow at index %d of P^%d..P^%d for p = %d"
                % (w, l, a, a + count - 1, self.p)
            )
        raise IntegralityError(
            "b_%d(%d, 0) is not an integer for p = %d, n = %d" % (l, 2 * (a + bad), self.p, self.n)
        )


def p_poly(s, m):
    """P_s(m), the degree-s moment polynomial.

    Defined by P_0 = 1 and (m+s) P_s(m) = m (P_{s-1}(m) + P_s(m-1)), with
    P_s(0) = 0 for s >= 1 (forced by P_1(1) = 1/2).  Its closed form is

        P_s(m) = sum_{j=0..m} (-1)^{m-j} C(m, j) j^{s+m} / (s+m)!,

    that is m! S(s+m, m) / (s+m)!, the coefficient of x^s in E(x)^m with
    E(x) = (e^x - 1)/x.  The recurrence is x E' = 1 + (x - 1) E times
    m E^{m-1}.  The sum runs on ints and divides once, at the end.
    """
    if s < 0 or m < 0:
        raise ValueError("p_poly needs s >= 0 and m >= 0")
    N = s + m
    total = sum((-1) ** (m - j) * comb(m, j) * j ** N for j in range(m + 1))
    return Fraction(total, factorial(N))
