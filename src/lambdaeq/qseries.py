"""Truncated formal power series in q with int coefficients, and lambda.

A ``Series`` stores coefficients c_0..c_T; terms beyond q^T are unknown
(not zero).  Every operation records how far its output can be trusted:
sums keep the smaller order, while products use valuations, so that a
product of series vanishing to high order stays valid beyond the naive
min (the unknown tail of one factor first pollutes the output at
order + valuation of the other factor).  This bookkeeping is what lets
the differential-equation residual (``ode``) be certified coefficient
by coefficient with no hand analysis.  Products run
``_truncated_product``, which ``modeq`` shares, and powers run Miller's
recurrence (``Series.__pow__``).
"""

from operator import mul

from .arith import IntegralityError

__all__ = [
    "Series",
    "lambda_series",
]


# The int route multiplies two ints of count * size bytes (Karatsuba, about
# (count size)^1.58 digit products), while the loop's count^2 / 2 pair
# products cost little more for wide coefficients than for narrow ones.  So
# the route pays for long products of narrow coefficients and loses on wide
# slots, unbalanced pairs among them: K^-1 (tens of bits) times a row window
# (hundreds) packs both operands at the product's width.  On the captured
# operands of build, verify, scan, matrix 53 and 89, ode-check and series the
# int route won where size^3 < 1024 count and lost above it; below 16
# coefficients packing costs about as much as the loop.
_KRONECKER_MIN = 16
_KRONECKER_CUBE = 1024


def _truncated_product(a, b, top):
    """Coefficients 0..top of the product of the series a and b (sequences).

    Both must hold at least top + 1 coefficients (``ValueError``
    otherwise); a negative top gives [].  Both operands are cut to
    top + 1 coefficients, and the slot width for the int route comes from
    the bound |c_t| <= max|a| max|b| (top + 1) (``_slot_bytes``).  With
    at least _KRONECKER_MIN coefficients and size^3 < _KRONECKER_CUBE
    (top + 1) the product is that one exact int multiply (``_kronecker``),
    otherwise the schoolbook loop below, which the tests hold the int
    route to.  Passing one object as both a and b asks for a square: the
    int route packs it once and squares the int, CPython's squaring path,
    and the loop sums each pair a_i a_(t-i) with i < t - i once and
    doubles it, adding the middle square a_(t/2)^2 for even t, about half
    the multiply-adds of a product.
    """
    count = top + 1
    if len(a) < count or len(b) < count:
        raise ValueError("a product to q^%d needs %d coefficients of each factor" % (top, count))
    square = a is b
    if count >= _KRONECKER_MIN:
        a = a[:count]
        b = a if square else b[:count]
        size = _slot_bytes(a, b)
        if size**3 < _KRONECKER_CUBE * count:
            return _kronecker(a, b, size)
    reverse = b[top::-1]  # b_top, ..., b_0
    if not square:
        return [sum(map(mul, a, reverse[top - t :])) for t in range(count)]
    out = []
    for t in range(count):
        start = top - t
        c = 2 * sum(map(mul, a, reverse[start : start + (t + 1) // 2]))
        if not t & 1:
            mid = a[t >> 1]
            c += mid * mid
        out.append(c)
    return out


def _slot_bytes(a, b):
    """Bytes per slot for ``_kronecker`` on two equally long operands.

    Every coefficient of the product obeys |c_t| <= bound = max|a| max|b|
    len(a), and the slot holds bound.bit_length() bits and a sign bit,
    rounded up to whole bytes.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * len(a)
    return bound.bit_length() // 8 + 1


def _kronecker(a, b, size):
    """The first len(a) coefficients of a * b by Kronecker substitution.

    a and b are equally long; pass b is a for a square.  Each operand
    becomes the int sum_i x_i 2^(w i), w = 8 size, packed as the bytes of
    x_i + half, half = 2^(w-1), minus the packed run of halves; one int
    multiply gives sum_t c_t 2^(w t).  Adding the run back puts c_t + half
    in slot t, and when every |c_t| < half (``_slot_bytes``) that lies in
    [0, 2^w), so no slot carries into the next: masking to len(a) slots
    and cutting the bytes apart reads each c_t exactly.  A zero operand
    gives zeros (its packed slots would not bound the other's).
    """
    count = len(a)
    if not (any(a) and any(b)):
        return [0] * count
    half = 1 << (8 * size - 1)
    run = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    to_bytes, from_bytes = int.to_bytes, int.from_bytes
    packed = from_bytes(b"".join([to_bytes(x + half, size, "little") for x in a]), "little") - run
    if b is a:
        product = packed * packed
    else:
        other = from_bytes(b"".join([to_bytes(x + half, size, "little") for x in b]), "little")
        product = packed * (other - run)
    width = size * count
    data = ((product + run) & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    return [from_bytes(data[i : i + size], "little") - half for i in range(0, width, size)]


class Series:
    """Truncated power series with int coefficients.

    Every coefficient and every scalar operand is an int: a coefficient
    of any other type (``bool`` included) raises ``TypeError`` at
    construction, as does adding or multiplying by anything that is
    neither an int nor a ``Series``.  ``**`` takes any integer exponent by
    Miller's recurrence; a negative one accepts only a constant term of
    +-1.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list and no order given")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if any(type(c) is not int for c in coeffs):
            raise TypeError("Series coefficients must be ints")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __getitem__(self, k):
        if not 0 <= k <= self.order:
            raise IndexError(
                "coefficient of q^%d unknown beyond truncation order %d" % (k, self.order)
            )
        return self.coeffs[k]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "Series([%s%s], order=%d)" % (head, tail, self.order)

    def valuation(self):
        """Index of the first nonzero known coefficient; order+1 if none."""
        return next((k for k, c in enumerate(self.coeffs) if c), self.order + 1)

    def is_zero(self):
        return not any(self.coeffs)

    def first_nonzero(self):
        """(index, coefficient) of the first nonzero term, or None."""
        return next(((k, c) for k, c in enumerate(self.coeffs) if c), None)

    def __neg__(self):
        return _ring_series([-c for c in self.coeffs], self.order)

    def __add__(self, other):
        if isinstance(other, int):
            c = list(self.coeffs)
            c[0] = c[0] + other
            return Series(c, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        return _ring_series([a + b for a, b in zip(self.coeffs, other.coeffs)], order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        va = self.valuation()
        a = self.coeffs[va:]
        if other is self:  # one sliced object on both sides: the kernel squares it
            vb, b = va, a
        else:
            vb = other.valuation()
            b = other.coeffs[vb:]
        order = min(self.order + vb, other.order + va)
        product = _truncated_product(a, b, order - va - vb)
        return _ring_series([0] * (va + vb) + product, order)

    __rmul__ = __mul__

    def __pow__(self, e):
        """self^e for an integer e, by J.C.P. Miller's recurrence.

        Write self = q^v g with c = g_0 != 0.  Then u = g^e has u_0 = c^e
        and, for l >= 1 (Knuth, TAOCP vol. 2, 4.7),

            l c u_l = sum_{1 <= k <= l, g_k != 0} ((e+1) k - l) g_k u_{l-k}.

        One pass reads only the nonzero terms of g: O(L nnz) multiply-adds
        for L = order - v, so O(L^1.5) for an Euler product and about two
        products' worth for a dense base.  Each step is an exact ``divmod``
        by l c, since g^e is integral; a remainder (a non-integral base)
        raises ``IntegralityError`` naming l and e.  The order is the one
        the valuation-aware product gives e factors from ``Series([1],
        order)``: order + (e - 1) v for e >= 1, and order for e <= 0.  A
        negative e needs a constant term of +1 or -1, its own inverse, so
        the inverse of an integral series is integral: 0 raises
        ``ZeroDivisionError``, any other ``ValueError``.
        """
        if not isinstance(e, int):
            raise TypeError("series powers must be integers")
        if e == 0:
            return _ring_series([1] + [0] * self.order, self.order)
        if e < 0:
            c0 = self.coeffs[0]
            if c0 == 0:
                raise ZeroDivisionError("cannot invert a series with zero constant term")
            if c0 not in (1, -1):
                raise ValueError("only a constant term of +1 or -1 is inverted, got %s" % (c0,))
        v = self.valuation()  # 0 when e < 0
        order = self.order + (e - 1) * v
        if v > self.order:  # the zero series
            return _ring_series([0] * (order + 1), order)
        g = self.coeffs[v:]
        c = g[0]
        step = e + 1
        u = [c ** abs(e)]  # c = +-1 when e < 0
        terms = []  # (k, (e+1) k g_k, g_k) for the nonzero g_k, 1 <= k <= l
        for l in range(1, len(g)):
            if g[l]:
                terms.append((l, step * l * g[l], g[l]))
            value, rem = divmod(sum([(a - l * b) * u[l - k] for k, a, b in terms]), l * c)
            if rem:
                raise IntegralityError(
                    "power step l = %d of the exponent e = %d left a remainder" % (l, e)
                )
            u.append(value)
        return _ring_series([0] * (e * v) + u, order)

    def shift(self, k):
        """Multiply by q^k (integer k >= 0); validity extends to order + k."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("shift needs an integer k >= 0")
        return _ring_series([0] * k + list(self.coeffs), self.order + k)

    def qderiv(self):
        """The operator D = q d/dq: coefficient c_k becomes k c_k."""
        return _ring_series([k * c for k, c in enumerate(self.coeffs)], self.order)

    def to_text(self):
        """Exact human-readable listing, e.g. '16*q - 128*q^2 + O(q^3)'."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = c if c > 0 else -c
            if k == 0:
                body = str(mag)
            else:
                power = "q" if k == 1 else "q^%d" % k
                body = power if mag == 1 else "%s*%s" % (mag, power)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        head = " ".join(parts) if parts else "0"
        return "%s + O(q^%d)" % (head, self.order + 1)


def _ring_series(coeffs, order):
    """A ``Series`` from a list of exactly order + 1 ints, with no type scan.

    Only for results the ring builds from checked series alone, which can
    hold nothing but ints; every other caller, a scalar operation
    included, goes through ``Series(...)``.
    """
    s = object.__new__(Series)
    object.__setattr__(s, "coeffs", tuple(coeffs))
    object.__setattr__(s, "order", order)
    return s


def _psi(step, order):
    """psi(q^step) = sum_{k>=0} q^{step k(k+1)/2} truncated at the given order."""
    c = [0] * (order + 1)
    k = 0
    while step * k * (k + 1) // 2 <= order:
        c[step * k * (k + 1) // 2] = 1
        k += 1
    return _ring_series(c, order)


def lambda_series(order):
    """q-expansion of the modular lambda function: 16q - 128q^2 + 704q^3 - ...

    In q = e^{i pi t}, lambda(t) = 16 q Q(t)^8 Q(4t)^16 / Q(2t)^24 with
    Q(at) = prod_{k>=1} (1 - q^{ak}).  As psi(q) = sum_{k>=0} q^{k(k+1)/2}
    = Q(2t)^2 / Q(t), that is 16 q psi(q^2)^8 psi(q)^-8: two powers of
    bases with O(sqrt L) nonzero terms and one product, all on ints,
    since psi has constant term 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    t = order - 1
    unit = _psi(2, t) ** 8 * _psi(1, t) ** -8
    return (unit * 16).shift(1)

