"""Series ring tests, including an independent theta-quotient oracle for lambda.

The library expands lambda as 16 q psi(q^2)^8 / psi(q)^8, and
``oracles.eta_lambda_series`` through Euler products (the eta route).  The
oracle here goes through the theta constants instead:

    lambda = theta_2^4 / theta_3^4,
    theta_2 = 2 q^{1/4} sum_{k>=0} q^{k(k+1)},   theta_3 = 1 + 2 sum_{k>=1} q^{k^2},

so lambda = 16 q (sum q^{k(k+1)})^4 / (1 + 2 sum q^{k^2})^4, computed with
plain Fraction lists and none of the Series machinery.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaeq import PrimeParams, Series, lambda_series, xy_normalized_lemma
from lambdaeq import qseries
from lambdaeq.qseries import (
    _KRONECKER_CUBE,
    _KRONECKER_MIN,
    _kronecker,
    _slot_bytes,
    _truncated_product,
)
from oracles import (
    binary_power,
    eta_lambda_series,
    euler_product,
    one_minus_lambda_series,
    xy_normalized_direct,
)


# --- independent polynomial helpers (oracle-side, Fraction lists) ----------


def poly_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_inv(a, order):
    assert a[0] != 0
    inv = [Fraction(1) / a[0]]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            acc += a[i] * inv[k - i]
        inv.append(-acc / a[0])
    return inv


def theta_lambda(order):
    """lambda via theta constants, as a Fraction list of length order+1."""
    core = [Fraction(0)] * (order + 1)
    k = 0
    while k * (k + 1) <= order:
        core[k * (k + 1)] += 1
        k += 1
    theta3 = [Fraction(0)] * (order + 1)
    theta3[0] = 1
    k = 1
    while k * k <= order:
        theta3[k * k] += 2
        k += 1
    num = [Fraction(16)]
    for _ in range(4):
        num = poly_mul(num, core, order)
    den = [Fraction(1)]
    for _ in range(4):
        den = poly_mul(den, theta3, order)
    lam = poly_mul(num, poly_inv(den, order), order)
    return [Fraction(0)] + lam[:order]  # shift by the leading q


# --- basic ring operations ---------------------------------------------------


def test_geometric_inverse():
    s = Series([1, -1], 3) ** -1
    assert s.coeffs == (1, 1, 1, 1)


def test_mul_small():
    prod = Series([1, -1], 2) * Series([1, 1], 2)
    assert prod.coeffs[: 3] == (1, 0, -1)


def test_add_sub_scalars():
    s = Series([0, 2, 3], 2)
    assert (1 - s).coeffs == (1, -2, -3)
    assert (s + 1).coeffs == (1, 2, 3)
    assert (s - s).is_zero()


def test_only_int_scalars_enter_the_ring():
    s = Series([1, 2], 1)
    with pytest.raises(TypeError):
        s * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * s
    with pytest.raises(TypeError):
        s + 0.5
    # a scalar result goes through the checked constructor, which sees the floats
    with pytest.raises(TypeError, match="coefficients must be ints"):
        s * _HalvingInt(2)
    assert (2 * s).coeffs == (2, 4) and (s * -3).coeffs == (-3, -6)


class _HalvingInt(int):
    """An int whose products with ints are floats."""

    def __mul__(self, other):
        return int(self) * other / 2

    __rmul__ = __mul__


def test_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        Series([0, 1], 3) ** -1


def test_coefficients_beyond_order_are_inaccessible():
    s = Series([1, 2], 1)
    with pytest.raises(IndexError):
        s[2]


def test_pow_compatibility_on_random_unit_series():
    rng = random.Random(42)
    for _ in range(6):
        order = rng.randint(5, 20)
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(order)]
        s = Series(coeffs, order)
        for a, b in ((1, 2), (2, 3), (0, 4)):
            lhs = s ** (a + b)
            rhs = s ** a * s ** b
            common = min(lhs.order, rhs.order)
            assert lhs.coeffs[: common + 1] == rhs.coeffs[: common + 1]


def test_negative_power_is_inverse_power():
    s = Series([1, 3, -2, 1], 3)
    assert (s ** -2).coeffs == ((s ** -1) ** 2).coeffs


def test_shift_and_qderiv():
    s = Series([3, 4], 1).shift(2)
    assert s.order == 3 and s.coeffs == (0, 0, 3, 4)
    d = Series([9, 4, 5], 2).qderiv()
    assert d.coeffs == (0, 4, 10)


def test_valuation_aware_product_order():
    # two series with valuation 1 and order 5 multiply to a trusted order 6
    a = Series([0, 1, 1, 1, 1, 1], 5)
    assert (a * a).order == 6
    assert a.valuation() == 1
    assert Series([0, 0, 0], 2).valuation() == 3


# --- the product kernel against a schoolbook product --------------------------


def schoolbook_product(a, b):
    """(coefficients, order) of a*b from every known pair a_i b_j.

    An unknown a_i (i > a's order) only meets b_j with j < b's valuation,
    which are zero, so the product is known through
    min(a's order + b's valuation, b's order + a's valuation).
    """
    def valuation(s):
        return next((k for k, c in enumerate(s.coeffs) if c), s.order + 1)

    order = min(a.order + valuation(b), b.order + valuation(a))
    out = [0] * (order + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            if i + j <= order:
                out[i + j] += ai * bj
    return tuple(out), order


int_series = st.builds(
    lambda zeros, body: Series([0] * zeros + body),
    st.integers(0, 3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(a=int_series, b=int_series)
def test_product_matches_schoolbook(a, b):
    # a * a (one object on both sides) runs the kernel's square path
    for x, y in ((a, b), (a, a)):
        coeffs, order = schoolbook_product(x, y)
        prod = x * y
        assert prod.order == order
        assert prod.coeffs == coeffs
        assert all(type(c) is int for c in prod.coeffs)
    square, general = a * a, a * Series(a.coeffs, a.order)
    assert (square.coeffs, square.order) == (general.coeffs, general.order)


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(-99, 99), max_size=16))
def test_square_kernel_matches_the_product_kernel(c):
    # one object on both sides is a square; an equal copy is a product
    for top in range(-1, len(c)):
        assert _truncated_product(c, c, top) == _truncated_product(c, list(c), top)


# --- the int (Kronecker) route of the kernel, against the schoolbook loop ---
# _truncated_product(x, x, top), one object on both sides, is a square

# counts top + 1 either side of _KRONECKER_MIN, and two long ones
EDGE_COUNTS = [_KRONECKER_MIN - 1, _KRONECKER_MIN, 199, 200]


def pairwise_product(a, b, top):
    """Coefficients 0..top of a*b, one a_i b_j at a time."""
    out = [0] * (top + 1)
    for i in range(top + 1):
        for j in range(top + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def loop_route(monkeypatch, kernel, *args):
    """The kernel's result with the int route closed, so on the schoolbook loop."""
    with monkeypatch.context() as patch:
        patch.setattr(qseries, "_KRONECKER_MIN", 10**9)
        return kernel(*args)


def int_route_calls(monkeypatch):
    """Patch ``_kronecker`` to record each call as (count, size, b is a);
    returns the record.  b is a means one packed operand: a square."""
    calls = []

    def spy(a, b, size):
        calls.append((len(a), size, b is a))
        return _kronecker(a, b, size)

    monkeypatch.setattr(qseries, "_kronecker", spy)
    return calls


def random_coeffs(rng, count, bits, zeros=0.0):
    return [0 if rng.random() < zeros else rng.randint(-(2**bits), 2**bits) for _ in range(count)]


def operands_at_slot(rng, count, size):
    """Operands a (20-bit) and b of count + 4 coefficients, signs and zeros
    mixed, whose product to q^(count-1) has exactly size-byte slots, and c
    whose square has: each bound lies in [2^(8 size-2), 2^(8 size-1))."""
    top_a = 2**20 - 1
    top_b = -(-(1 << (8 * size - 2)) // (top_a * count))
    top_c = math.isqrt((1 << (8 * size - 2)) // count) + 1
    a, b, c = (
        [rng.choice((-1, 0, 1)) * rng.randint(0, m) for _ in range(count + 4)]
        for m in (top_a, top_b, top_c)
    )
    a[3], b[count - 1], c[5] = -top_a, top_b, -top_c
    assert _slot_bytes(a[:count], b[:count]) == size == _slot_bytes(c[:count], c[:count])
    return a, b, c


@pytest.mark.parametrize("count", EDGE_COUNTS)
@pytest.mark.parametrize(
    "bits_a, bits_b, zeros",
    [(8, 8, 0.0), (30, 30, 0.5), (1000, 1100, 0.1), (20, 800, 0.0), (800, 20, 0.3)],
)
def test_int_route_matches_the_schoolbook_loop(monkeypatch, count, bits_a, bits_b, zeros):
    rng = random.Random(count * 7919 + bits_a + bits_b)
    top = count - 1
    # longer than top + 1: the tail must not reach the result
    a = random_coeffs(rng, count + 5, bits_a, zeros)
    b = random_coeffs(rng, count + 3, bits_b, zeros)
    product = loop_route(monkeypatch, _truncated_product, a, b, top)
    square = loop_route(monkeypatch, _truncated_product, a, a, top)
    assert product == pairwise_product(a, b, top)
    assert square == pairwise_product(a, a, top)
    # the kernels on whichever route, and the int route itself at any width
    assert _truncated_product(a, b, top) == product
    assert _truncated_product(a, a, top) == square
    a, b = a[:count], b[:count]
    assert _kronecker(a, b, _slot_bytes(a, b)) == product
    assert _kronecker(a, a, _slot_bytes(a, a)) == square
    assert all(type(c) is int for c in _kronecker(a, b, _slot_bytes(a, b)))


# (count, slot bytes, route): the count edge, and the width edge
# size^3 < _KRONECKER_CUBE count at 200 (58^3 < 204800 <= 59^3) and 1000
ROUTE_EDGES = [
    (_KRONECKER_MIN - 1, 4, "loop"),
    (_KRONECKER_MIN, 4, "int"),
    (200, 58, "int"),
    (200, 59, "loop"),
    (1000, 100, "int"),
    (1000, 101, "loop"),
]


@pytest.mark.parametrize("count, size, route", ROUTE_EDGES)
def test_kernels_take_the_int_route_below_the_width_edge(monkeypatch, count, size, route):
    assert (count >= _KRONECKER_MIN and size**3 < _KRONECKER_CUBE * count) == (route == "int")
    a, b, c = operands_at_slot(random.Random(count + size), count, size)
    top = count - 1
    product = loop_route(monkeypatch, _truncated_product, a, b, top)
    square = loop_route(monkeypatch, _truncated_product, c, c, top)
    if count <= 200:
        assert product == pairwise_product(a, b, top)
        assert square == pairwise_product(c, c, top)
    calls = int_route_calls(monkeypatch)
    assert _truncated_product(a, b, top) == product
    assert _truncated_product(c, c, top) == square
    assert calls == ([(count, size, False), (count, size, True)] if route == "int" else [])


@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_kernels_on_zero_and_tuple_operands(count):
    top = count - 1
    zero = [0] * count
    ones = tuple([1, -1] * count)  # a tuple, as Series.coeffs, longer than top + 1
    assert _truncated_product(zero, ones, top) == zero
    assert _truncated_product(ones, zero, top) == zero
    assert _truncated_product(zero, list(zero), top) == zero
    assert _truncated_product(zero, zero, top) == zero
    assert _kronecker(zero, list(ones[:count]), 1) == _kronecker(zero, zero, 1) == zero
    assert _truncated_product(ones, list(ones), top) == pairwise_product(ones, ones, top)
    assert _truncated_product(ones, ones, top) == pairwise_product(ones, ones, top)
    assert _truncated_product(ones, list(ones), -1) == _truncated_product(ones, ones, -1) == []


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(_KRONECKER_MIN - 2, 64) | st.integers(197, 200),
    bits=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    seed=st.integers(0, 2**32),
)
def test_int_route_matches_the_pairwise_product(count, bits, seed):
    rng = random.Random(seed)
    a = random_coeffs(rng, count, bits[0], zeros=0.3)
    b = random_coeffs(rng, count, bits[1], zeros=0.3)
    product, square = pairwise_product(a, b, count - 1), pairwise_product(b, b, count - 1)
    assert _truncated_product(a, b, count - 1) == product
    assert _truncated_product(b, b, count - 1) == square
    assert _kronecker(a, b, _slot_bytes(a, b)) == product
    assert _kronecker(b, b, _slot_bytes(b, b)) == square


@pytest.mark.parametrize("count", [_KRONECKER_MIN, 199])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [20, 1000])
def test_slot_width_is_what_makes_the_int_route_exact(count, sign, bits):
    # every coefficient at max magnitude with one sign: c_(count-1) reaches
    # the bound max|a| max|b| count exactly
    a = [sign * (2**bits - 1)] * count
    size = _slot_bytes(a, a)
    exact = pairwise_product(a, a, count - 1)
    assert exact[-1] == (2**bits - 1) ** 2 * count
    assert _kronecker(a, a, size) == exact
    assert _kronecker(a, list(a), size) == exact
    assert _kronecker(a, list(a), size - 1) != exact


@pytest.mark.parametrize("count", [4, _KRONECKER_MIN, 199, 205])
def test_kernels_refuse_operands_shorter_than_top_plus_one(count):
    top = count - 1
    full, short = list(range(1, count + 1)), list(range(5, count + 4))
    with pytest.raises(ValueError):
        _truncated_product(full, short, top)
    with pytest.raises(ValueError):
        _truncated_product(short, full, top)
    with pytest.raises(ValueError):
        _truncated_product(short, short, top)
    # padded with a zero, the short operand gives the true low coefficients
    padded = short + [0]
    assert _truncated_product(full, padded, top) == pairwise_product(full, padded, top)


def test_series_products_on_the_int_route(monkeypatch):
    rng = random.Random(7)
    a = Series([0, 0] + random_coeffs(rng, 60, 40))
    b = Series([0] + random_coeffs(rng, 70, 90), 50)
    calls = int_route_calls(monkeypatch)
    # an equal copy of a is a distinct object, so a * copy is a product
    for x, y in ((a, b), (a, a), (b, b), (a, Series(a.coeffs, a.order))):
        coeffs, order = schoolbook_product(x, y)
        prod = x * y
        assert (prod.coeffs, prod.order) == (coeffs, order)
    # a square packs one operand: Series.__mul__ slices its coefficients once
    assert [is_square for _, _, is_square in calls] == [False, True, True, False]


class CountingInt(int):
    """An int that counts the multiplications it takes part in."""

    calls = 0

    def __mul__(self, other):
        CountingInt.calls += 1
        return int(self) * int(other)

    __rmul__ = __mul__


@pytest.mark.parametrize("count", [1, 2, 9, _KRONECKER_MIN - 1, 40, 101])
def test_square_on_the_loop_takes_about_half_the_multiplications(monkeypatch, count):
    rng = random.Random(count)
    a = [CountingInt(x) for x in random_coeffs(rng, count, 30)]
    top = count - 1
    counts = {}
    for name, b in (("product", list(a)), ("square", a)):
        CountingInt.calls = 0
        result = loop_route(monkeypatch, _truncated_product, a, b, top)
        counts[name] = CountingInt.calls
        assert result == pairwise_product(a, a, top)
    assert counts["product"] == count * (count + 1) // 2
    assert counts["square"] <= count * count // 4 + count


def test_series_square_passes_one_operand_to_the_kernel(monkeypatch):
    # on the loop route too: below _KRONECKER_MIN, and with a valuation to strip
    seen = []

    def spy(a, b, top):
        seen.append(a is b)
        return _truncated_product(a, b, top)

    monkeypatch.setattr(qseries, "_truncated_product", spy)
    x, y = Series([0, 0, 3, -1, 4, 1]), Series([0, 2, 5, -7])
    x * x, x * y, y * y, x * Series(x.coeffs, x.order), x * 3
    assert seen == [True, False, True, False]


@settings(max_examples=60, deadline=None)
@given(
    c0=st.sampled_from((1, -1)),
    tail=st.lists(st.integers(-9, 9), min_size=0, max_size=15),
)
def test_unit_inverse_stays_integral(c0, tail):
    s = Series([c0] + tail)
    inv = s ** -1
    assert all(type(c) is int for c in inv.coeffs)
    assert (s * inv).coeffs == (1,) + (0,) * s.order


def test_non_unit_inverse_is_refused():
    # Series is an integer ring: 1/(2 + q) would need rationals
    with pytest.raises(ValueError, match="constant term of \\+1 or -1"):
        Series([2, 1], 10) ** -1


# --- powers by Miller's recurrence against binary powering -------------------


def _outcome(fn):
    """(coefficients, order) of fn(), or (exception type, message)."""
    try:
        s = fn()
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)
    return s.coeffs, s.order


def test_power_matches_binary_powering():
    rng = random.Random(19)
    for v in range(4):
        for c in (1, -1, 2, -2, 3):
            for e in range(-3, 8):
                for _ in range(3):
                    tail = [rng.randint(-5, 5) for _ in range(rng.randint(0, 12))]
                    s = Series([0] * v + [c] + tail)
                    got = _outcome(lambda: s ** e)
                    assert got == _outcome(lambda: binary_power(s, e)), (v, c, e, s)
                    if e < 0 and (v or c not in (1, -1)):
                        # a negative power needs a unit constant term
                        assert got[0] in (ZeroDivisionError, ValueError)
                    else:
                        assert got[1] == (s.order + (e - 1) * v if e > 0 else s.order)
                        assert all(type(x) is int for x in got[0])


def test_zero_series_and_zeroth_powers():
    for order in range(5):
        zero = Series([0], order)
        for e in range(8):
            assert _outcome(lambda: zero ** e) == _outcome(lambda: binary_power(zero, e))
        assert (Series([0, 0, 5, 1], 3) ** 0).coeffs == (1, 0, 0, 0)


def test_jacobi_cube_of_the_euler_product():
    # Q(t)^3 = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}
    order = 300
    expected = [0] * (order + 1)
    j = 0
    while j * (j + 1) // 2 <= order:
        expected[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    cube = euler_product(1, order) ** 3
    assert cube.order == order and list(cube.coeffs) == expected


def test_inverse_euler_product_counts_partitions():
    order = 300
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for total in range(part, order + 1):
            counts[total] += counts[total - part]
    inverse = euler_product(1, order) ** -1
    assert inverse.order == order and list(inverse.coeffs) == counts


def test_non_integral_base_raises():
    # (1 + q/2)^2 = 1 + q + q^2/4 would need rationals: the base is refused
    with pytest.raises(TypeError, match="coefficients must be ints"):
        Series([1, Fraction(1, 2)], 2) ** 2


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), 0.5, True])
def test_only_int_coefficients_enter_the_ring(coeff):
    with pytest.raises(TypeError, match="coefficients must be ints"):
        Series([coeff])
    # a product of such a series used to return Fraction coefficients quietly
    with pytest.raises(TypeError, match="coefficients must be ints"):
        Series([1, coeff], 2) * Series([1], 2)


def _ring_results(s):
    """Every kind of result the ring builds from the series s."""
    return [
        s + 3, 3 + s, s + s, -s, s - 1, 1 - s, s - s,
        s * 5, 5 * s, s * s, s * Series([0, 0, 2, 1], 3),
        s ** 0, s ** 1, s ** 3, s ** -1,
        s.shift(0), s.shift(2), s.qderiv(), (s - s) ** 2,
    ]


@pytest.mark.parametrize(
    "s", [Series([1, -2, 0, 7], 3), Series([-1, 5], 6), Series([1], 0)]
)
def test_ring_results_hold_exactly_order_plus_one_plain_ints(s):
    for result in _ring_results(s):
        assert type(result) is Series
        assert type(result.coeffs) is tuple
        assert len(result.coeffs) == result.order + 1
        assert all(type(c) is int for c in result.coeffs)


@pytest.mark.parametrize("scalar", [True, False])
def test_bool_scalars_give_plain_int_coefficients(scalar):
    s = Series([1, 2, 3], 2)
    for result in (s * scalar, scalar * s, s + scalar, scalar + s, s - scalar):
        assert all(type(c) is int for c in result.coeffs)
        assert len(result.coeffs) == 3


def test_to_text():
    assert Series([0, 16, -128], 2).to_text() == "16*q - 128*q^2 + O(q^3)"
    assert Series([0, 0], 1).to_text() == "0 + O(q^2)"
    assert Series([-3, 0, 1], 2).to_text() == "-3 + q^2 + O(q^3)"


# --- Euler products and the lambda expansions --------------------------------


def pentagonal_coeffs(order):
    c = [0] * (order + 1)
    c[0] = 1
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > order and g2 > order:
            break
        sign = 1 if j % 2 == 0 else -1
        if g1 <= order:
            c[g1] = sign
        if g2 <= order:
            c[g2] = sign
        j += 1
    return c


def test_euler_product_examples():
    assert euler_product(1, 5).coeffs == (1, -1, -1, 0, 0, 1)
    assert euler_product(2, 3).coeffs == (1, 0, -1, 0)
    assert euler_product(1, 0).coeffs == (1,)


def test_euler_product_pentagonal_support():
    assert list(euler_product(1, 60).coeffs) == pentagonal_coeffs(60)


def test_lambda_leading_coefficients():
    lam = lambda_series(3)
    assert lam[0] == 0
    assert lam[1] == 16
    assert lam[2] == -128
    assert lam[3] == 704


def test_lambda_matches_theta_quotient_oracle():
    order = 24
    lam = lambda_series(order)
    assert [Fraction(int(c)) for c in lam.coeffs] == theta_lambda(order)


@pytest.mark.parametrize("order", list(range(1, 61)) + [300])
def test_lambda_matches_the_eta_quotient(order):
    lam, eta = lambda_series(order), eta_lambda_series(order)
    assert lam.coeffs == eta.coeffs
    assert lam.order == eta.order == order


def test_one_minus_lambda():
    s = one_minus_lambda_series(6)
    assert s[0] == 1
    assert s[1] == -16


def test_integral_expansions_stay_on_ints():
    # the eta quotients have unit constant terms, so no Fraction ever enters
    for series in (
        lambda_series(50),
        one_minus_lambda_series(50),
        xy_normalized_direct(PrimeParams(13), 1, 2, 30),
    ):
        assert all(type(c) is int for c in series.coeffs)


def test_lambda_plus_complement_is_one():
    for order in range(1, 61):
        total = lambda_series(order) + one_minus_lambda_series(order)
        assert total[0] == 1
        assert all(c == 0 for c in total.coeffs[1:])


# --- normalized X^i Y^h expansions -------------------------------------------


def test_xy_trivial_cases():
    params = PrimeParams(5)
    assert xy_normalized_direct(params, 0, 0, 6).coeffs == (1, 0, 0, 0, 0, 0, 0)
    assert xy_normalized_direct(params, 1, 0, 6)[0] == 1
    assert xy_normalized_lemma(params, 1, 0, 6)[0] == 1


def test_xy_first_coefficient_is_minus_nu():
    params = PrimeParams(11)  # n = 2
    series = xy_normalized_lemma(params, 1, 1, 4)
    assert series[1] == -6  # -n (i + 2h) = -2 * 3


def test_xy_routes_agree_small_primes():
    for p in (3, 5, 7):
        params = PrimeParams(p)
        order = 2 * params.m + 10
        for i in range(params.m + 1):
            for h in range(params.m + 1 - i):
                direct = xy_normalized_direct(params, i, h, order)
                partition = xy_normalized_lemma(params, i, h, order)
                assert direct.coeffs[: order + 1] == partition.coeffs[: order + 1], (p, i, h)


def test_xy_route_agreement_at_eleven_sampled():
    params = PrimeParams(11)
    direct = xy_normalized_direct(params, 2, 0, 10)
    partition = xy_normalized_lemma(params, 2, 0, 10)
    assert direct.coeffs[:11] == partition.coeffs[:11]
