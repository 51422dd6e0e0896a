"""Tests for divisor sums, the alpha weights and the partition weights."""

from fractions import Fraction
from math import gcd

import pytest

from lambdaeq import AlphaContext, Partition, alpha_context, is_odd_prime, k_alpha, sigma1


def brute_sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sigma1_examples():
    assert sigma1(6) == 12
    assert sigma1(1) == 1
    assert sigma1(Fraction(5, 2)) == 0
    assert sigma1(0) == 0
    assert sigma1(-4) == 0


def test_sigma1_brute_force_oracle():
    for n in range(1, 201):
        assert sigma1(n) == brute_sigma1(n)


def test_sigma1_rejects_floats():
    with pytest.raises(TypeError):
        sigma1(6.0)


def test_is_odd_prime():
    assert [p for p in range(50) if is_odd_prime(p)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert not is_odd_prime(2)


def test_context_rejects_bad_primes():
    for bad in (2, 4, 9, 1, 0, -7, 15):
        with pytest.raises(ValueError):
            AlphaContext(bad)


def test_alpha_fixed_values():
    for p in (3, 5, 7, 11, 13):
        ctx = alpha_context(p)
        assert ctx.alpha(1) == 1
        assert ctx.alpha(2) == Fraction(-3, 2)
        assert ctx.alpha(4) == Fraction(-3, 4)
        if p != 3:
            assert ctx.alpha(3) == Fraction(4, 3)
        if p != 5:
            assert ctx.alpha(5) == Fraction(6, 5)
    assert alpha_context(5).alpha(5) == Fraction(11, 5)


def test_alpha_coprime_to_2p_is_normalized_divisor_sum():
    for p in (3, 5, 7, 11, 13):
        ctx = alpha_context(p)
        for k in range(1, 201):
            if gcd(k, 2 * p) == 1:
                assert ctx.alpha(k) == Fraction(sigma1(k), k)


def test_alpha_hand_value_and_multiplicativity_at_10():
    ctx = alpha_context(5)
    # k=10: s(10) - 3 s(5) + s(2) - 3 s(1) = 9/5 - 18/5 + 3/2 - 3
    assert ctx.alpha(10) == Fraction(-33, 10)
    assert ctx.alpha(10) == ctx.alpha(2) * ctx.alpha(5)


def test_alpha_multiplicative():
    for p in (3, 5, 7, 11, 13):
        ctx = alpha_context(p)
        for a in range(2, 101):
            for b in range(2, 200 // a + 1):
                if gcd(a, b) == 1:
                    assert ctx.alpha(a * b) == ctx.alpha(a) * ctx.alpha(b)


def test_partition_weight():
    ctx = alpha_context(5)
    assert ctx.partition_weight(Partition()) == 1
    assert ctx.partition_weight(Partition({3: 2})) == Fraction(8, 9)
    # alpha(1) = 1 so a block of l+m ones weighs 1/(l+m)!
    from math import factorial

    for size in (1, 4, 9):
        assert ctx.partition_weight(Partition({1: size})) == Fraction(1, factorial(size))


def test_alpha_rejects_nonpositive_k():
    ctx = alpha_context(3)
    with pytest.raises(ValueError):
        ctx.alpha(0)


def test_k_alpha_is_k_times_alpha():
    for p in (3, 5, 7, 13, 31):
        ctx = alpha_context(p)
        for k in range(1, 130):
            value = k_alpha(p, k)
            assert isinstance(value, int)
            assert value == k * ctx.alpha(k), (p, k)
    with pytest.raises(ValueError):
        k_alpha(5, 0)
