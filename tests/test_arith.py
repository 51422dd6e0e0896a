"""Tests for divisor sums, the alpha weights and the partition weights."""

from fractions import Fraction
from math import gcd

import pytest

from lambdaeq import (
    BTable,
    PrimeParams,
    alpha,
    is_odd_prime,
    k_alpha,
    k_alpha_prefix,
    partition_weight,
    reduced,
    sigma1,
)


def brute_sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def six_term_alpha(p, k):
    """alpha_p(k) straight from its definition, sum of c * s(k/d) with s(x) = sigma_1(x)/x."""
    total = Fraction(0)
    for d, c in ((1, 1), (2, -3), (4, 2), (p, 1), (2 * p, -3), (4 * p, 2)):
        if k % d == 0:
            total += c * Fraction(brute_sigma1(k // d), k // d)
    return total


def test_sigma1_examples():
    assert sigma1(6) == 12
    assert sigma1(1) == 1
    assert sigma1(0) == 0
    assert sigma1(-4) == 0


def test_sigma1_brute_force_oracle():
    for n in range(1, 201):
        assert sigma1(n) == brute_sigma1(n)


def test_sigma1_rejects_floats():
    with pytest.raises(TypeError):
        sigma1(6.0)
    with pytest.raises(TypeError):
        sigma1(Fraction(5, 2))


def test_is_odd_prime():
    assert [p for p in range(50) if is_odd_prime(p)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert not is_odd_prime(2)


def test_reduced_is_the_one_reduction_of_p():
    for p in filter(is_odd_prime, range(1000)):
        m, n = reduced(p)
        assert Fraction(p + 1, 8) == Fraction(m, n)
        assert gcd(m, n) == 1 and n in (1, 2, 4)
        params = PrimeParams(p)
        assert (params.m, params.n) == (m, n)
        assert BTable(p).n == n
    for p in range(3, 10 ** 4, 2):
        assert reduced(p) == Fraction(p + 1, 8).as_integer_ratio()
    assert reduced(9) == (5, 4)  # like k_alpha, it does not test primality
    for bad in (2, 4, 8, 1000, 0, 1, -2, -3, 7.0, "7"):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            reduced(bad)


def test_alpha_fixed_values():
    for p in (3, 5, 7, 11, 13):
        assert alpha(p, 1) == 1
        assert alpha(p, 2) == Fraction(-3, 2)
        assert alpha(p, 4) == Fraction(-3, 4)
        if p != 3:
            assert alpha(p, 3) == Fraction(4, 3)
        if p != 5:
            assert alpha(p, 5) == Fraction(6, 5)
    assert alpha(5, 5) == Fraction(11, 5)


def test_alpha_coprime_to_2p_is_normalized_divisor_sum():
    for p in (3, 5, 7, 11, 13):
        for k in range(1, 201):
            if gcd(k, 2 * p) == 1:
                assert alpha(p, k) == Fraction(sigma1(k), k)


def test_alpha_hand_value_and_multiplicativity_at_10():
    # k=10: s(10) - 3 s(5) + s(2) - 3 s(1) = 9/5 - 18/5 + 3/2 - 3
    assert alpha(5, 10) == Fraction(-33, 10)
    assert alpha(5, 10) == alpha(5, 2) * alpha(5, 5)


def test_alpha_multiplicative():
    for p in (3, 5, 7, 11, 13):
        for a in range(2, 101):
            for b in range(2, 200 // a + 1):
                if gcd(a, b) == 1:
                    assert alpha(p, a * b) == alpha(p, a) * alpha(p, b)


def test_partition_weight():
    assert partition_weight(5, {}) == 1
    assert partition_weight(5, {3: 2}) == Fraction(8, 9)
    # alpha(1) = 1 so a block of l+m ones weighs 1/(l+m)!
    from math import factorial

    for size in (1, 4, 9):
        assert partition_weight(5, {1: size}) == Fraction(1, factorial(size))


def test_alpha_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        alpha(3, 0)


def test_k_alpha_is_k_times_alpha():
    # pinned against the test-local six-term definition, not against alpha,
    # which is k_alpha / k
    for p in (3, 5, 7, 13, 31):
        for k in range(1, 130):
            value = k_alpha(p, k)
            assert isinstance(value, int)
            assert value == k * six_term_alpha(p, k), (p, k)
            assert alpha(p, k) == six_term_alpha(p, k), (p, k)
    with pytest.raises(ValueError):
        k_alpha(5, 0)


# every class n = 1, 2, 4
PREFIX_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]
assert {reduced(p)[1] for p in PREFIX_PRIMES} == {1, 2, 4}


@pytest.mark.parametrize("p", PREFIX_PRIMES)
def test_k_alpha_prefix_is_the_per_k_route(p):
    # k up to 8p + 8 takes in multiples of p, 2p and 4p
    top = 8 * p + 8
    prefix = k_alpha_prefix(p, top)
    assert prefix == [0] + [k_alpha(p, k) for k in range(1, top + 1)]
    assert all(type(w) is int for w in prefix)
    assert k_alpha_prefix(p, 0) == [0]
    with pytest.raises(ValueError):
        k_alpha_prefix(p, -1)


def test_k_alpha_prefix_is_positive_at_odd_k():
    # k alpha_p(k) = sigma_1(k) + p sigma_1(k/p) at odd k: the sign lemma that
    # fixes the slot width of the packed power columns (bpoly.BTable.powers)
    for p in filter(is_odd_prime, range(3, 1000)):
        prefix = k_alpha_prefix(p, 4 * p + 4)
        assert all(w > 0 for w in prefix[1::2]), p
