"""Divisor sums and the alpha weights of an odd prime.

The central object is alpha_p(k), a six-term combination of normalized
divisor sums sigma_1(x)/x taken at x = k, k/2, k/4, k/p, k/2p, k/4p
(a term drops out whenever its argument is not a positive integer).
It is exactly the k-th logarithmic expansion coefficient of the
eta-quotient for (lambda(t) * lambda(pt))^{1/8} up to sign, which is
why it weighs the integer partitions in ``bpoly.partition_weight``.
For gcd(k, 2p) = 1 it collapses to sigma_1(k)/k, and it is
multiplicative in k.
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt
from operator import add, index

__all__ = [
    "IntegralityError",
    "alpha",
    "is_odd_prime",
    "k_alpha",
    "k_alpha_prefix",
    "reduced",
    "sigma1",
]


class IntegralityError(ArithmeticError):
    """A value that must be an integer was not (never expected)."""


def sigma1(n):
    """Sum of the divisors of the integer n, and 0 for n < 1."""
    n = index(n)
    if n < 1:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d * d != n:
                total += n // d
    return total


def is_odd_prime(p):
    """Deterministic trial-division primality check for odd p >= 3."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def reduced(p):
    """(m, n) with (p+1)/8 = m/n in lowest terms; n is 1, 2 or 4.

    Everything prime-specific in A_p is fixed by p through (m, n).  p must
    be an odd integer >= 3; like ``k_alpha`` it is not tested for primality.
    """
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    g = gcd(p + 1, 8)
    return (p + 1) // g, 8 // g


def k_alpha(p, k):
    """k * alpha_p(k) as an exact integer, from sigma_1 alone.

    alpha_p(k) = s(k) - 3 s(k/2) + 2 s(k/4) + s(k/p) - 3 s(k/2p) + 2 s(k/4p)
    with s(x) = sigma_1(x)/x, and each term k * s(k/d) = d * sigma_1(k/d)
    is an integer, so
    k alpha_p(k) = sigma_1(k) - 6 sigma_1(k/2) + 8 sigma_1(k/4)
    + p sigma_1(k/p) - 6p sigma_1(k/2p) + 8p sigma_1(k/4p).
    The prime p is taken as given, not tested.
    """
    if k < 1:
        raise ValueError("k_alpha is defined for k >= 1")
    total = 0
    for d, c in ((1, 1), (2, -6), (4, 8), (p, p), (2 * p, -6 * p), (4 * p, 8 * p)):
        if k % d == 0:
            total += c * sigma1(k // d)
    return total


def k_alpha_prefix(p, top):
    """[k_alpha(p, k) for k = 0..top] from one divisor sieve, with index 0 set to 0.

    The sieve adds each d = 1..top to the entries of its multiples, which
    gives sigma_1(0..top) in O(top log top) additions, each pass one
    slice; then every term c sigma_1(k/d) of ``k_alpha`` is added over
    the multiples k of d at once.  ``k_alpha`` stays the route for a
    single k.
    """
    if top < 0:
        raise ValueError("k_alpha_prefix needs top >= 0")
    s = [0] * (top + 1)
    for d in range(1, top + 1):
        s[d::d] = map(add, s[d::d], repeat(d))
    weights = s[:]
    for d, c in ((2, -6), (4, 8), (p, p), (2 * p, -6 * p), (4 * p, 8 * p)):
        # weights[k] += c * sigma_1(k/d) at k = d, 2d, ...
        weights[d::d] = [w + c * x for w, x in zip(weights[d::d], s[1:])]
    return weights


def alpha(p, k):
    """alpha_p(k) = k_alpha(p, k) / k as a Fraction.

    Equals sigma_1(k)/k when gcd(k, 2p) = 1, and is multiplicative in k.
    """
    return Fraction(k_alpha(p, k), k)
