"""Partition enumeration, as multiplicity dicts, against the classical counting recurrences."""

import pytest

from lambdaeq import partitions_of


def partition_counts(limit):
    """p(0..limit) via the pentagonal-number recurrence (independent oracle)."""
    p = [1]
    for k in range(1, limit + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > k and g2 > k:
                break
            sign = 1 if j % 2 else -1
            if g1 <= k:
                total += sign * p[k - g1]
            if g2 <= k:
                total += sign * p[k - g2]
            j += 1
        p.append(total)
    return p


def test_enumerate_zero():
    assert partitions_of(0) == [{}]


def test_enumerate_four_in_order():
    expected = [{4: 1}, {3: 1, 1: 1}, {2: 2}, {2: 1, 1: 2}, {1: 4}]
    assert partitions_of(4) == expected


def test_enumerate_counts_match_recurrence():
    counts = partition_counts(40)
    for n in range(41):
        assert len(partitions_of(n)) == counts[n]
    assert counts[4] == 5
    assert counts[20] == 627


def test_enumerate_no_duplicates_and_correct_weight():
    for n in (7, 13, 20):
        parts = partitions_of(n)
        assert len({frozenset(j.items()) for j in parts}) == len(parts)
        for j in parts:
            assert sum(k * count for k, count in j.items()) == n
            assert all(k >= 1 and count >= 1 for k, count in j.items())


def test_euler_odd_parts_equal_distinct_parts():
    # Euler: as many partitions of n into odd parts as into distinct parts
    for n in range(31):
        parts = partitions_of(n)
        odd = [j for j in parts if all(k % 2 for k in j)]
        distinct = [j for j in parts if all(count == 1 for count in j.values())]
        assert len(odd) == len(distinct), n
    assert len(odd) == 296  # q(30), OEIS A000009


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        partitions_of(-1)
