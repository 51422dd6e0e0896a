"""Partition enumeration tests against the classical counting recurrence."""

import pytest

from lambdaeq import Partition, partitions_of


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


def test_statistics_simple():
    j = Partition({1: 2, 2: 1})
    assert j.weight == 4
    assert j.norm == 3
    assert j.odd_count == 2
    assert j.even_count == 1


def test_statistics_sparse_parts():
    assert Partition({3: 1, 5: 1}).weight == 8
    j = Partition({1: 7})  # the all-ones partition that drives the row-1 moments
    assert (j.norm, j.odd_count, j.even_count) == (7, 7, 0)


def test_statistics_empty():
    j = Partition()
    assert (j.weight, j.norm, j.odd_count, j.even_count) == (0, 0, 0, 0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition({0: 1})
    with pytest.raises(ValueError):
        Partition({2: 0})
    with pytest.raises(ValueError):
        Partition({-3: 2})


def test_partition_equality_and_hash():
    assert Partition({2: 1, 1: 2}) == Partition({1: 2, 2: 1})
    assert hash(Partition({3: 2, 1: 1})) == hash(Partition({1: 1, 3: 2}))
    assert Partition({1: 1}) != Partition({2: 1})


def test_enumerate_zero():
    assert partitions_of(0) == [Partition()]


def test_enumerate_four_in_order():
    expected = [
        Partition({4: 1}),
        Partition({3: 1, 1: 1}),
        Partition({2: 2}),
        Partition({2: 1, 1: 2}),
        Partition({1: 4}),
    ]
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
        assert len(set(parts)) == len(parts)
        for j in parts:
            assert j.weight == n
            assert j.norm == j.odd_count + j.even_count


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        partitions_of(-1)
