"""Integer partitions in multiplicity form and their statistics."""

from collections import Counter

__all__ = ["Partition", "partitions_of"]


class Partition:
    """A partition stored as multiplicities {part k: count j_k}, j_k >= 1."""

    __slots__ = ("_mult",)

    def __init__(self, multiplicities=()):
        pairs = dict(multiplicities)
        for k, j in pairs.items():
            if not (isinstance(k, int) and k >= 1):
                raise ValueError("parts must be positive integers, got %r" % (k,))
            if not (isinstance(j, int) and j >= 1):
                raise ValueError("stored multiplicities must be >= 1, got %r" % (j,))
        object.__setattr__(self, "_mult", dict(sorted(pairs.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def items(self):
        """(part, multiplicity) pairs, parts ascending."""
        return tuple(self._mult.items())

    @property
    def weight(self):
        """Sum of all parts with multiplicity: sum k * j_k."""
        return sum(k * j for k, j in self._mult.items())

    @property
    def norm(self):
        """Total number of parts: sum j_k."""
        return sum(self._mult.values())

    @property
    def odd_count(self):
        """Number of odd parts."""
        return sum(j for k, j in self._mult.items() if k % 2)

    @property
    def even_count(self):
        """Number of even parts."""
        return sum(j for k, j in self._mult.items() if k % 2 == 0)

    def __eq__(self, other):
        return isinstance(other, Partition) and self._mult == other._mult

    def __hash__(self):
        return hash(tuple(self._mult.items()))

    def __repr__(self):
        return "Partition(%r)" % (self._mult,)


def partitions_of(n):
    """All partitions of n, ordered by descending largest part, recursively."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out = []
    parts = []

    def rec(remaining, largest):
        if remaining == 0:
            out.append(Partition(Counter(parts)))
            return
        for k in range(min(largest, remaining), 0, -1):
            parts.append(k)
            rec(remaining - k, k)
            parts.pop()

    rec(n, n)
    return out
