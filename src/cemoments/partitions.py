"""Integer partitions, cycle-type permutations and perfect matchings.

Partitions are plain tuples of ints, weakly decreasing. Vertex-type
partitions (the ones fed to the diagram engine) have no part equal to 1;
external cycle types for trace observables allow parts of 1.
Permutations are tuples of 0-based images; a perfect matching is an
involution without fixed points, in the same form.

Matchings live on the 2n slots of n matrix factors, factor f owning slots
2f and 2f+1. Their type against the factor pairs {2f, 2f+1} is a partition
of n (matching_type). typed_matchings lists every matching with its type;
cycle_matching gives one of type lam, the ties {2f+1, 2 pi(f)} of the
canonical permutation pi of that cycle type. The diagram engine reads a
delta pattern as such a matching with its pairs labelled.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from math import factorial


def normalize_partition(parts, allow_ones=True):
    """Sort descending and validate. Returns a tuple."""
    # index(), not int(): a part 2.9 is an error, not a silent 2
    out = tuple(sorted(map(operator.index, parts), reverse=True))
    if out and out[-1] < (1 if allow_ones else 2):
        for p in out:  # the largest bad part names the error
            if p < 1:
                raise ValueError(f"partition parts must be >= 1, got {p}")
            if p == 1 and not allow_ones:
                raise ValueError("partition must have no part equal to 1")
    return out


def partitions_of(total, min_part=1):
    """All partitions of `total` with parts >= min_part, weakly decreasing."""
    if total < 0:
        raise ValueError("total must be >= 0")

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), min_part - 1, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(total, total)


def rank(lam):
    """|lam| - length(lam)."""
    return sum(lam) - len(lam)


def partitions_no_ones_up_to_rank(max_rank):
    """Every partition with all parts >= 2 and rank <= max_rank.

    Includes the empty partition. Finite: parts >= 2 force each part to add
    at least 1 to the rank, so length <= max_rank and size <= 2*max_rank.
    Ordered by (rank, length, parts) for deterministic iteration. Each call
    returns a new list; the partitions are found once per max_rank.
    """
    return list(_strata(operator.index(max_rank)))


@functools.cache
def _strata(max_rank):
    if max_rank < 0:
        raise ValueError("max_rank must be >= 0")
    found = [p for total in range(0, 2 * max_rank + 1)
             for p in partitions_of(total, min_part=2) if rank(p) <= max_rank]
    return tuple(sorted(found, key=lambda p: (rank(p), len(p), p)))


@functools.cache
def z_weight(lam):
    """Product of the parts times the factorials of the multiplicities."""
    prod = 1
    for p, m in Counter(lam).items():
        prod *= p ** m * factorial(m)
    return prod


def permutation_of_type(lam, n):
    """Canonical permutation of {0..n-1} with cycle type lam.

    Consecutive blocks, each part one cycle: the first part maps
    0 -> 1 -> ... -> lam[0]-1 -> 0, and so on.
    """
    lam = normalize_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"partition of size {sum(lam)} cannot act on {n} points")
    images = [0] * n
    start = 0
    for part in lam:
        for t in range(part):
            images[start + t] = start + (t + 1) % part
        start += part
    return tuple(images)


@functools.cache
def cycle_matching(lam, n):
    """Matching of 2n slots tying slot 2f+1 to slot 2 pi(f).

    pi is permutation_of_type(lam, n), so the type of the matching against
    the factor pairs is lam.
    """
    ties = [0] * (2 * n)
    for f, g in enumerate(permutation_of_type(lam, n)):
        ties[2 * f + 1] = 2 * g
        ties[2 * g] = 2 * f + 1
    return tuple(ties)


def perfect_matchings(size):
    """Every perfect matching of range(size), as an involution tuple."""
    def gen(free):
        if not free:
            yield {}
        for b in free[1:]:
            for rest in gen([x for x in free[1:] if x != b]):
                yield {free[0]: b, b: free[0], **rest}

    return [tuple(m[s] for s in range(size)) for m in gen(range(size))]


def matching_type(p, q):
    """Half-lengths of the cycles of the union of two perfect matchings.

    A cycle through 2k points has half-length k (Macdonald VII.2).
    """
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        length, s = 0, start
        while not seen[s]:
            seen[s] = seen[p[s]] = True
            length += 1
            s = q[p[s]]
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@functools.cache
def typed_matchings(n):
    """Each perfect matching of 2n slots with its type against {2f, 2f+1}."""
    pairs = [s ^ 1 for s in range(2 * n)]
    return [(m, matching_type(pairs, m)) for m in perfect_matchings(2 * n)]
