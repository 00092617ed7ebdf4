"""Permutation helpers and the coset type of a pattern, for the tests.

The library never computes a pattern's coset type: it lists patterns by
labelling typed matchings (wick.class_patterns). coset_type here reads the
type off a pattern itself, so the tests can check those listings against
it. compose, inverse and cycle_type serve the permutation and
group-integral checks.
"""

from cemoments.partitions import matching_type


def compose(p, q):
    """(p compose q)(x) = p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def cycle_type(images):
    """Cycle type of a permutation given as a tuple of 0-based images."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation")
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        cur = s
        while not seen[cur]:
            seen[cur] = True
            cur = images[cur]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def coset_type(pattern):
    """Partition of n that fixes j(d) for a delta pattern, for either beta.

    The type of two matchings of the z-slots: each external factor's slot
    pair (2f, 2f+1), and the zbar factors' slot pairs pulled back through
    the pattern. A cycle's half-length is the number of z-side factors it
    passes through.
    """
    inv = inverse(pattern)
    return matching_type([s ^ 1 for s in range(len(pattern))],
                         [inv[w ^ 1] for w in pattern])
