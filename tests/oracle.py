"""Reference implementations for the tests.

The library never computes a pattern's coset type: it lists patterns by
labelling typed matchings (wick.class_patterns). coset_type here reads the
type off a pattern itself, so the tests can check those listings against
it. compose, inverse and cycle_type serve the permutation and
group-integral checks.

The library keeps the sorted order of each set of types' patterns once per
process; expand_classes here is the earlier walk that rebuilds and sorts
that order on every call, the reference for wick.expand_classes.

The library's Wick kernel never numbers a slot: it runs on classes of
paths and chains. trace_ties wires the slot graph slot by slot, and
slot_enumerate is the earlier slot-number kernel over those ties, so the
tests can check the class kernel and walk every pairing against them.
"""

import itertools
import math

from cemoments.partitions import matching_type
from cemoments.wick import class_patterns


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


def expand_classes(beta, n, classes, convert=None):
    """Every pattern with its class's value, in sorted pattern order.

    classes holds (type, value) pairs; convert, when given, maps each value
    once per class.
    """
    values = {}
    for rho, value in classes:
        value = convert(value) if convert else value
        values.update(dict.fromkeys(class_patterns(beta, n, rho), value))
    return {p: values[p] for p in sorted(values)}


def trace_ties(graph):
    """The trace identifications of a slot graph, from zbar slot to z slot.

    ties[s] is the z-slot identified with zbar-slot s, or -1 when s is
    external. Factors 0..n-1 are external; each part q of vertex_type adds
    z-factors z_0..z_{q-1} and zbar factors zb_0..zb_{q-1}, with
    col(zb_t) = col(z_t) and row(zb_t) = row(z_{t+1 mod q}), the index
    plumbing of Tr((Z Zdag)^q). Factor f owns slots (2f, 2f+1) = (row, col)
    on its side.
    """
    ties = [-1] * (2 * graph.factor_count)
    offset = graph.n
    for q in graph.vertex_type:
        for t in range(q):
            zf = offset + t
            ties[2 * zf + 1] = 2 * zf + 1
            ties[2 * zf] = 2 * (offset + (t + 1) % q)
        offset += q
    return tuple(ties)


_DEAD = 255  # marks a zbar slot that is already paired


def _join(state, x, p):
    """Add the wick edge from internal z-slot x to the free zbar slot p.

    state[p] is the far end of that zbar slot: a free internal z-slot or
    an external zbar terminal (both are slot numbers; terminals are < 2n).
    Returns the number of cycles closed (0 or 1).
    """
    e = state[p]
    state[p] = _DEAD
    if e == x:
        return 1
    # the zbar slot whose far end was x now ends where slot p ended
    state[state.index(x)] = e
    return 0


def slot_enumerate(graph):
    """The slot-number kernel, the reference for wick._enumerate.

    Pairs the internal z-factors in ring order, one per level. A state is
    the far-end pair of each unused zbar factor, as bytes: the pairs sorted
    and, for beta=1, each pair sorted too. Equal states merge; the value
    packs the term counts per cycle number into one integer. Returns
    {Y: [term count per cycle number]}, Y the final far-end pairs.
    """
    beta, n, F = graph.beta, graph.n, graph.factor_count
    two_n = 2 * n
    twists = (0, 1) if beta == 1 else (0,)
    bits = (math.factorial(F) * len(twists) ** F).bit_length()
    max_cycles = 2 * (F - n) + 1
    ties = trace_ties(graph)
    level = {bytes(y if y < two_n else ties[y] for y in range(2 * F)): 1}
    for f in range(n, F):
        nxt = {}
        for key, packed in level.items():
            for p in range(0, len(key), 2):
                for t in twists:
                    state = list(key)
                    cycles = _join(state, 2 * f, p + t)
                    cycles += _join(state, 2 * f + 1, p + 1 - t)
                    pairs = [state[i:i + 2] for i in range(0, len(state), 2)
                             if i != p]
                    if beta == 1:
                        pairs = [sorted(pair) for pair in pairs]
                    pairs.sort()
                    new = bytes(itertools.chain(*pairs))
                    nxt[new] = nxt.get(new, 0) + (packed << cycles * bits)
        level = nxt
    counts = {}
    mask = (1 << bits) - 1
    for key, packed in level.items():
        if sorted(key) != list(range(two_n)) or (
                beta == 2 and any(s % 2 for s in key[::2])):
            raise AssertionError("far ends are not the external zbar slots")
        if packed >> max_cycles * bits:
            raise AssertionError("more closed cycles than internal z-slots")
        counts[tuple(zip(key[::2], key[1::2]))] = [
            (packed >> c * bits) & mask for c in range(max_cycles)
        ]
    return counts
