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

ring_polynomial gives j(d) of one long ring, the n = 1 stratum (k,), from
Wishart moment recursions that never enumerate a pairing, so it reaches
rings far past the slot kernel.
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


def _combine(*terms):
    """The integer polynomial sum of c * d^shift * poly over the terms.

    A polynomial is its tuple of coefficients, lowest power first, with no
    trailing zeros; each term is (c, shift, poly).
    """
    out = []
    for c, shift, poly in terms:
        out.extend([0] * (shift + len(poly) - len(out)))
        for i, a in enumerate(poly):
            out[shift + i] += c * a
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _divide(poly, divisor):
    """poly / divisor for a monic divisor, or an integer; raises if inexact."""
    if isinstance(divisor, int):
        if any(a % divisor for a in poly):
            raise AssertionError(f"{poly} is not divisible by {divisor}")
        return tuple(a // divisor for a in poly)
    rest, top = list(poly), len(divisor) - 1
    quotient = [0] * max(0, len(poly) - top)
    for i in reversed(range(len(quotient))):
        quotient[i] = rest[i + top]
        for j, b in enumerate(divisor):
            rest[i + j] -= quotient[i] * b
    if any(rest):
        raise AssertionError(f"{poly} is not divisible by {divisor}")
    return _combine((1, 0, quotient))


def _complex_wishart_moments(top):
    """D_p = E Tr W^p, W = Z Z^dagger for a d x d complex Gaussian Z.

    The Haagerup-Thorbjornsen recursion (Expo. Math. 21, 2003):
    (p+2) D_{p+1} = 2d(2p+1) D_p + (p-1) p^2 D_{p-1}, D_0 = d, D_1 = d^2.
    """
    moments = [(0, 1), (0, 0, 1)]
    for p in range(1, top):
        moments.append(_divide(_combine(
            (2 * (2 * p + 1), 1, moments[p]),
            ((p - 1) * p * p, 0, moments[p - 1])), p + 2))
    return moments


def _symmetric_moments(top):
    """m_k = E Tr (Z conj(Z))^k for the complex symmetric Gaussian Z.

    E|Z_ii|^2 = 2 and E|Z_ij|^2 = 1. Seeded with m_0..m_3, then for k >= 4

        (k+1) m_k = 2d(4k-1) m_{k-1}
                    - (16d^2 k - 24d^2 - 5k^3 + 16k^2 - 15k + 4) m_{k-2}
                    - 4d(k-3)(5k^2 - 19k + 16) m_{k-3}
                    - 4(k-4)^2 (k-3)^2 (k-1) m_{k-4}.

    The recurrence was fitted to the engine's rings for k <= 40 and held
    on k = 41..70 at d = 1..24, data the fit did not use. It is measured,
    not derived: a regression pin, not an independent check.
    """
    m = [(0, 1), (0, 1, 1), (0, 2, 4, 2), (0, 8, 19, 16, 5)]
    for k in range(4, top + 1):
        m.append(_divide(_combine(
            (2 * (4 * k - 1), 1, m[k - 1]),
            (-16 * k + 24, 2, m[k - 2]),
            (5 * k ** 3 - 16 * k * k + 15 * k - 4, 0, m[k - 2]),
            (-4 * (k - 3) * (5 * k * k - 19 * k + 16), 1, m[k - 3]),
            (-4 * (k - 4) ** 2 * (k - 3) ** 2 * (k - 1), 0, m[k - 4])),
            k + 1))
    return m


def ring_polynomial(beta, k):
    """j_k(d) of the stratum (k,) at n = 1, lowest power first.

    Euler's scaling of the Gaussian density gives E[Tr(Z Z^dagger) g] =
    (D + k) E[g] for beta = 2 and 2(D + k) E[g] for beta = 1, with D the
    count of independent complex entries; the patterns' delta sums are d^2
    and d^2 + d. So j_k = (d^2 + k) D_k / d^2 for beta = 2, and j_k =
    (d^2 + d + 2k) m_k / (d^2 + d) for beta = 1.
    """
    if beta == 2:
        moment, delta_sum = _complex_wishart_moments(k)[k], (0, 0, 1)
    else:
        moment, delta_sum = _symmetric_moments(k)[k], (0, 1, 1)
    weight = k if beta == 2 else 2 * k
    return _combine((1, 0, moment), (weight, 0, _divide(moment, delta_sum)))


def ring_value_at_one(k):
    """j_k(1) for beta = 1: 2^k (k+1)!.

    At d = 1, j counts the Wick terms of one delta pattern: the ring's
    (k+1)! 2^(k+1) terms split evenly over the two patterns of n = 1.
    """
    return 2 ** k * math.factorial(k + 1)
