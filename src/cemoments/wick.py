"""Wick pairing enumeration over slot graphs.

The integrand behind an ensemble moment is a product of matrix factors.
Each factor is a z (or a conjugate z-bar) carrying a row slot and a column
slot. Externals come first: n z-factors and n z-bar factors whose four...
2n+2n slots stay free. A vertex partition lam (all parts >= 2) appends, for
each part q, a ring of q internal z-factors and q internal z-bar factors
wired as a trace: with factors z_0..z_{q-1} and zb_0..zb_{q-1},

    col(z_t)  is identified with col(zb_t)          (shared summed column)
    row(zb_t) is identified with row(z_{t+1 mod q}) (shared summed row)

which is exactly the index plumbing of Tr((Z Zdag)^q). Slots are numbered
factor-local: z-factor f owns z-slots (2f, 2f+1) = (row, col), z-bar factor
g owns zbar-slots (2g, 2g+1). Factors 0..n-1 are external on both sides;
internal factors follow in partition order.

A Wick term is a bijection from z-factors to z-bar factors plus, in the
twisted model (beta=1, symmetric matrices), one twist bit per edge:

    untwisted: row-row and col-col      twisted: row-col and col-row

Overlaying the pairing edges on the trace identifications leaves a disjoint
union of closed cycles (every slot internal; each contributes a factor of
the formal dimension d) and open chains whose two endpoints are external
slots. Since every identification joins a z-slot to a zbar-slot, the graph
is bipartite and each chain ends on opposite sides: the chain endpoints
define a perfect matching from external z-slots to external zbar-slots,
the term's delta pattern. The enumeration counts, per pattern, the terms
with c closed cycles: an integer polynomial j(d) in d.

Relabelling the external factors (and, for beta=1, swapping the two slots
of one) permutes the terms and the patterns alike, so j(d) depends on a
pattern only through its coset type. A pattern is a labelled matching:
pulling the zbar factors' slot pairs back through it gives a perfect
matching X of the external z-slots, and the labels say which zbar factor
each pair of X reaches and, for beta=1, which of its two slots each end
takes. Relabelling the zbar side changes only the labels, and relabelling
the z side moves X and the factor pairs A = {2f, 2f+1} together, so the
coset type is the type of (A, X), a partition of n (a double coset
H_n\\S_2n/H_n for beta=1, the class of sigma_row^-1 sigma_col for beta=2;
Macdonald VII.2). Pushed through the pattern the other way, A becomes the
matching Y = {(p[2f], p[2f+1])} of the external zbar slots, and the type
is also that of (Y, B), B the zbar factor pairs. So a diagram sum stores
one polynomial per type, and class_patterns labels every matching of a
type only when output lists that type.

The terms are never visited one by one, and no slot is numbered. The
kernel pairs one free internal z-factor per level. What is left to pair
is a disjoint union of components alternating unused zbar factors and
free z-factors, and only its class up to relabelling matters: a path
(a, b, k) runs from external zbar terminal a to terminal b through k
zbar factors (a is the row terminal for beta=2; a < b for beta=1, which
sums both twists), and a chain (-1, -1, k) is a ring of k zbar and k
free z-factors. A state is the sorted tuple of its components; stratum
lam starts at the paths (2g, 2g+1, 1) plus one chain per part of lam.
Pairing a free z-factor x with an unused zbar factor g cuts or joins
components (the cut-and-join moves of Goulden-Jackson 1997 and
Harer-Zagier 1986); a chain of size 0 is a closed cycle, one power of d.
x is in the first chain if there is one, else next to a on the first
path with k > 1:

    x in chain k, g at offset j of it: chains j and k-1-j, or twisted
        chain k-1;
    x in chain k, g one of the m zbars of (c, d, m): (c, d, k+m-1),
        twisted or not;
    x in path (a, b, k), g its j-th zbar: path (a, b, k-1-l) and chain
        l = max(j-2, 0), or twisted (a, b, k-1);
    x in path (a, b, k), g the j-th zbar of path (c, d, m): (a, d, 1+m-j)
        and (c, b, k+j-2), and, twisted, the same for (d, c, m).

_moves returns canonical states (only a join can reverse a beta=1 path),
so equal states add their rows, one integer of term counts per cycle
number; two levels are alive at a time. The final state is n paths with
k = 1: a matching Y of the 2n external zbar slots, (row, col) pairs for
beta=2. Pairing the external z-factors is forced from there: a pattern p
comes from Y exactly when {(p[2f], p[2f+1])} = Y and has Y's counts;
enumerate_wick files each Y under its type against B.

Determinism: the kernel is serial code, and every count is an exact
integer sum, independent of dict order. Parallel runs happen one level up:
get_diagram_sums computes each stratum once, in process or as one job of a
process pool, and returns the results in the order asked, so they are
bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import time

from .algebra import DimPolynomial, Record
from .partitions import (
    matching_type,
    normalize_partition,
    typed_matchings,
    z_weight,
)

_MAX_FACTORS = 127  # factors per side in one stratum
POOL_START_S = 0.05  # wall time to import, fork and shut down a 2-process pool


class ExternalSpec(Record):
    """External factor layout for a moment integrand.

    beta selects the covariance: 2 pairs row-row/col-col only; 1 adds the
    twisted second term. n is the number of z factors (the z-bar count
    matches).
    """

    beta: int
    n: int

    def __post_init__(self):
        # index(), not a value compare: beta=1.0 or n=2.0 is a TypeError
        for value in (self.beta, self.n):
            operator.index(value)
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2 for enumeration")
        if self.n < 1:
            raise ValueError("need at least one external factor")


class SlotGraph(Record):
    """Integrand structure: n external factors on each side, then one trace
    ring per part of vertex_type, factor_count factors on each side in all.
    """

    beta: int
    n: int
    vertex_type: tuple
    factor_count: int


def build_slot_graph(spec, lam):
    """Externals of spec plus one trace ring per part of lam."""
    lam = normalize_partition(lam, allow_ones=False)
    total = spec.n + sum(lam)
    if total > _MAX_FACTORS:
        raise ValueError(f"F = {total} factors is too many: the enumeration "
                         f"is limited to F <= {_MAX_FACTORS}")
    return SlotGraph(beta=spec.beta, n=spec.n, vertex_type=lam,
                     factor_count=total)


class DiagramSum(Record):
    """Accumulated enumeration result, one entry per coset type.

    classes holds (type, poly) pairs in type order: poly is the integer
    polynomial in d counting terms by closed-cycle number, shared by every
    pattern of that type. A pattern is a tuple p of length 2n with
    p[s] = the external zbar-slot matched to external z-slot s.
    """

    beta: int
    n: int
    vertex_type: tuple
    edge_count: int
    classes: tuple

    @property
    def pattern_map(self):
        """Every pattern with its polynomial, in sorted pattern order."""
        return expand_classes(self.beta, self.n, self.classes)

    def json_patterns(self):
        """The entries of to_json's pattern list, one at a time."""
        for p, poly in expand_classes(self.beta, self.n, self.classes,
                                      DimPolynomial.to_json).items():
            yield {"match": [[s, w] for s, w in enumerate(p)], "poly": poly}

    def to_json(self):
        return {"edges": self.edge_count,
                "patterns": list(self.json_patterns())}


def expand_classes(beta, n, classes, convert=None):
    """Every pattern with its class's value, in sorted pattern order.

    classes holds (type, value) pairs; convert, when given, maps each value
    once per class. The sorted order is kept once per (beta, n, types).
    """
    types = tuple([rho for rho, _ in classes])
    values = [convert(value) if convert else value for _, value in classes]
    patterns, owners = _pattern_order(beta, n, types)
    return dict(zip(patterns, map(values.__getitem__, owners)))


@functools.cache
def _pattern_order(beta, n, types):
    """The class_patterns of types in sorted order, and each one's type."""
    tagged = sorted((p, i) for i, rho in enumerate(types)
                    for p in class_patterns(beta, n, rho))
    return tuple(p for p, _ in tagged), bytes(i for _, i in tagged)


def coset_class_size(beta, n, rho):
    """Patterns of coset type rho: 4^n n!^2/(z 2^len) or n!^2/z."""
    size = math.factorial(n) ** 2 // z_weight(rho)
    return size << (2 * n - len(rho)) if beta == 1 else size


def _label(pairs, factors, flips):
    """Pattern sending each pair (a, b) to its zbar factor g and flip t.

    Slot a goes to zbar-slot 2g+t and slot b to 2g+1-t.
    """
    pattern = [0] * (2 * len(pairs))
    for (a, b), g, t in zip(pairs, factors, flips):
        pattern[a], pattern[b] = 2 * g + t, 2 * g + 1 - t
    return tuple(pattern)


@functools.cache
def class_patterns(beta, n, rho):
    """Every delta pattern of (beta, n) of coset type rho, for output.

    Labels each typed matching of type rho with the zbar factors in every
    order and, for beta=1, with every flip. beta=2 keeps the matchings
    that pair each row slot 2f with a column slot, and sends rows to rows.
    Raises AssertionError if the count is not coset_class_size.
    """
    orders = list(itertools.permutations(range(n)))
    flips = list(itertools.product((0, 1) if beta == 1 else (0,), repeat=n))
    patterns = []
    for x, x_type in typed_matchings(n):
        if x_type != rho:
            continue
        if beta == 1:
            pairs = [(a, b) for a, b in enumerate(x) if a < b]
        elif all(x[a] % 2 for a in range(0, 2 * n, 2)):
            pairs = [(a, x[a]) for a in range(0, 2 * n, 2)]
        else:
            continue
        patterns.extend(
            _label(pairs, order, flip) for order in orders for flip in flips)
    if len(patterns) != coset_class_size(beta, n, rho):
        raise AssertionError(
            f"coset type {rho} has {len(patterns)} patterns")
    return tuple(patterns)


def _moves(beta, state):
    """Pair one free z-factor x of a class state with each unused zbar g.

    Yields (components, number of pairings) per outcome by the module
    docstring's rules, each path canonical; (-1, -1, 0) is a closed cycle.
    """
    twisted = beta == 1
    if state[0][0] < 0:  # x in the first chain
        k = state[0][2]
        rest = list(state[1:])
        for j in range(k):
            yield rest + [(-1, -1, j), (-1, -1, k - 1 - j)], 1
        if twisted:
            yield rest + [(-1, -1, k - 1)], k
        for i, (c, d, m) in enumerate(rest):
            yield (rest[:i] + [(c, d, k + m - 1)] + rest[i + 1:],
                   2 * m if twisted else m)
        return
    i = next(i for i, part in enumerate(state) if part[2] > 1)
    a, b, k = state[i]  # x next to terminal a
    rest = list(state[:i] + state[i + 1:])
    for j in range(1, k + 1):
        loop = max(j - 2, 0)
        yield rest + [(a, b, k - 1 - loop), (-1, -1, loop)], 1
    if twisted:
        yield rest + [(a, b, k - 1)], k
    for h, (c, d, m) in enumerate(rest):
        others = rest[:h] + rest[h + 1:]
        for c, d in ((c, d), (d, c)) if twisted else ((c, d),):
            p, q = (d, a) if twisted and d < a else (a, d)
            r, s = (b, c) if twisted and b < c else (c, b)
            for j in range(1, m + 1):
                yield others + [(p, q, 1 + m - j), (r, s, k + j - 2)], 1


def _enumerate(graph):
    """Sum the terms of the slot graph over its internal z-factors.

    Pairs one free z-factor per level, on class states. A row is one
    integer, the count for c closed cycles at bit c * width: no count
    exceeds the F! 2^F terms, as each pairing it counts extends to its own.
    Returns {Y: [term count per cycle number]}, Y the sorted (a, b) pairs.
    """
    beta, n, F = graph.beta, graph.n, graph.factor_count
    size = 2 * (F - n) + 1  # a cycle needs at least one internal z-slot
    width = (math.factorial(F) << F).bit_length()
    start = [(2 * g, 2 * g + 1, 1) for g in range(n)]
    start += [(-1, -1, q) for q in graph.vertex_type]
    level = {tuple(sorted(start)): 1}
    for _ in range(F - n):
        nxt = {}
        for state, row in level.items():
            for parts, weight in _moves(beta, state):
                parts.sort()
                cycles = parts.count((-1, -1, 0))
                new = tuple(parts[cycles:])
                nxt[new] = nxt.get(new, 0) + (weight * row << cycles * width)
        level = nxt
    mask = (1 << width) - 1
    return {tuple((a, b) for a, b, _ in state):
            [row >> c * width & mask for c in range(size)]
            for state, row in level.items()}


def enumerate_wick(graph):
    """Sum the pairings (and twists, for beta=1) of the slot graph per type.

    Files each final matching Y of the kernel under its type against the
    zbar factor pairs. Raises AssertionError unless every type present has
    one count row and all of its matchings: coset_class_size over the
    labellings of one matching, n! 2^n for beta=1 and n! for beta=2.
    """
    beta, n = graph.beta, graph.n
    labellings = math.factorial(n) << n if beta == 1 else math.factorial(n)
    factor_pairs = [s ^ 1 for s in range(2 * n)]
    rows = {}
    for pairs, row in _enumerate(graph).items():
        y = [0] * (2 * n)
        for a, b in pairs:
            y[a], y[b] = b, a
        rows.setdefault(matching_type(factor_pairs, y), []).append(row)
    classes = []
    for rho, found in sorted(rows.items()):
        if len(found) != coset_class_size(beta, n, rho) // labellings:
            raise AssertionError(f"coset type {rho} lacks matchings")
        if any(row != found[0] for row in found):
            raise AssertionError(f"j(d) differs within coset type {rho}")
        classes.append((rho, DimPolynomial(found[0])))
    return DiagramSum(
        beta=beta,
        n=n,
        vertex_type=graph.vertex_type,
        edge_count=graph.factor_count,
        classes=tuple(classes),
    )


_diagram_cache = {}


def get_diagram_sum(beta, n, lam):
    """Cached enumeration, keyed by (beta, n, lam) with lam normalized."""
    if not (type(lam) is tuple and all(type(p) is int for p in lam)
            and (beta, n, lam) in _diagram_cache):  # already a cached key
        lam = normalize_partition(lam, allow_ones=False)
    key = (beta, n, lam)
    cached = _diagram_cache.get(key)
    if cached is None:
        graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
        cached = _diagram_cache[key] = enumerate_wick(graph)
    return cached


def get_diagram_sums(beta, n, strata, workers=1):
    """One cached diagram sum per stratum, in the order given.

    Strata missing from the cache are enumerated once each; a call with
    none missing only looks them up, so it reads no clock and starts no
    pool. With more than one worker, the smallest missing strata run in
    process until they have taken POOL_START_S, about the cost of starting
    a pool; only if more than one is left do those go to one pool of
    min(workers, jobs, usable_cpus()) processes, as whole jobs, largest
    first. The results are returned in the order asked, so they do not
    depend on the worker count or on the order in which jobs finish.
    """
    strata = [normalize_partition(lam, allow_ones=False) for lam in strata]
    missing = [lam for lam in dict.fromkeys(strata)
               if (beta, n, lam) not in _diagram_cache]
    if workers > 1 and missing:
        missing.sort(key=sum, reverse=True)
        start = time.perf_counter()
        while missing and time.perf_counter() - start < POOL_START_S:
            get_diagram_sum(beta, n, missing.pop())
        workers = min(workers, len(missing), usable_cpus())
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(lam, pool.submit(get_diagram_sum, beta, n, lam))
                           for lam in missing]
                for lam, fut in futures:
                    _diagram_cache[(beta, n, lam)] = fut.result()
    return [get_diagram_sum(beta, n, lam) for lam in strata]


def usable_cpus():
    """The CPUs this process may run on, which caps either process pool."""
    affinity = getattr(os, "sched_getaffinity", None)  # not macOS, Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def clear_diagram_cache():
    _diagram_cache.clear()
