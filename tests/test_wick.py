"""Pairing enumeration: slot graphs, delta patterns, cycle-count polynomials.

The frozen coefficient tuples below are cross-checked inside this file by
counting arguments (total term counts, degree bounds, Catalan leading
coefficients) rather than trusted blindly, and the enumeration kernel is
checked term by term against a brute-force walk over every pairing, and
stratum by stratum against the slot-number kernel in oracle.py.
"""

import collections
import itertools
import math
import os
import types

import pytest

from cemoments import partitions, wick
from cemoments.algebra import DimPolynomial
from cemoments.montecarlo import EntryMoment, SampleConfig, estimate_moment
from cemoments.moments import moment_series
from cemoments.partitions import partitions_of, z_weight
from cemoments.traces import trace_moment
from cemoments.wick import (
    DiagramSum,
    ExternalSpec,
    build_slot_graph,
    clear_diagram_cache,
    coset_class_size,
    enumerate_wick,
    get_diagram_sum,
    get_diagram_sums,
)
from oracle import (
    compose,
    coset_type,
    cycle_type,
    expand_classes,
    inverse,
    slot_enumerate,
    trace_ties,
)

# per-pattern cycle polynomials at n=1, twisted model, ascending coefficients
FROZEN = {
    (): (1,),
    (2,): (8, 10, 4, 2),
    (3,): (48, 74, 49, 16, 5),
    (2, 2): (384, 688, 512, 224, 92, 16, 4),
    (4,): (384, 688, 528, 242, 64, 14),
    (3, 2): (3840, 7624, 6568, 3410, 1180, 356, 52, 10),
    (2, 2, 2): (46080, 99072, 92992, 52912, 21568, 7704, 1744, 432, 48, 8),
}

CATALAN = {2: 2, 3: 5, 4: 14}


def test_external_spec_validation():
    with pytest.raises(ValueError):
        ExternalSpec(beta=3, n=1)
    with pytest.raises(ValueError):
        ExternalSpec(beta=1, n=0)


@pytest.mark.parametrize("beta,n", [(1, 2.0), (1.0, 2)])
def test_external_spec_rejects_non_integers(beta, n):
    with pytest.raises(TypeError):
        ExternalSpec(beta, n)


def test_slot_graph_no_vertices():
    g = build_slot_graph(ExternalSpec(beta=1, n=1), ())
    assert g.factor_count == 1
    # no internal identifications at all: every slot is external
    assert trace_ties(g) == (-1, -1)


def test_slot_graph_single_pair_vertex():
    g = build_slot_graph(ExternalSpec(beta=1, n=1), (2,))
    assert g.factor_count == 3
    ties = trace_ties(g)
    ties_zbar = sum(1 for s in ties if s >= 0)
    assert ties_zbar == 4
    # externals stay free
    assert ties[0] == -1 and ties[1] == -1
    # col(zb_t) = col(z_t); row(zb_t) = row(z_{t+1}) around the ring
    assert ties == (-1, -1, 4, 3, 2, 5)


def test_slot_graph_two_vertices():
    g = build_slot_graph(ExternalSpec(beta=1, n=3), (4, 3))
    assert g.factor_count == 10
    assert g.vertex_type == (4, 3)
    # the internal zbar-slots map one to one onto the internal z-slots
    internal = range(6, 20)
    ties = trace_ties(g)
    assert all(ties[s] >= 0 for s in internal)
    assert sorted(ties[6:]) == list(internal)


def test_slot_graph_rejects_more_than_127_factors():
    # a stratum has at most 127 factors per side
    assert build_slot_graph(ExternalSpec(1, 1), (126,)).factor_count == 127
    with pytest.raises(ValueError, match="F = 128"):
        build_slot_graph(ExternalSpec(1, 1), (127,))


def test_slot_graph_rejects_parts_of_one():
    with pytest.raises(ValueError):
        build_slot_graph(ExternalSpec(beta=1, n=1), (2, 1))


def test_empty_vertex_type_patterns():
    pm = get_diagram_sum(1, 1, ()).pattern_map
    assert pm == {
        (0, 1): DimPolynomial((1,)),
        (1, 0): DimPolynomial((1,)),
    }
    pm2 = get_diagram_sum(2, 1, ()).pattern_map
    assert pm2 == {(0, 1): DimPolynomial((1,))}


@pytest.mark.parametrize("lam", sorted(FROZEN, key=lambda p: (sum(p), p)))
def test_frozen_polynomials_n1(lam):
    pm = get_diagram_sum(1, 1, lam).pattern_map
    assert set(pm) == {(0, 1), (1, 0)}
    for poly in pm.values():
        assert poly.coeffs == FROZEN[lam]


def test_pattern_symmetry_at_n1():
    # swapping the two external columns relabels diagrams one to one
    for lam in [(2,), (3,), (2, 2)]:
        pm = get_diagram_sum(1, 1, lam).pattern_map
        assert pm[(0, 1)] == pm[(1, 0)]


@pytest.mark.parametrize("lam,n", [
    ((), 1), ((2,), 1), ((3,), 1), ((2, 2), 1), ((), 2), ((2,), 2),
    ((2, 2, 2, 2), 1), ((3, 3), 1), ((4, 2), 1), ((3, 2, 2), 1), ((4, 4), 1),
])
def test_term_count_identity(lam, n):
    # every pairing and twist assignment lands in exactly one pattern,
    # so the j(1) values across patterns add up to F! * 2^F
    pm = get_diagram_sum(1, n, lam).pattern_map
    F = n + sum(lam)
    total = sum(poly.eval_at(1) for poly in pm.values())
    assert total == math.factorial(F) * 2**F


def test_term_count_identity_untwisted():
    pm = get_diagram_sum(2, 2, (2,)).pattern_map
    total = sum(poly.eval_at(1) for poly in pm.values())
    assert total == math.factorial(4)


def test_term_count_spot_values():
    per_pattern = {
        (3,): 192,
        (3, 2): 23040,
        (2, 2, 2): 322560,
    }
    for lam, want in per_pattern.items():
        pm = get_diagram_sum(1, 1, lam).pattern_map
        assert pm[(0, 1)].eval_at(1) == want


def test_misprint_guard_for_2_2():
    # the computed polynomial passes both independent self-consistency
    # checks; a once-circulated reference tuple with 412 at d^2 passes
    # neither, so 512 is pinned deliberately
    poly = get_diagram_sum(1, 1, (2, 2)).pattern_map[(0, 1)]
    assert poly.eval_at(-1) == 64
    assert poly.eval_at(1) == 1920
    assert poly.coefficient(2) == 512


def test_degree_bound_and_catalan_leading():
    for lam in [(3,), (2, 2), (4,), (3, 2), (2, 2, 2),
                (2, 2, 2, 2), (3, 3), (4, 2), (3, 2, 2), (4, 4)]:
        pm = get_diagram_sum(1, 1, lam).pattern_map
        want_lead = 1
        for part in lam:
            want_lead *= CATALAN[part]
        for poly in pm.values():
            assert poly.degree == sum(lam) + len(lam)
            assert poly.leading_coefficient == want_lead


def test_validate_mode_accepts_clean_runs():
    for beta, n, lam in [(1, 2, (2,)), (2, 1, (3,)), (1, 1, (2, 2))]:
        graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
        ds = enumerate_wick(graph)
        for pattern in ds.pattern_map:
            assert sorted(pattern) == list(range(2 * n))


def _brute_force_counts(graph):
    """Walk every bijection and twist mask one term at a time.

    Returns {pattern: [term count per cycle number]}, the kernel's format.
    """
    F, two_n = graph.factor_count, 2 * graph.n
    trace = trace_ties(graph)
    masks = range(1 << F) if graph.beta == 1 else [0]
    counts = {}
    for perm in itertools.permutations(range(F)):
        for mask in masks:
            wick_to = []
            for f in range(F):
                t = (mask >> f) & 1
                wick_to += [2 * perm[f] + t, 2 * perm[f] + 1 - t]
            seen = set()
            pattern = []
            for s in range(two_n):
                w = wick_to[s]
                while trace[w] >= 0:
                    seen.add(trace[w])
                    w = wick_to[trace[w]]
                pattern.append(w)
            cycles = 0
            for s in range(two_n, 2 * F):
                if s not in seen:
                    cycles += 1
                    while s not in seen:
                        seen.add(s)
                        s = trace[wick_to[s]]
            arr = counts.setdefault(
                tuple(pattern), [0] * (2 * (F - graph.n) + 1)
            )
            arr[cycles] += 1
    return counts


def test_kernel_matches_brute_force_walk(fake_pool):
    for beta, max_f in [(1, 6), (2, 7)]:
        for n in (1, 2, 3):
            strata = [lam for size in range(max_f - n + 1)
                      for lam in partitions_of(size, min_part=2)]
            brute = {}
            for lam in strata:
                graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
                brute[lam] = _brute_force_counts(graph)
                # every pattern has the counts of the matching it comes from
                got = wick._enumerate(graph)
                assert ({_final_matching(beta, p) for p in brute[lam]}
                        == set(got)), (beta, n, lam)
                for pattern, row in brute[lam].items():
                    assert got[_final_matching(beta, pattern)] == row, (
                        beta, n, lam, pattern)
            # workers=2 sends whole strata through the inline pool
            for workers in (1, 2):
                clear_diagram_cache()
                sums = get_diagram_sums(beta, n, strata, workers)
                for lam, ds in zip(strata, sums):
                    want = {key: DimPolynomial(brute[lam][key])
                            for key in sorted(brute[lam])}
                    assert ds.pattern_map == want, (beta, n, lam, workers)
                    assert list(ds.pattern_map) == list(want)


def test_class_kernel_matches_the_slot_kernel():
    # every stratum with n <= 3 up to F = 9 (beta=1) or 10 (beta=2), and
    # n = 4..6 up to F = 8: the same matchings Y with the same rows
    for beta, max_f in [(1, 9), (2, 10)]:
        for n in range(1, 7):
            top = max_f if n <= 3 else 8
            for lam in [lam for size in range(top - n + 1)
                        for lam in partitions_of(size, min_part=2)]:
                graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
                assert wick._enumerate(graph) == slot_enumerate(graph), (
                    beta, n, lam)


def test_moves_return_canonical_paths():
    # on every state the kernel reaches in the strata of the slot-kernel
    # test above, a beta=1 path keeps a < b, and a beta=2 path runs from a
    # row terminal (even) to a column terminal (odd)
    for beta, max_f in [(1, 9), (2, 10)]:
        for n in range(1, 7):
            top = max_f if n <= 3 else 8
            for lam in [lam for size in range(top - n + 1)
                        for lam in partitions_of(size, min_part=2)]:
                _walk_checking_paths(beta, n, lam)


def _walk_checking_paths(beta, n, lam):
    """Walk the class states of stratum lam level by level through _moves,
    checking the terminals of every path each move returns."""
    level = {tuple(sorted([(2 * g, 2 * g + 1, 1) for g in range(n)]
                          + [(-1, -1, q) for q in lam]))}
    for _ in range(sum(lam)):
        reached = set()
        for state in level:
            for parts, _ in wick._moves(beta, state):
                paths = [(a, b) for a, b, _ in parts if a >= 0]
                if beta == 1:
                    assert all(a < b for a, b in paths), (lam, parts)
                else:
                    assert all(a % 2 < b % 2 for a, b in paths), (lam, parts)
                reached.add(tuple(sorted(
                    part for part in parts if part != (-1, -1, 0))))
        level = reached


def _final_matching(beta, pattern):
    """The kernel's final key for a pattern: its pairs (p[2f], p[2f+1]).

    The pairs are sorted, and for beta=1 each pair is sorted too.
    """
    pairs = [pattern[s:s + 2] for s in range(0, len(pattern), 2)]
    if beta == 1:
        pairs = [sorted(pair) for pair in pairs]
    return tuple(sorted(tuple(pair) for pair in pairs))


def _labelled(pairs):
    """The pattern sending pair f of a final key to zbar factor f."""
    return tuple(itertools.chain(*pairs))


def _all_patterns(beta, n):
    """Every perfect matching of the 2n external slots the model allows."""
    if beta == 1:
        return list(itertools.permutations(range(2 * n)))
    # untwisted: rows end on rows and columns on columns
    return [
        tuple(2 * (row, col)[s % 2][s // 2] + s % 2 for s in range(2 * n))
        for row in itertools.permutations(range(n))
        for col in itertools.permutations(range(n))
    ]


def _class_size(beta, n, rho):
    """4^n n!^2 / (z_rho 2^len(rho)) for beta=1, n!^2 / z_rho for beta=2."""
    if beta == 1:
        return (4 ** n * math.factorial(n) ** 2
                // (z_weight(rho) * 2 ** len(rho)))
    return math.factorial(n) ** 2 // z_weight(rho)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_types_split_every_pattern_into_classes(beta, n):
    patterns = _all_patterns(beta, n)
    assert len(patterns) == (math.factorial(2 * n) if beta == 1
                             else math.factorial(n) ** 2)
    buckets = collections.defaultdict(list)
    for pattern in patterns:
        buckets[coset_type(pattern)].append(pattern)
    want = {rho: _class_size(beta, n, rho) for rho in partitions_of(n)}
    assert {rho: len(ps) for rho, ps in buckets.items()} == want
    assert all(coset_class_size(beta, n, rho) == size
               for rho, size in want.items())
    # the library labels typed matchings instead, one type at a time;
    # over all types, the same classes with no repeats
    listed = {rho: wick.class_patterns(beta, n, rho)
              for rho in partitions_of(n)}
    assert ({rho: sorted(ps) for rho, ps in listed.items()}
            == {rho: sorted(ps) for rho, ps in buckets.items()})


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_pattern_order_matches_the_sorting_walk(beta, n):
    types = list(partitions_of(n))
    subsets = [types] + [[rho] for rho in types]
    if n <= 3:
        subsets = [list(sub) for size in range(1, len(types) + 1)
                   for sub in itertools.combinations(types, size)]
    for sub in subsets:
        classes = [(rho, f"value of {rho}") for rho in sub]
        for convert in (None, str.upper):
            got = wick.expand_classes(beta, n, classes, convert)
            want = expand_classes(beta, n, classes, convert)
            assert list(got.items()) == list(want.items()), (beta, n, sub)
        # the order holds class_patterns' own tuples, not copies
        listed = {id(p) for rho in sub
                  for p in wick.class_patterns(beta, n, rho)}
        assert {id(p) for p in got} == listed


def test_unitary_coset_type_is_the_class_of_row_inverse_times_col():
    n = 3
    for row in itertools.permutations(range(n)):
        for col in itertools.permutations(range(n)):
            pattern = [0] * (2 * n)
            for f in range(n):
                pattern[2 * f] = 2 * row[f]
                pattern[2 * f + 1] = 2 * col[f] + 1
            want = cycle_type(compose(inverse(row), col))
            assert coset_type(tuple(pattern)) == want


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_representatives_have_their_coset_type(beta, n, monkeypatch):
    # each final matching of the kernel represents the patterns labelled
    # from it, and enumerate_wick files it under their coset type
    filed = {}
    real = wick.matching_type

    def recording(factor_pairs, y):
        filed[tuple(y)] = real(factor_pairs, y)
        return filed[tuple(y)]

    monkeypatch.setattr(wick, "matching_type", recording)
    for lam in [(), (2,)]:
        graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
        counts = wick._enumerate(graph)
        filed.clear()
        classes = dict(enumerate_wick(graph).classes)
        for pairs, row in counts.items():
            assert sorted(itertools.chain(*pairs)) == list(range(2 * n))
            if beta == 2:  # (row, col) pairs
                assert all(a % 2 == 0 and b % 2 == 1 for a, b in pairs)
            y = [0] * (2 * n)
            for a, b in pairs:
                y[a], y[b] = b, a
            rho = coset_type(_labelled(pairs))
            assert filed[tuple(y)] == rho, (lam, pairs)
            assert classes[rho] == DimPolynomial(row), (lam, pairs)
        assert len(filed) == len(counts)


@pytest.mark.parametrize("beta", [1, 2])
def test_kernel_counts_are_constant_on_each_complete_coset_type(beta):
    for n in (1, 2, 3):
        for lam in [lam for size in range(8 - n + 1)
                    for lam in partitions_of(size, min_part=2)]:
            graph = build_slot_graph(ExternalSpec(beta=beta, n=n), lam)
            by_type = collections.defaultdict(list)
            for pairs, row in wick._enumerate(graph).items():
                by_type[coset_type(_labelled(pairs))].append(row)
            # each final matching stands for n! 2^n (beta=1) or n!
            # labelled patterns, all of the same type
            labellings = math.factorial(n) * (2 ** n if beta == 1 else 1)
            for rho, rows in by_type.items():
                assert len(rows) * labellings == _class_size(beta, n, rho), (
                    n, lam, rho)
                assert all(row == rows[0] for row in rows), (n, lam, rho)


def test_enumeration_rejects_counts_that_break_a_coset_type(monkeypatch):
    real = wick._enumerate
    graph = build_slot_graph(ExternalSpec(beta=1, n=2), (2,))
    assert len(enumerate_wick(graph).classes) > 1
    # the type (2,) has two matchings of the four zbar slots
    second = ((0, 2), (1, 3))
    assert second in real(graph)

    def perturbed(graph):
        counts = real(graph)
        counts[second][0] += 1
        return counts

    def dropped(graph):
        counts = real(graph)
        del counts[second]
        return counts

    for fake in (perturbed, dropped):
        monkeypatch.setattr(wick, "_enumerate", fake)
        with pytest.raises(AssertionError):
            enumerate_wick(graph)


def test_diagram_sums_with_different_polynomials_compare_unequal():
    ds = get_diagram_sum(1, 1, (2,))
    copy = DiagramSum(ds.beta, ds.n, ds.vertex_type, ds.edge_count,
                      ds.classes)
    assert ds == copy and hash(ds) == hash(copy)
    other = DiagramSum(ds.beta, ds.n, ds.vertex_type, ds.edge_count,
                       classes=(((1,), DimPolynomial((7,))),))
    assert ds != other


def test_worker_counts_are_bit_identical(monkeypatch):
    # a zero budget sends these cheap strata through a real process pool
    monkeypatch.setattr(wick, "POOL_START_S", 0)
    strata = [(2, 2), (3,), (2,), (), (4,)]
    clear_diagram_cache()
    base = [ds.pattern_map for ds in get_diagram_sums(1, 1, strata, 1)]
    for workers in (2, max(2, os.cpu_count() or 1)):
        clear_diagram_cache()
        again = get_diagram_sums(1, 1, strata, workers)
        assert [ds.pattern_map for ds in again] == base
        for ds, pm in zip(again, base):
            assert list(ds.pattern_map) == list(pm)


def test_beta2_patterns_have_even_endpoints():
    # without twists a row slot can only terminate on a row slot
    pm = get_diagram_sum(2, 2, (2,)).pattern_map
    for pattern in pm:
        for s, w in enumerate(pattern):
            assert (s - w) % 2 == 0


def test_diagram_sum_json_shape():
    ds = get_diagram_sum(1, 1, (2,))
    data = ds.to_json()
    assert data["edges"] == 3
    assert len(data["patterns"]) == 2
    entry = data["patterns"][0]
    assert sorted(pair[0] for pair in entry["match"]) == [0, 1]
    assert entry["poly"] == ["8", "10", "4", "2"]


def test_cache_returns_same_object_and_clears():
    clear_diagram_cache()
    first = get_diagram_sum(1, 1, (2,))
    assert get_diagram_sum(1, 1, (2,)) is first
    clear_diagram_cache()
    again = get_diagram_sum(1, 1, (2,))
    assert again is not first
    assert again.pattern_map == first.pattern_map


def test_diagram_sum_fields():
    ds = get_diagram_sum(1, 2, (2,))
    assert isinstance(ds, DiagramSum)
    assert ds.n == 2
    assert ds.vertex_type == (2,)
    assert ds.edge_count == 4


def test_enumeration_pool_is_bounded_by_jobs_and_cpus(fake_pool):
    sizes = fake_pool
    three = [(2,), (3,), (2, 2), (2,)]  # three jobs: (2,) is listed twice
    six = [(), (2,), (3,), (4,), (2, 2), (3, 2)]
    for strata in (three, six):
        clear_diagram_cache()
        serial = [ds.pattern_map for ds in get_diagram_sums(1, 1, strata)]
        for workers in (2, 64):
            clear_diagram_cache()
            got = get_diagram_sums(1, 1, strata, workers)
            assert [ds.pattern_map for ds in got] == serial
            # a warm cache starts no pool
            assert get_diagram_sums(1, 1, strata, workers) == got
    assert sizes == [2, 3, 2, 4]
    # one missing stratum is a single job, so it runs in-process
    get_diagram_sums(1, 1, [(2,), (5,)], 64)
    assert sizes == [2, 3, 2, 4]


def test_results_follow_the_order_asked_not_the_schedule(fake_pool,
                                                         monkeypatch):
    # jobs are submitted largest stratum first; the results must still
    # come back, and be summed, in partition order
    sizes = fake_pool
    serial_moment = moment_series(ExternalSpec(2, 2), 6, workers=1)
    serial_trace = trace_moment((2,), (2,), 6, workers=1)
    clear_diagram_cache()
    parallel_moment = moment_series(ExternalSpec(2, 2), 6, workers=2)
    clear_diagram_cache()
    parallel_trace = trace_moment((2,), (2,), 6, workers=2)
    assert sizes == [2, 2]
    assert parallel_moment == serial_moment
    assert list(parallel_moment.pattern_map) == list(serial_moment.pattern_map)
    assert parallel_trace == serial_trace

    enumerated = []
    real = wick.enumerate_wick

    def counting(graph):
        enumerated.append(graph.vertex_type)
        return real(graph)

    monkeypatch.setattr(wick, "enumerate_wick", counting)
    clear_diagram_cache()
    sums = get_diagram_sums(1, 1, [(2,), (3,), [2], (2,)], 2)
    assert sorted(enumerated) == [(2,), (3,)]
    assert sums[0] is sums[2] is sums[3]
    assert sums[1].vertex_type == (3,)


SIX = [(), (2,), (3,), (4,), (2, 2), (3, 2)]
# jobs are listed largest first, ties kept in the order asked; the pool
# takes them from the front and the in-process loop from the back
JOBS = sorted(SIX, key=sum, reverse=True)
REAL_POOL_START_S = wick.POOL_START_S


def _clock_of_jobs(monkeypatch, seconds_per_job):
    """Make wick's clock read seconds_per_job per stratum enumerated.

    Returns the list of enumerated vertex types, in enumeration order.
    """
    enumerated = []
    real = wick.enumerate_wick

    def counting(graph):
        enumerated.append(graph.vertex_type)
        return real(graph)

    monkeypatch.setattr(wick, "enumerate_wick", counting)
    monkeypatch.setattr(wick, "POOL_START_S", REAL_POOL_START_S)
    monkeypatch.setattr(wick, "time", types.SimpleNamespace(
        perf_counter=lambda: seconds_per_job * len(enumerated)))
    return enumerated


def _serial_maps(strata):
    clear_diagram_cache()
    maps = [ds.pattern_map for ds in get_diagram_sums(1, 1, strata)]
    clear_diagram_cache()
    return maps


def test_cheap_strata_start_no_pool(fake_pool, monkeypatch):
    sizes = fake_pool
    enumerated = _clock_of_jobs(monkeypatch, 0.001)
    serial = _serial_maps(SIX)
    assert enumerated == SIX  # one worker: the order asked, as before
    enumerated.clear()
    got = get_diagram_sums(1, 1, SIX, 2)
    assert sizes == []
    assert [ds.pattern_map for ds in got] == serial
    assert enumerated == JOBS[::-1]  # smallest first, all in process


def test_an_all_hit_call_reads_no_clock_and_starts_no_pool(fake_pool,
                                                           monkeypatch):
    sizes = fake_pool
    clear_diagram_cache()
    want = get_diagram_sums(1, 1, SIX)
    enumerated = _clock_of_jobs(monkeypatch, 0.001)
    reads = []
    monkeypatch.setattr(wick.time, "perf_counter",
                        lambda: reads.append("clock") or 0.0)
    monkeypatch.setattr(wick, "usable_cpus", lambda: reads.append("cpus") or 4)
    got = get_diagram_sums(1, 1, SIX, 2)
    assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
    assert (enumerated, sizes, reads) == ([], [], [])
    # a missing stratum still reads the clock before it is enumerated
    get_diagram_sums(1, 1, SIX + [(5,)], 2)
    assert enumerated == [(5,)] and "clock" in reads and sizes == []


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pool_takes_what_is_left_once_the_budget_is_spent(fake_pool,
                                                          monkeypatch, k):
    sizes = fake_pool
    serial = _serial_maps(SIX)
    # the clock passes the budget after the k-th job, not before
    enumerated = _clock_of_jobs(monkeypatch, REAL_POOL_START_S / (k - 0.5))
    got = get_diagram_sums(1, 1, SIX, 64)
    assert [ds.pattern_map for ds in got] == serial
    left = JOBS[:-k]
    assert enumerated == JOBS[::-1][:k] + left
    # one stratum left is a single job, so it runs in process
    assert sizes == ([min(len(left), 4)] if len(left) > 1 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warm_lookup_normalizes_each_stratum_once(monkeypatch, workers):
    # lists, unsorted and repeated strata each become one normalized key
    strata = [(2,), [3], (2, 3), [2, 3], (3, 2), (2,), ()]
    clear_diagram_cache()
    want = get_diagram_sums(1, 2, strata)
    calls = []

    def counting(parts, allow_ones=True):
        calls.append(parts)
        return partitions.normalize_partition(parts, allow_ones)

    monkeypatch.setattr(wick, "normalize_partition", counting)
    got = get_diagram_sums(1, 2, strata, workers)
    assert calls == strata
    assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
    assert got[2] is got[3] is got[4] and got[0] is got[5]


def test_a_cached_key_of_non_integers_still_fails():
    # (2.0,) equals the cached key (2,): only an exact tuple of ints skips
    # normalization, so the warm lookup raises as the cold one does
    for _ in range(2):
        get_diagram_sum(1, 1, (2,))
        for lam in [(2.0,), (3, 2.0), ("2",)]:
            with pytest.raises(TypeError):
                get_diagram_sum(1, 1, lam)
    with pytest.raises(ValueError):
        get_diagram_sum(1, 1, (1,))
    assert get_diagram_sum(1, 1, [2]) is get_diagram_sum(1, 1, (2,))


def test_usable_cpus_reads_the_affinity_then_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert wick.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert wick.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert wick.usable_cpus() == 1


def test_one_usable_cpu_starts_no_pool(fake_pool, monkeypatch):
    # the fixture's zero budget sends every missing stratum to the pool,
    # and its machine has 4 CPUs; the process may run on only one of them
    sizes = fake_pool
    cfg = SampleConfig(ensemble="COE", N=4, sample_count=400, rng_seed=3,
                       batch_count=4)
    obs = [EntryMoment(factors=((0, 1, False), (0, 1, True)))]

    def both(workers):
        clear_diagram_cache()
        return (trace_moment((2, 1), (3,), 6, workers=workers),
                estimate_moment(cfg, obs, workers=workers))

    serial = both(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert both(2) == serial
    assert sizes == []
    # with two usable CPUs, the same calls do start both pools
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert both(2) == serial
    assert sizes == [2, 2]
