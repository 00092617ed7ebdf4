"""Partition bookkeeping and cycle-type permutations."""

import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from cemoments.partitions import (
    cycle_matching,
    matching_type,
    normalize_partition,
    partitions_no_ones_up_to_rank,
    partitions_of,
    perfect_matchings,
    permutation_of_type,
    rank,
    typed_matchings,
    z_weight,
)
from oracle import compose, cycle_type, inverse


def test_normalize_sorts_descending():
    assert normalize_partition([2, 3, 2]) == (3, 2, 2)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition([0])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])
    with pytest.raises(ValueError):
        normalize_partition([2, 1], allow_ones=False)
    assert normalize_partition([1, 1]) == (1, 1)
    # the largest bad part names the error, as a check of each part would
    with pytest.raises(ValueError, match="equal to 1"):
        normalize_partition([1, 0], allow_ones=False)
    with pytest.raises(ValueError, match="got 0"):
        normalize_partition([0, -1])
    with pytest.raises(ValueError, match="equal to 1"):
        normalize_partition([-1, 2, 1], allow_ones=False)
    with pytest.raises(ValueError, match="got -1"):
        normalize_partition([-1, 2, 1, -2])
    assert normalize_partition([2, 2], allow_ones=False) == (2, 2)
    # int() would read 2.9 as the part 2; only true integers are taken
    for parts in ((2.9,), (3, 2.0), ("2",)):
        with pytest.raises(TypeError):
            normalize_partition(parts)


def test_partitions_of_small_totals():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert list(partitions_of(6, min_part=2)) == [
        (6,), (4, 2), (3, 3), (2, 2, 2)
    ]


def _partition_count(total):
    # classic pentagonal-free DP, used only as a counting reference
    table = [1] + [0] * total
    for part in range(1, total + 1):
        for s in range(part, total + 1):
            table[s] += table[s - part]
    return table[total]


@given(st.integers(min_value=0, max_value=14))
def test_partitions_of_are_valid_and_counted(total):
    seen = set()
    for p in partitions_of(total):
        assert sum(p) == total
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        seen.add(p)
    assert len(seen) == _partition_count(total)


def test_rank():
    assert rank(()) == 0
    assert rank((2, 2)) == 2
    assert rank((3, 2)) == 3
    assert rank((1, 1, 1)) == 0


def test_partitions_no_ones_up_to_rank():
    assert partitions_no_ones_up_to_rank(0) == [()]
    assert partitions_no_ones_up_to_rank(1) == [(), (2,)]
    assert partitions_no_ones_up_to_rank(2) == [(), (2,), (3,), (2, 2)]
    three = partitions_no_ones_up_to_rank(3)
    assert three == [(), (2,), (3,), (2, 2), (4,), (3, 2), (2, 2, 2)]
    with pytest.raises(ValueError):
        partitions_no_ones_up_to_rank(-1)


def test_partitions_no_ones_rank_bound_is_tight():
    for max_rank in range(5):
        for p in partitions_no_ones_up_to_rank(max_rank):
            assert rank(p) <= max_rank
            assert all(part >= 2 for part in p)


def test_z_weight_values():
    assert z_weight(()) == 1
    assert z_weight((2,)) == 2
    assert z_weight((2, 2)) == 8
    assert z_weight((2, 2, 2)) == 48
    assert z_weight((3, 2)) == 6
    assert z_weight((4,)) == 4
    assert z_weight((3, 1, 1)) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_z_weight_counts_centralizer(n):
    # n!/z_lambda permutations of each cycle type, checked by brute force
    tallies = {}
    for images in itertools.permutations(range(n)):
        t = cycle_type(images)
        tallies[t] = tallies.get(t, 0) + 1
    for lam, count in tallies.items():
        assert count == factorial(n) // z_weight(lam)


def test_permutation_of_type_blocks():
    assert permutation_of_type((1,), 1) == (0,)
    assert permutation_of_type((2,), 2) == (1, 0)
    assert permutation_of_type((2, 1), 3) == (1, 0, 2)
    assert permutation_of_type((3,), 3) == (1, 2, 0)
    with pytest.raises(ValueError):
        permutation_of_type((2,), 3)


def test_cycle_type_basics():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    with pytest.raises(ValueError):
        cycle_type((0, 0, 1))


@st.composite
def partition_with_n(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    choices = list(partitions_of(n))
    lam = draw(st.sampled_from(choices))
    return lam, n


@given(partition_with_n())
def test_permutation_round_trip(lam_n):
    lam, n = lam_n
    assert cycle_type(permutation_of_type(lam, n)) == lam


@given(partition_with_n(), st.randoms(use_true_random=False))
def test_cycle_type_is_conjugation_invariant(lam_n, rng):
    lam, n = lam_n
    pi = permutation_of_type(lam, n)
    relabel = list(range(n))
    rng.shuffle(relabel)
    relabel = tuple(relabel)
    conj = compose(relabel, compose(pi, inverse(relabel)))
    assert cycle_type(conj) == lam


@given(st.permutations(list(range(6))))
def test_compose_inverse_identity(images):
    p = tuple(images)
    ident = tuple(range(6))
    assert compose(p, inverse(p)) == ident
    assert compose(inverse(p), p) == ident
    assert cycle_type(inverse(p)) == cycle_type(p)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_perfect_matchings_are_every_fixed_point_free_involution(n):
    want = {p for p in itertools.permutations(range(2 * n))
            if all(p[s] != s and p[p[s]] == s for s in range(2 * n))}
    got = perfect_matchings(2 * n)
    assert len(got) == len(want) and set(got) == want
    # typed_matchings lists them with their types; H_n (order 2^n n!) moves
    # the matchings of one type transitively, with a stabilizer of order
    # z_rho 2^len(rho)
    typed = typed_matchings(n)
    assert [m for m, _ in typed] == got
    assert Counter(rho for _, rho in typed) == {
        rho: 2 ** n * factorial(n) // (z_weight(rho) * 2 ** len(rho))
        for rho in partitions_of(n)
    }


def test_matching_type_reads_the_cycle_type_of_a_permutation():
    # each factor's slot pair against the ties of pi: one cycle per cycle
    for n in (1, 2, 3, 4):
        pairs = [s ^ 1 for s in range(2 * n)]
        for images in itertools.permutations(range(n)):
            ties = [0] * (2 * n)
            for f, g in enumerate(images):
                ties[2 * f + 1], ties[2 * g] = 2 * g, 2 * f + 1
            assert matching_type(pairs, ties) == cycle_type(images)
    for n in range(1, 7):
        pairs = [s ^ 1 for s in range(2 * n)]
        for rho in partitions_of(n):
            assert matching_type(pairs, cycle_matching(rho, n)) == rho
