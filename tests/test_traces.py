"""Block trace moments: frozen series, selection rules, scaling regimes.

The degree-2 cases carry an independent cross-check: writing the symmetric
matrix as S S^T with S Haar unitary turns each trace moment into a degree-4
unitary integral, which the classical group-integral machinery (a 24 by 24
exact inversion over the symmetric group) evaluates with no reference to
the diagram engine. The two computations agree through every shared order,
including the second-order coefficients where this suite deliberately pins
engine output over a differing reference tuple.
"""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest

from cemoments import traces
from cemoments.algebra import MPolynomial, _format_poly, format_terms, power_of
from cemoments.moments import moment_series
from cemoments.partitions import (
    cycle_matching,
    matching_type,
    partitions_no_ones_up_to_rank,
    partitions_of,
    permutation_of_type,
    rank,
    typed_matchings,
    z_weight,
)
from cemoments.traces import (
    REGIMES,
    RegimeReport,
    TraceMomentResult,
    index_cycle_count,
    index_cycle_table,
    large_n_limit,
    regime_asymptotics,
    trace_moment,
)
from cemoments.wick import ExternalSpec, get_diagram_sum
from oracle import compose, coset_type, cycle_type, inverse

# expected nonzero coefficients, keyed by u power; tuples are ascending
# M coefficients. Orders not listed must come out identically zero.
EXPECTED = {
    ((1,), (1,)): {1: (0, 2)},
    ((2,), (2,)): {2: (0, 4, 4), 3: (0, -12, -4), 4: (0, 20, 12)},
    ((1, 1), (1, 1)): {2: (0, 0, 8), 3: (0, -16), 4: (0, 16, 16)},
    ((2,), (1, 1)): {2: (0, 8), 3: (0, -8, -8), 4: (0, 24, 8)},
    ((3,), (3,)): {3: (0, 24, 18, 6), 4: (0, -144, -126, -18)},
    ((2, 1), (2, 1)): {3: (0, 32, 8, 8), 4: (0, -128, -152, -8)},
    ((1, 1, 1), (1, 1, 1)): {3: (0, 0, 0, 48), 4: (0, 0, -288)},
    ((3,), (2, 1)): {3: (0, 24, 24), 4: (0, -168, -96, -24)},
    ((3,), (1, 1, 1)): {3: (0, 48), 4: (0, -144, -144)},
    ((2, 1), (1, 1, 1)): {3: (0, 0, 48), 4: (0, -192, -48, -48)},
}


@pytest.mark.parametrize("pair", sorted(EXPECTED), ids=str)
def test_series_through_fourth_order(pair):
    lam, mu = pair
    result = trace_moment(lam, mu, 4)
    assert not result.selection_rule_zero
    table = EXPECTED[pair]
    for k in range(5):
        got = result.series.coefficient(k)
        if k in table:
            assert got == MPolynomial(table[k]), (pair, k)
        else:
            assert got == 0, (pair, k)


def test_one_point_trace_is_exact():
    result = trace_moment((1,), (1,), 4)
    assert result.series.coefficient(1) == MPolynomial((0, 2))
    for k in (2, 3, 4):
        assert result.series.coefficient(k) == 0


# ---------------------------------------------------------------------
# independent cross-check: degree-4 unitary group integrals
# ---------------------------------------------------------------------

S4 = list(itertools.permutations(range(4)))

# per irreducible representation: box contents, hook-length product,
# dimension; shapes ordered one-row first, one-column last
IRREPS = [
    ((0, 1, 2, 3), 24, 1),
    ((0, 1, 2, -1), 8, 3),
    ((0, 1, -1, 0), 12, 2),
    ((0, 1, -1, -2), 8, 3),
    ((0, -1, -2, -3), 24, 1),
]

CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
CLASS_SIZES = [1, 6, 3, 8, 6]

CHARS = [
    (1, 1, 1, 1, 1),
    (3, 1, -1, 0, -1),
    (2, 0, 2, -1, 0),
    (3, -1, -1, 0, 1),
    (1, -1, 1, 1, -1),
]

# row-index variables of the four matrix factors behind each observable
ROWS = {(2,): (0, 1, 1, 0), (1, 1): (0, 0, 1, 1)}
COLS = (0, 0, 1, 1)


def _wg_exact(cls_idx, N):
    total = Fraction(0)
    for (contents, hook, f), chi in zip(IRREPS, CHARS):
        denom = 1
        for c in contents:
            denom *= N + c
        total += Fraction(f * f * chi[cls_idx] * hook, denom)
    return total / 576


def _ser_mul(a, b, cap):
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += x * y
    return out


def _geom_factor(c, cap):
    # 1/(N + c) after N = (1 - u)/u, i.e. u/(1 + (c-1)u)
    out = [Fraction(0)] * (cap + 1)
    ratio = Fraction(1 - c)
    acc = Fraction(1)
    for t in range(1, cap + 1):
        out[t] = acc
        acc *= ratio
    return out


def _wg_series(cls_idx, cap):
    total = [Fraction(0)] * (cap + 1)
    for (contents, hook, f), chi in zip(IRREPS, CHARS):
        ser = [Fraction(1)] + [Fraction(0)] * cap
        for c in contents:
            ser = _ser_mul(ser, _geom_factor(c, cap), cap)
        scale = Fraction(f * f * chi[cls_idx] * hook, 576)
        total = [t + scale * x for t, x in zip(total, ser)]
    return total


def _components(vars_left, vars_right, perm):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(4):
        for node in (("L", vars_left[p]), ("R", vars_right[perm[p]])):
            parent.setdefault(node, node)
    for p in range(4):
        ra = find(("L", vars_left[p]))
        rb = find(("R", vars_right[perm[p]]))
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in parent})


def _oracle_series(lam, mu, cap):
    """u-series coefficients as {M power: Fraction} dicts, index = u power.

    Row deltas contribute a free block variable per connected component
    (factor M), column deltas a full-range variable (factor N); the N
    powers fold into the series through N = (1 - u)/u.
    """
    wg_cap = cap + 2
    counts = {}
    for sigma in S4:
        rc = _components(ROWS[lam], ROWS[mu], sigma)
        for tau in S4:
            cc = _components(COLS, COLS, tau)
            cls = CLASSES.index(cycle_type(compose(sigma, inverse(tau))))
            by_rc = counts.setdefault((cls, cc), {})
            by_rc[rc] = by_rc.get(rc, 0) + 1
    out = [dict() for _ in range(cap + 1)]
    for (cls, cc), by_rc in counts.items():
        ser = _wg_series(cls, wg_cap)
        for _ in range(cc):
            ser = _ser_mul(ser, [Fraction(1), Fraction(-1)], wg_cap)
        for k in range(cap + 1):
            if k + cc > wg_cap:
                continue
            val = ser[k + cc]
            if val == 0:
                continue
            for rc, cnt in by_rc.items():
                out[k][rc] = out[k].get(rc, Fraction(0)) + val * cnt
    return out


def test_oracle_character_table_is_orthogonal():
    for a in range(5):
        for b in range(5):
            total = sum(
                CLASS_SIZES[k] * CHARS[a][k] * CHARS[b][k] for k in range(5)
            )
            assert total == (24 if a == b else 0)
    for contents, hook, f in IRREPS:
        assert 24 // hook == f


def test_oracle_weingarten_inverts_gram_matrix():
    N = 7
    gram = [
        [Fraction(N) ** len(cycle_type(compose(inverse(s), t))) for t in S4]
        for s in S4
    ]
    wg = [
        [_wg_exact(CLASSES.index(cycle_type(compose(inverse(s), t))), N)
         for t in S4]
        for s in S4
    ]
    for i in range(24):
        row = gram[i]
        for j in range(24):
            val = sum(row[k] * wg[k][j] for k in range(24))
            assert val == (1 if i == j else 0)


def test_oracle_series_expansion_is_exact():
    # multiplying the expanded 1/(N+c) factors back by (N+c) in u form
    # must return u^4 on the nose, order by order
    cap = 9
    for contents, hook, f in IRREPS:
        ser = [Fraction(1)] + [Fraction(0)] * cap
        for c in contents:
            ser = _ser_mul(ser, _geom_factor(c, cap), cap)
        for c in contents:
            ser = _ser_mul(ser, [Fraction(1), Fraction(c - 1)], cap)
        want = [Fraction(0)] * (cap + 1)
        want[4] = Fraction(1)
        assert ser == want


@pytest.mark.parametrize("pair", [
    ((2,), (2,)), ((1, 1), (1, 1)), ((2,), (1, 1)),
], ids=str)
def test_oracle_confirms_engine_at_degree_two(pair):
    lam, mu = pair
    oracle = _oracle_series(lam, mu, 4)
    engine = trace_moment(lam, mu, 4).series
    assert oracle[0] == {} and oracle[1] == {}
    for k in range(2, 5):
        got = engine.coefficient(k)
        top = max(oracle[k]) if oracle[k] else 0
        want = MPolynomial(
            oracle[k].get(j, Fraction(0)) for j in range(top + 1)
        )
        assert got == want, (pair, k)


def test_oracle_next_order_values():
    # one order past the frozen tables; the engine tests below
    # reproduce these numbers by direct enumeration
    expected = {
        ((2,), (2,)): (0, -44, -20),
        ((1, 1), (1, 1)): (0, -48, -16),
        ((2,), (1, 1)): (0, -40, -24),
    }
    for (lam, mu), coeffs in expected.items():
        bucket = _oracle_series(lam, mu, 5)[5]
        top = max(bucket)
        got = tuple(bucket.get(j, Fraction(0)) for j in range(top + 1))
        assert got == coeffs


def test_engine_matches_oracle_one_order_up():
    for lam, mu in [((2,), (2,)), ((1, 1), (1, 1)), ((2,), (1, 1))]:
        result = trace_moment(lam, mu, 5)
        oracle = _oracle_series(lam, mu, 5)
        for k in range(2, 6):
            bucket = oracle[k]
            top = max(bucket) if bucket else 0
            want = MPolynomial(
                bucket.get(j, Fraction(0)) for j in range(top + 1)
            )
            assert result.series.coefficient(k) == want, (lam, mu, k)


@pytest.mark.parametrize("pair", [
    ((2,), (2,)), ((1, 1), (1, 1)), ((2,), (1, 1)),
], ids=str)
def test_engine_matches_oracle_through_u7(pair):
    # u^7 needs strata up to F = 12 at beta=1
    lam, mu = pair
    result = trace_moment(lam, mu, 7)
    oracle = _oracle_series(lam, mu, 7)
    for k in range(8):
        bucket = oracle[k]
        top = max(bucket) if bucket else 0
        want = MPolynomial(bucket.get(j, Fraction(0)) for j in range(top + 1))
        assert result.series.coefficient(k) == want, (pair, k)


# ---------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------

def _all_partitions_up_to(size):
    out = []
    for total in range(1, size + 1):
        stack = [((), total, total)]
        while stack:
            prefix, left, largest = stack.pop()
            if left == 0:
                out.append(prefix)
                continue
            for part in range(min(left, largest), 0, -1):
                stack.append((prefix + (part,), left - part, part))
    return out


def test_selection_rule_for_unbalanced_sizes():
    parts = _all_partitions_up_to(3)
    for lam in parts:
        for mu in parts:
            if sum(lam) == sum(mu):
                continue
            result = trace_moment(lam, mu, max(4, sum(lam)))
            assert result.selection_rule_zero
            assert not any(result.series.terms)
            assert "selection rule" in result.format()


def test_symmetry_in_the_two_cycle_types():
    for lam, mu in [((2,), (1, 1)), ((3,), (2, 1)), ((2, 1), (1, 1, 1))]:
        a = trace_moment(lam, mu, 4).series
        b = trace_moment(mu, lam, 4).series
        assert a == b


def _ties(perm):
    """Variable ties of a permutation, built here independently."""
    out = [0] * (2 * len(perm))
    for f, g in enumerate(perm):
        out[2 * f + 1] = 2 * g
        out[2 * g] = 2 * f + 1
    return out


def _pattern_index_cycles(pattern, varz, varbar):
    """Index cycles of one delta pattern, walked here independently.

    The walk visits z-side slots in variable-tie pairs and hops across the
    conjugate side through the pattern and its inverse.
    """
    two_n = len(pattern)
    inv = [0] * two_n
    for s, w in enumerate(pattern):
        inv[w] = s
    visited = [False] * two_n
    cycles = 0
    for s in range(two_n):
        if visited[s]:
            continue
        cycles += 1
        cur = s
        while not visited[cur]:
            visited[cur] = True
            partner = varz[cur]
            visited[partner] = True
            cur = inv[varbar[pattern[partner]]]
    return cycles


def test_any_representative_permutation_gives_same_series():
    # the assembly only sees cycle types through the variable ties, so a
    # conjugated permutation must reproduce the series exactly
    def series_from_perms(perm_l, perm_r, cap):
        n = len(perm_l)
        varz, varbar = _ties(perm_l), _ties(perm_r)
        buckets = [dict() for _ in range(cap + 1)]
        for vertex in partitions_no_ones_up_to_rank(cap - n):
            power = n + rank(vertex)
            w = Fraction(-1, 2) ** len(vertex) / z_weight(vertex)
            pm = get_diagram_sum(1, n, vertex).pattern_map
            for pattern, poly in pm.items():
                val = poly.eval_at(-1)
                if val == 0:
                    continue
                k = _pattern_index_cycles(pattern, varz, varbar)
                buckets[power][k] = buckets[power].get(k, Fraction(0)) + w * val
        return buckets

    cases = [
        ((2, 1), (2, 1), (2, 1, 0), (2, 1, 0)),
        ((3,), (2, 1), (2, 0, 1), (0, 2, 1)),
        ((2, 1), (1, 1, 1), (2, 1, 0), (0, 1, 2)),
    ]
    for lam, mu, alt_l, alt_r in cases:
        assert cycle_type(alt_l) == lam
        assert cycle_type(alt_r) == mu
        reference = trace_moment(lam, mu, 4).series
        buckets = series_from_perms(alt_l, alt_r, 4)
        for power in range(5):
            poly = reference.coefficient(power)
            bucket = buckets[power]
            top = max(bucket) if bucket else 0
            assert poly == MPolynomial(
                bucket.get(j, Fraction(0)) for j in range(top + 1)
            )


def test_index_cycle_count_spot_values():
    # ties and matching alike: a shared edge is a cycle of its own
    assert index_cycle_count([1, 0], (1, 0)) == 1
    swap_ties = [3, 2, 1, 0]
    assert index_cycle_count(swap_ties, (3, 2, 1, 0)) == 2
    assert index_cycle_count(swap_ties, (1, 0, 3, 2)) == 1
    assert _pattern_index_cycles((0, 1, 2, 3), swap_ties, swap_ties) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_cycle_count_is_the_length_of_the_matching_type(n):
    # the count walks the cycles in place; matching_type lists them
    for lam in partitions_of(n):
        ties = cycle_matching(lam, n)
        for matching, _ in typed_matchings(n):
            assert (index_cycle_count(ties, matching)
                    == len(matching_type(ties, matching))), (lam, matching)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_index_cycle_walk_is_read_off_the_matching_counts(n):
    # a matching Y has k index cycles with lam's ties when type(ties, Y)
    # has k parts, so _matching_counts(n)[lam, kappa] already holds the
    # (type, index cycles) counts that index_cycle_table walks Y for
    counts = traces._matching_counts(n)
    for lam in partitions_of(n):
        ties = cycle_matching(lam, n)
        walked = Counter((sigma, index_cycle_count(ties, y))
                         for y, sigma in typed_matchings(n))
        read = Counter()
        for kappa in partitions_of(n):
            for sigma, count in counts[lam, kappa].items():
                read[sigma, len(kappa)] += count
        assert walked == read, lam


def test_m_degree_never_exceeds_u_power():
    # at most one index cycle per z-side variable tie: deg <= min(k, n)
    for n in (1, 2, 3):
        cap = max(4, n + 2)
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            series = trace_moment(lam, mu, cap).series
            for k in range(cap + 1):
                assert series.coefficient(k).degree <= min(k, n)


def test_m_degree_above_factor_count_is_rejected(monkeypatch):
    # one rank-1 class of one pattern with n+1 index cycles: M^(n+1) at
    # u^(n+1)
    lam = (2,)
    n = sum(lam)
    # the stratum loop returns (denominator, rows): per coset type, the
    # numerators of u^0..u^cap
    rows = {(1,) * n: [0] * (n + 1) + [1]}
    monkeypatch.setattr(traces, "weighted_patterns",
                        lambda *args: (1, rows))
    monkeypatch.setattr(traces, "index_cycle_count", lambda *args: n + 1)
    with pytest.raises(AssertionError):
        trace_moment(lam, lam, n + 1)


def test_trace_series_contracts_entry_series_with_index_cycles():
    # the two consumers of the stratum loop agree: the trace moment is the
    # sum over patterns p of the entry series of p times M^(index cycles)
    for n in (1, 2, 3):
        cap = n + 2
        entry = moment_series(ExternalSpec(1, n), cap).pattern_map
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            varz = _ties(permutation_of_type(lam, n))
            varbar = _ties(permutation_of_type(mu, n))
            want = [[Fraction(0)] * (n + 1) for _ in range(cap + 1)]
            for pattern, series in entry.items():
                k = _pattern_index_cycles(pattern, varz, varbar)
                for power in range(cap + 1):
                    want[power][k] += series.coefficient(power)
            got = trace_moment(lam, mu, cap).series
            assert [got.coefficient(power) for power in range(cap + 1)] == [
                MPolynomial(coeffs) for coeffs in want]


def test_index_cycle_table_matches_the_per_pattern_histogram():
    # T is read off perfect matchings; here every delta pattern is walked
    for n in (1, 2, 3, 4):
        patterns = list(itertools.permutations(range(2 * n)))
        types = [coset_type(p) for p in patterns]
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            varz = _ties(permutation_of_type(lam, n))
            varbar = _ties(permutation_of_type(mu, n))
            want = defaultdict(Counter)
            for pattern, rho in zip(patterns, types):
                want[rho][_pattern_index_cycles(pattern, varz, varbar)] += 1
            assert index_cycle_table(lam, mu) == want, (lam, mu)


def test_block_sum_assembly_matches_entry_series():
    # independent assembly: sum the entry-moment pattern series over all
    # explicit block index assignments instead of counting index cycles
    ms = moment_series(ExternalSpec(beta=1, n=2), 4)
    for lam, mu in [((2,), (2,)), ((1, 1), (1, 1)), ((2,), (1, 1))]:
        pi = permutation_of_type(lam, 2)
        rho = permutation_of_type(mu, 2)
        result = trace_moment(lam, mu, 4)
        for M in (1, 2, 3):
            totals = [Fraction(0)] * 5
            for i in itertools.product(range(M), repeat=2):
                for j in itertools.product(range(M), repeat=2):
                    zvals = [0] * 4
                    bvals = [0] * 4
                    for f in range(2):
                        zvals[2 * f] = i[f]
                        zvals[2 * f + 1] = i[pi[f]]
                        bvals[2 * f] = j[f]
                        bvals[2 * f + 1] = j[rho[f]]
                    for pattern, series in ms.pattern_map.items():
                        if all(zvals[s] == bvals[pattern[s]] for s in range(4)):
                            for k in range(5):
                                totals[k] += series.coefficient(k)
            for k in range(5):
                poly = result.series.coefficient(k)
                want = poly.eval_at(M) if isinstance(poly, MPolynomial) else 0
                assert totals[k] == want, (lam, mu, M, k)


# ---------------------------------------------------------------------
# evaluation, rendering, limits
# ---------------------------------------------------------------------

def test_value_at():
    t22 = trace_moment((2,), (2,), 4)
    assert t22.value_at(8, 3) == Fraction(1136, 2187)
    t11 = trace_moment((1,), (1,), 4)
    assert t11.value_at(8, 3) == Fraction(2, 3)
    with pytest.raises(ValueError):
        t22.value_at(3, 9)
    # floats never enter the exact series
    for N, M in ((8, 2.5), (8.0, 2)):
        with pytest.raises(TypeError):
            t22.value_at(N, M)


def test_default_cap_is_one_order_past_the_leading_term():
    # the selection-rule zeros need no enumeration, so n = 5 stays cheap
    assert trace_moment((2,), (1, 1, 1)).cap == 4
    assert trace_moment((3,), (3,)).cap == 4
    assert trace_moment((5,), (1,)).cap == 6
    assert regime_asymptotics((5,), (1,), "M=N").cap == 6


def test_selection_rule_follows_lambda_and_mu():
    zero = trace_moment((2,), (1, 1, 1), 4)
    assert zero.selection_rule_zero
    assert not TraceMomentResult((2,), (1, 1), 4, zero.series) \
        .selection_rule_zero


def test_format_strings():
    t22 = trace_moment((2,), (2,), 4)
    assert t22.format() == (
        "(4M^2+4M)u^2 - (4M^2+12M)u^3 + (12M^2+20M)u^4"
    )
    t11 = trace_moment((1,), (1,), 2)
    assert t11.format() == "2Mu + 0u^2"
    zero = trace_moment((2,), (1, 1, 1), 4)
    assert zero.format() == "0 (selection rule: |lambda| != |mu|)"


def test_to_json_shape():
    result = trace_moment((2,), (2,), 4)
    data = result.to_json()
    assert data["lambda"] == [2] and data["mu"] == [2]
    assert data["cap"] == 4
    assert [row["u_power"] for row in data["series"]] == [0, 1, 2, 3, 4]
    assert data["series"][2]["M_poly"] == ["0", "4", "4"]
    assert data["series"][0]["M_poly"] == []
    ruled_out = trace_moment((2,), (1, 1, 1), 4).to_json()
    assert "selection_rule" in ruled_out


def test_query_validation():
    with pytest.raises(ValueError, match=r"cap 3 is below the leading "
                                         r"order u\^4"):
        trace_moment((2, 2), (2, 2), 3)
    result = trace_moment((1, 2), (1, 1, 1), 4)
    assert (result.lam, result.mu, result.cap) == ((2, 1), (1, 1, 1), 4)
    # a truncated (2.9,) would silently give the (2,) series
    with pytest.raises(TypeError):
        trace_moment((2.9,), (2.9,), 4)


def test_large_n_limits():
    expected = {
        (1,): 2,
        (2,): 4,
        (1, 1): 8,
        (3,): 6,
        (2, 1): 8,
        (1, 1, 1): 48,
    }
    for lam, want in expected.items():
        got = large_n_limit(lam)
        assert got == want
        assert got == 2 ** len(lam) * z_weight(lam)
        # the u^0 coefficient summed over every order through cap n+2
        n = sum(lam)
        series = trace_moment(lam, lam, n + 2).series
        assert got == sum(
            series.coefficient(k).coefficient(k) for k in range(n, n + 3)
        )


def test_regime_reports():
    cases = [
        (((2,), (2,)), "fixed-M", "(4M^2+4M)/N^2", False),
        (((2,), (2,)), "M=N", "4", False),
        (((2,), (2,)), "M=xiN", "4xi^2", False),
        (((2,), (1, 1)), "fixed-M", "8M/N^2", False),
        (((2,), (1, 1)), "M=N", "indeterminate at this cap", True),
        (((1,), (1,)), "fixed-M", "2M/N", False),
        (((1,), (1,)), "M=N", "2", False),
        (((1,), (1,)), "M=xiN", "2xi", False),
    ]
    for (lam, mu), regime, leading, indet in cases:
        report = regime_asymptotics(lam, mu, regime)
        assert report.leading == leading, (lam, mu, regime)
        assert report.indeterminate is indet


def test_regime_selection_rule_and_validation():
    report = regime_asymptotics((2,), (1, 1, 1), "M=N")
    assert report.leading == "0"
    with pytest.raises(ValueError):
        regime_asymptotics((2,), (2,), "M=2N")


def _full_series_regime(lam, mu, regime, cap):
    """The verdict read off the whole series to cap, row by row.

    Builds the series through u^cap, as regime_asymptotics did before it
    built only the orders it reads, and takes the first nonzero row below
    final_below.
    """
    result = trace_moment(lam, mu, cap)
    n, c = result.n, result.series.coefficient
    if result.selection_rule_zero:
        return RegimeReport(regime=regime, leading="0", indeterminate=False,
                            cap=cap, final_below=cap + 1)
    final_below = cap + 1 if regime == "fixed-M" else max(0, cap + 1 - 2 * n)
    for m in range(final_below):
        if regime == "fixed-M":
            row, var = c(m).coeffs, "M"
        else:
            row = [sum((-1) ** t * comb(j, t) * c(m + j - t).coefficient(j)
                       for t in range(j + 1)) for j in range(n + 1)]
            row, var = [sum(row)] if regime == "M=N" else row, "xi"
        if any(row):
            tail = f"/{power_of('N', m)}" if m else ""
            leading = format_terms([(False, _format_poly(row, var), tail)])
            return RegimeReport(regime=regime, leading=leading,
                                indeterminate=False, cap=cap,
                                final_below=final_below)
    return RegimeReport(regime=regime, leading="indeterminate at this cap",
                        indeterminate=True, cap=cap, final_below=final_below)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regime_verdicts_equal_the_full_series_reading(n):
    parts = list(partitions_of(n))
    pairs = [(lam, mu) for lam in parts for mu in parts]
    pairs.append((parts[0], parts[0] + (1,)))  # |mu| = n + 1: a zero
    for lam, mu in pairs:
        for cap in range(n, n + 5):
            for regime in REGIMES:
                assert (regime_asymptotics(lam, mu, regime, cap)
                        == _full_series_regime(lam, mu, regime, cap)), (
                    lam, mu, regime, cap)


def test_regime_verdicts_build_only_the_orders_they_read(monkeypatch):
    asked = []
    real = traces.trace_moment

    def recording(lam, mu, cap=None, workers=1):
        asked.append(cap)
        return real(lam, mu, cap, workers=workers)

    monkeypatch.setattr(traces, "trace_moment", recording)
    for n in (1, 2, 3):
        lam = (n,)
        for cap in range(n, 2 * n + 3):
            asked.clear()
            regime_asymptotics(lam, lam, "fixed-M", cap)
            assert asked == [n], (n, cap)
            for regime in ("M=N", "M=xiN"):
                asked.clear()
                regime_asymptotics(lam, lam, regime, cap)
                assert asked == ([cap - n] if cap >= 2 * n else []), (
                    n, regime, cap)
    asked.clear()
    regime_asymptotics((2,), (2, 1), "M=N", 6)  # a selection-rule zero
    assert asked == []


@pytest.mark.parametrize("args, error, message", [
    (((2,), (2,), "M=2N", 1), ValueError,
     "regime must be one of ('fixed-M', 'M=N', 'M=xiN')"),
    (((2,), (2,), "M=N", 1), ValueError,
     "cap 1 is below the leading order u^2"),
    (((2,), (3,), "fixed-M", 1), ValueError,
     "cap 1 is below the leading order u^2"),
    (((2,), (2,), "M=xiN", 4.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (((), (), "fixed-M", None), ValueError,
     "need at least one external factor"),
    (((), (), "M=N", None), ValueError,
     "need at least one external factor"),
])
def test_bad_regime_queries_fail_as_before(args, error, message):
    with pytest.raises(error) as caught:
        regime_asymptotics(*args)
    assert str(caught.value) == message
