"""Moments of traces over the upper-left M x M block of a COE matrix.

For power-sum observables p_lam(B) conj(p_mu(B)) the free block indices are
never summed numerically. Each z-factor t is an entry Z[i_t, i_{pi(t)}]
where pi is a fixed permutation of cycle type lam, so the column slot of
factor t and the row slot of factor pi(t) carry the same summed index; mu
plays the same role on the conjugate side. Overlaying those ties on a
diagram's delta pattern closes the external slots into disjoint index
cycles, and each cycle contributes a free sum over the block: a factor M.
The patterns of a coset type share j(d), so index_cycle_table counts them
by index cycles from the typed matchings of the z-slots, with the ties of
lam and mu as cycle matchings, and builds no pattern. trace_moment takes
the per-type rows of the stratum loop in moments, which are the entry
series of each coset type, and contracts them with that table, in integers
over the loop's common denominator. The result is a truncated series in
u = 1/(N+1) whose coefficients are exact polynomials in M.

The final moment is a class function of (pi, pi'); any representative of
the cycle type gives the same series (there is a property test for that),
so the canonical consecutive-block permutation is used.

Large N is read in three regimes: M fixed, M = xi N and M = N (xi = 1).
Since N = (1-u)/u, the last two substitute M = xi (1-u)/u, which sends
u^k M^j to xi^j u^(k-j) (1-u)^j.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

from .algebra import (
    MPolynomial,
    Record,
    TruncatedSeries,
    _format_poly,
    format_series,
    format_terms,
    power_of,
)
from .moments import EnsembleParams, weighted_patterns
from .partitions import (
    cycle_matching,
    matching_type,
    normalize_partition,
    partitions_of,
    typed_matchings,
    z_weight,
)


class TraceMomentResult(Record):
    lam: tuple
    mu: tuple
    cap: int
    series: TruncatedSeries

    @property
    def n(self):
        return sum(self.lam)

    @property
    def selection_rule_zero(self):
        return sum(self.mu) != self.n

    def value_at(self, N, M):
        # index(): a float N or M would carry floats into the exact series
        N, M = operator.index(N), operator.index(M)
        if N < 1 or M < 0:
            raise ValueError("need matrix size N >= 1 and block size M >= 0")
        if M > N:
            raise ValueError("block size M cannot exceed N")
        return self.series.eval_at(EnsembleParams.for_beta(1).u_of_N(N), m=M)

    def format(self):
        if self.selection_rule_zero:
            return "0 (selection rule: |lambda| != |mu|)"
        return format_series(self.series, self.n)

    def to_json(self):
        data = {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "cap": self.cap,
            "series": [
                {
                    "u_power": k,
                    "M_poly": self.series.coefficient(k).to_json(),
                }
                for k in range(self.cap + 1)
            ],
        }
        if self.selection_rule_zero:
            data["selection_rule"] = "|lambda| != |mu| forces an exact zero"
        return data


def index_cycle_count(ties, matching):
    """Cycles of lam's ties with a matching, each a free block index (M)."""
    seen, cycles = bytearray(len(ties)), 0
    for s in range(len(ties)):
        if not seen[s]:  # a new cycle: walk it, a tie then a matched pair
            cycles += 1
            while not seen[s]:
                seen[s] = seen[ties[s]] = 1
                s = matching[ties[s]]
    return cycles


@functools.cache
def _matching_counts(n):
    """C[sigma, nu][rho]: the matchings X of the 2n z-slots by two types.

    A pairs each factor's two slots. C[sigma, nu][rho] counts the matchings
    X with type(A, X) = rho and type(X, Y) = nu for Y of type sigma, here
    cycle_matching(sigma, n). Every such Y gives the same counts: the
    stabilizer of A keeps both types and moves Y to any matching of its type.
    """
    counts = defaultdict(Counter)
    for sigma in partitions_of(n):
        y = cycle_matching(sigma, n)
        for x, rho in typed_matchings(n):
            counts[sigma, matching_type(x, y)][rho] += 1
    return counts


def index_cycle_table(lam, mu):
    """T[rho][k]: the delta patterns of coset type rho with k index cycles.

    A pattern is a labelled matching X of the z-slots (wick), and it pulls
    mu's ties back to a matching Y, with type(A, X) = rho and type(X, Y) =
    mu. Its index cycles are those of Y with lam's ties, the matching
    cycle_matching(lam, n). Each pair (X, Y) comes from 2^len(mu) z_mu
    patterns, so T sums C over the typed matchings Y, counted first by
    (type, index cycles).
    """
    n = sum(lam)
    counts = _matching_counts(n)
    ties = cycle_matching(lam, n)
    scale = 2 ** len(mu) * z_weight(mu)
    ys = Counter((sigma, index_cycle_count(ties, y))
                 for y, sigma in typed_matchings(n))
    table = defaultdict(dict)
    for (sigma, k), count in ys.items():
        for rho, xs in counts[sigma, mu].items():
            cycles = table[rho]
            cycles[k] = cycles.get(k, 0) + scale * xs * count
    return table


def _checked_query(lam, mu, cap):
    """Normalized lam and mu, n = |lam| and the cap (default max(4, n+1))."""
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    n = sum(lam)
    cap = max(4, n + 1) if cap is None else operator.index(cap)
    if cap < n:
        raise ValueError(f"cap {cap} is below the leading order u^{n}")
    return lam, mu, n, cap


def trace_moment(lam, mu, cap=None, workers=1):
    """Series for < p_lam(B) conj(p_mu(B)) > over the M x M block."""
    lam, mu, n, cap = _checked_query(lam, mu, cap)
    if sum(mu) != n:
        # phase invariance: z and z-bar counts must match, term by term
        return TraceMomentResult(
            lam, mu, cap, TruncatedSeries(cap, [MPolynomial()] * (cap + 1))
        )
    table = index_cycle_table(lam, mu)
    denominator, rows = weighted_patterns(1, n, cap, workers)
    # numerators by power from u^n (rows are zero below) and index cycles
    width = 1 + max((k for rho in rows for k in table[rho]), default=0)
    grid = {power: [0] * width for power in range(n, cap + 1)}
    for rho, row in rows.items():
        for k, count in table[rho].items():
            for power in range(n, cap + 1):
                grid[power][k] += row[power] * count
    terms = [MPolynomial()] * n
    for power, numerators in grid.items():
        poly = MPolynomial([Fraction(c, denominator) if c
                            else MPolynomial._zero for c in numerators])
        # every index cycle takes up at least one of lam's n variable ties,
        # so the M-degree is at most n; with terms starting at u^n that
        # reads deg <= min(k, n)
        if poly.degree > min(power, n):
            raise AssertionError(
                "index cycles exceeded the M-degree bound deg <= min(k, n)"
            )
        if poly and poly.coefficient(0) != 0:
            raise AssertionError("every term must carry at least one cycle")
        terms.append(poly)
    return TraceMomentResult(lam, mu, cap, TruncatedSeries(cap, terms))


class RegimeReport(Record):
    regime: str
    leading: str
    indeterminate: bool
    cap: int
    final_below: int  # orders below this are untouchable by uncomputed terms


REGIMES = ("fixed-M", "M=N", "M=xiN")


def regime_asymptotics(lam, mu, regime, cap=None, workers=1):
    """Leading large-N behavior of the trace moment in one scaling regime.

    Writing c[k][j] for the u^k M^j coefficient, the u^m row is c[m] over M
    at fixed M. The substitution makes it sum_t (-1)^t C(j, t) c[m+j-t][j]
    at each xi^j for M = xi N, and that row's sum for M = N. Uses only the
    computed truncation: an uncomputed order k > cap feeds substituted
    powers as low as u^(k - min(k, 2n)), so a substituted leading term is
    only declared below cap+1-2n; otherwise the verdict is indeterminate at
    this cap. A substituted row m reads only the orders m..m+n, so the
    series is built through u^(cap-n), and not at all when cap < 2n.
    Fixed-M orders are never fed from above, and the u^n row always leads:
    only the empty stratum reaches u^n, with weight 1 and j(d) = 1, so that
    row counts patterns by their M^k, k >= 1, and is never zero. The series
    is then built only through u^n.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    lam, mu, n, cap = _checked_query(lam, mu, cap)
    if sum(mu) != n:
        return RegimeReport(regime=regime, leading="0", indeterminate=False,
                            cap=cap, final_below=cap + 1)
    if regime == "fixed-M":
        final_below = cap + 1
        series = trace_moment(lam, mu, n, workers=workers).series
        rows = [(n, series.coefficient(n).coeffs)]
    else:
        final_below, rows = max(0, cap + 1 - 2 * n), []
        if final_below:  # j <= min(k, n), trace_moment's M-degree bound
            c = trace_moment(lam, mu, cap - n,
                             workers=workers).series.coefficient
            rows = ((m, [sum((-1) ** t * comb(j, t)
                             * c(m + j - t).coefficient(j)
                             for t in range(j + 1)) for j in range(n + 1)])
                    for m in range(final_below))
    var = "M" if regime == "fixed-M" else "xi"
    for m, row in rows:
        row = [sum(row)] if regime == "M=N" else row
        if any(row):
            tail = f"/{power_of('N', m)}" if m else ""
            leading = format_terms([(False, _format_poly(row, var), tail)])
            return RegimeReport(regime=regime, leading=leading,
                                indeterminate=False, cap=cap,
                                final_below=final_below)
    return RegimeReport(regime=regime, leading="indeterminate at this cap",
                        indeterminate=True, cap=cap, final_below=final_below)


def large_n_limit(lam, workers=1):
    """Constant term of the diagonal trace moment at full block size M = N.

    At xi = 1 the u^0 term of u^(k-j) (1-u)^j needs j = k, and since
    j <= n <= k (trace_moment's M-degree bound and leading order), only the
    M^n coefficient at u^n contributes: a single computation at cap n.
    """
    lam = normalize_partition(lam)
    n = sum(lam)
    series = trace_moment(lam, lam, n, workers=workers).series
    total = series.coefficient(n).coefficient(n)
    if total.denominator != 1:
        raise AssertionError(f"constant term {total} is not an integer")
    return int(total)
