"""Assembly of circular-ensemble moment series from diagram sums.

Each vertex partition lam lands at one series order, u^(n + rank(lam)) with
u = 1/Omega. The stratum carries one weight, and each coset type of delta
patterns (see wick) adds that weight times its integer j(d):

    beta=1 (COE, u = 1/(N+1)):   (-1/2)^len(lam) / z_lam * j(-1)
    beta=2 (CUE, u = 1/N):       (-1)^len(lam)   / z_lam * j(0)

where j is the pattern's cycle-count polynomial from the enumerator. The
beta=1 weight matches the per-diagram bookkeeping: a diagram with vertex
structure lam and c closed cycles carries (1/z)(-1/2)^len (-1)^c at order
n + rank(lam), which is what evaluating j at d = -1 sums up. d is always
substituted after the whole polynomial is assembled; substituting earlier
would silently break the cancellations between strata of equal rank.

Since j(d) is one polynomial per coset type, the stratum loop evaluates it
once per (stratum, type) and sums the strata into one row per type: the
type's series, as integer numerators over one common denominator. A moment
series wraps each row in a series; trace_moment contracts the rows with its
index-cycle table. Neither walks the strata, and each builds at most one
Fraction per output coefficient. Patterns are listed only by the outputs
that name them. The strata and their weights are computed once per process.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .algebra import Record, TruncatedSeries
from .partitions import partitions_no_ones_up_to_rank, rank, z_weight
from .wick import expand_classes, get_diagram_sums


class EnsembleParams(Record):
    beta: int
    name: str
    d_value: int
    omega_text: str
    omega_shift: int  # Omega = N + omega_shift
    vertex_weight: Fraction  # stratum weight per part of lam, before 1/z_lam

    @classmethod
    def for_beta(cls, beta):
        if beta not in _ENSEMBLES:
            raise ValueError(f"beta must be one of {sorted(_ENSEMBLES)}")
        return _ENSEMBLES[beta]

    def omega_of_N(self, N):
        # N+1 / N: the parameter whose inverse powers the series. For beta=1
        # this is twice (beta/2)(N-1)+1; the half-strength per-part weight
        # absorbs exactly that factor, so the two parameterizations agree on
        # every moment value.
        if N < 1:
            raise ValueError("N must be >= 1")
        return N + self.omega_shift

    def u_of_N(self, N):
        return Fraction(1, self.omega_of_N(N))


_ENSEMBLES = {
    1: EnsembleParams(1, "COE", -1, "N+1", 1, Fraction(-1, 2)),
    2: EnsembleParams(2, "CUE", 0, "N", 0, Fraction(-1)),
}


@functools.cache
def stratum_coefficient(beta, lam):
    """Exact weight of every diagram in stratum lam, before its j(d)."""
    return _ENSEMBLES[beta].vertex_weight ** len(lam) / z_weight(lam)


def weighted_patterns(beta, n, cap, workers=1):
    """Sum every vertex stratum lam with n + rank(lam) <= cap, per type.

    Returns (denominator, rows): the common denominator of the stratum
    coefficients, and rows[rho], coset type rho's integer numerators for
    u^0..u^cap over it. Each stratum adds its weight, the integer
    stratum_coefficient(beta, lam) times the denominator, times the
    integer j(d) shared by all the type's delta patterns, at u^(n +
    rank(lam)). Every type that occurs has a row, even an all-zero one.
    This is the one stratum loop: moment_series and trace_moment use it.
    """
    d = _ENSEMBLES[beta].d_value
    strata = partitions_no_ones_up_to_rank(cap - n)
    weights = [stratum_coefficient(beta, lam) for lam in strata]
    denominator = math.lcm(*[w.denominator for w in weights])
    rows = {}
    for lam, w, ds in zip(strata, weights,
                          get_diagram_sums(beta, n, strata, workers)):
        power = n + rank(lam)
        weight = w.numerator * (denominator // w.denominator)
        for rho, poly in ds.classes:
            row = rows.setdefault(rho, [0] * (cap + 1))
            row[power] += weight * poly.eval_at(d)
    return denominator, rows


class MomentSeries(Record):
    """Entry-moment series; classes holds (type, series) pairs."""

    params: EnsembleParams
    n: int
    cap: int
    classes: tuple

    def _expand(self, convert=None):
        return expand_classes(self.params.beta, self.n, self.classes, convert)

    @property
    def pattern_map(self):
        """Every delta pattern with its series, in sorted pattern order."""
        return self._expand()

    def evaluate_at(self, N):
        u = self.params.u_of_N(N)
        return self._expand(lambda s: s.eval_at(u))

    def to_json(self, N=None):
        u = None if N is None else self.params.u_of_N(N)
        encoded = self._expand(lambda s: (
            s.to_json(), None if u is None else str(s.eval_at(u))))
        out = []
        for p, (series, value) in encoded.items():
            entry = {
                "ensemble": self.params.name,
                "N": "symbolic" if N is None else N,
                "pattern": [[s, int(p[s])] for s in range(len(p))],
                "series": series,
            }
            if N is not None:
                entry["value"] = value
            out.append(entry)
        return out


def moment_series(spec, order_cap, workers=1):
    """Sum the vertex strata of an entry-moment expansion up to order_cap."""
    order_cap, n = operator.index(order_cap), spec.n
    if order_cap < n:
        raise ValueError(
            f"cap {order_cap} is below the leading order u^{n}"
        )
    denominator, rows = weighted_patterns(spec.beta, n, order_cap, workers)
    zero = Fraction(0)  # one zero for every row: all are zero below u^n
    classes = tuple(
        (rho, TruncatedSeries(order_cap, [Fraction(t, denominator) if t
                                          else zero for t in row]))
        for rho, row in sorted(rows.items())
    )
    return MomentSeries(params=EnsembleParams.for_beta(spec.beta), n=n,
                        cap=order_cap, classes=classes)
