"""Entry-moment series assembly: weights, cancellations, evaluation."""

from fractions import Fraction

import pytest

from cemoments import moments
from cemoments.algebra import DimPolynomial, TruncatedSeries
from cemoments.moments import (
    EnsembleParams,
    moment_series,
    stratum_coefficient,
    weighted_patterns,
)
from cemoments.partitions import partitions_no_ones_up_to_rank, rank, z_weight
from cemoments.wick import DiagramSum, ExternalSpec, get_diagram_sum

U = TruncatedSeries  # local shorthand for expected values


def test_ensemble_params_table():
    coe = EnsembleParams.for_beta(1)
    assert (coe.name, coe.d_value, coe.omega_text) == ("COE", -1, "N+1")
    cue = EnsembleParams.for_beta(2)
    assert (cue.name, cue.d_value, cue.omega_text) == ("CUE", 0, "N")
    with pytest.raises(ValueError):
        EnsembleParams.for_beta(3)
    with pytest.raises(ValueError):
        EnsembleParams.for_beta(4)


def test_omega_and_u():
    assert EnsembleParams.for_beta(1).omega_of_N(3) == 4
    assert EnsembleParams.for_beta(2).omega_of_N(5) == 5
    u = EnsembleParams.for_beta(1).u_of_N(3)
    assert u == Fraction(1, 4)
    assert isinstance(u, Fraction)
    with pytest.raises(ValueError):
        EnsembleParams.for_beta(1).omega_of_N(0)


def test_stratum_coefficients_twisted():
    # weight (-1/2)^len / z per stratum, times the pattern's j(-1)
    def coeff(lam):
        poly = get_diagram_sum(1, 1, lam).pattern_map[(0, 1)]
        return stratum_coefficient(1, lam) * poly.eval_at(-1)

    assert coeff((2,)) == 0
    assert coeff((3,)) == -2
    assert coeff((2, 2)) == 2
    assert coeff((4,)) == -4
    assert coeff((3, 2)) == 10
    assert coeff((2, 2, 2)) == -6


def test_stratum_coefficient_untwisted_uses_constant_term():
    # d=0 removes every diagram that closes a cycle
    for lam in [(2,), (3,), (2, 2)]:
        poly = get_diagram_sum(2, 1, lam).pattern_map[(0, 1)]
        got = stratum_coefficient(2, lam) * poly.eval_at(0)
        want = Fraction((-1) ** len(lam) * poly.coefficient(0), z_weight(lam))
        assert got == want


def test_rank_1_to_3_corrections_vanish():
    ms = moment_series(ExternalSpec(beta=1, n=1), 4)
    assert set(ms.pattern_map) == {(0, 1), (1, 0)}
    for series in ms.pattern_map.values():
        assert [series.coefficient(1 + r) for r in (1, 2, 3)] == [0, 0, 0]


def test_cancellation_breakdown_by_stratum():
    # rank 2: -12/6 + 64/32 = 0, rank 3: -32/8 + 240/24 - 2304/384 = 0
    by_rank = {2: [(3,), (2, 2)], 3: [(4,), (3, 2), (2, 2, 2)]}
    expected = {2: [-2, 2], 3: [-4, 10, -6]}
    for r, lams in by_rank.items():
        pieces = []
        for lam in lams:
            poly = get_diagram_sum(1, 1, lam).pattern_map[(0, 1)]
            pieces.append(stratum_coefficient(1, lam) * poly.eval_at(-1))
        assert pieces == expected[r]
        assert sum(pieces) == 0


def test_coe_one_point_series_is_exactly_u():
    ms = moment_series(ExternalSpec(beta=1, n=1), 4)
    assert set(ms.pattern_map) == {(0, 1), (1, 0)}
    for series in ms.pattern_map.values():
        assert series == U(4, [0, 1])


def test_cue_one_point_series_is_exactly_u():
    ms = moment_series(ExternalSpec(beta=2, n=1), 3)
    assert set(ms.pattern_map) == {(0, 1)}
    assert ms.pattern_map[(0, 1)] == U(3, [0, 1])


def test_cue_two_point_series():
    ms = moment_series(ExternalSpec(beta=2, n=2), 4)
    want = {
        (0, 1, 2, 3): U(4, [0, 0, 1, 0, 1]),
        (2, 3, 0, 1): U(4, [0, 0, 1, 0, 1]),
        (0, 3, 2, 1): U(4, [0, 0, 0, -1, 0]),
        (2, 1, 0, 3): U(4, [0, 0, 0, -1, 0]),
    }
    assert ms.pattern_map == want


def test_series_orders_match_stratum_ranks():
    # coefficient at u^(1+r) is the rank-r weighted sum, nothing else
    ms = moment_series(ExternalSpec(beta=1, n=1), 4)
    for pattern, series in ms.pattern_map.items():
        for r in (1, 2, 3):
            want = sum(
                stratum_coefficient(1, lam)
                * get_diagram_sum(1, 1, lam).pattern_map[pattern].eval_at(-1)
                for lam in partitions_no_ones_up_to_rank(3) if rank(lam) == r
            )
            assert series.coefficient(1 + r) == want


def test_evaluate_at_N():
    coe = moment_series(ExternalSpec(beta=1, n=1), 4)
    values = coe.evaluate_at(3)
    assert values == {(0, 1): Fraction(1, 4), (1, 0): Fraction(1, 4)}
    cue = moment_series(ExternalSpec(beta=2, n=1), 3)
    assert cue.evaluate_at(5) == {(0, 1): Fraction(1, 5)}


def test_evaluation_matches_direct_diagram_sum():
    # recompute the same number straight from the raw counts: every diagram
    # contributes (-1)^cycles (-1/2)^len / z at order n + rank
    N = 3
    u = Fraction(1, N + 1)
    ms = moment_series(ExternalSpec(beta=1, n=1), 4)
    direct = {p: Fraction(0) for p in ms.pattern_map}
    for lam in partitions_no_ones_up_to_rank(3):
        ds = get_diagram_sum(1, 1, lam)
        w = Fraction(-1, 2) ** len(lam) / z_weight(lam)
        for pattern, poly in ds.pattern_map.items():
            contribution = sum(
                c * (-1) ** k for k, c in enumerate(poly.coeffs)
            )
            direct[pattern] += w * contribution * u ** (1 + rank(lam))
    assert direct == ms.evaluate_at(N)


def test_moment_series_json():
    ms = moment_series(ExternalSpec(beta=1, n=1), 4)
    data = ms.to_json(N=3)
    assert len(data) == 2
    assert data[0]["ensemble"] == "COE"
    assert data[0]["value"] == "1/4"
    sym = ms.to_json()
    assert sym[0]["N"] == "symbolic"
    assert "value" not in sym[0]


def test_cap_below_leading_order_rejected():
    with pytest.raises(ValueError):
        moment_series(ExternalSpec(beta=1, n=2), 1)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stratum_rows_are_the_series_of_each_type(beta, n):
    # moment_series only divides the stratum loop's rows by its denominator
    for cap in range(n, n + 3):
        denominator, rows = weighted_patterns(beta, n, cap)
        classes = dict(moment_series(ExternalSpec(beta, n), cap).classes)
        assert rows.keys() == classes.keys()
        for rho, row in rows.items():
            assert all(type(t) is int for t in row)
            assert [Fraction(t, denominator) for t in row] == list(
                classes[rho].terms)


def test_stratum_rows_keep_a_type_whose_row_is_zero(monkeypatch):
    # j(d) = 1 + d vanishes at the COE point d = -1 in every stratum
    def diagram_sums(beta, n, strata, workers=1):
        return [DiagramSum(beta, n, lam, 0, (((1,), DimPolynomial((1, 1))),))
                for lam in strata]

    monkeypatch.setattr(moments, "get_diagram_sums", diagram_sums)
    assert weighted_patterns(1, 1, 3) == (96, {(1,): [0, 0, 0, 0]})
    assert moment_series(ExternalSpec(1, 1), 3).classes == (
        ((1,), TruncatedSeries(3)),)
