"""Exact values: polynomials in d and M, truncated series in u."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cemoments.algebra import (
    DimPolynomial,
    MPolynomial,
    TruncatedSeries,
    _format_poly,
)

# cycle-count polynomials for the first few vertex types, coefficients
# ascending; frozen engine outputs that double as fixtures
J_PAIR = (8, 10, 4, 2)
J_TRIPLE = (48, 74, 49, 16, 5)
J_QUAD = (384, 688, 528, 242, 64, 14)

small_ints = st.integers(min_value=-99, max_value=99)
coeff_lists = st.lists(small_ints, max_size=7)


def test_dim_poly_strips_trailing_zeros_and_is_canonical():
    assert DimPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert DimPolynomial((0, 0)).coeffs == ()
    assert DimPolynomial() == DimPolynomial((0,))
    assert not DimPolynomial()
    assert DimPolynomial((3,))


@pytest.mark.parametrize("coeffs", [(1.5, 2.9), ("3",), (0.1,), ("1/2",)])
def test_dim_poly_rejects_non_integer_coefficients(coeffs):
    # int() would truncate 1.5 and parse "3", and Fraction() would take 0.1
    # and "1/2"; only true integers (and Fractions, in M) are taken
    for poly in (DimPolynomial, MPolynomial):
        with pytest.raises(TypeError):
            poly(coeffs)


def test_dim_poly_str_descending():
    assert str(DimPolynomial(J_PAIR)) == "2d^3+4d^2+10d+8"
    assert str(DimPolynomial(J_QUAD)) == "14d^5+64d^4+242d^3+528d^2+688d+384"
    assert str(DimPolynomial()) == "0"
    assert str(DimPolynomial((0, -1))) == "-d"
    assert str(DimPolynomial((-2, 0, 1))) == "d^2-2"


def test_dim_poly_eval_at_minus_one():
    # the alternating sums that drive the rank cancellations
    assert DimPolynomial(J_PAIR).eval_at(-1) == 0
    assert DimPolynomial(J_TRIPLE).eval_at(-1) == 12
    assert DimPolynomial(J_QUAD).eval_at(-1) == 32


def test_dim_poly_eval_is_exact_rational():
    val = DimPolynomial((1, 2)).eval_at(Fraction(1, 3))
    assert val == Fraction(5, 3)
    assert isinstance(val, Fraction)


def test_dim_poly_degree_and_leading():
    p = DimPolynomial(J_PAIR)
    assert p.degree == 3
    assert p.leading_coefficient == 2
    assert p.coefficient(1) == 10
    # past the degree, and below 0, the zero is an int
    for power in (17, -1):
        assert p.coefficient(power) == 0
        assert type(p.coefficient(power)) is int
    assert DimPolynomial().leading_coefficient == 0


@given(coeff_lists)
def test_dim_poly_json_round_trip(a):
    p = DimPolynomial(a)
    data = p.to_json()
    assert all(isinstance(s, str) for s in data)
    assert tuple(int(s) for s in data) == p.coeffs


def test_dim_poly_json_survives_huge_coefficients():
    p = DimPolynomial((10**40, -(10**41), 7))
    assert tuple(int(s) for s in p.to_json()) == p.coeffs


def test_m_poly_str():
    assert str(MPolynomial((0, 4, 4))) == "4M^2+4M"
    assert str(MPolynomial((0, 2))) == "2M"
    assert str(MPolynomial()) == "0"
    assert str(MPolynomial((0, 1, Fraction(-3, 2)))) == "-3/2M^2+M"
    assert str(MPolynomial((Fraction(-1, 3), 0, Fraction(-1, 2)))) == (
        "-1/2M^2-1/3")
    assert str(MPolynomial((1, -1, 1))) == "M^2-M+1"
    assert str(MPolynomial((0, -1))) == "-M"
    assert str(MPolynomial((-1,))) == "-1"
    assert str(MPolynomial((Fraction(5, 7),))) == "5/7"
    # the large-N regimes render xi-polynomials from plain coefficient lists
    assert _format_poly([0, Fraction(1, 2), -1], "xi") == "-xi^2+1/2xi"
    assert _format_poly([Fraction(-4, 3), 1], "xi") == "xi-4/3"
    assert _format_poly([0, 0], "xi") == "0"


def test_m_poly_scalar_interop():
    assert MPolynomial((3,)) == 3
    assert MPolynomial() == 0
    assert not MPolynomial((0, 1)) == 1


def test_m_poly_eval_and_terms():
    p = MPolynomial((0, 4, 4))
    assert p.eval_at(3) == 48
    assert p.degree == 2
    assert p.coefficient(0) == 0
    # past the degree, and below 0, the zero is a Fraction
    for power in (5, -1):
        assert p.coefficient(power) == 0
        assert type(p.coefficient(power)) is Fraction
    # a Fraction coefficient is kept as given, not rebuilt
    half = Fraction(1, 2)
    assert MPolynomial((half, 3)).coeffs[0] is half


@given(st.lists(st.fractions(max_denominator=12), max_size=5))
def test_m_poly_json_round_trip(a):
    p = MPolynomial(a)
    assert tuple(Fraction(s) for s in p.to_json()) == p.coeffs


def test_series_construction_pads_and_validates():
    s = TruncatedSeries(3, [1, 2])
    assert s.terms == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        TruncatedSeries(-1)
    with pytest.raises(ValueError):
        TruncatedSeries(1, [1, 2, 3])
    # int() would truncate 2.7 to the cap 2
    for cap in (2.7, "3"):
        with pytest.raises(TypeError):
            TruncatedSeries(cap, [0, 1])
    # Fraction() would take 0.1 as 3602879701896397/36028797018963968
    for term in (0.1, "1/2"):
        with pytest.raises(TypeError):
            TruncatedSeries(1, [term])


def test_series_coefficient_beyond_cap_raises():
    s = TruncatedSeries(4, [0, 1])
    assert s.coefficient(4) == 0
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_series_identity_and_zero():
    s = TruncatedSeries(3, [0, 1, Fraction(1, 2)])
    assert not any(TruncatedSeries(3).terms)
    assert any(s.terms)
    assert TruncatedSeries(3).eval_at(Fraction(1, 4)) == 0


def test_series_eval_requires_m_only_when_needed():
    plain = TruncatedSeries(2, [0, 1])
    assert plain.eval_at(Fraction(1, 4)) == Fraction(1, 4)
    mixed = TruncatedSeries(2, [0, 0, MPolynomial((0, 2))])
    with pytest.raises(ValueError):
        mixed.eval_at(Fraction(1, 2))
    assert mixed.eval_at(Fraction(1, 2), m=3) == Fraction(6, 4)


def test_series_json_round_trip_mixed_coefficients():
    s = TruncatedSeries(3, [Fraction(1, 3), 0, MPolynomial((0, 2, 1)), 5])
    data = s.to_json()
    assert data == {
        "var": "u", "cap": 3, "terms": ["1/3", "0", ["0", "2", "1"], "5"],
    }
    back = tuple(
        MPolynomial(Fraction(c) for c in t) if isinstance(t, list)
        else Fraction(t)
        for t in data["terms"]
    )
    assert back == s.terms


def _coefficient_forms(draw_ints):
    """Equal values in every representation a series coefficient can take."""
    coeffs = [Fraction(n, d) for n, d in draw_ints]
    forms = [MPolynomial(coeffs)]
    if len(MPolynomial(coeffs).coeffs) <= 1:
        value = coeffs[0] if coeffs else Fraction(0)
        forms.append(value)
        if value.denominator == 1:
            forms.append(int(value))
    return forms


small_fractions = st.tuples(st.integers(-2, 2), st.integers(1, 2))
coefficient = st.lists(small_fractions, max_size=2).flatmap(
    lambda c: st.sampled_from(_coefficient_forms(c))
)
hashable_value = st.one_of(
    coefficient,
    st.lists(coefficient, max_size=3).map(
        lambda terms: TruncatedSeries(2, terms)
    ),
)


def test_equal_constants_hash_equal():
    assert len({MPolynomial((5,)), 5}) == 1
    assert hash(MPolynomial()) == hash(0)
    assert hash(TruncatedSeries(1, [0, MPolynomial()])) == hash(
        TruncatedSeries(1, [0, 0])
    )


@given(hashable_value, hashable_value)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
