"""Every library value type keeps the contract of a frozen value.

Equal values hash equal, a value never equals one of another class with
the same fields, fields cannot be assigned or deleted, pickle and deepcopy
round-trip, and repr prints Name(field=value, ...) as recorded below.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cemoments.algebra import DimPolynomial, MPolynomial, TruncatedSeries
from cemoments.moments import EnsembleParams, moment_series
from cemoments.traces import RegimeReport, trace_moment
from cemoments.wick import ExternalSpec, build_slot_graph, get_diagram_sum


def _montecarlo():
    return pytest.importorskip("cemoments.montecarlo")


# (name, builder, first field, recorded repr)
CASES = [
    ("DimPolynomial", lambda: DimPolynomial((8, 10, 4, 2)), "coeffs",
     "DimPolynomial(coeffs=(8, 10, 4, 2))"),
    ("MPolynomial", lambda: MPolynomial((0, Fraction(1, 2), -3)), "coeffs",
     "MPolynomial(coeffs=(Fraction(0, 1), Fraction(1, 2), Fraction(-3, 1)))"),
    ("TruncatedSeries", lambda: TruncatedSeries(2, (0, 1)), "cap",
     "TruncatedSeries(cap=2, terms=(Fraction(0, 1), Fraction(1, 1), "
     "Fraction(0, 1)))"),
    ("EnsembleParams", lambda: EnsembleParams.for_beta(1), "beta",
     "EnsembleParams(beta=1, name='COE', d_value=-1, omega_text='N+1', "
     "omega_shift=1, vertex_weight=Fraction(-1, 2))"),
    ("MomentSeries", lambda: moment_series(ExternalSpec(2, 1), 2), "params",
     "MomentSeries(params=EnsembleParams(beta=2, name='CUE', d_value=0, "
     "omega_text='N', omega_shift=0, vertex_weight=Fraction(-1, 1)), n=1, "
     "cap=2, classes=(((1,), TruncatedSeries(cap=2, terms=(Fraction(0, 1), "
     "Fraction(1, 1), Fraction(0, 1)))),))"),
    ("TraceMomentResult", lambda: trace_moment((1,), (1,), 2), "lam",
     "TraceMomentResult(lam=(1,), mu=(1,), cap=2, series=TruncatedSeries("
     "cap=2, terms=(MPolynomial(coeffs=()), MPolynomial(coeffs=(Fraction(0, "
     "1), Fraction(2, 1))), MPolynomial(coeffs=()))))"),
    ("RegimeReport", lambda: RegimeReport(regime="M=N", leading="4",
                                          indeterminate=False, cap=4,
                                          final_below=1), "regime",
     "RegimeReport(regime='M=N', leading='4', indeterminate=False, cap=4, "
     "final_below=1)"),
    ("ExternalSpec", lambda: ExternalSpec(beta=1, n=2), "beta",
     "ExternalSpec(beta=1, n=2)"),
    ("SlotGraph", lambda: build_slot_graph(ExternalSpec(1, 2), (3, 2)),
     "beta", "SlotGraph(beta=1, n=2, vertex_type=(3, 2), factor_count=7)"),
    ("DiagramSum", lambda: get_diagram_sum(2, 1, (2,)), "classes",
     "DiagramSum(beta=2, n=1, vertex_type=(2,), edge_count=3, "
     "classes=(((1,), DimPolynomial(coeffs=(0, 4, 0, 2))),))"),
    ("SampleConfig", lambda: _montecarlo().SampleConfig("COE", 8, 100, 1),
     "N", "SampleConfig(ensemble='COE', N=8, sample_count=100, rng_seed=1, "
     "batch_count=20, corner=None)"),
    ("EntryMoment",
     lambda: _montecarlo().EntryMoment(((0, 1, False), (0, 1, True))),
     "factors", "EntryMoment(factors=((0, 1, False), (0, 1, True)))"),
    ("BlockTraceMoment",
     lambda: _montecarlo().BlockTraceMoment((2,), (1, 1), 3), "M",
     "BlockTraceMoment(lam=(2,), mu=(1, 1), M=3)"),
    ("EstimateResult",
     lambda: _montecarlo().EstimateResult(
         mean=(0.5 + 0.25j), std_error=0.125, sample_count=100,
         batch_count=20, seed=1), "seed",
     "EstimateResult(mean=(0.5+0.25j), std_error=0.125, sample_count=100, "
     "batch_count=20, seed=1, generator='PCG64')"),
]


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def case(request):
    name, build, field, text = request.param
    return build(), build, field, text


def test_repr_is_recorded(case):
    value, _, _, text = case
    assert repr(value) == text


def test_equal_values_hash_equal(case):
    value, build, _, _ = case
    again = build()
    assert again == value and not again != value
    assert hash(again) == hash(value)
    assert {value: 1}[again] == 1


def test_another_class_with_equal_fields_is_unequal(case):
    value, _, _, _ = case
    cls = type(value)
    # a subclass too, unless the class's own __eq__ admits it: MPolynomial
    # equals any MPolynomial, and its scalar, with the same value
    for bases in [()] if "__eq__" in vars(cls) else [(), (cls,)]:
        twin_cls = type(cls.__name__, bases, {})
        twin = object.__new__(twin_cls)
        twin.__dict__.update(vars(value))
        assert value != twin and twin != value
        assert not value == twin


def test_polynomials_in_d_and_m_are_unequal():
    d, m = DimPolynomial((8, 10, 4, 2)), MPolynomial((8, 10, 4, 2))
    assert d.coeffs == m.coeffs
    assert d != m and m != d


def test_fields_cannot_be_assigned_or_deleted(case):
    value, _, field, text = case
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("protocol", [None, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trips(case, protocol):
    value, _, _, text = case
    back = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == text


def test_deepcopy_round_trips(case):
    value, _, _, text = case
    back = copy.deepcopy(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == text
