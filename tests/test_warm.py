"""A warm process gives the results of a cold one.

The diagram cache, the strata and their weights, the tie matching and
weight of each cycle type, and the sorted pattern order are kept between
calls. Each check here clears all of them, renders a result, then renders
the same call again from the warm caches.
"""

import pytest

from cemoments import moments, partitions, traces, wick
from cemoments.moments import moment_series
from cemoments.partitions import partitions_no_ones_up_to_rank, partitions_of
from cemoments.traces import trace_moment
from cemoments.wick import ExternalSpec, clear_diagram_cache

PARTITIONS = [lam for n in (1, 2, 3) for lam in partitions_of(n)]


def _clear_caches():
    clear_diagram_cache()
    partitions._strata.cache_clear()
    moments.stratum_coefficient.cache_clear()
    partitions.z_weight.cache_clear()
    partitions.cycle_matching.cache_clear()
    wick._pattern_order.cache_clear()


def _trace_outputs(lam, mu, cap):
    result = trace_moment(lam, mu, cap)
    return result.format(), result.to_json(), result.value_at(9, 2)


def _moment_outputs(beta, n, cap):
    ms = moment_series(ExternalSpec(beta, n), cap)
    return (ms.to_json(), ms.to_json(N=7), list(ms.evaluate_at(7).items()),
            list(ms.pattern_map.items()))


@pytest.mark.parametrize("lam", PARTITIONS)
def test_warm_trace_moments_equal_cold(lam):
    n = sum(lam)
    for mu in PARTITIONS:
        for cap in range(n, n + 3):
            _clear_caches()
            cold = _trace_outputs(lam, mu, cap)
            assert _trace_outputs(lam, mu, cap) == cold, (lam, mu, cap)


def test_trace_moments_after_a_cleared_diagram_cache_equal_warm_ones():
    # the per-type constants stay while the diagram sums are enumerated anew
    for lam in PARTITIONS:
        n = sum(lam)
        for mu in PARTITIONS:
            trace_moment(lam, mu, n + 2)
            warm = trace_moment(lam, mu, n + 2)
            clear_diagram_cache()
            cold = trace_moment(lam, mu, n + 2)
            assert cold == warm and cold.series.terms == warm.series.terms
            assert _trace_outputs(lam, mu, n + 2) == (
                cold.format(), cold.to_json(), cold.value_at(9, 2))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_warm_moment_series_equal_cold(beta, n):
    for cap in range(n, n + 3):
        _clear_caches()
        cold = _moment_outputs(beta, n, cap)
        assert _moment_outputs(beta, n, cap) == cold, (beta, n, cap)


def test_non_integer_caps_fail_fast_cold_and_warm():
    # 2.0 == 2 hashes like 2, so a cache keyed by the cap would take it
    calls = [
        lambda cap: trace_moment((2,), (2,), cap),
        lambda cap: trace_moment((2,), (1,), cap),  # the selection-rule zero
        lambda cap: moment_series(ExternalSpec(1, 2), cap),
        partitions_no_ones_up_to_rank,
    ]
    for call in calls:
        _clear_caches()
        with pytest.raises(TypeError):
            call(4.0)
        call(4)
        with pytest.raises(TypeError):
            call(4.0)


def test_non_integer_caps_fail_before_any_table_is_read(monkeypatch):
    def untouchable(*args):
        raise AssertionError("a table was read for a non-integer cap")

    monkeypatch.setattr(traces, "index_cycle_table", untouchable)
    monkeypatch.setattr(traces, "weighted_patterns", untouchable)
    monkeypatch.setattr(moments, "weighted_patterns", untouchable)
    with pytest.raises(TypeError):
        trace_moment((2,), (2,), 4.0)
    with pytest.raises(TypeError):
        moment_series(ExternalSpec(1, 2), 4.0)


def test_returned_strata_are_a_fresh_list():
    want = [(), (2,), (3,), (2, 2)]
    for _ in range(2):
        got = partitions_no_ones_up_to_rank(2)
        assert got == want
        got.append((9,))
        got[0] = (7, 7)
        got.sort()
    assert partitions_no_ones_up_to_rank(2) == want
