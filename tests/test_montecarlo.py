"""Sampler correctness, reproducibility, and comparison plumbing.

Seeds are fixed so every assertion here is deterministic. The statistical
tests use four-sigma bands around exactly known values (entry moments of
low order have no truncation error at all), so a red run means a real
regression, not noise.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from cemoments import montecarlo
from cemoments.montecarlo import (
    GENERATOR_NAME,
    BlockTraceMoment,
    EntryMoment,
    SampleConfig,
    compare,
    entry_truncation_allowance,
    estimate_moment,
    sample_coe,
    sample_cue,
    trace_truncation_allowance,
)
from cemoments.moments import moment_series
from cemoments.traces import trace_moment
from cemoments.wick import ExternalSpec


def test_cue_samples_are_unitary():
    rng = np.random.Generator(np.random.PCG64(5150))
    w = sample_cue(6, rng, size=40)
    assert w.shape == (40, 6, 6)
    eye = np.eye(6)
    prod = w @ np.conj(np.swapaxes(w, -1, -2))
    assert np.max(np.abs(prod - eye)) < 1e-12
    single = sample_cue(6, rng)
    assert single.shape == (6, 6)


def test_coe_samples_are_symmetric_unitary():
    rng = np.random.Generator(np.random.PCG64(5151))
    w = sample_coe(5, rng, size=40)
    assert np.max(np.abs(w - np.swapaxes(w, -1, -2))) < 1e-12
    prod = w @ np.conj(np.swapaxes(w, -1, -2))
    assert np.max(np.abs(prod - np.eye(5))) < 1e-12


def test_single_phase_case_is_exact():
    # N = 1 collapses both ensembles to a point on the unit circle
    cfg = SampleConfig(ensemble="CUE", N=1, sample_count=4000,
                       rng_seed=99, batch_count=10)
    modulus = EntryMoment(factors=((0, 0, False), (0, 0, True)))
    [res] = estimate_moment(cfg, [modulus])
    assert abs(res.mean - 1.0) < 1e-12
    phase = EntryMoment(factors=((0, 0, False),))
    [res] = estimate_moment(cfg, [phase])
    assert abs(res.mean) <= 4.0 * res.std_error


def test_cue_entry_modulus_matches_inverse_dimension():
    cfg = SampleConfig(ensemble="CUE", N=5, sample_count=20000,
                       rng_seed=31415, batch_count=20)
    obs = EntryMoment(factors=((1, 1, False), (1, 1, True)))
    [res] = estimate_moment(cfg, [obs])
    assert abs(res.mean - 0.2) <= 4.0 * res.std_error
    assert abs(res.mean.imag) < 4.0 * res.std_error


@functools.lru_cache(maxsize=None)
def _coe3_diagonal_estimate():
    cfg = SampleConfig(ensemble="COE", N=3, sample_count=30000,
                       rng_seed=27182, batch_count=20)
    obs = EntryMoment(factors=((0, 0, False), (0, 0, True)))
    [res] = estimate_moment(cfg, [obs])
    return res


def test_coe_entry_moduli():
    res = _coe3_diagonal_estimate()
    assert abs(res.mean - 0.5) <= 4.0 * res.std_error
    cfg = SampleConfig(ensemble="COE", N=3, sample_count=30000,
                       rng_seed=27183, batch_count=20)
    off = EntryMoment(factors=((0, 1, False), (0, 1, True)))
    [res_off] = estimate_moment(cfg, [off])
    assert abs(res_off.mean - 0.25) <= 4.0 * res_off.std_error


def test_estimate_is_deterministic():
    cfg = SampleConfig(ensemble="COE", N=3, sample_count=2000,
                       rng_seed=7, batch_count=8)
    obs = EntryMoment(factors=((0, 0, False), (0, 0, True)))
    [a] = estimate_moment(cfg, [obs])
    [b] = estimate_moment(cfg, [obs])
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert a.generator == GENERATOR_NAME == "PCG64"


def test_worker_count_does_not_change_bits():
    cfg = SampleConfig(ensemble="CUE", N=4, sample_count=2000,
                       rng_seed=11, batch_count=8)
    obs = EntryMoment(factors=((2, 3, False), (2, 3, True)))
    [serial] = estimate_moment(cfg, [obs], workers=1)
    [parallel] = estimate_moment(cfg, [obs], workers=2)
    assert serial.mean == parallel.mean
    assert serial.std_error == parallel.std_error


def test_stderr_shrinks_with_sample_count():
    obs = EntryMoment(factors=((0, 0, False), (0, 0, True)))
    [small] = estimate_moment(
        SampleConfig(ensemble="CUE", N=3, sample_count=16000,
                     rng_seed=555, batch_count=20), [obs])
    [large] = estimate_moment(
        SampleConfig(ensemble="CUE", N=3, sample_count=64000,
                     rng_seed=556, batch_count=20), [obs])
    ratio = small.std_error / large.std_error
    assert 1.3 < ratio < 3.0


def test_compare_verdicts():
    res = _coe3_diagonal_estimate()
    assert compare(0.5, res) == "pass"
    # a wrong prediction two orders of magnitude beyond the noise floor
    assert compare(0.4, res) == "fail"
    # the truncation allowance widens the band by exactly its size
    gap = abs(res.mean - 0.4) - 4.0 * res.std_error
    assert compare(0.4, res, trunc_bound=gap * 1.01) == "pass"
    assert compare(0.4, res, trunc_bound=gap * 0.99) == "fail"


def test_compare_zero_observable():
    # unmatched conjugation counts average to zero exactly
    cfg = SampleConfig(ensemble="COE", N=4, sample_count=20000,
                       rng_seed=90210, batch_count=20)
    obs = BlockTraceMoment(lam=(1,), mu=(), M=2)
    [res] = estimate_moment(cfg, [obs])
    assert compare(0.0, res) == "pass"


def test_block_size_checked_against_matrix():
    cfg = SampleConfig(ensemble="COE", N=3, sample_count=100,
                       rng_seed=1, batch_count=2)
    with pytest.raises(ValueError):
        estimate_moment(cfg, [BlockTraceMoment(lam=(2,), mu=(2,), M=4)])


def _four_observables(N):
    return [
        EntryMoment(factors=((0, 0, False), (0, 0, True))),
        EntryMoment(factors=((0, N - 1, False), (0, N - 1, True))),
        BlockTraceMoment(lam=(1,), mu=(1,), M=2),
        BlockTraceMoment(lam=(2,), mu=(2,), M=2),
    ]


@pytest.mark.parametrize("ensemble", ["CUE", "COE"])
def test_joint_estimate_equals_single_estimates(ensemble, fake_pool):
    sizes = fake_pool
    cfg = SampleConfig(ensemble=ensemble, N=4, sample_count=600,
                       rng_seed=2024, batch_count=6)
    observables = _four_observables(cfg.N)
    for workers in (1, 2):
        joint = estimate_moment(cfg, observables, workers=workers)
        singles = [estimate_moment(cfg, [obs], workers=workers)[0]
                   for obs in observables]
        assert joint == singles
    assert sizes == [2] * 5  # the workers=2 calls went through the pool


@pytest.fixture
def draw_counter(monkeypatch):
    """Count calls of sample_cue and sample_coe (one per batch drawn)."""
    counts = {"CUE": 0, "COE": 0}

    def counting(name, sampler):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return sampler(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(montecarlo, "sample_cue",
                        counting("CUE", montecarlo.sample_cue))
    monkeypatch.setattr(montecarlo, "sample_coe",
                        counting("COE", montecarlo.sample_coe))
    return counts


def test_each_batch_is_drawn_once_for_all_observables(draw_counter):
    cfg = SampleConfig(ensemble="COE", N=4, sample_count=700,
                       rng_seed=3, batch_count=7)
    results = estimate_moment(cfg, _four_observables(cfg.N))
    assert len(results) == 4
    assert draw_counter["COE"] == cfg.batch_count


@pytest.mark.parametrize("observables", [
    [],
    [EntryMoment(factors=((-1, 0, False),))],
    [EntryMoment(factors=((0, -1, False),))],
    [EntryMoment(factors=((0, 0, False), (3, 0, True)))],
    [EntryMoment(factors=((0, 3, False),))],
    [BlockTraceMoment(lam=(1,), mu=(1,), M=-1)],
    [BlockTraceMoment(lam=(1,), mu=(1,), M=4)],
    # one bad observable among good ones still stops the whole run
    _four_observables(3) + [BlockTraceMoment(lam=(1,), mu=(1,), M=-1)],
    # a part -1 would estimate the trace of the inverse block
    [BlockTraceMoment(lam=(-1,), mu=(), M=2)],
    [BlockTraceMoment(lam=(1,), mu=(0,), M=2)],
])
def test_bad_observables_are_rejected_before_sampling(observables,
                                                      draw_counter):
    for ensemble in ("CUE", "COE"):
        cfg = SampleConfig(ensemble=ensemble, N=3, sample_count=100,
                           rng_seed=1, batch_count=2)
        with pytest.raises(ValueError):
            estimate_moment(cfg, observables)
    assert draw_counter == {"CUE": 0, "COE": 0}


@pytest.mark.parametrize("bad", [
    EntryMoment(factors=((0.5, 0, False), (0, 0, True))),
    EntryMoment(factors=((0, 1.0, False),)),
    BlockTraceMoment(lam=(1,), mu=(1,), M=2.5),
    BlockTraceMoment(lam=(1.5,), mu=(1,), M=2),
])
def test_non_integer_indices_are_rejected_before_sampling(bad,
                                                          draw_counter):
    # a float index passes the range check; numpy would fail only after
    # the first batch had been drawn
    for ensemble in ("CUE", "COE"):
        cfg = SampleConfig(ensemble=ensemble, N=3, sample_count=100,
                           rng_seed=1, batch_count=2)
        with pytest.raises(TypeError):
            estimate_moment(cfg, _four_observables(3) + [bad])
    assert draw_counter == {"CUE": 0, "COE": 0}


def test_block_size_bounds_are_inclusive():
    cfg = SampleConfig(ensemble="COE", N=3, sample_count=100,
                       rng_seed=1, batch_count=2)
    empty, full = estimate_moment(cfg, [
        BlockTraceMoment(lam=(1,), mu=(1,), M=0),
        BlockTraceMoment(lam=(1,), mu=(1,), M=3),
    ])
    assert empty.mean == 0 and empty.std_error == 0
    assert full.mean.real > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(ensemble="GOE", N=3, sample_count=100, rng_seed=1)
    with pytest.raises(ValueError):
        SampleConfig(ensemble="CUE", N=0, sample_count=100, rng_seed=1)
    with pytest.raises(ValueError):
        SampleConfig(ensemble="CUE", N=3, sample_count=10, rng_seed=1,
                     batch_count=20)
    with pytest.raises(ValueError):
        SampleConfig(ensemble="CUE", N=3, sample_count=10, rng_seed=1,
                     batch_count=1)
    # numpy's SeedSequence would reject it only after work had started
    with pytest.raises(ValueError, match="seed"):
        SampleConfig(ensemble="CUE", N=3, sample_count=100, rng_seed=-1)


@pytest.mark.parametrize("field,value", [
    ("N", 3.5),
    ("sample_count", 100.5),
    ("batch_count", 2.5),
    ("corner", 2.5),
    ("rng_seed", 1.5),
])
def test_non_integer_config_fields_are_rejected_before_sampling(
        field, value, draw_counter):
    # each value passes the range checks; numpy would fail only inside
    # the batch split, the seed spawn or the first draw
    good = dict(N=3, sample_count=100, batch_count=2, corner=None,
                rng_seed=1)
    for ensemble in ("CUE", "COE"):
        with pytest.raises(TypeError):
            cfg = SampleConfig(ensemble=ensemble,
                               **{**good, field: value})
            estimate_moment(cfg, [EntryMoment(((0, 0, False),))])
    assert draw_counter == {"CUE": 0, "COE": 0}


def _one_shot_columns(N, k, rng, size=None):
    """The Haar draw as written before chunking: one QR of the whole stack."""
    shape = (N, k) if size is None else (size, N, k)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _stack_size(size, N):
    """size, or a stack spanning three QR chunks of 1 column, the last short.

    With k columns the same stack spans 3k chunks.
    """
    if size != "chunks":
        return size
    return 3 * (montecarlo._CHUNK_BYTES // (16 * N)) - 5


def _corners(N):
    return (None, *sorted({1, (N + 1) // 2, N}))


def _rng():
    return np.random.Generator(np.random.PCG64(808))


@pytest.mark.parametrize("N", [1, 4, 7])
@pytest.mark.parametrize("size", [None, 9, "chunks"])
def test_full_draw_keeps_its_bits(N, size):
    size = _stack_size(size, N)
    for corner in _corners(N):
        k = N if corner is None else corner
        got = sample_cue(N, _rng(), size=size, corner=corner)
        want = _one_shot_columns(N, k, _rng(), size=size)[..., :k, :]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [1, 4, 7])
@pytest.mark.parametrize("size", [None, 9, "chunks"])
def test_whole_coe_draw_is_the_full_corner(N, size):
    size = _stack_size(size, N)
    whole = sample_coe(N, _rng(), size=size)
    corner = sample_coe(N, _rng(), size=size, corner=N)
    assert whole.tobytes() == corner.tobytes()
    for corner in _corners(N):
        q = _one_shot_columns(N, N if corner is None else corner, _rng(),
                              size=size)
        want = np.swapaxes(q, -1, -2) @ q
        got = sample_coe(N, _rng(), size=size, corner=corner)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_a_batch_peaks_under_two_and_a_half_draws():
    # tracemalloc sees numpy's buffers; one QR of the whole stack held
    # its Ginibre matrix, the scaled copy, QR's copy, Q, R and the
    # phase-fixed Q at once, about 4.5 times the Gaussian draw
    N, k, size = 8, 3, 10_000
    draw = 2 * size * N * k * 8
    sample_coe(N, _rng(), size=10, corner=k)  # LAPACK's first-call set-up
    tracemalloc.start()
    try:
        sample_coe(N, _rng(), size=size, corner=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * draw


def test_corner_draws_have_the_corner_structure():
    rng = np.random.Generator(np.random.PCG64(4242))
    g = rng.standard_normal((40, 6, 3)) + 1j * rng.standard_normal((40, 6, 3))
    q = montecarlo._haar_columns(g)
    assert q.shape == (40, 6, 3)
    gram = np.conj(np.swapaxes(q, -1, -2)) @ q
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    cue = sample_cue(6, rng, size=40, corner=3)
    coe = sample_coe(6, rng, size=40, corner=3)
    assert cue.shape == coe.shape == (40, 3, 3)
    assert np.max(np.abs(coe - np.swapaxes(coe, -1, -2))) < 1e-12
    # a corner of a unitary is a contraction
    for w in (cue, coe):
        assert np.max(np.linalg.norm(w, ord=2, axis=(-2, -1))) <= 1 + 1e-12
    # the whole matrix as its own corner is unitary again
    for w in (sample_cue(4, rng, size=10, corner=4),
              sample_coe(4, rng, size=10, corner=4)):
        prod = w @ np.conj(np.swapaxes(w, -1, -2))
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12
    assert sample_coe(4, rng, corner=2).shape == (2, 2)


@pytest.mark.parametrize("ensemble, exact", [
    # E|W00|^2, E|W01|^2, E|W00|^4, E W10 at N = 5: for COE 2/(N+1),
    # 1/(N+1), 8/((N+1)(N+3)); for CUE 1/N, 1/N, 2/(N(N+1)); zero for both
    ("COE", (2 / 6, 1 / 6, 8 / 48, 0.0)),
    ("CUE", (1 / 5, 1 / 5, 2 / 30, 0.0)),
])
def test_corner_draw_matches_full_draw_in_law(ensemble, exact):
    observables = [
        EntryMoment(factors=((0, 0, False), (0, 0, True))),
        EntryMoment(factors=((0, 1, False), (0, 1, True))),
        EntryMoment(factors=((0, 0, False),) * 2 + ((0, 0, True),) * 2),
        EntryMoment(factors=((1, 0, False),)),
    ]
    runs = {}
    for corner, seed in ((2, 61), (None, 62)):
        cfg = SampleConfig(ensemble=ensemble, N=5, sample_count=60000,
                           rng_seed=seed, batch_count=20, corner=corner)
        runs[corner] = estimate_moment(cfg, observables)
    for value, corner_est, full_est in zip(exact, runs[2], runs[None]):
        assert compare(value, corner_est) == "pass"
        assert compare(value, full_est) == "pass"
        band = 4.0 * math.hypot(corner_est.std_error, full_est.std_error)
        assert abs(corner_est.mean - full_est.mean) <= band


def test_corner_bounds_are_checked():
    for corner in (1, 3):
        assert SampleConfig(ensemble="COE", N=3, sample_count=100,
                            rng_seed=1, corner=corner).corner == corner
    for corner in (0, 4, -1):
        with pytest.raises(ValueError, match="corner"):
            SampleConfig(ensemble="COE", N=3, sample_count=100, rng_seed=1,
                         corner=corner)


@pytest.mark.parametrize("outside", [
    EntryMoment(factors=((0, 2, False), (0, 2, True))),
    EntryMoment(factors=((2, 0, False),)),
    BlockTraceMoment(lam=(1,), mu=(1,), M=3),
])
def test_observable_outside_corner_is_rejected_before_sampling(
        outside, draw_counter):
    for ensemble in ("CUE", "COE"):
        cfg = SampleConfig(ensemble=ensemble, N=4, sample_count=100,
                           rng_seed=1, batch_count=2, corner=2)
        with pytest.raises(ValueError, match="corner"):
            estimate_moment(cfg, _four_observables(2) + [outside])
    assert draw_counter == {"CUE": 0, "COE": 0}


def test_each_batch_draws_the_configured_corner(monkeypatch):
    corners = []
    real = montecarlo.sample_coe

    def spy(N, rng, size=None, corner=None):
        corners.append(corner)
        return real(N, rng, size=size, corner=corner)

    monkeypatch.setattr(montecarlo, "sample_coe", spy)
    cfg = SampleConfig(ensemble="COE", N=6, sample_count=300, rng_seed=5,
                       batch_count=3, corner=2)
    estimate_moment(cfg, _four_observables(2))
    assert corners == [2, 2, 2]


@pytest.mark.parametrize("ensemble", ["CUE", "COE"])
def test_joint_estimate_equals_single_estimates_in_corner(ensemble,
                                                          fake_pool):
    sizes = fake_pool
    cfg = SampleConfig(ensemble=ensemble, N=5, sample_count=600,
                       rng_seed=2025, batch_count=6, corner=2)
    observables = _four_observables(2)
    for workers in (1, 2):
        joint = estimate_moment(cfg, observables, workers=workers)
        singles = [estimate_moment(cfg, [obs], workers=workers)[0]
                   for obs in observables]
        assert joint == singles
    assert sizes == [2] * 5


def test_trace_truncation_allowance_value():
    result = trace_moment((2,), (2,), 4)
    allowance = trace_truncation_allowance(result, N=8, M=3)
    assert allowance == pytest.approx(20.0 * 3 ** 4 / 9 ** 5)


def test_entry_truncation_allowance_value():
    series = moment_series(ExternalSpec(beta=1, n=1), 4)
    pattern_series = series.pattern_map[(0, 1)]
    allowance = entry_truncation_allowance(pattern_series, N=8)
    assert allowance == pytest.approx((1.0 / 9.0) ** 5)
    allowance_cue = entry_truncation_allowance(pattern_series, N=8, beta=2)
    assert allowance_cue == pytest.approx((1.0 / 8.0) ** 5)


@pytest.mark.slow
def test_block_trace_separates_engine_from_retained_reference():
    """A million samples resolve the second-order coefficient dispute.

    For the (1,1) pair traces on a 2 x 2 block of COE(9), the engine's
    series evaluates to 37/125 = 0.296 exactly (through order five; the
    next omitted order shifts that by under 7.7e-4). The retained
    reference tuple for the fourth-order coefficient predicts 0.2896
    instead. The gap between the two predictions is more than ten
    standard errors at this sample count, so the sampler tells them
    apart decisively.
    """
    cfg = SampleConfig(ensemble="COE", N=9, sample_count=1_000_000,
                       rng_seed=424242, batch_count=40)
    obs = BlockTraceMoment(lam=(1, 1), mu=(1, 1), M=2)
    [res] = estimate_moment(cfg, [obs])
    allowance = 7.68e-4
    engine_value = 0.296
    reference_value = 0.2896
    band = 4.0 * res.std_error + allowance
    assert abs(res.mean - engine_value) <= band
    assert abs(res.mean - reference_value) > band


def test_sampling_pool_is_bounded_by_batches_and_cpus(fake_pool):
    sizes = fake_pool
    obs = EntryMoment(factors=((0, 0, False), (0, 0, True)))
    for batches in (3, 20):
        cfg = SampleConfig(ensemble="COE", N=3, sample_count=60,
                           rng_seed=7, batch_count=batches)
        serial = estimate_moment(cfg, [obs], workers=1)
        for workers in (2, 64):
            assert estimate_moment(cfg, [obs], workers=workers) == serial
    assert sizes == [2, 3, 2, 4]
