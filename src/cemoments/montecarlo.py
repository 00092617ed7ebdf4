"""Monte Carlo sampling of CUE and COE with batched error estimates.

Floats live here and only here. Haar unitaries come from QR of a complex
Ginibre matrix with the diagonal phase correction (plain QR is biased
toward the sign conventions of the factorization; multiplying each column
by r_jj/|r_jj| removes that).

Every draw is the upper-left K x K corner of W, and the whole matrix is
the corner K = N. The QR of an N x K Ginibre matrix, with the same phase
fix, gives the first K columns q of a Haar unitary (Mezzadri 2007, "How to
generate random matrices from the classical compact groups"), so a corner
costs O(N K^2), not O(N^3). The CUE corner is the top K rows of q. The COE
corner is q^T q: COE is S^T S with S Haar, its corner is S_K^T S_K for the
first K columns S_K of S, and those are q in law. At K = N this is the
whole S^T S, which has the law of S S^T since S^T is Haar whenever S is.

Reproducibility: the seed feeds a SeedSequence whose spawned children give
one PCG64 stream per batch. Each batch is drawn once and every observable
of the run is evaluated on that same array; batches are merged in batch
order with sample-count weights. So a run is bit-identical for a fixed
(seed, sample_count, batch_count, corner), whatever the worker count and
whichever observables share the run.

A batch's Gaussians are drawn whole and in one order (every real part,
then every imaginary part). Only the steps after the draw run a chunk of
about _CHUNK_BYTES of matrices at a time: the complex scaling, QR, the
phase fix and the corner. Each of these acts on one matrix at a time, so
chunking changes no bit. A batch then holds its draw, its corners and one
chunk's temporaries: under twice the draw. Observables are evaluated on
the whole batch, never per chunk, because numpy may take another loop for
a long strided product than for a short one, and that can move the last
bit.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .algebra import Record
from .moments import EnsembleParams
from .partitions import normalize_partition
from .wick import usable_cpus

GENERATOR_NAME = "PCG64"
SIGMA_TOL = 4.0  # standard errors that compare() allows a pass
# Ginibre bytes per QR chunk: each numpy call's operands stay in cache,
# and a batch holds its draw plus its corners, not several draw-sized
# temporaries. Every size from 2**15 to 2**21 draws the same bits; 2**18
# and 2**19 ran fastest on a 2-core Xeon with OpenBLAS.
_CHUNK_BYTES = 1 << 18


class SampleConfig(Record):
    ensemble: str
    N: int
    sample_count: int
    rng_seed: int
    batch_count: int = 20
    corner: int | None = None  # draw only W[:corner, :corner]

    def __post_init__(self):
        if self.ensemble not in ("CUE", "COE"):
            raise ValueError("ensemble must be CUE or COE")
        # index(): N=3.5 is a TypeError here, not deep inside numpy
        for value in (self.N, self.sample_count, self.rng_seed,
                      self.batch_count,
                      1 if self.corner is None else self.corner):
            operator.index(value)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not (self.sample_count >= self.batch_count >= 2):
            raise ValueError("need sample_count >= batch_count >= 2")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")
        if self.corner is not None and not 1 <= self.corner <= self.N:
            raise ValueError(f"corner must satisfy 1 <= corner <= "
                             f"N={self.N}, got {self.corner}")


def _haar_columns(g):
    """First k columns of a Haar unitary for each (N, k) Ginibre matrix g."""
    q, r = np.linalg.qr(g / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_corners(N, k, rng, size, corner_of):
    """corner_of(q), a (k, k) array, for the Haar columns q of each draw.

    Returns one (k, k) array, or a (size, k, k) stack. The Gaussians are
    drawn whole; QR and corner_of run on _CHUNK_BYTES of them at a time.
    """
    shape = (1 if size is None else size, N, k)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    out = np.empty((shape[0], k, k), dtype=complex)
    step = max(1, _CHUNK_BYTES // (16 * N * k))
    for start in range(0, shape[0], step):
        part = slice(start, start + step)
        out[part] = corner_of(_haar_columns(re[part] + 1j * im[part]))
    return out[0] if size is None else out


def sample_cue(N, rng, size=None, corner=None):
    """Haar unitaries, one (N, N) matrix or a (size, N, N) stack.

    With corner=K, only the upper-left K x K block of each.
    """
    k = N if corner is None else corner
    return _haar_corners(N, k, rng, size, lambda q: q[..., :k, :])


def sample_coe(N, rng, size=None, corner=None):
    """Symmetric unitaries S^T S with S Haar.

    With corner=K, only the upper-left K x K block of each.
    """
    return _haar_corners(N, N if corner is None else corner, rng, size,
                         lambda q: np.swapaxes(q, -1, -2) @ q)


class EntryMoment(Record):
    """Product of matrix entries: factors are (row, col, conjugate)."""

    factors: tuple

    @property
    def extent(self):
        """Side of the smallest upper-left corner holding every entry."""
        return max((max(i, j) + 1 for i, j, _ in self.factors), default=0)

    def check(self, N):
        for i, j, _ in self.factors:
            if not all(0 <= operator.index(k) < N for k in (i, j)):
                raise ValueError(
                    f"entry W[{i},{j}] lies outside the {N}x{N} matrix")

    def evaluate(self, w):
        out = np.ones(w.shape[0], dtype=complex)
        for i, j, conj in self.factors:
            vals = w[:, i, j]
            out = out * (np.conj(vals) if conj else vals)
        return out


class BlockTraceMoment(Record):
    """p_lam(B) * conj(p_mu(B)) over the upper-left M x M block."""

    lam: tuple
    mu: tuple
    M: int

    @property
    def extent(self):
        """Side of the smallest upper-left corner holding the block."""
        return self.M

    def check(self, N):
        normalize_partition(self.lam + self.mu)  # a part -1 would invert B
        if not 0 <= operator.index(self.M) <= N:
            raise ValueError(
                f"block size M={self.M} must satisfy 0 <= M <= N={N}")

    def evaluate(self, w):
        b = w[:, : self.M, : self.M]
        powers = {}

        def tr_power(k):
            if k not in powers:
                mat = np.linalg.matrix_power(b, k)
                powers[k] = np.trace(mat, axis1=-2, axis2=-1)
            return powers[k]

        out = np.ones(w.shape[0], dtype=complex)
        for part in self.lam:
            out = out * tr_power(part)
        for part in self.mu:
            out = out * np.conj(tr_power(part))
        return out


class EstimateResult(Record):
    mean: complex
    std_error: float
    sample_count: int
    batch_count: int
    seed: int
    generator: str = GENERATOR_NAME


def _batch_sizes(total, batches):
    base, rem = divmod(total, batches)
    return [base + (1 if b < rem else 0) for b in range(batches)]


def _batch_mean(ensemble, N, corner, size, seed_seq, observables):
    """Draw one batch and return the mean of each observable on it."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    sampler = sample_cue if ensemble == "CUE" else sample_coe
    w = sampler(N, rng, size=size, corner=corner)
    return [complex(np.mean(obs.evaluate(w))) for obs in observables]


def _combine(cfg, sizes, means):
    """Sample-weighted mean of batch means with a batch-spread stderr."""
    total = cfg.sample_count
    mean = sum((sizes[b] / total) * means[b] for b in range(cfg.batch_count))
    b_count = cfg.batch_count
    var = sum(
        (sizes[b] / total) ** 2 * abs(means[b] - mean) ** 2
        for b in range(b_count)
    ) * b_count / (b_count - 1)
    return EstimateResult(
        mean=mean,
        std_error=math.sqrt(var),
        sample_count=total,
        batch_count=b_count,
        seed=cfg.rng_seed,
    )


def estimate_moment(cfg, observables, workers=1):
    """One EstimateResult per observable, all from the same batches.

    Every observable is checked against cfg.N, and against cfg.corner
    when one is set, before any batch is drawn.
    """
    observables = tuple(observables)
    if not observables:
        raise ValueError("need at least one observable")
    for obs in observables:
        obs.check(cfg.N)
        if cfg.corner is not None and obs.extent > cfg.corner:
            raise ValueError(
                f"observable reads the {obs.extent}x{obs.extent} corner, "
                f"but the sampler draws only {cfg.corner}x{cfg.corner}")
    root = np.random.SeedSequence(cfg.rng_seed)
    children = root.spawn(cfg.batch_count)
    sizes = _batch_sizes(cfg.sample_count, cfg.batch_count)
    jobs = [
        (cfg.ensemble, cfg.N, cfg.corner, sizes[b], children[b],
         observables)
        for b in range(cfg.batch_count)
    ]
    workers = min(workers, len(jobs), usable_cpus())
    if workers <= 1:
        batches = [_batch_mean(*job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_batch_mean, *job) for job in jobs]
            batches = [f.result() for f in futures]  # batch order, always
    return [_combine(cfg, sizes, means) for means in zip(*batches)]


def compare(symbolic, estimate, trunc_bound=0.0):
    """The verdict: "pass" iff |mean - symbolic| <= SIGMA_TOL * stderr +
    trunc_bound, else "fail".
    """
    gap = abs(estimate.mean - float(symbolic))
    ok = gap <= SIGMA_TOL * estimate.std_error + trunc_bound
    return "pass" if ok else "fail"


def trace_truncation_allowance(result, N, M):
    """C * u^(cap+1) * M^min(cap+1, 2n) with C the largest coefficient."""
    series = result.series
    c = max((abs(f) for poly in series.terms for f in poly.coeffs),
            default=0)
    n = result.n
    k1 = series.cap + 1
    u = float(EnsembleParams.for_beta(1).u_of_N(N))
    return float(c) * u ** k1 * float(M) ** min(k1, 2 * n)


def entry_truncation_allowance(series, N, beta=1):
    """C * u^(cap+1) for an entry-moment pattern series."""
    c = max(abs(t) for t in series.terms)
    u = float(EnsembleParams.for_beta(beta).u_of_N(N))
    return float(c) * u ** (series.cap + 1)
