"""Exact moments of circular random-matrix ensembles.

The symbolic half enumerates Wick pairings of a hidden Gaussian model and
assembles truncated series in u = 1/Omega with exact rational coefficients;
the numeric half samples the ensembles and cross-checks the series. Only
the sampler needs numpy, and it is imported on first use of its names.
"""

from .algebra import DimPolynomial, MPolynomial, TruncatedSeries
from .moments import EnsembleParams, MomentSeries, moment_series
from .partitions import (
    partitions_no_ones_up_to_rank,
    permutation_of_type,
    rank,
    z_weight,
)
from .traces import (
    TraceMomentResult,
    large_n_limit,
    regime_asymptotics,
    trace_moment,
)
from .wick import (
    DiagramSum,
    ExternalSpec,
    SlotGraph,
    build_slot_graph,
    enumerate_wick,
    get_diagram_sum,
)

__version__ = "0.1.0"

_SAMPLER = {"SampleConfig", "estimate_moment", "sample_coe", "sample_cue"}


def __getattr__(name):
    """Load the numpy sampler on first use of its names (PEP 562)."""
    if name in _SAMPLER:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DimPolynomial",
    "MPolynomial",
    "TruncatedSeries",
    "EnsembleParams",
    "MomentSeries",
    "moment_series",
    "SampleConfig",
    "estimate_moment",
    "sample_coe",
    "sample_cue",
    "partitions_no_ones_up_to_rank",
    "permutation_of_type",
    "rank",
    "z_weight",
    "TraceMomentResult",
    "large_n_limit",
    "regime_asymptotics",
    "trace_moment",
    "DiagramSum",
    "ExternalSpec",
    "SlotGraph",
    "build_slot_graph",
    "enumerate_wick",
    "get_diagram_sum",
    "__version__",
]
