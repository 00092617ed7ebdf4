"""Span tracer that times cemoments from outside the package.

install() wraps the functions and methods listed in SPANS. A function is
replaced in every cemoments module namespace that binds it (for example
get_diagram_sum is bound in wick, moments, traces and cli), so callers that
imported it by name are traced too; a method is replaced on its class. A
span whose function no longer exists is recorded as absent instead of
raising, so the tracer keeps working when a later version renames or
removes a function.

Each span records its call count and self time: its duration minus the part
covered by traced child spans. A few spans carry a hook that records exact
work counts at the layer boundary (Wick terms per stratum, cache misses,
strata, patterns visited by trace_moment).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from math import factorial

MARK = "PERFBENCH-TRACE "


def _on_enumerate(tracer, args, kwargs, result, dt_ns):
    graph = args[0] if args else kwargs["graph"]
    beta, f = graph.beta, graph.factor_count
    key = f"{beta}:{f}"
    tracer.terms[key] += factorial(f) * (2 ** f if beta == 1 else 1)
    tracer.enum_ns[key] += dt_ns
    tracer.counts["patterns"] += len(result.pattern_map)
    if tracer.parent() == "wick.cache":
        tracer.counts["cache_misses"] += 1


def _on_strata(tracer, args, kwargs, result, dt_ns):
    tracer.counts["strata"] += len(result)


def _on_dim_eval(tracer, args, kwargs, result, dt_ns):
    if tracer.parent() == "traces.trace_moment":
        tracer.counts["patterns_visited"] += 1
        tracer.counts["zero_patterns"] += result == 0


# (span, module, qualified name, hook). Several functions may share a span;
# its self time and calls are summed over them.
SPANS = [
    ("wick.enumerate", "wick", "enumerate_wick", _on_enumerate),
    ("wick.cache", "wick", "get_diagram_sum", None),
    ("wick.build_slot_graph", "wick", "build_slot_graph", None),
    ("partitions", "partitions", "normalize_partition", None),
    ("partitions", "partitions", "partitions_of", None),
    ("partitions", "partitions", "rank", None),
    ("partitions", "partitions", "partitions_no_ones_up_to_rank",
     _on_strata),
    ("partitions", "partitions", "z_weight", None),
    ("partitions", "partitions", "permutation_of_type", None),
    ("traces.trace_moment", "traces", "trace_moment", None),
    ("traces.index_cycle_count", "traces", "index_cycle_count", None),
    ("traces.regime_asymptotics", "traces", "regime_asymptotics", None),
    ("traces.large_n_limit", "traces", "large_n_limit", None),
    ("moments.moment_series", "moments", "moment_series", None),
    ("moments.stratum_coefficient", "moments", "stratum_coefficient", None),
    ("algebra.construct", "algebra", "DimPolynomial.__init__", None),
    ("algebra.construct", "algebra", "MPolynomial.__init__", None),
    ("algebra.construct", "algebra", "TruncatedSeries.__init__", None),
    ("algebra.eval", "algebra", "DimPolynomial.eval_at", _on_dim_eval),
    ("algebra.eval", "algebra", "MPolynomial.eval_at", None),
    ("algebra.eval", "algebra", "TruncatedSeries.eval_at", None),
    ("algebra.render", "algebra", "_format_poly", None),
    ("algebra.render", "algebra", "DimPolynomial.__str__", None),
    ("algebra.render", "algebra", "MPolynomial.__str__", None),
    ("algebra.render", "traces", "TraceMomentResult.format", None),
    ("algebra.render", "cli", "format_pattern_series", None),
    ("montecarlo.sample", "montecarlo", "sample_cue", None),
    ("montecarlo.sample", "montecarlo", "sample_coe", None),
    ("montecarlo.evaluate", "montecarlo", "EntryMoment.evaluate", None),
    ("montecarlo.evaluate", "montecarlo", "BlockTraceMoment.evaluate", None),
    ("montecarlo.estimate", "montecarlo", "estimate_moment", None),
    ("montecarlo.batch", "montecarlo", "_batch_mean", None),
    ("cli", "cli", "main", None),
]


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [span, child time in ns]
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.terms = Counter()  # "beta:F" -> Wick terms enumerated
        self.enum_ns = Counter()  # "beta:F" -> enumerate_wick wall time
        self.counts = Counter()
        self.absent = []
        self.hook_errors = Counter()

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def wrap(self, span, fn, hook):
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[span] += 1
                self.self_ns[span] += dt - frame[1]
                self.total_ns[span] += dt
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, dt)
                except (AttributeError, KeyError, IndexError, TypeError):
                    # the function changed shape: keep its time, lose a count
                    self.hook_errors[span] += 1
            return result

        traced.perfbench_span = span
        return traced

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "terms": dict(self.terms),
            "enum_ns": dict(self.enum_ns),
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "hook_errors": dict(self.hook_errors),
        }


def install():
    """Import cemoments, wrap every span in SPANS and return the Tracer."""
    importlib.import_module("cemoments")
    for module in sorted({module for _, module, _, _ in SPANS}):
        try:
            importlib.import_module(f"cemoments.{module}")
        except ImportError:
            pass  # its spans are reported as absent below
    tracer = Tracer()
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "cemoments"
                              or name.startswith("cemoments."))
    ]
    for span, module, qualname, hook in SPANS:
        owner = sys.modules.get(f"cemoments.{module}")
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (AttributeError, KeyError, TypeError):
            tracer.absent.append(f"{module}.{qualname}")
            continue
        if hasattr(original, "perfbench_span"):
            continue  # an alias of an object already wrapped
        wrapped = tracer.wrap(span, original, hook)
        if path:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
    return tracer


def merge(reports):
    """Sum reports from several processes into one."""
    keys = ("calls", "self_ns", "total_ns", "terms", "enum_ns", "counts",
            "hook_errors")
    out = {key: Counter() for key in keys}
    absent = set()
    for rep in reports:
        for key, counter in out.items():
            counter.update(rep.get(key, {}))
        absent.update(rep.get("absent", []))
    merged = {key: dict(counter) for key, counter in out.items()}
    merged["absent"] = sorted(absent)
    return merged
