"""Library process for the assembly-warm workload.

    PYTHONPATH=src python perfbench/assembly.py --seed 1 --seconds 20

Imports cemoments and runs the query list once, which fills the diagram
cache, then prints "ready". With --setup-only it exits there. Otherwise it
runs passes over the query list, shuffled by the seed, until --seconds have
passed, alternating workers=1 and workers=2 (every diagram-cache lookup
hits, so both should cost the same). With --trace it instead runs untraced
workers=1 passes for half the time, then the same number of passes with the
span tracer installed. The last stdout line is a JSON report: pass wall
times, per-query latencies of the untraced workers=1 passes, and for each
query the SHA-256 of every rendered result with its count.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter, defaultdict

import cemoments.moments
import cemoments.traces
import cemoments.wick

import tracer

PARTITIONS = {
    1: [(1,)],
    2: [(2,), (1, 1)],
    3: [(3,), (2, 1), (1, 1, 1)],
}
REGIMES = ("fixed-M", "M=N", "M=xiN")


def _text(parts):
    return ",".join(map(str, parts))


def query_list(max_n):
    """(id, kind, params) for every query; 50 of them at max_n=3."""
    out = []
    for n in range(1, max_n + 1):
        for lam in PARTITIONS[n]:
            for mu in PARTITIONS[n]:
                out.append((f"trace {_text(lam)} {_text(mu)} cap={n + 2}",
                            "trace", (lam, mu, n + 2)))
            mu = lam + (1,)  # |mu| = n + 1: an exact zero by selection rule
            out.append((f"trace {_text(lam)} {_text(mu)} cap={n + 2}",
                        "trace", (lam, mu, n + 2)))
            for regime in REGIMES:
                out.append((f"regime {_text(lam)} {regime}",
                            "regime", (lam, regime)))
            out.append((f"limit {_text(lam)}", "limit", (lam,)))
        for beta in (1, 2):
            out.append((f"moment beta={beta} n={n} cap={n + 2} N=7",
                        "moment", (beta, n, n + 2)))
    return out


def run_query(kind, params, workers):
    """Call the library and render the result as text."""
    if kind == "trace":
        lam, mu, cap = params
        res = cemoments.traces.trace_moment(lam, mu, cap, workers=workers)
        return f"{res.format()}\n{res.value_at(9, 2)}"
    if kind == "regime":
        lam, regime = params
        rep = cemoments.traces.regime_asymptotics(lam, lam, regime,
                                                  workers=workers)
        return f"{rep.leading}\n{rep.indeterminate}\n{rep.final_below}"
    if kind == "limit":
        return str(cemoments.traces.large_n_limit(params[0], workers=workers))
    beta, n, cap = params
    spec = cemoments.wick.ExternalSpec(beta=beta, n=n)
    ms = cemoments.moments.moment_series(spec, cap, workers=workers)
    return "\n".join(f"{list(p)} {v}" for p, v in ms.evaluate_at(7).items())


def run_pass(queries, order, workers, latencies, hashes):
    clock = time.perf_counter_ns
    start = clock()
    for k in order:
        qid, kind, params = queries[k]
        t0 = clock()
        text = run_query(kind, params, workers)
        latencies.append(clock() - t0)
        hashes[qid][hashlib.sha256(text.encode()).hexdigest()] += 1
    return (clock() - start) / 1e9


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    queries = query_list(args.max_n)
    hashes = defaultdict(Counter)
    order = list(range(len(queries)))
    run_pass(queries, order, 1, [], hashes)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    report = {"queries": len(queries), "passes": {"1": [], "2": []},
              "latency_ns": []}
    deadline = time.perf_counter() + (args.seconds / 2 if args.trace
                                      else args.seconds)
    worker_counts = (1,) if args.trace else (1, 2)
    while True:
        for workers in worker_counts:
            rng.shuffle(order)
            lat = report["latency_ns"] if workers == 1 else []
            report["passes"][str(workers)].append(
                run_pass(queries, order, workers, lat, hashes))
        if time.perf_counter() >= deadline:
            break
    if args.trace:
        spans = tracer.install()
        traced = []
        for _ in report["passes"]["1"]:
            rng.shuffle(order)
            traced.append(run_pass(queries, order, 1, [], hashes))
        report["traced_passes"] = traced
        report["trace"] = spans.report()
    report["hashes"] = {qid: dict(c) for qid, c in hashes.items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
