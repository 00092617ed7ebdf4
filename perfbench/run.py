#!/usr/bin/env python3
"""Outside-in benchmark for cemoments.

  python3 perfbench/run.py --workload enum-deep --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):
  enum-deep      two deep CLI enumerations, each in a fresh process
  assembly-warm  one library process answering queries from a warm cache
  mc-crosscheck  two Monte Carlo cross-check commands

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: one untraced pass, then the same
work with perfbench/tracer.py wrapping the package's functions from outside.
Every exact output is checked against SHA-256 hashes in expected.json; a
wrong hash, a non-zero exit code or a --workers 2 output that differs from
--workers 1 counts as a failed operation. The last stdout line is
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at minimal size through the same code path.
--record stores the hashes of the current outputs in expected.json instead
of checking them; use it only on a commit whose outputs define "correct".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from math import factorial

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_FILE = os.path.join(HERE, "expected.json")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CLI_SETUPS = 11  # fresh-interpreter imports per CLI-workload run
ASSEMBLY_SETUPS = 3  # cold library processes per assembly-warm run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_w2_s": "s",
    "peak_rss_mb": "MB",
}

BETA_STRATA = {1: range(5, 9), 2: range(5, 11)}

PER_LAYER = {
    "wick.enumerate.self_s": "s",
    "wick.enumerate.calls": "count",
    **{f"wick.ns_per_term.beta{beta}.F{f}": "ns"
       for beta, fs in BETA_STRATA.items() for f in fs},
    "wick.terms.beta1": "count",
    "wick.terms.beta2": "count",
    "wick.patterns": "count",
    "wick.cache.calls": "count",
    "wick.cache.hits": "count",
    "wick.cache.hit_ratio": "ratio",
    "wick.build_slot_graph.self_s": "s",
    "partitions.self_s": "s",
    "partitions.strata": "count",
    "traces.trace_moment.self_s": "s",
    "traces.index_cycle_count.calls": "count",
    "traces.index_cycle_count.ns_per_call": "ns",
    "traces.regime_asymptotics.self_s": "s",
    "traces.large_n_limit.self_s": "s",
    "traces.zero_pattern_ratio": "ratio",
    "moments.moment_series.self_s": "s",
    "moments.stratum_coefficient.calls": "count",
    "moments.stratum_coefficient.ns_per_call": "ns",
    "algebra.construct.self_s": "s",
    "algebra.eval.self_s": "s",
    "algebra.render.self_s": "s",
    "montecarlo.sample.self_s": "s",
    "montecarlo.evaluate.self_s": "s",
    "montecarlo.estimate.self_s": "s",
    "montecarlo.batches": "count",
    "cli.self_s": "s",
    "terms_per_s.beta1": "1/s",
    "terms_per_s.beta2": "1/s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "samples_per_s.N8": "1/s",
    "samples_per_s.N32": "1/s",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
    "trace.absent_functions": "count",
}

# Spans that must record calls on each workload; a zero means the tracer
# missed a binding or the program no longer calls that function.
_SYMBOLIC_SPANS = {
    "wick.cache", "partitions", "traces.trace_moment",
    "traces.index_cycle_count", "moments.moment_series",
    "moments.stratum_coefficient", "algebra.construct", "algebra.eval",
}
EXPECTED_SPANS = {
    "enum-deep": _SYMBOLIC_SPANS | {
        "cli", "wick.enumerate", "wick.build_slot_graph", "algebra.render"},
    "assembly-warm": _SYMBOLIC_SPANS | {
        "traces.regime_asymptotics", "traces.large_n_limit",
        "algebra.render"},
    "mc-crosscheck": _SYMBOLIC_SPANS | {
        "cli", "wick.enumerate", "wick.build_slot_graph",
        "montecarlo.sample", "montecarlo.evaluate", "montecarlo.estimate",
        "montecarlo.batch"},
}


# per-command throughput, reported by the traced run from its untraced pass
RATE_METRIC = {"beta1": "terms_per_s.beta1", "beta2": "terms_per_s.beta2",
               "N8": "samples_per_s.N8", "N32": "samples_per_s.N32"}


@dataclass(frozen=True)
class Command:
    """One CLI command; `work` is its Wick terms or sampled matrices.

    An exact command's stdout must match its hash in expected.json; the
    others depend on the seed and are checked by exit code alone.
    """

    name: str
    args: tuple
    work: int
    exact: bool


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall: float
    ready: float  # seconds until the first stdout line

    @property
    def sha(self):
        return hashlib.sha256(self.out.encode()).hexdigest()


def model_terms(beta, n, cap):
    """Wick terms up to this cap: F!*2^F (beta=1) or F! for each stratum."""
    # imported here: main() puts src/ on sys.path only after checking it
    from cemoments.partitions import partitions_no_ones_up_to_rank
    from cemoments.wick import ExternalSpec, build_slot_graph

    total = 0
    for lam in partitions_no_ones_up_to_rank(cap - n):
        f = build_slot_graph(ExternalSpec(beta=beta, n=n), lam).factor_count
        total += factorial(f) * (2 ** f if beta == 1 else 1)
    return total


def enum_commands(smoke):
    """beta=1 trace and beta=2 entry moment, with their exact term counts."""
    cap1, cap2 = (3, 3) if smoke else (5, 6)
    beta1 = model_terms(1, 2, cap1)
    beta2 = model_terms(2, 2, cap2)
    if not smoke and (beta1, beta2) != (11_063_432, 4_124_306):
        raise RuntimeError(f"cost model gives {beta1} and {beta2} terms, "
                           "expected 11063432 and 4124306")
    return [
        Command("beta1", ("trace", "--lambda", "2", "--cap", str(cap1)),
                beta1, exact=True),
        Command("beta2", ("moment", "--beta", "2", "--n", "2",
                          "--cap", str(cap2)), beta2, exact=True),
    ]


def mc_commands(smoke, seed):
    sizes = ((32, 8, 400 if smoke else 20_000),
             (8, 3, 2_000 if smoke else 200_000))
    return [
        Command(f"N{n}", ("verify", "mc-coe", "--N", str(n), "--M", str(m),
                          "--samples", str(samples), "--seed", str(seed)),
                4 * samples,  # four observables, one estimate each
                exact=False)
        for n, m, samples in sizes
    ]


class Bench:
    """Child processes, the operation tally and the expected-hash gate."""

    def __init__(self, record):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.record = record
        with open(EXPECTED_FILE) as fh:
            self.expected = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.env.pop("CEMOMENTS_WORKERS", None)

    def child(self, argv):
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run limit reached")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True)
        killed = []

        def kill():
            killed.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # it ended on its own

        timer = threading.Timer(timeout, kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(
            proc.stderr.read()))
        reader.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out = first + proc.stdout.read()
            # wait4 gives the child's own max RSS, including its reaped pool
            # workers; Popen.wait would discard it
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            raise TimeoutError(f"child killed at the run limit: {argv}")
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return Child(proc.returncode, out, err[0], wall, ready)

    def check(self, ok, what, times=1):
        self.attempted += times
        if not ok:
            self.failed += times
            print(f"failed {times}x: {what}", file=sys.stderr)

    def expect(self, kind, key, sha):
        """Compare with the recorded hash, or record it under --record."""
        table = self.expected.setdefault(kind, {})
        if self.record and key not in table:
            table[key] = sha
        return table.get(key) == sha

    def save_expected(self):
        with open(EXPECTED_FILE, "w") as fh:
            json.dump(self.expected, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def cli(self, cmd, workers, want_sha=None, traced=False):
        """Run one command in a fresh process and check its output."""
        argv = ["-m", "cemoments"]
        if traced:
            argv = [os.path.join(HERE, "traced_cli.py")]
        child = self.child([*argv, *cmd.args, "--workers", str(workers)])
        label = " ".join(cmd.args)
        if want_sha is not None:
            ok = child.sha == want_sha
        elif cmd.exact:
            ok = self.expect("cli", label, child.sha)
        else:
            ok = True
        self.check(child.code == 0 and ok,
                   f"{label} --workers {workers}: exit {child.code}, "
                   f"stdout sha256 {child.sha[:12]}")
        return child

    def import_times(self, repeats):
        """Wall times of fresh interpreters that import cemoments and exit."""
        times = []
        for i in range(repeats + 1):
            child = self.child(["-c", "import cemoments"])
            if child.code != 0:
                raise RuntimeError(f"import cemoments failed:\n{child.err}")
            if i:  # the first one may compile bytecode
                times.append(child.wall)
        return times


def trace_report(child):
    lines = [ln for ln in child.err.splitlines()
             if ln.startswith(tracer.MARK)]
    if not lines:
        raise RuntimeError(f"traced child wrote no report:\n{child.err}")
    return json.loads(lines[-1][len(tracer.MARK):])


def layer_metrics(workload, rep):
    """Per-layer metrics from a merged tracer report."""
    calls, self_ns, total_ns = rep["calls"], rep["self_ns"], rep["total_ns"]
    counts, terms = rep["counts"], rep["terms"]

    def self_s(span):
        return self_ns.get(span, 0) / 1e9

    def per_call(span):
        return total_ns.get(span, 0) / calls[span] if calls.get(span) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "wick.enumerate.self_s": self_s("wick.enumerate"),
        "wick.enumerate.calls": calls.get("wick.enumerate", 0),
        "wick.patterns": counts.get("patterns", 0),
        "wick.build_slot_graph.self_s": self_s("wick.build_slot_graph"),
        "partitions.self_s": self_s("partitions"),
        "partitions.strata": counts.get("strata", 0),
        "traces.trace_moment.self_s": self_s("traces.trace_moment"),
        "traces.index_cycle_count.calls":
            calls.get("traces.index_cycle_count", 0),
        "traces.index_cycle_count.ns_per_call":
            per_call("traces.index_cycle_count"),
        "traces.regime_asymptotics.self_s":
            self_s("traces.regime_asymptotics"),
        "traces.large_n_limit.self_s": self_s("traces.large_n_limit"),
        "traces.zero_pattern_ratio": ratio(counts.get("zero_patterns", 0),
                                           counts.get("patterns_visited", 0)),
        "moments.moment_series.self_s": self_s("moments.moment_series"),
        "moments.stratum_coefficient.calls":
            calls.get("moments.stratum_coefficient", 0),
        "moments.stratum_coefficient.ns_per_call":
            per_call("moments.stratum_coefficient"),
        "montecarlo.batches": calls.get("montecarlo.batch", 0),
    }
    for beta, fs in BETA_STRATA.items():
        m[f"wick.terms.beta{beta}"] = sum(
            v for k, v in terms.items() if k.startswith(f"{beta}:"))
        for f in fs:
            key = f"{beta}:{f}"
            m[f"wick.ns_per_term.beta{beta}.F{f}"] = ratio(
                rep["enum_ns"].get(key, 0), terms.get(key, 0))
    lookups = calls.get("wick.cache", 0)
    hits = lookups - counts.get("cache_misses", 0)
    m.update({"wick.cache.calls": lookups, "wick.cache.hits": hits,
              "wick.cache.hit_ratio": ratio(hits, lookups)})
    for span in ("algebra.construct", "algebra.eval", "algebra.render",
                 "montecarlo.sample", "montecarlo.evaluate",
                 "montecarlo.estimate", "cli"):
        m[f"{span}.self_s"] = self_s(span)
    missing = sorted(s for s in EXPECTED_SPANS[workload] if not calls.get(s))
    for name in missing:
        print(f"trace: span {name} recorded no calls", file=sys.stderr)
    for name in rep["absent"]:
        print(f"trace: function {name} is absent", file=sys.stderr)
    for name, n in rep["hook_errors"].items():
        print(f"trace: {n} counts of span {name} lost", file=sys.stderr)
    m["trace.missing_spans"] = len(missing)
    m["trace.absent_functions"] = len(rep["absent"])
    return m


def cli_workload(bench, args, commands, w2_names):
    """Timed passes of enum-deep and mc-crosscheck.

    A pass runs every command at --workers 1, then the commands named in
    w2_names at --workers 2; a --workers 2 output must hash the same as
    the --workers 1 output.
    """
    if args.trace:
        plain = {c.name: bench.cli(c, 1) for c in commands}
        traced = [bench.cli(c, 1, plain[c.name].sha, traced=True)
                  for c in commands]
        m = layer_metrics(args.workload,
                          tracer.merge(map(trace_report, traced)))
        for c in commands:
            m[RATE_METRIC[c.name]] = c.work / plain[c.name].wall
        m["trace.overhead_s"] = (sum(ch.wall for ch in traced)
                                 - sum(ch.wall for ch in plain.values()))
        return m
    setups = bench.import_times(2 if args.smoke else CLI_SETUPS)
    walls, walls_w2 = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = {c.name: bench.cli(c, 1) for c in commands}
        walls.append(sum(ch.wall for ch in plain.values()))
        walls_w2.append(sum(
            bench.cli(c, 2, plain[c.name].sha).wall
            for c in commands if c.name in w2_names))
        now = time.perf_counter()
        if (now - start >= args.seconds
                or bench.deadline - now < 1.5 * (now - t0)):
            break
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_w2_s": statistics.median(walls_w2),
    }


def enum_deep(bench, args):
    return cli_workload(bench, args, enum_commands(args.smoke), {"beta1"})


def mc_crosscheck(bench, args):
    commands = mc_commands(args.smoke, args.seed)
    return cli_workload(bench, args, commands, {c.name for c in commands})


def assembly_warm(bench, args):
    base = [os.path.join(HERE, "assembly.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.smoke:
        base += ["--max-n", "2"]
    setups = []
    if not args.trace:
        for _ in range(0 if args.smoke else ASSEMBLY_SETUPS - 1):
            child = bench.child([*base, "--setup-only"])
            if child.code != 0:
                raise RuntimeError(f"assembly set-up failed:\n{child.err}")
            setups.append(child.ready)
    child = bench.child([*base, "--trace"] if args.trace else base)
    if child.code != 0:
        raise RuntimeError(f"assembly worker failed:\n{child.err}")
    setups.append(child.ready)
    report = json.loads(child.out.splitlines()[-1])
    for qid, seen in report["hashes"].items():
        for sha, n in seen.items():
            bench.check(bench.expect("queries", qid, sha),
                        f"query {qid}: sha256 {sha[:12]}", n)
    passes = report["passes"]
    if args.trace:
        m = layer_metrics(args.workload, report["trace"])
        lat = sorted(report["latency_ns"])
        m["queries_per_s"] = report["queries"] * len(passes["1"]) / sum(
            passes["1"])
        m["query_p50_us"] = statistics.median(lat) / 1e3
        # nearest rank; the run holds >= 1000 queries, so >= 10 lie beyond
        m["query_p99_us"] = lat[min(len(lat) - 1, int(0.99 * len(lat)))] / 1e3
        m["trace.overhead_s"] = sum(report["traced_passes"]) - sum(passes["1"])
        return m
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes["1"]),
        "wall_w2_s": statistics.median(passes["2"]),
    }


WORKLOADS = {
    "enum-deep": enum_deep,
    "assembly-warm": assembly_warm,
    "mc-crosscheck": mc_crosscheck,
}


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cemoments", "__init__.py")):
        print(f"error: no cemoments package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    facts = machine_facts()
    facts["load1_before"] = os.getloadavg()[0]
    bench = Bench(args.record)
    metrics = WORKLOADS[args.workload](bench, args)
    if args.trace:
        units = PER_LAYER
    else:
        metrics["peak_rss_mb"] = bench.peak_kb / 1024
        units = END_TO_END
    facts["load1_after"] = os.getloadavg()[0]
    if args.record:
        bench.save_expected()
    print(json.dumps({"machine": facts, "workload": args.workload,
                      "seed": args.seed, "smoke": args.smoke}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # per-layer metrics of another workload's commands read 0
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
