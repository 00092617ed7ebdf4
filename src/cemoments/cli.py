"""Command-line front end.

Four subcommands: jpoly (cycle polynomials per delta pattern), moment
(entry-moment series), trace (block trace-moment series), verify (built-in
check suites, including the Monte Carlo cross-check). jpoly and moment
render each coset class once and print one line when all agree; only
otherwise do they list the delta patterns, one line each. Results go to
stdout, diagnostics to stderr; --json switches to machine output. Worker
count comes from --workers or the CEMOMENTS_WORKERS environment variable.
A ValueError from the engine or a MemoryError prints "error: ..." and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import format_series as format_pattern_series
from .moments import moment_series
from .partitions import normalize_partition
from .traces import trace_moment
from .wick import (
    ExternalSpec,
    coset_class_size,
    expand_classes,
    get_diagram_sum,
    get_diagram_sums,
)

# delta patterns one listing may expand; jpoly --beta 1 --n 6 --lambda 2
# lists 1,428,480 (n = 7 would list 27,740,160)
MAX_LISTED_PATTERNS = 2_000_000


def parse_partition(text, allow_ones=True):
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"partition must be comma-separated integers, got {text!r}"
        )
    try:
        return normalize_partition(parts, allow_ones=allow_ones)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def positive_int(text):
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_listing(beta, n, classes):
    """Refuse, before expanding it, a listing of too many patterns."""
    count = sum(coset_class_size(beta, n, rho) for rho, _ in classes)
    if count > MAX_LISTED_PATTERNS:
        raise ValueError(f"the listing would hold {count:,} delta patterns, "
                         f"more than {MAX_LISTED_PATTERNS:,}")


def _print_classes(beta, n, classes, render):
    """One line when every class renders alike, else one per pattern."""
    texts = [(rho, render(value)) for rho, value in classes]
    if len({text for _, text in texts}) == 1:
        print(texts[0][1])
        return
    _check_listing(beta, n, classes)
    for p, text in expand_classes(beta, n, texts).items():
        print(f"pattern {list(p)}: {text}")


def cmd_jpoly(args):
    dsum = get_diagram_sum(args.beta, args.n, args.lam)
    if args.json:
        _check_listing(args.beta, args.n, dsum.classes)
        print(json.dumps(dsum.to_json()))
        return 0
    _print_classes(args.beta, args.n, dsum.classes, str)
    return 0


def cmd_moment(args):
    cap = args.cap if args.cap is not None else args.n + 3
    ms = moment_series(
        ExternalSpec(beta=args.beta, n=args.n), cap, workers=args.workers
    )
    if args.json:
        _check_listing(args.beta, args.n, ms.classes)
        print(json.dumps(ms.to_json(N=args.N)))
        return 0
    u = None if args.N is None else ms.params.u_of_N(args.N)
    tail = f"; u=1/({ms.params.omega_text})"
    _print_classes(args.beta, args.n, ms.classes,
                   lambda s: format_pattern_series(s, args.n) + tail
                   if u is None else str(s.eval_at(u)))
    return 0


def cmd_trace(args):
    if (args.M is None) != (args.N is None):
        raise ValueError("numeric evaluation needs both --M and --N")
    mu = args.mu if args.mu is not None else args.lam
    result = trace_moment(args.lam, mu, args.cap, workers=args.workers)
    if args.M is not None:
        value = result.value_at(args.N, args.M)
    if args.json:
        data = result.to_json()
        if args.M is not None:
            data["M"] = args.M
            data["N"] = args.N
            data["value"] = str(value)
        print(json.dumps(data))
        return 0
    if args.M is not None:
        print(str(value))
        return 0
    print(result.format())
    return 0


CATALAN = {1: 1, 2: 2, 3: 5, 4: 14}


def _verify_cancellations(entry_series, emit):
    failures = 0
    # the u^(1+r) coefficient sums exactly the rank-r strata
    series = [s for _, s in entry_series.classes]
    for r in (1, 2, 3):
        ok = series and all(s.coefficient(1 + r) == 0 for s in series)
        emit({"check": f"rank-{r} cancellation", "verdict":
              "pass" if ok else "fail"},
             f"rank {r}: weighted sum vanishes for every pattern "
             f"... {'pass' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    return failures


def _verify_catalan(args, emit):
    failures = 0
    strata = [(3,), (2, 2), (4,), (3, 2), (2, 2, 2)]
    for lam, ds in zip(strata, get_diagram_sums(1, 1, strata, args.workers)):
        expected_deg = sum(lam) + len(lam)
        want_lead = 1
        for part in lam:
            want_lead *= CATALAN[part]
        ok = all(
            poly.degree == expected_deg
            and poly.leading_coefficient == want_lead
            for _, poly in ds.classes
        )
        emit({"check": f"catalan leading coefficient {list(lam)}",
              "verdict": "pass" if ok else "fail"},
             f"lambda={list(lam)}: degree {expected_deg}, leading "
             f"{want_lead} ... {'pass' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    return failures


def _mc_coe_inputs(args):
    """Sampler config and named observables; bad input raises ValueError.

    The config draws only the corner of W that the observables read.
    """
    from . import montecarlo  # the only module that needs numpy

    N, M = args.N, args.M
    entry = montecarlo.EntryMoment
    observables = {"|W[0,0]|^2": entry(((0, 0, False), (0, 0, True)))}
    if N >= 2:
        observables["|W[0,1]|^2"] = entry(((0, 1, False), (0, 1, True)))
    for part in (1, 2):
        observables[f"|p_({part})(B)|^2"] = montecarlo.BlockTraceMoment(
            (part,), (part,), M)
    # the config reports a bad N first, the block check a bad M
    cfg = montecarlo.SampleConfig(
        ensemble="COE", N=N, sample_count=args.samples,
        rng_seed=args.seed,
        corner=min(N, max(obs.extent for obs in observables.values())),
    )
    for obs in observables.values():
        obs.check(N)
    return cfg, observables


def _verify_mc_coe(args, emit, inputs, ms):
    from . import montecarlo

    failures = 0
    N, M = args.N, args.M
    cfg, observables = inputs
    print(f"seed={args.seed} generator={montecarlo.GENERATOR_NAME}",
          file=sys.stderr if args.json else sys.stdout)

    entry_allow = sum(
        montecarlo.entry_truncation_allowance(s, N, beta=1)
        for s in ms.pattern_map.values()
    )
    values = ms.evaluate_at(N)
    targets = [(sum(values.values()), entry_allow, None)]
    if N >= 2:  # the straight-through pattern only
        targets.append((values[(0, 1)], entry_allow, None))
    for part in (1, 2):
        t = trace_moment((part,), (part,), 4, workers=args.workers)
        targets.append((t.value_at(N, M),
                        montecarlo.trace_truncation_allowance(t, N, M), M))
    estimates = montecarlo.estimate_moment(
        cfg, observables.values(), workers=args.workers)
    for name, (symbolic, allowance, m_used), est in zip(
            observables, targets, estimates):
        verdict = montecarlo.compare(symbolic, est, trunc_bound=allowance)
        emit({"observable": name, "N": N, "M": m_used,
              "symbolic": float(symbolic),
              "mean": [est.mean.real, est.mean.imag],
              "stderr": est.std_error, "trunc_bound": allowance,
              "verdict": verdict},
             f"{name}: mean={est.mean.real:.6f} target={float(symbolic):.6f} "
             f"stderr={est.std_error:.2e} allowance={allowance:.2e} "
             f"... {verdict}")
        if verdict != "pass":
            failures += 1
    return failures


def cmd_verify(args):
    def emit(obj, text):
        if args.json:
            print(json.dumps(obj))
        else:
            print(text)

    # bad sampler input fails before any output
    mc_inputs = (_mc_coe_inputs(args) if args.suite in ("mc-coe", "all")
                 else None)

    @functools.cache
    def entry_series():  # two suites read the n=1 COE entry series
        return moment_series(ExternalSpec(beta=1, n=1), 4,
                             workers=args.workers)

    suites = {
        "cancellations": lambda: _verify_cancellations(entry_series(), emit),
        "catalan": lambda: _verify_catalan(args, emit),
        "mc-coe": lambda: _verify_mc_coe(args, emit, mc_inputs,
                                         entry_series()),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures = sum(suites[name]() for name in names)
    if not args.json:
        print("all checks passed" if failures == 0
              else f"{failures} check(s) FAILED")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cemoments",
        description="Exact circular-ensemble moments by diagram enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--workers", type=positive_int,
                       default=os.environ.get("CEMOMENTS_WORKERS", "1"),
                       help="process count for enumeration/sampling "
                            "(default: CEMOMENTS_WORKERS or 1)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_jpoly = sub.add_parser("jpoly", help="cycle-count polynomial in d")
    p_jpoly.add_argument("--beta", type=int, choices=(1, 2), default=1)
    p_jpoly.add_argument("--lambda", dest="lam", required=True,
                         type=lambda s: parse_partition(s, allow_ones=False),
                         help="vertex partition, comma-separated, no part 1; "
                              "empty string for the empty partition")
    p_jpoly.add_argument("--n", type=int, default=1,
                         help="external factor count (default 1)")
    add_common(p_jpoly)
    p_jpoly.set_defaults(func=cmd_jpoly)

    p_moment = sub.add_parser("moment", help="entry-moment series in u")
    p_moment.add_argument("--beta", type=int, choices=(1, 2), default=1)
    p_moment.add_argument("--n", type=int, default=1)
    p_moment.add_argument("--cap", type=int, default=None,
                          help="series truncation order (default n+3)")
    p_moment.add_argument("--N", type=int, default=None,
                          help="evaluate at this matrix size")
    add_common(p_moment)
    p_moment.set_defaults(func=cmd_moment)

    p_trace = sub.add_parser("trace",
                             help="block trace-moment series (COE)")
    p_trace.add_argument("--lambda", dest="lam", required=True,
                         type=parse_partition)
    p_trace.add_argument("--mu", type=parse_partition, default=None,
                         help="second cycle type (default: same as lambda)")
    p_trace.add_argument("--cap", type=int, default=None,
                         help="series truncation order "
                              "(default max(4, n+1))")
    p_trace.add_argument("--M", type=int, default=None)
    p_trace.add_argument("--N", type=int, default=None)
    add_common(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="built-in check suites")
    p_verify.add_argument("suite",
                          choices=("cancellations", "catalan", "mc-coe",
                                   "all"))
    p_verify.add_argument("--N", type=int, default=8)
    p_verify.add_argument("--M", type=int, default=3)
    p_verify.add_argument("--samples", type=int, default=100000)
    p_verify.add_argument("--seed", type=int, default=12345)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
