"""Frozen stdout of fast CLI commands and regime leading terms.

The expected text in golden_outputs.json was recorded from the engine before
the stratum loop, the coefficient types and the renderers were unified; any
refactor must reproduce it byte for byte. To re-record after an intended
output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from cemoments.algebra import MPolynomial, TruncatedSeries, format_series
from cemoments.cli import format_pattern_series, main
from cemoments.partitions import partitions_of
from cemoments.traces import (
    REGIMES,
    TraceMomentResult,
    regime_asymptotics,
)

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _commands():
    out = []
    for beta in ("1", "2"):
        for lam in ("", "2", "2,2", "3"):
            for extra in ((), ("--json",)):
                out.append(("jpoly", "--beta", beta, "--lambda", lam) + extra)
        # several coset types, so several distinct cycle polynomials
        for n in ("2", "3"):
            for lam in ("", "2", "2,2"):
                for extra in ((), ("--json",)):
                    out.append(("jpoly", "--beta", beta, "--n", n,
                                "--lambda", lam) + extra)
        for n in (1, 2, 3):
            base = ("moment", "--beta", beta, "--n", str(n),
                    "--cap", str(n + 1))
            for extra in ((), ("--N", "5"), ("--json",),
                          ("--N", "5", "--json")):
                out.append(base + extra)
    for pair in (("--lambda", "2"), ("--lambda", "1", "--cap", "2"),
                 ("--lambda", "1,1", "--cap", "3"),
                 ("--lambda", "2,1", "--mu", "3"),
                 ("--lambda", "2", "--mu", "1,1,1")):
        out.append(("trace",) + pair)
        out.append(("trace",) + pair + ("--json",))
    # n >= 4, where the default cap max(4, n + 1) is n + 1 rather than 4
    out.append(("trace", "--lambda", "4"))
    out.append(("trace", "--lambda", "2,2", "--mu", "4", "--json"))
    out.append(("trace", "--lambda", "2", "--M", "3", "--N", "8"))
    out.append(("trace", "--lambda", "2", "--M", "3", "--N", "8", "--json"))
    out.append(("trace", "--lambda", "2,1", "--mu", "3", "--M", "2",
                "--N", "5"))
    # n=4 and n=5 sums, where a type holds hundreds to tens of thousands
    # of patterns
    out.append(("trace", "--lambda", "4", "--cap", "6"))
    out.append(("trace", "--lambda", "2,2", "--mu", "3,1", "--cap", "6",
                "--json"))
    out.append(("moment", "--beta", "2", "--n", "4", "--cap", "5"))
    out.append(("trace", "--lambda", "5", "--cap", "7"))
    # deep strata, which reach the kernel's long-path and many-chain moves
    out.append(("trace", "--lambda", "2", "--cap", "8"))
    out.append(("trace", "--lambda", "4", "--cap", "9"))
    # one long ring (F = 31): rows 61 slots wide, counts up to about
    # 10^42, far past the slot oracle's F <= 10
    out.append(("jpoly", "--lambda", "30"))
    out.append(("jpoly", "--beta", "2", "--lambda", "30"))
    out.append(("verify", "cancellations"))
    out.append(("verify", "cancellations", "--json"))
    out.append(("verify", "catalan"))
    out.append(("verify", "catalan", "--json"))
    return out


REGIME_PARTITIONS = [(1,), (2,), (1, 1), (3,), (4,), (2, 1), (1, 1, 1)]


def _regime_cases():
    return [(lam, regime) for lam in REGIME_PARTITIONS for regime in REGIMES]


def _regime_cap_cases():
    # every pair of equal size n <= 3 and one |mu| = n + 1 zero, at caps
    # n..n+4: the substituted regimes read orders below cap + 1 - 2n, so
    # these pin leading terms past u^0 that the default cap never reaches
    pairs = [(lam, mu) for n in (1, 2, 3) for lam in partitions_of(n)
             for mu in partitions_of(n)] + [((2,), (2, 1))]
    return [(lam, mu, regime, cap) for lam, mu in pairs for regime in REGIMES
            for cap in range(sum(lam), sum(lam) + 5)]


def _key(argv):
    return " ".join(repr(a) if a == "" else a for a in argv)


def _regime_key(lam, regime):
    return f"{','.join(map(str, lam))} {regime}"


def _regime_cap_key(case):
    lam, mu, regime, cap = case
    return (f"{','.join(map(str, lam))} {','.join(map(str, mu))} "
            f"{regime} cap={cap}")


def _regime_text(lam, mu, regime, cap=None):
    rep = regime_asymptotics(lam, mu, regime, cap)
    return f"{rep.leading}|{rep.indeterminate}|{rep.final_below}"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", _commands(), ids=_key)
def test_cli_stdout_matches_golden(argv, golden):
    assert _run(argv) == golden["cli"][_key(argv)]


@pytest.mark.parametrize("lam,regime", _regime_cases())
def test_regime_leading_matches_golden(lam, regime, golden):
    want = golden["regime"][_regime_key(lam, regime)]
    assert _regime_text(lam, lam, regime) == want


@pytest.mark.parametrize("case", _regime_cap_cases(), ids=_regime_cap_key)
def test_regime_leading_at_each_cap_matches_golden(case, golden):
    want = golden["regime_caps"][_regime_cap_key(case)]
    assert _regime_text(*case) == want


def test_pattern_series_renders_rational_scalars():
    assert format_pattern_series is format_series  # one series renderer
    series = TruncatedSeries(
        4, [0, Fraction(1, 2), Fraction(-3, 2), -1, Fraction(0)]
    )
    assert format_pattern_series(series, 1) == (
        "(1/2)u - (3/2)u^2 - u^3 + 0u^4"
    )
    series = TruncatedSeries(3, [0, 0, Fraction(-1, 3), 5])
    assert format_pattern_series(series, 2) == "-(1/3)u^2 + 5u^3"


def test_trace_series_renders_rational_m_polynomials():
    def fmt(*coeffs):
        series = TruncatedSeries(3, [MPolynomial(c) for c in coeffs])
        return TraceMomentResult((1,), (1,), 3, series).format()

    half, quarter = Fraction(1, 2), Fraction(3, 4)
    assert fmt((), (0, half), (0, 0, -quarter), (0, -half, 1)) == (
        "1/2Mu - 3/4M^2u^2 + (M^2-1/2M)u^3"
    )
    assert fmt((), (0, -half), (), (0, 0, 0, Fraction(2, 3))) == (
        "-1/2Mu + 0u^2 + 2/3M^3u^3"
    )


def _record():
    cli = {_key(argv): _run(argv) for argv in _commands()}
    regime = {_regime_key(lam, r): _regime_text(lam, lam, r)
              for lam, r in _regime_cases()}
    regime_caps = {_regime_cap_key(case): _regime_text(*case)
                   for case in _regime_cap_cases()}
    GOLDEN.write_text(json.dumps({"cli": cli, "regime": regime,
                                  "regime_caps": regime_caps}, indent=1)
                      + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
