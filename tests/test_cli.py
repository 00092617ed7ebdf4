"""End-to-end command-line checks via main(argv) plus one subprocess smoke."""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from cemoments import cli, montecarlo, wick
from cemoments.algebra import DimPolynomial, TruncatedSeries
from cemoments.cli import build_parser, main, parse_partition
from cemoments.moments import moment_series
from cemoments.wick import DiagramSum, ExternalSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------

def test_parse_partition():
    assert parse_partition("3,2") == (3, 2)
    assert parse_partition("1,2") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 2 , 2 ") == (2, 2)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("0")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("-3")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("2,1", allow_ones=False)


def test_rejected_partition_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jpoly", "--lambda", "2,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_workers_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("CEMOMENTS_WORKERS", "3")
    args = build_parser().parse_args(["jpoly", "--lambda", "2"])
    assert args.workers == 3
    monkeypatch.setenv("CEMOMENTS_WORKERS", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["jpoly", "--lambda", "2"])
    assert exc.value.code == 2
    args = build_parser().parse_args(["jpoly", "--lambda", "2",
                                      "--workers", "2"])
    assert args.workers == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_with_usage_error(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mc-coe", "--workers", workers])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--workers" in err and "at least 1" in err


@pytest.mark.parametrize("env", ["0", "-3", "abc"])
def test_bad_workers_environment_exits_with_usage_error(capsys, monkeypatch,
                                                        env):
    monkeypatch.setenv("CEMOMENTS_WORKERS", env)
    with pytest.raises(SystemExit) as exc:
        main(["jpoly", "--lambda", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--workers" in err
    assert main(["jpoly", "--lambda", "2", "--workers", "1"]) == 0


# ---------------------------------------------------------------------
# jpoly
# ---------------------------------------------------------------------

def test_jpoly_pair(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--lambda", "2")
    assert code == 0
    assert out.strip() == "2d^3+4d^2+10d+8"


def test_jpoly_two_pairs(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--lambda", "2,2")
    assert code == 0
    assert out.strip() == "4d^6+16d^5+92d^4+224d^3+512d^2+688d+384"


def test_jpoly_four_cycle(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--lambda", "4")
    assert code == 0
    assert out.strip() == "14d^5+64d^4+242d^3+528d^2+688d+384"


def test_jpoly_empty_partition(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--lambda", "")
    assert code == 0
    assert out.strip() == "1"


def test_jpoly_unitary_case(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--beta", "2", "--lambda", "2")
    assert code == 0
    assert out.strip() == "2d^3+4d"


def test_jpoly_json(capsys):
    code, out, _ = run_cli(capsys, "jpoly", "--lambda", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["edges"] == 3
    assert len(data["patterns"]) == 2
    matches = {tuple(tuple(pair) for pair in p["match"])
               for p in data["patterns"]}
    assert matches == {((0, 0), (1, 1)), ((0, 1), (1, 0))}
    for p in data["patterns"]:
        assert p["poly"] == ["8", "10", "4", "2"]


# ---------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------

def test_moment_symmetric_symbolic(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "1", "--n", "1")
    assert code == 0
    assert out.strip() == "u + 0u^2 + 0u^3 + 0u^4; u=1/(N+1)"


def test_moment_symmetric_value(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "1", "--n", "1",
                           "--N", "3")
    assert code == 0
    assert out.strip() == "1/4"


def test_moment_unitary_value(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "2", "--n", "1",
                           "--N", "7")
    assert code == 0
    assert out.strip() == "1/7"


def test_moment_unitary_two_factor_patterns(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "2", "--n", "2",
                           "--cap", "4")
    assert code == 0
    assert set(out.strip().splitlines()) == {
        "pattern [0, 1, 2, 3]: u^2 + 0u^3 + u^4; u=1/(N)",
        "pattern [2, 3, 0, 1]: u^2 + 0u^3 + u^4; u=1/(N)",
        "pattern [0, 3, 2, 1]: 0u^2 - u^3 + 0u^4; u=1/(N)",
        "pattern [2, 1, 0, 3]: 0u^2 - u^3 + 0u^4; u=1/(N)",
    }


def test_moment_json_with_value(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "1", "--n", "1",
                           "--N", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    for entry in data:
        assert entry["ensemble"] == "COE"
        assert entry["N"] == 3
        assert entry["value"] == "1/4"
        assert entry["series"]["var"] == "u"


def test_moment_json_symbolic_has_no_value(capsys):
    code, out, _ = run_cli(capsys, "moment", "--beta", "1", "--n", "1",
                           "--json")
    assert code == 0
    data = json.loads(out)
    for entry in data:
        assert entry["N"] == "symbolic"
        assert "value" not in entry


def test_uniform_listing_expands_no_pattern(capsys, monkeypatch):
    # each coset class renders once; patterns are listed only when the
    # classes disagree
    def refuse(*args, **kwargs):
        raise AssertionError("a uniform listing expanded its patterns")

    monkeypatch.setattr(cli, "expand_classes", refuse)
    assert run_cli(capsys, "jpoly", "--beta", "1", "--n", "6",
                   "--lambda", "") == (0, "1\n", "")
    assert run_cli(capsys, "moment", "--beta", "1", "--n", "1",
                   "--cap", "2") == (0, "u + 0u^2; u=1/(N+1)\n", "")
    assert run_cli(capsys, "moment", "--beta", "1", "--n", "1",
                   "--N", "3") == (0, "1/4\n", "")


@pytest.mark.parametrize("argv, count", [
    ("jpoly --beta 1 --n 8 --lambda 2", "588,349,440"),
    ("jpoly --beta 1 --n 8 --lambda 2 --json", "588,349,440"),
    ("moment --beta 1 --n 7 --cap 8", "27,740,160"),
    ("moment --beta 1 --n 7 --cap 8 --json", "27,740,160"),
])
def test_oversized_listing_exits_2_before_expanding(capsys, monkeypatch,
                                                    argv, count):
    # the types (1^n) and (2, 1^(n-2)) disagree, so every pattern of both
    # would be listed; the size check refuses before any is built
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized listing expanded its patterns")

    monkeypatch.setattr(cli, "expand_classes", refuse)
    monkeypatch.setattr(wick, "_pattern_order", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: the listing would hold {count} delta patterns, "
                   f"more than 2,000,000\n")


@pytest.mark.parametrize("argv, lines, sha", [
    ("jpoly --beta 1 --n 4 --lambda 2", 4992,
     "89cfc61867e87eb6a2a438b38cfb4b51d9c0905049d7a1e8ea3e051ec0631967"),
    ("jpoly --beta 1 --n 4 --lambda 2 --json", 1,
     "c2569e8f0ec81387b4bd6a296506597caa3ae5f19accdf70372d44bdb779d7d2"),
])
def test_listing_below_the_limit_is_unchanged(capsys, argv, lines, sha):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err, out.count("\n")) == (0, "", lines)
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("argv", [
    "jpoly --beta 1 --n 3 --lambda 2 --json",
    "jpoly --beta 2 --n 1 --lambda 3 --json",
    "moment --beta 1 --n 3 --cap 5 --json",
    "moment --beta 2 --n 3 --cap 5 --N 7 --json",
])
def test_streamed_json_listing_is_one_dumps_of_to_json(capsys, argv):
    args = build_parser().parse_args(argv.split())
    if args.command == "jpoly":
        whole = wick.get_diagram_sum(args.beta, args.n, args.lam).to_json()
    else:
        whole = moment_series(ExternalSpec(beta=args.beta, n=args.n),
                              args.cap).to_json(N=args.N)
    assert run_cli(capsys, *argv.split()) == (0, json.dumps(whole) + "\n",
                                              "")


def test_stratum_of_more_than_127_factors_exits_2_with_message(capsys):
    code, out, err = run_cli(capsys, "jpoly", "--lambda", "200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: F = 201 factors is too many")
    assert "F <= 127" in err


def test_moment_cap_below_leading_order(capsys):
    code, _, err = run_cli(capsys, "moment", "--beta", "1", "--n", "2",
                           "--cap", "1")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------

def test_trace_series(capsys):
    code, out, _ = run_cli(capsys, "trace", "--lambda", "2")
    assert code == 0
    assert out.strip() == "(4M^2+4M)u^2 - (4M^2+12M)u^3 + (12M^2+20M)u^4"


def test_trace_one_point(capsys):
    code, out, _ = run_cli(capsys, "trace", "--lambda", "1", "--cap", "2")
    assert code == 0
    assert out.strip() == "2Mu + 0u^2"


def test_trace_selection_rule(capsys):
    code, out, _ = run_cli(capsys, "trace", "--lambda", "2", "--mu", "1,1,1")
    assert code == 0
    assert out.strip() == "0 (selection rule: |lambda| != |mu|)"


def test_trace_value(capsys):
    code, out, _ = run_cli(capsys, "trace", "--lambda", "2", "--M", "3",
                           "--N", "8")
    assert code == 0
    assert out.strip() == "1136/2187"


def test_trace_json_with_value(capsys):
    code, out, _ = run_cli(capsys, "trace", "--lambda", "2", "--M", "3",
                           "--N", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [2] and data["mu"] == [2]
    assert data["M"] == 3 and data["N"] == 8
    assert data["value"] == "1136/2187"


def test_trace_needs_both_m_and_n(capsys):
    code, _, err = run_cli(capsys, "trace", "--lambda", "2", "--M", "3")
    assert code == 2
    assert "both --M and --N" in err


def test_trace_block_larger_than_matrix(capsys):
    code, _, err = run_cli(capsys, "trace", "--lambda", "2", "--M", "9",
                           "--N", "3")
    assert code == 2
    assert "block size M cannot exceed N" in err


@pytest.mark.parametrize("argv", [
    ["jpoly", "--lambda", "2", "--n", "0"],
    ["moment", "--N", "0"],
    ["moment", "--beta", "2", "--n", "2", "--N", "0"],  # per-pattern listing
    ["trace", "--lambda", "2", "--M", "-3", "--N", "-1"],
    ["trace", "--lambda", "2", "--M", "-1", "--N", "2"],
])
def test_bad_numeric_input_exits_2_with_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------

def test_verify_cancellations(capsys):
    code, out, _ = run_cli(capsys, "verify", "cancellations")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for r, line in zip((1, 2, 3), lines):
        assert line.startswith(f"rank {r}:") and line.endswith("pass")
    assert lines[-1] == "all checks passed"


def test_verify_catalan(capsys):
    code, out, _ = run_cli(capsys, "verify", "catalan")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith("pass") for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_verify_mc_coe(capsys):
    code, out, _ = run_cli(capsys, "verify", "mc-coe",
                           "--samples", "20000", "--seed", "12345")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed=12345 generator=PCG64"
    assert len(lines) == 6
    for name in ("|W[0,0]|^2", "|W[0,1]|^2", "|p_(1)(B)|^2", "|p_(2)(B)|^2"):
        assert any(line.startswith(name) and line.endswith("pass")
                   for line in lines[1:-1])
    assert lines[-1] == "all checks passed"


def test_verify_mc_coe_json_puts_seed_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "mc-coe",
                             "--samples", "20000", "--seed", "12345",
                             "--json")
    assert code == 0
    assert "seed=12345 generator=PCG64" in err
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert all(row["verdict"] == "pass" for row in rows)
    assert {row["observable"] for row in rows} == {
        "|W[0,0]|^2", "|W[0,1]|^2", "|p_(1)(B)|^2", "|p_(2)(B)|^2"}


def test_verify_mc_coe_json_row_keys(capsys):
    code, out, _ = run_cli(capsys, "verify", "mc-coe", "--samples", "2000",
                           "--seed", "7", "--json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code in (0, 1) and len(rows) == 4
    keys = ["observable", "N", "M", "symbolic", "mean", "stderr",
            "trunc_bound", "verdict"]
    assert all(list(row) == keys for row in rows)
    assert [row["M"] for row in rows] == [None, None, 3, 3]
    assert all(row["N"] == 8 and len(row["mean"]) == 2 for row in rows)
    assert all(row["verdict"] in ("pass", "fail") for row in rows)


BAD_SAMPLER_INPUT = {
    ("--N", "8", "--M", "9"): "block size M=9",
    ("--samples", "1"): "need sample_count",
    ("--N", "0"): "N must be >= 1",
    ("--seed", "-1"): "seed must be >= 0",
}


@pytest.mark.parametrize("suite", ["mc-coe", "all"])
@pytest.mark.parametrize("bad", list(BAD_SAMPLER_INPUT))
def test_verify_mc_coe_rejects_bad_input_before_any_work(capsys, monkeypatch,
                                                         suite, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("computed a series before checking the input")

    monkeypatch.setattr(cli, "moment_series", no_work)
    monkeypatch.setattr(cli, "trace_moment", no_work)
    code, out, err = run_cli(capsys, "verify", suite, *bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + BAD_SAMPLER_INPUT[bad])


@pytest.mark.parametrize("detail", ["", "Unable to allocate 9.31 TiB"])
def test_a_batch_too_large_to_allocate_exits_2(capsys, monkeypatch, detail):
    # numpy raises a MemoryError subclass; a real allocation never happens
    def no_memory(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(montecarlo, "sample_coe", no_memory)
    code, out, err = run_cli(capsys, "verify", "mc-coe", "--samples", "4000",
                             "--workers", "1")
    assert code == 2
    assert out.startswith("seed=")
    assert err == f"error: out of memory. {detail}".rstrip() + "\n"


@pytest.mark.parametrize("N, M, corner", [
    (8, 3, 3), (32, 8, 8), (8, 1, 2), (8, 0, 2), (2, 2, 2), (1, 1, 1),
    (1, 0, 1),
])
def test_verify_mc_coe_draws_the_corner_it_reads(N, M, corner):
    args = build_parser().parse_args(
        ["verify", "mc-coe", "--N", str(N), "--M", str(M)])
    cfg, _ = cli._mc_coe_inputs(args)
    assert (cfg.N, cfg.corner) == (N, corner)


def test_verify_all_builds_shared_inputs_once(capsys, monkeypatch):
    calls = {"_mc_coe_inputs": 0, "moment_series": 0}

    def counting(name):
        real = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    code, out, _ = run_cli(capsys, "verify", "all", "--samples", "2000")
    assert code in (0, 1) and out.count(" ... ") == 12
    assert calls == {"_mc_coe_inputs": 1, "moment_series": 1}


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "all",
                           "--samples", "20000", "--seed", "12345",
                           "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 12
    assert all(row["verdict"] == "pass" for row in rows)


def _break_cancellations(monkeypatch):
    # a nonzero u^2 coefficient: the rank-1 strata no longer cancel
    series = TruncatedSeries(4, [0, 1, 1, 0, 0])
    monkeypatch.setattr(cli, "moment_series", lambda *args, **kwargs:
                        SimpleNamespace(classes=((None, series),)))


def _break_catalan(monkeypatch):
    real = cli.get_diagram_sums

    def doubled_first(beta, n, strata, workers):
        first, *rest = real(beta, n, strata, workers)
        classes = tuple((rho, DimPolynomial(2 * c for c in poly.coeffs))
                        for rho, poly in first.classes)
        return [DiagramSum(first.beta, first.n, first.vertex_type,
                           first.edge_count, classes)] + rest

    monkeypatch.setattr(cli, "get_diagram_sums", doubled_first)


def _break_mc_coe(monkeypatch):
    monkeypatch.setattr(montecarlo, "compare", lambda *args, **kwargs: "fail")


@pytest.mark.parametrize("suite, breaker, failed", [
    ("cancellations", _break_cancellations, 1),
    ("catalan", _break_catalan, 1),
    ("mc-coe", _break_mc_coe, 4),
])
def test_verify_failure_exits_1(capsys, monkeypatch, suite, breaker, failed):
    breaker(monkeypatch)
    argv = ("verify", suite, "--samples", "2000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("... FAIL") + out.count("... fail") == failed
    assert out.strip().splitlines()[-1] == f"{failed} check(s) FAILED"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["verdict"] for row in rows].count("fail") == failed


# ---------------------------------------------------------------------
# process-level smoke
# ---------------------------------------------------------------------

def test_module_and_console_entry_points():
    module_run = subprocess.run(
        [sys.executable, "-m", "cemoments", "jpoly", "--lambda", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert module_run.returncode == 0
    assert module_run.stdout.strip() == "2d^3+4d^2+10d+8"
    script = shutil.which("cemoments")
    assert script is not None
    script_run = subprocess.run(
        [script, "trace", "--lambda", "2", "--M", "3", "--N", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert script_run.returncode == 0
    assert script_run.stdout.strip() == "1136/2187"
