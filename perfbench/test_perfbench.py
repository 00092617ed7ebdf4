"""Tests of the benchmark itself, on the smoke-sized workloads.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import assembly  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace, seed=3):
    res = bench("--workload", workload, "--seed", str(seed), "--seconds",
                "1", "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    return res, json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    res, out = smoke(workload, trace)
    assert list(out) == ["correct", "attempted", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in out["metrics"].items()}
    values = {name: v["value"] for name, v in out["metrics"].items()}
    if trace:
        # every expected span fired and every listed function was found
        assert values["trace.missing_spans"] == 0, res.stderr
        assert values["trace.absent_functions"] == 0, res.stderr
        assert "trace:" not in res.stderr
    else:
        assert all(v > 0 for v in values.values()), values


def test_exact_counts_repeat():
    exact = ("wick.terms.beta1", "wick.terms.beta2", "wick.enumerate.calls",
             "wick.cache.hits", "partitions.strata",
             "traces.index_cycle_count.calls")
    runs = [smoke("enum-deep", 1, seed)[1]["metrics"] for seed in (1, 2)]
    first, second = ([r[k]["value"] for k in exact] for r in runs)
    assert first == second
    # smoke strata: F=2 and F=4 at cap 3 for both commands
    assert runs[0]["wick.terms.beta1"]["value"] == 2 * 2**2 + 24 * 2**4
    assert runs[0]["wick.terms.beta2"]["value"] == 2 + 24


def test_warm_assembly_never_enumerates():
    _, out = smoke("assembly-warm", 1)
    metrics = out["metrics"]
    assert metrics["wick.enumerate.calls"]["value"] == 0
    assert metrics["wick.cache.hit_ratio"]["value"] == 1.0


def test_cost_model_matches_the_documented_totals():
    assert run.model_terms(1, 2, 5) == 11_063_432
    assert run.model_terms(2, 2, 6) == 4_124_306


def test_query_list():
    queries = assembly.query_list(3)
    assert len(queries) == 50
    assert len({qid for qid, _, _ in queries}) == 50
    with open(run.EXPECTED_FILE) as fh:
        assert set(json.load(fh)["queries"]) == {q for q, _, _ in queries}


def test_tracer_reports_a_missing_function_as_absent():
    code = ("import tracer\n"
            "tracer.SPANS.append(('wick.cache', 'wick', 'no_such_fn', None))\n"
            "print(tracer.install().absent)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['wick.no_such_fn']"


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "enum-deep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
