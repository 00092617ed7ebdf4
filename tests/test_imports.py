"""Symbolic commands load only the symbolic engine.

numpy serves the Monte Carlo sampler alone, and a process pool is started
only for more than one worker. The value types build on algebra.Record,
so dataclasses and the inspect module it imports stay off the cold path.
Each check runs in a fresh interpreter, so no module loaded by another
test can hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cemoments

GOLDEN = json.loads(
    Path(__file__).with_name("golden_outputs.json").read_text())["cli"]
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process",
         "dataclasses", "inspect")
COMMANDS = [
    "trace --lambda 2",
    "trace --lambda 2 --M 3 --N 8 --json",
    "moment --beta 1 --n 2 --cap 3",
    "moment --beta 2 --n 2 --cap 3 --N 5 --json",
    "jpoly --beta 1 --lambda 2,2",
    "verify catalan",
]

SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now fails
import cemoments
from cemoments.cli import main

main(["trace", "--lambda", "2", "--cap", "5"])
main(["moment", "--n", "2"])
outputs = {}
for cmd in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(cmd.split())
    outputs[cmd] = f"exit {code}\\n{out.getvalue()}"
loaded = [name for name in json.loads(sys.argv[3])
          if sys.modules.get(name) is not None]
report = {"outputs": outputs, "loaded": loaded}
if sys.argv[1] == "lazy":
    from cemoments import *
    report["sampler_is_montecarlo"] = (
        cemoments.sample_cue is cemoments.montecarlo.sample_cue)
    report["star_unbound"] = [
        name for name in cemoments.__all__
        if globals().get(name) is not getattr(cemoments, name)]
print(json.dumps(report))
"""


def _fresh_run(mode):
    env = dict(os.environ)
    env.pop("CEMOMENTS_WORKERS", None)  # one worker: no pool
    src = str(Path(cemoments.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, json.dumps(COMMANDS),
         json.dumps(HEAVY)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("mode", ["lazy", "block"])
def test_symbolic_commands_load_neither_numpy_nor_a_pool(mode):
    report = _fresh_run(mode)
    assert report["loaded"] == []
    assert report["outputs"] == {cmd: GOLDEN[cmd] for cmd in COMMANDS}
    if mode == "lazy":
        assert report["sampler_is_montecarlo"] is True
        assert report["star_unbound"] == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cemoments.no_such_name
    assert not hasattr(cemoments, "sample_goe")
