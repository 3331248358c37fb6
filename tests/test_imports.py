"""zenokit never loads numpy, needs nothing beyond the standard library and
launches without dataclasses, inspect or typing: each test runs a fresh
interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import zenokit

REGISTER_NAMES = ("DensityMatrix2", "QubitRegister", "apply_cnot",
                  "partial_trace_to_system", "recoherence_demo")

# Writes to stderr, as JSON, whether numpy is loaded after each stage.
NUMPY_PROBE = """
import json, sys
loaded = {}
import zenokit
loaded["import zenokit"] = "numpy" in sys.modules
import zenokit.cli
loaded["import zenokit.cli"] = "numpy" in sys.modules
try:
    zenokit.cli.main(sys.argv[1:])
except SystemExit as exc:
    loaded["exit"] = exc.code
loaded["main"] = "numpy" in sys.modules
sys.stderr.write(json.dumps(loaded))
"""

REGISTER_API_PROBE = f"""
import sys
import zenokit
names = {REGISTER_NAMES!r}
assert set(names) <= set(dir(zenokit)), dir(zenokit)
assert "numpy" not in sys.modules
from zenokit import QubitRegister, recoherence_demo
from zenokit import register
assert (QubitRegister, recoherence_demo) == (register.QubitRegister, register.recoherence_demo)
try:
    zenokit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("zenokit.no_such_name did not raise")
namespace = {{}}
exec("from zenokit import *", namespace)
assert set(names) <= set(namespace), sorted(namespace)
"""


def run_fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(zenokit.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def numpy_loaded(*args):
    r = run_fresh(NUMPY_PROBE, *args)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stderr)


@pytest.mark.parametrize("args", [
    ["--help"],
    ["simulate", "--omega", "0.7", "--T", "0.9", "--eta", "0.95", "--n", "1000"],
    ["simulate", "--omega", "0.7", "--T", "0.9", "--n", "20", "--eta", "0.5", "--oracle"],
    ["classify", "--schedule", "constant", "--eta", "0.5"],
    ["physical", "free-particle", "--m", "1e-26", "--sigma", "1e-10"],
    ["sweep", "--grid", "eta=0.5,0.9", "--omega", "0.5", "--T", "0.5", "--n", "100"],
    # the second order near eta = 1, in the run and in the numeric probe
    ["simulate", "--omega", "0.7", "--T", "0.9", "--eta", "1", "--n", "1000"],
    ["classify", "--schedule", "power-law", "--alpha", "1", "--beta", "1"],
    ["classify", "--schedule", "exponential", "--alpha", "0.7", "--beta", "0.3"],
    # grids spaced in pure Python
    ["sweep", "--grid", "omega=lin:0.1:0.9:3", "--n", "10"],
    ["sweep", "--grid", "n=geom:16:65536:13", "--omega", "0.5", "--T", "0.5", "--eta", "0.9"],
    # the register, in pure Python
    ["recohere"],
])
def test_numpy_is_not_loaded(args):
    assert numpy_loaded(*args) == {
        "import zenokit": False, "import zenokit.cli": False, "exit": 0, "main": False}


def test_register_names_are_served():
    r = run_fresh(REGISTER_API_PROBE)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--omega", "0.7", "--T", "0.9", "--n", "20", "--eta", "0.5", "--oracle"],
    ["classify", "--schedule", "power-law", "--alpha", "1", "--beta", "1"],
    ["sweep", "--grid", "eta=0.5,0.9", "--omega", "0.5", "--T", "0.5", "--n", "100"],
    ["physical", "brownian", "--D", "2", "--T", "1"],
    ["recohere"],
])
def test_runs_without_site_packages(args):
    # -S: no site-packages on sys.path, so only the standard library and src
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(zenokit.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-S", "-m", "zenokit.cli", *args],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout


# One main call of each command, then writes to stderr, as JSON, the exit
# codes and which of the modules named by the arguments are loaded.
LAUNCH_PROBE = """
import json, sys
import zenokit.cli
exits = []
for args in (
    ["simulate", "--omega", "0.7", "--T", "0.9", "--n", "20", "--eta", "0.5", "--oracle"],
    ["classify", "--schedule", "power-law", "--alpha", "1", "--beta", "1"],
    ["sweep", "--grid", "eta=0.5,0.9", "--omega", "0.5", "--T", "0.5", "--n", "100"],
    ["physical", "gaussian-pointer", "--v", "1", "--sigma", "1", "--T", "1"],
    ["recohere"],
):
    try:
        zenokit.cli.main(args)
    except SystemExit as exc:
        exits.append(exc.code)
loaded = sorted(name for name in sys.argv[1:] if name in sys.modules)
sys.stderr.write(json.dumps({"exits": exits, "loaded": loaded}))
"""


def test_commands_run_without_dataclasses_or_inspect():
    # The record types share zenokit._frozen.Frozen: importing dataclasses
    # would load inspect, ast, dis and tokenize at every launch. The schedule
    # union is a PEP 604 union and cli.Param a Frozen record, so nothing
    # loads typing either.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(zenokit.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-S", "-c", LAUNCH_PROBE,
                        "dataclasses", "inspect", "typing"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stderr) == {"exits": [0] * 5, "loaded": []}
