"""README's examples run as written: each `zenokit ...` line of its CLI
block and each python block, in a fresh interpreter with warnings as errors,
exit 0 and write nothing to stderr."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CLI_EXAMPLES = [
    line for line in
    README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    if line.startswith("zenokit ")
]
PYTHON_EXAMPLES = [part.split("```", 1)[0] for part in README.split("```python\n")[1:]]


def run_clean(args, cwd):
    """args after the interpreter, run from cwd with the repository's src
    first on the path and every warning an error."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    r = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                       cwd=cwd)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr


def test_readme_has_examples_of_both_kinds():
    assert CLI_EXAMPLES and PYTHON_EXAMPLES


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_runs_cleanly(line, tmp_path):
    run_clean(["-m", "zenokit.cli", *shlex.split(line)[1:]], tmp_path)


@pytest.mark.parametrize("block", PYTHON_EXAMPLES, ids=lambda b: b.splitlines()[0])
def test_python_example_runs_cleanly(block, tmp_path):
    run_clean(["-c", block], tmp_path)
