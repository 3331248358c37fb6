"""End-to-end and per-layer benchmark of the zenokit CLI.

Run from the root of a checkout:

    python3 zenobench/run.py --workload sweep-family --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's CLI invocations as child processes, one at
a time, and reports setup_s, pass_s and peak_rss_mb. --trace 1 runs the
same invocations in this process through zenokit.cli.main, with spans
around zenokit's public functions, and reports per-layer self times and
counts. Either way the outputs of the first pass are checked against
references computed apart from zenokit (checks.py), and every later pass
must print the same bytes. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".zenobench"
SETUP_LAUNCHES = 4  # before the first pass; one more comes before every pass
IMPORT_LAUNCHES = 5
CLI = [sys.executable, "-m", "zenokit.cli"]
IMPORT_PROBE = ("import time; t = time.perf_counter(); import zenokit.cli; "
                "print(repr(time.perf_counter() - t))")
# One BLAS/OpenMP thread in every child and, for --trace 1, in this process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PER_LAYER = {
    "import.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "realize.self_s": "s",
    "family_eta.self_s": "s",
    "propagate_projected.calls": "count",
    "propagate_projected.steps": "count",
    "propagate_projected.self_s": "s",
    "enumerate_branches.words": "count",
    "enumerate_branches.self_s": "s",
    "zeno_sum.closed.calls": "count",
    "zeno_sum.direct.calls": "count",
    "zeno_sum.direct.terms": "count",
    "zeno_sum.direct.self_s": "s",
    "criterion_value.self_s": "s",
    "second_order_partial.calls": "count",
    "second_order_partial.self_s": "s",
    "numeric_limit_probe.self_s": "s",
    "trace.overhead_s": "s",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    for name in ("PYTHONDONTWRITEBYTECODE", "ZENO_SWEEP_THREADS"):
        env.pop(name, None)
    return env


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def run_child(argv, out_path):
    """Run argv with stdout to out_path; return wall s, peak RSS MB, exit code, stderr."""
    err_path = WORKDIR / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_bytes()


class Pass:
    """Wall time, peak child RSS and stdout digests of one pass through the calls."""

    def __init__(self):
        self.wall = 0.0
        self.peak_rss_mb = 0.0
        self.digests: list[str | None] = []
        self.failed = 0

    def record(self, args, wall, code, digest, stderr):
        self.wall += wall
        if code != 0 or stderr:
            self.failed += 1
            digest = None
            log(f"failed (exit {code}): zenokit {' '.join(args)}\n"
                f"{stderr.decode(errors='replace')}")
        self.digests.append(digest)


def subprocess_pass(calls, first):
    """One pass of child processes; the first pass keeps its stdout for the checks."""
    p = Pass()
    for i, args in enumerate(calls):
        out_path = WORKDIR / f"{'first' if first else 'last'}-{i}.out"
        wall, rss, code, stderr = run_child(CLI + args, out_path)
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        p.record(args, wall, code, file_digest(out_path), stderr)
    return p


def inprocess_pass(calls, runner, main, recorder=None):
    """One pass through zenokit.cli.main; returns the pass and the stdout bytes."""
    p, outputs = Pass(), []
    for args in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            span = recorder.open("cli") if recorder else None
            result = runner.invoke(main, args)
            if recorder:
                recorder.close(span)
            wall = time.perf_counter() - start
        stderr = result.stderr_bytes + "".join(f"{w.message}\n" for w in caught).encode()
        if result.exception and not isinstance(result.exception, SystemExit):
            stderr += repr(result.exception).encode()
        outputs.append(result.stdout_bytes)
        p.record(args, wall, result.exit_code, hashlib.sha256(outputs[-1]).hexdigest(), stderr)
    return p, outputs


def repeat_for(seconds, run_pass):
    """Call run_pass (which returns its wall time) until `seconds` are spent.

    A pass starts only if it is expected to end less than half a pass
    past the budget, so a run lasts about `seconds` for any pass length.
    """
    count, spent = 0, 0.0
    while count == 0 or spent + 0.5 * spent / count <= seconds:
        spent += run_pass()
        count += 1


def verify(workload, passes, outputs):
    """Check the first pass's outputs and that every pass printed the same bytes."""
    import checks

    try:
        if passes[0].failed == 0:
            for name, indices, params in workload.checks:
                getattr(checks, name)(*(outputs[i] for i in indices), *params)
        for p in passes[1:]:
            checks.require(p.digests == passes[0].digests, "stdout differs between passes")
    except checks.CheckError as exc:
        log(f"check failed: {exc}")
        return False
    return True


def end_to_end(workload, seconds, name):
    # numpy stays out of this process until the passes end: a child's
    # ru_maxrss counts the parent's resident peak at the fork.
    help_out = WORKDIR / "help.out"
    if run_child(CLI + ["--help"], help_out)[2] != 0:  # warm-up: writes the bytecode
        sys.exit("zenokit.cli --help failed")
    setup, passes = [], []

    def launch():
        setup.append(run_child(CLI + ["--help"], help_out)[0])
        return setup[-1]

    def one_pass():
        # A set-up launch before every pass spreads setup_s over the whole run.
        spent = launch()
        passes.append(subprocess_pass(workload.calls, first=not passes))
        return spent + passes[-1].wall

    for _ in range(SETUP_LAUNCHES):
        launch()
    repeat_for(seconds, one_pass)
    log(f"{name}: setup_s {statistics.median(setup):.4f} over {len(setup)} launches; "
        f"pass_s {[round(p.wall, 4) for p in passes]}; "
        f"peak_rss_mb {[round(p.peak_rss_mb, 1) for p in passes]}")
    outputs = [(WORKDIR / f"first-{i}.out").read_bytes() for i in range(len(workload.calls))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }
    return passes, verify(workload, passes, outputs), metrics


def import_seconds():
    """Median time of `import zenokit.cli` in fresh interpreters, after a warm-up."""
    times = []
    for _ in range(IMPORT_LAUNCHES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             cwd=ROOT, check=True, capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times[1:])


def per_layer(workload, seconds, name):
    import_s = import_seconds()
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from click.testing import CliRunner

    import spans
    import zenokit.cli

    runner, main = CliRunner(), zenokit.cli.main
    tracer = spans.Tracer()
    plain, traced, recorders, first_outputs = [], [], [], []

    def pair():
        plain.append(inprocess_pass(workload.calls, runner, main)[0])
        recorders.append(spans.Recorder())
        with tracer.installed(recorders[-1]):
            p, outputs = inprocess_pass(workload.calls, runner, main, recorders[-1])
        traced.append(p)
        if not first_outputs:
            first_outputs.extend(outputs)
        return plain[-1].wall + traced[-1].wall

    repeat_for(seconds, pair)
    correct = verify(workload, traced + plain, first_outputs)
    counts = [r.counts for r in recorders]
    if any(c != counts[0] for c in counts):
        log(f"counts differ between traced passes: {counts}")
        correct = False
    self_times = [r.self_times() for r in recorders]
    values = dict(counts[0])
    values.update({
        "import.self_s": import_s,
        "cli.output_bytes": sum(len(o) for o in first_outputs),
        "trace.overhead_s": statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain),
    })
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s" and metric not in values:
            values[metric] = statistics.median(s.get(layer, 0.0) for s in self_times)
    recorders[-1].write(WORKDIR / f"spans-{name}.tsv")
    log(f"{name}: traced pass_s {[round(p.wall, 4) for p in traced]}; "
        f"untraced pass_s {[round(p.wall, 4) for p in plain]}")
    metrics = {m: (values.get(m, 0), unit) for m, unit in PER_LAYER.items()}
    return traced + plain, correct, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "zenokit" / "cli.py").is_file():
        sys.exit(f"no zenokit source under {SRC}; run from the root of a zenokit checkout")

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, WORKDIR)
    measure = per_layer if args.trace else end_to_end
    passes, correct, metrics = measure(workload, args.seconds, args.workload)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.digests) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
