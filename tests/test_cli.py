import argparse
import collections
import csv
import io
import itertools
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import zenokit
from zenokit import (
    ConstantOverlap,
    EvolutionConfig,
    ExplicitOverlaps,
    PowerLawOverlap,
    ValidationError,
    analysis,
    cli,
    criterion_value,
    enumerate_branches,
    evolution,
    family_eta,
    propagate_projected,
    schedule_to_dict,
    schedules,
    sweep,
)
from zenokit.cli import main

# Four z/abs(z) whose modulus rounds to 1 + 2.2e-16, within the slack
# ExplicitOverlaps admits; their mean modulus is capped at eta = 1.
NORMALISED_OVERLAPS = ",".join(map(repr, [
    u for u in (z / abs(z) for z in (complex(k, 1.0) for k in range(1, 200)))
    if abs(u) > 1.0
][:4]))


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def as_flags(values):
    """The command-line flags that give values, one flag per item of a list."""
    return [x for k, v in values.items() for item in (v if isinstance(v, list) else [v])
            for x in (f"--{k.replace('_', '-')}", str(item))]


def run_fresh(*args, python_flags=()):
    """The CLI in a fresh interpreter, as a shell runs it: stderr included."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(zenokit.__file__).parents[1])}
    return subprocess.run([sys.executable, *python_flags, "-m", "zenokit.cli", *args],
                          capture_output=True, text=True, env=env)


def simulate_reference(fmt, omega, T, n, schedule, schedule_fields, oracle):
    """simulate's output rebuilt from library values with csv.writer or
    json.dumps(indent=2)."""
    config = EvolutionConfig(omega=omega, T=T, n=n)
    series = list(propagate_projected(config.step_unitary(), schedule, n))
    eta = family_eta(schedule, n)
    criterion = analysis.criterion_value(eta, n)
    so = list(analysis.second_order_series(eta, config))
    rows = [(i, pe, ps, abs(pe - ps))
            for i, (pe, ps) in enumerate(zip(series, so), start=1)]
    summary = {"p_exact": series[-1], "p_second_order": so[-1], "criterion": criterion}
    if oracle:
        p_oracle = enumerate_branches(config.step_unitary(), schedule, n)
        summary["p_oracle"] = p_oracle
        summary["oracle_abs_gap"] = abs(series[-1] - p_oracle)
    if fmt == "json":
        return json.dumps({
            "config": {"omega": omega, "T": T, "n": n},
            "schedule": schedule_fields,
            "series": [{"step": s, "p_exact": pe, "p_second_order": ps, "abs_gap": g}
                       for s, pe, ps, g in rows],
            "summary": summary,
        }, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("step", "p_exact", "p_second_order", "abs_gap", "criterion"))
    writer.writerows((s, repr(pe), repr(ps), repr(g), "") for s, pe, ps, g in rows)
    writer.writerow(("summary", repr(series[-1]), repr(so[-1]), "", repr(criterion)))
    if oracle:
        writer.writerow(("oracle", repr(summary["p_oracle"]), "",
                         repr(summary["oracle_abs_gap"]), ""))
    return buf.getvalue()


def simulate_rows_and_summary(fmt, out):
    """(p_exact, p_second_order) of each row of simulate's output, and of
    its summary."""
    if fmt == "json":
        doc = json.loads(out)
        rows = [(row["p_exact"], row["p_second_order"]) for row in doc["series"]]
        return rows, (doc["summary"]["p_exact"], doc["summary"]["p_second_order"])
    records = list(csv.reader(io.StringIO(out)))[1:]
    rows = [(float(r[1]), float(r[2])) for r in records if r[0].isdigit()]
    summary = next((float(r[1]), float(r[2])) for r in records if r[0] == "summary")
    return rows, summary


@st.composite
def simulate_args(draw):
    """Flags of one simulate run of any schedule type. Constant schedules
    draw eta = 1 and eta = 1 - 10^-k on their own, beside any eta in
    [0, 1]; power-law and exponential ones reach eta near 1 at large n."""
    kind = draw(st.sampled_from(["constant", "power-law", "exponential", "explicit"]))
    n = draw(st.integers(1, 2000))
    if kind == "constant":
        eta = draw(st.one_of(st.just(1.0), st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k),
                             st.floats(0.0, 1.0)))
        flags = ["--eta", repr(eta)]
    elif kind == "explicit":
        overlaps = draw(st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40))
        n = len(overlaps)
        flags = ["--schedule", kind, "--overlaps", ",".join(map(repr, overlaps))]
    else:
        flags = ["--schedule", kind, "--alpha", repr(draw(st.floats(0.01, 1.0))),
                 "--beta", repr(draw(st.floats(0.1, 3.0)))]
    return ["--omega", repr(draw(st.floats(0.01, 3.0))), "--T", repr(draw(st.floats(0.01, 2.0))),
            "--n", str(n), *flags]


# simulate's row writer before it formatted by column: one % template per row.
CSV_ROW_TEMPLATE = "%d,%r,%r,%r,\r\n"
JSON_ROW_TEMPLATE = """\
    {
      "step": %d,
      "p_exact": %r,
      "p_second_order": %r,
      "abs_gap": %r
    }"""


def stream_by_row_template(head, chunks, template, joiner, foot):
    """cli._stream's text, each row formatted by template from the chunk's
    columns (steps, p_exact, p_second_order, abs_gap)."""
    for chunk in chunks:
        rows = list(zip(*chunk))
        yield head + joiner.join(map(template.__mod__, rows))
        head = joiner
    yield foot(*rows[-1][1:3])


# Floats whose repr takes the exponent form, a second order below 0, and zeros.
CELL_FLOATS = st.one_of(
    st.sampled_from([1e-05, 5e-324, 1e+16, 2.5e-17, -3.0, -0.5, 0.0, -0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def column_chunks(draw):
    """A few chunks of columns as cli._row_chunks yields them, their steps
    counting on from near a ROW_CHUNK edge or anywhere."""
    start = draw(st.one_of(st.integers(cli.ROW_CHUNK - 12, cli.ROW_CHUNK + 1),
                           st.integers(1, 10**7)))
    chunks = []
    for size in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)):
        columns = [draw(st.lists(CELL_FLOATS, min_size=size, max_size=size))
                   for _ in range(3)]
        chunks.append((range(start, start + size), *columns))
        start += size
    return chunks


SIMULATE_SCHEDULES = {
    "constant": (
        ("--eta", "0.93"), 300, ConstantOverlap(eta=0.93),
        {"type": "constant", "eta": 0.93},
    ),
    "power-law": (
        ("--schedule", "power-law", "--alpha", "1.3", "--beta", "2"), 200,
        PowerLawOverlap(alpha=1.3, beta=2.0),
        {"type": "power-law", "alpha": 1.3, "beta": 2.0},
    ),
    "explicit": (
        ("--schedule", "explicit", "--overlaps", "0.9+0.1j,0.95,0.7-0.3j,0.8+0.2j"), 4,
        ExplicitOverlaps(overlaps=(0.9 + 0.1j, 0.95 + 0j, 0.7 - 0.3j, 0.8 + 0.2j)),
        {"type": "explicit", "overlaps": [[0.9, 0.1], 0.95, [0.7, -0.3], [0.8, 0.2]]},
    ),
}


SEVERAL_CHUNKS_OVERLAPS = tuple(itertools.islice(
    itertools.cycle((0.9 + 0.1j, 0.95 + 0j, 0.7 - 0.3j, 0.8 + 0.2j)), 2 * cli.ROW_CHUNK + 5))
# Runs of 2 * ROW_CHUNK + 5 steps, (omega, T, schedule flags, schedule) by
# test id suffix.
SEVERAL_CHUNKS = {
    "": (0.7, 0.9, ("--eta", "0.93"), ConstantOverlap(eta=0.93)),
    # compensated prefix sums
    "-near-one": (0.7, 0.9, ("--eta", repr(1 - 1e-5)), ConstantOverlap(eta=1 - 1e-5)),
    "-eta-one": (0.7, 0.9, ("--eta", "1"), ConstantOverlap(eta=1.0)),
    # V*T^2 = 4: the second order falls below 0
    "-vt2-above-one": (2.0, 1.0, ("--eta", "1"), ConstantOverlap(eta=1.0)),
    "-explicit": (0.7, 0.9,
                  ("--schedule", "explicit", "--overlaps",
                   ",".join(map(repr, SEVERAL_CHUNKS_OVERLAPS))),
                  ExplicitOverlaps(overlaps=SEVERAL_CHUNKS_OVERLAPS)),
}


class TestSimulate:
    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", sorted(SIMULATE_SCHEDULES))
    def test_output_matches_generic_encoders(self, runner, tmp_path, kind, fmt,
                                             oracle, to_file):
        flags, n, schedule, fields = SIMULATE_SCHEDULES[kind]
        if oracle:
            n = min(n, 12)
            if kind == "explicit":
                n = 4
        args = ["simulate", "--omega", "0.7", "--T", "0.9", "--n", str(n),
                *flags, "--format", fmt]
        if oracle:
            args.append("--oracle")
        path = tmp_path / "out.txt"
        if to_file:
            args += ["--output", str(path)]
        r = invoke(runner, *args)
        assert r.exit_code == 0
        expected = simulate_reference(fmt, 0.7, 0.9, n, schedule, fields, oracle)
        if to_file:
            assert r.stdout_bytes == b""
            assert path.read_bytes() == expected.encode()
        else:
            assert r.stdout_bytes == expected.encode()

    @pytest.mark.filterwarnings("ignore:V\\*delta\\^2")
    @settings(max_examples=60, deadline=None)
    @example(["--omega", "0.7", "--T", "0.9", "--n", "1000", "--eta", "1"], "csv")
    @given(simulate_args(), st.sampled_from(["csv", "json"]))
    def test_summary_is_the_last_row(self, args, fmt):
        r = invoke(CliRunner(), "simulate", *args, "--format", fmt)
        assert r.exit_code == 0
        rows, summary = simulate_rows_and_summary(fmt, r.stdout)
        assert summary == rows[-1]

    def test_step_size_warning_is_one_line(self):
        r = run_fresh("simulate", "--omega", "1", "--T", "1", "--n", "2", "--eta", "1")
        assert r.returncode == 0
        assert r.stderr.startswith("warning: V*delta^2 = 0.25 > 0.1")
        assert r.stderr.endswith("\n") and r.stderr.count("\n") == 1
        assert ".py" not in r.stderr

    def test_ignored_warning_is_not_shown(self):
        r = run_fresh("simulate", "--omega", "1", "--T", "1", "--n", "2", "--eta", "1",
                      python_flags=("-W", "ignore"))
        assert r.returncode == 0
        assert r.stderr == ""

    def test_warning_as_error_still_raises(self):
        r = run_fresh("simulate", "--omega", "1", "--T", "1", "--n", "2", "--eta", "1",
                      python_flags=("-W", "error"))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: V*delta^2 = 0.25 > 0.1")
        assert r.stderr.endswith("\n") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr

    def test_each_invocation_shows_its_own_warning(self, runner):
        # both runs warn from the same line of code, in one process
        args = ("simulate", "--omega", "3", "--T", "1", "--n", "2", "--eta", "0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            results = [invoke(runner, *args) for _ in range(2)]
        assert [r.stderr.startswith("warning: V*delta^2") for r in results] == [True, True]

    @pytest.mark.parametrize("eta", ["0.3", "0.93", "1"])
    def test_summary_equals_sweep(self, runner, eta):
        run = ("--omega", "0.7", "--T", "0.9", "--n", "1000")
        r = invoke(runner, "simulate", *run, "--eta", eta, "--format", "json")
        s = invoke(runner, "sweep", *run, "--grid", f"eta={eta}", "--format", "json")
        assert r.exit_code == s.exit_code == 0
        doc, point = json.loads(r.stdout), json.loads(s.stdout)[0]
        last, summary = doc["series"][-1], doc["summary"]
        row, = sweep.sweep_rows(sweep.parse_grid([f"eta={eta}"]),
                                {"omega": 0.7, "T": 0.9, "n": 1000}, {"type": "constant"})
        for key in ("p_exact", "p_second_order"):
            assert last[key] == summary[key] == point[key] == getattr(row, key)
        assert summary["criterion"] == point["criterion"] == row.criterion

    def test_near_one_summary_is_within_ulps_of_sweep(self, runner):
        # Near eta = 1 the summary is the O(n) series' last row and the sweep
        # row the O(1) tail: here they differ in the last bit.
        run = ("--omega", "0.7", "--T", "0.9", "--n", "8000")
        r = invoke(runner, "simulate", *run, "--eta", "0.99999", "--format", "json")
        s = invoke(runner, "sweep", *run, "--grid", "eta=0.99999", "--format", "json")
        assert r.exit_code == s.exit_code == 0
        summary, point = json.loads(r.stdout)["summary"], json.loads(s.stdout)[0]
        assert summary["p_exact"] == point["p_exact"]
        assert summary["criterion"] == point["criterion"]
        assert abs(summary["p_second_order"] - point["p_second_order"]) <= 4 * 2.0**-52

    def test_basic_run_values(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "0.1", "--n", "100",
            "--eta", "1", "--format", "json",
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["summary"]["p_exact"] == pytest.approx(math.cos(0.1) ** 2, abs=1e-12)
        assert out["summary"]["p_second_order"] == pytest.approx(0.99, abs=1e-12)
        assert len(out["series"]) == 100

    def test_oracle_agreement(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "10",
            "--eta", "0", "--oracle", "--format", "json",
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["summary"]["p_exact"] == pytest.approx(math.cos(0.1) ** 20, abs=1e-12)
        assert out["summary"]["oracle_abs_gap"] <= 1e-12

    def test_oracle_capacity_exit_code(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "33",
            "--eta", "0", "--oracle",
        )
        assert r.exit_code == 3
        assert "2^n" in r.output

    def test_validation_exit_code(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "5",
            "--eta", "1.5",
        )
        assert r.exit_code == 2

    def test_missing_parameter_exit_code(self, runner):
        r = invoke(runner, "simulate", "--omega", "1", "--eta", "1")
        assert r.exit_code == 2
        assert "T" in r.output

    @pytest.mark.parametrize(
        "omega,t_total,message",
        [
            ("nan", "1", "omega must be finite"),
            ("1", "inf", "T must be finite"),
            ("1", "nan", "T must be finite"),
            # V = omega^2 or V*delta^2 overflows
            ("1e200", "1", "omega = 1e+200 and T = 1.0 put V"),
            ("1", "1e200", "omega = 1.0 and T = 1e+200 put V"),
            ("1e150", "1e10", "omega = 1e+150 and T = 10000000000.0 put V"),
        ],
    )
    def test_non_finite_parameter_exit_code(self, runner, omega, t_total, message):
        r = invoke(
            runner, "simulate", "--omega", omega, "--T", t_total, "--n", "3",
            "--eta", "0.5",
        )
        assert r.exit_code == 2
        assert f"error: {message}" in r.output

    @pytest.mark.filterwarnings("ignore:V\\*delta\\^2")
    def test_non_finite_second_order_is_not_printed(self, runner):
        # V*delta^2 = 1e306, and 2*S*V*delta^2 = 2*98*1e306 overflows at step 14
        r = invoke(
            runner, "simulate", "--omega", "1e154", "--T", "100", "--n", "1000",
            "--eta", "1",
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "survival is not finite at step 14" in r.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("omega,t_total,n", [
        ("1e154", "1e-154", 10),
        ("1e150", "1e-150", 100000),
    ])
    def test_large_v_with_small_step_prints_finite_rows(self, runner, fmt, omega,
                                                        t_total, n):
        # V*delta^2 is a product of a huge V and a subnormal delta^2. It is
        # multiplied first, so 2*S*V*delta^2 stays finite where 2*S*V would not.
        r = invoke(
            runner, "simulate", "--omega", omega, "--T", t_total, "--n", str(n),
            "--eta", "1", "--format", fmt,
        )
        assert r.exit_code == 0
        rows, summary = simulate_rows_and_summary(fmt, r.stdout)
        assert len(rows) == n
        assert all(math.isfinite(p) for row in rows for p in row)
        assert summary == rows[-1]
        config = EvolutionConfig(omega=float(omega), T=float(t_total), n=n)
        assert summary[1] == analysis.second_order_partial(1.0, config, n)

    def test_normalised_explicit_overlaps_run(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "0.5", "--n", "4",
            "--schedule", "explicit", "--overlaps", NORMALISED_OVERLAPS,
            "--format", "json",
        )
        assert r.exit_code == 0
        assert json.loads(r.output)["summary"]["criterion"] == criterion_value(1.0, 4)

    def test_constant_eta_in_the_slack_runs_as_eta_one(self, runner):
        # The overlap check admits a modulus up to 1 + 1e-12, and ConstantOverlap
        # stores such an eta as 1.0, which the chain reads as the second order
        # does. At omega*T = pi the exact value is 1; a chain that multiplied
        # by 1 + 1e-12 at every step went past it.
        for fmt in ("csv", "json"):
            args = ("simulate", "--omega", "1", "--T", repr(math.pi), "--n", "1000",
                    "--format", fmt, "--eta")
            r, one = invoke(runner, *args, "1.000000000001"), invoke(runner, *args, "1")
            assert r.exit_code == one.exit_code == 0, r.output
            assert r.stdout_bytes == one.stdout_bytes

    @pytest.mark.parametrize("n,oracle", [(10000, ()), (20, ("--oracle",))])
    def test_probabilities_stay_at_most_one(self, runner, n, oracle):
        # At omega*T = pi the exact value is 1, which rounding overshot by
        # up to 8.3e-13 (p_exact) and 1.8e-15 (p_oracle).
        r = invoke(runner, "simulate", "--omega", "1", "--T", repr(math.pi), "--n", str(n),
                   "--eta", "1", *oracle)
        assert r.exit_code == 0, r.output
        records = list(csv.reader(io.StringIO(r.stdout)))[1:]
        probabilities = [float(row[1]) for row in records]
        assert len(probabilities) == n + 1 + len(oracle)
        assert all(0.0 <= p <= 1.0 for p in probabilities), max(probabilities)

    @pytest.mark.parametrize("word", ["0.5+0j", "(0.5)"])
    def test_eta_word_is_read_as_a_config_value_is(self, runner, word):
        args = ("simulate", "--omega", "0.7", "--T", "0.9", "--n", "5", "--eta")
        r, plain = invoke(runner, *args, word), invoke(runner, *args, "0.5")
        assert r.exit_code == plain.exit_code == 0, r.output
        assert r.stdout_bytes == plain.stdout_bytes

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_refuses_non_finite_value(self, runner, monkeypatch, fmt):
        original = analysis.second_order_series

        def with_nan(eta, config):
            values = list(original(eta, config))
            values[2] = math.nan
            return values

        monkeypatch.setattr(analysis, "second_order_series", with_nan)
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "5",
            "--eta", "0.5", "--format", fmt,
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: survival is not finite at step 3" in r.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_not_created_when_first_chunk_fails(self, runner, monkeypatch,
                                                          tmp_path, fmt):
        original = analysis.second_order_series

        def with_nan(eta, config):
            values = list(original(eta, config))
            values[2] = math.nan
            return values

        monkeypatch.setattr(analysis, "second_order_series", with_nan)
        out = tmp_path / f"out.{fmt}"
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "5",
            "--eta", "0.5", "--format", fmt, "--output", str(out),
        )
        assert r.exit_code == 2
        assert "error: survival is not finite at step 3" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fault_after_rows_went_out_names_its_step(self, runner, monkeypatch, fmt):
        original = analysis.second_order_series

        def nan_at_5000(eta, config):
            return (math.nan if i == 5000 else p
                    for i, p in enumerate(original(eta, config), start=1))

        monkeypatch.setattr(analysis, "second_order_series", nan_at_5000)
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "10000",
            "--eta", "0.5", "--format", fmt,
        )
        assert r.exit_code == 2
        assert "error: survival is not finite at step 5000 for omega = 1.0" in r.stderr
        assert f"; {cli.ROW_CHUNK} rows were printed" in r.stderr
        assert "no rows printed" not in r.output
        rows = r.stdout.count('"step"') if fmt == "json" else r.stdout.count("\n") - 1
        assert rows == cli.ROW_CHUNK

    def test_memory_does_not_grow_with_n(self, runner, tmp_path):
        peaks = []
        for n in (20000, 80000):
            out = tmp_path / f"{n}.json"
            tracemalloc.start()
            try:
                r = invoke(
                    runner, "simulate", "--omega", "0.3", "--T", "0.7", "--eta", "0.96",
                    "--n", str(n), "--format", "json", "--output", str(out),
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert r.exit_code == 0
            assert json.loads(out.read_text())["series"][-1]["step"] == n
        assert abs(peaks[1] - peaks[0]) <= 2**20

    def test_explicit_schedule_of_the_wrong_length_prints_nothing(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "5000",
            "--schedule", "explicit", "--overlaps", "0.5,0.4",
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "explicit schedule has 2 overlaps but the run has 5000 steps" in r.output

    def test_unwritable_output_exit_code(self, runner):
        r = invoke(
            runner, "simulate", "--omega", "1", "--T", "0.1", "--n", "3",
            "--eta", "0.5", "--output", "/nonexistent/x",
        )
        assert r.exit_code == 2
        assert "error: cannot write /nonexistent/x:" in r.output

    def test_near_one_second_order_is_linear_time(self, runner, monkeypatch):
        # a per-step second-order sum would call these once per step
        calls = collections.Counter()
        for name in ("zeno_sum", "_weighted_tail"):
            original = getattr(analysis, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(analysis, name, counted)
        r = invoke(
            runner, "simulate", "--omega", "0.5", "--T", "1", "--n", "20000",
            "--eta", "1",
        )
        assert r.exit_code == 0
        assert r.output.count("\n") == 20002
        assert calls["zeno_sum"] <= 2
        assert calls["_weighted_tail"] <= 2

    @pytest.mark.parametrize("case,fmt,to_file", [
        pytest.param(case, fmt, to_file, id=f"{fmt}-{to_file}{case}")
        for case in SEVERAL_CHUNKS for fmt in ("csv", "json") for to_file in (False, True)
    ])
    def test_rows_of_several_chunks_match_generic_encoders(self, runner, tmp_path, case,
                                                           fmt, to_file):
        n = 2 * cli.ROW_CHUNK + 5
        omega, T, flags, schedule = SEVERAL_CHUNKS[case]
        args = ["simulate", "--omega", repr(omega), "--T", repr(T), "--n", str(n), *flags,
                "--format", fmt]
        path = tmp_path / "out.txt"
        r = invoke(runner, *args, *(["--output", str(path)] if to_file else []))
        assert r.exit_code == 0
        expected = simulate_reference(fmt, omega, T, n, schedule, schedule_to_dict(schedule),
                                      False).encode()
        assert (path.read_bytes() if to_file else r.stdout_bytes) == expected

    @settings(max_examples=300, deadline=None)
    @given(column_chunks(), st.sampled_from(["csv", "json"]))
    def test_column_writer_equals_row_templates(self, chunks, fmt):
        row, template, joiner = {
            "csv": (cli._CSV_ROW, CSV_ROW_TEMPLATE, ""),
            "json": (cli._JSON_SERIES_ROW, JSON_ROW_TEMPLATE, ",\n"),
        }[fmt]

        def foot(p_exact, p_second_order):
            return f"\nlast {p_exact!r} {p_second_order!r}"

        assert (list(cli._stream("head\n", iter(chunks), row, joiner, foot))
                == list(stream_by_row_template("head\n", chunks, template, joiner, foot)))

    @pytest.mark.parametrize("fmt,first_line", [
        ("csv", b"step,p_exact,p_second_order,abs_gap,criterion\r\n"), ("json", b"{\n")],
        ids=["csv", "json"])
    def test_reader_that_closes_early_ends_the_run_quietly(self, fmt, first_line):
        # click turns the broken pipe into exit 1 and keeps stderr empty
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(zenokit.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "zenokit.cli", "simulate", "--omega", "0.3", "--T", "0.7",
             "--n", "100000", "--eta", "0.96", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            try:
                line = proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=120)
            finally:
                proc.kill()
        assert line == first_line
        assert proc.returncode == 1
        assert err == b""

    def test_deterministic_output(self, runner):
        args = ("simulate", "--omega", "1.3", "--T", "0.7", "--n", "40",
                "--schedule", "power-law", "--alpha", "1", "--beta", "2")
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"omega": 1.0, "T": 0.1, "n": 100, "eta": 0.0, "format": "json"}
        ))
        r = invoke(runner, "simulate", "--config", str(cfg), "--eta", "1")
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["schedule"]["eta"] == 1.0
        assert out["summary"]["p_exact"] == pytest.approx(math.cos(0.1) ** 2, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(SIMULATE_SCHEDULES))
    def test_config_from_json_output_reprints_same_bytes(self, runner, tmp_path, kind):
        flags, n, _, _ = SIMULATE_SCHEDULES[kind]
        first = invoke(runner, "simulate", "--omega", "0.7", "--T", "0.9", "--n", str(n),
                       *flags, "--format", "json")
        assert first.exit_code == 0
        out = json.loads(first.stdout)
        cfg = tmp_path / "again.json"
        cfg.write_text(json.dumps({**out["config"], "schedule": out["schedule"]}))
        again = invoke(runner, "simulate", "--config", str(cfg), "--format", "json")
        assert again.exit_code == 0
        assert again.stdout_bytes == first.stdout_bytes

    def test_config_overlaps_in_output_form(self, runner, tmp_path):
        flags, n, _, fields = SIMULATE_SCHEDULES["explicit"]
        by_flags = invoke(runner, "simulate", "--omega", "0.7", "--T", "0.9",
                          "--n", str(n), *flags)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": 0.7, "T": 0.9, "n": n,
                                   "schedule": "explicit",
                                   "overlaps": fields["overlaps"]}))
        r = invoke(runner, "simulate", "--config", str(cfg))
        assert r.exit_code == 0
        assert r.stdout_bytes == by_flags.stdout_bytes

    @pytest.mark.parametrize("value,has_oracle", [("no", False), (False, False),
                                                  (True, True), ("yes", True)])
    def test_config_oracle_is_read_as_a_boolean(self, runner, tmp_path, value,
                                                has_oracle):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": 0.7, "T": 0.9, "n": 4, "eta": 0.5,
                                   "oracle": value}))
        r = invoke(runner, "simulate", "--config", str(cfg))
        assert r.exit_code == 0
        assert ("\noracle," in r.stdout) == has_oracle

    @pytest.mark.parametrize("config,args", [
        ({"omega": 0.7, "T": 0.9, "n": 3.0, "eta": 0.5},
         ("simulate", "--omega", "0.7", "--T", "0.9", "--n", "3", "--eta", "0.5")),
        ({"eta": 0.5, "n_max": 4096.0}, ("classify", "--eta", "0.5", "--n-max", "4096")),
    ])
    def test_config_integral_float_reads_as_an_int(self, runner, tmp_path, config, args):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        r, by_flags = invoke(runner, args[0], "--config", str(cfg)), invoke(runner, *args)
        assert r.exit_code == by_flags.exit_code == 0
        assert r.stdout_bytes == by_flags.stdout_bytes

    def test_internal_value_error_is_not_reported_as_bad_input(self, runner,
                                                               monkeypatch):
        def broken(eta, config):
            raise ValueError("internal fault")

        monkeypatch.setattr(analysis, "second_order_series", broken)
        r = invoke(runner, "simulate", "--omega", "1", "--T", "1", "--n", "5",
                   "--eta", "0.5")
        assert r.exit_code == 1
        assert isinstance(r.exception, ValueError)


class TestInvalidInput:
    @pytest.mark.parametrize(
        "config,args,message",
        [
            ("{not json", ("simulate",), "cannot read config file"),
            ("[1]", ("simulate",), "config file must hold a JSON object"),
            ('{"omega": 1, "T": 1, "n": "abc", "eta": 0.5}', ("simulate",),
             "config n: 'abc' is not a valid integer"),
            ('{"omega": [1], "T": 1, "n": 3, "eta": 0.5}', ("simulate",),
             "config omega: [1] is not a valid float"),
            ('{"omega": 1, "T": 1, "n": 3, "eta": 0.5, "oracle": "maybe"}',
             ("simulate",), "config oracle: 'maybe' is not a valid boolean"),
            ('{"omega": 1, "T": 1, "n": 3, "schedule": "explicit", '
             '"overlaps": [0.9, "x", 0.8]}', ("simulate",),
             "overlaps[1] must be a number"),
            ('{"omega": 1, "T": 1, "n": 3, "schedule": {"type": "power-law", '
             '"alpha": 1}}', ("simulate",), "power-law schedule needs beta"),
            ('{"grid": "omega=0.5,1"}', ("sweep",),
             "config grid: 'omega=0.5,1' is not a valid list of text"),
            ('{"omega": 1, "T": 1, "n": 3, "eta": 0.5, "format": "xml"}',
             ("simulate",), "config format: 'xml' is not a valid choice"),
            ('{"omega": 1, "T": 1, "n": 2, "schedule": "power-law", "alpha": 1, '
             '"beta": 2, "eta": 0.3}', ("simulate",),
             "the power-law schedule does not read eta"),
            ('{"schedule": {"type": "constant", "eta": 0.5}, "alpha": 3, "n_max": 64}',
             ("classify",), "the constant schedule does not read alpha"),
            ('{"omega": 1, "T": 1, "n": 2, "schedule": {"type": "constant", "eta": 0.5, '
             '"alpha": 3}}', ("simulate",), "the constant schedule does not read alpha"),
            ('{"omega": 1, "T": 1, "n": 2, "eta": 0.5, "nn": 7, "output": "unread.out"}',
             ("simulate",), "the config file of simulate does not read nn"),
            ('{"omega": 1, "T": 1, "n": 2, "eta": 0.5, "output": "unread.out"}',
             ("simulate",), "the config file of simulate does not read output"),
            ('{"schedule": "constant", "eta": 0.5, "n": 100, "n_max": 64}',
             ("classify",), "the config file of classify does not read n"),
            ('{"grid": ["omega=0.5,1"], "n": 3, "oracle": true}', ("sweep",),
             "the config file of sweep does not read oracle"),
            ('{"D": 2, "T": 1, "model": "free-particle"}', ("physical", "brownian"),
             "the config file of physical does not read model"),
            # read as strictly as the flags: no bool as a number, no fraction as an int
            ('{"omega": true, "T": 1, "n": 3, "eta": 0.5}', ("simulate",),
             "config omega: True is not a valid float"),
            ('{"omega": 1, "T": 1, "n": true, "eta": 0.5}', ("simulate",),
             "config n: True is not a valid integer"),
            ('{"omega": 1, "T": 1, "n": 2.7, "eta": 0.5}', ("simulate",),
             "config n: 2.7 is not a valid integer"),
            ('{"eta": 0.5, "n_max": 100.9}', ("classify",),
             "config n_max: 100.9 is not a valid integer"),
            ('{"omega": 1, "T": 1, "n": 3, "eta": [0, 1]}', ("simulate",),
             "eta must be a real overlap in [0, 1], got 1j"),
            # a bool option is read as a bool or a word, never as a number or a list
            ('{"omega": 1, "T": 1, "n": 3, "eta": 0.5, "oracle": 1}',
             ("simulate",), "config oracle: 1 is not a valid boolean"),
            ('{"omega": 1, "T": 1, "n": 3, "eta": 0.5, "oracle": [1]}',
             ("simulate",), "config oracle: [1] is not a valid boolean"),
        ],
    )
    def test_bad_config_exit_code(self, runner, tmp_path, monkeypatch, config, args,
                                  message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        r = invoke(runner, *args, "--config", str(cfg))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert f"error: {message}" in r.output
        assert not (tmp_path / "unread.out").exists()

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("eta=abc", "grid for eta: 'abc' is not a finite float"),
            ("eta=lin:0:1:x", "grid for eta: 'x' is not a finite int"),
            ("omega=geom:1:y:3", "grid for omega: 'y' is not a finite float"),
            ("n=nan", "grid for n: 'nan' is not a finite float"),
            ("n=inf", "grid for n: 'inf' is not a finite float"),
            ("n=lin:1:1e400:3", "grid for n: '1e400' is not a finite float"),
            ("n=lin:-1e308:1e308:3", "grid for n leaves the float range"),
            # 10^x at the largest float's rounded log10 overflows
            ("T=geom:1.7976931348623155e308:1.7976931348623157e308:3",
             "grid for T leaves the float range"),
            ("omega", "grid must look like param=values, got 'omega'"),
            ("omega=lin:1:2", "lin grid needs start:stop:count, got 'lin:1:2'"),
            ("omega=lin:1:2:0", "grid count must be >= 1, got 0"),
            ("omega=geom:0:1:3", "geom grid endpoints must be positive"),
        ],
    )
    def test_bad_grid_exit_code(self, runner, grid, message):
        r = invoke(runner, "sweep", "--grid", grid)
        assert r.exit_code == 2
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize(
        "args,message",
        [
            (("simulate", "--omega", "1", "--T", "1", "--n", "2", "--schedule",
              "power-law", "--alpha", "1", "--beta", "2", "--eta", "0.3"),
             "the power-law schedule does not read eta"),
            (("classify", "--schedule", "constant", "--eta", "0.5", "--alpha", "3",
              "--n-max", "64"), "the constant schedule does not read alpha"),
            (("sweep", "--grid", "n=10,20", "--schedule", "explicit", "--overlaps",
              "0.5", "--beta", "2"), "the explicit schedule does not read beta"),
        ],
    )
    def test_unread_schedule_flag_exit_code(self, runner, args, message):
        r = invoke(runner, *args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize("args,message", [
        (("classify", "--schedule", "power-law", "--alpha", "x", "--beta", "1"),
         "alpha must be a number, got 'x'"),
        (("simulate", "--omega", "1", "--T", "1", "--n", "2", "--eta", "abc"),
         "eta must be a number, got 'abc'"),
    ])
    def test_bad_schedule_word_is_a_parameter_error(self, runner, args, message):
        # schedule_from_dict reads the word, so no usage lines are printed
        r = invoke(runner, *args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "grids,message",
        [
            (("overlaps=0.5",),
             "cannot sweep 'overlaps'; choose from omega, T, n, eta, alpha, beta"),
            (("eta=0.5", "eta=0.6"), "duplicate grid parameter 'eta'"),
            (("eta=0.5", "omega=1", "T=1"), "at most two grid parameters are supported"),
        ],
    )
    def test_refused_grid_exit_code(self, runner, grids, message):
        r = invoke(runner, "sweep", *(x for g in grids for x in ("--grid", g)))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize("args", [
        ("simulate", "--n", "2000", "--eta", "-1"),
        ("classify", "--eta", "-1"),
        ("sweep", "--grid", "eta=-1,0.5", "--n", "10"),
    ])
    def test_negative_eta_exit_code(self, runner, args):
        r = invoke(runner, args[0], "--omega", "0.3", "--T", "1", *args[1:])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: eta must be a real overlap in [0, 1], got -1.0" in r.output

    @pytest.mark.parametrize("args,n", [
        (("simulate", "--omega", "1", "--T", "1", "--eta", "0.5", "--n", str(10**19)), 10**19),
        (("sweep", "--grid", "n=1e19", "--eta", "0.5"), 10**19),
    ])
    def test_step_count_past_sys_maxsize_exit_code(self, args, n):
        r = run_fresh(*args)
        assert r.returncode == 3
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert f"error: n = {n} is above the cap of sys.maxsize = {sys.maxsize}" in r.stderr

    def test_n_max_past_sys_maxsize_exit_code(self):
        r = run_fresh("classify", "--eta", "0.5", "--n-max", str(10**330))
        assert r.returncode == 3
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert (f"error: n_max = {10**330} is above the cap of sys.maxsize = {sys.maxsize}"
                in r.stderr)

    @pytest.mark.parametrize("n_max,last", [
        (sys.maxsize, 2**62), (2**53 - 1, 2**52), (2**53, 2**53), (2**20 - 1, 2**19)])
    def test_probe_stops_at_n_max(self, runner, n_max, last):
        # log2 rounds 2^k - 1 up to k for k >= 53, past n_max
        r = invoke(runner, "classify", "--eta", "0.5", "--n-max", str(n_max), "--format", "json")
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["numeric"]["diagnostics"][-1][0] == last

    def test_grid_count_is_capped_before_it_is_built(self, runner):
        r = invoke(runner, "sweep", "--grid", "eta=lin:0:1:1000000000")
        assert r.exit_code == 3
        assert "grid for eta has 1000000000 points" in r.output

    def test_removed_c_ratio_flag_is_a_usage_error(self, runner):
        r = invoke(runner, "simulate", "--omega", "1", "--T", "1", "--n", "3",
                   "--eta", "0.5", "--c-ratio", "2")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "--c-ratio" in r.stderr

    def test_value_that_starts_with_a_dash_is_the_flags_value(self, runner):
        args = ("simulate", "--omega", "0.3", "--T", "1", "--n", "2", "--schedule", "explicit")
        r = invoke(runner, *args, "--overlaps", "-0.5,0.3")
        assert r.exit_code == 0
        assert r.stderr == ""
        assert r.stdout_bytes == invoke(runner, *args, "--overlaps=-0.5,0.3").stdout_bytes

    def test_negative_number_after_a_flag_is_its_value(self, runner):
        r = invoke(runner, "simulate", "--omega", "-1e3", "--T", "1", "--n", "2", "--eta", "0.5")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: omega must be finite and >= 0" in r.stderr


# Every numeric flag's edge values: both zeros, a subnormal, the ends of
# [0, 1], floats whose square or fourth power overflows, and non-finite ones.
EDGE_NUMBERS = ("0", "-1", "-0.0", "1e-320", "0.5", "1", "1e154", "1e155", "1e300", "nan",
                "inf")
# Step counts past sys.maxsize, the last past the float range as well.
HUGE_INTS = (str(sys.maxsize + 1), str(10**19), str(10**330))
# simulate's and sweep's step counts: every one that the chain walks is at most 100.
EDGE_STEPS = ("2", "100", *EDGE_NUMBERS, *HUGE_INTS)


@st.composite
def edge_invocations(draw):
    """simulate, classify or sweep of a constant, power-law or exponential
    schedule, with each numeric flag drawn from the edge values."""
    number = st.sampled_from(EDGE_NUMBERS)
    command = draw(st.sampled_from(["simulate", "classify", "sweep"]))
    kind = draw(st.sampled_from(["constant", "power-law", "exponential"]))
    fields = ("eta",) if kind == "constant" else ("alpha", "beta")
    flags = {"schedule": kind, "T": draw(number), **{f: draw(number) for f in fields}}
    if command == "classify":
        flags[draw(st.sampled_from(["omega", "V"]))] = draw(number)
        flags["n_max"] = draw(st.sampled_from(("64", "4096", *EDGE_NUMBERS, *HUGE_INTS)))
        return [command, *as_flags(flags)]
    flags.update(omega=draw(number), n=draw(st.sampled_from(EDGE_STEPS)))
    if command == "simulate":
        return [command, *as_flags(flags)]
    grids = []
    for name in draw(st.lists(st.sampled_from(["omega", "T", "n", *fields]),
                              min_size=1, max_size=2, unique=True)):
        values = st.sampled_from(EDGE_STEPS if name == "n" else EDGE_NUMBERS)
        grids.append(f"{name}=" + ",".join(draw(st.lists(values, min_size=1, max_size=3))))
        del flags[name]
    return [command, *as_flags(flags), *(x for g in grids for x in ("--grid", g))]


@settings(max_examples=300, deadline=None)
@given(edge_invocations(), st.sampled_from(["csv", "json"]))
@example(["simulate", "--omega", "1", "--T", "1", "--eta", "0.5", "--n", str(10**19)], "csv")
@example(["sweep", "--grid", "n=1e19", "--eta", "0.5"], "csv")
@example(["classify", "--eta", "0.5", "--n-max", str(10**330)], "csv")
# phi2(-alpha) squares alpha past the float range
@example(["classify", "--schedule", "power-law", "--alpha", "1e300", "--beta", "1"], "csv")
# T^2 in 1 - k*V*T^2 past the float range, with T/64 inside it
@example(["classify", "--eta", "0.5", "--omega", "0", "--T", "1e155"], "csv")
def test_edge_numbers_never_give_a_traceback(args, fmt):
    r = invoke(CliRunner(), *args, "--format", fmt)
    assert r.exit_code in (0, 2, 3), (r.output, r.exception)
    if r.exit_code == 0:
        assert not re.search("nan|inf", r.stdout, re.IGNORECASE), r.stdout


# Each command's config keys, over a config that runs; every chain walks at
# most 5 steps, and every other step count drawn is refused.
CONFIG_COMMANDS = {
    ("simulate",): ({"omega": 0.3, "T": 1, "n": 5, "eta": 0.5},
                    ("omega", "T", "n", "oracle", "schedule", "eta", "alpha", "beta",
                     "overlaps", "format")),
    ("classify",): ({"eta": 0.5, "n_max": 4096},
                    ("V", "omega", "T", "n_max", "schedule", "eta", "alpha", "beta",
                     "overlaps", "format")),
    ("sweep",): ({"grid": ["eta=0.5,0.9"], "n": 5},
                 ("grid", "omega", "T", "n", "schedule", "eta", "alpha", "beta", "overlaps",
                  "format")),
    ("physical", "brownian"): ({"D": 2, "T": 1},
                               ("m", "sigma", "hbar", "v", "c_ratio", "T", "D", "format")),
}
EDGE_JSON_VALUES = (True, False, 0, 1, -1, 2.7, 1e308, "x", "", "yes", [], [1], {}, None,
                    {"type": "power-law", "alpha": 1, "beta": 2})


@st.composite
def edge_configs(draw):
    """A command and its config: a run's config with some keys set to edge values."""
    command = draw(st.sampled_from(sorted(CONFIG_COMMANDS)))
    base, keys = CONFIG_COMMANDS[command]
    edges = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(EDGE_JSON_VALUES),
                                 min_size=1, max_size=3))
    return command, {**base, **edges}


@settings(max_examples=300, deadline=None)
@given(edge_configs())
@example((("simulate",), {"omega": 0.3, "T": 1, "n": 5, "eta": 0.5, "oracle": 1}))
# the probe's Aitken step squares a difference past the float range
@example((("classify",), {"eta": 0.5, "n_max": 4096, "V": 1e308}))
def test_edge_config_values_never_give_a_traceback(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        r = invoke(CliRunner(), *command, "--config", str(path))
    assert r.exit_code in (0, 2, 3), (r.output, r.exception)
    if r.exit_code == 0:
        assert not re.search("nan|inf", r.stdout, re.IGNORECASE), r.stdout


class TestSteepPowerLaw:
    """A power law whose n^beta is past the float range has eta_n = 1."""

    def test_simulate_prints_the_eta_one_rows(self, runner):
        run = ("simulate", "--omega", "1", "--T", "1", "--n", "64")
        r = invoke(runner, *run, "--schedule", "power-law", "--alpha", "1",
                   "--beta", "200")
        assert r.exit_code == 0
        assert r.stdout == invoke(runner, *run, "--eta", "1").stdout

    def test_classify_probes_eta_one(self, runner):
        run = ("classify", "--n-max", "4096")
        r = invoke(runner, *run, "--schedule", "power-law", "--alpha", "1",
                   "--beta", "200")
        assert r.exit_code == 0
        numeric = json.loads(r.stdout)["numeric"]
        assert numeric == json.loads(invoke(runner, *run, "--eta", "1").stdout)["numeric"]

    def test_sweep_rows_have_eta_one(self, runner):
        r = invoke(runner, "sweep", "--grid", "beta=150,200", "--schedule", "power-law",
                   "--alpha", "1", "--n", "64")
        assert r.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(r.stdout)))
        assert [row["eta_n"] for row in rows] == ["1.0", "1.0"]


class TestClassify:
    @pytest.mark.parametrize("args", [
        ("--schedule", "power-law", "--alpha", "1", "--beta", "0.5", "--n-max", "4096",
         "--V", "1", "--T", "1"),
        ("--eta", "0.5"),
    ], ids=["power-law-zeno", "constant-default"])
    def test_zeno_numeric_limit_is_not_above_one(self, runner, args):
        # 1.000001218559106 and 1.0000000000000002 before the probe's k was clamped
        r = invoke(runner, "classify", *args)
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["numeric"]["extrapolated_limit"] == 1.0

    def test_power_law_zeno(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "power-law", "--alpha", "1",
            "--beta", "0.5", "--n-max", "65536",
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["analytic"]["label"] == "Zeno"
        assert out["analytic"]["limit_p"] == 1.0
        assert out["agreement"] is True

    def test_intermediate_limit_value(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "power-law", "--alpha", "2",
            "--beta", "1", "--V", "1", "--T", "1", "--n-max", "65536",
        )
        out = json.loads(r.output)
        assert out["analytic"]["label"] == "Intermediate"
        assert out["analytic"]["limit_p"] == pytest.approx(0.4323, abs=1e-4)

    def test_exponential_free_evolution(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "exponential", "--alpha", "1",
            "--beta", "0.2", "--V", "1", "--T", "0.5", "--n-max", "65536",
        )
        out = json.loads(r.output)
        assert out["analytic"]["label"] == "FreeEvolution"
        assert out["analytic"]["limit_p"] == pytest.approx(0.75, abs=1e-12)

    def test_invalid_family_exit_code(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "power-law", "--alpha", "-1",
            "--beta", "1",
        )
        assert r.exit_code == 2

    @pytest.mark.parametrize("variance", ["-1", "nan", "inf"])
    def test_invalid_variance_exit_code(self, runner, variance):
        r = invoke(
            runner, "classify", "--schedule", "constant", "--eta", "0.5",
            "--V", variance,
        )
        assert r.exit_code == 2
        assert f"error: V must be finite and >= 0, got {float(variance)}" in r.output

    @pytest.mark.parametrize("flags,config", [
        ({"V": 2, "omega": 5}, {}),
        ({"V": 2}, {"omega": 5}),
        ({"omega": 5}, {"V": 2}),
        ({}, {"V": 2, "omega": 5}),
    ], ids=["flag-flag", "flag-config", "config-flag", "config-config"])
    def test_variance_with_omega_exit_code(self, runner, tmp_path, flags, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schedule": "constant", "eta": 0.5, "n_max": 64,
                                   **config}))
        r = invoke(runner, "classify", "--config", str(cfg), *as_flags(flags))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: give V or omega, not both" in r.output

    def test_variance_alone_equals_omega_alone(self, runner):
        args = ("classify", "--schedule", "constant", "--eta", "0.5", "--n-max", "64")
        by_omega = invoke(runner, *args, "--omega", "2")
        by_variance = invoke(runner, *args, "--V", "4")
        assert by_omega.exit_code == by_variance.exit_code == 0
        assert by_variance.stdout_bytes == by_omega.stdout_bytes

    def test_flags_override_config_schedule_object(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schedule": {"type": "power-law", "alpha": 1,
                                                "beta": 1}, "n_max": 4096}))
        r = invoke(runner, "classify", "--config", str(cfg), "--beta", "2")
        assert r.exit_code == 0
        assert json.loads(r.output)["schedule"] == {
            "type": "power-law", "alpha": 1.0, "beta": 2.0}

    def test_negative_omega_exit_code(self, runner):
        r = invoke(runner, "classify", "--eta", "0.5", "--omega", "-1")
        assert r.exit_code == 2
        assert "error: omega must be finite and >= 0, got -1.0" in r.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_limit_is_not_printed(self, runner, fmt):
        # 1 - V*T^2 overflows to -inf, and the extrapolation to nan
        r = invoke(
            runner, "classify", "--schedule", "constant", "--eta", "1",
            "--V", "1e300", "--T", "1e5", "--n-max", "4096", "--format", fmt,
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        # the probe's own step sizes are not warned about
        assert r.stderr == ("error: survival is not finite for V = 1e+300, T = 100000.0; "
                            "no rows printed\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", [
        ("--omega", "0", "--eta", "0.5"),
        ("--omega", "1", "--schedule", "power-law", "--alpha", "1", "--beta", "1"),
    ])
    def test_t_squared_past_the_float_range_is_refused(self, runner, args, fmt):
        # T/64 passes EvolutionConfig, but T^2 in 1 - k*V*T^2 leaves the floats
        r = invoke(runner, "classify", "--T", "1e155", *args, "--format", fmt)
        assert r.exit_code == 2, r.exception
        assert r.stdout == ""
        assert r.stderr == "error: T = 1e+155 puts T^2 in 1 - k*V*T^2 past the float range\n"

    def test_probe_step_sizes_are_not_warned_about(self):
        # V*delta^2 = 1000/64^2 > 0.1 at the probe's first n = 64
        r = run_fresh("classify", "--V", "1000", "--T", "1", "--schedule", "constant",
                      "--eta", "0.5", python_flags=("-W", "error"))
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        assert json.loads(r.stdout)["numeric"]["label"] == "Zeno"

    @pytest.mark.parametrize("omega", ["0", "1e-9"])
    @pytest.mark.parametrize("schedule", [
        ("--eta", "0.5"),
        ("--eta", "1"),
        ("--schedule", "power-law", "--alpha", "1", "--beta", "0.5"),
        ("--schedule", "power-law", "--alpha", "1", "--beta", "1"),
        ("--schedule", "power-law", "--alpha", "1", "--beta", "2"),
        ("--schedule", "exponential", "--alpha", "0.7", "--beta", "0.3"),
    ], ids=["constant", "constant-eta-one", "power-law-zeno", "power-law-intermediate",
            "power-law-free", "exponential"])
    def test_numeric_label_holds_at_tiny_variance(self, runner, schedule, omega):
        # below V*T^2 of about 1e-16 every 1 - k*V*T^2 rounds to 1.0; the
        # probe labels k, which no V enters
        r = invoke(runner, "classify", *schedule, "--omega", omega)
        assert r.exit_code == 0
        out = json.loads(r.stdout)
        assert out["numeric"]["label"] == out["analytic"]["label"]
        assert out["agreement"] is True

    def test_tiny_intermediate_alpha_runs(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "power-law", "--alpha", "1e-200",
            "--beta", "1", "--n-max", "64",
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["analytic"]["limit_coefficient"] == 1.0
        # Intermediate with k = 1 against FreeEvolution: both limits are 0
        assert out["agreement"] is True

    def test_overflowing_omega_exit_code(self, runner):
        r = invoke(
            runner, "classify", "--schedule", "constant", "--eta", "0.5",
            "--omega", "1e200",
        )
        assert r.exit_code == 2
        assert "error: omega = 1e+200 and T = 1.0 put V = omega^2" in r.output

    @pytest.mark.parametrize("args,schedule,V,T", [
        (("--eta", "0.5"), ConstantOverlap(eta=0.5), 1.0, 1.0),
        (("--schedule", "power-law", "--alpha", "2", "--beta", "1", "--V", "0.3", "--T", "2",
          "--n-max", "4096"), PowerLawOverlap(alpha=2.0, beta=1.0), 0.3, 2.0),
        (("--schedule", "power-law", "--alpha", "1e-200", "--beta", "1", "--omega", "0.5"),
         PowerLawOverlap(alpha=1e-200, beta=1.0), 0.25, 1.0),
    ], ids=["defaults", "intermediate", "labels-apart"])
    def test_printed_record_is_the_library_report(self, runner, args, schedule, V, T):
        r = invoke(runner, "classify", *args, "--format", "json")
        assert r.exit_code == 0, r.output
        n_max = int(args[args.index("--n-max") + 1]) if "--n-max" in args else 2**20
        report = analysis.regime_report(schedule, V, T, n_max)
        assert cli.PARAMS["n_max"].default == 2**20
        assert json.loads(r.stdout) == {
            "schedule": schedule_to_dict(schedule), "V": V, "T": T,
            "analytic": {"label": report.analytic.label.value,
                         "limit_coefficient": report.analytic.limit_coefficient,
                         "limit_p": report.limit_p},
            "numeric": {"label": report.numeric.label.value,
                        "extrapolated_limit": report.numeric_limit,
                        "converged": report.numeric.converged,
                        "diagnostics": [list(d) for d in report.numeric.diagnostics]},
            "agreement": report.agreement,
        }

    @pytest.mark.parametrize("V,T", [("1", "1e200"), ("0", "1e156"), ("1e5", "1e155")])
    def test_t_squared_past_the_float_range_is_named_when_v_is_given(self, runner, V, T):
        # no omega is given, so the refusal names T alone
        r = invoke(runner, "classify", "--V", V, "--T", T, "--eta", "0.5")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == f"error: T = {float(T)!r} puts T^2 in 1 - k*V*T^2 past the float range\n"

    def test_probe_is_called_through_its_module(self, runner, monkeypatch):
        # zenobench times the probe by patching this module attribute
        calls = collections.Counter()
        original = analysis.numeric_limit_probe

        def counted_probe(*a):
            calls["numeric_limit_probe"] += 1
            return original(*a)

        monkeypatch.setattr(analysis, "numeric_limit_probe", counted_probe)
        r = invoke(runner, "classify", "--schedule", "power-law", "--alpha", "1", "--beta", "1",
                   "--V", "4", "--T", "1", "--n-max", "4096")
        assert r.exit_code == 0
        assert calls == {"numeric_limit_probe": 1}


class TestSweep:
    def test_grid_rows_and_header(self, runner):
        r = invoke(
            runner, "sweep", "--grid", "eta=0,0.5,1", "--omega", "1",
            "--T", "0.5", "--n", "10",
        )
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0].strip() == "n,eta_n,p_exact,p_second_order,criterion,regime"
        assert len(lines) == 4

    def test_convergence_toward_free_evolution(self, runner):
        # the fast-decay family approaches the undisturbed run, whose
        # exact survival is cos^2(omega*T) = 1 - V*T^2 + O(T^4)
        r = invoke(
            runner, "sweep", "--grid", "n=16,64,256,1024,4096", "--omega", "1",
            "--T", "0.5", "--schedule", "power-law", "--alpha", "1", "--beta", "2",
            "--format", "json",
        )
        rows = json.loads(r.output)
        target = math.cos(0.5) ** 2
        gaps = [abs(row["p_exact"] - target) for row in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        assert abs(rows[-1]["p_second_order"] - 0.75) < 1e-3

    def test_survival_nonincreasing_in_eta(self, runner):
        # more decoherence (smaller eta) pushes the run toward Zeno
        # freezing, so survival falls as eta rises on this grid
        r = invoke(
            runner, "sweep", "--grid", "eta=lin:0:1:11", "--omega", "1",
            "--T", "0.3", "--n", "20", "--format", "json",
        )
        rows = json.loads(r.output)
        ps = [row["p_exact"] for row in rows]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_empty_grid_exit_code(self, runner):
        r = invoke(runner, "sweep", "--grid", "eta=", "--n", "5")
        assert r.exit_code == 2

    def test_no_grid_exit_code(self, runner):
        r = invoke(runner, "sweep", "--n", "5")
        assert r.exit_code == 2

    def test_grid_cap_exit_code(self, runner):
        r = invoke(
            runner, "sweep", "--grid", "eta=lin:0:1:2000",
            "--grid", "T=lin:0.1:1:2000", "--n", "5",
        )
        assert r.exit_code == 3

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(1, 300))
    @example(0.3, 0.7, 1)
    @example(2.5, 2.5, 4)
    @example(1.0, -3.0, 7)
    @example(0.0, 1e-323, 3)  # the step underflows to 0
    @example(-1e308, 1e308, 3)  # the span overflows
    def test_lin_grid_is_numpy_linspace(self, start, stop, count):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, count).tolist()
        assert list(map(repr, sweep._linspace(start, stop, count))) == list(map(repr, expected))

    @settings(deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(1, 300))
    @example(1.0, sys.float_info.max, 3)
    @example(5e-324, 1.0, 5)
    @example(0.3333333333333333, 6.129581779572892e16, 46)  # the log10s differ
    def test_geom_grid_matches_numpy_geomspace(self, start, stop, count):
        # The exponents are spaced as numpy.linspace spaces them, but from
        # math.log10 of the endpoints, which may differ from numpy.log10 by an
        # ulp; that moves 10^x by a factor of up to 10^gap. Where the two
        # log10s agree, only 10^x (libm's pow, numpy's power) differs, by an ulp.
        _, values = sweep._parse_grid(f"omega=geom:{start!r}:{stop!r}:{count}")
        with np.errstate(all="ignore"):
            expected = sorted(set(np.geomspace(start, stop, count).tolist()))
            their_exponents = np.linspace(np.log10(start), np.log10(stop), count).tolist()
        assert start in values and (stop in values or count == 1)
        gap = max(map(abs, map(operator.sub, their_exponents, sweep._linspace(
            math.log10(start), math.log10(stop), count))))

        def near(x, y):
            if gap == 0:
                return abs(x - y) <= math.ulp(y)
            return abs(x - y) <= y * math.expm1(math.log(10) * gap) + 2 * math.ulp(y)

        for ours, theirs in ((values, expected), (expected, values)):
            assert all(any(near(x, y) for y in theirs) for x in ours)

    def test_geom_grid_to_the_largest_float_runs(self, runner):
        r = invoke(runner, "sweep", "--grid", f"beta=geom:1e-300:{sys.float_info.max!r}:3",
                   "--schedule", "power-law", "--alpha", "1", "--n", "4")
        assert r.exit_code == 0, r.output
        assert len(r.stdout.splitlines()) == 4

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = collections.Counter()
        original = sweep.schedule_from_dict

        def counted(*args):
            calls["build"] += 1
            return original(*args)

        monkeypatch.setattr(sweep, "schedule_from_dict", counted)
        return calls

    def test_fixed_schedule_is_built_once(self, runner, builds):
        r = invoke(
            runner, "sweep", "--grid", "omega=lin:0.1:0.9:5", "--grid", "T=0.5,1",
            "--schedule", "explicit", "--overlaps", "0.9+0.1j,0.95,0.7-0.3j",
            "--n", "3",
        )
        assert r.exit_code == 0
        assert len(r.stdout.splitlines()) == 11
        assert builds["build"] == 1

    def test_eta_grid_rows(self, runner, builds):
        etas, omegas = (0.3, 0.8, 1.0), (0.4, 0.9)
        r = invoke(
            runner, "sweep", "--grid", "eta=0.3,0.8,1", "--grid", "omega=0.4,0.9",
            "--T", "0.6", "--n", "50",
        )
        assert r.exit_code == 0
        assert builds["build"] == len(etas)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("n", "eta_n", "p_exact", "p_second_order", "criterion",
                         "regime"))
        for eta in etas:
            for omega in omegas:
                config = EvolutionConfig(omega=omega, T=0.6, n=50)
                p_exact = list(propagate_projected(
                    config.step_unitary(), ConstantOverlap(eta=eta), 50
                ))[-1]
                p_so = analysis.second_order_partial(eta, config, config.n)
                criterion = analysis.criterion_value(eta, config.n)
                regime = "FreeEvolution" if eta == 1.0 else "Zeno"
                writer.writerow((50, repr(eta), repr(p_exact), repr(p_so),
                                 repr(criterion), regime))
        assert r.stdout_bytes == buf.getvalue().encode()

    def test_config_schedule_object_keeps_its_eta(self, runner, tmp_path):
        # a constant sweep defaults to eta = 1 only when no eta is given
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schedule": {"type": "constant", "eta": 0.5},
                                   "grid": ["omega=0.5,1"], "T": 0.3, "n": 10,
                                   "format": "json"}))
        r = invoke(runner, "sweep", "--config", str(cfg))
        assert r.exit_code == 0
        assert [row["eta_n"] for row in json.loads(r.output)] == [0.5, 0.5]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_second_order_is_not_printed(self, runner, fmt):
        # V*delta^2 = 1e308 is finite, 2*S*V*delta^2 is not
        r = invoke(
            runner, "sweep", "--grid", "omega=1,1e150", "--T", "2e4", "--n", "2",
            "--eta", "0.5", "--format", fmt,
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.startswith("warning: V*delta^2 = ")
        assert "unreliable" in r.stderr
        assert "error: survival is not finite at grid point omega = 1e+150" in r.output

    def test_normalised_explicit_overlaps_run(self, runner):
        r = invoke(
            runner, "sweep", "--grid", "omega=0.5,1", "--T", "0.5", "--n", "4",
            "--schedule", "explicit", "--overlaps", NORMALISED_OVERLAPS,
            "--format", "json",
        )
        assert r.exit_code == 0
        assert [row["eta_n"] for row in json.loads(r.output)] == [1.0, 1.0]

    def test_unread_schedule_field_exit_code(self, runner):
        r = invoke(
            runner, "sweep", "--grid", "eta=0.5,0.6", "--schedule", "power-law",
            "--alpha", "1", "--beta", "2", "--n", "50",
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: the power-law schedule does not read eta" in r.output

    def test_unread_field_of_config_schedule_object_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schedule": {"type": "constant", "eta": 0.5},
                                   "grid": ["alpha=1,2"], "n": 10}))
        r = invoke(runner, "sweep", "--config", str(cfg))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: the constant schedule does not read alpha" in r.output

    @pytest.mark.parametrize("args,config,name", [
        (("--grid", "n=10,20", "--n", "5"), None, "n"),
        (("--grid", "eta=0.3,0.6", "--eta", "0.9"), None, "eta"),
        (("--grid", "alpha=1,2", "--schedule", "power-law", "--alpha", "7", "--beta", "2"),
         None, "alpha"),
        ((), {"T": 0.5, "grid": ["T=0.3,0.6"], "eta": 0.5, "n": 4}, "T"),
        ((), {"schedule": {"type": "constant", "eta": 0.5}, "grid": ["eta=0.3,0.6"], "n": 5},
         "eta"),
    ])
    def test_swept_parameter_also_given_exit_code(self, runner, tmp_path, monkeypatch,
                                                  args, config, name):
        points = collections.Counter()
        original = evolution.propagate_projected

        def counted(*a):
            points["run"] += 1
            return original(*a)

        monkeypatch.setattr(evolution, "propagate_projected", counted)
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            args = ("--config", str(cfg))
        r = invoke(runner, "sweep", *args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert f"error: {name} is swept by --grid and also given" in r.output
        assert points["run"] == 0

    def test_non_finite_point_is_reported_before_a_later_invalid_one(self, runner):
        # omega = 1e150 gives a non-finite second order; omega = 1e200,
        # after it in the grid, puts V = omega^2 beyond the floats
        r = invoke(
            runner, "sweep", "--grid", "omega=1e150,1e200", "--T", "2e4",
            "--n", "2", "--eta", "0.5",
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.startswith("warning: V*delta^2 = ")
        assert "unreliable" in r.stderr
        assert "error: survival is not finite at grid point omega = 1e+150" in r.output

    def test_tiny_intermediate_alpha_runs(self, runner):
        r = invoke(
            runner, "sweep", "--grid", "alpha=1e-200", "--schedule", "power-law",
            "--beta", "1", "--n", "4",
        )
        assert r.exit_code == 0
        assert r.stdout.splitlines()[1].endswith(",Intermediate")

    def test_deterministic_output(self, runner):
        args = ("sweep", "--grid", "eta=lin:0:1:7", "--grid", "n=2,5,9",
                "--omega", "0.8", "--T", "0.4")
        assert invoke(runner, *args).output == invoke(runner, *args).output

    @pytest.mark.parametrize("args,specs,config,schedule", [
        (("--n", "100"), ("eta=lin:0.3:0.99:5", "omega=0.2,0.5"),
         {"T": 1.0, "n": 100}, {"type": "constant"}),
        (("--schedule", "power-law", "--alpha", "1.2", "--beta", "2"), ("n=geom:16:4096:5",),
         {"omega": 1.0, "T": 1.0}, {"type": "power-law", "alpha": 1.2, "beta": 2.0}),
        (("--schedule", "explicit", "--overlaps", "0.9+0.1j,0.85,0.8-0.2j,0.95,0.7+0.3j",
          "--n", "5", "--T", "0.8"), ("omega=lin:0.1:0.9:7",), {"T": 0.8, "n": 5},
         {"type": "explicit", "overlaps": [[0.9, 0.1], 0.85, [0.8, -0.2], 0.95, [0.7, 0.3]]}),
    ], ids=["constant-2d", "power-law-n", "explicit"])
    def test_library_rows_are_the_cli_rows(self, runner, args, specs, config, schedule):
        r = invoke(runner, "sweep", *args, *(x for spec in specs for x in ("--grid", spec)),
                   "--format", "json")
        assert r.exit_code == 0, r.output
        printed = json.loads(r.stdout)
        rows = list(sweep.sweep_rows(sweep.parse_grid(specs), config, schedule))
        assert all(list(point) == list(sweep.SweepRow._fields) for point in printed)
        assert repr([row._values() for row in rows]) == repr(
            [tuple(point.values()) for point in printed])

    def test_library_grid_refuses_one_string(self):
        # a string is a sequence of its characters: 11 of them read as 11 specs
        with pytest.raises(ValidationError) as info:
            sweep.parse_grid("eta=0.5,0.6")
        assert str(info.value) == "grid specs are a list of strings, got one string 'eta=0.5,0.6'"
        assert sweep.parse_grid(["eta=0.5,0.6"]) == {"eta": [0.5, 0.6]}

    def test_library_yields_a_non_finite_row(self):
        # the CLI refuses this grid's second point (exit 2, above)
        grid = sweep.parse_grid(["omega=1,1e150"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = list(sweep.sweep_rows(grid, {"T": 2e4, "n": 2}, {"type": "constant", "eta": 0.5}))
        assert [math.isfinite(row.p_second_order) for row in rows] == [True, False]

    @pytest.mark.parametrize("specs,config,schedule,name", [
        (["n=5"], {"n": 3, "omega": 1.0, "T": 0.3}, {"type": "constant", "eta": 0.5}, "n"),
        (["eta=0.9"], {"n": 3, "omega": 1.0, "T": 0.3}, {"type": "constant", "eta": 0.5},
         "eta"),
    ], ids=["config", "schedule"])
    def test_library_refuses_a_swept_name_also_given(self, monkeypatch, specs, config,
                                                      schedule, name):
        points = collections.Counter()
        original = evolution.propagate_projected

        def counted(*a):
            points["run"] += 1
            return original(*a)

        monkeypatch.setattr(evolution, "propagate_projected", counted)
        rows = sweep.sweep_rows(sweep.parse_grid(specs), config, schedule)
        with pytest.raises(ValidationError) as info:
            next(rows)
        assert str(info.value) == f"{name} is swept by the grid and also given; give it once"
        assert points["run"] == 0

    def test_traced_functions_are_called_through_their_modules(self, runner, monkeypatch):
        # zenobench times a sweep by patching these module attributes. The
        # stand-in chain walks no step, so realize's own family_eta call is not counted.
        calls = collections.Counter()
        original = schedules.family_eta

        def counted_eta(*a):
            calls["family_eta"] += 1
            return original(*a)

        def counted_chain(step, schedule, n):
            calls["propagate_projected"] += 1
            return iter([0.5])

        monkeypatch.setattr(schedules, "family_eta", counted_eta)
        monkeypatch.setattr(evolution, "propagate_projected", counted_chain)
        r = invoke(runner, "sweep", "--grid", "eta=0.3,0.8", "--grid", "omega=0.4,0.6,0.9",
                   "--T", "0.6", "--n", "20")
        assert r.exit_code == 0
        assert calls == {"family_eta": 6, "propagate_projected": 6}

    def test_step_count_past_sys_maxsize_is_refused_before_any_point_runs(self, runner,
                                                                          monkeypatch):
        points = collections.Counter()
        original = evolution.propagate_projected

        def counted(*a):
            points["run"] += 1
            return original(*a)

        monkeypatch.setattr(evolution, "propagate_projected", counted)
        r = invoke(runner, "sweep", "--grid", "n=3000000,1e19", "--eta", "0.5")
        assert r.exit_code == 3
        assert r.stdout == ""
        assert f"error: n = {10**19} is above the cap of sys.maxsize = {sys.maxsize}" in r.stderr
        assert points["run"] == 0



class TestPhysical:
    def test_free_particle_flags_discrepancy(self, runner):
        r = invoke(
            runner, "physical", "free-particle", "--m", "1e-26",
            "--sigma", "1e-10",
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["quadratic_validity_time"] == pytest.approx(2.68e-12, rel=1e-2)
        assert "4e-13" in out["note"]

    def test_gaussian_pointer(self, runner):
        r = invoke(
            runner, "physical", "gaussian-pointer", "--v", "1", "--sigma", "1",
            "--c-ratio", "1", "--T", "1",
        )
        out = json.loads(r.output)
        assert out["schedule"] == {"type": "power-law", "alpha": 1.0, "beta": 2.0}
        assert out["regime"] == "FreeEvolution"

    def test_brownian(self, runner):
        r = invoke(runner, "physical", "brownian", "--D", "2", "--T", "1")
        out = json.loads(r.output)
        assert out["regime"] == "Intermediate"
        assert out["limit_coefficient"] == pytest.approx(0.5677, abs=1e-4)

    def test_invalid_parameters_exit_code(self, runner):
        r = invoke(runner, "physical", "brownian", "--D", "2", "--T", "-1")
        assert r.exit_code == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (("brownian", "--D", "inf", "--T", "1"), "D must be finite and >= 0"),
            (("gaussian-pointer", "--v", "1", "--sigma", "1", "--T", "inf"),
             "T must be finite and > 0"),
            (("free-particle", "--m", "nan", "--sigma", "1"),
             "m must be finite and > 0"),
            # a derived quantity beyond the float range names its inputs
            (("free-particle", "--m", "1e200", "--sigma", "1"),
             "m = 1e+200, sigma = 1.0, hbar = 1.054571817e-34 put "
             "hbar^4/(8 m^2 sigma^4) outside the positive float range"),
            (("free-particle", "--m", "1e100", "--sigma", "1"),
             "m = 1e+100, sigma = 1.0, hbar = 1.054571817e-34 put "
             "hbar^4/(8 m^2 sigma^4) outside the positive float range"),
            (("brownian", "--D", "1e200", "--T", "1"),
             "D = 1e+200, T = 1.0 put alpha = D^2*T/2 outside the positive float range"),
            (("brownian", "--D", "1e-200", "--T", "1"),
             "D = 1e-200, T = 1.0 put alpha = D^2*T/2 outside"),
            (("gaussian-pointer", "--v", "1e200", "--sigma", "1e-200", "--T", "1"),
             "v = 1e+200, sigma = 1e-200, c_ratio = 1.0, T = 1.0 put "
             "alpha = (v*c_ratio*T/sigma)^2 outside the positive float range"),
        ],
    )
    def test_non_finite_parameter_names_its_flag(self, runner, args, message):
        r = invoke(runner, "physical", *args)
        assert r.exit_code == 2
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize(
        "model,params,unread",
        [
            ("free-particle", {"m": 1e-26, "sigma": 1e-10}, "T"),
            ("gaussian-pointer", {"v": 1, "sigma": 1, "T": 1}, "m"),
            ("brownian", {"D": 2, "T": 1}, "sigma"),
        ],
    )
    @pytest.mark.parametrize("via_config", [False, True])
    def test_unread_parameter_exit_code(self, runner, tmp_path, model, params, unread,
                                        via_config):
        given = {**params, unread: 3}
        if via_config:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(given))
            args = ("--config", str(cfg))
        else:
            args = [x for k, v in given.items() for x in (f"--{k}", str(v))]
        r = invoke(runner, "physical", model, *args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert f"error: the {model} model does not read {unread}" in r.output

    def test_config_value_is_converted_when_the_file_is_read(self, runner, tmp_path):
        # m is refused as a bad float before the model is found not to read it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"D": 2, "T": 1, "m": "abc"}))
        r = invoke(runner, "physical", "brownian", "--config", str(cfg))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "error: config m: 'abc' is not a valid float" in r.output


class TestRecohere:
    def test_stage_coherences(self, runner):
        r = invoke(runner, "recohere")
        assert r.exit_code == 0
        out = json.loads(r.output)
        coherences = [s["coherence"] for s in out["stages"]]
        assert coherences == [0.5, 0.0, 0.5]

    def test_json_round_trips_bit_exactly(self, runner):
        out = json.loads(invoke(runner, "recohere").output)
        stage2 = out["stages"][2]
        assert stage2["rho"] == [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        reparsed = json.loads(json.dumps(out))
        assert reparsed == out

    def test_deterministic_output(self, runner):
        assert invoke(runner, "recohere").output == invoke(runner, "recohere").output


def _json_as_csv_rows(command, out):
    """The JSON output of `command` as the rows its CSV output prints."""
    if command == "recohere":
        return [
            {"stage": s["stage"],
             **{f"rho_{i}{j}_{part}": s["rho"][i][j][p]
                for i in (0, 1) for j in (0, 1) for p, part in enumerate(("re", "im"))},
             "coherence": s["coherence"]}
            for s in out["stages"]
        ]
    if command == "classify":
        analytic, numeric = out["analytic"], out["numeric"]
        return [{"label": analytic["label"], "limit_p": analytic["limit_p"],
                 "numeric_label": numeric["label"],
                 "numeric_limit": numeric["extrapolated_limit"],
                 "converged": numeric["converged"], "agreement": out["agreement"]}]
    return out


@pytest.mark.parametrize("args", [
    ("recohere",),
    ("sweep", "--grid", "eta=lin:0.3:1:4", "--grid", "omega=0.2,0.7", "--n", "30"),
    ("sweep", "--grid", "alpha=0.5,1.5", "--schedule", "power-law", "--beta", "1",
     "--n", "40"),
    ("classify", "--schedule", "power-law", "--alpha", "1", "--beta", "1", "--V", "2",
     "--n-max", "4096"),
    ("classify", "--schedule", "exponential", "--alpha", "0.6", "--beta", "0.4",
     "--T", "0.8", "--n-max", "4096"),
])
def test_csv_numbers_equal_json_fields(runner, args):
    as_csv = invoke(runner, *args, "--format", "csv")
    as_json = invoke(runner, *args, "--format", "json")
    assert as_csv.exit_code == as_json.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(as_csv.stdout)))
    want = _json_as_csv_rows(args[0], json.loads(as_json.stdout))
    assert [list(row) for row in rows] == [list(row) for row in want]
    for row, fields in zip(rows, want):
        for name, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                assert row[name] == str(value), name
            else:
                assert float(row[name]) == value, name


# One run of each command as its values, and a second value for one of
# them that changes the output.
LAYERED = [
    (("simulate",), {"omega": 0.7, "T": 0.9, "n": 6, "schedule": "power-law",
                     "alpha": 1.0, "beta": 2.0, "format": "json"}, ("omega", 0.2)),
    (("classify",), {"schedule": "exponential", "alpha": 0.6, "beta": 0.4, "V": 2.0,
                     "T": 0.8, "n_max": 4096}, ("V", 3.0)),
    (("sweep",), {"grid": ["eta=0.3,0.6", "n=2,5"], "omega": 0.8, "T": 0.4,
                  "format": "json"}, ("T", 0.9)),
    (("physical", "gaussian-pointer"), {"v": 1.0, "sigma": 1.0, "c_ratio": 0.5,
                                        "T": 1.0, "format": "csv"}, ("sigma", 2.0)),
]
LAYERED_IDS = [args[0] for args, _, _ in LAYERED]


class TestLayers:
    """A value comes from its flag, else the config file, else the default."""

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("args,values,other", LAYERED, ids=LAYERED_IDS)
    def test_values_split_with_a_config_file_print_the_same_bytes(
            self, runner, tmp_path, args, values, other, parity):
        by_flags = invoke(runner, *args, *as_flags(values))
        assert by_flags.exit_code == 0
        items = list(values.items())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(items[1 - parity::2])))
        split = invoke(runner, *args, "--config", str(cfg), *as_flags(dict(items[parity::2])))
        assert split.exit_code == 0
        assert split.stdout_bytes == by_flags.stdout_bytes

    @pytest.mark.parametrize("args,values,other", LAYERED, ids=LAYERED_IDS)
    def test_flag_beats_the_config_key(self, runner, tmp_path, args, values, other):
        name, value = other
        by_flags = invoke(runner, *args, *as_flags(values))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**values, name: value}))
        by_config = invoke(runner, *args, "--config", str(cfg))
        both = invoke(runner, *args, "--config", str(cfg), *as_flags({name: values[name]}))
        assert by_flags.exit_code == by_config.exit_code == both.exit_code == 0
        assert by_config.stdout_bytes != by_flags.stdout_bytes
        assert both.stdout_bytes == by_flags.stdout_bytes


def test_main_builds_no_parser(runner, monkeypatch):
    # The parser is built once, when the commands register, not per call.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert invoke(runner, "classify", "--eta", "0.5", "--n-max", "64").exit_code == 0
    assert built == []
