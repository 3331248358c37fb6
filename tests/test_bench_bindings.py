"""The benchmark's tracer still binds to the library's public names.

zenobench/spans.py wraps zenokit functions by module attribute, so a
renamed or deleted function breaks `zenobench/run.py --trace 1`; these
tests fail first.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from zenokit.cli import main

ZENOBENCH = Path(__file__).resolve().parents[1] / "zenobench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ZENOBENCH))
    import spans

    return spans


def test_tracer_binds(spans):
    spans.Tracer()


def test_tracer_sees_the_chain_of_a_cli_run(spans):
    recorder = spans.Recorder()
    with spans.Tracer().installed(recorder):
        r = CliRunner().invoke(main, ["simulate", "--omega", "1", "--T", "1",
                                      "--n", "7", "--eta", "0.5", "--oracle"])
    assert r.exit_code == 0
    assert recorder.counts["propagate_projected.calls"] == 1
    assert recorder.counts["propagate_projected.steps"] == 7
    assert recorder.counts["enumerate_branches.words"] == 2**7
    assert {"realize", "family_eta", "propagate_projected"} <= set(recorder.names)


def test_tracer_sees_the_second_order_of_a_simulate_run(spans):
    recorder = spans.Recorder()
    with spans.Tracer().installed(recorder):
        r = CliRunner().invoke(main, ["simulate", "--omega", "1", "--T", "1",
                                      "--n", "7", "--eta", "0.5"])
    assert r.exit_code == 0
    assert recorder.counts["second_order_partial.calls"] == 1
    assert recorder.counts["zeno_sum.closed.calls"] == 1
    assert "criterion_value" in recorder.names


def test_tracer_sees_each_point_of_the_probe(spans):
    # n_max = 4096 probes n = 64, 128, ..., 4096: seven points.
    recorder = spans.Recorder()
    with spans.Tracer().installed(recorder):
        r = CliRunner().invoke(main, ["classify", "--schedule", "power-law", "--alpha", "1",
                                      "--beta", "1", "--n-max", "4096"])
    assert r.exit_code == 0
    calls = recorder.counts["zeno_sum.closed.calls"] + recorder.counts["zeno_sum.direct.calls"]
    assert calls == 7
    criterion = recorder.name_ids["criterion_value"]
    assert sum(1 for nid in recorder.name if nid == criterion) == 7
