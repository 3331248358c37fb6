import collections
import json
import math

import pytest
from click.testing import CliRunner

from zenokit import analysis
from zenokit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


class TestSimulate:
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
            runner, "simulate", "--omega", "1", "--T", "1", "--n", "25",
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
        "omega,t_total,name",
        [("nan", "1", "omega"), ("1", "inf", "T"), ("1", "nan", "T")],
    )
    def test_non_finite_parameter_exit_code(self, runner, omega, t_total, name):
        r = invoke(
            runner, "simulate", "--omega", omega, "--T", t_total, "--n", "3",
            "--eta", "0.5",
        )
        assert r.exit_code == 2
        assert f"error: {name} must be finite" in r.output

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


class TestClassify:
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

    def test_deterministic_output(self, runner):
        args = ("sweep", "--grid", "eta=lin:0:1:7", "--grid", "n=2,5,9",
                "--omega", "0.8", "--T", "0.4")
        assert invoke(runner, *args).output == invoke(runner, *args).output



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
