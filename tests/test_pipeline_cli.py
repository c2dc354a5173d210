import json
import math

import numpy as np
import pytest

from cebeam import cli
from cebeam import model as M
from cebeam import pipeline as PL
from cebeam.power_alloc import PowerProfile, bcd_power_allocation


@pytest.fixture()
def mini_scenario_file(tmp_path):
    d = {
        "n_tx": 16, "n_rx": 12, "n_rf": 4, "code_len": 8,
        "target_mean_angle_deg": 0.0, "target_uncertainty_deg": 4.0,
        "target_grid_spacing_deg": 2.0, "target_power_db": 0.0,
        "clutter_angles_deg": [-40.0, 30.0], "clutter_powers_db": 15.0,
        "noise_power_db": 0.0,
    }
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(d))
    return str(p)


class TestScenarioLoading:
    def test_builtin_names(self):
        flagship = PL.load_scenario("default128")
        desk = PL.load_scenario("desk32")
        assert flagship.n_tx == 128 and flagship.n_clutter == 10
        assert desk.n_tx == 32 and desk.code_len == 16

    def test_unknown_name_rejected(self):
        with pytest.raises(M.ModelError):
            PL.load_scenario("nonexistent")

    def test_path_wins_over_builtin(self, mini_scenario_file):
        sc = PL.load_scenario(mini_scenario_file)
        assert sc.n_tx == 16


class TestDesignReport:
    def test_unknown_method_tag_rejected(self):
        with pytest.raises(M.ModelError):
            PL.DesignReport(method="magic", iterations=1, wall_time_s=0.0,
                            final_mse=0.0, orthogonality_residual=0.0)

    def test_non_finite_field_rejected(self):
        with pytest.raises(M.ModelError):
            PL.DesignReport(method="AMM", iterations=1, wall_time_s=0.0,
                            final_mse=float("nan"), orthogonality_residual=0.0)

    def test_tag_vocabulary_is_complete(self):
        assert set(PL.METHOD_TAGS) == {"AMM", "MM", "BCD-direct", "projection-baseline",
                                       "Nesterov-EPM", "exhaustive"}


class TestProjectionBaseline:
    def test_output_unit_modulus_and_projection_cost(self, desk_scenario):
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        T, report = PL.projection_baseline(desk_scenario, prof, seed=0, iters=200)
        assert M.is_unit_modulus(T, desk_scenario.n_tx, tol=1e-12)
        assert report.method == "projection-baseline"
        # projecting away from the unconstrained optimum cannot reduce the fit
        assert report.final_mse >= report.extras["unconstrained_mse"] - 1e-12


class TestPipelineCommands:
    def test_allocate_power_artifacts(self, mini_scenario_file, tmp_path):
        out = tmp_path / "alloc"
        spec = PL.ExperimentSpec(command="allocate-power", scenario=mini_scenario_file,
                                 bits=2, out_dir=str(out))
        assert PL.run_pipeline(spec) == 0
        prof = json.loads((out / "power_profile.json").read_text())
        assert prof["converged"]
        assert "scenario_hash" in prof["provenance"]
        lines = (out / "power_trace.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario_hash:")
        assert "iteration,objective" in lines

    def test_design_ce_artifacts_and_trace_rows(self, mini_scenario_file, tmp_path):
        out = tmp_path / "ce"
        spec = PL.ExperimentSpec(command="design-ce", scenario=mini_scenario_file,
                                 bits=1, out_dir=str(out), max_iters=120)
        PL.run_pipeline(spec)
        report = json.loads((out / "design_report.json").read_text())["report"]
        rows = [l for l in (out / "design_trace.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) - 1 == report["iterations"]     # header plus one row per iteration
        phases = np.loadtxt(out / "phases_deg.txt")
        assert phases.shape == (16, 4)

    def test_design_ce_bit_identical_reruns(self, mini_scenario_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            spec = PL.ExperimentSpec(command="design-ce", scenario=mini_scenario_file,
                                     bits=1, seed=3, out_dir=str(out), max_iters=100)
            PL.run_pipeline(spec)
            outs.append((out / "phases_deg.txt").read_text())
        assert outs[0] == outs[1]

    def test_design_onebit_and_evaluate_round_trip(self, mini_scenario_file, tmp_path):
        out = tmp_path / "ob"
        spec = PL.ExperimentSpec(command="design-onebit", scenario=mini_scenario_file,
                                 bits=1, out_dir=str(out), max_iters=300)
        PL.run_pipeline(spec)
        signs = np.loadtxt(out / "signs.txt")
        assert np.all(np.isin(signs, (-1.0, 1.0)))
        report = json.loads((out / "onebit_report.json").read_text())["report"]

        out2 = tmp_path / "ev"
        spec2 = PL.ExperimentSpec(command="evaluate", scenario=mini_scenario_file,
                                  bits=1, out_dir=str(out2),
                                  design_path=str(out / "signs.txt"))
        assert PL.run_pipeline(spec2) == 0
        ev = json.loads((out2 / "evaluation.json").read_text())
        assert ev["avg_relative_entropy"] == pytest.approx(
            report["avg_relative_entropy"], rel=1e-9)

    def test_evaluate_requires_design(self, mini_scenario_file, tmp_path):
        spec = PL.ExperimentSpec(command="evaluate", scenario=mini_scenario_file,
                                 out_dir=str(tmp_path / "x"))
        with pytest.raises(M.ModelError):
            PL.run_pipeline(spec)

    def test_fig2_rows_schema(self, tmp_path):
        rows = PL.fig2_rows(n_rx_list=(16, 32), clutter_counts=(2,), trials=1500, seed=0)
        assert len(rows) == 2
        assert rows[0][0] == 2 and rows[0][1] == 16
        assert rows[0][2] > rows[1][2]

    def test_unknown_command_rejected(self):
        with pytest.raises(M.ModelError):
            PL.ExperimentSpec(command="explode")

    def test_unknown_method_rejected_up_front(self):
        with pytest.raises(M.ModelError):
            PL.ExperimentSpec(command="design-ce", method="foo")


class TestCli:
    def test_parser_bits_handling(self):
        parser = cli.build_parser()
        args = parser.parse_args(["design-ce", "--bits", "ideal"])
        assert args.bits == "ideal"
        args = parser.parse_args(["design-ce", "--bits", "3"])
        assert args.bits == 3

    def test_main_runs_allocate(self, mini_scenario_file, tmp_path):
        code = cli.main(["allocate-power", "--scenario", mini_scenario_file,
                         "--bits", "2", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "power_profile.json").exists()

    def test_main_reports_model_errors(self, tmp_path):
        code = cli.main(["allocate-power", "--scenario", "missing-scenario",
                         "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("override", [
        {"clutter_angles_deg": [math.nan, 30.0]},
        {"clutter_powers_db": [math.nan, 15.0]},
        {"target_power_db": math.inf},
        {"n_rf": 17, "code_len": 32},
    ])
    def test_invalid_scenario_file_exits_2(self, mini_scenario_file, tmp_path, override):
        with open(mini_scenario_file) as fh:
            d = json.load(fh)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**d, **override}))
        code = cli.main(["allocate-power", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("content", [None, "not numbers\n", "nan nan nan nan\n" * 16],
                             ids=["missing", "text", "nan"])
    def test_evaluate_bad_design_file_exits_2(self, mini_scenario_file, tmp_path, content):
        design = tmp_path / "design.txt"
        if content is not None:
            design.write_text(content)
        code = cli.main(["evaluate", "--scenario", mini_scenario_file, "--design", str(design),
                         "--out", str(tmp_path / "o")])
        assert code == 2


    @pytest.mark.parametrize("pfa", ["0", "1.5", "-0.1", "nan"])
    def test_sweep_snr_bad_pfa_exits_2_before_design(self, mini_scenario_file, tmp_path,
                                                     monkeypatch, pfa):
        def no_design(*args, **kwargs):
            raise AssertionError("the design ran before pfa was checked")

        monkeypatch.setattr(PL, "run_ce_design", no_design)
        code = cli.main(["sweep-snr", "--scenario", mini_scenario_file, "--pfa", pfa,
                         "--out", str(tmp_path / "o")])
        assert code == 2


class TestCliSpec:
    @pytest.fixture()
    def captured(self, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_pipeline", lambda spec: specs.append(spec) or 0)
        return specs

    @pytest.mark.parametrize("command", PL.COMMANDS)
    def test_defaults_come_from_spec(self, captured, command):
        assert cli.main([command]) == 0
        assert captured == [PL.ExperimentSpec(command=command)]

    def test_flags_land_on_fields(self, captured):
        cli.main(["evaluate", "--scenario", "desk32", "--seed", "4", "--bits", "ideal",
                  "--out", "o", "--max-iters", "7", "--tol", "0.5", "--design", "d.txt"])
        cli.main(["sweep-snr", "--pfa", "0.01", "--trials", "2000", "--snr", "-3", "0"])
        cli.main(["design-ce", "--method", "MM"])
        assert captured == [
            PL.ExperimentSpec(command="evaluate", scenario="desk32", seed=4, bits="ideal",
                              out_dir="o", max_iters=7, tol=0.5, design_path="d.txt"),
            PL.ExperimentSpec(command="sweep-snr", pfa=0.01, trials=2000,
                              snr_grid_db=(-3.0, 0.0)),
            PL.ExperimentSpec(command="design-ce", method="MM"),
        ]


class TestIterationFlags:
    def test_onebit_tol_is_honored(self, mini_scenario_file, tmp_path):
        out = tmp_path / "ob"
        cli.main(["design-onebit", "--scenario", mini_scenario_file, "--tol", "1e9",
                  "--out", str(out)])
        report = json.loads((out / "onebit_report.json").read_text())
        assert report["report"]["iterations"] == 1
        assert report["provenance"]["params"]["tol"] == 1e9

    def test_allocate_max_iters_is_honored(self, mini_scenario_file, tmp_path):
        out = tmp_path / "alloc"
        cli.main(["allocate-power", "--scenario", mini_scenario_file, "--max-iters", "1",
                  "--out", str(out)])
        assert json.loads((out / "power_profile.json").read_text())["sweeps"] == 1
        for flag, value in (("--max-iters", "0"), ("--tol", "-1"), ("--tol", "nan")):
            code = cli.main(["allocate-power", "--scenario", mini_scenario_file, flag, value,
                             "--out", str(out)])
            assert code == 2


class TestSweeps:
    def test_sweep_bits_rows(self, mini_scenario_file, tmp_path):
        sc = PL.load_scenario(mini_scenario_file)
        from cebeam.ce_design import CeDesignParams
        rows = PL.sweep(sc, 0, "bits", (1, "ideal"), params=CeDesignParams(max_iters=80))
        assert [r[0] for r in rows] == [1, "ideal"]
        assert all(np.isfinite(r[1]) for r in rows)

    def test_sweep_rf_resizes(self, mini_scenario_file):
        sc = PL.load_scenario(mini_scenario_file)
        from cebeam.ce_design import CeDesignParams
        rows = PL.sweep(sc, 0, "n_rf", (2, 4), bits=1, params=CeDesignParams(max_iters=60))
        assert [r[0] for r in rows] == [2, 4]
