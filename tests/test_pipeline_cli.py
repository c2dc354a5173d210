import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cebeam import cli
from cebeam import model as M
from cebeam import pipeline as PL
from cebeam import simulate as SIM
from cebeam.ce_design import CeDesignParams, design_problem
from cebeam.power_alloc import PowerProfile, power_profile


_MINI_SCENARIO = {
    "n_tx": 16, "n_rx": 12, "n_rf": 4, "code_len": 8,
    "target_mean_angle_deg": 0.0, "target_uncertainty_deg": 4.0,
    "target_grid_spacing_deg": 2.0, "target_power_db": 0.0,
    "clutter_angles_deg": [-40.0, 30.0], "clutter_powers_db": 15.0,
    "noise_power_db": 0.0,
}


@pytest.fixture()
def mini_scenario_file(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(_MINI_SCENARIO))
    return str(p)


# imports the package and its CLI, then runs a tiny 3-bit design and
# detection sweep, and prints the scipy modules the process has imported
_SCIPY_MODULES = """
import sys, tempfile
import cebeam, cebeam.cli
from cebeam import pipeline as PL
with tempfile.TemporaryDirectory() as out:
    PL.run_pipeline(PL.ExperimentSpec(command="design-ce", scenario=sys.argv[1], bits=3,
                                      max_iters=5, out_dir=out + "/ce"))
    PL.run_pipeline(PL.ExperimentSpec(command="sweep-snr", scenario=sys.argv[1], bits=3,
                                      pfa=0.01, trials=1000, snr_grid_db=(0.0,), max_iters=5,
                                      out_dir=out + "/snr"))
    print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_runs_import_no_scipy(mini_scenario_file):
    # scipy's import alone adds about 25 MB to a run's resident memory
    env = {**os.environ, "PYTHONPATH": str(Path(PL.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, mini_scenario_file],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# sha256 of the seed-0 CE design on default128 and one-bit design on desk32
_DESIGN_HASHES = """
import hashlib
from cebeam.pipeline import load_scenario, run_ce_design, run_onebit_design
T_ce = run_ce_design(load_scenario("default128"), 1, 0)[0]
T_ob = run_onebit_design(load_scenario("desk32"), 1, 0)[0]
print([hashlib.sha256(T.tobytes()).hexdigest() for T in (T_ce, T_ob)])
"""


def test_designs_do_not_depend_on_the_blas_thread_count():
    # the determinism contract covers 1 and 2 OpenBLAS threads
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(PL.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", _DESIGN_HASHES], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


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
    def test_unknown_method_tag_rejected(self, mini_scenario_file, monkeypatch):
        # run_ce_design refuses a method other than AMM or MM before it designs
        def no_stage(*args, **kwargs):
            raise AssertionError("a design stage ran before the method was checked")

        for name in ("power_profile", "plain_mm", "squarem_accelerated_mm"):
            monkeypatch.setattr(PL, name, no_stage)
        with pytest.raises(M.ModelError, match="magic"):
            PL.run_ce_design(PL.load_scenario(mini_scenario_file), 1, 0, method="magic")

    def test_non_finite_field_rejected(self):
        with pytest.raises(M.ModelError):
            PL.DesignReport(method="AMM", iterations=1, wall_time_s=0.0,
                            final_mse=float("nan"), orthogonality_residual=0.0)


class TestProjectionBaseline:
    def test_output_unit_modulus_and_projection_cost(self, desk_scenario):
        prof = power_profile(desk_scenario)
        problem = design_problem(prof, desk_scenario.n_tx, desk_scenario.n_rf)
        T, report = PL.projection_baseline(desk_scenario, problem, seed=0, iters=200)
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
        assert sorted(prof) == ["objective", "profile", "provenance"]
        assert [level for _, level in prof["profile"]["target"]] == [1.0, 1.0, 1.0]
        assert [level for _, level in prof["profile"]["clutter"]] == [0.0, 0.0]
        assert prof["objective"] > 0.0
        assert prof["provenance"]["params"] == {"bits": 2}
        assert "scenario_hash" in prof["provenance"]
        assert [path.name for path in out.iterdir()] == ["power_profile.json"]

    def test_detection_provenance_records_the_monte_carlo_engine(self, mini_scenario_file,
                                                                  tmp_path):
        out = tmp_path / "snr"
        spec = PL.ExperimentSpec(command="sweep-snr", scenario=mini_scenario_file, bits=1,
                                 pfa=0.01, trials=1000, snr_grid_db=(0.0,), max_iters=20,
                                 out_dir=str(out))
        PL.run_pipeline(spec)
        lines = (out / "detection.csv").read_text().splitlines()
        params = json.loads(next(ln for ln in lines if ln.startswith("# params:"))[10:])
        assert params["mc_block_trials"] == SIM._BLOCK_TRIALS == 512
        assert params["mc_workers"] == SIM._WORKERS >= 1
        assert params["trials"] == 1000

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

    def test_unknown_method_rejected_up_front(self, mini_scenario_file, tmp_path, monkeypatch):
        # run_ce_design's check comes before stage 1 and the first artifact
        def no_allocation(*args, **kwargs):
            raise AssertionError("stage 1 ran before the method was checked")

        monkeypatch.setattr(PL, "power_profile", no_allocation)
        spec = PL.ExperimentSpec(command="design-ce", scenario=mini_scenario_file, method="foo",
                                 out_dir=str(tmp_path / "o"))
        with pytest.raises(M.ModelError, match="foo"):
            PL.run_pipeline(spec)
        assert not (tmp_path / "o").exists()


# the commands with an iterative solver, and those that take --bits
_ITERATIVE = ("design-ce", "design-onebit", "sweep-bits", "sweep-rf", "sweep-antennas",
              "sweep-snr")
_BITS = tuple(c for c in PL.COMMANDS if c not in ("sweep-bits", "fig2"))
# flags that only some commands take: an accepted value, and those commands;
# every command takes --scenario, --seed and --out
_SOME_FLAGS = {"--bits": ("3", _BITS), "--max-iters": ("3", _ITERATIVE),
               "--tol": ("1e-3", _ITERATIVE), "--method": ("MM", ("design-ce",)),
               "--design": ("d.txt", ("evaluate",)), "--pfa": ("0.05", ("sweep-snr",)),
               "--trials": ("2000", ("sweep-snr",)), "--snr": ("0", ("sweep-snr",))}


def _takes(command, flag):
    return flag not in _SOME_FLAGS or command in _SOME_FLAGS[flag][1]


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

    # a dict overrides keys of a valid scenario; a string is the whole file
    @pytest.mark.parametrize("override", [
        {"clutter_angles_deg": [math.nan, 30.0]},
        {"clutter_powers_db": [math.nan, 15.0]},
        {"target_power_db": math.inf},
        {"n_rf": 17, "code_len": 32},
        pytest.param("{not json", id="not-json"),
        pytest.param("[16, 12, 4, 8]", id="not-an-object"),
        pytest.param('{"n_tx": 8}', id="missing-key"),
        pytest.param({"n_rx": "twelve"}, id="non-numeric-size"),
        pytest.param({"n_tx": 16.7}, id="fractional-size"),
        pytest.param({"n_rf": True}, id="boolean-size"),
    ])
    def test_invalid_scenario_file_exits_2(self, mini_scenario_file, tmp_path, override):
        with open(mini_scenario_file) as fh:
            d = json.load(fh)
        path = tmp_path / "bad.json"
        path.write_text(override if isinstance(override, str) else json.dumps({**d, **override}))
        code = cli.main(["allocate-power", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_evaluate_reads_a_one_column_design(self, mini_scenario_file, tmp_path):
        # a single column loads as a 1-D row unless it is read as a matrix
        with open(mini_scenario_file) as fh:
            d = json.load(fh)
        scenario = tmp_path / "one.json"
        scenario.write_text(json.dumps({**d, "n_rf": 1}))
        design = tmp_path / "design.txt"
        np.savetxt(design, np.linspace(-90.0, 90.0, 16)[:, None])
        code = cli.main(["evaluate", "--scenario", str(scenario), "--design", str(design),
                         "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("content", [None, "not numbers\n", "nan nan nan nan\n" * 16],
                             ids=["missing", "text", "nan"])
    def test_evaluate_bad_design_file_exits_2(self, mini_scenario_file, tmp_path, content):
        design = tmp_path / "design.txt"
        if content is not None:
            design.write_text(content)
        code = cli.main(["evaluate", "--scenario", mini_scenario_file, "--design", str(design),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    # 10^308 is a finite power whose steered gain overflows: the scenario, or
    # each SNR point's, is refused before any work, so nothing warns
    @pytest.mark.parametrize("command", ["sweep-snr", "design-ce", "evaluate"])
    def test_overflowing_target_power_exits_2(self, mini_scenario_file, tmp_path, capsys,
                                              recwarn, command):
        argv = [command, "--out", str(tmp_path / "o")]
        if command != "evaluate":
            argv += ["--max-iters", "3"]
        if command == "sweep-snr":
            argv += ["--scenario", mini_scenario_file, "--snr", "3080", "--trials", "1000",
                     "--pfa", "0.01"]
        else:
            with open(mini_scenario_file) as fh:
                d = json.load(fh)
            scenario = tmp_path / "hot.json"
            scenario.write_text(json.dumps({**d, "target_power_db": 3080.0}))
            argv += ["--scenario", str(scenario)]
        if command == "evaluate":
            design = tmp_path / "design.txt"
            np.savetxt(design, np.random.default_rng(0).uniform(-180.0, 180.0, (16, 4)))
            argv += ["--design", str(design)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert [str(w.message) for w in recwarn] == []

    # a spacing so fine that the grid's point count overflows or passes the
    # cap (2e6 points, and 2e11, which would not fit in memory), and a grid
    # that runs past 90 degrees around an accepted mean
    @pytest.mark.parametrize("grid", [
        pytest.param({"target_grid_spacing_deg": 1e-320, "target_uncertainty_deg": 2.0},
                     id="subnormal-spacing"),
        pytest.param({"target_grid_spacing_deg": 1e-6, "target_uncertainty_deg": 2.0},
                     id="2e6-points"),
        pytest.param({"target_grid_spacing_deg": 1e-11, "target_uncertainty_deg": 2.0},
                     id="2e11-points"),
        pytest.param({"target_mean_angle_deg": 80.0, "target_uncertainty_deg": 40.0,
                      "target_grid_spacing_deg": 10.0}, id="past-endfire")])
    def test_bad_target_grid_exits_2(self, mini_scenario_file, tmp_path, capsys, grid):
        with open(mini_scenario_file) as fh:
            d = json.load(fh)
        scenario = tmp_path / "grid.json"
        scenario.write_text(json.dumps({**d, **grid}))
        assert cli.main(["allocate-power", "--scenario", str(scenario),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("pfa", ["0", "1.5", "-0.1", "nan"])
    def test_sweep_snr_bad_pfa_exits_2_before_design(self, mini_scenario_file, tmp_path,
                                                     monkeypatch, pfa):
        def no_design(*args, **kwargs):
            raise AssertionError("the design ran before pfa was checked")

        monkeypatch.setattr(PL, "run_ce_design", no_design)
        code = cli.main(["sweep-snr", "--scenario", mini_scenario_file, "--pfa", pfa,
                         "--out", str(tmp_path / "o")])
        assert code == 2

    # 10^13 trials once ran the design and then failed for memory with a traceback
    @pytest.mark.parametrize("trials", [SIM.MAX_TRIALS + 1, 10 ** 13], ids=["cap+1", "1e13"])
    def test_sweep_snr_trials_past_the_cap_exit_2_before_design(self, mini_scenario_file,
                                                                 tmp_path, monkeypatch, capsys,
                                                                 trials):
        def no_design(*args, **kwargs):
            raise AssertionError("the design ran before the trial count was checked")

        monkeypatch.setattr(PL, "run_ce_design", no_design)
        code = cli.main(["sweep-snr", "--scenario", mini_scenario_file, "--trials", str(trials),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_trial_cap_accepts_the_documented_counts(self):
        # the default, detect-desk32's count, the README's, and the cap itself
        for pfa, trials in ((1e-3, 100_000), (1e-2, 15_360), (1e-6, SIM.MAX_TRIALS)):
            SIM.check_detection_settings(pfa, trials)

    # 3080 dB is a finite power that only the point's scenario refuses, and
    # -4000 dB underflows to no target power
    @pytest.mark.parametrize("snr", ["nan", "inf", "1e308", "3080", "-4000"])
    def test_sweep_snr_bad_snr_exits_2_before_design(self, mini_scenario_file, tmp_path,
                                                     monkeypatch, capsys, snr):
        def no_design(*args, **kwargs):
            raise AssertionError("the design ran before the SNR was checked")

        monkeypatch.setattr(PL, "run_ce_design", no_design)
        code = cli.main(["sweep-snr", "--scenario", mini_scenario_file, "--snr", "0", snr,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_negative_seed_exits_2_before_stage_1(self, mini_scenario_file, tmp_path,
                                                  monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("stage 1 ran before the seed was checked")

        monkeypatch.setattr(PL, "power_profile", no_allocation)
        code = cli.main(["design-ce", "--scenario", mini_scenario_file, "--seed", "-1",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["design-ce", "design-onebit"])
    def test_non_finite_tol_exits_2(self, mini_scenario_file, tmp_path, command, tol):
        # a NaN tol once passed "tol <= 0", ran to the cap and wrote "tol": NaN
        out = tmp_path / "o"
        code = cli.main([command, "--scenario", mini_scenario_file, "--tol", tol,
                         "--out", str(out)])
        assert code == 2
        assert not list(out.glob("*.json"))

    def test_write_json_refuses_non_finite(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(M.ModelError):
            PL.write_json(path, {"report": {"avg_relative_entropy": math.nan}}, {"seed": 0})
        assert not path.exists()

    def test_report_holding_nan_exits_2(self, mini_scenario_file, tmp_path, monkeypatch,
                                        capsys):
        # the report refuses the NaN when it is made, before the first artifact
        monkeypatch.setattr(PL, "evaluate_entropies", lambda *args: (math.nan, math.nan))
        for command in ("design-ce", "design-onebit", "sweep-rf"):
            out = tmp_path / command
            code = cli.main([command, "--scenario", mini_scenario_file, "--max-iters", "3",
                             "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert not out.exists()


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
                  "--out", "o", "--design", "d.txt"])
        cli.main(["sweep-snr", "--pfa", "0.01", "--trials", "2000", "--snr", "-3", "0"])
        cli.main(["design-ce", "--method", "MM", "--max-iters", "7", "--tol", "0.5"])
        assert captured == [
            PL.ExperimentSpec(command="evaluate", scenario="desk32", seed=4, bits="ideal",
                              out_dir="o", design_path="d.txt"),
            PL.ExperimentSpec(command="sweep-snr", pfa=0.01, trials=2000,
                              snr_grid_db=(-3.0, 0.0)),
            PL.ExperimentSpec(command="design-ce", method="MM", max_iters=7, tol=0.5),
        ]

    @pytest.mark.parametrize("flag", sorted(_SOME_FLAGS))
    def test_each_command_takes_the_flags_it_reads(self, captured, capsys, flag):
        value, takers = _SOME_FLAGS[flag]
        for command in PL.COMMANDS:
            assert cli.main([command, flag, value]) == (0 if command in takers else 2)
            assert ("unrecognized arguments" in capsys.readouterr().err) != (command in takers)

    def test_negative_snr_in_e_notation(self, captured):
        # Python 3.11's argparse took "-1e-3" for an unknown option and exited 2
        assert cli.main(["sweep-snr", "--snr", "-1e-3", "-5", "-.5E+1"]) == 0
        assert captured == [PL.ExperimentSpec(command="sweep-snr",
                                              snr_grid_db=(-1e-3, -5.0, -5.0))]


class TestReportCounters:
    def test_design_reports_carry_fallback_counts(self, mini_scenario_file, tmp_path):
        cli.main(["design-ce", "--scenario", mini_scenario_file, "--out", str(tmp_path / "ce")])
        cli.main(["design-onebit", "--scenario", mini_scenario_file,
                  "--out", str(tmp_path / "ob")])
        ce = json.loads((tmp_path / "ce" / "design_report.json").read_text())["report"]
        ob = json.loads((tmp_path / "ob" / "onebit_report.json").read_text())["report"]
        for counts, iterations, map_evals in (
                (ce["extras"], ce["iterations"], ce["map_evals"]),
                (ob["extras"]["warm_start"], ob["extras"]["warm_start"]["iterations"],
                 ob["extras"]["warm_start"]["map_evals"])):
            assert map_evals == 2 * iterations > 0
            assert 0 <= counts["stalls"] <= counts["shift_rejections"] <= map_evals
            assert 0 <= counts["gram_fallbacks"] <= map_evals
            assert 0 <= counts["squarem_rejections"] <= iterations
        assert ob["extras"]["halvings"] >= 0 and ob["extras"]["momentum_resets"] >= 0

    def test_onebit_report_times_its_warm_start(self, mini_scenario_file, tmp_path,
                                                monkeypatch):
        design, warm = PL.run_ce_design, []

        def recorded(*args, **kwargs):
            result = design(*args, **kwargs)
            warm.append(result[1].wall_time_s)
            return result

        monkeypatch.setattr(PL, "run_ce_design", recorded)
        cli.main(["design-onebit", "--scenario", mini_scenario_file,
                  "--out", str(tmp_path / "ob")])
        ob = json.loads((tmp_path / "ob" / "onebit_report.json").read_text())["report"]
        assert [ob["extras"]["warm_start"]["wall_time_s"]] == warm
        assert warm[0] > 0.0

    def test_reports_name_the_stage2_path(self, tmp_path):
        # default128 (r = 23, n_tx = 128) goes low-rank; desk32 (r = 27, n_tx = 32) stays
        # dense; the plain and the accelerated loop report the side their problem took
        for name, path in (("default128", "low-rank"), ("desk32", "dense")):
            for method in ("AMM", "MM"):
                out = tmp_path / f"{name}-{method}"
                cli.main(["design-ce", "--scenario", name, "--max-iters", "2",
                          "--method", method, "--out", str(out)])
                ce = json.loads((out / "design_report.json").read_text())["report"]
                assert (ce["method"], ce["extras"]["minorizer"]) == (method, path)
        cli.main(["design-onebit", "--scenario", "desk32", "--max-iters", "2",
                  "--out", str(tmp_path / "ob")])
        ob = json.loads((tmp_path / "ob" / "onebit_report.json").read_text())["report"]
        assert ob["extras"]["warm_start"]["minorizer"] == "dense"


class TestIterationFlags:
    def test_onebit_tol_is_honored(self, mini_scenario_file, tmp_path):
        out = tmp_path / "ob"
        cli.main(["design-onebit", "--scenario", mini_scenario_file, "--tol", "1e9",
                  "--out", str(out)])
        report = json.loads((out / "onebit_report.json").read_text())
        assert report["report"]["iterations"] == 1
        assert report["provenance"]["params"]["tol"] == 1e9


class TestSweeps:
    def test_sweep_bits_rows(self, mini_scenario_file, tmp_path):
        sc = PL.load_scenario(mini_scenario_file)
        rows = PL.sweep(sc, 0, "bits", (1, "ideal"), params=CeDesignParams(max_iters=80))
        assert [r[0] for r in rows] == [1, "ideal"]
        assert all(np.isfinite(r[1]) for r in rows)

    def test_sweep_rf_resizes(self, mini_scenario_file):
        sc = PL.load_scenario(mini_scenario_file)
        rows = PL.sweep(sc, 0, "n_rf", (2, 4), bits=1, params=CeDesignParams(max_iters=60))
        assert [r[0] for r in rows] == [2, 4]

    def test_design_reads_no_receive_side_input(self, mini_scenario_file):
        # the premise of one design per sweep: stage 2 reads neither the ADC
        # resolution nor the receive array's size
        sc = PL.load_scenario(mini_scenario_file)
        params = CeDesignParams(max_iters=40)
        designs = {PL.run_ce_design(replace(sc, n_rx=n_rx), bits, 0, params=params)[0].tobytes()
                   for bits in (1, 3, "ideal") for n_rx in (sc.n_rx, 40, 64)}
        assert len(designs) == 1

    @pytest.mark.parametrize("swept, values, designs", [
        ("bits", (1, 3, "ideal"), 1), ("n_rx", (12, 40), 1), ("n_rf", (2, 4), 2)],
        ids=["bits", "n_rx", "n_rf"])
    def test_designs_once_unless_n_rf_is_swept(self, mini_scenario_file, monkeypatch,
                                              swept, values, designs):
        # each row is the D of a design made for its own value, as before
        sc = PL.load_scenario(mini_scenario_file)
        params = CeDesignParams(max_iters=40)
        oracle = [(v, PL.run_ce_design(sc if swept == "bits" else replace(sc, **{swept: v}),
                                       v if swept == "bits" else 3, 0, params=params
                                       )[1].avg_relative_entropy) for v in values]
        design, calls = PL.run_ce_design, []

        def counted(*args, **kwargs):
            calls.append(args)
            return design(*args, **kwargs)

        monkeypatch.setattr(PL, "run_ce_design", counted)
        assert PL.sweep(sc, 0, swept, values, bits=3, params=params) == oracle
        assert len(calls) == designs


# -- bounded fuzz of the CLI on tiny scenario files ---------------------------

# values that a valid file or flag never holds
_BROKEN = {"n_tx": 0, "n_rx": -3, "n_rf": 9, "code_len": 0, "target_mean_angle_deg": 120.0,
           "target_uncertainty_deg": -1.0, "target_grid_spacing_deg": 0.0,
           "target_power_db": math.inf, "clutter_angles_deg": [math.nan],
           "clutter_powers_db": 1e308, "noise_power_db": -math.inf}


@st.composite
def tiny_scenario_dicts(draw):
    """A scenario file with N_t <= 8; about one in four has one broken key."""
    n_clutter = draw(st.integers(0, 3))
    d = {
        "n_tx": draw(st.integers(1, 8)), "n_rx": draw(st.integers(1, 8)),
        "n_rf": draw(st.integers(1, 2)), "code_len": draw(st.integers(2, 8)),
        # the grid's ends stay inside [-90, 90] degrees
        "target_mean_angle_deg": draw(st.floats(-87.0, 87.0)),
        "target_uncertainty_deg": draw(st.floats(0.0, 6.0)),
        "target_grid_spacing_deg": draw(st.floats(0.5, 4.0)),
        "target_power_db": draw(st.floats(-30.0, 30.0)),
        "clutter_angles_deg": draw(st.lists(st.floats(-90.0, 90.0), min_size=n_clutter,
                                            max_size=n_clutter)),
        "clutter_powers_db": draw(st.floats(-10.0, 40.0)),
        "noise_power_db": draw(st.floats(-10.0, 10.0)),
    }
    if draw(st.integers(0, 3)) == 3:
        key = draw(st.sampled_from(sorted(_BROKEN)))
        d[key] = _BROKEN[key]
    return d


def _flag(draw, valid, invalid):
    """A valid flag value, or one time in eight an invalid one."""
    return draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 7 else valid))


@st.composite
def cli_calls(draw):
    """A command and its flags, bounded so that one call takes well under a second."""
    command = draw(st.sampled_from(["allocate-power", "design-ce", "design-onebit",
                                    "evaluate", "sweep-snr"]))
    flags = ["--seed", _flag(draw, ["0", "1", "5"], ["-1"]),
             "--bits", _flag(draw, ["1", "2", "3", "ideal"], ["0", "9"])]
    if command in _ITERATIVE:
        flags += ["--max-iters", _flag(draw, ["1", "7", "30"], ["0", "-2"])]
    if command in _ITERATIVE and draw(st.booleans()):
        flags += ["--tol", _flag(draw, ["1e-4", "0.5", "1e9"], ["0", "-1", "nan", "inf"])]
    if command == "sweep-snr":
        flags += ["--pfa", _flag(draw, ["0.05", "0.2"], ["0", "1", "nan"]),
                  "--trials", _flag(draw, ["300", "700"], ["0", "10"]),
                  "--snr", *[repr(draw(st.floats(-10.0, 10.0)))
                             for _ in range(draw(st.integers(1, 2)))]]
    return command, flags


def _assert_finite_artifacts(out):
    """Every number an artifact holds is finite."""
    def refuse(token):
        raise AssertionError(f"non-finite JSON token {token}")

    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=refuse)
            continue
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            for cell in line.replace(",", " ").split():
                try:
                    value = float(cell)
                except ValueError:
                    continue            # a column name or the "ideal" resolution
                assert math.isfinite(value), f"{path.name}: {line}"


class TestCliFuzz:
    @settings(max_examples=30, deadline=None)
    @given(tiny_scenario_dicts(), cli_calls(), st.integers(0, 2 ** 32 - 1))
    def test_exit_status_artifacts_and_round_trip(self, scenario, call, design_seed):
        command, flags = call
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "sc.json").write_text(json.dumps(scenario))
            argv = [command, "--scenario", str(tmp / "sc.json"), "--out", str(tmp / "out"),
                    *flags]
            if command == "evaluate":
                shape = (scenario["n_tx"], scenario["n_rf"])
                phases = np.random.default_rng(design_seed).uniform(-180.0, 180.0, shape)
                np.savetxt(tmp / "design.txt", phases)
                argv += ["--design", str(tmp / "design.txt")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)       # any exception is a traceback
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if (tmp / "out").exists():
                _assert_finite_artifacts(tmp / "out")
            try:
                sc = PL.load_scenario(str(tmp / "sc.json"))
            except M.ModelError:
                return
            (tmp / "back.json").write_text(json.dumps(sc.to_dict()))
            back = PL.load_scenario(str(tmp / "back.json"))
        for name in ("n_tx", "n_rx", "n_rf", "code_len"):
            assert getattr(back, name) == getattr(sc, name)
        # the file-unit values are written back as read, so nothing moves by an ulp
        for name in ("target_mean_angle", "target_uncertainty", "target_grid_spacing",
                     "target_power", "noise_power", "clutter_angles", "clutter_powers"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sc, name), err_msg=name)
        assert back.to_dict() == sc.to_dict()
        assert back.content_hash() == sc.content_hash()


# -- refusals: a refused command exits 2 with one line and writes nothing -----

# design files, by name, next to a valid 16 x 4 phase matrix ("design.txt")
_BAD_DESIGNS = {"text.txt": "not numbers\n", "nan.txt": "nan nan nan nan\n" * 16,
                "inf.txt": "inf 0 0 0\n" * 16, "empty.txt": "", "blank.txt": "\n\n",
                "transposed.txt": ("0 " * 15 + "0\n") * 4, "ragged.txt": "0 0 0 0\n0 0\n" * 8}
# scenario files, by name: the mini scenario with one key broken, or not a scenario
_BAD_SCENARIOS = {**{f"bad-{key}.json": json.dumps({**_MINI_SCENARIO, key: value})
                     for key, value in _BROKEN.items()},
                  "2e11-points.json": json.dumps({**_MINI_SCENARIO,
                                                  "target_grid_spacing_deg": 1e-11}),
                  "not-json.json": "{not json", "list.json": "[16, 12, 4, 8]"}

# each class of bad input: the commands that read it, and flags holding a bad
# value whatever the other flags (one list, or one per command); "{tmp}" is the
# test's directory
_BAD_INPUTS = (
    (PL.COMMANDS, [["--seed", v] for v in ("-1", "-7")]),
    (PL.COMMANDS, [["--scenario", "{tmp}/" + name] for name in _BAD_SCENARIOS]
     + [["--scenario", "no-such-scenario"]]),
    (_BITS, [["--bits", v] for v in ("0", "6", "7", "-1", "64")]),
    (_ITERATIVE, [["--max-iters", v] for v in ("0", "-2")]),
    (_ITERATIVE, [["--tol", v] for v in ("0", "-1", "nan", "-1e-9")]),
    (("design-ce",), [["--method", v] for v in ("foo", "", "SQUAREM")]),
    (("sweep-snr",), [["--pfa", v] for v in ("0", "1", "1.5", "-0.1", "nan", "inf")]
     + [["--trials", v] for v in ("0", "-5", "10", "10000001", "10000000000000")]
     + [["--pfa", "0.5", "--trials", "5"]]),
    (("sweep-snr",), [["--snr", "0", v] for v in ("nan", "inf", "1e308", "3080", "-4000")]
     + [["--snr", "-4000"]]),
    (("evaluate",), [["--design", "{tmp}/" + name] for name in _BAD_DESIGNS]
     + [["--design", "{tmp}/nonexistent"], ["--design", "{tmp}"]]),
    # values argparse refuses (not of the flag's type, or missing), and flags
    # the command does not take
    (PL.COMMANDS, [["--seed", v] for v in ("x", "1.5", "")] + [["--out"], ["--scenario"]]),
    (_BITS, [["--bits", v] for v in ("x", "1.5", "")]),
    (_ITERATIVE, [["--max-iters", v] for v in ("x", "1e3")] + [["--tol", "abc"]]),
    (("sweep-snr",), [["--snr", "-inf"], ["--snr"], ["--trials", "1e4"], ["--pfa", "x"]]),
    (PL.COMMANDS, {c: [[flag, value] for flag, (value, _) in _SOME_FLAGS.items()
                       if not _takes(c, flag)] + [["--frobnicate", "1"]]
                   for c in PL.COMMANDS}),
)
# accepted values, given before the bad one so that the bad one is what counts
_GOOD_FLAGS = {"--seed": ("0", "3"), "--bits": ("1", "3", "ideal"), "--max-iters": ("5",),
               "--tol": ("0.5",), "--pfa": ("0.05",), "--trials": ("2000",)}


@st.composite
def refused_calls(draw):
    """A command, some accepted flags, then one bad input of a class the command reads."""
    commands, bad = draw(st.sampled_from(_BAD_INPUTS))
    command = draw(st.sampled_from(commands))
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(_GOOD_FLAGS)), max_size=3, unique=True)):
        if _takes(command, flag):
            flags += [flag, draw(st.sampled_from(_GOOD_FLAGS[flag]))]
    if command == "evaluate":
        flags += ["--design", "{tmp}/design.txt"]
    return command, tuple(flags + draw(st.sampled_from(bad[command] if isinstance(bad, dict)
                                                       else bad)))


def _fail(*args, **kwargs):
    raise AssertionError("a design or Monte Carlo runner ran for a refused command")


class TestCliRefusals:
    # the Motivation's seven commands, the 10^13-trial sweep, and the bad
    # inputs named by CHANGES.md's FOUND lines
    @example(("sweep-snr", ("--snr", "0", "-4000")))
    @example(("sweep-snr", ("--pfa", "0.5", "--trials", "5")))
    @example(("design-ce", ("--bits", "7")))
    @example(("evaluate", ()))
    @example(("evaluate", ("--design", "{tmp}/nonexistent")))
    @example(("allocate-power", ("--max-iters", "0")))
    @example(("design-onebit", ("--tol", "-1")))
    @example(("sweep-snr", ("--max-iters", "2", "--trials", "10000000000000")))
    @example(("design-ce", ("--seed", "-1")))
    @example(("design-ce", ("--bits", "x")))
    @example(("sweep-snr", ("--snr", "-inf")))
    @example(("evaluate", ("--max-iters", "3")))
    @example(("allocate-power", ("--tol", "1e-3")))
    @example(("fig2", ("--bits", "3")))
    @example(("design-ce", ("--tol", "nan")))
    @example(("allocate-power", ("--scenario", "{tmp}/2e11-points.json")))
    @example(("evaluate", ("--design", "{tmp}/empty.txt")))
    @settings(max_examples=60, deadline=None)
    @given(refused_calls())
    def test_refused_command_writes_nothing(self, call):
        command, flags = call
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            (tmp / "sc.json").write_text(json.dumps(_MINI_SCENARIO))
            np.savetxt(tmp / "design.txt", np.linspace(-180.0, 180.0, 64).reshape(16, 4))
            for name, text in {**_BAD_DESIGNS, **_BAD_SCENARIOS}.items():
                (tmp / name).write_text(text)
            for name in ("squarem_accelerated_mm", "plain_mm", "nesterov_epm",
                         "detection_curve", "fig2_rows"):
                mp.setattr(PL, name, _fail)
            argv = [command, "--scenario", str(tmp / "sc.json"), "--out", str(tmp / "out"),
                    *(flag.replace("{tmp}", str(tmp)) for flag in flags)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert "Traceback" not in err.getvalue()
            assert [str(w.message) for w in caught] == []
            assert not (tmp / "out").exists()
