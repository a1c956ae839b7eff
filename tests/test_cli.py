import json
import subprocess
import sys

import numpy as np
import pytest

import extlasso as xl
from extlasso.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(["generate", "-n", "60", "-p", "16", "--k", "3",
                          "--s", "12", "--sigma", "0.1", "--seed", "5",
                          "-o", str(path)], capsys)
    assert code == 0
    return path


class TestGenerateSolveVerify:
    def test_end_to_end_exit_zero(self, tmp_path, instance_file, capsys):
        sol_path = tmp_path / "sol.json"
        code, _, _ = run_cli(["solve", str(instance_file),
                              "-o", str(sol_path)], capsys)
        assert code == 0
        code, out, _ = run_cli(["verify", str(instance_file), str(sol_path),
                                "-o", "-"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"]
        assert payload["stationarity_residual"] <= 1e-9
        assert "recovery" in payload

    def test_tampered_solution_exits_4(self, tmp_path, instance_file, capsys):
        sol_path = tmp_path / "sol.json"
        run_cli(["solve", str(instance_file), "-o", str(sol_path)], capsys)
        sol = xl.Solution.from_json(sol_path.read_text())
        beta = np.array(sol.beta_hat)
        beta[0] += 0.5
        inst = xl.ProblemInstance.from_json(instance_file.read_text())
        tampered = xl.Solution(
            beta_hat=beta, e_hat=sol.e_hat, lambda_beta=sol.lambda_beta,
            lambda_e=sol.lambda_e,
            objective=xl.objective_value(inst, beta, sol.e_hat,
                                         sol.lambda_beta, sol.lambda_e),
            iterations=sol.iterations, converged=sol.converged,
            kkt_residual=sol.kkt_residual)
        tam_path = tmp_path / "tampered.json"
        tam_path.write_text(tampered.to_json())
        code, _, _ = run_cli(["verify", str(instance_file), str(tam_path)],
                             capsys)
        assert code == 4

    def test_explicit_lambdas(self, tmp_path, instance_file, capsys):
        sol_path = tmp_path / "sol.json"
        code, _, _ = run_cli(["solve", str(instance_file),
                              "--lambda-beta", "0.05", "--lambda-e", "0.03",
                              "-o", str(sol_path)], capsys)
        assert code == 0
        sol = xl.Solution.from_json(sol_path.read_text())
        assert sol.lambda_beta == 0.05

    def test_stdout_piping(self, instance_file, capsys):
        code, out, _ = run_cli(["solve", str(instance_file), "-o", "-"],
                               capsys)
        assert code == 0
        sol = xl.Solution.from_json(out)
        assert sol.beta_hat.shape == (16,)


def test_solver_defaults_come_from_solver_config():
    cfg = xl.SolverConfig()
    solve = build_parser().parse_args(["solve", "inst.json"])
    verify = build_parser().parse_args(["verify", "inst.json", "sol.json"])
    assert (solve.max_iters, solve.tol_kkt) == (cfg.max_iters, cfg.tol_kkt)
    assert verify.tol_kkt == cfg.tol_kkt


class TestParams:
    def test_identity_covariance_scalars_are_one(self, instance_file, capsys):
        code, out, _ = run_cli(["params", str(instance_file)], capsys)
        assert code == 0
        payload = json.loads(out)
        rep = payload["covariance_report"]
        for key in ("C_min", "C_max", "D_plus_max", "D_minus_max",
                    "rho_u", "rho_l"):
            assert rep[key] == pytest.approx(1.0, abs=1e-12)
        assert rep["incoherence_value"] == 0.0
        assert set(payload["lambdas"]) == {"simulation", "gaussian_design",
                                           "support_recovery", "noise_oracle"}
        assert payload["magnitude_thresholds"]["f_beta"] > 0


class TestParamsExplicitCovariance:
    def test_explicit_matrix_round_trips(self, tmp_path, capsys):
        from extlasso.datagen import CovarianceSpec
        spec = CovarianceSpec("explicit", matrix=np.diag([2.0, 1.0, 1.0, 0.5]))
        inst = xl.gen_instance(40, 4, k=2, s=5, sigma=0.1, spec=spec, seed=9)
        path = tmp_path / "expl.json"
        path.write_text(inst.to_json())
        code, out, _ = run_cli(["params", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["covariance_report"]["xi"] == pytest.approx(2.0)


class TestErrorPaths:
    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["solve", str(bad)], capsys)
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(["solve", "/nonexistent/file.json"], capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_invalid_covariance_exits_2(self, capsys):
        code, _, _ = run_cli(["generate", "-n", "10", "-p", "4", "--k", "2",
                              "--covariance", "mystery"], capsys)
        assert code == 2

    @staticmethod
    def _edit(path, edit):
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))

    def _solution_file(self, tmp_path, instance_file, capsys):
        sol_path = tmp_path / "sol.json"
        code, _, _ = run_cli(["solve", str(instance_file),
                              "-o", str(sol_path)], capsys)
        assert code == 0
        return sol_path

    def test_solution_shape_mismatch_exits_2(self, tmp_path, instance_file,
                                             capsys):
        sol_path = self._solution_file(tmp_path, instance_file, capsys)
        self._edit(sol_path, lambda d: d["beta_hat"].update(shape=[17]))
        code, _, _ = run_cli(["verify", str(instance_file), str(sol_path)],
                             capsys)
        assert code == 2

    def test_instance_shape_mismatch_exits_2(self, instance_file, capsys):
        self._edit(instance_file, lambda d: d["X"].update(shape=[60, 17]))
        code, _, _ = run_cli(["solve", str(instance_file)], capsys)
        assert code == 2

    def test_invalid_base64_exits_2(self, instance_file, capsys):
        # "AAAA" decodes to 3 bytes, not a whole double
        self._edit(instance_file, lambda d: d["y"].update(data="AAAA"))
        code, _, _ = run_cli(["solve", str(instance_file)], capsys)
        assert code == 2

    def test_solution_of_another_instance_exits_2(self, tmp_path,
                                                  instance_file, capsys):
        sol_path = self._solution_file(tmp_path, instance_file, capsys)
        other = tmp_path / "other.json"
        code, _, _ = run_cli(["generate", "-n", "40", "-p", "16", "--k", "3",
                              "--s", "8", "--sigma", "0.1", "--seed", "5",
                              "-o", str(other)], capsys)
        assert code == 0
        code, _, _ = run_cli(["verify", str(other), str(sol_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--lambda-beta", "nan", "--lambda-e", "0.03"]),
        ("solve", ["--lambda-beta", "inf", "--lambda-e", "0.03"]),
        ("solve", ["--tol-kkt", "nan"]),
        ("solve", ["--tol-kkt", "inf"]),
        ("verify", ["--tol-kkt", "nan"])])
    def test_non_finite_option_exits_2(self, tmp_path, instance_file, capsys,
                                       command, flags):
        # nan and inf used to raise a traceback, exit 3, or run and report
        files = [str(instance_file)]
        if command == "verify":
            files.append(str(self._solution_file(tmp_path, instance_file,
                                                 capsys)))
        code, _, err = run_cli([command, *files, *flags], capsys)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("flags", [
        ["--lambda-beta", "0.5"], ["--lambda-e", "0.5"],
        ["--lambda-beta", "nan"], ["--lambda-e", "nan"]])
    def test_lone_lambda_option_exits_2(self, instance_file, capsys, flags):
        # one explicit penalty used to be ignored in favour of the
        # --lambda-family pair, with exit 0
        code, _, err = run_cli(["solve", str(instance_file), *flags], capsys)
        assert code == 2
        assert "input error" in err

    def test_converged_must_be_a_boolean_exits_2(self, tmp_path,
                                                 instance_file, capsys):
        sol_path = self._solution_file(tmp_path, instance_file, capsys)
        self._edit(sol_path, lambda d: d.update(converged="false"))
        code, _, _ = run_cli(["verify", str(instance_file), str(sol_path)],
                             capsys)
        assert code == 2


    def test_nan_noise_level_exits_2(self, tmp_path, capsys):
        # a nan sigma used to pass `sigma < 0`, exit 0 and write "sigma":
        # NaN, which is not JSON
        path = tmp_path / "inst.json"
        code, _, err = run_cli(["generate", "-n", "20", "-p", "5", "--k", "2",
                                "--sigma", "nan", "-o", str(path)], capsys)
        assert code == 2
        assert "sigma" in err
        assert not path.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_exits_2(self, tmp_path, capsys, workers):
        # used to run serially without a word
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1}))
        code, _, err = run_cli(["sweep", str(cfg_path), str(tmp_path / "o"),
                                "--workers", workers], capsys)
        assert code == 2
        assert "n_workers" in err
        assert not (tmp_path / "o" / "sweep_result.json").exists()

    def test_worker_count_checked_before_anything_is_written(self, tmp_path,
                                                             capsys):
        # the output directory and the --dump-instance files used to be
        # written before the worker count was refused
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1}))
        code, _, _ = run_cli(["sweep", str(cfg_path), str(tmp_path / "o"),
                              "--workers", "0",
                              "--dump-instance", str(tmp_path / "d")], capsys)
        assert code == 2
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "d").exists()


class TestSweepAndReport:
    def test_sweep_writes_results_and_curves(self, tmp_path, capsys):
        cfg = {"p_list": [32], "regimes": ["sublinear"],
               "theta_grid": [0.5], "trials": 2, "sigma": 0.1,
               "master_seed": 7}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["sweep", str(cfg_path), str(out_dir)], capsys)
        assert code == 0
        result_file = out_dir / "sweep_result.json"
        assert result_file.exists()
        assert (out_dir / "curve_p32_sublinear.csv").exists()

        report_dir = tmp_path / "report"
        code, _, _ = run_cli(["report", str(result_file), str(report_dir),
                              "--format", "svg-data"], capsys)
        assert code == 0
        assert (report_dir / "curve_p32_sublinear.csv").exists()
        assert (report_dir / "curve_p32_sublinear.svg").exists()

    def test_dump_instance_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1,
                                        "sigma": 0.1, "master_seed": 7}))
        dump = tmp_path / "dump"
        code, _, _ = run_cli(["sweep", str(cfg_path), str(tmp_path / "o"),
                              "--dump-instance", str(dump)], capsys)
        assert code == 0
        files = list(dump.glob("*.json"))
        assert len(files) == 1
        inst = xl.ProblemInstance.from_json(files[0].read_text())
        assert inst.p == 32

    def test_verify_reports_witness_with_truth(self, tmp_path, instance_file,
                                               capsys):
        sol_path = tmp_path / "sol.json"
        run_cli(["solve", str(instance_file), "-o", str(sol_path)], capsys)
        code, out, _ = run_cli(["verify", str(instance_file), str(sol_path)],
                               capsys)
        payload = json.loads(out)
        assert "witness" in payload
        assert payload["witness"]["failing_condition"] in (
            "none", "dual_beta", "dual_e", "sign_beta", "sign_e")

    def test_verify_recovery_lists_the_metrics_fields(self, tmp_path,
                                                       instance_file, capsys):
        """verify's recovery object holds RecoveryMetrics' seven fields, in
        their order, with the values recovery_metrics gives."""
        sol_path = tmp_path / "sol.json"
        run_cli(["solve", str(instance_file), "-o", str(sol_path)], capsys)
        code, out, _ = run_cli(["verify", str(instance_file), str(sol_path)],
                               capsys)
        assert code == 0
        inst = xl.ProblemInstance.from_json(instance_file.read_text())
        met = xl.recovery_metrics(inst,
                                  xl.Solution.from_json(sol_path.read_text()))
        want = {
            "l2_beta": met.l2_beta, "l2_e": met.l2_e,
            "linf_beta": met.linf_beta, "linf_e": met.linf_e,
            "signed_support_beta": met.signed_support_beta,
            "signed_support_e": met.signed_support_e,
            "prediction_error": met.prediction_error,
        }
        got = json.loads(out)["recovery"]
        assert list(got) == list(want)
        assert got == json.loads(json.dumps(want))

    @pytest.mark.parametrize("extra, named", [
        ({"trails": 2}, "trails"),
        ({"solver": {"max_iters": 100, "use_path": True}}, "use_path")])
    def test_unknown_sweep_config_key_exits_2(self, tmp_path, capsys, extra,
                                              named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1,
                                        **extra}))
        code, _, err = run_cli(["sweep", str(cfg_path),
                                str(tmp_path / "o")], capsys)
        assert code == 2
        assert named in err
        assert not (tmp_path / "o" / "sweep_result.json").exists()

    @pytest.mark.parametrize("extra, named", [
        ({"trials": "2"}, "trials"),
        ({"solver": {"max_iters": "100"}}, "max_iters")])
    def test_sweep_config_value_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                      extra, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1,
                                        **extra}))
        code, _, err = run_cli(["sweep", str(cfg_path),
                                str(tmp_path / "o")], capsys)
        assert code == 2
        assert named in err
        assert not (tmp_path / "o" / "sweep_result.json").exists()

    def test_sweep_config_logged(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_list": [32],
                                        "regimes": ["sublinear"],
                                        "theta_grid": [0.5], "trials": 1,
                                        "sigma": 0.1, "master_seed": 1}))
        code, _, err = run_cli(["sweep", str(cfg_path),
                                str(tmp_path / "o")], capsys)
        assert code == 0
        assert "config" in err


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "extlasso.cli", "generate", "-n", "12",
         "-p", "4", "--k", "2", "--seed", "1", "-o", "-"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    inst = xl.ProblemInstance.from_json(proc.stdout)
    assert inst.n == 12 and inst.p == 4
