import json
import math
import os

import numpy as np
import pytest

import extlasso as xl
from extlasso import experiments
from extlasso.experiments import (SweepConfig, curve_rows, emit_curves,
                                  run_sweep, run_trial,
                                  sweep_config_from_dict,
                                  sweep_result_from_dict,
                                  sweep_result_to_dict)


def tiny_config(**overrides):
    base = dict(p_list=(32,), regimes=("sublinear",),
                theta_grid=(0.5, 1.0), trials=4, sigma=0.1, master_seed=7)
    base.update(overrides)
    return SweepConfig(**base)


class TestWilson:
    def test_hand_computed_interval(self):
        # z = 1.959964, phat = 0.9, n = 100, worked by hand
        z = 1.959963984540054
        denom = 1 + z * z / 100
        center = (0.9 + z * z / 200) / denom
        half = z * math.sqrt(0.9 * 0.1 / 100 + z * z / 40_000) / denom
        lo, hi = xl.wilson_interval(90, 100)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)
        assert lo == pytest.approx(0.825, abs=1e-3)
        assert hi == pytest.approx(0.944, abs=1e-3)

    def test_extremes_clamped(self):
        lo, hi = xl.wilson_interval(0, 20)
        assert lo == 0.0 and hi > 0
        lo, hi = xl.wilson_interval(20, 20)
        assert hi == 1.0 and lo < 1


class TestIsotonic:
    def test_already_monotone(self):
        vals = [0.0, 0.1, 0.5, 0.9]
        np.testing.assert_allclose(xl.isotonic_fit(vals), vals)
        assert xl.monotone_trend_residual(vals) == 0.0

    def test_pooled_average(self):
        fit = xl.isotonic_fit([0.4, 0.2, 0.6])
        np.testing.assert_allclose(fit, [0.3, 0.3, 0.6])
        assert xl.monotone_trend_residual([0.4, 0.2, 0.6]) == pytest.approx(0.1)

    def test_noisy_monotone_curve_passes(self):
        rates = [0.0, 0.05, 0.02, 0.3, 0.6, 0.55, 0.9, 1.0]
        assert xl.monotone_trend_residual(rates) <= 0.15


class TestSweep:
    def test_single_trial_high_theta_noiseless_succeeds(self):
        cfg = SweepConfig(p_list=(128,), regimes=("sublinear",),
                          theta_grid=(3.0,), trials=1, sigma=0.0,
                          master_seed=7)
        cell = cfg.cells()[0]
        assert cell.k == 8 and cell.n == xl.n_from_theta(3.0, 8, 128)
        rec = run_trial(cfg, cell, 0)
        assert rec.converged and rec.success

    def test_undersampled_cell_mostly_fails(self):
        cfg = SweepConfig(p_list=(128,), regimes=("sublinear",),
                          theta_grid=(0.1,), trials=20, sigma=0.1,
                          master_seed=7)
        result = run_sweep(cfg)
        cell = result.cells[0]
        assert cell.success_rate <= 0.1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert sweep_result_to_dict(a) == sweep_result_to_dict(b)
        pa = emit_curves(a, tmp_path / "a")
        pb = emit_curves(b, tmp_path / "b")
        assert [p.read_bytes() for p in pa] == [p.read_bytes() for p in pb]

    def test_worker_count_invariance(self, tmp_path):
        cfg = tiny_config()
        seq = run_sweep(cfg, n_workers=1)
        par = run_sweep(cfg, n_workers=3)
        assert sweep_result_to_dict(seq) == sweep_result_to_dict(par)

    @pytest.mark.parametrize("workers", [0, -2, 2.0])
    def test_worker_count_must_be_an_integer_of_at_least_one(self, workers):
        # 0 and -2 used to run serially without a word
        with pytest.raises(xl.InputError, match="n_workers"):
            run_sweep(tiny_config(), n_workers=workers)

    def test_pooled_workers_get_one_blas_thread(self, monkeypatch):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.setenv(name, "2")
        with experiments._worker_pool(2) as pool:
            seen = pool.map(os.getenv, names, chunksize=1)
        assert seen == ["1"] * len(names)
        assert [os.environ[name] for name in names] == ["2"] * len(names)

    def test_cell_bookkeeping(self):
        cfg = tiny_config()
        result = run_sweep(cfg)
        for cell in result.cells:
            assert cell.successes <= cell.trials
            assert cell.n == xl.n_from_theta(cell.theta, cell.k, cell.p)
            assert cell.s == cell.n // 2

    def test_config_round_trip(self):
        cfg = tiny_config(floor_beta="f_beta", e_scale=10.0)
        d = json.loads(json.dumps({
            **sweep_result_to_dict(run_sweep(tiny_config(trials=1)))["config"],
        }))
        # config embedded in results parses back
        parsed = sweep_config_from_dict(d)
        assert parsed.p_list == (32,)
        assert parsed.trials == 1
        assert cfg.floor_beta == "f_beta"

    def test_result_round_trip(self):
        result = run_sweep(tiny_config(trials=2))
        back = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(result))))
        assert sweep_result_to_dict(back) == sweep_result_to_dict(result)

    def test_curve_collapse_in_failing_regime(self):
        cfg = SweepConfig(p_list=(64, 128), regimes=("sublinear",),
                          theta_grid=(0.5, 0.75), trials=15, sigma=0.1,
                          master_seed=7)
        result = run_sweep(cfg)
        assert xl.curve_collapse_spread(result, "sublinear",
                                        theta_min=0.5) <= 0.2


class TestEmitCurves:
    def test_empty_result_header_only(self, tmp_path):
        from extlasso.experiments import SweepResult, RESULT_SCHEMA
        empty = SweepResult(schema=RESULT_SCHEMA,
                            config={"p_list": [128], "regimes": ["sublinear"]},
                            cells=[])
        paths = emit_curves(empty, tmp_path)
        assert len(paths) == 1
        lines = paths[0].read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1] == "theta,n,success_rate,ci_low,ci_high"
        assert len(lines) == 2

    def test_round_trip_reproduces_rows(self, tmp_path):
        result = run_sweep(tiny_config(trials=3))
        paths = emit_curves(result, tmp_path)
        rows = xl.read_curve_csv(paths[0])
        assert rows == curve_rows(result, 32, "sublinear")

    def test_wilson_columns_match(self, tmp_path):
        result = run_sweep(tiny_config(trials=4))
        paths = emit_curves(result, tmp_path)
        for theta, n, rate, lo, hi in xl.read_curve_csv(paths[0]):
            succ = round(rate * 4)
            wlo, whi = xl.wilson_interval(succ, 4)
            assert lo == pytest.approx(wlo, abs=1e-12)
            assert hi == pytest.approx(whi, abs=1e-12)

    def test_svg_emitted(self, tmp_path):
        result = run_sweep(tiny_config(trials=2))
        paths = emit_curves(result, tmp_path, fmt="svg-data")
        svgs = [p for p in paths if p.suffix == ".svg"]
        assert svgs and svgs[0].read_text().startswith("<svg")


class TestErrorScaling:
    def test_noiseless_uncorrupted_exact(self):
        res = xl.error_scaling_sweep(p=24, k=3, s=0, sigma=0.0,
                                     n_grid=(150,), trials=3, master_seed=7)
        assert res.rows[0][1] <= 1e-6

    def test_error_scales_linearly_in_sigma(self):
        kw = dict(p=32, k=3, s=10, n_grid=(300,), trials=8, master_seed=7)
        lo = xl.error_scaling_sweep(sigma=0.2, **kw).rows[0][1]
        hi = xl.error_scaling_sweep(sigma=0.4, **kw).rows[0][1]
        assert hi == pytest.approx(2 * lo, rel=0.15)

    def test_slope_shape(self):
        # reduced grid; the full-scale slope check is an acceptance criterion
        res = xl.error_scaling_sweep(p=48, k=3, s=12, sigma=0.5,
                                     n_grid=(200, 400, 800), trials=8,
                                     master_seed=7)
        assert -0.62 <= res.slope <= -0.3
