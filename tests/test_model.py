import json
import tracemalloc

import numpy as np
import pytest

import extlasso as xl
from extlasso.model import instance_from_dict, solution_from_dict
from oracles import objective_full_x


def naive_objective(X, y, beta, e, lam_b, lam_e):
    """Triple-loop oracle for the objective, no vectorization."""
    n = len(y)
    p = len(beta)
    rn = np.sqrt(n)
    acc = 0.0
    for i in range(n):
        pred = 0.0
        for j in range(p):
            pred += X[i, j] * beta[j]
        acc += (y[i] - pred - rn * e[i]) ** 2
    pen = 0.0
    for j in range(p):
        pen += abs(beta[j])
    pen *= lam_b
    for i in range(n):
        pen += lam_e * abs(e[i])
    return acc / (2 * n) + pen


class TestSignedSupport:
    def test_basic_signs(self):
        ss = xl.extract_signed_support([0.0, 2.5, -0.3], zero_tol=1e-8)
        assert list(ss.signs) == [0, 1, -1]
        assert ss.support_size == 2

    def test_below_tolerance(self):
        ss = xl.extract_signed_support([1e-12, 0.0, 0.0], zero_tol=1e-8)
        assert list(ss.signs) == [0, 0, 0]
        assert ss.support_size == 0

    def test_above_tolerance(self):
        ss = xl.extract_signed_support([-1e-7, 3.0, 0.0], zero_tol=1e-8)
        assert list(ss.signs) == [-1, 1, 0]

    def test_nonfinite_rejected(self):
        with pytest.raises(xl.InputError):
            xl.extract_signed_support([np.nan, 1.0])

    def test_negative_tol_rejected(self):
        with pytest.raises(xl.InputError):
            xl.extract_signed_support([1.0], zero_tol=-1.0)

    def test_idempotent_on_sign_vector(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        x[rng.choice(40, 10, replace=False)] = 0.0
        first = xl.extract_signed_support(x)
        again = xl.extract_signed_support(first.signs.astype(float))
        assert first == again


class TestObjective:
    def test_zero_residual_gives_penalty_only(self):
        inst = xl.gen_instance(30, 10, k=3, s=5, sigma=0.0, seed=11)
        t = inst.truth
        lam_b, lam_e = 0.3, 0.7
        val = xl.objective_value(inst, t.beta_star, t.e_star, lam_b, lam_e)
        expected = lam_b * np.abs(t.beta_star).sum() + lam_e * np.abs(t.e_star).sum()
        assert val == pytest.approx(expected, rel=1e-12)

    def test_empty_model(self):
        inst = xl.gen_instance(25, 8, k=2, s=4, sigma=0.1, seed=12)
        val = xl.objective_value(inst, np.zeros(8), np.zeros(25), 1.0, 1.0)
        assert val == pytest.approx(np.dot(inst.y, inst.y) / (2 * 25), rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        inst = xl.gen_instance(12, 5, k=2, s=3, sigma=0.2, seed=13)
        beta = rng.standard_normal(5)
        e = rng.standard_normal(12)
        got = xl.objective_value(inst, beta, e, 0.11, 0.23)
        want = naive_objective(inst.X, inst.y, beta, e, 0.11, 0.23)
        assert got == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        inst = xl.gen_instance(10, 4, k=1, s=2, sigma=0.0, seed=1)
        with pytest.raises(xl.InputError):
            xl.objective_value(inst, np.zeros(5), np.zeros(10), 1.0, 1.0)

    def test_convexity_spot_check(self):
        """Any perturbation of a converged solution has no smaller objective."""
        inst = xl.gen_instance(40, 10, k=3, s=6, sigma=0.1, seed=14)
        pair = xl.lambdas_simulation(0.1, 40, 10)
        sol = xl.solve_extended_lasso(inst, *pair)
        assert sol.converged
        rng = np.random.default_rng(14)
        for _ in range(100):
            db = 1e-3 * rng.standard_normal(10)
            de = 1e-3 * rng.standard_normal(40)
            perturbed = xl.objective_value(inst, sol.beta_hat + db,
                                           sol.e_hat + de,
                                           *pair)
            assert perturbed >= sol.objective - 1e-9


    def test_extended_precision_over_support_columns(self):
        """A longdouble point: the residual over the support columns of
        beta, in row blocks, is the full-X residual bit for bit (the other
        columns add exact zeros), and no longdouble copy of X is made."""
        inst = xl.gen_instance(2055, 64, k=5, s=600, sigma=0.1, seed=15)
        t = inst.truth
        rng = np.random.default_rng(15)
        beta = (t.beta_star + 1e-3 * (t.beta_star != 0)
                * rng.standard_normal(64)).astype(np.longdouble)
        beta[t.T] += np.longdouble(1) / 3
        e = t.e_star.astype(np.longdouble) / 3
        want = objective_full_x(inst, beta, e, 0.11, 0.23)
        tracemalloc.start()
        try:
            got = xl.objective_value(inst, beta, e, 0.11, 0.23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < inst.X.nbytes


    @pytest.mark.parametrize("name", ["lambda_beta", "lambda_e"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_penalty_must_be_finite_and_positive(self, name, bad):
        # a nan or inf penalty used to raise NumericError
        inst = xl.gen_instance(12, 4, k=2, s=2, sigma=0.1, seed=4)
        lams = {"lambda_beta": 0.1, "lambda_e": 0.1, name: bad}
        with pytest.raises(xl.InputError, match=name):
            xl.objective_value(inst, np.zeros(4), np.zeros(12), **lams)


class TestProblemInstance:
    def test_reconstruction_identity(self):
        for seed in range(5):
            inst = xl.gen_instance(50, 16, k=4, s=10, sigma=0.3, seed=seed)
            t = inst.truth
            recon = inst.X @ t.beta_star + np.sqrt(inst.n) * t.e_star + t.w
            err = np.linalg.norm(inst.y - recon) / np.linalg.norm(inst.y)
            assert err <= 1e-10

    def test_truth_mismatch_rejected(self):
        inst = xl.gen_instance(20, 6, k=2, s=3, sigma=0.0, seed=4)
        bad = xl.GroundTruth(beta_star=inst.truth.beta_star + 1.0,
                             e_star=inst.truth.e_star, w=inst.truth.w,
                             sigma=0.0)
        with pytest.raises(xl.InputError):
            xl.ProblemInstance(X=inst.X, y=inst.y, truth=bad)

    def test_truth_check_keeps_its_tolerance(self):
        """The truth, checked over beta*'s support columns, must still
        reproduce y to a relative 1e-10: y moved by 0.5e-10 of its norm
        passes, y moved by 2e-10 does not, and X is kept, not copied."""
        inst = xl.gen_instance(60, 16, k=3, s=10, sigma=0.1, seed=2)
        d = np.random.default_rng(0).standard_normal(inst.n)
        d *= np.linalg.norm(inst.y) / np.linalg.norm(d)
        ok = xl.ProblemInstance(X=inst.X, y=inst.y + 0.5e-10 * d,
                                truth=inst.truth)
        assert ok.X is inst.X
        with pytest.raises(xl.InputError, match="reconstruction"):
            xl.ProblemInstance(X=inst.X, y=inst.y + 2e-10 * d,
                               truth=inst.truth)

    def test_nonfinite_design_rejected(self):
        X = np.ones((3, 2))
        X[0, 0] = np.inf
        with pytest.raises(xl.InputError):
            xl.ProblemInstance(X=X, y=np.ones(3))

    def test_fortran_order(self):
        inst = xl.gen_instance(10, 4, k=1, s=0, sigma=0.0, seed=0)
        assert inst.X.flags["F_CONTIGUOUS"]


class TestSerialization:
    def test_instance_round_trip(self):
        inst = xl.gen_instance(18, 7, k=2, s=4, sigma=0.25, seed=42,
                               corruption_mode="missing")
        back = xl.ProblemInstance.from_json(inst.to_json())
        np.testing.assert_array_equal(back.X, inst.X)
        np.testing.assert_array_equal(back.y, inst.y)
        np.testing.assert_array_equal(back.truth.beta_star, inst.truth.beta_star)
        np.testing.assert_array_equal(back.truth.e_star, inst.truth.e_star)
        np.testing.assert_array_equal(back.truth.w, inst.truth.w)
        assert back.meta.corruption_mode == "missing"
        assert back.to_json() == inst.to_json()

    def test_solution_round_trip(self):
        inst = xl.gen_instance(20, 6, k=2, s=4, sigma=0.1, seed=2)
        pair = xl.lambdas_simulation(0.1, 20, 6)
        sol = xl.solve_extended_lasso(inst, *pair)
        back = xl.Solution.from_json(sol.to_json())
        np.testing.assert_array_equal(np.asarray(back.beta_hat, dtype=float),
                                      np.asarray(sol.beta_hat, dtype=float))
        assert back.converged == sol.converged
        assert back.objective == sol.objective

    def test_stop_reason_round_trip(self):
        """An unconverged solve's stop reason survives the JSON round trip;
        a solution-v1 file written without the field loads with stop None,
        and an unknown reason is an input error."""
        inst = xl.gen_instance(48, 4, k=1, s=17, sigma=0.1, seed=18)
        sol = xl.solve_extended_lasso(inst, 1.4792762945919326e-06,
                                      1.5194922451038214e-07,
                                      xl.SolverConfig(max_iters=1))
        assert not sol.converged and sol.stop == "budget"
        assert xl.Solution.from_json(sol.to_json()).stop == "budget"
        d = json.loads(sol.to_json())
        del d["stop"]
        assert solution_from_dict(d).stop is None
        d["stop"] = "stalled"
        with pytest.raises(xl.InputError, match="stop"):
            solution_from_dict(d)

    @pytest.mark.parametrize("rtol", [float("nan"), float("inf"), -1e-10])
    def test_objective_tolerance_must_be_finite_and_non_negative(self, rtol):
        # a nan rtol used to pass every comparison and check nothing
        inst = xl.gen_instance(20, 6, k=2, s=4, sigma=0.1, seed=2)
        sol = xl.solve_extended_lasso(inst, *xl.lambdas_simulation(0.1, 20, 6))
        with pytest.raises(xl.InputError, match="rtol"):
            sol.validate_objective(inst, rtol=rtol)

    def test_schema_guard(self):
        with pytest.raises(xl.InputError):
            instance_from_dict({"schema": "bogus"})

    def test_objective_field_validates(self):
        inst = xl.gen_instance(20, 6, k=2, s=4, sigma=0.1, seed=2)
        pair = xl.lambdas_simulation(0.1, 20, 6)
        sol = xl.solve_extended_lasso(inst, *pair)
        sol.validate_objective(inst)
        tampered = xl.Solution(
            beta_hat=sol.beta_hat, e_hat=sol.e_hat,
            lambda_beta=sol.lambda_beta, lambda_e=sol.lambda_e,
            objective=sol.objective * 1.01, iterations=sol.iterations,
            converged=sol.converged, kkt_residual=sol.kkt_residual)
        with pytest.raises(xl.NumericError):
            tampered.validate_objective(inst)
