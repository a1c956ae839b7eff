import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import extlasso as xl
from extlasso import solver
from extlasso.model import DimensionMismatchError
from extlasso.rng import stream
from oracles import (brute_force_re_min, kkt_verdict_all_columns,
                     reference_re_estimate, scaled_duals_all_columns)


class TestKktCheck:
    def test_origin_certified_iff_thresholds(self):
        inst = xl.gen_instance(30, 8, k=2, s=4, sigma=0.3, seed=40)
        lam_b0 = float(np.max(np.abs(inst.X.T @ inst.y))) / 30
        lam_e0 = float(np.max(np.abs(inst.y))) / math.sqrt(30)

        def origin_report(lam_b, lam_e):
            sol = xl.Solution(beta_hat=np.zeros(8), e_hat=np.zeros(30),
                              lambda_beta=lam_b, lambda_e=lam_e,
                              objective=xl.objective_value(
                                  inst, np.zeros(8), np.zeros(30), lam_b, lam_e),
                              iterations=0, converged=True, kkt_residual=0.0)
            return xl.kkt_check(inst, sol)

        good = origin_report(1.01 * lam_b0, 1.01 * lam_e0)
        assert good.strict_feasible and good.stationarity_residual == 0.0
        bad = origin_report(0.99 * lam_b0, 1.01 * lam_e0)
        assert not bad.strict_feasible
        bad_e = origin_report(1.01 * lam_b0, 0.99 * lam_e0)
        assert not bad_e.strict_feasible

    def test_converged_solution_certifies(self):
        inst = xl.gen_instance(80, 16, k=4, s=20, sigma=0.2, seed=41)
        pair = xl.lambdas_simulation(0.2, 80, 16)
        sol = xl.solve_extended_lasso(inst, *pair)
        assert sol.converged
        rep = xl.kkt_check(inst, sol)
        assert rep.stationarity_residual <= 1e-9
        assert rep.sign_consistent

    def test_certified_requires_stationarity(self):
        inst = xl.gen_instance(80, 16, k=4, s=20, sigma=0.2, seed=41)
        pair = xl.lambdas_simulation(0.2, 80, 16)
        sol = xl.solve_extended_lasso(inst, *pair)
        assert xl.kkt_check(inst, sol).certified
        scaled = replace(sol, beta_hat=1.01 * np.asarray(sol.beta_hat))
        rep = xl.kkt_check(inst, scaled)
        # the duals stay feasible and sign-consistent: only stationarity fails
        assert rep.strict_feasible and rep.sign_consistent
        assert rep.stationarity_residual > 1e-3
        assert not rep.certified
        assert xl.kkt_check(inst, scaled, tol=1.0).certified

    def test_certified_solution_is_the_restricted_point_of_its_supports(self):
        """Strict feasibility + sign consistency imply the solution equals
        the closed-form stationary point on its own supports (uniqueness)."""
        inst = xl.gen_instance(70, 12, k=3, s=14, sigma=0.2, seed=55)
        pair = xl.lambdas_simulation(0.2, 70, 12)
        sol = xl.solve_extended_lasso(inst, *pair)
        rep = xl.kkt_check(inst, sol)
        assert rep.certified
        beta = np.asarray(sol.beta_hat, dtype=float)
        e = np.asarray(sol.e_hat, dtype=float)
        T_hat = np.flatnonzero(beta)
        S_hat = np.flatnonzero(e)
        _, _, beta_r, e_r = xl.restricted_solution(
            inst, T_hat, S_hat, *pair, anchor_beta=beta, anchor_e=e)
        np.testing.assert_allclose(beta, beta_r, atol=1e-8)
        np.testing.assert_allclose(e, e_r, atol=1e-8)

    def test_perturbation_detected(self):
        inst = xl.gen_instance(50, 10, k=3, s=8, sigma=0.2, seed=42)
        pair = xl.lambdas_simulation(0.2, 50, 10)
        sol = xl.solve_extended_lasso(inst, *pair)
        assert sol.converged
        beta = np.array(sol.beta_hat, dtype=float)
        j = int(np.flatnonzero(beta)[0])
        beta[j] += 1e-3
        tampered = xl.Solution(beta_hat=beta, e_hat=sol.e_hat,
                               lambda_beta=sol.lambda_beta,
                               lambda_e=sol.lambda_e,
                               objective=xl.objective_value(
                                   inst, beta, sol.e_hat, *pair),
                               iterations=sol.iterations, converged=False,
                               kkt_residual=1.0)
        rep = xl.kkt_check(inst, tampered)
        assert rep.stationarity_residual > 1e-4

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 1100), p=st.integers(2, 12),
           k=st.integers(0, 12), s_frac=st.floats(0.0, 0.9),
           gap=st.sampled_from((-1.0, 1.0)), log_gap=st.floats(-15.0, -6.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1100, p=12, k=3, s_frac=0.5, gap=1.0, log_gap=-8.0, seed=1)
    @example(n=1100, p=12, k=3, s_frac=0.5, gap=-1.0, log_gap=-8.0, seed=1)
    def test_verdict_agrees_with_all_columns_oracle(self, n, p, k, s_frac,
                                                    gap, log_gap, seed):
        """The largest off-support beta dual is put within 10^log_gap of
        the strict-feasibility line 1 - 1e-12, on either side, with every
        other condition met.  kkt_check never certifies what the
        all-columns longdouble oracle refuses, and agrees with it on
        certified and strict_feasible unless the oracle's figure lies less
        than 2 err below the line: kkt_check's own figure is within err
        (the bound on the float64 off-support X'r) of the oracle's, and it
        must stay err below the line."""
        rng = np.random.default_rng(seed)
        X = np.asfortranarray(rng.standard_normal((n, p)))
        w = rng.standard_normal(n)
        T = rng.choice(p, size=min(k, p - 1), replace=False)
        S = rng.choice(n, size=int(s_frac * n), replace=False)
        beta, e = np.zeros(p), np.zeros(n)
        # signs that the duals, close to X'w and w, agree with
        beta[T] = np.sign(X[:, T].T @ w) * rng.uniform(0.5, 2.0, len(T))
        e[S] = np.sign(w[S]) * rng.uniform(0.5, 2.0, len(S))
        inst = xl.ProblemInstance(X=X, y=X @ beta + math.sqrt(n) * e + w)
        b, ee = beta.astype(np.longdouble), e.astype(np.longdouble)
        top = scaled_duals_all_columns(X, inst.y, b, ee, 1.0, 1.0)[2]
        lam_b = top / (1.0 - 1e-12 + gap * 10.0 ** log_gap)
        lam_e = 2.0 * float(np.max(np.abs(w))) / math.sqrt(n)
        sol = xl.Solution(beta_hat=beta, e_hat=e, lambda_beta=lam_b,
                          lambda_e=lam_e, objective=0.0, iterations=0,
                          converged=True, kkt_residual=0.0)
        rep = xl.kkt_check(inst, sol, tol=1e300)
        certified, strict, top = kkt_verdict_all_columns(
            X, inst.y, b, ee, lam_b, lam_e, 1e300)
        err = solver._scaled_duals(X, inst.y, b, ee, lam_b, lam_e)[4]
        assert 0.0 < err < 1e-9
        assert abs(rep.max_offsupport_zbeta - top) <= err
        assert certified or not rep.certified
        if not 1.0 - 1e-12 - 2.0 * err <= top < 1.0 - 1e-12:
            assert (rep.certified, rep.strict_feasible) == (certified, strict)

    def test_holds_no_extended_precision_design(self):
        # at n <= _ROWS a longdouble row block of every column is all of X:
        # 3.6 MB here, against about 0.2 MB for the support-column work
        inst = xl.gen_instance(890, 256, k=4, s=445, sigma=0.0, seed=46)
        t = inst.truth
        sol = xl.Solution(beta_hat=t.beta_star, e_hat=t.e_star,
                          lambda_beta=5e-9, lambda_e=2.5e-9, objective=0.0,
                          iterations=0, converged=True, kkt_residual=0.0)
        xl.kkt_check(inst, sol)  # warm-up
        tracemalloc.start()
        try:
            rep = xl.kkt_check(inst, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.z_beta.shape == (256,)
        assert peak < 0.25 * inst.X.size * np.dtype(np.longdouble).itemsize


class TestWitness:
    def test_easy_regime_passes(self):
        # roomy n, no corruption, tiny lambdas
        n = 400
        inst = xl.gen_instance(n, 16, k=3, s=0, sigma=0.0, seed=43,
                               beta_floor=0.5)
        t = inst.truth
        rep = xl.primal_dual_witness(inst, t.T, t.S, 1e-6, 1e-6)
        assert rep.passed and rep.failing_condition == "none"

    def test_undersampled_regime_fails(self):
        n = xl.n_from_theta(0.1, 8, 128)
        fails = 0
        trials = 20
        pair = xl.lambdas_simulation(0.1, n, 128)
        for t in range(trials):
            inst = xl.gen_instance(n, 128, k=8, s=n // 2, sigma=0.1,
                                   seed=(43, t))
            tr = inst.truth
            rep = xl.primal_dual_witness(inst, tr.T, tr.S, *pair)
            fails += not rep.passed
        assert fails >= int(0.8 * trials)

    def test_agreement_with_solver(self):
        """Witness verdict and solver signed-support recovery coincide."""
        n = xl.n_from_theta(2.0, 8, 128)
        pair = xl.lambdas_simulation(0.1, n, 128)
        agree = 0
        trials = 30
        for t in range(trials):
            inst = xl.gen_instance(n, 128, k=8, s=n // 2, sigma=0.1,
                                   seed=(44, t), beta_floor=0.3, e_floor=0.3)
            tr = inst.truth
            wit = xl.primal_dual_witness(inst, tr.T, tr.S, *pair)
            sol = xl.solve_extended_lasso(inst, *pair)
            met = xl.recovery_metrics(inst, sol)
            got = sol.converged and met.exact_signed_support
            agree += (wit.passed == got)
        assert agree >= int(0.95 * trials)

    @pytest.mark.parametrize("T, S", [([-1], [0]), ([0], [-1]),
                                      ([8], [0]), ([0], [40])])
    def test_index_outside_range_rejected(self, T, S):
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        with pytest.raises(xl.InputError, match="lie in"):
            xl.primal_dual_witness(inst, T, S, 0.1, 0.1)

    @pytest.mark.parametrize("T, S", [([True] * 2 + [False] * 6, [0]),
                                      ([0], [True] * 4 + [False] * 36),
                                      ([1.7], [0]), ([0], [0.0])])
    def test_mask_or_fraction_rejected(self, T, S):
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        with pytest.raises(xl.InputError, match="integer indexes"):
            xl.primal_dual_witness(inst, T, S, 0.1, 0.1)

    def test_off_truth_supports_ignore_the_truth_outside_them(self):
        """At (T, S) other than the truth's, the witness candidate is the
        restricted point anchored at the truth zeroed off (T, S)."""
        inst = xl.gen_instance(60, 10, k=3, s=6, sigma=0.1, seed=4)
        t = inst.truth
        for T, S in ((t.T[:2], t.S), (np.union1d(t.T, [9]), t.S[:3])):
            a_b = np.zeros(inst.p)
            a_b[T] = t.beta_star[T]
            a_e = np.zeros(inst.n)
            a_e[S] = t.e_star[S]
            _, _, beta_r, e_r = xl.restricted_solution(
                inst, T, S, 0.05, 0.03, anchor_beta=a_b, anchor_e=a_e)
            wit = xl.primal_dual_witness(inst, T, S, 0.05, 0.03)
            np.testing.assert_allclose(wit.beta_restricted, beta_r[T],
                                       atol=1e-12)
            np.testing.assert_allclose(wit.e_restricted, e_r[S], atol=1e-12)

    def test_duals_from_the_residual_of_the_restricted_point(self):
        """The witness takes r from the restricted point; its duals equal,
        bit for bit, those from restricted_solution's point with the
        residual formed again, over two row blocks."""
        n = 2 * solver._ROWS + 37
        inst = xl.gen_instance(n, 12, k=4, s=n // 4, sigma=0.1, seed=47)
        t = inst.truth
        wit = xl.primal_dual_witness(inst, t.T, t.S, 0.03, 0.02)
        _, _, beta, e = xl.restricted_solution(inst, t.T, t.S, 0.03, 0.02)
        (z_b, z_e), *_ = solver._scaled_duals(inst.X, inst.y, beta, e, 0.03,
                                              0.02)
        assert np.array_equal(wit.dual_offsupport_beta, np.delete(z_b, t.T))
        assert np.array_equal(wit.dual_offsupport_e, np.delete(z_e, t.S))
        assert np.array_equal(wit.beta_restricted, beta[t.T])
        assert np.array_equal(wit.e_restricted, e[t.S])

    @pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
    def test_penalty_must_be_finite_and_non_negative(self, lam):
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        t = inst.truth
        for pair in ((lam, 0.1), (0.1, lam)):
            with pytest.raises(xl.InputError):
                xl.primal_dual_witness(inst, t.T, t.S, *pair)

    def test_requires_truth(self):
        inst = xl.gen_instance(20, 5, k=2, s=4, sigma=0.1, seed=45)
        bare = xl.ProblemInstance(X=inst.X, y=inst.y)
        with pytest.raises(xl.InputError):
            xl.primal_dual_witness(bare, [0], [0], 0.1, 0.1)


class TestReEstimate:
    def test_isometry_h_only(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        X = math.sqrt(12) * Q[:, :6]
        est = xl.extended_re_estimate(X, np.arange(6), np.arange(0), 1.0,
                                      200, seed=1, restrict="f_zero")
        assert est.kappa_hat == pytest.approx(1.0, abs=1e-10)

    def test_identity_block_f_only(self):
        X = stream(2, 0).standard_normal((10, 4))
        est = xl.extended_re_estimate(X, np.arange(2), np.arange(3), 1.0,
                                      200, seed=2, restrict="h_zero")
        assert est.kappa_hat == pytest.approx(1.0, abs=1e-10)

    def test_monte_carlo_fixture(self):
        X = stream(50, 0).standard_normal((400, 100))
        lam = math.sqrt(math.log(400) / math.log(100))
        est = xl.extended_re_estimate(X, np.arange(5), np.arange(40), lam,
                                      10_000, seed=50)
        assert est.kappa_hat >= 0.1
        assert est.kappa_hat == pytest.approx(0.6738, abs=1e-3)  # frozen
        assert est.num_samples == 10_000

    def test_nested_sample_monotonicity(self):
        X = stream(51, 0).standard_normal((60, 20))
        vals = [xl.extended_re_estimate(X, np.arange(3), np.arange(10), 0.7,
                                        m, seed=5).kappa_hat
                for m in (500, 1500, 4000)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_sampler_never_undercuts_brute_force(self):
        for i, (n, p, k, s, lam) in enumerate(
                [(3, 2, 1, 1, 0.8), (4, 3, 2, 2, 0.8), (5, 4, 2, 2, 3.0),
                 (6, 6, 2, 3, 0.8)]):
            X = stream(60, n, p).standard_normal((n, p))
            T = np.arange(k)
            S = np.arange(s)
            brute = brute_force_re_min(X, T, S, lam, seed=61,
                                          grid_per_orthant=24, polish_top=20)
            samp = xl.extended_re_estimate(X, T, S, lam, 3000,
                                           seed=62).kappa_hat
            assert samp >= brute - 1e-6, f"case {i}"
            assert brute >= -1e-12

    def test_brute_force_size_guard(self):
        X = np.zeros((10, 10))
        with pytest.raises(xl.InputError):
            brute_force_re_min(X, [0], [0], 1.0)

    def test_numpy_integer_seed(self):
        X = stream(63, 0).standard_normal((20, 6))
        est = xl.extended_re_estimate(X, [0], [1, 2], 1.0, 300,
                                      seed=np.int64(3))
        ref = xl.extended_re_estimate(X, [0], [1, 2], 1.0, 300, seed=3)
        assert est.kappa_hat == ref.kappa_hat
        assert est.sampling_spec["seed"] == 3
        assert type(est.sampling_spec["seed"]) is int

    @pytest.mark.parametrize("T, S", [([-1], [0]), ([0], [-1]),
                                      ([6], [0]), ([0], [20]),
                                      ([True] + [False] * 5, [0]),
                                      ([0], [1.5])])
    def test_index_outside_range_rejected(self, T, S):
        # a negative index used to wrap around (T=[-1] acted as T=[p-1]),
        # one past the end raised a bare IndexError, a mask became 0/1
        # indexes and 1.5 became 1
        X = stream(64, 0).standard_normal((20, 6))
        with pytest.raises(xl.InputError):
            xl.extended_re_estimate(X, T, S, 1.0, 100)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_lambda_ratio_must_be_finite_positive(self, lam):
        X = stream(65, 0).standard_normal((20, 6))
        with pytest.raises(xl.InputError):
            xl.extended_re_estimate(X, [0], [0], lam, 100)

    @pytest.mark.parametrize("count", [2.5, 0, -3, "100"])
    def test_sample_count_must_be_an_integer_of_at_least_one(self, count):
        # 2.5 used to raise TypeError
        X = stream(66, 0).standard_normal((20, 6))
        with pytest.raises(xl.InputError, match="num_samples"):
            xl.extended_re_estimate(X, [0], [0], 1.0, count)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_rejected(self, bad):
        # used to return kappa_hat = inf without a word, and
        # parameter_error_bound then gave a bound of 0
        X = stream(68, 0).standard_normal((20, 6))
        X[3, 2] = bad
        with pytest.raises(xl.InputError, match="X"):
            xl.extended_re_estimate(X, [0], [0], 1.0, 100)

    @pytest.mark.parametrize("shape", [(20,), (2, 20, 6)])
    def test_design_must_be_a_matrix(self, shape):
        # a 1-D X raised a bare ValueError
        X = np.ones(shape)
        with pytest.raises(DimensionMismatchError):
            xl.extended_re_estimate(X, [0], [0], 1.0, 100)

    def test_working_memory_is_the_draws_and_one_block(self):
        # the draw buffers h (p x 1000) and f (n x 1000) plus a bounded
        # remainder; a sampler holding n x 1000 or s x 1000 work arrays
        # besides f reads about 51 MB here
        n, p, s = 2000, 200, 1000
        X = stream(69, 0).standard_normal((n, p))
        xl.extended_re_estimate(X[:20, :5], [0], [0], 1.0, 1)  # warm-up
        tracemalloc.start()
        try:
            xl.extended_re_estimate(X, np.arange(5), np.arange(s), 1.0,
                                    1000, seed=70)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + p) * 1000 * 8 + 4e6


def _cone_instance(n, p, seed, data):
    """A Gaussian design and supports T, S of any size from empty to full,
    in arbitrary order."""
    X = stream(seed, n, p).standard_normal((n, p))
    k = data.draw(st.integers(0, p), label="k")
    s = data.draw(st.integers(0, n), label="s")
    T = data.draw(st.permutations(range(p)), label="T")[:k]
    S = data.draw(st.permutations(range(n)), label="S")[:s]
    return X, T, S


class TestReEstimateProperties:
    """The sampler against the earlier mask-based sampler, kept verbatim in
    tests/oracles.py: same stream, same draws, so the same kappa_hat up to
    rounding, and the same infinities."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 80), p=st.integers(1, 40),
           restrict=st.sampled_from([None, "f_zero", "h_zero"]),
           num_samples=st.integers(1, 2500), lam=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, data, n, p, restrict, num_samples, lam,
                               seed):
        X, T, S = _cone_instance(n, p, seed, data)
        self.assert_matches(X, T, S, lam, num_samples, (seed, 7), restrict)

    @pytest.mark.parametrize("restrict", [None, "f_zero", "h_zero"])
    @pytest.mark.parametrize("full", [False, True])
    def test_matches_reference_at_extreme_supports(self, restrict, full):
        # p > n; with full supports the cone is the whole space, with empty
        # ones only the zero direction is left and kappa_hat is inf
        n, p = 3, 40
        X = stream(66, n, p).standard_normal((n, p))
        T, S = (range(p), range(n)) if full else ([], [])
        self.assert_matches(X, list(T), list(S), 10.0, 2500, 67, restrict)

    @staticmethod
    def assert_matches(X, T, S, lam, num_samples, seed, restrict):
        got = xl.extended_re_estimate(X, T, S, lam, num_samples, seed=seed,
                                      restrict=restrict)
        ref = reference_re_estimate(X, T, S, lam, num_samples, seed=seed,
                                    restrict=restrict)
        if math.isinf(ref.kappa_hat):
            assert got.kappa_hat == ref.kappa_hat
        else:
            assert got.kappa_hat == pytest.approx(ref.kappa_hat, rel=1e-12,
                                                  abs=0.0)
        assert got.sampling_spec == ref.sampling_spec

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 40), p=st.integers(1, 20),
           restrict=st.sampled_from([None, "f_zero", "h_zero"]),
           counts=st.lists(st.integers(1, 2500), min_size=2, max_size=3,
                           unique=True),
           lam=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_nested_sample_monotonicity(self, data, n, p, restrict, counts,
                                        lam, seed):
        X, T, S = _cone_instance(n, p, seed, data)
        vals = [xl.extended_re_estimate(X, T, S, lam, m, seed=seed,
                                        restrict=restrict).kappa_hat
                for m in sorted(counts)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestRecoveryMetrics:
    def test_solution_that_does_not_fit_rejected(self):
        # an n = 30 solution met an n = 40 instance with a bare broadcast
        # ValueError
        small = xl.gen_instance(30, 8, k=2, s=4, sigma=0.1, seed=47)
        big = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=47)
        sol = xl.solve_extended_lasso(small, 0.05, 0.05)
        with pytest.raises(DimensionMismatchError):
            xl.kkt_check(big, sol)
        with pytest.raises(DimensionMismatchError):
            xl.recovery_metrics(big, sol)

    def test_exact_solution_zero_errors(self):
        inst = xl.gen_instance(30, 8, k=3, s=6, sigma=0.1, seed=46)
        t = inst.truth
        sol = xl.Solution(beta_hat=t.beta_star.copy(), e_hat=t.e_star.copy(),
                          lambda_beta=1.0, lambda_e=1.0,
                          objective=xl.objective_value(
                              inst, t.beta_star, t.e_star, 1.0, 1.0),
                          iterations=0, converged=True, kkt_residual=0.0)
        met = xl.recovery_metrics(inst, sol)
        assert met.l2_beta == met.l2_e == 0.0
        assert met.exact_signed_support
        assert met.prediction_error == 0.0

    def test_single_sign_flip_detected(self):
        inst = xl.gen_instance(30, 8, k=3, s=6, sigma=0.1, seed=47)
        t = inst.truth
        beta = t.beta_star.copy()
        j = t.T[0]
        beta[j] = -beta[j]
        sol = xl.Solution(beta_hat=beta, e_hat=t.e_star.copy(),
                          lambda_beta=1.0, lambda_e=1.0,
                          objective=xl.objective_value(
                              inst, beta, t.e_star, 1.0, 1.0),
                          iterations=0, converged=True, kkt_residual=0.0)
        met = xl.recovery_metrics(inst, sol)
        assert not met.signed_support_beta
        assert met.signed_support_e

    def test_against_naive_recomputation(self):
        inst = xl.gen_instance(20, 6, k=2, s=4, sigma=0.2, seed=48)
        t = inst.truth
        rng = np.random.default_rng(48)
        beta = t.beta_star + 0.01 * rng.standard_normal(6)
        e = t.e_star + 0.01 * rng.standard_normal(20)
        sol = xl.Solution(beta_hat=beta, e_hat=e, lambda_beta=1.0,
                          lambda_e=1.0,
                          objective=xl.objective_value(inst, beta, e, 1, 1),
                          iterations=0, converged=True, kkt_residual=0.0)
        met = xl.recovery_metrics(inst, sol)
        h = [beta[j] - t.beta_star[j] for j in range(6)]
        f = [e[i] - t.e_star[i] for i in range(20)]
        assert met.l2_beta == pytest.approx(math.sqrt(sum(v * v for v in h)),
                                            rel=1e-12)
        assert met.l2_e == pytest.approx(math.sqrt(sum(v * v for v in f)),
                                         rel=1e-12)
        assert met.linf_beta == pytest.approx(max(abs(v) for v in h), rel=1e-12)
        pred = inst.X @ np.array(h)
        assert met.prediction_error == pytest.approx(
            math.sqrt(sum(v * v for v in pred) / 20), rel=1e-12)

    def test_corruption_scale_invariance_noiseless(self):
        flags = []
        for scale in (1.0, 10.0, 1000.0):
            inst = xl.gen_instance(200, 16, k=3, s=20, sigma=0.0,
                                   seed=49, e_scale=scale)
            sol = xl.solve_extended_lasso(inst, 1e-7, 5e-8)
            met = xl.recovery_metrics(inst, sol)
            flags.append((met.signed_support_beta, met.signed_support_e))
        assert flags[0] == flags[1] == flags[2]


class TestParameterErrorBound:
    def test_bound_holds_on_seeded_instances(self):
        # reduced version of the guarantee check (full run in acceptance)
        violations = 0
        for t in range(10):
            inst = xl.gen_instance(400, 100, k=5, s=40, sigma=0.1,
                                   seed=(52, t))
            pair = xl.lambdas_noise_oracle(inst)
            est = xl.extended_re_estimate(inst.X, inst.truth.T, inst.truth.S,
                                          pair.ratio, 2000, seed=(53, t))
            sol = xl.solve_extended_lasso(inst, *pair)
            met = xl.recovery_metrics(inst, sol)
            bound = xl.parameter_error_bound(est.kappa_hat, *pair, k=5, s=40,
                                             safety=0.5)
            violations += met.l2_total > bound
        assert violations == 0

    @pytest.mark.parametrize("kwargs", [
        {"kappa": math.inf}, {"safety": math.inf}, {"kappa": math.nan},
        {"safety": math.nan}, {"kappa": 0.0}, {"kappa": -0.5},
        {"lam_b": math.nan}, {"lam_e": math.nan}, {"lam_b": math.inf},
        {"lam_e": -0.1}, {"k": -1}, {"s": -1}, {"k": 2.5}, {"s": "40"}])
    def test_invalid_inputs_rejected(self, kwargs):
        # an infinite kappa or safety gave a bound of 0, a nan gave nan and
        # k = -1 a bare "math domain error"
        args = {"kappa": 0.6, "lam_b": 0.1, "lam_e": 0.05, "k": 5, "s": 40,
                "safety": 0.5, **kwargs}
        with pytest.raises(xl.InputError):
            xl.parameter_error_bound(**args)
