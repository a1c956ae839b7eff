import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import extlasso as xl
from extlasso import solver
from extlasso.model import GroundTruth, ProblemInstance
from oracles import scaled_duals_all_columns, soft_threshold


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def subgradient_descent(X, y, lam_b, lam_e, iters=60_000, step0=0.05):
    """Diminishing-step subgradient descent on the joint objective.

    Returns the best objective seen.  The 1/sqrt(t) rate cannot certify
    tight tolerances, but the plateau bounds the optimum from above along a
    search path independent of the active-set kernel.
    """
    n, p = X.shape
    rn = math.sqrt(n)
    beta = np.zeros(p)
    e = np.zeros(n)
    best = math.inf
    for t in range(1, iters + 1):
        r = y - X @ beta - rn * e
        obj = r @ r / (2 * n) + lam_b * np.abs(beta).sum() + lam_e * np.abs(e).sum()
        best = min(best, obj)
        gb = -(X.T @ r) / n + lam_b * np.sign(beta)
        ge = -r / rn + lam_e * np.sign(e)
        step = step0 / math.sqrt(t)
        beta = beta - step * gb
        e = e - step * ge
    return best


def lasso_by_enumeration(X, y, lam):
    """Exact standard-Lasso solution by support/sign enumeration (tiny p).

    For every support A and sign pattern s on A, solve the stationarity
    system X_A'X_A b = X_A'y - n lam s, then keep candidates whose signs
    match and whose off-support duals are feasible.  Exact up to float
    rounding, entirely independent of the active-set kernel.
    """
    n, p = X.shape
    best_obj, best_beta = None, None
    for size in range(p + 1):
        for A in itertools.combinations(range(p), size):
            A = list(A)
            for signs in itertools.product((-1.0, 1.0), repeat=size):
                s = np.array(signs)
                XA = X[:, A]
                try:
                    b = np.linalg.solve(XA.T @ XA, XA.T @ y - n * lam * s)
                except np.linalg.LinAlgError:
                    continue
                if size and np.any(np.sign(b) != s):
                    continue
                beta = np.zeros(p)
                beta[A] = b
                r = y - X @ beta
                z = X.T @ r / (n * lam)
                mask = np.ones(p, dtype=bool)
                mask[A] = False
                if np.any(np.abs(z[mask]) > 1 + 1e-10):
                    continue
                obj = r @ r / (2 * n) + lam * np.abs(beta).sum()
                if best_obj is None or obj < best_obj:
                    best_obj, best_beta = obj, beta
    return best_beta, best_obj


def restricted_by_normal_equations(X, y, beta_star, e_star, w, T, S,
                                   lam_b, lam_e):
    """Independent dense implementation of the restricted stationary point.

    Builds the Gram system with explicit loops and lstsq instead of the
    library's masked solve.
    """
    n = X.shape[0]
    rn = math.sqrt(n)
    Sc = [i for i in range(n) if i not in set(S)]
    A = np.array([[X[i, j] for j in T] for i in Sc])
    G = A.T @ A
    c = np.sign(e_star[S])
    b = np.sign(beta_star[T])
    XST = np.array([[X[i, j] for j in T] for i in S])
    rhs = A.T @ w[Sc] + rn * lam_e * (XST.T @ c) - n * lam_b * b
    hT = np.linalg.lstsq(G, rhs, rcond=None)[0]
    gS = -(XST @ hT) / rn + w[S] / rn - lam_e * c
    return hT, gS


def fista(X, y, lam_b, lam_e, tol, iters=50_000, start=None):
    """FISTA on the augmented design Z = [X, sqrt(n) I] with the fixed step
    1/L, L = ||Z||^2 / n, from start (beta, e), zero by default, and without
    a lambda path.

    A search path independent of the active-set kernel; at small lambdas it
    cannot reach 1e-9 stationarity, so it runs to tol.  Returns the objective
    at the last iterate and whether the KKT residual reached tol.
    """
    n, p = X.shape
    rn = math.sqrt(n)
    step = n / (np.linalg.norm(X, 2) ** 2 + n)  # ||Z||^2 = smax(X)^2 + n
    beta, e = (np.zeros(p), np.zeros(n)) if start is None else \
        (np.array(start[0], dtype=float), np.array(start[1], dtype=float))
    vb, ve = beta.copy(), e.copy()
    t = 1.0
    converged = False
    for it in range(1, iters + 1):
        r = y - X @ vb - rn * ve
        beta_new = soft_threshold(vb + step * (X.T @ r) / n, step * lam_b)
        e_new = soft_threshold(ve + step * r / rn, step * lam_e)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        vb = beta_new + mom * (beta_new - beta)
        ve = e_new + mom * (e_new - e)
        beta, e, t = beta_new, e_new, t_new
        if it % 10 == 0 and solver._duals(
                X, y, beta, e, lam_b, lam_e)[2] <= tol:
            converged = True
            break
    r = y - X @ beta - rn * e
    obj = r @ r / (2 * n) + lam_b * np.abs(beta).sum() + lam_e * np.abs(e).sum()
    return obj, converged


def assert_converged_certifies(inst, lam_b, lam_e):
    """If the solve reports convergence, it is stationary to 1e-9,
    sign-consistent and dual-feasible over all coordinates when re-evaluated
    in extended precision, and kkt_check certifies it (strict feasibility
    included)."""
    sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
    if sol.converged:
        rep = xl.kkt_check(inst, sol)
        assert rep.stationarity_residual <= 1e-9
        assert rep.sign_consistent
        assert max(rep.max_offsupport_zbeta, rep.max_offsupport_ze) \
            <= 1.0 + 1e-9
        assert rep.certified


def make_instance_from_parts(X, beta_star, e_star, w, sigma=0.0):
    n = X.shape[0]
    y = X @ beta_star + math.sqrt(n) * e_star + w
    truth = GroundTruth(beta_star=beta_star, e_star=e_star, w=w, sigma=sigma)
    return ProblemInstance(X=X, y=y, truth=truth)


# ---------------------------------------------------------------------------
# Standard Lasso
# ---------------------------------------------------------------------------

class TestStandardLasso:
    def test_orthogonal_design_closed_form(self):
        n = 3
        X = math.sqrt(n) * np.eye(n)
        y = math.sqrt(n) * np.array([2.0, 0.3, -1.0])
        beta = xl.solve_standard_lasso(X, y, 0.5)
        np.testing.assert_allclose(beta, [1.5, 0.0, -0.5], atol=1e-12)

    def test_null_model_threshold(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        lam = np.max(np.abs(X.T @ y)) / 15
        beta = xl.solve_standard_lasso(X, y, lam * 1.000001)
        assert not beta.any()

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 8))
        beta_true = np.zeros(8)
        beta_true[[1, 4]] = [1.2, -0.7]
        y = X @ beta_true + 0.1 * rng.standard_normal(20)
        lam = 0.1
        beta = xl.solve_standard_lasso(X, y, lam)
        ref_beta, ref_obj = lasso_by_enumeration(X, y, lam)
        obj = np.sum((y - X @ beta) ** 2) / 40 + lam * np.abs(beta).sum()
        assert obj == pytest.approx(ref_obj, rel=1e-8)
        np.testing.assert_allclose(beta, ref_beta, atol=1e-7)

    def test_against_subgradient_plateau(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 8))
        y = X[:, 0] * 0.8 + 0.2 * rng.standard_normal(20)
        lam = 0.05
        beta = xl.solve_standard_lasso(X, y, lam)
        obj = np.sum((y - X @ beta) ** 2) / 40 + lam * np.abs(beta).sum()
        best = subgradient_descent(X, y, lam, 1.0, iters=20_000)
        # the kernel must not be beaten by an independent descent path
        assert obj <= best + 1e-8 * max(1.0, abs(best))


# ---------------------------------------------------------------------------
# Joint solver
# ---------------------------------------------------------------------------

class TestExtendedLasso:
    def test_large_lambda_e_reduces_to_standard_lasso(self):
        inst = xl.gen_instance(30, 8, k=3, s=0, sigma=0.2, seed=21)
        lam_b = 0.05
        beta_std = xl.solve_standard_lasso(inst.X, inst.y, lam_b)
        lam_e = (np.max(np.abs(inst.y)) / math.sqrt(30)
                 + np.max(np.abs(inst.X)) * np.abs(beta_std).sum())
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert not sol.e_hat.any()
        np.testing.assert_allclose(sol.beta_hat, beta_std, atol=1e-10)

    def test_orthogonal_design_soft_threshold_bias(self):
        n = 12
        X = math.sqrt(n) * np.eye(n)
        rng = np.random.default_rng(5)
        beta_star = rng.standard_normal(n)
        inst = make_instance_from_parts(X, beta_star, np.zeros(n), np.zeros(n))
        sol = xl.solve_extended_lasso(inst, 1e-6, 1e-6)
        assert sol.converged
        np.testing.assert_allclose(sol.beta_hat, beta_star, atol=1e-4)

    def test_against_subgradient_and_closed_form(self):
        inst = xl.gen_instance(40, 10, k=3, s=8, sigma=0.0, seed=22)
        lam_b, lam_e = 0.02, 0.01
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert sol.converged
        best = subgradient_descent(inst.X, inst.y, lam_b, lam_e, iters=40_000)
        assert sol.objective <= best + 1e-8 * max(1.0, abs(best))
        met = xl.recovery_metrics(inst, sol)
        if met.exact_signed_support:
            t = inst.truth
            _, _, beta_r, e_r = xl.restricted_solution(inst, t.T, t.S,
                                                       lam_b, lam_e)
            obj_r = xl.objective_value(inst, beta_r, e_r, lam_b, lam_e)
            assert sol.objective == pytest.approx(obj_r, rel=1e-8)

    def test_monotone_objective_no_numeric_error(self):
        # moderate penalties: every solve converges, and none raises
        for seed in range(4):
            inst = xl.gen_instance(50, 12, k=3, s=10, sigma=0.2, seed=seed)
            pair = xl.lambdas_simulation(0.2, 50, 12)
            sol = xl.solve_extended_lasso(inst, *pair)
            assert sol.converged

    def test_converged_passes_kkt_check(self):
        inst = xl.gen_instance(60, 15, k=4, s=12, sigma=0.15, seed=31)
        pair = xl.lambdas_simulation(0.15, 60, 15)
        sol = xl.solve_extended_lasso(inst, *pair)
        assert sol.converged
        rep = xl.kkt_check(inst, sol)
        assert rep.stationarity_residual <= 1e-9

    def test_converged_on_a_tie_is_not_certified(self):
        """Converged allows off-support |z| <= 1 + tol_kkt; certified asks
        for |z| < 1 - 1e-12 too.  With two equal columns and the optimum on
        one of them, the other's dual is 1 to rounding: converged, not
        certified (the documented difference)."""
        X = np.random.default_rng(4).standard_normal((30, 4))
        X[:, 1] = X[:, 0]
        y = X @ np.array([1.5, 0.0, -1.0, 0.0])
        inst = ProblemInstance(X=np.asfortranarray(X), y=y)
        sol = xl.solve_extended_lasso(inst, 0.05, 1.0)
        assert sol.converged and sol.stop is None
        assert sol.kkt_residual <= solver.SolverConfig().tol_kkt
        assert sol.beta_hat[1] == 0.0 and sol.beta_hat[0] != 0.0
        rep = xl.kkt_check(inst, sol)
        assert rep.stationarity_residual <= rep.tol and rep.sign_consistent
        assert 1.0 - 1e-12 <= rep.max_offsupport_zbeta \
            <= 1.0 + solver.SolverConfig().tol_kkt
        assert not rep.strict_feasible and not rep.certified

    def test_path_independence(self, monkeypatch):
        inst = xl.gen_instance(50, 10, k=3, s=10, sigma=0.2, seed=23)
        pair = xl.lambdas_simulation(0.2, 50, 10)
        with_path = xl.solve_extended_lasso(inst, *pair)
        # a cold start: the path is cut down to its last level, the target
        monkeypatch.setattr(solver, "_lambda_levels",
                            lambda lmax_b, lmax_e, lb, le: [(lb, le)])
        without = xl.solve_extended_lasso(inst, *pair)
        assert with_path.objective == pytest.approx(without.objective, rel=1e-9)
        np.testing.assert_allclose(with_path.beta_hat, without.beta_hat,
                                   atol=1e-7)
        np.testing.assert_allclose(with_path.e_hat, without.e_hat, atol=1e-7)

    def test_proximal_gradient_cross_check(self):
        inst = xl.gen_instance(40, 8, k=2, s=8, sigma=0.2, seed=24)
        pair = xl.lambdas_simulation(0.2, 40, 8)
        bcd = xl.solve_extended_lasso(inst, *pair)
        obj, converged = fista(inst.X, inst.y, *pair, tol=1e-7)
        assert converged
        assert bcd.objective == pytest.approx(obj, rel=1e-6)

    def test_invalid_lambdas(self):
        """A penalty or tolerance that is not finite and > 0 (>= 0 for the
        restricted closed form), or a max_iters that is not an integer, is
        an input error."""
        inst = xl.gen_instance(10, 4, k=1, s=2, sigma=0.1, seed=1)
        X, y = inst.X, inst.y
        sol = xl.solve_extended_lasso(inst, 0.1, 0.1)
        for bad in (0.0, -1.0, math.nan, math.inf):
            calls = [
                lambda: xl.solve_extended_lasso(inst, bad, 1.0),
                lambda: xl.solve_extended_lasso(inst, 1.0, bad),
                lambda: xl.solve_standard_lasso(X, y, bad),
                lambda: xl.SolverConfig(tol_kkt=bad),
                lambda: xl.SolverConfig(max_iters=bad),
                lambda: xl.kkt_check(inst, sol, tol=bad),
                lambda: xl.Solution(beta_hat=np.zeros(4), e_hat=np.zeros(10),
                                    lambda_beta=bad, lambda_e=1.0,
                                    objective=0.0, iterations=0,
                                    converged=False, kkt_residual=0.0)]
            if bad != 0.0:
                calls.append(lambda: xl.restricted_solution(inst, [0], [0],
                                                            bad, 0.1))
            for call in calls:
                with pytest.raises(xl.InputError):
                    call()

    def test_solution_objective_consistent(self):
        inst = xl.gen_instance(30, 8, k=2, s=6, sigma=0.1, seed=25)
        pair = xl.lambdas_simulation(0.1, 30, 8)
        sol = xl.solve_extended_lasso(inst, *pair)
        sol.validate_objective(inst)


class TestExactFinish:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(8, 60), p=st.integers(1, 10), k=st.integers(1, 4),
           s_frac=st.floats(0.0, 0.4), sigma=st.sampled_from([0.0, 0.1]),
           e_scale=st.sampled_from([1.0, 100.0, 1e4]),
           log_lam=st.floats(-9.0, -2.0), log_ratio=st.floats(-1.0, 1.0),
           seed=st.integers(0, 10_000))
    # gross corruption at a moderate lambda: the float64 residual alone reads
    # below 1e-9 here, and only its rounding bound sends the finish on to
    # extended precision
    @example(n=10, p=1, k=2, s_frac=0.147, sigma=0.1, e_scale=1e4,
             log_lam=-4.088, log_ratio=0.678, seed=4265)
    def test_converged_solves_certify(self, n, p, k, s_frac, sigma, e_scale,
                                      log_lam, log_ratio, seed):
        """Every solve that reports convergence is stationary to tol_kkt and
        sign-consistent when re-evaluated in extended precision, tiny
        lambdas included."""
        inst = xl.gen_instance(n, p, k=min(k, p), s=int(s_frac * n),
                               sigma=sigma, seed=seed, e_scale=e_scale)
        lam_b = 10.0 ** log_lam
        assert_converged_certifies(inst, lam_b, lam_b * 10.0 ** log_ratio)

    def test_noiseless_tiny_lambda_finishes_in_extended_precision(self):
        inst = xl.gen_instance(200, 16, k=3, s=100, sigma=0.0, seed=3)
        sol = xl.solve_extended_lasso(inst, 5e-9, 2.5e-9)
        assert sol.converged
        assert sol.beta_hat.dtype == np.longdouble
        assert xl.kkt_check(inst, sol).certified

    def test_moderate_lambda_finishes_in_float64(self):
        inst = xl.gen_instance(60, 15, k=4, s=12, sigma=0.15, seed=31)
        sol = xl.solve_extended_lasso(inst, *xl.lambdas_simulation(0.15, 60, 15))
        assert sol.converged
        assert sol.beta_hat.dtype == np.float64

    def test_singular_finish_falls_back_to_not_converged(self, monkeypatch):
        """A singular restricted system at the target, in its level's batch
        step and at every feature-sign step, is never retried in extended
        precision, and the solve ends converged=False, stopped as
        'singular', with the joint KKT residual of its last point."""
        dtypes = []  # the dtypes of the restricted solves at the target
        inst = xl.gen_instance(60, 15, k=4, s=12, sigma=0.15, seed=31)
        lam_b, lam_e = xl.lambdas_simulation(0.15, 60, 15)

        def singular(X, y, T, S, sb, se, aT, aS, lb, le, dtype):
            if (lb, le) == (lam_b, lam_e):
                dtypes.append(dtype)
            raise xl.SingularMatrixError("forced")

        monkeypatch.setattr(solver, "_restricted_point", singular)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert dtypes and set(dtypes) == {np.float64}
        assert not sol.converged and sol.stop == "singular"
        assert sol.kkt_residual == solver._duals(
            inst.X, inst.y, sol.beta_hat, sol.e_hat, lam_b, lam_e)[2]

    def test_no_restricted_solve_repeats_within_a_call(self, monkeypatch):
        """Within one level call, no signed support repeats: the
        feature-sign steps take pairwise distinct signs, and no float64
        restricted solve repeats one of the batch step's, whose points the
        steps reuse.  These instances of the recipe of 150 small random
        instances (seeds 134 and 18) make feature-sign steps."""
        levels = []  # per level call: [float64 solves, feature-sign steps]
        inside = []  # one entry per level call in progress
        real_level, real_step, real_point = solver._level, \
            solver._feature_sign_step, solver._restricted_point

        def level(*args):
            levels.append([[], []])
            inside.append(True)
            try:
                return real_level(*args)
            finally:
                inside.pop()

        def step(X, y, x, r, theta, *args):
            levels[-1][1].append(theta.tobytes())
            return real_step(X, y, x, r, theta, *args)

        def point(X, y, T, S, sb, se, *args):
            if inside and args[-1] is np.float64:  # not a skip's solves
                levels[-1][0].append((T.tobytes(), S.tobytes(), sb.tobytes(),
                                      se.tobytes()))
            return real_point(X, y, T, S, sb, se, *args)

        monkeypatch.setattr(solver, "_level", level)
        monkeypatch.setattr(solver, "_feature_sign_step", step)
        monkeypatch.setattr(solver, "_restricted_point", point)
        for inst, target in (
                (xl.gen_instance(38, 9, k=8, s=15, sigma=0.1, seed=134),
                 (2.2732713854931268e-07, 1.865603508607568e-06)),
                (xl.gen_instance(48, 4, k=1, s=17, sigma=0.1, seed=18),
                 (1.4792762945919326e-06, 1.5194922451038214e-07))):
            levels.clear()
            sol = xl.solve_extended_lasso(inst, *target)
            assert sum(len(steps) for _, steps in levels) > 0
            for solves, steps in levels:
                assert len(set(steps)) == len(steps)
                assert len(set(solves)) == len(solves)
            assert sol.converged
            assert xl.kkt_check(inst, sol).certified

    def test_stalled_target_is_one_level_call(self, monkeypatch):
        """The target penalties are one level call, with no retry: on this
        instance of the recipe of 150 small random instances (seed 18,
        |S| = n where coordinate descent used to stall), feature-sign
        steps on the path lead to a target call that certifies."""
        inst = xl.gen_instance(48, 4, k=1, s=17, sigma=0.1, e_scale=1.0,
                               seed=18)
        lam_b, lam_e = 1.4792762945919326e-06, 1.5194922451038214e-07
        target_calls = []  # the feature-sign steps of each target call
        real_level = solver._level

        def level(instance, lb, le, *args):
            out = real_level(instance, lb, le, *args)
            if (lb, le) == (lam_b, lam_e):
                target_calls.append(out[3])
            return out

        monkeypatch.setattr(solver, "_level", level)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert len(target_calls) == 1 and sol.iterations > 0
        assert sol.converged and sol.stop is None
        assert xl.kkt_check(inst, sol).certified

    def test_extended_solve_only_after_a_miss_within_rounding(self,
                                                              monkeypatch):
        """At the target, an extended-precision restricted solve follows
        only a float64 point that keeps every sign and misses tol_kkt by no
        more than its rounding bound.  This instance (n = 36, p = 8, from
        the recipe of 150 small random instances) meets the two other
        float64 outcomes at the target: a sign flip and a miss beyond the
        bound."""
        inst = xl.gen_instance(36, 8, k=2, s=7, sigma=0.1, seed=93)
        lam_b, lam_e = 0.050485337628895274, 0.0170302926770098
        X, y = inst.X, inst.y
        tol = solver.SolverConfig().tol_kkt
        outcomes = []  # per restricted solve at the target
        real = solver._restricted_point

        def outcome(T, S, sb, se, b, ee, dtype):
            if dtype is not np.float64:
                return "extended"
            if not (np.array_equal(np.sign(b[T]), sb)
                    and np.array_equal(np.sign(ee[S]), se)):
                return "flip"
            kkt = solver._duals(X, y, b, ee, lam_b, lam_e)[2]
            err = solver._float64_rounding_error(X, y, b, ee, lam_b, lam_e)
            return "beyond" if kkt - err > tol else "within"

        def restricted_point(X, y, T, S, sb, se, aT, aS, lb, le, dtype):
            out = real(X, y, T, S, sb, se, aT, aS, lb, le, dtype)
            if (lb, le) == (lam_b, lam_e):
                outcomes.append(outcome(T, S, sb, se, *out[2:4], dtype))
            return out

        monkeypatch.setattr(solver, "_restricted_point", restricted_point)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert {"flip", "beyond"} <= set(outcomes)
        assert all(before == "within" for before, kind
                   in zip([None] + outcomes, outcomes) if kind == "extended")
        assert sol.converged
        assert xl.kkt_check(inst, sol).certified


class TestWorkingSet:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(8, 80), p=st.integers(2, 64), k=st.integers(1, 4),
           s_frac=st.floats(0.0, 0.4), sigma=st.sampled_from([0.0, 0.1]),
           design=st.sampled_from(["identity", "ar1"]),
           rho=st.floats(0.0, 0.9), log_lam=st.floats(-6.0, -1.0),
           log_ratio=st.floats(-1.0, 1.0), seed=st.integers(0, 10_000))
    def test_converged_solves_certify(self, n, p, k, s_frac, sigma, design,
                                      rho, log_lam, log_ratio, seed):
        """Over correlated and identity designs of up to 64 columns, every
        solve that reports convergence certifies over all p coordinates."""
        spec = xl.CovarianceSpec(design, p=p,
                                 rho=rho if design == "ar1" else 0.0)
        inst = xl.gen_instance(n, p, k=min(k, p), s=int(s_frac * n),
                               sigma=sigma, spec=spec, seed=seed)
        lam_b = 10.0 ** log_lam
        assert_converged_certifies(inst, lam_b, lam_b * 10.0 ** log_ratio)

    def test_coordinate_enters_mid_level(self, monkeypatch):
        """Two columns with correlation 0.95: with the batch step declining
        at every level call and every skip, feature-sign steps carry each
        level, column 1 enters at one of them after the level's first, and
        the solve still converges to the closed form on its own signed
        supports."""
        rng = np.random.default_rng(2)
        n, p = 30, 6
        X = rng.standard_normal((n, p))
        X[:, 1] = 0.95 * X[:, 0] + math.sqrt(1 - 0.95 ** 2) * X[:, 1]
        beta_star = np.zeros(p)
        beta_star[[0, 1]] = [3.0, -2.5]
        e_star = np.zeros(n)
        e_star[:3] = 2.0 * rng.choice([-1.0, 1.0], 3)
        inst = make_instance_from_parts(np.asfortranarray(X), beta_star,
                                        e_star, 0.05 * rng.standard_normal(n),
                                        sigma=0.05)
        lam_b, lam_e = 0.02, 0.05

        steps = []  # per level call: the entering coordinate of each step
        real_level, real_step = solver._level, solver._feature_sign_step

        def level(*args):
            steps.append([])
            return real_level(*args)

        def step(X, y, x, r, theta, *args):
            steps[-1].append(np.flatnonzero((theta != 0) & (x == 0)).tolist())
            return real_step(X, y, x, r, theta, *args)

        monkeypatch.setattr(solver, "_active_set_step", lambda *args: None)
        monkeypatch.setattr(solver, "_level", level)
        monkeypatch.setattr(solver, "_feature_sign_step", step)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)

        assert all(level for level in steps)
        assert any([1] in level[1:] for level in steps)
        assert sol.converged and sol.iterations == sum(map(len, steps))
        assert xl.kkt_check(inst, sol).certified
        T, S = np.flatnonzero(sol.beta_hat), np.flatnonzero(sol.e_hat)
        assert set(T.tolist()) == {0, 1}
        _, _, beta_r, e_r = xl.restricted_solution(
            inst, T, S, lam_b, lam_e, anchor_beta=sol.beta_hat,
            anchor_e=sol.e_hat)
        np.testing.assert_allclose(sol.beta_hat, beta_r, atol=1e-10)
        np.testing.assert_allclose(sol.e_hat, e_r, atol=1e-10)


class TestLevelStep:
    def test_same_answer_in_fewer_sweeps(self, monkeypatch):
        """At the criterion-1 penalties the path-level batch steps change
        the answer by at most 1e-12 and no sign, and save feature-sign
        steps."""
        inst = xl.gen_instance(890, 64, k=4, s=445, sigma=0.0, seed=(101, 0))
        lam_b = 5e-9
        lam_e = lam_b / math.sqrt(math.log(64))
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        real = solver._active_set_step
        # path-level batch steps off; the target's stays
        monkeypatch.setattr(solver, "_active_set_step",
                            lambda *args: real(*args) if args[6] else None)
        ref = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert sol.converged and ref.converged
        for got, want in ((sol.beta_hat, ref.beta_hat), (sol.e_hat, ref.e_hat)):
            assert np.array_equal(np.sign(got), np.sign(want))
            assert np.max(np.abs(got - want)) <= 1e-12
        assert sol.iterations < ref.iterations

    def test_sign_flip_rejected_when_a_coordinate_leaves(self, monkeypatch):
        """AR(1) design with rho = 0.8: coordinate 1 enters an active-set
        step and the restricted solve flips its sign, so the step drops it
        before its next solve.  Every accepted point keeps the signs it was
        solved for, none holds coordinate 1, and the solve still
        certifies."""
        spec = xl.CovarianceSpec("ar1", p=9, rho=0.8)
        inst = xl.gen_instance(57, 9, k=3, s=5, sigma=0.1, spec=spec, seed=7)
        lam_b, lam_e = 3e-3, 2e-3
        steps = []  # per step: [its float64 solves (T, signs, got), point]
        real_step, real_point = solver._active_set_step, \
            solver._restricted_point

        def step(*args):
            steps.append([[], None])
            steps[-1][1] = real_step(*args)
            return steps[-1][1]

        def point(X, y, T, S, sb, se, aT, aS, lb, le, dtype):
            out = real_point(X, y, T, S, sb, se, aT, aS, lb, le, dtype)
            if dtype is np.float64:
                steps[-1][0].append((T.tolist(), sb.tolist(),
                                     np.sign(out[2][T]).tolist()))
            return out

        monkeypatch.setattr(solver, "_active_set_step", step)
        monkeypatch.setattr(solver, "_restricted_point", point)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        dropped = [1 not in after[0]
                   for solves, _ in steps
                   for (T, want, got), after in zip(solves, solves[1:])
                   if 1 in T and want[T.index(1)] != got[T.index(1)]]
        assert dropped and all(dropped)
        accepted = [(solves[-1], out) for solves, out in steps
                    if out is not None]
        assert accepted
        for (T, want, got), out in accepted:
            assert want == got
            assert out[0][1] == 0.0
        assert sol.beta_hat[1] == 0.0
        assert sol.converged
        assert xl.kkt_check(inst, sol).certified

    def test_level_ends_before_the_eighth_sweep(self, monkeypatch):
        """Every level starts with the batch step from the current point,
        so on the benchmark's noiseless instance some path level ends by an
        accepted batch step, with 0 feature-sign steps."""
        inst = xl.gen_instance(890, 64, k=4, s=445, sigma=0.0, seed=(101, 0))
        lam_b = 5e-9
        entries = []  # per level with 0 feature-sign steps: (exact, accepted)
        real_level = solver._level

        def level(*args):
            out = real_level(*args)
            if out[3] == 0:
                entries.append((args[7], out[2] is not None))
            return out

        monkeypatch.setattr(solver, "_level", level)
        sol = xl.solve_extended_lasso(inst, lam_b,
                                      lam_b / math.sqrt(math.log(64)))
        assert (False, True) in entries
        assert sol.converged

    def test_entering_coordinate_takes_the_sign_of_its_dual(self):
        """From zero on an orthogonal design (X'X = n I), the coordinates
        of beta enter with the signs of their scaled duals, a negative one
        included, and the step ends at the soft-thresholded point."""
        n, lam_b = 40, 0.01
        rng = np.random.default_rng(5)
        X = math.sqrt(n) * np.linalg.qr(rng.standard_normal((n, 3)))[0]
        beta_star = np.array([-2.0, 0.0, 1.5])
        inst = ProblemInstance(X=np.asfortranarray(X), y=X @ beta_star)
        lam_e = 2.0 * float(np.max(np.abs(inst.y))) / math.sqrt(n)
        zero_b, zero_e = np.zeros(3), np.zeros(n)
        (z_b, _), *_ = solver._scaled_duals(inst.X, inst.y, zero_b, zero_e,
                                            lam_b, lam_e)
        seen = {}
        b, ee, kkt = solver._active_set_step(
            inst, zero_b, zero_e, lam_b, lam_e, 1e-6, False, seen, False)
        assert np.sign(z_b[[0, 2]]).tolist() == [-1.0, 1.0]
        assert np.sign(b).tolist() == [-1.0, 0.0, 1.0]
        np.testing.assert_allclose(b, soft_threshold(beta_star, lam_b),
                                   atol=1e-12)
        assert not ee.any() and kkt <= 1e-6 and len(seen) == 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(8, 80), p=st.integers(2, 64), k=st.integers(1, 4),
           s_frac=st.floats(0.0, 0.4), sigma=st.sampled_from([0.0, 0.1]),
           design=st.sampled_from(["identity", "ar1"]),
           rho=st.floats(0.0, 0.9), log_lam=st.floats(-6.0, -1.0),
           log_ratio=st.floats(-1.0, 1.0), seed=st.integers(0, 10_000))
    def test_accepted_steps_descend_and_end_the_level(
            self, n, p, k, s_frac, sigma, design, rho, log_lam, log_ratio,
            seed):
        """Over TestWorkingSet's distribution, every accepted path-level
        batch step keeps the signs it solved for (its point is zero
        off them), has a float64 KKT residual within the level's tol and an
        objective no higher than its start's, and converged solves
        certify."""
        spec = xl.CovarianceSpec(design, p=p,
                                 rho=rho if design == "ar1" else 0.0)
        inst = xl.gen_instance(n, p, k=min(k, p), s=int(s_frac * n),
                               sigma=sigma, spec=spec, seed=seed)
        lam_b = 10.0 ** log_lam
        accepted = []
        signs = []  # the signs on T and S of the last float64 solve
        real_step, real_point = solver._active_set_step, \
            solver._restricted_point

        def point(X, y, T, S, sb, se, *args):
            if args[-1] is np.float64:
                signs[:] = [(T, sb, S, se)]
            return real_point(X, y, T, S, sb, se, *args)

        def step(instance, beta, e, lb, le, tol, *args):
            out = real_step(instance, beta, e, lb, le, tol, *args)
            if out is not None and not args[0]:  # accepted on a path level
                accepted.append((beta.copy(), e.copy(), lb, le, tol,
                                 out[0].copy(), out[1].copy(), *signs))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_active_set_step", step)
            mp.setattr(solver, "_restricted_point", point)
            assert_converged_certifies(inst, lam_b, lam_b * 10.0 ** log_ratio)
        for beta, e, lb, le, tol, b, ee, (T, sb, S, se) in accepted:
            for x, on, want in ((b, T, sb), (ee, S, se)):
                expect = np.zeros_like(x)
                expect[on] = want
                assert np.array_equal(np.sign(x), expect)
            before = xl.objective_value(inst, beta, e, lb, le)
            assert xl.objective_value(inst, b, ee, lb, le) <= \
                before + 1e-12 * max(1.0, abs(before))
            assert solver._duals(inst.X, inst.y, b, ee, lb, le)[2] <= tol


class TestSupportSizedWork:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2100), p=st.integers(1, 12),
           k=st.integers(0, 12), s_frac=st.floats(0.0, 1.0),
           log_scale=st.floats(-9.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2100, p=12, k=5, s_frac=0.5, log_scale=-9.0, seed=1)
    def test_extended_scaled_duals_against_all_columns(self, n, p, k, s_frac,
                                                       log_scale, seed):
        """In extended precision, against the all-columns evaluation across
        several _ROWS blocks: the on-support beta duals, the e block, the
        on-support violation and the off-support e violation are equal bit
        for bit; the off-support beta duals, whose X'r is float64, are
        within err, and err is (n + 2) eps max_j ||X_j|| ||r|| / (n lam_b)."""
        X, y, beta, e, lam_b, lam_e = _extended_point(n, p, k, s_frac,
                                                      log_scale, seed)
        (zb, ze), on, off_b, off_e, err = solver._scaled_duals(
            X, y, beta, e, lam_b, lam_e)
        (zb0, ze0), on0, off_b0, off_e0 = scaled_duals_all_columns(
            X, y, beta, e, lam_b, lam_e)
        T = beta != 0
        for got, want in ((zb[T], zb0[T]), (ze, ze0)):
            assert got.dtype == want.dtype == np.longdouble
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert (on, off_e) == (on0, off_e0)
        assert zb.dtype == np.longdouble
        assert float(np.max(np.abs(zb[~T] - zb0[~T]), initial=0.0)) <= err
        assert abs(off_b - off_b0) <= err
        r = ze0 * (np.sqrt(np.longdouble(n)) * np.longdouble(lam_e))
        col = math.sqrt(float(np.max(np.sum(X * X, axis=0))))
        assert err == pytest.approx((n + 2) * np.finfo(np.float64).eps * col
                                    * float(np.linalg.norm(r)) / (n * lam_b),
                                    rel=1e-9)

    def test_off_support_bound_refuses_a_dropped_row_block(self):
        """err is tight enough to tell an off-support X'r that lost its
        first _ROWS-row block from the all-columns evaluation."""
        n = 2 * solver._ROWS + 37
        X, y, beta, e, lam_b, lam_e = _extended_point(n, 12, 4, 0.5, -6.0, 3)
        (zb, _), *_, err = solver._scaled_duals(X, y, beta, e, lam_b, lam_e)
        (zb0, ze0), *_ = scaled_duals_all_columns(X, y, beta, e, lam_b, lam_e)
        off = beta == 0
        r = (ze0 * (np.sqrt(np.longdouble(n)) * np.longdouble(lam_e))).astype(
            np.float64)
        rows = slice(solver._ROWS, None)
        mutant = (X[rows].T @ r[rows]) / (n * lam_b)
        assert float(np.max(np.abs(zb[off] - zb0[off]))) <= err
        assert float(np.max(np.abs(mutant[off] - zb0[off]))) > 1e3 * err


def _extended_point(n, p, k, s_frac, log_scale, seed):
    """(X, y, beta, e, lam_b, lam_e): a Gaussian X, an extended-precision
    (beta, e) with beta off float64 by 1e-19, and y within 10^log_scale of
    X beta + sqrt(n) e, at penalties of that scale."""
    rng = np.random.default_rng(seed)
    X = np.asfortranarray(rng.standard_normal((n, p)))
    beta = np.zeros(p, dtype=np.longdouble)
    T = rng.choice(p, size=min(k, p), replace=False)
    beta[T] = rng.standard_normal(len(T))
    beta[T] += np.longdouble(1e-19) * rng.standard_normal(len(T))
    e = np.zeros(n, dtype=np.longdouble)
    S = rng.choice(n, size=int(s_frac * n), replace=False)
    e[S] = rng.standard_normal(len(S))
    y = X @ beta.astype(np.float64) + math.sqrt(n) * e.astype(
        np.float64) + 10.0 ** log_scale * rng.standard_normal(n)
    return X, y, beta, e, 10.0 ** log_scale, 0.5 * 10.0 ** log_scale


# ---------------------------------------------------------------------------
# Restricted closed form
# ---------------------------------------------------------------------------

class TestRestrictedSolution:
    def test_zero_drivers_give_exact_recovery(self):
        inst = xl.gen_instance(30, 8, k=3, s=6, sigma=0.0, seed=26)
        t = inst.truth
        hT, gS, beta_hat, e_hat = xl.restricted_solution(inst, t.T, t.S,
                                                         0.0, 0.0)
        np.testing.assert_allclose(hT, 0.0, atol=1e-10)
        np.testing.assert_allclose(gS, 0.0, atol=1e-10)
        np.testing.assert_allclose(beta_hat, t.beta_star, atol=1e-10)
        np.testing.assert_allclose(e_hat, t.e_star, atol=1e-10)

    def test_empty_corruption_reduces_to_classical_form(self):
        inst = xl.gen_instance(25, 6, k=2, s=0, sigma=0.2, seed=27)
        t = inst.truth
        lam_b = 0.07
        hT, gS, _, _ = xl.restricted_solution(inst, t.T, t.S, lam_b, 0.3)
        XT = inst.X[:, t.T]
        expected = np.linalg.solve(XT.T @ XT,
                                   XT.T @ t.w - 25 * lam_b * np.sign(t.beta_star[t.T]))
        np.testing.assert_allclose(hT, expected, atol=1e-10)
        assert gS.size == 0

    def test_against_normal_equations_oracle(self):
        inst = xl.gen_instance(30, 10, k=2, s=5, sigma=0.1, seed=28)
        t = inst.truth
        lam_b, lam_e = 0.05, 0.03
        hT, gS, _, _ = xl.restricted_solution(inst, t.T, t.S, lam_b, lam_e)
        hT_ref, gS_ref = restricted_by_normal_equations(
            inst.X, inst.y, t.beta_star, t.e_star, t.w, list(t.T), list(t.S),
            lam_b, lam_e)
        np.testing.assert_allclose(hT, hT_ref, atol=1e-10)
        np.testing.assert_allclose(gS, gS_ref, atol=1e-10)

    def test_rank_deficiency_reported_with_condition_number(self):
        X = np.zeros((6, 3))
        X[:, 0] = 1.0
        X[:, 1] = 1.0  # duplicate column: singular on T = {0, 1}
        X[:, 2] = np.arange(6)
        beta_star = np.array([1.0, 1.0, 0.0])
        inst = make_instance_from_parts(X, beta_star, np.zeros(6), np.zeros(6))
        with pytest.raises(xl.SingularMatrixError, match="condition number"):
            xl.restricted_solution(inst, [0, 1], [], 0.1, 0.1)

    def test_ill_conditioned_gram_rejected(self):
        """The gate is on the Gram matrix G = X'_{ScT} X_{ScT} that is
        solved: a block with cond(X_{ScT}) near 1e7, whose G has a
        condition number near 1e14, is refused with that number."""
        rng = np.random.default_rng(11)
        q = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        X = np.column_stack([q[:, 0], q[:, 0] + 2e-7 * q[:, 1],
                             rng.standard_normal(20)])
        sv = np.linalg.svd(X[:, :2], compute_uv=False)
        cond = sv[0] / sv[-1]
        assert 5e6 < cond < 2e7
        inst = make_instance_from_parts(X, np.array([1.0, 1.0, 0.0]),
                                        np.zeros(20), np.zeros(20))
        with pytest.raises(xl.SingularMatrixError,
                           match="condition number") as exc:
            xl.restricted_solution(inst, [0, 1], [], 0.1, 0.1)
        reported = float(str(exc.value).rsplit(" ", 1)[1])
        assert reported == pytest.approx(cond ** 2, rel=0.1)

    def test_too_much_corruption_rejected(self):
        inst = xl.gen_instance(10, 6, k=4, s=8, sigma=0.0, seed=29)
        t = inst.truth
        with pytest.raises(xl.SingularMatrixError):
            xl.restricted_solution(inst, t.T, t.S, 0.1, 0.1)

    def test_anchor_mode_matches_truth_mode(self):
        inst = xl.gen_instance(30, 8, k=3, s=6, sigma=0.1, seed=30)
        t = inst.truth
        a = xl.restricted_solution(inst, t.T, t.S, 0.04, 0.02)
        b = xl.restricted_solution(inst, t.T, t.S, 0.04, 0.02,
                                   anchor_beta=t.beta_star, anchor_e=t.e_star)
        np.testing.assert_allclose(a[2], b[2], atol=1e-14)

    @pytest.mark.parametrize("T, S", [([-1], [0]), ([0], [-1]),
                                      ([8], [0]), ([0], [40])])
    def test_index_outside_range_rejected(self, T, S):
        # -1 used to wrap around to the last column or row, and one past
        # the end raised a bare IndexError
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        with pytest.raises(xl.InputError, match="lie in"):
            xl.restricted_solution(inst, T, S, 0.1, 0.1)

    @pytest.mark.parametrize("T, S", [([True] * 2 + [False] * 6, [0]),
                                      ([0], [True] * 4 + [False] * 36),
                                      ([1.7], [0]), ([0], [0.0])])
    def test_mask_or_fraction_rejected(self, T, S):
        # a mask used to become 0/1 indexes (and a misleading singular
        # system), and 1.7 silently became 1
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        with pytest.raises(xl.InputError, match="integer indexes"):
            xl.restricted_solution(inst, T, S, 0.1, 0.1)

    def test_empty_index_lists_accepted(self):
        inst = xl.gen_instance(40, 8, k=2, s=4, sigma=0.1, seed=3)
        hT, gS, beta_hat, e_hat = xl.restricted_solution(inst, [], [], 0.1,
                                                         0.1)
        assert hT.size == 0 and gS.size == 0
        assert not beta_hat.any() and not e_hat.any()

    def test_outputs_follow_the_callers_order(self):
        inst = xl.gen_instance(40, 8, k=3, s=4, sigma=0.1, seed=3)
        t = inst.truth
        hT, gS, beta_hat, e_hat = xl.restricted_solution(inst, t.T, t.S,
                                                         0.05, 0.03)
        hT_r, gS_r, beta_r, e_r = xl.restricted_solution(
            inst, t.T[::-1], t.S[::-1], 0.05, 0.03)
        np.testing.assert_allclose(hT_r, hT[::-1], atol=1e-12)
        np.testing.assert_allclose(gS_r, gS[::-1], atol=1e-12)
        np.testing.assert_allclose(beta_r, beta_hat, atol=1e-12)
        np.testing.assert_allclose(e_r, e_hat, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(8, 60), p=st.integers(1, 12), k=st.integers(1, 6),
           s_frac=st.floats(0.0, 0.5), log_lam=st.floats(-3.0, 0.0),
           log_ratio=st.floats(-1.0, 1.0), seed=st.integers(0, 10_000))
    def test_only_the_anchor_on_the_supports_matters(self, n, p, k, s_frac,
                                                     log_lam, log_ratio, seed):
        """Two anchors with the same signs on (T, S), any magnitudes there
        and arbitrary entries elsewhere give the same restricted point."""
        rng = np.random.default_rng(seed)
        inst = xl.gen_instance(n, p, k=min(k, p), s=int(s_frac * n),
                               sigma=0.1, seed=seed)
        S = np.sort(rng.choice(n, int(rng.integers(0, n // 2 + 1)),
                               replace=False))
        k_max = min(p, (n - len(S)) // 2)  # keeps X_{Sc,T} well conditioned
        T = np.sort(rng.choice(p, int(rng.integers(0, k_max + 1)),
                               replace=False))
        signs_b = rng.choice([-1.0, 0.0, 1.0], len(T))
        signs_e = rng.choice([-1.0, 0.0, 1.0], len(S))
        anchors = []
        for _ in range(2):
            a_b = rng.standard_normal(p) * rng.integers(0, 2, p)
            a_e = 10.0 * rng.standard_normal(n) * rng.integers(0, 2, n)
            a_b[T] = signs_b * rng.uniform(0.1, 5.0, len(T))
            a_e[S] = signs_e * rng.uniform(0.1, 5.0, len(S))
            anchors.append((a_b, a_e))
        lam_b = 10.0 ** log_lam
        lam_e = lam_b * 10.0 ** log_ratio
        (_, _, b1, e1), (_, _, b2, e2) = (
            xl.restricted_solution(inst, T, S, lam_b, lam_e, anchor_beta=a_b,
                                   anchor_e=a_e) for a_b, a_e in anchors)
        np.testing.assert_allclose(b1, b2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(e1, e2, rtol=0, atol=1e-10)

    def test_oracle_equivalence_on_recovered_supports(self):
        """When the solver's signed supports match truth, it must agree with
        the closed form on those supports."""
        n = xl.n_from_theta(1.5, 3, 32)
        inst = xl.gen_instance(n, 32, k=3, s=n // 10, sigma=0.1, seed=34,
                               beta_floor=0.5, e_floor=0.5)
        pair = xl.lambdas_simulation(0.1, n, 32)
        sol = xl.solve_extended_lasso(inst, *pair)
        met = xl.recovery_metrics(inst, sol)
        assert sol.converged and met.exact_signed_support
        t = inst.truth
        _, _, beta_r, e_r = xl.restricted_solution(inst, t.T, t.S, *pair)
        np.testing.assert_allclose(sol.beta_hat, beta_r, atol=1e-8)
        np.testing.assert_allclose(sol.e_hat, e_r, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_row_blocks_against_normal_equations_oracle(self, dtype):
        """X[:, T] is read in blocks of _ROWS rows: with n over two blocks
        (the last one partial) the point matches the dense oracle, in
        float64 and in extended precision, and the residual returned with
        it is y - X beta_hat - sqrt(n) e_hat in the same dtype."""
        n = 2 * solver._ROWS + 37
        inst = xl.gen_instance(n, 12, k=4, s=n // 4, sigma=0.1, seed=35)
        t = inst.truth
        lam_b, lam_e = 0.03, 0.02
        a_T, a_S = t.beta_star[t.T].astype(dtype), t.e_star[t.S].astype(dtype)
        hT, gS, b, ee, r = solver._restricted_point(
            inst.X, inst.y, t.T, t.S, np.sign(a_T), np.sign(a_S), a_T, a_S,
            lam_b, lam_e, dtype)
        hT_ref, gS_ref = restricted_by_normal_equations(
            inst.X, inst.y, t.beta_star, t.e_star, t.w, list(t.T), list(t.S),
            lam_b, lam_e)
        np.testing.assert_allclose(hT.astype(float), hT_ref, atol=1e-10)
        np.testing.assert_allclose(gS.astype(float), gS_ref, atol=1e-10)
        assert r.dtype == dtype
        r_ref = inst.y - inst.X.astype(dtype) @ b - np.sqrt(dtype(n)) * ee
        tol = 1e3 * np.finfo(dtype).eps * np.max(np.abs(inst.y))
        assert np.max(np.abs(r - r_ref)) <= tol


    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_order_of_S_is_only_the_order_of_g_S(self, dtype):
        """A block's rows of S and Sc are picked from the sorted rows, so
        S in any order, across three row blocks, gives the same point bit
        for bit, with g_S in the order of S."""
        n = 2 * solver._ROWS + 37
        inst = xl.gen_instance(n, 12, k=4, s=n // 4, sigma=0.1, seed=37)
        t = inst.truth
        a_T = t.beta_star[t.T].astype(dtype)
        points = []
        for S in (t.S, np.random.default_rng(0).permutation(t.S)):
            a_S = t.e_star[S].astype(dtype)
            points.append((S, solver._restricted_point(
                inst.X, inst.y, t.T, S, np.sign(a_T), np.sign(a_S), a_T, a_S,
                0.03, 0.02, dtype)))
        (S0, (h0, g0, *rest0)), (S1, (h1, g1, *rest1)) = points
        assert not np.array_equal(S0, S1)
        assert np.array_equal(h0, h1)
        assert np.array_equal(g0[np.argsort(S0)], g1[np.argsort(S1)])
        for a, b in zip(rest0, rest1):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_public_point_is_the_solver_point(self, dtype):
        """restricted_solution returns four items, the first four of the
        solver's _restricted_point bit for bit, over two row blocks."""
        n = 2 * solver._ROWS + 37
        inst = xl.gen_instance(n, 12, k=4, s=n // 4, sigma=0.1, seed=36)
        t = inst.truth
        a_T, a_S = t.beta_star[t.T].astype(dtype), t.e_star[t.S].astype(dtype)
        got = xl.restricted_solution(inst, t.T, t.S, 0.03, 0.02, dtype=dtype)
        want = solver._restricted_point(inst.X, inst.y, t.T, t.S,
                                        np.sign(a_T), np.sign(a_S), a_T, a_S,
                                        0.03, 0.02, dtype)
        assert len(got) == 4
        for a, b in zip(got, want):
            assert a.dtype == dtype and np.array_equal(a, b)


class TestStride:
    """solve_extended_lasso walks the lambda grid with a doubling stride:
    skips are batch steps made outside any _level call."""

    TARGET = (5e-9, 5e-9 / math.sqrt(math.log(64)))

    @staticmethod
    def record(monkeypatch, refuse_skips=False):
        """Log every visit, ("level", lambdas) per _level call and ("skip",
        lambdas, accepted) per skip, the grid and the restricted solves;
        with refuse_skips every skip is refused."""
        log = {"visits": [], "levels": None, "solves": 0}
        inside = []  # one entry per _level call in progress
        real_level, real_step = solver._level, solver._active_set_step
        real_point, real_levels = solver._restricted_point, \
            solver._lambda_levels

        def level(instance, lb, le, *args):
            log["visits"].append(("level", (lb, le)))
            inside.append(True)
            try:
                return real_level(instance, lb, le, *args)
            finally:
                inside.pop()

        def step(instance, beta, e, lb, le, *args):
            if inside:
                return real_step(instance, beta, e, lb, le, *args)
            out = None if refuse_skips else \
                real_step(instance, beta, e, lb, le, *args)
            log["visits"].append(("skip", (lb, le), out is not None))
            return out

        def point(*args):
            log["solves"] += 1
            return real_point(*args)

        def levels(*args):
            log["levels"] = real_levels(*args)
            return log["levels"]

        monkeypatch.setattr(solver, "_level", level)
        monkeypatch.setattr(solver, "_active_set_step", step)
        monkeypatch.setattr(solver, "_restricted_point", point)
        monkeypatch.setattr(solver, "_lambda_levels", levels)
        return log

    def test_fewer_visits_and_restricted_solves(self, monkeypatch):
        """On the benchmark's noiseless instance the solve visits fewer
        levels than the grid holds and makes at most 45 restricted solves
        (57 when every level is visited)."""
        inst = xl.gen_instance(890, 64, k=4, s=445, sigma=0.0, seed=(101, 0))
        log = self.record(monkeypatch)
        sol = xl.solve_extended_lasso(inst, *self.TARGET)
        assert len(log["visits"]) < len(log["levels"])
        assert log["solves"] <= 45
        assert sol.converged and sol.iterations == 0

    def test_refused_skips_visit_every_level(self, monkeypatch):
        """With every skip refused, each refusal runs the next level, so
        the lambda pairs handed to _level are the grid in order, and the
        answer keeps the signs and the converged flag of the solve with
        skips."""
        inst = xl.gen_instance(890, 64, k=4, s=445, sigma=0.0, seed=(101, 0))
        ref = xl.solve_extended_lasso(inst, *self.TARGET)
        log = self.record(monkeypatch, refuse_skips=True)
        sol = xl.solve_extended_lasso(inst, *self.TARGET)
        assert any(v[0] == "skip" for v in log["visits"])
        assert [v[1] for v in log["visits"] if v[0] == "level"] == \
            log["levels"]
        assert sol.converged == ref.converged
        for got, want in ((sol.beta_hat, ref.beta_hat),
                          (sol.e_hat, ref.e_hat)):
            assert np.array_equal(np.sign(got), np.sign(want))

    @pytest.mark.parametrize("make, target", [
        (lambda: xl.gen_instance(890, 64, k=4, s=445, sigma=0.0,
                                 seed=(101, 0)), TARGET),
        (lambda: xl.gen_instance(200, 16, k=3, s=100, sigma=0.0, seed=3),
         (5e-9, 2.5e-9)),
        (lambda: xl.gen_instance(60, 15, k=4, s=12, sigma=0.15, seed=31),
         tuple(xl.lambdas_simulation(0.15, 60, 15)))])
    def test_no_skip_lands_on_the_target(self, monkeypatch, make, target):
        """Skips are made and accepted, none at the target pair, and the
        solve ends with one _level call at the target."""
        inst = make()
        log = self.record(monkeypatch)
        xl.solve_extended_lasso(inst, *target)
        skips = [v for v in log["visits"] if v[0] == "skip"]
        assert any(accepted for _, _, accepted in skips)
        assert all(pair != target for _, pair, _ in skips)
        assert log["visits"][-1] == ("level", target)
        assert [v[1] for v in log["visits"]].count(target) == 1


def recipe_instance(rng_seed, i):
    """Instance i of the recipe of 150 small random instances at
    default_rng(rng_seed), with its penalties (instance seed i at rng 1,
    1000 rng_seed + i otherwise)."""
    rng = np.random.default_rng(rng_seed)
    for j in range(i + 1):
        n, p = int(rng.integers(8, 61)), int(rng.integers(1, 11))
        k, s = int(rng.integers(1, p + 1)), int(rng.integers(0, n // 2 + 1))
        sigma, scale = float(rng.choice([0, 0.1])), float(rng.choice([1, 100]))
        lam_b = 10 ** rng.uniform(-9, -1)
        lam_e = lam_b * 10 ** rng.uniform(-1, 1)
    seed = i if rng_seed == 1 else 1000 * rng_seed + i
    return (xl.gen_instance(n, p, k=k, s=s, sigma=sigma, e_scale=scale,
                            seed=seed), lam_b, lam_e)


# the recipe's distribution: tiny penalties, gross corruption, |T| up to n
RECIPE = dict(n=st.integers(8, 60), p=st.integers(1, 10), k=st.integers(1, 10),
              s_frac=st.floats(0.0, 0.5), sigma=st.sampled_from([0.0, 0.1]),
              e_scale=st.sampled_from([1.0, 100.0]),
              log_lam=st.floats(-9.0, -1.0), log_ratio=st.floats(-1.0, 1.0),
              seed=st.integers(0, 10_000))


def recipe_draw(n, p, k, s_frac, sigma, e_scale, log_lam, log_ratio, seed):
    inst = xl.gen_instance(n, p, k=min(k, p), s=int(s_frac * n), sigma=sigma,
                           seed=seed, e_scale=e_scale)
    lam_b = 10.0 ** log_lam
    return inst, lam_b, lam_b * 10.0 ** log_ratio


class TestFeatureSign:
    """The feature-sign phase of a level, which runs where the batch step
    fails: small instances at tiny penalties."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**RECIPE)
    def test_solves_certify_or_report_precision(self, **draw):
        """Every solve is certified by kkt_check, or it stops for
        'precision' with a KKT residual above tol_kkt."""
        inst, lam_b, lam_e = recipe_draw(**draw)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert sol.converged == (sol.stop is None)
        if not xl.kkt_check(inst, sol).certified:
            assert sol.stop == "precision"
            assert sol.kkt_residual > solver.SolverConfig().tol_kkt

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**RECIPE)
    def test_no_step_raises_the_objective(self, **draw):
        """Every feature-sign step that is taken ends at an objective no
        higher than its start's."""
        inst, lam_b, lam_e = recipe_draw(**draw)
        p = inst.p
        moves = []  # (lambdas, x before, x after) per step taken
        real = solver._feature_sign_step

        def step(X, y, x, r, theta, gamma, lb, le, seen):
            out = real(X, y, x, r, theta, gamma, lb, le, seen)
            if out is not None:
                moves.append(((lb, le), x.copy(), out[0].copy()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_feature_sign_step", step)
            xl.solve_extended_lasso(inst, lam_b, lam_e)
        for lams, before, after in moves:
            old = xl.objective_value(inst, before[:p], before[p:], *lams)
            new = xl.objective_value(inst, after[:p], after[p:], *lams)
            assert new <= old + 1e-12 * max(1.0, abs(old))

    def test_duplicated_column_zero_slope_step(self, monkeypatch):
        """Columns 0 and 1 are equal, and the target level starts with
        both at 0.5: their system is refused, and the null-space step along
        (1, -1) has zero slope.  Bland's rule moves coordinate 0, the
        smaller index, to zero, and the level ends certified.  The truth
        holds neither column, so the solve from zero certifies too."""
        rng = np.random.default_rng(4)
        n, p = 30, 4
        X = rng.standard_normal((n, p))
        X[:, 1] = X[:, 0]
        beta_star = np.array([0.0, 0.0, 1.5, -1.0])
        inst = make_instance_from_parts(
            np.asfortranarray(X), beta_star, np.zeros(n),
            0.05 * rng.standard_normal(n), sigma=0.05)
        lam_b, lam_e = 0.05, 1.0
        nulls = []  # (signs, zero slope, direction on beta) per null step
        real = solver._null_direction

        def null_direction(X, x, theta, gamma):
            out = real(X, x, theta, gamma)
            nulls.append((theta[:p].tolist(), out[1], out[0][:p].tolist()))
            return out

        monkeypatch.setattr(solver, "_null_direction", null_direction)
        beta, e = np.array([0.5, 0.5, 0.0, 0.0]), np.zeros(n)
        b, ee, kkt, steps, stop = solver._level(inst, lam_b, lam_e, beta, e,
                                                1e-9, 100, True)
        signs, zero_slope, d = nulls[0]
        assert signs == [1.0, 1.0, 0.0, 0.0] and zero_slope
        assert d[0] < 0.0 < d[1] and d[0] == pytest.approx(-d[1])
        assert kkt is not None and stop is None and steps > 1
        sol = xl.Solution(beta_hat=b, e_hat=ee, lambda_beta=lam_b,
                          lambda_e=lam_e, objective=xl.objective_value(
                              inst, b, ee, lam_b, lam_e),
                          iterations=steps, converged=True, kkt_residual=kkt)
        assert xl.kkt_check(inst, sol).certified
        assert xl.kkt_check(inst, xl.solve_extended_lasso(
            inst, lam_b, lam_e)).certified

    @pytest.mark.parametrize("i", [3, 5, 18])
    def test_fista_agrees_on_former_stalls(self, i):
        """Recipe instances 3, 5 and 18 at default_rng(1), where coordinate
        descent stalled: the solve certifies, FISTA from zero does not end
        below it, and FISTA started at its answer cannot lower it."""
        inst, lam_b, lam_e = recipe_instance(1, i)
        sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
        assert sol.converged and xl.kkt_check(inst, sol).certified
        slack = 1e-12 * max(1.0, abs(sol.objective))
        obj, _ = fista(inst.X, inst.y, lam_b, lam_e, tol=1e-9, iters=20_000)
        assert sol.objective <= obj + slack
        obj, _ = fista(inst.X, inst.y, lam_b, lam_e, tol=1e-9, iters=5_000,
                       start=(sol.beta_hat, sol.e_hat))
        assert obj >= sol.objective - slack
