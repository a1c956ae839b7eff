import math

import numpy as np
import pytest
import scipy.linalg

import extlasso as xl
from extlasso.datagen import CovarianceSpec
from extlasso.regparams import (IDENTITY_REPORT, TheoryInputs,
                                magnitude_thresholds, sample_size_achievable,
                                sample_size_unachievable)


def report_by_scipy(sigma, T):
    """Independent route: scipy inverse / sqrtm / svd instead of eigh."""
    p = sigma.shape[0]
    Tc = [i for i in range(p) if i not in set(T)]
    s_tt = sigma[np.ix_(T, T)]
    inv_tt = scipy.linalg.inv(s_tt)
    inv_sqrt = scipy.linalg.inv(scipy.linalg.sqrtm(s_tt).real)
    sv = scipy.linalg.svdvals(s_tt)
    cond = sigma[np.ix_(Tc, Tc)] - sigma[np.ix_(Tc, T)] @ inv_tt @ sigma[np.ix_(T, Tc)]
    diag = np.diag(cond)
    pairs = [0.5 * (diag[i] + diag[j] - 2 * cond[i, j])
             for i in range(len(Tc)) for j in range(len(Tc)) if i != j]
    return {
        "C_min": sv[-1], "C_max": sv[0],
        "xi": np.max(np.diag(sigma)),
        "D_plus_max": np.max(np.abs(s_tt).sum(axis=1)),
        "D_minus_max": np.max(np.abs(inv_tt).sum(axis=1)),
        "rho_u": np.max(diag),
        "rho_l": min(pairs) if pairs else np.max(diag),
        "incoherence_value": np.max(np.abs(sigma[np.ix_(Tc, T)] @ inv_tt).sum(axis=1)),
        "inv_sqrt_infnorm": np.max(np.abs(inv_sqrt).sum(axis=1)),
    }


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_theory_inputs_noise_level_must_be_finite_and_non_negative(sigma):
    # nan used to pass `sigma < 0`
    with pytest.raises(xl.InputError, match="sigma"):
        TheoryInputs(n=100, p=20, k=2, s=10, sigma=sigma)


class TestCovarianceReport:
    def test_identity_scalars(self):
        rep = xl.covariance_report(np.eye(6), [1, 4])
        assert rep.C_min == rep.C_max == 1.0
        assert rep.D_plus_max == rep.D_minus_max == 1.0
        assert rep.rho_u == rep.rho_l == 1.0
        assert rep.xi == 1.0
        assert rep.incoherence_value == 0.0
        assert rep.inv_sqrt_infnorm == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_hand_algebra(self):
        a = 0.4
        rep = xl.covariance_report(np.array([[1.0, a], [a, 1.0]]), [0])
        assert rep.rho_u == pytest.approx(1 - a * a, abs=1e-14)
        assert rep.incoherence_value == pytest.approx(abs(a), abs=1e-14)
        assert rep.incoherent_at(0.5)
        assert not rep.incoherent_at(0.7)

    def test_ar1_against_scipy_oracle(self):
        sigma = CovarianceSpec("ar1", p=8, rho=0.5).materialize()
        T = [0, 3]
        rep = xl.covariance_report(sigma, T)
        ref = report_by_scipy(sigma, T)
        for name, want in ref.items():
            assert getattr(rep, name) == pytest.approx(want, abs=1e-10), name

    def test_singular_sigma_tt(self):
        sigma = np.ones((3, 3))  # rank one
        with pytest.raises(xl.SingularMatrixError):
            xl.covariance_report(sigma, [0, 1])

    def test_invalid_support(self):
        with pytest.raises(xl.InputError):
            xl.covariance_report(np.eye(3), [])
        with pytest.raises(xl.InputError):
            xl.covariance_report(np.eye(3), [0, 1, 2])
        # -1 used to wrap around to the last coordinate; 3 raised IndexError
        for T in ([-1], [3]):
            with pytest.raises(xl.InputError, match="lie in"):
                xl.covariance_report(np.eye(3), T)

    def test_single_offsupport_coordinate(self):
        rep = xl.covariance_report(np.eye(3), [0, 1])
        assert rep.rho_l == rep.rho_u == 1.0


class TestLambdaFamilies:
    def test_noise_oracle_degenerate_when_clean(self):
        inst = xl.gen_instance(30, 8, k=2, s=4, sigma=0.0, seed=1)
        pair = xl.lambdas_noise_oracle(inst)
        assert pair.degenerate
        assert tuple(pair) == (0.0, 0.0)

    def test_noise_oracle_matches_naive_loops(self):
        inst = xl.gen_instance(50, 20, k=3, s=5, sigma=0.3, seed=2)
        gamma = 0.8
        pair = xl.lambdas_noise_oracle(inst, gamma)
        w = inst.truth.w
        best = 0.0
        for j in range(20):
            acc = sum(inst.X[i, j] * w[i] for i in range(50))
            best = max(best, abs(acc))
        assert pair.lambda_beta == pytest.approx(2 / gamma * best / 50, rel=1e-12)
        assert pair.lambda_e == pytest.approx(
            2 * max(abs(v) for v in w) / math.sqrt(50), rel=1e-12)

    def test_noise_oracle_homogeneous_in_w(self):
        inst = xl.gen_instance(40, 10, k=2, s=4, sigma=0.2, seed=3)
        t = inst.truth
        scaled = xl.ProblemInstance(
            X=inst.X,
            y=inst.X @ t.beta_star + math.sqrt(40) * t.e_star + 3.0 * t.w,
            truth=xl.GroundTruth(beta_star=t.beta_star, e_star=t.e_star,
                                 w=3.0 * t.w, sigma=3 * 0.2))
        a = xl.lambdas_noise_oracle(inst)
        b = xl.lambdas_noise_oracle(scaled)
        assert b.lambda_beta == pytest.approx(3 * a.lambda_beta, rel=1e-12)
        assert b.lambda_e == pytest.approx(3 * a.lambda_e, rel=1e-12)

    def test_gaussian_design_fixture(self):
        pair = xl.lambdas_gaussian_design(0.1, 200, 128, gamma_tuning=1.0)
        assert pair.lambda_beta == pytest.approx(
            4 * math.sqrt(0.01 * math.log(128) / 200), rel=1e-14)
        assert pair.lambda_beta == pytest.approx(0.0623, abs=5e-5)
        assert pair.lambda_e == pytest.approx(0.0651, abs=5e-5)

    def test_gaussian_design_sigma_zero_degenerate(self):
        assert xl.lambdas_gaussian_design(0.0, 100, 50).degenerate

    def test_gaussian_design_ratio_identity(self):
        for n, p, g in [(100, 50, 1.0), (500, 200, 0.6)]:
            pair = xl.lambdas_gaussian_design(1.0, n, p, gamma_tuning=g)
            assert pair.lambda_beta / pair.lambda_e == pytest.approx(
                math.sqrt(math.log(p) / math.log(n)) / g, rel=1e-12)

    def test_simulation_fixture(self):
        pair = xl.lambdas_simulation(0.1, 200, 128)
        assert pair.lambda_beta == pytest.approx(
            2 * math.sqrt(0.01 * math.log(128) * math.log(200) / 200), rel=1e-14)
        assert pair.lambda_beta == pytest.approx(0.07171, abs=5e-5)
        assert pair.lambda_e == pytest.approx(0.03255, abs=5e-5)

    def test_simulation_ratio_is_sqrt_log_p(self):
        pair = xl.lambdas_simulation(0.5, 321, 77)
        assert pair.lambda_beta / pair.lambda_e == pytest.approx(
            math.sqrt(math.log(77)), rel=1e-12)

    def test_simulation_quadrupling_n(self):
        n = 500
        a = xl.lambdas_simulation(1.0, n, 64)
        b = xl.lambdas_simulation(1.0, 4 * n, 64)
        adj = math.sqrt(math.log(4 * n) / math.log(n))
        assert b.lambda_e == pytest.approx(0.5 * adj * a.lambda_e, rel=1e-12)
        assert b.lambda_beta == pytest.approx(0.5 * adj * a.lambda_beta, rel=1e-12)

    def test_support_recovery_identity_reduction(self):
        n, p = 1069, 128
        eta = 1.0 / math.log(n)
        pair = xl.lambdas_support_recovery(0.1, n, p, eta, IDENTITY_REPORT, 0.999)
        want = (8 / 0.999) * math.sqrt(0.01 * eta * math.log(n) * math.log(p) / n)
        assert pair.lambda_beta == pytest.approx(want, rel=1e-12)

    def test_support_recovery_fixture(self):
        # frozen direct arithmetic at n=1068, eta=0.5, identity covariance
        pair = xl.lambdas_support_recovery(0.1, 1068, 128, 0.5,
                                           IDENTITY_REPORT, 1.0 - 1e-12)
        want = 8 * math.sqrt(
            0.01 * 0.5 * math.log(1068) * math.log(128) / 1068)
        assert pair.lambda_beta == pytest.approx(want, rel=1e-9)
        assert pair.lambda_beta == pytest.approx(0.100689, abs=1e-5)

    def test_support_recovery_lambda_e_doubles_simulation(self):
        sim = xl.lambdas_simulation(0.1, 500, 64)
        sup = xl.lambdas_support_recovery(0.1, 500, 64, 0.5, IDENTITY_REPORT, 0.5)
        assert sup.lambda_e == pytest.approx(2 * sim.lambda_e, rel=1e-12)

    def test_sigma_homogeneity(self):
        for sig in (0.05, 0.2, 0.8):
            a = xl.lambdas_simulation(sig, 300, 100)
            b = xl.lambdas_simulation(2 * sig, 300, 100)
            assert b.lambda_beta == pytest.approx(2 * a.lambda_beta, rel=1e-12)
            assert b.lambda_e == pytest.approx(2 * a.lambda_e, rel=1e-12)


def fig1_inputs(eps=0.1):
    n = xl.n_from_theta(2.0, 8, 128)
    return TheoryInputs(n=n, p=128, k=8, s=n // 2, sigma=0.1,
                        gamma_incoherence=0.999, epsilon=eps, delta=0.1,
                        covariance_report=IDENTITY_REPORT)


class TestSampleBounds:
    def test_achievable_clean_limit(self):
        # eta -> 0, eps -> 0, sigma -> 0, identity: n1 -> 9 k ln(p-k) / gamma^2
        t = TheoryInputs(n=10_000, p=128, k=8, s=0, sigma=0.0,
                         gamma_incoherence=1.0 - 1e-12, epsilon=1e-12,
                         delta=0.5, covariance_report=IDENTITY_REPORT)
        b = sample_size_achievable(t, lam_b=0.1, lam_e=0.1)
        assert b.n1 == pytest.approx(9 * 8 * math.log(120), rel=1e-6)

    def test_achievable_fixture(self):
        t = fig1_inputs()
        eta = t.s / t.n  # 1191/2383, not exactly one half
        lam_b = xl.lambdas_simulation(0.1, t.n, 128).lambda_beta
        lam_e = xl.lambdas_support_recovery(0.1, t.n, 128, 0.5,
                                            IDENTITY_REPORT, 0.999).lambda_e
        b = sample_size_achievable(t, lam_b, lam_e)
        # direct arithmetic evaluation, independent of the implementation
        kl = 8 * math.log(120)
        n1 = (4 * 1.1 / (1 - eta)) * (1 / 0.999 ** 2) * kl * (
            2.25 + (1 - eta) ** 2 * 0.01 / (lam_b ** 2 * 8))
        deflate = 2 * 0.1 * math.sqrt(math.log(t.n)) / (lam_e * math.sqrt(t.n))
        n2 = 48 * 1.1 * (eta / (1 - eta) ** 2) * (1 / 0.999 ** 2) \
            * (1 - deflate) ** -2 * kl * math.log(t.n)
        assert b.n1 == pytest.approx(n1, rel=1e-12)
        assert b.n2 == pytest.approx(n2, rel=1e-12)
        assert deflate == pytest.approx(0.5, rel=1e-12)
        # frozen regression values
        assert b.n1 == pytest.approx(926.25, abs=0.01)
        assert b.n2 == pytest.approx(125894.56, abs=0.01)
        assert not b.predicate  # order-constant bound far above desk scale

    def test_achievable_n2_infinite_at_simulation_lambda_e(self):
        t = fig1_inputs()
        sim = xl.lambdas_simulation(0.1, t.n, 128)
        b = sample_size_achievable(t, sim.lambda_beta, sim.lambda_e)
        assert math.isinf(b.n2)

    def test_n2_decreasing_in_lambda_e(self):
        t = fig1_inputs()
        lam_b = 0.025
        les = [0.02, 0.03, 0.05, 0.1]
        vals = [sample_size_achievable(t, lam_b, le).n2 for le in les]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unachievable_clean_limit(self):
        # identity, eta -> 0, delta -> 0, sigma -> 0:
        # n1 -> (3/4) k ln(p-k) / (2-gamma)^2, twice hand-evaluated
        gamma = 0.999
        t = TheoryInputs(n=10, p=128, k=8, s=0, sigma=0.0,
                         gamma_incoherence=gamma, epsilon=0.5, delta=1e-12,
                         covariance_report=IDENTITY_REPORT)
        b = sample_size_unachievable(t, lam_b=0.1, lam_e=0.1)
        want = 2 * (8 * math.log(120) / (2 - gamma) ** 2) * (3 / 8)
        assert b.n1 == pytest.approx(want, rel=1e-6)
        assert b.n1 == pytest.approx(0.75 * 8 * math.log(120) / (2 - gamma) ** 2,
                                     rel=1e-6)

    def test_unachievable_below_achievable_at_fixture(self):
        t = fig1_inputs()
        lam_b = xl.lambdas_simulation(0.1, t.n, 128).lambda_beta
        lam_e = xl.lambdas_support_recovery(0.1, t.n, 128, 0.5,
                                            IDENTITY_REPORT, 0.999).lambda_e
        ach = sample_size_achievable(t, lam_b, lam_e)
        un = sample_size_unachievable(t, lam_b, lam_e)
        assert un.n1 < ach.n1
        assert un.n2 < ach.n2

    def test_bounds_scale_linearly_in_k_log_term(self):
        # sigma = 0 so the 1/k noise term inside n1's braces drops out
        def bounds_at(k, p):
            t = TheoryInputs(n=5000, p=p, k=k, s=2500, sigma=0.0,
                             gamma_incoherence=0.5, epsilon=0.3, delta=0.3,
                             covariance_report=IDENTITY_REPORT)
            return sample_size_unachievable(t, 0.05, 0.02)

        b1 = bounds_at(8, 128)
        b2 = bounds_at(16, 128)
        ratio = (16 * math.log(112)) / (8 * math.log(120))
        assert b2.n1 / b1.n1 == pytest.approx(ratio, rel=1e-9)
        assert b2.n2 / b1.n2 == pytest.approx(ratio, rel=1e-9)

    def test_bounds_always_finite_with_family_lambdas(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(50, 5000))
            p = int(rng.integers(16, 512))
            k = int(rng.integers(1, min(p, 12)))
            s = int(rng.integers(1, n // 2 + 1))
            sigma = float(rng.uniform(0.01, 1.0))
            t = TheoryInputs(n=n, p=p, k=k, s=s, sigma=sigma,
                             gamma_incoherence=0.5, epsilon=0.5, delta=0.5,
                             covariance_report=IDENTITY_REPORT)
            eta = max(s / n, 1 / math.log(n))
            pair = xl.lambdas_support_recovery(sigma, n, p, eta,
                                               IDENTITY_REPORT, 0.5)
            a = sample_size_achievable(t, *pair)
            u = sample_size_unachievable(t, *pair)
            for v in (a.n1, a.n2, u.n1, u.n2):
                assert math.isfinite(v) and v >= 0


class TestMagnitudeThresholds:
    def test_noise_free_reduces_to_lambda_term(self):
        t = TheoryInputs(n=1000, p=64, k=4, s=100, sigma=0.0,
                         covariance_report=IDENTITY_REPORT)
        f_beta, f_e = magnitude_thresholds(t, 0.05, 0.02)
        lam_bp = 0.05 * math.sqrt(4 * math.log(60) / (0.9 ** 2 * 1000))
        assert f_beta == pytest.approx(lam_bp, rel=1e-12)

    def test_identity_inv_sqrt_norm_is_one(self):
        assert IDENTITY_REPORT.inv_sqrt_infnorm == 1.0

    def test_fixture_values(self):
        t = fig1_inputs()
        eta = t.s / t.n
        pair = xl.lambdas_simulation(0.1, t.n, 128)
        f_beta, f_e = magnitude_thresholds(t, *pair)
        # direct arithmetic at n = 2383
        lam_bp = pair.lambda_beta * math.sqrt(
            8 * math.log(120) / ((1 - eta) ** 2 * t.n))
        want_fb = lam_bp + 20 * math.sqrt(0.01 * math.log(8) / (t.n - t.s))
        sk = t.s * 8
        want_fe = lam_bp * math.sqrt((sk + 8 * math.sqrt(sk)) / t.n) \
            + pair.lambda_e
        assert f_beta == pytest.approx(want_fb, rel=1e-12)
        assert f_e == pytest.approx(want_fe, rel=1e-12)
        assert f_beta == pytest.approx(0.0899, abs=2e-4)
        assert f_e == pytest.approx(0.0248, abs=2e-4)

    def test_constants_scale_terms(self):
        t = fig1_inputs()
        eta = t.s / t.n
        f1, e1 = magnitude_thresholds(t, 0.03, 0.01, c1=1.0, c2=1.0, c3=1.0)
        f2, e2 = magnitude_thresholds(t, 0.03, 0.01, c1=2.0, c2=3.0, c3=5.0)
        lam_bp = 0.03 * math.sqrt(8 * math.log(120) / ((1 - eta) ** 2 * t.n))
        assert f2 - f1 == pytest.approx(lam_bp, rel=1e-9)
        assert e2 == pytest.approx(3 * (e1 - 0.01) + 5 * 0.01, rel=1e-9)


class TestTheoryInputs:
    def test_eta_recomputed(self):
        t = TheoryInputs(n=100, p=32, k=4, s=25, sigma=0.1)
        assert t.eta == 0.25

    def test_range_validation(self):
        with pytest.raises(xl.InputError):
            TheoryInputs(n=10, p=4, k=5, s=0, sigma=0.1)
        with pytest.raises(xl.InputError):
            TheoryInputs(n=10, p=4, k=2, s=0, sigma=0.1, epsilon=1.0)
