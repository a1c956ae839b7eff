"""Acceptance suite: one test per criterion, at stated tolerances.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
quantities before asserting, so a full run reports the status of every
criterion regardless of individual failures.

Heavy shared computations (the noiseless recovery trials and the
phase-transition sweep) run once in module-scoped fixtures.
"""
import math
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
import pytest

import extlasso as xl
from extlasso.experiments import SweepConfig, run_sweep, solve_cell_trial, emit_curves
from extlasso.rng import stream
from oracles import brute_force_re_min

P = 128
K = 8
THETA_RECOVERY = 2.0
N_RECOVERY = xl.n_from_theta(THETA_RECOVERY, K, P)
TRIALS = 100

CRIT1_LAMBDA_BETA = 5e-9  # noiseless runs: tiny penalties, simulation-family
CRIT1_LAMBDA_E = CRIT1_LAMBDA_BETA / math.sqrt(math.log(P))  # cone weight

# Criterion-2 operating point.  Every constant below is derived in closed
# form in notes/decisions.md: the theorem's penalty pair at the largest
# incoherence slack the identity design admits, magnitudes floored above the
# restricted candidate's shrinkage, and the theta grid doubled from 2.0
# until both off-support dual scales sit below CRIT2_MARGIN.
CRIT2_MARGIN = 0.8
CRIT2_GAMMA = 0.999
CRIT2_THETA_TOP = 8.0
CRIT2_FLOOR_BETA = 0.089  # lambda_beta / (1 - eta) at CRIT2_THETA_TOP, / margin

CRIT2_CONFIG = SweepConfig(
    p_list=(P,), regimes=("sublinear",),
    theta_grid=(0.1, 0.5, 1.0, 1.5, 2.0, 4.0, CRIT2_THETA_TOP),
    trials=TRIALS, sigma=0.1, s_fraction=0.5,
    lambda_family="support_recovery", gamma_incoherence=CRIT2_GAMMA,
    master_seed=7, floor_beta=CRIT2_FLOOR_BETA, floor_e="f_e",
)

# The floorless simulation-pair configuration criterion 2 used to run.  Its
# curve is flat at zero (notes/decisions.md), but byte-identity across worker
# counts does not depend on where the transition sits, so criterion 8 keeps
# sweeping it unchanged.
DETERMINISM_CONFIG = SweepConfig(
    p_list=(P,), regimes=("sublinear",),
    theta_grid=(0.1, 0.5, 1.0, 1.5, 2.0),
    trials=TRIALS, sigma=0.1, s_fraction=0.5,
    lambda_family="simulation", master_seed=7,
)


def crit2_closed_form(theta: float) -> tuple[float, float, float]:
    """(beta dual scale, e dual scale, beta shrinkage) of the restricted
    candidate at a criterion-2 cell, as derived in notes/decisions.md."""
    n = xl.n_from_theta(theta, K, P)
    s = int(CRIT2_CONFIG.s_fraction * n)
    eta = s / n
    sigma = CRIT2_CONFIG.sigma
    lam_b, lam_e = xl.lambdas_support_recovery(
        sigma, n, P, eta, xl.IDENTITY_REPORT, CRIT2_GAMMA)
    r = lam_e / lam_b
    var_beta = (sigma ** 2 * (1 - eta) / (n * lam_b ** 2)
                + K * (1 + eta * r ** 2) / ((1 - eta) * n) + eta * r ** 2)
    var_e = (sigma ** 2 / (n * lam_e ** 2)
             + K * (1 + eta * r ** 2) / (r ** 2 * (1 - eta) ** 2 * n))
    return (math.sqrt(2 * math.log(P - K) * var_beta),
            math.sqrt(2 * math.log(n - s) * var_e),
            lam_b / (1 - eta))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


@dataclass
class TrialSummary:
    converged: bool
    success: bool
    l2_error: float
    stationarity: float
    off_beta: float
    off_e: float
    closed_form_dev: float
    witness: str = ""  # witness failing condition ("none" = passed)


@pytest.fixture(scope="module")
def noiseless_recovery_runs():
    """Criterion-1 trials; also feeds criteria 3 and 4."""
    runs = []
    t0 = time.time()
    for t in range(TRIALS):
        inst = xl.gen_instance(N_RECOVERY, P, k=K, s=N_RECOVERY // 2,
                               sigma=0.0, seed=(101, t))
        sol = xl.solve_extended_lasso(inst, CRIT1_LAMBDA_BETA, CRIT1_LAMBDA_E)
        met = xl.recovery_metrics(inst, sol)
        rep = xl.kkt_check(inst, sol)
        success = sol.converged and met.exact_signed_support
        dev = math.inf
        if success:
            tr = inst.truth
            _, _, beta_r, e_r = xl.restricted_solution(
                inst, tr.T, tr.S, CRIT1_LAMBDA_BETA, CRIT1_LAMBDA_E,
                dtype=np.longdouble)
            dev = float(max(
                np.max(np.abs(np.asarray(sol.beta_hat, dtype=np.longdouble)
                              - beta_r)),
                np.max(np.abs(np.asarray(sol.e_hat, dtype=np.longdouble)
                              - e_r))))
        runs.append(TrialSummary(
            converged=sol.converged, success=success, l2_error=met.l2_total,
            stationarity=rep.stationarity_residual,
            off_beta=rep.max_offsupport_zbeta, off_e=rep.max_offsupport_ze,
            closed_form_dev=dev))
    elapsed = time.time() - t0
    return runs, elapsed


def _phase_trial(task) -> TrialSummary:
    """One criterion-2 trial: solve, certify, and run the witness."""
    cell, t = task
    inst, sol = solve_cell_trial(CRIT2_CONFIG, cell, t)
    met = xl.recovery_metrics(inst, sol, CRIT2_CONFIG.zero_tol)
    rep = xl.kkt_check(inst, sol)
    tr = inst.truth
    wit = xl.primal_dual_witness(inst, tr.T, tr.S, sol.lambda_beta,
                                 sol.lambda_e)
    return TrialSummary(
        converged=sol.converged,
        success=sol.converged and met.exact_signed_support,
        l2_error=met.l2_total, stationarity=rep.stationarity_residual,
        off_beta=rep.max_offsupport_zbeta, off_e=rep.max_offsupport_ze,
        closed_form_dev=math.inf, witness=wit.failing_condition)


@pytest.fixture(scope="module")
def phase_sweep_trials():
    """Criterion-2 per-trial records with optimality summaries (feeds 3) and
    the primal-dual witness verdict at the true supports.

    Trials are seeded by (cell, trial) alone, so they are spread over two
    forked workers; map keeps the records in (cell, trial) order."""
    cells = CRIT2_CONFIG.cells()
    tasks = [(cell, t) for cell in cells for t in range(TRIALS)]
    with get_context("fork").Pool(processes=2) as pool:
        summaries = pool.map(_phase_trial, tasks, chunksize=4)
    per_cell = {}
    for i, cell in enumerate(cells):
        block = summaries[i * TRIALS:(i + 1) * TRIALS]
        per_cell[cell.theta] = sum(r.success for r in block) / TRIALS
    return per_cell, summaries


class TestCriterion1:
    def test_noiseless_exact_recovery(self, noiseless_recovery_runs):
        runs, elapsed = noiseless_recovery_runs
        successes = sum(r.success for r in runs)
        errs = [r.l2_error for r in runs if r.success]
        max_err = max(errs) if errs else math.inf
        ok = successes >= 95 and max_err <= 1e-6 and elapsed <= 300.0
        report(1, ok,
               f"signed-support recovery {successes}/{TRIALS} (need >= 95), "
               f"max l2 error on successes {max_err:.3e} (need <= 1e-6), "
               f"runtime {elapsed:.0f}s (budget 300s)")
        assert successes >= 95
        assert max_err <= 1e-6
        assert elapsed <= 300.0


class TestCriterion2:
    def test_phase_transition_shape(self, phase_sweep_trials):
        rates, _ = phase_sweep_trials
        thetas = sorted(rates)
        curve = [rates[t] for t in thetas]
        resid = xl.monotone_trend_residual(curve)
        top = CRIT2_THETA_TOP
        ok = rates[top] >= 0.9 and rates[0.1] <= 0.1 and resid <= 0.15
        report(2, ok,
               f"success rates {[(t, rates[t]) for t in thetas]}; "
               f"need rate({top}) >= 0.9 (got {rates[top]:.2f}), "
               f"rate(0.1) <= 0.1 (got {rates[0.1]:.2f}), "
               f"isotonic residual {resid:.3f} <= 0.15")
        assert rates[0.1] <= 0.1
        assert resid <= 0.15
        assert rates[top] >= 0.9, (
            f"theta = {top} is the first doubling at which both closed-form "
            f"off-support dual scales of the restricted candidate are <= "
            f"{CRIT2_MARGIN} (see notes/decisions.md); with the witness "
            f"agreeing, a miss is an estimator limit the derivation missed, "
            f"and theta is not moved to fit a run")

    def test_solver_matches_witness(self, phase_sweep_trials):
        # The witness decides exact recovery without the solver, so any
        # disagreement is a solver fault the success rates would hide.
        _, runs = phase_sweep_trials
        mismatched = [(CRIT2_CONFIG.theta_grid[i // TRIALS], i % TRIALS,
                       r.witness)
                      for i, r in enumerate(runs)
                      if r.success != (r.witness == "none")]
        verdicts = Counter(r.witness for r in runs)
        ok = not mismatched
        report(2, ok,
               f"solver success equals the witness verdict on "
               f"{len(runs) - len(mismatched)}/{len(runs)} trials (need all); "
               f"witness outcomes {dict(sorted(verdicts.items()))}")
        assert not mismatched, f"(theta, trial, witness): {mismatched[:10]}"

    def test_operating_point_is_derived(self):
        # notes/decisions.md: double theta from 2.0 until both dual scales
        # are within the margin, then floor beta above that cell's shrinkage.
        theta = 2.0
        while max(crit2_closed_form(theta)[:2]) > CRIT2_MARGIN:
            theta *= 2
        assert theta == CRIT2_THETA_TOP
        assert CRIT2_CONFIG.theta_grid[-2:] == (theta / 2, theta)
        shrinkage = crit2_closed_form(theta)[2]
        assert round(shrinkage / CRIT2_MARGIN, 3) == CRIT2_FLOOR_BETA


class TestCriterion3:
    def test_kkt_certification_everywhere(self, noiseless_recovery_runs,
                                          phase_sweep_trials):
        runs, _ = noiseless_recovery_runs
        _, sweep_runs = phase_sweep_trials
        all_runs = [r for r in runs + sweep_runs if r.converged]
        bad_stat = [r.stationarity for r in all_runs if r.stationarity > 1e-9]
        bad_off = [r for r in all_runs
                   if r.off_beta >= 1.0 or r.off_e >= 1.0]
        ok = not bad_stat and not bad_off
        report(3, ok,
               f"{len(all_runs)} converged solves; stationarity violations "
               f"{len(bad_stat)}, off-support dual violations {len(bad_off)} "
               f"(need zero of each)")
        assert not bad_stat
        assert not bad_off


class TestCriterion4:
    def test_closed_form_agreement_on_successes(self, noiseless_recovery_runs):
        runs, _ = noiseless_recovery_runs
        devs = [r.closed_form_dev for r in runs if r.success]
        worst = max(devs) if devs else 0.0
        ok = bool(devs) and worst <= 1e-8
        report(4, ok,
               f"{len(devs)} successes compared to the support-restricted "
               f"closed form; worst l_inf deviation {worst:.3e} (need <= 1e-8)")
        assert devs
        assert worst <= 1e-8


class TestCriterion5:
    def test_parameter_error_bound(self):
        n, p, k, s, sigma = 400, 100, 5, 40, 0.1
        violations = 0
        worst_ratio = 0.0
        for t in range(TRIALS):
            inst = xl.gen_instance(n, p, k=k, s=s, sigma=sigma, seed=(105, t))
            pair = xl.lambdas_noise_oracle(inst)
            est = xl.extended_re_estimate(inst.X, inst.truth.T, inst.truth.S,
                                          pair.ratio, 10_000, seed=(106, t))
            sol = xl.solve_extended_lasso(inst, *pair)
            met = xl.recovery_metrics(inst, sol)
            bound = xl.parameter_error_bound(est.kappa_hat, *pair, k=k, s=s,
                                             safety=0.5)
            worst_ratio = max(worst_ratio, met.l2_total / bound)
            violations += met.l2_total > bound
        ok = violations == 0
        report(5, ok,
               f"l2-error bound with 0.5-safety kappa: {violations} "
               f"violations in {TRIALS} trials (need 0); "
               f"worst error/bound = {worst_ratio:.3f}")
        assert violations == 0


class TestCriterion6:
    def test_error_scaling_slope(self):
        t0 = time.time()
        res = xl.error_scaling_sweep(trials=20, master_seed=7)
        elapsed = time.time() - t0
        ok = -0.6 <= res.slope <= -0.4 and elapsed <= 600.0
        report(6, ok,
               f"log-log error slope {res.slope:.3f} (need -0.5 +/- 0.1), "
               f"runtime {elapsed:.0f}s (budget 600s); "
               f"rows {[(n, round(e, 4)) for n, e in res.rows]}")
        assert -0.6 <= res.slope <= -0.4
        assert elapsed <= 600.0


class TestCriterion7:
    def test_witness_failure_when_undersampled(self):
        n = xl.n_from_theta(0.1, K, P)
        s = n // 2
        pair = xl.lambdas_simulation(0.1, n, P)
        failures = 0
        for t in range(TRIALS):
            inst = xl.gen_instance(n, P, k=K, s=s, sigma=0.1, seed=(107, t))
            tr = inst.truth
            wit = xl.primal_dual_witness(inst, tr.T, tr.S, *pair)
            failures += not wit.passed
        ok = failures >= 80
        report(7, ok,
               f"witness step-3/4 failures at n={n} (theta=0.1, eta=0.5): "
               f"{failures}/{TRIALS} (need >= 80)")
        assert failures >= 80


class TestCriterion8:
    def test_worker_count_determinism(self, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            result = run_sweep(DETERMINISM_CONFIG, n_workers=workers)
            out = tmp_path / f"workers{workers}"
            paths = emit_curves(result, out)
            blobs.append(b"".join(p.read_bytes() for p in sorted(paths)))
        ok = blobs[0] == blobs[1] == blobs[2]
        report(8, ok,
               f"floorless sweep rerun with 1/4/8 workers: CSV bytes "
               f"{'identical' if ok else 'DIFFER'} "
               f"({len(blobs[0])} bytes per run)")
        assert ok

    def test_sweep_matches_trialwise_fixture(self, phase_sweep_trials,
                                             tmp_path):
        # consistency: the pooled sweep reproduces the fixture's rates
        rates, _ = phase_sweep_trials
        result = run_sweep(CRIT2_CONFIG, n_workers=4)
        for cell in result.cells:
            assert cell.success_rate == rates[cell.theta]


class TestCriterion9:
    def test_sampler_never_undercuts_brute_force(self):
        cases = [(3, 2, 1, 1, 0.8), (4, 3, 2, 2, 0.8), (5, 4, 2, 2, 3.0),
                 (6, 5, 2, 3, 1.2), (6, 6, 2, 3, 0.8)]
        worst_gap = -math.inf
        ok = True
        for i, (n, p, k, s, lam) in enumerate(cases):
            X = stream(109, n, p).standard_normal((n, p))
            T = np.arange(k)
            S = np.arange(s)
            brute = brute_force_re_min(X, T, S, lam, seed=110)
            samp = xl.extended_re_estimate(X, T, S, lam, 5000,
                                           seed=111).kappa_hat
            gap = brute - samp
            worst_gap = max(worst_gap, gap)
            ok = ok and samp >= brute - 1e-6
        report(9, ok,
               f"{len(cases)} tiny instances: max(brute - sampled) = "
               f"{worst_gap:.2e} (need <= 1e-6)")
        assert ok
