"""The benchmark's checks reject solutions the program's certificate would
pass.  Run with `python3 -m pytest bench/test_checks.py`."""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import extlasso as xl  # noqa: E402

import checks  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    inst = xl.gen_instance(200, 20, k=3, s=20, sigma=0.1, seed=11)
    sol = xl.solve_extended_lasso(
        inst, *xl.lambdas_simulation(0.1, inst.n, inst.p))
    assert sol.converged
    return inst, sol


def check(inst, sol, beta, e):
    tr = inst.truth
    return checks.check_solution(inst.X, inst.y, beta, e, sol.lambda_beta,
                                 sol.lambda_e, True, tr.beta_star, tr.e_star)


def test_converged_solution_passes(solved):
    inst, sol = solved
    problems, viol = check(inst, sol, sol.beta_hat, sol.e_hat)
    assert problems == []
    assert max(viol) <= checks.STATIONARITY_TOL


def test_scaled_beta_is_rejected(solved):
    # KktReport.certified ignores stationarity and accepts this point
    inst, sol = solved
    problems, viol = check(inst, sol, 1.01 * sol.beta_hat, sol.e_hat)
    assert max(viol) > 1e-3
    assert any("stationarity" in p for p in problems)


def test_objective_above_truth_is_rejected(solved):
    inst, sol = solved
    problems, _ = check(inst, sol, np.zeros(inst.p), np.zeros(inst.n))
    assert any("objective" in p for p in problems)


def test_violations_split_on_and_off_support(solved):
    # at zero the support is empty, so the whole violation lies off it
    inst, sol = solved
    on, off = checks.kkt_violations(inst.X, inst.y, np.zeros(inst.p),
                                    np.zeros(inst.n), sol.lambda_beta,
                                    sol.lambda_e)
    assert on == 0.0 and off > 1.0
