"""The benchmark's own correctness checks, computed independently of extlasso.

Every quantity here is recomputed from the raw arrays in extended precision
(numpy longdouble, float80 on x86).  Nothing here calls the program or
trusts one of its verdicts: `KktReport.certified`, for instance, ignores
stationarity, so the benchmark measures stationarity itself.

Each check returns a list of problems; an empty list means the trial passed.
"""
from __future__ import annotations

import math

import numpy as np

LD = np.longdouble

#: stationarity a converged solve must reach (the solver's default tol_kkt)
STATIONARITY_TOL = 1e-9
#: the package's zero tolerance for signed supports (DEFAULT_ZERO_TOL)
ZERO_TOL = 1e-8
#: extended-precision rounding slack for comparing two objective values
OBJECTIVE_RTOL = 1e-12
#: agreement between a program-reported figure and the benchmark's own
AGREE_RTOL = 1e-6
AGREE_ATOL = 1e-15
#: agreement of a stationarity the program evaluates in float64 with the
#: benchmark's longdouble figure: float64 rounding of the duals stays near
#: 1e-15, and a misreport that could flip `converged` is near 1e-9
FLOAT64_ATOL = 1e-12
#: rows of X converted to longdouble at a time
ROWS = 1024


def _residual_and_gradient(X, y, beta, e):
    """r = y - X beta - sqrt(n) e and X'r, in longdouble.

    X is converted ROWS rows at a time, so the check never holds a whole
    longdouble copy of X and adds little to the peak memory it measures."""
    n = X.shape[0]
    beta = np.asarray(beta, dtype=LD)
    e = np.asarray(e, dtype=LD)
    r = np.empty(n, dtype=LD)
    g = np.zeros(X.shape[1], dtype=LD)
    rn = np.sqrt(LD(n))
    for i in range(0, n, ROWS):
        Xc = np.asarray(X[i:i + ROWS], dtype=LD)
        rc = np.asarray(y[i:i + ROWS], dtype=LD) - Xc @ beta \
            - rn * e[i:i + ROWS]
        r[i:i + ROWS] = rc
        g += Xc.T @ rc
    return r, g


def scaled_duals(X, y, beta, e, lam_b, lam_e):
    """z_beta = X'r / (n lam_b) and z_e = r / (sqrt(n) lam_e) at (beta, e)."""
    n = X.shape[0]
    r, g = _residual_and_gradient(X, y, beta, e)
    return g / (LD(n) * LD(lam_b)), r / (np.sqrt(LD(n)) * LD(lam_e))


def kkt_violations(X, y, beta, e, lam_b, lam_e) -> tuple[float, float]:
    """The subgradient conditions' largest violations at (beta, e):
    (|z_i - sign x_i| on the support, max(|z_i| - 1, 0) off it)."""
    on_worst = off_worst = LD(0)
    for z, v in zip(scaled_duals(X, y, beta, e, lam_b, lam_e), (beta, e)):
        v = np.asarray(v, dtype=LD)
        on = v != 0
        if on.any():
            on_worst = max(on_worst, np.max(np.abs(z[on] - np.sign(v[on]))))
        if (~on).any():
            off_worst = max(off_worst, np.max(np.abs(z[~on])) - 1)
    return float(on_worst), float(off_worst)


def stationarity(X, y, beta, e, lam_b, lam_e) -> float:
    """Largest violation of the subgradient conditions at (beta, e)."""
    return max(kkt_violations(X, y, beta, e, lam_b, lam_e))


def objective(X, y, beta, e, lam_b, lam_e) -> float:
    r, _ = _residual_and_gradient(X, y, beta, e)
    n = X.shape[0]
    val = (r @ r) / (2 * LD(n)) \
        + LD(lam_b) * np.abs(np.asarray(beta, dtype=LD)).sum() \
        + LD(lam_e) * np.abs(np.asarray(e, dtype=LD)).sum()
    return float(val)


def same_signs(x, x_star, zero_tol: float = ZERO_TOL) -> bool:
    """Whether x has the signed support of x_star, with entries of magnitude
    at most zero_tol counted as zero."""
    def signs(v):
        v = np.asarray(v, dtype=np.float64)
        return np.where(np.abs(v) > zero_tol, np.sign(v), 0.0)
    return bool(np.array_equal(signs(x), signs(x_star)))


def l2_error(beta, e, beta_star, e_star) -> float:
    """||beta - beta*||_2 + ||e - e*||_2, the error the theory bounds."""
    h = np.asarray(beta, dtype=LD) - np.asarray(beta_star, dtype=LD)
    f = np.asarray(e, dtype=LD) - np.asarray(e_star, dtype=LD)
    return float(np.sqrt(h @ h) + np.sqrt(f @ f))


def error_bound(kappa_hat: float, lam_b: float, lam_e: float, k: int, s: int,
                safety: float = 0.5) -> float:
    """3 kappa^-2 (lam_b sqrt(k) + lam_e sqrt(s)) with kappa = safety * kappa_hat."""
    kap = safety * kappa_hat
    return 3.0 / kap ** 2 * (lam_b * math.sqrt(k) + lam_e * math.sqrt(s))


def agrees(reported: float, own: float, atol: float = AGREE_ATOL) -> bool:
    return abs(reported - own) <= atol + AGREE_RTOL * abs(own)


def check_solution(X, y, beta, e, lam_b, lam_e, converged: bool,
                   beta_star, e_star) -> tuple[list, tuple[float, float]]:
    """Checks every returned (beta_hat, e_hat) must pass.

    A converged solve is stationary to STATIONARITY_TOL, and no solve may
    end above the objective of the planted truth, which is feasible.
    Returns (problems, kkt_violations)."""
    problems = []
    viol = kkt_violations(X, y, beta, e, lam_b, lam_e)
    stat = max(viol)
    if converged and not stat <= STATIONARITY_TOL:
        problems.append(f"converged solve has stationarity {stat:.3e}")
    obj = objective(X, y, beta, e, lam_b, lam_e)
    obj_truth = objective(X, y, beta_star, e_star, lam_b, lam_e)
    if converged and obj > obj_truth * (1 + OBJECTIVE_RTOL):
        problems.append(f"objective {obj!r} above the truth's {obj_truth!r}")
    return problems, viol
