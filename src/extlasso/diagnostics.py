"""Optimality certification and recovery diagnostics.

kkt_check certifies a candidate solution by recomputing the scaled duals

    z_beta = X^T (y - X b - sqrt(n) e) / (n lambda_beta)
    z_e    =     (y - X b - sqrt(n) e) / (sqrt(n) lambda_e)

in extended precision (the residual is a small difference of large
quantities, and at very small lambdas float64 rounding alone would swamp a
1e-9 stationarity tolerance).  A report is certified when the on-support
duals match the signs to within its tolerance and the off-support duals are
strictly inside (-1, 1).

primal_dual_witness builds the candidate solution restricted to the true
supports in closed form, assigns the true signs as on-support duals, then
tests off-support dual feasibility (step 3) and sign consistency (step 4).
If either step fails, no solution of the program carries the true signed
supports.

extended_re_estimate samples the cone

    ||h_Tc||_1 + lam ||f_Sc||_1 <= 3 ||h_T||_1 + 3 lam ||f_S||_1

and reports the smallest observed value of
||X h + sqrt(n) f||_2 / (sqrt(n) (||h||_2 + ||f||_2)).  The directions come
from one random stream in fixed batches of 1000, and each batch is scaled
into the cone and evaluated in one in-place pass over preallocated buffers.
The ratio is invariant to a joint scaling of (h, f), so it is computed
without normalizing the directions.  Sampling can only over-estimate the
true cone minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (DEFAULT_ZERO_TOL, InputError, ProblemInstance, Solution,
                    _as_vector, check_count, check_finite_positive,
                    extract_signed_support,
                    index_array)
from .rng import stream
from .solver import _scaled_duals, restricted_solution

_TIE_TOL = 1e-12  # off-support duals within this of magnitude 1 are not strict


@dataclass(frozen=True)
class KktReport:
    """Scaled duals plus the scalar summaries of the optimality system."""

    z_beta: np.ndarray
    z_e: np.ndarray
    stationarity_residual: float
    max_offsupport_zbeta: float
    max_offsupport_ze: float
    strict_feasible: bool
    sign_consistent: bool
    tol: float  # stationarity a certified solution must reach

    @property
    def certified(self) -> bool:
        return (self.stationarity_residual <= self.tol
                and self.strict_feasible and self.sign_consistent)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the four-step witness construction."""

    beta_restricted: np.ndarray   # candidate beta on T (length |T|)
    e_restricted: np.ndarray      # candidate e on S (length |S|)
    dual_offsupport_beta: np.ndarray
    dual_offsupport_e: np.ndarray
    step3_pass: bool
    step4_pass: bool
    failing_condition: str        # none|dual_beta|dual_e|sign_beta|sign_e

    @property
    def passed(self) -> bool:
        return self.step3_pass and self.step4_pass


@dataclass(frozen=True)
class ReEstimate:
    """Sampled lower-curvature estimate over the restricted cone."""

    kappa_hat: float
    num_samples: int
    sampling_spec: dict = field(default_factory=dict)


def kkt_check(instance: ProblemInstance, solution: Solution,
              tol: float = 1e-9) -> KktReport:
    """Evaluate the optimality system at the solution; always returns a
    report, certified only if the stationarity residual is at most tol.
    DimensionMismatchError if the solution does not fit the instance, and
    InputError unless tol is finite and > 0."""
    check_finite_positive("tol", tol)
    beta = _as_vector("beta_hat", solution.beta_hat, instance.p, np.longdouble)
    e = _as_vector("e_hat", solution.e_hat, instance.n, np.longdouble)
    (z_beta, z_e), stat, off_b, off_e = _scaled_duals(
        instance.X, instance.y, beta, e, solution.lambda_beta,
        solution.lambda_e)
    sign_ok = all(np.array_equal(np.sign(z[v != 0]), np.sign(v[v != 0]))
                  for z, v in ((z_beta, beta), (z_e, e)))
    return KktReport(
        z_beta=z_beta.astype(np.float64), z_e=z_e.astype(np.float64),
        stationarity_residual=stat,
        max_offsupport_zbeta=off_b, max_offsupport_ze=off_e,
        strict_feasible=max(off_b, off_e) < 1.0 - _TIE_TOL,
        sign_consistent=sign_ok, tol=tol,
    )


def primal_dual_witness(instance: ProblemInstance, T, S, lam_b: float,
                        lam_e: float) -> WitnessReport:
    """Four-step witness for exact signed-support recovery at (T, S)."""
    if instance.truth is None:
        raise InputError("witness construction requires the instance truth")
    truth = instance.truth
    T = index_array("T", T, instance.p)
    S = index_array("S", S, instance.n)
    sign_b = np.sign(truth.beta_star[T])
    sign_e = np.sign(truth.e_star[S])

    # Step 1: restricted candidate in closed form, anchored at the truth,
    # so the truth's signs on (T, S) are assumed.
    _, _, beta_hat, e_hat = restricted_solution(instance, T, S, lam_b, lam_e)

    # Step 2 assigns on-support duals = assumed signs; they enter the
    # closed form already, so only steps 3-4 remain to verify.
    (z_beta, z_e), *_ = _scaled_duals(instance.X, instance.y, beta_hat, e_hat,
                                      lam_b, lam_e)
    zb_off = np.delete(z_beta, T)
    ze_off = np.delete(z_e, S)

    max_b = float(np.max(np.abs(zb_off), initial=0.0))
    max_e = float(np.max(np.abs(ze_off), initial=0.0))
    dual_beta_ok = max_b < 1.0 - _TIE_TOL
    dual_e_ok = max_e < 1.0 - _TIE_TOL
    step3 = dual_beta_ok and dual_e_ok

    sign_beta_ok = bool(np.all(np.sign(beta_hat[T]) == sign_b))
    sign_e_ok = bool(np.all(np.sign(e_hat[S]) == sign_e))
    step4 = sign_beta_ok and sign_e_ok

    if not dual_beta_ok:
        failing = "dual_beta"
    elif not dual_e_ok:
        failing = "dual_e"
    elif not sign_beta_ok:
        failing = "sign_beta"
    elif not sign_e_ok:
        failing = "sign_e"
    else:
        failing = "none"
    return WitnessReport(
        beta_restricted=beta_hat[T], e_restricted=e_hat[S],
        dual_offsupport_beta=zb_off, dual_offsupport_e=ze_off,
        step3_pass=step3, step4_pass=step4, failing_condition=failing,
    )


def extended_re_estimate(X, T, S, lambda_ratio: float, num_samples: int,
                         seed=0, restrict: str | None = None) -> ReEstimate:
    """Monte-Carlo lower-curvature estimate over the restricted cone.

    All draws come from one stream, stream(seed, 101), in batches of 1000
    directions: h, then f, then the slack, a full batch each time, with the
    last batch truncated to num_samples.  The sample set for a larger
    num_samples is therefore a superset of any smaller one, and the minimum
    can only fall as num_samples grows.  Each batch is one in-place pass over
    buffers allocated once per call: the off-support rows are scaled into
    the cone, and the ratio ||X h + sqrt(n) f||_2 / (sqrt(n) (||h||_2 +
    ||f||_2)), which is invariant to a joint scaling of (h, f), is computed
    without normalizing the directions first.

    restrict="f_zero" confines sampling to f = 0 (cone on h alone);
    "h_zero" confines it to h = 0.  The returned kappa_hat is the minimum
    sampled ratio, an optimistic (upper) estimate of the true cone infimum.
    """
    lam = float(lambda_ratio)
    if not (math.isfinite(lam) and lam > 0):
        raise InputError("lambda_ratio must be finite and > 0")
    check_count("num_samples", num_samples)
    if restrict not in (None, "f_zero", "h_zero"):
        raise InputError(f"unknown restriction {restrict!r}")
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    T = np.unique(index_array("T", T, p))
    S = np.unique(index_array("S", S, n))
    rn = math.sqrt(n)
    rng = stream(seed, 101)

    batch = 1000
    h = np.empty((p, batch))
    f = np.empty((n, batch))
    v = np.empty((n, batch))      # |f| off S, then X h + sqrt(n) f
    abs_h = np.empty((p, batch))
    slack = np.empty(batch)
    best = math.inf
    for done in range(0, num_samples, batch):
        m = min(batch, num_samples - done)
        rng.standard_normal(out=h)
        rng.standard_normal(out=f)
        rng.random(out=slack)     # the same doubles as uniform(0, 1)
        if restrict == "f_zero":
            f.fill(0.0)
        if restrict == "h_zero":
            h.fill(0.0)

        # scale the off-support rows by slack * 3 * on_l1 / off_l1; the
        # support rows are saved and put back, so they stay exact
        h_T, f_S = h[T], f[S]
        on_l1 = np.abs(h_T).sum(axis=0) + lam * np.abs(f_S).sum(axis=0)
        np.abs(h, out=abs_h)
        abs_h[T] = 0.0
        np.abs(f, out=v)
        v[S] = 0.0
        off_l1 = abs_h.sum(axis=0) + lam * v.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(off_l1 > 0, slack * 3.0 * on_l1 / off_l1, 0.0)
        h *= scale
        h[T] = h_T
        f *= scale
        f[S] = f_S

        norm = (np.sqrt(np.einsum("ij,ij->j", h, h))
                + np.sqrt(np.einsum("ij,ij->j", f, f)))
        np.matmul(X, h, out=v)
        f *= rn
        v += f
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.sqrt(np.einsum("ij,ij->j", v, v)) / (rn * norm)
        ok = norm[:m] > 0
        if np.any(ok):
            best = min(best, float(np.min(ratios[:m][ok])))

    spec = {"lambda_ratio": lam, "restrict": restrict or "none",
            "seed": (int(seed) if isinstance(seed, (int, np.integer))
                     else [int(s) for s in seed])}
    return ReEstimate(kappa_hat=best, num_samples=num_samples,
                      sampling_spec=spec)


@dataclass(frozen=True)
class RecoveryMetrics:
    """Parameter / support / prediction errors of a solution vs the truth."""

    l2_beta: float
    l2_e: float
    linf_beta: float
    linf_e: float
    signed_support_beta: bool
    signed_support_e: bool
    prediction_error: float

    @property
    def l2_total(self) -> float:
        return self.l2_beta + self.l2_e

    @property
    def exact_signed_support(self) -> bool:
        return self.signed_support_beta and self.signed_support_e


def recovery_metrics(instance: ProblemInstance, solution: Solution,
                     zero_tol: float = DEFAULT_ZERO_TOL) -> RecoveryMetrics:
    """Errors of (beta_hat, e_hat) against the instance truth.
    DimensionMismatchError if the solution does not fit the instance."""
    if instance.truth is None:
        raise InputError("recovery metrics require the instance truth")
    t = instance.truth
    h = _as_vector("beta_hat", solution.beta_hat, instance.p) - t.beta_star
    f = _as_vector("e_hat", solution.e_hat, instance.n) - t.e_star
    sup_b = extract_signed_support(solution.beta_hat, zero_tol) == \
        extract_signed_support(t.beta_star, zero_tol)
    sup_e = extract_signed_support(solution.e_hat, zero_tol) == \
        extract_signed_support(t.e_star, zero_tol)
    return RecoveryMetrics(
        l2_beta=float(np.linalg.norm(h)),
        l2_e=float(np.linalg.norm(f)),
        linf_beta=float(np.max(np.abs(h), initial=0.0)),
        linf_e=float(np.max(np.abs(f), initial=0.0)),
        signed_support_beta=bool(sup_b),
        signed_support_e=bool(sup_e),
        prediction_error=float(np.linalg.norm(instance.X @ h))
        / math.sqrt(instance.n),
    )


def parameter_error_bound(kappa: float, lam_b: float, lam_e: float,
                          k: int, s: int, safety: float = 1.0) -> float:
    """The guaranteed l2-error level 3 kappa^-2 (lam_b sqrt(k) + lam_e sqrt(s)),

    with kappa deflated by `safety` (a sampled kappa over-estimates the true
    cone infimum, so tests use safety = 0.5)."""
    kap = safety * kappa
    if kap <= 0:
        raise InputError("need a positive curvature estimate")
    return 3.0 / kap ** 2 * (lam_b * math.sqrt(k) + lam_e * math.sqrt(s))
