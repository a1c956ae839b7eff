"""Optimality certification and recovery diagnostics.

kkt_check certifies a candidate solution by recomputing the scaled duals

    z_beta = X^T (y - X b - sqrt(n) e) / (n lambda_beta)
    z_e    =     (y - X b - sqrt(n) e) / (sqrt(n) lambda_e)

The residual r is a small difference of large quantities, and at very small
lambdas float64 rounding alone would swamp a 1e-9 stationarity tolerance.
So r, z_e and the on-support z_beta, which the stationarity residual reads,
are evaluated in extended precision.  The off-support z_beta needs only a
margin to 1, and its X^T r is one float64 product on r rounded to float64,
with a bound err on its error (solver._scaled_duals).  A report is
certified when the on-support duals match the signs to within its
tolerance and the off-support duals are strictly inside (-1, 1): every
off-support |z_e|, and every off-support |z_beta| plus err, below
1 - 1e-12.

primal_dual_witness builds the candidate solution restricted to the true
supports in closed form, assigns the true signs as on-support duals, then
tests off-support dual feasibility (step 3) and sign consistency (step 4).
If either step fails, no solution of the program carries the true signed
supports.

extended_re_estimate samples the cone

    ||h_Tc||_1 + lam ||f_Sc||_1 <= 3 ||h_T||_1 + 3 lam ||f_S||_1

and reports the smallest observed value of
||X h + sqrt(n) f||_2 / (sqrt(n) (||h||_2 + ||f||_2)).  The directions come
from one random stream in fixed batches of 1000.  Each batch is scaled into
the cone and evaluated in place, _CONE_ROWS rows at a time, so that the
sampler holds its draws and one row block.  The ratio is invariant to a
joint scaling of (h, f), so it is computed without normalizing the
directions.  Sampling can only over-estimate the true cone minimum.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import (DEFAULT_ZERO_TOL, DimensionMismatchError, InputError,
                    ProblemInstance, Solution, _as_vector, _check_finite,
                    check_count, check_finite_positive,
                    extract_signed_support, index_array)
from .rng import stream
from .solver import _restricted_point, _scaled_duals

_TIE_TOL = 1e-12  # off-support duals within this of magnitude 1 are not strict
_CONE_ROWS = 64  # rows of a cone-sampler draw buffer worked on at a time


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
    max_offsupport_zbeta comes from the float64 off-support product, and
    strict feasibility asks it plus err to be below 1 - 1e-12.
    DimensionMismatchError if the solution does not fit the instance, and
    InputError unless tol is finite and > 0."""
    check_finite_positive("tol", tol)
    beta = _as_vector("beta_hat", solution.beta_hat, instance.p, np.longdouble)
    e = _as_vector("e_hat", solution.e_hat, instance.n, np.longdouble)
    (z_beta, z_e), stat, off_b, off_e, err = _scaled_duals(
        instance.X, instance.y, beta, e, solution.lambda_beta,
        solution.lambda_e, col_norm=instance.max_col_norm)
    sign_ok = all(np.array_equal(np.sign(z[v != 0]), np.sign(v[v != 0]))
                  for z, v in ((z_beta, beta), (z_e, e)))
    return KktReport(
        z_beta=z_beta.astype(np.float64), z_e=z_e.astype(np.float64),
        stationarity_residual=stat,
        max_offsupport_zbeta=off_b, max_offsupport_ze=off_e,
        strict_feasible=max(off_b + err, off_e) < 1.0 - _TIE_TOL,
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
    check_finite_positive("lam_b", lam_b, zero_ok=True)
    check_finite_positive("lam_e", lam_e, zero_ok=True)
    sign_b = np.sign(truth.beta_star[T])
    sign_e = np.sign(truth.e_star[S])

    # Step 1: restricted candidate in closed form, anchored at the truth,
    # so the truth's signs on (T, S) are assumed; r is its residual.
    _, _, beta_hat, e_hat, r = _restricted_point(
        instance.X, instance.y, T, S, sign_b, sign_e, truth.beta_star[T],
        truth.e_star[S], lam_b, lam_e, np.float64)

    # Step 2 assigns on-support duals = assumed signs; they enter the
    # closed form already, so only steps 3-4 remain to verify.
    (z_beta, z_e), *_ = _scaled_duals(instance.X, instance.y, beta_hat, e_hat,
                                      lam_b, lam_e, r)
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


def _cone_blocks(size: int, on: np.ndarray) -> list:
    """(rows, on rows local to the block, 0/1 weights (2, block) picking
    the on and the off rows) for consecutive _CONE_ROWS-row blocks of a
    draw buffer with `size` rows; `on` is sorted."""
    blocks = []
    for i in range(0, size, _CONE_ROWS):
        j = min(i + _CONE_ROWS, size)
        local = on[np.searchsorted(on, i):np.searchsorted(on, j)] - i
        w = np.zeros((2, j - i))
        w[0, local] = 1.0
        w[1] = 1.0 - w[0]
        blocks.append((slice(i, j), local, w))
    return blocks


def _l1_sums(a, blocks, buf) -> np.ndarray:
    """Column sums of |a| over its on rows and over its off rows, (2, batch),
    one block of |a| in buf at a time."""
    sums = np.zeros((2, a.shape[1]))
    for rows, _, w in blocks:
        sums += w @ np.abs(a[rows], out=buf[:len(w[0])])
    return sums


def _scale_rows(a, on, scale, on_factor: float, buf) -> None:
    """a's rows times the column factors `scale`, in place, except the rows
    `on`, which are saved in buf and put back times on_factor by assignment
    (scale can be inf, and a 0/1 weight would turn 0 * inf into nan)."""
    kept = np.take(a, on, axis=0, out=buf[:len(on)], mode="clip")
    a *= scale
    kept *= on_factor
    a[on] = kept


def extended_re_estimate(X, T, S, lambda_ratio: float, num_samples: int,
                         seed=0, restrict: str | None = None) -> ReEstimate:
    """Monte-Carlo lower-curvature estimate over the restricted cone.

    All draws come from one stream, stream(seed, 101), in batches of 1000
    directions: h, then f, then the slack, a full batch each time, with the
    last batch truncated to num_samples.  The sample set for a larger
    num_samples is therefore a superset of any smaller one, and the minimum
    can only fall as num_samples grows.  Besides the draw buffers h (p x
    1000) and f (n x 1000), allocated once per call, the sampler holds one
    block of _CONE_ROWS x 1000.  Block by block it sums the on- and
    off-support L1 norms, scales the off-support rows into the cone (f
    times sqrt(n) as well), and forms X h + sqrt(n) f and its column
    norms.  The ratio ||X h + sqrt(n) f||_2 / (sqrt(n) (||h||_2 +
    ||f||_2)), which is invariant to a joint scaling of (h, f), is computed
    without normalizing the directions first.  InputError on a non-finite
    X, DimensionMismatchError unless X is a matrix.

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
    if X.ndim != 2:
        raise DimensionMismatchError(f"X must be a matrix, got shape {X.shape}")
    _check_finite("X", X)
    n, p = X.shape
    T = np.unique(index_array("T", T, p))
    S = np.unique(index_array("S", S, n))
    rn = math.sqrt(n)
    rng = stream(seed, 101)

    batch = 1000
    h = np.empty((p, batch))
    f = np.empty((n, batch))
    buf = np.empty((_CONE_ROWS, batch))  # the one row block
    slack = np.empty(batch)
    h_blocks, f_blocks = _cone_blocks(p, T), _cone_blocks(n, S)
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

        # on- and off-support L1 sums, then the off-support rows scaled by
        # slack * 3 * on_l1 / off_l1
        on_l1, off_l1 = (_l1_sums(h, h_blocks, buf)
                         + lam * _l1_sums(f, f_blocks, buf))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(off_l1 > 0, slack * 3.0 * on_l1 / off_l1, 0.0)
        for rows, on, _ in h_blocks:
            _scale_rows(h[rows], on, scale, 1.0, buf)
        hh = np.einsum("ij,ij->j", h, h)
        # f becomes sqrt(n) f, and v = X h + sqrt(n) f one block at a time
        ff, vv = np.zeros(batch), np.zeros(batch)
        scale *= rn
        for rows, on, _ in f_blocks:
            fb = f[rows]
            _scale_rows(fb, on, scale, rn, buf)
            ff += np.einsum("ij,ij->j", fb, fb)
            vb = np.matmul(X[rows], h, out=buf[:len(fb)])
            vb += fb
            vv += np.einsum("ij,ij->j", vb, vb)

        norm = np.sqrt(hh) + np.sqrt(ff) / rn   # ||h||_2 + ||f||_2
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.sqrt(vv) / (rn * norm)
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
    cone infimum, so tests use safety = 0.5).  InputError unless
    safety * kappa is finite and > 0 (the sampler's kappa_hat is inf when no
    sampled direction was valid), both lambdas are finite and >= 0, and k
    and s are integers >= 0."""
    kap = safety * kappa
    check_finite_positive("safety * kappa", kap)
    check_finite_positive("lam_b", lam_b, zero_ok=True)
    check_finite_positive("lam_e", lam_e, zero_ok=True)
    for name, size in (("k", k), ("s", s)):
        if not isinstance(size, numbers.Integral) or size < 0:
            raise InputError(f"{name} must be an integer >= 0, got {size!r}")
    return 3.0 / kap ** 2 * (lam_b * math.sqrt(k) + lam_e * math.sqrt(s))
