"""Oracles shared by the tests: reference implementations that the library
does not need at run time.

- reference_re_estimate is the cone sampler as it was before the in-place
  batch pass, kept verbatim: boolean-mask gathers and scatters, and
  directions normalized to ||h||_2 + ||f||_2 = 1 before the ratio.  It
  draws from the same stream in the same order, so the library's
  extended_re_estimate must reproduce its kappa_hat to rounding.
- brute_force_re_min is a dense orthant-by-orthant search (with SLSQP
  polish) for the cone minimum on tiny problems; the sampler can only
  over-estimate it.
- soft_threshold is the proximal map of the l1 norm, used by the tests'
  FISTA oracle.
- scaled_duals_all_columns is the solver's scaled duals as they were
  before their work was cut to what the supports need: the residual
  y - X beta - sqrt(n) e summed over every column of X, and X'r over every
  column in the dtype of beta.  The solver must reproduce its e block and
  on-support beta duals bit for bit, and its off-support beta duals to
  within the solver's bound on a float64 X'r.
- kkt_verdict_all_columns is kkt_check's verdict from those duals.
- design_one_shot and objective_full_x are gen_design and objective_value
  as they were before they stopped holding a second n x p array: the whole
  design drawn in one call in C order and copied to Fortran order, and the
  residual summed over every column of X converted to the dtype of beta
  at once.  gen_design must reproduce the first bit for bit under an
  identity covariance, and objective_value the second.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from extlasso.diagnostics import ReEstimate
from extlasso.model import InputError
from extlasso.rng import STREAM_DESIGN, stream


def soft_threshold(x, t):
    """Soft-thresholding; values exactly at the kink resolve to 0."""
    mag = np.abs(x) - t
    return np.where(mag > 0, np.sign(x) * mag, 0.0 * x)


def scaled_duals_all_columns(X, y, beta, e, lam_b, lam_e, rows=1024):
    """The scaled duals (X'r / (n lam_b), r / (sqrt(n) lam_e)) and the
    largest violations (on the supports, off them for beta, for e), with
    r = y - X beta - sqrt(n) e over all columns of X, in the dtype of beta;
    for an extended-precision beta X is converted `rows` rows at a time."""
    dt = beta.dtype
    n = X.shape[0]
    rn = np.sqrt(dt.type(n))
    rows = n if X.dtype == dt else rows
    r = np.empty(n, dtype=dt)
    g = np.zeros(X.shape[1], dtype=dt)
    for i in range(0, n, rows):
        Xc = X[i:i + rows].astype(dt, copy=False)
        r[i:i + rows] = y[i:i + rows] - Xc @ beta - rn * e[i:i + rows]
        g += Xc.T @ r[i:i + rows]
    duals = (g / (dt.type(n) * dt.type(lam_b)), r / (rn * dt.type(lam_e)))
    on_worst, off = 0.0, []
    for z, v in zip(duals, (beta, e)):
        on = v != 0
        on_worst = max(on_worst, float(np.max(np.abs(z[on] - np.sign(v[on])),
                                              initial=0.0)))
        off.append(float(np.max(np.abs(z[~on]), initial=0.0)))
    return duals, on_worst, off[0], off[1]


def kkt_verdict_all_columns(X, y, beta, e, lam_b, lam_e, tol,
                            tie_tol=1e-12):
    """(certified, strict feasible, largest off-support beta |z|) of
    kkt_check, from scaled_duals_all_columns in the dtype of beta."""
    (zb, ze), on_worst, off_b, off_e = scaled_duals_all_columns(
        X, y, beta, e, lam_b, lam_e)
    strict = max(off_b, off_e) < 1.0 - tie_tol
    signs = all(np.array_equal(np.sign(z[v != 0]), np.sign(v[v != 0]))
                for z, v in ((zb, beta), (ze, e)))
    return on_worst <= tol and strict and signs, strict, off_b


def design_one_shot(n, p, spec=None, seed=0):
    """Rows i.i.d. N(0, Sigma): one (n, p) standard-normal draw, times L'
    unless Sigma is the identity (or ar1 with rho = 0), in Fortran order."""
    Z = stream(seed, STREAM_DESIGN).standard_normal((n, p))
    if spec is None or spec.kind == "identity" \
            or (spec.kind == "ar1" and spec.rho == 0.0):
        return np.asfortranarray(Z)
    return np.asfortranarray(Z @ np.linalg.cholesky(spec.materialize(p)).T)


def objective_full_x(instance, beta, e, lam_b, lam_e):
    """(1/2n)||y - X beta - sqrt(n) e||^2 + lam_b ||beta||_1 + lam_e ||e||_1
    with all of X converted to the dtype of beta."""
    dt = beta.dtype
    n = instance.X.shape[0]
    r = instance.y.astype(dt) - instance.X.astype(dt) @ beta \
        - np.sqrt(dt.type(n)) * e
    return 0.5 / n * float(r @ r) + lam_b * float(np.abs(beta).sum()) \
        + lam_e * float(np.abs(e).sum())


def _cone_ratio(X, h, f):
    """||X h + sqrt(n) f||_2 / sqrt(n) for unit-normalized (h, f) batches."""
    n = X.shape[0]
    v = X @ h + math.sqrt(n) * f
    return np.linalg.norm(v, axis=0) / math.sqrt(n)


def reference_re_estimate(X, T, S, lambda_ratio: float, num_samples: int,
                          seed=0, restrict: str | None = None) -> ReEstimate:
    """Monte-Carlo lower-curvature estimate over the restricted cone.

    restrict="f_zero" confines sampling to f = 0 (cone on h alone);
    "h_zero" confines it to h = 0.  The returned kappa_hat is the minimum
    sampled ratio, an optimistic (upper) estimate of the true cone infimum.
    """
    if lambda_ratio <= 0:
        raise InputError("lambda_ratio must be > 0")
    if num_samples < 1:
        raise InputError("num_samples must be >= 1")
    if restrict not in (None, "f_zero", "h_zero"):
        raise InputError(f"unknown restriction {restrict!r}")
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    T = np.asarray(T, dtype=np.intp)
    S = np.asarray(S, dtype=np.intp)
    lam = float(lambda_ratio)
    rng = stream(seed, 101)

    best = math.inf
    # fixed batch size, truncating the last batch: the sample set for a
    # larger num_samples is then a superset of any smaller one (nested-set
    # monotonicity of the minimum)
    batch = 1000
    done = 0
    while done < num_samples:
        m = min(batch, num_samples - done)
        h = rng.standard_normal((p, batch))[:, :m]
        f = rng.standard_normal((n, batch))[:, :m]
        if restrict == "f_zero":
            f[:] = 0.0
        if restrict == "h_zero":
            h[:] = 0.0
        on_mask_h = np.zeros(p, dtype=bool)
        on_mask_h[T] = True
        on_mask_s = np.zeros(n, dtype=bool)
        on_mask_s[S] = True

        on_l1 = (np.abs(h[on_mask_h]).sum(axis=0)
                 + lam * np.abs(f[on_mask_s]).sum(axis=0))
        off_l1 = (np.abs(h[~on_mask_h]).sum(axis=0)
                  + lam * np.abs(f[~on_mask_s]).sum(axis=0))
        slack = rng.uniform(0.0, 1.0, size=batch)[:m]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(off_l1 > 0, slack * 3.0 * on_l1 / off_l1, 0.0)
        h[~on_mask_h] *= scale
        f[~on_mask_s] *= scale

        norm = np.linalg.norm(h, axis=0) + np.linalg.norm(f, axis=0)
        ok = norm > 0
        if not np.any(ok):
            done += m
            continue
        h = h[:, ok] / norm[ok]
        f = f[:, ok] / norm[ok]
        ratios = _cone_ratio(X, h, f)
        best = min(best, float(np.min(ratios)))
        done += m

    spec = {"lambda_ratio": lam, "restrict": restrict or "none",
            "seed": seed if isinstance(seed, int) else list(seed)}
    return ReEstimate(kappa_hat=best, num_samples=num_samples,
                      sampling_spec=spec)


def brute_force_re_min(X, T, S, lambda_ratio: float, seed=0,
                       grid_per_orthant: int = 48,
                       polish_top: int = 40) -> float:
    """Dense orthant-wise grid search plus SLSQP polish for the cone minimum.

    Only sensible on tiny problems (p + n around a dozen): every closed sign
    orthant of (h, f) is searched, so zero patterns are covered as orthant
    boundaries.  Serves as the independent oracle for the sampler.
    """
    from scipy.optimize import minimize  # slow to import; only used here

    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    d = p + n
    if d > 16:
        raise InputError("brute-force search is limited to p + n <= 16")
    T = np.asarray(T, dtype=np.intp)
    S = np.asarray(S, dtype=np.intp)
    lam = float(lambda_ratio)

    on_mask = np.zeros(d, dtype=bool)
    on_mask[T] = True
    on_mask[p + S] = True
    # cone written as c_off . m_off <= 3 c_on . m_on over magnitudes m
    weights = np.concatenate([np.ones(p), lam * np.ones(n)])
    rng = stream(seed, 202)

    def ratio_of(v):
        h, f = v[:p], v[p:]
        denom = np.linalg.norm(h) + np.linalg.norm(f)
        if denom == 0:
            return math.inf
        return float(np.linalg.norm(X @ h + math.sqrt(n) * f)
                     / (math.sqrt(n) * denom))

    candidates = []
    for signs_tail in itertools.product((-1.0, 1.0), repeat=d - 1):
        sigma = np.array((1.0,) + signs_tail)  # global flip symmetry
        mags = rng.uniform(0.0, 1.0, size=(grid_per_orthant, d))
        slack = rng.uniform(0.0, 1.0, size=grid_per_orthant)
        slack[0] = 1.0  # include the cone boundary deterministically
        on_l1 = mags[:, on_mask] @ weights[on_mask]
        off_l1 = mags[:, ~on_mask] @ weights[~on_mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            sc = np.where(off_l1 > 0, slack * 3.0 * on_l1 / off_l1, 0.0)
        mags[:, ~on_mask] *= sc[:, None]
        pts = mags * sigma
        hn = np.linalg.norm(pts[:, :p], axis=1) + np.linalg.norm(pts[:, p:], axis=1)
        keep = hn > 0
        pts = pts[keep] / hn[keep, None]
        rt = _cone_ratio(X, pts[:, :p].T, pts[:, p:].T)
        i = int(np.argmin(rt))
        candidates.append((float(rt[i]), pts[i] * 1.0, sigma))

    candidates.sort(key=lambda c: c[0])
    best = candidates[0][0]

    for rt0, pt, sigma in candidates[:polish_top]:
        m0 = np.abs(pt)

        def objective(m, sigma=sigma):
            return ratio_of(sigma * m)

        cons = [
            {"type": "ineq",
             "fun": lambda m: 3.0 * (weights[on_mask] @ m[on_mask])
                              - (weights[~on_mask] @ m[~on_mask])},
            {"type": "ineq",
             "fun": lambda m: np.linalg.norm(m[:p]) + np.linalg.norm(m[p:]) - 0.5},
        ]
        res = minimize(objective, m0, method="SLSQP",
                       bounds=[(0.0, None)] * d, constraints=cons,
                       options={"maxiter": 200, "ftol": 1e-12})
        if res.success or res.fun < best:
            m = np.maximum(res.x, 0.0)
            on_l1 = weights[on_mask] @ m[on_mask]
            off_l1 = weights[~on_mask] @ m[~on_mask]
            if off_l1 <= 3.0 * on_l1 + 1e-9 and (m[:p].any() or m[p:].any()):
                best = min(best, ratio_of(sigma * m))
    return best
