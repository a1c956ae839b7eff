"""Solvers for the joint sparse-regression / sparse-corruption program

    min_{beta, e}  (1/2n) ||y - X beta - sqrt(n) e||^2
                   + lambda_beta ||beta||_1 + lambda_e ||e||_1

and for its restriction to fixed supports (closed form).

The joint solver settles each lambda level with active-set steps on signed
supports (below) and falls back to coordinate descent, which is also the
kernel of solve_standard_lasso: one sweep of cyclic coordinate descent on
beta alternates with an exact e-update (the e-subproblem is separable
soft-thresholding).  Each beta sweep visits only a working set W: the
support of beta plus every zero coordinate whose scaled dual
|X_j'r|/(n lambda_beta) is at least 1, since any other zero coordinate
would be left at zero by its own update.
W is formed when a level starts and refreshed from the scaled duals of the
in-loop KKT check, which still covers all p coordinates, so when a level
stops and what it certifies do not depend on W.

Every solve starts from zero and drives regularization down a geometric
lambda path (largest lambda first, warm starts): a cold start at very small
lambda_e lets the corruption block absorb the entire residual and stalls
the alternation, while warm-started supports contract at a linear rate.
The point on the signed supports (T, S) comes from the restricted closed
form (continuation, then a subspace solve, as in FPC_AS, Wen, Yin, Goldfarb
& Zhang 2010), and the supports from primal-dual active-set steps
(Hintermueller, Ito & Kunisch 2002; _active_set_step): a visited level is
one call of _bcd, which starts with one from the current point and runs
coordinate descent only when it fails.  Its point must keep the signs it
was solved for; on the path levels, which run to a loose 1e-6, it must also
not raise the objective and meet the level's tolerance, and at the target
it must certify, with room for its float64 rounding.  Only a miss within
that rounding is solved again, in extended precision (float80 on x86): one
ulp of a unit-scale coordinate moves the scaled dual by ~2e-16/lambda.  If
the target level ends without a certified step, converged=False is
returned.

The grid is walked with a doubling stride, as continuation grows its step
while the subproblems stay easy (FPC, Hale, Yin & Zhang 2008).  A level
whose entry step is accepted (0 sweeps) doubles the stride, and so does an
accepted skip: one active-set step under the path-level rule at the grid
level stride ahead, with its own failed starts and no coordinate descent.
A refused skip resets the stride to 1 and runs the next level through _bcd.
No skip lands on the target, which is always one _bcd call from the last
visited level.

The restricted system is the k x k Gram matrix G = X'_{ScT} X_{ScT} of the
normal equations, so its gate is cond(G) <= _MAX_COND (1e12, from the
eigenvalues of G), i.e. cond(X_{ScT}) <= 1e6.

A sweep costs only what its supports need: the beta sweep touches the
columns of the working set, the e-step evaluates its kink guard only on
rows near the threshold, and residuals formed from scratch at a restricted
point use the support columns of beta only.  The full X'r, O(np), is
formed only where a KKT residual needs it: at the in-loop checks, every
_KKT_REFRESH sweeps, and at a restricted point.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import (_ROWS, InputError, NumericError, ProblemInstance,
                    SingularMatrixError, Solution, _residual, _row_blocks,
                    check_finite_positive, index_array, objective_value,
                    residual_objective)

_MAX_COND = 1e12
_PATH_TOL = 1e-6  # stationarity every path level runs to (or tol_kkt if looser)
_LEVEL_SWEEPS = 1000  # sweep cap of an intermediate path level
_RESIDUAL_REFRESH = 64  # sweeps between from-scratch residual recomputations
_KKT_REFRESH = 4  # sweeps between in-loop KKT residual checks
_STALL_LIMIT = 50
_TOL_OBJ = 1e-12  # a sweep that lowers the objective by less stalls
_STALL_KKT_IMPROVEMENT = 0.999  # progress means beating the best residual by 0.1%
_KINK_GUARD_ULPS = 16.0  # e-updates this close to the threshold count as ties
_ROUNDING_ULPS = 4.0  # rounding of each term summed into r, in ulps
_STEP_SOLVES = 8  # restricted solves one active-set step may make
_PATH_STEPS_PER_DECADE = 3


@dataclass(frozen=True)
class SolverConfig:
    """Termination settings.

    max_iters caps the sweeps of a whole solve.  tol_kkt is the target
    stationarity residual (scaled dual units): max over coordinates of
    |z_i - sgn x_i| on the support and of max(|z_i| - 1, 0) off it.
    """

    max_iters: int = 50_000
    tol_kkt: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) \
                or self.max_iters < 1:
            raise InputError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        check_finite_positive("tol_kkt", self.tol_kkt)


def _scaled_duals(X, y, beta, e, lam_b, lam_e, r=None):
    """The scaled duals (X'r / (n lam_b), r / (sqrt(n) lam_e)) at (beta, e),
    in the dtype of beta, and the largest violations of the optimality
    system: |z_i - sgn x_i| on the supports, and |z_i| off them for the beta
    block and for the e block.

    Without r, the residual is formed here from the support columns of
    beta; for an extended-precision beta X'r then converts X _ROWS rows at a
    time, so no such copy of X is made."""
    dt = beta.dtype
    n = X.shape[0]
    rn = np.sqrt(dt.type(n))
    if r is None:
        r = _residual(X, y, beta, e, np.flatnonzero(beta))
    if X.dtype == dt:
        g = X.T @ r
    else:
        g = np.zeros(X.shape[1], dtype=dt)
        for rows, Xb in _row_blocks(X, slice(None), dt):
            g += Xb.T @ r[rows]
    duals = (g / (dt.type(n) * dt.type(lam_b)), r / (rn * dt.type(lam_e)))
    on_worst, off = 0.0, []
    for z, v in zip(duals, (beta, e)):
        on = v != 0
        on_worst = max(on_worst, float(np.max(np.abs(z[on] - np.sign(v[on])),
                                              initial=0.0)))
        off.append(float(np.max(np.abs(z[~on]), initial=0.0)))
    return duals, on_worst, off[0], off[1]


def _joint_kkt_residual(X, y, beta, e, lam_b, lam_e, r=None):
    """Max stationarity violation of the joint program at (beta, e)."""
    _, on, off_b, off_e = _scaled_duals(X, y, beta, e, lam_b, lam_e, r)
    return max(on, off_b - 1.0, off_e - 1.0, 0.0)


def _abs_X_beta(X, beta):
    """|X| |beta|, summed over the support columns of beta only."""
    T = np.flatnonzero(beta)
    return np.abs(X[:, T]) @ np.abs(beta[T])


def _float64_rounding_error(X, abs_y, col_sq, beta, e, lam_b, lam_e):
    """Bound on the float64 rounding error of the scaled duals at (beta, e):
    _ROUNDING_ULPS ulps of every term summed into r, carried into X'r by
    Cauchy-Schwarz."""
    n = X.shape[0]
    err_r = _ROUNDING_ULPS * float(np.finfo(np.float64).eps) * (
        abs_y + _abs_X_beta(X, beta) + math.sqrt(n) * np.abs(e))
    col = math.sqrt(float(np.max(col_sq, initial=0.0)))
    return max(col * float(np.linalg.norm(err_r)) / (n * lam_b),
               float(np.max(err_r)) / (math.sqrt(n) * lam_e))


def _e_step(X, r, beta, e, lam_e, abs_y, y_max, col_norm):
    """The exact e-update at the residual r of (beta, e): u = (y - X beta) /
    sqrt(n) soft-thresholded at lam_e, with ties resolved to zero.

    The residual is a difference of large quantities, so the kink is widened
    by a guard, _KINK_GUARD_ULPS ulps of |y| + |X| |beta| + sqrt(n) |e| per
    row (over sqrt(n)); otherwise 1-ulp noise would activate rows that sit
    exactly at the threshold (e.g. designs collinear with the corruption
    block).  The guard is evaluated only on the rows that clear the
    threshold by at most twice the bound y_max + sum_j ||X_j|| |beta_j| +
    sqrt(n) max |e| on every row's sum (y_max = max |y|, col_norm the column
    norms of X); every other row is decided by the sign of its margin."""
    rn = math.sqrt(X.shape[0])
    guard_scale = _KINK_GUARD_ULPS * float(np.finfo(np.float64).eps) / rn
    u = (r + rn * e) / rn
    mag = np.abs(u) - lam_e
    g_max = 2.0 * guard_scale * (y_max + float(col_norm @ np.abs(beta))
                                 + rn * float(np.max(np.abs(e), initial=0.0)))
    keep = mag > g_max
    band = np.flatnonzero((mag > 0) != keep)
    if band.size:
        guard = guard_scale * (abs_y[band] + _abs_X_beta(X, beta)[band]
                               + rn * np.abs(e[band]))
        keep[band] = mag[band] > guard
    return np.where(keep, np.copysign(mag, u), 0.0)


def _working_set(beta, z_b):
    """Coordinates a beta sweep visits: the support of beta and every zero
    coordinate whose scaled dual z_b reaches 1 in magnitude.  Any other zero
    coordinate would be left at zero by its own update."""
    return np.flatnonzero((beta != 0) | (np.abs(z_b) >= 1.0)).tolist()


def _sign_key(beta, e):
    """The signs of (beta, e) as one hashable pattern."""
    return np.sign(np.concatenate((beta, e))).astype(np.int8).tobytes()


def _bcd(instance, lam_b, lam_e, beta, e, tol, max_sweeps, col_sq, abs_y,
         exact):
    """One lambda level: an active-set step from (beta, e), then, only if it
    fails, an alternating beta-sweep / e-step loop in float64.

    Each beta sweep runs cyclic coordinate descent over the working set
    only (_working_set), formed from one X'r when the loop starts and
    refreshed from the duals of the KKT check; beta stays zero off it.
    col_sq (squared column norms of X) and abs_y (|y|) are fixed per solve.

    The loop stops when the KKT residual over all p coordinates, checked every
    _KKT_REFRESH sweeps and on the last, is at most tol, when progress
    stalls (_STALL_LIMIT sweeps in a row that neither lower the residual
    nor the objective by a relative _TOL_OBJ), or after max_sweeps.  It
    also stops at an active-set step: when a sweep ends with the same signs
    of (beta, e) as the sweep before (an O(n + p) comparison), or with exact
    at a check at or below tol, _active_set_step starts from those signed
    supports, under the path-level rule or, with exact, the certification
    rule, and the loop ends at its point if it is accepted.  The starts
    whose step failed in this call are not tried again.
    Returns (beta, e, kkt, sweeps): kkt is the accepted step's KKT residual,
    or None when no step was accepted; sweeps counts beta sweeps, not
    restricted solves, and is 0 when the entry step is accepted.
    """
    failed = set()
    step = _active_set_step(instance, beta, e, lam_b, lam_e, tol, col_sq,
                            abs_y, exact, failed)
    if step is not None:
        return (*step, 0)
    X, y = instance.X, instance.y
    n = X.shape[0]
    rn = math.sqrt(n)
    nlam_b = n * lam_b
    r = y - X @ beta - rn * e
    col_norm = np.sqrt(col_sq)
    y_max = float(np.max(abs_y, initial=0.0))
    cs, bl = col_sq.tolist(), beta.tolist()  # Python floats for the sweeps
    delta = np.empty(n)  # the residual change of one coordinate update

    def working(W):
        # (index, column view, squared norm) of each nonzero column of W
        return [(j, X[:, j], cs[j]) for j in W if cs[j] != 0.0]

    work = working(_working_set(beta, X.T @ r / nlam_b))
    prev_obj = residual_objective(r, beta, e, lam_b, lam_e)
    best_kkt = math.inf
    stall = 0
    signs = None
    for sweeps in range(1, max_sweeps + 1):
        # beta first: on designs collinear with the corruption block the
        # shared mass then settles on the regression side, matching the
        # tie-to-zero convention for e.
        for j, xj, cj in work:
            bj = bl[j]
            rho = float(xj.dot(r)) + cj * bj
            mag = abs(rho) - nlam_b
            bj_new = math.copysign(mag, rho) / cj if mag > 0 else 0.0
            if bj_new != bj:
                r += np.multiply(xj, bj - bj_new, out=delta)
                beta[j] = bl[j] = bj_new

        # exact e-update: minimizer over e alone is soft((y - X beta)/rn, lam_e)
        e_new = _e_step(X, r, beta, e, lam_e, abs_y, y_max, col_norm)
        r += rn * (e - e_new)
        e = e_new

        if sweeps % _RESIDUAL_REFRESH == 0:
            r = y - X @ beta - rn * e

        obj = residual_objective(r, beta, e, lam_b, lam_e)
        if not math.isfinite(obj):
            raise NumericError("non-finite objective during solve")
        if obj > prev_obj + 1e-12 * max(1.0, abs(prev_obj)):
            raise NumericError(
                f"objective increased by {obj - prev_obj:.3e} in sweep {sweeps}"
            )

        prev, signs = signs, _sign_key(beta, e)
        check = sweeps % _KKT_REFRESH == 0 or sweeps == max_sweeps
        if check:
            (z_b, _), on, off_b, off_e = _scaled_duals(X, y, beta, e, lam_b,
                                                       lam_e, r=r)
            kkt = max(on, off_b - 1.0, off_e - 1.0, 0.0)
        done = check and kkt <= tol
        if signs == prev or exact and done:
            step = _active_set_step(instance, beta, e, lam_b, lam_e, tol,
                                    col_sq, abs_y, exact, failed)
            if step is not None:
                return (*step, sweeps)
        if done:
            break
        improved = False
        if check:
            work = working(_working_set(beta, z_b))
            if kkt < _STALL_KKT_IMPROVEMENT * best_kkt:
                best_kkt = kkt
                stall = 0
                improved = True
        if not improved and prev_obj - obj <= _TOL_OBJ * max(1.0, abs(obj)):
            stall += 1
            if stall >= _STALL_LIMIT:
                break
        prev_obj = obj
    return beta, e, None, sweeps


def _lambda_levels(lmax_b, lmax_e, lam_b, lam_e):
    """Geometric schedule from (lmax) down to the target lambdas, ending at
    the target pair."""
    span_b = max(lmax_b / lam_b, 1.0)
    span_e = max(lmax_e / lam_e, 1.0)
    decades = max(math.log10(span_b), math.log10(span_e))
    steps = max(int(math.ceil(decades * _PATH_STEPS_PER_DECADE)), 1)
    return [(lam_b * span_b ** (1.0 - t / steps), lam_e * span_e ** (1.0 - t / steps))
            for t in range(1, steps + 1)]


def _active_set_step(instance, beta, e, lam_b, lam_e, tol, col_sq, abs_y,
                     exact, failed):
    """Primal-dual active-set steps on signed supports at (lam_b, lam_e),
    from the signs of (beta, e).  Returns the accepted point and its full
    KKT residual as (b, e, kkt), or None.

    Each iteration solves the restricted system on the current signed
    supports in float64, drops every on-support coordinate whose sign
    flips, and adds every off-support coordinate (of beta or of e) whose
    scaled dual exceeds 1 + tol, with the dual's sign.  When nothing
    changes, the point is judged.  On a path level (not exact) it is
    accepted if its KKT residual is at most tol and its objective at most
    the start's.  At the target (exact) it must certify, and kkt_check
    re-evaluates a float64 point in extended precision, so the residual is
    judged with its float64 rounding bound err: accepted if kkt + err <= tol,
    refused if kkt - err > tol.  Only a miss that rounding can explain is
    solved once more, in extended precision, and judged on signs and
    kkt <= tol; a certified point needs no objective test.

    The step fails on a singular system, on a signed support that repeats
    within it, after _STEP_SOLVES solves, or when the point is refused.  The
    signs of a failed start are added to failed, and a start found there
    fails at once: the restricted points depend only on the signed supports
    and the lambdas.
    """
    start = _sign_key(beta, e)
    if start in failed:
        return None
    X, y = instance.X, instance.y
    sb, se = np.sign(beta), np.sign(e)
    b, ee = beta, e
    seen = set()
    for _ in range(_STEP_SOLVES):
        key = _sign_key(sb, se)
        if key in seen:
            break
        seen.add(key)
        T, S = np.flatnonzero(sb), np.flatnonzero(se)
        try:
            _, _, b, ee, r = _restricted_point(X, y, T, S, sb[T], se[S], b[T],
                                               ee[S], lam_b, lam_e, np.float64)
        except SingularMatrixError:
            break
        (z_b, z_e), on, off_b, off_e = _scaled_duals(X, y, b, ee, lam_b,
                                                     lam_e, r)
        new_sb, new_se = (_next_signs(s, v, z, tol)
                          for s, v, z in ((sb, b, z_b), (se, ee, z_e)))
        if not (np.array_equal(new_sb, sb) and np.array_equal(new_se, se)):
            sb, se = new_sb, new_se
            continue
        kkt = max(on, off_b - 1.0, off_e - 1.0, 0.0)
        if not exact:
            start_obj = residual_objective(
                _residual(X, y, beta, e, np.flatnonzero(beta)), beta, e,
                lam_b, lam_e)
            if kkt <= tol and \
                    residual_objective(r, b, ee, lam_b, lam_e) <= start_obj:
                return b, ee, kkt
            break
        err = _float64_rounding_error(X, abs_y, col_sq, b, ee, lam_b, lam_e)
        if kkt + err <= tol:
            return b, ee, kkt
        if kkt - err > tol:
            break
        try:
            *_, b, ee, r = _restricted_point(X, y, T, S, sb[T], se[S], b[T],
                                             ee[S], lam_b, lam_e,
                                             np.longdouble)
        except SingularMatrixError:
            break
        if _sign_key(b, ee) == key:
            kkt = _joint_kkt_residual(X, y, b, ee, lam_b, lam_e, r)
            if kkt <= tol:
                return b, ee, kkt
        break
    failed.add(start)
    return None


def _next_signs(signs, x, z, tol):
    """The signs of the next active-set iteration: an on-support coordinate
    of the restricted point x whose sign differs from signs leaves, and an
    off-support one whose scaled dual z exceeds 1 + tol in magnitude enters
    with sgn z."""
    out = np.where(np.sign(x) == signs, signs, 0.0)
    enter = (signs == 0) & (np.abs(z) > 1.0 + tol)
    out[enter] = np.sign(z[enter])
    return out


def solve_extended_lasso(instance: ProblemInstance, lam_b: float, lam_e: float,
                         config: SolverConfig | None = None) -> Solution:
    """Solve the joint program from zero down the lambda path; returns a
    Solution (converged flag, no raise on non-convergence).  InputError
    unless lam_b and lam_e are finite and > 0.

    The path's levels (_lambda_levels) are walked with a doubling stride:
    each level or skip settled by its first active-set step doubles it, the
    next visit is then a skip (one path-level active-set step, stride levels
    on, short of the target), and a refused skip resets the stride to 1 and
    runs the next level.  The target is always a _bcd call."""
    cfg = config or SolverConfig()
    check_finite_positive("lam_b", lam_b)
    check_finite_positive("lam_e", lam_e)

    X = instance.X
    y = instance.y
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    abs_y = np.abs(y)
    beta = np.zeros(p)
    e = np.zeros(n)

    lmax_b = float(np.max(np.abs(X.T @ y))) / n
    lmax_e = float(np.max(abs_y)) / math.sqrt(n)
    levels = _lambda_levels(lmax_b, lmax_e, lam_b, lam_e)

    # i is the last visited level (-1 at the zero start).  A skip to level
    # i + 1 would repeat that level's entry step, so the level runs instead.
    # The path levels run to path_tol, and the target, the last level, runs
    # to tol_kkt and converges only at a certified step.
    path_tol = max(cfg.tol_kkt, _PATH_TOL)
    last = len(levels) - 1
    i, stride, total = -1, 1, 0
    converged = False
    while i < last:
        j = min(i + stride, last - 1)
        if j > i + 1:
            step = _active_set_step(instance, beta, e, *levels[j], path_tol,
                                    col_sq, abs_y, False, set())
            if step is not None:
                beta, e, _ = step
                i, stride = j, 2 * stride
                continue
            stride = 1
        i += 1
        exact = i == last
        tol = cfg.tol_kkt if exact else path_tol
        budget = cfg.max_iters - total
        max_sweeps = budget if exact else min(budget, _LEVEL_SWEEPS)
        if max_sweeps < 1:
            break
        beta, e, kkt, it = _bcd(instance, *levels[i], beta, e, tol,
                                max_sweeps, col_sq, abs_y, exact)
        total += it
        converged = exact and kkt is not None
        stride = 2 * stride if it == 0 else 1
    if not converged:
        kkt = _joint_kkt_residual(X, y, beta, e, lam_b, lam_e)
    obj = objective_value(instance, beta, e, lam_b, lam_e)
    return Solution(beta_hat=beta, e_hat=e, lambda_beta=lam_b, lambda_e=lam_e,
                    objective=obj, iterations=total, converged=converged,
                    kkt_residual=float(kkt))


def solve_standard_lasso(X, y, lam: float) -> np.ndarray:
    """The standard Lasso (1/2n)||y - X beta||^2 + lam ||beta||_1 from zero,
    to the default SolverConfig's tolerance and sweep cap, as one level of
    the joint solver: an active-set step from zero, then cyclic coordinate
    descent only if it fails.  InputError unless lam is finite and > 0.

    The level runs with lambda_e so large that e stays zero: no accepted
    point's objective exceeds the start's, which bounds ||beta||_1 and so
    every residual entry below sqrt(n) lambda_e / 2.
    """
    cfg = SolverConfig()
    check_finite_positive("lam", lam)
    X = np.asfortranarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    l1_bound = (y @ y / (2 * n)) / lam
    abs_y = np.abs(y)
    lam_e = 2 * (1 + np.max(abs_y) + np.max(np.abs(X)) * l1_bound) / math.sqrt(n)
    return _bcd(ProblemInstance(X=X, y=y), lam, float(lam_e), np.zeros(p),
                np.zeros(n), cfg.tol_kkt, cfg.max_iters,
                np.einsum("ij,ij->j", X, X), abs_y, False)[0]


def _solve_linear(G, rhs):
    """Solve G x = rhs in the dtype of the inputs.

    LAPACK has no extended-precision path; for longdouble inputs the float64
    solution is polished by iterative refinement with residuals accumulated
    in longdouble.
    """
    if G.dtype == np.float64:
        return np.linalg.solve(G, rhs)
    G64 = G.astype(np.float64)
    x = np.linalg.solve(G64, rhs.astype(np.float64)).astype(G.dtype)
    for _ in range(3):
        resid = rhs - G @ x
        x = x + np.linalg.solve(G64, resid.astype(np.float64)).astype(G.dtype)
    return x


def restricted_solution(instance: ProblemInstance, T, S, lam_b: float,
                        lam_e: float, *, anchor_beta=None, anchor_e=None,
                        dtype=np.float64):
    """Candidate stationary point restricted to signed supports (T, S).

    The anchor (beta~, e~) gives the signs sign_beta = sgn beta~_T and
    sign_e = sgn e~_S, and the point the correction is measured from; only
    its entries on T and S are read.  With w = y - X_T beta~_T - sqrt(n) e~_S
    (e~_S placed on the rows S), this solves the stationarity system with
    beta fixed to zero off T, e fixed to zero off S, and the on-support dual
    entries set to those signs:

        h_T = (X'_{ScT} X_{ScT})^{-1} [ X'_{ScT} w_{Sc}
              + sqrt(n) lam_e X'_{ST} sign_e - n lam_b sign_beta ]
        g_S = -(X_{ST} h_T)/sqrt(n) + w_S/sqrt(n) - lam_e sign_e

    and returns (h_T, g_S, beta_hat, e_hat) with beta_hat = beta~ + h on T
    (zero off T) and e_hat = e~ + g on S (zero off S), in the order of T
    and S.  The anchor defaults to the instance truth.

    The system solved is the k x k Gram matrix G = X'_{ScT} X_{ScT}, so G is
    what is gated: SingularMatrixError when |T| > n - |S| or when cond(G)
    (from its eigenvalues) exceeds _MAX_COND = 1e12, i.e. when
    cond(X_{ScT}) exceeds 1e6.  InputError unless lam_b and lam_e are
    finite and >= 0.
    """
    check_finite_positive("lam_b", lam_b, zero_ok=True)
    check_finite_positive("lam_e", lam_e, zero_ok=True)
    n, p = instance.X.shape
    T = index_array("T", T, p)
    S = index_array("S", S, n)
    if anchor_beta is None or anchor_e is None:
        if instance.truth is None:
            raise InputError("anchors are required when the instance has no truth")
        anchor_beta = instance.truth.beta_star
        anchor_e = instance.truth.e_star
    anchor_T = np.asarray(anchor_beta, dtype=dtype)[T]
    anchor_S = np.asarray(anchor_e, dtype=dtype)[S]
    X, y = instance.X, instance.y.astype(dtype, copy=False)
    h_T, beta_hat, w_S = _restricted_system(
        X, y, T, S, np.sign(anchor_T), np.sign(anchor_S), anchor_T, anchor_S,
        lam_b, lam_e, dtype)
    Xh = np.empty(n, dtype=dtype)
    for rows, XbT in _row_blocks(X, T, dtype):
        Xh[rows] = XbT @ h_T
    g_S, e_hat = _restricted_e(n, S, np.sign(anchor_S), anchor_S, w_S, Xh[S],
                               lam_e)
    return h_T, g_S, beta_hat, e_hat


def _restricted_system(X, y, T, S, sign_beta, sign_e, anchor_T, anchor_S,
                       lam_b, lam_e, dtype):
    """restricted_solution's system with explicit signs on T and S (an
    entering coordinate has anchor 0 and the sign of its dual) and the
    anchor's entries on T and S, all in the order of T and S, solved in
    dtype (y already in dtype).  Returns (h_T, beta_hat, w_S), w_S =
    y_S - X_{S,T} anchor_T - sqrt(n) anchor_S.

    X[:, T] is read _ROWS rows at a time (_row_blocks), converted to dtype,
    in one pass that sums G and the right-hand side over the blocks, so
    the memory is O(n + |T|^2 + _ROWS |T|), not O(n |T|)."""
    n, p = X.shape
    k, s = len(T), len(S)
    if k > n - s:
        raise SingularMatrixError(
            f"restricted system needs |T| <= n - |S| ({k} > {n - s})")
    rn = np.sqrt(dtype(n))
    on_S = np.zeros(n, dtype=bool)
    on_S[S] = True
    sign_rows = np.zeros(n, dtype=dtype)
    sign_rows[S] = sign_e
    Xa = np.empty(n, dtype=dtype)
    G = np.zeros((k, k), dtype=dtype)
    rhs_Sc, rhs_S = np.zeros(k, dtype=dtype), np.zeros(k, dtype=dtype)
    for rows, XbT in _row_blocks(X, T, dtype):
        Xa[rows] = XbT @ anchor_T
        sc = ~on_S[rows]
        XbScT = XbT[sc]
        G += XbScT.T @ XbScT
        rhs_Sc += XbScT.T @ (y[rows][sc] - Xa[rows][sc])
        rhs_S += XbT[~sc].T @ sign_rows[rows][~sc]

    if k > 0:
        ev = np.linalg.eigvalsh(G.astype(np.float64, copy=False))
        cond = float(ev[-1] / ev[0]) if ev[0] > 0 else math.inf
        if not cond <= _MAX_COND:
            raise SingularMatrixError(
                "Gram matrix of X restricted to (Sc, T) is ill-conditioned: "
                f"condition number {cond:.3e}")
        h_T = _solve_linear(G, rhs_Sc + rn * lam_e * rhs_S
                            - n * lam_b * sign_beta)
    else:
        h_T = np.zeros(0, dtype=dtype)

    beta_hat = np.zeros(p, dtype=dtype)
    beta_hat[T] = anchor_T + h_T
    return h_T, beta_hat, y[S] - Xa[S] - rn * anchor_S


def _restricted_e(n, S, sign_e, anchor_S, w_S, Xh_S, lam_e):
    """(g_S, e_hat) of the restricted system from w_S and X_{S,T} h_T."""
    rn = np.sqrt(w_S.dtype.type(n))
    g_S = -Xh_S / rn + w_S / rn - lam_e * sign_e
    e_hat = np.zeros(n, dtype=w_S.dtype)
    e_hat[S] = anchor_S + g_S
    return g_S, e_hat


def _restricted_point(X, y, T, S, sign_beta, sign_e, anchor_T, anchor_S,
                      lam_b, lam_e, dtype):
    """The restricted point (_restricted_system) with its residual:
    returns (h_T, g_S, beta_hat, e_hat, r), r = y - X beta_hat -
    sqrt(n) e_hat.  One more pass over the blocks of X[:, T] forms X_T h_T
    and X_T beta_hat_T."""
    n = X.shape[0]
    y = y.astype(dtype, copy=False)
    h_T, beta_hat, w_S = _restricted_system(X, y, T, S, sign_beta, sign_e,
                                            anchor_T, anchor_S, lam_b, lam_e,
                                            dtype)
    Xh, Xb = np.empty(n, dtype=dtype), np.empty(n, dtype=dtype)
    for rows, XbT in _row_blocks(X, T, dtype):
        Xh[rows] = XbT @ h_T
        Xb[rows] = XbT @ beta_hat[T]
    g_S, e_hat = _restricted_e(n, S, sign_e, anchor_S, w_S, Xh[S], lam_e)
    return h_T, g_S, beta_hat, e_hat, y - Xb - np.sqrt(dtype(n)) * e_hat
