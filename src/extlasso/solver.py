"""Solvers for the joint sparse-regression / sparse-corruption program

    min_{beta, e}  (1/2n) ||y - X beta - sqrt(n) e||^2
                   + lambda_beta ||beta||_1 + lambda_e ||e||_1

and for its restriction to fixed supports (closed form).

Every solve starts from zero and drives regularization down a geometric
lambda path (largest lambda first, warm starts): a cold start at very small
lambda_e lets the corruption block absorb the entire residual.  The point on
signed supports (T, S) is the restricted closed form (continuation, then a
subspace solve, as in FPC_AS, Wen, Yin, Goldfarb & Zhang 2010).  A visited
level is one call of _level, the one active-set kernel, in two phases:

- the batch step (_active_set_step): primal-dual active-set iterations
  (Hintermueller, Ito & Kunisch 2002) that drop every coordinate whose sign
  flips and add every violating one at once.  Where e rows enter, beta's
  entries are read at the residual those rows will have, clipped to
  +-sqrt(n) lambda_e: in beta the program is a Huber-loss Lasso (She & Owen
  2011), so a gross residual that e absorbs adds no beta coordinate;
- only if it fails, monotone feature-sign steps from the level's start
  (_feature_sign_step; Lee, Battle, Raina & Ng 2007, "Efficient sparse coding
  algorithms"; cf. Osborne, Presnell & Turlach 2000): one coordinate enters
  at a time, and an exact line search keeps the objective from rising.
  Where the restricted system is refused, a step in its null space, which
  leaves the residual unchanged, is the way out of supports with
  |T| > n - |S| that no move of beta alone can leave.

Both phases end at one judge (_judge): the path levels run to a loose 1e-6,
and the target must certify, in extended precision (float80 on x86) where
float64 rounding can explain a miss.  A target level that ends without a
certified point returns converged=False with a model.STOP_REASONS entry.

The grid is walked with a doubling stride, as continuation grows its step
while the subproblems stay easy (FPC, Hale, Yin & Zhang 2008).  A level
that its batch step settles (0 feature-sign steps) doubles the stride, and
so does an accepted skip: one batch step under the path-level rule at the
grid level stride ahead.  A refused skip resets the stride to 1 and runs
the next level.  No skip lands on the target, which is always one _level
call from the last visited level.

One routine, _restricted_point, forms, gates and solves the restricted system
for the steps, the judge's longdouble re-solve and restricted_solution: the
k x k Gram matrix G = X'_{ScT} X_{ScT} of the normal equations, gated by
cond(G) <= _MAX_COND (1e12, from its eigenvalues), i.e. cond(X_{ScT}) <= 1e6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_ROWS, InputError, ProblemInstance, SingularMatrixError,
                    Solution, _residual, _row_blocks, check_count,
                    check_finite_positive, index_array, objective_value,
                    residual_objective)

_MAX_COND = 1e12
_PATH_TOL = 1e-6  # stationarity every path level runs to (or tol_kkt if looser)
_ROUNDING_ULPS = 4.0  # rounding of each term summed into r, in ulps
_STEP_SOLVES = 8  # restricted solves one batch step may make
_PATH_STEPS_PER_DECADE = 3
# relative gaps that read as ties: of dual violations, of a null slope and 0
_TIE_RTOL = 64.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Termination settings.

    max_iters caps the feature-sign steps of a whole solve; a level that
    its batch active-set step settles makes none, so the count is 0 where
    that happens on every level.  tol_kkt is the target stationarity
    residual (scaled dual units): max over coordinates of |z_i - sgn x_i|
    on the support and of max(|z_i| - 1, 0) off it.  A solve converges at
    residual <= tol_kkt; kkt_check certifies only if also every off-support
    |z_i| < 1 - 1e-12, which a converged point on a tie (|z_i| = 1) misses.
    """

    max_iters: int = 50_000
    tol_kkt: float = 1e-9

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        check_finite_positive("tol_kkt", self.tol_kkt)


def _scaled_duals(X, y, beta, e, lam_b, lam_e, r=None, col_norm=None):
    """The scaled duals (X'r / (n lam_b), r / (sqrt(n) lam_e)) at (beta, e),
    in the dtype of beta, the largest violations of the optimality system
    (|z_i - sgn x_i| on the supports, and |z_i| off them for the beta block
    and for the e block) and err, a bound on the error of the off-support
    beta duals.

    Without r, the residual is formed here from the support columns T of
    beta.  For a float64 beta all of it is float64 and err is 0.  For an
    extended-precision beta, r (where the cancellation is) and X_T'r are
    formed in that precision, X[:, T] converted _ROWS rows at a time, so
    the on-support duals and the e block are exact to it.  The off-support
    X'r is one float64 product on r rounded to float64; each entry is off
    by at most (n + 2) eps ||X_j|| ||r|| (Higham 2002, sec. 3.1), so
    err = (n + 2) eps max_j ||X_j|| ||r|| / (n lam_b).  col_norm is
    max_j ||X_j|| (ProblemInstance.max_col_norm), needed only there."""
    dt = beta.dtype
    n = X.shape[0]
    rn = np.sqrt(dt.type(n))
    T = np.flatnonzero(beta)
    if r is None:
        r = _residual(X, y, beta, e, T)
    g, err = X.T @ r.astype(np.float64, copy=False), 0.0
    if X.dtype != dt:
        g, g_T = g.astype(dt), np.zeros(len(T), dtype=dt)
        for rows, XbT in _row_blocks(X, T, dt):
            g_T += XbT.T @ r[rows]
        g[T] = g_T
        err = (n + 2) * float(np.finfo(np.float64).eps) * col_norm \
            * float(np.linalg.norm(r)) / (n * lam_b)
    duals = (g / (dt.type(n) * dt.type(lam_b)), r / (rn * dt.type(lam_e)))
    on_worst, off = 0.0, []
    for z, v in zip(duals, (beta, e)):
        on = v != 0
        on_worst = max(on_worst, float(np.max(np.abs(z[on] - np.sign(v[on])),
                                              initial=0.0)))
        off.append(float(np.max(np.abs(z[~on]), initial=0.0)))
    return duals, on_worst, off[0], off[1], err


def _duals(X, y, b, ee, lam_b, lam_e, r=None, hold_e=False, col_norm=None):
    """(z_b, z_e, kkt): the scaled duals of (b, ee) and its KKT residual.
    With hold_e the e block is held at zero, so its duals read zero."""
    (z_b, z_e), on, off_b, off_e, _ = _scaled_duals(X, y, b, ee, lam_b,
                                                    lam_e, r, col_norm)
    if hold_e:
        z_e, off_e = np.zeros_like(z_e), 0.0
    return z_b, z_e, max(on, off_b - 1.0, off_e - 1.0, 0.0)


def _float64_rounding_error(X, y, beta, e, lam_b, lam_e, col_norm):
    """Bound on the float64 rounding error of the scaled duals at (beta, e):
    _ROUNDING_ULPS ulps of every term summed into r, carried into X'r by
    Cauchy-Schwarz (col_norm is max_j ||X_j||)."""
    n = X.shape[0]
    T = np.flatnonzero(beta)
    err_r = _ROUNDING_ULPS * float(np.finfo(np.float64).eps) * (
        np.abs(y) + np.abs(X[:, T]) @ np.abs(beta[T])
        + math.sqrt(n) * np.abs(e))
    return max(col_norm * float(np.linalg.norm(err_r)) / (n * lam_b),
               float(np.max(err_r)) / (math.sqrt(n) * lam_e))


def _sign_key(beta, e):
    """The signs of (beta, e) as one hashable pattern."""
    return np.sign(np.concatenate((beta, e))).astype(np.int8).tobytes()


def _lambda_levels(lmax_b, lmax_e, lam_b, lam_e):
    """Geometric schedule from (lmax) down to the target lambdas, ending at
    the target pair."""
    span_b = max(lmax_b / lam_b, 1.0)
    span_e = max(lmax_e / lam_e, 1.0)
    decades = max(math.log10(span_b), math.log10(span_e))
    steps = max(int(math.ceil(decades * _PATH_STEPS_PER_DECADE)), 1)
    return [(lam_b * span_b ** (1.0 - t / steps), lam_e * span_e ** (1.0 - t / steps))
            for t in range(1, steps + 1)]


def _next_signs(signs, x, z, tol):
    """The signs of the next active-set iteration: an on-support coordinate
    of the restricted point x whose sign differs from signs leaves, and an
    off-support one whose scaled dual z exceeds 1 + tol in magnitude enters
    with sgn z."""
    out = np.where(np.sign(x) == signs, signs, 0.0)
    enter = (signs == 0) & (np.abs(z) > 1.0 + tol)
    out[enter] = np.sign(z[enter])
    return out


def _signed_point(X, y, sb, se, b, ee, lam_b, lam_e, seen,
                  dtype=np.float64):
    """The restricted point (beta, e, r) on the signs (sb, se), anchored at
    (b, ee) and solved in dtype (_restricted_point), or None if refused;
    seen's points are reused."""
    key = _sign_key(sb, se)
    if key in seen:
        return seen[key]
    T, S = np.flatnonzero(sb), np.flatnonzero(se)
    try:
        return _restricted_point(X, y, T, S, sb[T], se[S], b[T], ee[S],
                                 lam_b, lam_e, dtype)[2:]
    except SingularMatrixError:
        return None


def _active_set_step(instance, beta, e, lam_b, lam_e, tol, exact, seen,
                     hold_e):
    """The batch step at (lam_b, lam_e) from the signs of (beta, e):
    returns the accepted point and its KKT residual as (b, e, kkt), or None.

    Each iteration solves the restricted system on the current signs in
    float64 and drops every on-support coordinate whose sign flips.  The e
    block goes first: every off-support row whose scaled dual exceeds
    1 + tol enters with the dual's sign.  If none enters, so does every
    off-support coordinate of beta whose dual at the point's residual r
    exceeds 1 + tol.  If some rows enter, beta's duals are read at r_in, r
    with each entering row set to sqrt(n) lam_e sgn, the residual that row
    has at the next restricted point: for a fixed beta the best e clips
    every residual to +-sqrt(n) lam_e, so in beta the program is a
    Huber-loss Lasso (She & Owen 2011), and a row's gross residual is not
    beta's to fit.  There every dual that reads at least 1 within
    _TIE_RTOL enters, so that where a beta coordinate and an e row explain
    the same residual (every split is then optimal) beta's is tried.  When
    nothing changes, _judge decides.  The step fails on a singular system,
    on a signed support that repeats, after _STEP_SOLVES solves, or when
    the point is refused.  The points solved for are left in seen, keyed
    by their signs."""
    X, y = instance.X, instance.y
    n = X.shape[0]
    clip = np.sqrt(np.float64(n)) * lam_e  # |r_i| at a row of the e support
    sb, se = np.sign(beta), np.sign(e)
    b, ee = beta, e
    for _ in range(_STEP_SOLVES):
        key = _sign_key(sb, se)
        if key in seen:
            break
        seen[key] = point = _signed_point(X, y, sb, se, b, ee, lam_b, lam_e,
                                          seen)
        if point is None:
            break
        b, ee, r = point
        new_se = se if hold_e else _next_signs(se, ee, r / clip, tol)
        enter = (se == 0) & (new_se != 0)
        if enter.any():
            r_in = np.where(enter, clip * new_se, r)
            sb, se = _next_signs(sb, b, X.T @ r_in / (n * lam_b),
                                 -_TIE_RTOL), new_se
            continue
        z_b, _, kkt = _duals(X, y, b, ee, lam_b, lam_e, r, hold_e)
        new_sb = _next_signs(sb, b, z_b, tol)
        if not (np.array_equal(new_sb, sb) and np.array_equal(new_se, se)):
            sb, se = new_sb, new_se
            continue
        return _judge(instance, beta, e, b, ee, r, kkt, lam_b, lam_e, tol,
                      exact)
    return None


def _judge(instance, beta, e, b, ee, r, kkt, lam_b, lam_e, tol, exact):
    """Accept or refuse the float64 point (b, ee), with residual r and KKT
    residual kkt, of a level that started at (beta, e).  Returns
    (b, ee, kkt) when it is accepted, else None.

    On a path level (not exact) it is accepted if kkt <= tol and its
    objective is at most the start's.  At the target (exact) it must
    certify, and kkt_check re-evaluates a float64 point in extended
    precision, so the residual is judged with its float64 rounding bound
    err: accepted if kkt + err <= tol, refused if kkt - err > tol.  Only a
    miss that rounding can explain is solved once more, in extended
    precision on the signs of (b, ee), and judged on signs and kkt <= tol;
    a certified point needs no objective test."""
    X, y = instance.X, instance.y
    if not exact:
        start_obj = residual_objective(
            _residual(X, y, beta, e, np.flatnonzero(beta)), beta, e,
            lam_b, lam_e)
        if kkt <= tol and \
                residual_objective(r, b, ee, lam_b, lam_e) <= start_obj:
            return b, ee, kkt
        return None
    col_norm = instance.max_col_norm
    err = _float64_rounding_error(X, y, b, ee, lam_b, lam_e, col_norm)
    if kkt + err <= tol:
        return b, ee, kkt
    if kkt - err > tol:
        return None
    key = _sign_key(b, ee)
    point = _signed_point(X, y, np.sign(b), np.sign(ee), b, ee, lam_b, lam_e,
                          {}, np.longdouble)
    if point is None or _sign_key(*point[:2]) != key:
        return None
    b, ee, r = point
    kkt = _duals(X, y, b, ee, lam_b, lam_e, r, col_norm=col_norm)[2]
    return (b, ee, kkt) if kkt <= tol else None


def _level(instance, lam_b, lam_e, beta, e, tol, budget, exact,
           hold_e=False):
    """One lambda level from (beta, e): the batch step, then, only if it
    fails, at most budget feature-sign steps from (beta, e) over
    x = (beta, e).  With hold_e, e stays zero.  Returns (beta, e, kkt,
    steps, stop): kkt is the accepted point's KKT residual, or None with
    stop the reason (model.STOP_REASONS); steps counts feature-sign steps.

    A full step that keeps its signs settles x: its on-support conditions
    are taken as met (at tiny penalties float64 cannot read them to tol),
    and the off-support coordinate with the largest scaled dual beyond
    1 + tol enters with the dual's sign; ties (within _TIE_RTOL) go to the
    smallest index, Bland's rule.  With none left, or after an entering
    step that is not taken, _judge decides; its refusal stops the level
    for 'precision', or for 'singular' in the second case."""
    seen = {}
    step = _active_set_step(instance, beta, e, lam_b, lam_e, tol, exact,
                            seen, hold_e)
    if step is not None:
        return (*step, 0, None)
    X, y = instance.X, instance.y
    n, p = X.shape
    gamma = np.concatenate((np.full(p, n * lam_b), np.full(n, n * lam_e)))
    x = np.concatenate((beta, e))
    r = _residual(X, y, beta, e, np.flatnonzero(beta))
    steps, settled, stuck = 0, False, False
    while True:
        theta = np.sign(x)
        if settled:
            b, ee = x[:p], x[p:]
            z_b, z_e, kkt = _duals(X, y, b, ee, lam_b, lam_e, r, hold_e)
            z = np.concatenate((z_b, z_e))
            viol = np.where(theta == 0, np.abs(z), 0.0)
            # Bland's rule: the smallest index among the largest
            i = int(np.flatnonzero(viol >= viol.max() * (1.0 - _TIE_RTOL))[0])
            if stuck or viol[i] <= 1.0 + tol:
                point = _judge(instance, beta, e, b, ee, r, kkt, lam_b,
                               lam_e, tol, exact)
                if point is not None:
                    return (*point, steps, None)
                return b, ee, None, steps, \
                    "singular" if stuck else "precision"
            theta[i] = np.sign(z[i])
        if steps == budget:
            return x[:p], x[p:], None, steps, "budget"
        steps += 1
        moved = _feature_sign_step(X, y, x, r, theta, gamma, lam_b, lam_e,
                                   seen)
        if moved is None:
            stuck, settled = settled, True
        else:
            x, r, settled = moved


def _feature_sign_step(X, y, x, r, theta, gamma, lam_b, lam_e, seen):
    """One feature-sign step from x = (beta, e), with residual r, on the
    signs theta, for the objective times n with weights gamma: along
    d = point - x to the restricted point on theta (_signed_point), or
    where its system is refused along _null_direction, by _line_search.
    It is taken if it does not raise the objective, or if its slope is
    zero.  Returns (x, r, settled) at the new point, settled when the step
    was full and kept the signs theta, or None when it is not taken."""
    n, p = X.shape
    point = _signed_point(X, y, theta[:p], theta[p:], x[:p], x[p:], lam_b,
                          lam_e, seen)
    if point is None:
        d, zero_slope = _null_direction(X, x, theta, gamma)
    else:
        d, zero_slope = np.concatenate(point[:2]) - x, False
    if d is None:
        return None
    T = np.flatnonzero(d[:p])
    Ad = X[:, T] @ d[T] + math.sqrt(n) * d[p:]
    t, delta, crossing = _line_search(x, d, Ad, r, gamma, point is not None)
    if t is None or delta > 0.0 and not zero_slope:
        return None
    if not crossing.size:
        x = np.concatenate(point[:2])
        return x, point[2], np.array_equal(np.sign(x), theta)
    x = x + t * d
    x[crossing] = 0.0
    return x, _residual(X, y, x[:p], x[p:], np.flatnonzero(x[:p])), False


def _null_direction(X, x, theta, gamma):
    """(d, zero_slope): a direction over x = (beta, e) in the null space of
    the refused system on the signs theta, or (None, False).  d_T lies in
    null(X_{Sc,T}) (singular values below the largest over
    sqrt(_MAX_COND)) and d_S = -X_{S,T} d_T / sqrt(n), so the residual does
    not change and the objective moves with slope c'd_T, c = gamma_T
    theta_T - X_{S,T}' (gamma_S theta_S) / sqrt(n).  d_T is minus the
    projection of c, or where that slope reads zero (_TIE_RTOL), Bland's
    rule: the projection of e_j for the smallest nonzero j in T that the
    null space moves, oriented to move x_j towards zero."""
    n, p = X.shape
    T, S = np.flatnonzero(theta[:p]), np.flatnonzero(theta[p:])
    on_S = np.zeros(n, dtype=bool)
    on_S[S] = True
    X_ST = X[np.ix_(S, T)]
    _, sv, Vh = np.linalg.svd(X[np.ix_(~on_S, T)])
    N = Vh[np.count_nonzero(sv > sv[:1] / math.sqrt(_MAX_COND)):].T
    if not N.size:
        return None, False
    c = gamma[T] * theta[T] - gamma[p + S] * theta[p + S] @ X_ST / math.sqrt(n)
    d_T = -(N @ (N.T @ c))
    zero_slope = np.linalg.norm(d_T) <= _TIE_RTOL * np.linalg.norm(c)
    if zero_slope:
        moved = np.flatnonzero((np.linalg.norm(N, axis=1) > _TIE_RTOL)
                               & (x[T] != 0))
        if not moved.size:
            return None, False
        j = moved[0]
        d_T = -np.sign(x[T[j]]) * (N @ N[j])
    d = np.zeros_like(x)
    d[T] = d_T
    d[p + S] = -(X_ST @ d_T) / math.sqrt(n)
    return d, zero_slope


def _line_search(x, d, Ad, r, gamma, full):
    """The step along d from x: (t, delta, crossing), where delta is the
    change of the objective times n,

        delta(t) = -t r'Ad + t^2 ||Ad||^2 / 2
                   + sum_i gamma_i (|x_i + t d_i| - |x_i|),

    computed directly, not as a difference of two objectives, and crossing
    holds the coordinates that t sets to zero.  The least delta among x's
    zero crossings (with full, those in (0, 1) and t = 1) is taken; ties go
    to the smallest crossing index (Bland's rule).  t is None without a
    candidate."""
    K = np.flatnonzero(d)
    xk, dk = x[K], d[K]
    cross = xk * dk < 0.0
    tc, idx = -xk[cross] / dk[cross], K[cross]
    if full:
        tc, idx = tc[tc < 1.0], idx[tc < 1.0]
    ts = np.append(tc, 1.0) if full else tc
    if not ts.size:
        return None, None, None
    delta = -ts * float(r @ Ad) + 0.5 * ts * ts * float(Ad @ Ad) \
        + (gamma[K] * (np.abs(xk + np.outer(ts, dk)) - np.abs(xk))).sum(axis=1)
    pick = np.lexsort((np.append(idx, x.size) if full else idx, delta))[0]
    return float(ts[pick]), float(delta[pick]), idx[tc == ts[pick]]


def solve_extended_lasso(instance: ProblemInstance, lam_b: float, lam_e: float,
                         config: SolverConfig | None = None) -> Solution:
    """Solve the joint program from zero down the lambda path; returns a
    Solution (converged flag and stop reason, no raise on
    non-convergence).  InputError unless lam_b and lam_e are finite and > 0.

    The path's levels (_lambda_levels) are walked with a doubling stride:
    each level settled by its batch step, and each accepted skip, doubles
    it, and a refused skip resets it to 1 (see the module docstring)."""
    cfg = config or SolverConfig()
    check_finite_positive("lam_b", lam_b)
    check_finite_positive("lam_e", lam_e)

    X, y = instance.X, instance.y
    n, p = X.shape
    beta, e = np.zeros(p), np.zeros(n)

    lmax_b = float(np.max(np.abs(X.T @ y))) / n
    lmax_e = float(np.max(np.abs(y))) / math.sqrt(n)
    levels = _lambda_levels(lmax_b, lmax_e, lam_b, lam_e)

    # i is the last visited level (-1 at the zero start).  A skip to level
    # i + 1 would repeat that level's batch step, so the level runs instead.
    # The path levels run to path_tol, and the target, the last level, runs
    # to tol_kkt and converges only at a certified point.
    path_tol = max(cfg.tol_kkt, _PATH_TOL)
    last = len(levels) - 1
    i, stride, total = -1, 1, 0
    converged = False
    while i < last:
        j = min(i + stride, last - 1)
        if j > i + 1:
            step = _active_set_step(instance, beta, e, *levels[j], path_tol,
                                    False, {}, False)
            if step is not None:
                beta, e, _ = step
                i, stride = j, 2 * stride
                continue
            stride = 1
        i += 1
        exact = i == last
        if total == cfg.max_iters:
            stop = "budget"
            break
        beta, e, kkt, it, stop = _level(
            instance, *levels[i], beta, e, cfg.tol_kkt if exact else path_tol,
            cfg.max_iters - total, exact)
        total += it
        converged = exact and kkt is not None
        stride = 2 * stride if it == 0 else 1
    if not converged:
        kkt = _duals(X, y, beta, e, lam_b, lam_e)[2]
    obj = objective_value(instance, beta, e, lam_b, lam_e)
    return Solution(beta_hat=beta, e_hat=e, lambda_beta=lam_b, lambda_e=lam_e,
                    objective=obj, iterations=total, converged=converged,
                    kkt_residual=float(kkt),
                    stop=None if converged else stop)


def solve_standard_lasso(X, y, lam: float) -> np.ndarray:
    """The standard Lasso (1/2n)||y - X beta||^2 + lam ||beta||_1 from zero,
    to the default SolverConfig's tolerance and step cap: one level of the
    joint solver's kernel, with e held at zero (S empty) and the path-level
    rule.  InputError unless lam is finite and > 0."""
    cfg = SolverConfig()
    check_finite_positive("lam", lam)
    X = np.asfortranarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    return _level(ProblemInstance(X=X, y=y), lam, lam, np.zeros(p),
                  np.zeros(n), cfg.tol_kkt, cfg.max_iters, False, True)[0]


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
    and S.  The anchor defaults to the instance truth.  These are the first
    four items of the solver's own _restricted_point, bit for bit.

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
    return _restricted_point(instance.X, instance.y, T, S, np.sign(anchor_T),
                             np.sign(anchor_S), anchor_T, anchor_S, lam_b,
                             lam_e, dtype)[:4]


def _restricted_point(X, y, T, S, sign_beta, sign_e, anchor_T, anchor_S,
                      lam_b, lam_e, dtype):
    """restricted_solution's point with explicit signs on T and S (an
    entering coordinate has anchor 0 and the sign of its dual) and the
    anchor's entries on T and S, all in the order of T and S, solved in
    dtype.  Returns (h_T, g_S, beta_hat, e_hat, r), r = y - X beta_hat -
    sqrt(n) e_hat; the one code that forms, gates and solves the system.

    X[:, T] is read _ROWS rows at a time (_row_blocks), converted to dtype,
    in two passes: the first sums X_T anchor_T, G and both right-hand
    sides, picking a block's Sc and S rows by integer indices cut once per
    call from the sorted rows; the second forms X_T h_T and X_T beta_hat_T.
    So the memory is O(n + |T|^2 + _ROWS |T|), not O(n |T|)."""
    n, p = X.shape
    k, s = len(T), len(S)
    if k > n - s:
        raise SingularMatrixError(
            f"restricted system needs |T| <= n - |S| ({k} > {n - s})")
    y = y.astype(dtype, copy=False)
    rn = np.sqrt(dtype(n))
    on_S = np.zeros(n, dtype=bool)
    on_S[S] = True
    sign_rows = np.zeros(n, dtype=dtype)
    sign_rows[S] = sign_e
    Sc, S_rows = np.flatnonzero(~on_S), np.flatnonzero(on_S)
    edges = np.arange(0, n + _ROWS, _ROWS)
    cut_Sc, cut_S = np.searchsorted(Sc, edges), np.searchsorted(S_rows, edges)
    Xa = np.empty(n, dtype=dtype)
    G = np.zeros((k, k), dtype=dtype)
    rhs_Sc, rhs_S = np.zeros(k, dtype=dtype), np.zeros(k, dtype=dtype)
    for i, (rows, XbT) in enumerate(_row_blocks(X, T, dtype)):
        Xa[rows] = XbT @ anchor_T
        sc, on = Sc[cut_Sc[i]:cut_Sc[i + 1]], S_rows[cut_S[i]:cut_S[i + 1]]
        XbScT = XbT[sc - rows.start]
        G += XbScT.T @ XbScT
        rhs_Sc += XbScT.T @ (y[sc] - Xa[sc])
        rhs_S += XbT[on - rows.start].T @ sign_rows[on]

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

    Xh, Xb = np.empty(n, dtype=dtype), np.empty(n, dtype=dtype)
    for rows, XbT in _row_blocks(X, T, dtype):
        Xh[rows] = XbT @ h_T
        Xb[rows] = XbT @ beta_hat[T]
    w_S = y[S] - Xa[S] - rn * anchor_S
    g_S = -Xh[S] / rn + w_S / rn - lam_e * sign_e
    e_hat = np.zeros(n, dtype=dtype)
    e_hat[S] = anchor_S + g_S
    return h_T, g_S, beta_hat, e_hat, y - Xb - rn * e_hat
