"""Synthetic instance generation.

Designs are Gaussian with i.i.d. N(0, Sigma) rows.  Sparse vectors get
uniformly random supports and Gaussian magnitudes, optionally floored away
from zero and/or rescaled.  Corruption is either "gross" (arbitrary large
entries added to the chosen observations) or "missing" (the chosen
observations are zeroed out, which in the scaled model means
e*_i = -(X beta* + w)_i / sqrt(n)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_ROWS, GenerationMeta, GroundTruth, InputError,
                    ProblemInstance, check_finite_positive)
from .rng import (STREAM_BETA_MAG, STREAM_BETA_SUPPORT, STREAM_DESIGN,
                  STREAM_E_MAG, STREAM_E_SUPPORT, STREAM_NOISE, stream)

_MIN_EIG = 1e-10


@dataclass(frozen=True)
class CovarianceSpec:
    """How to build the row covariance Sigma: identity, ar1(rho) or explicit."""

    kind: str = "identity"            # identity | ar1 | explicit
    p: int = 0
    rho: float = 0.0                  # ar1 only
    matrix: np.ndarray | None = None  # explicit only

    def __post_init__(self):
        if self.kind not in ("identity", "ar1", "explicit"):
            raise InputError(f"unknown covariance kind {self.kind!r}")
        if self.kind == "ar1" and not (-1.0 < self.rho < 1.0):
            raise InputError("ar1 correlation must lie in (-1, 1)")
        if self.kind == "explicit":
            if self.matrix is None:
                raise InputError("explicit covariance requires a matrix")
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError("explicit covariance must be square")
            object.__setattr__(self, "matrix", m)
            if self.p and self.p != m.shape[0]:
                raise InputError("p does not match explicit covariance size")
            object.__setattr__(self, "p", m.shape[0])

    def materialize(self, p: int | None = None) -> np.ndarray:
        """Dense SPD Sigma; raises if the smallest eigenvalue is <= 1e-10."""
        dim = p if p is not None else self.p
        if dim < 1:
            raise InputError("covariance dimension must be >= 1")
        if self.kind == "identity":
            sigma = np.eye(dim)
        elif self.kind == "ar1":
            idx = np.arange(dim)
            sigma = self.rho ** np.abs(idx[:, None] - idx[None, :])
        else:
            if self.matrix.shape[0] != dim:
                raise InputError("explicit covariance size mismatch")
            sigma = np.array(self.matrix, dtype=np.float64)
        if not np.allclose(sigma, sigma.T):
            raise InputError("covariance must be symmetric")
        if self.kind != "identity":
            lo = float(np.linalg.eigvalsh(sigma)[0])
            if lo <= _MIN_EIG:
                raise InputError(f"covariance is not positive definite (min eig {lo:.3e})")
        return sigma

    def describe(self) -> dict:
        d = {"kind": self.kind, "p": self.p}
        if self.kind == "ar1":
            d["rho"] = self.rho
        if self.kind == "explicit":
            d["matrix"] = np.asarray(self.matrix).tolist()
        return d


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SparsityRegime:
    """Maps the ambient dimension p to the regression sparsity k.

    sublinear:  k = 0.2 p / ln(0.2 p)
    linear:     k = 0.1 p
    fractional: k = 0.5 p^0.75
    Values are rounded half-up and clamped to [1, p].
    """

    kind: str = "sublinear"

    def __post_init__(self):
        if self.kind not in ("sublinear", "linear", "fractional"):
            raise InputError(f"unknown sparsity regime {self.kind!r}")

    def k_of(self, p: int) -> int:
        if p < 1:
            raise InputError("p must be >= 1")
        if self.kind == "sublinear":
            raw = 0.2 * p / math.log(0.2 * p)
        elif self.kind == "linear":
            raw = 0.1 * p
        else:
            raw = 0.5 * p ** 0.75
        return min(max(_round_half_up(raw), 1), p)


def gen_design(n: int, p: int, spec: CovarianceSpec | None = None, seed=0) -> np.ndarray:
    """n-by-p matrix with rows i.i.d. N(0, Sigma), via the Cholesky factor.

    X is allocated once, in Fortran order, and filled _ROWS rows at a time
    from one reused buffer of standard normals (times L' per block when
    Sigma is not the identity), so the design is the only n-by-p array
    generation holds.  The blocks continue one stream, so X equals the
    one-shot draw of the whole (n, p) matrix in C order."""
    if n < 1 or p < 1:
        raise InputError("need n >= 1 and p >= 1")
    spec = spec or CovarianceSpec("identity", p=p)
    rng = stream(seed, STREAM_DESIGN)
    L_T = None
    if not (spec.kind == "identity" or (spec.kind == "ar1" and spec.rho == 0.0)):
        L_T = np.linalg.cholesky(spec.materialize(p)).T
    X = np.empty((n, p), order="F")
    Z = np.empty((min(n, _ROWS), p))
    for i in range(0, n, _ROWS):
        Zb = Z[:min(_ROWS, n - i)]
        rng.standard_normal(out=Zb)
        X[i:i + _ROWS] = Zb if L_T is None else Zb @ L_T
    return X


def gen_sparse_vector(dim: int, support_size: int, seed=0, *,
                      scale: float = 1.0, floor: float = 0.0,
                      support_stream: int = STREAM_BETA_SUPPORT,
                      magnitude_stream: int = STREAM_BETA_MAG):
    """Sparse vector with uniform random support and Gaussian magnitudes.

    With floor > 0 every nonzero entry satisfies |entry| >= floor (the floor
    is added to the Gaussian magnitude, preserving the sign).  `scale`
    multiplies the result.  Returns (vector, support_indices).
    """
    if not 0 <= support_size <= dim:
        raise InputError(f"support_size {support_size} outside [0, {dim}]")
    v = np.zeros(dim)
    sup = stream(seed, support_stream).choice(dim, size=support_size, replace=False)
    sup.sort()
    if support_size:
        g = stream(seed, magnitude_stream).standard_normal(support_size)
        signs = np.where(g >= 0, 1.0, -1.0)
        v[sup] = scale * signs * (np.abs(g) + floor)
    return v, sup


def gen_instance(n: int, p: int, *, k: int | None = None,
                 regime: SparsityRegime | str | None = None,
                 s: int = 0, sigma: float = 0.0,
                 corruption_mode: str = "gross",
                 spec: CovarianceSpec | None = None, seed=0,
                 e_scale: float = 1.0, beta_floor: float = 0.0,
                 e_floor: float = 0.0) -> ProblemInstance:
    """Assemble y = X beta* + sqrt(n) e* + w with w ~ N(0, sigma^2 I).

    The regression sparsity comes either from `k` directly or from a
    SparsityRegime.  In "missing" mode the s chosen observations are zeroed:
    e*_i is set to -(X beta* + w)_i / sqrt(n) so that y_i = 0.
    """
    check_finite_positive("sigma", sigma, zero_ok=True)
    if corruption_mode not in ("gross", "missing"):
        raise InputError(f"unknown corruption mode {corruption_mode!r}")
    if isinstance(regime, str):
        regime = SparsityRegime(regime)
    if k is None:
        if regime is None:
            raise InputError("provide either k or a sparsity regime")
        k = regime.k_of(p)
    if not 1 <= k <= p:
        raise InputError(f"k={k} outside [1, {p}]")
    if not 0 <= s <= n:
        raise InputError(f"s={s} outside [0, {n}]")

    spec = spec or CovarianceSpec("identity", p=p)
    X = gen_design(n, p, spec, seed)
    beta_star, _ = gen_sparse_vector(p, k, seed, floor=beta_floor,
                                     support_stream=STREAM_BETA_SUPPORT,
                                     magnitude_stream=STREAM_BETA_MAG)
    w = sigma * stream(seed, STREAM_NOISE).standard_normal(n) if sigma > 0 else np.zeros(n)

    clean = X @ beta_star + w
    root_n = np.sqrt(n)
    if corruption_mode == "gross":
        e_star, S = gen_sparse_vector(n, s, seed, scale=e_scale, floor=e_floor,
                                      support_stream=STREAM_E_SUPPORT,
                                      magnitude_stream=STREAM_E_MAG)
        y = clean + root_n * e_star
    else:
        S = stream(seed, STREAM_E_SUPPORT).choice(n, size=s, replace=False)
        S.sort()
        e_star = np.zeros(n)
        e_star[S] = -clean[S] / root_n
        y = clean + root_n * e_star
        y[S] = 0.0  # zero by construction, not by cancellation

    truth = GroundTruth(beta_star=beta_star, e_star=e_star, w=w, sigma=sigma)
    meta = GenerationMeta(
        seed=(seed,) if isinstance(seed, (int, np.integer)) else tuple(seed),
        covariance=spec.describe(),
        regime=regime.kind if regime is not None else "",
        corruption_mode=corruption_mode,
        extra={"n": n, "p": p, "k": k, "s": s, "sigma": sigma,
               "e_scale": e_scale, "beta_floor": beta_floor, "e_floor": e_floor},
    )
    return ProblemInstance(X=X, y=y, truth=truth, meta=meta)


def n_from_theta(theta: float, k: int, p: int) -> int:
    """Smallest integer n >= 8 with n / ln(n) >= 4 theta k ln(p - k).

    The map n -> n/ln(n) is increasing for n >= e, so bisection applies.
    """
    if theta <= 0 or k < 1 or p <= k:
        raise InputError("need theta > 0, k >= 1, p > k")
    target = 4.0 * theta * k * math.log(p - k)

    def f(n: int) -> float:
        return n / math.log(n)

    lo = 8
    if f(lo) >= target:
        return lo
    hi = lo
    while f(hi) < target:
        hi *= 2
    while hi - lo > 1:  # invariant: f(lo) < target <= f(hi)
        mid = (lo + hi) // 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
