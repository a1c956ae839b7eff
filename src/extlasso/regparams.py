"""Closed-form regularization parameters, sample-size bounds and magnitude
thresholds for the joint sparse-regression / sparse-corruption program.

All logarithms are natural.  The unnamed order-constants of the theory
(c1, c2, c3, epsilon slack, the 48 in the achievability sample bound) are
exposed as arguments with default 1 where the formulas leave them free;
bound checks should be read directionally (larger n, easier recovery), not
as sharp thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (InputError, ProblemInstance, SingularMatrixError,
                    check_finite_positive, index_array)


@dataclass(frozen=True)
class CovarianceReport:
    """Scalar functionals of Sigma restricted to a support T.

    C_min/C_max are the extreme eigenvalues of Sigma_TT; xi the largest
    diagonal entry of Sigma; D_plus_max/D_minus_max the l_inf operator norms
    of Sigma_TT and its inverse; rho_u/rho_l come from the conditional
    covariance Sigma_{Tc|T} = Sigma_TcTc - Sigma_TcT Sigma_TT^-1 Sigma_TTc;
    incoherence_value = ||Sigma_TcT Sigma_TT^-1||_inf (max row l1 norm);
    inv_sqrt_infnorm = ||Sigma_TT^{-1/2}||_inf, needed by the magnitude
    thresholds.
    """

    C_min: float
    C_max: float
    xi: float
    D_plus_max: float
    D_minus_max: float
    rho_u: float
    rho_l: float
    incoherence_value: float
    inv_sqrt_infnorm: float

    def incoherent_at(self, gamma: float) -> bool:
        """Mutual incoherence holds at slack gamma iff value <= 1 - gamma."""
        if not 0 < gamma < 1:
            raise InputError("gamma must lie in (0, 1)")
        return self.incoherence_value <= 1.0 - gamma


IDENTITY_REPORT = CovarianceReport(C_min=1.0, C_max=1.0, xi=1.0,
                                   D_plus_max=1.0, D_minus_max=1.0,
                                   rho_u=1.0, rho_l=1.0,
                                   incoherence_value=0.0,
                                   inv_sqrt_infnorm=1.0)


def covariance_report(sigma: np.ndarray, T) -> CovarianceReport:
    """Compute the CovarianceReport of Sigma for support T (0-based indices)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    p = sigma.shape[0]
    T = index_array("T", T, p)
    if len(T) == 0 or len(T) >= p:
        raise InputError("need a nonempty support T with nonempty complement")
    mask = np.ones(p, dtype=bool)
    mask[T] = False
    Tc = np.flatnonzero(mask)

    s_tt = sigma[np.ix_(T, T)]
    s_tctc = sigma[np.ix_(Tc, Tc)]
    s_tct = sigma[np.ix_(Tc, T)]

    evals, evecs = np.linalg.eigh(s_tt)
    if evals[0] <= 0:
        raise SingularMatrixError(
            f"Sigma_TT is singular (min eigenvalue {evals[0]:.3e})")
    inv_tt = evecs @ np.diag(1.0 / evals) @ evecs.T
    inv_sqrt_tt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T

    cond = s_tctc - s_tct @ inv_tt @ s_tct.T
    diag = np.diag(cond)
    rho_u = float(np.max(diag))
    if len(Tc) >= 2:
        pair = diag[:, None] + diag[None, :] - 2.0 * cond
        np.fill_diagonal(pair, np.inf)
        rho_l = 0.5 * float(np.min(pair))
    else:
        rho_l = rho_u  # single off-support coordinate: no i != j pair exists

    return CovarianceReport(
        C_min=float(evals[0]),
        C_max=float(evals[-1]),
        xi=float(np.max(np.diag(sigma))),
        D_plus_max=float(np.max(np.abs(s_tt).sum(axis=1))),
        D_minus_max=float(np.max(np.abs(inv_tt).sum(axis=1))),
        rho_u=rho_u,
        rho_l=rho_l,
        incoherence_value=float(np.max(np.abs(s_tct @ inv_tt).sum(axis=1))),
        inv_sqrt_infnorm=float(np.max(np.abs(inv_sqrt_tt).sum(axis=1))),
    )


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the sample-size bounds and thresholds consume."""

    n: int
    p: int
    k: int
    s: int
    sigma: float
    gamma_incoherence: float = 0.5   # in (0, 1)
    epsilon: float = 0.5             # in (0, 1)
    delta: float = 0.5               # in (0, 1)
    covariance_report: CovarianceReport = field(default=IDENTITY_REPORT)

    def __post_init__(self):
        if not (self.n >= 1 and self.p >= 1 and 0 <= self.k <= self.p
                and 0 <= self.s <= self.n):
            raise InputError("inconsistent dimensions")
        check_finite_positive("sigma", self.sigma, zero_ok=True)
        for name in ("gamma_incoherence", "epsilon", "delta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must lie in (0, 1)")

    @property
    def eta(self) -> float:
        """Fraction of corrupted observations, recomputed from s and n."""
        return self.s / self.n


@dataclass(frozen=True)
class LambdaPair:
    """A (lambda_beta, lambda_e) choice; degenerate if either is zero."""

    lambda_beta: float
    lambda_e: float

    @property
    def degenerate(self) -> bool:
        return self.lambda_beta <= 0.0 or self.lambda_e <= 0.0

    @property
    def ratio(self) -> float:
        """lambda_e / lambda_beta, the cone weight of the active family."""
        if self.lambda_beta == 0:
            raise InputError("ratio undefined for lambda_beta = 0")
        return self.lambda_e / self.lambda_beta

    def __iter__(self):
        return iter((self.lambda_beta, self.lambda_e))


def lambdas_noise_oracle(instance: ProblemInstance,
                         gamma_tuning: float = 1.0) -> LambdaPair:
    """Penalties from the realized noise vector (theory-validation only):

        lambda_beta = (2/gamma) ||X^T w||_inf / n,
        lambda_e    = 2 ||w||_inf / sqrt(n).

    Requires the instance truth; degenerate (0, 0) when w = 0.
    """
    if instance.truth is None:
        raise InputError("noise-oracle lambdas require the instance truth")
    if not 0 < gamma_tuning <= 1:
        raise InputError("gamma_tuning must lie in (0, 1]")
    w = instance.truth.w
    n = instance.n
    lb = (2.0 / gamma_tuning) * float(np.max(np.abs(instance.X.T @ w))) / n
    le = 2.0 * float(np.max(np.abs(w))) / math.sqrt(n)
    return LambdaPair(lb, le)


def lambdas_gaussian_design(sigma: float, n: int, p: int,
                            gamma_tuning: float = 1.0) -> LambdaPair:
    """Explicit choice for a standard Gaussian design:

        lambda_beta = (4/gamma) sqrt(sigma^2 ln p / n),
        lambda_e    = 4 sqrt(sigma^2 ln n / n).
    """
    if not 0 < gamma_tuning <= 1:
        raise InputError("gamma_tuning must lie in (0, 1]")
    lb = (4.0 / gamma_tuning) * math.sqrt(sigma ** 2 * math.log(p) / n)
    le = 4.0 * math.sqrt(sigma ** 2 * math.log(n) / n)
    return LambdaPair(lb, le)


def lambdas_support_recovery(sigma: float, n: int, p: int, eta: float,
                             report: CovarianceReport,
                             gamma_incoherence: float) -> LambdaPair:
    """The family under which signed-support recovery is guaranteed:

        lambda_beta = (8/gamma) sqrt(sigma^2 eta ln n ln p
                                     max{rho_u, D_plus_max} / n),
        lambda_e    = 4 sqrt(sigma^2 ln n / n).
    """
    if not 0 < gamma_incoherence < 1:
        raise InputError("gamma_incoherence must lie in (0, 1)")
    if not 0 < eta < 1:
        raise InputError("eta must lie in (0, 1)")
    m = max(report.rho_u, report.D_plus_max)
    lb = (8.0 / gamma_incoherence) * math.sqrt(
        sigma ** 2 * eta * math.log(n) * math.log(p) * m / n)
    le = 4.0 * math.sqrt(sigma ** 2 * math.log(n) / n)
    return LambdaPair(lb, le)


def lambdas_simulation(sigma: float, n: int, p: int) -> LambdaPair:
    """The sweep protocol's choice:

        lambda_beta = 2 sqrt(sigma^2 ln p ln n / n),
        lambda_e    = 2 sqrt(sigma^2 ln n / n).
    """
    lb = 2.0 * math.sqrt(sigma ** 2 * math.log(p) * math.log(n) / n)
    le = 2.0 * math.sqrt(sigma ** 2 * math.log(n) / n)
    return LambdaPair(lb, le)


@dataclass(frozen=True)
class SampleSizeBounds:
    """A pair of sample-size bounds plus the resulting predicate."""

    n1: float
    n2: float
    #: achievability: n > max(n1, n2); inachievability: n < max(n1, n2)
    predicate: bool


def sample_size_achievable(inputs: TheoryInputs, lam_b: float,
                           lam_e: float) -> SampleSizeBounds:
    """Sufficient sample sizes for signed-support recovery:

      n1 = 4(1+eps)/(1-eta) * rho_u/(C_min gamma^2) * k ln(p-k)
           * { 9/4 + (1-eta)^2 sigma^2 C_min / (lam_b^2 k) }
      n2 = 48 (1+eps) eta/(1-eta)^2 * max{rho_u, D_plus}/(C_min gamma^2)
           * (1 - 2 sigma sqrt(ln n)/(lam_e sqrt(n)))^-2 * k ln(p-k) ln n

    predicate is n > max(n1, n2).  n2 is +inf when lambda_e is too small for
    its deflation factor (2 sigma sqrt(ln n)/(lam_e sqrt(n)) >= 1).
    """
    t = inputs
    r = t.covariance_report
    eta = t.eta
    gamma = t.gamma_incoherence
    eps = t.epsilon
    kl = t.k * math.log(t.p - t.k)
    if lam_b <= 0:
        raise InputError("lam_b must be > 0")
    n1 = (4.0 * (1.0 + eps) / (1.0 - eta)) * (r.rho_u / (r.C_min * gamma ** 2)) \
        * kl * (9.0 / 4.0 + (1.0 - eta) ** 2 * t.sigma ** 2 * r.C_min
                / (lam_b ** 2 * t.k))
    deflate = 2.0 * t.sigma * math.sqrt(math.log(t.n)) / (lam_e * math.sqrt(t.n)) \
        if lam_e > 0 else math.inf
    if deflate >= 1.0:
        n2 = math.inf
    else:
        n2 = 48.0 * (1.0 + eps) * (eta / (1.0 - eta) ** 2) \
            * (max(r.rho_u, r.D_plus_max) / (r.C_min * gamma ** 2)) \
            * (1.0 - deflate) ** -2 * kl * math.log(t.n)
    return SampleSizeBounds(n1=n1, n2=n2, predicate=t.n > max(n1, n2))


def sample_size_unachievable(inputs: TheoryInputs, lam_b: float,
                             lam_e: float) -> SampleSizeBounds:
    """Sample sizes below which no solution has the correct signed support:

      n1 = 2(1-delta)/(1-eta) * rho_l k ln(p-k) / (C_max (2-gamma)^2)
           * { 3/8 + (1-eta)^2 sigma^2 C_max / (lam_b^2 k) }
      n2 = (1-delta)/12 * eta/(1-eta)^2 * rho_l/C_max
           * (1 + 2 sqrt(sigma^2 ln n)/(lam_e sqrt(n)))^-2
           * k ln(n-s) ln(p-k)

    predicate is n < max(n1, n2) (failure regime).
    """
    t = inputs
    r = t.covariance_report
    eta = t.eta
    gamma = t.gamma_incoherence
    delta = t.delta
    kl = t.k * math.log(t.p - t.k)
    if lam_b <= 0 or lam_e <= 0:
        raise InputError("lam_b and lam_e must be > 0")
    n1 = (2.0 * (1.0 - delta) / (1.0 - eta)) \
        * (r.rho_l * kl / (r.C_max * (2.0 - gamma) ** 2)) \
        * (3.0 / 8.0 + (1.0 - eta) ** 2 * t.sigma ** 2 * r.C_max
           / (lam_b ** 2 * t.k))
    inflate = 1.0 + 2.0 * math.sqrt(t.sigma ** 2 * math.log(t.n)) \
        / (lam_e * math.sqrt(t.n))
    n2 = ((1.0 - delta) / 12.0) * (eta / (1.0 - eta) ** 2) \
        * (r.rho_l / r.C_max) * inflate ** -2 \
        * t.k * math.log(max(t.n - t.s, 2)) * math.log(t.p - t.k)
    return SampleSizeBounds(n1=n1, n2=n2, predicate=t.n < max(n1, n2))


def magnitude_thresholds(inputs: TheoryInputs, lam_b: float, lam_e: float,
                         c1: float = 1.0, c2: float = 1.0,
                         c3: float = 1.0) -> tuple[float, float]:
    """Minimum-magnitude thresholds (f_beta, f_e) for signed recovery:

      lam_b' = lam_b sqrt(k ln(p-k) / ((1-eta)^2 n)) ||Sigma_TT^{-1/2}||_inf^2
      f_beta = c1 lam_b' + 20 sqrt(sigma^2 ln k / (C_min (n - s)))
      f_e    = c2 lam_b' sqrt(C_max) sqrt((s k + k sqrt(s k)) / n) + c3 lam_e
    """
    t = inputs
    r = t.covariance_report
    eta = t.eta
    lam_bp = lam_b * math.sqrt(t.k * math.log(t.p - t.k)
                               / ((1.0 - eta) ** 2 * t.n)) \
        * r.inv_sqrt_infnorm ** 2
    log_k = math.log(t.k) if t.k > 1 else 0.0
    f_beta = c1 * lam_bp + 20.0 * math.sqrt(
        t.sigma ** 2 * log_k / (r.C_min * (t.n - t.s)))
    sk = t.s * t.k
    f_e = c2 * lam_bp * math.sqrt(r.C_max) * math.sqrt(
        (sk + t.k * math.sqrt(sk)) / t.n) + c3 * lam_e
    return f_beta, f_e
