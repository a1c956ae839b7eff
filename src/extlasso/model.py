"""Core data model: observation instances, solutions, signed supports.

The observation model is

    y = X beta* + sqrt(n) e* + w

with X an n-by-p dense design, beta* a k-sparse regression vector, e* an
s-sparse corruption vector (one coordinate per corrupted observation) and w
dense noise.  The sqrt(n) column scaling of the corruption block matches the
Theta(sqrt(n)) column norms of a Gaussian design, so both blocks live on the
same scale.
"""
from __future__ import annotations

import base64
import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Default absolute tolerance below which a coordinate counts as zero when
#: extracting signed supports.  Several orders below typical unit-scale
#: signals, above the solver's KKT tolerance.
DEFAULT_ZERO_TOL = 1e-8

#: Why a solve stopped unconverged (Solution.stop): its signs held but its
#: residual missed tol, also in extended precision; max_iters; no step left.
STOP_REASONS = ("precision", "budget", "singular")

_RECONSTRUCTION_RTOL = 1e-10
# rows of X drawn, read, or (on the support columns only) converted to
# extended precision at a time
_ROWS = 1024


class InputError(ValueError):
    """Invalid caller-supplied data (non-finite entries, bad shapes)."""


class DimensionMismatchError(InputError):
    """Array shapes do not agree with the instance dimensions."""


class NumericError(ArithmeticError):
    """A numeric computation produced NaN/inf where it must not."""


class SingularMatrixError(NumericError):
    """A linear system was too ill-conditioned to solve reliably."""


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")


def check_finite_positive(name: str, value, zero_ok: bool = False) -> None:
    """InputError unless value is a finite number > 0, or >= 0 with zero_ok;
    nan and inf fail either way."""
    if not (value < np.inf and (value > 0 or zero_ok and value == 0)):
        raise InputError(f"{name} must be finite and "
                         f"{'>=' if zero_ok else '>'} 0, got {value!r}")


def check_count(name: str, value) -> None:
    """InputError unless value is an integer >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")


def index_array(name: str, idx, size: int) -> np.ndarray:
    """idx as an index array in the caller's order; InputError unless every
    entry is an integer in [0, size), so that -1 cannot wrap around, 1.7
    cannot truncate to 1 and a boolean mask cannot pass as 0/1 indexes."""
    idx = np.asarray(idx)
    if not idx.size:  # np.asarray([]) is float64
        return idx.astype(np.intp)
    if not np.issubdtype(idx.dtype, np.integer):
        raise InputError(f"{name} must hold integer indexes, got {idx.dtype}")
    if idx.min() < 0 or idx.max() >= size:
        raise InputError(f"{name} indexes must lie in [0, {size})")
    return idx.astype(np.intp, copy=False)


def _as_vector(name: str, x, length: int | None = None, dtype=np.float64) -> np.ndarray:
    v = np.asarray(x, dtype=dtype)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {length}")
    return v


@dataclass(frozen=True)
class GroundTruth:
    """The planted (beta*, e*, w) of a synthetic instance.

    T and S are the supports of beta* and e*; k = |T|, s = |S|; sigma is the
    standard deviation of the dense noise w.
    """

    beta_star: np.ndarray
    e_star: np.ndarray
    w: np.ndarray
    sigma: float

    def __post_init__(self):
        for name in ("beta_star", "e_star", "w"):
            _check_finite(name, getattr(self, name))
        if self.e_star.shape != self.w.shape:
            raise DimensionMismatchError("e_star and w must have equal length")
        check_finite_positive("sigma", self.sigma, zero_ok=True)

    @property
    def T(self) -> np.ndarray:
        return np.flatnonzero(self.beta_star)

    @property
    def S(self) -> np.ndarray:
        return np.flatnonzero(self.e_star)

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.beta_star))

    @property
    def s(self) -> int:
        return int(np.count_nonzero(self.e_star))


@dataclass(frozen=True)
class GenerationMeta:
    """How a synthetic instance was produced (enough to regenerate it)."""

    seed: tuple = ()
    covariance: dict = field(default_factory=dict)
    regime: str = ""
    corruption_mode: str = ""
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProblemInstance:
    """A design matrix, observations and (optionally) the planted truth.

    X is kept Fortran-ordered so column slices, which the solver reads
    for the support columns of beta, are contiguous.  An X that is already a
    Fortran-ordered float64 array is kept as it is, not copied, so an
    instance from gen_instance holds the one design that gen_design filled.
    """

    X: np.ndarray
    y: np.ndarray
    truth: Optional[GroundTruth] = None
    meta: GenerationMeta = field(default_factory=GenerationMeta)

    def __post_init__(self):
        X = np.asfortranarray(np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be a matrix, got shape {X.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise InputError("need n >= 1 and p >= 1")
        _check_finite("X", X)
        y = _as_vector("y", self.y, n)
        _check_finite("y", y)
        object.__setattr__(self, "y", y)
        if self.truth is not None:
            t = self.truth
            if t.beta_star.shape[0] != p:
                raise DimensionMismatchError("beta_star length must equal p")
            if t.e_star.shape[0] != n:
                raise DimensionMismatchError("e_star length must equal n")
            recon = X @ t.beta_star + np.sqrt(n) * t.e_star + t.w
            err = np.linalg.norm(y - recon)
            scale = max(np.linalg.norm(y), 1e-300)
            if err / scale > _RECONSTRUCTION_RTOL:
                raise InputError(
                    f"truth does not reproduce y: relative reconstruction error {err / scale:.3e}"
                )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def to_json(self) -> str:
        return json.dumps(instance_to_dict(self))

    @staticmethod
    def from_json(text: str) -> "ProblemInstance":
        return instance_from_dict(json.loads(text))


@dataclass(frozen=True)
class Solution:
    """Solver output for one extended-Lasso problem.  converged: kkt_residual
    <= tol_kkt, so every off-support scaled dual |z| <= 1 + tol_kkt; certified
    (kkt_check) also needs strict feasibility, off-support |z| < 1 - 1e-12."""

    beta_hat: np.ndarray
    e_hat: np.ndarray
    lambda_beta: float
    lambda_e: float
    objective: float
    iterations: int  # feature-sign steps; 0 if batch steps settle every level
    converged: bool
    kkt_residual: float
    stop: Optional[str] = None  # a STOP_REASONS entry when not converged

    def __post_init__(self):
        check_finite_positive("lambda_beta", self.lambda_beta)
        check_finite_positive("lambda_e", self.lambda_e)
        _check_finite("beta_hat", self.beta_hat)
        _check_finite("e_hat", self.e_hat)
        if self.stop not in (None, *STOP_REASONS):
            raise InputError(f"stop must be one of {STOP_REASONS} or None, "
                             f"got {self.stop!r}")

    def validate_objective(self, instance: ProblemInstance, rtol: float = 1e-10) -> None:
        """Check the stored objective against a recomputation from the fields;
        InputError unless rtol is finite and >= 0."""
        check_finite_positive("rtol", rtol, zero_ok=True)
        obj = objective_value(instance, self.beta_hat, self.e_hat,
                              self.lambda_beta, self.lambda_e)
        if abs(obj - self.objective) > rtol * max(1.0, abs(obj)):
            raise NumericError(
                f"stored objective {self.objective!r} != recomputed {obj!r}"
            )

    def to_json(self) -> str:
        return json.dumps(solution_to_dict(self))

    @staticmethod
    def from_json(text: str) -> "Solution":
        return solution_from_dict(json.loads(text))


@dataclass(frozen=True)
class SignedSupport:
    """Vector of {-1, 0, +1} signs with the tolerance used to call zeros."""

    signs: np.ndarray
    zero_tol: float

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.signs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedSupport):
            return NotImplemented
        return self.signs.shape == other.signs.shape and bool(
            np.all(self.signs == other.signs)
        )


def extract_signed_support(x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignedSupport:
    """Signs of x with entries of magnitude <= zero_tol called zero."""
    if zero_tol < 0:
        raise InputError("zero_tol must be >= 0")
    v = np.asarray(x, dtype=np.float64)
    _check_finite("x", v)
    signs = np.where(np.abs(v) > zero_tol, np.sign(v), 0.0).astype(np.int8)
    return SignedSupport(signs=signs, zero_tol=zero_tol)


def residual_objective(r, beta, e, lambda_beta: float,
                       lambda_e: float) -> float:
    """The objective from its residual r = y - X beta - sqrt(n) e, as a float:
    (1/2n)||r||^2 + lambda_beta ||beta||_1 + lambda_e ||e||_1."""
    return 0.5 / r.shape[0] * float(r @ r) \
        + lambda_beta * float(np.abs(beta).sum()) \
        + lambda_e * float(np.abs(e).sum())


def _row_blocks(X, T, dtype):
    """(rows, X[rows, T] in dtype) for consecutive blocks of _ROWS rows, so
    that X[:, T] is read without an n x |T| copy."""
    for i in range(0, X.shape[0], _ROWS):
        rows = slice(i, i + _ROWS)
        yield rows, X[rows, T].astype(dtype, copy=False)


def _residual(X, y, beta, e, T):
    """y - X beta - sqrt(n) e in the dtype of beta, where beta is zero off
    the columns T: O(n |T|) work, in row blocks."""
    dt = beta.dtype
    rn = np.sqrt(dt.type(X.shape[0]))
    r = np.empty(X.shape[0], dtype=dt)
    for rows, XbT in _row_blocks(X, T, dt):
        r[rows] = y[rows] - XbT @ beta[T] - rn * e[rows]
    return r


def objective_value(instance: ProblemInstance, beta, e,
                    lambda_beta: float, lambda_e: float) -> float:
    """(1/2n)||y - X beta - sqrt(n) e||^2 + lambda_beta ||beta||_1 + lambda_e ||e||_1.

    The residual is summed over the support columns of beta only, in row
    blocks (_residual): the skipped columns add exact zeros, and an
    extended-precision beta converts _ROWS rows of X at a time, not X."""
    check_finite_positive("lambda_beta", lambda_beta)
    check_finite_positive("lambda_e", lambda_e)
    n, p = instance.X.shape
    dtype = np.result_type(np.asarray(beta).dtype, np.float64)
    b = _as_vector("beta", beta, p, dtype=dtype)
    ev = _as_vector("e", e, n, dtype=dtype)
    y = instance.y.astype(dtype, copy=False)
    r = _residual(instance.X, y, b, ev, np.flatnonzero(b))
    val = residual_objective(r, b, ev, lambda_beta, lambda_e)
    if not np.isfinite(val):
        raise NumericError("objective is non-finite")
    return val


# ---------------------------------------------------------------------------
# JSON serialization.  Arrays are base-64 raw little-endian IEEE-754 doubles;
# matrices are stored column-major.  Field names are documented in README.md.
# ---------------------------------------------------------------------------

SCHEMA_INSTANCE = "extlasso/instance-v1"
SCHEMA_SOLUTION = "extlasso/solution-v1"


def _encode_array(a: np.ndarray) -> dict:
    a64 = np.asarray(a, dtype="<f8")
    raw = a64.tobytes(order="F")
    return {"shape": list(a64.shape), "data": base64.b64encode(raw).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(d["data"])
        a = np.frombuffer(raw, dtype="<f8").reshape(d["shape"], order="F")
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InputError(f"array data does not fit shape {d['shape']!r}: "
                         f"{exc}") from None
    return np.array(a, dtype=np.float64, order="F" if a.ndim == 2 else "C")


def instance_to_dict(inst: ProblemInstance) -> dict:
    d = {
        "schema": SCHEMA_INSTANCE,
        "n": inst.n,
        "p": inst.p,
        "k": inst.truth.k if inst.truth else None,
        "s": inst.truth.s if inst.truth else None,
        "seed": list(inst.meta.seed),
        "covariance": inst.meta.covariance,
        "regime": inst.meta.regime,
        "corruption_mode": inst.meta.corruption_mode,
        "extra": inst.meta.extra,
        "X": _encode_array(inst.X),
        "y": _encode_array(inst.y),
        "truth": None,
    }
    if inst.truth is not None:
        d["truth"] = {
            "beta_star": _encode_array(inst.truth.beta_star),
            "e_star": _encode_array(inst.truth.e_star),
            "w": _encode_array(inst.truth.w),
            "sigma": inst.truth.sigma,
        }
    return d


def instance_from_dict(d: dict) -> ProblemInstance:
    if d.get("schema") != SCHEMA_INSTANCE:
        raise InputError(f"unrecognized instance schema: {d.get('schema')!r}")
    truth = None
    if d.get("truth") is not None:
        t = d["truth"]
        truth = GroundTruth(
            beta_star=_decode_array(t["beta_star"]),
            e_star=_decode_array(t["e_star"]),
            w=_decode_array(t["w"]),
            sigma=float(t["sigma"]),
        )
    meta = GenerationMeta(
        seed=tuple(d.get("seed", ())),
        covariance=d.get("covariance", {}),
        regime=d.get("regime", ""),
        corruption_mode=d.get("corruption_mode", ""),
        extra=d.get("extra", {}),
    )
    return ProblemInstance(X=_decode_array(d["X"]), y=_decode_array(d["y"]),
                           truth=truth, meta=meta)


def solution_to_dict(sol: Solution) -> dict:
    return {
        "schema": SCHEMA_SOLUTION,
        "beta_hat": _encode_array(sol.beta_hat),
        "e_hat": _encode_array(sol.e_hat),
        "lambda_beta": sol.lambda_beta,
        "lambda_e": sol.lambda_e,
        "objective": sol.objective,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "kkt_residual": sol.kkt_residual,
        "stop": sol.stop,
    }


def solution_from_dict(d: dict) -> Solution:
    if d.get("schema") != SCHEMA_SOLUTION:
        raise InputError(f"unrecognized solution schema: {d.get('schema')!r}")
    if not isinstance(d["converged"], bool):
        raise InputError(f"converged must be a JSON boolean, "
                         f"got {d['converged']!r}")
    return Solution(
        beta_hat=_decode_array(d["beta_hat"]),
        e_hat=_decode_array(d["e_hat"]),
        lambda_beta=float(d["lambda_beta"]),
        lambda_e=float(d["lambda_e"]),
        objective=float(d["objective"]),
        iterations=int(d["iterations"]),
        converged=d["converged"],
        kkt_residual=float(d["kkt_residual"]),
        stop=d.get("stop"),
    )
