"""extlasso: robust sparse regression with grossly corrupted observations.

Jointly estimates a sparse regression vector and a sparse per-observation
corruption vector by solving

    min_{beta, e}  (1/2n) ||y - X beta - sqrt(n) e||^2
                   + lambda_beta ||beta||_1 + lambda_e ||e||_1,

certifies optimality and signed-support recovery through the KKT system and
a primal-dual witness, evaluates the closed-form regularization/threshold
formulas of the underlying theory, and reproduces phase-transition
experiments at desk scale.
"""

__version__ = "0.1.0"

from .model import (DEFAULT_ZERO_TOL, GenerationMeta, GroundTruth, InputError,
                    NumericError, ProblemInstance, SignedSupport,
                    SingularMatrixError, Solution, extract_signed_support,
                    objective_value)
from .datagen import (CovarianceSpec, SparsityRegime, gen_design,
                      gen_instance, gen_sparse_vector, n_from_theta)
from .solver import (SolverConfig, restricted_solution, solve_extended_lasso,
                     solve_standard_lasso)
from .regparams import (CovarianceReport, IDENTITY_REPORT, LambdaPair,
                        TheoryInputs, covariance_report,
                        lambdas_gaussian_design, lambdas_noise_oracle,
                        lambdas_simulation, lambdas_support_recovery,
                        magnitude_thresholds, sample_size_achievable,
                        sample_size_unachievable)
from .diagnostics import (KktReport, ReEstimate, RecoveryMetrics,
                          WitnessReport, extended_re_estimate, kkt_check,
                          parameter_error_bound, primal_dual_witness,
                          recovery_metrics)
from .experiments import (ErrorScalingResult, SweepConfig, SweepResult,
                          curve_collapse_spread, emit_curves,
                          error_scaling_sweep, isotonic_fit,
                          monotone_trend_residual, read_curve_csv, run_sweep,
                          run_trial, wilson_interval)

__all__ = [name for name in dir() if not name.startswith("_")]
