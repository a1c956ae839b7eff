"""Recovering a sparse signal from grossly corrupted observations.

Half of the measurements are hit by corruption with arbitrarily large
magnitudes; the joint program still recovers both the regression vector and
the corruption pattern, because each receives its own l1 penalty:

    min  (1/2n) ||y - X beta - sqrt(n) e||^2
         + lambda_beta ||beta||_1 + lambda_e ||e||_1
"""
import numpy as np

import extlasso as xl

# a well-sampled operating point: p = 128 predictors, 8 of them active,
# and HALF the observations corrupted at 100x the signal scale
p, k = 128, 8
n = xl.n_from_theta(3.5, k, p)
s = n // 2
sigma = 0.1

inst = xl.gen_instance(n, p, k=k, s=s, sigma=sigma, seed=2025,
                       e_scale=100.0, beta_floor=0.3, e_floor=0.3)
print(f"n={n} observations, {s} of them corrupted (eta = {s/n:.2f})")

# penalties from the closed-form simulation family
lam_b, lam_e = xl.lambdas_simulation(sigma, n, p)
print(f"lambda_beta = {lam_b:.4f}, lambda_e = {lam_e:.4f}")

sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
print(f"solved in {sol.iterations} feature-sign steps, "
      f"KKT residual {sol.kkt_residual:.1e}")

met = xl.recovery_metrics(inst, sol)
print(f"beta signed support exact: {met.signed_support_beta}")
print(f"e    signed support exact: {met.signed_support_e}")
print(f"l2 errors: beta {met.l2_beta:.4f}, e {met.l2_e:.4f}")
print(f"prediction error ||X(beta_hat - beta*)||/sqrt(n) = "
      f"{met.prediction_error:.4f}")

# compare: a standard Lasso that ignores the corruption structure
beta_plain = xl.solve_standard_lasso(inst.X, inst.y, lam_b)
err_plain = np.linalg.norm(beta_plain - inst.truth.beta_star)
print(f"\nstandard Lasso on the same data: l2 error {err_plain:.2f} "
      f"(vs {met.l2_beta:.4f} for the joint program)")
