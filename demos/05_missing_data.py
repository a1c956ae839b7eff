"""Missing observations as a special case of sparse corruption.

When an observation is simply not recorded, its value is zero in y; in the
scaled model that corresponds to a corruption entry that exactly cancels
the signal, e*_i = -(X beta* + w)_i / sqrt(n).  The same joint program
recovers the regression vector and flags most of the missing observations,
not all: a missing row whose signal (X beta* + w)_i is small gives an
|e*_i| below about lambda_e, which the program does not tell from noise,
and a few observed rows are flagged too.  Here it flags 373 of the 412
missing rows, with 18 spurious.
"""
import numpy as np

import extlasso as xl

p, k = 96, 6
n = xl.n_from_theta(2.5, k, p)
s = n // 5  # a fifth of the observations lost
inst = xl.gen_instance(n, p, k=k, s=s, sigma=0.05, seed=11,
                       corruption_mode="missing", beta_floor=0.3)
print(f"{s} of {n} observations missing; y is exactly zero there: "
      f"{bool(np.all(inst.y[inst.truth.S] == 0))}")

lam_b, lam_e = xl.lambdas_simulation(0.05, n, p)
sol = xl.solve_extended_lasso(inst, lam_b, lam_e)
met = xl.recovery_metrics(inst, sol)

found = set(np.flatnonzero(
    xl.extract_signed_support(sol.e_hat).signs != 0))
true_missing = set(inst.truth.S.tolist())
print(f"recovered beta support exactly: {met.signed_support_beta}")
print(f"missing rows flagged: {len(found & true_missing)}/{s} "
      f"(spurious: {len(found - true_missing)})")
print(f"beta l2 error: {met.l2_beta:.4f}")
