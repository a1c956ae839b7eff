"""A desk-scale phase-transition sweep.

Success probability of exact signed-support recovery (both vectors) against
the rescaled sample size theta, where n / ln(n) = 4 theta k ln(p - k), with
half the observations corrupted in every cell.

This miniature uses fewer trials and a coarse grid so it finishes in a
couple of minutes.  It runs the `simulation` penalty pair in two variants
side by side, and neither meets all the hypotheses of the signed-support
theorem:

  * plain Gaussian magnitudes (the floorless protocol), and
  * magnitudes floored at the thresholds f_beta / f_e.

The floorless curve is dominated by corruption entries drawn below the
penalty level lambda_e, which the estimator shrinks through zero, so it
stays near zero.  The floored curve rises but plateaus well below 1: the
simulation pair's ratio lambda_e / lambda_beta = 1 / sqrt(ln p) ignores the
corruption fraction, and the corrupted rows alone hold the off-support beta
dual near 1 at every n.  The operating point that meets the hypotheses (the
`support_recovery` pair with explicit floors, transition between theta = 2
and 8) is derived in notes/decisions.md and run by acceptance criterion 2;
see the README's operating-point section.
"""
import sys

from extlasso.experiments import SweepConfig, run_sweep, emit_curves

common = dict(p_list=(128,), regimes=("sublinear",),
              theta_grid=(0.25, 0.75, 1.5, 2.5, 3.5), trials=20,
              sigma=0.1, master_seed=7)


def main():
    floored = {"floor_beta": "f_beta", "floor_e": "f_e"}
    for label, extra in (("floorless", {}), ("floored", floored)):
        cfg = SweepConfig(**common, **extra)
        result = run_sweep(cfg, n_workers=2,
                           progress=lambda d, t: print(f"  {label}: {d}/{t}",
                                                       file=sys.stderr))
        print(f"\n{label} magnitudes:")
        print("  theta    n     success  beta-only  e-only")
        for cell in result.cells:
            print(f"  {cell.theta:5.2f} {cell.n:6d} {cell.success_rate:8.2f}"
                  f" {cell.successes_beta / cell.trials:10.2f}"
                  f" {cell.successes_e / cell.trials:8.2f}")
        paths = emit_curves(result, f"sweep_output_{label}", fmt="svg-data")
        print(f"  wrote {[str(p) for p in paths]}")


if __name__ == "__main__":  # the sweep's worker processes import this file
    main()
