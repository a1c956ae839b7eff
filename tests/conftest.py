"""Session-wide test setup, loaded by pytest before any test module."""
import os

# The criterion-2 fixture forks its own worker processes, and each forked
# worker keeps this process's OpenBLAS thread pool, sized to the whole
# machine; on a 2-core host those threads oversubscribe the cores.  (Pooled
# sweeps, run_sweep with n_workers > 1, start their workers with one BLAS
# thread themselves.)  One BLAS thread per process is set here, before numpy
# is first imported; a value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
