"""Settings shared by every test module."""

import os

# One BLAS thread per call, set before numpy loads, unless the environment
# sets it. A second thread barely speeds up the small matrix products here,
# and criterion 7 runs its cells through run_experiment on one thread per
# core, where a second BLAS thread for each cell would oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
