"""Settings shared by every test module."""

import os

# One BLAS thread per process, set before numpy loads. A second thread
# barely speeds up the small matrix products here, and criterion 7 runs
# its cells through run_experiment in one forked worker per core, where a
# second thread in each worker would oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
