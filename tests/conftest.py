"""Settings shared by every test module."""

import os

# Importing pineq sets numpy's bundled OpenBLAS to one thread; with MKL or
# an OpenMP BLAS it changes nothing, so ask those for one thread here, before
# numpy loads, unless the environment sets them. The bit-identity tests
# compare one-thread products.
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
