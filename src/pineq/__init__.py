"""pineq: shelf-life grading of pineapples from tap audio and photos.

A numpy-backed library covering the full desk-scale pipeline: WAV/PPM
ingestion, tap-centered audio DSP down to log-Mel maps, image
preparation, corpus management with stratified splits and audio/visual
pair sampling, and two classifier families (CNN ensemble and a
cross-modal token encoder) trained with a small reverse-mode autodiff
core.

Importing the package sets numpy's bundled OpenBLAS to one thread, for the
whole process, whatever the environment says: pineq spreads its own work
over the CPUs (an op's samples, or an experiment's cells), and a one-thread
product rounds the same whatever the CPU count. The pin looks for the
``libscipy_openblas`` library that numpy 2 wheels bundle; with numpy 1.x,
as with any other BLAS, it does nothing.
"""

import ctypes
import glob
import os

import numpy as np

__version__ = "0.1.0"


def _pin_blas() -> None:
    """Set numpy's bundled OpenBLAS to one thread; without it, do nothing."""
    here = os.path.dirname(np.__file__)
    for lib in (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "libscipy_openblas*"))
                + glob.glob(os.path.join(here, ".dylibs", "libscipy_openblas*"))):
        set_threads = getattr(ctypes.CDLL(lib), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


_pin_blas()
