"""What importing the package sets for the whole process."""

import ctypes
import glob
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pineq
from pineq import autodiff

SRC = Path(__file__).resolve().parents[1] / "src"


def _openblas():
    """The path of numpy's bundled OpenBLAS, as a Linux or macOS wheel ships
    it, if it has a thread-count symbol; else None."""
    here = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "libscipy_openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "libscipy_openblas*"))):
        if hasattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_"):
            return path
    return None


OPENBLAS = _openblas()


@pytest.mark.skipif(OPENBLAS is None, reason="numpy does not bundle OpenBLAS here")
def test_import_sets_one_blas_thread_whatever_the_environment():
    script = (
        "import ctypes, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"get = ctypes.CDLL({OPENBLAS!r}).scipy_openblas_get_num_threads64_\n"
        "import numpy\n"
        "before = get()\n"
        "import pineq\n"
        "print(before, get())\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    # OpenBLAS caps the environment's count at the CPUs it may use
    assert out.split() == [str(min(2, autodiff._cpu_count())), "1"]


def test_import_without_bundled_openblas_changes_nothing(monkeypatch):
    # the lookup finds nothing, as with any other BLAS: the import succeeds
    # and leaves the thread count as it was
    lib = ctypes.CDLL(OPENBLAS) if OPENBLAS is not None else None
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(2)
    try:
        monkeypatch.setattr(glob, "glob", lambda *args, **kwargs: [])
        importlib.reload(pineq)
        if lib is not None:
            assert lib.scipy_openblas_get_num_threads64_() == 2
        monkeypatch.undo()
        importlib.reload(pineq)  # the real lookup pins it again
        if lib is not None:
            assert lib.scipy_openblas_get_num_threads64_() == 1
    finally:
        if lib is not None:
            lib.scipy_openblas_set_num_threads64_(1)
