"""The OpenBLAS kernels numpy runs on, such as ``SkylakeX`` or ``Haswell``.

numpy's wheels bundle one OpenBLAS built for many CPUs (``DYNAMIC_ARCH``).
When the library loads, it picks the kernels for the CPU it finds, or the
ones ``OPENBLAS_CORETYPE`` names.  A seeded run is byte-identical only on
the same kernels, so a claimed digest names them.  The name comes from
``scipy_openblas_get_corename64_`` in ``numpy.libs/libscipy_openblas64_*.so``
through ``ctypes``; it is ``unknown`` when that library or symbol is missing.

    python3 tools/blas_core.py
"""

import ctypes
import glob
import os

import numpy as np


def blas_core() -> str:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


if __name__ == "__main__":
    print(blas_core())
