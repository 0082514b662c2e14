"""Test-session set-up shared by ``tests/`` and ``perfbench/``.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy first loads it, and
a threaded GEMM may split its sums differently from a single-threaded one.
The byte-equality tests compare GEMMs of different shapes, so the session
runs single-threaded BLAS, as the benchmark does, unless the environment
already names a thread count.  The file sits at the root because pytest
imports it before any test module, and so before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
