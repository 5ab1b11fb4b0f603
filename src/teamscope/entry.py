"""The ``teamscope`` command: :func:`teamscope.cli.main` with one BLAS thread unless the environment sets one.

A model file's bytes depend on the BLAS thread count (see the README), and
OpenBLAS reads it once, as numpy loads. So each of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that is unset is set to 1 before
``cli`` imports numpy. ``import teamscope.cli`` and ``python -m teamscope.cli``
leave the environment as it is.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402  after the thread counts are set
