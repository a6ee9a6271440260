"""Test-session set-up shared by every tier-1 test module."""

import os

# Pin BLAS to one thread before any test module imports numpy. With
# OpenBLAS's default of one thread per CPU, batched eigh stacks slow down
# several times over when another CPU-bound process competes for the CPUs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
