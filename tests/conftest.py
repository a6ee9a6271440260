"""Test-session set-up shared by every tier-1 test module."""

import os

import pytest

# Pin BLAS to one thread before any test module imports numpy. With
# OpenBLAS's default of one thread per CPU, batched eigh stacks slow down
# several times over when another CPU-bound process competes for the CPUs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def reductions(monkeypatch):
    """Each series reduction a single-graph solve tries, in order: a copy of
    the vector it gave, or None where it was refused."""
    from fspectra import spectral

    tried = []
    real = spectral._reduced

    def reduced(*args):
        x = real(*args)
        tried.append(None if x is None else x.copy())
        return x

    monkeypatch.setattr(spectral, "_reduced", reduced)
    return tried


@pytest.fixture
def kernels(monkeypatch):
    """The kernel of each series reduction a single-graph solve builds,
    checked against removing one vertex at a time (``peeled_kernel``):
    chains first, then the skeleton, leave the same kernel."""
    from fspectra import spectral
    from helpers import peeled_kernel

    built = []
    real = spectral._series

    def series(M, root):
        reduction = real(M, root)
        adjacent = [set() for _ in range(M.n)]
        for a, b in zip(M.rows.tolist(), M.cols.tolist()):
            adjacent[a].add(b)
        assert reduction.kernel == peeled_kernel(adjacent, root)
        built.append(reduction.kernel)
        return reduction

    monkeypatch.setattr(spectral, "_series", series)
    return built
