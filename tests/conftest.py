"""Test-session set-up shared by every tier-1 test module."""

import os

import pytest

# Pin BLAS to one thread before any test module imports numpy. With
# OpenBLAS's default of one thread per CPU, batched eigh stacks slow down
# several times over when another CPU-bound process competes for the CPUs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def folds(monkeypatch):
    """Each fold a single-graph solve tries, in order: the ``spectral._Fold``
    it ran on, or None where the fold was refused."""
    from fspectra import spectral

    tried = []
    real = spectral._Fold.of

    def of(M):
        tried.append(real(M))
        return tried[-1]

    monkeypatch.setattr(spectral._Fold, "of", of)
    return tried
