"""The oscillatory power sum kernel and the symmetric eigenvalue routine."""

import math

import numpy as np
import pytest

from rumin_eta import kernels


def test_backend_name_consistent():
    assert kernels.backend_name() == "numpy"


def test_sin_power_sum_small_cases_by_hand():
    # three terms at a=1/4, p=3: 1/1 + 0/8 - 1/27
    got = kernels.sin_power_sum(0.25, 3, 3)
    want = math.sin(math.pi / 2) + math.sin(math.pi) / 8.0 + math.sin(1.5 * math.pi) / 27.0
    assert got == pytest.approx(want, rel=1e-15)


def _term(a, p, n):
    return math.sin(2.0 * math.pi * ((n * a) % 1.0)) / float(n) ** p


def test_sin_power_sum_matches_scalar_loop():
    for a, p, n in [(0.25, 2, 1000), (0.3, 4, 5000), (6.0 / 7.0, 6, 250)]:
        want = math.fsum(_term(a, p, k) for k in range(1, n + 1))
        assert kernels.sin_power_sum(a, p, n) == pytest.approx(want, abs=1e-14), (a, p, n)
    # a sum past the first 1e6-term chunk adds exactly the terms beyond it
    head = kernels.sin_power_sum(0.3, 2, 1_000_000)
    full = kernels.sin_power_sum(0.3, 2, 1_000_004)
    tail = math.fsum(_term(0.3, 2, k) for k in range(1_000_001, 1_000_005))
    assert abs(tail) > 1e-13
    assert full - head == pytest.approx(tail, abs=1e-15)


def test_sym_eigenvalues_matches_lapack_random():
    # against the general (nonsymmetric) solver, a different LAPACK path
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 10, 60):
        base = rng.standard_normal((n, n))
        sym = 0.5 * (base + base.T)
        got = kernels.sym_eigenvalues(sym)
        want = np.sort(np.linalg.eigvals(sym).real)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.all(np.diff(got) >= -1e-12 * scale)
        assert np.max(np.abs(got - want)) <= 1e-11 * scale, n


def test_sym_eigenvalues_known_spectrum():
    # diag(1..5) conjugated by a rotation keeps its spectrum
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    mat = q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ q.T
    got = kernels.sym_eigenvalues(mat)
    assert np.allclose(got, [1, 2, 3, 4, 5], atol=1e-12)


def test_sym_eigenvalues_does_not_mutate_input():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((8, 8))
    sym = 0.5 * (base + base.T)
    keep = sym.copy()
    kernels.sym_eigenvalues(sym)
    assert np.array_equal(sym, keep)
