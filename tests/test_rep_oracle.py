"""Representation matrices, truncated spectra, and the closed-form oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_eta import cli
from rumin_eta.rep_oracle import (
    GenericRepParams,
    GradedMetric,
    HermitianOperatorMatrix,
    IDENTITY_METRIC,
    SchrodingerParams,
    SpectralPairingError,
    TruncationConfig,
    closed_form_schrodinger_spectrum,
    default_truncation,
    generic_S,
    generic_scale,
    h2_weights,
    h3_weights,
    hermitian_eigenvalues,
    hodge_star3,
    scalar_S,
    schrodinger_S,
    schrodinger_scale,
    spectral_eta_partial,
    trusted_window,
)
from rumin_eta.tilde_eta import tilde_eta_direct

TWO_PI = 2.0 * math.pi


def test_metric_validation():
    with pytest.raises(ValueError):
        GradedMetric(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GradedMetric(1.0, -2.0, 1.0)
    assert GradedMetric(1.0, 2.0, 2.0).bg_proportional
    assert not GradedMetric(1.0, 2.0, 2.5).bg_proportional


def test_params_validation():
    with pytest.raises(ValueError):
        SchrodingerParams(hbar=0.0)
    with pytest.raises(ValueError):
        SchrodingerParams(hbar=1.0, orientation_sign=2)
    with pytest.raises(ValueError):
        GenericRepParams(lam=0.0, mu=0.0, nu=1.0)
    with pytest.raises(ValueError):
        TruncationConfig(basis_size=4, kernel_eps=1e-6, trusted_count=1)
    with pytest.raises(ValueError):
        TruncationConfig(basis_size=64, kernel_eps=1e-6, trusted_count=9)


def test_hermitian_wrapper_rejects_nonhermitian():
    bad = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=np.complex128)
    with pytest.raises(ValueError):
        HermitianOperatorMatrix(bad)


def test_hodge_star_transports_the_metric():
    """star maps the degree-3 inner product onto the degree-2 one."""
    for g in (IDENTITY_METRIC, GradedMetric(2.0, 0.5, 3.0), GradedMetric(0.3, 1.0, 1.0)):
        star = hodge_star3(g)
        h2 = np.diag(h2_weights(g))
        h3 = np.diag(h3_weights(g))
        assert np.max(np.abs(star.T @ h2 @ star - h3)) < 1e-14


def test_scalar_matrix_shape_and_reference_eigenvalue():
    mat = scalar_S(1.0, 0.0, IDENTITY_METRIC)
    assert mat.dim == 3
    eigs = np.linalg.eigvalsh(mat.entries)
    want = 2.0 * math.sqrt(2.0) * math.pi**2
    assert eigs[0] == pytest.approx(-want, rel=1e-14)
    assert abs(eigs[1]) < 1e-14 * want
    assert eigs[2] == pytest.approx(want, rel=1e-14)
    # both horizontal directions on: gap grows from 4 pi^2/sqrt(2) to 4 pi^2 sqrt(2)
    both = np.linalg.eigvalsh(scalar_S(1.0, 1.0, IDENTITY_METRIC).entries)
    assert both[2] == pytest.approx(2.0 * want, rel=1e-13)


def test_scalar_spectrum_structure_random():
    rng = np.random.default_rng(5)
    for _ in range(8):
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        g = GradedMetric(*rng.uniform(0.2, 3.0, size=3))
        arr = scalar_S(alpha, beta, g).entries
        assert np.array_equal(arr, arr.conj().T)
        e0, e1, e2 = np.linalg.eigvalsh(arr)
        top = max(abs(e0), abs(e2), 1e-30)
        assert abs(e0 + e2) <= 1e-12 * top
        assert abs(e1) <= 1e-12 * top


def test_schrodinger_matrix_is_hermitian_by_construction():
    mat = schrodinger_S(SchrodingerParams(hbar=0.7), GradedMetric(1.3, 0.8, 0.8), 24)
    arr = mat.entries
    assert arr.shape == (72, 72)
    assert np.array_equal(arr, arr.conj().T)


def test_planck_sign_conjugation_identity():
    """Flipping hbar conjugates by the middle-block sign and negates."""
    n = 20
    g = GradedMetric(1.0, 1.0, 1.0)
    plus = schrodinger_S(SchrodingerParams(hbar=1.5), g, n).entries
    minus = schrodinger_S(SchrodingerParams(hbar=-1.5), g, n).entries
    u = np.diag(np.concatenate([np.ones(n), -np.ones(n), np.ones(n)]))
    assert np.array_equal(minus, -(u @ plus @ u))
    # consequence: the spectrum negates, up to rounding on each side
    ep = np.sort(hermitian_eigenvalues(schrodinger_S(SchrodingerParams(hbar=1.5), g, n)))
    em = np.sort(hermitian_eigenvalues(schrodinger_S(SchrodingerParams(hbar=-1.5), g, n)))
    scale = np.max(np.abs(ep))
    assert np.max(np.abs(em + ep[::-1])) <= 1e-13 * scale


def test_metric_scaling_is_exact_for_power_of_two():
    # scaling every weight by 4 divides the operator by 2, bitwise
    params = SchrodingerParams(hbar=1.0)
    a = schrodinger_S(params, GradedMetric(1.0, 1.0, 1.0), 16).entries
    b = schrodinger_S(params, GradedMetric(4.0, 4.0, 4.0), 16).entries
    assert np.array_equal(b, 0.5 * a)


def test_closed_form_list_structure():
    vals = closed_form_schrodinger_spectrum(SchrodingerParams(hbar=1.0),
                                            IDENTITY_METRIC, 3)
    assert len(vals) == 6
    assert -TWO_PI in vals
    # n=1 pair is (-2 pi, 7 pi) up to an ulp in the second entry
    best = min(abs(v - 7.0 * math.pi) for v in vals)
    assert best <= 4e-15 * 7.0 * math.pi
    pref_scaled = closed_form_schrodinger_spectrum(
        SchrodingerParams(hbar=-1.0), IDENTITY_METRIC, 3
    )
    assert sorted(pref_scaled) == sorted(-v for v in vals)


def test_truncated_spectrum_hits_closed_form():
    params = SchrodingerParams(hbar=1.0)
    n = 96
    eigs = hermitian_eigenvalues(schrodinger_S(params, IDENTITY_METRIC, n))
    cfg = default_truncation(n, schrodinger_scale(params, IDENTITY_METRIC))
    trusted = sorted(trusted_window(eigs, cfg), key=abs)
    exact = sorted(closed_form_schrodinger_spectrum(params, IDENTITY_METRIC, 24), key=abs)
    assert len(trusted) == cfg.trusted_count
    for t, e in zip(trusted[:8], exact):
        assert t == pytest.approx(e, rel=1e-11)


def test_trusted_window_drops_kernel_and_edges():
    params = SchrodingerParams(hbar=1.0)
    n = 48
    eigs = hermitian_eigenvalues(schrodinger_S(params, IDENTITY_METRIC, n))
    cfg = default_truncation(n, schrodinger_scale(params, IDENTITY_METRIC))
    kernel = [e for e in eigs if abs(e) < cfg.kernel_eps]
    # the kernel carries about one zero mode per oscillator level
    assert n - 4 <= len(kernel) <= n + 4
    trusted = trusted_window(eigs, cfg)
    assert all(abs(t) >= cfg.kernel_eps for t in trusted)
    assert len(trusted) == cfg.trusted_count


def test_spectral_eta_partial_matches_series():
    params = SchrodingerParams(hbar=1.0)
    count = 50
    eigs = np.asarray(closed_form_schrodinger_spectrum(params, IDENTITY_METRIC, count))
    for s in (3.0, 4.5):
        got = spectral_eta_partial(eigs, s, 1e-9)
        want = TWO_PI ** (-s) * tilde_eta_direct(s, 1.25, count)[0]
        assert got == pytest.approx(want.real, rel=1e-12), s


def test_spectral_eta_partial_excludes_small_modes():
    eigs = np.array([-2.0, -1e-12, 1e-12, 2.0])
    assert spectral_eta_partial(eigs, 3.0, 1e-6) == 0.0


def test_generic_matrix_even_in_horizontal_parameters():
    g = GradedMetric(1.0, 1.0, 1.0)
    a = generic_S(GenericRepParams(1.0, 0.5, 0.3), g, 12).entries
    b = generic_S(GenericRepParams(-1.0, -0.5, 0.3), g, 12).entries
    assert np.array_equal(a, b)


def test_generic_spectrum_symmetric_for_balanced_metric():
    params = GenericRepParams(1.0, 1.0, 0.0)
    g = GradedMetric(1.0, 1.0, 1.0)
    n = 64
    eigs = hermitian_eigenvalues(generic_S(params, g, n))
    cfg = default_truncation(n, generic_scale(params, g))
    trusted = np.sort(np.asarray(trusted_window(eigs, cfg)))
    folded = trusted + trusted[::-1]
    assert np.max(np.abs(folded)) <= 1e-9 * np.max(np.abs(trusted))


def test_hermitian_eigenvalues_on_known_matrix():
    # 2x2 with eigenvalues 1 and 3, complex off-diagonal
    arr = np.array([[2.0, 1.0j], [-1.0j, 2.0]], dtype=np.complex128)
    got = hermitian_eigenvalues(HermitianOperatorMatrix(arr))
    assert np.allclose(np.sort(got), [1.0, 3.0], atol=1e-12)


def test_hermitian_eigenvalues_known_spectrum():
    # diag(1..5) conjugated by a complex unitary keeps its spectrum
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    arr = q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ q.conj().T
    arr = 0.5 * (arr + arr.conj().T)
    got = hermitian_eigenvalues(HermitianOperatorMatrix(arr))
    assert np.all(np.diff(got) > 0.0)
    assert np.allclose(got, [1, 2, 3, 4, 5], atol=1e-12)


def test_hermitian_eigenvalues_does_not_mutate_input():
    mat = generic_S(GenericRepParams(1.0, 0.5, 0.3), IDENTITY_METRIC, 8)
    keep = mat.entries.copy()
    hermitian_eigenvalues(mat)
    assert np.array_equal(mat.entries, keep)


def _patch_solver(monkeypatch, spoil):
    """Make the LAPACK call return spoil(eigenvalues)."""
    solve = scipy.linalg.eigvalsh
    monkeypatch.setattr(scipy.linalg, "eigvalsh", lambda *a, **kw: spoil(solve(*a, **kw)))


def _shift_top(w):
    # breaks the trace (and the norm)
    w = w.copy()
    w[-1] += 1e-9 * np.max(np.abs(w))
    return w


def _swap_mass(w):
    # keeps the trace, breaks the Frobenius norm
    w = w.copy()
    d = 1e-9 * np.max(np.abs(w))
    w[0] -= d
    w[-1] += d
    return w


def _nan_one(w):
    w = w.copy()
    w[len(w) // 2] = np.nan
    return w


@pytest.mark.parametrize("spoil", [_shift_top, _swap_mass, _nan_one])
def test_consistency_check_catches_a_bad_solver(monkeypatch, spoil):
    mat = schrodinger_S(SchrodingerParams(hbar=1.0), IDENTITY_METRIC, 16)
    assert hermitian_eigenvalues(mat).size == 48
    _patch_solver(monkeypatch, spoil)
    with pytest.raises(SpectralPairingError):
        hermitian_eigenvalues(mat)


@pytest.mark.parametrize("spoil", [_shift_top, _nan_one])
def test_spectrum_exits_3_on_a_bad_solver(monkeypatch, spoil):
    _patch_solver(monkeypatch, spoil)
    result = CliRunner().invoke(
        cli.main,
        ["spectrum", "--rep", "generic", "--lambda", "1", "--mu", "0.5",
         "--basis-size", "16"],
    )
    assert result.exit_code == 3
    assert "internal inconsistency" in result.stderr
    assert result.stdout == ""


def test_consistency_check_margin_on_oracle_matrices():
    # the check must pass well inside its bound on the oracle's own matrices
    eps = np.finfo(np.float64).eps
    for n in (16, 64):
        for mat in (
            schrodinger_S(SchrodingerParams(hbar=0.7), GradedMetric(1.3, 0.8, 1.1), n),
            generic_S(GenericRepParams(1.0, 0.5, 0.3), IDENTITY_METRIC, n),
        ):
            w = hermitian_eigenvalues(mat)
            fro = np.linalg.norm(mat.entries)
            tol = mat.dim * eps
            assert abs(w.sum() - mat.entries.diagonal().real.sum()) <= 0.2 * tol * fro
            assert abs(w @ w - fro * fro) <= 0.2 * tol * fro * fro


@settings(max_examples=8, deadline=None)
@given(hbar=st.floats(min_value=0.2, max_value=3.0))
def test_orientation_flip_negates_operator(hbar):
    g = GradedMetric(1.0, 1.0, 1.0)
    plus = schrodinger_S(SchrodingerParams(hbar=hbar, orientation_sign=1), g, 10).entries
    minus = schrodinger_S(SchrodingerParams(hbar=hbar, orientation_sign=-1), g, 10).entries
    assert np.array_equal(minus, -plus)
