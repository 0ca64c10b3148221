"""Hermitian truncations of the middle-degree operator in irreducible
unitary representations of the (2,3,5) group, plus spectral utilities.

Matrices are assembled from closed-form infinite-matrix elements in the
harmonic oscillator basis, windowed to the leading ``basis_size`` modes.
Products of generators are never formed by multiplying truncated factors;
every block uses the exact band formulas of the full operator, which keeps
each truncation exactly Hermitian and confines the truncation error to the
top Hermite levels.  Only the ``trusted_count`` smallest-magnitude nonzero
eigenvalues of a truncation should be compared against exact spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GradedMetric",
    "SchrodingerParams",
    "GenericRepParams",
    "TruncationConfig",
    "HermitianOperatorMatrix",
    "SpectralPairingError",
    "IDENTITY_METRIC",
    "hodge_star3",
    "h2_weights",
    "h3_weights",
    "scalar_S",
    "schrodinger_S",
    "generic_S",
    "closed_form_schrodinger_spectrum",
    "hermitian_eigenvalues",
    "spectral_eta_partial",
    "trusted_window",
    "schrodinger_scale",
    "generic_scale",
    "default_truncation",
]


class SpectralPairingError(RuntimeError):
    """Eigenvalues failed the spectral consistency check.

    The computed spectrum must reproduce the trace and the squared Frobenius
    norm of the matrix to rounding; a violation means the solver or the
    Hermitian structure is broken, not that the input was invalid.
    """


@dataclass(frozen=True)
class GradedMetric:
    """Diagonal graded inner product: X1, X2 orthonormal and g(X4, X5) = 0."""

    g33: float
    g44: float
    g55: float

    def __post_init__(self):
        for name in ("g33", "g44", "g55"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def bg_proportional(self) -> bool:
        """Whether the degree-(-2,-3) block is proportional to the horizontal one."""
        return abs(self.g44 - self.g55) <= 1e-12 * max(self.g44, self.g55)


IDENTITY_METRIC = GradedMetric(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class SchrodingerParams:
    """Planck parameter and orientation sign of a Schrodinger representation."""

    hbar: float
    orientation_sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar != 0.0):
            raise ValueError("hbar must be nonzero and finite")
        if self.orientation_sign not in (-1, 1):
            raise ValueError("orientation_sign must be +1 or -1")


@dataclass(frozen=True)
class GenericRepParams:
    """Parameters (lambda, mu, nu) of a generic representation; stored as lam, mu, nu."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        for name in ("lam", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lam == 0.0 and self.mu == 0.0:
            raise ValueError("(lam, mu) must not be (0, 0)")


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation size, kernel threshold, and trusted interior window."""

    basis_size: int
    kernel_eps: float
    trusted_count: int

    def __post_init__(self):
        if self.basis_size < 8:
            raise ValueError("basis_size must be at least 8")
        if not (math.isfinite(self.kernel_eps) and self.kernel_eps > 0.0):
            raise ValueError("kernel_eps must be positive")
        # edge eigenvalues of a truncated unbounded operator are spurious
        if not (1 <= self.trusted_count * 8 <= self.basis_size):
            raise ValueError("trusted_count must satisfy 1 <= trusted_count <= basis_size/8")


class HermitianOperatorMatrix:
    """Dense complex square matrix validated for exact conjugate symmetry."""

    def __init__(self, entries):
        arr = np.ascontiguousarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.array_equal(arr, arr.conj().T):
            raise ValueError("matrix entries are not exactly conjugate symmetric")
        self.entries = arr
        self.dim = arr.shape[0]


def hodge_star3(g: GradedMetric) -> np.ndarray:
    """Degree-3 to degree-2 Hodge star on the cohomology bases, as a 3x3 matrix."""
    p = 1.0 / math.sqrt(g.g33)
    u = math.sqrt(g.g44 / g.g55)
    v = 2.0 * math.sqrt(g.g44 * g.g55) / (g.g44 + g.g55)
    w = math.sqrt(g.g55 / g.g44)
    return np.array(
        [
            [0.0, 0.0, p * u],
            [0.0, -p * v, 0.0],
            [p * w, 0.0, 0.0],
        ]
    )


def h2_weights(g: GradedMetric) -> np.ndarray:
    """Diagonal of the induced Hermitian inner product on degree-2 cohomology."""
    return np.array(
        [
            1.0 / g.g44,
            (g.g44 + g.g55) / (2.0 * g.g44 * g.g55),
            1.0 / g.g55,
        ]
    )


def h3_weights(g: GradedMetric) -> np.ndarray:
    """Diagonal of the induced inner product on degree-3 cohomology.

    Determined by requiring the star operator to be an isometry from the
    degree-3 to the degree-2 weights; the degree-2 diagonal is the displayed
    one and the star is anti-diagonal, so each weight transports across.
    """
    return np.array(
        [
            1.0 / (g.g33 * g.g44),
            2.0 / (g.g33 * (g.g44 + g.g55)),
            1.0 / (g.g33 * g.g55),
        ]
    )


def _metric_factors(g: GradedMetric):
    """Scalars (p, ca, cb, v) shared by all representation blocks."""
    p = 1.0 / math.sqrt(g.g33)
    ca = p * math.sqrt(g.g44 / (g.g44 + g.g55))
    cb = p * math.sqrt(g.g55 / (g.g44 + g.g55))
    v = 2.0 * math.sqrt(g.g44 * g.g55) / (g.g44 + g.g55)
    return p, ca, cb, v


def _sym_banded(n: int, bands: dict) -> np.ndarray:
    """Real symmetric matrix with values[j] at (j, j+offset) and its mirror."""
    m = np.zeros((n, n))
    for offset, values in bands.items():
        if offset == 0:
            np.fill_diagonal(m, values)
        else:
            idx = np.arange(n - offset)
            m[idx, idx + offset] = values
            m[idx + offset, idx] = values
    return m


def _antisym_banded(n: int, bands: dict) -> np.ndarray:
    """Real antisymmetric matrix: values[j] at (j, j+offset), negated mirror."""
    m = np.zeros((n, n))
    for offset, values in bands.items():
        idx = np.arange(n - offset)
        m[idx, idx + offset] = values
        m[idx + offset, idx] = -values
    return m


def _window_alpha(n: int) -> np.ndarray:
    """a + a^dag."""
    j = np.arange(n - 1, dtype=np.float64)
    return _sym_banded(n, {1: np.sqrt(j + 1.0)})


def _window_delta(n: int) -> np.ndarray:
    """a - a^dag."""
    j = np.arange(n - 1, dtype=np.float64)
    return _antisym_banded(n, {1: np.sqrt(j + 1.0)})


def _window_alpha_sq(n: int) -> np.ndarray:
    """(a + a^dag)^2 = a^2 + (a^dag)^2 + 2N + 1."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    return _sym_banded(n, {0: 2.0 * j + 1.0, 2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_delta_sq(n: int) -> np.ndarray:
    """(a - a^dag)^2 = a^2 + (a^dag)^2 - 2N - 1."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    return _sym_banded(n, {0: -(2.0 * j + 1.0), 2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_comm2(n: int) -> np.ndarray:
    """a^2 - (a^dag)^2."""
    j2 = np.arange(n - 2, dtype=np.float64)
    return _antisym_banded(n, {2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_alpha_quart(n: int) -> np.ndarray:
    """(a + a^dag)^4, exact pentadiagonal elements of the full operator."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    j4 = j[: n - 4]
    return _sym_banded(
        n,
        {
            0: 6.0 * j * j + 6.0 * j + 3.0,
            2: (4.0 * j2 + 6.0) * np.sqrt((j2 + 1.0) * (j2 + 2.0)),
            4: np.sqrt((j4 + 1.0) * (j4 + 2.0) * (j4 + 3.0) * (j4 + 4.0)),
        },
    )


def _window_cubic(n: int) -> np.ndarray:
    """(a - a^dag)(a + a^dag)^2 + (a + a^dag)^2 (a - a^dag)."""
    j1 = np.arange(n - 1, dtype=np.float64)
    j3 = np.arange(n - 3, dtype=np.float64)
    return _antisym_banded(
        n,
        {
            1: 2.0 * (j1 + 1.0) ** 1.5,
            3: 2.0 * np.sqrt((j3 + 1.0) * (j3 + 2.0) * (j3 + 3.0)),
        },
    )


def scalar_S(alpha: float, beta: float, g: GradedMetric) -> HermitianOperatorMatrix:
    """The operator in the scalar representation with frequencies (alpha, beta)."""
    p, ca, cb, _ = _metric_factors(g)
    four_pi_sq = 4.0 * math.pi**2
    x1_sq = four_pi_sq * cb * alpha * alpha
    x2_sq = four_pi_sq * ca * beta * beta
    cross = four_pi_sq * p * alpha * beta
    m = np.array(
        [
            [0.0, 1j * x2_sq, -1j * cross],
            [-1j * x2_sq, 0.0, 1j * x1_sq],
            [1j * cross, -1j * x1_sq, 0.0],
        ]
    )
    return HermitianOperatorMatrix(m)


def schrodinger_S(
    params: SchrodingerParams, g: GradedMetric, basis_size: int
) -> HermitianOperatorMatrix:
    """Truncation of the operator in the Schrodinger representation.

    The oscillator frequency 2*pi*|hbar| balances the two horizontal
    generators to equal operator norms, which is the best-conditioned
    truncation.  Every block below is the exact band form of the full
    operator, so the assembled matrix is exactly Hermitian by construction.
    """
    if basis_size < 8:
        raise ValueError("basis_size must be at least 8")
    n = basis_size
    p, ca, cb, v = _metric_factors(g)
    sgn = 1.0 if params.hbar > 0 else -1.0
    omega = 2.0 * math.pi * abs(params.hbar)
    # X1^2 = (omega/2)(a - a^dag)^2, X2^2 = -(omega/2)(a + a^dag)^2, X3 = i*sgn*omega
    bmat = _window_alpha_sq(n)
    dmat = _window_delta_sq(n)
    amat = _window_comm2(n)
    eye = np.eye(n)
    s = np.zeros((3 * n, 3 * n), dtype=np.complex128)
    blk01 = (1j * (ca * omega / 2.0)) * bmat
    blk12 = (-1j * (cb * omega / 2.0)) * dmat
    s[0:n, n : 2 * n] = blk01
    s[n : 2 * n, 0:n] = -blk01
    s[n : 2 * n, 2 * n : 3 * n] = blk12
    s[2 * n : 3 * n, n : 2 * n] = -blk12
    s[n : 2 * n, n : 2 * n] = (-1.5 * p * v * sgn * omega) * eye
    s[0:n, 2 * n : 3 * n] = (p * sgn * omega) * (1.5 * eye - 0.5 * amat)
    s[2 * n : 3 * n, 0:n] = (p * sgn * omega) * (1.5 * eye + 0.5 * amat)
    if params.orientation_sign < 0:
        s = -s
    return HermitianOperatorMatrix(s)


def generic_S(
    params: GenericRepParams, g: GradedMetric, basis_size: int
) -> HermitianOperatorMatrix:
    """Truncation of the operator in a generic representation.

    Oscillator frequency 2*pi*(lam^2 + mu^2)^(1/3); the quartic and cubic
    oscillator words entering the squares of the horizontal generators are
    written out as exact band matrices of the full operators.
    """
    if basis_size < 8:
        raise ValueError("basis_size must be at least 8")
    n = basis_size
    p, ca, cb, v = _metric_factors(g)
    d = (params.lam**2 + params.mu**2) ** (1.0 / 3.0)
    cl = params.lam / d
    cm = params.mu / d
    kappa = params.nu / (d * d)
    omega = 2.0 * math.pi * d
    pi_sq4 = 4.0 * math.pi**2

    theta = _window_alpha(n) / math.sqrt(2.0 * omega)
    deriv = math.sqrt(omega / 2.0) * _window_delta(n)
    deriv_sq = (omega / 2.0) * _window_delta_sq(n)
    theta_sq = _window_alpha_sq(n) / (2.0 * omega)
    theta_quart = _window_alpha_quart(n) / (4.0 * omega * omega)
    eye = np.eye(n)

    # t = (theta^2 + kappa)/2; ys = (deriv t + t deriv)/2, antisymmetric
    t_sq = 0.25 * (theta_quart + (2.0 * kappa) * theta_sq + (kappa * kappa) * eye)
    ys = _window_cubic(n) / (8.0 * math.sqrt(2.0 * omega)) + (0.5 * kappa) * deriv
    r1 = (cl * cl) * deriv_sq - (pi_sq4 * cm * cm) * t_sq
    r2 = (cm * cm) * deriv_sq - (pi_sq4 * cl * cl) * t_sq
    rw = (cl * cm) * deriv_sq + (pi_sq4 * cl * cm) * t_sq
    y1 = -4.0 * math.pi * cl * cm
    y2 = 4.0 * math.pi * cl * cm
    yw = 2.0 * math.pi * (cl * cl - cm * cm)

    s = np.zeros((3 * n, 3 * n), dtype=np.complex128)
    s[0:n, n : 2 * n] = (ca * y2) * ys - (1j * ca) * r2
    s[n : 2 * n, 0:n] = (-(ca * y2)) * ys + (1j * ca) * r2
    s[n : 2 * n, 2 * n : 3 * n] = (cb * y1) * ys - (1j * cb) * r1
    s[2 * n : 3 * n, n : 2 * n] = (-(cb * y1)) * ys + (1j * cb) * r1
    s[n : 2 * n, n : 2 * n] = (-3.0 * math.pi * d * p * v) * theta
    s[0:n, 2 * n : 3 * n] = (3.0 * math.pi * d * p) * theta - (p * yw) * ys + (1j * p) * rw
    s[2 * n : 3 * n, 0:n] = (3.0 * math.pi * d * p) * theta + (p * yw) * ys - (1j * p) * rw
    return HermitianOperatorMatrix(s)


def closed_form_schrodinger_spectrum(
    params: SchrodingerParams, g: GradedMetric, count: int
) -> list:
    """First ``count`` eigenvalue pairs of the Schrodinger-representation operator.

    Valid only when g44 = g55; each eigenvalue has multiplicity one.
    Returned ascending, 2*count values.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not g.bg_proportional:
        raise ValueError("closed form requires g44 = g55")
    pref = 2.0 * math.pi * params.hbar / (params.orientation_sign * math.sqrt(g.g33))
    values = []
    for n in range(count):
        root = math.sqrt(8.0 * (2 * n + 1) ** 2 + 9.0)
        values.append(pref * (5.0 - root) / 4.0)
        values.append(pref * (5.0 + root) / 4.0)
    values.sort()
    return values


def hermitian_eigenvalues(m: HermitianOperatorMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending (LAPACK zheevx).

    Asking for the eigenvalues in (-inf, inf] rather than for all of them
    makes LAPACK find them by bisection on the tridiagonal form (dstebz),
    which errs by about 2e-15 of the spectral radius on the oracle's
    matrices at N = 512, where the all-eigenvalue QR path (dsterf) errs
    by up to 1e-14.  The eigenvalues must reproduce the trace to
    dim*eps*||S||_F and the squared Frobenius norm to dim*eps*||S||_F^2,
    otherwise the computation is internally inconsistent.
    """
    import scipy.linalg  # deferred: only oracle commands pay for the import

    a = m.entries
    w = scipy.linalg.eigvalsh(a, subset_by_value=(-np.inf, np.inf), driver="evx")
    # the squared norm straight from the entries: squaring a rounded norm
    # would spend part of the bound at small dims
    fro_sq = float(np.vdot(a, a).real)
    fro = math.sqrt(fro_sq)
    tol = m.dim * np.finfo(np.float64).eps
    trace_err = abs(float(np.sum(w)) - float(np.sum(a.diagonal().real)))
    norm_err = abs(float(np.dot(w, w)) - fro_sq)
    if not (trace_err <= tol * fro and norm_err <= tol * fro_sq):
        raise SpectralPairingError(
            f"eigenvalues miss the trace by {trace_err:.3e} and the squared "
            f"Frobenius norm by {norm_err:.3e} at norm {fro:.3e}"
        )
    return w


def spectral_eta_partial(eigs, s, kernel_eps: float):
    """Signed power sum sum(sign(ev) |ev|^(-s)) over eigenvalues off the kernel."""
    if not (math.isfinite(kernel_eps) and kernel_eps > 0.0):
        raise ValueError("kernel_eps must be positive")
    s = complex(s)
    arr = np.asarray(eigs, dtype=np.float64)
    kept = arr[np.abs(arr) >= kernel_eps]
    if kept.size == 0:
        return 0.0 + 0.0j
    return complex(np.sum(np.sign(kept) * np.exp(-s * np.log(np.abs(kept)))))


def trusted_window(eigs, config: TruncationConfig) -> np.ndarray:
    """The trusted_count smallest-magnitude eigenvalues off the kernel."""
    arr = np.asarray(eigs, dtype=np.float64)
    nonzero = arr[np.abs(arr) >= config.kernel_eps]
    order = np.argsort(np.abs(nonzero), kind="stable")
    return nonzero[order[: config.trusted_count]]


def schrodinger_scale(params: SchrodingerParams, g: GradedMetric) -> float:
    """The frequency 2*pi*|hbar|/sqrt(g33) that sets the spectral unit."""
    return 2.0 * math.pi * abs(params.hbar) / math.sqrt(g.g33)


def generic_scale(params: GenericRepParams, g: GradedMetric) -> float:
    """The analogous spectral unit 2*pi*(lam^2+mu^2)^(1/3)/sqrt(g33)."""
    d = (params.lam**2 + params.mu**2) ** (1.0 / 3.0)
    return 2.0 * math.pi * d / math.sqrt(g.g33)


def default_truncation(basis_size: int, spectral_unit: float) -> TruncationConfig:
    """Kernel cut well below the smallest nonzero eigenvalue; N/8 trusted."""
    return TruncationConfig(
        basis_size=basis_size,
        kernel_eps=1e-6 * spectral_unit,
        trusted_count=max(1, basis_size // 8),
    )
