"""Hermitian truncations of the middle-degree operator in irreducible
unitary representations of the (2,3,5) group, plus spectral utilities.

Matrices are assembled from closed-form infinite-matrix elements in the
harmonic oscillator basis, windowed to the leading ``basis_size`` modes.
Products of generators are never formed by multiplying truncated factors;
every block uses the exact band formulas of the full operator, which keeps
each truncation exactly Hermitian and confines the truncation error to the
top Hermite levels.  Only the trusted window of a truncation, its
basis_size/8 smallest-magnitude eigenvalues off the kernel, should be
compared against exact spectra; ``oracle_window`` builds, solves and cuts
a Schrodinger or generic truncation in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GradedMetric",
    "SchrodingerParams",
    "GenericRepParams",
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
    "closed_form_error",
    "hermitian_eigenvalues",
    "spectral_eta_partial",
    "trusted_window",
    "pairing_symmetry",
    "oracle_window",
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


class HermitianOperatorMatrix:
    """Hermitian matrix held as independent blocks in LAPACK lower band storage.

    ``blocks`` is a list of pairs (indices, band).  The indices of all
    blocks together are a permutation of range(dim); entries coupling two
    blocks are zero.  Read in the order of its indices, a block is a band
    of half-width kd = band.shape[0] - 1 with band[d, j] at (j + d, j); the
    padded bottom-right triangle (j + d >= block size) holds zeros.  An
    order that makes each block narrow makes the solve cheap.

    ``schrodinger_S`` and ``generic_S`` write their bands directly:
    Schrodinger, in the basis (e_j, i*e_j, e_j) of its three blocks, as two
    real blocks, one per oscillator level parity; generic as one complex
    block.  ``scalar_S`` and other dense input go through the constructor,
    which checks exact conjugate symmetry and makes one block in the
    natural order.  ``entries`` builds the dense complex matrix on demand.
    """

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.array_equal(arr, arr.conj().T):
            raise ValueError("matrix entries are not exactly conjugate symmetric")
        dim = arr.shape[0]
        rows, cols = np.nonzero(arr)
        kd = int(np.max(rows - cols, initial=0))
        band = np.zeros((kd + 1, dim), dtype=np.complex128)
        for d in range(kd + 1):
            band[d, : dim - d] = np.diagonal(arr, -d)
        self.dim = dim
        self.blocks = [(np.arange(dim), band)]

    @classmethod
    def from_blocks(cls, blocks):
        """The matrix of the given (indices, band) blocks, taken as they are."""
        self = object.__new__(cls)
        self.blocks = list(blocks)
        self.dim = sum(idx.size for idx, _ in self.blocks)
        return self

    @property
    def entries(self) -> np.ndarray:
        """The dense complex matrix, built from the blocks on each access."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for idx, band in self.blocks:
            size = idx.size
            for d in range(band.shape[0]):
                values = band[d, : size - d]
                out[idx[: size - d], idx[d:]] = values.conj()
                out[idx[d:], idx[: size - d]] = values
        return out


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


class _Bands(dict):
    """An n x n band matrix by its diagonals, {offset: values}.

    values[k] sits at (k, k + offset) above the diagonal and at
    (k - offset, k) below it, so a symmetric band stores the same values at
    +offset and -offset.  Sums fill a missing diagonal with zeros, so each
    entry comes out of the same floating-point operations as the entry of
    the dense matrix would.  Scalars multiply from either side and divide
    from the right.
    """

    def _zip(self, other, op):
        keys = sorted(self.keys() | other.keys())
        return _Bands({o: op(self.get(o, 0.0), other.get(o, 0.0)) for o in keys})

    def __add__(self, other):
        return self._zip(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._zip(other, lambda x, y: x - y)

    def __mul__(self, c):
        return _Bands({o: c * v for o, v in self.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return _Bands({o: v / c for o, v in self.items()})

    def __neg__(self):
        return _Bands({o: -v for o, v in self.items()})


def _sym_bands(bands: dict) -> _Bands:
    """Real symmetric band: values[j] at (j, j+offset) and its mirror."""
    out = _Bands(bands)
    out.update({-o: v for o, v in bands.items() if o})
    return out


def _antisym_bands(bands: dict) -> _Bands:
    """Real antisymmetric band: values[j] at (j, j+offset), negated mirror."""
    out = _Bands(bands)
    out.update({-o: -v for o, v in bands.items()})
    return out


def _window_eye(n: int) -> _Bands:
    """The identity."""
    return _Bands({0: np.ones(n)})


def _window_alpha(n: int) -> _Bands:
    """a + a^dag."""
    j = np.arange(n - 1, dtype=np.float64)
    return _sym_bands({1: np.sqrt(j + 1.0)})


def _window_delta(n: int) -> _Bands:
    """a - a^dag."""
    j = np.arange(n - 1, dtype=np.float64)
    return _antisym_bands({1: np.sqrt(j + 1.0)})


def _window_alpha_sq(n: int) -> _Bands:
    """(a + a^dag)^2 = a^2 + (a^dag)^2 + 2N + 1."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    return _sym_bands({0: 2.0 * j + 1.0, 2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_delta_sq(n: int) -> _Bands:
    """(a - a^dag)^2 = a^2 + (a^dag)^2 - 2N - 1."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    return _sym_bands({0: -(2.0 * j + 1.0), 2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_comm2(n: int) -> _Bands:
    """a^2 - (a^dag)^2."""
    j2 = np.arange(n - 2, dtype=np.float64)
    return _antisym_bands({2: np.sqrt((j2 + 1.0) * (j2 + 2.0))})


def _window_alpha_quart(n: int) -> _Bands:
    """(a + a^dag)^4, exact pentadiagonal elements of the full operator."""
    j = np.arange(n, dtype=np.float64)
    j2 = j[: n - 2]
    j4 = j[: n - 4]
    return _sym_bands(
        {
            0: 6.0 * j * j + 6.0 * j + 3.0,
            2: (4.0 * j2 + 6.0) * np.sqrt((j2 + 1.0) * (j2 + 2.0)),
            4: np.sqrt((j4 + 1.0) * (j4 + 2.0) * (j4 + 3.0) * (j4 + 4.0)),
        }
    )


def _window_cubic(n: int) -> _Bands:
    """(a - a^dag)(a + a^dag)^2 + (a + a^dag)^2 (a - a^dag)."""
    j1 = np.arange(n - 1, dtype=np.float64)
    j3 = np.arange(n - 3, dtype=np.float64)
    return _antisym_bands(
        {
            1: 2.0 * (j1 + 1.0) ** 1.5,
            3: 2.0 * np.sqrt((j3 + 1.0) * (j3 + 2.0) * (j3 + 3.0)),
        }
    )


def _block_operator(blocks: dict, n: int, stride: int) -> HermitianOperatorMatrix:
    """A 3x3 block operator on n oscillator levels per block, in band storage.

    ``blocks`` maps (a, b) to the _Bands of block row a, column b; index
    b*n + j is block b at level j.  The levels split into ``stride``
    classes mod stride, which no block may couple, and each class becomes
    one band block: position 3k+b holds block b at the k-th level of the
    class counted from the highest, so a block band of half-width w in the
    level becomes a band of half-width 3w/stride + 2.  Every entry below
    the diagonal is written from its own block and checked to equal the
    conjugate of its mirror, so the matrix is exactly Hermitian.
    """
    dtype = np.result_type(*(v for bands in blocks.values() for v in bands.values()))
    kd = max(abs(3 * o // stride + a - b) for (a, b), bands in blocks.items() for o in bands)
    out = []
    for r in range(stride):
        levels = np.arange(r, n, stride)
        top, dim = int(levels[-1]), 3 * levels.size
        lower = np.zeros((kd + 1, dim), dtype=dtype)
        mirror = np.zeros_like(lower)
        for (a, b), bands in blocks.items():
            for o, values in bands.items():
                if o % stride:
                    raise ValueError(f"offset {o} couples levels of different classes")
                row = np.arange(values.size) + max(-o, 0)
                keep = row % stride == r
                pos = 3 * ((top - row[keep]) // stride) + a
                d = 3 * o // stride + a - b
                if d >= 0:
                    lower[d, pos - d] = values[keep]
                if d <= 0:
                    mirror[-d, pos] = np.conj(values[keep])
        if not np.array_equal(lower, mirror):
            raise ValueError("blocks are not exactly conjugate symmetric")
        # position 3k+b holds index b*n + levels[-1-k]
        idx = (n * np.arange(3) + levels[::-1, None]).ravel()
        width = max(np.flatnonzero(np.any(lower != 0.0, axis=1)), default=0)
        out.append((idx, lower[: width + 1]))
    return HermitianOperatorMatrix.from_blocks(out)


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
    operator, so the matrix is exactly Hermitian by construction.

    The matrix is written in the basis (e_j, i*e_j, e_j) of the three
    blocks, that is conjugated by diag(1, i, 1), which makes every entry
    real.  The blocks couple level j only to j and j+-2, so even and odd
    levels never meet: the matrix is two real symmetric band blocks, one
    per level parity, each of half-width 5 with the highest level first.
    """
    if basis_size < 8:
        raise ValueError("basis_size must be at least 8")
    n = basis_size
    p, ca, cb, v = _metric_factors(g)
    sgn = 1.0 if params.hbar > 0 else -1.0
    omega = 2.0 * math.pi * abs(params.hbar)
    # X1^2 = (omega/2)(a - a^dag)^2, X2^2 = -(omega/2)(a + a^dag)^2, X3 = i*sgn*omega;
    # the (0,1) block i*c*B and the (1,2) block -i*c*D become -c*B and -c*D
    bmat = _window_alpha_sq(n)
    dmat = _window_delta_sq(n)
    amat = _window_comm2(n)
    eye = _window_eye(n)
    blk01 = (-(ca * omega / 2.0)) * bmat
    blk12 = (-(cb * omega / 2.0)) * dmat
    blocks = {
        (0, 1): blk01,
        (1, 0): blk01,
        (1, 2): blk12,
        (2, 1): blk12,
        (1, 1): (-1.5 * p * v * sgn * omega) * eye,
        (0, 2): (p * sgn * omega) * (1.5 * eye - 0.5 * amat),
        (2, 0): (p * sgn * omega) * (1.5 * eye + 0.5 * amat),
    }
    if params.orientation_sign < 0:
        blocks = {key: -bands for key, bands in blocks.items()}
    return _block_operator(blocks, n, stride=2)


def generic_S(
    params: GenericRepParams, g: GradedMetric, basis_size: int
) -> HermitianOperatorMatrix:
    """Truncation of the operator in a generic representation.

    Oscillator frequency 2*pi*(lam^2 + mu^2)^(1/3); the quartic and cubic
    oscillator words entering the squares of the horizontal generators are
    written out as exact band matrices of the full operators.  No diagonal
    phase makes this matrix real, and its odd offsets couple even and odd
    levels, so it is one complex band block of half-width 14, its three
    blocks interleaved by oscillator level with the highest level first.
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
    eye = _window_eye(n)

    # t = (theta^2 + kappa)/2; ys = (deriv t + t deriv)/2, antisymmetric
    t_sq = 0.25 * (theta_quart + (2.0 * kappa) * theta_sq + (kappa * kappa) * eye)
    ys = _window_cubic(n) / (8.0 * math.sqrt(2.0 * omega)) + (0.5 * kappa) * deriv
    r1 = (cl * cl) * deriv_sq - (pi_sq4 * cm * cm) * t_sq
    r2 = (cm * cm) * deriv_sq - (pi_sq4 * cl * cl) * t_sq
    rw = (cl * cm) * deriv_sq + (pi_sq4 * cl * cm) * t_sq
    y1 = -4.0 * math.pi * cl * cm
    y2 = 4.0 * math.pi * cl * cm
    yw = 2.0 * math.pi * (cl * cl - cm * cm)

    blocks = {
        (0, 1): (ca * y2) * ys - (1j * ca) * r2,
        (1, 0): (-(ca * y2)) * ys + (1j * ca) * r2,
        (1, 2): (cb * y1) * ys - (1j * cb) * r1,
        (2, 1): (-(cb * y1)) * ys + (1j * cb) * r1,
        (1, 1): (-3.0 * math.pi * d * p * v) * theta,
        (0, 2): (3.0 * math.pi * d * p) * theta - (p * yw) * ys + (1j * p) * rw,
        (2, 0): (3.0 * math.pi * d * p) * theta + (p * yw) * ys - (1j * p) * rw,
    }
    return _block_operator(blocks, n, stride=1)


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


def closed_form_error(trusted, params: SchrodingerParams, g: GradedMetric) -> float:
    """Largest relative error of trusted eigenvalues against the closed form.

    The trusted eigenvalues of a Schrodinger truncation and the closed-form
    values (``closed_form_schrodinger_spectrum``, so g44 = g55) are both
    sorted by magnitude and compared in that order.  An empty window gives 0.
    """
    by_abs = sorted(trusted, key=abs)
    if not by_abs:
        return 0.0
    exact = sorted(closed_form_schrodinger_spectrum(params, g, 2 * len(by_abs)), key=abs)
    return float(max(abs(t - e) / abs(e) for t, e in zip(by_abs, exact)))


def hermitian_eigenvalues(m: HermitianOperatorMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending (LAPACK ?sbevx/?hbevx).

    Each band block of the matrix is solved on its own, real ones by
    dsbevx and complex ones by zhbevx, and the eigenvalues are merged.
    ``schrodinger_S``, written in the basis (e_j, i*e_j, e_j), is two real
    blocks of half-width 5, one per oscillator level parity; ``generic_S``
    is one complex block of half-width 14.  LAPACK reduces a band to
    tridiagonal form in O(kd * dim^2) instead of the dense O(dim^3).
    Asking for the eigenvalues in (-inf, inf] rather than for all of them
    makes it find them by bisection (dstebz, abstol 0), which returns them
    in ascending order and is more accurate than the all-eigenvalue QR path
    (dsterf).  The oracle's bands put the highest oscillator level, where
    the entries are largest, first: the reduction starts there.  Against
    extended-precision Rayleigh quotients at N = 512 this errs by 8.7e-15
    (Schrodinger, skewed metric), 1.1e-14 (proportional) and 1.1e-15
    (generic) of the spectral radius, where the lowest level first errs by
    up to 3.1e-14.

    A LAPACK failure or a missing eigenvalue raises.  The eigenvalues must
    reproduce the trace to tol*||S||_F and the squared Frobenius norm to
    tol*||S||_F^2, both read off the bands, with tol = (dim + 16)*eps;
    otherwise the computation is internally inconsistent.

    The bound, to first order: with d_i the error of the i-th eigenvalue,
    the checks see sum d_i and 2 sum lambda_i d_i, plus the rounding of
    four sums.  Part of d_i does not shrink with the dimension.  Bisection
    returns the rounded midpoint of an interval of relative width 2 eps,
    1.5 eps |lambda_i| off, and its Sturm counts are exact for off-diagonal
    entries perturbed by 2.5 eps relative (Demmel, Dhillon and Ren, ETNA 3,
    1995), which moves an eigenvalue by up to 5 eps ||S||_2.  With one
    dominant eigenvalue, lambda ~ ||S||_F, that is 2 (5 + 1.5) = 13 eps in
    the norm check (6.5 in the trace) at any dimension; squares and sums add
    under 3 more: 16.  The rest grows with the rotations of the band
    reduction and the Sturm steps, within dim*eps (at most 0.06*dim*eps on
    the oracle's matrices up to N = 1024).  Seeded random Hermitian
    matrices of dimension 2 to 256, plain and graded by up to e^12, reach
    9 and 25 eps; they exceed dim*eps alone at dimensions 2 to 5 (plain)
    and 2 to 16 (graded).
    """
    import scipy.linalg.lapack  # deferred: only oracle commands pay for the import

    parts = []
    trace = fro_sq = 0.0
    for idx, ab in m.blocks:
        routine = "zhbevx" if np.iscomplexobj(ab) else "dsbevx"
        (solver,) = scipy.linalg.lapack.get_lapack_funcs((routine[1:],), (ab,))
        w, _, count, _, info = solver(
            ab, -np.inf, np.inf, 1, idx.size, compute_v=0, range=1, lower=1,
            abstol=0.0, overwrite_ab=0,
        )
        if info != 0 or count != idx.size:
            raise SpectralPairingError(
                f"{routine} returned info={info} and {count} of {idx.size} eigenvalues"
            )
        parts.append(w)
        trace += float(np.sum(ab[0].real))
        # each subdiagonal stands for two entries; the padding is zero.  The
        # squared norm comes straight from the entries: squaring a rounded
        # norm would spend part of the bound at small dims
        fro_sq += 2.0 * float(np.vdot(ab, ab).real) - float(np.vdot(ab[0], ab[0]).real)
    w = np.sort(np.concatenate(parts))
    fro = math.sqrt(fro_sq)
    tol = (m.dim + 16) * np.finfo(np.float64).eps
    trace_err = abs(float(np.sum(w)) - trace)
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


def trusted_window(eigs, kernel_eps: float, count: int) -> np.ndarray:
    """The count smallest-magnitude eigenvalues with |ev| >= kernel_eps, ascending."""
    arr = np.asarray(eigs, dtype=np.float64)
    nonzero = arr[np.abs(arr) >= kernel_eps]
    order = np.argsort(np.abs(nonzero), kind="stable")
    return np.sort(nonzero[order[:count]])


def pairing_symmetry(trusted) -> float:
    """How far a trusted window is from symmetric about zero, relative.

    An odd window loses its largest-magnitude element (the positive one of
    an exact +/- tie); the rest, sorted, gives max|arr + arr[::-1]| / max|arr|.
    An empty window gives 0.
    """
    arr = np.sort(np.asarray(trusted, dtype=np.float64))
    if arr.size % 2:
        arr = np.delete(arr, np.argsort(np.abs(arr), kind="stable")[-1])
    if not arr.size:
        return 0.0
    return float(np.max(np.abs(arr + arr[::-1])) / np.max(np.abs(arr)))


def oracle_window(params, g: GradedMetric, basis_size: int):
    """Build and solve one truncation, and cut out its trusted window.

    ``params`` picks the family: SchrodingerParams builds ``schrodinger_S``
    with spectral unit 2*pi*|hbar|/sqrt(g33), GenericRepParams builds
    ``generic_S`` with 2*pi*(lam^2 + mu^2)^(1/3)/sqrt(g33).  Eigenvalues
    with |ev| < kernel_eps = 1e-6*unit, far below the smallest nonzero one,
    are the kernel.  The window is the basis_size//8 smallest |ev| off it:
    the edge eigenvalues of a truncated unbounded operator are spurious.
    Returns (eigenvalues, unit, kernel_eps, window), both arrays ascending.
    """
    if isinstance(params, SchrodingerParams):
        mat = schrodinger_S(params, g, basis_size)
        freq = abs(params.hbar)
    else:
        mat = generic_S(params, g, basis_size)
        freq = (params.lam**2 + params.mu**2) ** (1.0 / 3.0)
    unit = 2.0 * math.pi * freq / math.sqrt(g.g33)
    kernel_eps = 1e-6 * unit
    eigs = hermitian_eigenvalues(mat)
    return eigs, unit, kernel_eps, trusted_window(eigs, kernel_eps, basis_size // 8)
