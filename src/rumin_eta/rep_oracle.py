"""Hermitian truncations of the middle-degree operator in irreducible
unitary representations of the (2,3,5) group, plus spectral utilities.

Matrices are assembled from closed-form infinite-matrix elements in the
harmonic oscillator basis, windowed to the leading ``basis_size`` modes.
Products of generators are never formed by multiplying truncated factors;
every block uses the exact band formulas of the full operator, which
confines the truncation error to the top Hermite levels.  Only the blocks
on and above the block diagonal are written; those below are their
conjugate transposes, so each truncation is Hermitian by construction.
A truncation is solved whole by ``hermitian_eigenvalues``, which takes
half of a +/- symmetric block from dqds and bisects only the values the
Sturm counts do not bracket, and enters dstebz's bisection tree of any
other block near its leaves from dsterf's seeds.  It solves each band
block in one task, and several blocks in parallel.  Only the trusted
window of a truncation (``trusted_window``), its basis_size/8
smallest-magnitude eigenvalues off the kernel, should be compared against
exact spectra; ``_truncation`` builds a Schrodinger or generic truncation
with its spectral unit and kernel cut.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GradedMetric",
    "SchrodingerParams",
    "GenericRepParams",
    "HermitianOperatorMatrix",
    "SpectralPairingError",
    "IDENTITY_METRIC",
    "scalar_S",
    "schrodinger_S",
    "generic_S",
    "closed_form_schrodinger_spectrum",
    "closed_form_error",
    "hermitian_eigenvalues",
    "spectral_eta_partial",
    "trusted_window",
    "pairing_symmetry",
]

_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)


class SpectralPairingError(RuntimeError):
    """Eigenvalues failed the spectral consistency check.

    The tridiagonal of each band block and the computed spectrum must
    reproduce the trace and the squared Frobenius norm of the matrix to
    rounding, and each value of a mirrored half must sit where the Sturm
    counts put it; a violation means the solver
    or the Hermitian structure is broken, not that the input was invalid.
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
    """Planck parameter of a Schrodinger representation; reversed orientation is -hbar."""

    hbar: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar != 0.0):
            raise ValueError("hbar must be nonzero and finite")


@dataclass(frozen=True)
class GenericRepParams:
    """Parameters (lambda, mu, nu), stored as lam, mu, nu: finite, (lam, mu) != (0, 0)."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        for name in ("lam", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lam == 0.0 == self.mu:
            raise ValueError(
                f"lam and mu must not both be zero, got lam={self.lam!r}, mu={self.mu!r}"
            )


def _dilation(params: GenericRepParams):
    # (r, d), r = hypot(lam, mu) and d = r^(2/3): the dilation by r^(1/3), which
    # maps (lam, mu, nu) to (r lam, r mu, d^2 nu), carries (lam/r, mu/r, nu/d/d)
    # to params and the operator, of Heisenberg order two, to d times itself
    r = math.hypot(params.lam, params.mu)
    return r, r ** (2.0 / 3.0)


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
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries are not all finite")
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


def _metric_factors(g: GradedMetric):
    """Scalars (p, ca, cb, v) shared by all representation blocks.

    From the Hodge star of degree-3 onto degree-2 cohomology, anti-diagonal
    (p sqrt(g44/g55), -p v, p sqrt(g55/g44)) and an isometry for the induced
    weights w = (1/g44, (g44 + g55)/(2 g44 g55), 1/g55) on degree 2 and w/g33
    on degree 3: v = sqrt(w1 w3)/w2, ca = p sqrt(w3/(2 w2)), cb = p sqrt(w1/(2 w2)).
    """
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
    level becomes a band of half-width 3w/stride + 2.  Only blocks with
    a <= b are given, and block (b, a) is the conjugate transpose of (a, b),
    so the matrix is Hermitian by construction: an entry that falls below
    the diagonal is written as it is, one above it as its conjugate at the
    mirrored place.  A block with a > b raises, as does an entry that is
    not finite.
    """
    if any(a > b for a, b in blocks):
        raise ValueError("blocks (a, b) must have a <= b; (b, a) is their conjugate transpose")
    values = [v for bands in blocks.values() for v in bands.values()]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError("block entries are not all finite")
    dtype = np.result_type(*values)
    kd = max(abs(3 * o // stride + a - b) for (a, b), bands in blocks.items() for o in bands)
    out = []
    for r in range(stride):
        levels = np.arange(r, n, stride)
        top, dim = int(levels[-1]), 3 * levels.size
        lower = np.zeros((kd + 1, dim), dtype=dtype)
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
                else:
                    lower[-d, pos] = np.conj(values[keep])
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


# entries beyond the double range become inf, or NaN as inf * 0;
# _block_operator rejects them, so the assembly need not warn of them
@np.errstate(over="ignore", invalid="ignore")
def schrodinger_S(
    params: SchrodingerParams, g: GradedMetric, basis_size: int
) -> HermitianOperatorMatrix:
    """Truncation of the operator in the Schrodinger representation.

    The oscillator frequency 2*pi*|hbar| balances the two horizontal
    generators to equal operator norms, which is the best-conditioned
    truncation.  Every block below is the exact band form of the full
    operator; only those with a <= b are written (``_block_operator``).

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
    blocks = {
        (0, 1): (-(ca * omega / 2.0)) * bmat,
        (1, 2): (-(cb * omega / 2.0)) * dmat,
        (1, 1): (-1.5 * p * v * sgn * omega) * eye,
        (0, 2): (p * sgn * omega) * (1.5 * eye - 0.5 * amat),
    }
    return _block_operator(blocks, n, stride=2)


# as for schrodinger_S; a large nu overflows kappa^2
@np.errstate(over="ignore", invalid="ignore")
def generic_S(
    params: GenericRepParams, g: GradedMetric, basis_size: int
) -> HermitianOperatorMatrix:
    """Truncation of the operator in a generic representation.

    The truncation at the unit-scale point (lam/r, mu/r, nu/d/d) of
    ``_dilation``, oscillator frequency 2*pi, times d: kernel and window do
    not depend on the scale.  The quartic and cubic oscillator words of the
    squared horizontal generators are exact band matrices of the full
    operators.  No diagonal phase makes this matrix real, and its odd
    offsets couple even and odd levels, so it is one complex band block of
    half-width 14, its three blocks interleaved by level, highest first.
    """
    if basis_size < 8:
        raise ValueError("basis_size must be at least 8")
    n = basis_size
    p, ca, cb, v = _metric_factors(g)
    r, d = _dilation(params)
    cl, cm, kappa = params.lam / r, params.mu / r, params.nu / d / d
    omega = 2.0 * math.pi
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
        (1, 2): (cb * y1) * ys - (1j * cb) * r1,
        (1, 1): (-3.0 * math.pi * p * v) * theta,
        (0, 2): (3.0 * math.pi * p) * theta - (p * yw) * ys + (1j * p) * rw,
    }
    return _block_operator({ab: d * bands for ab, bands in blocks.items()}, n, stride=1)


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
    pref = 2.0 * math.pi * params.hbar / math.sqrt(g.g33)
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


_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_PTR, _CHR = ctypes.c_void_p, ctypes.c_char_p
# every argument by reference, arrays as addresses
_SIGNATURES = {
    # (vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info)
    "dsbtrd": (_CHR, _CHR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT),
    # (range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
    #  isplit, work, iwork, info)
    "dstebz": (
        _CHR, _CHR, _INT, _DBL, _DBL, _INT, _INT, _DBL, _PTR, _PTR, _INT, _INT, _PTR,
        _PTR, _PTR, _PTR, _PTR, _INT,
    ),
}
_SIGNATURES["zhbtrd"] = _SIGNATURES["dsbtrd"]
# (n, d, e, work, info)
_SIGNATURES["dlasq1"] = (_INT, _PTR, _PTR, _PTR, _INT)
# (n, d, e, info)
_SIGNATURES["dsterf"] = (_INT, _PTR, _PTR, _INT)
# (ijob, nitmax, n, mmax, minp, nbmin, abstol, reltol, pivmin, d, e, e2, nval, ab,
#  c, mout, nab, work, iwork, info)
_SIGNATURES["dlaebz"] = (_INT,) * 6 + (_DBL,) * 3 + (_PTR,) * 6 + (_INT,) + (_PTR,) * 3 + (_INT,)
_BAND_DTYPES = {"dsbtrd": np.float64, "zhbtrd": np.complex128}


@functools.lru_cache(maxsize=None)
def _lapack(routine: str):
    """LAPACK's dsbtrd, zhbtrd, dstebz, dlasq1, dsterf or dlaebz, called through ctypes.

    scipy.linalg.lapack wraps neither reduction, dlasq1 nor dlaebz, but
    scipy.linalg.cython_lapack exports every routine of the same LAPACK as
    a PyCapsule.  A ctypes call releases the GIL, so the blocks that
    ``_each`` solves run in parallel.
    """
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[routine]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )(capsule, name(capsule))
    return ctypes.CFUNCTYPE(None, *_SIGNATURES[routine])(address)


def _each(fn, items):
    """[fn(item) for item in items], the items on several threads.

    One item runs inline.  With more, the calling thread does the first
    while a pool of its own, min(items - 1, CPUs the process may use)
    workers, does the rest and is shut down before ``_each`` returns (or
    raises the first exception in item order): no thread outlives a solve.
    The calling thread takes a share since each thread that allocates grows
    a glibc malloc arena: a pool running every item raised the peak memory
    of ``verify --suite all`` by 1.6 MB on a 2-core host.
    """
    if len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(items) - 1, cpus)) as pool:
        rest = [pool.submit(fn, item) for item in items[1:]]
        first = fn(items[0])
        return [first] + [future.result() for future in rest]


def _address(arr: np.ndarray):
    """A ctypes pointer to an array's data that keeps the array alive."""
    return arr.ctypes.data_as(ctypes.c_void_p)


def _reduce_band(band: np.ndarray):
    """LAPACK's reduction of one lower band to a real tridiagonal.

    dsbtrd for a real band and zhbtrd for a complex one, with vect='N'.
    The call overwrites ``band``, a Fortran-ordered float64 or complex128
    array (any other is copied first).  Returns (d, e, info), the
    tridiagonal and LAPACK's info.
    """
    kd1, n = band.shape
    routine = "zhbtrd" if np.iscomplexobj(band) else "dsbtrd"
    band = np.require(band, _BAND_DTYPES[routine], "FW")
    d = np.zeros(n)
    e = np.zeros(max(n - 1, 1))
    work = np.zeros(n + 1, dtype=band.dtype)  # work[n:] stands in for the unused q
    info = ctypes.c_int(0)
    ref = ctypes.byref
    n_, kd_, ldab_, ldq_ = (ctypes.c_int(v) for v in (n, kd1 - 1, kd1, 1))
    _lapack(routine)(
        b"N", b"L", ref(n_), ref(kd_), _address(band), ref(ldab_), _address(d), _address(e),
        _address(work[n:]), ref(ldq_), _address(work), ref(info),
    )
    return d, e[: n - 1], info.value


def _band_sums(ab: np.ndarray):
    """Trace and squared Frobenius norm of the matrix of one lower band."""
    # each subdiagonal stands for two entries; the padding is zero.  The
    # squared norm comes straight from the entries: squaring a rounded
    # norm would spend part of the bound at small dims
    fro_sq = 2.0 * float(np.vdot(ab, ab).real) - float(np.vdot(ab[0], ab[0]).real)
    return float(np.sum(ab[0].real)), fro_sq


def _check_sums(what: str, trace, fro_sq, want_trace, want_fro_sq, dim: int):
    """Raise unless trace and fro_sq meet the band's to (dim + 16)*eps."""
    fro = math.sqrt(want_fro_sq)
    tol = (dim + 16) * _EPS
    trace_err = abs(trace - want_trace)
    norm_err = abs(fro_sq - want_fro_sq)
    if not (trace_err <= tol * fro and norm_err <= tol * want_fro_sq):
        raise SpectralPairingError(
            f"{what} miss the trace by {trace_err:.3e} and the squared "
            f"Frobenius norm by {norm_err:.3e} at norm {fro:.3e}"
        )


def _tridiagonal(ab: np.ndarray):
    """Scale a lower band and reduce it to a unitarily similar real tridiagonal.

    Returns (d, e, sigma, sums): the tridiagonal of the band times sigma =
    ``_sbevx_scale``, and sums, the trace and squared Frobenius norm of the
    scaled band (``_band_sums``), read off the scaled copy before
    ``_reduce_band`` overwrites it.  dsbtrd (real band) or zhbtrd (complex
    band) chases the band down to tridiagonal form with plane rotations in
    O(kd * dim^2); zhbtrd then makes the off-diagonal real by a diagonal
    unitary.  A nonzero info raises.

    A unitary similarity keeps the trace and the squared Frobenius norm,
    so d must reproduce the band's trace to tol*||S||_F, and
    ||d||^2 + 2||e||^2 its squared norm to tol*||S||_F^2, with
    tol = (dim + 16)*eps, the bound the eigenvalue sums of
    ``hermitian_eigenvalues`` meet.  The bound is a first-order estimate:
    the computed (d, e) is exactly similar to S + E, where E collects the
    rounding of the plane rotations an entry passes through (Wilkinson;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    19.6).  The bulge chases of the dim columns pass an entry about dim
    times, each rotation with relative error ~eps, so |tr E| and
    2|<S, E>|/||S||_F stay near dim*eps*||S||_F unless the errors align;
    the four rounded sums of the check add at most 16 eps.  Measured: the
    oracle's bands up to N = 2048 spend at most 0.11 of the bound, seeded
    random Hermitian matrices of dimension 2 to 256, plain and graded by up
    to e^12, at most 0.52.
    """
    routine = "zhbtrd" if np.iscomplexobj(ab) else "dsbtrd"
    sigma = _sbevx_scale(ab)
    band = np.multiply(ab, sigma, order="F", dtype=_BAND_DTYPES[routine])
    sums = _band_sums(band)
    d, e, info = _reduce_band(band)
    if info != 0:
        raise SpectralPairingError(f"{routine} returned info={info}")
    _check_sums(
        f"{routine}'s tridiagonal entries", float(np.sum(d)),
        float(np.dot(d, d)) + 2.0 * float(np.dot(e, e)), *sums, d.size,
    )
    return d, e, sigma, sums


def _sbevx_scale(ab: np.ndarray) -> float:
    """The factor ?sbevx and ?hbevx scale a band by before reducing it.

    They scale a band whose largest |entry| lies outside [sqrt(safmin/eps),
    min(sqrt(eps/safmin), safmin^(-1/4))], about [1.0e-146, 8.2e76], into
    it, so that the reduction and the bisection neither over- nor underflow,
    and divide the eigenvalues by the factor after.  Inside it is 1.
    """
    anrm = float(np.max(np.abs(ab)))
    rmin = math.sqrt(_SAFMIN / _EPS)
    rmax = min(1.0 / rmin, 1.0 / math.sqrt(math.sqrt(_SAFMIN)))
    if 0.0 < anrm < rmin:
        return rmin / anrm
    return rmax / anrm if anrm > rmax else 1.0


def _dstebz(d: np.ndarray, e: np.ndarray, il: int = 0, iu: int = 0):
    """LAPACK's dstebz on the tridiagonal (d, e), abstol 0, ascending.

    Finds the eigenvalues il..iu (1-based, range 'I') when il is given,
    else all of them (range 'A', which bisects as range 'V' on (-inf, inf],
    the request of ?sbevx and ?hbevx, does).  Returns (count, w, info):
    dstebz's m and info, and w, whose first count entries are the
    eigenvalues.
    """
    n = d.size
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.concatenate([np.asarray(e, dtype=np.float64), [0.0]])  # a buffer even when n = 1
    w, work = np.zeros(n), np.zeros(4 * n)
    iwork = np.zeros(5 * n, dtype=np.intc)  # iblock, isplit, then dstebz's 3n
    count, nsplit, info = ctypes.c_int(0), ctypes.c_int(0), ctypes.c_int(0)
    zero = ctypes.byref(ctypes.c_double(0.0))  # vl and vu, unread, and abstol
    ref = ctypes.byref
    _lapack("dstebz")(
        b"I" if il else b"A", b"E", ref(ctypes.c_int(n)), zero, zero, ref(ctypes.c_int(il)),
        ref(ctypes.c_int(iu)), zero, _address(d), _address(e), ref(count), ref(nsplit),
        _address(w), _address(iwork), _address(iwork[n:]), _address(work),
        _address(iwork[2 * n :]), ref(info),
    )
    return count.value, w, info.value


def _bisect(d: np.ndarray, e: np.ndarray, lo: int = 0, hi: int = 0):
    """The eigenvalues lo..hi (1-based) of the tridiagonal (d, e), by index.

    One dstebz call; lo = 0 asks for every eigenvalue.  Where dstebz splits
    a tridiagonal into parts whose eigenvalues cluster, an index range can
    come back short (info 2, or 3 if a bisection failed too).  It is then
    made again as one call over the whole spectrum, the cure LAPACK
    documents, and lo..hi is cut out of that.  Any other failure or a
    missing eigenvalue raises.
    """
    count, w, info = _dstebz(d, e, lo, hi)
    if lo and info in (2, 3):
        return _bisect(d, e)[lo - 1 : hi]
    want = hi - lo + 1 if lo else d.size
    if info != 0 or count != want:
        raise SpectralPairingError(f"dstebz returned info={info} and {count} of {want} eigenvalues")
    return w[:count]


def _dqds(e: np.ndarray):
    """The upper half of the chiral tridiagonal (0, e), by dqds.

    A tridiagonal of n rows with an all-zero diagonal is the Golub-Kahan
    form of the upper bidiagonal B with diagonal e[0::2] and superdiagonal
    e[1::2], zero-padded to m = ceil(n/2) rows (the padding adds the exact
    middle 0 at odd n), so its eigenvalues n//2 + 1 .. n are the singular
    values of B.  dlasq1 finds them by the differential qd algorithm with
    shifts (Fernando and Parlett, Numer. Math. 67, 1994).  Returns (w, info):
    the m singular values, ascending, and dlasq1's info.
    """
    e = np.asarray(e, dtype=np.float64)
    m = (e.size + 2) // 2
    diag, off = np.zeros(m), np.zeros(m)  # dlasq1 reads m - 1 of off, and works in all m
    diag[: (e.size + 1) // 2] = e[0::2]
    off[: e.size // 2] = e[1::2]
    work, info = np.zeros(4 * m), ctypes.c_int(0)
    _lapack("dlasq1")(
        ctypes.byref(ctypes.c_int(m)), _address(diag), _address(off), _address(work),
        ctypes.byref(info),
    )
    return diag[::-1], info.value


def _squares(d: np.ndarray, e: np.ndarray):
    """The squared off-diagonals of the tridiagonal (d, e) as dstebz takes them.

    An e_j^2 below |d_j d_(j+1)| eps^2 + safmin is negligible: dstebz
    splits the tridiagonal there, and its Sturm counts take it as 0.
    Returns (e2, split, pivmin): e2 with n entries, the last 0, whether any
    e_j^2 is negligible, and pivmin = safmin * max(1, max e2).
    """
    e2 = np.concatenate([e * e, [0.0]])
    negligible = np.abs(d[1:] * d[:-1]) * _EPS**2 + _SAFMIN > e2[:-1]
    e2[:-1][negligible] = 0.0
    return e2, bool(np.any(negligible)), _SAFMIN * max(1.0, float(np.max(e2)))


def _dsterf(d: np.ndarray, e: np.ndarray):
    """The eigenvalues of the tridiagonal (d, e) by dsterf, ascending.

    dsterf is the root-free QL/QR iteration (Pal, Walker and Kahan); it
    is fast, but not as accurate as bisection.  Returns (w, info): the
    eigenvalues and dsterf's info.
    """
    w = np.array(d, dtype=np.float64)
    e = np.concatenate([np.asarray(e, dtype=np.float64), [0.0]])  # a buffer even when n = 1
    info = ctypes.c_int(0)
    _lapack("dsterf")(ctypes.byref(ctypes.c_int(w.size)), _address(w), _address(e),
                      ctypes.byref(info))
    return w, info.value


def _dlaebz(ijob: int, d, e2, pivmin: float, atoli: float, ab, nab, nitmax: int = 0):
    """LAPACK's dlaebz, the bisection inside dstebz, on the intervals ab.

    The tridiagonal has diagonal d and squared off-diagonal e2 (n entries,
    the last unread); ab holds one interval [a, b] per row.  Job 1 counts
    the eigenvalues at or below a and b.  Job 2 takes nab, those counts,
    and halves each interval as dstebz does, for at most nitmax rounds:
    it keeps the halves that hold eigenvalues, and stops an interval once
    it is narrower than max(atoli, pivmin, 2 eps max(|a|, |b|)).  Returns
    (count, ab, nab, info), dlaebz's arrays and scalars: for job 1 the
    counts in nab and, in count, the eigenvalues inside all intervals; for
    job 2 count intervals and their counts, and in info how many of them
    did not converge.
    """
    m = ab.shape[0]
    # job 2 makes at most one interval per eigenvalue in its intervals
    mmax = m if ijob == 1 else int(np.sum(nab[:, 1] - nab[:, 0]))
    ab_out = np.zeros((mmax, 2), order="F")
    nab_out = np.zeros((mmax, 2), dtype=np.intc, order="F")
    ab_out[:m] = ab
    if ijob == 2:
        nab_out[:m] = nab
    work = np.zeros(2 * mmax)  # c, then dlaebz's work
    iwork = np.zeros(mmax + 1, dtype=np.intc)  # iwork[mmax:] stands in for nval, read by job 3
    count, info = ctypes.c_int(0), ctypes.c_int(0)
    ref = ctypes.byref
    ints = (ref(ctypes.c_int(v)) for v in (ijob, nitmax, d.size, mmax, m, 0))
    tols = (ref(ctypes.c_double(v)) for v in (atoli, 2.0 * _EPS, pivmin))
    _lapack("dlaebz")(
        *ints, *tols, _address(d), _address(e2), _address(e2), _address(iwork[mmax:]),
        _address(ab_out), _address(work), ref(count), _address(nab_out), _address(work[mmax:]),
        _address(iwork), ref(info),
    )
    return count.value, ab_out, nab_out, info.value


def _seeded_bisect(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """dstebz's eigenvalues of the tridiagonal (d, e) over its whole spectrum, bit for bit.

    dstebz (range 'A', abstol 0) bisects one tree from the Gershgorin
    interval [GL, GU], widened by 2.1 bnorm eps n + 2.1 pivmin, bnorm =
    max(|GL|, |GU|): a node [a, b] holding index k is halved at c =
    0.5 (a + b), and k goes on into [a, c] if at least k eigenvalues lie
    at or below c, else into [c, b].  Each new node is checked at once and
    stops once narrower than max(atoli, pivmin, 2 eps max(|a|, |b|)),
    atoli = eps max(|GL|, |GU|); k's value is its midpoint.

    Here each index walks that tree without a Sturm count, by the seeds w
    of dsterf (``_dsterf``), which land within about 30 eps G of the
    values, G = bnorm: it goes left where c > w_k, until it meets a node
    that has converged or one whose midpoint lies within 64 eps G of w_k.
    The Sturm count is monotone (Demmel, Dhillon and Ren, ETNA 3, 1995),
    so where k stops at [a, b] with count(a) < k <= count(b), every step
    above agrees with dstebz's: a midpoint c that sent k left is at or
    above b, so count(c) >= k.  One dlaebz call counts at both ends of
    every distinct stopping node, and one more finishes the nodes that
    have not converged, as dstebz would (``_dlaebz``), so each value is
    dstebz's; about 7 halvings a value are left of about 53.

    The counts of job 1 differ from those of dstebz's halvings (and of
    ``_sturm_counts``) in one case: a pivot of exactly +pivmin counts as
    positive.  A proof that relies on those counts could then fail to
    match dstebz; ``test_full_route_is_bit_identical_to_sbevx_and_hbevx``
    guards the bits.  Where dstebz splits the tridiagonal (``_squares``)
    or takes a 1 x 1 as it is, where dsterf or dlaebz fails, or where a
    node fails its counts, the values come from one ``_bisect`` call
    instead.
    """
    n = d.size
    e2, split, pivmin = _squares(d, e)
    if n < 2 or split:
        return _bisect(d, e)
    seeds, info = _dsterf(d, e)
    if info:
        return _bisect(d, e)
    pad = np.abs(np.concatenate([[0.0], e, [0.0]]))
    gl = float(np.min(d - pad[:-1] - pad[1:]))
    gu = float(np.max(d + pad[:-1] + pad[1:]))
    bnorm = max(abs(gl), abs(gu))
    gl = gl - 2.1 * bnorm * _EPS * n - 2.1 * pivmin
    gu = gu + 2.1 * bnorm * _EPS * n + 2.1 * pivmin
    atoli = _EPS * max(abs(gl), abs(gu))
    radius = 64.0 * _EPS * bnorm
    a, b = np.full(n, gl), np.full(n, gu)
    done = np.zeros(n, dtype=bool)  # k's node has converged
    walking = np.arange(n)
    while walking.size:
        lo, hi, w = a[walking], b[walking], seeds[walking]
        c = 0.5 * (lo + hi)
        on = ~(np.abs(c - w) <= radius)  # a NaN seed walks on, and fails its counts
        left = on & (c > w)
        hi = np.where(left, c, hi)
        lo = np.where(on & ~left, c, lo)
        converged = on & (hi - lo < np.maximum(max(atoli, pivmin),
                                               2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))))
        a[walking], b[walking], done[walking] = lo, hi, converged
        walking = walking[on & ~converged]
    # the seeds ascend, so indices that stop at one node are neighbours
    first = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    node = np.cumsum(first) - 1
    ends = np.stack([a[first], b[first]], axis=1)
    _, _, counts, info = _dlaebz(1, d, e2, pivmin, atoli, ends, None)
    k = np.arange(1, n + 1)
    if info or np.any(counts[node, 0] >= k) or np.any(counts[node, 1] < k):
        return _bisect(d, e)
    w = np.where(done, 0.5 * (a + b), np.nan)
    rest = ~done[first]
    if np.any(rest):
        nitmax = int((math.log(gu - gl + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
        count, ends, counts, info = _dlaebz(2, d, e2, pivmin, atoli, ends[rest], counts[rest],
                                            nitmax)
        if info:
            return _bisect(d, e)
        # as in dstebz, indices counts[j, 0] + 1 .. counts[j, 1] take interval j's midpoint
        lo, size = counts[:count, 0], counts[:count, 1] - counts[:count, 0]
        at = np.arange(int(np.sum(size))) + np.repeat(lo - np.cumsum(size) + size, size)
        w[at] = np.repeat(0.5 * (ends[:count, 0] + ends[:count, 1]), size)
    return w


def _sturm_counts(d: np.ndarray, e: np.ndarray, x) -> np.ndarray:
    """How many eigenvalues of the tridiagonal (d, e) lie at or below each x.

    Kahan's count as dstebz's bisection (dlaebz) takes it, operation for
    operation: negligible off-diagonals count as zero (``_squares``), and
    a pivot at or below pivmin = safmin * max(1, max e_j^2) counts as
    negative and becomes min(pivot, -pivmin), which is -pivmin for
    |pivot| <= pivmin and the pivot otherwise.  This count is monotone in
    x (Demmel, Dhillon and Ren, ETNA 3, 1995).
    """
    x = np.asarray(x, dtype=np.float64)
    e2, _, pivmin = _squares(d, e)
    count = np.zeros(x.shape, dtype=np.int64)
    q = np.ones_like(x)
    for dj, e2j in zip(d.tolist(), [0.0] + e2.tolist()):
        q = dj - e2j / q - x
        q[np.abs(q) <= pivmin] = -pivmin
        count += q < 0.0
    return count


def _bracket_misses(d, e, w, k):
    """Which w the Sturm counts of (d, e) do not bracket as eigenvalue k (1-based).

    Returns (miss, delta): w[i] is bracketed when at most k[i] - 1
    eigenvalues lie at or below w[i] - delta and at least k[i] at or below
    w[i] + delta, with delta = 2 eps G and G = max_j |d_j| + |e_(j-1)| +
    |e_j|, the Gershgorin bound of the tridiagonal.  A NaN counts no
    eigenvalue below it and misses.

    Why c = 2 in delta = c eps G: dstebz stops when its interval [a, b],
    with count(a) < k <= count(b), is narrower than max(eps B, 2 eps
    max(|a|, |b|)), where B <= G (1 + 2.1 dim eps) is the Gershgorin bound
    as dstebz widens it.  It returns the rounded midpoint, so the value is
    within eps G (1 + 2.1 dim eps) + eps |lambda_k|/2 < 2 eps G of a and of
    b while dim < 10^14, and the count is monotone.  The jump of the count
    to k therefore lies within delta of the value any dstebz call (a
    window, the half of a chiral block, or the single call of ?sbevx)
    bisects from its own starting interval, and of any bracketed value, so
    two such values differ by at most 2 delta = 4 eps G <= 4 sqrt(3) eps
    rho, rho the spectral radius (each row of a tridiagonal has at most
    three entries).  On the oracle's matrices up to N = 512 two bisections
    differ by at most 0.91 eps G, up to 4e-12 relative to the value.
    """
    pad = np.abs(np.concatenate([[0.0], e, [0.0]]))
    delta = 2.0 * _EPS * float(np.max(np.abs(d) + pad[:-1] + pad[1:]))
    at = _sturm_counts(d, e, np.concatenate([w - delta, w + delta]))
    return (at[: w.size] >= k) | (at[w.size :] < k), delta


def hermitian_eigenvalues(m: HermitianOperatorMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Each band block is scaled and reduced to a real tridiagonal as LAPACK's
    dsbevx and zhbevx do it (``_tridiagonal``), then solved and checked,
    all in one task per block (``_block_eigenvalues``); the blocks are
    solved in parallel (``_each``).  The reduction costs O(kd * dim^2), not
    the dense O(dim^3); bisection by dstebz with abstol 0 is more accurate
    than the all-eigenvalue QR path (dsterf), which only seeds it here.

    A tridiagonal with an all-zero diagonal, such as the generic block
    (``generic_S``, one complex block of half-width 14) and the scalar one
    reduce to, is chiral: diag((-1)^j) conjugates it to its negative, so its
    eigenvalues are +/- pairs, plus a zero at odd n.  Its indices n//2 + 1
    .. n are the singular values of a bidiagonal of half its rows, which
    dqds finds (``_dqds``), and the rest is their mirror.  Each value the
    Sturm counts do not bracket within 2 eps G (``_bracket_misses``) is
    bisected again, one dstebz call per maximal run of such indices, and a
    dqds failure bisects the whole half; on the generic block at (1, 0.5,
    0.3), 2-11% of the values are bisected again at N = 129 to 2048, all in
    the top quarter of the half.  Then each value of the half lies within
    2 eps G of the jump of the Sturm count at its index, as ?hbevx's does,
    so the two differ by at most 4 sqrt(3) eps rho, rho the block's
    spectral radius (``_bracket_misses``); measured, at most 2.7 eps rho on
    generic blocks from N = 64 to 1024.  Any other block, such as each of
    the two real parity blocks of ``schrodinger_S`` (half-width 5), takes
    the values of dstebz over its whole spectrum, the call ?sbevx and
    ?hbevx make, so its eigenvalues are theirs bit for bit; but each index
    enters dstebz's bisection tree near its leaf, at a node that dsterf's
    seed picks and two Sturm counts prove on its path, and dlaebz, the
    bisection inside dstebz, finishes it (``_seeded_bisect``; one dstebz
    call where that fails).  About 7 halvings a value are left of 53: on 2
    vCPUs a parity block of N = 512 took 152 ms by dstebz and 55 ms this
    way.  A zero block (d = e = 0) is its own spectrum.  The oracle's bands
    put the highest oscillator level, where the entries are largest, first:
    the reduction starts there.  Against extended-precision Rayleigh quotients
    at N = 512 this errs by 8.7e-15 (Schrodinger, skewed metric), 1.1e-14
    (proportional) and 1.1e-15 (generic) of the spectral radius, where the
    lowest level first errs by up to 3.1e-14.

    A LAPACK failure or a missing eigenvalue raises.  The eigenvalues of
    each block must reproduce its trace to tol*||S||_F and its squared
    Frobenius norm to tol*||S||_F^2, both read off the scaled band, with
    tol = (dim + 16)*eps and dim the block's; otherwise the computation is
    internally inconsistent.  A mirrored spectrum meets the trace by
    construction, and the norm check sees an error d_i only as
    4 lambda_i d_i, little near the kernel; so the Sturm counts must also
    bracket each value of the half of a chiral block (``_bracket_misses``),
    and so its mirror, since a chiral spectrum is exactly +/- symmetric.

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

    This is the oracle's one solve route: ``spectrum`` and criteria C6 and
    C8 cut the trusted window (``trusted_window``) from what it returns.
    """
    blocks = [ab for _, ab in m.blocks]
    return np.sort(np.concatenate(_each(lambda ab: _block_eigenvalues(*_tridiagonal(ab)), blocks)))


def _block_eigenvalues(d, e, sigma, sums) -> np.ndarray:
    """The eigenvalues of one band block, checked as ``hermitian_eigenvalues`` says.

    Takes the block's (d, e, sigma, sums) from ``_tridiagonal``.  A block
    that is not chiral takes dstebz's values over its whole spectrum, from
    its tree entered at dsterf's seeds (``_seeded_bisect``).  A chiral one
    takes its upper half from dqds, bisects again each run of values
    outside their Sturm bracket (all of them if dqds fails), checks the
    bracket of every value and mirrors the half.  A zero tridiagonal is its
    own spectrum, exact, so a zero block has no bracket to meet.
    """
    if not (np.any(d) or np.any(e)):
        w = np.zeros(d.size)
    elif np.any(d):
        w = _seeded_bisect(d, e)
    else:
        lo = d.size // 2 + 1
        k = np.arange(lo, d.size + 1)
        w, info = _dqds(e)
        miss = np.ones(w.size, bool) if info else _bracket_misses(d, e, w, k)[0]
        # each maximal run i..j-1 of misses is made again by one bisection
        runs = np.flatnonzero(np.diff(np.concatenate([[0], miss.astype(np.int8), [0]])))
        for i, j in zip(runs[::2], runs[1::2]):
            w[i:j] = _bisect(d, e, lo + i, lo + j - 1)
        miss, delta = _bracket_misses(d, e, w, k)
        if np.any(miss):
            raise SpectralPairingError(
                f"bisected eigenvalues {w[miss]} fail their bracket of {delta:.3e}"
            )
        w = np.concatenate([-w[::-1][: lo - 1], w])
    _check_sums("eigenvalues", float(np.sum(w)), float(np.dot(w, w)), *sums, w.size)
    return w * (1.0 / sigma)


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


def _truncation(params, g: GradedMetric, basis_size: int):
    """The oracle's truncation of one representation: (matrix, unit, kernel_eps).

    ``params`` picks the family: SchrodingerParams builds ``schrodinger_S``
    with spectral unit 2*pi*|hbar|/sqrt(g33), GenericRepParams builds
    ``generic_S`` with 2*pi*hypot(lam, mu)^(2/3)/sqrt(g33).  Eigenvalues
    with |ev| < kernel_eps = 1e-6*unit, far below the smallest nonzero one,
    are the kernel.
    """
    if isinstance(params, SchrodingerParams):
        mat = schrodinger_S(params, g, basis_size)
        freq = abs(params.hbar)
    else:
        mat = generic_S(params, g, basis_size)
        freq = _dilation(params)[1]
    unit = 2.0 * math.pi * freq / math.sqrt(g.g33)
    return mat, unit, 1e-6 * unit
