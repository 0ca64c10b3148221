"""Special functions underlying the eta computations.

Everything here is scalar-oriented: complex arguments go through cmath,
only the long oscillatory sums are vectorized (see kernels). The Hurwitz
and Riemann zeta functions use Euler-Maclaurin summation with an adaptive
shift and Bernoulli order so that the stated accuracy holds on the whole
continuation window, not just for large Re s.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _scipy_gamma

from . import kernels

__all__ = [
    "bernoulli_number",
    "gamma_fn",
    "riemann_zeta",
    "riemann_zeta_regular",
    "hurwitz_zeta",
    "eta_hurw",
    "eta_hurw_deriv_neg_odd",
    "im_polylog_even",
    "im_polylog_even_quad",
    "polylog_circle",
]

MAX_BERNOULLI = 66


def _bernoulli_table(count):
    # Akiyama-Tanigawa transform over exact rationals; the float table is
    # derived from it, so no drift accumulates for large indices.
    row = [Fraction(1, j + 1) for j in range(count)]
    out = []
    for _ in range(count):
        out.append(row[0])
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    # The transform yields B_1 = +1/2; the B_n(0) convention used by
    # Euler-Maclaurin wants B_1 = -1/2.
    out[1] = -out[1]
    return out


_BERN_FRAC = _bernoulli_table(MAX_BERNOULLI + 1)
_BERN_FLOAT = tuple(float(b) for b in _BERN_FRAC)
# B_{2k}/(2k)! for the Euler-Maclaurin correction terms.
_BERN_OVER_FACT = tuple(
    float(_BERN_FRAC[2 * k] / math.factorial(2 * k))
    for k in range(MAX_BERNOULLI // 2 + 1)
)


def bernoulli_number(n):
    """Bernoulli number B_n (B_1 = -1/2 convention) as a float."""
    if not 0 <= n <= MAX_BERNOULLI:
        raise ValueError(f"Bernoulli index must be in [0, {MAX_BERNOULLI}], got {n}")
    return _BERN_FLOAT[n]


def gamma_fn(s):
    """Gamma function for complex s away from the poles."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise ValueError(f"gamma_fn pole at s = {s.real:g}")
    return complex(_scipy_gamma(s))


def _em_parameters(s):
    # Shift far enough that the asymptotic correction converges, and raise
    # the Bernoulli order as Re s decreases; order 12 alone cannot reach
    # 1e-12 for strongly negative Re s.
    re, im = s.real, s.imag
    m_shift = 16 + math.ceil(abs(im)) + max(0, math.ceil(-re))
    order = max(8, math.ceil((2.0 - re) / 2.0) + 3)
    if 2 * order > MAX_BERNOULLI:
        raise ValueError(f"Re s = {re:g} below the supported continuation window")
    return m_shift, order


def _em_bernoulli_tail(s, w, order):
    # sum_k B_{2k}/(2k)! * s(s+1)...(s+2k-2) * w^{-s-2k+1}
    coef = s
    wpow = w ** (-s - 1)
    inv_w2 = 1.0 / (w * w)
    acc = 0.0 + 0.0j
    for k in range(1, order + 1):
        acc += _BERN_OVER_FACT[k] * coef * wpow
        coef = coef * (s + (2 * k - 1)) * (s + 2 * k)
        wpow *= inv_w2
    return acc


def _phi_expm1(z):
    # (exp(z) - 1)/z, stable for small |z|.
    if abs(z) < 1e-4:
        return 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return (cmath.exp(z) - 1.0) / z


def hurwitz_zeta(s, a):
    """Hurwitz zeta zeta_H(s, a) for complex s != 1 and 0 < a <= 1.

    Euler-Maclaurin with adaptive shift and Bernoulli order; matches the
    direct series to about 1e-13 relative for Re s >= 2 and continues it
    to the rest of the window.
    """
    s = complex(s)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"hurwitz_zeta requires 0 < a <= 1, got a = {a:g}")
    if s == 1.0:
        raise ValueError("hurwitz_zeta pole at s = 1")
    m_shift, order = _em_parameters(s)
    acc = 0.0 + 0.0j
    for n in range(m_shift):
        acc += (n + a) ** (-s)
    w = m_shift + a
    acc += w ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * w ** (-s)
    acc += _em_bernoulli_tail(s, w, order)
    return acc


@lru_cache(maxsize=16384)
def riemann_zeta(s):
    """Riemann zeta for complex s != 1.

    Euler-Maclaurin for Re s >= -1/2; the functional equation otherwise
    (the alternating sums in the left half plane would cancel
    catastrophically in doubles).
    """
    s = complex(s)
    if s == 1.0:
        raise ValueError("riemann_zeta pole at s = 1")
    if s.real < -0.5:
        if s.imag == 0.0 and s.real == round(s.real) and round(s.real) % 2 == 0:
            return 0.0 + 0.0j
        t = 1.0 - s
        return (
            2.0**s
            * cmath.pi ** (s - 1.0)
            * cmath.sin(cmath.pi * s / 2.0)
            * gamma_fn(t)
            * hurwitz_zeta(t, 1.0)
        )
    return hurwitz_zeta(s, 1.0)


@lru_cache(maxsize=16384)
def riemann_zeta_regular(s):
    """zeta(s) - 1/(s-1): the entire part, stable arbitrarily close to s = 1."""
    s = complex(s)
    m_shift, order = _em_parameters(s)
    acc = 0.0 + 0.0j
    for n in range(m_shift):
        acc += (n + 1.0) ** (-s)
    w = float(m_shift + 1)
    # (w^{1-s} - 1)/(s - 1) without cancellation at s = 1
    q = math.log(w)
    acc += -q * _phi_expm1((1.0 - s) * q)
    acc += 0.5 * w ** (-s)
    acc += _em_bernoulli_tail(s, w, order)
    return acc


def eta_hurw(s, a):
    """Two-sided Hurwitz difference zeta_H(s, {a}) - zeta_H(s, 1-{a}).

    Entire in s: the two 1/(s-1) poles cancel and are combined
    analytically, so values near and at s = 1 are regular. Periodic in a
    with period 1 and odd under a -> -a; a must not be an integer.

    Euler-Maclaurin covers Re s >= -3/2; further left the paired head sums
    cancel catastrophically in doubles, so the value comes from the
    functional equation instead, through polylogs on the unit circle.
    """
    s = complex(s)
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError(f"eta_hurw undefined at integer a = {a:g}")
    if s.real < -1.5:
        if s.imag == 0.0 and s.real == round(s.real) and round(s.real) % 2 != 0:
            return 0.0 + 0.0j
        t = 1.0 - s
        pref = -2j * (2.0 * cmath.pi) ** (-t) * cmath.sin(cmath.pi * t / 2.0) * gamma_fn(t)
        return pref * (polylog_circle(t, a_red) - polylog_circle(t, 1.0 - a_red))
    m_shift, order = _em_parameters(s)
    acc = 0.0 + 0.0j
    for n in range(m_shift):
        acc += (n + a_red) ** (-s) - (n + 1.0 - a_red) ** (-s)
    wa = m_shift + a_red
    wb = m_shift + 1.0 - a_red
    # (wa^{1-s} - wb^{1-s})/(s-1) = -wb^{1-s} * q * phi((1-s) q), q = log(wa/wb)
    q = math.log1p((2.0 * a_red - 1.0) / wb)
    acc += -(wb ** (1.0 - s)) * q * _phi_expm1((1.0 - s) * q)
    acc += 0.5 * (wa ** (-s) - wb ** (-s))
    coef = s
    wpow_a = wa ** (-s - 1.0)
    wpow_b = wb ** (-s - 1.0)
    for k in range(1, order + 1):
        acc += _BERN_OVER_FACT[k] * coef * (wpow_a - wpow_b)
        coef = coef * (s + (2 * k - 1)) * (s + 2 * k)
        wpow_a /= wa * wa
        wpow_b /= wb * wb
    return acc


def polylog_circle(s, a):
    """Li_s(e^{2 pi i a}) by direct series; requires Re s > 1 and a not integer.

    The truncation point comes from the Abel partial-summation bound, so
    the result carries roughly 1e-11 absolute accuracy.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("polylog_circle requires Re s > 1")
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError("polylog_circle undefined at integer a")
    # |sum_{n>N}| <= (2/|1 - e^{2 pi i a}|) N^{-Re s}
    gap = abs(1.0 - cmath.exp(2j * math.pi * a_red))
    n_terms = int((2.0 / (gap * 1e-12)) ** (1.0 / s.real)) + 16
    n_terms = min(n_terms, 2_000_000)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    phase = np.exp(2j * np.pi * np.mod(n * a_red, 1.0))
    return complex(np.sum(phase * np.exp(-s * np.log(n))))


def im_polylog_even(l, a):
    """Im Li_{2l+2}(e^{2 pi i a}) = sum_{n>=1} sin(2 pi n a)/n^{2l+2}.

    a must not be an integer; accuracy about 1e-13 absolute via the Abel
    tail bound for the truncation point.
    """
    if l < 0:
        raise ValueError("l must be a non-negative integer")
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError(f"im_polylog_even undefined at integer a = {a:g}")
    p = 2 * l + 2
    sin_gap = abs(math.sin(math.pi * a_red))
    n_terms = int((1.0 / (1e-13 * sin_gap)) ** (1.0 / p)) + 16
    n_terms = min(n_terms, 6_000_000)
    return kernels.sin_power_sum(a_red, p, n_terms)


def im_polylog_even_quad(l, a):
    """Independent quadrature route for Im Li_{2l+2}(e^{2 pi i a}).

    Uses the Fermi-type integral
    (2l+1)! Im Li_{2l+2}(e^{2 pi i a}) = sin(2 pi a) *
    int_0^inf x^{2l+1} e^x / (e^{2x} - 2 e^x cos(2 pi a) + 1) dx,
    with the integrand rewritten as x^{2l+1} / (2 (cosh x - cos 2 pi a))
    and composite Gauss-Legendre panels of unit width.
    """
    if l < 0:
        raise ValueError("l must be a non-negative integer")
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError(f"im_polylog_even_quad undefined at integer a = {a:g}")
    p = 2 * l + 1
    cos2pa = math.cos(2.0 * math.pi * a_red)
    cutoff = 55 + 12 * l
    nodes, weights = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for left in range(cutoff):
        x = 0.5 * (nodes + 1.0) + left
        total += 0.5 * float(np.sum(weights * x**p / (2.0 * (np.cosh(x) - cos2pa))))
    return math.sin(2.0 * math.pi * a_red) * total / math.factorial(p)


def eta_hurw_deriv_neg_odd(l, a):
    """d/ds eta_hurw(s, a) at s = -2l-1, where eta_hurw itself vanishes.

    Equals (-1)^l (2 pi)^{-2l-1} (2l+1)! Im Li_{2l+2}(e^{2 pi i a}).
    """
    if l < 0:
        raise ValueError("l must be a non-negative integer")
    sign = -1.0 if l % 2 else 1.0
    return (
        sign
        * (2.0 * math.pi) ** (-(2 * l + 1))
        * math.factorial(2 * l + 1)
        * im_polylog_even(l, a)
    )
