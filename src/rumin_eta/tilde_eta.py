"""Two-sided eta function of the shifted model eigenvalue sequence.

The sequence is lambda_n = sqrt(8 (2n+1)^2 + 9)/4 and the object computed
here is

    tilde_eta(s, a) = sum_n sign(a + lambda_n) |a + lambda_n|^{-s}
                    + sum_n sign(a - lambda_n) |a - lambda_n|^{-s},

absolutely convergent for Re s > 1 and continued meromorphically in s.
The continuation splits off finitely many terms, expands the remaining
one-sided zeta sums binomially in a, and reduces everything to Riemann
zeta values; the expansion remainders are summed exactly as convergent
binomial tail series. Poles of intermediate zeta factors are carried
symbolically (coefficient over s - s0) so that binomial zeros cancel them
analytically; the function is regular except for simple poles at the
negative even integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import riemann_zeta, riemann_zeta_regular

__all__ = [
    "TildeEtaPoint",
    "lambda_n",
    "default_start_index",
    "tilde_eta",
    "tilde_eta_direct",
    "tilde_eta_residue",
    "tilde_eta_at_zero",
]

_POLE_SNAP = 1e-12


def _snapped_pole(s: complex) -> int | None:
    """The candidate pole -2, -4, ... within _POLE_SNAP of s, or None."""
    s_int = round(s.real)
    if s.imag == 0.0 and abs(s.real - s_int) <= _POLE_SNAP and s_int <= -2 and s_int % 2 == 0:
        return s_int
    return None


def lambda_n(n):
    """n-th model eigenvalue magnitude sqrt(8 (2n+1)^2 + 9)/4."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    u = 2 * n + 1
    return math.sqrt(8.0 * u * u + 9.0) / 4.0


def _lambda_array(start, count):
    u = 2.0 * np.arange(start, start + count, dtype=np.float64) + 1.0
    return np.sqrt(8.0 * u * u + 9.0) / 4.0


def _nearest_singular_index(a_abs):
    # lambda_n = a  <=>  (2n+1)^2 = (16 a^2 - 9)/8
    if 16.0 * a_abs * a_abs <= 9.0:
        return 0
    u = math.sqrt((16.0 * a_abs * a_abs - 9.0) / 8.0)
    return max(0, round((u - 1.0) / 2.0))

def _validate_regular_a(a):
    a_abs = abs(a)
    n0 = _nearest_singular_index(a_abs)
    for n in (max(0, n0 - 1), n0, n0 + 1):
        if abs(lambda_n(n) - a_abs) <= 1e-12 * max(1.0, a_abs):
            raise ValueError(
                f"a = {a:.17g} coincides with a singular point +-lambda_{n}"
            )


def default_start_index(a):
    """Smallest m with lambda_m > |a| + 1/2 (the default split point)."""
    target = abs(a) + 0.5
    if lambda_n(0) > target:
        return 0
    m = _nearest_singular_index(target) + 1
    while m > 0 and lambda_n(m - 1) > target:
        m -= 1
    while lambda_n(m) <= target:
        m += 1
    return m


@dataclass(frozen=True)
class TildeEtaPoint:
    """Continuation value at one point; value is NaN when is_pole is set."""

    s: complex
    a: float
    value: complex
    is_pole: bool
    residue: float


class _PoleAware(NamedTuple):
    # Value split as regular + polar_coeff/(sigma - sigma0); polar_coeff is
    # the smooth coefficient evaluated at the requested sigma.
    regular: complex
    polar_coeff: complex
    sigma0: float | None


def _binom_complex(x, l):
    # binomial coefficient binom(x, l) for complex x, integer l >= 0
    acc = 1.0 + 0.0j
    for i in range(l):
        acc *= (x - i) / (i + 1)
    return acc


def _binom_reduced(x, l, i0):
    # binom(x, l) has a simple zero at x = i0 (0 <= i0 < l); this returns
    # binom(x, l)/(x - i0) evaluated without the vanishing factor.
    acc = 1.0 + 0.0j
    for i in range(l):
        if i == i0:
            continue
        acc *= x - i
    return acc / math.factorial(l)


def _odd_zeta_tail(sp):
    # sum_{n>=1} (2n+1)^{-sp} = (1 - 2^{-sp}) zeta(sp) - 1
    if sp.real >= 10.0:
        acc = 0.0 + 0.0j
        n = 1
        while n <= 400:
            odd = 2.0 * n + 1.0
            term = odd ** (-sp)
            acc += term
            if odd ** (-sp.real) < 1e-26:
                break
            n += 1
        return acc
    return (1.0 - 2.0 ** (-sp)) * riemann_zeta(sp) - 1.0


@lru_cache(maxsize=16384)
def _zeta0(sigma):
    """One-sided sum_{n>=0} lambda_n^{-sigma}, pole-aware continuation.

    Expands lambda_n^{-sigma} = 2^{sigma/2} (2n+1)^{-sigma}
    (1 + (9/8)(2n+1)^{-2})^{-sigma/2} binomially for n >= 1; the n = 0
    term is kept exact because its binomial argument exceeds 1. Poles
    (simple, at sigma in {1, -1, -3, ...}) come from the Riemann factors.
    """
    sigma = complex(sigma)
    order = 6 + max(0, math.ceil(-sigma.real / 2.0))
    pref = 2.0 ** (sigma / 2.0)
    lam0 = lambda_n(0)
    regular = lam0 ** (-sigma)
    polar_coeff = 0.0 + 0.0j
    sigma0 = None
    k0 = round((1.0 - sigma.real) / 2.0)
    if 0 <= k0 <= order and abs(sigma - (1.0 - 2.0 * k0)) < 0.5:
        sigma0 = 1.0 - 2.0 * k0

    b = 1.0 + 0.0j
    zk = 1.0
    for k in range(order + 1):
        sp = sigma + 2.0 * k
        factor = pref * b * zk
        if sigma0 is not None and k == k0:
            polar_coeff = factor * (1.0 - 2.0 ** (-sp))
            regular += factor * ((1.0 - 2.0 ** (-sp)) * riemann_zeta_regular(sp) - 1.0)
        else:
            regular += factor * _odd_zeta_tail(sp)
        b *= (-sigma / 2.0 - k) / (k + 1.0)
        zk *= 9.0 / 8.0

    # exact remainder: binomial tail series over n >= 1, all |z| <= 1/8
    n_arr = np.arange(1, 65, dtype=np.float64)
    odd = 2.0 * n_arr + 1.0
    z = (9.0 / 8.0) / (odd * odd)
    b_tail = _binom_complex(-sigma / 2.0, order + 1)
    c = b_tail * z ** (order + 1)
    acc = np.zeros_like(c)
    k = order + 1
    while k < order + 500:
        acc = acc + c
        c = c * z * ((-sigma / 2.0 - k) / (k + 1.0))
        k += 1
        if np.max(np.abs(c)) < 1e-24 * (1.0 + np.max(np.abs(acc))):
            break
    weights = np.exp(-sigma * np.log(odd))
    regular += pref * complex(np.dot(weights, acc))

    return _PoleAware(regular, polar_coeff, sigma0)


def _zeta_m(sigma, m):
    z0 = _zeta0(sigma)
    if m == 0:
        return z0
    head = 0.0 + 0.0j
    for n in range(m):
        head += lambda_n(n) ** (-sigma)
    return _PoleAware(z0.regular - head, z0.polar_coeff, z0.sigma0)


def _h_tail_odd(s, a, m, order):
    # h_{m,a,order}(s) - h_{m,-a,order}(s): twice the odd part of the
    # binomial tail beyond the expansion order, summed exactly.
    if a == 0.0:
        return 0.0 + 0.0j
    count = 4096
    lam = _lambda_array(m, count)
    z = a / lam
    c = _binom_complex(-s, order + 1) * z ** (order + 1)
    acc = np.zeros_like(c, dtype=np.complex128)
    l = order + 1
    while l < order + 3000:
        if l % 2 == 1:
            acc = acc + c
        c = c * z * ((-s - l) / (l + 1.0))
        l += 1
        if np.max(np.abs(c)) < 1e-22 * (1.0 + np.max(np.abs(acc))):
            break
    weights = np.exp(-s * np.log(lam))
    return 2.0 * complex(np.dot(weights, acc))


def _signed_power(x, s):
    # sign(x) |x|^{-s}
    return math.copysign(1.0, x) * abs(x) ** (-s)


def tilde_eta(s, a, m=None):
    """Meromorphic continuation of the two-sided eta sum at s.

    a must stay away from the singular set {+-lambda_n}. m overrides the
    split point (lambda_m > |a| required); the value is independent of the
    choice. At a pole (s a negative even integer, a != 0) the returned
    point has is_pole set, the residue filled in, and a NaN value.
    """
    s = complex(s)
    a = float(a)
    _validate_regular_a(a)
    if m is None:
        m = default_start_index(a)
    else:
        m = int(m)
        if m < 0:
            raise ValueError("m must be non-negative")
        if lambda_n(m) <= abs(a):
            raise ValueError(f"split index m = {m} needs lambda_m > |a|")

    order = 2 * math.ceil(abs(s.real)) + 6
    total = 0.0 + 0.0j
    for n in range(m):
        lam = lambda_n(n)
        total += _signed_power(a + lam, s) + _signed_power(a - lam, s)

    pole = _snapped_pole(s)
    residue = 0.0

    j = 0
    while (l := 2 * j + 1) <= order - 1:
        zm = _zeta_m(s + l, m)
        a_pow = a**l
        total += 2.0 * _binom_complex(-s, l) * a_pow * zm.regular
        if zm.sigma0 is not None:
            if zm.sigma0 == 1.0:
                # binom(-s, l) vanishes at s = 1 - l and cancels this pole
                # identically: binom(-s, l)/(s - (1-l)) = -reduced/l!
                total -= 2.0 * _binom_reduced(-s, l, l - 1) * a_pow * zm.polar_coeff
            else:
                s0 = zm.sigma0 - l
                if pole == round(s0):
                    residue += 2.0 * math.comb(-pole, l) * a_pow * zm.polar_coeff.real
                else:
                    total += 2.0 * _binom_complex(-s, l) * a_pow * zm.polar_coeff / (s - s0)
        j += 1

    total += _h_tail_odd(s, a, m, order)

    is_pole = pole is not None and residue != 0.0
    value = complex(math.nan, math.nan) if is_pole else total
    return TildeEtaPoint(s=s, a=a, value=value, is_pole=is_pole, residue=residue)


def tilde_eta_direct(s, a, n_terms):
    """Partial direct sum over n < n_terms plus a rigorous tail bound.

    Requires Re s > 1 and n_terms large enough that lambda_{n_terms} > |a|.
    Returns (value, tail_bound) with |exact - value| <= tail_bound.
    """
    s = complex(s)
    a = float(a)
    if s.real <= 1.0:
        raise ValueError("tilde_eta_direct requires Re s > 1")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    _validate_regular_a(a)
    lam_next = lambda_n(n_terms)
    if lam_next <= abs(a):
        raise ValueError("n_terms too small: the tail must start beyond |a|")

    lam = _lambda_array(0, n_terms)
    x_plus = a + lam
    x_minus = a - lam
    powers = np.exp(-s * np.log(np.abs(x_plus))) * np.sign(x_plus) + np.exp(
        -s * np.log(np.abs(x_minus))
    ) * np.sign(x_minus)
    value = complex(np.sum(powers))

    # Tail: paired terms beyond n_terms are bounded by the mean value
    # theorem, |(lam+a)^{-s} - (lam-a)^{-s}| <= 2 |a| |s| (lam - |a|)^{-p}
    # with p = Re s + 1, and the lambda increments grow, so the sum is
    # dominated by gap0^{-p} + integral.
    p = s.real + 1.0
    gap0 = lam_next - abs(a)
    delta = lambda_n(n_terms + 1) - lam_next
    tail = 2.0 * abs(a) * abs(s) * (gap0 ** (-p) + gap0 ** (1.0 - p) / (delta * (p - 1.0)))
    return value, float(tail)


def tilde_eta_residue(l, a):
    """Residue at s = -2l (l >= 1) from the closed combinatorial formula."""
    l = int(l)
    if l < 1:
        raise ValueError("residues live at s = -2l with l >= 1")
    acc = 0.0
    for j in range(l):
        acc += (
            math.comb(2 * l, 2 * j + 1)
            * math.comb(2 * (l - j), l - j)
            * (9.0 / 64.0) ** (l - j)
            * a ** (2 * j + 1)
        )
    return math.sqrt(2.0) * acc


def tilde_eta_at_zero(a):
    """Closed-form value at s = 0: 2 sign(a) #{n : lambda_n < |a|} - sqrt(2) a."""
    a = float(a)
    _validate_regular_a(a)
    a_abs = abs(a)
    # first index with lambda_n >= |a| equals the count of smaller ones
    count = _nearest_singular_index(a_abs) + 2
    while count > 0 and lambda_n(count - 1) >= a_abs:
        count -= 1
    return 2.0 * math.copysign(1.0, a) * count - math.sqrt(2.0) * a

