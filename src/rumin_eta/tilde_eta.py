"""Two-sided eta function of the shifted model eigenvalue sequence.

The sequence is lambda_n = sqrt(8 (2n+1)^2 + 9)/4 and the object computed
here is

    tilde_eta(s, a) = sum_n sign(a + lambda_n) |a + lambda_n|^{-s}
                    + sum_n sign(a - lambda_n) |a - lambda_n|^{-s},

absolutely convergent for Re s > 1 and continued meromorphically in s.
The continuation splits off the terms n < m, expands the rest binomially
in a into one-sided sums sum_{n>=m} lambda_n^{-sigma}, each a series in
Hurwitz zeta values at m + 1/2 with nothing subtracted, and sums the
expansion remainders exactly as convergent binomial tail series. Poles of
intermediate zeta factors are carried symbolically (coefficient over
s - s0) so that binomial zeros cancel them analytically; next to p = 1 the
rest, zeta_H(p, m + 1/2) - 1/(p - 1), is taken directly. The function is
regular except for simple poles at the negative even integers.

Each binomial tail sum_{l >= l0} binom(x, l) z^l is sized before it is
summed: from the exact |binom(x, l)| and a geometric bound on the terms
after l, the length is the first l at which the bound on the rest falls
below the tail's tolerance. The lambda_n of the shifted-series tail are
split into blocks (n - m in [0, 16), [16, 256), [256, 4096)) whose first,
largest |a|/lambda_n sizes the whole block; each block is then one cumprod
of the term ratios and one weighted sum, with no test inside a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _MAX_HEAD_TERMS, _hurwitz_regular, hurwitz_zeta

__all__ = [
    "EtaEvaluation",
    "lambda_n",
    "default_start_index",
    "tilde_eta",
    "tilde_eta_direct",
    "tilde_eta_residue",
    "tilde_eta_at_zero",
]

_POLE_SNAP = 1e-12

# The binomial tails are summed until a bound on their rest falls below
# these (see _h_tail_odd and _zeta_m); _h_tail_odd covers _H_TAIL_COUNT lambda_n
# from the split index on, in blocks between the offsets _H_TAIL_EDGES.
_H_TAIL_TOL = 1e-22
_H_TAIL_COUNT = 4096
_H_TAIL_EDGES = (0, 16, 256, _H_TAIL_COUNT)
_MAX_TAIL_TERMS = 2**16
_ZETA_M_TOL = 2.0**-56
# zeta_H(p, m + 1/2) and, within 1/2 of p = 1, that less its pole 1/(p - 1),
# cached: the orders p = s + l + 2k recur across l and calls
_hurwitz_half = lru_cache(maxsize=1024)(hurwitz_zeta)
_hurwitz_half_regular = lru_cache(maxsize=1024)(_hurwitz_regular)


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


def _first_above(x):
    # smallest n with lambda_n > x, from the guess lambda_n = x <=> (2n+1)^2 = (16 x^2 - 9)/8
    n = 0 if 16.0 * x * x <= 9.0 else round((math.sqrt((16.0 * x * x - 9.0) / 8.0) - 1.0) / 2.0)
    while n > 0 and lambda_n(n - 1) > x:
        n -= 1
    while lambda_n(n) <= x:
        n += 1
    return n


def _validate_regular_a(a):
    # the lambda_n nearest |a| are the two either side of it
    a_abs = abs(a)
    n0 = _first_above(a_abs)
    for n in (max(0, n0 - 1), n0):
        if abs(lambda_n(n) - a_abs) <= 1e-12 * max(1.0, a_abs):
            raise ValueError(
                f"a = {a:.17g} coincides with a singular point +-lambda_{n}"
            )


def default_start_index(a):
    """Smallest m with lambda_m > |a| + 1/2 (the split point for Re s <= 0)."""
    return _first_above(abs(a) + 0.5)


@dataclass(frozen=True)
class EtaEvaluation:
    """One evaluation at s. At a pole of tilde_eta the value is NaN and the
    residue set; at s = -2l eta_nil sets is_pole, the finite product, residue 0.
    """

    s: complex
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


def _tail_lengths(x, b0, l0, z_max, limit):
    """Term counts for binomial tails sum_{l >= l0} binom(x, l) z^l.

    b0 is |binom(x, l0)|. For each block j, with |z| <= z_max[j] < 1,
    returns the smallest L_j after which the rest is at most limit[j].
    From l on the term ratios |z (x - l)/(l + 1)| stay below
    r_l = z_max (|x| + l)/(l + 1) for |x| >= 1, where that factor falls
    towards 1, and below r_l = z_max for |x| < 1, where it rises towards 1.
    So while r_l < 1 the rest from l is at most
    |binom(x, l)| z_max^l/(1 - r_l), with |binom(x, l)| taken exactly.
    Raises ValueError beyond _MAX_TAIL_TERMS terms.
    """
    z_max = np.asarray(z_max, dtype=np.float64)[:, None]
    limit = np.asarray(limit, dtype=np.float64)[:, None]
    x_abs = abs(x)
    # first guess: enough terms for z_max^L to reach 1e-26
    n = min(max(64, math.ceil(-60.0 / math.log(float(z_max.max())))), _MAX_TAIL_TERMS)
    while True:
        l = l0 + np.arange(n, dtype=np.float64)
        bound = np.empty((z_max.size, n))
        bound[:, :1] = b0 * z_max**l0
        bound[:, 1:] = np.abs(x - l[:-1]) / (l[:-1] + 1.0) * z_max
        np.cumprod(bound, axis=1, out=bound)  # |binom(x, l)| z_max^l
        r = z_max * ((x_abs + l) / (l + 1.0) if x_abs >= 1.0 else 1.0)
        # an exact zero ends the series (x a non-negative integer)
        done = (bound == 0.0) | (bound <= limit * (1.0 - r))
        if done.any(axis=1).all():
            return done.argmax(axis=1)
        if n == _MAX_TAIL_TERMS:
            break
        n = min(4 * n, _MAX_TAIL_TERMS)
    raise ValueError(
        f"binomial tail at x = {x} needs more than {_MAX_TAIL_TERMS} terms; "
        f"|z| = {float(z_max.max()):.6g} is too close to 1"
    )


def _zeta_m(s, l, m):
    """One-sided sum_{n>=m} lambda_n^{-sigma} at sigma = s + l, pole-aware continuation.

    Expanded binomially in (9/8)(2n+1)^-2 and summed from m on, with no
    subtraction: 2^{-sigma/2} sum_k binom(-sigma/2, k) (9/32)^k zeta_H(p, h),
    p = sigma + 2k, h = m + 1/2, with ratio (9/32)/h^2 <= 1/8 once the n = 0
    term is taken exactly. Within 1/2 of p = 1 the pole 1/(p - 1) is split
    off and the rest, zeta_H(p, h) - 1/(p - 1), comes straight from the
    Euler-Maclaurin sum. For Re p > 1 term k is at
    most |binom(-sigma/2, k)| (9/32)^k h^{-Re p} (1 + h/(Re p - 1)), bounds
    that fall by (9/32) h^-2 max(1, (|sigma/2| + k)/(k + 1)); the sum stops
    once they hold the rest below _ZETA_M_TOL times the sum.
    """
    sigma = s + l
    regular = lambda_n(0) ** (-sigma) if m == 0 else 0j
    m = max(m, 1)
    h = m + 0.5
    x = -sigma / 2.0
    polar_coeff, sigma0 = 0j, None
    acc, coeff, k = 0j, 1.0 + 0j, 0  # coeff = binom(x, k) (9/32)^k
    while True:
        p = s + (l + 2 * k)  # sigma + 2k, the same double for every l + 2k
        if abs(p - 1.0) < 0.5:
            polar_coeff, sigma0 = coeff, float(1 - 2 * k)
            acc += coeff * _hurwitz_half_regular(p, h)
        else:
            acc += coeff * _hurwitz_half(p, h)
        coeff *= (x - k) / (k + 1.0) * (9.0 / 32.0)
        k += 1
        p_re = sigma.real + 2 * k
        ratio = 9.0 / 32.0 / (h * h) * max(1.0, (abs(x) + k) / (k + 1.0))
        if p_re > 1.0 and ratio < 1.0:
            bound = abs(coeff) * h ** (-p_re) * (1.0 + h / (p_re - 1.0))
            if bound <= _ZETA_M_TOL * abs(acc) * (1.0 - ratio):
                break
    pref = 2.0**x
    return _PoleAware(regular + pref * acc, pref * polar_coeff, sigma0)


def _h_tail_odd(s, a, m, order):
    # h_{m,a,order}(s) - h_{m,-a,order}(s): twice the odd part of
    # sum_lambda lambda^-s sum_{l > order} binom(-s, l) (a/lambda)^l over
    # _H_TAIL_COUNT lambda_n from n = m. |a|^l lambda^{-Re s - l} falls with
    # lambda for l > order > -Re s, so the first lambda of each block between
    # the offsets _H_TAIL_EDGES sizes the whole block (_tail_lengths, rest
    # below _H_TAIL_TOL), which is then one cumprod of the term ratios.
    if a == 0.0:
        return 0.0 + 0.0j
    lam = _lambda_array(m, _H_TAIL_COUNT)
    weights = np.exp(-s * np.log(lam))
    z = a / lam
    x, l0 = -s, order + 1
    b0 = _binom_complex(x, l0)
    lo, hi = np.array(_H_TAIL_EDGES[:-1]), np.array(_H_TAIL_EDGES[1:])
    # a block whose weights underflow contributes nothing and gets no terms
    limit = _H_TAIL_TOL / np.fmax((hi - lo) * np.abs(weights[lo]), np.finfo(np.float64).tiny)
    counts = _tail_lengths(x, abs(b0), l0, np.abs(z[lo]), limit)
    total = 0.0 + 0.0j
    for start, stop, count in zip(lo, hi, counts):
        if count == 0:
            continue
        l = l0 + np.arange(count - 1, dtype=np.float64)
        terms = np.empty((count, stop - start), dtype=np.complex128)
        terms[0] = b0 * z[start:stop] ** l0
        terms[1:] = np.multiply.outer((x - l) / (l + 1.0), z[start:stop])
        np.cumprod(terms, axis=0, out=terms)
        total += complex(np.dot(terms[::2].sum(axis=0), weights[start:stop]))
    return 2.0 * total


def _signed_power(x, s):
    # sign(x) |x|^{-s}
    return math.copysign(1.0, x) * abs(x) ** (-s)


def tilde_eta(s, a):
    """Meromorphic continuation of the two-sided eta sum at s.

    a must stay away from the singular set {+-lambda_n}. The terms n < m
    are summed directly; the l-th terms of the expansion of the rest in a
    grow like (|s| |a|/lambda_m)^l/l!, so lambda_m > |a| + 1/2 and, for
    Re s > 0, lambda_m > |s| |a| (for Re s <= 0 a larger m makes the head
    cancel instead). At a pole (s a negative even integer, a != 0) is_pole
    is set, the residue filled in, and the value NaN. Raises ValueError
    where the head would need more than 2^21 terms (|a| above about
    3e6, or |s| |a| above about 3e6 for Re s > 0) and where the binomial
    tail would need more than 2^16 terms: for |a| above about 1000 with
    Re s <= 0 or |s| below about 1.
    """
    s = complex(s)
    a = float(a)
    # lambda_m > |a| + 1/2, and lambda_m > |s| |a| for Re s > 0
    split = max(abs(a), abs(s) * abs(a) - 0.5) if s.real > 0.0 else a
    if abs(split) + 0.5 >= lambda_n(_MAX_HEAD_TERMS):
        raise ValueError(f"tilde_eta at s = {s}, a = {a:g}: head beyond {_MAX_HEAD_TERMS} terms")
    _validate_regular_a(a)
    m = default_start_index(split)

    order = 2 * math.ceil(abs(s.real)) + 6
    total = 0.0 + 0.0j
    for n in range(m):
        lam = lambda_n(n)
        total += _signed_power(a + lam, s) + _signed_power(a - lam, s)

    pole = _snapped_pole(s)
    residue = 0.0

    j = 0
    while (l := 2 * j + 1) <= order - 1:
        zm = _zeta_m(s, l, m)
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
    return EtaEvaluation(s=s, value=value, is_pole=is_pole, residue=residue)


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


def _residue_exact(l, a) -> Fraction:
    """The closed combinatorial residue at s = -2l (l >= 1), as a Fraction.

    Exact for the double a and the double sqrt(2).
    """
    l = int(l)
    if l < 1:
        raise ValueError("residues live at s = -2l with l >= 1")
    a = Fraction(a)
    acc = sum(
        math.comb(2 * l, 2 * j + 1)
        * math.comb(2 * (l - j), l - j)
        * Fraction(9, 64) ** (l - j)
        * a ** (2 * j + 1)
        for j in range(l)
    )
    return Fraction(math.sqrt(2.0)) * acc


def tilde_eta_residue(l, a):
    """Residue at s = -2l (l >= 1) from the closed combinatorial formula.

    Summed exactly in rationals, so the final conversion is the only
    rounding and raises OverflowError only where the residue itself leaves
    the double range.
    """
    return float(_residue_exact(l, a))


def tilde_eta_at_zero(a):
    """Closed-form value at s = 0: 2 sign(a) #{n : lambda_n < |a|} - sqrt(2) a."""
    a = float(a)
    _validate_regular_a(a)
    # no lambda_n equals |a|, so the first above it counts the smaller ones
    return 2.0 * math.copysign(1.0, a) * _first_above(abs(a)) - math.sqrt(2.0) * a

