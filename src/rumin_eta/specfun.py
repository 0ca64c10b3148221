"""Special functions underlying the eta computations.

Everything here is scalar-oriented: complex arguments go through cmath;
only the direct-sum reference polylog_circle_direct is vectorized. The
Hurwitz and Riemann zeta functions and eta_hurw share one Euler-Maclaurin
sum, each with its own pole term, whose adaptive shift and Bernoulli order
keep the stated accuracy on the whole continuation window, not just for
large Re s. Left of that window all three share one functional equation,
Hurwitz's formula in polylogarithms on the unit circle, which come from a
short series in Riemann zeta values.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _scipy_gamma
from scipy.special import loggamma as _scipy_loggamma

__all__ = [
    "gamma_fn",
    "riemann_zeta",
    "riemann_zeta_regular",
    "hurwitz_zeta",
    "eta_hurw",
    "eta_hurw_deriv_neg_odd",
    "im_polylog_even",
    "im_polylog_even_quad",
    "polylog_circle",
    "polylog_circle_direct",
]

MAX_BERNOULLI = 66

_EULER_GAMMA = 0.5772156649015329
# Within this distance of an integer order n the polylog series combines its
# two O(1/(s - n)) terms analytically; _PAIR_ORDER Taylor terms of log F
# then reach |s - n|^_PAIR_ORDER <= 1e-18.
_PAIR_RADIUS = 0.1
_PAIR_ORDER = 18
# The series stops once a bound on its remaining terms falls below
# 2^-56 * max(1, |sum|). Its terms carry relative errors of up to about
# (40 + 2.5 |Im s|) eps (zeta and gamma at complex arguments), so its
# rounding error is at most that times the sum of |terms|. It is trusted
# only while this estimate stays within _SERIES_TOL max(1, |sum|), half the
# documented accuracy; elsewhere the direct sum with Boole's tail takes
# over (see _polylog_unit).
_LOG_EPS = math.log(2.0**-56)
_EPS = 2.0**-52
_DBL_MIN = 2.0**-1022
_SERIES_TOL = 5e-12
# The direct route stops its plain sum once the Abel bound on the rest is
# below _DIRECT_TAIL, and raises rather than run for seconds beyond
# _DIRECT_MAX_TERMS terms (see polylog_circle).
_DIRECT_TAIL = 1e-12
_DIRECT_MAX_TERMS = 2**23
_DIRECT_BLOCK = 2**16
# heads summed term by term (_em_sum's shift, tilde_eta's n < m) are refused beyond this
_MAX_HEAD_TERMS = 2**21
_LOG_2PI = math.log(2.0 * math.pi)


def _bernoulli_table(count):
    # Akiyama-Tanigawa transform over exact rationals (B_1 = +1/2; only the
    # even ones are read); the float table is derived from it, so no drift
    # accumulates for large indices.
    row = [Fraction(1, j + 1) for j in range(count)]
    out = []
    for _ in range(count):
        out.append(row[0])
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    return out


_BERN_FRAC = _bernoulli_table(MAX_BERNOULLI + 1)
# B_{2k}/(2k)! for the Euler-Maclaurin correction terms.
_BERN_OVER_FACT = tuple(
    float(_BERN_FRAC[2 * k] / math.factorial(2 * k))
    for k in range(MAX_BERNOULLI // 2 + 1)
)


def gamma_fn(s):
    """Gamma function for complex s away from the poles."""
    s = complex(s)
    if s.imag == 0.0:
        if s.real <= 0.0 and s.real == int(s.real):
            raise ValueError(f"gamma_fn pole at s = {s.real:g}")
        # the real routine: more accurate, and exactly real
        return complex(_scipy_gamma(s.real))
    return complex(_scipy_gamma(s))


def _sin_half_pi(x):
    # sin(pi x/2) = (-1)^k sin(pi (x - 2k)/2), k = round(Re x/2): x - 2k is
    # exact, so the relative accuracy holds next to the zeros at even x
    k = round(x.real / 2.0)
    value = cmath.sin(0.5 * math.pi * (x - 2.0 * k))
    return -value if k % 2 else value


def _reflect(s, even, odd):
    # (2 pi)^-t Gamma(t) [sin(pi s/2) even - i sin(pi (s+1)/2) odd], t = 1 - s:
    # Hurwitz's formula, with even +- odd = 2 Li_t(e^{+-2 pi i a}) for zeta_H(s, a),
    # even = 2 zeta(t), odd = 0 for zeta and even = 0 for eta_hurw; real for real s.
    # Where the product over- or underflows (Gamma(t) from Re t ~ 171, or from
    # |Im t| ~ 450, where the sines overflow) it is formed in log space, for
    # |Im z| > 20, z = pi s/2, as e^{-i e z} (i e/2) [(even - e odd) - e^{2 i e z}
    # (even + e odd)], e = sign Im z: for zeta_H both terms may be of one size.
    t = 1.0 - s
    try:
        bracket = _sin_half_pi(s) * even - 1j * _sin_half_pi(s + 1.0) * odd
        value = (2.0 * math.pi) ** (-t) * gamma_fn(t) * bracket
        in_range = _DBL_MIN <= abs(value) < math.inf  # False for NaN too
    except OverflowError:
        in_range = False
    if not in_range:
        z, log_trig = 0.5 * math.pi * s, 0j
        if abs(z.imag) > 20.0:  # also wherever the sines overflowed
            sign = math.copysign(1.0, z.imag)
            bracket = (even - sign * odd) - cmath.exp(2j * sign * z) * (even + sign * odd)
            log_trig = -1j * sign * z + cmath.log(0.5j * sign)
        if bracket == 0.0:
            return 0j  # the trivial zeros of zeta, where the factor overflows
        log_pref = complex(_scipy_loggamma(complex(t))) - t * _LOG_2PI
        value = cmath.exp(log_pref + log_trig + cmath.log(bracket))
    return complex(value.real, 0.0) if s.imag == 0.0 else value


def _em_parameters(s):
    # Shift far enough that the asymptotic correction converges, and raise
    # the Bernoulli order as Re s decreases; order 12 alone cannot reach
    # 1e-12 for strongly negative Re s.
    re, im = s.real, s.imag
    m_shift = 16 + math.ceil(abs(im)) + max(0, math.ceil(-re))
    order = max(8, math.ceil((2.0 - re) / 2.0) + 3)
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


def _em_sum(s, a, m_shift, order, pole):
    # Euler-Maclaurin for sum_{n>=0} (n + a)^-s from w = m_shift + a, with
    # pole the caller's form of the integral term w^{1-s}/(s-1)
    if 2 * order > MAX_BERNOULLI:
        raise ValueError(f"Re s = {s.real:g} below the supported continuation window")
    if m_shift > _MAX_HEAD_TERMS:
        raise ValueError(f"s = {s} needs an Euler-Maclaurin shift above {_MAX_HEAD_TERMS} terms")
    head = sum(((n + a) ** (-s) for n in range(m_shift)), 0j)
    w = m_shift + a
    return head + pole + 0.5 * w ** (-s) + _em_bernoulli_tail(s, w, order)


def _phi_expm1(z):
    # (exp(z) - 1)/z with full relative accuracy: exp(z) - 1 itself loses
    # eps/|z| to cancellation, expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y
    # does not.
    if z == 0:
        return 1.0 + 0j
    x, y = z.real, z.imag
    em1 = complex(
        math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
        math.exp(x) * math.sin(y),
    )
    return em1 / z


def hurwitz_zeta(s, a):
    """Hurwitz zeta sum_{n>=0} (n + a)^-s for complex s != 1 and a > 0.

    Euler-Maclaurin from the shift a, with adaptive shift and Bernoulli
    order. For Re s < -1/2 and a below the shift that head sum would cancel;
    there the value is zeta_H(s, a0) minus the terms (a - j)^-s down to a0 in
    (0, 1], by Hurwitz's formula: from zeta(1 - s) at a0 = 1, as
    (2^s - 1) zeta(s) at a0 = 1/2, else from the polylogarithms of
    polylog_circle. Accurate to about 1e-12 relative (against mpmath: at
    most 6.4e-13 for a from 1e-3 to 40, Re s from -8 to 10 and |Im s| up to
    30; 1.8e-12 at s = -0.6 - 30i, a = 0.77, from the polylogarithm).
    Raises ValueError only where the Euler-Maclaurin route needs Re s below
    about -58, that is for a at or above its shift 16 + |Im s| - Re s, or a
    shift above 2^21 terms (|Im s| above about 2^21), and OverflowError
    where the value exceeds the double range.
    """
    s = complex(s)
    if not a > 0.0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a = {a:g}")
    if s == 1.0:
        raise ValueError("hurwitz_zeta pole at s = 1")
    m_shift, order = _em_parameters(s)
    if s.real < -0.5 and a < m_shift:
        k = math.ceil(a) - 1
        return _hurwitz_unit(s, a - k) - sum(((a - j) ** (-s) for j in range(1, k + 1)), 0j)
    return _em_sum(s, a, m_shift, order, (m_shift + a) ** (1.0 - s) / (s - 1.0))


def _hurwitz_regular(s, a):
    # zeta_H(s, a) - 1/(s-1), stable arbitrarily close to s = 1: the pole
    # term (w^{1-s} - 1)/(s - 1) = -log(w) phi((1-s) log w) does not cancel
    s = complex(s)
    m_shift, order = _em_parameters(s)
    q = math.log(m_shift + a)
    return _em_sum(s, a, m_shift, order, -q * _phi_expm1((1.0 - s) * q))


def _hurwitz_unit(s, a0):
    # zeta_H(s, a0) for Re s < -1/2 and 0 < a0 <= 1 by Hurwitz's formula
    # (see _reflect), from zeta(1 - s) at a0 = 1, else from the polylogarithms
    # Li_{1-s}(e^{+-2 pi i a0}); at a0 = 1/2 it is (2^s - 1) zeta(s)
    if a0 == 0.5:
        return (2.0**s - 1.0) * riemann_zeta(s)
    if a0 == 1.0:
        return _reflect(s, 2.0 * hurwitz_zeta(1.0 - s, 1.0), 0.0)
    t, b = 1.0 - s, _centered(a0)
    plus, minus = _polylog_unit(t, b), _polylog_unit(t, -b)
    return _reflect(s, plus + minus, plus - minus)


@lru_cache(maxsize=16384)
def riemann_zeta(s):
    """Riemann zeta for complex s != 1: hurwitz_zeta(s, 1).

    Exactly 0 at the trivial zeros. Raises OverflowError where zeta(s)
    exceeds the double range.
    """
    return hurwitz_zeta(s, 1.0)


@lru_cache(maxsize=16384)
def riemann_zeta_regular(s):
    """zeta(s) - 1/(s-1): the entire part, stable arbitrarily close to s = 1."""
    return _hurwitz_regular(s, 1.0)


def _centered(a_red):
    # the representative in (-1/2, 1/2] of a_red in (0, 1) modulo 1
    return a_red - 1.0 if a_red > 0.5 else a_red


def eta_hurw(s, a):
    """Two-sided Hurwitz difference zeta_H(s, {a}) - zeta_H(s, 1-{a}).

    Entire in s: the two 1/(s-1) poles cancel and are combined
    analytically, so values near and at s = 1 are regular. Periodic in a
    with period 1 and odd under a -> -a; a must not be an integer.

    Euler-Maclaurin covers Re s >= -3/2 off the disk |s + 1| < 1/2;
    further left the paired head sums cancel catastrophically in doubles,
    and on the disk they cancel down to the zero at s = -1. There the value
    comes from the functional equation instead, through polylogs on the unit
    circle evaluated as in polylog_circle, with the factor
    sin(pi (s + 1)/2) exact at that zero. Raises OverflowError where the
    value exceeds the double range, and ValueError where the Euler-Maclaurin
    shift would pass 2^21 terms (|Im s| above about 2^21).
    """
    s = complex(s)
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError(f"eta_hurw undefined at integer a = {a:g}")
    if a_red == 0.5:
        return 0.0 + 0.0j  # the two Hurwitz terms are the same function
    if s.imag == 0.0 and s.real <= -1.0 and s.real == round(s.real) and round(s.real) % 2 != 0:
        return 0.0 + 0.0j  # the zeros -B_{2l+2}(a) + B_{2l+2}(1 - a) = 0
    if s.real < -1.5 or abs(s + 1.0) < 0.5:
        # Li_t at a and at 1 - a from b and -b: exact conjugates for real t
        t, b = 1.0 - s, _centered(a_red)
        return _reflect(s, 0.0, 2.0 * (_polylog_unit(t, b) - _polylog_unit(t, -b)))
    m_shift, order = _em_parameters(s)
    # both pole terms, (wa^{1-s} - wb^{1-s})/(s-1) = -wb^{1-s} q phi((1-s) q),
    # q = log(wa/wb) from the shifts the two sums use, in the sum at a
    b = 1.0 - a_red
    wa, wb = m_shift + a_red, m_shift + b
    q = math.log1p((wa - wb) / wb)
    pole = -(wb ** (1.0 - s)) * q * _phi_expm1((1.0 - s) * q)
    return _em_sum(s, a_red, m_shift, order, pole) - _em_sum(s, b, m_shift, order, 0.0)


def _pole_pair(m, delta, log_neg_mu):
    # zeta(1 + delta) + Gamma(-m - delta) (-mu)^{m + delta} m!/mu^m, the two
    # terms of the series that are O(1/delta) near the order s = m + 1. It
    # equals zeta_reg(1 + delta) - expm1(log F)/delta, where
    # F = [pi delta/sin(pi delta)] [m!/Gamma(m + 1 + delta)] (-mu)^delta and
    # log F = sum_k c_k delta^k, c_1 = log(-mu) - H_m + gamma,
    # c_k = (zeta(k) + (-1)^k H_m^(k))/k with H_m^(k) = sum_{j<=m} j^-k.
    ratio = log_neg_mu - math.fsum(1.0 / j for j in range(1, m + 1)) + _EULER_GAMMA
    dpow = 1.0
    for k in range(2, _PAIR_ORDER + 1):
        dpow *= delta
        harmonic = math.fsum(float(j) ** -k for j in range(1, m + 1))
        ratio += (riemann_zeta(k).real + (-1) ** k * harmonic) / k * dpow
    return riemann_zeta_regular(1.0 + delta) - ratio * _phi_expm1(ratio * delta)


def _gamma_power(s, log_neg_mu):
    # Gamma(1-s) (-mu)^{s-1}, the first term of the zeta series. At large
    # |Im s| the Gamma factor underflows while the power overflows (at
    # s = 1.5+600i, b = 1e-6 the exponent's real part is 936), so where the
    # direct product is not finite or is zero it is formed in log space
    try:
        value = gamma_fn(1.0 - s) * cmath.exp((s - 1.0) * log_neg_mu)
    except OverflowError:
        value = math.inf
    if value != 0.0 and cmath.isfinite(value):
        return value
    return cmath.exp(complex(_scipy_loggamma(1.0 - s)) + (s - 1.0) * log_neg_mu)


def _polylog_zeta_series(s, b):
    # Li_s(e^mu) = Gamma(1-s) (-mu)^{s-1} + sum_k zeta(s-k) mu^k/k!, |mu| < 2 pi
    # (D. C. Wood, "The Computation of Polylogarithms", 1992; R. Crandall,
    # "Note on fast polylogarithm computation", 2006), with mu = 2 pi i b,
    # 0 < |b| <= 1/2, so |mu| <= pi. Returns None where the sum cannot be
    # trusted: where its terms cancel too much for their rounding errors
    # (see _SERIES_TOL; the cancellation grows like e^{|b Im s|}, and the
    # per-term error like |Im s|, so with no cancellation at all the sum
    # fails from |Im s| ~ 9000) and where a term overflows or its zeta
    # value is refused (_MAX_HEAD_TERMS).
    mu = 2j * math.pi * b
    log_neg_mu = complex(math.log(2.0 * math.pi * abs(b)), -math.copysign(0.5 * math.pi, b))
    n = round(s.real)
    delta = s - n
    pair = n - 1 if abs(delta) < _PAIR_RADIUS else None
    # Tail bound for k > Re s + 1: the functional equation and
    # |sin(pi z/2)| <= e^{pi |Im z|/2} give |zeta(s-k) mu^k/k!| <= T_k with
    # log T_k = sigma log(2 pi) - log(pi) + log zeta(2) + G(k + 1 - sigma)
    #           - lgamma(k + 1) + k log|b|,
    # G(x) >= log|Gamma(x + it)| + pi t/2, t = |Im s|: the smaller of
    # lgamma(x) + pi t/2 (from |Gamma(x + it)| <= Gamma(x)) and Stirling's
    # (x - 1/2) log|z| - x + t atan(x/t) + log(2 pi)/2 + 1/(6|z|), z = x + it
    # (remainder bound for Re z > 0), which keeps the sum from running on
    # until zeta(s-k) overflows at large t. T_{k+1}/T_k <= |b| <= 1/2, so
    # the terms after k sum to <= 2 T_{k+1}.
    sigma = s.real
    t = abs(s.imag)
    log_t0 = (
        sigma * math.log(2.0 * math.pi) - math.log(math.pi)
        + math.log(math.pi**2 / 6.0) + math.log(2.0)
    )
    log_b = math.log(abs(b))
    power = 1.0 + 0j  # mu^k/k!
    try:
        acc = 0j if pair is not None else _gamma_power(s, log_neg_mu)
        magnitude = abs(acc)  # sum of |terms|, the scale of the rounding error
        k = 0
        while True:
            if k == pair:
                term = power * _pole_pair(pair, delta, log_neg_mu)
            else:
                term = power * riemann_zeta(s - k)
            acc += term
            magnitude += abs(term)
            k += 1
            power *= mu / k
            if k > sigma + 2.0:
                x = k + 1.0 - sigma
                z = math.hypot(x, t)
                stirling = (x - 0.5) * math.log(z) - x + t * math.atan2(x, t)
                stirling += 0.5 * _LOG_2PI + 1.0 / (6.0 * z)
                log_gamma = min(math.lgamma(x) + 0.5 * math.pi * t, stirling)
                log_tail = log_t0 + log_gamma - math.lgamma(k + 1.0) + k * log_b
                if log_tail < _LOG_EPS + math.log(max(1.0, abs(acc))):
                    break
    except (OverflowError, ValueError):
        return None
    # written so that a NaN from an overflowed term also fails
    if not magnitude * (40.0 + 2.5 * t) * _EPS <= _SERIES_TOL * max(1.0, abs(acc)):
        return None
    return acc


def _polylog_boole(s, b):
    # Li_s(e^mu) = sum_{n<N} e^{n mu} n^-s + e^{N mu} sum_{m>=0} e^{m mu} (N+m)^-s,
    # mu = 2 pi i b. The tail is Boole's expansion
    # sum_j binom(-s, j) N^{-s-j} Li_{-j}(e^mu), with the j = 0 sum as 1/(1 - e^mu)
    # and, for j >= 1, Li_{-j}(e^mu) = j!/(2 pi i)^{j+1} sum_k (k - b)^{-j-1}, a
    # pair of Hurwitz zeta values at the integer j + 1. Its terms shrink by
    # (|s| + j)/(2 pi |b| N) <= 1/4 for the N below, and the Lerch integral
    # behind it loses only e^{-pi |b| N} * e^{pi |Im s|/2} <= e^{-80}. No
    # zeta value at s enters, so no cancellation grows with |Im s|. Where the
    # plain sum's Abel bound reaches _DIRECT_TAIL sooner (large Re s), the
    # plain sum is the value.
    near = abs(b)
    n_head = math.ceil(4.0 * (abs(s) + 40.0) / (2.0 * math.pi * near))
    abel = abs(s) / (s.real * abs(math.sin(math.pi * b))) / _DIRECT_TAIL
    n_abel = math.ceil(abel ** (1.0 / s.real))
    if min(n_head, n_abel) > _DIRECT_MAX_TERMS:
        raise ValueError(
            f"polylog at s = {s}, a = {b % 1.0:g} needs more than {_DIRECT_MAX_TERMS} "
            f"direct terms; |Im s| is too large this close to an integer a"
        )
    if n_abel <= n_head:
        return polylog_circle_direct(s, b, n_abel)[0]
    head, _ = polylog_circle_direct(s, b, n_head - 1)
    n_pow = cmath.exp(-s * math.log(n_head))  # N^-s
    scale = _LOG_EPS + math.log(max(1.0, abs(head))) - math.log(max(abs(n_pow), 1e-300))
    acc = complex(0.5, 0.5 / math.tan(math.pi * b))  # 1/(1 - e^mu)
    coef = 1.0 + 0j  # (-1)^j (s)_j/(2 pi i N)^j
    j = 0
    while True:
        coef *= 1j * (s + j) / (2.0 * math.pi * n_head)
        j += 1
        p = j + 1
        h_near, h_far = hurwitz_zeta(p, near), hurwitz_zeta(p, 1.0 - near)
        sign = -1.0 if p % 2 else 1.0
        h = h_far + sign * h_near if b > 0.0 else h_near + sign * h_far
        acc += coef * h / (2j * math.pi)
        # |h| <= 2 (|b|^-p + zeta(2)); the later terms add at most 1/3 of it
        if math.log(abs(coef) + 1e-300) + math.log(2.0 * (near**-p + 1.65) / (2.0 * math.pi)) < scale:
            break
    phase_n = cmath.exp(2j * math.pi * ((n_head * b) % 1.0))
    return head + phase_n * n_pow * acc


def _polylog_unit(s, b):
    # Li_s(e^{2 pi i b}) for Re s > 1 and 0 < |b| <= 1/2: the zeta series,
    # or where it cannot be trusted, the direct sum with Boole's tail
    value = _polylog_zeta_series(s, b)
    if value is None:
        value = _polylog_boole(s, b)
    if s.imag == 0.0 and abs(b) == 0.5:
        return complex(value.real, 0.0)  # Li_s(-1) is real for real s
    return value


def polylog_circle(s, a):
    """Li_s(e^{2 pi i a}) on the unit circle; requires Re s > 1 and a not integer.

    Evaluated by the zeta series Li_s(e^mu) = Gamma(1-s) (-mu)^{s-1} +
    sum_k zeta(s-k) mu^k/k! with mu = 2 pi i b and b = a reduced to
    (-1/2, 1/2]. The terms shrink at least by the factor |b| each, and the
    sum stops where a bound on the rest falls below double rounding, so no
    term cap applies. Within 0.1 of an integer order the two terms that are
    singular there are combined analytically, so integer orders and orders
    next to them cost no accuracy.

    The series' terms cancel by about e^{|b Im s|}, and their rounding
    errors grow with |Im s|. Where that could cost accuracy (from
    |b Im s| of about 3, and for any b from |Im s| of about 9000),
    the value is instead the direct sum over
    n < N = 4 (|s| + 40)/(2 pi |b|) plus Boole's expansion of the rest in
    Hurwitz zeta values at integers, which does not cancel; or, where
    shorter, the plain sum up to an Abel tail bound of 1e-12.

    Accurate to 1e-11 * max(1, |Li|) (measured against mpmath: at most
    2e-13 for a from 1e-5 to 0.999, Re s from 1.001 to 31, s within 1e-13
    to 0.2 of 2..7 and |Im s| up to 455; 2.5e-14 at |Im s| of 460 and 600
    with a within 1e-4 of an integer; 1e-12 for Re s in {1.001, 1.5, 3},
    a from 1e-6 to 1 - 1e-5 and |Im s| from 1000 to 9000, 2.9e-12 at
    |Im s| = 20000). Raises ValueError where the direct route would need
    more than 2^23 terms: only for |Im s| above about 5000 with a within
    about 1e-3 of an integer.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("polylog_circle requires Re s > 1")
    a_red = a - math.floor(a)
    if a_red == 0.0:
        raise ValueError("polylog_circle undefined at integer a")
    return _polylog_unit(s, _centered(a_red))


def polylog_circle_direct(s, a, n_terms):
    """Partial direct sum of Li_s(e^{2 pi i a}) over n <= n_terms plus a tail bound.

    Requires Re s > 1 and a not integer. Returns (value, tail_bound) with
    |exact - value| <= tail_bound by Abel partial summation,
    |s| / (Re s * |sin(pi a)|) * n_terms^{-Re s}. An independent reference
    for polylog_circle: it shares no code with the zeta functions. Sums in
    blocks, so memory does not grow with n_terms.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("polylog_circle_direct requires Re s > 1")
    # a - round(a) is exact, so a small negative a keeps all its digits
    b = a - round(a)
    if b == 0.0:
        raise ValueError("polylog_circle_direct undefined at integer a")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    value = 0j
    for start in range(1, n_terms + 1, _DIRECT_BLOCK):
        n = np.arange(start, min(start + _DIRECT_BLOCK, n_terms + 1), dtype=np.float64)
        phase = np.exp(2j * np.pi * np.mod(n * b, 1.0))
        value += complex(np.sum(phase * np.exp(-s * np.log(n))))
    tail = abs(s) / (s.real * abs(math.sin(math.pi * b))) * float(n_terms) ** -s.real
    return value, tail


def im_polylog_even(l, a):
    """Im Li_{2l+2}(e^{2 pi i a}) = sum_{n>=1} sin(2 pi n a)/n^{2l+2}.

    a must not be an integer. The imaginary part of polylog_circle's zeta
    series at the integer order 2l + 2, where the singular pair of terms is
    the Clausen-type closed form (H_{2l+1} - log(-mu)) mu^{2l+1}/(2l+1)!
    (H_m the harmonic number, mu = 2 pi i b as in polylog_circle). No term
    cap applies. Accurate to 1e-13 absolute (measured against mpmath: at
    most 5e-15 for l = 0..4 and a from 1e-5 to 1 - 1e-5).
    """
    if l < 0:
        raise ValueError("l must be a non-negative integer")
    return polylog_circle(2 * l + 2, a).imag


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
