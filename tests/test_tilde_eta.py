"""Two-sided shifted eta series: continuation, special values, residues."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumin_eta.tilde_eta import (
    _H_TAIL_COUNT,
    _binom_complex,
    _h_tail_odd,
    _tail_lengths,
    _zeta_m,
    default_start_index,
    lambda_n,
    tilde_eta,
    tilde_eta_at_zero,
    tilde_eta_direct,
    tilde_eta_residue,
)

SQRT2 = math.sqrt(2.0)


def test_lambda_sequence_closed_form():
    for n in (0, 1, 2, 7, 100):
        want = math.sqrt(8.0 * (2 * n + 1) ** 2 + 9.0) / 4.0
        assert lambda_n(n) == want
    # n=1 sits at exactly 9/4
    assert lambda_n(1) == 2.25


def test_value_at_zero_quarter_shift():
    # one eigenvalue below the shift at a=5/4
    point = tilde_eta(0.0, 1.25)
    assert point.value.real == pytest.approx(2.0 - 5.0 * SQRT2 / 4.0, abs=1e-12)
    assert point.value.imag == 0.0
    assert not point.is_pole
    assert point.residue == 0.0


def test_value_at_zero_matches_counting_formula():
    for a in (0.3, 1.25, 2.5, 4.0):
        assert tilde_eta(0.0, a).value.real == pytest.approx(
            tilde_eta_at_zero(a), abs=1e-10
        )
    # two eigenvalues below a=2.5
    assert tilde_eta_at_zero(2.5) == pytest.approx(4.0 - 5.0 * SQRT2 / 2.0, abs=0)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=6.0))
def test_at_zero_counting_property(a):
    # 2 * #{n : lambda_n < a} - sqrt(2) * a, guarded away from crossings
    count = 0
    n = 0
    while lambda_n(n) < a:
        count += 1
        n += 1
    if abs(lambda_n(max(count - 1, 0)) - a) < 1e-6 or abs(lambda_n(count) - a) < 1e-6:
        return
    assert tilde_eta_at_zero(a) == pytest.approx(2.0 * count - SQRT2 * a, rel=1e-12)


def test_odd_negative_integers_vanish():
    for a in (0.3, 1.25, 2.7):
        for s in (-1.0, -3.0):
            assert abs(tilde_eta(s, a).value) < 1e-8, (s, a)
    assert abs(tilde_eta(-5.0, 1.25).value) < 1e-10


def test_continuation_matches_direct_sum():
    for s in (1.5, 2.0, 3.0, 4.0 + 2.0j):
        for a in (0.3, 1.25):
            cont = tilde_eta(s, a).value
            direct, tail = tilde_eta_direct(s, a, 40000)
            assert tail >= 0.0
            assert abs(cont - direct) <= 1e-8 + tail, (s, a)


def test_direct_tail_bound_shrinks():
    _, t1 = tilde_eta_direct(3.0, 1.25, 500)
    _, t2 = tilde_eta_direct(3.0, 1.25, 5000)
    assert t2 < t1


def test_residue_closed_form_quarter():
    assert tilde_eta_residue(1, 1.25) == pytest.approx(45.0 * SQRT2 / 64.0, rel=1e-14)


def test_residue_matches_pole_extrapolation():
    """(s+2l) * tilde at s -> -2l, Richardson-extrapolated over two epsilons."""
    for l in (1, 2, 3):
        s0 = -2.0 * l
        e1, e2 = 1e-3, 1e-4
        r1 = e1 * tilde_eta(s0 + e1, 1.25).value
        r2 = e2 * tilde_eta(s0 + e2, 1.25).value
        extrap = ((e1 * r2 - e2 * r1) / (e1 - e2)).real
        formula = tilde_eta_residue(l, 1.25)
        assert extrap == pytest.approx(formula, rel=1e-6), l


def test_pole_records():
    point = tilde_eta(-2.0, 1.25)
    assert point.is_pole
    assert math.isnan(point.value.real) and math.isnan(point.value.imag)
    assert point.residue == pytest.approx(45.0 * SQRT2 / 64.0, rel=1e-14)
    point4 = tilde_eta(-4.0, 0.3)
    assert point4.is_pole
    assert point4.residue == pytest.approx(tilde_eta_residue(2, 0.3), rel=1e-14)


def test_regular_points_not_flagged():
    for s in (0.0, -1.0, -3.0, 2.0, -2.0 + 1e-6, -2.0 + 1.0j):
        assert not tilde_eta(s, 1.25).is_pole, s


def test_residue_formula_combinatorial():
    # sqrt(2) * sum_j C(2l, 2j+1) C(2(l-j), l-j) (9/64)^(l-j) a^(2j+1)
    for l in (1, 2, 4):
        for a in (0.3, 1.25):
            acc = 0.0
            for j in range(l + 1):
                acc += (
                    math.comb(2 * l, 2 * j + 1)
                    * math.comb(2 * (l - j), l - j)
                    * (9.0 / 64.0) ** (l - j)
                    * a ** (2 * j + 1)
                )
            assert tilde_eta_residue(l, a) == pytest.approx(SQRT2 * acc, rel=1e-13), (l, a)


def test_residue_formula_beyond_the_float_combinatorics_against_mpmath():
    # from l = 326 the integer factors' product alone exceeds the double
    # range; the sum is exact, so only the final conversion rounds
    mp = pytest.importorskip("mpmath")
    for l in range(326, 401, 7):
        with mp.workdps(30):
            want = mp.sqrt(2) * mp.fsum(
                mp.binomial(2 * l, 2 * j + 1) * mp.binomial(2 * l - 2 * j, l - j)
                * (mp.mpf(9) / 64) ** (l - j) * mp.mpf(1.25) ** (2 * j + 1)
                for j in range(l)
            )
        assert abs(tilde_eta_residue(l, 1.25) - want) <= 1e-15 * want, l


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=1.2, max_value=5.0),
    tau=st.floats(min_value=-3.0, max_value=3.0),
    a=st.floats(min_value=0.1, max_value=2.0),
)
# a sits 4.7e-4 from lambda_0, where the value is 9.4e9 and one ulp is 1.9e-6
@example(sigma=3.0, tau=0.0, a=1.03125)
def test_continuation_tracks_direct_sum_property(sigma, tau, a):
    s = complex(sigma, tau)
    cont = tilde_eta(s, a).value
    direct, tail = tilde_eta_direct(s, a, 3000)
    assert abs(cont - direct) <= 1e-7 + 1e-13 * abs(direct) + tail


def test_shift_reflection_antisymmetry():
    # the two-sided series is odd under a -> -a away from poles
    for s in (0.7, 2.0, -0.5):
        for a in (0.3, 1.25):
            plus = tilde_eta(s, a).value
            minus = tilde_eta(s, -a).value
            assert abs(plus + minus) <= 1e-10 * max(1.0, abs(plus)), (s, a)


# --- binomial tails ---------------------------------------------------------

# (s, a) over Re s in [-6.5, 6], |Im s| <= 30, each a in {+-0.05, +-0.97, +-1.2} twice
TAIL_GRID = [
    (-6.5 + 0.0j, 0.05), (-6.5 + 7.5j, -0.97), (-6.5 - 30.0j, 1.2),
    (-2.3 + 7.5j, -1.2), (-2.3 - 30.0j, 0.97), (-2.3 + 0.0j, -0.05),
    (0.4 + 0.0j, 1.2), (0.4 - 30.0j, -0.05), (0.4 + 7.5j, 0.97),
    (3.1 - 30.0j, -1.2), (6.0 + 7.5j, 0.05), (6.0 - 30.0j, -0.97),
]


def _order(s):
    return 2 * math.ceil(abs(s.real)) + 6


def _h_tail_rest_bound(s, a, n_from, l0):
    """Bound on 2 sum_{n >= n_from} |lambda_n^-s| sum_{odd l >= l0} |binom(-s, l) (a/lambda_n)^l|.

    From l0 on the term ratios stay below r = z max(1, (|s| + l0)/(l0 + 1)),
    z = |a|/lambda_{n_from}; lambda_n >= (2n + 1)/sqrt(2); and with
    p = Re s + l0 > 1, sum_{n >= N} ((2n + 1)/sqrt(2))^-p <= u^-p (1 + (2N + 1)/(2 (p - 1))),
    u = (2N + 1)/sqrt(2). Infinite where r >= 1 or p <= 1.
    """
    p = s.real + l0
    r = abs(a) / lambda_n(n_from) * max(1.0, (abs(s) + l0) / (l0 + 1.0))
    if p <= 1.0 or r >= 1.0:
        return math.inf
    b0 = abs(_binom_complex(-s, l0))
    if b0 == 0.0:  # the binomial series ends before l0
        return 0.0
    u = (2 * n_from + 1) / math.sqrt(2.0)
    log_bound = (
        math.log(2.0 * b0) + l0 * math.log(abs(a)) - math.log1p(-r)
        - p * math.log(u) + math.log1p((2 * n_from + 1) / (2.0 * (p - 1.0)))
    )
    return math.exp(log_bound)


def _h_tail_reference(mp, s, a, m, order):
    """(value, sum of |terms|, bound on the n left out) of the odd binomial
    tail, term by term in mpmath, over n from m until _h_tail_rest_bound
    drops below 1e-20 (1 + sum)."""
    S, A = mp.mpc(s), mp.mpf(a)
    l0 = order + 1
    total, magnitude = mp.mpc(0), mp.mpf(0)
    n = m
    while n < m + _H_TAIL_COUNT and _h_tail_rest_bound(s, a, n, l0) > 1e-20 * (1.0 + magnitude):
        lam = mp.sqrt(8 * (2 * n + 1) ** 2 + 9) / 4
        z = A / lam
        c = mp.binomial(-S, l0) * z**l0
        acc, size, l = mp.mpc(0), mp.mpf(0), l0
        while True:
            if l % 2:
                acc += c
                size += abs(c)
            r = abs(z) * max(1, (abs(S) + l) / (l + 1))
            if r < 1 and abs(c) / (1 - r) < 1e-22 * (1 + size):
                break
            c *= z * (-S - l) / (l + 1)
            l += 1
        weight = lam ** (-S)
        total += weight * acc
        magnitude += abs(weight) * size
        n += 1
    return complex(2 * total), 2.0 * float(magnitude), _h_tail_rest_bound(s, a, n, l0)


def test_h_tail_odd_against_mpmath_double_sum():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        for s, a in TAIL_GRID:
            m = default_start_index(a)
            want, magnitude, rest = _h_tail_reference(mp, s, a, m, _order(s))
            got = _h_tail_odd(s, a, m, _order(s))
            # measured: at most 4e-16 max(1, sum of |terms|)
            assert abs(got - want) <= 1e-14 * max(1.0, magnitude) + rest, (s, a)


# (sigma, a): Re sigma from -5.5 to 30, |Im sigma| <= 80; sigma = -1 + 1e-6i
# sits next to the pole of the k = 1 Hurwitz term
ZETA_M_POINTS = [
    (-5.5 + 0.0j, 0.97), (-5.5 - 30.0j, 1.2), (-2.3 + 7.5j, 0.05), (-1.0 + 1e-6j, 1.25),
    (0.4 - 30.0j, 7.3), (1.0 + 0.3j, 1.25), (1.3 + 80.0j, 1.25), (3.1 + 0.0j, 30.3),
    (4.0 - 80.0j, 1.25), (7.0 + 10.0j, 4.0), (15.0 + 2.0j, 1.25), (30.0 - 80.0j, 1.25),
    (30.0 + 0.0j, 30.3),
]


def test_zeta_m_against_mpmath_double_sum():
    # sum_{n>=m} lambda_n^-sigma = lambda_0^-sigma + 2^{sigma/2} sum_k binom(-sigma/2, k)
    # (9/8)^k sum_{n>=1} (2n+1)^{-sigma-2k} - sum_{0<n<m} lambda_n^-sigma, summed
    # in mpmath with the inner sums as 2^{-w} zeta(w, 3/2), with enough digits
    # for the head subtraction, at m = 0, 1, the default split point for a
    # and one with lambda_m > |s| |a| (s = sigma - 1), as tilde_eta takes for
    # Re s > 0
    mp = pytest.importorskip("mpmath")
    for sigma, a in ZETA_M_POINTS:
        ms = sorted({0, 1, default_start_index(a), default_start_index(abs(sigma - 1.0) * a)})
        lost = max(0.0, sigma.real * math.log10(lambda_n(ms[-1]) / lambda_n(0)))
        with mp.workdps(25 + int(lost)):
            S = mp.mpc(sigma)
            zeta_0 = mp.mpf(17) ** (-S / 2) * 4**S
            k = 0
            while True:
                w = S + 2 * k
                term = 2 ** (S / 2) * mp.binomial(-S / 2, k) * mp.mpf(1.125) ** k * mp.zeta(w, 1.5) / 2**w
                zeta_0 += term
                if k > 5 and abs(term) < mp.mpf(10) ** (-20 - lost) * abs(zeta_0):
                    break
                k += 1
            for m in ms:
                head = sum(mp.sqrt(8 * (2 * n + 1) ** 2 + 9) ** (-S) * 4**S for n in range(m))
                want = complex(zeta_0 - head)
                zm = _zeta_m(sigma, 0, m)
                got = zm.regular
                if zm.sigma0 is not None:
                    got += zm.polar_coeff / (sigma - zm.sigma0)
                # measured: at most 1.8e-13 (at sigma = 1.3 + 80i, m = 71)
                assert abs(got - want) <= 1e-12 * abs(want), (sigma, m)


@pytest.mark.parametrize("re", [1.5, 3.0, 6.0])
def test_continuation_matches_direct_sum_at_large_s_and_shift(re):
    """Re s in {1.5, 3, 6} x Im s in {0, 30, -80} x a in {1.25, -4, 7.3, -30.3}:
    where the a-expansion's terms grow like (|s| |a|)^l/l!, within
    1e-14 max(1, |value|) of 400000 direct terms plus their tail bound."""
    for im in (0.0, 30.0, -80.0):
        for a in (1.25, -4.0, 7.3, -30.3):
            s = complex(re, im)
            cont = tilde_eta(s, a).value
            direct, tail = tilde_eta_direct(s, a, 400000)
            # measured: at most 1.1e-15 max(1, |value|) beyond the tail
            assert abs(cont - direct) <= 1e-14 * max(1.0, abs(cont)) + tail, (s, a)


@settings(max_examples=150, deadline=None)
@given(
    re=st.floats(min_value=-8.0, max_value=8.0),
    im=st.floats(min_value=-30.0, max_value=30.0),
    z=st.floats(min_value=0.001, max_value=0.9),
    l0=st.integers(min_value=1, max_value=30),
    log_limit=st.floats(min_value=-60.0, max_value=-5.0),
)
@example(re=0.3, im=0.2, z=0.9, l0=1, log_limit=-50.0)  # |x| < 1: ratios rise towards z
@example(re=-0.5, im=0.0, z=0.85, l0=7, log_limit=-55.0)
@example(re=3.0, im=0.0, z=0.5, l0=2, log_limit=-50.0)  # the series ends at l = 3
@example(re=8.0, im=30.0, z=0.9, l0=1, log_limit=-60.0)  # terms grow to ~1e31 first
def test_tail_length_bounds_the_next_terms(re, im, z, l0, log_limit):
    """What the length leaves out, the next 200 terms summed one by one, is within the limit."""
    x = complex(re, im)
    limit = math.exp(log_limit)
    b0 = abs(_binom_complex(x, l0))
    (count,) = _tail_lengths(x, b0, l0, [z], [limit])
    term, l = b0 * z**l0, l0
    for _ in range(count):
        term *= abs(x - l) / (l + 1) * z
        l += 1
    rest = 0.0
    for _ in range(200):
        rest += term
        term *= abs(x - l) / (l + 1) * z
        l += 1
    assert rest <= limit * (1.0 + 1e-12), (x, z, l0, count)


def test_tail_length_raises_rather_than_truncate():
    with pytest.raises(ValueError, match="too close to 1"):
        _tail_lengths(0.5 + 0.0j, 1.0, 7, [1.0 - 1e-6], [1e-22])


@pytest.mark.parametrize("a", [-1.25, -0.97, -0.05, 0.05, 0.6, 1.2, 1.25])
def test_h_tail_beyond_its_lambda_range_is_negligible_on_the_eval_domain(a):
    """_h_tail_odd stops after _H_TAIL_COUNT lambda_n; on the eval domain
    (|a| <= 5/4, Re s in [-6.5, 6], |Im s| <= 10) what lies beyond is below
    1e-17 max(1, |tilde_eta|)."""
    m = default_start_index(a)
    for re in (-6.5, -4.2, -1.5, 0.0, 1.0, 3.3, 6.0):
        for im in (0.0, 2.5, -6.0, 10.0):
            s = complex(re, im)
            point = tilde_eta(s, a)
            if point.is_pole:
                continue
            beyond = _h_tail_rest_bound(s, a, m + _H_TAIL_COUNT, _order(s) + 1)
            assert beyond <= 1e-17 * max(1.0, abs(point.value)), (s, a, beyond)


@pytest.mark.parametrize("s, a", [(2.0, 1e9), (2.0, 1e308), (2.0, -1e308), (-1.0, 1e7), (0.5j, 1e7)])
def test_head_beyond_its_cap_is_refused(s, a):
    # the head n < m would pass 2^21 terms; refused before the search for m
    with pytest.raises(ValueError, match="head beyond 2097152 terms"):
        tilde_eta(s, a)


def test_head_just_inside_its_cap_is_answered():
    # |s| |a| = 2e6 puts m at 1414214, below 2^21 = 2097152
    point = tilde_eta(2.0, 1e6)
    assert not point.is_pole
    direct, tail = tilde_eta_direct(2.0, 1e6, 2**22)
    assert abs(point.value - direct) <= tail + 1e-12 * abs(direct)
