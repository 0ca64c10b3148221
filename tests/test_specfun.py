"""Special-function layer: zeta variants, the signed Hurwitz eta, polylogs."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_eta import specfun
from rumin_eta.specfun import (
    bernoulli_number,
    eta_hurw,
    eta_hurw_deriv_neg_odd,
    gamma_fn,
    hurwitz_zeta,
    im_polylog_even,
    im_polylog_even_quad,
    polylog_circle,
    polylog_circle_direct,
    riemann_zeta,
    riemann_zeta_regular,
)

CATALAN = 0.915965594177219


def test_bernoulli_numbers_match_table():
    assert bernoulli_number(0) == 1.0
    assert bernoulli_number(1) == -0.5
    assert bernoulli_number(2) == pytest.approx(1.0 / 6.0, abs=0)
    assert bernoulli_number(12) == pytest.approx(-691.0 / 2730.0, rel=1e-15)
    for k in (3, 5, 7, 9):
        assert bernoulli_number(k) == 0.0


def test_riemann_zeta_classic_values():
    assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert riemann_zeta(4.0).real == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-13)
    assert riemann_zeta(0.0).real == pytest.approx(-0.5, rel=1e-14)
    # trivial zeros are snapped exactly so downstream brackets stay exact
    for k in (-2.0, -4.0, -10.0, -26.0):
        assert riemann_zeta(k) == 0.0


def test_riemann_zeta_against_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    points = [0.5, 1.5, 3.0, -0.5, -3.0, -11.5 + 3.0j, -25.0 + 40.0j, 2.0 - 7.0j]
    for s in points:
        want = complex(mp.zeta(s))
        got = riemann_zeta(s)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), s


def test_hurwitz_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s, a in [(2.3, 0.25), (0.5, 0.7), (-1.5, 1.0), (3.0 + 1.0j, 0.4),
                 (-0.5 + 2.0j, 0.9)]:
        want = complex(mp.zeta(s, a))
        got = hurwitz_zeta(s, a)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (s, a)


def test_hurwitz_zeta_rejects_bad_shift():
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)


def test_eta_hurw_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def reference(s, a):
        return complex(mp.zeta(s, a) - mp.zeta(s, 1.0 - a))

    for s, a in [(3.7, 0.25), (0.0, 0.3), (-1.4, 0.8), (2.0 + 1.0j, 0.45),
                 (-0.5 - 2.0j, 6.0 / 7.0)]:
        got = eta_hurw(s, a)
        want = reference(s, a)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (s, a)


def test_eta_hurw_reflected_region_against_mpmath():
    # far left of the summation window the polylog route takes over
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s, a in [(-6.4, 0.25), (-15.5 - 4.0j, 6.0 / 7.0), (-30.0, 0.25),
                 (-9.2 + 1.1j, 0.3)]:
        want = complex(mp.zeta(s, a) - mp.zeta(s, 1.0 - a))
        got = eta_hurw(s, a)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (s, a)


def test_real_orders_give_real_values():
    # conjugate-symmetric arithmetic: gamma_fn's real routine on the real
    # axis, Li at a and 1 - a from b and -b, and Li_s(-1) real
    assert gamma_fn(-5.28).imag == 0.0
    for s, a in [(-5.28, 2.0 / 3.0), (-2.7, 0.1), (-9.5, 0.45)]:
        assert eta_hurw(s, a).imag == 0.0, (s, a)
    for l in range(3):
        assert im_polylog_even(l, 0.5) == 0.0


def test_eta_hurw_half_shift_is_zero():
    for s in (0.0, 1.7, -2.4, 3.0 + 2.0j):
        assert eta_hurw(s, 0.5) == 0.0


def test_eta_hurw_negative_odd_zeros_exact():
    # snapped in both windows, so eta_nil(0) = r eta_hurw(-1, a) ... is exact
    for k in (1, 3, 5, 9, 15):
        assert eta_hurw(-float(k), 0.25) == 0.0
    assert eta_hurw(-1.0, 2.0 / 7.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    s=st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                         allow_nan=False, allow_infinity=False),
    a=st.floats(min_value=0.02, max_value=0.98),
)
def test_eta_hurw_periodicity_and_oddness(s, a):
    base = eta_hurw(s, a)
    assert abs(eta_hurw(s, a + 1.0) - base) <= 1e-9 * max(1.0, abs(base))
    assert abs(eta_hurw(s, -a) + base) <= 1e-9 * max(1.0, abs(base))


def test_eta_hurw_reflection_identity_noncircular():
    """Summation-window values against the explicit polylog form.

    Points sit in Re s in (-1.5, 0) where eta_hurw itself never calls the
    polylog route, so the two sides are computed independently.
    """
    for s, a in [(-1.02, 0.25), (-1.25, 0.3), (-1.45, 6.0 / 7.0),
                 (-1.2 + 0.7j, 0.4), (-0.6, 0.15)]:
        t = 1.0 - s
        pref = -2j * (2.0 * cmath.pi) ** (-t) * cmath.sin(cmath.pi * t / 2.0) * gamma_fn(t)
        rhs = pref * (polylog_circle(t, a) - polylog_circle(t, 1.0 - a))
        assert abs(eta_hurw(s, a) - rhs) <= 1e-9, (s, a)


def test_polylog_circle_quarter_turn_dilog():
    # Li_2(i) has Catalan's constant as imaginary part, -pi^2/48 as real part
    got = polylog_circle(2.0, 0.25)
    assert got.imag == pytest.approx(CATALAN, abs=1e-11)
    assert got.real == pytest.approx(-math.pi**2 / 48.0, abs=1e-11)


def test_polylog_circle_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s, a in [(2.0, 0.3), (3.5, 0.25), (2.5 + 1.0j, 0.7), (6.0, 3.0 / 7.0)]:
        want = complex(mp.polylog(s, mp.exp(2j * mp.pi * a)))
        got = polylog_circle(s, a)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (s, a)


def _polylog_grid_orders():
    orders = [1.001, 1.05, 1.2, 1.2 + 3.0j, 2.5 - 1.0j, 4.3 + 7.0j, 15.2 - 2.0j]
    for n in range(2, 8):
        orders.append(float(n))
        # both sides, an imaginary offset, and both sides of the 0.1 radius
        # inside which the singular pair is combined analytically
        for d in (1e-13, 1e-10, 1e-6, 9e-4):
            orders += [n + d, n - d, complex(n, d)]
        orders += [n + 0.099, n - 0.101]
    return orders


def test_polylog_circle_mpmath_grid():
    # a near 0 and 1, Re s near 1, and orders at and next to the integers,
    # where the Gamma term and one zeta term are both singular
    mp = pytest.importorskip("mpmath")
    for s in _polylog_grid_orders():
        # mpmath's own series cancels by 1/|s - n| next to an integer order n
        gap = abs(s - round(s.real))
        with mp.workdps(20 + (math.ceil(-math.log10(gap)) if gap > 0.0 else 0)):
            for a in (1e-5, 1e-3, 0.3, 0.5, 0.999):
                if a == 0.5:  # Li_s(-1) = -eta(s), much faster in mpmath
                    want = complex(-mp.altzeta(mp.mpc(s)))
                else:
                    want = complex(mp.polylog(mp.mpc(s), mp.exp(2j * mp.pi * mp.mpf(a))))
                got = polylog_circle(s, a)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (s, a)


def _polylog_jonquiere(mp, s, a):
    # Li_s(e^{2 pi i a}) from Hurwitz zeta values (Jonquiere's formula);
    # mpmath's own polylog loses digits at large |Im s|
    s, a = mp.mpc(s), mp.mpf(a)
    return complex(
        mp.gamma(1 - s) / (2 * mp.pi) ** (1 - s)
        * (mp.power(1j, 1 - s) * mp.zeta(1 - s, a) + mp.power(1j, s - 1) * mp.zeta(1 - s, 1 - a))
    )


def test_polylog_circle_large_imaginary_orders_against_mpmath():
    # past |b Im s| ~ 3 the zeta series cancels and the direct sum with
    # Boole's tail takes over; past |Im s| ~ 450 the zeta values overflow
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s, a in [
            (2.5 + 25.0j, 0.5),
            (3.0 - 20.0j, 0.45),
            (1.001 + 150.0j, 0.05),
            (1.5 - 200.0j, 0.4),
            (complex(2.0 + 1e-9, 40.0), 0.3),
            (7.3 + 150.0j, 0.7),
            (3.0 + 455.0j, 1e-5),
            (1.2 - 600.0j, 1e-3),
        ]:
            want = _polylog_jonquiere(mp, s, a)
            assert abs(polylog_circle(s, a) - want) <= 1e-11 * max(1.0, abs(want)), (s, a)


def test_orders_next_to_integers_stay_on_the_zeta_series():
    # the analytic pole pair keeps the series' terms from cancelling there;
    # without it the slower direct route would have to answer
    for s in (2.0 + 1e-6, 3.0 - 9e-4, complex(4.0, 1e-6), 5.0 + 0.099):
        for b in (0.3, -1e-3, 0.5):
            assert specfun._polylog_zeta_series(complex(s), b) is not None, (s, b)


def test_polylog_circle_raises_where_the_direct_route_is_too_long():
    # |Im s| = 600 overflows the zeta series, and a = 1e-6 would need
    # 4(|s| + 40)/(2 pi a) ~ 4e8 direct terms
    with pytest.raises(ValueError, match="direct terms"):
        polylog_circle(1.5 + 600.0j, 1e-6)


def test_eta_hurw_reflected_region_large_imaginary_part_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s, a in [(-2.0 + 20.0j, 0.45), (-3.5 - 30.0j, 0.25), (-2.0 + 20.0j, 1.0 / 3.0)]:
            z = mp.mpc(s)
            want = complex(mp.zeta(z, a) - mp.zeta(z, 1 - mp.mpf(a)))
            assert abs(eta_hurw(s, a) - want) <= 1e-10 * max(1.0, abs(want)), (s, a)


def test_polylog_circle_direct_bounds_its_tail():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        for s, a, n in [(2.0, 0.3, 500), (1.3 + 2.0j, 0.05, 2000), (4.0, 6.0 / 7.0, 50)]:
            want = complex(mp.polylog(mp.mpc(s), mp.exp(2j * mp.pi * mp.mpf(a))))
            value, tail = polylog_circle_direct(s, a, n)
            assert abs(value - want) <= tail, (s, a, n)
            assert abs(polylog_circle(s, a) - value) <= tail + 1e-11, (s, a, n)
    with pytest.raises(ValueError):
        polylog_circle_direct(1.0, 0.25, 10)
    with pytest.raises(ValueError):
        polylog_circle_direct(2.0, 3.0, 10)
    with pytest.raises(ValueError):
        polylog_circle_direct(2.0, 0.25, 0)


def test_riemann_zeta_regular_next_to_the_pole_against_mpmath():
    # (exp(z) - 1)/z in the correction term loses eps/|z| unless it is
    # formed from expm1; the worst case sits near |z| = 1e-4
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for d in (3.6e-5, -3.6e-5, 3.6e-5j, 1e-3, 1e-8, 0.0):
            s = 1.0 + d
            z = mp.mpc(s)
            want = complex(mp.euler if d == 0 else mp.zeta(z) - 1 / (z - 1))
            assert abs(riemann_zeta_regular(s) - want) <= 4e-15, d


def test_polylog_circle_domain_errors():
    with pytest.raises(ValueError):
        polylog_circle(0.9, 0.25)
    with pytest.raises(ValueError):
        polylog_circle(2.0, 1.0)


def test_im_polylog_even_beta_values():
    # orders 2 and 4 at a=1/4 give Catalan and the order-4 beta constant
    assert im_polylog_even(0, 0.25) == pytest.approx(CATALAN, abs=1e-12)
    assert im_polylog_even(1, 0.25) == pytest.approx(0.9889445517411053, abs=1e-12)


def test_im_polylog_even_series_vs_quadrature():
    for l in (0, 1, 2, 3):
        for a in (0.25, 0.3, 3.0 / 7.0, 0.81):
            series = im_polylog_even(l, a)
            quad = im_polylog_even_quad(l, a)
            assert abs(series - quad) <= 1e-8, (l, a)


def test_im_polylog_even_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        for l in range(5):
            for a in (1e-5, 1e-3, 0.02, 0.25, 0.5, 0.77, 0.999, 1.0 - 1e-5):
                want = float(mp.im(mp.polylog(2 * l + 2, mp.exp(2j * mp.pi * mp.mpf(a)))))
                assert abs(im_polylog_even(l, a) - want) <= 1e-13, (l, a)


@settings(max_examples=30, deadline=None)
@given(l=st.integers(min_value=0, max_value=4),
       a=st.floats(min_value=0.05, max_value=0.95))
def test_im_polylog_even_odd_in_a(l, a):
    assert im_polylog_even(l, 1.0 - a) == pytest.approx(-im_polylog_even(l, a), abs=1e-12)


def test_eta_hurw_deriv_neg_odd_quarter_values():
    # l=0 at a=1/4 reduces to Catalan/(2 pi)
    d0 = eta_hurw_deriv_neg_odd(0, 0.25)
    assert d0 == pytest.approx(CATALAN / (2.0 * math.pi), rel=1e-12)
    d1 = eta_hurw_deriv_neg_odd(1, 0.25)
    assert d1 == pytest.approx(-0.02392123444725165, rel=1e-10)


def test_eta_hurw_deriv_matches_finite_difference():
    # centered difference of eta_hurw around s=-2l-1 approximates the
    # derivative to O(h^2); loose tolerance reflects the step size
    for l, a in [(0, 0.3), (1, 0.25), (2, 0.7)]:
        s0 = -(2.0 * l + 1.0)
        h = 1e-5
        fd = (eta_hurw(s0 + h, a) - eta_hurw(s0 - h, a)).real / (2.0 * h)
        assert eta_hurw_deriv_neg_odd(l, a) == pytest.approx(fd, rel=1e-7, abs=1e-12)
