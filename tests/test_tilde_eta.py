"""Two-sided shifted eta series: continuation, special values, residues."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumin_eta.tilde_eta import (
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
