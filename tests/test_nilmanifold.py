"""Nilmanifold eta function: case split, closed form, and the double sum."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_eta.nilmanifold import (
    CaseTag,
    LatticeCharacterData,
    eta_direct_sum,
    eta_nil,
    eta_nil_neg_even,
    eta_nil_special,
    classify_case,
    multiplicity,
    sign_prediction,
)

D41 = LatticeCharacterData(r=4, c=1, gamma_norm=1.0, case_tag=CaseTag.GENERIC)


def data(r, c, gamma=1.0):
    tag = CaseTag.COMMUTATOR_TRIVIAL if c % r == 0 else CaseTag.GENERIC
    return LatticeCharacterData(r=r, c=c, gamma_norm=gamma, case_tag=tag)


def test_classify_case_matrix():
    assert classify_case(True, False, 1, 4) is CaseTag.GENERIC
    assert classify_case(True, True, 0, 3) is CaseTag.COMMUTATOR_TRIVIAL
    assert classify_case(False, False, 0, 1) is CaseTag.CENTER_NONTRIVIAL
    # a commutator-trivial restriction forces a trivial central one
    with pytest.raises(ValueError):
        classify_case(False, True, 0, 4)
    with pytest.raises(ValueError):
        classify_case(True, True, 1, 4)
    with pytest.raises(ValueError):
        classify_case(True, False, 4, 4)


def test_character_data_validation():
    with pytest.raises(ValueError):
        LatticeCharacterData(r=0, c=1, gamma_norm=1.0, case_tag=CaseTag.GENERIC)
    with pytest.raises(ValueError):
        LatticeCharacterData(r=4, c=0, gamma_norm=1.0, case_tag=CaseTag.GENERIC)
    with pytest.raises(ValueError):
        LatticeCharacterData(r=4, c=1, gamma_norm=-1.0, case_tag=CaseTag.GENERIC)
    with pytest.raises(ValueError):
        LatticeCharacterData(r=4, c=1, gamma_norm=1.0,
                             case_tag=CaseTag.COMMUTATOR_TRIVIAL)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=-50, max_value=50))
def test_multiplicity_counts_lattice_modes(k):
    assert multiplicity(k, D41) == abs(1 + 4 * k)
    d52 = data(5, 2)
    assert multiplicity(k, d52) == abs(2 + 5 * k)


def test_special_values_generic():
    rows = eta_nil_special(D41)
    assert [complex(row["s"]).real for row in rows] == [0.0, -1.0, -3.0, -5.0]
    for row in rows:
        assert row["abs_deviation"] <= 1e-9


def test_value_at_minus_two_reference():
    got = eta_nil_neg_even(1, D41)
    assert got == pytest.approx(-3.75621855063959, rel=1e-11)
    point = eta_nil(-2.0, D41)
    assert point.is_pole
    assert point.residue == 0.0
    assert point.value.real == pytest.approx(got, rel=1e-12)
    assert point.value.imag == 0.0


def test_pole_flag_only_on_negative_even_integers():
    assert eta_nil(-2.0, D41).is_pole
    assert eta_nil(-4.0, D41).is_pole
    for s in (0.0, -1.0, -3.0, 2.5, -2.0 + 1.0j, -2.0000001):
        assert not eta_nil(s, D41).is_pole, s


def test_direct_double_sum_agrees_with_product():
    for s in (6.0, 7.5, 6.0 + 1.0j):
        summed, tail = eta_direct_sum(s, D41, 4000, 4000)
        prod = eta_nil(s, D41).value
        assert abs(summed - prod) <= 1e-6 + tail, s


def test_direct_double_sum_requires_convergence_region():
    with pytest.raises(ValueError):
        eta_direct_sum(3.0, D41, 100, 100)


def test_center_nontrivial_case_is_zero():
    d = LatticeCharacterData(1, 0, 1.0, CaseTag.CENTER_NONTRIVIAL)
    for s in (0.0, -2.0, 2.5, 1.0 + 1.0j):
        point = eta_nil(s, d)
        assert point.value == 0.0
        assert not point.is_pole
    summed, tail = eta_direct_sum(6.0, d, 100, 100)
    assert summed == 0.0 and tail == 0.0


def test_commutator_trivial_case_cancels_exactly():
    d = data(3, 6, 2.0)
    for s in (0.0, -2.0, 3.3, 2.0 - 1.0j):
        assert eta_nil(s, d).value == 0.0
    summed, tail = eta_direct_sum(6.0, d, 50, 50)
    assert summed == 0.0 and tail == 0.0


def test_half_period_character_is_numerically_zero():
    d21 = data(2, 1)
    for s in (0.0, -1.0, 2.5, 6.0, -0.5, 1.3 + 0.8j):
        assert abs(eta_nil(s, d21).value) <= 1e-12, s
    assert abs(eta_nil_neg_even(1, d21)) <= 1e-12


def test_gamma_norm_covariance():
    # gamma enters only through the scale (2 pi / sqrt(gamma))^{-s}
    s = 1.7
    base = eta_nil(s, D41).value
    scaled = eta_nil(s, data(4, 1, 4.0)).value
    assert scaled == pytest.approx(2.0**s * base, rel=1e-12)


def test_character_periodicity_and_oddness():
    s = 2.3
    base = eta_nil(s, D41).value
    assert eta_nil(s, data(4, 5)).value == base
    assert eta_nil(s, data(4, -1)).value == pytest.approx(-base, rel=1e-12)


def test_sign_prediction_rule():
    # l even keeps the sign of sin-type data on (0, 1/2), l odd flips it
    assert sign_prediction(2, D41) == 1
    assert sign_prediction(1, D41) == -1
    assert sign_prediction(1, data(4, 3)) == 1
    assert sign_prediction(1, data(2, 1)) == 0
    with pytest.raises(ValueError):
        sign_prediction(1, data(3, 6))


def test_sign_battery_matches_values():
    for r, c in [(4, 1), (4, 3), (5, 2), (7, 3)]:
        d = data(r, c)
        for l in (1, 2, 3):
            value = eta_nil_neg_even(l, d)
            assert value != 0.0
            assert math.copysign(1.0, value) == sign_prediction(l, d), (r, c, l)


def test_value_next_to_negative_even_integers_keeps_relative_accuracy():
    # the pole of tilde_eta times the zero of eta_hurw at s - 1: within 1e-10
    # of s = -2l the product tends to its value at -2l, with a slope of order
    # one; at -1.99999999997585 and -3.99999999998902 s - 1 rounds
    d = data(6, 4)
    for s in (-2.0 + 2.4e-11, -2.0 - 5e-11, -1.9999999999758467, -4.0 + 3e-11,
              -3.9999999999890234, -6.0 - 2e-11):
        value = eta_nil(s, d).value
        limit = eta_nil_neg_even(round(-s / 2.0), d)
        assert abs(value - limit) <= 1e-9 * abs(limit), s
    # next to s = 0, where s - 1 rounds to -1 exactly, no rescale applies
    for s in (1e-17, -1e-17, 5e-17 + 1e-17j):
        assert math.isfinite(abs(eta_nil(s, d).value)), s


def test_two_route_value_consistency_across_l():
    # eta_nil just off s = -2l runs the general product, through eta_hurw's
    # reflection branch and tilde_eta's polar term; the mean of the two
    # sides is the continuation to -2l up to a second-order term ~1e-14
    for d in (D41, data(5, 2), data(7, 3), data(6, 4, 2.5), data(9, 2, 0.3)):
        for l in range(1, 6):
            closed = eta_nil_neg_even(l, d)
            continued = 0.5 * (eta_nil(-2 * l - 1e-7, d).value
                               + eta_nil(-2 * l + 1e-7, d).value)
            assert abs(continued - closed) <= 1e-12 * abs(closed), (d, l)


def _neg_even_mpmath(mp, l, d):
    a = mp.mpf(d.c % d.r) / d.r
    im_li = mp.im(mp.polylog(2 * l + 2, mp.expjpi(2 * a)))
    comb_sum = mp.fsum(
        mp.binomial(2 * l, 2 * j + 1) * mp.binomial(2 * l - 2 * j, l - j)
        * mp.mpf(9) ** (l - j) / mp.mpf(64) ** (l - j) * mp.mpf(5 / 4) ** (2 * j + 1)
        for j in range(l)
    )
    return ((-1) ** l * mp.sqrt(2) * d.r * mp.factorial(2 * l + 1) * im_li * comb_sum
            / (2 * mp.pi * mp.mpf(d.gamma_norm) ** l))


def test_value_beyond_the_double_range_raises():
    # from l = 75 the value itself overflows
    assert math.isfinite(eta_nil_neg_even(74, D41))
    for l in (75, 84, 85):
        with pytest.raises(OverflowError, match=f"s = {-2 * l}:"):
            eta_nil_neg_even(l, D41)
    # gamma^l and (2l+1)! are formed exactly, so neither overflows or
    # underflows on its own: at gamma = 1e6 the values stay in range
    mp = pytest.importorskip("mpmath")
    d = data(4, 1, 1e6)
    for l in range(52, 121):
        with mp.workdps(30):
            expected = _neg_even_mpmath(mp, l, d)
        assert abs(eta_nil_neg_even(l, d) - expected) <= 1e-14 * abs(expected), l
    # gamma^200 underflows to zero in floating point; the value overflows
    with pytest.raises(OverflowError, match="s = -400:"):
        eta_nil_neg_even(200, data(4, 1, 1e-3))


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=9),
    c=st.integers(min_value=-20, max_value=20),
    sigma=st.floats(min_value=-1.0, max_value=3.0),
)
def test_character_shift_invariance_property(r, c, sigma):
    # c and c + r induce the same character
    if c % r == 0:
        return
    s = complex(sigma, 0.4)
    assert eta_nil(s, data(r, c)).value == eta_nil(s, data(r, c + r)).value
