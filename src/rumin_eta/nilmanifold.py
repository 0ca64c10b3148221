"""Eta function of the middle-degree operator on a (2,3,5) nilmanifold.

The compact quotient is described only through the invariants the value
formula consumes: the torsion order r of the lattice, the character
exponent c with chi(gamma) = e^(2 pi i c/r), and the squared length
gamma_norm of the positive central lattice generator.  The three character
cases split as: nontrivial central character (eta vanishes identically),
trivial commutator character (eta vanishes by pairwise cancellation), and
the generic case carrying the product formula
r * (2 pi/sqrt(gamma_norm))^(-s) * eta_hurw(s-1, c/r) * tilde_eta(s, 5/4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .specfun import eta_hurw, im_polylog_even
from .tilde_eta import _snapped_pole, tilde_eta, tilde_eta_direct, tilde_eta_residue

__all__ = [
    "CaseTag",
    "LatticeCharacterData",
    "EtaEvaluation",
    "classify_case",
    "multiplicity",
    "eta_nil",
    "eta_nil_neg_even",
    "eta_nil_special",
    "eta_direct_sum",
    "sign_prediction",
]


class CaseTag(Enum):
    """Which of the three character cases the lattice data falls in."""

    CENTER_NONTRIVIAL = "CenterNontrivial"
    COMMUTATOR_TRIVIAL = "CommutatorTrivial"
    GENERIC = "Generic"


@dataclass(frozen=True)
class LatticeCharacterData:
    """Invariants (r, c, gamma_norm, case) of a lattice with a unitary character."""

    r: int
    c: int
    gamma_norm: float
    case_tag: CaseTag

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if not (math.isfinite(self.gamma_norm) and self.gamma_norm > 0.0):
            raise ValueError("gamma_norm must be positive and finite")
        if self.case_tag is CaseTag.GENERIC and self.c % self.r == 0:
            raise ValueError("generic case requires c not divisible by r")
        if self.case_tag is CaseTag.COMMUTATOR_TRIVIAL and self.c % self.r != 0:
            raise ValueError("trivial commutator character requires r | c")


@dataclass(frozen=True)
class EtaEvaluation:
    """One evaluation of the nilmanifold eta function."""

    s: complex
    value: complex
    is_pole: bool
    residue: float


def classify_case(
    center_trivial: bool, commutator_trivial: bool, c: int, r: int
) -> CaseTag:
    """Case tag from the two character restriction flags.

    The character restricted to the commutator subgroup factors through the
    center, so a trivial center restriction is implied by a trivial
    commutator restriction; inconsistent flag combinations are rejected.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not center_trivial:
        if commutator_trivial:
            raise ValueError("commutator-trivial character cannot be center-nontrivial")
        return CaseTag.CENTER_NONTRIVIAL
    if commutator_trivial:
        if c % r != 0:
            raise ValueError("commutator-trivial character requires r | c")
        return CaseTag.COMMUTATOR_TRIVIAL
    if c % r == 0:
        raise ValueError("generic case requires c not divisible by r")
    return CaseTag.GENERIC


def multiplicity(k: int, d: LatticeCharacterData) -> int:
    """Multiplicity |c + r k| of the k-th contributing Schrodinger summand."""
    if d.case_tag is CaseTag.CENTER_NONTRIVIAL:
        raise ValueError("no Schrodinger summands occur for a nontrivial central character")
    return abs(d.c + d.r * k)


def eta_nil(s, d: LatticeCharacterData) -> EtaEvaluation:
    """Evaluate the nilmanifold eta function at one point.

    Vanishing cases return exact zero.  In the generic case the negative
    even integers are flagged: the shifted-series factor has a simple pole
    there, the two-sided Hurwitz factor has a zero, and the product is
    finite; the reported residue is that of the product (identically zero)
    and the value comes from the cancellation evaluated in closed form.
    """
    s = complex(s)
    if d.case_tag is not CaseTag.GENERIC:
        return EtaEvaluation(s=s, value=0.0 + 0.0j, is_pole=False, residue=0.0)
    # reduce in integers so c and c + r give bitwise-identical values
    a = (d.c % d.r) / d.r
    # snapped like tilde_eta, whose pole the Hurwitz factor cancels there
    pole = _snapped_pole(s)
    if pole is not None:
        value = eta_nil_neg_even(-pole // 2, d)
        return EtaEvaluation(s=s, value=complex(value), is_pole=True, residue=0.0)
    prefactor = d.r * (2.0 * math.pi / math.sqrt(d.gamma_norm)) ** (-s)
    hurw = eta_hurw(s - 1.0, a)
    l = round(-s.real / 2.0)
    if l >= 1 and (s - 1.0).real + 1.0 != s.real:
        # s - 1 rounded: rescale by the exact distance to the zero at -2l - 1
        # (a real s close enough to zero the denominator is snapped above)
        hurw *= (s + 2 * l) / (s - 1.0 + (2 * l + 1))
    tilde = tilde_eta(s, 1.25)
    return EtaEvaluation(
        s=s, value=prefactor * hurw * tilde.value, is_pole=False, residue=0.0
    )


def eta_nil_neg_even(l: int, d: LatticeCharacterData) -> float:
    """Value at s = -2l (l >= 1) in the generic case.

    The residue of the shifted series times the derivative of the two-sided
    Hurwitz eta at the adjacent odd point -2l-1:
    (-1)^l r (2l+1)! / (2 pi gamma_norm^l) * Im Li_{2l+2}(e^{2 pi i c/r})
    * tilde_eta_residue(l, 5/4).  The product is formed exactly from its
    floating-point factors, so the final conversion is its only rounding
    and raises OverflowError exactly where the value leaves the double
    range, even where gamma_norm^l or (2l+1)! alone would not fit.  (From
    l = 326 tilde_eta_residue raises OverflowError first, whatever gamma_norm.)
    """
    if d.case_tag is not CaseTag.GENERIC:
        raise ValueError("the value formula at negative even integers needs the generic case")
    if l < 1:
        raise ValueError("l must be a positive integer")
    a = (d.c % d.r) / d.r
    try:
        value = (
            Fraction(d.r * math.factorial(2 * l + 1))
            / Fraction(d.gamma_norm) ** l
            * Fraction(im_polylog_even(l, a))
            * Fraction(tilde_eta_residue(l, 1.25))
            / Fraction(2.0 * math.pi)
        )
        return float(-value if l % 2 else value)
    except OverflowError as exc:
        raise OverflowError(f"value at s = {-2 * l}: {exc}") from None


def eta_nil_special(d: LatticeCharacterData) -> list:
    """Evaluate at s = 0, -1, -3, -5 and report deviations from zero."""
    report = []
    for s in (0.0, -1.0, -3.0, -5.0):
        ev = eta_nil(s, d)
        report.append(
            {
                "s": s,
                "value": ev.value,
                "abs_deviation": abs(ev.value),
            }
        )
    return report


def eta_direct_sum(s, d: LatticeCharacterData, lattice_cutoff: int, spectrum_cutoff: int):
    """Truncated double sum over lattice modes and the per-mode spectrum.

    Returns (value, tail_bound).  The sum factorizes exactly: the operator
    for lattice mode k is the |c + rk|-fold copy of the closed-form spectrum
    scaled by 2 pi (c + rk)/(r sqrt(gamma_norm)), so the double sum is the
    product of a signed lattice power sum and the shifted-series partial
    sum tilde_eta_direct(s, 5/4, spectrum_cutoff).  Requires Re s > 5,
    where the double sum converges absolutely.
    """
    s = complex(s)
    if s.real <= 5.0:
        raise ValueError("the double sum needs Re s > 5")
    if lattice_cutoff < 1 or spectrum_cutoff < 1:
        raise ValueError("cutoffs must be positive")
    if d.case_tag is CaseTag.CENTER_NONTRIVIAL:
        return 0.0 + 0.0j, 0.0
    if d.case_tag is CaseTag.COMMUTATOR_TRIVIAL:
        # modes +-m carry equal multiplicity and opposite sign; they cancel
        # exactly in pairs, and so do their tails
        return 0.0 + 0.0j, 0.0

    p = s.real
    scale = 2.0 * math.pi / (d.r * math.sqrt(d.gamma_norm))
    k = np.arange(-lattice_cutoff, lattice_cutoff + 1, dtype=np.float64)
    modes = d.c + d.r * k
    modes = modes[modes != 0.0]
    k_sum = complex(np.sum(np.sign(modes) * np.exp((1.0 - s) * np.log(np.abs(modes)))))

    n_sum, n_tail = tilde_eta_direct(s, 1.25, spectrum_cutoff)

    # lattice tail: sum over |c + rk| > m0 of m^(1-p), integral comparison
    m0 = d.r * lattice_cutoff - abs(d.c % d.r)
    q = p - 1.0
    k_tail = 2.0 * (m0 ** (-q) + m0 ** (1.0 - q) / (q - 1.0))

    value = scale ** (-s) * k_sum * n_sum
    tail = scale ** (-p) * (k_tail * (abs(n_sum) + n_tail) + abs(k_sum) * n_tail)
    return value, tail


def sign_prediction(l: int, d: LatticeCharacterData) -> int:
    """Predicted sign of the value at s = -2l from the character angle."""
    if d.case_tag is not CaseTag.GENERIC:
        raise ValueError("sign prediction applies to the generic case")
    if l < 1:
        raise ValueError("l must be a positive integer")
    frac = (d.c % d.r) / d.r
    parity = 1 if l % 2 == 0 else -1
    if frac == 0.5:
        return 0
    return parity if frac < 0.5 else -parity
