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

import numpy as np

from .specfun import eta_hurw, eta_hurw_deriv_neg_odd, im_polylog_even
from .tilde_eta import _snapped_pole, tilde_eta, tilde_eta_residue

__all__ = [
    "CaseTag",
    "LatticeCharacterData",
    "EtaEvaluation",
    "RouteDisagreement",
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


class RouteDisagreement(RuntimeError):
    """The two independent value routes differ beyond tolerance.

    Signals an implementation bug, never bad input.
    """


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
        l = -pole // 2
        scale_sq = (2.0 * math.pi) ** 2 / d.gamma_norm
        residue = (
            d.r
            * scale_sq**l
            * (eta_hurw(-2 * l - 1.0, a) * tilde_eta_residue(l, 1.25)).real
        )
        value = eta_nil_neg_even(l, d)
        return EtaEvaluation(s=s, value=complex(value), is_pole=True, residue=residue)
    prefactor = d.r * (2.0 * math.pi / math.sqrt(d.gamma_norm)) ** (-s)
    hurw = eta_hurw(s - 1.0, a)
    tilde = tilde_eta(s, 1.25)
    return EtaEvaluation(
        s=s, value=prefactor * hurw * tilde.value, is_pole=False, residue=0.0
    )


def eta_nil_neg_even(l: int, d: LatticeCharacterData) -> float:
    """Value at s = -2l (l >= 1) in the generic case, by two routes.

    Route one evaluates the closed form
    (-1)^l sqrt(2) r / (2 pi gamma_norm^l) * (2l+1)! * Im Li_{2l+2}(e^{2 pi i c/r})
    * sum_j C(2l, 2j+1) C(2l-2j, l-j) (9/64)^{l-j} (5/4)^{2j+1};
    route two multiplies the residue of the shifted series by the derivative
    of the two-sided Hurwitz eta at the adjacent odd point.  Both must agree
    to 1e-9 relative or the computation refuses to return.
    """
    if d.case_tag is not CaseTag.GENERIC:
        raise ValueError("the value formula at negative even integers needs the generic case")
    if l < 1:
        raise ValueError("l must be a positive integer")
    a = (d.c % d.r) / d.r
    comb_sum = 0.0
    for j in range(l):
        comb_sum += (
            math.comb(2 * l, 2 * j + 1)
            * math.comb(2 * l - 2 * j, l - j)
            * (9.0 / 64.0) ** (l - j)
            * 1.25 ** (2 * j + 1)
        )
    direct = (
        (-1.0) ** l
        * math.sqrt(2.0)
        * d.r
        / (2.0 * math.pi * d.gamma_norm**l)
        * math.factorial(2 * l + 1)
        * im_polylog_even(l, a)
        * comb_sum
    )
    factored = (
        d.r
        * ((2.0 * math.pi) ** 2 / d.gamma_norm) ** l
        * tilde_eta_residue(l, 1.25)
        * eta_hurw_deriv_neg_odd(l, a)
    )
    tolerance = 1e-9 * max(abs(direct), abs(factored))
    if abs(direct - factored) > tolerance:
        raise RouteDisagreement(
            f"value at s = {-2 * l}: closed form {direct!r} vs "
            f"residue-derivative product {factored!r}"
        )
    return direct


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
    sum.  Requires Re s > 5, where the double sum converges absolutely.
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

    n = np.arange(spectrum_cutoff, dtype=np.float64)
    lam = np.sqrt(8.0 * (2.0 * n + 1.0) ** 2 + 9.0) / 4.0
    plus = 1.25 + lam
    minus = 1.25 - lam
    n_sum = complex(
        np.sum(np.exp(-s * np.log(plus)))
        + np.sum(np.sign(minus) * np.exp(-s * np.log(np.abs(minus))))
    )

    # lattice tail: sum over |c + rk| > m0 of m^(1-p), integral comparison
    m0 = d.r * lattice_cutoff - abs(d.c % d.r)
    q = p - 1.0
    k_tail = 2.0 * (m0 ** (-q) + m0 ** (1.0 - q) / (q - 1.0))
    # spectrum tail: increments of lam exceed delta, integral comparison
    lam_next = math.sqrt(8.0 * (2.0 * spectrum_cutoff + 1.0) ** 2 + 9.0) / 4.0
    gap = float(lam[-1]) - 1.25
    delta = lam_next - float(lam[-1])
    n_tail = 2.0 * (gap ** (-p) + gap ** (1.0 - p) / (delta * (p - 1.0)))

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
