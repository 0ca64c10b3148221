"""Acceptance batteries: machine-checkable criteria over the whole library.

Each criterion function returns a flat record:

    {"id": str, "description": str, "passed": bool,
     "measured": float, "tolerance": float, "details": {...}}

`measured` is the worst error/tolerance ratio over the criterion's parts
(`passed` is equivalent to `measured <= 1.0`), and `details["parts"]`
carries the raw per-part errors and tolerances.  Parts that must hold
exactly report tolerance 0.0 and contribute 0 or inf to the ratio.

Criteria are grouped into named suites; `run_suite` executes one suite and
returns the records in order.  Eigensolver-backed criteria accept a
`basis_size`; sizes below 256 run with tolerances relaxed by (256/N)^2 and
are flagged `degraded` in the details.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .nilmanifold import (
    CaseTag,
    LatticeCharacterData,
    eta_direct_sum,
    eta_nil,
    eta_nil_neg_even,
    sign_prediction,
)
from .rep_oracle import (
    GradedMetric,
    GenericRepParams,
    SchrodingerParams,
    _bisect,
    _block_eigenvalues,
    _tridiagonal,
    _truncation,
    closed_form_error,
    closed_form_schrodinger_spectrum,
    hermitian_eigenvalues,
    pairing_symmetry,
    scalar_S,
    spectral_eta_partial,
    trusted_window,
)
from .specfun import (
    eta_hurw,
    eta_hurw_deriv_neg_odd,
    gamma_fn,
    im_polylog_even,
    im_polylog_even_quad,
    polylog_circle,
    polylog_circle_direct,
)
from .tilde_eta import tilde_eta, tilde_eta_at_zero, tilde_eta_direct, tilde_eta_residue

__all__ = ["SUITES", "run_criterion", "run_suite"]

# measured errors below this are treated as converged to rounding noise,
# so refinement is not required to shrink them further
_CONVERGED_FLOOR = 1e-10


def _part(name, error, tolerance):
    error = float(error)
    tolerance = float(tolerance)
    if tolerance == 0.0:
        passed = error == 0.0
        ratio = 0.0 if passed else math.inf
    else:
        ratio = error / tolerance
        passed = ratio <= 1.0
    return {
        "name": name,
        "error": error,
        "tolerance": tolerance,
        "passed": passed,
        "ratio": ratio,
    }


def _record(cid, description, parts, **extra_details):
    worst = max((p["ratio"] for p in parts), default=0.0)
    for p in parts:
        p.pop("ratio")
    details = {"parts": parts}
    details.update(extra_details)
    return {
        "id": cid,
        "description": description,
        "passed": all(p["passed"] for p in parts),
        "measured": float(worst),
        "tolerance": 1.0,
        "details": details,
    }


def criterion_tilde_zero() -> dict:
    """C1: value of the shifted series at s=0, a=5/4 hits 2 - 5*sqrt(2)/4."""
    target = 2.0 - 5.0 * math.sqrt(2.0) / 4.0
    got = tilde_eta(0.0, 1.25).value
    parts = [_part("tilde(0, 5/4)", abs(got - target), 1e-9)]
    return _record(
        "C1",
        "tilde eta at s=0, a=5/4 equals 2 - 5*sqrt(2)/4",
        parts,
        value=got.real,
        target=target,
    )


def criterion_tilde_odd() -> dict:
    """C2: the continuation vanishes at s=-1 and s=-3 for several shifts."""
    parts = []
    for a in (0.3, 1.25, 2.7):
        for s in (-1.0, -3.0):
            got = tilde_eta(s, a).value
            parts.append(_part(f"tilde({s:g}, {a:g})", abs(got), 1e-8))
    return _record("C2", "tilde eta vanishes at s=-1 and s=-3", parts)


def criterion_tilde_direct() -> dict:
    """C3: continuation matches direct partial sums within 1e-8 + tail bound."""
    points = [(s, a) for s in (1.5, 2.0, 3.0, 4.0 + 2.0j) for a in (0.3, 1.25)]
    # |s| |a| from 38 to 100: the expansion in a grows like (|s| |a|)^l/l! first
    points += [(3.0 + 30.0j, 1.25), (3.0 + 80.0j, 1.25), (3.0 + 10.0j, 7.3), (3.0, 30.3)]
    parts = []
    for s, a in points:
        cont = tilde_eta(s, a).value
        direct, tail = tilde_eta_direct(s, a, 40000)
        parts.append(_part(f"s={s}, a={a:g}", abs(cont - direct), 1e-8 + tail))
    return _record(
        "C3", "continuation vs tail-bounded direct summation for Re s > 1", parts
    )


def criterion_tilde_residue() -> dict:
    """C4: residue at s=-2, a=5/4 via the closed form and via extrapolation."""
    target = 45.0 * math.sqrt(2.0) / 64.0
    formula = tilde_eta_residue(1, 1.25)
    e1, e2 = 1e-3, 1e-4
    r1 = e1 * tilde_eta(-2.0 + e1, 1.25).value
    r2 = e2 * tilde_eta(-2.0 + e2, 1.25).value
    # first-order Richardson step: the simple pole leaves an O(eps) bias
    extrap = ((e1 * r2 - e2 * r1) / (e1 - e2)).real
    parts = [
        _part("formula vs 45*sqrt(2)/64", abs(formula - target) / target, 1e-6),
        _part("extrapolation vs formula", abs(extrap - formula) / abs(formula), 1e-6),
    ]
    return _record(
        "C4",
        "residue at s=-2, a=5/4 equals 45*sqrt(2)/64",
        parts,
        formula=float(formula),
        extrapolated=float(extrap),
    )


def criterion_hurw_battery() -> dict:
    """C5: signed Hurwitz eta symmetries, reflection identity, polylog routes."""
    parts = []
    samples = [(1.7, 0.3), (0.25, 0.25), (-0.5, 6.0 / 7.0), (2.0 + 1.5j, 0.4)]
    for s, a in samples:
        per = abs(eta_hurw(s, a + 1.0) - eta_hurw(s, a))
        odd = abs(eta_hurw(s, -a) + eta_hurw(s, a))
        parts.append(_part(f"periodicity s={s}, a={a:g}", per, 1e-10))
        parts.append(_part(f"oddness s={s}, a={a:g}", odd, 1e-10))
    for k in (1, 3, 5, 7):
        parts.append(_part(f"zero at s=-{k}", abs(eta_hurw(-float(k), 0.3)), 1e-10))
    # reflection: the summation route (Euler-Maclaurin window) against the
    # polylogarithm form; sampled left of 0 so the polylog order 1-s
    # converges, but right of -3/2 so the left side never reflects itself
    for s, a in [(-1.02, 0.25), (-1.25, 0.3), (-1.45, 6.0 / 7.0), (-1.2 + 0.7j, 0.4)]:
        t = 1.0 - s
        pref = (
            -2j * (2.0 * cmath.pi) ** (-t) * cmath.sin(cmath.pi * t / 2.0) * gamma_fn(t)
        )
        rhs = pref * (polylog_circle(t, a) - polylog_circle(t, 1.0 - a))
        parts.append(_part(f"reflection s={s}, a={a:g}", abs(eta_hurw(s, a) - rhs), 1e-9))
    for l in (0, 1, 2):
        for a in (0.25, 0.3, 3.0 / 7.0):
            d = abs(im_polylog_even(l, a) - im_polylog_even_quad(l, a))
            parts.append(_part(f"Im polylog l={l}, a={a:g}", d, 1e-8))
    # the zeta series against the plain power series, which shares no code
    # with the zeta functions; at Re s >= 3 a few 1e4 terms reach 1e-12
    for s, a in [(4.0, 0.3), (3.5 + 2.0j, 6.0 / 7.0)]:
        direct, tail = polylog_circle_direct(s, a, 20000)
        d = abs(polylog_circle(s, a) - direct)
        parts.append(_part(f"polylog vs direct sum s={s}, a={a:g}", d, 1e-11 + tail))
    return _record(
        "C5",
        "Hurwitz-type eta: periodicity, oddness, odd zeros, reflection, polylogs",
        parts,
    )


def _schrodinger_window_error(basis_size: int, k: int = 8) -> float:
    params = SchrodingerParams(hbar=1.0)
    g = GradedMetric(1.0, 1.0, 1.0)
    mat, _, kernel_eps = _truncation(params, g, basis_size)
    window = trusted_window(hermitian_eigenvalues(mat), kernel_eps, basis_size // 8)
    trusted = sorted(window, key=abs)[:k]
    if not trusted:
        return math.inf
    return closed_form_error(trusted, params, g)


def criterion_schrodinger_oracle(basis_size: int = 256) -> dict:
    """C6: truncated operator spectrum converges onto the closed-form list."""
    degraded = basis_size < 256
    tol = 1e-3 * ((256.0 / basis_size) ** 2 if degraded else 1.0)
    sizes = [max(16, basis_size // 2), basis_size, 2 * basis_size]
    errors = [_schrodinger_window_error(n) for n in sizes]
    parts = [_part(f"window error at N={n}", e, tol) for n, e in zip(sizes, errors)]
    # refinement must not worsen the error until it reaches rounding noise
    mono = 0.0
    for prev, nxt in zip(errors, errors[1:]):
        mono = max(mono, nxt - max(prev, _CONVERGED_FLOOR))
    parts.append(_part("monotone refinement", max(mono, 0.0), _CONVERGED_FLOOR))
    exact = closed_form_schrodinger_spectrum(
        SchrodingerParams(hbar=1.0), GradedMetric(1.0, 1.0, 1.0), 2
    )
    parts.append(
        _part("n=1 target -2*pi", min(abs(v + 2.0 * math.pi) for v in exact), 1e-12)
    )
    parts.append(
        _part("n=1 target 7*pi", min(abs(v - 7.0 * math.pi) for v in exact), 1e-12)
    )
    return _record(
        "C6",
        "Schroedinger-model spectrum matches the closed form, refining with N",
        parts,
        degraded=degraded,
        sizes=sizes,
        window_errors=[float(e) for e in errors],
    )


def criterion_scalar_battery() -> dict:
    """C7: one-dimensional-model matrices have spectrum {-x, 0, x}."""
    rng = np.random.default_rng(20250818)
    parts = []
    worst_eta = 0.0
    for i in range(20):
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        g = GradedMetric(*rng.uniform(0.2, 3.0, size=3))
        mat = scalar_S(alpha, beta, g)
        arr = mat.entries
        scale = max(1.0, float(np.max(np.abs(arr))))
        # e0 is the mirror of e2; one bisection of the whole spectrum measures the pairing
        d, e, sigma, sums = _tridiagonal(mat.blocks[0][1])
        e0, e1, e2 = _block_eigenvalues(d, e, sigma, sums)
        f0, _, f2 = _bisect(d, e) / sigma
        top = max(abs(e2), abs(e0))
        parts.append(_part(f"draw {i}: trace", abs(np.trace(arr)), 1e-12 * scale))
        parts.append(_part(f"draw {i}: det", abs(np.linalg.det(arr)), 1e-10 * scale**3))
        pair = abs(f0 + f2) / max(top, 1e-30)
        mid = abs(e1) / max(top, 1e-30)
        parts.append(_part(f"draw {i}: pairing", max(pair, mid), 1e-12))
        if top > 1e-12:
            for s in (2.0, 3.5):
                p = abs(spectral_eta_partial(np.array([e0, e1, e2]), s, 1e-9 * top))
                worst_eta = max(worst_eta, p * top**s)
    parts.append(_part("partial eta over all draws (relative)", worst_eta, 1e-12))
    return _record(
        "C7", "3x3 model: trace 0, det 0, spectrum {-x, 0, x}, eta sums vanish", parts
    )


def criterion_generic_symmetry(basis_size: int = 256) -> dict:
    """C8: balanced-metric generic representations pair the spectrum to +/-, chirally."""
    degraded = basis_size < 256
    tol = 1e-6 * ((256.0 / basis_size) ** 2 if degraded else 1.0)
    parts = []
    for lam, mu, nu, g44 in [(1.0, 1.0, 0.0, 1.0), (0.7, -1.3, 0.4, 1.7)]:
        params, g = GenericRepParams(lam=lam, mu=mu, nu=nu), GradedMetric(1.0, g44, g44)
        mat, _, kernel_eps = _truncation(params, g, basis_size)
        [(idx, band)] = mat.blocks
        d, e, sigma, sums = _tridiagonal(band)
        eigs = _block_eigenvalues(d, e, sigma, sums)
        window = trusted_window(eigs, kernel_eps, basis_size // 8)
        # the full solve mirrors its dqds half, so the window's lower side is
        # bisected again (its last index is the last below the kernel) and
        # paired with the window's upper side
        below, lower = np.count_nonzero(eigs <= -kernel_eps), np.count_nonzero(window < 0.0)
        bisected = _bisect(d, e, below - lower + 1, below) * (1.0 / sigma) if lower else []
        pairs = np.concatenate([bisected, window[window > 0.0]])
        point = f"lam={lam:g}, mu={mu:g}, nu={nu:g}, g44={g44:g}"
        parts.append(_part(f"pairing {point}", pairing_symmetry(pairs), tol))
        # that mirror holds as D conj(S) D = -S with D = diag((-1)^level)
        # exactly; band[d, j] is S at (j + d, j), the padding 0
        level = idx % basis_size
        rows = np.minimum(np.arange(idx.size) + np.arange(band.shape[0])[:, None], idx.size - 1)
        defect = np.max(np.abs((-1.0) ** (level[rows] + level) * band.conj() + band))
        parts.append(_part(f"chirality {point}", defect, 0.0))
    return _record(
        "C8",
        "generic representation spectrum is symmetric about zero",
        parts,
        degraded=degraded,
    )


def criterion_nil_generic() -> dict:
    """C9: the (4,1) values, the s=-2 closed form, the slope at s=0, and the double sum."""
    d = LatticeCharacterData(r=4, c=1, gamma_norm=1.0, case_tag=CaseTag.GENERIC)
    parts = []
    for s in (0.0, -1.0, -3.0):
        parts.append(_part(f"value at s={s:g}", abs(eta_nil(s, d).value), 1e-9))
    # either side of s = -2 goes through eta_hurw's reflection branch and
    # tilde_eta's polar term, neither through tilde_eta_residue nor through
    # the integer-order closed form of im_polylog_even
    closed = eta_nil_neg_even(1, d)
    continued = 0.5 * (eta_nil(-2.0 - 1e-7, d).value + eta_nil(-2.0 + 1e-7, d).value)
    rel = abs(continued - closed) / abs(closed)
    parts.append(_part("closed form vs continuation at s=-2", rel, 1e-9))
    # eta_nil vanishes at s = 0 with slope r * eta_hurw'(-1, c/r) * tilde_eta(0, 5/4);
    # a central difference misses it by h^2/6 times the third derivative,
    # 2.4-4.5 h^2 relative on (4,1,1), (6,4,1) and (7,3,2.5): 10 h^2 bounds it
    h = 1e-3
    slope = d.r * eta_hurw_deriv_neg_odd(0, (d.c % d.r) / d.r) * tilde_eta_at_zero(1.25)
    central = (eta_nil(h, d).value - eta_nil(-h, d).value) / (2.0 * h)
    parts.append(
        _part("slope at s=0 vs central difference, h=1e-3",
              abs(central - slope) / abs(slope), 10.0 * h * h)
    )
    prod = eta_nil(6.0, d).value
    summed, tail = eta_direct_sum(6.0, d, 4000, 4000)
    parts.append(_part("double sum vs product at s=6", abs(prod - summed), 1e-6 + tail))
    return _record(
        "C9",
        "generic nilmanifold: special values, s=-2 closed form vs continuation, "
        "slope at s=0, direct double sum",
        parts,
        value_at_minus_2=float(closed),
    )


def criterion_nil_vanishing() -> dict:
    """C10: the three vanishing families are zero at ten sampled points."""
    samples = [2.5, 6.0, 1.3 + 0.8j, 0.0, -1.0, -3.0, -0.5, 3.7, -2.0, 5.5]
    d_center = LatticeCharacterData(1, 0, 1.0, CaseTag.CENTER_NONTRIVIAL)
    d_comm = LatticeCharacterData(3, 6, 2.0, CaseTag.COMMUTATOR_TRIVIAL)
    d_half = LatticeCharacterData(2, 1, 1.0, CaseTag.GENERIC)
    parts = []
    for label, data, tol in [
        ("center-nontrivial family", d_center, 0.0),
        ("commutator-trivial family", d_comm, 0.0),
        ("(r,c)=(2,1)", d_half, 1e-12),
    ]:
        worst = max(abs(eta_nil(s, data).value) for s in samples)
        parts.append(_part(label, worst, tol))
    return _record(
        "C10", "vanishing cases are identically zero at 10 sampled points", parts
    )


def criterion_sign_corollary() -> dict:
    """C11: the sign of the value at s=-2l follows the half-period rule."""
    parts = []
    for r, c in [(4, 1), (4, 3), (5, 2), (7, 3)]:
        d = LatticeCharacterData(r, c, 1.0, CaseTag.GENERIC)
        for l in (1, 2, 3):
            value = eta_nil_neg_even(l, d)
            predicted = sign_prediction(l, d)
            actual = int(math.copysign(1.0, value)) if value != 0.0 else 0
            p = _part(f"(r,c)=({r},{c}), l={l}", 0.0 if actual == predicted else 1.0, 0.0)
            p["predicted"] = predicted
            p["actual"] = actual
            parts.append(p)
    return _record(
        "C11", "sign of the value at s=-2l matches the half-period rule", parts
    )


SUITES = {
    "specfun": ["C5"],
    "tilde-eta": ["C1", "C2", "C3", "C4"],
    "oracle": ["C6", "C7", "C8"],
    "nilmanifold": ["C9", "C10", "C11"],
    "all": ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11"],
}

_CRITERIA = {
    "C1": criterion_tilde_zero,
    "C2": criterion_tilde_odd,
    "C3": criterion_tilde_direct,
    "C4": criterion_tilde_residue,
    "C5": criterion_hurw_battery,
    "C6": criterion_schrodinger_oracle,
    "C7": criterion_scalar_battery,
    "C8": criterion_generic_symmetry,
    "C9": criterion_nil_generic,
    "C10": criterion_nil_vanishing,
    "C11": criterion_sign_corollary,
}

_BASIS_AWARE = {"C6", "C8"}


def run_criterion(cid: str, basis_size: int = 256) -> dict:
    """Execute a single criterion by id."""
    fn = _CRITERIA[cid]
    if cid in _BASIS_AWARE:
        return fn(basis_size=basis_size)
    return fn()


def run_suite(name: str, basis_size: int = 256) -> list:
    """Execute one named suite and return its criterion records in order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [run_criterion(cid, basis_size) for cid in SUITES[name]]
