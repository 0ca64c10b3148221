"""Eta invariants of the middle-degree operator on (2,3,5) nilmanifolds.

Closed-form evaluation of the shifted two-sided eta series, the signed
Hurwitz-type eta function, and the nilmanifold eta function, together
with a spectral-truncation oracle built from explicit representation
matrices for independent verification.
"""

from .nilmanifold import (
    CaseTag,
    LatticeCharacterData,
    eta_direct_sum,
    eta_nil,
    eta_nil_neg_even,
    eta_nil_special,
    sign_prediction,
)
from .rep_oracle import (
    GenericRepParams,
    GradedMetric,
    HermitianOperatorMatrix,
    IDENTITY_METRIC,
    SchrodingerParams,
    SpectralPairingError,
    closed_form_error,
    closed_form_schrodinger_spectrum,
    generic_S,
    hermitian_eigenvalues,
    pairing_symmetry,
    scalar_S,
    schrodinger_S,
    spectral_eta_partial,
    trusted_window,
)
from .specfun import (
    eta_hurw,
    eta_hurw_deriv_neg_odd,
    hurwitz_zeta,
    im_polylog_even,
    im_polylog_even_quad,
    polylog_circle,
    polylog_circle_direct,
    riemann_zeta,
)
from .tilde_eta import (
    EtaEvaluation,
    lambda_n,
    tilde_eta,
    tilde_eta_at_zero,
    tilde_eta_direct,
    tilde_eta_residue,
)

__version__ = "1.0.0"

__all__ = [
    "CaseTag",
    "EtaEvaluation",
    "GenericRepParams",
    "GradedMetric",
    "HermitianOperatorMatrix",
    "IDENTITY_METRIC",
    "LatticeCharacterData",
    "SchrodingerParams",
    "SpectralPairingError",
    "closed_form_error",
    "closed_form_schrodinger_spectrum",
    "eta_direct_sum",
    "eta_hurw",
    "eta_hurw_deriv_neg_odd",
    "eta_nil",
    "eta_nil_neg_even",
    "eta_nil_special",
    "generic_S",
    "hermitian_eigenvalues",
    "hurwitz_zeta",
    "im_polylog_even",
    "im_polylog_even_quad",
    "lambda_n",
    "pairing_symmetry",
    "polylog_circle",
    "polylog_circle_direct",
    "riemann_zeta",
    "scalar_S",
    "schrodinger_S",
    "sign_prediction",
    "spectral_eta_partial",
    "tilde_eta",
    "tilde_eta_at_zero",
    "tilde_eta_direct",
    "tilde_eta_residue",
    "trusted_window",
    "__version__",
]
