"""Holomorphic line bundles over quantum tori.

A quantum torus is the quotient R/L of the real line by a pseudolattice, a
dense rank-two subgroup L = Z*omega1 + Z*omega2.  Line bundles over it are
presented by nonvanishing-holomorphic cocycles A_l(v); this package stores a
finite normal form (s, c, g) for them and computes:

* the Chern class (an integer s), by two independent routes;
* the Picard invariant in C^x of a Chern-trivial class (the constant cocycle
  it reduces to, in closed form), with bounded triviality certificates;
* the Appell-Humbert style classifying pair (semicharacter, alternating form);
* the translation-stabilizer group K, the Heisenberg central extension and
  its commutator pairing with closed form e^{2*pi*i*(ad-bc)/s};
* theta functions solving theta(v+l) = A_l(v) theta(v), constructively or
  with non-existence certificates;
* exact continued-fraction machinery in real quadratic fields underpinning
  all density arguments.
"""

from .chern import AltForm, alt_eval, chern_numeric, chern_symbolic, sigma_section
from .cocycle import (
    Cocycle,
    ExponentPoly,
    coboundary,
    cocycle_defect,
    cocycle_identity_residuals,
    existence_cocycle,
    trivial_cocycle,
    verify_cocycle_identity,
)
from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    PrecisionError,
    PreconditionError,
    QTLineError,
    RangeError,
)
from .heisenberg import (
    DichotomyReport,
    HeisenbergElement,
    KGroupDescription,
    LambdaPoint,
    closed_form_pairing,
    commutator_pairing,
    dichotomy_check,
    heisenberg_identity,
    heisenberg_inverse,
    heisenberg_multiply,
    k_group,
    membership_multiplier,
    multiplier_residual,
)
from .numeric import QuadReal, approx_eq, tolerance
from .picard import (
    AHData,
    TrivialityVerdict,
    ah_group_law,
    ah_normal_form,
    pic0_invariant,
    triviality_test,
)
from .pseudolattice import (
    Convergent,
    LatticeVector,
    Pseudolattice,
    lattice_golden,
    lattice_sqrt2,
)
from .theta import (
    ObstructionWitness,
    ThetaCandidate,
    ThetaSolveResult,
    modulus_obstruction_demo,
    solve_theta,
    theta_residual,
    theta_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "AHData",
    "AltForm",
    "Cocycle",
    "ConsistencyError",
    "Convergent",
    "DichotomyReport",
    "DomainError",
    "ExponentPoly",
    "FormatError",
    "HeisenbergElement",
    "KGroupDescription",
    "LambdaPoint",
    "LatticeVector",
    "ObstructionWitness",
    "PrecisionError",
    "PreconditionError",
    "Pseudolattice",
    "QTLineError",
    "QuadReal",
    "RangeError",
    "ThetaCandidate",
    "ThetaSolveResult",
    "TrivialityVerdict",
    "ah_group_law",
    "ah_normal_form",
    "alt_eval",
    "approx_eq",
    "chern_numeric",
    "chern_symbolic",
    "closed_form_pairing",
    "coboundary",
    "cocycle_defect",
    "cocycle_identity_residuals",
    "commutator_pairing",
    "dichotomy_check",
    "existence_cocycle",
    "heisenberg_identity",
    "heisenberg_inverse",
    "heisenberg_multiply",
    "k_group",
    "lattice_golden",
    "lattice_sqrt2",
    "membership_multiplier",
    "modulus_obstruction_demo",
    "multiplier_residual",
    "pic0_invariant",
    "sigma_section",
    "solve_theta",
    "theta_residual",
    "theta_residuals",
    "tolerance",
    "triviality_test",
    "trivial_cocycle",
    "verify_cocycle_identity",
]
