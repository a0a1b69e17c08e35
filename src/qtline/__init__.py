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

``import qtline`` loads none of the submodules.  The first use of a public
name (``qtline.Pseudolattice``, ``from qtline import Cocycle``) imports the
submodule that defines it, with the submodules that one imports, and keeps
the value here, so later lookups are plain attribute reads.  The exact layer
(``QuadReal``, ``Pseudolattice``) loads only ``errors``, ``numeric`` and
``pseudolattice``.  A submodule that fails to import fails at that first use.
"""

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "chern": ("AltForm", "alt_eval", "chern_numeric", "chern_symbolic", "sigma_section"),
    "cocycle": (
        "Cocycle", "ExponentPoly", "coboundary", "cocycle_defect", "cocycle_identity_residuals",
        "existence_cocycle", "trivial_cocycle", "verify_cocycle_identity",
    ),
    "errors": (
        "ConsistencyError", "DomainError", "FormatError", "PrecisionError", "PreconditionError",
        "QTLineError", "RangeError",
    ),
    "heisenberg": (
        "DichotomyReport", "HeisenbergElement", "KGroupDescription", "LambdaPoint", "closed_form_pairing",
        "commutator_pairing", "dichotomy_check", "heisenberg_identity", "heisenberg_inverse",
        "heisenberg_multiply", "k_group", "membership_multiplier", "multiplier_residual",
    ),
    "numeric": ("QuadReal", "approx_eq", "tolerance"),
    "picard": (
        "AHData", "TrivialityVerdict", "ah_group_law", "ah_normal_form", "pic0_invariant", "triviality_test",
    ),
    "pseudolattice": ("Convergent", "LatticeVector", "Pseudolattice", "lattice_golden", "lattice_sqrt2"),
    "theta": (
        "ObstructionWitness", "ThetaCandidate", "ThetaSolveResult", "modulus_obstruction_demo",
        "solve_theta", "theta_residual", "theta_residuals",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, or one of the submodules in _EXPORTS, imported on first use
    and stored in the package globals (PEP 562)."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule in these globals
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
