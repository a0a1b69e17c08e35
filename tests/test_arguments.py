"""The library's argument contract (README, "Argument contract"): every public
call given a hostile scalar in one of its int, Fraction, float or complex
parameters returns or raises a QTLineError, within a short deadline per draw,
and raises one where the draw is not of the parameter's kind (a bool, a str,
None or a list anywhere, a float for an int or a Fraction, a complex for a
float).

The calls are the names of ``qtline._EXPORTS`` and the public methods of the
exported classes.  Each one with a scalar parameter has a
strategy in CALLS (valid arguments, object ones built by
``test_values.FACTORIES``) or a named exclusion with its reason in EXCLUDED.
Huge valid counts are left out: the library has no caps, so
``samples=2**63`` runs as long as it is asked to.  An int or Fraction parameter
that is a value, not a count, also draws an int past the interpreter's digit limit,
whose ``repr`` raises.
"""

import inspect
import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

import qtline
from qtline import (
    AHData,
    AltForm,
    Cocycle,
    ExponentPoly,
    HeisenbergElement,
    LambdaPoint,
    LatticeVector,
    Pseudolattice,
    QTLineError,
    QuadReal,
    ThetaCandidate,
    approx_eq,
    chern_numeric,
    coboundary,
    cocycle_identity_residuals,
    dichotomy_check,
    lattice_sqrt2,
    membership_multiplier,
    modulus_obstruction_demo,
    multiplier_residual,
    sigma_section,
    solve_theta,
    theta_residual,
    theta_residuals,
    trivial_cocycle,
    triviality_test,
    verify_cocycle_identity,
)
from test_values import FACTORIES

SCALARS = {"int", "Fraction", "float", "complex"}
# One at a time in place of a valid argument; the float and complex parameters
# also get ints past the double range.
HOSTILE = [
    None, "3", "x", b"3", True, False, 1.5, 2.5, 0, 0.0, -0.0, -1, math.inf, -math.inf, math.nan, [], complex("nan"),
]
HOSTILE_REAL = HOSTILE + [10**400, -(10**400)]
# Int parameters that count work; every other int or Fraction parameter is a value.
COUNTS = {"samples", "n", "terms", "bound", "max_terms"}
HOSTILE_VALUE_INT = HOSTILE + [10**5000]
# The types of draw each kind of parameter may take; any other draw must raise.
OF_KIND = {"int": (int,), "Fraction": (int, Fraction), "float": (int, float), "complex": (int, float, complex)}
DEADLINE_S = 2.0


def make(name):
    return FACTORIES[name][0]()


def lattice():
    return make("Pseudolattice")


def lift_cocycle():
    # s = 3 and g = 0, the domain of the Heisenberg group operations
    return sigma_section(make("AltForm"), lattice())


# Each public call with a scalar parameter: the callable and valid arguments for
# every parameter it has.
CALLS = {
    "AltForm": lambda: (AltForm, {"s": 3}),
    "chern_numeric": lambda: (
        chern_numeric, {"a": make("Cocycle"), "l1": make("LatticeVector"), "l2": LatticeVector(1, 2), "v": 0.3 + 0.2j}
    ),
    "Cocycle": lambda: (Cocycle, {"s": 2, "c": 1 + 1j, "g": make("ExponentPoly"), "lattice": lattice()}),
    "coboundary": lambda: (coboundary, {"g": make("ExponentPoly"), "beta": 0.5, "lattice": lattice()}),
    "cocycle_identity_residuals": lambda: (
        cocycle_identity_residuals, {"a": make("Cocycle"), "samples": 5, "seed": 1}
    ),
    "verify_cocycle_identity": lambda: (verify_cocycle_identity, {"a": make("Cocycle"), "samples": 5, "seed": 1}),
    "HeisenbergElement": lambda: (HeisenbergElement, {"point": make("LambdaPoint"), "scalar": 2j}),
    "LambdaPoint": lambda: (LambdaPoint, {"alpha": 1, "beta": 2, "s": 3}),
    # s = 2: the branch that samples nothing
    "dichotomy_check": lambda: (dichotomy_check, {"a": make("Cocycle"), "samples": 5, "seed": 1}),
    "multiplier_residual": lambda: (
        multiplier_residual,
        {
            "a": lift_cocycle(),
            "elem": membership_multiplier(lift_cocycle(), make("LambdaPoint")),
            "samples": 5,
            "seed": 1,
        },
    ),
    "QuadReal": lambda: (QuadReal, {"a": Fraction(1, 2), "b": 3, "d": 5}),
    "approx_eq": lambda: (approx_eq, {"x": 1.0, "y": 1.0}),
    "AHData": lambda: (AHData, {"c": 1j, "e_form": make("AltForm"), "lattice": lattice()}),
    "triviality_test": lambda: (triviality_test, {"a": trivial_cocycle(lattice()), "bound": 100}),
    "solve_theta": lambda: (solve_theta, {"a": trivial_cocycle(lattice()), "bound": 100}),
    "LatticeVector": lambda: (LatticeVector, {"a": 3, "b": -4}),
    "Pseudolattice.cf_terms": lambda: (lattice().cf_terms, {"n": 5}),
    "Pseudolattice.convergents": lambda: (lattice().convergents, {"n": 5}),
    "Pseudolattice.small_vectors": lambda: (lattice().small_vectors, {"n": 5}),
    "Cocycle.exponent": lambda: (make("Cocycle").exponent, {"l": make("LatticeVector"), "v": 0.3 + 0.2j}),
    "Cocycle.evaluate": lambda: (make("Cocycle").evaluate, {"l": make("LatticeVector"), "v": 0.3 + 0.2j}),
    "Pseudolattice.approximate_real": lambda: (
        lattice().approximate_real, {"target": 0.3, "eps": 1e-3, "max_terms": 60}
    ),
    "ThetaCandidate": lambda: (
        ThetaCandidate, {"amplitude": 1.0, "alpha": 0.5, "unit_exponent": make("ExponentPoly")}
    ),
    "ThetaCandidate.log_value": lambda: (make("ThetaCandidate").log_value, {"v": 0.3 + 0.2j}),
    "ThetaCandidate.evaluate": lambda: (make("ThetaCandidate").evaluate, {"v": 0.3 + 0.2j}),
    "modulus_obstruction_demo": lambda: (
        modulus_obstruction_demo, {"a": Cocycle(0, 2.0, ExponentPoly.zero(), lattice()), "terms": 6}
    ),
    "theta_residuals": lambda: (
        theta_residuals, {"a": trivial_cocycle(lattice_sqrt2()), "t": make("ThetaCandidate"), "samples": 5, "seed": 1}
    ),
    "theta_residual": lambda: (
        theta_residual, {"a": trivial_cocycle(lattice_sqrt2()), "t": make("ThetaCandidate"), "samples": 5, "seed": 1}
    ),
}

_ERROR = "an exception class, raised by the library with a message"
_RECORD = "a result record, which the library fills itself"
_KERNEL = "an integer kernel, documented for integers and run once per sample or group operation"
EXCLUDED = {
    **{name: _ERROR for name in qtline._EXPORTS["errors"]},
    **{
        name: _RECORD
        for name in (
            "TrivialityVerdict", "KGroupDescription", "DichotomyReport", "ThetaSolveResult", "ObstructionWitness",
            "Convergent",
        )
    },
    "Pseudolattice.rounded_combination": _KERNEL,
    "Pseudolattice.frac_combination": _KERNEL,
}


def public_calls() -> dict:
    calls = {name: getattr(qtline, name) for names in qtline._EXPORTS.values() for name in names}
    for cls in [call for call in list(calls.values()) if inspect.isclass(call)]:
        for name, member in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(member):
                calls[f"{cls.__name__}.{name}"] = member
    return calls


def scalar_parameters(call) -> list[tuple[str, str]]:
    """(name, annotation) of each parameter annotated int, float or complex (alone or in a union)."""
    out = []
    for param in inspect.signature(call).parameters.values():
        annotation = param.annotation
        if isinstance(annotation, str) and SCALARS & {part.strip() for part in annotation.split("|")}:
            out.append((param.name, annotation))
    return out


PUBLIC = public_calls()


def test_every_scalar_parameter_has_a_strategy_or_an_exclusion():
    # a new public call with a scalar parameter, left out of both tables, would
    # escape the hostile draws below
    missing = [
        name for name, call in PUBLIC.items() if name not in EXCLUDED and name not in CALLS and scalar_parameters(call)
    ]
    assert not missing, missing
    assert not (CALLS.keys() | EXCLUDED.keys()) - PUBLIC.keys()  # no stale entry
    assert not CALLS.keys() & EXCLUDED.keys()
    assert all(reason for reason in EXCLUDED.values())
    for name in CALLS:
        assert scalar_parameters(PUBLIC[name]), name
        assert all(annotation in OF_KIND for _, annotation in scalar_parameters(PUBLIC[name])), name


@pytest.mark.parametrize("name", sorted(CALLS))
def test_strategy_arguments_are_valid(name):
    # each hostile draw then changes one argument of a call that answers
    call, kwargs = CALLS[name]()
    assert set(kwargs) == set(inspect.signature(PUBLIC[name]).parameters) - {"self"}
    call(**kwargs)


class Overran(Exception):
    pass


@contextmanager
def deadline(seconds: float, what: str):
    def expire(signum, frame):
        raise Overran(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def draws(param: str, annotation: str) -> list:
    if annotation in ("float", "complex"):
        return HOSTILE_REAL
    return HOSTILE if param in COUNTS else HOSTILE_VALUE_INT


def shown(value) -> str:
    """repr(value), or the bit length of an int past the digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


CASES = [
    (name, param, annotation, value)
    for name in sorted(CALLS)
    for param, annotation in scalar_parameters(PUBLIC[name])
    for value in draws(param, annotation)
]


@pytest.mark.parametrize(
    "name, param, annotation, value", CASES, ids=[f"{n}-{p}-{shown(v)}"[:60] for n, p, _, v in CASES]
)
def test_hostile_scalar_returns_or_raises_a_library_error(name, param, annotation, value):
    call, kwargs = CALLS[name]()
    kwargs[param] = value
    # a bool is an int subclass, and no scalar of any kind here
    of_kind = type(value) in OF_KIND[annotation]
    with deadline(DEADLINE_S, f"{name}({param}={shown(value)})"):
        try:
            call(**kwargs)
        except QTLineError:
            return
    assert of_kind, f"{name}({param}={shown(value)}) returned"
