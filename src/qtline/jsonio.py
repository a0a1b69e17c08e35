"""JSON encodings shared by the CLI and the fixture files.

Schemas:
    complex        ->  [re, im]
    Fraction       ->  [num, den]
    QuadReal       ->  {"a": [num, den], "b": [num, den], "D": int}
    Pseudolattice  ->  {"omega1": quadreal, "omega2": quadreal}
    Cocycle        ->  {"s": int, "c": complex, "g": [complex, ...], "lattice": lattice}
    ThetaCandidate ->  {"amplitude": complex, "alpha": complex, "unit_exponent": [complex, ...]}

Decoding raises FormatError on any schema violation so the CLI can map it to
the malformed-input exit code.  JSON booleans are not numbers here, and
complex parts must be finite doubles.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .cocycle import Cocycle, ExponentPoly
from .errors import FormatError
from .numeric import QuadReal
from .pseudolattice import Pseudolattice

if TYPE_CHECKING:
    from .theta import ThetaCandidate


def _is_finite_number(x: Any) -> bool:
    """An int or float (never a bool) that converts to a finite double."""
    return type(x) is int and abs(x) <= sys.float_info.max or type(x) is float and math.isfinite(x)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj: Any, what: str = "complex value") -> complex:
    if not (isinstance(obj, list) and len(obj) == 2 and all(_is_finite_number(x) for x in obj)):
        raise FormatError(f"{what} must be a [re, im] pair of finite numbers, got {obj!r}")
    return complex(obj[0], obj[1])


def fraction_to_json(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def fraction_from_json(obj: Any, what: str = "rational") -> Fraction:
    if not (isinstance(obj, list) and len(obj) == 2 and all(type(x) is int for x in obj)):
        raise FormatError(f"{what} must be a [num, den] pair of integers, got {obj!r}")
    if obj[1] <= 0:
        raise FormatError(f"{what} denominator must be positive, got {obj[1]}")
    return Fraction(obj[0], obj[1])


def quadreal_to_json(x: QuadReal) -> dict[str, Any]:
    return {"a": fraction_to_json(x.a), "b": fraction_to_json(x.b), "D": x.d}


def quadreal_from_json(obj: Any, what: str = "quadratic real") -> QuadReal:
    if not isinstance(obj, dict) or set(obj) != {"a", "b", "D"}:
        raise FormatError(f'{what} must be an object with keys "a", "b", "D", got {obj!r}')
    if type(obj["D"]) is not int:
        raise FormatError(f"{what}: D must be an integer, got {obj['D']!r}")
    return QuadReal(
        fraction_from_json(obj["a"], f"{what}.a"),
        fraction_from_json(obj["b"], f"{what}.b"),
        obj["D"],
    )


def lattice_to_json(lat: Pseudolattice) -> dict[str, Any]:
    return {"omega1": quadreal_to_json(lat.omega1), "omega2": quadreal_to_json(lat.omega2)}


def lattice_from_json(obj: Any) -> Pseudolattice:
    if not isinstance(obj, dict) or set(obj) != {"omega1", "omega2"}:
        raise FormatError(f'lattice must be an object with keys "omega1", "omega2", got {obj!r}')
    return Pseudolattice(
        quadreal_from_json(obj["omega1"], "omega1"),
        quadreal_from_json(obj["omega2"], "omega2"),
    )


def poly_to_json(g: ExponentPoly) -> list[list[float]]:
    return [complex_to_json(z) for z in g.coeffs]


def poly_from_json(obj: Any, what: str) -> ExponentPoly:
    if not isinstance(obj, list):
        raise FormatError(f"{what} must be a list of [re, im] coefficients, got {obj!r}")
    return ExponentPoly(tuple(complex_from_json(z, f"{what}[{i}]") for i, z in enumerate(obj)))


def cocycle_to_json(a: Cocycle) -> dict[str, Any]:
    return {
        "s": a.s,
        "c": complex_to_json(a.c),
        "g": poly_to_json(a.g),
        "lattice": lattice_to_json(a.lattice),
    }


def cocycle_from_json(obj: Any) -> Cocycle:
    if not isinstance(obj, dict) or set(obj) != {"s", "c", "g", "lattice"}:
        raise FormatError(f'cocycle must be an object with keys "s", "c", "g", "lattice", got {obj!r}')
    if not (type(obj["s"]) is int and _is_finite_number(obj["s"])):
        raise FormatError(f"cocycle s must be an integer within the double range, got {obj['s']!r}")
    return Cocycle(
        obj["s"],
        complex_from_json(obj["c"], "cocycle c"),
        poly_from_json(obj["g"], "cocycle g"),
        lattice_from_json(obj["lattice"]),
    )


def theta_to_json(t: ThetaCandidate) -> dict[str, Any]:
    return {
        "amplitude": complex_to_json(t.amplitude),
        "alpha": complex_to_json(t.alpha),
        "unit_exponent": poly_to_json(t.unit_exponent),
    }


def theta_from_json(obj: Any) -> ThetaCandidate:
    if not isinstance(obj, dict) or set(obj) != {"amplitude", "alpha", "unit_exponent"}:
        raise FormatError(
            f'theta candidate must have keys "amplitude", "alpha", "unit_exponent", got {obj!r}'
        )
    # Imported here, its one runtime use: theta loads picard and chern, which
    # decoding a cocycle or a lattice does not need.
    from .theta import ThetaCandidate

    return ThetaCandidate(
        complex_from_json(obj["amplitude"], "amplitude"),
        complex_from_json(obj["alpha"], "alpha"),
        poly_from_json(obj["unit_exponent"], "unit_exponent"),
    )
