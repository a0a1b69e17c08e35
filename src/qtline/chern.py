"""The Chern class of a cocycle: an integral alternating form on the lattice.

With the basis {omega1, omega2} fixed, every integer-valued alternating form
on L is

    eta(a*omega1 + b*omega2, c*omega1 + d*omega2) = s * (a*d - b*c)

for a single integer s, so :class:`AltForm` stores just s.  Orientation: the
positive generator takes value +1 on (omega1, omega2).

Two independent routes compute the Chern class of a cocycle and must agree:

* ``chern_symbolic`` reads s off the normal form (characters and coboundaries
  cancel in the defining four-term sum, the quadratic-exponent block
  contributes s*(ad - bc));
* ``chern_numeric`` evaluates the four-term sum of exponents

      a(l2, v+l1) + a(l1, v) - a(l2, v) - a(l1, v+l2)

  at an arbitrary v and rounds.  The sum is independent of v, which the
  caller can (and the tests do) probe by evaluating at several v.

The numeric route is deliberately kept as the anti-regression oracle for
every branch-of-logarithm decision elsewhere in the library.
"""

from __future__ import annotations

import cmath

from .cocycle import Cocycle, ExponentPoly
from .errors import ConsistencyError, RangeError
from .numeric import _Frozen, require_int, require_number, tolerance
from .pseudolattice import LatticeVector, Pseudolattice

# A rounded four-term sum farther than this from an integer means a malformed
# cocycle or a branch bug, not float noise.
_INTEGER_SLACK = 1e-6


class AltForm(_Frozen):
    """Integral alternating form s*(ad - bc) on the lattice basis."""

    _fields = ("s",)

    def __init__(self, s: int) -> None:
        self._store(s=require_int(s, "s"))

    def __add__(self, other: AltForm) -> AltForm:
        return AltForm(self.s + other.s)

    def __neg__(self) -> AltForm:
        return AltForm(-self.s)


def alt_eval(eta: AltForm, l1: LatticeVector, l2: LatticeVector) -> int:
    return eta.s * (l1.a * l2.b - l2.a * l1.b)


def chern_symbolic(a: Cocycle) -> AltForm:
    """Chern class read off the normal form; exact."""
    return AltForm(a.s)


def chern_numeric(a: Cocycle, l1: LatticeVector, l2: LatticeVector, v: complex) -> int:
    """Chern class via the four-term exponent sum at the sample point v."""
    v = require_number(v, "v")
    eps = tolerance()
    lat = a.lattice
    try:
        shift1, shift2 = lat.float_value(l1), lat.float_value(l2)
    except OverflowError as exc:  # an integer coordinate beyond the double range
        raise RangeError(f"four-term sum cannot be formed: {exc}") from exc
    terms = (a.exponent(l2, v + shift1), a.exponent(l1, v), -a.exponent(l2, v), -a.exponent(l1, v + shift2))
    total = sum(terms)
    if not cmath.isfinite(total):
        raise RangeError(f"four-term sum {total!r} is not finite")
    # 2^-50 of the largest term bounds the rounding error of a four-term sum.
    largest = max(abs(t) for t in terms)
    if largest * 2.0**-50 > _INTEGER_SLACK:
        raise RangeError(f"four-term sum of terms up to {largest:.3g} cannot resolve an integer")
    if abs(total.imag) > eps:
        raise ConsistencyError(f"four-term sum has imaginary part {total.imag:.3g}")
    nearest = round(total.real)
    if abs(total.real - nearest) > _INTEGER_SLACK:
        raise ConsistencyError(f"four-term sum {total.real!r} is not near an integer")
    return nearest


def sigma_section(eta: AltForm, lattice: Pseudolattice) -> Cocycle:
    """Right inverse of the Chern class: a cocycle with prescribed class eta.

    Returns the quadratic-exponent cocycle (s=eta.s, c=1, g=0); composing with
    ``chern_symbolic`` gives back eta exactly.
    """
    return Cocycle(eta.s, 1.0, ExponentPoly.zero(), lattice)
