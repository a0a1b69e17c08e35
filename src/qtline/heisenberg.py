"""Translation stabilizers, the Heisenberg group, and the commutator pairing.

A translation by x fixes the isomorphism class of the bundle of a cocycle A
exactly when the ratio A_l(v + x~)/A_l(v) is a coboundary h(v+l)/h(v); the
group of such x is K.  For a cocycle with Chern integer s != 0 the lifts of K
to R form (1/|s|)L, so a lift is stored as a :class:`LambdaPoint`
(alpha*omega1 + beta*omega2)/|s|; reduction mod L acts on (alpha, beta) mod
|s| and K has order s^2.  For s = 0 every real translation qualifies and K is
the whole torus.

For the normal form with g = 0 the multiplier of a lift x~ = (alpha, beta)/|s|
is, up to a constant,

    h(v) = e^{(2*pi*i/omega1) * sign(s) * beta * v},

normalized so h(0) = 1; the leftover constant is the C^x component of a
:class:`HeisenbergElement`.  The group law is

    (x1, h1) . (x2, h2) = (x1 + x2, h2(v + x1~) * h1(v)),

a central extension of K by C^x; its carried phase h2(x1~) =
e^{2*pi*i*kappa2*(alpha1 + beta1*theta)/s} is reduced mod 1 on integers, exact
at any s.  Its commutator descends to the alternating pairing

    e(x1, x2) = H_v(x1~, x2~) / H_v(x2~, x1~),   H_v(x~, y~) = h_y(v + x~)/h_y(v),

whose value is the root of unity e^{2*pi*i*(alpha1*beta2 - alpha2*beta1)/s}.
Both routes here work on the lifts' classes mod L.  The H_v ratios are formed
as exponents at two fixed base points that must agree, so a branch or
normalization bug shows up as a v-dependence rather than a wrong constant.
"""

from __future__ import annotations

import cmath
import math
import sys

from .cocycle import (
    _TWO_PI_I,
    Cocycle,
    exp_2pi_i,
    max_residual,
    require_resolvable,
    resolvable_exponent,
    sampled_residuals,
)
from .errors import ConsistencyError, DomainError, PrecisionError, PreconditionError, RangeError
from .numeric import _Frozen, approx_eq, require_count, require_int, require_unit, tolerance
from .pseudolattice import Pseudolattice

# Fixed base points for the v-independence cross-check.
_V_PROBE_1 = 0.3 + 0.2j
_V_PROBE_2 = 1.7 - 0.9j
# Sampling domain of the sampled lift checks: each coordinate in _LIFT_COORDS,
# v in [-_LIFT_V_BOUND, _LIFT_V_BOUND]^2, and the dichotomy's lift denominators.
_LIFT_COORDS = range(-5, 6)
_LIFT_V_BOUND = 2.0
_LIFT_DENOMINATORS = range(1, 7)


class LambdaPoint(_Frozen):
    """Lift x~ = (alpha*omega1 + beta*omega2)/s of a torus point, s >= 1."""

    _fields = ("alpha", "beta", "s")

    def __init__(self, alpha: int, beta: int, s: int) -> None:
        require_count(s, "LambdaPoint denominator", DomainError)
        alpha = require_int(alpha, "LambdaPoint coordinate alpha")
        self._store(alpha=alpha, beta=require_int(beta, "LambdaPoint coordinate beta"), s=s)

    def real_value(self, lattice: Pseudolattice) -> float:
        """(alpha*omega1 + beta*omega2)/s rounded once to the nearest double, on integers."""
        return lattice.rounded_combination(self.alpha, self.beta, self.s)

    def __add__(self, other: LambdaPoint) -> LambdaPoint:
        if self.s != other.s:
            raise DomainError("cannot add lifts with different denominators")
        return LambdaPoint(self.alpha + other.alpha, self.beta + other.beta, self.s)

    def __neg__(self) -> LambdaPoint:
        return LambdaPoint(-self.alpha, -self.beta, self.s)


class KGroupDescription(_Frozen):
    """Either the finite group (Z/sZ)^2 or the full torus."""

    _fields = ("finite", "modulus")

    def __init__(self, finite: bool, modulus: int | None = None) -> None:
        self._store(finite=finite, modulus=modulus)

    @classmethod
    def finite_group(cls, modulus: int) -> KGroupDescription:
        return cls(finite=True, modulus=modulus)

    @classmethod
    def full_torus(cls) -> KGroupDescription:
        return cls(finite=False, modulus=None)

    @property
    def order(self) -> int | None:
        return self.modulus * self.modulus if self.finite else None


class HeisenbergElement(_Frozen):
    """Pair (x~, h) with h(0) = 1 forced; scalar carries the C^x part.

    The unit part of the multiplier is e^{(2*pi*i/omega1)*kappa*v} with kappa
    = sign(s)*beta determined by the point, so the pair (point, scalar) is the
    whole datum.
    """

    _fields = ("point", "scalar")

    def __init__(self, point: LambdaPoint, scalar: complex) -> None:
        self._store(point=point, scalar=require_unit(scalar, "central scalar"))


def k_group(a: Cocycle) -> KGroupDescription:
    if a.s == 0:
        return KGroupDescription.full_torus()
    return KGroupDescription.finite_group(abs(a.s))


def _require_normal_form(a: Cocycle, *points: LambdaPoint) -> None:
    """The domain of the group operations: s != 0, g = 0, and lifts over (1/|s|)L."""
    if a.s == 0:
        raise PreconditionError("operation needs a cocycle with nonzero Chern class")
    if a.g:
        raise PreconditionError("operation needs normal form g = 0; strip the coboundary first")
    _check_points(a, *points)


def _check_points(a: Cocycle, *points: LambdaPoint) -> None:
    for x in points:
        if x.s != abs(a.s):
            raise DomainError(f"lift denominator {x.s} does not match the stabilizer lattice (1/{abs(a.s)})L")


def _kappa(a: Cocycle, x: LambdaPoint) -> int:
    return x.beta if a.s > 0 else -x.beta


def _carried_phase(a: Cocycle, kappa: int, x: LambdaPoint) -> complex:
    """e^{(2*pi*i/omega1)*kappa*x~} = e^{2*pi*i*kappa*(alpha + beta*theta)/s}, its
    phase reduced mod 1 on integers, so it is exact to rounding at every kappa."""
    return cmath.exp(_TWO_PI_I * a.lattice.frac_combination(kappa * x.alpha, kappa * x.beta, x.s))


def membership_multiplier(a: Cocycle, x: LambdaPoint) -> HeisenbergElement:
    """The normalized multiplier witnessing that x stabilizes the class of a.

    Satisfies A_l(v + x~)/A_l(v) = h(v+l)/h(v) for every l; see
    ``multiplier_residual`` for the numerical check.
    """
    _require_normal_form(a, x)
    return HeisenbergElement(point=x, scalar=1.0 + 0j)


def multiplier_residual(a: Cocycle, elem: HeisenbergElement, samples: int = 50, seed: int = 0) -> float:
    """Max residual of A_l(v+x~)/A_l(v) = h(v+l)/h(v) over seeded samples, both ratios
    formed as exponents: a(l, v+x~) - a(l, v) against kappa*l/omega1, so neither side
    leaves the float exp range however large the cocycle's values are at v.  With
    g = 0 the kernel takes no g difference."""
    _require_normal_form(a, elem.point)
    xval = elem.point.real_value(a.lattice)
    kappa = _kappa(a, elem.point)
    kernel = a._kernel
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float

    def pair(la: int, lb: int, v: complex) -> tuple[complex, complex]:
        return kernel(lb, v + xval, 0j) - kernel(lb, v, 0j), kappa * (la * w1 + lb * w2) / w1

    return max_residual(sampled_residuals(pair, samples, seed, (_LIFT_COORDS,) * 2, _LIFT_V_BOUND))


def heisenberg_multiply(g1: HeisenbergElement, g2: HeisenbergElement, a: Cocycle) -> HeisenbergElement:
    """(x1, h1).(x2, h2) = (x1+x2, h2(v+x1~)h1(v)), renormalized to h(0) = 1."""
    _require_normal_form(a, g1.point, g2.point)
    carried = _carried_phase(a, _kappa(a, g2.point), g1.point)
    return HeisenbergElement(point=g1.point + g2.point, scalar=g1.scalar * g2.scalar * carried)


def heisenberg_identity(a: Cocycle) -> HeisenbergElement:
    _require_normal_form(a)
    return HeisenbergElement(point=LambdaPoint(0, 0, abs(a.s)), scalar=1.0 + 0j)


def heisenberg_inverse(g: HeisenbergElement, a: Cocycle) -> HeisenbergElement:
    """Inverse (-x, h(v - x~)^{-1}) in the normalized representation."""
    _require_normal_form(a, g.point)
    return HeisenbergElement(point=-g.point, scalar=_carried_phase(a, _kappa(a, g.point), g.point) / g.scalar)


def closed_form_pairing(a: Cocycle, x1: LambdaPoint, x2: LambdaPoint) -> complex:
    """e^{2*pi*i*(alpha1*beta2 - alpha2*beta1)/s} with the signed s of the cocycle;
    the cross term is reduced mod s on integers, keeping its sign.  RangeError
    for an |s| past the double range, which the float quotient cannot take."""
    if a.s == 0:
        raise PreconditionError("closed form needs a nonzero Chern class")
    _check_points(a, x1, x2)
    if abs(a.s) > sys.float_info.max:
        raise RangeError(f"closed-form pairing needs |s| in the double range; s has {a.s.bit_length()} bits")
    cross = x1.alpha * x2.beta - x2.alpha * x1.beta
    residue = abs(cross) % abs(a.s)
    # Both scaled by 1/8, which is exact, so 2*pi*residue stays finite at any |s|.
    return cmath.exp(_TWO_PI_I * ((residue if cross >= 0 else -residue) * 0.125) / (a.s * 0.125))


def commutator_pairing(a: Cocycle, x1: LambdaPoint, x2: LambdaPoint) -> complex:
    """The pairing via H_v ratios, cross-checked at two base points.

    Works on any cocycle with s != 0: characters and coboundaries cancel in
    A_l(v+x~)/A_l(v), leaving the multipliers e^{(2*pi*i/omega1)*kappa*v}.
    With (alpha, beta) reduced mod |s|, H_v(x1~, x2~)/H_v(x2~, x1~) is one
    exponent (kappa2*((v + x1~) - v) - kappa1*((v + x2~) - v))/omega1 whose
    imaginary part is exactly 0, so it never leaves the float range.
    (v + x~) - v keeps x~ only to the ulp of v + x~, and kappa multiplies that
    error: PrecisionError where the phase error bound
    2*pi*(|kappa1| + |kappa2|)*ulp(|Re v| + max|x~|)/|omega1| passes 2*eps,
    the tolerance the two probes are compared with at |value| = 1; a kappa sum
    past the double range counts as an infinite bound.  It is
    the module's one float phase guard, kept on purpose: reduced exactly, the
    H_v ratio would be the closed form itself, and the two routes check each other.
    """
    eps = tolerance()
    if a.s == 0:
        raise PreconditionError("commutator pairing needs a nonzero Chern class")
    _check_points(a, x1, x2)
    n = abs(a.s)
    x1 = LambdaPoint(x1.alpha % n, x1.beta % n, n)
    x2 = LambdaPoint(x2.alpha % n, x2.beta % n, n)
    k1, k2 = _kappa(a, x1), _kappa(a, x2)
    x1val = x1.real_value(a.lattice)
    x2val = x2.real_value(a.lattice)
    w1 = a.lattice.omega1_float
    # Re(_V_PROBE_2) is the larger of the two probes' real parts.
    reach = abs(_V_PROBE_2.real) + max(abs(x1val), abs(x2val))
    kappas = abs(k1) + abs(k2)
    if kappas > sys.float_info.max:  # no double holds it: the bound is infinite
        kappas = math.inf
    bound = 2 * math.pi * kappas * math.ulp(reach) / abs(w1)
    if bound > eps + eps:
        raise PrecisionError(
            f"pairing phase error bound {bound:.3g} passes the tolerance: "
            f"kappa = {k1}, {k2} is too large for a double to resolve the H_v ratio"
        )

    def pairing_at(v: complex) -> complex:
        return exp_2pi_i((k2 * ((v + x1val) - v) - k1 * ((v + x2val) - v)) / w1, "pairing", v)

    first = pairing_at(_V_PROBE_1)
    second = pairing_at(_V_PROBE_2)
    if not approx_eq(first, second):
        raise ConsistencyError(
            f"commutator pairing depends on the base point: {first} vs {second}"
        )
    return first


class DichotomyReport(_Frozen):
    """One-branch summary tying the Chern class, K, and the pairing together."""

    _fields = (
        "chern_s",
        "k_group",
        "witness_pair",
        "witness_value",
        "witness_differs_from_one",
        "max_pairing_deviation",
    )


def dichotomy_check(a: Cocycle, samples: int = 100, seed: int = 0) -> DichotomyReport:
    """Exhibit whichever side of the finite/full-torus dichotomy applies.

    Nonzero Chern class: K is finite of order s^2 and the lift pair
    (omega1/s, omega2/s) realizes the pairing value e^{2*pi*i/s}.  Note that
    for |s| = 1 that value equals 1 — K is then the trivial group and the
    pairing cannot distinguish anything.  ``witness_value`` is the pairing as
    computed numerically by :func:`commutator_pairing`; the flag
    ``witness_differs_from_one`` is decided exactly from the Chern integer
    (e^{2*pi*i/s} != 1 exactly when |s| >= 2), so it holds for every |s| >= 2
    however close the float value lies to 1 and whatever the tolerance is.

    Zero Chern class: K is the full torus and the pairing is identically 1;
    the report carries the max deviation from 1 over sampled lift pairs.
    """
    require_count(samples, "samples")
    require_int(seed, "seed")
    s = a.s
    group = k_group(a)
    if s != 0:
        x1 = LambdaPoint(1, 0, abs(s))
        x2 = LambdaPoint(0, 1, abs(s))
        value = commutator_pairing(a, x1, x2)
        return DichotomyReport(s, group, (x1, x2), value, abs(s) != 1, None)

    g, lat, limit = a.g, a.lattice, resolvable_exponent()

    def pair(den: int, a1: int, b1: int, a2: int, b2: int, v: complex) -> tuple[complex, complex]:
        # The pairing's exponent through the symmetric H_v expression
        # h(v+x1~+x2~)h(v) / (h(v+x1~)h(v+x2~)), h the cocycle's own unit, formed in
        # exponent space (the h values can leave the float range).  The two
        # argument orders are different float expressions, so this is a nonvacuous
        # check of the symmetry.  The g values must meet limit themselves, or
        # their difference is rounding noise.
        x1, x2 = lat.rounded_combination(a1, b1, den), lat.rounded_combination(a2, b2, den)
        g12, g21, g0, g1, g2 = g(v + x1 + x2), g(v + x2 + x1), g(v), g(v + x1), g(v + x2)
        require_resolvable(max(abs(g12), abs(g21), abs(g0), abs(g1), abs(g2)), limit)
        return 0j, (g12 + g0 - g1 - g2) - (g21 + g0 - g2 - g1)

    deviations = sampled_residuals(pair, samples, seed, (_LIFT_DENOMINATORS,) + (_LIFT_COORDS,) * 4, _LIFT_V_BOUND)
    return DichotomyReport(0, group, None, None, None, max_residual(deviations))
