"""Finite normal forms for the nonvanishing-holomorphic cocycles of a
pseudolattice, i.e. families A_l(v) with

    A_{l1+l2}(v) = A_{l1}(v + l2) * A_{l2}(v).

A general such family cannot be stored in finite data, so this module
represents exactly the subgroup generated by three kinds of building blocks,
which is enough to hit every cohomology class:

* the quadratic-exponent sections  sigma_s: A_l(v) = e^{s(pi*i/omega1)[b^2*omega2 + 2bv]},
* characters  gamma_c: A_l(v) = c^b,
* coboundaries h(v+l)/h(v) of units h = e^{2*pi*i*g(v)} with polynomial g.

A :class:`Cocycle` is the triple (s, c, g) for the product of one block of
each kind, over a fixed :class:`Pseudolattice`, where l = a*omega1 + b*omega2.
Every exponent in the library is normalized as e^{2*pi*i*(...)} so that the
cocycle identity becomes an integrality statement on exponents: the defect

    a(l1+l2, v) - a(l1, v+l2) - a(l2, v)

equals the integer -s * b1 * a2 identically (characters and coboundaries
contribute zero).  ``cocycle_defect`` returns that closed form and the
numerical verifier checks it at samples.

Branch convention: log(c) is taken once, on the principal branch, when the
cocycle is first evaluated, so repeated evaluation is branch-stable.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import cached_property

from .errors import DomainError, PrecisionError, PreconditionError, RangeError
from .numeric import _Frozen, require_count, require_int, require_number, require_unit, tolerance
from .pseudolattice import LatticeVector, Pseudolattice

# Hard cap on exponent-polynomial degree: keeps |exponents| small enough that
# double-precision evaluation stays meaningful on the sampling domains below.
MAX_DEGREE = 6

# Shared sampling domain for the numerical verifiers: each lattice coordinate
# uniform in COORD_RANGE, v uniform in the square [-V_BOUND, V_BOUND]^2.
COORD_RANGE = range(-10, 11)
V_BOUND = 5.0

# Largest |Re z| fed to exp() before raising RangeError.
_EXP_LIMIT = 700.0

_TWO_PI_I = 2j * math.pi
_INV_2PI_I = 1.0 / _TWO_PI_I


def exp_2pi_i(exponent: complex, kind: str, v: complex, l: LatticeVector | None = None) -> complex:
    """e^{2*pi*i*exponent}; RangeError naming the sample (l, v) when the
    argument is not finite or its real part exceeds _EXP_LIMIT in absolute value."""
    z = _TWO_PI_I * exponent
    if not (abs(z.real) <= _EXP_LIMIT and math.isfinite(z.imag)):
        at = "" if l is None else f"l=({l.a},{l.b}), "
        raise RangeError(f"{kind} exponent {z:.6g} out of float exp range at {at}v={v:.6g}")
    return cmath.exp(z)


def resolvable_exponent() -> float:
    """eps * 2^52 / (2*pi) for the tolerance eps: past this magnitude 2*pi times
    an exponent's ulp, the residual's rounding error, exceeds eps, so a double
    no longer resolves the exponent mod 1 to the tolerance."""
    return tolerance() * 2.0**52 / (2.0 * math.pi)


def require_resolvable(magnitude: float, limit: float) -> None:
    """PrecisionError where an exponent of this magnitude passes limit (:func:`resolvable_exponent`)."""
    if magnitude > limit:
        raise PrecisionError(
            f"exponent of magnitude {magnitude:.6g} passes {limit:.6g}: "
            "a double cannot resolve it mod 1 to the tolerance"
        )


def exponent_residual(x: complex, y: complex, limit: float) -> float:
    """Relative residual |A - B| / max(1, |A|) of A = e^{2*pi*i*x}, B = e^{2*pi*i*y}, as
    min(1, |A|) * |1 - e^{2*pi*i(y-x)}|: finite even where |A| overflows a double.
    RangeError where e^{2*pi*i(y-x)} itself would overflow or is not finite
    (a NaN or infinite exponent), so no residual is NaN.  PrecisionError where
    |x| or |y| passes limit (see :func:`resolvable_exponent`), where the
    residual would be rounding noise."""
    z = _TWO_PI_I * (y - x)
    if not (z.real <= _EXP_LIMIT and cmath.isfinite(z)):
        raise RangeError(f"residual exponent {z:.6g} out of float exp range")
    if abs(x) > limit or abs(y) > limit:  # x and y are finite here
        require_resolvable(max(abs(x), abs(y)), limit)
    r = abs(1.0 - cmath.exp(z))
    # Where Im x <= 0, |A| >= 1 and the factor min(1, |A|^-1) is 1.
    return r if x.imag <= 0.0 else min(1.0, math.exp(-2.0 * math.pi * x.imag)) * r


def max_residual(residuals: list[float]) -> float:
    """The largest residual; RangeError if one is NaN, wherever it sits
    (max() alone returns or skips a NaN depending on its position)."""
    if any(r != r for r in residuals):
        raise RangeError("a residual is NaN")
    return max(residuals)


class ExponentPoly(_Frozen):
    """Polynomial g(v) = sum g_j v^j with complex coefficients, low degree first.

    Trailing zeros are stripped, so structural equality is well defined; the
    zero polynomial has an empty coefficient tuple.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[complex, ...] = ()) -> None:
        cs = [require_number(z, "exponent polynomial coefficient") for z in coeffs]
        if not all(cmath.isfinite(z) for z in cs):
            raise DomainError("exponent polynomial coefficients must be finite")
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > MAX_DEGREE:
            raise DomainError(f"exponent polynomial degree {len(cs) - 1} exceeds cap {MAX_DEGREE}")
        # _horner is the coefficients highest degree first, the order Horner's rule
        # reads, and linear_coefficient is g_1, read by every Pic^0 fold.
        self._store(coeffs=tuple(cs), _horner=tuple(reversed(cs)), linear_coefficient=cs[1] if len(cs) > 1 else 0j)

    @classmethod
    def zero(cls) -> ExponentPoly:
        return cls(())

    @classmethod
    def linear(cls, slope: complex, constant: complex = 0.0) -> ExponentPoly:
        return cls((constant, slope))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, v: complex) -> complex:
        acc = 0j
        for coef in self._horner:
            acc = acc * v + coef
        return acc

    def __add__(self, other: ExponentPoly) -> ExponentPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, coef in enumerate(b):
            merged[i] += coef
        return ExponentPoly(tuple(merged))

    def __neg__(self) -> ExponentPoly:
        return ExponentPoly(tuple(-z for z in self.coeffs))

    def __sub__(self, other: ExponentPoly) -> ExponentPoly:
        return self + (-other)


class Cocycle(_Frozen):
    """Normal form (s, c, g): the cocycle

        A_l(v) = c^b * e^{s(pi*i/omega1)[b^2*omega2 + 2bv]} * e^{2*pi*i(g(v+l) - g(v))}

    for l = a*omega1 + b*omega2.  The cocycle identity holds by construction.
    """

    _fields = ("s", "c", "g", "lattice")

    def __init__(self, s: int, c: complex, g: ExponentPoly, lattice: Pseudolattice) -> None:
        self._store(s=require_int(s, "s"), c=require_unit(c, "character value c"), g=g, lattice=lattice)

    @cached_property
    def _kernel(self) -> Callable[[int, complex, complex], complex]:
        """The one exponent formula: kernel(b, v, dg) = a(l, v) for l = a*omega1 + b*omega2
        and dg = g(v + l) - g(v), the cocycle's constants bound on first use.  The
        character contributes (b*log c)/(2*pi*i); dg comes from the caller, so one g
        value can serve two exponents, and is ignored when g = 0.  s is bound as a
        double, which s * x rounds it to anyway; RangeError where it has none."""
        try:
            s = float(self.s)
        except OverflowError as exc:
            raise RangeError(f"s of {self.s.bit_length()} bits is beyond the double range") from exc
        log_c, has_g = cmath.log(self.c), bool(self.g)
        has_c = log_c != 0
        w2, two_w1 = self.lattice.omega2_float, 2.0 * self.lattice.omega1_float

        def kernel(b: int, v: complex, dg: complex) -> complex:
            total = 0j
            if has_c:
                total += b * log_c * _INV_2PI_I
            if s:
                total += s * (b * b * w2 + 2.0 * b * v) / two_w1
            if has_g:
                total += dg
            return total

        return kernel

    def exponent(self, l: LatticeVector, v: complex) -> complex:
        """Closed-form exponent a(l, v) with A_l(v) = e^{2*pi*i*a(l, v)}; v is read by require_number.
        RangeError where a coordinate of l is beyond the double range."""
        v, g = require_number(v, "v"), self.g
        kernel = self._kernel
        try:
            return kernel(l.b, v, g(v + self.lattice.float_value(l)) - g(v) if g else 0j)
        except OverflowError as exc:
            raise RangeError(f"exponent cannot be formed: {exc}") from exc

    def evaluate(self, l: LatticeVector, v: complex) -> complex:
        """Numerical value A_l(v); always nonzero.  v is read by require_number."""
        v = require_number(v, "v")
        return exp_2pi_i(self.exponent(l, v), "cocycle", v, l)

    def tensor(self, other: Cocycle) -> Cocycle:
        """Componentwise product; realizes the tensor product of bundles."""
        if self.lattice != other.lattice:
            raise DomainError("tensor requires cocycles over the same pseudolattice")
        return Cocycle(self.s + other.s, self.c * other.c, self.g + other.g, self.lattice)

    def inverse(self) -> Cocycle:
        return Cocycle(-self.s, 1.0 / self.c, -self.g, self.lattice)


def trivial_cocycle(lattice: Pseudolattice) -> Cocycle:
    return Cocycle(0, 1.0, ExponentPoly.zero(), lattice)


def existence_cocycle(lattice: Pseudolattice) -> Cocycle:
    """The classical nontrivial example e^{-(pi*i/omega1)[b^2*omega2 + 2bv]}.

    This is the s = -1 quadratic-exponent section.  Note the orientation: with
    the opposite relative sign on the 2bv term the family would fail the
    cocycle identity outright (the defect picks up the irrational term
    -2*b1*b2*theta), so the sign written here is the only consistent one.
    """
    return Cocycle(-1, 1.0, ExponentPoly.zero(), lattice)


def coboundary(g: ExponentPoly, beta: complex = 0.0, lattice: Pseudolattice | None = None) -> Cocycle:
    """The cohomologically trivial cocycle h(v+l)/h(v) of h = e^{2*pi*i(g(v) + beta*v)}.

    The linear part beta*v acts on lattice points as the character
    l -> e^{2*pi*i*beta*l}; it is stored as the degree-1 coefficient of the
    exponent polynomial, which represents that character exactly.
    """
    if lattice is None:
        raise DomainError("coboundary requires a pseudolattice")
    return Cocycle(0, 1.0, g + ExponentPoly.linear(beta), lattice)


def cocycle_defect(a: Cocycle, l1: LatticeVector, l2: LatticeVector) -> int:
    """Exact integer value of a(l1+l2, v) - a(l1, v+l2) - a(l2, v)."""
    return -a.s * l1.b * l2.a


def sampled_residuals(
    pair: Callable[..., tuple[complex, complex]],
    samples: int,
    seed: int,
    coords: tuple[range, ...],
    v_bound: float = V_BOUND,
) -> list[float]:
    """The loop of every sampled verifier: :func:`exponent_residual` of the exponents
    (x, y) = pair(n_1, ..., n_k, v) at each of samples draws from one RNG seeded with seed.

    A draw is k plain integers, n_i = r.start + randrange(len(r)) for r = coords[i], each
    non-empty with step 1, then v's real and imaginary parts, each
    -v_bound + 2*v_bound*random(): the same RNG calls and values as
    randint(r.start, r[-1]) and uniform(-v_bound, v_bound).  randrange(n) is inlined
    as its own rejection loop (CPython's _randbelow_with_getrandbits): getrandbits(k)
    with k = n.bit_length(), not (n - 1).bit_length(), drawn again while it is >= n.
    Reordering these draws would change the samples of every seed."""
    require_count(samples, "samples")
    require_int(seed, "seed")
    if not all(coords):
        raise PreconditionError("need non-empty coordinate ranges")
    # Imported here, its one use: constructing or evaluating a cocycle needs no RNG.
    import random

    limit = resolvable_exponent()
    rng = random.Random(seed)
    bits, unit = rng.getrandbits, rng.random
    shape = [(len(r), len(r).bit_length(), r.start) for r in coords]
    lo, span = -v_bound, 2.0 * v_bound
    out = []
    keep = out.append
    for _ in range(samples):
        # A loop rather than a comprehension, which costs CPython 3.11 a call per sample.
        ints = []
        for n, k, start in shape:
            i = bits(k)
            while i >= n:
                i = bits(k)
            ints.append(i + start)
        x, y = pair(*ints, complex(lo + span * unit(), lo + span * unit()))
        keep(exponent_residual(x, y, limit))
    return out


def cocycle_identity_residuals(a: Cocycle, samples: int = 100, seed: int = 0) -> list[float]:
    """Per-sample relative residuals of A_{l1+l2}(v) = A_{l1}(v+l2) * A_{l2}(v)
    at seeded samples with l1, l2 in COORD_RANGE^2 and v in the square [-5, 5]^2,
    computed in exponent space by :func:`exponent_residual`.
    """
    kernel, g = a._kernel, a.g
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float

    def pair(a1: int, b1: int, a2: int, b2: int, v: complex) -> tuple[complex, complex]:
        # g(v) and g(v + l2) each enter two of the three exponents.
        v2 = v + (a2 * w1 + b2 * w2)
        g0, g2 = g(v), g(v2)
        x = kernel(b1 + b2, v, g(v + ((a1 + a2) * w1 + (b1 + b2) * w2)) - g0)
        return x, kernel(b1, v2, g(v2 + (a1 * w1 + b1 * w2)) - g2) + kernel(b2, v, g2 - g0)

    return sampled_residuals(pair, samples, seed, (COORD_RANGE,) * 4)


def verify_cocycle_identity(a: Cocycle, samples: int = 100, seed: int = 0) -> float:
    """Max of :func:`cocycle_identity_residuals`; zero exactly for the trivial cocycle."""
    return max_residual(cocycle_identity_residuals(a, samples=samples, seed=seed))
