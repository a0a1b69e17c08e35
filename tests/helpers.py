"""Shared random generators for the test suite, the character route to the
Pic^0 invariant that serves as an oracle for the closed form, the value of
a Heisenberg multiplier that cross-checks its exponent-space residual, the
unwindowed witness scan that serves as an oracle for ``triviality_test``, and
the field arithmetic of Q(sqrt(D)) (:class:`ExactReal`) that serves as the
exact oracle for the library's integer kernels, and a probe that runs code in
a fresh interpreter (:func:`fresh_python`).

All samplers take an explicit random.Random so every test is seed-pinned.
Cocycle coefficients are kept small (degree <= 3, |coeffs| <= 1) so that the
four-term Chern sums stay numerically well conditioned on the standard
sampling domain.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from qtline import (
    Cocycle,
    DomainError,
    ExponentPoly,
    HeisenbergElement,
    LatticeVector,
    PreconditionError,
    Pseudolattice,
    QuadReal,
    chern_symbolic,
)
from qtline.cocycle import _TWO_PI_I, exp_2pi_i
from qtline.numeric import _Frozen, over_common_denominator, perron_form, quad_float, surd_floor, tolerance
from qtline.picard import REASON_MODULUS, REASON_NONZERO_CHERN, TrivialityVerdict, _pic0_value

TWO_PI_I = 2j * cmath.pi

# Keep |Re g_1| below 1/(4*omega1) so arg(phi(omega1)) stays in (-pi/2, pi/2)
# and principal-branch logs add exactly when two such cocycles are multiplied.
BRANCH_SAFE_SLOPE = 0.2

# The four lattices of perfbench/certify.py: sqrt(2), the golden ratio, a
# non-unit omega1, and a negative sqrt(D) coefficient (theta < 0).
CERTIFY_LATTICES = [
    Pseudolattice(QuadReal.rational(1, 2), QuadReal.sqrt(2)),
    Pseudolattice(QuadReal.rational(1, 5), QuadReal(Fraction(1, 2), Fraction(1, 2), 5)),
    Pseudolattice(QuadReal.rational(Fraction(3, 2), 7), QuadReal(Fraction(-1, 2), Fraction(1, 3), 7)),
    Pseudolattice(QuadReal.rational(1, 3), QuadReal(Fraction(1, 2), Fraction(-1, 2), 3)),
]


# Beyond the certify lattices: theta = 10^17*sqrt(2) >= 2^53, a double with
# theta % 1.0 == 0, and theta = 1 + sqrt(2)/10^6, with frac(theta) ~ 1.4e-6.
EDGE_LATTICES = [
    Pseudolattice(QuadReal.rational(1, 2), QuadReal(Fraction(0), Fraction(10**17), 2)),
    Pseudolattice(QuadReal.rational(1, 2), QuadReal(Fraction(1), Fraction(1, 10**6), 2)),
]


def surd_frac_combination(lat: Pseudolattice, a: int, b: int, den: int = 1) -> float:
    """``Pseudolattice.frac_combination`` by one surd_floor, the oracle of its fixed-point
    kernel: floor(x*2^64) for x = (a*Q + b*P + b*sqrt(N))/(den*Q), whose isqrt grows with
    b, and its residue mod 2^64 over 2^64."""
    p, n, q = lat._perron
    return surd_floor((a * q + b * p) << 64, b << 64, n, den * q) % 2**64 / 2**64


class ExactReal(QuadReal):
    """A QuadReal with the arithmetic of the field Q(sqrt(d)): ``+ - * /`` with
    another QuadReal of the same d or an int/Fraction, ``norm``, ``reciprocal``,
    an exact ``sign`` and ``abs``, ``math.floor`` and ``float``.  Test oracle only.

    It equals (and hashes as) a plain QuadReal with the same fields, so its
    results compare directly with the library's values.
    """

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadReal):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = QuadReal.__hash__

    def _coerce(self, other) -> ExactReal | None:
        if isinstance(other, QuadReal):
            if other.d != self.d:
                raise DomainError(f"mismatched radicands: sqrt({self.d}) vs sqrt({other.d})")
            return exact(other)
        if isinstance(other, (int, Fraction)):
            return ExactReal.rational(other, self.d)
        return None

    def __add__(self, other) -> ExactReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactReal(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> ExactReal:
        return ExactReal(-self.a, -self.b, self.d)

    def __sub__(self, other) -> ExactReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> ExactReal:
        return (-self) + other

    def __mul__(self, other) -> ExactReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactReal(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    @property
    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (the product with the conjugate)."""
        return self.a * self.a - self.d * self.b * self.b

    def reciprocal(self) -> ExactReal:
        n = self.norm
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return ExactReal(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other) -> ExactReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other) -> ExactReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by rational arithmetic only."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: |a| vs |b|*sqrt(d) via squares.  Equality would force
        # sqrt(d) rational, impossible for square-free d >= 2.
        rational_part, sqrt_part = a * a, self.d * b * b
        if a > 0:
            return 1 if rational_part > sqrt_part else -1
        return 1 if sqrt_part > rational_part else -1

    def __abs__(self) -> ExactReal:
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        p, n, q = surd_form(self)
        return surd_floor(p, 1, n, q)

    def __float__(self) -> float:
        (a, b), den = over_common_denominator(self.a, self.b)
        return quad_float(a, b, self.d, den)


def exact(x: QuadReal) -> ExactReal:
    """x with the oracle's field arithmetic."""
    return ExactReal(x.a, x.b, x.d)


def surd_form(x: QuadReal) -> tuple[int, int, int]:
    """Integers (P, N, Q) with x = (P + sqrt(N))/Q and Q | N - P^2, for irrational x."""
    (a, b), den = over_common_denominator(x.a, x.b)
    return perron_form(a, b, x.d, den)


# Built once per lattice, so repeated reads return the same element.
@functools.lru_cache(maxsize=256)
def theta_exact(lat: Pseudolattice) -> ExactReal:
    """theta = omega2/omega1, divided in Q(sqrt(d))."""
    return exact(lat.omega2) / lat.omega1


def real_value(lat: Pseudolattice, l: LatticeVector) -> ExactReal:
    """a*omega1 + b*omega2 as an exact field element, for exact sign tests on lattice values."""
    return exact(lat.omega1) * l.a + exact(lat.omega2) * l.b


def exact_frac(theta: QuadReal, a: int, b: int, den: int = 1) -> mp.mpf:
    """frac((a + b*theta)/den) from mpmath, with digits to spare beyond a's and b's."""
    with mp.workdps(max(len(str(abs(a))), len(str(abs(b)))) + 40):
        t = mp.mpf(theta.a.numerator) / theta.a.denominator
        t += mp.mpf(theta.b.numerator) / theta.b.denominator * mp.sqrt(theta.d)
        x = (a + b * t) / den
        return x - mp.floor(x)


def exact_phase(theta: QuadReal, a: int, b: int, den: int = 1) -> complex:
    """e^{2*pi*i*(a + b*theta)/den} from mpmath, its phase reduced mod 1 exactly."""
    with mp.workdps(30):
        return complex(mp.expjpi(2 * exact_frac(theta, a, b, den)))


def random_vector(rng: random.Random, bound: int = 10) -> LatticeVector:
    return LatticeVector(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_v(rng: random.Random, bound: float = 5.0) -> complex:
    return complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))


def random_unit_modulus(rng: random.Random) -> complex:
    return cmath.exp(2j * rng.uniform(-3.0, 3.0))


def random_nonzero(rng: random.Random, lo: float = 0.3, hi: float = 3.0) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-3.1, 3.1))


def random_poly(rng: random.Random, max_degree: int = 3, scale: float = 0.4) -> ExponentPoly:
    degree = rng.randint(0, max_degree)
    coeffs = tuple(
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(degree + 1)
    )
    return ExponentPoly(coeffs)


def random_cocycle(
    rng: random.Random,
    lattice: Pseudolattice,
    s_bound: int = 5,
    allow_zero_s: bool = True,
    max_degree: int = 3,
    scale: float = 0.4,
) -> Cocycle:
    s = rng.randint(-s_bound, s_bound)
    if not allow_zero_s and s == 0:
        s = rng.choice([-1, 1]) * rng.randint(1, s_bound)
    return Cocycle(s, random_nonzero(rng), random_poly(rng, max_degree, scale), lattice)


def random_chern_trivial(rng: random.Random, lattice: Pseudolattice, branch_safe: bool = True) -> Cocycle:
    """Random s = 0 cocycle; branch_safe pins the linear exponent coefficient
    so principal-branch normalization is multiplicative across pairs."""
    poly = random_poly(rng)
    if branch_safe:
        coeffs = list(poly.coeffs) + [0j] * (2 - len(poly.coeffs))
        coeffs[1] = complex(
            rng.uniform(-BRANCH_SAFE_SLOPE, BRANCH_SAFE_SLOPE),
            rng.uniform(-BRANCH_SAFE_SLOPE, BRANCH_SAFE_SLOPE),
        )
        poly = ExponentPoly(tuple(coeffs))
    return Cocycle(0, random_nonzero(rng), poly, lattice)


class Character(_Frozen):
    """Homomorphism L -> C^x, stored by its values on the basis."""

    _fields = ("phi_omega1", "phi_omega2", "lattice")

    def __init__(self, phi_omega1: complex, phi_omega2: complex, lattice: Pseudolattice) -> None:
        if phi_omega1 == 0 or phi_omega2 == 0:
            raise DomainError("character values must be nonzero")
        super().__init__(phi_omega1, phi_omega2, lattice)

    def __call__(self, l: LatticeVector) -> complex:
        return self.phi_omega1**l.a * self.phi_omega2**l.b


def reduce_to_constant(a: Cocycle) -> Character:
    """Constant cocycle cohomologous to a (requires Chern class zero).

    The nonlinear part of g is stripped as a coboundary; the linear
    coefficient g_1 folds into the character values on the basis:
    phi(omega1) = e^{2*pi*i*g_1*omega1}, phi(omega2) = c * e^{2*pi*i*g_1*omega2}.
    """
    if chern_symbolic(a).s != 0:
        raise PreconditionError("reduce_to_constant needs a cocycle with zero Chern class")
    lat = a.lattice
    g1 = a.g.linear_coefficient
    phi1 = cmath.exp(TWO_PI_I * g1 * lat.omega1_float)
    phi2 = a.c * cmath.exp(TWO_PI_I * g1 * lat.omega2_float)
    return Character(phi1, phi2, lat)


def character_cocycle(phi: Character) -> Cocycle:
    """Lift a character back to a normal-form cocycle with the same values.

    phi(omega1)^a enters through the linear exponent coefficient
    log(phi(omega1)) / (2*pi*i*omega1); the residue goes into the c slot so
    that evaluation reproduces phi(omega1)^a * phi(omega2)^b exactly.
    """
    lat = phi.lattice
    log1 = cmath.log(phi.phi_omega1)
    if log1 == 0:
        return Cocycle(0, phi.phi_omega2, ExponentPoly.zero(), lat)
    slope = log1 / (TWO_PI_I * lat.omega1_float)
    c = phi.phi_omega2 * cmath.exp(-lat.theta * log1)
    return Cocycle(0, c, ExponentPoly.linear(slope), lat)


def multiplier_value(a: Cocycle, elem: HeisenbergElement, v: complex) -> complex:
    """Value of the full multiplier h at v: scalar times e^{(2*pi*i/omega1)*kappa*v}."""
    kappa = elem.point.beta if a.s > 0 else -elem.point.beta
    return elem.scalar * exp_2pi_i(kappa * v / a.lattice.omega1_float, "multiplier", v)


def linear_triviality_test(a: Cocycle, bound: int) -> TrivialityVerdict:
    """``triviality_test`` without its phase window: every candidate
    m = 0, 1, -1, 2, -2, ... runs the acceptance test, so it costs one
    exponential per candidate."""
    if bound < 1:
        raise PreconditionError("need bound >= 1")
    eps = tolerance()
    if chern_symbolic(a).s != 0:
        return TrivialityVerdict.nontrivial(REASON_NONZERO_CHERN)
    w = _pic0_value(a)
    if abs(abs(w) - 1.0) > eps:
        return TrivialityVerdict.nontrivial(REASON_MODULUS)
    theta = a.lattice.theta
    for m in range(0, bound + 1):
        for candidate in ((m,) if m == 0 else (m, -m)):
            if abs(w - cmath.exp(_TWO_PI_I * candidate * theta)) <= eps:
                return TrivialityVerdict.trivial(candidate)
    return TrivialityVerdict.unknown(bound)


def fresh_python(code: str) -> str:
    """stdout of ``python -S -c code`` in a new interpreter that imports qtline
    from ``src/``: no site step, so sys.modules holds only what the code loads."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
