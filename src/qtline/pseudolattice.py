"""Pseudolattices L = Z*omega1 + Z*omega2, dense rank-two subgroups of R.

Unlike a lattice in C, a pseudolattice is dense in R whenever theta =
omega2/omega1 is irrational; everything in this library hinges on that
density.  The quantitative form is supplied by continued fractions: the
convergents p_n/q_n of theta give lattice vectors p_n*omega1 - q_n*omega2
that tend to zero while their omega2-coefficients blow up.  Each convergent
satisfies

    |p_n*omega1 - q_n*omega2| < |omega1| / q_n,

which is checkable in floats and, exactly, on the integers of omega1, omega2.

The continued fraction runs on integers, theta = (P + sqrt(N))/Q and then
a = floor((P + isqrt(N))/Q), P' = aQ - P, Q' = (N - P'^2)/Q (Perron), so no
partial quotient, on which every later convergent depends, meets a float.
One lazy walk, Pseudolattice._expansion, yields each partial quotient with its
convergent p_k/q_k in turn; cf_terms, convergents, small_vectors and
approximate_real all read it.  convergents turns each step into a Convergent, a
tuple row, with no constructor call; approximate_real keeps its gap to the target
on integers and stops reading once that gap is within eps, tested only after it moves.
A Pseudolattice is built on integers: it keeps omega1, omega2 over one integer
denominator and theta as its Perron triple (P, N, Q), formed once from those
integers with no field division.  The walk starts from that triple and the
double theta rounds it once.
The double of a lattice value p*omega1 + q*omega2 is one integer combination
rounded by :func:`qtline.numeric.quad_float`: correctly rounded however small
the value is against p and q.  A phase frac((a + b*theta)/den) is reduced on
the same integers by Pseudolattice.frac_combination.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from fractions import Fraction

from .errors import DomainError, PreconditionError
from .numeric import QuadReal, _Frozen, over_common_denominator, perron_form, quad_float, surd_floor
from .numeric import require_count, require_int, require_real

# object.__setattr__ looked up once, for the direct stores of the two classes below.
_set = object.__setattr__
# tuple.__new__ looked up once: convergents builds one Convergent row per term with it.
_row = tuple.__new__


class LatticeVector(_Frozen):
    """Integer coordinates (a, b) of the lattice point a*omega1 + b*omega2."""

    _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        # Stored directly, not through _Frozen.__init__: built per small vector.
        _set(self, "a", require_int(a, "lattice coordinate a"))
        _set(self, "b", require_int(b, "lattice coordinate b"))

    def __add__(self, other: LatticeVector) -> LatticeVector:
        return LatticeVector(self.a + other.a, self.b + other.b)

    def __neg__(self) -> LatticeVector:
        return LatticeVector(-self.a, -self.b)


class Convergent(_Frozen, namedtuple("_ConvergentRow", ("p", "q", "index"))):
    """Continued-fraction convergent p/q of theta, in lowest terms.

    Denominators are nondecreasing and strictly increasing from index 1 on
    (q_0 = q_1 = 1 happens when the first partial quotient is 1, e.g. for the
    golden ratio).

    A Convergent is a tuple row (p, q, index), so that
    :meth:`Pseudolattice.convergents` builds each one with ``tuple.__new__``
    straight from the walk, running no Python-level constructor per term, and
    its fields are read by namedtuple's C accessors.  It keeps the value
    semantics of the other value classes: it equals only another Convergent
    (never a plain tuple), hashes as its field values, and refuses assignment
    and deletion.
    """

    __slots__ = ()
    _fields = ("p", "q", "index")
    # The row's __new__ holds the values; _Frozen.__init__ would store them again.
    __init__ = object.__init__

    # _Frozen's __eq__ answers NotImplemented to a plain tuple, whose reflected
    # comparison would then find them equal, and __ne__ would resolve to tuple's.
    # Defining __eq__ also clears the inherited hash.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class Pseudolattice(_Frozen):
    """L = Z*omega1 + Z*omega2 with omega1, omega2 in one real quadratic field.

    Construction verifies, exactly, that omega1 != 0 and that theta =
    omega2/omega1 is irrational (so L is dense in R rather than discrete).
    It keeps the coefficients of omega1, omega2 over one denominator, theta
    as the integer Perron triple (P + sqrt(N))/Q, and omega1, omega2 as
    doubles; theta (the double) and theta in fixed point are cached on first
    use.  Only omega1 and omega2 take part in equality, hashing, repr and pickling.
    """

    _fields = ("omega1", "omega2")

    def __init__(self, omega1: QuadReal, omega2: QuadReal) -> None:
        d = omega1.d
        if d != omega2.d:
            raise DomainError("omega1 and omega2 must live in the same quadratic field")
        if not omega1:
            raise DomainError("omega1 must be nonzero")
        (a1, b1, a2, b2), den = over_common_denominator(omega1.a, omega1.b, omega2.a, omega2.b)
        # theta = (a2 + b2*sqrt(d))(a1 - b1*sqrt(d)) / (a1^2 - d*b1^2) = (a + b*sqrt(d))/q.
        b = a1 * b2 - a2 * b1
        if not b:
            raise DomainError("omega2/omega1 is rational; the subgroup is not dense in R")
        a, q = a1 * a2 - d * b1 * b2, a1 * a1 - d * b1 * b1
        # q != 0 as omega1 != 0 and sqrt(d) is irrational.  Dividing by +-gcd leaves
        # q > 0 and a, b, q in lowest terms: theta over its least denominator.
        g = math.gcd(a, b, q) if q > 0 else -math.gcd(a, b, q)
        # Stored directly, not through _Frozen.__init__: exact_cf builds one per request.
        _set(self, "omega1", omega1)
        _set(self, "omega2", omega2)
        _set(self, "_perron", perron_form(a // g, b // g, d, q // g))
        # (a1, b1, a2, b2, den) with omega_i = (a_i + b_i*sqrt(d))/den.
        _set(self, "_scaled", (a1, b1, a2, b2, den))
        _set(self, "omega1_float", quad_float(a1, b1, d, den))
        _set(self, "omega2_float", quad_float(a2, b2, d, den))

    @property
    def d(self) -> int:
        return self.omega1.d

    @cached_property
    def theta(self) -> float:
        """theta as the nearest double, rounded once from its Perron form on first use."""
        p, n, q = self._perron
        return quad_float(p, 1, n, q)

    def rounded_combination(self, a: int, b: int, den: int = 1) -> float:
        """(a*omega1 + b*omega2)/den rounded once to the nearest double, on integers,
        so it keeps full precision where a*omega1 and b*omega2 nearly cancel."""
        a1, b1, a2, b2, scale = self._scaled
        return quad_float(a * a1 + b * a2, a * b1 + b * b2, self.d, scale * den)

    @cached_property
    def _theta_bits(self) -> tuple[int, int]:
        """(k, t) with t = floor(theta*2^k), k = 128 at first: theta in fixed point,
        which :meth:`frac_combination` widens where it needs more bits."""
        p, n, q = self._perron
        return 128, surd_floor(p << 128, 1 << 128, n, q)

    def frac_combination(self, a: int, b: int, den: int = 1) -> float:
        """frac(x), x = (a + b*theta)/den for integers and den > 0, within 2^-64 + 2^-54
        (half an ulp at 1) of the exact value in [0, 1) at every size, so it may
        round to 1.0: floor(x*2^64) is exact, and its residue mod 2^64, over 2^64,
        is rounded once.

        floor(x*2^64) is read from the fixed-point theta t = floor(theta*2^k):
        theta is irrational, so b*theta*2^k lies strictly between b*t and b*(t + 1)
        (or is 0 for b = 0), and x*2^64 between (a*2^k + b*t)/(den*2^(k-64)) and
        (a*2^k + b*t + b)/(den*2^(k-64)).  Where both ends have one floor, so does
        x*2^64; else k doubles, and the wider t is kept for later calls.  The width
        is |b|/(den*2^(k-64)) and x*2^64 is no integer for b != 0, so the loop ends."""
        if den <= 0:
            raise PreconditionError("need den > 0")
        k, t = self._theta_bits
        while True:
            num, shift = (a << k) + b * t, k - 64
            low = (num >> shift) // den
            if low == ((num + b) >> shift) // den:
                return (low & (2**64 - 1)) / 2**64
            k *= 2
            p, n, q = self._perron
            t = surd_floor(p << k, 1 << k, n, q)
            _set(self, "_theta_bits", (k, t))

    def float_value(self, l: LatticeVector) -> float:
        """Double-precision a*omega1 + b*omega2, the shift fed to exponent evaluation."""
        return l.a * self.omega1_float + l.b * self.omega2_float

    def _expansion(self, n: int, what: str = "n") -> Iterator[tuple[int, int, int]]:
        """(a_k, p_k, q_k) for k = 0 .. n-1, computed one at a time as they are read:
        each partial quotient with its convergent p_k/q_k (p_{-1}/q_{-1} = 1/0).
        n passes the count rule under the caller's name for it, what."""
        require_count(n, what)
        p, big_n, q = self._perron
        r = math.isqrt(big_n)
        num, num_prev, den, den_prev = 1, 0, 0, 1
        for _ in range(n):
            # surd_floor(p, 1, N, q), inlined with isqrt(N) hoisted: the per-term hot path.
            a = (p + r) // q if q > 0 else (p + r + 1) // q
            num, num_prev = a * num + num_prev, num
            den, den_prev = a * den + den_prev, den
            yield a, num, den
            # The tail is (P' + sqrt(N))/Q'; Q' = 0 would make N = P'^2 a square.
            p = a * q - p
            q = (big_n - p * p) // q

    def cf_terms(self, n: int) -> list[int]:
        """First n partial quotients of theta, via the integer recurrence."""
        return [a for a, _, _ in self._expansion(n)]

    def convergents(self, n: int) -> list[Convergent]:
        """First n convergents p_k/q_k of theta (k = 0 .. n-1)."""
        return [_row(Convergent, (p, q, k)) for k, (_, p, q) in enumerate(self._expansion(n))]

    def small_vectors(self, n: int) -> list[LatticeVector]:
        """Vectors (p_k, -q_k) whose real values p_k*omega1 - q_k*omega2
        shrink strictly to zero while |q_k| grows."""
        return [LatticeVector(p, -q) for _, p, q in self._expansion(n)]

    def approximate_real(self, target: float, eps: float = 1e-3, max_terms: int = 60) -> LatticeVector:
        """A lattice vector whose real value is within eps of target.

        Greedy descent on the small vectors (p_k, -q_k), k < max_terms, read
        lazily: subtract each trunc(gap/vector) times until the gap, kept exactly
        on integers over the common denominator of target and eps, is at most eps.
        It answers at every finite target: after the first vector that fits, the
        gap is below the vectors, which shrink to zero.  target and eps are read by require_real.
        """
        target, eps = require_real(target, "target"), require_real(eps, "eps")
        if not (0.0 < eps < math.inf and math.isfinite(target)):
            raise PreconditionError("need a finite target and a finite eps > 0")
        # With omega_i = (a_i + b_i*sqrt(d))/den, target = t/t_den, eps = e/e_den
        # and s their common denominator, the larger power of two, the gap
        # target - (acc_a*omega1 + acc_b*omega2) is (g + y*sqrt(d))/(den*s),
        # within eps when |g + y*sqrt(d)| <= bound.
        (a1, b1, a2, b2, den), d = self._scaled, self.omega1.d
        (t, t_den), (e, e_den) = target.as_integer_ratio(), eps.as_integer_ratio()
        s = max(t_den, e_den)
        g, y, bound = t * (s // t_den) * den, 0, e * (s // e_den) * den
        acc_a = acc_b = 0
        # The gap is tested at the start and after each step that moves it: a zero
        # count leaves it as it was last tested.
        count = 1
        for _, p, q in self._expansion(max_terms, "max_terms"):
            if count and _within(g, y, d, bound):
                return LatticeVector(acc_a, acc_b)
            # The vector times den is x + z*sqrt(d), and gap/vector =
            # (g + y*sqrt(d))(x - z*sqrt(d))/((x^2 - d*z^2)*s) = (u + w*sqrt(d))/c.
            x, z = p * a1 - q * a2, p * b1 - q * b2
            u, w, c = g * x - d * y * z, y * x - g * z, (x * x - d * z * z) * s
            count = surd_floor(u, w, d, c)
            # trunc = floor + 1 below 0, unless the quotient is an integer (w = 0, u/c whole)
            count += count < 0 and (w != 0 or u % c != 0)
            if count:
                acc_a, acc_b = acc_a + count * p, acc_b - count * q
                g, y = g - count * x * s, y - count * z * s
        if count and _within(g, y, d, bound):
            return LatticeVector(acc_a, acc_b)
        raise PreconditionError(f"could not reach {target} within {eps} using {max_terms} convergents")


def _within(g: int, y: int, d: int, bound: int) -> bool:
    """|g + y*sqrt(d)| <= bound, decided on squares: -bound - g <= y*sqrt(d) <= bound - g."""
    g, y = (-g, -y) if y < 0 else (g, y)
    hi, lo, n = bound - g, -bound - g, d * y * y
    return hi >= 0 and n <= hi * hi and (lo <= 0 or n >= lo * lo)


def lattice_sqrt2() -> Pseudolattice:
    """Canonical fixture L1 = Z + Z*sqrt(2)."""
    return Pseudolattice(QuadReal.rational(1, 2), QuadReal.sqrt(2))


def lattice_golden() -> Pseudolattice:
    """Canonical fixture L2 = Z + Z*(1+sqrt(5))/2."""
    return Pseudolattice(
        QuadReal.rational(1, 5),
        QuadReal(Fraction(1, 2), Fraction(1, 2), 5),
    )
