"""Exact real-quadratic input values and integer kernels, the tolerance policy and the argument gates.

Lattice data is kept exact: a :class:`QuadReal` is a validated record
``a + b*sqrt(D)`` of the field Q(sqrt(D)) with rational ``a, b`` and
square-free ``D >= 2``.  It carries no field arithmetic: every exact decision
downstream (floors for continued fractions, density arguments, phases mod 1)
runs on the integers of its coefficients over a common denominator
(:func:`over_common_denominator`) and on the Perron form ``(P + sqrt(N))/Q``
of :func:`perron_form`, never in floating point.  Floors are
:func:`surd_floor`, and the conversion to a double is :func:`quad_float`,
which takes ``floor(x*2^k)`` with enough bits ``k`` that rounding it rounds
``x`` itself, so it is the double nearest ``x`` at every size, cancelling or
not.  Analytic values (cocycle and theta evaluations) are ordinary
``complex`` floats compared against a single tolerance ``eps``
(:func:`tolerance`).

The value classes of the package derive from :class:`_Frozen`, which gives
them immutability, equality, hashing and ``repr`` over a per-class field list,
one store (``_store``, which each constructor calls once after its gates, naming
every field and derived value by keyword) and one pickle rule (the field values,
rebuilt through the constructor).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from fractions import Fraction

from .errors import DomainError, FormatError, PreconditionError, QTLineError, RangeError

TOLERANCE_ENV_VAR = "QTLINE_TOLERANCE"
# Bounds the O(sqrt(D)) square-free test of a new radicand.
MAX_RADICAND = 10**9
# Significant bits kept in floor(x*2^k) before rounding to a double (53).
_FLOAT_BITS = 117


class _Frozen:
    """Immutable value object: ``==``, ``hash``, ``repr`` and pickling over the class's ``_fields``.

    A constructor runs its gates, then stores every field and derived value in
    one call, ``self._store(name=value, ...)``, past the raising ``__setattr__``.
    A class with no constructor of its own takes its fields by position, in the
    order of ``_fields``.  Derived and cached attributes take no part in
    equality, hashing, ``repr`` or pickling: an instance pickles as its field
    values and unpickles through its class's constructor, so its gates run again
    and no cache travels.  Only instances of the same class compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        self._store(**dict(zip(self._fields, values, strict=True)))

    def _store(self, /, **values: object) -> None:
        # One merge from a dict: under CPython 3.11 an instance dict filled key by
        # key reads its attributes two to three times more slowly.
        self.__dict__.update(values)

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def tolerance() -> float:
    """The library-wide ``eps``: 1e-9, or the QTLINE_TOLERANCE env var parsed as
    a float, which must be finite and positive.  Every approximate comparison
    uses it as both its absolute and its relative epsilon."""
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return 1e-9
    try:
        eps = float(raw)
    except ValueError as exc:
        raise FormatError(f"{TOLERANCE_ENV_VAR} must be a float, got {raw!r}") from exc
    # An infinite epsilon would make every approximate comparison pass.
    if not 0.0 < eps < math.inf:
        raise DomainError("tolerances must be finite and strictly positive")
    return eps


def approx_eq(x: complex, y: complex) -> bool:
    """True iff ``|x - y| <= eps + eps * max(|x|, |y|) < inf``: a NaN or an infinity equals nothing."""
    x, y = require_number(x, "x"), require_number(y, "y")
    eps = tolerance()
    return abs(x - y) <= eps + eps * max(abs(x), abs(y)) < math.inf


def require_int(x: int, what: str, error: type[QTLineError] = DomainError) -> int:
    """x where it is an int, the one integer gate; else error (DomainError for a value) naming what."""
    # type(...) is int rather than isinstance: bool is an int subclass.
    if type(x) is not int:
        raise error(f"{what} must be an integer")
    return x


def require_count(n: int, what: str, error: type[QTLineError] = PreconditionError) -> None:
    """Raise error unless n is an int >= 1: the one count rule, with no upper cap."""
    if require_int(n, what, error) < 1:
        raise error(f"need {what} >= 1")


def require_real(x: float, what: str) -> float:
    """x as a float, read by :func:`require_number` where numbers.Real holds it; else DomainError."""
    if type(x) is float:  # skips the ABC check, which costs more than the rest
        return x
    if not isinstance(x, numbers.Real):
        raise DomainError(f"{what} must be a real number")
    return require_number(x, what).real


def require_number(z: complex, what: str) -> complex:
    """z as a complex number, an int past the double range as infinite; DomainError naming it
    as what (say "amplitude") where z is no number: a str or bool, which complex() would
    parse or take as 1, or a value complex() refuses."""
    if not isinstance(z, (str, bool)):
        try:
            return complex(z)
        except OverflowError:
            return complex(math.inf)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{what} must be a number")


def require_unit(c: complex, what: str) -> complex:
    """c as a complex number in C^x, the one check of every stored unit; DomainError
    naming it as what (say "central scalar") where it is no number, zero or not finite."""
    c = require_number(c, what)
    if c == 0 or not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DomainError(f"{what} must be finite and nonzero")
    return c


# Memoized: every QuadReal checks its radicand, and inputs of one field share it.
# Bounded, so a process that sweeps many fields keeps a fixed-size table.
@functools.lru_cache(maxsize=4096)
def _is_square_free(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def _as_fraction(x: Fraction, what: str) -> Fraction:
    """x as a Fraction where it is a Fraction or an int other than a bool; else DomainError naming what."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise DomainError(f"{what} must be an int or a Fraction, got {type(x).__name__}")


class QuadReal(_Frozen):
    """Exact element ``a + b*sqrt(d)`` of the real quadratic field Q(sqrt(d)), as an input record.

    ``d`` must be square-free (which makes the representation unique, so
    equality is componentwise) and in [2, MAX_RADICAND].  It is the exact value
    type of the API's inputs (``omega1``, ``omega2``) and has no arithmetic:
    the library reads its coefficients as integers.  Truth is nonzero-ness.
    """

    _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int) -> None:
        a, b = _as_fraction(a, "QuadReal coefficient a"), _as_fraction(b, "QuadReal coefficient b")
        if not isinstance(d, int) or not 2 <= d <= MAX_RADICAND or not _is_square_free(d):
            try:
                got = repr(d)
            except ValueError:  # an int past the interpreter's digit limit
                got = f"an integer of {d.bit_length()} bits"
            raise DomainError(f"radicand must be a square-free integer in [2, {MAX_RADICAND}], got {got}")
        self._store(a=a, b=b, d=d)

    @classmethod
    def rational(cls, value: Fraction, d: int) -> QuadReal:
        return cls(value, Fraction(0), d)

    @classmethod
    def sqrt(cls, d: int) -> QuadReal:
        return cls(Fraction(0), Fraction(1), d)

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)


def over_common_denominator(*xs: Fraction) -> tuple[list[int], int]:
    """Integers [n_1, ..., n_k] and den > 0 with x_i = n_i/den, den the lcm of the denominators."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


def perron_form(a: int, b: int, d: int, den: int) -> tuple[int, int, int]:
    """Integers (P, N, Q) with (a + b*sqrt(d))/den = (P + sqrt(N))/Q and Q | N - P^2,
    for integers b != 0 and den > 0: the start of Perron's continued-fraction recurrence."""
    sgn = 1 if b > 0 else -1
    p, n, q = sgn * a, b * b * d, sgn * den
    if (n - p * p) % q:
        p, n, q = p * den, n * den * den, q * den
    return p, n, q


def surd_floor(a: int, b: int, d: int, den: int) -> int:
    """floor((a + b*sqrt(d))/den) for integers, d >= 0 and den != 0."""
    if den < 0:
        a, b, den = -a, -b, -den
    n = b * b * d
    r = math.isqrt(n)
    # floor(b*sqrt(d)) is r, or -ceil(sqrt(n)) for b < 0; floor((a + x)/den) = (a + floor(x)) // den.
    return (a + (r if b >= 0 else -r - (r * r < n))) // den


def quad_float(a: int, b: int, d: int, den: int) -> float:
    """The double nearest (a + b*sqrt(d))/den, for integers and den != 0.

    RangeError when it lies beyond the double range."""
    try:
        if b == 0:
            return a / den
        # |x| = |a^2 - n| / (|den| * |a - b*sqrt(d)|), n = b^2*d, bounds |x| below
        # without cancellation, so |x * 2^k| >= 2^_FLOAT_BITS.
        n = b * b * d
        top = max(abs(a).bit_length(), (n.bit_length() + 1) // 2) + 1
        k = max(0, _FLOAT_BITS + 1 + den.bit_length() + top - (a * a - n).bit_length())
        m = surd_floor(a << k, b << k, d, den)
        # x is irrational, so it lies strictly inside (m, m + 1)/2^k, an interval
        # no double and no midpoint of two doubles falls in; so does (2m + 1)/2^(k+1),
        # and int/int division rounds that correctly.
        return (2 * m + 1) / (2 << k)
    except OverflowError as exc:
        raise RangeError("value lies beyond the double range") from exc
