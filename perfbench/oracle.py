"""Reference answers computed without qtline.

Every check in the benchmark compares the library's output with a value
computed here from plain integers and ``fractions.Fraction``:

* a quadratic irrational ``x + y*sqrt(D)`` is written as ``(P + sqrt(N))/Q``
  with ``Q | N - P^2``, and its partial quotients come from the classical
  integer recurrence ``a = floor((P + isqrt(N))/Q)``, ``P' = aQ - P``,
  ``Q' = (N - P'^2)/Q`` (Perron);
* signs of ``A + B*sqrt(N)`` are decided by comparing squares;
* ``frac(n*theta)`` is computed exactly and rounded to a float only at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Bits of the rational sqrt(D) enclosure used for the final float roundings.
_SQRT_BITS = 160


def is_square_free(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def mul(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction], d: int) -> tuple[Fraction, Fraction]:
    """(x1 + y1*sqrt(d)) * (x2 + y2*sqrt(d))."""
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def div(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction], d: int) -> tuple[Fraction, Fraction]:
    """(x1 + y1*sqrt(d)) / (x2 + y2*sqrt(d)), via the conjugate of v."""
    norm = v[0] * v[0] - d * v[1] * v[1]
    x, y = mul(u, (v[0], -v[1]), d)
    return (x / norm, y / norm)


def sign(x: Fraction, y: Fraction, d: int) -> int:
    """Exact sign of x + y*sqrt(d) for square-free d >= 2."""
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0 or (x > 0) == (y > 0):
        return 1 if (x if x != 0 else y) > 0 else -1
    bigger_sqrt = d * y * y > x * x
    return (1 if y > 0 else -1) if bigger_sqrt else (1 if x > 0 else -1)


def surd_form(x: Fraction, y: Fraction, d: int) -> tuple[int, int, int]:
    """(P, N, Q) with x + y*sqrt(d) = (P + sqrt(N))/Q and Q | N - P^2; needs y != 0."""
    den = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
    big_x, big_y = int(x * den), int(y * den)
    if big_y > 0:
        p, n, q = big_x, big_y * big_y * d, den
    else:
        p, n, q = -big_x, big_y * big_y * d, -den
    if (n - p * p) % q:
        p, n, q = p * abs(q), n * q * q, q * abs(q)
    return p, n, q


def _floor_surd(p: int, root: int, q: int) -> int:
    """floor((p + sqrt(n))/q) given root = isqrt(n) and sqrt(n) irrational."""
    if q > 0:
        return (p + root) // q
    return -((p + root) // -q) - 1


def partial_quotients(x: Fraction, y: Fraction, d: int, n: int) -> list[int]:
    """First n partial quotients of the irrational x + y*sqrt(d)."""
    p, big_n, q = surd_form(x, y, d)
    root = math.isqrt(big_n)
    out = []
    for _ in range(n):
        a = _floor_surd(p, root, q)
        out.append(a)
        p = a * q - p
        q = (big_n - p * p) // q
    return out


def floor(x: Fraction, y: Fraction, d: int) -> int:
    if y == 0:
        return math.floor(x)
    p, big_n, q = surd_form(x, y, d)
    return _floor_surd(p, math.isqrt(big_n), q)


def convergents(quotients: list[int]) -> list[tuple[int, int]]:
    out = []
    p_prev, p, q_prev, q = 1, quotients[0], 0, 1
    out.append((p, q))
    for a in quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def within_certified_bound(p: int, q: int, theta: tuple[Fraction, Fraction], d: int) -> bool:
    """|p*omega1 - q*omega2| < |omega1|/q, i.e. q*|p - q*theta| < 1, decided exactly."""
    a = q * (p - q * theta[0])
    b = -q * q * theta[1]
    return sign(a - 1, b, d) < 0 and sign(a + 1, b, d) > 0


def sqrt_enclosure(d: int) -> Fraction:
    return Fraction(math.isqrt(d << (2 * _SQRT_BITS)), 1 << _SQRT_BITS)


def to_float(x: Fraction, y: Fraction, d: int) -> float:
    return float(x + y * sqrt_enclosure(d))


def frac_multiple(n: int, theta: tuple[Fraction, Fraction], d: int) -> float:
    """frac(n*theta) in [0, 1), exact until the final rounding."""
    x, y = n * theta[0], n * theta[1]
    return to_float(x - floor(x, y, d), y, d)
