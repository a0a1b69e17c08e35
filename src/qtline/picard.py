"""Chern-trivial classes, triviality certificates, and the Appell-Humbert
style normal form.

Every cocycle in the normal-form family with s = 0 is cohomologous to a
*constant* cocycle, i.e. to a homomorphism L -> C^x: dividing out the
coboundary of e^{2*pi*i*g_{>=2}(v)} strips the nonlinear exponent part, while
the linear part g_1*v survives as the character l -> e^{2*pi*i*g_1*l}.

A character phi is a coboundary exactly when phi(l) = k^l for one complex k.
After normalizing phi(omega1) to 1 (multiply by k^l for k = phi(omega1)^{-1},
powers taken on the principal branch), what remains of the class is the single
number phihat(omega2) in C^x — the Pic^0 invariant.  The g_1-dependent
factors cancel in closed form: with m0 the principal fold of Re(g_1)*omega1
(the integer with Re(g_1)*omega1 - m0 in (-1/2, 1/2]),

    phihat(omega2) = c * e^{2*pi*i*m0*theta},

so Im(g_1) never reaches an exponential, and m0*theta is reduced mod 1 on
integers, exact at every m0.  The normalized character is a coboundary iff
phihat(omega2) = e^{2*pi*i*m*theta} for some integer m; ``triviality_test``
scans |m| <= bound, smallest |m| first, and returns a three-valued verdict,
since unit-circle membership in the dense subgroup {e^{2*pi*i*m*theta}} cannot
be decided numerically without a bound.  The scan steps the float phase
frac(m*theta) by one add per |m| and folds it, x -> |frac(x) - 1/2|, which
sends m and -m to the same point; one window around the fold of arg(w)/(2*pi),
proven to hold every candidate the float acceptance test can accept, then
stands for both, and only candidates in it reach the exponential.  A step
allocates no object: the loop counts down an ``itertools.repeat``, and m is
formed from the steps left only when the window holds the phase.

Branch caveat, by design: a different branch of log phi(omega1) shifts the
invariant by a factor e^{2*pi*i*m*theta}.  The library always computes the
principal-branch representative and exposes the ambiguity class through
triviality witnesses; multiplicativity of the invariant therefore holds
exactly only when the principal folds of the factors add up.

The normal form of an arbitrary cocycle is the pair (chi, E): E is the Chern
form, and chi is the semicharacter gamma_c * chi_E on the basis, where
chi_E(a*omega1 + b*omega2) = e^{pi*i*s*a*b} and c is the Pic^0 invariant of
the class divided by its quadratic-exponent section.  chi satisfies

    chi(l1 + l2) = chi(l1) * chi(l2) * e^{pi*i*E(l1, l2)}

(with pi*i, not 2*pi*i, in the exponent: the latter would be identically 1 on
an integral form and carry no information).
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import repeat
from operator import length_hint

from .chern import AltForm
from .cocycle import _TWO_PI_I, Cocycle
from .errors import DomainError, PreconditionError, RangeError
from .numeric import _Frozen, require_count, require_unit, tolerance
from .pseudolattice import LatticeVector, Pseudolattice

DEFAULT_WITNESS_BOUND = 10_000


class TrivialityVerdict(_Frozen):
    """Outcome of a bounded triviality test.

    status is one of "trivial", "nontrivial", "unknown".  A trivial verdict
    carries the witness integer m with phihat(omega2) = e^{2*pi*i*m*theta};
    a nontrivial verdict carries a human-readable certificate reason; an
    unknown verdict records the exhausted search bound.
    """

    _fields = ("status", "witness", "reason", "bound")

    def __init__(
        self,
        status: str,
        witness: int | None = None,
        reason: str | None = None,
        bound: int | None = None,
    ) -> None:
        self._store(status=status, witness=witness, reason=reason, bound=bound)

    @classmethod
    def trivial(cls, witness: int) -> TrivialityVerdict:
        return cls("trivial", witness)

    @classmethod
    def nontrivial(cls, reason: str) -> TrivialityVerdict:
        return cls("nontrivial", None, reason)

    @classmethod
    def unknown(cls, bound: int) -> TrivialityVerdict:
        return cls("unknown", None, None, bound)

    @property
    def is_trivial(self) -> bool:
        return self.status == "trivial"

    @property
    def is_nontrivial(self) -> bool:
        return self.status == "nontrivial"


REASON_NONZERO_CHERN = "nonzero Chern class"
REASON_MODULUS = "character modulus off the unit circle"
# The two fixed nontrivial verdicts, built once: a verdict is immutable.
_NONZERO_CHERN = TrivialityVerdict.nontrivial(REASON_NONZERO_CHERN)
_MODULUS = TrivialityVerdict.nontrivial(REASON_MODULUS)


def principal_fold(a: Cocycle) -> int:
    """m0 = ceil(Re(g_1)*omega1 - 1/2), the integer with Re(g_1)*omega1 - m0 in
    (-1/2, 1/2], of any size; RangeError where the double Re(g_1)*omega1 itself
    overflows, which math.ceil cannot take."""
    x = a.g.linear_coefficient.real * a.lattice.omega1_float
    if not math.isfinite(x):
        raise RangeError(f"Pic^0 phase of Re(g1)*omega1 = {x:.6g} is beyond the double range")
    return math.ceil(x - 0.5)


def _pic0_value(a: Cocycle) -> complex:
    """c * e^{2*pi*i*frac(m0*theta)}: the Pic^0 invariant of a's (c, g) part; s does not enter."""
    m0 = principal_fold(a)
    return a.c * cmath.exp(_TWO_PI_I * a.lattice.frac_combination(0, m0)) if m0 else a.c


def pic0_invariant(a: Cocycle) -> complex:
    """phihat(omega2) after the principal-branch normalization phihat(omega1) = 1,
    in closed form c * e^{2*pi*i*m0*theta} with m0 = :func:`principal_fold`.

    For the pure character cocycle (0, c, 0) this returns c exactly.
    """
    if a.s != 0:
        raise PreconditionError("pic0_invariant needs a cocycle with zero Chern class")
    return _pic0_value(a)


# Unit roundoff of a double, and the largest finite double.
_U = 2.0**-53
_FLOAT_MAX = sys.float_info.max
# The constants of _phase_window's margins, and 2*pi, each formed once and exact.
_4U, _8U, _1_MINUS_4U, _TWO_PI = 4.0 * _U, 8.0 * _U, 1.0 - 4.0 * _U, 2.0 * math.pi
# The most steps one itertools.repeat can count, a C ssize_t.
_MAX_RUN = sys.maxsize


def _phase_window(w: complex, theta: float, bound: int, eps: float) -> tuple[float, float]:
    """(lo, hi): candidates m and -m, |m| <= bound, can pass ``triviality_test``'s
    float acceptance test |w - e^{2*pi*i*m*theta}| <= eps only if
    lo <= |e_m| <= hi, where e_m is the scan's stepped phase: e_0 = -1/2 and
    e_{m+1} = fl(e_m + s) where e_m < t, else fl(e_m + s1), with s = theta % 1.0,
    s1 = fl(s - 1) and t = fl(1/2 - s): one add, its step chosen before it.
    So e_m is frac(m*theta) - 1/2 up to drift, and |e_m| its fold.

    Derivation, in the standard model fl(x op y) = (x op y)(1 + d), |d| <= u =
    2^-53, with libm's cos, sin and hypot within 1 ulp and atan2 within 2.
    Write rho = |w|, phi = arg(w), N = bound, d(x) for the distance from x to
    the nearest integer, and y = fl(fl(2*pi*m)*theta) for the exponent the
    acceptance test forms for m (2*pi rounded, two products; -y for -m).

    * Acceptance.  cmath.exp(i*y) is (cos y, sin y) to 2u in modulus; the
      subtraction and hypot lose at most a factor (1 - 3u).  So a computed
      |w - e_c| <= eps gives |w - e^{iy}| <= eps/(1 - 3u) + 2u, below
      E = eps/(1 - 4u) + 4u.
    * Phase gap.  |w - e^{iy}|^2 = (rho - 1)^2 + 4*rho*sin^2((phi - y)/2), and
      |sin(pi*x)| >= 2*d(x).  So d(phi/(2*pi) - y/(2*pi)) is at most
      (eps/(1 - 3u) + 2u)/(4*sqrt(rho)), and G = E/(4*sqrt(|w|)) as formed
      (hypot, sqrt, the add and the divisions) is at most 4.1u below that.
    * Exponent.  y/(2*pi) is within 3.01u*N*|theta| of m*theta.  (For
      N >= 2^53, where m would round to a double, the margin below is over 1.)
    * Stepped phase.  s is theta less an integer to u/2: fmod is exact, and
      for theta < 0 adding 1.0 rounds once.  s1 is s - 1 to u/2, and exact
      for s >= 1/2 (Sterbenz); t is 1/2 - s to u/4, and exact for s >= 1/4.
      So e < t gives e + s < 1/2 + u/4, which rounds to at most 1/2, and
      e >= t gives e + s1 >= -1/2 - 3u/4, which rounds to at least
      -1/2 - u: a branch taken on the rounded t keeps e_m in [-1/2 - u, 1/2].
      Each sum then lies below 1 in magnitude, so the add is off by at most
      u/2, and a step by at most 1.5u: d(e_m + 1/2 - m*theta) <= 1.5u*N.
    * Fold.  F(x) = |frac(x) - 1/2| = 1/2 - d(x) is even and 1-Lipschitz mod 1,
      and F(e_m + 1/2) is |e_m| to 2u (exactly for e_m >= -1/2).  So m's
      window d(m*theta - p) <= h and -m's window d(m*theta + p) <= h, with
      p = phi/(2*pi), both lie in |F(m*theta) - F(p)| <= h, which is their
      union and no more.
    * Centre.  cmath.phase(w)/(2*pi) is within 2.3u of p, and
      tau = |(that % 1.0) - 1/2| adds 0.75u; forming half, lo and hi at most
      1.1u more.
    * Squared test.  The scan reads fl(lo^2) <= fl(e_m^2) <= fl(hi^2), with
      lo taken as 0 where lo <= 0.  Rounding is monotone, so
      lo <= |e_m| <= hi implies it, and the squared window holds every
      candidate the window does.

    An accepted m or -m thus has ||e_m| - tau| <= G + 3.01u*N*|theta| +
    1.5u*N + 10.3u, under half = G + 8u*(N*(|theta| + 1) + 2).  Where
    E >= 4*sqrt(rho), rho = 0 among them, G is taken as 1 without dividing.
    Whenever half >= 1/2 + u, lo <= 0 and hi >= 1/2 + u hold every |e_m|:
    the whole circle, so a tolerance of about 2 or more lets every candidate
    reach the acceptance test.  A bound past the double range enters the
    margin as the largest double: no candidate beyond it can be formed as a
    float.
    """
    big_e = eps / _1_MINUS_4U + _4U
    root = 4.0 * math.sqrt(abs(w))
    margin = _8U * ((bound if bound < _FLOAT_MAX else _FLOAT_MAX) * (abs(theta) + 1.0) + 2.0)
    half = (big_e / root if big_e < root else 1.0) + margin
    tau = abs(cmath.phase(w) / _TWO_PI % 1.0 - 0.5)
    return tau - half, tau + half


def triviality_test(a: Cocycle, bound: int = DEFAULT_WITNESS_BOUND) -> TrivialityVerdict:
    """Decide cohomological triviality of a, up to the witness search bound.

    Certified nontrivial when the Chern class is nonzero or the normalized
    invariant leaves the unit circle; trivial with witness m when the
    invariant w matches e^{2*pi*i*m*theta} within tolerance, scanning
    m = 0, 1, -1, 2, -2, ... so the minimal |m| wins; unknown when no
    |m| <= bound matches.

    The scan costs one add, one compare and one multiply per |m|, and one
    window test: the phase e = frac(m*theta) - 1/2 is stepped by one add of
    s = theta % 1.0, or of s - 1 where e + s would reach 1/2 (chosen before
    the add, by e < 1/2 - s, so nothing is taken off after it), and e*e is
    tested against the squared folded window of :func:`_phase_window`, a
    proven superset of the candidates m and -m the acceptance test
    |w - e^{2*pi*i*m*theta}| <= eps can accept.
    Only inside it is the exponential formed, for m and then for -m, so the
    verdict is the one a scan evaluating every candidate would give (for
    m = 0 the test may run twice, as 0 and as -0, with the same answer).

    The steps are counted by ``itertools.repeat(None, n)``, which allocates
    nothing per step, where a ``range`` would build a new int for every m
    past 256.  m itself is formed only inside the window, as the last index of
    the run less the steps left in it (``operator.length_hint``).  A repeat
    counts in a C ssize_t, so a bound past ``sys.maxsize - 1`` is scanned in
    runs of at most ``sys.maxsize`` steps.
    """
    require_count(bound, "bound")
    if a.s != 0:
        return _NONZERO_CHERN
    eps = tolerance()
    w = _pic0_value(a)
    if abs(abs(w) - 1.0) > eps:
        return _MODULUS
    theta = a.lattice.theta
    lo, hi = _phase_window(w, theta, bound, eps)
    lo2, hi2 = (lo * lo if lo > 0.0 else 0.0), hi * hi
    s = theta % 1.0
    s1, t = s - 1.0, 0.5 - s
    e = -0.5
    top = -1
    while top < bound:
        run = bound - top if bound - top < _MAX_RUN else _MAX_RUN
        top += run
        steps = repeat(None, run)
        for _ in steps:
            if lo2 <= e * e <= hi2:
                m = top - length_hint(steps)
                if abs(w - cmath.exp(_TWO_PI_I * m * theta)) <= eps:
                    return TrivialityVerdict.trivial(m)
                if abs(w - cmath.exp(_TWO_PI_I * -m * theta)) <= eps:
                    return TrivialityVerdict.trivial(-m)
            e += s if e < t else s1
    return TrivialityVerdict.unknown(bound)


class AHData(_Frozen):
    """Normal form (chi, E), stored as (c, E): with chi(omega1) = 1 fixed, the
    semicharacter chi is determined by c = chi(omega2) in C^x and the Chern
    form E.  DomainError for a zero, infinite or NaN c, as :class:`Cocycle`."""

    _fields = ("c", "e_form", "lattice")

    def __init__(self, c: complex, e_form: AltForm, lattice: Pseudolattice) -> None:
        self._store(c=require_unit(c, "character value c"), e_form=e_form, lattice=lattice)

    @property
    def chi_omega1(self) -> complex:
        return 1.0 + 0j

    @property
    def chi_omega2(self) -> complex:
        return self.c

    @property
    def chi_omega12(self) -> complex:
        """chi(omega1 + omega2) = c * e^{pi*i*s}."""
        return self.c * (-1.0 if self.e_form.s % 2 else 1.0)

    def chi(self, l: LatticeVector) -> complex:
        """chi(a*omega1 + b*omega2) = c^b * e^{pi*i*s*a*b}; RangeError naming l, or
        its bit lengths past the digit limit, where c^b leaves the finite nonzero doubles."""
        sign = -1.0 if (self.e_form.s * l.a * l.b) % 2 else 1.0
        try:
            value = self.c**l.b * sign
            if value != 0 and cmath.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        try:
            at = f"l=({l.a},{l.b})"
        except ValueError:
            at = f"l with coordinates of {l.a.bit_length()} and {l.b.bit_length()} bits"
        raise RangeError(f"chi at {at} is beyond the double range")


def ah_normal_form(a: Cocycle) -> AHData:
    """Classifying pair of the cocycle's isomorphism class.

    E is the Chern form; c is the Pic^0 invariant of a tensor the inverse of
    its quadratic-exponent section, which is the (c, g) part of a.
    """
    return AHData(_pic0_value(a), AltForm(a.s), a.lattice)


def ah_group_law(x: AHData, y: AHData) -> AHData:
    """(c1, E1) * (c2, E2) = (c1*c2, E1+E2); DomainError, from the constructor,
    where c1*c2 leaves C^x in doubles, as :meth:`Cocycle.tensor` refuses it."""
    if x.lattice != y.lattice:
        raise DomainError("group law requires matching pseudolattices")
    return AHData(x.c * y.c, x.e_form + y.e_form, x.lattice)
