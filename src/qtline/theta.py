"""Theta functions: entire solutions of theta(v + l) = A_l(v) * theta(v).

On a quantum torus a theta function can have no zeros (a zero would propagate
along a dense line), which forces the rigid shape

    theta(v) = amplitude * e^{2*pi*i*(u(v) + alpha*v)}

with u a polynomial exponent; :class:`ThetaCandidate` stores exactly that.

Solvability is equivalent to cohomological triviality of the cocycle within
the normal-form family, so the solver produces certificates instead of
searching: a nonzero Chern class or an off-circle character modulus rules out
solutions outright, while a triviality witness m yields the explicit solution

    theta(v) = e^{2*pi*i*(g(v) + alpha*v)},    alpha = (m - m0)/omega1,

where m0 = picard.principal_fold(a), the principal-branch fold of the
linear exponent coefficient, the same m0 as in the Pic^0 invariant.
The modulus obstruction is made quantitative by ``modulus_obstruction_demo``:
continued-fraction small vectors l_n -> 0 whose omega2-coefficients diverge
force |theta| to jump by unbounded factors |c|^{q_n} across vanishing
distances, so no continuous nonvanishing solution can exist when |c| != 1.
"""

from __future__ import annotations

import cmath
import math

from .cocycle import (
    _EXP_LIMIT,
    _TWO_PI_I,
    COORD_RANGE,
    Cocycle,
    ExponentPoly,
    exp_2pi_i,
    max_residual,
    sampled_residuals,
)
from .errors import DomainError, PreconditionError
from .numeric import _Frozen, require_count, require_number, require_unit, tolerance
from .picard import DEFAULT_WITNESS_BOUND, principal_fold, triviality_test
from .pseudolattice import LatticeVector

# q_k >= F_{k+1} and F_92 > 700 * 2^53 >= _EXP_LIMIT / growth for every double
# modulus != 1, so no obstruction term past k = 91 is ever kept.
_MAX_OBSTRUCTION_TERMS = 100


class ThetaCandidate(_Frozen):
    """theta(v) = amplitude * e^{2*pi*i*unit_exponent(v)} * e^{2*pi*i*alpha*v}."""

    _fields = ("amplitude", "alpha", "unit_exponent")

    def __init__(self, amplitude: complex, alpha: complex, unit_exponent: ExponentPoly) -> None:
        alpha = require_number(alpha, "alpha")
        if not cmath.isfinite(alpha):
            raise DomainError("alpha must be finite")
        amplitude = require_unit(amplitude, "amplitude")
        log_amplitude = cmath.log(amplitude) / _TWO_PI_I  # on the principal branch
        self._store(amplitude=amplitude, alpha=alpha, unit_exponent=unit_exponent, _log_amplitude=log_amplitude)

    def log_value(self, v: complex) -> complex:
        """Exponent E(v) with theta(v) = e^{2*pi*i*E(v)}, amplitude folded in; v is read by require_number."""
        v = require_number(v, "v")
        return self._log_value_from(self.unit_exponent(v), v)

    def _log_value_from(self, unit: complex, v: complex) -> complex:
        """:meth:`log_value` at v given unit = unit_exponent(v), so a caller
        holding that value need not evaluate the polynomial again."""
        return unit + self.alpha * v + self._log_amplitude

    def evaluate(self, v: complex) -> complex:
        """theta(v); v is read by require_number."""
        v = require_number(v, "v")
        return exp_2pi_i(self.log_value(v), "theta", v)


def theta_residuals(a: Cocycle, t: ThetaCandidate, samples: int = 100, seed: int = 0) -> list[float]:
    """Per-sample relative residuals of theta(v+l) = A_l(v) theta(v).

    Formed by the shared sampled loop :func:`qtline.cocycle.sampled_residuals`
    on the exponents x of theta(v+l) and y of A_l(v) theta(v), so huge |theta|
    cannot overflow.

    Where the candidate's unit exponent equals the cocycle's g, as for every
    :func:`solve_theta` answer, g is evaluated once at v + l and once at v per
    sample, and each value serves both the candidate's exponent and the
    coboundary difference g(v + l) - g(v); the float operations are those of
    :meth:`ThetaCandidate.log_value`, in the same order.  Any other candidate
    costs two more polynomial evaluations per sample.
    """
    kernel, g, unit, log_value_from = a._kernel, a.g, t.unit_exponent, t._log_value_from
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float

    def pair(la: int, lb: int, v: complex) -> tuple[complex, complex]:
        w = v + (la * w1 + lb * w2)
        return log_value_from(unit(w), w), kernel(lb, v, g(w) - g(v)) + log_value_from(unit(v), v)

    def shared_pair(la: int, lb: int, v: complex) -> tuple[complex, complex]:
        w = v + (la * w1 + lb * w2)
        gw, gv = g(w), g(v)
        return log_value_from(gw, w), kernel(lb, v, gw - gv) + log_value_from(gv, v)

    return sampled_residuals(shared_pair if unit == g else pair, samples, seed, (COORD_RANGE,) * 2)


def theta_residual(a: Cocycle, t: ThetaCandidate, samples: int = 100, seed: int = 0) -> float:
    """Max of :func:`theta_residuals`."""
    return max_residual(theta_residuals(a, t, samples=samples, seed=seed))


class ThetaSolveResult(_Frozen):
    """Either an explicit solution or a machine-checkable non-existence verdict."""

    _fields = ("candidate", "verdict")

    @property
    def solved(self) -> bool:
        return self.candidate is not None


def solve_theta(a: Cocycle, bound: int = DEFAULT_WITNESS_BOUND) -> ThetaSolveResult:
    """Solve the functional equation for a, or certify there is no solution.

    Delegates solvability to the bounded triviality test; a trivial verdict
    with witness m is turned into the explicit exponential solution.  An
    unknown verdict is returned as-is (candidate None, status "unknown").
    """
    verdict = triviality_test(a, bound=bound)
    if not verdict.is_trivial:
        return ThetaSolveResult(None, verdict)
    alpha = (verdict.witness - principal_fold(a)) / a.lattice.omega1_float
    return ThetaSolveResult(ThetaCandidate(1.0 + 0j, alpha, a.g), verdict)


class ObstructionWitness(_Frozen):
    """Small lattice vectors with the diverging modulus factors they force."""

    _fields = ("vectors", "factors", "modulus")


def modulus_obstruction_demo(a: Cocycle, terms: int = 6) -> ObstructionWitness:
    """Quantitative no-solution witness for s = 0, |c| != 1.

    Returns small vectors l_n = (p_n, -q_n) together with the factors
    max(|c|, 1/|c|)^{q_n} by which |theta| would have to jump across the
    vanishing distances |l_n|.  Convergents with repeated denominators (the
    golden-ratio start q_0 = q_1) are skipped so the factors are strictly
    increasing; terms whose factor would overflow a double are dropped.
    """
    eps = tolerance()
    require_count(terms, "terms")
    if a.s != 0:
        raise PreconditionError("modulus obstruction applies to zero Chern class only")
    modulus = abs(a.c)
    if abs(modulus - 1.0) <= eps:
        raise PreconditionError("|c| = 1: the modulus argument yields no obstruction")
    growth = abs(math.log(modulus))
    vectors: list[LatticeVector] = []
    # Only q_0 = q_1 can repeat, so terms + 1 convergents hold terms distinct q.
    for l in a.lattice.small_vectors(min(terms, _MAX_OBSTRUCTION_TERMS) + 1):
        if -l.b * growth > _EXP_LIMIT:
            break
        if not vectors or l.b != vectors[-1].b:
            vectors.append(l)
    del vectors[terms:]
    factors = tuple(math.exp(-l.b * growth) for l in vectors)
    return ObstructionWitness(tuple(vectors), factors, modulus)
