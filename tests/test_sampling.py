"""Pins the seeded samples and the residuals of the numerical verifiers.

The oracles below are the draw loops as each verifier wrote them before they
shared :func:`qtline.cocycle.sampled_residuals`, with the exponent formula
(``old_exponent``) as ``Cocycle.exponent`` wrote it before the shared kernel,
kept here as the reference.  For a fixed seed each check must hand its pair
function the same numbers, compared as flat tuples (a1, b1, ..., v) with every
drawn number in them, and its residuals must come out bit-for-bit the same,
on every branch of the kernel (c = 1, s = 0, g = 0, a degree-4 g, |c| != 1)
and on the four lattices of the certify benchmark.  A sample that raises must
raise the same error with the same message.
"""

import ast
import cmath
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qtline import (
    Cocycle,
    ExponentPoly,
    LambdaPoint,
    LatticeVector,
    PrecisionError,
    Pseudolattice,
    QuadReal,
    RangeError,
    ThetaCandidate,
    cocycle_identity_residuals,
    dichotomy_check,
    lattice_golden,
    lattice_sqrt2,
    membership_multiplier,
    multiplier_residual,
    theta_residuals,
)
from qtline import cocycle, heisenberg, theta
from qtline.cocycle import require_resolvable, resolvable_exponent
from helpers import multiplier_value

TWO_PI_I = 2j * math.pi
SAMPLES = 200
SEEDS = range(5)

LATTICES = {
    "sqrt2": lattice_sqrt2(),
    "golden": lattice_golden(),
    "sqrt7": Pseudolattice(QuadReal(Fraction(3, 2), 0, 7), QuadReal(Fraction(-1, 2), Fraction(1, 3), 7)),
    "sqrt3": Pseudolattice(QuadReal(1, 0, 3), QuadReal(Fraction(1, 2), Fraction(-1, 2), 3)),
}
G2 = ExponentPoly((0.1, 0.2 - 0.1j, 0.05j))
G4 = ExponentPoly((0.1, 0.2 - 0.1j, 0.05j, -0.01 + 0.02j, 0.003j))
# (s, c, g) reaching each branch of the exponent kernel.
BRANCHES = {
    "c=1": (3, 1.0, G2),
    "s=0": (0, 1.5 + 0.5j, G2),
    "g=0": (3, 1.5 + 0.5j, ExponentPoly.zero()),
    "deg4": (-2, cmath.exp(0.7j), G4),
    "|c|!=1": (3, 0.4 - 0.9j, G2),
}
# Amplitudes of the theta candidates: 1 (log 0) and not.
AMPLITUDES = {"amplitude=1": 1.0 + 0j, "amplitude!=1": 0.7 + 0.2j}


def cocycle_for(branch, lattice):
    return Cocycle(*BRANCHES[branch], LATTICES[lattice])


def old_exponent(a, l, v):
    """Cocycle.exponent as it was written before the shared kernel."""
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    log_c = cmath.log(a.c)
    total = 0j
    if log_c != 0:
        total += l.b * log_c * (1.0 / TWO_PI_I)
    if a.s:
        total += a.s * (l.b * l.b * w2 + 2.0 * l.b * v) / (2.0 * w1)
    if a.g:
        shift = l.a * w1 + l.b * w2
        total += a.g(v + shift) - a.g(v)
    return total


def old_residual(x, y):
    z = TWO_PI_I * (y - x)
    if not (z.real <= 700.0 and cmath.isfinite(z)):
        raise RangeError(f"residual exponent {z:.6g} out of float exp range")
    require_resolvable(max(abs(x), abs(y)), resolvable_exponent())
    scale = 1.0 if x.imag <= 0.0 else math.exp(-2.0 * math.pi * x.imag)
    return min(1.0, scale) * abs(1.0 - cmath.exp(z))


def old_theta_log(t, v):
    return t.unit_exponent(v) + t.alpha * v + cmath.log(t.amplitude) / TWO_PI_I


class V:
    """A lattice vector as the old loops built it."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return V(self.a + other.a, self.b + other.b)


def old_cocycle_loop(a, samples, seed):
    rng = random.Random(seed)
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    draws, out = [], []
    for _ in range(samples):
        l1 = V(rng.randint(-10, 10), rng.randint(-10, 10))
        l2 = V(rng.randint(-10, 10), rng.randint(-10, 10))
        v = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        draws.append((l1.a, l1.b, l2.a, l2.b, v))
        x = old_exponent(a, l1 + l2, v)
        y = old_exponent(a, l1, v + (l2.a * w1 + l2.b * w2)) + old_exponent(a, l2, v)
        out.append(old_residual(x, y))
    return draws, out


def old_theta_loop(a, t, samples, seed):
    rng = random.Random(seed)
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    draws, out = [], []
    for _ in range(samples):
        l = V(rng.randint(-10, 10), rng.randint(-10, 10))
        v = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        draws.append((l.a, l.b, v))
        x = old_theta_log(t, v + (l.a * w1 + l.b * w2))
        y = old_exponent(a, l, v) + old_theta_log(t, v)
        out.append(old_residual(x, y))
    return draws, out


def old_multiplier_loop(a, elem, samples, seed):
    """The multiplier loop, with each residual formed in exponent space as in the
    two loops above: a(l, v + x~) - a(l, v) against kappa*l/omega1.  It also
    returns the worst residual of the value ratios A_l(v + x~)/A_l(v) and
    h(v + l)/h(v) that the verifier formed before, as a cross-check."""
    rng = random.Random(seed)
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    xval = elem.point.real_value(a.lattice)
    kappa = elem.point.beta if a.s > 0 else -elem.point.beta
    draws, out, value_worst = [], [], 0.0
    for _ in range(samples):
        l = V(rng.randint(-5, 5), rng.randint(-5, 5))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        draws.append((l.a, l.b, v))
        x = old_exponent(a, l, v + xval) - old_exponent(a, l, v)
        y = kappa * (l.a * w1 + l.b * w2) / w1
        out.append(old_residual(x, y))
        lhs = cmath.exp(TWO_PI_I * old_exponent(a, l, v + xval)) / cmath.exp(TWO_PI_I * old_exponent(a, l, v))
        rhs = multiplier_value(a, elem, v + (l.a * w1 + l.b * w2)) / multiplier_value(a, elem, v)
        value_worst = max(value_worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return draws, max(out), value_worst


def old_dichotomy_loop(a, samples, seed):
    """The zero-Chern side of dichotomy_check: at each drawn lift pair, the pairing
    value e^{2*pi*i*E} of the symmetric H_v exponent E and its distance from 1."""
    rng = random.Random(seed)
    lat, g = a.lattice, a.g
    draws, out = [], []
    for _ in range(samples):
        den = rng.randint(1, 6)
        p1 = LambdaPoint(rng.randint(-5, 5), rng.randint(-5, 5), den)
        p2 = LambdaPoint(rng.randint(-5, 5), rng.randint(-5, 5), den)
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        draws.append((den, p1.alpha, p1.beta, p2.alpha, p2.beta, v))
        x1, x2 = p1.real_value(lat), p2.real_value(lat)

        def log_h_v(first, second):
            return g(v + first + second) + g(v) - g(v + first) - g(v + second)

        value = cmath.exp(TWO_PI_I * (log_h_v(x1, x2) - log_h_v(x2, x1)))
        out.append(abs(value - 1.0))
    return draws, max(out)


@pytest.fixture
def drawn(monkeypatch):
    """Every sample the checks' shared loop hands to a pair function, as a flat tuple."""
    seen = []
    shared = cocycle.sampled_residuals

    def recording(pair, *args):
        def spy(*sample):
            seen.append(sample)
            return pair(*sample)

        return shared(spy, *args)

    for module in (cocycle, theta, heisenberg):
        monkeypatch.setattr(module, "sampled_residuals", recording)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_samples_and_residuals(drawn, seed):
    for branch, lattice in itertools.product(BRANCHES, LATTICES):
        a = cocycle_for(branch, lattice)
        draws, residuals = old_cocycle_loop(a, SAMPLES, seed)
        drawn.clear()
        assert cocycle_identity_residuals(a, samples=SAMPLES, seed=seed) == residuals, (branch, lattice)
        assert drawn == draws
        assert max(residuals) > 0.0, (branch, lattice)  # a nonvacuous comparison


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_samples_and_residuals(drawn, seed):
    # A wrong candidate (alpha, amplitude) with the cocycle's own g, and |s| <= 1:
    # then y - x stays within the exp range on the whole sampling domain.
    for branch, lattice, amplitude in itertools.product(BRANCHES, LATTICES, AMPLITUDES):
        s, c, g = BRANCHES[branch]
        a = Cocycle(max(-1, min(1, s)), c, g, LATTICES[lattice])
        t = ThetaCandidate(amplitude=AMPLITUDES[amplitude], alpha=0.3 - 0.05j, unit_exponent=g)
        draws, residuals = old_theta_loop(a, t, SAMPLES, seed)
        drawn.clear()
        assert theta_residuals(a, t, samples=SAMPLES, seed=seed) == residuals, (branch, lattice, amplitude)
        assert drawn == draws
        assert max(residuals) > 0.0, (branch, lattice, amplitude)
    # Two unit exponents besides g itself: g plus a constant, which is not g
    # and takes the general pair (y - x is as for g, up to rounding), and a copy
    # of g, equal to it as a distinct object, which takes the shared pair.
    for branch, lattice in itertools.product(BRANCHES, LATTICES):
        s, c, g = BRANCHES[branch]
        a = Cocycle(max(-1, min(1, s)), c, g, LATTICES[lattice])
        for unit in (g + ExponentPoly((0.01 - 0.02j,)), ExponentPoly(g.coeffs)):
            t = ThetaCandidate(amplitude=0.7 + 0.2j, alpha=0.3 - 0.05j, unit_exponent=unit)
            draws, residuals = old_theta_loop(a, t, SAMPLES, seed)
            drawn.clear()
            assert theta_residuals(a, t, samples=SAMPLES, seed=seed) == residuals, (branch, lattice, unit)
            assert drawn == draws
            assert max(residuals) > 0.0, (branch, lattice, unit)


def test_theta_pair_evaluates_g_once_per_point(monkeypatch):
    """A candidate whose unit exponent equals g, the same object or not, costs
    two polynomial evaluations per sample, both of g; any other costs four."""
    calls = []
    evaluate = ExponentPoly.__call__

    def counting(poly, v):
        calls.append(poly)
        return evaluate(poly, v)

    monkeypatch.setattr(ExponentPoly, "__call__", counting)
    a = cocycle_for("s=0", "sqrt2")
    other = a.g + ExponentPoly((0.01 - 0.02j,))
    for unit, per_sample in ((a.g, 2), (ExponentPoly(a.g.coeffs), 2), (other, 4)):
        calls.clear()
        theta_residuals(a, ThetaCandidate(0.7 + 0.2j, 0.3 - 0.05j, unit), SAMPLES, 0)
        assert len(calls) == per_sample * SAMPLES, unit
        assert sum(poly is a.g for poly in calls) == 2 * SAMPLES, unit


@pytest.mark.parametrize("seed", SEEDS)
def test_multiplier_samples_and_residual(drawn, seed):
    for c, lattice in itertools.product([1.0, cmath.exp(0.7j), 0.4 - 0.9j], LATTICES):
        a = Cocycle(3, c, ExponentPoly.zero(), LATTICES[lattice])
        elem = membership_multiplier(a, LambdaPoint(1, 2, 3))
        draws, worst, value_worst = old_multiplier_loop(a, elem, SAMPLES, seed)
        drawn.clear()
        assert multiplier_residual(a, elem, samples=SAMPLES, seed=seed) == worst, (c, lattice)
        assert drawn == draws
        # Both routes see the same identity, which holds by construction.
        assert 0.0 < worst < 1e-12 and value_worst < 1e-12, (c, lattice)


@pytest.mark.parametrize("seed", SEEDS)
def test_dichotomy_samples(drawn, seed):
    draws, _ = old_dichotomy_loop(cocycle_for("s=0", "sqrt2"), SAMPLES, seed)
    dichotomy_check(cocycle_for("s=0", "sqrt2"), samples=SAMPLES, seed=seed)
    assert drawn == draws


@pytest.mark.parametrize("seed", SEEDS)
def test_dichotomy_pairing_deviation(seed):
    for g, lattice in itertools.product([G2, G4], LATTICES):
        a = Cocycle(0, 1.5 + 0.5j, g, LATTICES[lattice])
        _, deviation = old_dichotomy_loop(a, SAMPLES, seed)
        assert dichotomy_check(a, samples=SAMPLES, seed=seed).max_pairing_deviation == deviation, (g, lattice)
        assert deviation > 0.0


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("branch", BRANCHES)
def test_exponent_matches_old_formula(branch, lattice):
    a = cocycle_for(branch, lattice)
    draws, _ = old_cocycle_loop(a, SAMPLES, 0)
    for a1, b1, a2, b2, v in draws:
        for l in (V(a1, b1), V(a1 + a2, b1 + b2)):
            assert a.exponent(LatticeVector(l.a, l.b), v) == old_exponent(a, l, v)


HUGE_G = ExponentPoly((0.0,) * 6 + (1e300,))
# The error each case must raise, its cocycle, and its theta candidate (None: the identity check).
RAISING = {
    "identity-precision": (PrecisionError, Cocycle(10**6, 1.0, G2, LATTICES["golden"]), None),
    "identity-range": (RangeError, Cocycle(1, 1.0, HUGE_G, LATTICES["sqrt7"]), None),
    "theta-precision": (PrecisionError, cocycle_for("s=0", "sqrt3"), ThetaCandidate(1.0 + 0j, 1e6 + 0j, G2)),
    "theta-range": (RangeError, cocycle_for("s=0", "sqrt2"), ThetaCandidate(1.0 + 0j, 50j, G2)),
}


@pytest.mark.parametrize("case", RAISING)
def test_raising_sample_matches_old_loop(case):
    error, a, t = RAISING[case]
    with pytest.raises(error) as raised:
        cocycle_identity_residuals(a, SAMPLES, 3) if t is None else theta_residuals(a, t, SAMPLES, 3)
    with pytest.raises(error) as expected:
        old_cocycle_loop(a, SAMPLES, 3) if t is None else old_theta_loop(a, t, SAMPLES, 3)
    assert type(raised.value) is type(expected.value) is error
    assert str(raised.value) == str(expected.value)


def test_one_seeded_loop():
    """random.Random( is called once in src/qtline, inside sampled_residuals, and
    exponent_residual( is called only there: no check forks the sampled loop."""
    calls = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
                if name in ("Random", "exponent_residual"):
                    calls.append((name, path.name, function))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, path, inner)

    for path in sorted(Path(cocycle.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert sorted(calls) == [
        ("Random", "cocycle.py", "sampled_residuals"),
        ("exponent_residual", "cocycle.py", "sampled_residuals"),
    ]
