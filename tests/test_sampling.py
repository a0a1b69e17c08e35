"""Pins the seeded sample order of the numerical verifiers.

The oracles below are the draw loops as each verifier wrote them before they
shared :func:`qtline.cocycle.draw_sample` and
:func:`qtline.cocycle.sampled_residuals`, kept here as the reference: for a
fixed seed the shared routine must yield the same (l..., v) tuples, and the
residual lists must come out bit-for-bit the same.
"""

import cmath
import math
import random

import pytest

from qtline import (
    Cocycle,
    ExponentPoly,
    LambdaPoint,
    LatticeVector,
    ThetaCandidate,
    cocycle_identity_residuals,
    dichotomy_check,
    lattice_sqrt2,
    membership_multiplier,
    multiplier_residual,
    theta_residuals,
)
from qtline.cocycle import draw_sample
from helpers import multiplier_value

L1 = lattice_sqrt2()
TWO_PI_I = 2j * math.pi
SAMPLES = 200
SEEDS = range(5)

COCYCLE = Cocycle(3, 1.5 + 0.5j, ExponentPoly((0.1, 0.2 - 0.1j, 0.05j)), L1)
# A wrong theta candidate for a zero-Chern cocycle: nonzero, in-range residuals.
THETA_COCYCLE = Cocycle(0, 1.5 + 0.5j, ExponentPoly((0.1, 0.2 - 0.1j, 0.05j)), L1)
THETA = ThetaCandidate(amplitude=0.7 + 0.2j, alpha=0.3 - 0.05j, unit_exponent=ExponentPoly((0.0, 0.1, 0.02j)))


def old_cocycle_loop(a, samples, seed):
    rng = random.Random(seed)
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    draws, out = [], []
    for _ in range(samples):
        l1 = LatticeVector(rng.randint(-10, 10), rng.randint(-10, 10))
        l2 = LatticeVector(rng.randint(-10, 10), rng.randint(-10, 10))
        v = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        draws.append((l1, l2, v))
        x = a.exponent(l1 + l2, v)
        y = a.exponent(l1, v + (l2.a * w1 + l2.b * w2)) + a.exponent(l2, v)
        scale = 1.0 if x.imag <= 0.0 else math.exp(-2.0 * math.pi * x.imag)
        out.append(min(1.0, scale) * abs(1.0 - cmath.exp(TWO_PI_I * (y - x))))
    return draws, out


def old_theta_loop(a, t, samples, seed):
    rng = random.Random(seed)
    w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
    draws, out = [], []
    for _ in range(samples):
        l = LatticeVector(rng.randint(-10, 10), rng.randint(-10, 10))
        v = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        draws.append((l, v))
        x = t.log_value(v + (l.a * w1 + l.b * w2))
        y = a.exponent(l, v) + t.log_value(v)
        scale = 1.0 if x.imag <= 0.0 else math.exp(-2.0 * math.pi * x.imag)
        out.append(min(1.0, scale) * abs(1.0 - cmath.exp(TWO_PI_I * (y - x))))
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
        l = LatticeVector(rng.randint(-5, 5), rng.randint(-5, 5))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        draws.append((l, v))
        x = a.exponent(l, v + xval) - a.exponent(l, v)
        y = kappa * (l.a * w1 + l.b * w2) / w1
        scale = 1.0 if x.imag <= 0.0 else math.exp(-2.0 * math.pi * x.imag)
        out.append(min(1.0, scale) * abs(1.0 - cmath.exp(TWO_PI_I * (y - x))))
        lhs = a.evaluate(l, v + xval) / a.evaluate(l, v)
        rhs = multiplier_value(a, elem, v + (l.a * w1 + l.b * w2)) / multiplier_value(a, elem, v)
        value_worst = max(value_worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return draws, max(out), value_worst


def old_dichotomy_draws(samples, seed):
    rng = random.Random(seed)
    draws = []
    for _ in range(samples):
        den = rng.randint(1, 6)
        p1 = LambdaPoint(rng.randint(-5, 5), rng.randint(-5, 5), den)
        p2 = LambdaPoint(rng.randint(-5, 5), rng.randint(-5, 5), den)
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        draws.append((p1, p2, v))
    return draws


def old_dichotomy_loop(a, samples, seed):
    """The zero-Chern side of dichotomy_check: at each drawn lift pair, the pairing
    value e^{2*pi*i*E} of the symmetric H_v exponent E and its distance from 1."""
    lat, g = a.lattice, a.g
    out = []
    for p1, p2, v in old_dichotomy_draws(samples, seed):
        x1, x2 = p1.real_value(lat), p2.real_value(lat)

        def log_h_v(first, second):
            return g(v + first + second) + g(v) - g(v + first) - g(v + second)

        value = cmath.exp(TWO_PI_I * (log_h_v(x1, x2) - log_h_v(x2, x1)))
        out.append(abs(value - 1.0))
    return max(out)


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_samples_and_residuals(seed):
    draws, residuals = old_cocycle_loop(COCYCLE, SAMPLES, seed)
    rng = random.Random(seed)
    assert [draw_sample(rng, 2) for _ in range(SAMPLES)] == draws
    assert cocycle_identity_residuals(COCYCLE, samples=SAMPLES, seed=seed) == residuals
    assert max(residuals) > 0.0  # a nonvacuous comparison


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_samples_and_residuals(seed):
    draws, residuals = old_theta_loop(THETA_COCYCLE, THETA, SAMPLES, seed)
    rng = random.Random(seed)
    assert [draw_sample(rng, 1) for _ in range(SAMPLES)] == draws
    assert theta_residuals(THETA_COCYCLE, THETA, samples=SAMPLES, seed=seed) == residuals
    assert max(residuals) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_multiplier_samples_and_residual(seed):
    a = Cocycle(3, 1.0, ExponentPoly.zero(), L1)
    elem = membership_multiplier(a, LambdaPoint(1, 2, 3))
    draws, worst, value_worst = old_multiplier_loop(a, elem, SAMPLES, seed)
    rng = random.Random(seed)
    assert [draw_sample(rng, 1, 5, 2.0) for _ in range(SAMPLES)] == draws
    assert multiplier_residual(a, elem, samples=SAMPLES, seed=seed) == worst
    # Both routes see the same identity, which holds by construction.
    assert 0.0 < worst < 1e-12 and value_worst < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_dichotomy_samples(seed):
    rng = random.Random(seed)
    drawn = []
    for _ in range(SAMPLES):
        den = rng.randint(1, 6)
        l1, l2, v = draw_sample(rng, 2, 5, 2.0)
        drawn.append((LambdaPoint(l1.a, l1.b, den), LambdaPoint(l2.a, l2.b, den), v))
    assert drawn == old_dichotomy_draws(SAMPLES, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_dichotomy_pairing_deviation(seed):
    deviation = old_dichotomy_loop(THETA_COCYCLE, SAMPLES, seed)
    assert dichotomy_check(THETA_COCYCLE, samples=SAMPLES, seed=seed).max_pairing_deviation == deviation
    assert deviation > 0.0
