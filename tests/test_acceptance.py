"""Library-level acceptance checks: ten numbered criteria, one test each.

Every test prints a single PASS/FAIL line (visible under ``pytest -s``) and
pins its tolerance inline; nothing here defers to later calibration.

Criterion 7 checks the dichotomy as the theory states it.  For Chern integer
s != 0 the stabilizer K is (Z/|s|Z)^2 and the witness pair (omega1/s,
omega2/s) has pairing value e^{2*pi*i/s}, a primitive s-th root of unity.
For s = 1 that makes K the trivial group and the value exactly 1, so s = 1 is
asserted as the trivial case (order 1, value 1, flag False) rather than as a
pairing different from 1.
"""

import cmath
import math
import random
from itertools import product

from qtline import (
    AltForm,
    Cocycle,
    ExponentPoly,
    LambdaPoint,
    LatticeVector,
    alt_eval,
    chern_numeric,
    chern_symbolic,
    closed_form_pairing,
    coboundary,
    commutator_pairing,
    dichotomy_check,
    existence_cocycle,
    k_group,
    lattice_golden,
    lattice_sqrt2,
    pic0_invariant,
    sigma_section,
    solve_theta,
    theta_residual,
    triviality_test,
    trivial_cocycle,
    verify_cocycle_identity,
)
from qtline.picard import ah_group_law, ah_normal_form
from helpers import (
    exact,
    random_chern_trivial,
    random_cocycle,
    random_nonzero,
    random_poly,
    random_v,
    random_vector,
    real_value,
)

TWO_PI_I = 2j * math.pi

L1 = lattice_sqrt2()
L2 = lattice_golden()
LATTICES = (("L1", L1), ("L2", L2))


def report(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = ""
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        detail = f" -- {shown}{more}"
    print(f"[ACCEPTANCE] {name}: {status}{detail}")
    assert not failures, f"{name}: {detail}"


def fixture_cocycles(lat):
    return [
        ("trivial", trivial_cocycle(lat)),
        ("(1,1,0)", Cocycle(1, 1.0, ExponentPoly.zero(), lat)),
        ("(2,i,v^2)", Cocycle(2, 1j, ExponentPoly((0j, 0j, 1 + 0j)), lat)),
        ("(0,e^{2pi i theta},0)", Cocycle(0, cmath.exp(TWO_PI_I * lat.theta), ExponentPoly.zero(), lat)),
        ("existence", existence_cocycle(lat)),
    ]


def test_criterion_01_cocycle_identity():
    """1000 seeded samples per fixture cocycle on both lattices, residual < 1e-9."""
    failures = []
    for lat_name, lat in LATTICES:
        for name, a in fixture_cocycles(lat):
            residual = verify_cocycle_identity(a, samples=1000, seed=11)
            if residual >= 1e-9:
                failures.append(f"{lat_name}/{name}: residual {residual:.3g}")
    report("01 cocycle identity", failures)


def test_criterion_02_chern_oracle_equivalence():
    """500 randomized (A, l1, l2, v): four-term numeric sum == symbolic form,
    exactly after rounding, at two sample points each."""
    rng = random.Random(12)
    failures = []
    for i in range(500):
        lat = L1 if i % 2 == 0 else L2
        a = random_cocycle(rng, lat)
        l1v, l2v = random_vector(rng), random_vector(rng)
        want = alt_eval(chern_symbolic(a), l1v, l2v)
        got1 = chern_numeric(a, l1v, l2v, random_v(rng))
        got2 = chern_numeric(a, l1v, l2v, random_v(rng))
        if got1 != want or got2 != want:
            failures.append(f"sample {i}: {got1},{got2} != {want}")
    report("02 chern oracle equivalence", failures)


def test_criterion_03_splitting():
    """chern_symbolic(sigma_section(eta)) == eta exactly for |s| <= 20."""
    failures = []
    for lat_name, lat in LATTICES:
        for s in range(-20, 21):
            if chern_symbolic(sigma_section(AltForm(s), lat)) != AltForm(s):
                failures.append(f"{lat_name}: s={s}")
    report("03 splitting section", failures)


def test_criterion_04_pic0_invariant():
    """Exact fixing of pure characters (50 random c) and multiplicativity
    within 1e-9 on 200 random zero-Chern pairs."""
    rng = random.Random(13)
    failures = []
    for i in range(50):
        c = random_nonzero(rng)
        if pic0_invariant(Cocycle(0, c, ExponentPoly.zero(), L1)) != c:
            failures.append(f"character {i}: c={c} not fixed exactly")
    for i in range(200):
        lat = L1 if i % 2 == 0 else L2
        a, b = random_chern_trivial(rng, lat), random_chern_trivial(rng, lat)
        gap = abs(pic0_invariant(a.tensor(b)) - pic0_invariant(a) * pic0_invariant(b))
        if gap >= 1e-9:
            failures.append(f"pair {i}: multiplicativity gap {gap:.3g}")
    report("04 Pic0 invariant", failures)


def test_criterion_05_appell_humbert_homomorphism():
    """Normal form of a tensor product equals the componentwise group law,
    within 1e-9, on 200 random pairs."""
    rng = random.Random(14)
    failures = []
    for i in range(200):
        lat = L1 if i % 2 == 0 else L2
        a = random_chern_trivial(rng, lat).tensor(sigma_section(AltForm(rng.randint(-5, 5)), lat))
        b = random_chern_trivial(rng, lat).tensor(sigma_section(AltForm(rng.randint(-5, 5)), lat))
        lhs = ah_normal_form(a.tensor(b))
        rhs = ah_group_law(ah_normal_form(a), ah_normal_form(b))
        gap = max(
            abs(lhs.chi_omega1 - rhs.chi_omega1),
            abs(lhs.chi_omega2 - rhs.chi_omega2),
            abs(lhs.chi_omega12 - rhs.chi_omega12),
        )
        if lhs.e_form != rhs.e_form:
            failures.append(f"pair {i}: alternating forms differ")
        elif gap >= 1e-9:
            failures.append(f"pair {i}: chi gap {gap:.3g}")
    report("05 Appell-Humbert homomorphism", failures)


def test_criterion_06_pairing_closed_form():
    """Exhaustive sweep s in 1..6 over all s^4 lift pairs with coordinates in
    [0, s): pairing == e^{2*pi*i(ad-bc)/s} within 1e-9, values are s-th roots
    of unity within 1e-8, antisymmetry and bimultiplicativity within 1e-9."""
    failures = []
    rng = random.Random(15)
    for s in range(1, 7):
        a = Cocycle(s, 0.8 + 0.6j, ExponentPoly.zero(), L1)
        values = {}
        for a1, b1, a2, b2 in product(range(s), repeat=4):
            x1, x2 = LambdaPoint(a1, b1, s), LambdaPoint(a2, b2, s)
            got = commutator_pairing(a, x1, x2)
            values[(a1, b1, a2, b2)] = got
            want = closed_form_pairing(a, x1, x2)
            if abs(got - want) >= 1e-9:
                failures.append(f"s={s} ({a1},{b1}),({a2},{b2}): |got-closed| {abs(got - want):.3g}")
            if abs(got**s - 1.0) >= 1e-8:
                failures.append(f"s={s} ({a1},{b1}),({a2},{b2}): not an s-th root of unity")
        for (a1, b1, a2, b2), got in values.items():
            if abs(got * values[(a2, b2, a1, b1)] - 1.0) >= 1e-9:
                failures.append(f"s={s}: antisymmetry fails at ({a1},{b1}),({a2},{b2})")
        for i in range(40):
            x = LambdaPoint(rng.randrange(s), rng.randrange(s), s)
            y = LambdaPoint(rng.randrange(s), rng.randrange(s), s)
            z = LambdaPoint(rng.randrange(s), rng.randrange(s), s)
            gap = abs(
                commutator_pairing(a, x + y, z)
                - commutator_pairing(a, x, z) * commutator_pairing(a, y, z)
            )
            if gap >= 1e-9:
                failures.append(f"s={s} triple {i}: bimultiplicativity gap {gap:.3g}")
    report("06 pairing closed form", failures)


def test_criterion_07_dichotomy():
    """For s in 1..6: k_group order s^2, witness pairing value e^{2*pi*i/s}
    within 1e-9 (a primitive s-th root of unity, so the pairing is
    nondegenerate on K), and witness_differs_from_one exactly when s != 1;
    identically-1 pairing and full-torus K for 50 random zero-Chern cocycles.

    At s = 1 this asserts the trivial case: K = (Z/1Z)^2 is the trivial group
    and the pairing value is exactly 1 (see module docstring).
    """
    failures = []
    for s in range(1, 7):
        a = Cocycle(s, 1.0, ExponentPoly.zero(), L1)
        report_s = dichotomy_check(a)
        if k_group(a).order != s * s:
            failures.append(f"s={s}: order {k_group(a).order} != {s * s}")
        expected = cmath.exp(TWO_PI_I / s)
        if abs(report_s.witness_value - expected) >= 1e-9:
            failures.append(f"s={s}: witness pairing value {report_s.witness_value} != {expected}")
        if report_s.witness_differs_from_one != (s != 1):
            failures.append(f"s={s}: witness_differs_from_one is {report_s.witness_differs_from_one}")
    rng = random.Random(16)
    for i in range(50):
        lat = L1 if i % 2 == 0 else L2
        a = random_chern_trivial(rng, lat)
        rep = dichotomy_check(a, samples=100, seed=17 + i)
        if rep.k_group.finite:
            failures.append(f"zero-Chern {i}: K reported finite")
        elif rep.max_pairing_deviation >= 1e-9:
            failures.append(f"zero-Chern {i}: pairing deviation {rep.max_pairing_deviation:.3g}")
    report("07 dichotomy", failures)


def test_criterion_08_theta_solver():
    """Constructive soundness on 50 random trivial classes (residual < 1e-9 on
    500 samples) and certificates on 50 random obstructed cocycles."""
    rng = random.Random(18)
    failures = []
    for i in range(50):
        lat = L1 if i % 2 == 0 else L2
        a = coboundary(random_poly(rng), complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2)), lat)
        a = a.tensor(Cocycle(0, cmath.exp(TWO_PI_I * rng.randint(-20, 20) * lat.theta), ExponentPoly.zero(), lat))
        result = solve_theta(a)
        if not result.solved:
            failures.append(f"trivial class {i}: no candidate ({result.verdict.status})")
            continue
        residual = theta_residual(a, result.candidate, samples=500, seed=19 + i)
        if residual >= 1e-9:
            failures.append(f"trivial class {i}: residual {residual:.3g}")
    for i in range(50):
        lat = L1 if i % 2 == 0 else L2
        if rng.random() < 0.5:
            a = random_cocycle(rng, lat, allow_zero_s=False)
        else:
            modulus = rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.2, 4.0)])
            a = Cocycle(0, modulus * cmath.exp(1j * rng.uniform(-3, 3)), random_poly(rng), lat)
        result = solve_theta(a)
        if result.solved or not result.verdict.is_nontrivial:
            failures.append(f"obstructed {i}: expected certificate, got {result.verdict.status}")
    report("08 theta solver", failures)


def test_criterion_09_diophantine_bound():
    """|p_k*omega1 - q_k*omega2| < |omega1|/q_k for the first 20 convergents,
    in floats and by exact sign tests."""
    failures = []
    for lat_name, lat in LATTICES:
        w1_abs = abs(exact(lat.omega1))
        for conv in lat.convergents(20):
            residual = real_value(lat, LatticeVector(conv.p, -conv.q))
            if (w1_abs - abs(residual) * conv.q).sign() <= 0:
                failures.append(f"{lat_name} k={conv.index}: exact bound fails")
            if not abs(float(residual)) < abs(lat.omega1_float) / conv.q:
                failures.append(f"{lat_name} k={conv.index}: float bound fails")
    report("09 diophantine bound", failures)


def test_criterion_10_nontriviality_regression():
    """The classical quadratic-exponent example is certified nontrivial."""
    failures = []
    for lat_name, lat in LATTICES:
        verdict = triviality_test(existence_cocycle(lat), 10**4)
        if not verdict.is_nontrivial:
            failures.append(f"{lat_name}: verdict {verdict.status}")
    report("10 nontriviality regression", failures)
