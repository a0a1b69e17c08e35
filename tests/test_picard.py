import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from qtline import (
    AHData,
    AltForm,
    Cocycle,
    DomainError,
    ExponentPoly,
    LatticeVector,
    PreconditionError,
    Pseudolattice,
    QuadReal,
    RangeError,
    TrivialityVerdict,
    ah_group_law,
    ah_normal_form,
    alt_eval,
    approx_eq,
    coboundary,
    existence_cocycle,
    lattice_golden,
    lattice_sqrt2,
    pic0_invariant,
    sigma_section,
    solve_theta,
    theta_residual,
    triviality_test,
    trivial_cocycle,
)
from qtline import FormatError, picard
from qtline.numeric import TOLERANCE_ENV_VAR
from qtline.picard import REASON_NONZERO_CHERN, _phase_window, principal_fold
from helpers import (
    CERTIFY_LATTICES,
    EDGE_LATTICES,
    Character,
    character_cocycle,
    exact_phase,
    linear_triviality_test,
    random_chern_trivial,
    random_nonzero,
    random_v,
    random_vector,
    reduce_to_constant,
    theta_exact,
)

EPS = 1e-9
LATTICE_IDS = ["sqrt2", "golden", "omega1_3_2", "negative_theta"]
EDGE_IDS = ["theta_past_2_53", "tiny_frac_theta"]

TWO_PI_I = 2j * math.pi


def witness_character(lattice, m):
    return Cocycle(0, cmath.exp(TWO_PI_I * m * lattice.theta), ExponentPoly.zero(), lattice)


class TestReduceToConstant:
    def test_pure_character(self, l1):
        phi = reduce_to_constant(Cocycle(0, 2.5 - 1j, ExponentPoly.zero(), l1))
        assert phi.phi_omega1 == 1 + 0j
        assert phi.phi_omega2 == 2.5 - 1j

    def test_linear_exponent_folds_into_character(self, l1):
        beta = 0.37
        phi = reduce_to_constant(coboundary(ExponentPoly.zero(), beta, l1))
        assert phi.phi_omega1 == pytest.approx(cmath.exp(TWO_PI_I * beta * l1.omega1_float))
        assert phi.phi_omega2 == pytest.approx(cmath.exp(TWO_PI_I * beta * l1.omega2_float))

    def test_quadratic_part_strips_to_unit_character(self, l1):
        # g = v^2 is a pure coboundary: the constant cocycle is identically 1.
        # (The alternative reading "e^{2 pi i l^2}" is not multiplicative in l,
        # hence not a valid constant cocycle at all.)
        a = Cocycle(0, 1.0, ExponentPoly((0j, 0j, 1 + 0j)), l1)
        phi = reduce_to_constant(a)
        assert phi.phi_omega1 == 1 + 0j and phi.phi_omega2 == 1 + 0j

    def test_reduction_is_cohomologous(self, l1, l2):
        # quotient of a by the lifted constant must solve with residual ~ 0
        rng = random.Random(31)
        for lat in (l1, l2):
            for _ in range(10):
                a = random_chern_trivial(rng, lat)
                quotient = a.tensor(character_cocycle(reduce_to_constant(a)).inverse())
                verdict = triviality_test(quotient)
                assert verdict.is_trivial
                result = solve_theta(quotient)
                assert result.solved
                assert theta_residual(quotient, result.candidate, samples=100, seed=5) < 1e-9

    def test_requires_zero_chern(self, l1):
        with pytest.raises(PreconditionError):
            reduce_to_constant(sigma_section(AltForm(1), l1))


class TestCharacterCocycle:
    def test_roundtrip_on_basis(self, l1):
        rng = random.Random(32)
        for _ in range(20):
            phi = Character(random_nonzero(rng), random_nonzero(rng), l1)
            lifted = character_cocycle(phi)
            for vec in (LatticeVector(1, 0), LatticeVector(0, 1), LatticeVector(3, -2)):
                assert approx_eq(lifted.evaluate(vec, random_v(rng)), phi(vec))


class TestTrivialityTest:
    def test_trivial_cocycle(self, l1):
        verdict = triviality_test(trivial_cocycle(l1))
        assert verdict.is_trivial and verdict.witness == 0

    def test_nonzero_chern_certificate(self, l1):
        verdict = triviality_test(sigma_section(AltForm(1), l1))
        assert verdict.is_nontrivial and "Chern" in verdict.reason

    def test_witness_character(self, l1):
        verdict = triviality_test(witness_character(l1, 1))
        assert verdict.is_trivial and verdict.witness == 1

    def test_large_witness(self, l2):
        verdict = triviality_test(witness_character(l2, -137))
        assert verdict.is_trivial and verdict.witness == -137

    def test_modulus_certificate(self, l1):
        verdict = triviality_test(Cocycle(0, 2.0, ExponentPoly.zero(), l1))
        assert verdict.is_nontrivial and "modulus" in verdict.reason

    def test_unknown_within_bound(self, l1):
        # unit modulus, but the angle is no small multiple of theta
        a = Cocycle(0, cmath.exp(2j * 0.1234567), ExponentPoly.zero(), l1)
        verdict = triviality_test(a, bound=50)
        assert verdict.status == "unknown" and verdict.bound == 50

    def test_existence_cocycle_regression(self, l1, l2):
        for lat in (l1, l2):
            assert triviality_test(existence_cocycle(lat), 10**4).is_nontrivial

    def test_bound_validation(self, l1):
        with pytest.raises(PreconditionError):
            triviality_test(trivial_cocycle(l1), bound=0)

    @pytest.mark.parametrize("bound", [1.5, 10.0, "5", True, None], ids=["1.5", "10.0", "'5'", "True", "None"])
    def test_bound_must_be_an_integer(self, l1, bound):
        # a bool is an int subclass, and True would scan as bound 1
        for search in (triviality_test, solve_theta):
            with pytest.raises(PreconditionError, match="bound must be an integer"):
                search(trivial_cocycle(l1), bound)

    @pytest.mark.parametrize("bound", [2**63 - 1, 2**63, 10**30], ids=["2^63-1", "2^63", "10^30"])
    def test_huge_bound_answers(self, l1, bound):
        # bound + 1 steps do not fit one itertools.repeat from 2^63 - 1 on; the
        # margin opens the whole circle, so 0..6 each run the acceptance test
        a = witness_character(l1, 7)
        assert triviality_test(a, bound) == TrivialityVerdict.trivial(7)
        result = solve_theta(a, bound)
        assert result.verdict == TrivialityVerdict.trivial(7) and result.solved


class TestMalformedTolerance:
    """eps is read after the Chern check: a nonzero Chern class is nontrivial with no
    tolerance, so it answers under a bad QTLINE_TOLERANCE, and a zero one reports it."""

    @pytest.mark.parametrize("raw", ["abc", "inf"])
    def test_a_nonzero_chern_class_reads_no_tolerance(self, l1, monkeypatch, raw):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
        a = Cocycle(2, 1.0, ExponentPoly.zero(), l1)
        assert triviality_test(a) == TrivialityVerdict.nontrivial(REASON_NONZERO_CHERN)
        result = solve_theta(a)
        assert not result.solved and result.verdict == TrivialityVerdict.nontrivial(REASON_NONZERO_CHERN)

    @pytest.mark.parametrize("raw, error", [("abc", FormatError), ("inf", DomainError)])
    def test_a_zero_chern_class_reports_it(self, l1, monkeypatch, raw, error):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
        for a in (trivial_cocycle(l1), Cocycle(0, 2.0, ExponentPoly.zero(), l1)):
            for search in (triviality_test, solve_theta):
                with pytest.raises(error):
                    search(a)


def planted(lattice, m, offset, rng):
    """Pure character whose invariant sits offset away, in a random direction,
    from the value e^{2*pi*i*m*theta} the acceptance test forms for m."""
    target = cmath.exp(TWO_PI_I * m * lattice.theta)
    return Cocycle(0, target + offset * cmath.exp(1j * rng.uniform(-math.pi, math.pi)), ExponentPoly.zero(), lattice)


def stepped_phases(theta, ms):
    """e_m for each m of the ascending non-negative ms: triviality_test's
    stepped phase, frac(m*theta) - 1/2 up to drift, walked once with one add
    per step of s, or of s - 1 where e_m >= 1/2 - s."""
    s = theta % 1.0
    s1, t = s - 1.0, 0.5 - s
    e = -0.5
    k = 0
    for m in ms:
        for _ in range(m - k):
            e += s if e < t else s1
        k = m
        yield e


def stepped_folds(theta, ms):
    """|e_m| for each m of the ascending non-negative ms: the fold the scan's window test reads."""
    return (abs(e) for e in stepped_phases(theta, ms))


def in_window(fold, window):
    """The scan's window test for candidates m and -m, on the fold |e_m|."""
    lo, hi = window
    return lo <= fold <= hi


def whole_circle(window):
    """The window holds every fold in [0, 1/2]: every candidate runs the acceptance test."""
    lo, hi = window
    return lo <= 0.0 and hi >= 0.5


class CountingCmath:
    """Stands in for picard's cmath: exp is counted, phase passes through."""

    phase = staticmethod(cmath.phase)

    def __init__(self):
        self.exp_calls = 0

    def exp(self, z):
        self.exp_calls += 1
        return cmath.exp(z)


class TestWitnessWindow:
    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES, ids=LATTICE_IDS)
    def test_same_verdict_as_linear_scan(self, lattice):
        # w planted just inside, on and just outside the tolerance of a witness
        # m with |m| <= 2*10^4, at bounds that stop on m, just past it, and far past
        rng = random.Random(f"window:{lattice.theta!r}")
        signs = [rng.choice([-1, 1]) for _ in range(3)]
        witnesses = [
            0,
            signs[0] * rng.randint(1, 20),
            signs[1] * int(10 ** rng.uniform(2, 4)),
            signs[2] * rng.randint(15_000, 20_000),
        ]
        offsets = [EPS * (1 + k) for k in (-1e-6, 1e-6, -1e-9, 1e-9)] + [0.5 * EPS, 1.5 * EPS]
        statuses = []
        for m in witnesses:
            for offset in offsets:
                a = planted(lattice, m, offset, rng)
                for bound in (max(abs(m), 1), abs(m) + 3, 2 * abs(m) + 5):
                    want = linear_triviality_test(a, bound)
                    assert triviality_test(a, bound) == want, (m, offset, bound)
                    statuses.append(want.status)
        assert {"trivial", "unknown"} <= set(statuses)

    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES, ids=LATTICE_IDS)
    def test_window_holds_every_accepted_candidate(self, lattice):
        # the folded window, read on the stepped phase as the scan reads it, is a
        # superset of the acceptance test's hits: 4000 planted near-boundary
        # candidates per lattice, up to |m| = 10^6, the CLI's bound
        rng = random.Random(f"superset:{lattice.theta!r}")
        theta = lattice.theta
        accepted = []
        for _ in range(4000):
            bound = rng.choice([10**4, 10**5, 10**6])
            m = rng.choice([-1, 1]) * rng.randint(0, bound)
            w = planted(lattice, m, EPS * rng.uniform(0.99, 1.0), rng).c
            if abs(w - cmath.exp(TWO_PI_I * m * theta)) <= EPS:
                accepted.append((abs(m), m, w, bound))
        accepted.sort(key=lambda case: case[0])
        folds = stepped_folds(theta, [case[0] for case in accepted])
        for (_, m, w, bound), fold in zip(accepted, folds):
            assert in_window(fold, _phase_window(w, theta, bound, EPS)), (m, w, bound)
        assert len(accepted) > 2000

    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES + EDGE_LATTICES, ids=LATTICE_IDS + EDGE_IDS)
    def test_stepped_phase_drift(self, lattice):
        # the derivation's step bound: |e_m| is within 1.5u*m of the exact fold
        # |frac(m*theta) - 1/2| of the double theta, up to m = 10^6, and e_m
        # stays in [-1/2 - u, 1/2], where the step is chosen on the rounded 1/2 - s
        rng = random.Random(f"drift:{lattice.theta!r}")
        theta = Fraction(lattice.theta)
        ms = sorted({0, 1, 10**6} | {rng.randint(0, 10**6) for _ in range(200)})
        for m, e in zip(ms, stepped_phases(lattice.theta, ms)):
            exact = abs(m * theta % 1 - Fraction(1, 2))
            assert abs(Fraction(abs(e)) - exact) <= Fraction(3, 2) * m * Fraction(2.0**-53), m
            assert -0.5 - 2.0**-53 <= e <= 0.5, m

    @pytest.mark.parametrize("lattice", EDGE_LATTICES, ids=EDGE_IDS)
    def test_edge_lattices_same_verdict_as_linear_scan(self, lattice):
        rng = random.Random(f"edge:{lattice.theta!r}")
        for m in (0, 1, -1, 7, -19, 40):
            for offset in (0.5 * EPS, EPS * (1 - 1e-9), EPS * (1 + 1e-9), 1.5 * EPS):
                a = planted(lattice, m, offset, rng)
                for bound in (max(abs(m), 1), abs(m) + 3, 60):
                    assert triviality_test(a, bound) == linear_triviality_test(a, bound), (m, offset, bound)

    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES, ids=LATTICE_IDS)
    def test_unknown_scan_skips_the_exponential(self, monkeypatch, lattice):
        # a phase at least 1e-8 from every m*theta, |m| <= 10^5: the linear
        # scan forms 2*10^5 + 1 exponentials, the windowed one almost none
        rng = random.Random(f"unknown:{lattice.theta!r}")
        theta = lattice.theta
        while True:
            t = rng.random()
            if min(abs((m * theta - t + 0.5) % 1.0 - 0.5) for m in range(-(10**5), 10**5 + 1)) >= 1e-8:
                break
        a = Cocycle(0, cmath.exp(TWO_PI_I * t), ExponentPoly.zero(), lattice)
        counting = CountingCmath()
        monkeypatch.setattr("qtline.picard.cmath", counting)
        verdict = triviality_test(a, 10**5)
        assert verdict.status == "unknown" and verdict.bound == 10**5
        assert counting.exp_calls <= 3

    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES, ids=LATTICE_IDS)
    def test_scan_end_points(self, lattice):
        # m = 0, bound and -bound answer with that witness, and one past the
        # bound answers unknown: m as recovered from the steps left is exact
        rng = random.Random(f"ends:{lattice.theta!r}")
        for bound in (1, 2, 3, 255, 256, 257, 10**4):
            for m in (0, bound, -bound, bound + 1, -bound - 1):
                a = planted(lattice, m, 0.5 * EPS, rng)
                want = TrivialityVerdict.trivial(m) if abs(m) <= bound else TrivialityVerdict.unknown(bound)
                assert linear_triviality_test(a, bound) == want, (m, bound)
                assert triviality_test(a, bound) == want, (m, bound)

    @pytest.mark.parametrize("run", [1, 2, 3, 7])
    def test_scan_in_runs(self, monkeypatch, l1, run):
        # a bound past one repeat's count is scanned in runs; with runs this
        # short every witness sits near a run's end or start
        monkeypatch.setattr(picard, "_MAX_RUN", run)
        rng = random.Random(f"runs:{run}")
        for bound in (1, 2, 6, 7, 8, 20):
            for m in range(-bound - 1, bound + 2):
                a = planted(l1, m, 0.5 * EPS, rng)
                assert triviality_test(a, bound) == linear_triviality_test(a, bound), (m, bound)

    def test_wide_tolerance_same_verdicts(self, monkeypatch):
        # eps = 0.3: the window is about 0.15 wide, so many candidates reach
        # the acceptance test, which alone decides
        monkeypatch.setenv("QTLINE_TOLERANCE", "0.3")
        rng = random.Random(140)
        for lattice in CERTIFY_LATTICES:
            for _ in range(25):
                m = rng.randint(-40, 40)
                a = planted(lattice, m, rng.uniform(0.1, 0.6), rng)
                bound = rng.randint(1, 60)
                assert triviality_test(a, bound) == linear_triviality_test(a, bound)

    @pytest.mark.parametrize("c", [1e-300, 1.0, cmath.exp(2j)])
    def test_tolerance_two_opens_the_whole_circle(self, monkeypatch, l1, c):
        # eps = 2 admits |w| ~ 0: the gap bound says nothing, the window is the
        # whole circle, and no division by sqrt(|w|) happens
        monkeypatch.setenv("QTLINE_TOLERANCE", "2")
        a = Cocycle(0, c, ExponentPoly.zero(), l1)
        assert whole_circle(_phase_window(a.c, l1.theta, 10, 2.0))
        assert whole_circle(_phase_window(0j, l1.theta, 10, 2.0))
        verdict = triviality_test(a, 10)
        assert verdict == linear_triviality_test(a, 10) and verdict.witness == 0


class TestWrapBoundary:
    @pytest.mark.parametrize("lattice", CERTIFY_LATTICES + EDGE_LATTICES, ids=LATTICE_IDS + EDGE_IDS)
    def test_witnesses_at_the_wrap_boundary(self, lattice):
        # at m = q_k - 1, q_k, q_k + 1 for each convergent denominator q_k <= 10^5,
        # e_m or e_m + s sits next to +-1/2, where the step s or s - 1 is chosen
        # on the rounded 1/2 - s; bounds that stop on the witness and just past it
        rng = random.Random(f"wrap:{lattice.theta!r}")
        qs = sorted({c.q for c in lattice.convergents(40) if c.q <= 10**5})
        for m in sorted({q + d for q in qs for d in (-1, 0, 1)}):
            m *= rng.choice([-1, 1])
            a = planted(lattice, m, rng.choice([0.5 * EPS, EPS * (1 - 1e-9), EPS * (1 + 1e-9)]), rng)
            for bound in (max(abs(m), 1), abs(m) + 2):
                assert triviality_test(a, bound) == linear_triviality_test(a, bound), (m, bound)


def squared_test(fold, window):
    """The window test as triviality_test forms it, on squares: lo <= 0 reads as 0."""
    lo, hi = window
    lo2, hi2 = (lo * lo if lo > 0.0 else 0.0), hi * hi
    return lo2 <= fold * fold <= hi2


# Window ends lo: negative, zero of both signs, subnormal, normal with a
# subnormal or zero square, and normal.
WINDOW_LOS = [-0.75, -1e-12, -0.0, 0.0, 5e-324, 2.2e-308, 1e-160, 1.5e-154, 1e-9, 0.123456789, 0.5 - 1e-12]


class TestSquaredWindow:
    @pytest.mark.parametrize("lo", WINDOW_LOS)
    def test_squared_test_holds_the_window(self, lo):
        # every fold in [0, 1/2] that the window holds passes the squared test:
        # the window's ends, their neighbouring doubles, and random folds
        rng = random.Random(f"squared:{lo!r}")
        hits = 0
        for width in (0.0, 5e-324, 1e-300, 1e-12, 1e-9, 0.01, 0.3, 1.5):
            window = (lo, lo + width)
            ends = [max(lo, 0.0), lo + width]
            folds = {0.0, 0.5} | {rng.uniform(0.0, 0.5) for _ in range(200)}
            folds |= {rng.uniform(*sorted(ends)) for _ in range(200)}
            for end in ends:
                folds |= {end, math.nextafter(end, -1.0), math.nextafter(end, 1.0)}
            for fold in folds:
                if 0.0 <= fold <= 0.5 and in_window(fold, window):
                    assert squared_test(fold, window), (fold, window)
                    hits += 1
        assert hits > 0

    def test_negative_lo_lets_every_candidate_through(self, monkeypatch, l1):
        # eps = 3 and w = -1: tau = 0, so lo is about -0.75 and hi about 0.75,
        # the whole circle.  Squaring lo as it stands (0.56 > 1/4 >= e*e) would
        # shut out every candidate and answer unknown.
        monkeypatch.setenv("QTLINE_TOLERANCE", "3")
        lo, hi = _phase_window(-1 + 0j, l1.theta, 10, 3.0)
        assert lo < -0.5 and whole_circle((lo, hi))
        a = Cocycle(0, -1.0, ExponentPoly.zero(), l1)
        counting = CountingCmath()
        monkeypatch.setattr("qtline.picard.cmath", counting)
        verdict = triviality_test(a, 10)
        assert verdict == linear_triviality_test(a, 10) and verdict.witness == 0
        assert counting.exp_calls == 1


class TestPic0Invariant:
    def test_character_is_fixed_exactly(self, l1):
        rng = random.Random(33)
        for _ in range(50):
            c = random_nonzero(rng)
            assert pic0_invariant(Cocycle(0, c, ExponentPoly.zero(), l1)) == c

    def test_trivial_is_one(self, l1):
        assert pic0_invariant(trivial_cocycle(l1)) == 1 + 0j

    def test_half_slope_coboundary(self, l1):
        # g = v/(2 omega1): phi(omega1) = -1, and the normalization cancels
        # everything; the class is trivial with witness 0
        a = coboundary(ExponentPoly.zero(), 0.5 / l1.omega1_float, l1)
        assert pic0_invariant(a) == pytest.approx(1.0, abs=1e-9)
        assert triviality_test(a).witness == 0

    def test_closed_form_matches_reduction_route(self):
        # Oracle: the exp/log route through reduce_to_constant's character, and
        # the fold m0 read back from the principal log of phi(omega1).
        def reference(a):
            phi = reduce_to_constant(a)
            log1 = cmath.log(phi.phi_omega1)
            fold = round((a.g.linear_coefficient * a.lattice.omega1_float - log1 / TWO_PI_I).real)
            return phi.phi_omega2 * cmath.exp(-a.lattice.theta * log1), fold

        rng = random.Random(38)
        checked = 0
        for lat in (lattice_sqrt2(), lattice_golden()):
            for i in range(2100):
                g1 = complex(rng.uniform(-50, 50), rng.uniform(-3, 3))
                x = g1.real * lat.omega1_float
                if abs(x - math.floor(x) - 0.5) < 1e-9:
                    continue
                c = random_nonzero(rng) if i % 2 else cmath.exp(1j * rng.uniform(-3.1, 3.1))
                a = Cocycle(0, c, ExponentPoly((random_nonzero(rng), g1, 0.1j)), lat)
                want, fold = reference(a)
                assert principal_fold(a) == fold
                got = pic0_invariant(a)
                assert abs(got - want) <= 1e-12 * abs(want)
                sectioned = a.tensor(sigma_section(AltForm(rng.randint(-4, 4)), lat))
                assert abs(ah_normal_form(sectioned).chi_omega2 - want) <= 1e-12 * abs(want)
                checked += 1
        assert checked >= 4000

    @pytest.mark.parametrize("slope, m0", [(0.5, 0), (-0.5, -1), (1.5, 1), (-1.5, -2)])
    def test_tie_rule(self, l1, slope, m0):
        # Re(g1)*omega1 - m0 lies in (-1/2, 1/2], the principal branch's interval
        a = coboundary(ExponentPoly.zero(), slope, l1)
        assert l1.omega1_float == 1.0
        assert principal_fold(a) == m0
        assert abs(pic0_invariant(a) - exact_phase(theta_exact(l1), 0, m0)) <= 4e-16
        assert triviality_test(a).witness == m0

    @pytest.mark.parametrize("im", [-200.0, 200.0])
    def test_imaginary_slope_cancels(self, l1, im):
        # e^{2*pi*i*g1*omega1} over- or underflows here, but Im(g1) cancels
        # from the invariant
        a = coboundary(ExponentPoly.zero(), complex(0, im), l1)
        assert pic0_invariant(a) == 1 + 0j
        assert triviality_test(a).witness == 0
        assert ah_normal_form(a).chi_omega2 == 1 + 0j

    def test_phase_beyond_double_range(self):
        # Re(g1)*omega1 = 1.5 * 1.5e308 overflows a double: no fold to take
        lat = Pseudolattice(QuadReal.rational(Fraction(3, 2), 7), QuadReal(Fraction(-1, 2), Fraction(1, 3), 7))
        a = coboundary(ExponentPoly.zero(), 1.5e308, lat)
        with pytest.raises(RangeError):
            pic0_invariant(a)
        with pytest.raises(RangeError):
            ah_normal_form(a)

    @pytest.mark.parametrize("slope", [1e8, 1e10, 1e15, 1e308])
    def test_huge_fold_gives_the_exact_invariant(self, l1, slope):
        # m0*theta was a float product: 2.9e-6 off at 1e10, 0.50 off at 1e15,
        # and a RangeError at 1e308
        a = coboundary(ExponentPoly.zero(), slope, l1)
        m0 = principal_fold(a)
        assert m0 == int(slope)
        want = exact_phase(theta_exact(l1), 0, m0)
        assert abs(pic0_invariant(a) - want) <= 7e-16
        assert abs(ah_normal_form(a).chi_omega2 - want) <= 7e-16

    def test_requires_zero_chern(self, l1):
        with pytest.raises(PreconditionError):
            pic0_invariant(sigma_section(AltForm(2), l1))

    def test_multiplicative_branch_safe(self, l1, l2):
        rng = random.Random(34)
        for lat in (l1, l2):
            for _ in range(50):
                a, b = random_chern_trivial(rng, lat), random_chern_trivial(rng, lat)
                lhs = pic0_invariant(a.tensor(b))
                rhs = pic0_invariant(a) * pic0_invariant(b)
                assert abs(lhs - rhs) < 1e-9


class TestAppellHumbert:
    def test_quadratic_section_normal_form(self, l1):
        data = ah_normal_form(sigma_section(AltForm(1), l1))
        assert data.e_form == AltForm(1)
        assert data.chi_omega2 == 1 + 0j
        assert data.chi_omega12 == -1 + 0j  # e^{pi i s a b} with a = b = s = 1

    def test_trivial_normal_form(self, l1):
        data = ah_normal_form(trivial_cocycle(l1))
        assert data.e_form == AltForm(0)
        assert data.chi_omega1 == data.chi_omega2 == data.chi_omega12 == 1 + 0j

    def test_pure_character_normal_form(self, l1):
        data = ah_normal_form(Cocycle(0, 5.0, ExponentPoly.zero(), l1))
        assert data.e_form == AltForm(0) and data.chi_omega2 == 5 + 0j

    def test_group_law_identities(self, l1):
        one = ah_normal_form(trivial_cocycle(l1))
        assert ah_group_law(one, one) == one
        x = ah_normal_form(sigma_section(AltForm(1), l1))
        y = ah_normal_form(sigma_section(AltForm(2), l1))
        assert ah_group_law(x, y).e_form == AltForm(3)

    def test_group_law_needs_one_pseudolattice(self, l1, l2):
        with pytest.raises(DomainError, match="matching pseudolattices"):
            ah_group_law(ah_normal_form(trivial_cocycle(l1)), ah_normal_form(trivial_cocycle(l2)))
        cx = ah_normal_form(Cocycle(0, 2.0, ExponentPoly.zero(), l1))
        cy = ah_normal_form(Cocycle(0, 3.0, ExponentPoly.zero(), l1))
        assert ah_group_law(cx, cy).chi_omega2 == 6 + 0j

    def test_group_law_keeps_the_componentwise_products(self, l1):
        # the pair once stored chi(omega1), c and chi(omega1 + omega2), and the
        # group law multiplied all three: the same bits, but for the sign of a
        # zero where a factor or the product has a zero part
        rng = random.Random(38)

        def part():
            return rng.choice((0.0, -0.0, 1.0, -1.0, rng.uniform(-9.0, 9.0)))

        def unit():
            # c is in C^x: a factor equal to 0j is drawn again, +-0.0 parts stay
            while (z := complex(part(), part())) == 0:
                pass
            return z

        for _ in range(3000):
            cx, cy = unit(), unit()
            sx, sy = rng.randint(-3, 3), rng.randint(-3, 3)
            px, py = (-1.0 if sx % 2 else 1.0), (-1.0 if sy % 2 else 1.0)
            got = ah_group_law(AHData(cx, AltForm(sx), l1), AHData(cy, AltForm(sy), l1))
            old12 = (cx * px) * (cy * py)
            assert repr(got.chi_omega1) == repr((1.0 + 0j) * (1.0 + 0j))
            assert repr(got.chi_omega2) == repr(cx * cy)
            assert got.chi_omega12 == old12
            if 0.0 not in (cx.real, cx.imag, cy.real, cy.imag, old12.real, old12.imag):
                assert repr(got.chi_omega12) == repr(old12)
        one = ah_normal_form(sigma_section(AltForm(1), l1))  # c = 1 + 0j, chi(omega1 + omega2) = -1 + 0j
        assert repr(ah_group_law(one, one).chi_omega12) == "(1+0j)"
        assert repr(one.chi_omega12 * one.chi_omega12) == "(1-0j)"

    def test_homomorphism_random_pairs(self, l1):
        rng = random.Random(35)
        for _ in range(60):
            a = random_chern_trivial(rng, l1).tensor(sigma_section(AltForm(rng.randint(-4, 4)), l1))
            b = random_chern_trivial(rng, l1).tensor(sigma_section(AltForm(rng.randint(-4, 4)), l1))
            lhs = ah_normal_form(a.tensor(b))
            rhs = ah_group_law(ah_normal_form(a), ah_normal_form(b))
            assert lhs.e_form == rhs.e_form
            assert abs(lhs.chi_omega2 - rhs.chi_omega2) < 1e-9
            assert abs(lhs.chi_omega12 - rhs.chi_omega12) < 1e-9

    def test_semicharacter_law(self, l1):
        rng = random.Random(36)
        for _ in range(40):
            data = ah_normal_form(
                random_chern_trivial(rng, l1).tensor(sigma_section(AltForm(rng.randint(-4, 4)), l1))
            )
            x, y = random_vector(rng, 6), random_vector(rng, 6)
            lhs = data.chi(x + y)
            parity = -1.0 if alt_eval(data.e_form, x, y) % 2 else 1.0  # e^{pi i E(x,y)}
            rhs = data.chi(x) * data.chi(y) * parity
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_chi_value(self, l1):
        # chi(a*omega1 + b*omega2) = c^b * (-1)^(s*a*b), with c on and off the unit circle
        rng = random.Random(39)
        for _ in range(300):
            c = random_nonzero(rng)
            s = rng.randint(-4, 4)
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            assert AHData(c, AltForm(s), l1).chi(LatticeVector(a, b)) == c**b * (-1) ** (s * a * b), (c, s, a, b)

    @pytest.mark.parametrize("c", [1e200, 1e-200, 1e-170, 1e150, 1e-160, 2.5 - 1j])
    def test_group_law_leaves_c_x_where_tensor_does(self, l1, c):
        # at 1e200 the law once gave c = inf + 0j, at 1e-200 c = 0j; 1e-170 squares
        # to 0j too, while 1e-160 squares to a subnormal, still in C^x
        a = Cocycle(1, c, ExponentPoly.zero(), l1)
        x = ah_normal_form(a)
        try:
            product = a.tensor(a)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{exc}$"):
                ah_group_law(x, x)
        else:
            assert ah_group_law(x, x) == ah_normal_form(product)

    @pytest.mark.parametrize("c", [complex(math.inf, 0), complex(0, math.nan), math.inf], ids=["inf", "nan", "float-inf"])
    def test_non_finite_c_rejected(self, l1, c):
        with pytest.raises(DomainError, match="character value c must be finite and nonzero"):
            AHData(c, AltForm(0), l1)

    @pytest.mark.parametrize(
        "c, l",
        [
            (1e200, (0, 3)),
            (1e200, (0, -3)),
            (1e200, (5, -2)),
            (1e-200, (0, 3)),
            (1e-200, (0, -3)),
            # complex ** raises ZeroDivisionError for b < 0 where |c|**|b| underflows
            (1e-200 + 0j, (0, -3)),
            (1e-120 + 0j, (0, -3)),
        ],
    )
    def test_chi_beyond_double_range_is_range_error(self, l1, c, l):
        # once a bare OverflowError, (nan+nanj) or 0j
        with pytest.raises(RangeError, match=re.escape(f"chi at l=({l[0]},{l[1]}) is beyond the double range")):
            AHData(c, AltForm(1), l1).chi(LatticeVector(*l))

    def test_chi_takes_any_omega1_coordinate(self, l1):
        # chi(omega1) = 1, so a past the double range does not enter: once a RangeError
        data = AHData(2, AltForm(1), l1)
        assert repr(data.chi(LatticeVector(10**400, 1))) == "(2+0j)"
        assert data.chi(LatticeVector(10**400 + 1, 1)) == -2
        assert data.chi(LatticeVector(-(10**400) - 1, -1)) == -0.5

    def test_chi_names_a_long_coordinate_by_its_bit_length(self, l1):
        # formatting l past the digit limit once raised ValueError
        b = 10**5000
        with pytest.raises(RangeError, match=f"^chi at l with coordinates of 1 and {b.bit_length()} bits is beyond"):
            AHData(2.0, AltForm(1), l1).chi(LatticeVector(1, b))

    def test_classification_faithfulness(self, l1):
        # same class up to coboundary and a witness character <=> equal normal
        # forms up to e^{2 pi i m theta} in the c slot
        rng = random.Random(37)
        base = random_chern_trivial(rng, l1)
        m = 3
        twin = base.tensor(coboundary(ExponentPoly((0j, 0j, 0.2 - 0.1j)), 0.0, l1)).tensor(
            witness_character(l1, m)
        )
        verdict = triviality_test(base.tensor(twin.inverse()))
        assert verdict.is_trivial
        ratio = ah_normal_form(twin).chi_omega2 / ah_normal_form(base).chi_omega2
        assert abs(ratio - cmath.exp(TWO_PI_I * m * l1.theta)) < 1e-9
        # and a genuinely different class fails
        other = base.tensor(Cocycle(0, 1.001, ExponentPoly.zero(), l1))
        assert not triviality_test(base.tensor(other.inverse()), bound=100).is_trivial
