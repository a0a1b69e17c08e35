import cmath
import math
import random
from fractions import Fraction
from itertools import product

import mpmath as mp

import pytest

from qtline import (
    Cocycle,
    ConsistencyError,
    DomainError,
    ExponentPoly,
    HeisenbergElement,
    LambdaPoint,
    PrecisionError,
    PreconditionError,
    Pseudolattice,
    QuadReal,
    RangeError,
    approx_eq,
    closed_form_pairing,
    coboundary,
    commutator_pairing,
    dichotomy_check,
    heisenberg_identity,
    heisenberg_inverse,
    heisenberg_multiply,
    k_group,
    membership_multiplier,
    multiplier_residual,
    trivial_cocycle,
)
from qtline import heisenberg
from qtline.numeric import TOLERANCE_ENV_VAR
from helpers import exact, exact_phase, multiplier_value, random_chern_trivial, theta_exact

TWO_PI_I = 2j * math.pi


def to_mpf(x):
    """a + b*sqrt(d) at the working precision of mpmath."""
    return mp.mpf(x.a.numerator) / x.a.denominator + mp.mpf(x.b.numerator) / x.b.denominator * mp.sqrt(x.d)


def section(lattice, s, c=1.0):
    return Cocycle(s, c, ExponentPoly.zero(), lattice)


class TestKGroup:
    def test_finite_orders(self, l1):
        assert k_group(section(l1, 3)).order == 9
        assert k_group(section(l1, 1)).order == 1
        assert k_group(section(l1, -4)).modulus == 4

    def test_full_torus(self, l1):
        desc = k_group(Cocycle(0, 3.0, ExponentPoly((0j, 0.1 + 0j)), l1))
        assert not desc.finite and desc.order is None

    def test_invariant_under_coboundary(self, l1):
        a = section(l1, 2, c=1.5j)
        twisted = a.tensor(coboundary(ExponentPoly((0j, 0j, 0.3 + 0.1j)), 0.2, l1))
        assert k_group(a) == k_group(twisted)


class TestMembership:
    def test_omega1_lift_has_constant_multiplier(self, l1):
        a = section(l1, 2)
        elem = membership_multiplier(a, LambdaPoint(1, 0, 2))
        assert multiplier_value(a, elem, 0.7 - 0.3j) == 1 + 0j
        assert multiplier_residual(a, elem) < 1e-9

    def test_omega2_lift(self, l1):
        a = section(l1, 2)
        elem = membership_multiplier(a, LambdaPoint(0, 1, 2))
        v = 0.25 + 0.5j
        assert multiplier_value(a, elem, v) == pytest.approx(
            cmath.exp(TWO_PI_I * v / l1.omega1_float)
        )
        assert multiplier_residual(a, elem) < 1e-9

    def test_identity_element(self, l1):
        a = section(l1, 1)
        elem = membership_multiplier(a, LambdaPoint(0, 0, 1))
        assert elem == heisenberg_identity(a)
        assert multiplier_residual(a, elem) == 0.0

    def test_character_factor_drops_out(self, l1):
        a = section(l1, 3, c=2.5 - 1j)
        for alpha, beta in product(range(3), repeat=2):
            elem = membership_multiplier(a, LambdaPoint(alpha, beta, 3))
            assert multiplier_residual(a, elem, samples=20, seed=4) < 1e-9

    @pytest.mark.parametrize("fix", ["l1", "l2"])
    @pytest.mark.parametrize("s", [20, 60, 150, -40])
    def test_residual_at_large_s(self, fix, s, request):
        # A_l(v + x~)/A_l(v) as a value leaves the float exp range from s = 20 on,
        # although the identity holds by construction; as an exponent it does not.
        a = section(request.getfixturevalue(fix), s)
        elem = membership_multiplier(a, LambdaPoint(1, 1, abs(s)))
        assert multiplier_residual(a, elem, samples=50, seed=0) < 1e-11

    @pytest.mark.parametrize("args", [(True, 1, 2), (1, False, 2), (0, 1, True)], ids=["alpha", "beta", "s"])
    def test_boolean_coordinates_rejected(self, args):
        with pytest.raises(DomainError):
            LambdaPoint(*args)

    def test_wrong_denominator_rejected(self, l1):
        with pytest.raises(DomainError):
            membership_multiplier(section(l1, 2), LambdaPoint(1, 0, 3))

    def test_lifts_add_over_one_denominator(self):
        assert LambdaPoint(1, 2, 3) + LambdaPoint(1, 1, 3) == LambdaPoint(2, 3, 3)
        with pytest.raises(DomainError, match="different denominators"):
            LambdaPoint(1, 0, 2) + LambdaPoint(1, 0, 3)

    @pytest.mark.parametrize("scalar", [complex(math.nan, 0), complex(1, math.inf), math.nan], ids=["nan", "inf", "float-nan"])
    def test_non_finite_scalar_rejected(self, scalar):
        # a NaN scalar used to give multiplier_residual a perfect 0.0
        with pytest.raises(DomainError, match="finite"):
            HeisenbergElement(LambdaPoint(1, 0, 2), scalar)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_residual_needs_a_sample(self, l1, samples):
        # no samples means no evidence, not a perfect residual of 0.0
        a = section(l1, 2)
        elem = membership_multiplier(a, LambdaPoint(1, 0, 2))
        with pytest.raises(PreconditionError):
            multiplier_residual(a, elem, samples=samples)

    def test_preconditions(self, l1):
        with pytest.raises(PreconditionError):
            membership_multiplier(trivial_cocycle(l1), LambdaPoint(0, 0, 1))
        with_g = Cocycle(2, 1.0, ExponentPoly((0j, 0.5 + 0j)), l1)
        with pytest.raises(PreconditionError):
            membership_multiplier(with_g, LambdaPoint(1, 1, 2))


def unit(x):
    return HeisenbergElement(x, 1.0 + 0j)


# The five group operations, each called with one lift x where it takes any.
GROUP_OPERATIONS = {
    "membership_multiplier": lambda a, x: membership_multiplier(a, x),
    "multiplier_residual": lambda a, x: multiplier_residual(a, unit(x)),
    "heisenberg_multiply": lambda a, x: heisenberg_multiply(unit(x), unit(x), a),
    "heisenberg_identity": lambda a, x: heisenberg_identity(a),
    "heisenberg_inverse": lambda a, x: heisenberg_inverse(unit(x), a),
}


class TestDomainGate:
    """Every group operation refuses what lies outside s != 0, g = 0 and lifts over (1/|s|)L."""

    @pytest.mark.parametrize("op", GROUP_OPERATIONS)
    def test_zero_chern_class(self, l1, op):
        with pytest.raises(PreconditionError, match="nonzero Chern class"):
            GROUP_OPERATIONS[op](trivial_cocycle(l1), LambdaPoint(0, 0, 1))

    @pytest.mark.parametrize("op", GROUP_OPERATIONS)
    def test_nonzero_g(self, l1, op):
        # multiplier_residual once answered 2.0 here, for a true stabilizer
        a = Cocycle(2, 1.0, ExponentPoly((0j, 0j, 0.1 + 0j)), l1)
        with pytest.raises(PreconditionError, match="normal form g = 0"):
            GROUP_OPERATIONS[op](a, LambdaPoint(1, 1, 2))

    @pytest.mark.parametrize("op", [op for op in GROUP_OPERATIONS if op != "heisenberg_identity"])
    def test_foreign_lift(self, l1, op):
        # multiplier_residual once answered 1.93 for this lift over (1/3)L
        with pytest.raises(DomainError, match=r"does not match the stabilizer lattice \(1/2\)L"):
            GROUP_OPERATIONS[op](section(l1, 2), LambdaPoint(1, 1, 3))


class TestRealValue:
    @staticmethod
    def lattices(l1, l2):
        odd = Pseudolattice(QuadReal(Fraction(3, 7), Fraction(1, 5), 3), QuadReal(Fraction(-2, 3), Fraction(4, 11), 3))
        return [l1, l2, odd]

    @staticmethod
    def via_field(lattice, x):
        return float((exact(lattice.omega1) * x.alpha + exact(lattice.omega2) * x.beta) * Fraction(1, x.s))

    def test_matches_field_arithmetic_on_random_points(self, l1, l2):
        rng = random.Random(11)
        for lattice in self.lattices(l1, l2):
            for _ in range(300):
                bound = 10 ** rng.randint(0, 30)
                x = LambdaPoint(rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(1, 50))
                assert x.real_value(lattice) == self.via_field(lattice, x)

    def test_correct_where_the_terms_nearly_cancel(self, l1, l2):
        # (p_k*omega1 - q_k*omega2)/s shrinks like 1/q_k while both terms grow
        for lattice in self.lattices(l1, l2):
            for conv in lattice.convergents(60)[10:]:
                for s in (1, 7):
                    x = LambdaPoint(conv.p, -conv.q, s)
                    value = x.real_value(lattice)
                    assert value == self.via_field(lattice, x)
                    with mp.workdps(120):
                        w1, w2 = (to_mpf(w) for w in (lattice.omega1, lattice.omega2))
                        assert value == float((conv.p * w1 - conv.q * w2) / s)


class TestGroupLaw:
    def test_identity(self, l1):
        a = section(l1, 2)
        g = membership_multiplier(a, LambdaPoint(1, 1, 2))
        assert heisenberg_multiply(g, heisenberg_identity(a), a) == g

    def test_carried_scalar(self, l1):
        # (omega1/2, 1).(omega2/2, e^{2 pi i v/omega1}): h2(x1~) = e^{pi i} = -1
        a = section(l1, 2)
        g1 = membership_multiplier(a, LambdaPoint(1, 0, 2))
        g2 = membership_multiplier(a, LambdaPoint(0, 1, 2))
        prod = heisenberg_multiply(g1, g2, a)
        assert prod.point == LambdaPoint(1, 1, 2)
        assert prod.scalar == pytest.approx(-1.0)

    def test_central_scalars_multiply_exactly(self, l1):
        a = section(l1, 3)
        z1 = _central(a, 2.0 + 1j)
        z2 = _central(a, -0.5j)
        prod = heisenberg_multiply(z1, z2, a)
        assert prod.scalar == (2.0 + 1j) * (-0.5j)
        assert prod.point == LambdaPoint(0, 0, 3)

    def test_central_elements_commute_with_everything(self, l1):
        a = section(l1, 3)
        rng = random.Random(41)
        for _ in range(20):
            g = membership_multiplier(a, LambdaPoint(rng.randint(-6, 6), rng.randint(-6, 6), 3))
            z = _central(a, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)), lattice_shift=(3 * rng.randint(-2, 2), 3 * rng.randint(-2, 2)))
            left = heisenberg_multiply(g, z, a)
            right = heisenberg_multiply(z, g, a)
            assert left.point == right.point
            assert approx_eq(left.scalar, right.scalar)

    def test_inverse(self, l1):
        a = section(l1, 2)
        g = heisenberg_multiply(
            membership_multiplier(a, LambdaPoint(1, 1, 2)), _central(a, 1.5 - 0.5j), a
        )
        prod = heisenberg_multiply(g, heisenberg_inverse(g, a), a)
        assert prod.point == LambdaPoint(0, 0, 2)
        assert prod.scalar == pytest.approx(1.0)

    def test_commutator_matches_pairing(self, l1, l2):
        rng = random.Random(42)
        for lat in (l1, l2):
            for _ in range(25):
                s = rng.choice([-3, -2, 2, 3, 5])
                a = section(lat, s, c=complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
                x1 = LambdaPoint(rng.randint(-4, 4), rng.randint(-4, 4), abs(s))
                x2 = LambdaPoint(rng.randint(-4, 4), rng.randint(-4, 4), abs(s))
                g1 = membership_multiplier(a, x1)
                g2 = membership_multiplier(a, x2)
                comm = heisenberg_multiply(
                    heisenberg_multiply(heisenberg_multiply(g1, g2, a), heisenberg_inverse(g1, a), a),
                    heisenberg_inverse(g2, a),
                    a,
                )
                assert comm.point == LambdaPoint(0, 0, abs(s))
                assert approx_eq(comm.scalar, commutator_pairing(a, x1, x2))

    def test_large_s_commutator_agrees_or_is_refused(self, l1, l2):
        # the group-law commutator drifted up to 7.3e-8 from the closed form at
        # s = 10^7 over Z + Z*sqrt(2), with no error raised
        s = 10**7
        rng = random.Random(s)
        for lat in (l1, l2):
            a = section(lat, s)
            for _ in range(100):
                x1 = LambdaPoint(rng.randrange(s), rng.randrange(s), s)
                x2 = LambdaPoint(rng.randrange(s), rng.randrange(s), s)
                g1, g2 = membership_multiplier(a, x1), membership_multiplier(a, x2)
                try:
                    comm = heisenberg_multiply(
                        heisenberg_multiply(heisenberg_multiply(g1, g2, a), heisenberg_inverse(g1, a), a),
                        heisenberg_inverse(g2, a),
                        a,
                    )
                except PrecisionError as exc:
                    assert "kappa" in str(exc)
                    continue
                assert abs(comm.scalar - closed_form_pairing(a, x1, x2)) <= 2e-9

    def test_group_law_phase_is_exact_at_large_kappa(self, l1):
        # both raised PrecisionError here: the float phase kappa*x~/omega1 could
        # not be resolved; it is now reduced mod 1 on integers
        s, alpha, beta = 10**7, 8514075, 6540822
        a = section(l1, s)
        g = membership_multiplier(a, LambdaPoint(alpha, beta, s))
        want = exact_phase(theta_exact(l1), beta * alpha, beta * beta, s)
        assert abs(heisenberg_inverse(g, a).scalar - want) <= 1e-14
        assert abs(heisenberg_multiply(g, g, a).scalar - want) <= 1e-14

    @pytest.mark.parametrize("s", [10**5, 10**6, 10**7, 10**9, 10**12, -(10**12)])
    def test_large_s_commutator_is_never_refused(self, l1, l2, s):
        # the group law used to refuse large kappa with PrecisionError, and drift
        # up to 3.58e-9 from the closed form below its guard
        rng = random.Random(s)
        n = abs(s)
        for lat in (l1, l2):
            a = section(lat, s)
            for i in range(60):
                beta_range = (0, n) if i % 2 else (-1000, 1000)
                x1 = LambdaPoint(rng.randrange(n), rng.randrange(*beta_range), n)
                x2 = LambdaPoint(rng.randrange(n), rng.randrange(*beta_range), n)
                g1, g2 = membership_multiplier(a, x1), membership_multiplier(a, x2)
                comm = heisenberg_multiply(
                    heisenberg_multiply(heisenberg_multiply(g1, g2, a), heisenberg_inverse(g1, a), a),
                    heisenberg_inverse(g2, a),
                    a,
                )
                assert comm.point == LambdaPoint(0, 0, n)
                assert abs(comm.scalar - closed_form_pairing(a, x1, x2)) <= 1e-13


def _central(a, scalar, lattice_shift=(0, 0)):
    from qtline import HeisenbergElement

    return HeisenbergElement(point=LambdaPoint(lattice_shift[0], lattice_shift[1], abs(a.s)), scalar=scalar)


class TestPairing:
    def test_closed_form_needs_a_nonzero_chern_class(self, l1):
        with pytest.raises(PreconditionError, match="nonzero Chern class"):
            closed_form_pairing(trivial_cocycle(l1), LambdaPoint(1, 0, 1), LambdaPoint(0, 1, 1))

    def test_basis_pair_s2(self, l1):
        a = section(l1, 2)
        value = commutator_pairing(a, LambdaPoint(1, 0, 2), LambdaPoint(0, 1, 2))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_basis_pair_s3(self, l1):
        a = section(l1, 3)
        value = commutator_pairing(a, LambdaPoint(1, 0, 3), LambdaPoint(0, 1, 3))
        assert value == pytest.approx(cmath.exp(TWO_PI_I / 3), abs=1e-12)

    def test_alternating(self, l1):
        a = section(l1, 4)
        x = LambdaPoint(3, 2, 4)
        assert commutator_pairing(a, x, x) == pytest.approx(1.0)

    def test_negative_s_signed_exponent(self, l1):
        a = section(l1, -2)
        x1, x2 = LambdaPoint(1, 0, 2), LambdaPoint(0, 1, 2)
        assert commutator_pairing(a, x1, x2) == pytest.approx(closed_form_pairing(a, x1, x2))
        assert closed_form_pairing(a, x1, x2) == pytest.approx(cmath.exp(-TWO_PI_I / 2))

    def test_exhaustive_closed_form_small_s(self, l1, l2):
        for lat in (l1, l2):
            for s in (1, 2, 3, 4):
                a = section(lat, s, c=0.8 + 0.6j)
                for a1, b1, a2, b2 in product(range(s), repeat=4):
                    x1, x2 = LambdaPoint(a1, b1, s), LambdaPoint(a2, b2, s)
                    got = commutator_pairing(a, x1, x2)
                    assert abs(got - closed_form_pairing(a, x1, x2)) < 1e-9
                    assert abs(got**s - 1.0) < 1e-8

    def test_bimultiplicative_and_mod_lattice(self, l1):
        rng = random.Random(43)
        a = section(l1, 5)
        for _ in range(40):
            x = LambdaPoint(rng.randint(-8, 8), rng.randint(-8, 8), 5)
            y = LambdaPoint(rng.randint(-8, 8), rng.randint(-8, 8), 5)
            z = LambdaPoint(rng.randint(-8, 8), rng.randint(-8, 8), 5)
            lhs = commutator_pairing(a, x + y, z)
            rhs = commutator_pairing(a, x, z) * commutator_pairing(a, y, z)
            assert abs(lhs - rhs) < 1e-9
            shifted = LambdaPoint(x.alpha + 5 * rng.randint(-3, 3), x.beta + 5 * rng.randint(-3, 3), 5)
            assert abs(commutator_pairing(a, shifted, z) - commutator_pairing(a, x, z)) < 1e-9

    def test_lifts_reduced_mod_s(self, l1):
        # far-out representatives of a class give the class's own value
        a = section(l1, 2)
        z = LambdaPoint(0, 1, 2)
        base = commutator_pairing(a, LambdaPoint(1, 0, 2), z)
        for x in (LambdaPoint(1, 200, 2), LambdaPoint(1, 1000, 2), LambdaPoint(-1, -4000, 2)):
            assert commutator_pairing(a, x, z) == base

    @pytest.mark.parametrize("s, beta", [(1000, 999), (200, 150), (130, 125)])
    def test_large_beta_lift_answers(self, l1, s, beta):
        # the multiplier e^{2*pi*i*kappa*v/omega1} alone overflows a double at a
        # complex probe point once beta passes about 124; the H_v ratio, formed
        # as one real exponent, never does
        value = commutator_pairing(section(l1, s), LambdaPoint(1, beta, s), LambdaPoint(0, 1, s))
        assert abs(value - cmath.exp(TWO_PI_I / s)) < 1e-9

    @pytest.mark.parametrize("alpha", [10**8, 10**10, 10**400], ids=["1e8", "1e10", "1e400"])
    def test_closed_form_reduces_the_cross_term(self, l1, alpha):
        # the cross term alpha is a multiple of s = 2: the exact value is 1, which
        # the float of the unreduced cross term missed (or overflowed on)
        a = section(l1, 2)
        x1, x2 = LambdaPoint(alpha, 1, 2), LambdaPoint(0, 1, 2)
        closed = closed_form_pairing(a, x1, x2)
        assert abs(closed - 1.0) < 1e-12
        assert approx_eq(commutator_pairing(a, x1, x2), closed)

    def test_closed_form_finite_at_huge_s(self, l1):
        # 2*pi*residue would overflow a double here without the exact 1/8 scaling
        n = 10**308
        a = section(l1, n)
        x1, x2 = LambdaPoint(n - 1, 0, n), LambdaPoint(0, 1, n)
        assert abs(closed_form_pairing(a, x1, x2) - 1.0) < 1e-12
        assert approx_eq(commutator_pairing(a, x1, x2), closed_form_pairing(a, x1, x2))

    def test_closed_form_s_beyond_double_range_is_range_error(self, l1):
        # the float quotient by s used to leak a bare OverflowError here
        n = 10**400
        with pytest.raises(RangeError, match="double range"):
            closed_form_pairing(section(l1, n), LambdaPoint(1, n - 1, n), LambdaPoint(0, 1, n))

    def test_multiplier_residual_s_beyond_double_range_is_range_error(self, l1):
        # a bare OverflowError from the exponent kernel used to escape
        n = 10**400
        a = section(l1, n)
        with pytest.raises(RangeError, match="^s of 1329 bits is beyond the double range$"):
            multiplier_residual(a, membership_multiplier(a, LambdaPoint(1, 0, n)), samples=3)

    def test_closed_form_bit_identical_below_s(self, l1):
        # with |cross| < |s| the reduction is the identity: the old expression exactly
        for s in (-7, -3, 2, 5, 200):
            a = section(l1, s)
            for a1, b1, a2, b2 in product(range(-3, 4), repeat=4):
                cross = a1 * b2 - a2 * b1
                if abs(cross) < abs(s):
                    x1, x2 = LambdaPoint(a1, b1, abs(s)), LambdaPoint(a2, b2, abs(s))
                    assert closed_form_pairing(a, x1, x2) == cmath.exp(TWO_PI_I * cross / s)

    def test_every_lift_answers_and_agrees(self, l1, l2):
        # 864 random and far lifts over both lattices: both routes answer and agree
        rng = random.Random(8)
        for lat in (l1, l2):
            for s in (*range(-7, 0), *range(1, 8), 200, 1000):
                n = abs(s)
                a = section(lat, s, c=0.6 - 0.8j)
                for _ in range(27):
                    scale = rng.choice([3 * n, 10**6, 10**40])
                    x1 = LambdaPoint(rng.randint(-scale, scale), rng.randint(-scale, scale), n)
                    x2 = LambdaPoint(rng.randint(-3 * n, 3 * n), rng.randint(-3 * n, 3 * n), n)
                    assert abs(commutator_pairing(a, x1, x2) - closed_form_pairing(a, x1, x2)) <= 1e-9

    def test_unresolvable_kappa_is_precision_error(self, l1):
        # |value - closed| was 1.8e-8 here, reported as "agree": false
        a = section(l1, 10**7)
        x1, x2 = LambdaPoint(8514075, 6540822, 10**7), LambdaPoint(9181550, 5606644, 10**7)
        with pytest.raises(PrecisionError, match="kappa = 6540822, 5606644"):
            commutator_pairing(a, x1, x2)

    def test_kappa_beyond_double_range_is_precision_error(self, l1):
        # the bound's kappa sum used to leak a bare OverflowError here
        n = 10**400
        with pytest.raises(PrecisionError, match="bound inf"):
            commutator_pairing(section(l1, n), LambdaPoint(1, n - 1, n), LambdaPoint(0, 1, n))

    @pytest.mark.parametrize("s", [10**6, 10**7, -(10**7)])
    def test_large_s_lifts_agree_or_are_refused(self, l1, l2, s):
        # at s = 10^7, 166 of 300 such lifts raised a ConsistencyError and
        # others drifted from the closed form by more than the tolerance
        rng = random.Random(s)
        n = abs(s)
        for lat in (l1, l2):
            a = section(lat, s)
            for _ in range(150):
                x1 = LambdaPoint(rng.randrange(n), rng.randrange(n), n)
                x2 = LambdaPoint(rng.randrange(n), rng.randrange(n), n)
                try:
                    value = commutator_pairing(a, x1, x2)
                except PrecisionError:
                    continue
                assert approx_eq(value, closed_form_pairing(a, x1, x2))

    def test_requires_nonzero_chern(self, l1):
        with pytest.raises(PreconditionError):
            commutator_pairing(trivial_cocycle(l1), LambdaPoint(0, 0, 1), LambdaPoint(0, 0, 1))

    def test_base_point_dependence_is_consistency_error(self, l1, monkeypatch):
        # a quarter turn at the second probe alone, as a branch bug there would add
        exp_2pi_i = heisenberg.exp_2pi_i

        def shifted(exponent, kind, v):
            return exp_2pi_i(exponent + (0.25 if v == heisenberg._V_PROBE_2 else 0.0), kind, v)

        monkeypatch.setattr(heisenberg, "exp_2pi_i", shifted)
        with pytest.raises(ConsistencyError, match="depends on the base point"):
            commutator_pairing(section(l1, 3), LambdaPoint(1, 0, 3), LambdaPoint(0, 1, 3))

    def test_strips_coboundary_part(self, l1):
        plain = section(l1, 2)
        dressed = Cocycle(2, 1.0, ExponentPoly((0j, 0.2 + 0.1j, 0j, 0.05 + 0j)), l1)
        x1, x2 = LambdaPoint(1, 1, 2), LambdaPoint(0, 1, 2)
        assert commutator_pairing(dressed, x1, x2) == commutator_pairing(plain, x1, x2)


class TestDichotomy:
    def test_trivial_side(self, l1):
        report = dichotomy_check(trivial_cocycle(l1))
        assert not report.k_group.finite
        assert report.max_pairing_deviation == 0.0

    def test_witness_side(self, l1):
        report = dichotomy_check(section(l1, 2))
        assert report.k_group.order == 4
        assert report.witness_value == pytest.approx(-1.0)
        assert report.witness_differs_from_one

    def test_unit_s_has_trivial_pairing(self, l1):
        # K is the trivial group for |s| = 1: the witness value e^{2 pi i} = 1
        report = dichotomy_check(section(l1, 1))
        assert report.k_group.order == 1
        assert report.witness_value == pytest.approx(1.0)
        assert not report.witness_differs_from_one

    @pytest.mark.parametrize("s", [10**10, -(10**10)])
    def test_witness_flag_exact_for_large_s(self, l1, s):
        # e^{2 pi i/s} lies within ~6e-10 of 1 here, below the default eps
        report = dichotomy_check(section(l1, s))
        assert report.k_group.order == s * s
        assert report.witness_differs_from_one

    def test_witness_flag_ignores_tolerance(self, l1, monkeypatch):
        # |e^{2 pi i/7} - 1| ~ 0.87 is below this eps, yet the value is not 1
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "0.9")
        report = dichotomy_check(section(l1, 7))
        assert report.witness_value == pytest.approx(cmath.exp(TWO_PI_I / 7))
        assert report.witness_differs_from_one

    @pytest.mark.parametrize("samples", [0, -1])
    def test_zero_chern_needs_a_sample(self, l1, samples):
        with pytest.raises(PreconditionError):
            dichotomy_check(trivial_cocycle(l1), samples=samples)

    @pytest.mark.parametrize("scale", [1e3, 1e12])
    def test_zero_chern_unresolvable_g_is_precision_error(self, l1, scale):
        # the pairing is exactly 1, but g values past resolvable_exponent() were
        # subtracted unguarded: the deviation read 4.4e-9 (> eps) at 1e3, 2.30 at 1e12
        a = Cocycle(0, 1.0, ExponentPoly((0j, 0j, 0j, complex(scale))), l1)
        with pytest.raises(PrecisionError, match="passes"):
            dichotomy_check(a, samples=50)

    def test_zero_chern_sampled_pairing(self, l1, l2):
        rng = random.Random(44)
        for lat in (l1, l2):
            for _ in range(10):
                a = random_chern_trivial(rng, lat)
                report = dichotomy_check(a, samples=50, seed=7)
                assert not report.k_group.finite
                assert report.max_pairing_deviation < 1e-9
