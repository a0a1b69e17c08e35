import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qtline import (
    Cocycle,
    DomainError,
    ExponentPoly,
    LatticeVector,
    PrecisionError,
    PreconditionError,
    Pseudolattice,
    QuadReal,
    RangeError,
    approx_eq,
    coboundary,
    cocycle_defect,
    existence_cocycle,
    trivial_cocycle,
    verify_cocycle_identity,
)
from helpers import random_cocycle, random_v, random_vector
from qtline.cocycle import exp_2pi_i, exponent_residual, max_residual, resolvable_exponent, sampled_residuals
from qtline import lattice_sqrt2

mp.mp.dps = 40

# module-level lattice for hypothesis tests (fixtures are function-scoped)
L1 = lattice_sqrt2()


def small_cocycles(lattice):
    return st.builds(
        lambda s, c, g: Cocycle(s, c, ExponentPoly(tuple(g)), lattice),
        st.integers(-4, 4),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        st.lists(st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False), max_size=4),
    )


_dyadic = st.integers(-32, 32).map(lambda k: k / 64.0)


def dyadic_cocycles(lattice):
    """Coefficients on a dyadic grid, where float +/* are exact, so the group
    laws can be asserted as structural equalities."""
    nonzero_dyadic = st.tuples(st.integers(-16, 16), st.integers(-16, 16)).filter(
        lambda ab: ab != (0, 0)
    )
    return st.builds(
        lambda s, c, g: Cocycle(s, complex(c[0] / 16.0, c[1] / 16.0), ExponentPoly(tuple(g)), lattice),
        st.integers(-4, 4),
        nonzero_dyadic,
        st.lists(st.builds(complex, _dyadic, _dyadic), max_size=4),
    )


class TestExponentPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert ExponentPoly((1 + 0j, 0j, 0j)) == ExponentPoly((1 + 0j,))
        assert not ExponentPoly((0j, 0j))
        assert ExponentPoly(()).degree == -1

    def test_degree_cap(self):
        ExponentPoly(tuple([0j] * 6 + [1 + 0j]))  # degree 6 is fine
        with pytest.raises(DomainError):
            ExponentPoly(tuple([0j] * 7 + [1 + 0j]))

    @pytest.mark.parametrize("coeff", [complex(math.nan, 0), complex(0, math.inf), -math.inf], ids=["nan", "inf-im", "-inf"])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(DomainError, match="finite"):
            ExponentPoly((coeff, 1))

    def test_horner(self):
        g = ExponentPoly((1 + 0j, 2 + 0j, 1j))
        v = 0.5 - 0.25j
        assert g(v) == 1 + 2 * v + 1j * v * v

    def test_ring_ops(self):
        g = ExponentPoly((1 + 0j, 2 + 0j))
        h = ExponentPoly((0j, -2 + 0j, 3 + 0j))
        assert (g + h) == ExponentPoly((1 + 0j, 0j, 3 + 0j))
        assert g - g == ExponentPoly.zero()


class TestEvaluate:
    def test_trivial_is_one_exactly(self, l1):
        a = trivial_cocycle(l1)
        assert a.evaluate(LatticeVector(3, -7), 1.2 + 0.7j) == 1 + 0j
        assert a.exponent(LatticeVector(3, -7), 1.2 + 0.7j) == 0j

    def test_quadratic_section_value(self, l1):
        # s=1 at l=(0,1), v=0: exponent is pi*i*sqrt(2)
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        got = a.evaluate(LatticeVector(0, 1), 0j)
        want = complex(mp.exp(mp.pi * 1j * mp.sqrt(2)))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-0.2662553420414155 - 0.9639025328498773j, abs=1e-12)

    def test_character_power(self, l1):
        a = Cocycle(0, 2.0, ExponentPoly.zero(), l1)
        assert a.evaluate(LatticeVector(5, 3), 17 + 4j) == pytest.approx(8.0, abs=1e-9)

    def test_exponent_matches_evaluate(self, l1):
        rng = random.Random(5)
        for _ in range(50):
            # small data keeps |exponents| inside the exp range guard
            a = random_cocycle(rng, l1, s_bound=2, max_degree=2, scale=0.1)
            l, v = random_vector(rng, 2), random_v(rng, 1.0)
            assert cmath.exp(2j * math.pi * a.exponent(l, v)) == pytest.approx(a.evaluate(l, v), rel=1e-9)

    def test_exponent_of_quadratic_section(self, l1):
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        l, v = LatticeVector(4, 3), 0.25 + 1j
        w1, w2 = l1.omega1_float, l1.omega2_float
        assert a.exponent(l, v) == pytest.approx((l.b**2 * w2 + 2 * l.b * v) / (2 * w1), abs=1e-12)

    def test_exponent_polynomial_shift(self, l1):
        a = Cocycle(0, 1.0, ExponentPoly((0j, 0j, 1 + 0j)), l1)  # g = v^2
        assert a.exponent(LatticeVector(1, 0), 0j) == pytest.approx(l1.omega1_float**2, abs=1e-12)

    def test_range_error(self, l1):
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        with pytest.raises(RangeError):
            a.evaluate(LatticeVector(0, 200), 5j)

    @pytest.mark.parametrize(
        "l", [(0, 10**400), (10**400, 0), (0, -(10**309)), (0, 10**200)], ids=["b", "a", "-b", "b-squared"]
    )
    def test_coordinates_beyond_double_range_are_range_error(self, l1, l):
        # a bare OverflowError from the coordinates' float conversions used to escape
        a = Cocycle(2, 1 + 1j, ExponentPoly((0j, 0.1)), l1)
        for method in (a.exponent, a.evaluate):
            with pytest.raises(RangeError, match="^exponent cannot be formed: "):
                method(LatticeVector(*l), 0.1 + 0.2j)

    @pytest.mark.parametrize("s", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_s_beyond_double_range_is_range_error(self, l1, s):
        a = Cocycle(s, 1.0, ExponentPoly.zero(), l1)
        for call in (
            lambda: a.exponent(LatticeVector(0, 1), 0.1),
            lambda: a.evaluate(LatticeVector(0, 1), 0.1),
            lambda: verify_cocycle_identity(a, samples=3),
        ):
            with pytest.raises(RangeError, match="^s of 1329 bits is beyond the double range$"):
                call()

    @pytest.mark.parametrize("s", [3, -(2**60) - 1, 10**300])
    def test_s_bound_as_a_double_keeps_every_bit(self, l1, s):
        # s * x rounds an int s to a double before it multiplies, as float(s) * x does
        a = Cocycle(s, 1.0, ExponentPoly.zero(), l1)
        w1, w2 = l1.omega1_float, l1.omega2_float
        for b, v in [(1, 0.3 + 0.2j), (-7, -1.5 + 4j), (2, 1e-300j)]:
            assert a.exponent(LatticeVector(0, b), v) == s * (b * b * w2 + 2.0 * b * v) / (2.0 * w1)

    def test_zero_character_rejected(self, l1):
        with pytest.raises(DomainError):
            Cocycle(0, 0.0, ExponentPoly.zero(), l1)

    @pytest.mark.parametrize("s", [True, False])
    def test_boolean_chern_integer_rejected(self, l1, s):
        # bool is an int subclass; a bool s would be written as a JSON
        # true/false that cocycle_from_json refuses.
        with pytest.raises(DomainError):
            Cocycle(s, 1.0, ExponentPoly.zero(), l1)


class TestGroupStructure:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_tensor_abelian_group_exact_on_dyadics(self, data):
        a = data.draw(dyadic_cocycles(L1))
        b = data.draw(dyadic_cocycles(L1))
        c = data.draw(dyadic_cocycles(L1))
        assert a.tensor(b) == b.tensor(a)
        assert a.tensor(b.tensor(c)) == a.tensor(b).tensor(c)
        assert a.tensor(trivial_cocycle(L1)) == a

    @settings(max_examples=40)
    @given(data=st.data())
    def test_tensor_commutes_exactly_on_floats(self, data):
        a = data.draw(small_cocycles(L1))
        b = data.draw(small_cocycles(L1))
        assert a.tensor(b) == b.tensor(a)

    def test_tensor_adds_chern_data(self, l1):
        x = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        y = Cocycle(2, 1.0, ExponentPoly.zero(), l1)
        assert x.tensor(y) == Cocycle(3, 1.0, ExponentPoly.zero(), l1)

    def test_tensor_multiplies_characters(self, l1):
        x = Cocycle(0, 2.0, ExponentPoly.zero(), l1)
        y = Cocycle(0, 3.0, ExponentPoly.zero(), l1)
        assert x.tensor(y).c == 6.0

    def test_inverse(self, l1):
        assert Cocycle(1, 1.0, ExponentPoly.zero(), l1).inverse().s == -1
        assert Cocycle(0, 2j, ExponentPoly.zero(), l1).inverse().c == 1 / 2j
        assert trivial_cocycle(l1).inverse() == trivial_cocycle(l1)
        a = Cocycle(3, 0.5 + 1j, ExponentPoly((0.1 + 0j, 0.2j)), l1)
        prod = a.tensor(a.inverse())
        assert prod.s == 0 and prod.g == ExponentPoly.zero()
        assert prod.c == pytest.approx(1.0)

    def test_lattice_mismatch(self, l1, l2):
        with pytest.raises(DomainError):
            trivial_cocycle(l1).tensor(trivial_cocycle(l2))

    def test_evaluate_multiplicative_under_tensor(self, l1):
        rng = random.Random(9)
        for _ in range(30):
            a, b = random_cocycle(rng, l1, s_bound=2), random_cocycle(rng, l1, s_bound=2)
            l, v = random_vector(rng, 4), random_v(rng, 2.0)
            assert approx_eq(a.tensor(b).evaluate(l, v), a.evaluate(l, v) * b.evaluate(l, v))


class TestCoboundary:
    def test_zero_data_gives_trivial(self, l1):
        assert coboundary(ExponentPoly.zero(), 0.0, l1) == trivial_cocycle(l1)

    def test_linear_part_is_character(self, l1):
        # beta = 1/omega1 with omega1 = 1: values reduce to e^{2 pi i sqrt2 b}
        cb = coboundary(ExponentPoly.zero(), 1.0, l1)
        rng = random.Random(3)
        for _ in range(20):
            l, v = random_vector(rng, 6), random_v(rng, 3.0)
            want = cmath.exp(2j * math.pi * math.sqrt(2) * l.b)
            assert approx_eq(cb.evaluate(l, v), want)

    def test_quadratic_shift_value(self):
        # lattice with irrational omega1^2 so the value e^{2 pi i omega1^2} is not 1
        lat = Pseudolattice(QuadReal(Fraction(1), Fraction(1), 2), QuadReal.sqrt(2))
        cb = coboundary(ExponentPoly((0j, 0j, 1 + 0j)), 0.0, lat)
        want = cmath.exp(2j * math.pi * lat.omega1_float**2)
        assert cb.evaluate(LatticeVector(1, 0), 0j) == pytest.approx(want, abs=1e-9)

    def test_requires_lattice(self):
        with pytest.raises(DomainError):
            coboundary(ExponentPoly.zero(), 1.0, None)


class TestCocycleIdentity:
    def test_trivial_residual_exactly_zero(self, l1):
        assert verify_cocycle_identity(trivial_cocycle(l1), samples=100, seed=0) == 0.0

    @pytest.mark.parametrize("s,c,g", [(1, 1.0, ()), (2, 1j, (0j, 0j, 1 + 0j)), (-1, 1.0, ())])
    def test_fixture_residuals(self, l1, l2, s, c, g):
        for lat in (l1, l2):
            a = Cocycle(s, c, ExponentPoly(g), lat)
            assert verify_cocycle_identity(a, samples=200, seed=1) < 1e-9

    def test_existence_cocycle_is_a_cocycle(self, l1):
        a = existence_cocycle(l1)
        assert a.s == -1 and a.c == 1 and not a.g
        assert verify_cocycle_identity(a, samples=300, seed=2) < 1e-9

    def test_flipped_orientation_is_not_a_cocycle(self, l1):
        # The mixed-sign variant e^{-(pi i/w1)(b^2 w2 - 2bv)} violates the
        # identity: its defect contains the irrational term -2*b1*b2*theta.
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        l1v, l2v, v = LatticeVector(0, 1), LatticeVector(0, 1), 0.3 + 0.1j

        def mixed_exponent(l, w):
            w1, w2 = a.lattice.omega1_float, a.lattice.omega2_float
            return -(l.b**2 * w2 - 2 * l.b * w) / (2 * w1)

        defect = (
            mixed_exponent(l1v + l2v, v)
            - mixed_exponent(l1v, v + a.lattice.omega2_float)
            - mixed_exponent(l2v, v)
        )
        assert min(abs(defect - round(defect.real)), abs(defect + round(-defect.real))) > 0.1

    def test_defect_closed_form(self, l1):
        rng = random.Random(7)
        for _ in range(40):
            a = random_cocycle(rng, l1, s_bound=3)
            u, w = random_vector(rng, 6), random_vector(rng, 6)
            v = random_v(rng, 2.0)
            lat = a.lattice
            numeric = (
                a.exponent(u + w, v)
                - a.exponent(u, v + (w.a * lat.omega1_float + w.b * lat.omega2_float))
                - a.exponent(w, v)
            )
            want = cocycle_defect(a, u, w)
            assert want == -a.s * u.b * w.a
            assert abs(numeric - want) < 1e-9


class TestNonFinite:
    @pytest.mark.parametrize(
        "x, y",
        [(complex(math.nan, 0), 0j), (0j, complex(0, math.inf)), (1e308 + 0j, -1e308 + 0j)],
        ids=["nan", "inf", "overflowing-difference"],
    )
    def test_residual_kernel_rejects_non_finite(self, x, y):
        with pytest.raises(RangeError):
            exponent_residual(x, y, resolvable_exponent())

    @pytest.mark.parametrize("exponent", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0)])
    def test_exp_rejects_non_finite(self, exponent):
        with pytest.raises(RangeError):
            exp_2pi_i(exponent, "test", 0j)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_max_residual_rejects_nan_anywhere(self, position):
        residuals = [0.5, 0.25, 0.125]
        assert max_residual(residuals) == 0.5
        residuals[position] = math.nan
        with pytest.raises(RangeError):
            max_residual(residuals)


class TestPrecisionGuard:
    """Each of these cocycles satisfies the identity by construction, yet its
    exponents pass eps * 2^52 / (2*pi), where a double no longer resolves them mod 1:
    the sampled residual would be rounding noise (1.99, 0.05, 7.7e-4 and 5.1e-8
    here, against eps = 1e-9)."""

    @pytest.mark.parametrize(
        "s, g",
        [(0, (0j, 1e300 + 0j)), (10**11, ()), (0, (0j, 1e10 + 0j)), (10**5, ())],
        ids=["g1=1e300", "s=1e11", "g1=1e10", "s=1e5"],
    )
    def test_unresolvable_exponents_are_precision_errors(self, l1, s, g):
        with pytest.raises(PrecisionError, match="cannot resolve"):
            verify_cocycle_identity(Cocycle(s, 1.0, ExponentPoly(g), l1), samples=1000)

    def test_resolvable_large_s_answers(self, l1):
        assert verify_cocycle_identity(Cocycle(10**3, 1.0, ExponentPoly.zero(), l1), samples=1000) < 1e-9

    def test_limit_follows_the_tolerance(self, l1, monkeypatch):
        assert resolvable_exponent() == 1e-9 * 2.0**52 / (2 * math.pi)
        a = Cocycle(10**5, 1.0, ExponentPoly.zero(), l1)
        monkeypatch.setenv("QTLINE_TOLERANCE", "1e-6")
        assert resolvable_exponent() == 1e-6 * 2.0**52 / (2 * math.pi)
        assert verify_cocycle_identity(a, samples=1000) < 1e-6

    def test_kernel_checks_both_exponents(self):
        limit = resolvable_exponent()
        assert exponent_residual(limit + 0j, limit + 0j, limit) == 0.0
        for x, y in [(2 * limit, 0j), (0j, 2j * limit)]:
            with pytest.raises(PrecisionError):
                exponent_residual(x, y, limit)


# Range lengths on both sides of powers of two, where n.bit_length() and
# (n - 1).bit_length() differ, and the lengths the verifiers use (21, 11, 6).
DRAW_LENGTHS = (1, 2, 3, 4, 6, 8, 11, 16, 21, 32, 33)


class TestSampledDraws:
    @pytest.mark.parametrize("n", DRAW_LENGTHS)
    def test_draws_are_randrange_and_uniform_at_every_range_length(self, n):
        # each integer is r.start + randrange(len(r)) and v is two uniform draws,
        # the same RNG calls and values as a plain random.Random(seed) loop
        coords = (range(-(n // 2), n - n // 2), range(3, 3 + n))
        for seed in range(6):
            seen = []

            def spy(*sample):
                seen.append(sample)
                return 0j, 0j

            assert sampled_residuals(spy, 40, seed, coords, 2.5) == [0.0] * 40
            rng = random.Random(seed)
            want = []
            for _ in range(40):
                ints = tuple(rng.randrange(len(r)) + r.start for r in coords)
                want.append(ints + (complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),))
            assert seen == want, (n, seed)
            assert {sample[1] for sample in seen} <= set(coords[1])

    def test_empty_range_is_refused(self):
        with pytest.raises(PreconditionError, match="non-empty"):
            sampled_residuals(lambda *sample: (0j, 0j), 1, 0, (range(-1, 2), range(0)))
