import cmath
import inspect
import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import qtline
from qtline import (
    AltForm,
    Cocycle,
    DomainError,
    ExponentPoly,
    FormatError,
    LambdaPoint,
    LatticeVector,
    PreconditionError,
    Pseudolattice,
    QTLineError,
    QuadReal,
    RangeError,
    approx_eq,
    chern_numeric,
    coboundary,
    commutator_pairing,
    dichotomy_check,
    lattice_golden,
    lattice_sqrt2,
    membership_multiplier,
    modulus_obstruction_demo,
    multiplier_residual,
    solve_theta,
    theta_residuals,
    tolerance,
    triviality_test,
    verify_cocycle_identity,
)
from qtline import numeric
from qtline.numeric import MAX_RADICAND, TOLERANCE_ENV_VAR
from helpers import ExactReal, real_value

mp.mp.dps = 50


def sqrt2(a, b):
    return ExactReal(Fraction(a), Fraction(b), 2)


def conjugate(x):
    """a - b*sqrt(d), the Galois conjugate of x = a + b*sqrt(d).  Test oracle only."""
    return ExactReal(x.a, -x.b, x.d)


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def quadreals(d=2):
    return st.builds(lambda a, b: ExactReal(a, b, d), small_fractions, small_fractions)


class TestArithmetic:
    def test_add_identity_components(self):
        assert sqrt2(1, 0) + sqrt2(0, 1) == sqrt2(1, 1)

    def test_conjugate_product_is_norm(self):
        # (1 + sqrt2)(1 - sqrt2) = a^2 - D b^2 = -1, by rational arithmetic
        x = sqrt2(1, 1)
        assert x * conjugate(x) == sqrt2(x.norm, 0)
        assert x * sqrt2(1, -1) == sqrt2(-1, 0)

    def test_mismatched_radicand_rejected(self):
        with pytest.raises(DomainError):
            sqrt2(1, 1) + QuadReal(Fraction(1), Fraction(1), 3)
        with pytest.raises(DomainError):
            sqrt2(1, 1) * QuadReal.sqrt(5)

    def test_float_coefficients_rejected(self):
        with pytest.raises(DomainError, match="^QuadReal coefficient a must be an int or a Fraction, got float$"):
            QuadReal(0.5, 0, 2)
        with pytest.raises(DomainError, match="^QuadReal coefficient b must be an int or a Fraction, got bool$"):
            QuadReal(1, True, 2)

        class Half(Fraction):
            pass

        # a Fraction subclass passes the gate and is stored as given
        half = Half(1, 2)
        x = QuadReal(half, half, 2)
        assert x.a is half and x.b is half

    def test_non_square_free_radicand_rejected(self):
        for bad in (0, 1, 4, 8, 9, 12, -2):
            with pytest.raises(DomainError):
                QuadReal(Fraction(1), Fraction(1), bad)

    def test_radicand_cap(self):
        # 10**9 = 2^9 * 5^9 is not square-free; 999999998 = 2 * 499999999 is the
        # largest square-free radicand under the cap, and 10**9 + 1 =
        # 7 * 11 * 13 * 19 * 52579 is square-free, so only the cap rejects it
        assert MAX_RADICAND == 10**9
        assert QuadReal.sqrt(999_999_998).d == 999_999_998
        with pytest.raises(DomainError, match="radicand"):
            QuadReal.sqrt(MAX_RADICAND + 1)

    def test_square_free_test_runs_once_per_radicand(self):
        numeric._is_square_free.cache_clear()
        x = ExactReal(Fraction(1, 3), Fraction(2), 999983)
        for _ in range(4):
            x = x * conjugate(x) + x / 7 - x.reciprocal()
        Pseudolattice(QuadReal.rational(1, 999983), x).convergents(5)
        info = numeric._is_square_free.cache_info()
        assert info.misses == 1 and info.hits >= 20

    def test_division(self):
        x = sqrt2(3, -2)
        assert (x / x) == sqrt2(1, 0)
        assert sqrt2(0, 2) / sqrt2(0, 1) == sqrt2(2, 0)

    @given(quadreals(), quadreals())
    def test_additive_inverse(self, x, y):
        assert x + (-x) == sqrt2(0, 0)
        assert (x + y) - y == x

    @given(quadreals(), quadreals(), quadreals())
    def test_field_axioms_exact(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quadreals())
    def test_reciprocal(self, x):
        if x:
            assert x * x.reciprocal() == sqrt2(1, 0)


class TestFloatConversion:
    def test_sqrt2(self):
        got = float(ExactReal.sqrt(2))
        assert abs(got - float(mp.sqrt(2))) < 1e-12
        assert abs(got - float(mp.sqrt(2))) <= 4 * math.ulp(got)

    def test_rational_exact(self):
        assert float(sqrt2(1, 0)) == 1.0
        assert float(ExactReal(Fraction(7, 8), Fraction(0), 5)) == 0.875

    def test_cancellation(self):
        # 3 - 2*sqrt(2): heavy cancellation, still correctly rounded
        got = float(sqrt2(3, -2))
        want = float(mp.mpf(3) - 2 * mp.sqrt(2))
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got - want) <= 4 * math.ulp(got)

    @given(quadreals(), quadreals())
    def test_monotone(self, x, y):
        if x == y:
            assert float(x) == float(y)
        elif (x - y).sign() < 0:
            assert float(x) <= float(y)
        else:
            assert float(x) >= float(y)

    @given(quadreals())
    def test_sign_matches_highprec(self, x):
        value = mp.mpf(x.a.numerator) / x.a.denominator + (mp.mpf(x.b.numerator) / x.b.denominator) * mp.sqrt(2)
        expected = 0 if value == 0 else (1 if value > 0 else -1)
        assert x.sign() == expected

    @given(quadreals())
    def test_floor_matches_highprec(self, x):
        value = mp.mpf(x.a.numerator) / x.a.denominator + (mp.mpf(x.b.numerator) / x.b.denominator) * mp.sqrt(2)
        assert math.floor(x) == int(mp.floor(value))

    def test_floor_near_integer(self):
        # 99/70 is a convergent of sqrt(2) from above: 99 - 70*sqrt(2) ~ +0.005
        assert math.floor(sqrt2(99, -70)) == 0
        assert math.floor(sqrt2(-99, 70)) == -1
        # 239/169 approaches from below: 239 - 169*sqrt(2) ~ -0.003
        assert math.floor(sqrt2(239, -169)) == -1
        assert math.floor(sqrt2(-239, 169)) == 0

    def test_floor_far_from_float_guess(self):
        # the double nearest 10**30 + 12346 is about 2e13 away from it
        assert math.floor(sqrt2(10**30 + 12345, 1)) == 10**30 + 12346
        assert math.floor(sqrt2(-(10**30) - 12345, -1)) == -(10**30) - 12347

    def test_floor_beyond_double_range(self):
        assert math.floor(sqrt2(10**400, 1)) == 10**400 + 1
        assert math.floor(sqrt2(-(10**400), 1)) == -(10**400) + 1
        assert math.floor(sqrt2(0, 10**400)) == math.isqrt(2 * 10**800)


def enclosure_float(x, bits=200):
    """The former QuadReal.__float__: a + b*s with s = floor(sqrt(d)*2^bits)/2^bits.
    Kept here only as a test oracle.  Returns None where the enclosure
    [a + b*s, a + b*(s + 2^-bits)] does not round to a single double."""
    s = Fraction(math.isqrt(x.d << (2 * bits)), 1 << bits)
    lo, hi = float(x.a + x.b * s), float(x.a + x.b * (s + Fraction(1, 1 << bits)))
    return lo if lo == hi else None


def assert_nearest_double(x):
    """float(x) equals the enclosure oracle widened by 2*log2|b| bits, which
    certifies itself for every x here, and equals the 200-bit oracle wherever
    that one certifies itself.  Returns (float(x), the 200-bit oracle)."""
    got = float(x)
    widened = enclosure_float(x, 200 + 2 * abs(x.b.numerator).bit_length())
    assert widened is not None and got == widened
    old = enclosure_float(x)
    assert old is None or got == old
    return got, old


radicands = st.sampled_from([2, 3, 5, 7, 13, 61, 94, 9973, 999983, 999999998])
wide_fractions = st.fractions(min_value=-(2**90) + 1, max_value=2**90 - 1, max_denominator=1000)


def sqrt_d_lattice(d):
    return Pseudolattice(QuadReal.rational(1, d), QuadReal.sqrt(d))


class TestFloatAgainstEnclosure:
    """float(x) is the double nearest x, computed on integers by quad_float."""

    @given(wide_fractions, wide_fractions, radicands)
    def test_random_elements_match_enclosure(self, a, b, d):
        got, old = assert_nearest_double(ExactReal(a, b, d))
        # away from cancellation the 200-bit enclosure certifies itself, so
        # the two conversions are bit-identical
        if abs(b) < 2**60 and abs(got) > 2**-60:
            assert got == old

    @given(radicands, st.integers(0, 120), st.sampled_from([1, -1, Fraction(1, 3), Fraction(-7, 2)]))
    @example(2, 120, 1)
    def test_near_cancelling_values(self, d, index, scale):
        # scale*(p - q*sqrt(d)) for a convergent p/q of sqrt(d) with q < 2^90,
        # of size about scale/q
        conv = [c for c in sqrt_d_lattice(d).convergents(index + 1) if c.q < 2**90][-1]
        assert_nearest_double(ExactReal(scale * conv.p, -scale * conv.q, d))

    def test_sqrt2_residuals_past_the_old_enclosure(self):
        # the old enclosure's error q*2^-200 passes half an ulp of the residual
        # ~1/q near index 59 (q ~ 2^75) and the residual itself near index 80
        lat = sqrt_d_lattice(2)
        residuals = [real_value(lat, LatticeVector(c.p, -c.q)) for c in lat.convergents(200)]
        uncertified = [k for k, x in enumerate(residuals) if enclosure_float(x) is None]
        assert uncertified[0] >= 55 and uncertified[-1] == 199
        for x in residuals:
            got, _ = assert_nearest_double(x)
            assert 0 < abs(got) * abs(x.b) < 1

    def test_float_beyond_double_range_raises(self):
        for x in (sqrt2(10**400, 1), sqrt2(0, -(10**400)), sqrt2(Fraction(10**400), 0)):
            with pytest.raises(RangeError):
                float(x)
        assert float(sqrt2(Fraction(1, 10**400), 1)) == float(mp.sqrt(2))


# Up to 10^400: with |a|, |b|, |den| <= 10^400 and d <= 10^6, (a + b*sqrt(d))/den
# lies at least about 10^-803 from an integer unless it is one, which 1200
# digits resolve.
big = st.integers(0, 10**400)


class TestSurdFloor:
    """surd_floor(a, b, d, den) = floor((a + b*sqrt(d))/den), against mpmath."""

    @pytest.mark.parametrize(
        "signs", list(product((1, -1), repeat=3)), ids=lambda signs: "".join("+-"[s < 0] for s in signs)
    )
    @settings(max_examples=40, deadline=None)
    @given(a=big, b=st.just(0) | big, d=st.integers(0, 10**6) | st.sampled_from([0, 1, 4, 2, 999983]), den=big)
    @example(a=10**400, b=10**400, d=999983, den=1)
    @example(a=7, b=0, d=2, den=2)
    @example(a=6, b=3, d=4, den=4)
    @example(a=0, b=1, d=2, den=10**400)
    def test_matches_mpmath(self, signs, a, b, d, den):
        sa, sb, sden = signs
        a, b, den = sa * a, sb * b, sden * (den or 1)
        with mp.workdps(1200):
            want = int(mp.floor((mp.mpf(a) + b * mp.sqrt(d)) / den))
        assert numeric.surd_floor(a, b, d, den) == want


class TestTolerance:
    def test_approx_eq_cases(self):
        assert approx_eq(1 + 0j, 1 + 1e-12j)
        assert not approx_eq(1 + 0j, 1.1 + 0j)
        assert approx_eq(0j, 0j)

    def test_validation(self, monkeypatch):
        for raw in ("0", "-0.0", "1e-400"):  # the last underflows to 0.0
            monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
            with pytest.raises(DomainError, match="finite and strictly positive"):
                tolerance()

    def test_default(self):
        assert tolerance() == 1e-9

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-3")
        assert tolerance() == 1e-3

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_rejected(self, monkeypatch, eps):
        for raw in (str(eps), f"-{eps}"):
            monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
            with pytest.raises(DomainError):
                tolerance()

    @pytest.mark.parametrize(
        "raw, error",
        [("abc", FormatError), ("", FormatError), ("inf", DomainError), ("-1e-3", DomainError)],
    )
    def test_env_override_rejects_bad_values(self, monkeypatch, raw, error):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
        with pytest.raises(error):
            tolerance()


def _outcome(call):
    """The name of the QTLineError that call raises, or "ok"."""
    try:
        call()
    except QTLineError as exc:
        return type(exc).__name__
    return "ok"


_S2 = lattice_sqrt2()
# Pic^0 invariant 1e-4 from e^{2*pi*i*0*theta}, and a modulus 1e-4 off the unit circle.
_NEAR_WITNESS = Cocycle(0, cmath.exp(1e-4j), ExponentPoly.zero(), _S2)
_NEAR_UNIT = Cocycle(0, 1.0001, ExponentPoly.zero(), _S2)
# Its four-term sum has imaginary part 8.9e-16 at this sample point.
_CHERN_2 = Cocycle(2, 1.3 + 0.7j, ExponentPoly((0j, 0.3 + 0.1j, 0.2 - 0.4j)), _S2)

# consumer: (QTLINE_TOLERANCE, probe, result at the default 1e-9, result at that value)
TOLERANCE_CONSUMERS = {
    "approx_eq": ("1e-3", lambda: approx_eq(1.0, 1.0001), False, True),
    "triviality_test": ("1e-3", lambda: triviality_test(_NEAR_WITNESS, bound=10).witness, None, 0),
    "solve_theta": ("1e-3", lambda: solve_theta(_NEAR_WITNESS, bound=10).solved, False, True),
    "modulus_obstruction_demo": (
        "1e-3",
        lambda: _outcome(lambda: modulus_obstruction_demo(_NEAR_UNIT)),
        "ok",
        "PreconditionError",
    ),
    "chern_numeric": (
        "1e-300",
        lambda: _outcome(lambda: chern_numeric(_CHERN_2, LatticeVector(1, 0), LatticeVector(0, 1), 1.1 - 0.4j)),
        "ok",
        "ConsistencyError",
    ),
    "commutator_pairing": (
        "1e-300",
        lambda: _outcome(lambda: commutator_pairing(_CHERN_2, LambdaPoint(1, 0, 2), LambdaPoint(0, 1, 2))),
        "ok",
        "PrecisionError",
    ),
    "dichotomy_check": ("1e-300", lambda: _outcome(lambda: dichotomy_check(_CHERN_2)), "ok", "PrecisionError"),
}


@pytest.mark.parametrize("consumer", sorted(TOLERANCE_CONSUMERS))
def test_tolerance_env_reaches_every_consumer(monkeypatch, consumer):
    raw, probe, at_default, at_raw = TOLERANCE_CONSUMERS[consumer]
    assert probe() == at_default
    monkeypatch.setenv(TOLERANCE_ENV_VAR, raw)
    assert probe() == at_raw


def test_no_public_callable_takes_a_tolerance():
    # QTLINE_TOLERANCE is the one knob: no function or method takes a per-call tol.
    takers = []
    for name in qtline.__all__:
        obj = getattr(qtline, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()]
        for label, member in members:
            func = getattr(member, "__func__", member)  # unwrap static and class methods
            if inspect.isfunction(func) and "tol" in inspect.signature(func).parameters:
                takers.append(label)
    assert takers == []


class TestArgumentGates:
    """One gate per kind of scalar argument (README, "Argument contract"); each
    case here answered or raised a bare builtin exception before the gates."""

    @pytest.mark.parametrize("s", ["x", True, 1.5])
    def test_alt_form_s_is_an_integer(self, s):
        # AltForm stored 'x', True and 1.5
        with pytest.raises(DomainError, match="^s must be an integer$"):
            AltForm(s)

    def test_chern_numeric_v_is_a_number(self):
        a = Cocycle(2, 1.0, ExponentPoly.zero(), lattice_sqrt2())
        with pytest.raises(DomainError, match="^v must be a number$"):
            chern_numeric(a, LatticeVector(1, 0), LatticeVector(0, 1), "x")

    def test_approx_eq_takes_numbers(self):
        with pytest.raises(DomainError, match="^x must be a number$"):
            approx_eq("a", "b")
        with pytest.raises(DomainError, match="^y must be a number$"):
            approx_eq(1.0, [])

    @pytest.mark.parametrize("x", [math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 0)])
    def test_approx_eq_equates_no_infinity(self, x):
        # |inf - 1| <= eps + eps*inf held, so approx_eq(inf, 1.0) was True
        assert not approx_eq(x, 1.0) and not approx_eq(1.0, x) and not approx_eq(x, x)

    @pytest.mark.parametrize("s", [0, 2])
    @pytest.mark.parametrize("samples", [2.5, True, "3"])
    def test_dichotomy_checks_samples_on_either_branch(self, s, samples):
        # with s != 0 nothing is sampled, and samples=2.5 answered a report
        a = Cocycle(s, 1.0, ExponentPoly.zero(), lattice_sqrt2())
        with pytest.raises(PreconditionError, match="^samples must be an integer$"):
            dichotomy_check(a, samples=samples)
        with pytest.raises(DomainError, match="^seed must be an integer$"):
            dichotomy_check(a, seed=str(samples))

    @pytest.mark.parametrize("seed", [[], "x", 1.5, True, None])
    def test_seeds_are_integers(self, seed):
        # random.Random took 'x', 1.5, True and None, and raised a bare TypeError for []
        lat = lattice_sqrt2()
        a, lifted = Cocycle(0, 1.0, ExponentPoly.zero(), lat), Cocycle(2, 1.0, ExponentPoly.zero(), lat)
        checks = [
            lambda: verify_cocycle_identity(a, samples=5, seed=seed),
            lambda: theta_residuals(a, solve_theta(a).candidate, samples=5, seed=seed),
            lambda: multiplier_residual(lifted, membership_multiplier(lifted, LambdaPoint(1, 0, 2)), 5, seed),
            lambda: dichotomy_check(a, samples=5, seed=seed),
        ]
        for check in checks:
            with pytest.raises(DomainError, match="^seed must be an integer$"):
                check()

    @pytest.mark.parametrize("count", [1.5, 2.5, True, "3", None])
    def test_counts_are_integers(self, count):
        # a float count raised a bare TypeError from range or <, True ran as 1
        lat = lattice_golden()
        runs = {
            "samples": lambda: verify_cocycle_identity(Cocycle(1, 1.0, ExponentPoly.zero(), lat), samples=count),
            "terms": lambda: modulus_obstruction_demo(Cocycle(0, 2.0, ExponentPoly.zero(), lat), terms=count),
            "n": lambda: lat.convergents(count),
            "bound": lambda: triviality_test(Cocycle(0, 1.0, ExponentPoly.zero(), lat), count),
        }
        for what, run in runs.items():
            with pytest.raises(PreconditionError, match=f"^{what} must be an integer$"):
                run()

    def test_a_lift_denominator_is_a_positive_integer(self):
        for s, message in [(0, "need LambdaPoint denominator >= 1"), (2.0, "LambdaPoint denominator must be an integer")]:
            with pytest.raises(DomainError, match=f"^{message}$"):
                LambdaPoint(1, 0, s)

    def test_a_false_coboundary_slope_is_no_number(self):
        # beta != 0 was False for beta=False, which then built the cocycle of g alone
        with pytest.raises(DomainError, match="must be a number"):
            coboundary(ExponentPoly((0, 1.0)), False, lattice_sqrt2())
        assert coboundary(ExponentPoly((0, 1.0)), 0, lattice_sqrt2()).g == ExponentPoly((0, 1.0))
