import math
import pickle
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qtline import (
    Convergent,
    DomainError,
    LatticeVector,
    PreconditionError,
    Pseudolattice,
    QuadReal,
    RangeError,
    lattice_golden,
    lattice_sqrt2,
    pseudolattice,
)
from qtline.numeric import surd_floor
from helpers import (
    CERTIFY_LATTICES,
    EDGE_LATTICES,
    ExactReal,
    exact,
    exact_frac,
    real_value,
    surd_form,
    surd_frac_combination,
    theta_exact,
)

mp.mp.dps = 60

radicands = st.sampled_from([2, 3, 5, 6, 7, 13, 61, 94, 9973, 999983])
coefficients = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=1000)
nonzero_coefficients = coefficients.filter(lambda f: f != 0)


def oracle_convergents(x, n):
    """Independent continued-fraction route through 60-digit floats."""
    terms = []
    y = mp.mpf(x)
    for _ in range(n):
        a = int(mp.floor(y))
        terms.append(a)
        y = 1 / (y - a)
    convs = []
    p_prev, p = 1, terms[0]
    q_prev, q = 0, 1
    convs.append((p, q))
    for a in terms[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        convs.append((p, q))
    return convs


class TestConstruction:
    def test_theta_sqrt2(self, l1):
        assert l1.theta == pytest.approx(float(mp.sqrt(2)), abs=1e-12)
        assert theta_exact(l1) == QuadReal.sqrt(2)

    def test_common_factor_cancels(self):
        lat = Pseudolattice(QuadReal.rational(2, 2), QuadReal(Fraction(0), Fraction(2), 2))
        assert theta_exact(lat) == QuadReal.sqrt(2)

    def test_theta_golden(self, l2):
        assert l2.theta == pytest.approx(float((1 + mp.sqrt(5)) / 2), abs=1e-12)

    def test_rational_slope_rejected(self):
        with pytest.raises(DomainError):
            Pseudolattice(QuadReal.rational(2, 2), QuadReal.rational(3, 2))
        with pytest.raises(DomainError):
            # omega2 = (3/2) * omega1 even though both carry sqrt(2) parts
            Pseudolattice(QuadReal(Fraction(1), Fraction(1), 2), QuadReal(Fraction(3, 2), Fraction(3, 2), 2))

    def test_zero_omega1_rejected(self):
        with pytest.raises(DomainError):
            Pseudolattice(QuadReal.rational(0, 2), QuadReal.sqrt(2))

    def test_mixed_fields_rejected(self):
        with pytest.raises(DomainError):
            Pseudolattice(QuadReal.rational(1, 2), QuadReal.sqrt(3))

    def test_omega_beyond_double_range_rejected(self):
        # a 401-digit omega2 has no double value to evaluate cocycles with
        with pytest.raises(RangeError):
            Pseudolattice(QuadReal.rational(1, 2), QuadReal(Fraction(10**400), Fraction(1), 2))

    def test_theta_kept_from_construction(self, l2):
        assert theta_exact(l2) is theta_exact(l2) and l2.theta is l2.theta
        assert theta_exact(l2) == exact(l2.omega2) / l2.omega1

    @pytest.mark.parametrize("coords", [(True, False), (1, True), (False, 0)])
    def test_boolean_coordinates_rejected(self, coords):
        with pytest.raises(DomainError):
            LatticeVector(*coords)

    def test_vector_negation(self):
        assert -LatticeVector(3, -2) == LatticeVector(-3, 2)
        assert LatticeVector(3, -2) + -LatticeVector(3, -2) == LatticeVector(0, 0)

    def test_real_value(self, l1):
        assert real_value(l1, LatticeVector(1, 0)) == l1.omega1
        assert real_value(l1, LatticeVector(0, 0)) == QuadReal.rational(0, 2)
        assert real_value(l1, LatticeVector(3, -2)) == QuadReal(Fraction(3), Fraction(-2), 2)


class TestConvergents:
    def test_sqrt2_first_four(self, l1):
        got = [(c.p, c.q) for c in l1.convergents(4)]
        assert got == [(1, 1), (3, 2), (7, 5), (17, 12)]

    def test_golden_first_five(self, l2):
        got = [(c.p, c.q) for c in l2.convergents(5)]
        assert got == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    @pytest.mark.parametrize("fix", ["l1", "l2"])
    def test_against_highprec_oracle(self, fix, request):
        lat = request.getfixturevalue(fix)
        got = [(c.p, c.q) for c in lat.convergents(12)]
        assert got == oracle_convergents(_theta_mpf(lat), 12)

    def test_needs_positive_n(self, l1):
        with pytest.raises(PreconditionError):
            l1.convergents(0)

    def test_conv5_bound_numeric(self, l1):
        # k = 1: |3*omega1 - 2*omega2| = |3 - 2 sqrt 2| < 1/2
        value = abs(float(real_value(l1, LatticeVector(3, -2))))
        assert value == pytest.approx(0.1715728753, abs=1e-9)
        assert value < 0.5

    @pytest.mark.parametrize("fix", ["l1", "l2"])
    def test_conv5_bound_first_20_exact_and_float(self, fix, request):
        lat = request.getfixturevalue(fix)
        w1_abs = abs(exact(lat.omega1))
        for conv in lat.convergents(20):
            residual = real_value(lat, LatticeVector(conv.p, -conv.q))
            # exact: q*|residual| < |omega1|
            assert (w1_abs - abs(residual) * conv.q).sign() > 0
            # float route
            assert abs(float(residual)) < abs(lat.omega1_float) / conv.q

    def test_huge_first_term(self):
        lat = Pseudolattice(QuadReal.rational(1, 2), QuadReal(Fraction(10**30 + 12345), Fraction(1), 2))
        assert lat.cf_terms(4) == [10**30 + 12346, 2, 2, 2]

    def test_denominators_increase_from_index_one(self, l2):
        qs = [c.q for c in l2.convergents(10)]
        assert qs[0] == qs[1] == 1  # golden ratio starts with two unit denominators
        assert all(qs[i] < qs[i + 1] for i in range(1, len(qs) - 1))


def _theta_mpf(lat):
    def to_mpf(x):
        return mp.mpf(x.a.numerator) / x.a.denominator + (mp.mpf(x.b.numerator) / x.b.denominator) * mp.sqrt(x.d)

    return to_mpf(lat.omega2) / to_mpf(lat.omega1)


class TestSmallVectors:
    def test_values_sqrt2(self, l1):
        values = [float(real_value(l1, v)) for v in l1.small_vectors(3)]
        assert values == pytest.approx([-0.41421356, 0.17157288, -0.07106781], abs=1e-7)

    def test_coefficients(self, l1):
        assert [v.b for v in l1.small_vectors(3)] == [-1, -2, -5]

    @pytest.mark.parametrize("fix", ["l1", "l2"])
    def test_strictly_shrinking(self, fix, request):
        lat = request.getfixturevalue(fix)
        values = [abs(float(real_value(lat, v))) for v in lat.small_vectors(11)]
        assert all(values[i + 1] < values[i] for i in range(10))
        # golden ratio is the slowest-converging case: ~phi^{-n}
        assert values[10] < 0.01


class TestDensity:
    @pytest.mark.parametrize("fix", ["l1", "l2"])
    @pytest.mark.parametrize("frac", [0.0, 0.05, 0.31, 0.5, 0.77, 0.99])
    def test_hits_targets(self, fix, frac, request):
        lat = request.getfixturevalue(fix)
        target = frac * abs(lat.omega1_float)
        vec = lat.approximate_real(target, eps=1e-3)
        assert abs(float(real_value(lat, vec)) - target) < 1e-3

    def test_eps_validation(self, l1):
        with pytest.raises(PreconditionError):
            l1.approximate_real(0.5, eps=0.0)

    @settings(deadline=None)
    @given(
        nonzero_coefficients, coefficients, coefficients, nonzero_coefficients, radicands,
        st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from([1e6, -3e12, 1e300])),
        st.sampled_from([1e-3, 1e-9, 1e-300]),
        st.sampled_from([1, 2, 5, 60]),
    )
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 0.3, 1e-3, 60)  # reached with 8 terms
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 0.3, 1e-3, 5)  # out of terms
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 0.0005, 1e-3, 1)  # reached with no term
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 1e300, 1e-3, 60)  # past what a float gap resolves
    # over omega1 = sqrt(2), omega2 = 1 + sqrt(2) the first vector, omega1 - omega2 = -1,
    # is rational: integer quotients -3 (target 3) and +2 (target -2) leave a gap of 0
    @example(Fraction(0), Fraction(1), Fraction(1), Fraction(1), 2, 3.0, 1e-3, 60)
    @example(Fraction(0), Fraction(1), Fraction(1), Fraction(1), 2, -2.0, 1e-3, 60)
    # the gap is kept over the larger of the two power-of-two denominators
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 1 / 3, 0.125, 60)  # target's, 2^54
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, 0.3, 2**-1074, 60)  # eps's; out of terms
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, -0.0, 1e-3, 60)
    # the rational first vector -1 leaves a gap of exactly eps from 3.125: (-3, 3)
    @example(Fraction(0), Fraction(1), Fraction(1), Fraction(1), 2, 3.125, 0.125, 60)
    def test_approximate_real_matches_exact_values(self, a1, b1, a2, b2, d, target, eps, max_terms):
        omega1, omega2 = ExactReal(a1, b1, d), ExactReal(a2, b2, d)
        assume((omega2 / omega1).b != 0)
        lat = Pseudolattice(omega1, omega2)
        vectors = [LatticeVector(p, -q) for p, q in eager_convergents(lat, max_terms)]
        values = [float(real_value(lat, v)) for v in vectors]
        assert [lat.rounded_combination(v.a, v.b) for v in vectors] == values
        got = outcome(lambda: lat.approximate_real(target, eps, max_terms))
        assert got == outcome(lambda: exact_greedy_descent(lat, vectors, target, eps))
        if abs(target) <= 5:  # where a double resolves the gap, the float loop agrees
            assert got == outcome(lambda: greedy_descent(vectors, values, target, eps))

    @pytest.mark.parametrize(
        "target, eps",
        [(math.inf, 1e-3), (-math.inf, 1e-3), (math.nan, 1e-3), (0.5, math.nan), (0.5, math.inf), (0.5, -1e-3)],
    )
    def test_non_finite_input_is_a_precondition_error(self, l1, target, eps):
        # inf used to raise OverflowError, nan ValueError, and eps = nan returned a vector
        with pytest.raises(PreconditionError, match="finite"):
            l1.approximate_real(target, eps)

    @pytest.mark.parametrize("fix", ["l1", "l2"])
    @pytest.mark.parametrize(
        "target", [1e12, 1e13, -1e13, 3e13, 1e14, 1e15, -1e15, 1e16, 1e20, 1e300, -1e300]
    )
    def test_large_targets_are_right_or_flagged(self, fix, target, request):
        lat = request.getfixturevalue(fix)
        vec = lat.approximate_real(target, eps=1e-3)
        assert (abs(real_value(lat, vec) - Fraction(target)) - Fraction(1e-3)).sign() <= 0

    @pytest.mark.parametrize(
        "fix, target, missed_by",
        [
            ("l1", 1e16, 626.0),
            ("l1", 1e20, 1.97e6),
            ("l1", 1e300, 1.9e286),
            ("l1", -14704234440005.0, 1.30),
            ("l1", 11770998519450.0, 1.22),
            ("l2", -25300789913140.0, 1.009),
            ("l2", -10282050111588.0, 1.066),
        ],
    )
    def test_unresolvable_target_is_flagged(self, fix, target, missed_by, request):
        # a float gap returned a vector missed_by times eps from these targets, then
        # raised PrecisionError for them; the exact gap answers them within eps
        lat = request.getfixturevalue(fix)
        vec = lat.approximate_real(target, eps=1e-3)
        assert (abs(real_value(lat, vec) - Fraction(target)) - Fraction(1e-3)).sign() <= 0

    @pytest.mark.parametrize(
        "target, eps", [(Fraction(1, 3), 0.25), (Fraction(2, 3), 0.125), (0.3, Fraction(1, 10)), (2, 1)]
    )
    def test_rational_target_and_eps_are_read_as_doubles(self, l1, target, eps):
        # a power-of-two denominator was assumed: (1/3, 0.25) answered (0, 0), 1/3 away,
        # and (2/3, 0.125) a point 0.25 away
        vec = l1.approximate_real(target, eps)
        assert vec == l1.approximate_real(float(target), float(eps))
        assert (abs(real_value(l1, vec) - Fraction(float(target))) - Fraction(float(eps))).sign() <= 0

    @pytest.mark.parametrize(
        "target, error",
        [(10**400, PreconditionError), (-(10**400), PreconditionError), (True, DomainError), ("0.5", DomainError),
         (0.5 + 0j, DomainError)],
        ids=["10**400", "-10**400", "True", "'0.5'", "0.5+0j"],
    )
    def test_a_target_is_a_finite_real(self, l1, target, error):
        # 10**400 raised a bare OverflowError from math.isfinite
        with pytest.raises(error):
            l1.approximate_real(target)
        with pytest.raises(error):
            l1.approximate_real(0.5, eps=target)

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_no_terms_is_a_precondition_error(self, l1, target):
        # raised even where the target needs no term at all
        with pytest.raises(PreconditionError, match="need max_terms >= 1"):
            l1.approximate_real(target, max_terms=0)

    @pytest.mark.parametrize("max_terms", [5, 6, 8, 60])
    def test_gap_is_tested_at_the_start_and_after_each_move(self, l1, monkeypatch, max_terms):
        # From 0.3 on Z + Z*sqrt(2) the greedy descent takes the vectors (p_k, -q_k)
        # 0, 1, -1, 1, -2, 0, -1, 1 times and is within 1e-3 after the eighth.  A zero
        # count leaves the gap as it was last tested, so the stop test runs once at the
        # start and once after each nonzero count, never twice on one gap, and with
        # 5 or 6 terms the terms run out after a move and after a zero count.
        counts = [0, 1, -1, 1, -2, 0, -1, 1][:max_terms]
        tested = []
        within = pseudolattice._within
        monkeypatch.setattr(pseudolattice, "_within", lambda *gap: tested.append(gap) or within(*gap))
        got = outcome(lambda: l1.approximate_real(0.3, 1e-3, max_terms))
        vectors = l1.small_vectors(len(counts))
        reached = len(counts) == 8
        assert got == (
            LatticeVector(sum(c * v.a for c, v in zip(counts, vectors)), sum(c * v.b for c, v in zip(counts, vectors)))
            if reached
            else f"PreconditionError: could not reach 0.3 within 0.001 using {max_terms} convergents"
        )
        assert len(tested) == 1 + sum(c != 0 for c in counts) == len(set(tested))
        assert [within(*gap) for gap in tested] == [False] * (len(tested) - reached) + [True] * reached


def outcome(call):
    """The value of call(), or the message of the PreconditionError it raises."""
    try:
        return call()
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def exact_greedy_descent(lat, vectors, target, eps):
    """The greedy loop of approximate_real in the field arithmetic of ExactReal:
    subtract trunc(gap/value) times each vector until |gap| <= eps.  Test oracle only."""
    acc, gap, bound = LatticeVector(0, 0), ExactReal.rational(Fraction(target), lat.d), Fraction(eps)
    for vec in vectors:
        if (abs(gap) - bound).sign() <= 0:
            break
        value = real_value(lat, vec)
        ratio = gap / value
        count = math.floor(ratio) if ratio.sign() >= 0 else -math.floor(-ratio)
        acc = LatticeVector(acc.a + count * vec.a, acc.b + count * vec.b)
        gap -= value * count
    if (abs(gap) - bound).sign() > 0:
        raise PreconditionError(f"could not reach {target} within {eps} using {len(vectors)} convergents")
    return acc


def greedy_descent(vectors, values, target, eps):
    """The greedy loop of approximate_real on precomputed float(real_value(v)),
    as it was before it kept its gap on integers, rounded each value on integers
    and walked the expansion lazily.  Test oracle only."""
    acc, remaining = LatticeVector(0, 0), target
    for vec, val in zip(vectors, values):
        if abs(remaining) <= eps:
            break
        if val == 0.0 or abs(val) > abs(remaining):
            continue
        count = int(remaining / val)
        if count:
            acc = LatticeVector(acc.a + count * vec.a, acc.b + count * vec.b)
            remaining -= count * val
    if abs(remaining) > eps:
        raise PreconditionError(f"could not reach {target} within {eps} using {len(vectors)} convergents")
    return acc


def eager_convergents(lat, n):
    """(p_k, q_k) for k < n from the former loops: every partial quotient by the
    integer recurrence first, then the convergent recurrence over that list.
    Test oracle only."""
    p, big_n, q = surd_form(theta_exact(lat))
    terms = []
    for _ in range(n):
        k = surd_floor(p, 1, big_n, q)
        terms.append(k)
        p = k * q - p
        q = (big_n - p * p) // q
    p_prev, p = 1, terms[0]
    q_prev, q = 0, 1
    out = [(p, q)]
    for a in terms[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def float_guess_floor(x):
    """The former QuadReal.__floor__: a float guess fixed up by exact sign tests.
    Kept here only as a test oracle for the integer floor."""
    if x.b == 0:
        return math.floor(x.a)
    n = math.floor(float(x))
    while (x - n).sign() < 0:
        n -= 1
    while (x - (n + 1)).sign() >= 0:
        n += 1
    return n


def reciprocal_cf_terms(theta, n):
    """The former cf_terms loop: floor, subtract, invert in Q(sqrt(D))."""
    terms = []
    for _ in range(n):
        k = float_guess_floor(theta)
        terms.append(k)
        theta = (theta - k).reciprocal()
    return terms


class TestIntegerRecurrence:
    """The integer floor and (P + sqrt N)/Q recurrence against the former
    float-guess floor and reciprocal loop."""

    @given(coefficients, coefficients, radicands)
    def test_floor_matches_float_guess_floor(self, a, b, d):
        x = ExactReal(a, b, d)
        assert math.floor(x) == float_guess_floor(x)

    @settings(deadline=None)
    @given(
        nonzero_coefficients, coefficients, coefficients, nonzero_coefficients, radicands, st.sampled_from([1, 5, 40])
    )
    @example(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 2), 5, 40)  # golden ratio, q0 = q1
    @example(Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(1, 2), 5, 40)  # 1/golden, q0 = q1
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(-1), 2, 40)  # -sqrt(2)
    def test_cf_terms_match_reciprocal_loop(self, a1, b1, a2, b2, d, n):
        omega1, omega2 = ExactReal(a1, b1, d), ExactReal(a2, b2, d)
        assume((omega2 / omega1).b != 0)
        lat = Pseudolattice(omega1, omega2)
        assert lat.cf_terms(n) == reciprocal_cf_terms(theta_exact(lat), n)

    @settings(deadline=None)
    @given(
        nonzero_coefficients, coefficients, coefficients, nonzero_coefficients, radicands, st.sampled_from([1, 5, 40])
    )
    @example(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 2), 5, 40)  # golden ratio, q0 = q1
    @example(Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(1, 2), 5, 40)  # 1/golden, q0 = q1
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(-1), 2, 40)  # -sqrt(2)
    def test_convergents_and_small_vectors_match_eager_loops(self, a1, b1, a2, b2, d, n):
        omega1, omega2 = ExactReal(a1, b1, d), ExactReal(a2, b2, d)
        assume((omega2 / omega1).b != 0)
        lat = Pseudolattice(omega1, omega2)
        want = eager_convergents(lat, n)
        assert [(c.p, c.q, c.index) for c in lat.convergents(n)] == [(p, q, k) for k, (p, q) in enumerate(want)]
        assert lat.small_vectors(n) == [LatticeVector(p, -q) for p, q in want]

    @pytest.mark.parametrize("method", ["cf_terms", "convergents", "small_vectors"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_every_reader_needs_positive_n(self, l2, method, n):
        with pytest.raises(PreconditionError, match="need n >= 1"):
            getattr(l2, method)(n)


def is_square_free(n):
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def quadreal_route(omega1, omega2, n):
    """The former constructor: theta = omega2/omega1 divided in Q(sqrt(D)), then
    (theta, omega1_float, omega2_float, cf_terms(n)) through surd_form and float(),
    or the message of the DomainError it raised first.  Test oracle only."""
    if omega1.d != omega2.d:
        return "omega1 and omega2 must live in the same quadratic field"
    if not omega1:
        return "omega1 must be nonzero"
    theta = omega2 / omega1
    if theta.b == 0:
        return "omega2/omega1 is rational; the subgroup is not dense in R"
    p, big_n, q = surd_form(theta)
    terms = []
    for _ in range(n):
        k = surd_floor(p, 1, big_n, q)
        terms.append(k)
        p = k * q - p
        q = (big_n - p * p) // q
    return float(theta), float(omega1), float(omega2), terms


def integer_route(omega1, omega2, n):
    try:
        lat = Pseudolattice(omega1, omega2)
    except DomainError as exc:
        return str(exc)
    assert theta_exact(lat) == omega2 / omega1
    return lat.theta, lat.omega1_float, lat.omega2_float, lat.cf_terms(n)


class TestIntegerConstruction:
    """Pseudolattice builds theta's Perron form from the omegas' integer
    coefficients; the former QuadReal division is the oracle."""

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(
        coefficients,
        st.one_of(st.just(Fraction(0)), coefficients),
        coefficients,
        coefficients,
        st.one_of(radicands, st.integers(2, 10**9).filter(is_square_free)),
        st.booleans(),
        st.sampled_from([None, "zero", "rational", "other field", "zero, other field", "rational, other field"]),
        nonzero_coefficients,
    )
    @example(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 2, False, None, Fraction(1))  # Z + Z*sqrt(2)
    @example(Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(1, 3), 7, False, None, Fraction(1))
    @example(Fraction(-3, 7), Fraction(2, 5), Fraction(1, 9), Fraction(-4, 3), 999999937, False, None, Fraction(1))
    def test_matches_quadreal_route(self, a1, b1, a2, b2, d, negate, broken, r):
        omega1 = ExactReal(a1, b1, d)
        omega2 = ExactReal(a2, -b2 if negate else b2, d)
        if broken and "zero" in broken:
            omega1 = ExactReal(0, 0, d)
        if broken and "rational" in broken:
            omega2 = omega1 * r
        if broken and "other field" in broken:
            omega2 = ExactReal(omega2.a, omega2.b, 3 if d == 2 else 2)
        # == on these doubles is bit for bit: none is NaN or zero
        assert integer_route(omega1, omega2, 40) == quadreal_route(omega1, omega2, 40)


def test_construction_and_walk_use_no_quadreal_arithmetic(monkeypatch):
    """Construction, the walk, approximate_real and theta stay on integers."""
    lattices = (lattice_sqrt2(), lattice_golden())
    want = [(lat.convergents(100), lat.approximate_real(2.345, 1e-9), lat.theta) for lat in lattices]

    def refuse(*args):
        raise AssertionError("QuadReal arithmetic on the Pseudolattice hot path")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "reciprocal",
                 "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__float__", "__floor__"):
        monkeypatch.setattr(QuadReal, name, refuse, raising=False)
    fresh = (lattice_sqrt2(), lattice_golden())
    assert [(lat.convergents(100), lat.approximate_real(2.345, 1e-9), lat.theta) for lat in fresh] == want


def test_convergents_build_rows_without_the_constructor(monkeypatch):
    """convergents builds each row straight from the walk, not through Convergent(...)."""
    lattices = (lattice_sqrt2(), lattice_golden())

    def refuse(*args, **kwargs):
        raise AssertionError("Convergent constructor on the convergents hot path")

    monkeypatch.setattr(Convergent, "__new__", refuse)
    for lat in lattices:
        got = lat.convergents(640)
        assert all(type(c) is Convergent for c in got)
        assert [(c.p, c.q, c.index) for c in got] == [(p, q, k) for k, (p, q) in enumerate(eager_convergents(lat, 640))]


huge = st.integers(0, 300).flatmap(lambda k: st.integers(-(10**k), 10**k))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(lat=st.sampled_from(CERTIFY_LATTICES), a=huge, b=st.one_of(st.just(0), huge), den=st.integers(1, 10**12))
@example(lat=CERTIFY_LATTICES[0], a=0, b=10**10, den=1)
@example(lat=CERTIFY_LATTICES[3], a=-7, b=-(10**300), den=10**12)
def test_frac_combination_matches_mpmath(lat, a, b, den):
    got = lat.frac_combination(a, b, den)
    assert 0.0 <= got <= 1.0
    assert abs(got - exact_frac(theta_exact(lat), a, b, den)) <= 2.0**-64 + 2.0**-53


@pytest.mark.parametrize("den", [0, -1, -(10**12)])
def test_frac_combination_needs_positive_den(den):
    with pytest.raises(PreconditionError):
        lattice_sqrt2().frac_combination(1, 1, den)


def test_frac_combination_uses_no_quadreal_arithmetic(monkeypatch):
    """The kernel reads the Perron triple only: integers end to end."""
    args = [(0, 1, 1), (3, -10**30, 7), (10**40, 10**20, 10**12), (5, 0, 3)]
    want = [[lat.frac_combination(*arg) for arg in args] for lat in CERTIFY_LATTICES]

    def refuse(*args):
        raise AssertionError("QuadReal arithmetic in frac_combination")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "reciprocal",
                 "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__float__", "__floor__"):
        monkeypatch.setattr(QuadReal, name, refuse, raising=False)
    fresh = [Pseudolattice(lat.omega1, lat.omega2) for lat in CERTIFY_LATTICES]
    assert [[lat.frac_combination(*arg) for arg in args] for lat in fresh] == want


# The fixed-point kernel against its surd_floor oracle: the certify and edge
# lattices, the golden ratio and a radicand near 10^6.
FOLD_LATTICES = CERTIFY_LATTICES + EDGE_LATTICES + [
    lattice_golden(),
    Pseudolattice(QuadReal.rational(1, 999983), QuadReal(Fraction(2, 3), Fraction(-5, 7), 999983)),
]


def fold_draws(rng, count, max_bits=400):
    """(a, b, den): b = 0, +-1 or up to 2^max_bits of either sign, a up to 2^200, den past 2^64."""
    for _ in range(count):
        bits = rng.choice([k for k in (1, 8, 40, 63, 64, 65, 128, 400) if k <= max_bits])
        b = rng.choice([0, 1, -1, rng.randint(-(2**bits), 2**bits)])
        a = rng.randint(-(2 ** rng.choice([1, 64, 200])), 2 ** rng.choice([1, 64, 200]))
        den = rng.choice([1, 2, 7, rng.randint(1, 2 ** rng.choice([10, 64, 100]))])
        yield a, b, den


def fresh(lat):
    return Pseudolattice(lat.omega1, lat.omega2)


@pytest.mark.parametrize("index", range(len(FOLD_LATTICES)))
def test_frac_combination_is_the_surd_floor_formula(index):
    # one fresh lattice for small b, whose 128-bit theta covers them, and one
    # that every size of b reaches, which widens it
    small, every = fresh(FOLD_LATTICES[index]), fresh(FOLD_LATTICES[index])
    rng = random.Random(index)
    for a, b, den in fold_draws(rng, 1500, max_bits=40):
        assert small.frac_combination(a, b, den) == surd_frac_combination(small, a, b, den), (a, b, den)
    for a, b, den in fold_draws(rng, 1500):
        assert every.frac_combination(a, b, den) == surd_frac_combination(every, a, b, den), (a, b, den)
    assert small._theta_bits[0] == 128 < every._theta_bits[0]


@pytest.mark.parametrize("index", range(len(FOLD_LATTICES)))
def test_frac_combination_answers_do_not_depend_on_call_order(index):
    draws = list(fold_draws(random.Random(1000 + index), 300, max_bits=60))
    cold, widened = fresh(FOLD_LATTICES[index]), fresh(FOLD_LATTICES[index])
    widened.frac_combination(3, -(2**400) - 1, 5)
    assert widened._theta_bits[0] > 128
    assert [widened.frac_combination(*draw) for draw in draws] == [cold.frac_combination(*draw) for draw in draws]


def test_the_fixed_point_theta_is_no_part_of_a_lattice_value():
    cold, warm = fresh(CERTIFY_LATTICES[0]), fresh(CERTIFY_LATTICES[0])
    warm.frac_combination(0, 10**150)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    copy = pickle.loads(pickle.dumps(warm))
    assert copy == cold and "_theta_bits" not in vars(copy)
    assert copy.frac_combination(0, 10**150) == warm.frac_combination(0, 10**150)


@pytest.mark.parametrize("index", range(len(FOLD_LATTICES)))
def test_frac_combination_at_the_floor_boundaries(index):
    # With p/q a convergent of theta, b = +-q, a = r -+ p and den = 2^64, x*2^64 is
    # r +- (q*theta - p): within 1/q of the integer r, on either side.  For r >= 1,
    # frac(x) is floor(x*2^64)/2^64, a small multiple of 2^-64 that the double keeps,
    # so a floor one off changes the answer.  Past q ~ 2^64 the 128-bit bracket, of
    # width q/2^128, holds r and must widen.  Each call starts from a fresh lattice.
    lat = FOLD_LATTICES[index]
    widened = 0
    for conv in lat.convergents(200):
        if conv.q > 2**130:
            break
        for r in (1, 2, 5):
            for sign in (1, -1):
                a, b, cold = r - sign * conv.p, sign * conv.q, fresh(lat)
                assert cold.frac_combination(a, b, 2**64) == surd_frac_combination(cold, a, b, 2**64), (a, b)
                widened += cold._theta_bits[0] > 128
    assert widened >= 12
