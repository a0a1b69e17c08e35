import cmath
import math
import random
import time

import pytest

from qtline import (
    Cocycle,
    DomainError,
    ExponentPoly,
    PreconditionError,
    RangeError,
    ThetaCandidate,
    coboundary,
    modulus_obstruction_demo,
    sigma_section,
    solve_theta,
    theta_residual,
    trivial_cocycle,
)
from qtline.chern import AltForm
from qtline.numeric import TOLERANCE_ENV_VAR
from helpers import random_poly

TWO_PI_I = 2j * math.pi


def witness_character(lattice, m):
    return Cocycle(0, cmath.exp(TWO_PI_I * m * lattice.theta), ExponentPoly.zero(), lattice)


def constant_theta():
    return ThetaCandidate(amplitude=1.0, alpha=0.0, unit_exponent=ExponentPoly.zero())


class TestResidual:
    def test_trivial_pair_is_exact(self, l1):
        assert theta_residual(trivial_cocycle(l1), constant_theta(), samples=200, seed=0) == 0.0

    def test_witness_character_solution(self, l1):
        a = witness_character(l1, 1)
        t = ThetaCandidate(amplitude=1.0, alpha=1.0 / l1.omega1_float, unit_exponent=ExponentPoly.zero())
        assert theta_residual(a, t, samples=300, seed=1) < 1e-9

    def test_wrong_candidate_is_rejected(self, l1):
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        t = ThetaCandidate(amplitude=1.0, alpha=1.0, unit_exponent=ExponentPoly.zero())
        assert theta_residual(a, t, samples=300, seed=2) > 0.1

    @pytest.mark.parametrize("alpha", [-30j, 30j], ids=["alpha=-30i", "alpha=+30i"])
    def test_out_of_range_residual_raises_range_error(self, l1, alpha):
        # |e^{2*pi*i*(y-x)}| overflows a double on some samples; that must be
        # the library's RangeError, not a bare OverflowError from cmath.exp.
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        t = ThetaCandidate(amplitude=1.0, alpha=alpha, unit_exponent=ExponentPoly.zero())
        with pytest.raises(RangeError):
            theta_residual(a, t, samples=50, seed=0)

    @pytest.mark.parametrize(
        "amplitude, alpha",
        [(math.nan, 0.0), (complex(1, math.inf), 0.0), (1.0, math.nan), (1.0, complex(0, -math.inf))],
        ids=["amplitude-nan", "amplitude-inf", "alpha-nan", "alpha-inf"],
    )
    def test_non_finite_parameters_rejected(self, amplitude, alpha):
        with pytest.raises(DomainError, match="finite"):
            ThetaCandidate(amplitude=amplitude, alpha=alpha, unit_exponent=ExponentPoly.zero())

    def test_amplitude_must_be_nonzero(self):
        with pytest.raises(DomainError):
            ThetaCandidate(amplitude=0.0, alpha=0.0, unit_exponent=ExponentPoly.zero())

    def test_evaluate(self):
        # 2 * e^{2*pi*i*(0.1 + 0.25*v)} at v = 0.6: phase 2*pi*0.25 = pi/2
        t = ThetaCandidate(amplitude=2.0, alpha=0.25, unit_exponent=ExponentPoly((0.1,)))
        assert t.evaluate(0.6) == pytest.approx(2j, abs=1e-12)

    def test_evaluate_past_the_exp_range_raises_range_error(self):
        # 2*pi*i * (-200i) = 400*pi > 700
        t = ThetaCandidate(amplitude=1.0, alpha=-200j, unit_exponent=ExponentPoly.zero())
        with pytest.raises(RangeError, match="theta exponent"):
            t.evaluate(1.0)


class TestSolve:
    def test_trivial(self, l1):
        result = solve_theta(trivial_cocycle(l1))
        assert result.solved
        assert result.candidate.alpha == 0.0
        assert result.candidate.amplitude == 1 + 0j
        assert not result.candidate.unit_exponent

    def test_witness_character(self, l1):
        result = solve_theta(witness_character(l1, 1))
        assert result.solved
        assert result.candidate.alpha == pytest.approx(1.0 / l1.omega1_float)
        assert theta_residual(witness_character(l1, 1), result.candidate, 500, 7) < 1e-9

    def test_nonzero_chern_certificate(self, l1):
        result = solve_theta(Cocycle(1, 1.0, ExponentPoly.zero(), l1))
        assert not result.solved
        assert result.verdict.is_nontrivial and "Chern" in result.verdict.reason

    def test_modulus_certificate(self, l1):
        result = solve_theta(Cocycle(0, 1.7, ExponentPoly.zero(), l1))
        assert not result.solved and "modulus" in result.verdict.reason

    def test_unknown_is_inconclusive(self, l1):
        result = solve_theta(Cocycle(0, cmath.exp(2j * 0.987654), ExponentPoly.zero(), l1), bound=30)
        assert not result.solved and result.verdict.status == "unknown"

    def test_soundness_random_trivial_classes(self, l1, l2):
        rng = random.Random(51)
        for lat in (l1, l2):
            for _ in range(15):
                a = coboundary(random_poly(rng), complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2)), lat)
                a = a.tensor(witness_character(lat, rng.randint(-15, 15)))
                result = solve_theta(a)
                assert result.solved
                assert theta_residual(a, result.candidate, samples=300, seed=8) < 1e-9

    def test_form_rigidity(self, l1):
        rng = random.Random(52)
        for _ in range(15):
            g = random_poly(rng)
            a = coboundary(g, 0.3, l1).tensor(witness_character(l1, 2))
            result = solve_theta(a)
            assert result.solved
            # candidate exponent equals the cocycle's own g; the linear
            # correction lives in alpha
            assert result.candidate.unit_exponent == a.g

    def test_completeness_random_obstructed(self, l1):
        rng = random.Random(53)
        for _ in range(30):
            if rng.random() < 0.5:
                s = rng.choice([-3, -2, -1, 1, 2, 3])
                a = Cocycle(s, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)), random_poly(rng), l1)
            else:
                modulus = rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.2, 4.0)])
                a = Cocycle(0, modulus * cmath.exp(1j * rng.uniform(-3, 3)), random_poly(rng), l1)
            result = solve_theta(a)
            assert not result.solved and result.verdict.is_nontrivial


class TestModulusObstruction:
    def test_growing_factors_sqrt2(self, l1):
        witness = modulus_obstruction_demo(Cocycle(0, 2.0, ExponentPoly.zero(), l1), terms=5)
        assert witness.factors == pytest.approx((2.0, 4.0, 32.0, 4096.0, 2**29), rel=1e-12)
        assert [(-v.b) for v in witness.vectors] == [1, 2, 5, 12, 29]

    def test_inverse_modulus_diverges_the_same_way(self, l1):
        witness = modulus_obstruction_demo(Cocycle(0, 0.5, ExponentPoly.zero(), l1), terms=4)
        assert witness.factors == pytest.approx((2.0, 4.0, 32.0, 4096.0), rel=1e-12)

    def test_strictly_monotone(self, l2):
        witness = modulus_obstruction_demo(Cocycle(0, 3.0, ExponentPoly.zero(), l2), terms=6)
        assert all(x < y for x, y in zip(witness.factors, witness.factors[1:]))
        # golden-ratio start q0 = q1 = 1 collapses to a single term
        assert [(-v.b) for v in witness.vectors] == [1, 2, 3, 5, 8, 13]

    def test_unit_modulus_rejected(self, l1):
        with pytest.raises(PreconditionError):
            modulus_obstruction_demo(witness_character(l1, 1))

    def test_nonzero_chern_rejected(self, l1):
        with pytest.raises(PreconditionError):
            modulus_obstruction_demo(sigma_section(AltForm(1), l1))

    @pytest.mark.parametrize("terms", [0, -2])
    def test_needs_a_term(self, l1, terms):
        with pytest.raises(PreconditionError, match="need terms >= 1"):
            modulus_obstruction_demo(Cocycle(0, 2.0, ExponentPoly.zero(), l1), terms=terms)

    def test_terms_past_the_exp_limit_add_nothing(self, l1, monkeypatch):
        # modulus 1 + 2^-52 is about the slowest growth a double allows; q_n passes
        # the exp limit within the first 100 convergents, so a huge terms is cheap
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-300")
        a = Cocycle(0, 1.0 + 2.0**-52, ExponentPoly.zero(), l1)
        start = time.perf_counter()
        witness = modulus_obstruction_demo(a, terms=10**9)
        assert time.perf_counter() - start < 1.0
        assert witness == modulus_obstruction_demo(a, terms=100)
        assert 40 < len(witness.vectors) < 100

    def test_overflow_guard_truncates(self, l1):
        witness = modulus_obstruction_demo(Cocycle(0, 1e6, ExponentPoly.zero(), l1), terms=10)
        assert all(math.isfinite(f) for f in witness.factors)
        assert len(witness.factors) < 10
