import random

import pytest
from hypothesis import given, strategies as st

from qtline import (
    AltForm,
    Cocycle,
    ConsistencyError,
    ExponentPoly,
    LatticeVector,
    RangeError,
    alt_eval,
    chern_numeric,
    chern_symbolic,
    lattice_sqrt2,
    sigma_section,
    trivial_cocycle,
)
from qtline.numeric import TOLERANCE_ENV_VAR
from helpers import random_cocycle, random_v, random_vector

L1 = lattice_sqrt2()

ints = st.integers(-20, 20)


class TestAltForm:
    def test_basis_orientation(self):
        assert alt_eval(AltForm(1), LatticeVector(1, 0), LatticeVector(0, 1)) == 1

    def test_hand_example(self):
        assert alt_eval(AltForm(3), LatticeVector(2, 1), LatticeVector(1, 1)) == 3

    def test_negation(self):
        assert -AltForm(3) == AltForm(-3)
        assert AltForm(3) + -AltForm(3) == AltForm(0)

    @given(ints, ints, ints)
    def test_alternating(self, s, a, b):
        l = LatticeVector(a, b)
        assert alt_eval(AltForm(s), l, l) == 0

    @given(ints, ints, ints, ints, ints, ints, ints)
    def test_bilinear(self, s, a1, b1, a2, b2, a3, b3):
        eta = AltForm(s)
        x, y, z = LatticeVector(a1, b1), LatticeVector(a2, b2), LatticeVector(a3, b3)
        assert alt_eval(eta, x + y, z) == alt_eval(eta, x, z) + alt_eval(eta, y, z)
        assert alt_eval(eta, x, y) == -alt_eval(eta, y, x)


class TestChernMap:
    def test_symbolic_examples(self, l1):
        assert chern_symbolic(sigma_section(AltForm(2), l1)) == AltForm(2)
        assert chern_symbolic(trivial_cocycle(l1)) == AltForm(0)
        assert chern_symbolic(Cocycle(0, 5j, ExponentPoly((0j, 0j, 0j, 1 + 0j)), l1)) == AltForm(0)

    def test_character_and_coboundary_invisible_numerically(self, l1):
        a = Cocycle(0, 5j, ExponentPoly((0j, 0j, 0j, 0.2 + 0j)), l1)
        assert chern_numeric(a, LatticeVector(2, 1), LatticeVector(-1, 3), 0.4 - 0.2j) == 0

    def test_numeric_basis(self, l1):
        a = Cocycle(1, 1.0, ExponentPoly.zero(), l1)
        e1, e2 = LatticeVector(1, 0), LatticeVector(0, 1)
        assert chern_numeric(a, e1, e2, 0.3 + 0.2j) == 1
        assert chern_numeric(a, e1, e2, 2 - 1j) == 1  # independent of the sample point

    def test_homomorphism_exact(self, l1):
        rng = random.Random(21)
        for _ in range(60):
            a, b = random_cocycle(rng, l1), random_cocycle(rng, l1)
            assert chern_symbolic(a.tensor(b)) == chern_symbolic(a) + chern_symbolic(b)

    def test_section_property(self, l1):
        for s in range(-20, 21):
            assert chern_symbolic(sigma_section(AltForm(s), l1)) == AltForm(s)

    def test_section_numeric_spotcheck(self, l1):
        a = sigma_section(AltForm(-3), l1)
        assert chern_numeric(a, LatticeVector(1, 0), LatticeVector(0, 1), 0.1 + 0.9j) == -3

    def test_oracle_agreement_randomized(self, l1, l2):
        rng = random.Random(22)
        for lat in (l1, l2):
            for _ in range(100):
                a = random_cocycle(rng, lat)
                x, y = random_vector(rng), random_vector(rng)
                v1, v2 = random_v(rng), random_v(rng)
                want = alt_eval(chern_symbolic(a), x, y)
                assert chern_numeric(a, x, y, v1) == want
                assert chern_numeric(a, x, y, v2) == want

    def test_non_integer_sum_is_consistency_error(self, l1, monkeypatch):
        # a quarter unit on the term a(l1, v) alone, as a branch bug there would add
        a = sigma_section(AltForm(2), l1)
        e1, e2, v = LatticeVector(1, 0), LatticeVector(0, 1), 0.3 + 0.2j
        exponent = Cocycle.exponent

        def shifted(self, l, w):
            return exponent(self, l, w) + (0.25 if (l, w) == (e1, v) else 0.0)

        monkeypatch.setattr(Cocycle, "exponent", shifted)
        with pytest.raises(ConsistencyError, match="is not near an integer"):
            chern_numeric(a, e1, e2, v)

    def test_consistency_error_on_impossible_tolerance(self, l1, monkeypatch):
        # shrinking the tolerance below float dust trips the cross-check
        a = Cocycle(2, 1.3 + 0.7j, ExponentPoly((0j, 0.3 + 0.1j, 0.2 - 0.4j)), l1)
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-300")
        with pytest.raises(ConsistencyError):
            for _ in range(200):
                rng = random.Random(1)
                chern_numeric(a, random_vector(rng), random_vector(rng), random_v(rng))

    @pytest.mark.parametrize("v", [1e9, 1e16])
    def test_unresolvable_sum_is_range_error(self, l1, v):
        # terms near 2*v leave no integer resolution at v = 1e16 (the sum read 0)
        a = sigma_section(AltForm(2), l1)
        with pytest.raises(RangeError):
            chern_numeric(a, LatticeVector(1, 0), LatticeVector(0, 1), complex(v, 0))

    def test_large_but_resolvable_sum(self, l1):
        a = sigma_section(AltForm(2), l1)
        assert chern_numeric(a, LatticeVector(1, 0), LatticeVector(0, 1), 1e6 + 0j) == 2

    @pytest.mark.parametrize(
        "l1, l2",
        [((0, 10**400), (0, 1)), ((10**400, 0), (0, 1)), ((1, 0), (0, -(10**309)))],
        ids=["l1-b", "l1-a", "l2-b"],
    )
    def test_coordinates_beyond_double_range_are_range_error(self, l1, l2):
        # an OverflowError converting the coordinates to doubles used to escape
        a = Cocycle(2, 1.0, ExponentPoly((0j, 0.1 + 0j)), L1)
        with pytest.raises(RangeError):
            chern_numeric(a, LatticeVector(*l1), LatticeVector(*l2), 0.3 + 0.2j)
