"""Value-object semantics of the package's immutable classes.

Every class compares and hashes by its fields, equals only instances of its
own class, refuses assignment and deletion, and prints as
``Name(field=value, ...)``.  Cached derived attributes take no part in any
of that.
"""

import ast
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import qtline
from qtline import (
    AHData,
    AltForm,
    Cocycle,
    Convergent,
    DomainError,
    ExponentPoly,
    HeisenbergElement,
    KGroupDescription,
    LambdaPoint,
    LatticeVector,
    Pseudolattice,
    QuadReal,
    ThetaCandidate,
    TrivialityVerdict,
    ah_normal_form,
    dichotomy_check,
    existence_cocycle,
    lattice_golden,
    lattice_sqrt2,
    modulus_obstruction_demo,
    solve_theta,
    trivial_cocycle,
)
from qtline.numeric import _Frozen
from helpers import reduce_to_constant, theta_exact

# Each factory builds a fresh, equal object on every call, with the name of one
# of its fields.
FACTORIES = {
    "QuadReal": (lambda: QuadReal(Fraction(1, 2), 3, 5), "a"),
    "LatticeVector": (lambda: LatticeVector(3, -4), "a"),
    "Convergent": (lambda: Convergent(7, 5, 3), "q"),
    "Pseudolattice": (lattice_golden, "omega1"),
    "ExponentPoly": (lambda: ExponentPoly((1, 2j)), "coeffs"),
    "Cocycle": (lambda: Cocycle(2, 1 + 1j, ExponentPoly((0, 1.5)), lattice_sqrt2()), "s"),
    "AltForm": (lambda: AltForm(3), "s"),
    "LambdaPoint": (lambda: LambdaPoint(1, 2, 3), "beta"),
    "KGroupDescription": (lambda: KGroupDescription.finite_group(3), "modulus"),
    "HeisenbergElement": (lambda: HeisenbergElement(LambdaPoint(0, 1, 2), 2j), "scalar"),
    "DichotomyReport": (lambda: dichotomy_check(existence_cocycle(lattice_sqrt2())), "chern_s"),
    "Character": (lambda: reduce_to_constant(trivial_cocycle(lattice_sqrt2())), "phi_omega2"),
    "TrivialityVerdict": (lambda: TrivialityVerdict.trivial(3), "witness"),
    "AHData": (lambda: ah_normal_form(existence_cocycle(lattice_golden())), "e_form"),
    "ThetaCandidate": (lambda: solve_theta(trivial_cocycle(lattice_sqrt2())).candidate, "alpha"),
    "ThetaSolveResult": (lambda: solve_theta(existence_cocycle(lattice_sqrt2())), "verdict"),
    "ObstructionWitness": (
        lambda: modulus_obstruction_demo(Cocycle(0, 2.0, ExponentPoly.zero(), lattice_sqrt2())),
        "modulus",
    ),
}


def _frozen_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_classes(sub)


def test_every_value_class_has_a_factory():
    # a value class left out of FACTORIES would skip the equality,
    # immutability and pickle checks below
    for info in pkgutil.iter_modules(qtline.__path__):
        importlib.import_module(f"qtline.{info.name}")
    defined = {cls.__name__ for cls in _frozen_classes(_Frozen) if cls.__module__.startswith("qtline.")}
    assert not defined - set(FACTORIES), sorted(defined - set(FACTORIES))


# One builder per class that stores a value of C^x, from that value.
UNIT_HOLDERS = {
    "Cocycle": lambda c: Cocycle(0, c, ExponentPoly.zero(), lattice_sqrt2()),
    "AHData": lambda c: AHData(c, AltForm(0), lattice_sqrt2()),
    "HeisenbergElement": lambda c: HeisenbergElement(LambdaPoint(0, 1, 2), c),
    "ThetaCandidate": lambda c: ThetaCandidate(c, 0.0, ExponentPoly.zero()),
}


@pytest.mark.parametrize("name", sorted(UNIT_HOLDERS))
@pytest.mark.parametrize(
    "value", [0, 0j, math.nan, math.inf, complex(1, math.inf)], ids=["0", "0j", "nan", "inf", "1+infj"]
)
def test_unit_values_keep_one_rule(name, value):
    with pytest.raises(DomainError, match="must be finite and nonzero"):
        UNIT_HOLDERS[name](value)
    assert UNIT_HOLDERS[name](-1.0) == UNIT_HOLDERS[name](-1 + 0j)


# One builder per stored complex value, with the name its message gives it.
NUMBER_HOLDERS = {
    "Cocycle": (UNIT_HOLDERS["Cocycle"], "character value c"),
    "AHData": (UNIT_HOLDERS["AHData"], "character value c"),
    "HeisenbergElement": (UNIT_HOLDERS["HeisenbergElement"], "central scalar"),
    "ThetaCandidate.amplitude": (UNIT_HOLDERS["ThetaCandidate"], "amplitude"),
    "ThetaCandidate.alpha": (lambda z: ThetaCandidate(1.0, z, ExponentPoly.zero()), "alpha"),
    "ExponentPoly": (lambda z: ExponentPoly((1.0, z)), "exponent polynomial coefficient"),
}


@pytest.mark.parametrize("name", sorted(NUMBER_HOLDERS))
@pytest.mark.parametrize(
    "value",
    ["2", " 1e-3 ", "1j", b"1", True, False, None, [1.0], object()],
    ids=["'2'", "' 1e-3 '", "'1j'", "b'1'", "True", "False", "None", "list", "object"],
)
def test_complex_values_are_numbers(name, value):
    # complex() parses a str and takes a bool as 1 or 0; neither is a number here
    build, what = NUMBER_HOLDERS[name]
    with pytest.raises(DomainError, match=f"^{what} must be a number$"):
        build(value)


@pytest.mark.parametrize("name", sorted(NUMBER_HOLDERS))
def test_an_int_past_the_double_range_is_not_finite(name):
    build, what = NUMBER_HOLDERS[name]
    with pytest.raises(DomainError, match=f"^{what}s? must be finite"):
        build(-(10**400))
    assert build(Fraction(1, 2)) == build(0.5)


@pytest.fixture(params=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


def test_equal_fields_mean_equal_objects_and_hashes(factory):
    make, _ = factory
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_assignment_and_deletion_raise(factory):
    make, field = factory
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, before)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, field) == before


def test_pickle_round_trip(factory):
    make, _ = factory
    x = make()
    assert pickle.loads(pickle.dumps(x)) == x


# A warm use per class that caches derived values; every other class gets repr and hash.
WARM = {
    "Pseudolattice": lambda x: (x.theta, x.frac_combination(3, 10**40, 7), list(x.convergents(3))),
    "ExponentPoly": lambda x: x(0.3 + 0.1j),
    "Cocycle": lambda x: (x.evaluate(LatticeVector(1, 2), 0.3 + 0.1j), x.lattice.theta),
    "ThetaCandidate": lambda x: x.evaluate(0.3 + 0.1j),
    "AHData": lambda x: (x.chi(LatticeVector(1, 2)), x.lattice.theta),
    "Character": lambda x: (x(LatticeVector(1, 2)), x.lattice.theta),
}


def state(x):
    """The attributes of x, and of the values it holds, all the way down."""
    if isinstance(x, _Frozen) and hasattr(x, "__dict__"):
        return {name: state(value) for name, value in vars(x).items()}
    if isinstance(x, tuple):  # a Convergent, which has no __dict__, among them
        return tuple(state(value) for value in x)
    return x


def test_pickle_carries_fields_and_no_cache(factory):
    # each value unpickles through its constructor: no cached or derived value
    # travels, and the constructor rebuilds the derived ones
    make, _ = factory
    x = make()
    WARM.get(type(x).__name__, lambda x: (repr(x), hash(x)))(x)
    copy, fresh = pickle.loads(pickle.dumps(x)), make()
    assert copy == fresh
    assert state(copy) == state(fresh)


def test_no_value_class_writes_its_own_pickle_rule():
    own = [
        cls.__name__
        for cls in _frozen_classes(_Frozen)
        if {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__"} & vars(cls).keys()
    ]
    assert not own, own


SOURCE = Path(qtline.__file__).parent
# The stores past _Frozen's raising __setattr__ other than _Frozen.__init__ itself:
# the direct stores of the four classes built per benchmark request, the alias
# they use, and the widening of a lattice's fixed-point theta.
DIRECT_STORES = {
    ("numeric", "_Frozen.__init__"),
    ("numeric", "QuadReal.__init__"),
    ("pseudolattice", "<module>"),
    ("pseudolattice", "LatticeVector.__init__"),
    ("pseudolattice", "Pseudolattice.__init__"),
    ("pseudolattice", "Pseudolattice.frac_combination"),
    ("picard", "TrivialityVerdict.__init__"),
}


def direct_stores(node: ast.AST, where: str) -> set[str]:
    """Where, under node, object.__setattr__, a _set( call, __dict__ or vars( appears."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found |= direct_stores(child, child.name if where == "<module>" else f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Attribute) and (
            child.attr == "__dict__" or (child.attr == "__setattr__" and ast.unparse(child.value) == "object")
        ):
            found.add(where)
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in ("_set", "vars"):
            found.add(where)
        found |= direct_stores(child, where)
    return found


def test_values_are_stored_in_the_named_places_only():
    # chern, cocycle, heisenberg and theta store through _Frozen.__init__ alone
    found = {
        (path.stem, where)
        for path in sorted(SOURCE.glob("*.py"))
        for where in direct_stores(ast.parse(path.read_text()), "<module>")
    }
    assert found == DIRECT_STORES


def test_objects_of_other_classes_are_unequal():
    assert LatticeVector(1, 2) != (1, 2)
    assert AltForm(3) != 3
    assert LambdaPoint(1, 2, 3) != Convergent(1, 2, 3)
    # A Convergent is a tuple row, yet never equals the plain tuple of its fields.
    assert Convergent(7, 5, 3) != (7, 5, 3)
    assert (7, 5, 3) != Convergent(7, 5, 3)
    assert not Convergent(7, 5, 3) == (7, 5, 3) and not (7, 5, 3) == Convergent(7, 5, 3)

    class Shifted(LatticeVector):
        pass

    assert Shifted(1, 2) != LatticeVector(1, 2)
    assert LatticeVector(1, 2) != Shifted(1, 2)


def test_field_values_decide_equality():
    assert LatticeVector(1, 2) != LatticeVector(2, 1)
    assert TrivialityVerdict.trivial(0) != TrivialityVerdict.unknown(0)
    assert QuadReal(1, 1, 2) != QuadReal(1, 1, 3)


def test_pseudolattice_equality_ignores_cached_values():
    used, fresh = lattice_sqrt2(), lattice_sqrt2()
    used.theta  # fills the lazily cached double
    assert "theta" in vars(used) and "theta" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    # Same slope theta, other generators: a different lattice.
    doubled = Pseudolattice(QuadReal.rational(2, 2), QuadReal(0, 2, 2))
    assert theta_exact(doubled) == theta_exact(used)
    assert doubled != used


def test_cocycle_equality_ignores_cached_log():
    a = Cocycle(1, -1.0, ExponentPoly.zero(), lattice_sqrt2())
    a.exponent(LatticeVector(1, 1), 0.2j)  # caches the exponent kernel, log(c) in it
    assert a == Cocycle(1, -1 + 0j, ExponentPoly.zero(), lattice_sqrt2())
    assert hash(a) == hash(Cocycle(1, -1 + 0j, ExponentPoly.zero(), lattice_sqrt2()))
    assert "_log_c" not in repr(a) and "_kernel" not in repr(a)


def test_cocycle_pickles_after_evaluation():
    # Evaluation caches the exponent kernel, a closure; pickling must not see it.
    a = Cocycle(2, 1 + 1j, ExponentPoly((0, 1.5)), lattice_sqrt2())
    before = a.exponent(LatticeVector(1, 2), 0.3 + 0.1j)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.exponent(LatticeVector(1, 2), 0.3 + 0.1j) == before


def test_exponent_poly_strips_trailing_zeros():
    g = ExponentPoly((1, 2, 0, 0j))
    assert g.coeffs == (1 + 0j, 2 + 0j)
    assert g == ExponentPoly((1, 2)) and hash(g) == hash(ExponentPoly((1, 2)))
    assert ExponentPoly((0, 0)) == ExponentPoly.zero() == ExponentPoly()
    assert ExponentPoly.zero().coeffs == ()


def horner_reference(coeffs, v):
    """g(v) as ExponentPoly.__call__ wrote it before it kept its coefficients reversed."""
    acc = 0j
    for coef in reversed(coeffs):
        acc = acc * v + coef
    return acc


def test_exponent_poly_ignores_its_horner_order():
    # _horner, the coefficients highest degree first, is kept out of equality,
    # hashing, repr and pickling; sums and negations evaluate like fresh polynomials
    g = ExponentPoly((1, 2j, 0.5 - 0.25j))
    tampered = ExponentPoly((1, 2j, 0.5 - 0.25j))
    object.__setattr__(tampered, "_horner", ())
    assert g._horner == (0.5 - 0.25j, 2j, 1 + 0j)
    assert tampered == g and hash(tampered) == hash(g) and repr(tampered) == repr(g)
    assert "_horner" not in repr(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._horner == g._horner
    h = ExponentPoly((0.1, -2j, -0.5 + 0.25j, 3j))
    v = 0.3 - 1.7j
    for derived, coeffs in [
        (g + h, (1.1, 0j, 0j, 3j)),
        (h + g, (1.1, 0j, 0j, 3j)),
        (-g, (-1, -2j, -0.5 + 0.25j)),
        (g - g, ()),
        (g - h, (0.9, 4j, 1 - 0.5j, -3j)),
        (copy, g.coeffs),
    ]:
        fresh = ExponentPoly(coeffs)
        assert derived == fresh and derived._horner == fresh._horner
        assert derived(v) == fresh(v) == horner_reference(fresh.coeffs, v)


@pytest.mark.parametrize(
    "value, text",
    [
        (QuadReal(Fraction(1, 2), 3, 5), "QuadReal(a=Fraction(1, 2), b=Fraction(3, 1), d=5)"),
        (LatticeVector(3, -4), "LatticeVector(a=3, b=-4)"),
        (Convergent(7, 5, 3), "Convergent(p=7, q=5, index=3)"),
        (
            TrivialityVerdict.trivial(3),
            "TrivialityVerdict(status='trivial', witness=3, reason=None, bound=None)",
        ),
        (
            TrivialityVerdict.nontrivial("nonzero Chern class"),
            "TrivialityVerdict(status='nontrivial', witness=None, reason='nonzero Chern class', bound=None)",
        ),
        (
            lattice_sqrt2(),
            "Pseudolattice(omega1=QuadReal(a=Fraction(1, 1), b=Fraction(0, 1), d=2), "
            "omega2=QuadReal(a=Fraction(0, 1), b=Fraction(1, 1), d=2))",
        ),
        (ExponentPoly((1, 2j)), "ExponentPoly(coeffs=((1+0j), 2j))"),
        (KGroupDescription.full_torus(), "KGroupDescription(finite=False, modulus=None)"),
    ],
    ids=[
        "QuadReal",
        "LatticeVector",
        "Convergent",
        "TrivialityVerdict-trivial",
        "TrivialityVerdict-nontrivial",
        "Pseudolattice",
        "ExponentPoly",
        "KGroupDescription",
    ],
)
def test_repr_text(value, text):
    assert repr(value) == text


def test_keyword_construction_and_defaults():
    assert TrivialityVerdict("unknown", bound=5) == TrivialityVerdict.unknown(5)
    assert KGroupDescription(finite=False) == KGroupDescription.full_torus()
    assert LatticeVector(b=2, a=1) == LatticeVector(1, 2)
    assert Convergent(q=5, p=7, index=3) == Convergent(7, 5, 3)
    assert ExponentPoly(coeffs=(1,)) == ExponentPoly((1,))
