"""The package namespace: ``import qtline`` loads no submodule, each public name
loads the submodule that defines it on first use, and the public surface is
the same 54 names, bound to the same objects, as when the package imported
every submodule up front."""

import ast
import importlib

import pytest

import qtline
from helpers import fresh_python

PUBLIC = [
    "AHData", "AltForm", "Cocycle", "ConsistencyError", "Convergent", "DichotomyReport", "DomainError",
    "ExponentPoly", "FormatError", "HeisenbergElement", "KGroupDescription", "LambdaPoint", "LatticeVector",
    "ObstructionWitness", "PrecisionError", "PreconditionError", "Pseudolattice", "QTLineError", "QuadReal",
    "RangeError", "ThetaCandidate", "ThetaSolveResult", "TrivialityVerdict", "ah_group_law", "ah_normal_form",
    "alt_eval", "approx_eq", "chern_numeric", "chern_symbolic", "closed_form_pairing", "coboundary",
    "cocycle_defect", "cocycle_identity_residuals", "commutator_pairing", "dichotomy_check",
    "existence_cocycle", "heisenberg_identity", "heisenberg_inverse", "heisenberg_multiply", "k_group",
    "lattice_golden", "lattice_sqrt2", "membership_multiplier", "modulus_obstruction_demo",
    "multiplier_residual", "pic0_invariant", "sigma_section", "solve_theta", "theta_residual",
    "theta_residuals", "tolerance", "triviality_test", "trivial_cocycle", "verify_cocycle_identity",
]
SUBMODULES = ["chern", "cocycle", "errors", "heisenberg", "numeric", "picard", "pseudolattice", "theta"]


def loaded_after(code: str) -> list[str]:
    """The qtline modules, and dataclasses and inspect, in sys.modules after code runs in a fresh interpreter."""
    watched = "k.startswith('qtline') or k in ('dataclasses', 'inspect')"
    return ast.literal_eval(fresh_python(f"{code}; import sys; print(sorted(k for k in sys.modules if {watched}))"))


def test_import_loads_no_submodule():
    assert loaded_after("import qtline") == ["qtline"]


def test_exact_layer_loads_three_submodules():
    assert loaded_after("import qtline; qtline.Pseudolattice, qtline.QuadReal") == [
        "qtline", "qtline.errors", "qtline.numeric", "qtline.pseudolattice",
    ]


def test_jsonio_leaves_out_the_solver():
    # theta_from_json imports ThetaCandidate where it builds one: decoding a cocycle
    # or a lattice loads neither theta nor the picard and chern modules it imports
    assert loaded_after("import qtline.jsonio") == [
        "qtline", "qtline.cocycle", "qtline.errors", "qtline.jsonio", "qtline.numeric", "qtline.pseudolattice",
    ]


def test_heisenberg_leaves_out_chern():
    # the group operations read the Chern integer as the cocycle's s
    assert loaded_after("import qtline.heisenberg") == [
        "qtline", "qtline.cocycle", "qtline.errors", "qtline.heisenberg", "qtline.numeric", "qtline.pseudolattice",
    ]


def test_cocycle_leaves_out_random():
    # sampled_residuals, the one place that draws samples, imports random itself
    probe = "from qtline import Cocycle; import sys; print('random' in sys.modules)"
    assert fresh_python(probe).strip() == "False"


def test_public_names_are_the_54():
    assert len(PUBLIC) == 54 and set(qtline.__all__) == set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_module_object(name):
    value = getattr(qtline, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert value.__module__.removeprefix("qtline.") in SUBMODULES
    assert vars(qtline)[name] is value  # stored: the next lookup skips __getattr__


def test_star_import_and_dir():
    namespace = {}
    exec("from qtline import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert {*PUBLIC, "__version__"} <= set(dir(qtline))
    assert qtline.__version__ == "0.1.0"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qtline' has no attribute 'wibble'$"):
        qtline.wibble
    assert not hasattr(qtline, "wibble") and getattr(qtline, "wibble", None) is None


def test_submodule_resolves_after_bare_import():
    code = f"import qtline; print([getattr(qtline, m).__name__ for m in {SUBMODULES!r}])"
    assert ast.literal_eval(fresh_python(code)) == [f"qtline.{m}" for m in SUBMODULES]


def test_lazy_names_pickle_in_a_fresh_process():
    # dumped in one fresh process, loaded in another before anything else of qtline is used
    build = (
        "lat = qtline.lattice_sqrt2(); "
        "built = (lat, qtline.Cocycle(2, 0.6 + 0.8j, qtline.ExponentPoly((0.1, 0.05j)), lat))"
    )
    dumped = fresh_python(f"import pickle, qtline; {build}; print(pickle.dumps(built).hex())").strip()
    load = f"import pickle; got = pickle.loads(bytes.fromhex({dumped!r})); import qtline; {build}; print(got == built)"
    assert fresh_python(load).strip() == "True"
