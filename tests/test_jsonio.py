"""Decoders reject JSON booleans and non-finite numbers with FormatError, and
read back what the encoders write."""

import json
import random

import pytest

from qtline import FormatError, existence_cocycle, lattice_sqrt2
from qtline.cli import _load_json
from qtline.jsonio import (
    cocycle_from_json,
    cocycle_to_json,
    complex_from_json,
    fraction_from_json,
    lattice_to_json,
    quadreal_from_json,
    theta_from_json,
)
from helpers import CERTIFY_LATTICES, random_cocycle

LATTICE = lattice_to_json(lattice_sqrt2())
INF = float("inf")


@pytest.mark.parametrize(
    "obj",
    [[True, 0.0], [1.0, False], [INF, 0.0], [0.0, -INF], [float("nan"), 0.0], [10**400, 0]],
)
def test_complex_from_json_rejects(obj):
    with pytest.raises(FormatError):
        complex_from_json(obj)


@pytest.mark.parametrize("obj", [[True, 1], [1, True], [False, 1]])
def test_fraction_from_json_rejects(obj):
    with pytest.raises(FormatError):
        fraction_from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [0, 1], "b": [1, 1], "D": True},
        {"a": [True, 1], "b": [1, 1], "D": 2},
        {"a": [0, 1], "b": [1, True], "D": 2},
    ],
)
def test_quadreal_from_json_rejects(obj):
    with pytest.raises(FormatError):
        quadreal_from_json(obj)


@pytest.mark.parametrize(
    "fields",
    [{"s": True}, {"s": False}, {"c": [True, 0]}, {"c": [INF, 0]}, {"g": [[0, 0], [1e308, INF]]}],
)
def test_cocycle_from_json_rejects(fields):
    obj = {"s": 1, "c": [1.0, 0.0], "g": [], "lattice": LATTICE, **fields}
    with pytest.raises(FormatError):
        cocycle_from_json(obj)


@pytest.mark.parametrize(
    "fields",
    [{"amplitude": [True, 0]}, {"alpha": [0, -INF]}, {"alpha": [float("nan"), 0]}, {"unit_exponent": [[0, True]]}],
)
def test_theta_from_json_rejects(fields):
    obj = {"amplitude": [1.0, 0.0], "alpha": [0.0, 0.0], "unit_exponent": [], **fields}
    with pytest.raises(FormatError):
        theta_from_json(obj)


@pytest.mark.parametrize(
    "text",
    ["NaN", "[Infinity, 0]", '{"c": [-Infinity, 0]}', pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting")],
)
def test_load_json_rejects_non_finite_constants(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(FormatError):
        _load_json(str(path))


@pytest.mark.parametrize("index", range(len(CERTIFY_LATTICES)))
def test_cocycle_json_round_trip(index):
    lat = CERTIFY_LATTICES[index]
    rng = random.Random(index)
    cocycles = [existence_cocycle(lat)] + [random_cocycle(rng, lat) for _ in range(20)]
    for a in cocycles:
        doc = json.loads(json.dumps(cocycle_to_json(a)))
        assert cocycle_from_json(doc) == a
