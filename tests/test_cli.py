import ast
import cmath
import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtline import Cocycle, ExponentPoly, Pseudolattice, QuadReal, lattice_golden, lattice_sqrt2
from qtline import cli
from qtline.cli import _read_coefficient, main
from qtline.jsonio import cocycle_to_json
from helpers import exact_phase, fresh_python, theta_exact

L1 = lattice_sqrt2()
TWO_PI_I = 2j * math.pi


def write_cocycle(tmp_path, name, cocycle):
    path = tmp_path / name
    path.write_text(json.dumps(cocycle_to_json(cocycle)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def s1_file(tmp_path):
    return write_cocycle(tmp_path, "s1.json", Cocycle(1, 1.0, ExponentPoly.zero(), L1))


@pytest.fixture
def s2_file(tmp_path):
    return write_cocycle(tmp_path, "s2.json", Cocycle(2, 1.0, ExponentPoly.zero(), L1))


@pytest.fixture
def witness_file(tmp_path):
    c = cmath.exp(TWO_PI_I * L1.theta)
    return write_cocycle(tmp_path, "wc.json", Cocycle(0, c, ExponentPoly.zero(), L1))


def test_cf(capsys):
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "4")
    assert code == 0
    assert [(row["p"], row["q"]) for row in doc] == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert all(row["within_bound"] for row in doc)
    assert doc[1]["residual"] == pytest.approx(0.17157287525, abs=1e-9)


def test_cf_quadreal_grammar(capsys):
    code, doc = run(capsys, "cf", "--D", "5", "--omega1", "1", "--omega2", "(1+sqrtD)/2", "--n", "5")
    assert code == 0
    assert [(row["p"], row["q"]) for row in doc] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_cf_beyond_double_range_is_exit_2(capsys):
    # |omega1|/q_k of sqrt(2) falls below the smallest normal double at k = 804,
    # two terms before q_k passes the largest double
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "820")
    assert code == 2 and "double range" in doc["error"]


def test_cf_radicand_above_cap_is_exit_2(capsys):
    code, doc = run(capsys, "cf", "--D", str(10**9 + 1), "--omega1", "1", "--omega2", "sqrtD")
    assert code == 2 and "radicand" in doc["error"]


def test_cf_residuals_within_bound_at_depth(capsys):
    # the residual |p_k - q_k sqrt(2)| ~ 1/q_k is rounded once on integers, so it
    # stays accurate after q_k passes 2^100 (index 80)
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "200")
    assert code == 0 and len(doc) == 200
    assert all(row["within_bound"] for row in doc)
    assert all(0 < abs(row["residual"]) * row["q"] < 1 for row in doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "10001"],
        ["verify", "--cocycle", "COCYCLE", "--samples", "100001"],
        ["theta-check", "--cocycle", "COCYCLE", "--theta", "COCYCLE", "--samples", "100001"],
        ["trivial", "--cocycle", "COCYCLE", "--bound", "1000001"],
        ["theta-solve", "--cocycle", "COCYCLE", "--bound", "1000001"],
    ],
    ids=["cf-n", "verify-samples", "theta-check-samples", "trivial-bound", "theta-solve-bound"],
)
def test_count_flag_above_cap_is_exit_2(capsys, s1_file, argv):
    # checked before any work: one above each cap, never the capped amount itself
    code, doc = run(capsys, *[s1_file if arg == "COCYCLE" else arg for arg in argv])
    assert code == 2 and "must be at most" in doc["error"]


@pytest.mark.parametrize("omega1", ["(1+sqrtD)/0", "(1+sqrtD)/0_0"])
def test_cf_zero_denominator_is_exit_1(capsys, omega1):
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", omega1, "--omega2", "sqrtD")
    assert code == 1 and doc == {"error": f"zero denominator in {omega1!r}"}


def test_cf_rejects_garbage(capsys):
    # one "*" at most, and only between a coefficient and sqrtD
    for omega2 in ["wibble+?", "2**sqrtD", "*sqrtD", "1+*sqrtD"]:
        code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", omega2)
        assert code == 1 and "error" in doc, omega2


@pytest.mark.parametrize(
    "omega2, term",
    [
        ("1e1000000*sqrtD", "1e1000000*sqrtD"),
        ("1e4301", "1e4301"),
        ("1+1E1_000_000*sqrtD", "+1E1_000_000*sqrtD"),
        ("1e-4301", "1e-4301"),
        ("1e+4301", "1e+4301"),
    ],
)
def test_cf_decimal_exponent_above_digit_limit_is_exit_1(capsys, omega2, term):
    # 1e1000000*sqrtD ran for about 18 s before its exit 2; the exponent now
    # meets the integer-literal digit limit (4300) before 10**1000000 is built
    start = time.perf_counter()
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", omega2)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and doc == {"error": f"cannot parse term {term!r} in {omega2!r}: decimal exponent above 4300"}


def test_cf_decimal_exponent_cap_ignores_the_int_digit_limit(capsys):
    # with the interpreter's digit limit off, the cap still holds at 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "1e1000000*sqrtD", "--n", "2")
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 1 and doc["error"].endswith("decimal exponent above 4300")


def test_cf_decimal_exponent_at_digit_limit_is_parsed(capsys):
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "1e4300*sqrtD")
    assert code == 2 and "double range" in doc["error"]


@pytest.mark.parametrize("omega1", ["", "1+", "+"])
def test_cf_unparsable_expression_is_exit_1(capsys, omega1):
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", omega1, "--omega2", "sqrtD")
    assert code == 1 and doc == {"error": f"cannot parse quadratic-real expression {omega1!r}"}


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda d: d["lattice"]["omega1"].update(a=[1, 0]), "omega1.a denominator must be positive, got 0"),
        (
            lambda d: d["lattice"].update(omega1=[1, 0]),
            'omega1 must be an object with keys "a", "b", "D", got [1, 0]',
        ),
        (
            lambda d: d.update(lattice="L1"),
            "lattice must be an object with keys \"omega1\", \"omega2\", got 'L1'",
        ),
        (
            lambda d: d.update(g={"0": [1, 0]}),
            "cocycle g must be a list of [re, im] coefficients, got {'0': [1, 0]}",
        ),
    ],
    ids=["denominator-0", "omega1-list", "lattice-string", "g-object"],
)
def test_malformed_cocycle_document_is_exit_1(capsys, tmp_path, edit, error):
    doc = cocycle_to_json(Cocycle(1, 1.0, ExponentPoly.zero(), L1))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--cocycle", str(path))
    assert code == 1 and out == {"error": error}


def test_cf_overlong_denominator_is_exit_1(capsys):
    # int() of a 5000-digit denominator raised ValueError through main
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "(1+sqrtD)/" + "9" * 5000)
    assert code == 1 and doc["error"].startswith("cannot parse denominator")


@pytest.mark.parametrize("den, ascii", [("٣", "3"), ("1_0", "10"), ("١_٠", "10"), ("0_3", "3")])
def test_cf_denominator_reads_the_coefficient_digits(capsys, den, ascii):
    # a (...)/den denominator takes the digit run of the coefficient grammar:
    # these exited 1 with "cannot parse term '(1'"
    want = main(["cf", "--D", "2", "--omega1", f"(1+sqrtD)/{ascii}", "--omega2", "sqrtD", "--n", "3"])
    want_out = capsys.readouterr()
    got = main(["cf", "--D", "2", "--omega1", f"(1+sqrtD)/{den}", "--omega2", "sqrtD", "--n", "3"])
    assert (got, capsys.readouterr()) == (want, want_out) and want == 0


@pytest.mark.parametrize("den", ["٣" * 5000, "1_" * 4300 + "1"], ids=["arabic-indic", "grouped"])
def test_cf_overlong_unicode_or_grouped_denominator_keeps_its_message(capsys, den):
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", f"(1+sqrtD)/{den}")
    assert code == 1 and doc["error"].startswith("cannot parse denominator")


@pytest.mark.parametrize("den", ["1__0", "_1", "1_", "3.0", "-3", "x", ""])
def test_cf_misplaced_underscore_in_denominator_is_exit_1(capsys, den):
    # a tail that is not a digit run is named as the denominator: these said
    # "cannot parse term '(1'"
    omega1 = f"(1+sqrtD)/{den}"
    code, doc = run(capsys, "cf", "--D", "2", "--omega1", omega1, "--omega2", "sqrtD")
    assert code == 1 and doc["error"].startswith(f"cannot parse denominator in {omega1!r}: ")


# Interpreter digit limits: the lowest it accepts, one below the digit cap,
# the default and off.
DIGIT_LIMITS = pytest.mark.parametrize(
    "limit", [640, 1000, None, 0], ids=["limit-640", "limit-1000", "default-limit", "no-limit"]
)


@contextlib.contextmanager
def digit_limit(limit):
    """Run the block under sys.set_int_max_str_digits(limit) (None: as it is), then restore it."""
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@DIGIT_LIMITS
@pytest.mark.parametrize(
    "omega2, error",
    [
        ("1" * 20000 + "*sqrtD", "cannot parse term"),
        ("(1+sqrtD)/" + "7" * 5000, "cannot parse denominator"),
    ],
    ids=["mantissa", "denominator"],
)
def test_cf_overlong_number_ignores_the_int_digit_limit(capsys, limit, omega2, error):
    # these exited 1 at the default digit limit and 2 with it off; the cap on
    # digits now refuses them before any integer is read
    with digit_limit(limit):
        code, doc = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", omega2)
    assert code == 1 and doc["error"].startswith(error)
    assert doc["error"].endswith(": more than 4300 digits in one number")


@DIGIT_LIMITS
@pytest.mark.parametrize(
    "edit",
    [lambda d: d["lattice"]["omega1"].update(b=[int("1" * 5000), 1]), lambda d: d.update(s=int("7" * 5000))],
    ids=["omega1-b-numerator", "s"],
)
def test_json_overlong_integer_ignores_the_int_digit_limit(capsys, tmp_path, limit, edit):
    # the numerator exited 1 at the default digit limit and 2 ("beyond the double
    # range") with it off; s exited 1 under both, the second message echoing all
    # 5000 digits.  The JSON reader now refuses both before int() reads them.
    doc = cocycle_to_json(Cocycle(1, 1.0, ExponentPoly.zero(), L1))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        edit(doc)
        text = json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(saved)
    path = tmp_path / "long.json"
    path.write_text(text)
    with digit_limit(limit):
        code, out = run(capsys, "chern", "--cocycle", str(path))
    assert code == 1 and out == {"error": f"{path} is not valid JSON: more than 4300 digits in one number"}


@DIGIT_LIMITS
def test_long_numbers_get_one_answer_under_every_digit_limit(capsys, tmp_path, limit):
    # 2000 digits pass the double range, a domain error (exit 2); under a digit
    # limit of 1000 both exited 1, from int() and from Fraction()
    doc = cocycle_to_json(Cocycle(1, 1.0, ExponentPoly.zero(), L1))
    with digit_limit(0):
        doc["lattice"]["omega1"]["b"] = [int("1" * 2000), 1]
        text = json.dumps(doc)
    path = tmp_path / "long.json"
    path.write_text(text)
    with digit_limit(limit):
        chern = run(capsys, "chern", "--cocycle", str(path))
        cf = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "1+" + "3" * 2000 + "*sqrtD")
        at_cap = run(capsys, "cf", "--D", "2", "--omega1", "1", "--omega2", "1." + "7" * 4300 + "e4300*sqrtD")
    error = {"error": "value lies beyond the double range"}
    assert chern == cf == at_cap == (2, error)


# Integers past the lowest digit limit the interpreter accepts (640) in flags,
# pairs and documents, with their exit code at the default limit.  Under a limit
# of 640 the first five exited 1 and the two k-group documents printed a
# traceback from a message that echoes the integer.
LONG_ARGV = [
    (["verify", "--cocycle", "s2", "--samples", "10", "--seed", "7" * 1000], 0),
    (["chern", "--cocycle", "s2", "--l1", "1" * 1000 + ",0"], 2),
    (["pairing", "--cocycle", "s2", "--x1", "1" * 1000 + ",0", "--x2", "0,1"], 0),
    (["cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "0" * 700 + "3"], 0),
    (["trivial", "--cocycle", "s2", "--bound", "9" * 1000], 2),
    (["k-group", "--cocycle", "long-s"], 1),
    (["k-group", "--cocycle", "long-D"], 2),
]


@DIGIT_LIMITS
def test_main_runs_each_request_under_the_default_digit_limit(capsys, tmp_path, limit):
    # main runs each request under the default limit and gives the caller's back,
    # after exit 0, 1 and 2 and after --help
    paths = {"s2": write_cocycle(tmp_path, "s2.json", Cocycle(2, 1.0, ExponentPoly.zero(), L1))}
    for name, edit in [
        ("long-s", lambda d: d.update(s=int("1" * 1000))),
        ("long-D", lambda d: d["lattice"]["omega1"].update(D=int("2" * 1000))),
    ]:
        doc = cocycle_to_json(Cocycle(2, 1.0, ExponentPoly.zero(), L1))
        edit(doc)
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    for argv, want_code in LONG_ARGV:
        argv = [paths.get(arg, arg) for arg in argv]
        assert main(argv) == want_code
        want = capsys.readouterr()
        assert want.err == ""
        with digit_limit(limit):
            callers = sys.get_int_max_str_digits()
            assert main(argv) == want_code
            assert sys.get_int_max_str_digits() == callers
        assert capsys.readouterr() == want
    with digit_limit(limit):
        callers = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert sys.get_int_max_str_digits() == callers
    assert capsys.readouterr().out.startswith("usage: qtline")


@pytest.mark.parametrize(
    "coef",
    ["12", "1_000", ".5", "3.", "2.5e3", "1_0.2_5E0_2", "7/3", "0/5", " 4 ", "٣/٤"],
)
def test_coefficients_read_as_fraction_reads_them(coef):
    assert _read_coefficient(coef) == Fraction(coef)


@pytest.mark.parametrize("coef", ["", ".", "1__0", "_1", "1/", "/2", "1/2.5", "1e", "1.5/2", "1 / 2", "x"])
def test_malformed_coefficients_fail_as_fraction_fails(coef):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Fraction(coef)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        _read_coefficient(coef)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(coef=st.text(alphabet="0123456789_./eE ٣d", max_size=12))
def test_coefficients_are_read_by_fraction(coef):
    # _read_coefficient is Fraction behind the caps: the same value, or the same
    # exception class (ValueError, or ZeroDivisionError for "1/0"); twelve
    # characters can pass only the exponent cap
    try:
        want = Fraction(coef)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            _read_coefficient(coef)
        return
    if int(coef.lower().partition("e")[2] or 0) > 4300:
        with pytest.raises(ValueError, match="^decimal exponent above 4300$"):
            _read_coefficient(coef)
    else:
        assert _read_coefficient(coef) == want


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(coef=st.text(alphabet="0123456789_./eE ٣d+-", max_size=12))
def test_signed_coefficients_are_read_by_fraction(coef):
    # the same as above with signs: the exponent cap holds for either sign
    try:
        want = Fraction(coef)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            _read_coefficient(coef)
        return
    if abs(int(coef.lower().partition("e")[2] or 0)) > 4300:
        with pytest.raises(ValueError, match="^decimal exponent above 4300$"):
            _read_coefficient(coef)
    else:
        assert _read_coefficient(coef) == want


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("1e-3", Fraction(1, 1000), 0),
        ("2.5E+1*sqrtD", 0, 25),
        ("1.e-1-2e+0*sqrtD", Fraction(1, 10), -2),
        ("(-1E-1+sqrtD)/2", Fraction(-1, 20), Fraction(1, 2)),
    ],
)
def test_cf_reads_signed_exponents(text, a, b):
    # a sign right after an "e" that follows a digit or "." is the exponent's
    assert cli._parse_quadreal(text, 2) == QuadReal(a, b, 2)


def test_cf_signed_exponent_gives_the_decimal_answer(capsys):
    argv = ["cf", "--D", "2", "--omega2", "sqrtD", "--omega1"]
    assert main([*argv, "1e-3"]) == 0
    signed = capsys.readouterr().out
    assert main([*argv, "0.001"]) == 0
    assert capsys.readouterr().out == signed


@pytest.mark.parametrize(
    "coef, error",
    [
        ("1" * 4301, "more than 4300 digits in one number"),
        ("0." + "1" * 4301, "more than 4300 digits in one number"),
        ("1/" + "1" * 4301, "more than 4300 digits in one number"),
        ("1e4301", "decimal exponent above 4300"),
        ("1e" + "9" * 5000, "decimal exponent above 4300"),
        ("1e-4301", "decimal exponent above 4300"),
        ("1e+4301", "decimal exponent above 4300"),
        ("1e-" + "0" * 5000 + "4301", "decimal exponent above 4300"),
    ],
    ids=["integer", "decimal", "denominator", "exponent", "exponent-digits", "minus", "plus", "minus-zeros"],
)
def test_coefficient_caps(coef, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        _read_coefficient(coef)


@pytest.mark.parametrize(
    "coef, want",
    [
        ("1" * 4300 + "/" + "7" * 4300, Fraction(int("1" * 4300), int("7" * 4300))),
        ("1.5e" + "0" * 5000 + "1", Fraction(15)),
        ("1e-4300", Fraction(1, 10**4300)),
        ("1.5e-" + "0_" * 3000 + "1", Fraction(3, 20)),
    ],
    ids=["runs-at-the-cap", "exponent-leading-zeros", "minus-at-the-cap", "minus-leading-zeros"],
)
def test_coefficient_within_the_caps_is_read(coef, want):
    # the digit cap counts only the runs before the "e"
    assert _read_coefficient(coef) == want


def test_one_subcommand_table():
    """add_parser( is called once in cli.py, inside the loop over _COMMANDS: every
    subcommand, cf too, is a row of that one table."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add_parser"]
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For) and getattr(n.iter, "id", None) == "_COMMANDS"]
    assert len(calls) == 1 and len(loops) == 1
    assert any(node is calls[0] for node in ast.walk(loops[0]))
    assert [row[0] for row in cli._COMMANDS][:2] == ["cf", "verify"]


def cf_stdio(capsys, *argv):
    code = main(["cf", "--D", "2", *argv])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_cf_numerator_beyond_double_range_is_exit_2(capsys):
    # p_0 has 4304 digits: json.dumps raised "Exceeds the limit (4300 digits)"
    # through main, a traceback and exit 1
    code, out, err = cf_stdio(capsys, "--omega1", "(1)/" + "9" * 4300, "--omega2", "99999*sqrtD", "--n", "2")
    assert (code, err) == (2, "")
    assert [json.loads(line) for line in out] == [{"error": "numerator p_0 exceeds the double range; ask for fewer terms"}]


def test_cf_subnormal_bound_is_exit_2(capsys):
    # |omega1|/q_k underflowed to 0.0 from index 5 on and printed
    # "within_bound": false; it is subnormal from index 0
    zeros = "0" * 322
    code, out, err = cf_stdio(capsys, "--omega1", f"(1)/1{zeros}", "--omega2", f"(sqrtD)/1{zeros}", "--n", "8")
    assert (code, err) == (2, "")
    assert [json.loads(line) for line in out] == [
        {"error": "bound |omega1|/q_0 = 9.88131e-323 is below the normal double range"}
    ]


def test_cf_denominator_beyond_double_range_is_exit_2(capsys):
    # theta = sqrt(2)/10^200, so q_k passes the double range while p_k is still
    # far inside it and |omega1|/q_k is still a normal double
    code, out, err = cf_stdio(capsys, "--omega1", "1e200", "--omega2", "sqrtD", "--n", "400")
    assert (code, err) == (2, "")
    assert [json.loads(line) for line in out] == [
        {"error": "denominator q_212 exceeds the double range; ask for fewer terms"}
    ]


def test_json_integer_at_the_digit_cap_is_read(capsys, tmp_path):
    doc = cocycle_to_json(Cocycle(1, 1.0, ExponentPoly.zero(), L1))
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(doc).replace('"s": 1', '"s": -' + "1" * 4300))
    code, out = run(capsys, "chern", "--cocycle", str(path))
    assert code == 1 and out["error"].startswith("cocycle s must be an integer within the double range")


@pytest.mark.parametrize(
    "flags, want_code, want_error",
    [
        (["verify", "--samples", "100001"], 2, "--samples must be at most 100000, got 100001"),
        (["trivial", "--bound", "1000001"], 2, "--bound must be at most 1000000, got 1000001"),
        (["chern", "--l1", "x"], 1, "cannot read ABSENT"),
        (["pairing", "--x1", "x", "--x2", "0,1"], 1, "cannot read ABSENT"),
        (["theta-check", "--theta", "absent-theta.json"], 1, "cannot read ABSENT"),
    ],
    ids=["cap-samples", "cap-bound", "chern-l1", "pairing-x1", "theta-check-theta"],
)
def test_error_order_caps_then_cocycle_then_other_flags(capsys, tmp_path, flags, want_code, want_error):
    # a count cap answers before the cocycle is read; a missing cocycle answers
    # before any other flag or document is looked at
    absent = str(tmp_path / "absent-cocycle.json")
    code, doc = run(capsys, *flags, "--cocycle", absent)
    assert code == want_code and doc["error"].startswith(want_error.replace("ABSENT", absent))


@pytest.mark.parametrize(
    "argv, error",
    [
        (["chern", "--l1", "1,2,3"], "--l1 must be two comma-separated integers, got '1,2,3'"),
        (["chern", "--l2", "1.5,2"], "--l2 must be two comma-separated integers, got '1.5,2'"),
        (["chern", "--v", "a,b"], "--v must be re,im, got 'a,b'"),
        (["chern", "--v", "1"], "--v must be re,im, got '1'"),
        (["pairing", "--x1", "1", "--x2", "0,1"], "--x1 must be two comma-separated integers, got '1'"),
        (["pairing", "--x1", "1,0", "--x2", ","], "--x2 must be two comma-separated integers, got ','"),
    ],
)
def test_pair_flag_errors_name_the_flag_and_its_form(capsys, s2_file, argv, error):
    code, doc = run(capsys, *argv, "--cocycle", s2_file)
    assert code == 1 and doc == {"error": error}


def test_verify(capsys, s2_file):
    code, doc = run(capsys, "verify", "--cocycle", s2_file, "--samples", "200", "--seed", "7")
    assert code == 0
    assert doc["max_residual"] < 1e-9
    assert doc["samples"] == 200 and doc["seed"] == 7


def test_verify_emit_samples(capsys, s2_file):
    code, doc = run(capsys, "verify", "--cocycle", s2_file, "--samples", "50", "--emit-samples")
    assert code == 0
    assert len(doc["residuals"]) == 50
    assert max(doc["residuals"]) == doc["max_residual"]


def test_chern(capsys, s1_file):
    code, doc = run(capsys, "chern", "--cocycle", s1_file)
    assert code == 0
    assert doc == {"numeric_check": 1, "s": 1}


def test_chern_custom_points(capsys, s2_file):
    code, doc = run(capsys, "chern", "--cocycle", s2_file, "--l1", "2,1", "--l2", "1,1", "--v", "1.5,-0.5")
    assert code == 0
    assert doc == {"numeric_check": 2, "s": 2}


def test_normal_form(capsys, tmp_path):
    path = write_cocycle(tmp_path, "c5.json", Cocycle(0, 5.0, ExponentPoly.zero(), L1))
    code, doc = run(capsys, "normal-form", "--cocycle", path)
    assert code == 0
    assert doc["E"] == 0
    assert doc["c"] == [5.0, 0.0]
    assert doc["chi"]["omega1"] == [1.0, 0.0]


def test_trivial(capsys, witness_file):
    code, doc = run(capsys, "trivial", "--cocycle", witness_file, "--bound", "100")
    assert code == 0
    assert doc["status"] == "trivial" and doc["witness"] == 1


def test_pairing(capsys, s2_file):
    code, doc = run(capsys, "pairing", "--cocycle", s2_file, "--x1", "1,0", "--x2", "0,1")
    assert code == 0
    assert doc["agree"] is True
    assert doc["value"][0] == pytest.approx(-1.0, abs=1e-9)
    assert doc["value"][1] == pytest.approx(0.0, abs=1e-9)


def test_pairing_zero_chern_is_domain_error(capsys, witness_file):
    code, doc = run(capsys, "pairing", "--cocycle", witness_file, "--x1", "1,0", "--x2", "0,1")
    assert code == 2 and "error" in doc


def test_k_group(capsys, s2_file, witness_file):
    code, doc = run(capsys, "k-group", "--cocycle", s2_file)
    assert code == 0 and doc == {"finite": True, "modulus": 2, "order": 4}
    code, doc = run(capsys, "k-group", "--cocycle", witness_file)
    assert code == 0 and doc == {"finite": False, "modulus": None, "order": None}


def test_theta_solve_roundtrips_into_theta_check(capsys, tmp_path, witness_file):
    code, doc = run(capsys, "theta-solve", "--cocycle", witness_file)
    assert code == 0 and doc["status"] == "solved" and doc["witness"] == 1
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(doc["theta"]))
    code, doc = run(capsys, "theta-check", "--cocycle", witness_file, "--theta", str(theta_path), "--samples", "300")
    assert code == 0
    assert doc["max_residual"] < 1e-9


def test_theta_solve_certificate(capsys, s1_file):
    code, doc = run(capsys, "theta-solve", "--cocycle", s1_file)
    assert code == 0
    assert doc["status"] == "nontrivial" and "Chern" in doc["certificate"]


def test_malformed_json_is_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = run(capsys, "trivial", "--cocycle", str(path))
    assert code == 1 and "error" in doc


def test_schema_violation_is_exit_1(capsys, tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"s": 1, "c": [1, 0]}))  # missing keys
    code, doc = run(capsys, "verify", "--cocycle", str(path))
    assert code == 1 and "error" in doc


def test_missing_file_is_exit_1(capsys):
    code, doc = run(capsys, "k-group", "--cocycle", "/nonexistent/path.json")
    assert code == 1 and "error" in doc


def test_domain_error_is_exit_2(capsys, tmp_path):
    # degree-7 exponent polynomial violates the library's cap
    doc = cocycle_to_json(Cocycle(0, 1.0, ExponentPoly.zero(), L1))
    doc["g"] = [[0.0, 0.0]] * 7 + [[1.0, 0.0]]
    path = tmp_path / "deg7.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--cocycle", str(path))
    assert code == 2 and "error" in out


def test_bad_flags_are_exit_1(capsys):
    code, doc = run(capsys, "chern", "--nope")
    assert code == 1 and "error" in doc


def test_determinism(capsys, s2_file):
    argv = ["verify", "--cocycle", s2_file, "--samples", "100", "--seed", "3", "--emit-samples"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second


def test_tolerance_env_override(capsys, tmp_path, monkeypatch):
    # |c| is 1e-5 off the unit circle: nontrivial by default, but searchable
    # under a relaxed global tolerance
    c = (1 + 1e-5) * cmath.exp(TWO_PI_I * L1.theta)
    path = write_cocycle(tmp_path, "near.json", Cocycle(0, c, ExponentPoly.zero(), L1))
    code, doc = run(capsys, "trivial", "--cocycle", path)
    assert code == 0 and doc["status"] == "nontrivial"
    monkeypatch.setenv("QTLINE_TOLERANCE", "1e-3")
    code, doc = run(capsys, "trivial", "--cocycle", path)
    assert code == 0 and doc["status"] == "trivial" and doc["witness"] == 1


@pytest.mark.parametrize("alpha", [[0.0, -30.0], [0.0, 30.0]], ids=["alpha=-30i", "alpha=+30i"])
def test_theta_check_out_of_range_is_exit_2(capsys, tmp_path, s1_file, alpha):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"amplitude": [1.0, 0.0], "alpha": alpha, "unit_exponent": []}))
    code, doc = run(capsys, "theta-check", "--cocycle", s1_file, "--theta", str(theta_path), "--samples", "50")
    assert code == 2 and "out of float exp range" in doc["error"]


@pytest.mark.parametrize("raw, expected_code", [("abc", 1), ("inf", 2)])
def test_bad_tolerance_env_is_json_error(capsys, monkeypatch, witness_file, raw, expected_code):
    monkeypatch.setenv("QTLINE_TOLERANCE", raw)
    code, doc = run(capsys, "trivial", "--cocycle", witness_file)
    assert code == expected_code and "tolerance" in doc["error"].lower()


@pytest.mark.parametrize("command", ["trivial", "theta-solve"])
def test_bad_tolerance_env_is_not_read_for_a_nonzero_chern_class(capsys, monkeypatch, s2_file, witness_file, command):
    # a nonzero Chern class is nontrivial with no tolerance; a zero one reads it
    monkeypatch.setenv("QTLINE_TOLERANCE", "abc")
    code, doc = run(capsys, command, "--cocycle", s2_file)
    assert code == 0 and doc["status"] == "nontrivial"
    code, doc = run(capsys, command, "--cocycle", witness_file)
    assert code == 1 and doc == {"error": "QTLINE_TOLERANCE must be a float, got 'abc'"}


@pytest.mark.parametrize(
    "text",
    [
        '{"s": true, "c": [1, 0], "g": [], "lattice": LAT}',
        '{"s": 1, "c": [true, 0], "g": [], "lattice": LAT}',
        '{"s": 1, "c": [NaN, 0], "g": [], "lattice": LAT}',
        '{"s": 1, "c": [1, 0], "g": [[Infinity, 0]], "lattice": LAT}',
        '{"s": 1, "c": [1e999, 0], "g": [], "lattice": LAT}',
        '{"s": 1%s, "c": [1, 0], "g": [], "lattice": LAT}' % ("0" * 400),
    ],
    ids=["bool-s", "bool-c", "nan-c", "infinity-g", "overflow-c", "overflow-s"],
)
def test_non_numeric_json_numbers_are_exit_1(capsys, tmp_path, text):
    lattice = json.dumps(cocycle_to_json(Cocycle(0, 1.0, ExponentPoly.zero(), L1))["lattice"])
    path = tmp_path / "bad.json"
    path.write_text(text.replace("LAT", lattice))
    code, doc = run(capsys, "verify", "--cocycle", str(path), "--samples", "10")
    assert code == 1 and "error" in doc


def _reject_nan(name):
    raise ValueError(f"stdout holds {name}")


@pytest.mark.parametrize("command", ["verify", "theta-check", "chern"])
def test_non_finite_exponent_is_exit_2(capsys, tmp_path, command):
    # g = 1e307 v^6 is finite, but g(v + l) - g(v) is inf - inf = NaN
    doc = cocycle_to_json(Cocycle(0, 1.0, ExponentPoly.zero(), L1))
    doc["g"] = [[0.0, 0.0]] * 6 + [[1e307, 0.0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"amplitude": [1.0, 0.0], "alpha": [0.0, 0.0], "unit_exponent": []}))
    argv = {
        "verify": ["verify", "--cocycle", str(path), "--samples", "20"],
        "theta-check": ["theta-check", "--cocycle", str(path), "--theta", str(theta_path), "--samples", "20"],
        "chern": ["chern", "--cocycle", str(path)],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out, parse_constant=_reject_nan)
    assert code == 2 and "error" in out
    assert "Traceback" not in captured.err


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Both cost start-up time in every one-shot process; qtline needs neither.
    probe = "import qtline.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_python(probe).strip() == "[]"


def test_cli_import_loads_every_module_the_startup_breakdown_times():
    # perfbench/cli_oneshot.py reads each of its MODULES from `-X importtime`
    # of `import qtline.cli`; a module that import leaves out has no sample,
    # and `run.py --trace 1` dies on an empty median
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "cli_oneshot.py").read_text())
    modules = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets)
    )
    assert "qtline.cli" in modules
    probe = f"import qtline.cli, sys; print(sorted(set({modules!r}) - set(sys.modules)))"
    assert fresh_python(probe).strip() == "[]"


@pytest.mark.parametrize("im", [-200.0, 200.0])
def test_imaginary_slope_is_trivial(capsys, tmp_path, im):
    # e^{2*pi*i*g1*omega1} over- or underflows a double here, but Im(g1) cancels
    # from the Pic^0 invariant: the class is trivial with witness 0
    path = write_cocycle(tmp_path, "im.json", Cocycle(0, 1.0, ExponentPoly((0, complex(0, im))), L1))
    code, doc = run(capsys, "trivial", "--cocycle", path)
    assert code == 0 and doc["status"] == "trivial" and doc["witness"] == 0
    code, doc = run(capsys, "normal-form", "--cocycle", path)
    assert code == 0 and doc["c"] == [1.0, 0.0]
    code, doc = run(capsys, "theta-solve", "--cocycle", path)
    assert code == 0 and doc["status"] == "solved" and doc["witness"] == 0
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(doc["theta"]))
    code, doc = run(capsys, "theta-check", "--cocycle", path, "--theta", str(theta_path), "--samples", "300")
    assert code == 0 and doc["max_residual"] < 1e-9


@pytest.mark.parametrize("command", ["normal-form", "trivial", "theta-solve"])
def test_overflowing_fold_is_exit_2(capsys, tmp_path, command):
    # Re(g1)*omega1 = 1.5e308 * 3/2 is beyond the double range: a JSON error, not
    # an OverflowError traceback from math.ceil(inf)
    lat = Pseudolattice(QuadReal.rational(Fraction(3, 2), 7), QuadReal(Fraction(-1, 2), Fraction(1, 3), 7))
    path = write_cocycle(tmp_path, "wide.json", Cocycle(0, 1.0, ExponentPoly((0, 1.5e308)), lat))
    code = main([command, "--cocycle", path])
    captured = capsys.readouterr()
    assert code == 2 and "double range" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_normal_form_exact_at_huge_fold(capsys, tmp_path):
    # over Z + Z*sqrt(2) the invariant is e^{2*pi*i*frac(1e10*sqrt(2))}; the float
    # product 1e10*theta put it 2.9e-6 off
    path = write_cocycle(tmp_path, "g1e10.json", Cocycle(0, 1.0, ExponentPoly((0, 1e10)), L1))
    code, doc = run(capsys, "normal-form", "--cocycle", path)
    want = exact_phase(theta_exact(L1), 0, 10**10)
    assert code == 0 and abs(complex(*doc["c"]) - want) <= 1e-14


@pytest.mark.parametrize("x1", ["1,200", "1,1000"])
def test_pairing_far_lift_answers_as_its_class(capsys, s2_file, x1):
    assert main(["pairing", "--cocycle", s2_file, "--x1", "1,0", "--x2", "0,1"]) == 0
    reduced = capsys.readouterr().out
    assert main(["pairing", "--cocycle", s2_file, "--x1", x1, "--x2", "0,1"]) == 0
    assert capsys.readouterr().out == reduced


@pytest.mark.parametrize("s, x1", [(1000, "1,999"), (200, "1,150"), (130, "1,125")])
def test_pairing_large_beta_lift_is_exit_0(capsys, tmp_path, s, x1):
    # these used to be RangeErrors: a multiplier alone overflowed at a probe point
    path = write_cocycle(tmp_path, f"s{s}.json", Cocycle(s, 1.0, ExponentPoly.zero(), L1))
    code, doc = run(capsys, "pairing", "--cocycle", path, "--x1", x1, "--x2", "0,1")
    assert code == 0 and doc["agree"] is True
    assert abs(complex(*doc["value"]) - cmath.exp(TWO_PI_I / s)) < 1e-9


@pytest.mark.parametrize("x1", ["100000000,1", "10000000000,1", str(10**400) + ",0"], ids=["1e8", "1e10", "1e400"])
def test_pairing_closed_form_on_residues(capsys, s2_file, x1):
    # the closed form read 0.9999999999999992 - 3.9e-08i ("agree": false) at 1e8
    # and overflowed at 1e400; its cross term is now reduced mod s first
    code, doc = run(capsys, "pairing", "--cocycle", s2_file, "--x1", x1, "--x2", "0,1")
    assert code == 0 and doc["agree"] is True
    assert abs(complex(*doc["closed_form"]) - 1.0) < 1e-12


@pytest.mark.parametrize("v, expected_code", [("1e6,0", 0), ("1e9,0", 2), ("1e16,0", 2)])
def test_chern_beyond_integer_resolution_is_exit_2(capsys, s2_file, v, expected_code):
    # at v = 1e16 the four-term sum used to read 0 with exit 0
    code, doc = run(capsys, "chern", "--cocycle", s2_file, "--v", v)
    assert code == expected_code
    assert doc == {"numeric_check": 2, "s": 2} if code == 0 else ("cannot resolve" in doc["error"])


# The CLI contract: one strict-JSON stdout line, exit 0, 1 or 2, no traceback.

BIG = str(10**400)
# Past the lowest digit limit the interpreter accepts (640).
LONG = "7" * 1000
FUZZ_COCYCLES = {
    "s2": Cocycle(2, 1.0, ExponentPoly.zero(), L1),
    "s-3": Cocycle(-3, 0.6 + 0.8j, ExponentPoly((0j, 0.2 + 0.1j, 0.05j)), lattice_golden()),
    "s1000": Cocycle(1000, 1.0, ExponentPoly.zero(), L1),
    "s=1e11": Cocycle(10**11, 1.0, ExponentPoly.zero(), L1),
    "s=-1e300": Cocycle(-(10**300), 1.0, ExponentPoly.zero(), L1),
    "s=1e308": Cocycle(10**308, 1.0, ExponentPoly.zero(), L1),
    "s=1e400": Cocycle(10**400, 1.0, ExponentPoly.zero(), L1),
    "s=1e999": Cocycle(10**999, 1.0, ExponentPoly.zero(), L1),
    "witness": Cocycle(0, cmath.exp(TWO_PI_I * L1.theta), ExponentPoly.zero(), L1),
    "c=1e300": Cocycle(0, 1e300, ExponentPoly.zero(), L1),
    "c=1e-300": Cocycle(0, 1e-300j, ExponentPoly.zero(), L1),
    "g1=1e308": Cocycle(0, 1.0, ExponentPoly((0, 1e308)), L1),
    "im-200": Cocycle(0, 1.0, ExponentPoly((0, -200j)), L1),
    "im+200": Cocycle(0, 1.0, ExponentPoly((0, 200j)), L1),
    "g6=1e307": Cocycle(1, 1.0, ExponentPoly((0,) * 6 + (1e307,)), L1),
    "g2=1e10": Cocycle(5, -1.0, ExponentPoly((1e10, 0, 1e10j)), lattice_golden()),
}
FUZZ_DOCUMENTS = {
    "theta": {"amplitude": [1.0, 0.0], "alpha": [0.0, 0.0], "unit_exponent": []},
    "theta-far": {"amplitude": [1e300, 0.0], "alpha": [0.0, 30.0], "unit_exponent": [[1e300, 0]]},
    "not-an-object": [1, 2, 3],
    "not-json": "{nope",
}


def _flag(name, good, bad=()):
    """(name, value) with a good value twice as often as a bad one."""
    values = st.sampled_from(good) if not bad else st.one_of(*[st.sampled_from(good)] * 2, st.sampled_from(bad))
    return st.tuples(st.just(name), values)


_PAIRS = (["1,0", "0,1", "-3,7", "1,999", "1,150", "100000000,1", f"{BIG},0", f"0,-{BIG}", f"{LONG},1"],
          ["", "1", "1,2,3", "a,1", "1.5,2", ",", "nan,0", "inf,1"])
_DOCUMENT = [*FUZZ_COCYCLES, *FUZZ_DOCUMENTS, "missing"]
# Count flags stay small, or far above their caps, which are refused before any work.
_SAMPLES = (["1", "17", "300"], ["-1", "0", "100001", BIG, LONG, "1e3", "x"])
_BOUND = (["0", "1", "100", "10000"], ["-1", "1000001", BIG, LONG, "x"])
_SEED = (["0", "7", "-1", BIG, LONG], ["1e3", "nan", "x", ""])
_QUADREAL = (["1", "sqrtD", "(1+sqrtD)/2", "2*sqrtD", "-3/2", "1e400"], ["0", "1/0", "(1+sqrtD)/0", "sqrtD+", "wibble"])
_SUBCOMMANDS = {
    "cf": [
        _flag("--D", ["2", "5", "3", "999999937"], ["4", "0", "-2", "1000000001", "x", BIG, LONG]),
        _flag("--omega1", *_QUADREAL),
        _flag("--omega2", *_QUADREAL),
        _flag("--n", ["1", "10", "200", "820"], ["-1", "0", "10001", BIG, "1.5"]),
    ],
    "verify": [_flag("--cocycle", _DOCUMENT), _flag("--samples", *_SAMPLES), _flag("--seed", *_SEED)],
    "chern": [
        _flag("--cocycle", _DOCUMENT),
        _flag("--l1", *_PAIRS),
        _flag("--l2", *_PAIRS),
        _flag("--v", ["0.3,0.2", "1.5,-0.5", "1e16,0", "-1e300,5", "1e308,1e308", "0,1e-320"],
              ["nan,0", "0,inf", "1e309,0", "a,b", "1", "1,2,3", ""]),
    ],
    "normal-form": [_flag("--cocycle", _DOCUMENT)],
    "trivial": [_flag("--cocycle", _DOCUMENT), _flag("--bound", *_BOUND)],
    "pairing": [_flag("--cocycle", _DOCUMENT), _flag("--x1", *_PAIRS), _flag("--x2", *_PAIRS)],
    "k-group": [_flag("--cocycle", _DOCUMENT)],
    "theta-solve": [_flag("--cocycle", _DOCUMENT), _flag("--bound", *_BOUND)],
    "theta-check": [
        _flag("--cocycle", _DOCUMENT),
        _flag("--theta", _DOCUMENT),
        _flag("--samples", *_SAMPLES),
        _flag("--seed", *_SEED),
    ],
}


@st.composite
def fuzz_argv(draw):
    """A subcommand with a random subset of its flags, then, one time in three,
    mutations: a dropped or repeated token, a stray token, a foreign flag."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for flag in _SUBCOMMANDS[command]:
        if draw(st.integers(0, 9)):
            argv += draw(flag)
    if command in ("verify", "theta-check") and draw(st.booleans()):
        argv.append("--emit-samples")
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["drop", "repeat", "stray", "foreign"]))
        at = draw(st.integers(0, len(argv)))
        if kind == "drop" and at < len(argv):
            del argv[at]
        elif kind == "repeat" and at < len(argv):
            argv.insert(at, argv[at])
        elif kind == "stray":
            argv.insert(at, draw(st.sampled_from(["--nope", "-", "--", "extra", "--n=3", "--seed=-1"])))
        else:
            foreign = draw(st.sampled_from([f for flags in _SUBCOMMANDS.values() for f in flags]))
            argv += draw(foreign)
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "missing.json")}
    for name, a in FUZZ_COCYCLES.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(cocycle_to_json(a)))
    for name, doc in FUZZ_DOCUMENTS.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return paths


def check_contract(argv, paths):
    """One strict-JSON stdout line, exit 0, 1 or 2, and no traceback; the same
    stdout and exit code under the lowest digit limit the interpreter accepts."""
    argv = [paths.get(arg, arg) for arg in argv]
    runs = []
    for limit in (None, 640):
        out, err = io.StringIO(), io.StringIO()
        with digit_limit(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(argv), out.getvalue()))
        assert "Traceback" not in err.getvalue()
    assert runs[0] == runs[1]
    code, stdout = runs[0]
    lines = stdout.splitlines()
    assert len(lines) == 1, lines
    json.loads(lines[0], parse_constant=_reject_nan)
    assert code in (0, 1, 2)


CONTRACT_ARGV = [
    *[
        [command, "--cocycle", name]
        for name in ("im-200", "im+200", "g1=1e308")
        for command in ("trivial", "normal-form", "theta-solve")
    ],
    ["pairing", "--cocycle", "s2", "--x1", "1,200", "--x2", "0,1"],
    ["pairing", "--cocycle", "s2", "--x1", "1,1000", "--x2", "0,1"],
    ["pairing", "--cocycle", "s1000", "--x1", "1,999", "--x2", "0,1"],
    ["pairing", "--cocycle", "s2", "--x1", "100000000,1", "--x2", "0,1"],
    ["pairing", "--cocycle", "s2", "--x1", BIG + ",0", "--x2", "0,1"],
    ["chern", "--cocycle", "s2", "--v", "1e9,0"],
    ["chern", "--cocycle", "s2", "--v", "1e16,0"],
    ["chern", "--cocycle", "s2", "--l1", "0," + BIG],
]


@pytest.mark.parametrize(
    "argv",
    CONTRACT_ARGV,
    ids=["-".join(arg.replace(BIG, "1e400") for arg in argv if not arg.startswith("--")) for argv in CONTRACT_ARGV],
)
def test_cli_contract(fuzz_paths, argv):
    check_contract(argv, fuzz_paths)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(argv=fuzz_argv())
def test_cli_contract_fuzz(fuzz_paths, argv):
    check_contract(argv, fuzz_paths)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--samples", "50"],
        ["chern"],
        ["normal-form"],
        ["trivial", "--bound", "100"],
        ["pairing", "--x1", "1,999", "--x2", "0,1"],
        ["k-group"],
        ["theta-solve", "--bound", "100"],
        ["theta-check", "--theta", "theta", "--samples", "50"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_contract_every_document(fuzz_paths, argv):
    # every subcommand that reads a cocycle, on every fuzz document
    for name in _DOCUMENT:
        check_contract([*argv, "--cocycle", name], fuzz_paths)


@pytest.mark.parametrize(
    "s, g",
    [(0, (0j, 1e300 + 0j)), (10**11, ())],
    ids=["g1=1e300", "s=1e11"],
)
def test_unresolvable_residual_is_exit_2(capsys, tmp_path, s, g):
    # both satisfy the identity by construction; verify printed residuals of
    # 1.99 and 0.05 with exit 0
    path = write_cocycle(tmp_path, "big.json", Cocycle(s, 1.0, ExponentPoly(g), L1))
    code, doc = run(capsys, "verify", "--cocycle", path)
    assert code == 2 and "cannot resolve" in doc["error"]


def test_verify_large_s_answers_within_tolerance_or_exits_2(capsys, tmp_path):
    # s = 10^4 over Z + Z*sqrt(2) printed "max_residual": 3.24e-09 with exit 0:
    # the guard sat at the exponent's ulp, not at the residual's error
    for lat in (L1, lattice_golden()):
        for s in range(1000, 10001, 250):
            path = write_cocycle(tmp_path, "s.json", Cocycle(s, 1.0, ExponentPoly.zero(), lat))
            code, doc = run(capsys, "verify", "--cocycle", path, "--samples", "1000", "--seed", "0")
            assert (code == 2 and "cannot resolve" in doc["error"]) or (code == 0 and doc["max_residual"] <= 1e-9)


def test_unresolvable_theta_check_is_exit_2(capsys, tmp_path, witness_file):
    # |alpha * v| passes 1e-9 * 2^52 / (2*pi): the phase of theta is rounding noise
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"amplitude": [1.0, 0.0], "alpha": [1e8, 0.0], "unit_exponent": []}))
    code, doc = run(capsys, "theta-check", "--cocycle", witness_file, "--theta", str(theta_path), "--samples", "50")
    assert code == 2 and "cannot resolve" in doc["error"]


def test_pairing_unresolvable_kappa_is_exit_2(capsys, tmp_path):
    # printed "agree": false with exit 0: |value - closed| = 1.8e-8
    path = write_cocycle(tmp_path, "s1e7.json", Cocycle(10**7, 1.0, ExponentPoly.zero(), L1))
    code, doc = run(capsys, "pairing", "--cocycle", path, "--x1=8514075,6540822", "--x2=9181550,5606644")
    assert code == 2 and "kappa" in doc["error"]
