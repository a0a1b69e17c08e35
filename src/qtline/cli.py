"""Command-line interface: every computation behind one binary with JSON I/O.

Exit codes: 0 success (single JSON document on stdout), 1 malformed input
(bad flags, unreadable or schema-violating files), 2 domain errors raised by
the library.  All randomness is controlled by explicit --seed flags, so
identical argv produces byte-identical stdout, whatever integer digit limit
the caller set: a request runs under Python's default (4300 digits).

A ``qtline`` process (``entry``) whose stdout cannot take the answer (closed,
a pipe whose reader has gone, a full disk) says so in one line on stderr and
exits 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from fractions import Fraction

from . import jsonio
from .chern import chern_numeric, chern_symbolic
from .cocycle import Cocycle, cocycle_identity_residuals, max_residual
from .errors import DomainError, FormatError, QTLineError, RangeError
from .heisenberg import LambdaPoint, closed_form_pairing, commutator_pairing, k_group
from .numeric import QuadReal, approx_eq
from .picard import DEFAULT_WITNESS_BOUND, ah_normal_form, triviality_test
from .pseudolattice import LatticeVector, Pseudolattice
from .theta import solve_theta, theta_residuals

# typing is read by type checkers only: importing it costs every process start-up.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Callable, NoReturn

# Caps on the per-request work counts: continued-fraction terms, residual
# samples and triviality-search bound.
MAX_TERMS = 10**4
MAX_SAMPLES = 10**5
MAX_BOUND = 10**6
# Each count flag's cap, keyed by the flag's argparse dest.
_CAPS = {"n": MAX_TERMS, "samples": MAX_SAMPLES, "bound": MAX_BOUND}
# Largest decimal exponent of a cf coefficient (the 400 of "1e400") and most digits
# in one of its numbers or in a JSON integer: Python's default digit limit for an
# integer literal, which main sets for every request.
MAX_DECIMAL_EXPONENT = 4300
_TOO_LONG = f"more than {MAX_DECIMAL_EXPONENT} digits in one number"
# Most characters read from a --cocycle or --theta document: eight lattice integers
# of MAX_DECIMAL_EXPONENT digits make a cocycle of about 35,000, and the largest
# golden document has 539.  A longer one (or an endless file) is refused undecoded.
MAX_DOCUMENT_CHARS = 2**20


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # malformed flags -> exit 1, not 2
        raise FormatError(message)

    def _print_message(self, message: str, file: Any = None) -> None:
        (file or sys.stderr).write(message)  # argparse drops a failed write; entry answers it


def _read_int(literal: str) -> int:
    """int(literal) of at most MAX_DECIMAL_EXPONENT digits: json.load's parse_int and the "(...)/den" reader."""
    if len(literal.removeprefix("-").replace("_", "")) > MAX_DECIMAL_EXPONENT:
        raise ValueError(_TOO_LONG)
    return int(literal)


def _read_coefficient(coef: str) -> Fraction:
    """Fraction(coef) behind two caps: each digit run before the "e" has at most
    MAX_DECIMAL_EXPONENT digits, and a decimal exponent of either sign whose size
    is above MAX_DECIMAL_EXPONENT is refused before its power of ten is built.
    Leading zeros of the exponent count against neither cap."""
    mantissa, _, tail = coef.lower().partition("e")
    if any(len(run) > MAX_DECIMAL_EXPONENT for run in re.findall(r"\d+", mantissa.replace("_", ""))):
        raise ValueError(_TOO_LONG)
    exponent = re.fullmatch(r"[+-]?0*(\d+)", tail.rstrip().replace("_", ""))
    if exponent and (len(exponent[1]) > len(str(MAX_DECIMAL_EXPONENT)) or int(exponent[1]) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent above {MAX_DECIMAL_EXPONENT}")
    if len(tail) > MAX_DECIMAL_EXPONENT:  # Fraction's int() would count the zeros
        coef = re.sub(r"([eE][+-]?)(?:0_?)+(?=\d)", r"\1", coef)
    return Fraction(coef)


def _parse_quadreal(text: str, d: int) -> QuadReal:
    """Parse expressions like "1", "-3/2", "sqrtD", "2*sqrtD", "(1+sqrtD)/2".

    One "*" may stand only between a coefficient and sqrtD.  fractions.Fraction
    reads each coefficient behind _read_coefficient's caps; a "(...)/" form
    takes a run of decimal digits, underscores between them allowed, as its
    denominator, with at most MAX_DECIMAL_EXPONENT digits."""
    s = text.replace(" ", "")
    den = 1
    m = re.fullmatch(r"\((?P<inner>[^()]+)\)/(?P<den>.*)", s, re.DOTALL)
    if m:
        s, den = m.group("inner"), m.group("den")
        try:
            if not re.fullmatch(r"\d+(?:_\d+)*", den):
                raise ValueError(f"{den!r} is not a run of decimal digits")
            den = _read_int(den)
        except ValueError as exc:
            raise FormatError(f"cannot parse denominator in {text!r}: {exc}") from exc
        if den == 0:
            raise FormatError(f"zero denominator in {text!r}")
    # A sign right after an "e" that follows a digit or "." is the exponent's.
    terms = re.findall(r"[+-]?(?:[^+-]|(?<=[\d.][eE])[+-])+", s)
    if not terms or "".join(terms) != s:
        raise FormatError(f"cannot parse quadratic-real expression {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        surd = body.endswith("sqrtD")
        coef = body[:-5].removesuffix("*") if surd else body
        try:
            value = sign * (Fraction(1) if body == "sqrtD" else _read_coefficient(coef))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse term {term!r} in {text!r}: {exc}") from exc
        a, b = (a, b + value) if surd else (a + value, b)
    return QuadReal(a / den, b / den, d)


def _parse_pair(text: str, what: str, convert: Callable[[str], Any], form: str) -> tuple[Any, Any]:
    try:
        first, second = text.split(",")  # ValueError unless exactly two parts
        return convert(first), convert(second)
    except ValueError as exc:
        raise FormatError(f"{what} must be {form}, got {text!r}") from exc


_INT_PAIR = "two comma-separated integers"


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_DOCUMENT_CHARS + 1)
        if len(text) <= MAX_DOCUMENT_CHARS:
            return json.loads(text, parse_int=_read_int, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, NaN/Infinity, nesting
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    raise FormatError(f"{path} is longer than {MAX_DOCUMENT_CHARS} characters")


def _cmd_cf(_: None, args: argparse.Namespace) -> Any:
    omega1 = _parse_quadreal(args.omega1, args.D)
    omega2 = _parse_quadreal(args.omega2, args.D)
    lat = Pseudolattice(omega1, omega2)
    w1 = abs(lat.omega1_float)
    out = []
    for conv in lat.convergents(args.n):
        if conv.q > sys.float_info.max:
            raise RangeError(f"denominator q_{conv.index} exceeds the double range; ask for fewer terms")
        if abs(conv.p) > sys.float_info.max:
            raise RangeError(f"numerator p_{conv.index} exceeds the double range; ask for fewer terms")
        bound = w1 / conv.q
        if bound < sys.float_info.min:  # subnormal: rounding can no longer decide within_bound
            raise RangeError(f"bound |omega1|/q_{conv.index} = {bound:.6g} is below the normal double range")
        value = lat.rounded_combination(conv.p, -conv.q)
        out.append(
            {
                "index": conv.index,
                "p": conv.p,
                "q": conv.q,
                "residual": value,
                "bound": bound,
                "within_bound": abs(value) < bound,
            }
        )
    return out


def _residual_report(residuals: list[float], args: argparse.Namespace) -> Any:
    result: dict[str, Any] = {
        "max_residual": max_residual(residuals),
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.emit_samples:
        result["residuals"] = residuals
    return result


def _cmd_verify(a: Cocycle, args: argparse.Namespace) -> Any:
    return _residual_report(cocycle_identity_residuals(a, samples=args.samples, seed=args.seed), args)


def _cmd_chern(a: Cocycle, args: argparse.Namespace) -> Any:
    l1 = LatticeVector(*_parse_pair(args.l1, "--l1", int, _INT_PAIR))
    l2 = LatticeVector(*_parse_pair(args.l2, "--l2", int, _INT_PAIR))
    v = complex(*_parse_pair(args.v, "--v", float, "re,im"))
    return {"s": chern_symbolic(a).s, "numeric_check": chern_numeric(a, l1, l2, v)}


def _cmd_normal_form(a: Cocycle, args: argparse.Namespace) -> Any:
    data = ah_normal_form(a)
    return {
        "E": data.e_form.s,
        "c": jsonio.complex_to_json(data.chi_omega2),
        "chi": {
            "omega1": jsonio.complex_to_json(data.chi_omega1),
            "omega2": jsonio.complex_to_json(data.chi_omega2),
            "omega1_plus_omega2": jsonio.complex_to_json(data.chi_omega12),
        },
    }


def _cmd_trivial(a: Cocycle, args: argparse.Namespace) -> Any:
    verdict = triviality_test(a, bound=args.bound)
    return {
        "status": verdict.status,
        "witness": verdict.witness,
        "reason": verdict.reason,
        "bound": args.bound,
    }


def _cmd_pairing(a: Cocycle, args: argparse.Namespace) -> Any:
    denom = abs(a.s) if a.s != 0 else 1
    x1 = LambdaPoint(*_parse_pair(args.x1, "--x1", int, _INT_PAIR), denom)
    x2 = LambdaPoint(*_parse_pair(args.x2, "--x2", int, _INT_PAIR), denom)
    value = commutator_pairing(a, x1, x2)
    closed = closed_form_pairing(a, x1, x2)
    return {
        "value": jsonio.complex_to_json(value),
        "closed_form": jsonio.complex_to_json(closed),
        "agree": approx_eq(value, closed),
    }


def _cmd_k_group(a: Cocycle, args: argparse.Namespace) -> Any:
    desc = k_group(a)
    return {"finite": desc.finite, "modulus": desc.modulus, "order": desc.order}


def _cmd_theta_solve(a: Cocycle, args: argparse.Namespace) -> Any:
    result = solve_theta(a, bound=args.bound)
    if result.solved:
        return {
            "status": "solved",
            "witness": result.verdict.witness,
            "theta": jsonio.theta_to_json(result.candidate),
        }
    if result.verdict.is_nontrivial:
        return {"status": "nontrivial", "certificate": result.verdict.reason}
    return {"status": "unknown", "bound": args.bound}


def _cmd_theta_check(a: Cocycle, args: argparse.Namespace) -> Any:
    t = jsonio.theta_from_json(_load_json(args.theta))
    return _residual_report(theta_residuals(a, t, samples=args.samples, seed=args.seed), args)


_COCYCLE = ("--cocycle", {"required": True})
_SAMPLE_FLAGS = (
    ("--samples", {"type": int, "default": 1000}),
    ("--seed", {"type": int, "default": 0}),
    ("--emit-samples", {"action": "store_true", "help": "include per-sample residuals"}),
)
_BOUND = ("--bound", {"type": int, "default": DEFAULT_WITNESS_BOUND})
# Every subcommand: name, help, handler(cocycle or None, args) and its flags,
# in --help order; main reads the cocycle of the subcommands with --cocycle.
_COMMANDS = (
    ("cf", "continued-fraction convergents of omega2/omega1", _cmd_cf, (
        ("--D", {"type": int, "required": True, "help": "square-free radicand of the field"}),
        ("--omega1", {"required": True, "help": 'e.g. "1", "3/2", "(1+sqrtD)/2"'}),
        ("--omega2", {"required": True, "help": 'e.g. "sqrtD", "1+sqrtD"'}),
        ("--n", {"type": int, "default": 10}),
    )),
    ("verify", "max residual of the cocycle identity at samples", _cmd_verify, (_COCYCLE, *_SAMPLE_FLAGS)),
    ("chern", "Chern integer, symbolic and numeric routes", _cmd_chern, (
        _COCYCLE,
        ("--l1", {"default": "1,0", "help": "integer pair a,b"}),
        ("--l2", {"default": "0,1", "help": "integer pair a,b"}),
        ("--v", {"default": "0.3,0.2", "help": "complex sample point re,im"}),
    )),
    ("normal-form", "classifying pair (chi, E)", _cmd_normal_form, (_COCYCLE,)),
    ("trivial", "bounded cohomological-triviality verdict", _cmd_trivial, (_COCYCLE, _BOUND)),
    ("pairing", "commutator pairing on stabilizer lifts", _cmd_pairing, (
        _COCYCLE,
        ("--x1", {"required": True, "help": "integer pair alpha,beta"}),
        ("--x2", {"required": True, "help": "integer pair alpha,beta"}),
    )),
    ("k-group", "translation-stabilizer group description", _cmd_k_group, (_COCYCLE,)),
    ("theta-solve", "solve the theta functional equation or certify", _cmd_theta_solve, (_COCYCLE, _BOUND)),
    ("theta-check", "residual of a candidate theta function", _cmd_theta_check, (
        _COCYCLE,
        ("--theta", {"required": True}),
        *_SAMPLE_FLAGS,
    )),
)


def _build_parser() -> _Parser:
    # --help states the request's contract: the docstring without its last
    # paragraph, which is about the process (empty under -OO)
    parser = _Parser(prog="qtline", description=(__doc__ or "").rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def _emit(document: Any) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    # Every int<->str conversion of the request (int flags and pairs, integers
    # echoed in messages and on stdout) runs under Python's default digit limit.
    # The limit is interpreter-wide: other threads share it until it is restored.
    saved_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DECIMAL_EXPONENT)
    try:
        args = _build_parser().parse_args(argv)
        # every cap is checked before any document is read, and the cocycle
        # before any other flag or document
        for flag, cap in _CAPS.items():
            value = getattr(args, flag, None)
            if value is not None and value > cap:
                raise DomainError(f"--{flag} must be at most {cap}, got {value}")
        cocycle = jsonio.cocycle_from_json(_load_json(args.cocycle)) if "cocycle" in args else None
        _emit(args.func(cocycle, args))
        return 0
    except QTLineError as exc:
        _emit({"error": str(exc)})
        return 1 if isinstance(exc, FormatError) else 2
    finally:
        sys.set_int_max_str_digits(saved_limit)


def _unwritable(why: object) -> int:
    print(f"qtline: cannot write the answer to stdout: {why}", file=sys.stderr)
    return 3


def entry() -> NoReturn:
    """The process entry of the ``qtline`` script and ``python -m qtline.cli``:
    main on sys.argv, then exit with its code."""
    if sys.stdout is None:  # the process started with stdout closed
        code = _unwritable("stdout is closed")
    else:
        try:
            try:
                code = main()
            except SystemExit as exc:  # the parser answered --help
                code = exc.code
            sys.stdout.flush()
        except OSError as exc:  # main answers every error of reading its input, so this is stdout's
            # shutdown flushes stdout again: let it reach devnull, not a second report
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = _unwritable(exc)
    # The answer is written and nothing left is needed: moving every object to
    # the permanent generation spares shutdown's full collections a walk over
    # the whole heap.  Cyclic garbage left now is never finalized; Python does
    # not promise __del__ at exit, qtline defines none and opens files only
    # under `with`.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
