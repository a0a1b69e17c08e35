"""Command-line interface: every computation behind one binary with JSON I/O.

Exit codes: 0 success (single JSON document on stdout), 1 malformed input
(bad flags, unreadable or schema-violating files), 2 domain errors raised by
the library.  All randomness is controlled by explicit --seed flags, so
identical argv produces byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any, NoReturn

from . import jsonio
from .chern import chern_numeric, chern_symbolic
from .cocycle import cocycle_identity_residuals, max_residual
from .errors import DomainError, FormatError, QTLineError, RangeError
from .heisenberg import LambdaPoint, closed_form_pairing, commutator_pairing, k_group
from .numeric import QuadReal, approx_eq
from .picard import DEFAULT_WITNESS_BOUND, ah_normal_form, triviality_test
from .pseudolattice import LatticeVector, Pseudolattice
from .theta import solve_theta, theta_residuals

# Caps on the per-request work counts: continued-fraction terms, residual
# samples and triviality-search bound.
MAX_TERMS = 10**4
MAX_SAMPLES = 10**5
MAX_BOUND = 10**6
# Each count flag's cap, keyed by the flag's argparse dest.
_CAPS = {"n": MAX_TERMS, "samples": MAX_SAMPLES, "bound": MAX_BOUND}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # malformed flags -> exit 1, not 2
        raise _UsageError(message)


def _parse_quadreal(text: str, d: int) -> QuadReal:
    """Parse expressions like "1", "-3/2", "sqrtD", "2*sqrtD", "(1+sqrtD)/2"."""
    s = text.replace(" ", "")
    den = 1
    m = re.fullmatch(r"\((?P<inner>[^()]+)\)/(?P<den>[0-9]+)", s)
    if m:
        s, den = m.group("inner"), int(m.group("den"))
        if den == 0:
            raise FormatError(f"zero denominator in {text!r}")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if not terms or "".join(terms) != s:
        raise FormatError(f"cannot parse quadratic-real expression {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        try:
            if body.endswith("sqrtD"):
                coef = body[:-5].rstrip("*")
                b += sign * (Fraction(coef) if coef else Fraction(1))
            else:
                a += sign * Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse term {term!r} in {text!r}: {exc}") from exc
    return QuadReal(a / den, b / den, d)


def _parse_int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"{what} must be two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"{what} must be two comma-separated integers, got {text!r}") from exc


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"{what} must be re,im, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise FormatError(f"{what} must be re,im, got {text!r}") from exc


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, NaN/Infinity, nesting
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_cocycle(path: str):
    return jsonio.cocycle_from_json(_load_json(path))


def _cmd_cf(args: argparse.Namespace) -> Any:
    omega1 = _parse_quadreal(args.omega1, args.D)
    omega2 = _parse_quadreal(args.omega2, args.D)
    lat = Pseudolattice(omega1, omega2)
    w1 = abs(lat.omega1_float)
    out = []
    for conv in lat.convergents(args.n):
        if conv.q > sys.float_info.max:
            raise RangeError(f"denominator q_{conv.index} exceeds the double range; ask for fewer terms")
        value = lat.rounded_combination(conv.p, -conv.q)
        out.append(
            {
                "index": conv.index,
                "p": conv.p,
                "q": conv.q,
                "residual": value,
                "bound": w1 / conv.q,
                "within_bound": abs(value) < w1 / conv.q,
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


def _cmd_verify(args: argparse.Namespace) -> Any:
    a = _load_cocycle(args.cocycle)
    return _residual_report(cocycle_identity_residuals(a, samples=args.samples, seed=args.seed), args)


def _cmd_chern(args: argparse.Namespace) -> Any:
    a = _load_cocycle(args.cocycle)
    l1 = LatticeVector(*_parse_int_pair(args.l1, "--l1"))
    l2 = LatticeVector(*_parse_int_pair(args.l2, "--l2"))
    v = _parse_complex(args.v, "--v")
    return {"s": chern_symbolic(a).s, "numeric_check": chern_numeric(a, l1, l2, v)}


def _cmd_normal_form(args: argparse.Namespace) -> Any:
    data = ah_normal_form(_load_cocycle(args.cocycle))
    return {
        "E": data.e_form.s,
        "c": jsonio.complex_to_json(data.chi_omega2),
        "chi": {
            "omega1": jsonio.complex_to_json(data.chi_omega1),
            "omega2": jsonio.complex_to_json(data.chi_omega2),
            "omega1_plus_omega2": jsonio.complex_to_json(data.chi_omega12),
        },
    }


def _cmd_trivial(args: argparse.Namespace) -> Any:
    verdict = triviality_test(_load_cocycle(args.cocycle), bound=args.bound)
    return {
        "status": verdict.status,
        "witness": verdict.witness,
        "reason": verdict.reason,
        "bound": args.bound,
    }


def _cmd_pairing(args: argparse.Namespace) -> Any:
    a = _load_cocycle(args.cocycle)
    denom = abs(a.s) if a.s != 0 else 1
    x1 = LambdaPoint(*_parse_int_pair(args.x1, "--x1"), denom)
    x2 = LambdaPoint(*_parse_int_pair(args.x2, "--x2"), denom)
    value = commutator_pairing(a, x1, x2)
    closed = closed_form_pairing(a, x1, x2)
    return {
        "value": jsonio.complex_to_json(value),
        "closed_form": jsonio.complex_to_json(closed),
        "agree": approx_eq(value, closed),
    }


def _cmd_k_group(args: argparse.Namespace) -> Any:
    desc = k_group(_load_cocycle(args.cocycle))
    return {"finite": desc.finite, "modulus": desc.modulus, "order": desc.order}


def _cmd_theta_solve(args: argparse.Namespace) -> Any:
    result = solve_theta(_load_cocycle(args.cocycle), bound=args.bound)
    if result.solved:
        return {
            "status": "solved",
            "witness": result.verdict.witness,
            "theta": jsonio.theta_to_json(result.candidate),
        }
    if result.verdict.is_nontrivial:
        return {"status": "nontrivial", "certificate": result.verdict.reason}
    return {"status": "unknown", "bound": args.bound}


def _cmd_theta_check(args: argparse.Namespace) -> Any:
    a = _load_cocycle(args.cocycle)
    t = jsonio.theta_from_json(_load_json(args.theta))
    return _residual_report(theta_residuals(a, t, samples=args.samples, seed=args.seed), args)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued-fraction convergents of omega2/omega1")
    p.add_argument("--D", type=int, required=True, help="square-free radicand of the field")
    p.add_argument("--omega1", required=True, help='e.g. "1", "3/2", "(1+sqrtD)/2"')
    p.add_argument("--omega2", required=True, help='e.g. "sqrtD", "1+sqrtD"')
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("verify", help="max residual of the cocycle identity at samples")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-samples", action="store_true", help="include per-sample residuals")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chern", help="Chern integer, symbolic and numeric routes")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--l1", default="1,0", help="integer pair a,b")
    p.add_argument("--l2", default="0,1", help="integer pair a,b")
    p.add_argument("--v", default="0.3,0.2", help="complex sample point re,im")
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("normal-form", help="classifying pair (chi, E)")
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("trivial", help="bounded cohomological-triviality verdict")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_WITNESS_BOUND)
    p.set_defaults(func=_cmd_trivial)

    p = sub.add_parser("pairing", help="commutator pairing on stabilizer lifts")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--x1", required=True, help="integer pair alpha,beta")
    p.add_argument("--x2", required=True, help="integer pair alpha,beta")
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("k-group", help="translation-stabilizer group description")
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=_cmd_k_group)

    p = sub.add_parser("theta-solve", help="solve the theta functional equation or certify")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_WITNESS_BOUND)
    p.set_defaults(func=_cmd_theta_solve)

    p = sub.add_parser("theta-check", help="residual of a candidate theta function")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-samples", action="store_true", help="include per-sample residuals")
    p.set_defaults(func=_cmd_theta_check)

    return parser


def _emit(document: Any) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit({"error": str(exc)})
        return 1
    try:
        # every cap is checked before any document is read
        for flag, cap in _CAPS.items():
            value = getattr(args, flag, None)
            if value is not None and value > cap:
                raise DomainError(f"--{flag} must be at most {cap}, got {value}")
        _emit(args.func(args))
        return 0
    except FormatError as exc:
        _emit({"error": str(exc)})
        return 1
    except QTLineError as exc:
        _emit({"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
