"""cli_oneshot: one ``python -m qtline.cli`` process per request.

Covers the nine README subcommands at README sizes: ``cf --n 10``, ``verify``
and ``theta-check`` with 1000 samples, ``trivial`` and ``theta-solve`` with
bound 10^4 and planted witnesses |m| <= 10^3, and ``chern``, ``normal-form``,
``pairing`` and ``k-group``.  One ``pairing`` request per pass targets an
s = 0 cocycle and must exit 2.  Interpreter start and import dominate each
request, so this workload shows start-up and argument-handling work; math
speed-ups should leave it unchanged.

``verify`` has three requests per pass out of sixteen, so latency_p90_ms sits
inside the slowest subcommand rather than between two.  Fixture files are
written by this module from exact data (not through ``qtline.jsonio``), and
every answer is checked for its exit code, one strict-JSON document on stdout,
no traceback on stderr, and its fields.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import certify
import oracle
from harness import Request, SpeedProbe, interleave, layer_counts

SAMPLES = 1000
BOUND = 10_000
TOL = 1e-9
TIMEOUT_S = 60
MODULES = [
    "qtline",
    "qtline.errors",
    "qtline.numeric",
    "qtline.pseudolattice",
    "qtline.cocycle",
    "qtline.chern",
    "qtline.picard",
    "qtline.heisenberg",
    "qtline.theta",
    "qtline.jsonio",
    "qtline.cli",
]
# Requests per pass for each of the nine subcommands.
MIX = {"cf": 2, "verify": 3, "chern": 1, "normal-form": 1, "trivial": 2, "pairing": 2, "k-group": 1,
       "theta-solve": 2, "theta-check": 2}
# (text accepted by `qtline cf`, exact (x, y) of x + y*sqrt(D))
OMEGA1 = [("1", (F(1), F(0))), ("3/2", (F(3, 2), F(0))), ("-2", (F(-2), F(0))), ("sqrtD", (F(0), F(1)))]
OMEGA2 = [("sqrtD", (F(0), F(1))), ("1+sqrtD", (F(1), F(1))), ("(1+sqrtD)/2", (F(1, 2), F(1, 2))),
          ("-3/2+2*sqrtD", (F(-3, 2), F(2))), ("2-sqrtD", (F(2), F(-1)))]
CF_RADICANDS = [2, 3, 5, 6, 7, 10, 11, 13]

_TWO_PI_I = 2j * math.pi


class _StrictJSONError(ValueError):
    pass


def _reject_constant(name: str):
    raise _StrictJSONError(f"non-finite JSON constant {name}")


def parse_stdout(stdout: str):
    """The single strict-JSON document on stdout (NaN and Infinity rejected)."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        raise _StrictJSONError("stdout is not exactly one line")
    return json.loads(stdout, parse_constant=_reject_constant)


def speed_probe(root: Path):
    """Calibration by a bare interpreter start, which imports no qtline."""
    env = child_env(root)
    argv = [sys.executable, "-c", "pass"]

    def kernel():
        _spawn(argv, env, root)

    return SpeedProbe(kernel, 0.0, 0.06)


def _spawn(argv: list[str], env, root: Path) -> subprocess.CompletedProcess:
    """Run a child to completion.  Output is captured so that the parent waits
    on the pipes, which close as the child exits: ``Popen.wait`` with a timeout
    and no pipes polls with sleeps of up to 50 ms, which would add to every
    timing."""
    return subprocess.run(argv, check=True, capture_output=True, text=True, env=env, cwd=root, timeout=TIMEOUT_S)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QTLINE_TOLERANCE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _frac_json(q: F) -> list[int]:
    return [q.numerator, q.denominator]


def _lattice_json(lat) -> dict:
    def quad(w):
        return {"a": _frac_json(w[0]), "b": _frac_json(w[1]), "D": lat.d}

    return {"omega1": quad(lat.w1), "omega2": quad(lat.w2)}


def _cocycle_json(s: int, c: complex, coeffs, lat) -> dict:
    return {"s": s, "c": [c.real, c.imag], "g": [[z.real, z.imag] for z in coeffs], "lattice": _lattice_json(lat)}


def _close(pair: list[float], y: complex) -> bool:
    return abs(complex(*pair) - y) <= TOL * max(1.0, abs(y))


class _Fixtures:
    """Writes fixture documents under ``workdir`` and remembers them."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.docs: list[dict] = []

    def write(self, kind: str, doc: dict) -> str:
        path = self.workdir / f"{kind}{len(self.docs)}.json"
        path.write_text(json.dumps(doc))
        self.docs.append(doc)
        return str(path)


def build(seed: int, root: Path, workdir: Path) -> tuple[list[Request], _Fixtures]:
    import qtline as qt

    rng = random.Random(f"cli_oneshot:{seed}")
    gen = certify.CocycleGen(qt, rng)
    fx = _Fixtures(workdir)
    env = child_env(root)
    makers = {
        "cf": _cf, "verify": _verify, "chern": _chern, "normal-form": _normal_form, "trivial": _trivial,
        "pairing": _pairing, "k-group": _k_group, "theta-solve": _theta_solve, "theta-check": _theta_check,
    }
    requests = []
    for sub, count in MIX.items():
        for i in range(count):
            argv, code, check, digest = makers[sub](gen, fx, i)
            requests.append(_request(sub, argv, code, check, digest, root, env))
    return interleave(requests, "cli_oneshot"), fx


def _request(sub: str, args: list[str], code: int, check, digest: str, root: Path, env) -> Request:
    argv = [sys.executable, "-m", "qtline.cli", sub, *args]

    def run(tr):
        proc = tr.call("cli.main", subprocess.run, argv, capture_output=True, text=True, timeout=TIMEOUT_S,
                       env=env, cwd=root, attrs={"subcommand": sub})
        return proc.returncode, proc.stdout, proc.stderr

    def full_check(out) -> bool:
        returncode, stdout, stderr = out
        if returncode != code or "Traceback" in stderr:
            return False
        return check(parse_stdout(stdout))

    # The digest names fixture contents, not their paths, so it repeats across checkouts.
    return Request(sub, run, full_check, f"{sub}|{digest}")


def _witness(rng: random.Random) -> int:
    """|m| <= 10^3, log-uniform, random sign."""
    return rng.choice([-1, 1]) * int(round(math.exp(rng.uniform(0.0, math.log(1000)))))


def _cf(gen, fx, i):
    rng = gen.rng
    d = rng.choice(CF_RADICANDS)
    (t1, w1), (t2, w2) = rng.choice(OMEGA1), rng.choice(OMEGA2)
    if w1[0] * w2[1] == w2[0] * w1[1]:
        (t2, w2) = OMEGA2[1]
    theta = oracle.div(w2, w1, d)
    expected = oracle.convergents(oracle.partial_quotients(*theta, d, 10))
    w1_abs = abs(oracle.to_float(*w1, d))

    def check(doc):
        if [(row["p"], row["q"]) for row in doc] != expected:
            return False
        for k, row in enumerate(doc):
            p, q = expected[k]
            residual = oracle.to_float(p * w1[0] - q * w2[0], p * w1[1] - q * w2[1], d)
            if row["index"] != k or row["within_bound"] is not True:
                return False
            if abs(row["residual"] - residual) > 1e-12 * max(1.0, abs(residual)):
                return False
            if abs(row["bound"] - w1_abs / q) > 1e-12 * w1_abs:
                return False
        return True

    return ["--D", str(d), f"--omega1={t1}", f"--omega2={t2}", "--n", "10"], 0, check, f"{d}|{t1}|{t2}"


def _random_cocycle(gen, s: int | None = None):
    lat = gen.lattice()
    coeffs, k = gen.poly(lat)
    s = gen.s() if s is None else s
    return s, gen.nonzero(), coeffs, k, lat


def _verify(gen, fx, i):
    s, c, coeffs, _, lat = _random_cocycle(gen, gen.rng.randint(-6, 6))
    doc = _cocycle_json(s, c, coeffs, lat)
    seed = gen.rng.randrange(1 << 31)
    path = fx.write("cocycle", doc)

    def check(out):
        return out["samples"] == SAMPLES and out["seed"] == seed and 0.0 <= out["max_residual"] <= TOL

    return ["--cocycle", path, "--samples", str(SAMPLES), "--seed", str(seed)], 0, check, json.dumps([doc, seed])


def _chern(gen, fx, i):
    s, c, coeffs, _, lat = _random_cocycle(gen)
    doc = _cocycle_json(s, c, coeffs, lat)
    path = fx.write("cocycle", doc)
    return ["--cocycle", path], 0, lambda out: out == {"s": s, "numeric_check": s}, json.dumps(doc)


def _normal_form(gen, fx, i):
    s, c, coeffs, k, lat = _random_cocycle(gen)
    doc = _cocycle_json(s, c, coeffs, lat)
    path = fx.write("cocycle", doc)
    chi2 = c * cmath.exp(_TWO_PI_I * lat.phase(k))
    parity = -1 if s % 2 else 1

    def check(out):
        chi = out["chi"]
        return (out["E"] == s and _close(out["c"], chi2) and _close(chi["omega1"], 1.0)
                and _close(chi["omega2"], chi2) and _close(chi["omega1_plus_omega2"], parity * chi2))

    return ["--cocycle", path], 0, check, json.dumps(doc)


def _planted(gen, fx):
    m = _witness(gen.rng)
    a, lat, coeffs, k = gen.planted(m)
    doc = _cocycle_json(0, a.c, coeffs, lat)
    return m, k, lat, coeffs, doc, fx.write("cocycle", doc)


def _trivial(gen, fx, i):
    m, _, _, _, doc, path = _planted(gen, fx)
    expected = {"status": "trivial", "witness": m, "reason": None, "bound": BOUND}
    return ["--cocycle", path, "--bound", str(BOUND)], 0, lambda out: out == expected, json.dumps(doc)


def _pairing(gen, fx, i):
    rng = gen.rng
    x1 = (rng.randint(-5, 5), rng.randint(-5, 5))
    x2 = (rng.randint(-5, 5), rng.randint(-5, 5))
    # "--x1=-4,2": a separate "-4,2" would parse as an option.
    args = [f"--x1={x1[0]},{x1[1]}", f"--x2={x2[0]},{x2[1]}"]
    if i == 0:
        # s = 0: the pairing is a domain error, exit 2 with an error document.
        s, c, coeffs, _, lat = _random_cocycle(gen, 0)
        doc = _cocycle_json(s, c, coeffs, lat)
        path = fx.write("cocycle", doc)
        check = lambda out: set(out) == {"error"} and isinstance(out["error"], str)  # noqa: E731
        return ["--cocycle", path, *args], 2, check, json.dumps([doc, x1, x2])
    s, c, coeffs, _, lat = _random_cocycle(gen)
    doc = _cocycle_json(s, c, coeffs, lat)
    path = fx.write("cocycle", doc)
    expected = cmath.exp(_TWO_PI_I * (x1[0] * x2[1] - x2[0] * x1[1]) / s)

    def check(out):
        return _close(out["value"], expected) and _close(out["closed_form"], expected) and out["agree"] is True

    return ["--cocycle", path, *args], 0, check, json.dumps([doc, x1, x2])


def _k_group(gen, fx, i):
    s, c, coeffs, _, lat = _random_cocycle(gen)
    doc = _cocycle_json(s, c, coeffs, lat)
    path = fx.write("cocycle", doc)
    expected = {"finite": True, "modulus": abs(s), "order": s * s}
    return ["--cocycle", path], 0, lambda out: out == expected, json.dumps(doc)


def _theta_solve(gen, fx, i):
    m, k, lat, coeffs, doc, path = _planted(gen, fx)
    alpha = (m - k) / lat.w1_f

    def check(out):
        theta = out["theta"]
        return (out["status"] == "solved" and out["witness"] == m and _close(theta["alpha"], alpha)
                and theta["amplitude"] == [1.0, 0.0]
                and theta["unit_exponent"] == [[z.real, z.imag] for z in coeffs])

    return ["--cocycle", path, "--bound", str(BOUND)], 0, check, json.dumps(doc)


def _theta_check(gen, fx, i):
    m, k, lat, coeffs, doc, path = _planted(gen, fx)
    alpha = (m - k) / lat.w1_f
    theta_doc = {"amplitude": [1.0, 0.0], "alpha": [alpha, 0.0], "unit_exponent": [[z.real, z.imag] for z in coeffs]}
    theta_path = fx.write("theta", theta_doc)
    seed = gen.rng.randrange(1 << 31)

    def check(out):
        return out["samples"] == SAMPLES and out["seed"] == seed and 0.0 <= out["max_residual"] <= TOL

    args = ["--cocycle", path, "--theta", theta_path, "--samples", str(SAMPLES), "--seed", str(seed)]
    return args, 0, check, json.dumps([doc, theta_doc, seed])


def startup_breakdown(root: Path, reps: int) -> dict[str, tuple[float, str]]:
    """Interpreter start, import of qtline.cli and each module's self import
    time, from fresh subprocesses timed with perf_counter and -X importtime."""
    env = child_env(root)
    starts, imports = [], []
    selfs: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(reps):
        t0 = time.perf_counter()
        _spawn([sys.executable, "-c", "pass"], env, root)
        starts.append(time.perf_counter() - t0)
        proc = _spawn([sys.executable, "-X", "importtime", "-c", "import qtline.cli"], env, root)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name in selfs:
                selfs[name].append(self_us)
            if name == "qtline.cli":
                imports.append(cumulative_us / 1e3)
    out = {
        "cli.interp_start_ms": (statistics.median(starts) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
    }
    for name, values in selfs.items():
        short = name.split(".", 1)[1] if "." in name else name
        out[f"cli.import_self_us.{short}"] = (statistics.median(values), "us")
    return out


def layer_metrics(tracer, fx: _Fixtures, root: Path, jsonio_reps: int, startup_reps: int) -> dict[str, tuple[float, str]]:
    import qtline.jsonio as jsonio

    for doc in fx.docs:
        name, fn = (("jsonio.cocycle_from_json", jsonio.cocycle_from_json) if "s" in doc
                    else ("jsonio.theta_from_json", jsonio.theta_from_json))
        for _ in range(jsonio_reps):
            tracer.call(name, fn, doc)
    out = layer_counts(tracer, ["cli.main", "jsonio.cocycle_from_json", "jsonio.theta_from_json"])
    for name in ("jsonio.cocycle_from_json", "jsonio.theta_from_json"):
        spans = tracer.by_name(name)
        out[f"{name}.us_per_call"] = (statistics.median(s[2] - s[1] for s in spans) * 1e6, "us")
    runs = tracer.by_name("cli.main")
    for sub in MIX:
        durations = [s[2] - s[1] for s in runs if s[6]["subcommand"] == sub]
        out[f"cli.subcommand_p50_ms.{sub}"] = (statistics.median(durations) * 1e3, "ms")
    out.update(startup_breakdown(root, startup_reps))
    return out
