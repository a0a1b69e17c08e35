"""Write tests/golden/cli.jsonl, the golden corpus of qtline CLI runs.

Each line of the corpus is one JSON object:

    "argv"       the argument list given to qtline.cli.main; document
                 arguments are relative file names;
    "documents"  file name -> file text, for every document the run reads;
    "env"        environment variables set for the run (absent when none);
    "stdout"     the exact text the run printed;
    "exit"       its exit code.

tests/test_golden.py replays every line in-process through ``run`` below and
compares the text.  The corpus pins values; tests/test_cli.py keeps checking
the form of the output.  Regenerate it only for a change that is meant to
alter stdout, and list the lines that changed with the change.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_corpus.py
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from qtline import Cocycle, ExponentPoly, Pseudolattice, QuadReal
from qtline import cli
from qtline.jsonio import cocycle_to_json, lattice_to_json

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"


def run(argv: list[str], documents: dict[str, str], env: dict[str, str] | None = None) -> tuple[str, int]:
    """(stdout, exit code) of qtline.cli.main(argv), run in a fresh temporary
    directory that holds the documents, with env added to the environment."""
    saved_env = {name: os.environ.get(name) for name in env or {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in documents.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        out = io.StringIO()
        try:
            os.chdir(tmp)
            os.environ.update(env or {})
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
            for name, value in saved_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return out.getvalue(), code


def _cases() -> list[tuple[list[str], dict[str, str], dict[str, str] | None]]:
    """Every (argv, documents, env) of the corpus, in order."""
    sys.path.insert(0, str(HERE.parent))
    from test_cli import FUZZ_COCYCLES, FUZZ_DOCUMENTS

    cases = []

    def add(argv, documents=None, env=None):
        cases.append((argv, documents or {}, env))

    def text(doc) -> str:
        return doc if isinstance(doc, str) else json.dumps(doc)

    # 1. The README commands, on every document of the CLI contract fuzz.
    fuzz = {f"{name}.json": text(cocycle_to_json(a)) for name, a in FUZZ_COCYCLES.items()}
    fuzz.update({f"{name}.json": text(doc) for name, doc in FUZZ_DOCUMENTS.items()})
    readme = [
        ["verify", "--samples", "50"],
        ["verify", "--samples", "1000", "--seed", "7"],
        ["chern"],
        ["chern", "--l1", "1,0", "--l2", "0,1", "--v", "0.3,0.2"],
        ["normal-form"],
        ["trivial", "--bound", "100"],
        ["pairing", "--x1", "1,0", "--x2", "0,1"],
        ["pairing", "--x1", "1,999", "--x2", "0,1"],
        ["k-group"],
        ["theta-solve", "--bound", "100"],
        ["theta-check", "--theta", "theta.json", "--samples", "50"],
    ]
    for argv in readme:
        for name in [*fuzz, "missing.json"]:
            documents = {key: fuzz[key] for key in (name, *argv) if key in fuzz}
            add([*argv, "--cocycle", name], documents)

    # 2. Cocycles with both signs of s up to 10^4 over four lattices, some with
    # a Pic^0 fold m0 != 0; theta-check reads what theta-solve printed.
    F = Fraction
    lattices = [
        Pseudolattice(QuadReal(F(1), F(0), 2), QuadReal(F(0), F(1), 2)),
        Pseudolattice(QuadReal(F(1), F(0), 5), QuadReal(F(1, 2), F(1, 2), 5)),
        Pseudolattice(QuadReal(F(3, 2), F(0), 7), QuadReal(F(-1, 2), F(1, 3), 7)),
        Pseudolattice(QuadReal(F(1), F(0), 3), QuadReal(F(1, 2), F(-1, 2), 3)),
    ]
    rng = random.Random(20261018)
    for k, lat in enumerate(lattices):
        w1, theta = lat.omega1_float, lat.theta
        cocycles = []
        for s in (-(10**4), -997, -3, -1, 1, 2, 7, 1000, 10**4):
            c = rng.uniform(0.5, 2) * cmath.exp(1j * rng.uniform(-3, 3))
            g = tuple(complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(rng.randint(0, 3)))
            cocycles.append(Cocycle(s, c, ExponentPoly(g), lat))
        # s = 0: Re(g1)*omega1 near x, and c = e^{2*pi*i*(m - x)*theta}, so the
        # class is trivial with witness m up to the float error of c.
        for x, m in ((0.3, 0), (2.7, 5), (-5.2, -3), (1000.1, 7), (10**8 + 0.3, 10**8 - 2), (10**10 + 0.2, 1)):
            c = cmath.exp(2j * cmath.pi * ((m - round(x)) * theta))
            g1 = complex(x / w1, rng.uniform(-1, 1))
            cocycles.append(Cocycle(0, c, ExponentPoly((rng.uniform(-1, 1), g1, 0.1j)), lat))
        cocycles.append(Cocycle(0, 1.25 * cmath.exp(0.7j), ExponentPoly((0, 3.4 / w1)), lat))
        for i, a in enumerate(cocycles):
            name = f"L{k}-{i}.json"
            documents = {name: text(cocycle_to_json(a))}
            n = max(abs(a.s), 1)
            pairs = [(rng.randrange(-n, 2 * n), rng.randrange(-n, 2 * n)) for _ in range(4)]
            for argv in (
                ["verify", "--samples", "40", "--seed", str(i)],
                ["chern", f"--l1={pairs[0][0]},{pairs[0][1]}", "--l2=2,-1"],
                ["normal-form"],
                ["trivial", "--bound", "200"],
                ["pairing", f"--x1={pairs[1][0]},{pairs[1][1]}", f"--x2={pairs[2][0]},{pairs[2][1]}"],
                ["pairing", f"--x1={pairs[3][0]},{pairs[3][1]}", "--x2=0,1"],
                ["k-group"],
            ):
                add([*argv, "--cocycle", name], documents)
            solve = ["theta-solve", "--bound", "200", "--cocycle", name]
            add(solve, documents)
            out, code = run(solve, documents)
            doc = json.loads(out)
            if code == 0 and doc["status"] == "solved":
                add(
                    ["theta-check", "--cocycle", name, "--theta", "theta.json", "--samples", "40"],
                    {**documents, "theta.json": text(doc["theta"])},
                )

    # 3. Continued fractions: D up to 10^6, both signs, n up to 640.
    for d, omega1, omega2, n in (
        (2, "1", "sqrtD", 200),
        (5, "1", "(1+sqrtD)/2", 640),
        (3, "1", "(1-sqrtD)/2", 120),
        (7, "3/2", "-1/2+1/3*sqrtD", 120),
        (13, "-1", "sqrtD", 60),
        (61, "2*sqrtD", "-3", 60),
        (94, "1+sqrtD", "1-sqrtD", 60),
        (991, "(1+sqrtD)/2", "sqrtD", 40),
        (9973, "-7/3", "2-sqrtD", 40),
        (65537, "1", "-sqrtD", 30),
        (999983, "1", "sqrtD", 30),
        (999997, "5", "(3+sqrtD)/4", 30),
        (999994, "1", "sqrtD", 10),
    ):
        add(["cf", "--D", str(d), f"--omega1={omega1}", f"--omega2={omega2}", "--n", str(n)])
    for d in (17, 123457, 524287, 999331):
        add(["cf", "--D", str(d), "--omega1", "1", "--omega2", "sqrtD", "--n", "25"])
        add(["cf", "--D", str(d), "--omega1=-1", "--omega2=(1+sqrtD)/3", "--n", "25"])

    # 4. Inputs a guard answers with exit 2 (and a few with exit 1).
    L1 = lattices[0]
    guarded = {
        "s2.json": Cocycle(2, 1.0, ExponentPoly.zero(), L1),
        "s1e4.json": Cocycle(10**4, 1.0, ExponentPoly.zero(), L1),
        "s1e7.json": Cocycle(10**7, 1.0, ExponentPoly.zero(), L1),
        "s1e11.json": Cocycle(10**11, 1.0, ExponentPoly.zero(), L1),
        "g1e300.json": Cocycle(0, 1.0, ExponentPoly((0j, 1e300 + 0j)), L1),
        "g1e10.json": Cocycle(0, 1.0, ExponentPoly((0j, 1e10 + 0j)), L1),
        "g1e15.json": Cocycle(0, 1.0, ExponentPoly((0j, 1e15 + 0j)), L1),
        "wide1e308.json": Cocycle(0, 1.0, ExponentPoly((0, 1e308)), lattices[2]),
        "wide1.5e308.json": Cocycle(0, 1.0, ExponentPoly((0, 1.5e308)), lattices[2]),
        "witness.json": Cocycle(0, cmath.exp(2j * cmath.pi * L1.theta), ExponentPoly.zero(), L1),
    }
    documents = {name: text(cocycle_to_json(a)) for name, a in guarded.items()}
    base = cocycle_to_json(Cocycle(0, 1.0, ExponentPoly.zero(), L1))
    documents["deg7.json"] = text({**base, "g": [[0.0, 0.0]] * 7 + [[1.0, 0.0]]})
    documents["huge.json"] = text({**base, "g": [[0.0, 0.0]] * 6 + [[1e307, 0.0]]})
    documents["d4.json"] = text({**base, "lattice": {**base["lattice"], "omega1": {"a": [1, 1], "b": [0, 1], "D": 4}}})
    documents["zero.json"] = text({**base, "lattice": {**base["lattice"], "omega1": {"a": [0, 1], "b": [0, 1], "D": 2}}})
    documents["mixed.json"] = text({**base, "lattice": {**base["lattice"], "omega1": {"a": [1, 1], "b": [0, 1], "D": 3}}})
    documents["schema.json"] = text({"s": 1, "c": [1, 0]})
    documents["theta.json"] = text({"amplitude": [1.0, 0.0], "alpha": [0.0, 0.0], "unit_exponent": []})
    for name, alpha in (("theta-30i.json", [0.0, -30.0]), ("theta+30i.json", [0.0, 30.0]), ("theta1e8.json", [1e8, 0.0])):
        documents[name] = text({"amplitude": [1.0, 0.0], "alpha": alpha, "unit_exponent": []})
    rational_lattice = lattice_to_json(L1)
    rational_lattice["omega2"] = {"a": [3, 1], "b": [0, 1], "D": 2}
    documents["rational.json"] = text({**base, "lattice": rational_lattice})
    for argv, env in (
        (["cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "820"], None),
        (["cf", "--D", str(10**9 + 1), "--omega1", "1", "--omega2", "sqrtD"], None),
        (["cf", "--D", "4", "--omega1", "1", "--omega2", "sqrtD"], None),
        (["cf", "--D", "2", "--omega1", "0", "--omega2", "sqrtD"], None),
        (["cf", "--D", "2", "--omega1", "1", "--omega2", "3/7"], None),
        (["cf", "--D", "2", "--omega1", "1", "--omega2", "wibble+?"], None),
        (["cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "10001"], None),
        (["verify", "--cocycle", "s2.json", "--samples", "100001"], None),
        (["theta-check", "--cocycle", "s2.json", "--theta", "theta.json", "--samples", "100001"], None),
        (["trivial", "--cocycle", "s2.json", "--bound", "1000001"], None),
        (["theta-solve", "--cocycle", "s2.json", "--bound", "1000001"], None),
        (["verify", "--cocycle", "deg7.json"], None),
        (["verify", "--cocycle", "d4.json"], None),
        (["verify", "--cocycle", "zero.json"], None),
        (["verify", "--cocycle", "mixed.json"], None),
        (["verify", "--cocycle", "rational.json"], None),
        (["verify", "--cocycle", "schema.json"], None),
        (["chern", "--nope"], None),
        (["theta-check", "--cocycle", "s2.json", "--theta", "theta-30i.json", "--samples", "50"], None),
        (["theta-check", "--cocycle", "s2.json", "--theta", "theta+30i.json", "--samples", "50"], None),
        (["theta-check", "--cocycle", "witness.json", "--theta", "theta1e8.json", "--samples", "50"], None),
        (["trivial", "--cocycle", "witness.json"], {"QTLINE_TOLERANCE": "abc"}),
        (["trivial", "--cocycle", "witness.json"], {"QTLINE_TOLERANCE": "inf"}),
        (["trivial", "--cocycle", "witness.json"], {"QTLINE_TOLERANCE": "1e-3"}),
        (["verify", "--cocycle", "huge.json", "--samples", "20"], None),
        (["theta-check", "--cocycle", "huge.json", "--theta", "theta.json", "--samples", "20"], None),
        (["chern", "--cocycle", "huge.json"], None),
        (["chern", "--cocycle", "s2.json", "--v", "1e6,0"], None),
        (["chern", "--cocycle", "s2.json", "--v", "1e9,0"], None),
        (["chern", "--cocycle", "s2.json", "--v", "1e16,0"], None),
        (["chern", "--cocycle", "s2.json", "--l1", "0," + str(10**400)], None),
        (["verify", "--cocycle", "g1e300.json"], None),
        (["verify", "--cocycle", "s1e11.json"], None),
        (["verify", "--cocycle", "s1e4.json", "--samples", "1000", "--seed", "0"], None),
        (["pairing", "--cocycle", "s1e7.json", "--x1=8514075,6540822", "--x2=9181550,5606644"], None),
        (["pairing", "--cocycle", "witness.json", "--x1", "1,0", "--x2", "0,1"], None),
        (["pairing", "--cocycle", "s2.json", "--x1", str(10**400) + ",0", "--x2", "0,1"], None),
        (["pairing", "--cocycle", "s2.json", "--x1", "100000000,1", "--x2", "0,1"], None),
        (["normal-form", "--cocycle", "g1e10.json"], None),
        (["normal-form", "--cocycle", "g1e15.json"], None),
        (["trivial", "--cocycle", "g1e10.json"], None),
        (["normal-form", "--cocycle", "wide1e308.json"], None),
        (["trivial", "--cocycle", "wide1e308.json"], None),
        (["theta-solve", "--cocycle", "wide1e308.json"], None),
        (["normal-form", "--cocycle", "wide1.5e308.json"], None),
        (["trivial", "--cocycle", "wide1.5e308.json"], None),
        (["theta-solve", "--cocycle", "wide1.5e308.json"], None),
    ):
        needed = {arg for arg in argv if arg in documents}
        add(argv, {name: documents[name] for name in sorted(needed)}, env)
    return cases


def main() -> None:
    lines = []
    for argv, documents, env in _cases():
        stdout, code = run(argv, documents, env)
        line = {"argv": argv, "documents": documents, "stdout": stdout, "exit": code}
        if env:
            line["env"] = env
        lines.append(json.dumps(line, sort_keys=True))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {CORPUS}")


if __name__ == "__main__":
    main()
