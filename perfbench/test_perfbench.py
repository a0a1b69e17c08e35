"""Self-tests of the benchmark: oracles, failure counting and determinism.

    python3 -m pytest -q perfbench/test_perfbench.py

They sit outside the library's test suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import certify  # noqa: E402
import exact_cf  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402

OFF = harness.Tracer(False)


def test_oracle_known_expansions():
    assert oracle.partial_quotients(F(0), F(1), 2, 5) == [1, 2, 2, 2, 2]
    assert oracle.partial_quotients(F(1, 2), F(1, 2), 5, 5) == [1, 1, 1, 1, 1]
    # -sqrt(2) = [-2; 1, 1, 2, 2, 2, ...]: negative surd coefficient, non-reduced start.
    assert oracle.partial_quotients(F(0), F(-1), 2, 6) == [-2, 1, 1, 2, 2, 2]
    assert oracle.convergents([1, 2, 2, 2]) == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert all(oracle.within_certified_bound(p, q, (F(0), F(1)), 2) for p, q in [(1, 1), (3, 2), (7, 5)])
    assert not oracle.within_certified_bound(3, 1, (F(0), F(1)), 2)
    assert abs(oracle.frac_multiple(3, (F(0), F(1)), 2) - (3 * 2**0.5 - 4)) < 1e-15


def test_exact_cf_oracle_rejects_wrong_partial_quotient():
    req = exact_cf.build(3, short=1, deep=0)[0]
    out = req.run(OFF)
    assert req.check(out)
    pq, vec = out
    # a_k = (q_k - q_{k-2}) / q_{k-1}, with q_{-1} = 0.
    quotients = [pq[0][0]] + [(pq[k][1] - (pq[k - 2][1] if k >= 2 else 0)) // pq[k - 1][1] for k in range(1, len(pq))]
    assert oracle.convergents(quotients) == pq
    quotients[4] += 1
    assert not req.check((oracle.convergents(quotients), vec))
    assert not req.check((pq, (vec[0] + 1, vec[1])))


def test_certify_oracle_rejects_wrong_witness():
    requests = certify.build(3, units=1)
    req = next(r for r in requests if r.klass == "trivial_small")
    status, witness, reason, bound = req.run(OFF)
    assert req.check((status, witness, reason, bound))
    assert not req.check((status, witness + 1, reason, bound))
    theta = next(r for r in requests if r.klass == "theta_small")
    out = theta.run(OFF)
    assert theta.check(out)
    assert not theta.check((out[0] + 1, *out[1:]))


def test_injected_exception_counts_as_failure_and_run_goes_on():
    def boom(tr):
        raise RuntimeError("injected")

    requests = [
        harness.Request("ok", lambda tr: 1, lambda out: out == 1, "a"),
        harness.Request("boom", boom, lambda out: True, "b"),
        harness.Request("wrong", lambda tr: 2, lambda out: out == 1, "c"),
        harness.Request("bad-oracle", lambda tr: 3, lambda out: 1 / 0, "d"),
    ]
    m = harness.measure(requests, 0.0, OFF, harness.process_cpu, harness.in_process_probe(), min_samples=8)
    assert m.passes == 2 and m.attempted == 8 and m.failed == 6
    assert harness.end_to_end(m)["fail_ratio"] == (0.75, "ratio")


def test_same_seed_same_digests_other_seed_other_inputs():
    a, b, c = (exact_cf.build(s, short=3, deep=1) for s in (7, 7, 8))
    assert harness.input_digest(a) == harness.input_digest(b) != harness.input_digest(c)
    ma = harness.measure(a, 0.0, OFF, harness.process_cpu, harness.in_process_probe(), min_samples=0)
    mb = harness.measure(b, 0.0, OFF, harness.process_cpu, harness.in_process_probe(), min_samples=0)
    assert ma.output_digest == mb.output_digest
    x, y = certify.build(7, units=1), certify.build(8, units=1)
    assert harness.input_digest(x) == harness.input_digest(certify.build(7, units=1)) != harness.input_digest(y)


def test_tracer_records_nested_spans():
    tr = harness.Tracer(True)
    tr.request("k", lambda t: t.call("layer.fn", lambda: 5, attrs={"n": 1}), tr)
    (inner, outer) = sorted(tr.spans, key=lambda s: s[0])
    assert inner[0] == "layer.fn" and inner[3] == tr.spans.index(outer) and inner[5] and inner[6] == {"n": 1}
    assert harness.layer_counts(tr, ["layer.fn"])["layer.fn.calls"] == (1, "count")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_run_prints_result_line():
    proc = _run(ROOT, "--workload", "exact_cf", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
