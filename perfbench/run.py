"""qtline benchmark: three closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (one client, which waits for each answer before sending the next):

* ``cli_oneshot``: one ``python -m qtline.cli`` process per request, over all
  nine subcommands (see ``cli_oneshot.py``);
* ``exact_cf``: Pseudolattice construction, ``convergents`` and
  ``approximate_real`` in Q(sqrt(D)) (see ``exact_cf.py``);
* ``certify``: structure queries, sampled residual checks and triviality /
  theta certificates (see ``certify.py``).

Run from the repository root; the library is imported from ``src/``.  Inputs
come only from ``--seed``.  Set-up (import, input generation, oracle
pre-computation, warm-up) is repeated ``SETUP_REPS`` times and reported as its
median ``setup_s``.  The measured loop then runs whole passes over the
requests for ``--seconds``.  Every answer is checked against ``oracle.py`` or a
value known by construction; a wrong answer, an unexpected exit code or an
exception counts as failed and the run goes on.

Times are reported at a reference machine speed, with the raw figures printed
alongside (see ``harness.py``).  ``fail_ratio`` is printed and counted in the
result's ``failed``; BENCHMARK.json does not list it, as it is 0 on correct
code.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` splits the time between an untraced and a traced loop of the same
requests (their throughput ratio is ``trace.overhead_ratio``), then runs one
small traced pass of the other two workloads, so that every layer's metrics are
reported whichever workload is named.  Spans are written to
``perfbench/_work/spans/``.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import certify  # noqa: E402
import cli_oneshot  # noqa: E402
import exact_cf  # noqa: E402
import harness  # noqa: E402

WORKLOADS = ("cli_oneshot", "exact_cf", "certify")
SETUP_REPS = 3
# Classes run once during set-up, before timing starts.
WARM_CLASSES = {"cli_oneshot": ("k-group",), "exact_cf": ("short",), "certify": None}
END_TO_END = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op", "peak_rss_mb", "setup_s")
# Companion passes of a traced run: small pools of the other workloads.
MINI = {"exact_cf": {"short": 4, "deep": 2}, "certify": {"units": 1}}
STARTUP_REPS = {True: 10, False: 3}
JSONIO_REPS = 50


def _build(workload: str, seed: int, workdir: Path, mini: bool):
    harness.fresh_import()
    if workload == "cli_oneshot":
        workdir.mkdir(parents=True, exist_ok=True)
        return cli_oneshot.build(seed, ROOT, workdir)
    module = exact_cf if workload == "exact_cf" else certify
    return module.build(seed, **(MINI[workload] if mini else {})), None


def set_up(workload: str, seed: int, workdir: Path, mini: bool = False):
    """Import, generate inputs and oracle answers, and warm up; returns the
    requests, the workload's extra state and the seconds it took at the
    reference speed."""
    speed = speed_probe(workload)
    before = speed.factor_now()
    t0 = time.perf_counter()
    requests, extra = _build(workload, seed, workdir, mini)
    warm = WARM_CLASSES[workload]
    seen = set()
    off = harness.Tracer(False)
    for req in requests:
        if req.klass not in seen and (warm is None or req.klass in warm):
            seen.add(req.klass)
            req.run(off)
    took = time.perf_counter() - t0
    return requests, extra, took / ((before + speed.factor_now()) / 2)


def cpu_clock(workload: str):
    return harness.children_cpu if workload == "cli_oneshot" else harness.process_cpu


def speed_probe(workload: str):
    return cli_oneshot.speed_probe(ROOT) if workload == "cli_oneshot" else harness.in_process_probe()


def layer_metrics(workload: str, tracer, extra, main: bool):
    if workload == "exact_cf":
        return exact_cf.layer_metrics(tracer)
    if workload == "certify":
        return certify.layer_metrics(tracer)
    return cli_oneshot.layer_metrics(tracer, extra, ROOT, JSONIO_REPS, STARTUP_REPS[main])


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list[str]]:
    lines = [
        f"qtline benchmark workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"env python={platform.python_version()} nproc={os.cpu_count()} loadavg={os.getloadavg()[0]:.2f}",
    ]
    setups = []
    for rep in range(SETUP_REPS):
        requests, extra, took = set_up(workload, seed, workdir / f"setup{rep}")
        setups.append(took)
    harness.settle()
    clock = cpu_clock(workload)
    speed = speed_probe(workload)
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        m = harness.measure(requests, seconds, harness.Tracer(False), clock, speed)
        measured = [m]
        e2e = harness.end_to_end(m)
        e2e["peak_rss_mb"] = (harness.peak_rss_mb(children=workload == "cli_oneshot"), "MB")
        e2e["setup_s"] = (statistics.median(setups), "s")
        metrics = {k: e2e[k] for k in END_TO_END}
        lines.append(f"metric fail_ratio {e2e['fail_ratio'][0]:.6g} ratio")
    else:
        plain = harness.measure(requests, seconds / 2, harness.Tracer(False), clock, speed)
        tracer = harness.Tracer(True)
        m = harness.measure(requests, seconds / 2, tracer, clock, speed)
        measured = [plain, m]
        overhead = harness.end_to_end(plain)["throughput_ops_s"][0] / harness.end_to_end(m)["throughput_ops_s"][0]
        metrics = layer_metrics(workload, tracer, extra, main=True)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        _write_spans(tracer, workload, seed, workload)
        for other in WORKLOADS:
            if other == workload:
                continue
            reqs, other_extra, _ = set_up(other, seed, workdir / f"companion-{other}", mini=True)
            other_tracer = harness.Tracer(True)
            measured.append(harness.measure(reqs, 0.0, other_tracer, cpu_clock(other), speed_probe(other), min_samples=0))
            metrics.update(layer_metrics(other, other_tracer, other_extra, main=False))
            _write_spans(other_tracer, workload, seed, other)
    lines += [
        f"inputs_digest={harness.input_digest(requests)} outputs_digest={m.output_digest}",
        f"requests_per_pass={len(requests)} passes={m.passes} samples={m.attempted}",
        "class_p50_ms " + " ".join(f"{k}={v:.4g}" for k, v in harness.class_p50_ms(m).items()),
        f"p50_owner={harness.quantile_owner(m, 0.5)} p90_owner={harness.quantile_owner(m, 0.9)}",
        f"speed_factor_median={statistics.median(s.speed for s in m.samples):.4f} "
        f"raw_latency_p50_ms={statistics.median(s.raw_latency_s for s in m.samples) * 1e3:.6g}",
        "setup_s_reps " + " ".join(f"{s:.4f}" for s in setups),
    ]
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    attempted = sum(x.attempted for x in measured)
    failed = sum(x.failed for x in measured)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def _number(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value} is not finite")
    return value


def _write_spans(tracer, workload: str, seed: int, source: str) -> None:
    out = BENCH / "_work" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    tracer.dump(out / f"{workload}-seed{seed}-{source}.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtline" / "__init__.py").is_file():
        print(f"error: no qtline sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("QTLINE_TOLERANCE", None)
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
