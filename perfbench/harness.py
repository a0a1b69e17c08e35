"""Closed-loop measurement, spans and summary statistics shared by the workloads.

A workload is a list of :class:`Request` objects built from the seed.  One
client sends them in order, waits for each answer, and goes round the list
again until the run time is used up; only whole passes are measured, so every
run sees the workload's class mix exactly.  The oracle check of an answer
happens after the request's clock stops and is not part of its latency.

Times are reported at a reference machine speed.  On a shared machine the
speed of the CPU, and separately the cost of starting a process, drift by tens
of percent over seconds to minutes.  So the loop times a fixed calibration
kernel that runs no qtline code, every ``period`` seconds between requests,
and divides each request's wall and CPU time by the kernel's time around it
relative to the kernel's reference time.  A change to the library cannot move
the kernel, so the normalization cancels machine drift and nothing else; the
raw figures and the speed factor are printed alongside.  In-process workloads
use :func:`speed_kernel`; the command-line workload uses a bare interpreter
start.
"""

from __future__ import annotations

import cmath
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# A run keeps at least this many latency samples above its p90.
MIN_TAIL_SAMPLES = 10
# Calibrations on each side of a segment whose median sets its speed factor.
SPEED_HALF_WINDOW = 2


def speed_kernel() -> int:
    """Fixed pure-Python work: integer, complex-exponential, dict and Fraction steps."""
    acc = 0
    z = 0j
    q = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1000):
        acc = (acc * 31 + i * i) % 1000003
        z += cmath.exp(2j * math.pi * (i * 0.618034))
        table[i % 37] = table.get(i % 37, 0) + acc
        if i % 20 == 0:
            q += Fraction(i, i + 7)
    return acc + len(table) + int(z.real) + q.numerator % 7


class SpeedProbe:
    """Kernel timings taken between requests; segment i runs from timing i to i+1.

    ``reference_s`` is the kernel's time at the reference speed (a 2-vCPU
    x86-64 VM running Python 3.11).
    """

    def __init__(self, kernel: Callable[[], Any], period_s: float, reference_s: float) -> None:
        self.kernel = kernel
        self.period_s = period_s
        self.reference_s = reference_s
        self.stamps: list[float] = []
        self.kernel_s: list[float] = []

    def fresh(self) -> "SpeedProbe":
        return SpeedProbe(self.kernel, self.period_s, self.reference_s)

    def tick(self, force: bool = False) -> int:
        if force or not self.stamps or time.perf_counter() - self.stamps[-1] >= self.period_s:
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.stamps.append(t1)
            self.kernel_s.append(t1 - t0)
        return len(self.stamps) - 1

    def factors(self) -> list[float]:
        """Slowdown of each segment against the reference speed; a median over
        nearby timings, so one preempted timing does not skew a segment."""
        k = self.kernel_s
        return [
            statistics.median(k[max(0, i - SPEED_HALF_WINDOW + 1): i + SPEED_HALF_WINDOW + 1]) / self.reference_s
            for i in range(len(k))
        ]

    def factor_now(self, reps: int = 3) -> float:
        probe = self.fresh()
        for _ in range(reps):
            probe.tick(force=True)
        return statistics.median(probe.kernel_s) / self.reference_s


def in_process_probe() -> SpeedProbe:
    return SpeedProbe(speed_kernel, 0.1, 0.00105)


@dataclass
class Request:
    """One request: ``run(tracer)`` calls the system, ``check(output)`` is the oracle.

    ``digest`` is a canonical description of the generated input.
    """

    klass: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], bool]
    digest: str


class Tracer:
    """Spans around the benchmark's calls into the library, kept in memory.

    A span is ``(name, start, end, parent, request, ok, attrs)``; ``parent`` is
    the index of the enclosing span (the request span for library calls).
    With ``enabled`` false, ``call`` is a plain call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request = 0

    def call(self, name: str, fn: Callable, *args, attrs: dict | None = None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._span(name, attrs, fn, *args, **kwargs)

    def request(self, klass: str, fn: Callable, *args):
        if not self.enabled:
            return fn(*args)
        self._request += 1
        return self._span("request", {"class": klass}, fn, *args)

    def _span(self, name: str, attrs: dict | None, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        ok = False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._request, ok, attrs or {})

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": a, "end": b, "parent": p, "request": r, "ok": ok, "attrs": at}
            for (n, a, b, p, r, ok, at) in self.spans
        ]
        path.write_text(json.dumps(rows))


@dataclass
class Sample:
    """One request; ``latency_s`` and ``cpu_s`` are at the reference speed."""

    klass: str
    latency_s: float
    cpu_s: float
    ok: bool
    raw_latency_s: float = 0.0
    speed: float = 1.0


@dataclass
class Measurement:
    samples: list[Sample] = field(default_factory=list)
    passes: int = 0
    output_digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


def process_cpu() -> float:
    return time.process_time()


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _safe_check(req: Request, out: Any) -> bool:
    try:
        return bool(req.check(out))
    except Exception:  # a crashing oracle marks the answer wrong, never aborts the run
        return False


def measure(
    requests: list[Request],
    seconds: float,
    tracer: Tracer,
    cpu_clock: Callable[[], float],
    speed: SpeedProbe,
    min_samples: int = 10 * MIN_TAIL_SAMPLES,
) -> Measurement:
    """Whole passes over ``requests`` until ``seconds`` have elapsed and the
    run holds ``min_samples`` samples (by default enough for its p90)."""
    m = Measurement()
    hasher = hashlib.sha256()
    probe = speed.fresh()
    segments = []
    deadline = time.perf_counter() + seconds
    while m.passes == 0 or time.perf_counter() < deadline or len(m.samples) < min_samples:
        for req in requests:
            segments.append(probe.tick())
            c0 = cpu_clock()
            t0 = time.perf_counter()
            try:
                out = tracer.request(req.klass, req.run, tracer)
                raised = False
            except Exception as exc:  # an uncaught error is a failed request
                out, raised = repr(exc), True
            t1 = time.perf_counter()
            c1 = cpu_clock()
            ok = not raised and _safe_check(req, out)
            m.samples.append(Sample(req.klass, t1 - t0, c1 - c0, ok))
            if m.passes == 0:
                hasher.update(_canonical(out).encode())
        m.passes += 1
    probe.tick(force=True)
    factors = probe.factors()
    for sample, seg in zip(m.samples, segments):
        f = (factors[seg] + factors[seg + 1]) / 2
        sample.raw_latency_s, sample.speed = sample.latency_s, f
        sample.latency_s /= f
        sample.cpu_s /= f
    m.output_digest = hasher.hexdigest()[:16]
    return m


def _canonical(out: Any) -> str:
    return json.dumps(out, sort_keys=True, default=repr)


def interleave(requests: list[Request], name: str) -> list[Request]:
    """Mix the classes in an order that depends on ``name`` only, keeping each
    class's own order.  Every seed then runs the same class sequence, so what
    runs before a request (and the caches it leaves) does not change with the
    seed; only the inputs do."""
    groups: dict[str, list[Request]] = {}
    for r in requests:
        groups.setdefault(r.klass, []).append(r)
    labels = [r.klass for r in requests]
    random.Random(f"{name}:class-order").shuffle(labels)
    queues = {k: iter(v) for k, v in groups.items()}
    return [next(queues[k]) for k in labels]


def input_digest(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(f"{r.klass}|{r.digest}\n".encode())
    return h.hexdigest()[:16]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(m: Measurement) -> dict[str, tuple[float, str]]:
    lat = sorted(s.latency_s for s in m.samples)
    good = sum(s.ok for s in m.samples)
    busy = sum(lat)
    return {
        "throughput_ops_s": (good / busy, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (nearest_rank(lat, 0.9) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(s.cpu_s for s in m.samples) / len(lat) * 1e3, "ms"),
        "fail_ratio": (m.failed / m.attempted, "ratio"),
    }


def quantile_owner(m: Measurement, q: float) -> str:
    """Class of the request whose latency sits at quantile q."""
    ranked = sorted(m.samples, key=lambda s: s.latency_s)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)].klass


def class_p50_ms(m: Measurement) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for s in m.samples:
        by.setdefault(s.klass, []).append(s.latency_s)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by.items())}


def fresh_import() -> None:
    """Drop every cached qtline module and import qtline again, so each
    set-up pays the import a command-line caller pays."""
    for key in [k for k in sys.modules if k == "qtline" or k.startswith("qtline.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    importlib.import_module("qtline")


def settle() -> None:
    """Collect set-up garbage and exempt surviving objects from later GC scans."""
    gc.collect()
    gc.freeze()


def layer_counts(tracer: Tracer, names: list[str]) -> dict[str, tuple[float, str]]:
    """``<name>.calls``, ``.busy_s`` and ``.failures`` for each traced function."""
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        spans = tracer.by_name(name)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.busy_s"] = (sum(s[2] - s[1] for s in spans), "s")
        out[f"{name}.failures"] = (sum(not s[5] for s in spans), "count")
    return out


def us_per_call(tracer: Tracer, name: str) -> float:
    spans = tracer.by_name(name)
    return statistics.median(s[2] - s[1] for s in spans) * 1e6 if spans else float("nan")
