"""exact_cf: in-process requests to the exact layer.

A request builds a ``Pseudolattice`` from generated ``(omega1, omega2)`` in
Q(sqrt(D)), asks for ``convergents(n)`` and runs one ``approximate_real``
query.  The traffic dimensions are the depth n and the radicand D: every
QuadReal construction re-runs an O(sqrt(D)) square-freeness check, so cost per
term grows with D.  D is square-free and log-uniform over [2, 10^6] (10^9
would cost seconds per request); depth is short (10, the CLI default; 80% of
requests) or deep (100 to 640 terms).  The short share puts latency_p50_ms at
D near 10^4, where cost changes slowly with D.  Inputs cover both signs of the
sqrt(D) coefficient, non-reduced first terms, and golden-type starts (first
partial quotient 1 after a0, so q0 = q1).

D and depth are stratified, and deep requests pair the largest D with the
shortest depth (stratum i of D with depth stratum k-1-i), so the seed changes
every input but not the run's total work by more than a stratum's width, and
deep requests span a narrow cost band, which keeps latency_p90_ms off a gap
between two requests' costs.

Oracle: partial quotients from the integer (P + sqrt(N))/Q recurrence, the
exact certified bound |p_k omega1 - q_k omega2| < |omega1|/q_k, and an exact
check that the approximate_real vector lands within eps of its target.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import oracle
from harness import Request, interleave, layer_counts, us_per_call

SHORT_DEPTH = 10
DEEP_MIN, DEEP_MAX = 100, 640
D_MIN, D_MAX = 2, 10**6
# us_per_term is split at this radicand.
SMALL_D_LIMIT = 10**4
SHORT, DEEP = 96, 24
TARGET_EPS = 1e-3

TRACED = [
    "numeric.QuadReal",
    "pseudolattice.Pseudolattice",
    "pseudolattice.convergents",
    "pseudolattice.approximate_real",
]


def _radicand(rng: random.Random, stratum: int, strata: int) -> int:
    lo, hi = math.log(D_MIN), math.log(D_MAX)
    d = int(math.exp(lo + (stratum + rng.random()) / strata * (hi - lo)))
    d = min(max(d, D_MIN), D_MAX)
    while not oracle.is_square_free(d):
        d = d + 1 if d < D_MAX else d - 1
    return d


def _rational(rng: random.Random, allow_zero: bool = True) -> F:
    while True:
        q = F(rng.randint(-6, 6), rng.randint(1, 4))
        if q or allow_zero:
            return q


def _lattice(rng: random.Random, d: int, golden: bool):
    """(omega1, omega2, theta) as exact (x, y) pairs with theta irrational."""
    while True:
        if rng.random() < 0.5:
            w1 = (_rational(rng, allow_zero=False), F(0))
        else:
            w1 = (_rational(rng), _rational(rng))
        w2 = (_rational(rng), _rational(rng, allow_zero=False))
        if oracle.sign(*w1, d) != 0 and w1[0] * w2[1] != w2[0] * w1[1]:
            break
    theta = oracle.div(w2, w1, d)
    if golden:
        a0 = oracle.floor(*theta, d)
        if oracle.sign(theta[0] - a0 - F(1, 2), theta[1], d) < 0:
            # frac < 1/2: reflect to 2*a0 + 1 - theta, whose frac is > 1/2.
            theta = (2 * a0 + 1 - theta[0], -theta[1])
            w2 = oracle.mul(theta, w1, d)
    return w1, w2, theta


def build(seed: int, short: int = SHORT, deep: int = DEEP) -> list[Request]:
    import qtline as qt

    rng = random.Random(f"exact_cf:{seed}")
    requests = []
    for i in range(short):
        requests.append(_request(qt, rng, "short", _radicand(rng, i, short), SHORT_DEPTH, golden=i % 4 == 0))
    for i in range(deep):
        j = deep - 1 - i
        n = DEEP_MIN + int((j + rng.random()) / deep * (DEEP_MAX - DEEP_MIN))
        requests.append(_request(qt, rng, "deep", _radicand(rng, i, deep), n, golden=i % 4 == 1))
    return interleave(requests, "exact_cf")


def _request(qt, rng: random.Random, klass: str, d: int, n: int, golden: bool) -> Request:
    w1, w2, theta = _lattice(rng, d, golden)
    target = rng.uniform(-5.0, 5.0)
    expected = oracle.convergents(oracle.partial_quotients(*theta, d, n))
    root = oracle.sqrt_enclosure(d)
    attrs = {"terms": n, "D": d}

    def run(tr):
        omega1 = tr.call("numeric.QuadReal", qt.QuadReal, w1[0], w1[1], d)
        omega2 = tr.call("numeric.QuadReal", qt.QuadReal, w2[0], w2[1], d)
        lat = tr.call("pseudolattice.Pseudolattice", qt.Pseudolattice, omega1, omega2)
        convs = tr.call("pseudolattice.convergents", lat.convergents, n, attrs=attrs)
        vec = tr.call("pseudolattice.approximate_real", lat.approximate_real, target, TARGET_EPS)
        return [(c.p, c.q) for c in convs], (vec.a, vec.b)

    def check(out) -> bool:
        pq, (a, b) = out
        if pq != expected:
            return False
        if not all(oracle.within_certified_bound(p, q, theta, d) for p, q in pq):
            return False
        value = (a * w1[0] + b * w2[0]) + (a * w1[1] + b * w2[1]) * root
        return abs(value - F(target)) <= TARGET_EPS + 1e-12

    return Request(klass, run, check, repr((d, n, w1, w2, target)))


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    out = layer_counts(tracer, TRACED)
    spans = tracer.by_name("pseudolattice.convergents")
    for suffix, keep in (("", lambda d: True), (".small_D", lambda d: d < SMALL_D_LIMIT),
                         (".large_D", lambda d: d >= SMALL_D_LIMIT)):
        chosen = [s for s in spans if keep(s[6]["D"])]
        terms = sum(s[6]["terms"] for s in chosen)
        busy = sum(s[2] - s[1] for s in chosen)
        out[f"pseudolattice.convergents.us_per_term{suffix}"] = (busy / terms * 1e6 if terms else 0.0, "us")
    for name in ("pseudolattice.Pseudolattice", "pseudolattice.approximate_real"):
        out[f"{name}.us_per_call"] = (us_per_call(tracer, name), "us")
    return out
