"""Layer microbenchmarks timed from outside, where a wrapper per call would
distort the layer: Gaussian-rational arithmetic, the sparse product per
term pair, and the divisibility test by x on multiples and non-multiples.
Operand sets come from the seed; each figure is the median of REPEATS
timings of the whole set.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from random import Random

REPEATS = 7


def _median_ns(fn, ops: int) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / ops


def _gauss(rng: Random):
    from wickred import GaussianRational

    return GaussianRational(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                            Fraction(rng.randint(-30, 30), rng.randint(1, 12)))


def _terms(rng: Random, nvars: int, count: int, deg: int) -> dict:
    from wickred import sparse

    out = {}
    while len(out) < count:
        exps = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(nvars)] += 1
        out[sparse.pack(exps)] = _gauss(rng)
    return out


def _bihomogeneous(space, rng: Random, d: int, count: int):
    from wickred import Poly

    nv = space.nv
    out = {}
    while len(out) < count:
        exps = [0] * (2 * nv)
        for _ in range(d):
            exps[rng.randrange(nv)] += 1
            exps[nv + rng.randrange(nv)] += 1
        out[tuple(exps)] = _gauss(rng)
    return Poly.from_exponent_map(space, out)


def run(seed: int) -> dict:
    from wickred import Poly, VarSpace, sparse

    rng = Random(f"micro:{seed}")
    pairs = [(_gauss(rng), _gauss(rng)) for _ in range(1024)]
    powers = [(_gauss(rng), rng.randint(1, 4)) for _ in range(512)]
    out = {
        "scalar.mul_ns": _median_ns(lambda: [a * b for a, b in pairs], len(pairs)),
        "scalar.add_ns": _median_ns(lambda: [a + b for a, b in pairs], len(pairs)),
        "scalar.pow_ns": _median_ns(lambda: [a ** e for a, e in powers], len(powers)),
    }

    nvars = 6
    polys = [(_terms(rng, nvars, 12, 4), _terms(rng, nvars, 12, 4)) for _ in range(48)]
    term_pairs = sum(len(a) * len(b) for a, b in polys)
    out["sparse.tmul.ns_per_pair"] = _median_ns(
        lambda: [sparse.tmul(a, b, nvars) for a, b in polys], term_pairs)

    space = VarSpace.cpn(2)
    x = Poly.x(space)
    misses = []
    while len(misses) < 64:
        p = _bihomogeneous(space, rng, 2, 4)
        if p.divided_by_x() is None:
            misses.append(p)
    hits = [x * _bihomogeneous(space, rng, 1, 4) for _ in range(64)]
    if any(h.divided_by_x() is None for h in hits):
        raise RuntimeError("divided_by_x rejected a multiple of x")
    out["poly.divided_by_x.miss_ns"] = _median_ns(
        lambda: [p.divided_by_x() for p in misses], len(misses))
    out["poly.divided_by_x.hit_ns"] = _median_ns(
        lambda: [p.divided_by_x() for p in hits], len(hits))
    return out
