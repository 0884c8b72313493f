"""Deterministic job streams for the three benchmark workloads.

A job is one plant document (the bytes the program parses) plus the region,
the gain signs and the outputs to produce.  Every number comes from
``random.Random(seed)``, so one seed gives byte-identical documents on every
platform.  The program sees only the generated documents and regions.

Ranges and the reasons for them:

corpus    order 2-8, root form, both gain signs, JSON only.  The everyday
          design query, where fixed per-locus cost (boundary and branch
          set-up, seeding, short traces, small output) dominates.  Draws
          come in cycles of 7 (see _cycles) and cover the north-star cases:
          repeated poles (2 in 7 draws), complex pairs (each pole slot 1 in
          2), right-half-plane poles and zeros (real parts up to +0.5 and
          +3), bi-proper plants (1 in 7) and negative alpha (2 in 7).
          Delay h in [0.1, 2].
          sigma0 keeps 0.05 clear of every root's real part, as
          tests/oracles.clean_region does, and the delay-weighted offset
          h*max(0, -sigma0) stays <= 3: the many-crossing regime is dense's
          job.  kmax = e^U(-1, 3); a bi-proper plant's cap is lowered to half
          its feasibility limit e^(h*sigma0)/|alpha|, an input property.
highorder order 14-24, coefficient form, both gain signs, JSON only, so
          plant_from_coefficients and poly.complex_roots run at degree <= 24
          and the O(n^2) boundary cofactor products and O(n) log_eval calls
          dominate.  Cycles of 11, negative alpha 3 in 11.  Up to n-1
          zeros, delay in [0.1, 1], same region rule as corpus.
dense     the README demo plant in coefficient form on the region ladder
          kmax 50, 150 (twice), 500 at sigma0 = -3.5 plus sigma0 = -6 at
          kmax 5; JSON, CSV and SVG.  Thousands of crossing-seeded trajectories,
          so cost that grows with trajectory count shows (dedup, trace
          count, crossing bisection, megabyte outputs) while poly stays
          idle.  The seed only shuffles the rung order within each ladder.

Regions are computed from input properties only, never from outcomes, and no
draw is ever dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("corpus", "highorder", "dense")

CORPUS_ORDERS = range(2, 9)
HIGHORDER_ORDERS = range(14, 25)
MAX_DELAY_OFFSET = 3.0  # bound on h * max(0, -sigma0)
CLEARANCE = 0.05

DEMO_DOC = b'{"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}'
# kmax 150 runs twice per ladder: five jobs put the median on a job of that
# rung instead of in the gap between two rungs' times.
DENSE_LADDER = ((-3.5, 50.0), (-3.5, 150.0), (-3.5, 150.0), (-3.5, 500.0), (-6.0, 5.0))


@dataclass(frozen=True)
class Job:
    index: int
    label: str
    doc: bytes
    sigma0: float
    kmax: float
    negative_gains: bool
    outputs: tuple[str, ...]


def _r(x: float) -> float:
    return round(x, 6)


def _roots(rng: random.Random, n: int, re_lo: float, re_hi: float,
           im_hi: float) -> list[complex]:
    """n roots closed under conjugation; each slot is a pair half the time."""
    out: list[complex] = []
    while len(out) < n:
        re = _r(rng.uniform(re_lo, re_hi))
        if n - len(out) >= 2 and rng.random() < 0.5:
            im = _r(rng.uniform(0.3, im_hi))
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    return out


def _repeat_one(rng: random.Random, roots: list[complex]) -> list[complex]:
    """Make one real root (or one conjugate pair) double, keeping the count."""
    reals = [r for r in roots if r.imag == 0.0]
    pairs = [r for r in roots if r.imag > 0.0]
    if len(reals) >= 2:
        a, b = rng.sample(reals, 2)
        out = list(roots)
        out[out.index(b)] = a
        return out
    if len(pairs) >= 2:
        a, b = rng.sample(pairs, 2)
        out = [r for r in roots if r not in (b, b.conjugate())]
        return out + [a, a.conjugate()]
    return roots


def _region(rng: random.Random, roots: list[complex], delay: float,
            u_sigma: float, u_kmax: float) -> tuple[float, float]:
    """sigma0 clear of every root's real part, delay offset bounded; kmax.

    u_sigma and u_kmax in [0, 1) place sigma0 in its range and ln kmax in
    [-1, 3]; a sigma0 too close to a root is redrawn uniformly.
    """
    res = [r.real for r in roots]
    lo = max(min(res) - 1.0, -MAX_DELAY_OFFSET / delay)
    hi = max(res) + 0.5
    if hi - lo < 0.5:
        hi = lo + 0.5
    sigma0 = hi + CLEARANCE  # right of every root: always clean
    u = u_sigma
    for _ in range(50):
        cand = _r(lo + u * (hi - lo))
        if min(abs(cand - x) for x in res) >= CLEARANCE:
            sigma0 = cand
            break
        u = rng.random()
    return sigma0, _r(math.exp(-1.0 + 4.0 * u_kmax))


def _pairs(roots) -> list[list[float]]:
    return [[r.real, r.imag] for r in roots]


def _expand(roots, lead: float) -> list[float]:
    """Ascending real coefficients of lead * prod(s - r)."""
    acc = [complex(lead)]
    for r in roots:
        nxt = [0j] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] -= r * c
            nxt[i + 1] += c
        acc = nxt
    return [c.real for c in acc]


def _cycles(rng: random.Random, orders: range, flags: dict[str, int]) -> Iterator[dict]:
    """Draw plans in cycles of len(orders), stratified within each cycle.

    Every cycle holds each order once, the fixed number of draws with each
    flag, and one draw from each of len(orders) equal strata of the delay,
    sigma0, ln kmax and zero-count ranges, so runs of different seeds share
    one mix and differ only in where inside its stratum each draw falls.
    """
    n = len(orders)

    def strata() -> list[float]:
        cells = list(range(n))
        rng.shuffle(cells)
        return [(c + rng.random()) / n for c in cells]

    while True:
        order = list(orders)
        rng.shuffle(order)
        marks = {}
        for flag, count in flags.items():
            cells = [True] * count + [False] * (n - count)
            rng.shuffle(cells)
            marks[flag] = cells
        u_delay, u_sigma, u_kmax, u_zeros = strata(), strata(), strata(), strata()
        for i in range(n):
            yield {"order": order[i], "u_delay": u_delay[i], "u_sigma": u_sigma[i],
                   "u_kmax": u_kmax[i], "u_zeros": u_zeros[i], **{f: marks[f][i] for f in flags}}


def _alpha(rng: random.Random, negative: bool) -> float:
    return _r(rng.uniform(0.2, 5.0)) * (-1.0 if negative else 1.0)


def _corpus(seed: int) -> Iterator[Job]:
    rng = random.Random(seed)
    plans = _cycles(rng, CORPUS_ORDERS, {"biproper": 1, "repeated": 2, "negative": 2})
    for i, plan in enumerate(plans):
        n = plan["order"]
        poles = _roots(rng, n, -3.0, 0.5, 3.0)
        if plan["repeated"]:
            poles = _repeat_one(rng, poles)
        m = n if plan["biproper"] else int(plan["u_zeros"] * (min(3, n - 1) + 1))
        zeros = _roots(rng, m, -3.0, 3.0, 3.0)
        alpha = _alpha(rng, plan["negative"])
        delay = _r(0.1 + 1.9 * plan["u_delay"])
        sigma0, kmax = _region(rng, poles + zeros, delay, plan["u_sigma"], plan["u_kmax"])
        if plan["biproper"]:
            kmax = min(kmax, _r(0.5 * math.exp(delay * sigma0) / abs(alpha)))
        doc = json.dumps({"alpha": alpha, "delay": delay, "zeros": _pairs(zeros),
                          "poles": _pairs(poles)}).encode()
        yield Job(i, f"corpus[{i}]", doc, sigma0, kmax, True, ("json",))


def _highorder(seed: int) -> Iterator[Job]:
    rng = random.Random(seed)
    plans = _cycles(rng, HIGHORDER_ORDERS, {"negative": 3})
    for i, plan in enumerate(plans):
        n = plan["order"]
        poles = _roots(rng, n, -4.0, 1.0, 4.0)
        zeros = _roots(rng, int(plan["u_zeros"] * n), -4.0, 4.0, 4.0)
        alpha = _alpha(rng, plan["negative"])
        delay = _r(0.1 + 0.9 * plan["u_delay"])
        sigma0, kmax = _region(rng, poles + zeros, delay, plan["u_sigma"], plan["u_kmax"])
        doc = json.dumps({"num": _expand(zeros, alpha), "den": _expand(poles, 1.0),
                          "delay": delay}).encode()
        yield Job(i, f"highorder[{i}]", doc, sigma0, kmax, True, ("json",))


def _dense(seed: int) -> Iterator[Job]:
    rng = random.Random(seed)
    i = 0
    while True:
        rungs = list(DENSE_LADDER)
        rng.shuffle(rungs)
        for sigma0, kmax in rungs:
            label = f"dense[{i}] sigma0={sigma0:g} kmax={kmax:g}"
            yield Job(i, label, DEMO_DOC, sigma0, kmax, False, ("json", "csv", "svg"))
            i += 1


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """Endless job stream of the workload for this seed."""
    if workload == "corpus":
        return _corpus(seed)
    if workload == "highorder":
        return _highorder(seed)
    if workload == "dense":
        return _dense(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def cycle_length(workload: str) -> int:
    """Jobs per cycle; a run always ends on a whole cycle so its mix is fixed."""
    return {"corpus": len(CORPUS_ORDERS), "highorder": len(HIGHORDER_ORDERS),
            "dense": len(DENSE_LADDER)}[workload]


def digest(consumed: list[Job]) -> str:
    """sha256 over the program inputs of the jobs a run consumed."""
    h = hashlib.sha256()
    for job in consumed:
        h.update(job.doc)
        h.update(repr((job.sigma0, job.kmax, job.negative_gains, job.outputs)).encode())
    return h.hexdigest()
