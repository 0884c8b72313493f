"""Branching points: locations where locus trajectories collide and split.

A branching point is a multiple root of 1 + k*G(s)e^(-hs), i.e. a point where
the delayed plant's log-derivative equals zero while the point itself sits on
the locus.  The candidates, the zeros of the log-derivative, are the
eigenvalues of a diagonal-plus-rank-one matrix built from the plant's own
roots; membership is a phase test.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .boundary import RegionSpec
from .errors import SingularPointError
from .plant import SCREEN_REL, Plant, log_eval, root_weights, secular_eigvals, wrap_angle
from .poly import CLUSTER_REL, PolyRoot, _cluster

TOL_PHASE = 1e-6
_POLISH_ITER = 20
_DLOG_REL = 1e-9


class BranchPoint(NamedTuple):
    """A locus point of multiplicity N >= 2 inside the region, at the gain
    k = e^Kval.

    `active` marks branch points reachable under the gain cap; inactive ones
    are kept for diagnostics but never traced into.
    """

    s: complex
    Kval: float
    multiplicity: int
    active: bool

    @property
    def k(self) -> float:
        return math.exp(self.Kval)


def power_sum(plant: Plant, bp: BranchPoint) -> complex:
    """S_N = sum_z (s*-z)^-N - sum_p (s*-p)^-N at a multiplicity-N branch
    point.  The first N-1 log-derivatives of F = G e^(-hs) vanish at s* and
    the N-th is (-1)^(N-1) (N-1)! S_N, so near s* the locus K + ln F = j pi
    reads (s - s*)^N ~ N(K* - K)/a with a = (-1)^(N-1) S_N.
    """
    n = bp.multiplicity
    return sum((bp.s - z) ** -n for z in plant.zeros) - sum((bp.s - p) ** -n for p in plant.poles)


def branch_departures(plant: Plant, bp: BranchPoint) -> list[float]:
    """The N gain-increasing departure angles out of a branch point.

    c = F^(N)(s*)/N!, with F = G e^(-hs), is a positive multiple of
    (-1)^N S_N (power_sum; the factor is positive because F(s*) = -1/k*).
    Near s*, (s-s*)^N ~ dk/(k*^2 c): the departures leave along
    (-arg c + 2 pi j)/N.
    """
    n = bp.multiplicity
    arg_c = cmath.phase((-1) ** n * power_sum(plant, bp))
    return [wrap_angle((-arg_c + 2.0 * math.pi * j) / n) for j in range(n)]


def branch_roots(plant: Plant, sigma0: float) -> tuple[PolyRoot, ...]:
    """The zeros of dlog = G'/G - h with Re(s) >= sigma0, the candidates for
    branch points, with their multiplicities.

    Over the distinct plant roots r_j with net weights w_j (root_weights),
    dlog = sum w_j/(s - r_j) - h, so its zeros are the eigenvalues of
    diag(r) + (w/h) 1^T (secular_eigvals).  The eigenvalues right of sigma0
    and in the closed upper half-plane, each with a margin of
    SCREEN_REL(1 + |z|), are grouped within CLUSTER_REL and moved onto their
    zero by _on_dlog: a group onto one zero of its size's multiplicity, or,
    when its mean is no zero, each member onto a simple one.  One _on_dlog
    cannot settle is dropped, a point within 1e-9(1 + |s|) of the real axis
    is put on it, one that lands below the axis is dropped, and of points
    that settle on one spot only the first is kept.  The upper points' exact
    conjugates complete the set.  dlog drops alpha, so the candidates serve
    both gain signs.
    """
    r, w = root_weights(plant)
    if not r.size:
        return ()
    kept = [z for z in secular_eigvals(r, w / plant.delay)
            if min(z.real - sigma0, z.imag) >= -SCREEN_REL * (1.0 + abs(z))]
    out: list[PolyRoot] = []
    for group in _cluster(kept, CLUSTER_REL):
        m = len(group)
        found = [(_on_dlog(plant, PolyRoot(sum(group) / m, m)), m)]
        if found[0][0] is None and m > 1:  # no multiple zero: simple zeros close together
            found = [(_on_dlog(plant, PolyRoot(z, 1)), 1) for z in group]
        for s, m in found:
            if s is None:
                continue
            tol = 1e-9 * (1.0 + abs(s))
            if abs(s.imag) <= tol:
                s = complex(s.real, 0.0)
            if s.imag >= 0.0 and s.real >= sigma0 - tol and all(
                    abs(s - q.value) > tol for q in out):
                out.append(PolyRoot(s, m))
    return tuple(out + [PolyRoot(q.value.conjugate(), q.multiplicity) for q in out if q.value.imag])


def _on_dlog(plant: Plant, r: PolyRoot) -> complex | None:
    """An eigenvalue of branch_roots' matrix moved onto its zero of dlog =
    G'/G - h by Newton on dlog summed over the plant's roots, real on the
    axis.  A start where |dlog| is within _DLOG_REL of its terms' size stays.
    The mean of a group of mu > 1 eigenvalues is a zero of multiplicity mu
    only if it is such a start: the eigenvalues of a multiple zero spread
    about it and average to it, while simple zeros that merely lie close,
    as those beside a cluster of plant roots do, have none at their mean.
    None for a rejected mean, or when Newton does not settle in
    _POLISH_ITER steps.
    """
    s0 = s = r.value
    try:
        for i in range(_POLISH_ITER):
            f, fp, scale = -plant.delay, 0j, plant.delay
            for z in plant.zeros:
                d = 1.0 / (s - z)
                f += d
                fp -= d * d
                scale += abs(d)
            for p in plant.poles:
                d = 1.0 / (s - p)
                f -= d
                fp += d * d
                scale += abs(d)
            if i == 0 and abs(f) <= _DLOG_REL * scale:
                return s0  # already on a zero of dlog, to the digits that matter
            if r.multiplicity > 1:
                return None
            step = f / fp
            s -= step.real if s.imag == 0.0 else step
            if abs(step) <= 1e-15 * (1.0 + abs(s)):
                return s
    except ZeroDivisionError:  # an iterate on a plant root, or a flat dlog
        pass
    return None


def branch_points(plant: Plant, region: RegionSpec,
                  roots: tuple[PolyRoot, ...] | None = None) -> list[BranchPoint]:
    """All branch points with Re(s) >= sigma0, sorted by gain.

    A zero of dlog with multiplicity mu meets N = mu + 1 trajectories.  A
    zero on a plant root, where the gain is 0 or infinite, is skipped.
    roots, when given, is branch_roots(plant, region.sigma0) of this plant or
    of its flipped-gain twin; the phase test and the active flags are made
    for this plant.
    """
    if roots is None:
        roots = branch_roots(plant, region.sigma0)
    out: list[BranchPoint] = []
    for root in roots:
        s, mu = root.value, root.multiplicity
        try:
            lv = log_eval(plant, s)
        except SingularPointError:
            continue
        if abs(wrap_angle(lv.phase - math.pi)) > TOL_PHASE:
            continue
        Kval = -lv.lnmag
        try:
            math.exp(Kval)
        except OverflowError:
            # a gain beyond the double range exceeds every kmax, so the point
            # could never be active
            continue
        out.append(BranchPoint(s, Kval, mu + 1, Kval <= region.lnkmax))
    out.sort(key=lambda bp: (bp.Kval, bp.s.real, bp.s.imag))
    return out
