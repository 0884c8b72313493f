"""Branching points: locations where locus trajectories collide and split.

A branching point is a multiple root of 1 + k*G(s)e^(-hs), i.e. a point where
the delayed plant's log-derivative equals zero while the point itself sits on
the locus.  Candidates are polynomial roots (the delay folds into a
polynomial after clearing denominators); membership is a phase test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .boundary import RegionSpec
from .errors import SingularPointError
from .plant import Plant, branch_numerator, dlog_ratio, log_eval, wrap_angle
from .poly import PolyRoot, _right_of, complex_roots

TOL_PHASE = 1e-6
_POLISH_ITER = 20
_DLOG_REL = 1e-9


@dataclass(frozen=True)
class BranchPoint:
    """A locus point of multiplicity N >= 2 inside the region.

    `active` marks branch points reachable under the gain cap; inactive ones
    are kept for diagnostics but never traced into.
    """

    s: complex
    k: float
    Kval: float
    multiplicity: int
    active: bool


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
    """Roots of the branch polynomial with Re(s) >= sigma0, the candidates
    for branch points, each moved onto its zero of dlog (_on_dlog).

    Only the eigenvalues that may become such a root are polished
    (complex_roots' screen).  A root _on_dlog cannot move onto a zero is
    dropped, a moved root within 1e-9(1 + |s|) of the real axis is put on
    it, and of roots that settle on one point only the first is kept.  The
    polynomial drops alpha, so the roots serve both gain signs.
    """
    b = branch_numerator(plant)
    if b.degree < 1:
        return ()
    out: list[PolyRoot] = []
    for r in complex_roots(b, _keep=_right_of(sigma0)):
        s = _on_dlog(plant, r)
        if s is None:
            continue  # no zero of dlog: an artifact of the expanded coefficients
        tol = 1e-9 * (1.0 + abs(s))
        if abs(s.imag) <= tol:
            s = complex(s.real, 0.0)
        if s.real >= sigma0 - tol and all(abs(s - q.value) > tol for q in out):
            out.append(PolyRoot(s, r.multiplicity))
    return tuple(out + _axis_zeros(plant, sigma0, out))


def _axis_zeros(plant: Plant, sigma0: float, found) -> list[PolyRoot]:
    """Real zeros of dlog the candidates miss: one per stretch of the real
    axis between neighbouring real plant roots right of sigma0 that holds no
    real candidate and on whose ends dlog differs in sign (next to a root a,
    dlog ~ (zeros at a - poles at a)/(s - a)).  The sign change is bisected
    to the last place, polished by _on_dlog and kept if that settles inside
    the stretch (it can be a jump past roots just off the axis).
    """
    axis = sorted({x.real for x in plant.zeros + plant.poles if x.imag == 0.0 and x.real > sigma0})
    order = {a: sum(z == a for z in plant.zeros) - sum(p == a for p in plant.poles) for a in axis}
    out = []
    for a, b in zip(axis, axis[1:]):  # dlog is positive just right of a iff order[a] > 0
        if not order[a] or not order[b] or (order[a] > 0) == (order[b] < 0) or any(
                q.value.imag == 0.0 and a < q.value.real < b for q in found):
            continue
        lo, hi = a, b
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if (dlog_ratio(plant, mid).real > 0.0) == (order[a] > 0):
                lo = mid
            else:
                hi = mid
        s = _on_dlog(plant, PolyRoot(complex(mid, 0.0), 1))
        if s is not None and a < s.real < b:  # not a jump across a root off the axis
            out.append(PolyRoot(s, 1))
    return out


def _on_dlog(plant: Plant, r: PolyRoot) -> complex | None:
    """A root of the branch polynomial moved onto a zero of dlog = G'/G - h,
    which the polynomial's expanded coefficients can miss: Newton on dlog
    summed over the plant's roots, step mu f/f' for a zero of multiplicity
    mu, real on the axis; a start where |dlog| is within _DLOG_REL of its
    terms' size stays.  None when it does not settle in _POLISH_ITER steps.
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
            step = r.multiplicity * f / fp
            s -= step.real if s.imag == 0.0 else step
            if abs(step) <= 1e-15 * (1.0 + abs(s)):
                return s
    except ZeroDivisionError:  # an iterate on a plant root, or a flat dlog
        pass
    return None


def branch_points(plant: Plant, region: RegionSpec,
                  roots: tuple[PolyRoot, ...] | None = None) -> list[BranchPoint]:
    """All branch points with Re(s) >= sigma0, sorted by gain.

    A root of the branch polynomial with multiplicity mu meets N = mu + 1
    trajectories.  Roots that coincide with plant poles/zeros are artifacts
    of repeated factors (the gain there is 0 or infinite) and are skipped.
    roots, when given, is branch_roots(plant, region.sigma0) of this plant or
    of its flipped-gain twin; the phase test and the active flags are made
    for this plant.
    """
    if roots is None:
        roots = branch_roots(plant, region.sigma0)
    out: list[BranchPoint] = []
    structure = plant.zeros + plant.poles
    for root in roots:
        s, mu = root.value, root.multiplicity
        if structure and min(abs(s - x) for x in structure) <= 1e-9 * (1.0 + abs(s)):
            continue
        try:
            lv = log_eval(plant, s)
        except SingularPointError:
            continue
        if abs(wrap_angle(lv.phase - math.pi)) > TOL_PHASE:
            continue
        Kval = -lv.lnmag
        try:
            k = math.exp(Kval)
        except OverflowError:
            # a gain beyond the double range exceeds every kmax, so the point
            # could never be active
            continue
        out.append(
            BranchPoint(
                s=s,
                k=k,
                Kval=Kval,
                multiplicity=mu + 1,
                active=Kval <= region.lnkmax,
            )
        )
    out.sort(key=lambda bp: (bp.Kval, bp.s.real, bp.s.imag))
    return out
