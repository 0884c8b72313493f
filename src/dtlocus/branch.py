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
from .plant import Plant, branch_numerator, log_eval, wrap_angle
from .poly import PolyRoot, _right_of, complex_roots

TOL_PHASE = 1e-6


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


def branch_departures(plant: Plant, bp: BranchPoint) -> list[float]:
    """The N gain-increasing departure angles out of a branch point.

    With F = G e^(-hs), the first N-1 log-derivatives of F vanish at a
    multiplicity-N point s*, and the delay drops out of every log-derivative
    past the first, so c = F^(N)(s*)/N! is a positive multiple of
    (-1)^N S_N with S_N = sum_z (s*-z)^-N - sum_p (s*-p)^-N (the factor is
    positive because F(s*) = -1/k*).  Near s*, (s-s*)^N ~ dk/(k*^2 c): the
    departures leave along (-arg c + 2 pi j)/N.
    """
    n = bp.multiplicity
    s_n = sum((bp.s - z) ** -n for z in plant.zeros) - sum((bp.s - p) ** -n for p in plant.poles)
    arg_c = cmath.phase((-1) ** n * s_n)
    return [wrap_angle((-arg_c + 2.0 * math.pi * j) / n) for j in range(n)]


def branch_roots(plant: Plant, sigma0: float) -> tuple[PolyRoot, ...]:
    """Roots of the branch polynomial with Re(s) >= sigma0, the candidates
    for branch points.

    Only the eigenvalues that may become such a root are polished
    (complex_roots' screen).  The polynomial drops alpha, so the roots serve
    both gain signs.
    """
    b = branch_numerator(plant)
    if b.degree < 1:
        return ()
    return tuple(r for r in complex_roots(b, _keep=_right_of(sigma0))
                 if r.value.real >= sigma0 - 1e-9 * (1.0 + abs(r.value)))


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
