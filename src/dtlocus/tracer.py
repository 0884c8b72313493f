"""Whole-locus orchestration.

Seeds trajectories at open-loop poles (gain 0+), inward boundary crossings
and the closed-form departure fan of every active branch point, all before
tracing starts, so no seed depends on another.  Each seed is advanced by
predictor-corrector continuation until it hits a branching point, the gain
cap, the region boundary, or a step failure.  A region exit ends at one of
the outward crossings found before tracing; each of them should end exactly
one trajectory.  The upper half-plane picture is then mirrored onto the
lower one (real-coefficient symmetry): each trajectory that starts off the
real axis is directly followed by its conjugate image.  Points live in
float arrays (Trajectory.array), never as one object each, so the cyclic
collector has none to walk; a pass's images are views of one array.
Trajectory and Seed are named tuples, built unchecked: trace, _trace_batch
and _mirror, the only producers of trajectories, each hand over a read-only
float64 array of shape (n, 3).

Each gain pass finds once, in one record (_Pass), what its seeds are seeded
and traced against: branch probes, exit gains, real plant roots, anchors.
trace advances one seed at a time.  A pass with _BATCH_MIN or more seeds
off the real axis, below the cap and above every active branch point's gain
(mostly inward crossings far left or at large kmax, each a few steps long)
advances those in lockstep instead (_trace_batch): each round is one step of
trace's rule for every live trajectory at once, over numpy arrays.  A
trajectory whose step needs any other rule of trace, or is one of the last
_LIVE_MIN live, goes on in trace's own loop from its state, so every exit,
probe, real-axis and failure rule has trace as its one source.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .boundary import (
    BoundaryFunctions,
    CrossingSet,
    RegionSpec,
    boundary_crossings,
    boundary_functions,
)
from .branch import BranchPoint, branch_departures, branch_points, branch_roots, power_sum
from .continuation import (
    H0,
    H_MAX,
    H_MIN,
    MAX_ITER,
    TOL_CORR,
    LocusPoint,
    correct,
    correct_many,
    departure_angles,
    gain_step,
    hermite_bend,
    pole_group,
    step_update,
    step_update_many,
)
from .errors import BranchOnBoundary, InputError
from .plant import Plant, _log_kernel, log_eval, wrap_angle

_AXIS_TOL = 1e-9
_SPAWN_ANGLE_TOL = 1e-6
_DEDUP_TOL = 1e-8
_SEED_HALVINGS = 8
_FIRST_STEP_REL = 0.1
# A pole seed starts _POLE_REACH of the way to the nearest other plant root
# or branch point: far enough out that its trajectory does not climb out of
# the pole in many short steps, near enough that the pole's local model
# s - p ~ e^(K/m) still places it.  On corpus and highorder seeds 101-102,
# 0.2 polished two pole seeds onto roots of other trajectories; 0.1 keeps a
# margin below that.
_POLE_REACH = 0.1
# Roots of a plant given by coefficients are inexact, and a cap point a few
# 1e-5(1 + |p|) from such a pole can fail the locus check, so the model's
# start is not trusted within _CAP_FLOOR(1 + |p|) of its pole.
_CAP_FLOOR = 1e-4
# Newton from the start converges onto the pole's own root while its first
# step stays well inside the start's distance r from the pole; the other
# roots of an m-fold pole lie 2 sin(pi/m) r away.
_SHEET = 0.25
MAX_STEPS = 20000  # step budget per trajectory
_LAST_HALVING = H_MIN * (1.0 + 1e-12)  # a rejected step this short ends its trajectory
_BATCH_MIN = 48  # batchable seeds from which a pass traces them by _trace_batch
_LIVE_MIN = 32  # live trajectories below which a lockstep round costs more than trace
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class PoleOrigin:
    index: int


@dataclass(frozen=True)
class CrossingOrigin:
    index: int


@dataclass(frozen=True)
class BranchOrigin:
    index: int
    angle: float


@dataclass(frozen=True)
class GainCap:
    pass


@dataclass(frozen=True)
class LeftRegion:
    matched: int


@dataclass(frozen=True)
class ReachedBranch:
    index: int


@dataclass(frozen=True)
class StepFailure:
    reason: str


class Trajectory(NamedTuple):
    """One traced locus branch, gain strictly increasing along its points.

    array holds one row (sigma, omega, K) per point, read-only float64 of
    shape (n, 3), maybe a view of an array other trajectories share; its
    producer (trace, _trace_batch, _mirror) makes it so.  points builds them
    as LocusPoints on each access.  start_marker carries the open-loop pole
    of a pole-seeded trajectory; that point belongs to gain k = 0, which has
    no finite K, so it rides along outside the array.  Trajectories are not
    compared by value: tuple == on two arrays of more than one element
    raises, so compare arrays with np.array_equal.
    """

    origin: PoleOrigin | CrossingOrigin | BranchOrigin
    array: np.ndarray
    termination: GainCap | LeftRegion | ReachedBranch | StepFailure
    mirrored: bool = False
    start_marker: complex | None = None

    @property
    def points(self) -> tuple[LocusPoint, ...]:
        return tuple(map(LocusPoint._make, self.array.tolist()))


@dataclass(frozen=True)
class TraceOptions:
    """Corrector tolerance and the negative-gain pass; checked once here."""

    tol_corr: float = TOL_CORR
    negative_gains: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tol_corr) and self.tol_corr > 0.0):
            raise InputError(f"corrector tolerance must be finite and > 0, got {self.tol_corr}")


class Seed(NamedTuple):
    """Where one trajectory starts; dlog is the log-derivative at start
    where the seed's polish found it, else None (a crossing seed)."""

    origin: PoleOrigin | CrossingOrigin | BranchOrigin
    start: LocusPoint
    start_marker: complex | None = None
    dlog: complex | None = None


@dataclass(frozen=True)
class RootLocusResult:
    plant: Plant
    region: RegionSpec
    crossings: CrossingSet
    branch_points: tuple[BranchPoint, ...]
    trajectories: tuple[Trajectory, ...]
    warnings: tuple[str, ...]
    negative: "RootLocusResult | None" = None


class _Pass(NamedTuple):
    """What every seed of one gain pass is seeded and traced against, built
    once by _make_pass: tol is the corrector's, probes _branch_probes',
    exit_gains the outward crossings' gains, axis the real plant roots
    ascending, anchors the plant zeros, poles and branch points."""

    plant: Plant
    region: RegionSpec
    tol: float
    branches: tuple[BranchPoint, ...]
    outward: tuple
    probes: list[tuple[float, int, float]]
    exit_gains: list[float]
    axis: list[float]
    anchors: tuple[complex, ...]

    def ahead(self, sigma: float, K: float):
        """The probes above gain K, in order, and the real plant roots nearest
        sigma strictly left and right (infinite where there is none)."""
        i, j, axis = bisect_left(self.axis, sigma), bisect_right(self.axis, sigma), self.axis
        return ([q for q in self.probes if self.branches[q[1]].Kval > K],
                axis[i - 1] if i else -math.inf, axis[j] if j < len(axis) else math.inf)


def _make_pass(plant: Plant, region: RegionSpec, branches, outward, tol: float) -> _Pass:
    roots = plant.zeros + plant.poles
    axis = sorted(r.real for r in roots if abs(r.imag) <= _AXIS_TOL * (1.0 + abs(r)))
    return _Pass(plant, region, tol, branches, outward, _branch_probes(plant, branches),
                 [c.Kval for c in outward], axis, (*roots, *(bp.s for bp in branches)))


def _seed_from_ray(p: _Pass, origin, anchor: complex, theta: float, poles: int = 0) -> Seed:
    """Seed one trajectory of pass p along a ray from anchor: a pole of
    multiplicity poles, or a branch point (poles 0).

    The fixed step along the ray is 1e-3(1 + |anchor|), or half the way to
    the nearest other of p's anchors or to the line Re(s) = sigma0 if less.
    A branch seed is the stepped point polished by Newton at its own gain,
    on the axis for a real ray; while that fails the step is halved, at most
    _SEED_HALVINGS times.

    A pole seed is placed by the pole's local model instead, from one kernel
    pass at radius R along the ray: R is _POLE_REACH of the way to the
    nearest other anchor, at least the fixed step and at most half that way,
    kept clear of sigma0 alike (the fixed step if the pole has no other
    anchor).  With K_R the gain there, the trajectory leaves the pole as
    s - p ~ R e^((K - K_R)/m) e^(j theta).  If K_R is at most ln kmax the
    seed is polished at (p + R e^(j theta), K_R).  Otherwise the whole
    trajectory lies inside R, and the seed, its one point, is polished at
    ln kmax from the model's radius there, with a first-order term for the
    rest of the plant (fitted to K's slope at R).  The fixed step's seed is
    taken instead when the start lies within _CAP_FLOOR(1 + |p|) of the
    pole, when the polish fails, or when its first Newton correction
    exceeds _SHEET times the start's distance from the pole (the start was
    nearer another sheet).  A seed carries dlog at its polished start.
    """
    dx, dy = math.cos(theta), math.sin(theta)
    if abs(dy) <= _SPAWN_ANGLE_TOL:
        dx, dy = math.copysign(1.0, dx), 0.0  # keep exactly on axis
    ray = complex(dx, dy)
    plant, scale = p.plant, 1.0 + abs(anchor)
    tol = 1e-9 * scale
    near = min((d for d in (abs(anchor - x) for x in p.anchors) if d > tol), default=math.inf)
    clear = 0.5 * (anchor.real - p.region.sigma0) / -dx if dx < 0.0 else math.inf
    delta = min(1e-3 * scale, 0.5 * near, clear)
    marker = anchor if poles else None
    if poles:
        R = min(max(delta, _POLE_REACH * near), 0.5 * near, clear) if near < math.inf else delta
        s = anchor + R * ray
        lnmag, _, dlog = _log_kernel(plant, s)
        K = -lnmag
        if K > p.region.lnkmax:  # the model's point at the cap, inside R
            # K(r) = K_R + m ln(r/R) + (g - m)(r/R - 1) matches K and its
            # slope g/R at R; one fixed-point step from the bare pole's r/R
            dK, g = p.region.lnkmax - K, -R * (dlog * ray).real
            x = math.exp(dK / poles)
            r = R * math.exp(min(dK + (g - poles) * (1.0 - x), 0.0) / poles)
            s, K = anchor + r * ray, p.region.lnkmax
        if abs(s - anchor) >= _CAP_FLOOR * scale:
            out = correct(plant, s, K, 0.01 * p.tol, 11, s.imag == 0.0)
            if out.converged and out.first <= _SHEET * abs(s - anchor):
                return Seed(origin, out.point, marker, out.dlog)
    for _ in range(_SEED_HALVINGS + 1):
        s1 = anchor + delta * ray
        out = correct(plant, s1, -log_eval(plant, s1).lnmag, 0.01 * p.tol, 11, s1.imag == 0.0)
        if out.converged:
            break
        delta *= 0.5
    return Seed(origin, out.point, marker, out.dlog if out.converged else None)


def _mirrored_away(anchor: complex, theta: float) -> bool:
    """Whether the ray from anchor is the conjugate image of a seeded one."""
    if abs(anchor.imag) <= _AXIS_TOL:
        return math.sin(theta) < -_AXIS_TOL
    return anchor.imag < 0.0


def seed_points(p: _Pass, inward) -> list[Seed]:
    """Initial trajectories of pass p: one per in-region pole ray, one per
    crossing in inward, one per departure ray of each active branch point.

    A branch seed starts on the locus a short way along its ray, a pole
    seed where the pole's local model places it, at the cap if the whole
    trajectory lies near the pole (_seed_from_ray), and a crossing seed at
    its crossing.
    Seeds whose trajectory is the conjugate image of another are omitted;
    the mirror pass reinstates them.  Every trajectory heads along
    ds/dK = -1/dlog, so a seed carries no direction.
    """
    plant, sigma0 = p.plant, p.region.sigma0
    seeds: list[Seed] = []
    for i, pole in enumerate(plant.poles):
        group = pole_group(plant, i)
        if group[0] != i or pole.real < sigma0:
            continue  # one fan per distinct pole location in the region
        for theta in departure_angles(plant, i):
            if not _mirrored_away(pole, theta):
                seeds.append(_seed_from_ray(p, PoleOrigin(i), pole, theta, len(group)))
    for ci, c in enumerate(inward):
        seeds.append(Seed(CrossingOrigin(ci), LocusPoint(sigma0, c.omega, c.Kval)))
    for bi, bp in enumerate(p.branches):
        if not bp.active:
            continue
        for theta in branch_departures(plant, bp):
            if not _mirrored_away(bp.s, theta):
                seeds.append(_seed_from_ray(p, BranchOrigin(bi, theta), bp.s, theta))
    return seeds


def _first_step_length(rho, maximum=max, minimum=min):
    """The first step length of a trajectory whose seed lies rho from the
    nearest of its pass's anchors: a tenth of rho, raised to H0 and capped
    at H_MAX, so that a seed far from everything that bends the locus starts
    long instead of doubling up from H0 step by step.  Branch departures sit
    within 1e-3(1 + |anchor|) of their anchor, so they keep H0 while the
    anchor lies inside |s| < 99.  A pole seed sits at most half the way to
    the nearest other anchor, so rho is its distance from its own pole, and
    it starts at a tenth of that.  With an array rho, pass np.maximum and
    np.minimum."""
    return minimum(maximum(H0, _FIRST_STEP_REL * rho), H_MAX)


def _branch_probes(plant: Plant, branches) -> list[tuple[float, int, float]]:
    """(probe gain, index, |a|) of each active branch point, sorted by probe
    gain.  Near s* of multiplicity N the arriving roots lie
    rho = (N(K* - K)/|a|)^(1/N) from s*, with a = (-1)^(N-1) S_N
    (branch.power_sum); the probe gain K* - |a|(R/2)^N/N is where rho = R/2,
    R a quarter of the distance from s* to the nearest other plant root or
    branch point.
    """
    roots = plant.zeros + plant.poles
    probes = []
    for bi, bp in enumerate(branches):
        if not bp.active:
            continue
        n = bp.multiplicity
        abs_a = abs(power_sum(plant, bp))
        others = (*roots, *(b.s for j, b in enumerate(branches) if j != bi))
        R = 0.25 * min((abs(bp.s - x) for x in others), default=math.inf)
        probes.append((bp.Kval - abs_a * (0.5 * R) ** n / n, bi, abs_a))
    probes.sort()
    return probes


def _ds_dK(dlog: complex, real: bool):
    """ds/dK = -1/dlog, its real part on the axis; 0 where that slope vanishes."""
    slope = dlog.real if real else dlog
    return -1.0 / slope if slope else 0.0


def trace(p: _Pass, seed: Seed) -> Trajectory:
    """Advance one seed of pass p to its termination, stepping in the gain.

    A step of length h in (sigma, omega, K) raises the gain by
    gain_step(h, dlog) to K1, at most to ln kmax, to the next branch probe
    gain and to the next of p's exit gains, those of its outward crossings
    (found by bisection), predicts along the cubic in t = K1 - K through the
    cursor s and the point s0 one accepted gain step H back, with their
    slopes ds/dK = -1/dlog, v and v0 (the cubic Hermite interpolant;
    Allgower and Georg, Introduction to Numerical Continuation Methods, SIAM
    2003), and corrects by Newton at frozen K1, on the axis for a trajectory
    that starts on it.  The prediction is the tangent s + t v plus the
    cubic's bend t^2 (c2 + c3 t), which is left out on the first step, when
    t exceeds 2H (after a step cut short at a probe gain the cubic would be
    extrapolated far beyond its data), when the bend exceeds half of |t v|,
    and on the step to ln kmax (from a bent prediction Newton can stop at
    once, inside tol but farther from the cap root than its solve would
    bring it).  A rejected step keeps s0 and v0.
    A root leaves the window only across Re(s) = sigma0, so only at an
    outward crossing and at that crossing's own gain.  On the step to it the
    trajectory leaves there if its corrected point lies within
    4 tol/|dlog| + 1e-9(1 + |x|) of x = sigma0 + j omega_c, on the side of
    the axis of the point: it records (sigma0, Im x, the crossing's gain) and
    ends in LeftRegion(the crossing's index).  That test comes before the
    one for sigma0, since the step may land a rounding error left of the
    line.  step_update grades each step; these reject it too: a real-axis
    step past a real plant root (p.axis), and any other step that lands left
    of sigma0.  A rejected step is redone at half the length; at H_MIN, or
    after MAX_STEPS steps, the trajectory ends in StepFailure.  A step to
    ln kmax ends in GainCap.  At a branch point's probe gain (p.probes) the
    trajectory arrives, ending ReachedBranch at s*, if it lies within 2 rho
    of s*; otherwise it ignores that branch point.  Departures start above
    their own branch gain, so they are never probed against it.  The first
    step is _first_step_length's, rho measured to p's anchors; a seed at or
    above the cap is its own only point.  dlog at the start is the seed's
    where its polish found it.
    """
    if seed.start.Kval >= p.region.lnkmax:  # the seed already sits at or above the cap
        points, termination = [], GainCap()
    else:
        s, K, dlog = seed.start.s, seed.start.Kval, seed.dlog
        if dlog is None:  # one kernel pass; 0j if the kernel raises
            dlog = correct(p.plant, s, K, math.inf, 0, s.imag == 0.0).dlog
        rho = min(map(abs, map(s.__sub__, p.anchors)), default=math.inf)
        points, termination = _advance(p, seed, 1, s, K, dlog, s, None, 0.0,
                                       _first_step_length(rho), MAX_STEPS)
    rows = [*seed.start, *points]
    # an array over bytes is read-only as made
    rows = np.ndarray((len(rows) // 3, 3), _FLOAT64, array("d", rows).tobytes())
    return Trajectory(seed.origin, rows, termination, start_marker=seed.start_marker)


def _advance(p: _Pass, seed: Seed, count: int, s: complex, K: float, dlog: complex,
             s0: complex, v0: complex | None, H: float, h: float, budget: int):
    """trace's steps for seed of pass p from the cursor s at gain K, point
    number count of its trajectory, with dlog there, the point s0 and ds/dK
    v0 one accepted gain step H back (v0 None: the cursor's, on the first
    step), the next step length h and budget steps left.  Returns the points
    after the cursor (flat sigma, omega, K floats) and the termination."""
    lnkmax, sigma0, tol = p.region.lnkmax, p.region.sigma0, p.tol
    outward, exit_gains = p.outward, p.exit_gains
    points: list[float] = []
    real = seed.start.omega == 0.0
    probes, lo, hi = p.ahead(seed.start.sigma, K)  # a real trajectory stays in (lo, hi)
    v = _ds_dK(dlog, real)  # at the cursor
    if v0 is None:
        v0 = v
    for _ in range(budget):
        while probes and probes[0][0] <= K:  # the cursor is at a probe gain
            _, bi, abs_a = probes.pop(0)
            bp = p.branches[bi]
            n = bp.multiplicity
            if abs_a * abs(s - bp.s) ** n <= 2.0 ** n * n * (bp.Kval - K):
                points += bp.s.real, bp.s.imag, bp.Kval
                return points, ReachedBranch(bi)

        ex = bisect_right(exit_gains, K)  # the next exit gain's crossing
        exit_gain = exit_gains[ex] if ex < len(exit_gains) else math.inf
        K1 = min(K + gain_step(h, dlog), lnkmax, probes[0][0] if probes else math.inf, exit_gain)
        if K1 <= K or not v:
            return points, StepFailure(
                f"the gain no longer rises at step {count + len(points) // 3}")
        t = K1 - K
        ds = t * v
        if t <= 2.0 * H and K1 < lnkmax:  # bend along the cubic through (s0, v0) and (s, v)
            bend = hermite_bend(s, v, s0, v0, H, t, real)
            if abs(bend) <= 0.5 * abs(ds):
                ds += bend
        out = correct(p.plant, s + ds, K1, tol, MAX_ITER, real)
        h_used = h
        h, repeat = step_update(h_used, out, abs(ds), tol * abs(v))
        c = out.point
        reason = None
        # the crossing the trajectory may leave the region at, on the step to its gain
        x = complex(sigma0, math.copysign(outward[ex].omega, c.omega)) if K1 == exit_gain else None

        if repeat:
            reason = f"step underflow: step length {h_used:.3e} cannot shrink below {H_MIN:.3e}"
        elif real and (c.sigma > hi or lo > max(c.sigma, sigma0)):
            reason = f"step passed a real plant root at step {count + len(points) // 3}"
        elif x is not None and out.dlog and (
                abs(c.s - x) <= 4.0 * tol / abs(out.dlog) + 1e-9 * (1.0 + abs(x))):
            points += sigma0, x.imag, K1
            return points, LeftRegion(ex)
        elif c.sigma < sigma0:
            reason = ("step left the region off every outward crossing at step "
                      f"{count + len(points) // 3}")

        if reason is not None:
            if h_used <= _LAST_HALVING:
                return points, StepFailure(reason)
            h = max(0.5 * h_used, H_MIN)
            continue

        points += c  # sigma, omega and K1, c's gain
        if K1 >= lnkmax:
            return points, GainCap()
        s0, v0, H = s, v, t
        s, K, dlog = c.s, K1, out.dlog
        v = _ds_dK(dlog, real)

    return points, StepFailure(f"step budget of {MAX_STEPS} exhausted")


def _slopes(dlog: np.ndarray) -> np.ndarray:
    """_ds_dK off the axis at every element: -1/dlog, 0 where dlog is 0."""
    with np.errstate(all="ignore"):
        return np.where(dlog != 0.0, -1.0 / dlog, 0.0)


def _batchable(starts: np.ndarray, region: RegionSpec, top: float) -> np.ndarray:
    """The indices of the seeds _trace_batch takes, of their start rows
    (sigma, omega, K): off the real axis, below the cap and at or above top,
    the highest gain of an active branch point, so that trace would probe no
    branch point on their way."""
    K = starts[:, 2]
    return np.flatnonzero((starts[:, 1] != 0.0) & (top <= K) & (K < region.lnkmax))


def _trace_batch(p: _Pass, seeds, starts: np.ndarray) -> list[Trajectory]:
    """trace for many _batchable seeds of pass p, with their start rows, the
    bulk of their steps in lockstep over numpy arrays.

    Each round takes one step of trace for every live trajectory: the
    gain_step raise of the gain, at most to ln kmax, the Hermite bend
    (hermite_bend) with trace's fallbacks to the tangent, frozen-gain Newton
    (correct_many) and step_update's rule (step_update_many), a rejected step
    halved, each step capped also at the gain of the next outward crossing
    above the seed.  A trajectory leaves the lockstep at the cap, in GainCap,
    or where trace would need any other rule: a step capped at that exit
    gain (so the gain stays fixed while the trajectory is in the lockstep),
    a step that lands left of sigma0, a point the kernel flags (where
    trace's correct would raise or fold), a gain that no longer rises, a
    rejection at H_MIN, MAX_STEPS spent, and a trajectory still live when
    fewer than _LIVE_MIN are.  Such a trajectory goes on in trace's own loop
    (_advance) from its state before that step, so trace stays the one
    source of every other rule.  The seeds that carry no dlog take one
    correct_many pass at their start; one at whose start the kernel flags
    is traced by trace.  Each round's accepted points are recorded as arrays,
    those of _advance as floats after them; one stable sort by seed then
    makes every trajectory's rows a view of one array, in the order they
    were accepted.
    """
    plant, lnkmax, sigma0, tol = p.plant, p.region.lnkmax, p.region.sigma0, p.tol
    n = len(seeds)
    s = np.ascontiguousarray(starts[:, :2]).view(complex).ravel()  # sigma + j omega, exactly
    K = starts[:, 2]
    dlog = np.array([0j if seed.dlog is None else seed.dlog for seed in seeds])
    bad = np.zeros(n, dtype=bool)
    todo = np.array([seed.dlog is None for seed in seeds])  # seeds whose dlog is not known
    if todo.any():
        _, _, _, _, dlog[todo], _, bad[todo] = correct_many(plant, s[todo], K[todo], math.inf, 0)
    rho = np.abs(s[:, None] - np.array(p.anchors, dtype=complex)).min(axis=1, initial=math.inf)
    h = _first_step_length(rho, np.maximum, np.minimum)  # trace's first step of every seed
    v = _slopes(dlog)
    # the gain of the next outward crossing above each seed, fixed while the
    # trajectory is in the lockstep: the step capped there is handed on
    gains = np.array(p.exit_gains)
    exit_gain = np.append(gains, math.inf)[np.searchsorted(gains, K, side="right")]
    # per live trajectory: its seed's index, the cursor, its gain, dlog and
    # ds/dK, the point and ds/dK one accepted gain step H back, the step
    # length, the next exit gain
    state = (np.arange(n), s, K, dlog, v, s, v, np.zeros(n), h, exit_gain)
    keep = ~bad
    # (seed indices, points, gains) accepted in each round, led by the seeds
    record = [(np.flatnonzero(keep), s[keep], K[keep])]
    ends: list = [None] * n  # each trajectory's termination
    cap = GainCap()
    handed = []  # (ids, s, K, dlog, s0, v0, H, h, steps left) of trajectories for _advance

    def hand(mask, left):  # of the round's live arrays
        handed.append((ids[mask], s[mask], K[mask], dlog[mask], s0[mask], v0[mask], H[mask],
                       h[mask], left))

    for step in range(MAX_STEPS + 1):
        ids, s, K, dlog, v, s0, v0, H, h, exit_gain = (x[keep] for x in state)
        if len(ids) < _LIVE_MIN or step == MAX_STEPS:
            hand(np.ones(len(ids), dtype=bool), MAX_STEPS - step)
            break
        K1 = np.minimum(np.minimum(K + gain_step(h, dlog, np.sqrt), lnkmax), exit_gain)
        t = K1 - K
        ds = t * v
        with np.errstate(all="ignore"):  # H is 0 before the first accepted step
            bend = hermite_bend(s, v, s0, v0, H, t)
        ds = np.where((t <= 2.0 * H) & (K1 < lnkmax) & (np.abs(bend) <= 0.5 * np.abs(ds)),
                      ds + bend, ds)
        c, _, kappa, converged, dlog1, first, bad = correct_many(plant, s + ds, K1, tol, MAX_ITER)
        h_next, redo = step_update_many(h, converged, kappa, first, np.abs(ds), tol * np.abs(v))
        accept = ~(redo | bad)
        other = (bad | (accept & (c.real < sigma0)) | (redo & (h <= _LAST_HALVING))
                 | (K1 <= K) | (v == 0.0) | (K1 == exit_gain))
        ok = accept & ~other
        if other.any():
            hand(other, MAX_STEPS - step)
        record.append((ids[ok], c[ok], K1[ok]))
        top = ok & (K1 >= lnkmax)
        for i in ids[top].tolist():
            ends[i] = cap
        keep = ~(other | top)
        state = (ids, np.where(ok, c, s), np.where(ok, K1, K), np.where(ok, dlog1, dlog),
                 np.where(ok, _slopes(dlog1), v), np.where(ok, s, s0), np.where(ok, v, v0),
                 np.where(ok, t, H), h_next, exit_gain)

    ids, s, K = (np.concatenate(x) for x in zip(*record))
    count = np.bincount(ids, minlength=n).tolist()  # each trajectory's points so far
    tail_ids, tails = [], []
    for hids, *at, left in handed:
        for i, *cursor in zip(hids.tolist(), *(x.tolist() for x in at)):
            points, ends[i] = _advance(p, seeds[i], count[i], *cursor, left)
            tail_ids += [i] * (len(points) // 3)
            tails += points
    ids = np.concatenate((ids, np.array(tail_ids, dtype=ids.dtype)))
    rows = np.concatenate((np.column_stack((s.real, s.imag, K)), np.reshape(tails, (-1, 3))))
    rows = rows[np.argsort(ids, kind="stable")]
    rows.flags.writeable = False
    bounds = np.cumsum(np.bincount(ids, minlength=n)).tolist()
    return [trace(p, seed) if end is None else
            Trajectory(seed.origin, rows[a:b], end, start_marker=seed.start_marker)
            for seed, end, a, b in zip(seeds, ends, [0, *bounds], bounds)]


def _conj_index(items, value: complex) -> int:
    target = value.conjugate()
    return min(range(len(items)), key=lambda i: abs(items[i] - target))


def _mirror(plant: Plant, branches, trajectories: list[Trajectory]) -> list[Trajectory]:
    """The trajectories, each that starts off the real axis (omega != 0.0,
    the rule of trace's real mode and of _batchable) followed by its
    conjugate image.  The images are views of one array, the trajectories'
    rows stacked with omega negated.  An image keeps its original's origin
    and termination, except that one naming a pole or a branch point names
    its conjugate instead (conj looks each up once), and its start marker is
    conjugated."""
    if not trajectories:
        return []
    arrays = [t.array for t in trajectories]
    bounds = [0, *accumulate(map(len, arrays))]
    rows = np.concatenate(arrays)
    omega = rows[:, 1]
    omega *= -1.0
    rows.flags.writeable = False
    starts = omega[bounds[:-1]].tolist()
    spots = {PoleOrigin: plant.poles, BranchOrigin: [b.s for b in branches]}
    found: dict[tuple, int] = {}

    def conj(kind, index):
        key = kind, index
        if key not in found:
            found[key] = _conj_index(spots[kind], spots[kind][index])
        return found[key]

    out = []
    for traj, start, a, b in zip(trajectories, starts, bounds, bounds[1:]):
        out.append(traj)
        if start == 0.0:
            continue
        origin, termination, marker = traj.origin, traj.termination, traj.start_marker
        if type(origin) is PoleOrigin:
            origin = PoleOrigin(conj(PoleOrigin, origin.index))
        elif type(origin) is BranchOrigin:
            origin = BranchOrigin(conj(BranchOrigin, origin.index), wrap_angle(-origin.angle))
        if type(termination) is ReachedBranch:
            termination = ReachedBranch(conj(BranchOrigin, termination.index))
        if marker is not None:
            marker = marker.conjugate()
        out.append(Trajectory(origin, rows[a:b], termination, True, marker))
    return out


def _dedup(trajectories: list[Trajectory]) -> list[Trajectory]:
    """Drop a trajectory when another of the same ending reaches the same
    final point, within _DEDUP_TOL in sigma, omega and K; distinct arrivals
    at one branch point are kept apart (their shared endpoint is the snap,
    not a duplication).

    The endpoints are sorted by omega, so each one's candidates follow it
    up to the first more than _DEDUP_TOL above it, so only an endpoint whose
    successor lies within it has any.  The choice of survivors
    is greedy, in index order: for each i still kept, every later j still
    kept and within tolerance drops the shorter of the pair, j on a tie.
    Which j are dropped for one i does not depend on the order its
    candidates are visited, so the result equals the pairwise scan.
    """
    if len(trajectories) < 2:
        return list(trajectories)
    ends = [t.array[-1].tolist() for t in trajectories]
    omega = [end[1] for end in ends]
    order = sorted((j for j, t in enumerate(trajectories)
                    if type(t.termination) is not ReachedBranch), key=omega.__getitem__)
    w = [omega[j] for j in order]
    near: dict[int, list[int]] = {}  # i: the later j within tolerance
    for p in [p for p, (x, y) in enumerate(zip(w, w[1:])) if not y - x > _DEDUP_TOL]:
        i = order[p]
        a, kind = ends[i], type(trajectories[i].termination)
        for q in range(p + 1, len(order)):
            j = order[q]
            b = ends[j]
            if b[1] - a[1] > _DEDUP_TOL:
                break
            if (type(trajectories[j].termination) is kind
                    and max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2])) <= _DEDUP_TOL):
                near.setdefault(min(i, j), []).append(max(i, j))
    drop: set[int] = set()
    for i in sorted(near):
        if i in drop:
            continue
        for j in near[i]:
            if j not in drop:
                drop.add(j if len(trajectories[j].array) <= len(trajectories[i].array) else i)
    return [t for i, t in enumerate(trajectories) if i not in drop]


def run(plant: Plant, region: RegionSpec, options: TraceOptions | None = None) -> RootLocusResult:
    """Complete root locus for the plant inside the region.

    With negative_gains set, a second pass runs with the plant gain sign
    flipped (the locus of negative k values) and lands in result.negative.
    The sign-free set-up is built once and serves both passes: the boundary
    line's rows, its constant and the breakpoints of K' and phi', all found
    in boundary_functions, and the zeros of dlog right of sigma0
    (branch_roots).  Each pass makes its own boundary phase offset, branch
    phase test and active flags, seeds and traces.
    """
    options = options or TraceOptions()
    bf = boundary_functions(plant, region)
    roots = branch_roots(plant, region.sigma0)
    result = _run_signed(bf, region, options, roots)
    if options.negative_gains:
        neg = _run_signed(bf.flipped_gain(), region, options, roots)
        result = replace(result, negative=neg)
    return result


def _run_signed(bf: BoundaryFunctions, region: RegionSpec, options: TraceOptions,
                roots) -> RootLocusResult:
    plant = bf.plant
    branches = tuple(branch_points(plant, region, roots))
    for bp in branches:
        if bp.active and abs(bp.s.real - region.sigma0) <= 1e-9 * (1.0 + abs(bp.s)):
            raise BranchOnBoundary(
                f"branch point {bp.s} sits on the line Re(s) = {region.sigma0}; "
                "crossing directions are ill-posed there"
            )
    crossings = boundary_crossings(bf, region)
    p = _make_pass(plant, region, branches, crossings.outward, options.tol_corr)
    seeds = seed_points(p, crossings.inward)
    batched = {}
    if len(seeds) >= _BATCH_MIN:  # else too few to be batchable
        starts = np.fromiter(chain.from_iterable(seed.start for seed in seeds), float,
                             3 * len(seeds)).reshape(-1, 3)  # (sigma, omega, K) of each
        top = max((bp.Kval for bp in branches if bp.active), default=-math.inf)
        batchable = _batchable(starts, region, top).tolist()
        if len(batchable) >= _BATCH_MIN:
            batched = dict(zip(batchable, _trace_batch(
                p, [seeds[i] for i in batchable], starts[batchable])))
    trajectories = [batched[i] if i in batched else trace(p, seed)
                    for i, seed in enumerate(seeds)]
    # each outward crossing ends exactly one trajectory (its mirror image the
    # other); counted before _dedup so that a doubled exit shows
    exits = Counter(t.termination.matched for t in trajectories
                    if isinstance(t.termination, LeftRegion))
    warnings = [
        f"outward crossing at omega={c.omega:.6g}, k={c.k:.6g} ends "
        f"{exits[ci]} traced trajectories, not 1"
        for ci, c in enumerate(crossings.outward) if exits[ci] != 1
    ]

    trajectories = _dedup(trajectories)

    for traj in trajectories:
        if isinstance(traj.termination, StepFailure):
            sigma, omega, K = traj.array[-1].tolist()
            warnings.append(
                f"trajectory stopped at {sigma:.6g}{omega:+.6g}j, k={math.exp(K):.6g}: "
                f"{traj.termination.reason}"
            )
    trajectories = _mirror(plant, branches, trajectories)

    arrivals = [0] * len(branches)
    departures = [0] * len(branches)
    for t in trajectories:
        if isinstance(t.termination, ReachedBranch):
            arrivals[t.termination.index] += 1
        if isinstance(t.origin, BranchOrigin):
            departures[t.origin.index] += 1
    for bp, arr, dep in zip(branches, arrivals, departures):
        if bp.active and (arr != bp.multiplicity or dep != bp.multiplicity):
            warnings.append(
                f"branch point at {bp.s.real:.6g}{bp.s.imag:+.6g}j expects "
                f"{bp.multiplicity} arrivals and departures, traced {arr} and {dep}"
            )

    return RootLocusResult(
        plant=plant,
        region=region,
        crossings=crossings,
        branch_points=branches,
        trajectories=tuple(trajectories),
        warnings=tuple(warnings),
        negative=None,
    )
