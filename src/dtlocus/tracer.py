"""Whole-locus orchestration.

Seeds trajectories at open-loop poles (gain 0+), inward boundary crossings
and the closed-form departure fan of every active branch point, all before
tracing starts, so no seed depends on another.  Each seed is advanced by
predictor-corrector continuation until it hits a branching point, the gain
cap, the region boundary, or a step failure.  Region exits are then matched
to outward crossings, and the upper half-plane picture is mirrored onto the
lower one (real-coefficient symmetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .boundary import (
    BoundaryFunctions,
    CrossingSet,
    RegionSpec,
    boundary_crossings,
    boundary_functions,
)
from .branch import BranchPoint, branch_departures, branch_points, branch_roots
from .continuation import (
    H0,
    H_MAX,
    H_MIN,
    MAX_ITER,
    TOL_CORR,
    CorrectorOutcome,
    LocusPoint,
    _tangent,
    correct,
    departure_angles,
    pole_group,
    predict,
    step_update,
)
from .errors import BranchOnBoundary, InputError, SingularJacobian, SingularPointError
from .plant import Plant, _log_kernel, log_eval, wrap_angle

_AXIS_TOL = 1e-9
_SPAWN_ANGLE_TOL = 1e-6
_GAIN_GATE_REL = 1e-2
_FLAT_K_REL = 1e-9
_MATCH_OMEGA = 1e-4
_MATCH_K = 1e-3
_DEDUP_TOL = 1e-8
_DEDUP_CELL = 2e-8  # strictly above _DEDUP_TOL: close endpoints bin at most one cell apart
_NEAR_CELLS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
_SEED_HALVINGS = 8
_FIRST_STEP_REL = 0.1
MAX_STEPS = 20000  # step budget per trajectory


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
    matched: int | None


@dataclass(frozen=True)
class ReachedBranch:
    index: int


@dataclass(frozen=True)
class StepFailure:
    reason: str


@dataclass(frozen=True)
class Trajectory:
    """One traced locus branch, gain strictly increasing along points.

    start_marker carries the open-loop pole for pole-seeded trajectories;
    that point belongs to gain k = 0 which has no finite K, so it rides along
    outside the points list.
    """

    origin: PoleOrigin | CrossingOrigin | BranchOrigin
    points: tuple[LocusPoint, ...]
    termination: GainCap | LeftRegion | ReachedBranch | StepFailure
    mirrored: bool = False
    start_marker: complex | None = None

    def rows(self, sign: float = 1.0) -> list[tuple[float, float, float]]:
        """(sigma, omega, k) per point, led by a (sigma, omega, 0.0) row for
        the start marker; sign is -1.0 for the negative-gain pass."""
        rows = [(p.sigma, p.omega, sign * math.exp(p.Kval)) for p in self.points]
        if self.start_marker is not None:
            rows.insert(0, (self.start_marker.real, self.start_marker.imag, 0.0))
        return rows


@dataclass(frozen=True)
class TraceOptions:
    """Corrector tolerance, smallest first step, largest step and the
    negative-gain pass; checked once here."""

    tol_corr: float = TOL_CORR
    h0: float = H0
    h_max: float = H_MAX
    negative_gains: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tol_corr) and self.tol_corr > 0.0):
            raise InputError(f"corrector tolerance must be finite and > 0, got {self.tol_corr}")
        if not (math.isfinite(self.h0) and self.h0 > 0.0):
            raise InputError(f"first step h0 must be finite and > 0, got {self.h0}")
        if not (math.isfinite(self.h_max) and self.h_max >= H_MIN):
            raise InputError(f"largest step h_max must be finite and >= {H_MIN}, got {self.h_max}")


@dataclass(frozen=True)
class Seed:
    origin: PoleOrigin | CrossingOrigin | BranchOrigin
    start: LocusPoint
    direction: tuple[float, float, float]
    start_marker: complex | None = None


@dataclass(frozen=True)
class RootLocusResult:
    plant: Plant
    region: RegionSpec
    crossings: CrossingSet
    branch_points: tuple[BranchPoint, ...]
    trajectories: tuple[Trajectory, ...]
    warnings: tuple[str, ...]
    negative: "RootLocusResult | None" = None


def _correct(plant: Plant, start: LocusPoint, normal, tol: float,
             max_iter: int) -> CorrectorOutcome:
    """correct on the plane through start with the given normal; a solver
    error (singular Jacobian, plant root, non-finite iterate) fails at start."""
    try:
        return correct(plant, start, normal, tol, max_iter)
    except (SingularJacobian, SingularPointError, InputError):
        return CorrectorOutcome(start, max_iter, math.inf, False)


def _seed_from_ray(plant, origin, anchor: complex, theta: float, sigma0: float,
                   tol_corr: float, start_marker=None) -> Seed:
    """Seed one trajectory a small step along a ray from anchor.

    The step is 1e-3(1 + |anchor|), or half the way to the boundary line
    Re(s) = sigma0 when the ray meets it sooner, so the seed starts inside
    the region.  When the frozen-gain polish of the stepped point does not
    converge (the step overshot a nearby branch point or root), the step is
    halved, at most _SEED_HALVINGS times.  The seed leaves along the locus
    tangent at its polished start, which the polish returns; where the
    tangent is undefined (or the polish raised) it keeps the ray's direction
    (cos theta, sin theta, 0).
    """
    dx, dy = math.cos(theta), math.sin(theta)
    if abs(dy) <= _SPAWN_ANGLE_TOL:
        dx, dy = math.copysign(1.0, dx), 0.0  # keep exactly on axis
    delta = 1e-3 * (1.0 + abs(anchor))
    if dx < 0.0:
        delta = min(delta, 0.5 * (anchor.real - sigma0) / -dx)
    for _ in range(_SEED_HALVINGS + 1):
        s1 = anchor + delta * complex(dx, dy)
        K1 = -log_eval(plant, s1).lnmag
        out = _correct(plant, LocusPoint(s1.real, s1.imag, K1), (0.0, 0.0, 1.0),
                       0.01 * tol_corr, 11)
        if out.converged:
            break
        delta *= 0.5
    return Seed(origin, out.point, out.tangent or (dx, dy, 0.0), start_marker)


def _mirrored_away(anchor: complex, theta: float) -> bool:
    """Whether the ray from anchor is the conjugate image of a seeded one."""
    if abs(anchor.imag) <= _AXIS_TOL:
        return math.sin(theta) < -_AXIS_TOL
    return anchor.imag < 0.0


def seed_points(plant: Plant, region: RegionSpec, bf=None, crossings=None,
                options: TraceOptions | None = None, branches=None) -> list[Seed]:
    """Initial trajectories: one per in-region pole ray, one per inward
    crossing, one per departure ray of each active branch point.

    Every seed leaves along the locus tangent at its start.  Pole and branch
    seeds start on the locus a short way along their ray (_seed_from_ray).
    A crossing seed starts on the boundary, its tangent from one kernel pass
    there (boundary_crossings has already rejected a flat phase slope); the
    boundary's inward normal stands in where the tangent is undefined.
    Seeds whose trajectory is the conjugate image of another are omitted;
    the mirror pass reinstates them.  A seed carries no step length: trace
    starts it at _first_step's.
    """
    options = options or TraceOptions()
    if bf is None:
        bf = boundary_functions(plant, region)
    if crossings is None:
        crossings = boundary_crossings(bf, region)
    if branches is None:
        branches = branch_points(plant, region)

    seeds: list[Seed] = []
    for i, p in enumerate(plant.poles):
        group = pole_group(plant, i)
        if group[0] != i:
            continue  # one fan per distinct pole location
        if p.real < region.sigma0:
            continue
        for theta in departure_angles(plant, i):
            if not _mirrored_away(p, theta):
                seeds.append(
                    _seed_from_ray(plant, PoleOrigin(i), p, theta, region.sigma0,
                                   options.tol_corr, start_marker=p)
                )
    for ci, c in enumerate(crossings.inward):
        _, _, msig, mom = _log_kernel(plant, region.sigma0, c.omega)
        seeds.append(Seed(CrossingOrigin(ci), LocusPoint(region.sigma0, c.omega, c.Kval),
                          _tangent(msig, mom) or (1.0, 0.0, 0.0)))
    for bi, bp in enumerate(branches):
        if not bp.active:
            continue
        for theta in branch_departures(plant, bp):
            if not _mirrored_away(bp.s, theta):
                seeds.append(
                    _seed_from_ray(plant, BranchOrigin(bi, theta), bp.s, theta,
                                   region.sigma0, options.tol_corr)
                )
    return seeds


def _first_step(plant: Plant, branches, start: complex, options: TraceOptions) -> float:
    """First step length of a trajectory starting at start.

    A tenth of rho, the distance from start to the nearest plant zero, pole
    or branch point, raised to h0 and then kept in [H_MIN, h_max]: a seed far
    from everything that bends the locus starts long instead of doubling up
    from h0 step by step.  Pole seeds and branch departures sit within
    1e-3(1 + |anchor|) of their anchor, so they keep h0 while the anchor lies
    inside |s| < 99.
    """
    anchors = (*plant.zeros, *plant.poles, *(bp.s for bp in branches))
    rho = min(map(abs, map(start.__sub__, anchors)), default=math.inf)
    return min(max(options.h0, _FIRST_STEP_REL * rho, H_MIN), options.h_max)


def _match_outward(point: LocusPoint, w_out, claimed: set[int]) -> int | None:
    """Nearest unclaimed outward crossing within tolerance, else None."""
    best, best_score = None, math.inf
    for wi, c in enumerate(w_out):
        if wi in claimed:
            continue
        dw = abs(abs(point.omega) - c.omega)
        dK = abs(point.Kval - c.Kval)
        if dw <= _MATCH_OMEGA and dK <= _MATCH_K:
            score = dw + dK
            if score < best_score:
                best, best_score = wi, score
    if best is not None:
        claimed.add(best)
    return best


def _branch_capture(branches, cursor: LocusPoint, c: LocusPoint, h: float,
                    origin_branch: int | None, escaped: bool):
    """Screen a step of length h from cursor to c against the branch points.

    A step arrives at a branch point when its gain window brackets the
    branch gain and the path, interpolated to that gain, passes within the
    capture radius.  A step that starts within that radius but passes by
    has jumped onto another sheet.  A branch departure ignores its own
    branch point until it has escaped it.  Returns (index of the nearest
    branch point arrived at or None, passed by?, escaped).
    """
    captured = None
    best_dist = math.inf
    overshot = False
    for bi, bp in enumerate(branches):
        if not bp.active:
            continue
        tol_Kb = _GAIN_GATE_REL * (1.0 + abs(bp.Kval))
        r_cap = max(h, 1e-3) * (1.0 + abs(bp.s))
        if bi == origin_branch and not escaped:
            if abs(c.s - bp.s) > r_cap or c.Kval > bp.Kval + 2.0 * tol_Kb:
                escaped = True
            else:
                continue
        if cursor.Kval > bp.Kval + tol_Kb or c.Kval < bp.Kval - tol_Kb:
            continue
        span = c.Kval - cursor.Kval
        t = (bp.Kval - cursor.Kval) / span if span > 0.0 else 0.0
        t = min(max(t, 0.0), 1.0)
        pos = cursor.s + t * (c.s - cursor.s)
        dist = abs(pos - bp.s)
        if dist > r_cap:
            overshot = overshot or abs(cursor.s - bp.s) <= r_cap
        elif dist < best_dist:
            captured, best_dist = bi, dist
    return captured, overshot, escaped


def trace(plant: Plant, region: RegionSpec, seed: Seed, branches,
          options: TraceOptions | None = None) -> Trajectory:
    """Advance one seed to its termination.

    A step whose prediction along the travel direction reaches the gain cap
    inside the region is a cap step: it is shortened to end at ln kmax and
    corrected on the frozen-gain plane, so its converged point is the cap
    point.  A step that converges above the cap without being aimed at it is
    redone from the cursor as a cap step, when that step is no longer than
    h_max and ends inside the region; otherwise it is rejected.

    The corrector's point is screened in order for: convergence (step_update
    grades it; the leash rejects a converged point far from its prediction),
    branch capture, gain monotonicity and region exit (sigma below the
    boundary).  Cap steps pass the same screens.  Besides the failed or
    leashed correction, these can reject the step: a step that passes by a
    branch point it started beside, a gain that falls (so a falling step
    that lands left of the boundary is redone, not taken as an exit), a
    region exit whose solve onto the boundary does not converge or lies
    above the cap while the step ends below it, and a step past the cap that
    cannot be redone as a cap step.  Newton solves go through _correct: the
    step on the plane normal to the travel direction, the cap step at frozen
    gain, and the region exit at frozen sigma from the step interpolated to
    sigma0.  A rejected step is redone from the cursor at half the length;
    at H_MIN it ends in StepFailure with the reason instead, except the
    pass-by, which is then accepted.  An accepted point is recorded only
    when its gain rises, so the stored gain strictly increases.  A region
    exit ends in LeftRegion(None); the caller matches it to an outward
    crossing.  An accepted cap step ends in GainCap.

    Each step predicts along the travel direction: the seed's, then the locus
    tangent the corrector returned with the last accepted point (kept where
    it has none).  The tangent always raises the gain, so a step taken after
    a jump onto another sheet still heads up that sheet.  A trajectory that
    runs MAX_STEPS steps ends in StepFailure.

    The first step is _first_step's, sized to the seed's distance from the
    nearest plant root or branch point.  A seed that starts at or above the
    gain cap ends GainCap at once, its start the only point.
    """
    options = options or TraceOptions()
    lnkmax = region.lnkmax

    points: list[LocusPoint] = [seed.start]

    def finish(termination):
        return Trajectory(seed.origin, tuple(points), termination,
                          start_marker=seed.start_marker)

    if seed.start.Kval >= lnkmax:
        return finish(GainCap())  # the seed already sits at or above the cap

    cursor = seed.start
    d = seed.direction
    h = _first_step(plant, branches, seed.start.s, options)
    origin_branch = seed.origin.index if isinstance(seed.origin, BranchOrigin) else None
    escaped = origin_branch is None
    scale = 1.0 + abs(complex(cursor.sigma, cursor.omega))  # the leash's 1 + |cursor|
    aim = False  # redo the last step as a cap step
    for _ in range(MAX_STEPS):
        h_used = h
        # the length of a step along d to the cap, and whether it ends in the region
        h_cap = (lnkmax - cursor.Kval) / d[2] if d[2] > 0.0 else math.inf
        cap_inside = cursor.sigma + h_cap * d[0] >= region.sigma0
        capping = aim or (h_cap <= h_used and cap_inside)
        aim = False
        if capping:  # a cap step ends at the cap, corrected at frozen gain
            h_used = h_cap
            ahead = predict(cursor, d, h_cap)
            predicted, normal = LocusPoint(ahead.sigma, ahead.omega, lnkmax), (0.0, 0.0, 1.0)
        else:
            predicted, normal = predict(cursor, d, h_used), d
        at_floor = h_used <= H_MIN * (1.0 + 1e-12)  # no halving is left
        out = _correct(plant, predicted, normal, options.tol_corr, MAX_ITER)
        if out.converged:
            # leash: a converged point far from the prediction is a basin
            # escape onto another sheet, not a continuation of this one
            p = out.point
            disp = math.hypot(abs(complex(p.sigma - predicted.sigma, p.omega - predicted.omega)),
                              p.Kval - predicted.Kval)
            if disp > 10.0 * h_used * scale:
                out = CorrectorOutcome(p, out.iterations, math.inf, False)
        h, repeat = step_update(h_used, out, options.h_max)
        c = out.point
        reason = None

        if repeat:
            reason = (f"gain cap step left the locus at step {len(points)}" if capping else
                      f"step underflow: step length {h_used:.3e} cannot shrink below {H_MIN:.3e}")
        else:
            captured, overshot, escaped = _branch_capture(branches, cursor, c, h_used,
                                                          origin_branch, escaped)
            if captured is not None:
                bp = branches[captured]
                kept = [pt for pt in points if pt.Kval < bp.Kval - 1e-12]
                if kept:
                    kept.append(LocusPoint(bp.s.real, bp.s.imag, bp.Kval))
                    points = kept
                    return finish(ReachedBranch(captured))
                # no below-gain history: treat as a graze, keep going
            elif overshot and not at_floor:
                reason = "passed by a branch point"

        dK = c.Kval - cursor.Kval
        if reason is None and dK <= -_FLAT_K_REL * (1.0 + abs(c.Kval)):
            # the gain falls along a trajectory only past a critical point
            # of the gain, a branch point the step jumped over
            reason = f"gain reversal at step {len(points)}: dK={dK:.3e}"

        if reason is None and c.sigma < region.sigma0:
            span = c.sigma - cursor.sigma
            t = (region.sigma0 - cursor.sigma) / span if span != 0.0 else 1.0
            start = LocusPoint(region.sigma0, cursor.omega + t * (c.omega - cursor.omega),
                               cursor.Kval + t * (c.Kval - cursor.Kval))
            exit_out = _correct(plant, start, (1.0, 0.0, 0.0), options.tol_corr, 19)
            exit_pt = replace(exit_out.point, sigma=region.sigma0)  # undo an ulp of drift
            if not exit_out.converged:
                reason = f"region exit refinement did not converge at step {len(points)}"
            elif exit_pt.Kval <= lnkmax:
                if exit_pt.Kval > points[-1].Kval:
                    points.append(exit_pt)
                return finish(LeftRegion(None))
            elif c.Kval <= lnkmax:  # the step ends at or below the cap, its exit above it
                reason = f"region exit above the gain cap at step {len(points)}"

        if reason is None and c.Kval > lnkmax:
            if h_cap <= options.h_max and cap_inside:
                aim = True
                continue
            reason = f"step passed the gain cap at step {len(points)}"

        if reason is not None:
            if at_floor:
                return finish(StepFailure(reason))
            h = max(0.5 * h_used, H_MIN)
            continue

        if capping:
            if c.Kval > points[-1].Kval:
                points.append(c)
            return finish(GainCap())

        # accepted; a step flat in gain moves the cursor but records nothing
        d = out.tangent or d
        cursor = c
        scale = 1.0 + abs(complex(c.sigma, c.omega))
        if c.Kval > points[-1].Kval:
            points.append(c)

    return finish(StepFailure(f"step budget of {MAX_STEPS} exhausted"))


def _conj_index(items, value: complex) -> int:
    target = value.conjugate()
    return min(range(len(items)), key=lambda i: abs(items[i] - target))


def _mirror_trajectory(plant: Plant, branches, traj: Trajectory) -> Trajectory:
    origin = traj.origin
    if isinstance(origin, PoleOrigin):
        origin = PoleOrigin(_conj_index(list(plant.poles), plant.poles[origin.index]))
    elif isinstance(origin, BranchOrigin):
        bi = _conj_index([b.s for b in branches], branches[origin.index].s)
        origin = BranchOrigin(bi, wrap_angle(-origin.angle))
    termination = traj.termination
    if isinstance(termination, ReachedBranch):
        termination = ReachedBranch(
            _conj_index([b.s for b in branches], branches[termination.index].s)
        )
    return Trajectory(
        origin=origin,
        points=tuple([LocusPoint(p.sigma, -p.omega, p.Kval) for p in traj.points]),
        termination=termination,
        mirrored=True,
        start_marker=traj.start_marker.conjugate() if traj.start_marker is not None else None,
    )


def _dedup(trajectories: list[Trajectory]) -> list[Trajectory]:
    """Drop a trajectory when another of the same ending reaches the same
    final point; distinct arrivals at one branch point are kept apart
    (their shared endpoint is the snap, not a duplication).

    Endpoints are binned by sigma and omega on a grid of cell
    _DEDUP_CELL > _DEDUP_TOL, so two endpoints within tolerance sit in the
    same or adjacent cells and each trajectory is compared only against the
    9 cells around its own.  The choice of survivors is greedy, in index
    order: for each i still kept, every later j still kept and within
    tolerance drops the shorter of the pair, j on a tie.  Which j are dropped
    for one i does not depend on the order its candidates are visited, so the
    result equals the pairwise scan.
    """
    keys: list[tuple | None] = []
    cells: dict[tuple, list[int]] = {}
    for j, t in enumerate(trajectories):
        if isinstance(t.termination, ReachedBranch):
            keys.append(None)
            continue
        p = t.points[-1]
        key = (type(t.termination), math.floor(p.sigma / _DEDUP_CELL),
               math.floor(p.omega / _DEDUP_CELL))
        keys.append(key)
        cells.setdefault(key, []).append(j)

    drop: set[int] = set()
    for i, key in enumerate(keys):
        if key is None or i in drop:
            continue
        kind, x, y = key
        ti = trajectories[i]
        for dx, dy in _NEAR_CELLS:
            for j in cells.get((kind, x + dx, y + dy), ()):
                if j <= i or j in drop:
                    continue
                tj = trajectories[j]
                a, b = ti.points[-1], tj.points[-1]
                sep = max(abs(a.sigma - b.sigma), abs(a.omega - b.omega), abs(a.Kval - b.Kval))
                if sep <= _DEDUP_TOL:
                    drop.add(j if len(tj.points) <= len(ti.points) else i)
    return [t for i, t in enumerate(trajectories) if i not in drop]


def run(plant: Plant, region: RegionSpec, options: TraceOptions | None = None) -> RootLocusResult:
    """Complete root locus for the plant inside the region.

    With negative_gains set, a second pass runs with the plant gain sign
    flipped (the locus of negative k values) and lands in result.negative.
    The sign-free set-up is built once and serves both passes: the boundary
    breakpoint polynomials of K' and phi' with their roots, and the roots of
    the branch polynomial right of sigma0.  Each pass makes its own boundary
    phase offset, branch phase test and active flags, seeds and traces.
    """
    options = options or TraceOptions()
    bf = boundary_functions(plant, region)
    roots = branch_roots(plant, region.sigma0)
    result = _run_signed(bf, region, options, roots)
    if options.negative_gains:
        neg = _run_signed(bf.flipped_gain(), region, replace(options, negative_gains=False), roots)
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

    seeds = seed_points(plant, region, bf, crossings, options, branches)
    trajectories = [trace(plant, region, seed, branches, options) for seed in seeds]
    claimed: set[int] = set()
    for i, traj in enumerate(trajectories):
        if isinstance(traj.termination, LeftRegion):
            matched = _match_outward(traj.points[-1], crossings.outward, claimed)
            trajectories[i] = replace(traj, termination=LeftRegion(matched))

    trajectories = _dedup(trajectories)

    warnings: list[str] = []
    for traj in trajectories:
        p = traj.points[-1]
        if isinstance(traj.termination, LeftRegion) and traj.termination.matched is None:
            warnings.append(
                f"region exit at omega={p.omega:.6g}, k={math.exp(p.Kval):.6g} "
                "has no matching outward crossing"
            )
        elif isinstance(traj.termination, StepFailure):
            warnings.append(
                f"trajectory stopped at {p.sigma:.6g}{p.omega:+.6g}j, k={math.exp(p.Kval):.6g}: "
                f"{traj.termination.reason}"
            )
    mirrored: list[Trajectory] = []
    for traj in trajectories:
        mirrored.append(traj)
        if any(abs(p.omega) > _AXIS_TOL for p in traj.points):
            mirrored.append(_mirror_trajectory(plant, branches, traj))
    trajectories = mirrored

    arrivals = [0] * len(branches)
    departures = [0] * len(branches)
    for t in trajectories:
        if isinstance(t.termination, ReachedBranch):
            arrivals[t.termination.index] += 1
        if isinstance(t.origin, BranchOrigin):
            departures[t.origin.index] += 1
    for bp, arr, dep in zip(branches, arrivals, departures):
        if bp.active and (arr < bp.multiplicity or dep < bp.multiplicity):
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
