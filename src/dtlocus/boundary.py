"""Everything on the vertical line Re(s) = sigma0.

Roots of 1 + k*G(s)e^(-hs) crossing the line are found by splitting omega >= 0
into pieces where the boundary gain K(omega) = h*sigma0 - ln|G(sigma0+j omega)|
and the continuous phase phi(omega) are monotone, then solving K against the
gain cap and phi against the odd multiples of pi by safeguarded Newton, with
value and slope from one pass over one signed row per root; the phase lines
of a piece that meets many of them are solved together over numpy arrays.
The breakpoints come from the plant's distinct roots r_j with net weights w_j
(plant.root_weights), as branch.branch_roots' zeros of dlog do.  On the
line s - r_j = j(omega - c_j) with c_j = Im r_j + j(sigma0 - Re r_j), so by
conjugate closure, with u = omega^2 and q_j = c_j^2, K' = Im dlog = omega
sum_j -w_j/(u - q_j) and phi' = Re dlog = sum_j -j w_j c_j/(u - q_j) - h:
their zeros in u are the eigenvalues of diagonal-plus-rank-one matrices
over q (_turning_points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    BiProperGainCapViolated,
    DegenerateCrossing,
    InputError,
    PoleOrZeroOnBoundary,
)
from .plant import SCREEN_REL, Plant, log_eval, root_weights, secular_eigvals
from .poly import CLUSTER_REL, _cluster

TOL_BND = 1e-9
TOL_DIR = 1e-9
TOL_BISECT = 1e-10
_ARRAY_LINES = 64  # phase lines from which a monotone piece is solved by _solve_many
_SECULAR_STEPS = 30  # Newton steps of _on_secular
_STEP_REL = 1e-14  # a Newton step this short ends them
_RESIDUAL_REL = 1e-12  # |f| within this of its terms' size is a zero
_SNAP_REL = 1e-12  # a zero within this of max|q_j| is u = 0

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RegionSpec:
    """Right half-plane Re(s) >= sigma0 with gain capped at kmax."""

    sigma0: float
    kmax: float

    def __post_init__(self):
        object.__setattr__(self, "sigma0", float(self.sigma0))
        object.__setattr__(self, "kmax", float(self.kmax))
        if not math.isfinite(self.sigma0):
            raise InputError(f"sigma0 must be finite, got {self.sigma0}")
        if not (math.isfinite(self.kmax) and self.kmax > 0.0):
            raise InputError(f"kmax must be a positive finite real, got {self.kmax}")

    @property
    def lnkmax(self) -> float:
        return math.log(self.kmax)


class BoundaryCrossing(NamedTuple):
    """A locus root sigma0 + j omega on the boundary line at gain e^Kval;
    the CrossingSet tuple that holds it tells which way it crosses."""

    omega: float
    Kval: float

    @property
    def k(self) -> float:
        return math.exp(self.Kval)


@dataclass(frozen=True)
class CrossingSet:
    """Boundary crossings, inward where phi falls and outward where it rises,
    each sorted by gain; the tracer bisects outward for the next exit gain."""

    inward: tuple[BoundaryCrossing, ...]
    outward: tuple[BoundaryCrossing, ...]


@dataclass(frozen=True)
class BoundaryFunctions:
    """Cached boundary geometry for one plant/line pair.

    Each root has one row per function, its sign folded in.  K's rows are
    (ds^2, Im r, +-0.5, +-1.0), ds = sigma0 - Re r, plus for a pole and
    minus for a zero, poles first; kconst = h*sigma0 - ln|alpha| starts
    their sum and is a bi-proper plant's limit of K.  phi's rows are
    (sigma0 - Re z, Im z) for a zero, then (Re p - sigma0, Im p) for a pole.
    Division and atan are odd, so the rows sum to the bits of the signed
    sums over zeros and poles.  phi is the continuous phase extension,
    equal to the principal phase of G(sigma0)e^(-h sigma0) at omega = 0 (an
    exact multiple of pi there) and built from single-argument arctangents
    (safe: no root sits on the line).  K and phi are projections of K_slope
    and phi_slope, which return the value and its omega-derivative from one
    pass, at a float or at each element of an array.

    kprime_roots and phiprime_roots are the breakpoints, the zeros of K'
    and phi' with omega >= 0, ascending (_turning_points).  omega = 0 is
    always the first of K', which is odd; a plant whose roots all cancel
    has none.  Only plant and phi0 depend on the sign of the gain, so
    flipped_gain() serves the negative-gain locus with the same rows and
    breakpoints, found once.
    """

    plant: Plant
    sigma0: float
    kconst: float
    krows: tuple[tuple[float, float, float, float], ...]
    phirows: tuple[tuple[float, float], ...]
    phi0: float
    kprime_roots: tuple[float, ...] = field(repr=False)
    phiprime_roots: tuple[float, ...] = field(repr=False)

    def K(self, omega: float) -> float:
        return self.K_slope(omega)[0]

    def K_slope(self, omega: float | np.ndarray) -> tuple:
        """K and K' at omega, a float or an array, in one pass over the
        roots.  An array's logs come from math.log, so each K equals the
        float's to the bit; numpy's log is not correctly rounded."""
        if isinstance(omega, np.ndarray):
            acc, slope, log = np.full(omega.shape, self.kconst), np.zeros(omega.shape), _logs
        else:
            acc, slope, log = self.kconst, 0.0, math.log
        for ds2, om, half, sign in self.krows:
            d = omega - om
            g = ds2 + d * d
            acc += half * log(g)
            slope += sign * d / g
        return acc, slope

    def phi(self, omega: float) -> float:
        return self.phi_slope(omega)[0]

    def phi_slope(self, omega: float | np.ndarray) -> tuple:
        """phi and phi' at omega, a float or an array, in one pass over the
        roots.  An array's arctangents are numpy's, a float's math.atan's.

        At omega = 0 the phase is rounded to the multiple of pi it equals:
        conjugate closure makes G(sigma0)e^(-h sigma0) real, and the summed
        arctangents would land a few ulp off a phase line that lies there.
        """
        if isinstance(omega, np.ndarray):
            slope, atan = np.full(omega.shape, -self.plant.delay), np.arctan
        else:
            slope, atan = -self.plant.delay, math.atan
        acc = self.phi0 - self.plant.delay * omega
        for ds, om in self.phirows:
            x = omega - om
            acc += atan(x / ds)
            slope += ds / (ds * ds + x * x)
        if isinstance(omega, np.ndarray):
            acc = np.where(omega == 0.0, math.pi * np.round(acc / math.pi), acc)
        elif omega == 0.0:
            acc = math.pi * round(acc / math.pi)
        return acc, slope

    def flipped_gain(self) -> "BoundaryFunctions":
        """The same line for plant.flipped_gain(): only phi0 is recomputed."""
        plant = self.plant.flipped_gain()
        return replace(self, plant=plant, phi0=_phi0(plant, self.sigma0, self.phirows))


def _logs(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _phi0(plant: Plant, s0: float, phirows) -> float:
    """The offset that makes phi(0) the principal phase of G(s0)e^(-h s0).
    The zeros' and the poles' arctangents are two sums: one running sum
    over all the rows rounds differently."""
    at0 = [math.atan(-om / ds) for ds, om in phirows]
    nz = len(plant.zeros)
    return log_eval(plant, complex(s0, 0.0)).phase - (sum(at0[:nz]) + sum(at0[nz:]))


def boundary_functions(plant: Plant, region: RegionSpec) -> BoundaryFunctions:
    s0 = region.sigma0
    for x in plant.zeros + plant.poles:
        if abs(x.real - s0) <= TOL_BND * (1.0 + abs(x)):
            raise PoleOrZeroOnBoundary(
                f"root {x} lies on the line Re(s) = {s0}; shift sigma0"
            )
    kconst = plant.delay * s0 - math.log(abs(plant.alpha))
    if plant.biproper and region.lnkmax >= kconst:
        raise BiProperGainCapViolated(
            f"bi-proper plant: kmax must stay below e^(h*sigma0)/|alpha| = "
            f"{math.exp(kconst):.6g}, got {region.kmax:.6g}"
        )

    phirows = tuple([(s0 - z.real, z.imag) for z in plant.zeros]
                    + [(p.real - s0, p.imag) for p in plant.poles])
    nz = len(plant.zeros)
    krows = tuple([(ds * ds, om, 0.5, 1.0) for ds, om in phirows[nz:]]
                  + [(ds * ds, om, -0.5, -1.0) for ds, om in phirows[:nz]])

    r, w = root_weights(plant)
    c = r.imag + 1j * (s0 - r.real)  # s - r_j = j(omega - c_j) on the line
    with np.errstate(over="ignore", invalid="ignore"):
        q = c * c
    if not (np.isfinite(q).all() and all(math.isfinite(row[0]) for row in krows)):
        raise InputError(f"sigma0 = {s0:g} lies too far from the plant's roots: "
                         "the boundary line's squared distances overflow")
    kprime = [x for x in _turning_points(q, -w, 0.0) if x > 0.0]
    return BoundaryFunctions(
        plant=plant,
        sigma0=s0,
        kconst=kconst,
        krows=krows,
        phirows=phirows,
        phi0=_phi0(plant, s0, phirows),
        kprime_roots=(0.0, *kprime) if r.size else (),
        phiprime_roots=tuple(_turning_points(q, -1j * w * c, plant.delay)),
    )


def _turning_points(q: np.ndarray, a: np.ndarray, h: float) -> list[float]:
    """The omega >= 0 whose u = omega^2 is a real zero of the secular
    function f(u) = sum_j a_j/(u - q_j) - h, ascending.

    With h != 0 the zeros of f are the eigenvalues of diag(q) + (a/h) 1^T.
    With h = 0, f has no constant term; if C_t = sum_j a_j q_j^(t-1) is the
    first of C_1, C_2, ... that is not zero, u^t f(u) = sum_j a_j q_j^t/(u -
    q_j) + C_t, so the eigenvalues of diag(q) + (a q^t/-C_t) 1^T are the
    zeros of f and t more at u = 0, and the t nearest 0 are dropped.  The
    eigenvalues within SCREEN_REL(1 + |z|) of the nonnegative real axis are
    grouped within CLUSTER_REL, and each group's mean is moved onto a real
    zero by _on_secular; a group it cannot settle is dropped.  Zeros within
    CLUSTER_REL(1 + u) of each other are one multiple zero.
    """
    if h:
        eig = secular_eigvals(q, a / h)
    else:
        for t in range(1, len(q) + 1):
            ct = float(np.dot(a, q ** (t - 1)).real)  # real by conjugate closure
            if ct != 0.0:
                break
        else:
            return []  # f vanishes: the gain is flat along the line
        eig = sorted(secular_eigvals(q, a * q ** t / -ct), key=abs)[t:]
    near = [z for z in eig if abs(z.imag) <= SCREEN_REL * (1.0 + abs(z))
            and z.real >= -SCREEN_REL * (1.0 + abs(z))]
    terms = list(zip(q.tolist(), a.tolist()))
    snap = _SNAP_REL * max((abs(x) for x, _ in terms), default=0.0)
    found = sorted(u for u in (_on_secular(terms, h, (sum(g) / len(g)).real, snap)
                               for g in _cluster(near, CLUSTER_REL)) if u is not None)
    zeros: list[float] = []
    for u in found:
        if not (zeros and u - zeros[-1] <= CLUSTER_REL * (1.0 + u)):
            zeros.append(u)
    return [math.sqrt(u) for u in zeros]


def _on_secular(terms, h: float, u: float, snap: float) -> float | None:
    """A real zero u >= 0 of f(u) = sum_j a_j/(u - q_j) - h, terms the
    (q_j, a_j), by real Newton from u (f is real there by conjugate
    closure), or None.  After a step within _STEP_REL(1 + |u|), or
    _SECULAR_STEPS steps, the iterate of least |f| is a zero if |f| there is
    within _RESIDUAL_REL of the size of f's terms: a multiple zero converges
    only to its rounding floor, and an eigenvalue of a complex pair near the
    axis to no zero.  A zero within snap of 0 is 0, a negative one None.
    """
    best, best_res = None, math.inf
    try:
        for _ in range(_SECULAR_STEPS):
            f, d, size = -h, 0j, abs(h)
            for qj, aj in terms:
                x = 1.0 / (u - qj)
                t = aj * x
                f += t
                d -= t * x
                size += abs(t)
            res = abs(f.real) / size
            if res < best_res:
                best, best_res = u, res
            step = f.real / d.real
            u -= step
            if not abs(step) > _STEP_REL * (1.0 + abs(u)):
                break
    except ZeroDivisionError:  # an iterate on a q_j, or a flat f
        pass
    if best is None or best_res > _RESIDUAL_REL or best < -snap:
        return None
    return 0.0 if best <= snap else best


def _solve_monotone(f, target, a, b, va, vb, lo, start, tol):
    """The omega in [a, b] where the monotone f(omega)[0] meets target.

    f returns (value, slope); va and vb are the values at a and b.  The
    search runs on [lo, b], where lo >= a lies at or before the root, by
    Newton from the tangent of start = (omega, value, slope).  A step that
    leaves the bracket, or does not halve the step before it, bisects
    instead; a step within tol that lands on a bracket end is taken (on the
    root to the last bit the step rounds to nothing).  Returns the root and
    the last evaluation, which starts the next solve on the same piece.
    """
    fa, fb = va - target, vb - target
    if fa == 0.0:
        return a, start
    if fb == 0.0:
        return b, start
    if (fa < 0.0) == (fb < 0.0):
        # rounding pushed an endpoint graze off the bracket; nearest end wins
        return (a if abs(fa) <= abs(fb) else b), start
    up = fa < 0.0
    hi = b
    w, v, d = start
    x = w + (target - v) / d if d != 0.0 else lo
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    step_old = hi - lo
    while True:
        v, d = f(x)
        g = v - target
        if g == 0.0:
            return x, (x, v, d)
        if (g < 0.0) == up:
            lo = x
        else:
            hi = x
        step = g / d if d != 0.0 else math.inf
        halves = abs(step) <= 0.5 * abs(step_old)
        if halves and abs(step) <= tol and lo <= x - step <= hi:
            return x - step, (x, v, d)
        if not (halves and lo < x - step < hi):
            if hi - lo <= tol:
                return 0.5 * (lo + hi), (x, v, d)
            step = x - 0.5 * (lo + hi)
        x, step_old = x - step, step


def _solve_many(f, targets, a, b, va, vb, tol):
    """_solve_monotone for an array of targets at once, all on the monotone
    bracket [a, b] whose end values are va and vb.

    f maps an array of omegas to (value, slope) arrays.  Every target starts
    from the chord through the bracket's endpoints and takes _solve_monotone's
    steps: Newton while a step stays in the bracket and halves the step
    before it, bisection otherwise, until a step or the bracket is within
    tol.  Returns the roots and the slope each solve last evaluated (nan for
    a root at an endpoint, where nothing is evaluated).
    """
    roots = np.full(targets.shape, np.nan)
    slopes = np.full(targets.shape, np.nan)
    fa, fb = va - targets, vb - targets
    # an endpoint on the target, or a graze rounding pushed off the bracket
    graze = (fa < 0.0) == (fb < 0.0)
    at_a = (fa == 0.0) | (fb != 0.0) & graze & (abs(fa) <= abs(fb))
    at_b = ~at_a & ((fb == 0.0) | graze)
    roots[at_a], roots[at_b] = a, b
    idx = np.flatnonzero(~(at_a | at_b))
    T, up = targets[idx], fa[idx] < 0.0
    lo, hi = np.full(idx.shape, a), np.full(idx.shape, b)
    x = a + (T - va) / (vb - va) * (b - a)
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    step_old = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope bisects
        while idx.size:
            v, d = f(x)
            g = v - T
            below = (g < 0.0) == up
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            step = g / d
            to = x - step
            halves = abs(step) <= 0.5 * abs(step_old)
            settled = halves & (abs(step) <= tol) & (lo <= to) & (to <= hi)
            newton = settled | halves & (lo < to) & (to < hi)
            mid = 0.5 * (lo + hi)
            step = np.where(newton, step, x - mid)
            exact = g == 0.0
            done = exact | settled | ~newton & (hi - lo <= tol)
            x = np.where(exact, x, np.where(newton, to, mid))
            roots[idx[done]], slopes[idx[done]] = x[done], d[done]
            live = ~done
            idx, lo, hi, T, up = idx[live], lo[live], hi[live], T[live], up[live]
            x, step_old = x[live], step[live]
    return roots, slopes


def _omega_cap(bf: BoundaryFunctions, region: RegionSpec) -> float:
    """An omega beyond which K(omega) stays above the gain cap.

    Past the largest K' root, K is monotone; strictly proper plants grow
    without bound, bi-proper ones flatten toward their (validated) limit, so
    doubling from beyond the last breakpoint terminates either way.
    """
    plant = bf.plant
    mags = [abs(x) for x in plant.zeros + plant.poles] + list(bf.kprime_roots) + [1.0]
    cap = 1.0 + 2.0 * max(mags)
    if plant.biproper:
        target = region.lnkmax + min(1.0, 0.5 * (bf.kconst - region.lnkmax))
    else:
        target = region.lnkmax + 1.0
    while bf.K(cap) <= target:
        cap *= 2.0
        if cap > 1e12:
            raise InputError("gain cap region unbounded in omega; kmax too large")
    return cap


def magnitude_intervals(bf: BoundaryFunctions, region: RegionSpec) -> list[tuple[float, float]]:
    """The omega >= 0 set where the boundary gain stays within the cap.

    Returned as disjoint closed intervals, ascending.  Between consecutive
    roots of K', K is monotone and meets the cap at most once.
    """
    L = region.lnkmax
    cap = _omega_cap(bf, region)
    cuts = [0.0] + [r for r in bf.kprime_roots if 0.0 < r < cap] + [cap]

    tol = TOL_BISECT * (1.0 + cap)
    kept: list[tuple[float, float]] = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= tol:
            continue
        (Ka, da), (Kb, _) = bf.K_slope(a), bf.K_slope(b)
        if Ka <= L and Kb <= L:
            kept.append((a, b))
        elif Ka > L and Kb > L:
            continue
        else:
            m, _ = _solve_monotone(bf.K_slope, L, a, b, Ka, Kb, a, (a, Ka, da), tol)
            kept.append((a, m) if Ka <= L else (m, b))

    merged: list[list[float]] = []
    for a, b in kept:
        if merged and a - merged[-1][1] <= tol:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def boundary_crossings(bf: BoundaryFunctions, region: RegionSpec) -> CrossingSet:
    """All locus roots on the boundary line with gain within the cap.

    Within each interval of admissible gain, the continuous phase is split
    into monotone pieces at the roots of phi'.  Each piece meets a given
    odd-multiple-of-pi phase line at most once, so the line count comes from
    the endpoint phases.  On a piece with fewer than _ARRAY_LINES lines the
    hits are solved in order along the piece, each by safeguarded Newton on
    phi from the tangent at the previous one; the lines of a larger piece
    are solved together over arrays (_solve_many), and their gains come
    from one array pass.  A hit is inward where the phase slope its solve
    last evaluated is negative, else outward; a hit on a piece endpoint
    takes the cut's own slope.
    """
    intervals = magnitude_intervals(bf, region)
    lnkmax = region.lnkmax

    hits: list[tuple[float, float, float]] = []  # (omega, phase slope there, K there)
    for lo, hi in intervals:
        tol = TOL_BISECT * (1.0 + hi)
        cuts = [lo] + [r for r in bf.phiprime_roots if lo < r < hi] + [hi]
        ends = [bf.phi_slope(w) for w in cuts]
        for a, b, (pa, da), (pb, db) in zip(cuts, cuts[1:], ends, ends[1:]):
            if b - a <= 0.0:
                continue
            pmin, pmax = (pa, pb) if pa <= pb else (pb, pa)
            lines = range(
                math.ceil(pmin / _TWO_PI - 0.5), math.floor(pmax / _TWO_PI - 0.5) + 1
            )
            if len(lines) >= _ARRAY_LINES:
                targets = (2.0 * np.arange(lines.start, lines.stop) + 1.0) * math.pi
                w, slope = _solve_many(bf.phi_slope, targets, a, b, pa, pb, tol)
                slope = np.where(w == a, da, np.where(w == b, db, slope))
                hits += zip(w.tolist(), slope.tolist(), bf.K_slope(w)[0].tolist())
                continue
            last, left = (a, pa, da), a
            for l in (lines if pa <= pb else reversed(lines)):
                target = (2.0 * l + 1.0) * math.pi
                left, last = _solve_monotone(bf.phi_slope, target, a, b, pa, pb, left, last, tol)
                slope = da if left == a else db if left == b else last[2]
                hits.append((left, slope, bf.K(left)))
    hits.sort(key=itemgetter(0))
    inward: list[BoundaryCrossing] = []
    outward: list[BoundaryCrossing] = []
    prev = None
    for w, slope, K in hits:
        if prev is not None and w - prev <= 2.0 * TOL_BISECT * (1.0 + w):
            continue
        prev = w
        if abs(slope) <= TOL_DIR:
            raise DegenerateCrossing(
                f"phase slope {slope:.3e} at boundary root omega={w:.12g}; "
                "crossing direction is ill-posed"
            )
        # fields by position: a keyword call costs a third more
        (inward if slope < 0.0 else outward).append(BoundaryCrossing(w, min(K, lnkmax)))

    inward.sort(key=attrgetter("Kval"))
    outward.sort(key=attrgetter("Kval"))
    return CrossingSet(inward=tuple(inward), outward=tuple(outward))
