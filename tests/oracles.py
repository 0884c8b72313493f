"""Independent reference computations for the test suite.

The oracles evaluate the plant by direct complex arithmetic (products of
factors, cmath.exp), deliberately NOT via the library's log-domain code, so
agreement between the two is meaningful.  The boundary slopes Kprime and
phiprime read the plant's log kernel, which the line's signed rows do not
use, and the former implementations kept here read what they read before.
poly_mul, poly_add and poly_scale are the polynomial arithmetic the
library no longer has; rows_array, trajectory_rows and same_result
stand in for Trajectory's former sequence constructor, rows method and
value equality.  reference_branch_probes and reference_axis_bounds are the
tracer's former per-trajectory rebuilds of what its pass record holds.
"""

import cmath
import json
import math

import numpy as np


def geval(plant, s):
    """G(s) by direct factor products (no delay term)."""
    v = complex(plant.alpha)
    for z in plant.zeros:
        v *= s - z
    for p in plant.poles:
        v /= s - p
    return v


def geval_delayed(plant, s):
    """G(s)e^(-h*s) by direct evaluation; overflows for large |Re s|."""
    return geval(plant, s) * cmath.exp(-plant.delay * s)


def fd(f, x, h=1e-6):
    """Central finite difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def Kprime(bf, omega):
    """K' on bf's boundary line at omega, as Im dlog from the plant's log
    kernel: a reference that does not read the line's signed rows."""
    from dtlocus.plant import dlog_ratio

    return dlog_ratio(bf.plant, complex(bf.sigma0, omega)).imag


def phiprime(bf, omega):
    """phi' on bf's boundary line at omega, as Re dlog (see Kprime)."""
    from dtlocus.plant import dlog_ratio

    return dlog_ratio(bf.plant, complex(bf.sigma0, omega)).real


def pass_of(plant, region):
    """The pass record tracer.run builds for the plant's gain pass with the
    default options, from the branch points and crossings it finds, and the
    pass's crossings."""
    from dtlocus.boundary import boundary_crossings, boundary_functions
    from dtlocus.branch import branch_points
    from dtlocus.tracer import TraceOptions, _make_pass

    crossings = boundary_crossings(boundary_functions(plant, region), region)
    p = _make_pass(plant, region, tuple(branch_points(plant, region)), crossings.outward,
                   TraceOptions().tol_corr)
    return p, crossings


def seeds_of(plant, region):
    """tracer.seed_points with the pass record and inward crossings that
    tracer.run hands it, and the default options."""
    from dtlocus.tracer import seed_points

    p, crossings = pass_of(plant, region)
    return seed_points(p, crossings.inward)


def reference_branch_probes(plant, branches, Kval):
    """(probe gain, index, |a|) of each active branch point above gain Kval,
    sorted by probe gain: the list the tracer rebuilt for every trajectory
    from its start gain before its pass record held the probes."""
    from dtlocus.branch import power_sum

    roots = plant.zeros + plant.poles
    probes = []
    for bi, bp in enumerate(branches):
        if not bp.active or bp.Kval <= Kval:
            continue
        n = bp.multiplicity
        abs_a = abs(power_sum(plant, bp))
        others = (*roots, *(b.s for j, b in enumerate(branches) if j != bi))
        R = 0.25 * min((abs(bp.s - x) for x in others), default=math.inf)
        probes.append((bp.Kval - abs_a * (0.5 * R) ** n / n, bi, abs_a))
    probes.sort()
    return probes


def reference_axis_bounds(plant, sigma, axis_tol=1e-9):
    """(lo, hi), the nearest real plant roots strictly left and right of
    sigma (infinite where there is none), by the scan over every root the
    tracer made per trajectory before its pass record held them sorted."""
    axis = [r.real for r in plant.zeros + plant.poles if abs(r.imag) <= axis_tol * (1.0 + abs(r))]
    lo = max((x for x in axis if x < sigma), default=-math.inf)
    hi = min((x for x in axis if x > sigma), default=math.inf)
    return lo, hi


def newton_root(plant, k, s0, tol=1e-13, maxit=60):
    """Polish a root of 1 + k*G(s)e^(-hs) = 0 by direct complex Newton.

    Diverging iterates are abandoned (the stale point is returned); callers
    must check the residual before trusting the result.
    """
    s = complex(s0)
    for _ in range(maxit):
        if abs(s) > 1e6 or abs(plant.delay * s.real) > 600.0:
            break
        g = geval_delayed(plant, s)
        f = 1.0 + k * g
        ratio = -plant.delay
        for z in plant.zeros:
            ratio += 1.0 / (s - z)
        for p in plant.poles:
            ratio -= 1.0 / (s - p)
        fp = k * g * ratio
        if fp == 0:
            break
        step = f / fp
        s = s - step
        if abs(step) <= tol * (1.0 + abs(s)):
            break
    return s


def locus_residual(plant, s, k):
    """|1 + k G(s)e^(-hs)| via direct evaluation; inf when it overflows."""
    try:
        return abs(1.0 + k * geval_delayed(plant, s))
    except OverflowError:
        return math.inf


def _phase_cont(plant, sigma0, omega, anchor):
    """Continuous phase of G(sigma0+j w)e^(-h s) near a known anchor value."""
    raw = cmath.phase(geval(plant, sigma0 + 1j * omega)) - plant.delay * omega
    return raw + 2.0 * math.pi * round((anchor - raw) / (2.0 * math.pi))


def grid_crossings(plant, sigma0, kmax, step=1e-3, pad=0.0):
    """Boundary crossings by dense sampling plus anchored bisection.

    Returns a sorted list of (omega, k, 'in'|'out').  `pad` loosens the gain
    cap acceptance (useful when comparing against an implementation that
    resolves the cap boundary more sharply than the grid does).
    """
    h = plant.delay
    lnkmax = math.log(kmax)

    def K(w):
        return h * sigma0 - math.log(abs(geval(plant, sigma0 + 1j * w)))

    wcap = 1.0 + 2.0 * max([abs(p) for p in plant.poles] + [abs(z) for z in plant.zeros] + [1.0])
    if len(plant.zeros) < len(plant.poles):
        while K(wcap) <= lnkmax + 1.0 and wcap < 1e7:
            wcap *= 2.0
    else:
        wcap *= 64.0  # bi-proper: magnitude flattens; generous fixed cap

    grid = np.arange(0.0, wcap + step, step)
    raw = np.array([cmath.phase(geval(plant, sigma0 + 1j * w)) for w in grid])
    ph = np.unwrap(raw) - h * grid
    # conjugate closure makes G(sigma0) real: the phase at omega = 0 is exactly
    # 0 or pi by its sign, wherever rounding put cmath.phase
    on_line = geval(plant, sigma0).real < 0.0
    ph += (math.pi if on_line else 0.0) - ph[0]
    ph[0] = math.pi if on_line else 0.0

    found = []
    two_pi = 2.0 * math.pi
    lines_a = np.floor((ph - math.pi) / two_pi)
    for i in range(len(grid) - 1):
        la, lb = lines_a[i], lines_a[i + 1]
        if la == lb:
            continue
        lo, hi = (la, lb) if la < lb else (lb, la)
        for l in np.arange(lo + 1, hi + 1):
            target = (2.0 * l + 1.0) * math.pi
            wa, wb, pa = grid[i], grid[i + 1], ph[i]
            fa = pa - target
            for _ in range(200):
                wm = 0.5 * (wa + wb)
                pm = _phase_cont(plant, sigma0, wm, pa)
                fm = pm - target
                if fa * fm <= 0.0:
                    wb = wm
                else:
                    wa, pa, fa = wm, pm, fm
                if wb - wa <= 1e-13 * (1.0 + wb):
                    break
            w = 0.5 * (wa + wb)
            if K(w) <= lnkmax + pad:
                d = 1e-7
                anchor = _phase_cont(plant, sigma0, w, pa)
                slope = (
                    _phase_cont(plant, sigma0, w + d, anchor)
                    - _phase_cont(plant, sigma0, max(w - d, 0.0), anchor)
                ) / (d + min(d, w))
                found.append((w, math.exp(K(w)), "in" if slope < 0 else "out"))

    # exact hit at omega=0 (phase already on an odd line there)
    if on_line and K(0.0) <= lnkmax + pad:
        d = 1e-7
        slope = (_phase_cont(plant, sigma0, d, ph[0]) - ph[0]) / d
        found.append((0.0, math.exp(K(0.0)), "in" if slope < 0 else "out"))

    found.sort()
    dedup = []
    for w, k, di in found:
        if dedup and abs(w - dedup[-1][0]) <= 1e-9 * (1.0 + w):
            continue
        dedup.append((w, k, di))
    return dedup


def _wrap(x):
    w = math.fmod(x, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


def random_plant(rng, plant_cls):
    """A random strictly proper plant with well-separated clean structure."""
    n = rng.randint(2, 6)
    m = rng.randint(0, min(3, n - 1) + 1)
    poles = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.rand() < 0.5:
            re, im = rng.uniform(-3.0, 0.5), rng.uniform(0.3, 3.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(rng.uniform(-3.0, 0.5), 0.0))
    zeros = []
    while len(zeros) < m:
        if m - len(zeros) >= 2 and rng.rand() < 0.5:
            re, im = rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0)
            zeros += [complex(re, im), complex(re, -im)]
        else:
            zeros.append(complex(rng.uniform(-3.0, 3.0), 0.0))
    alpha = rng.uniform(0.2, 5.0) * (1 if rng.rand() < 0.8 else -1)
    h = rng.uniform(0.1, 2.0)
    return plant_cls(alpha, h, tuple(zeros), tuple(poles))


def poly_mul(p, *factors):
    """The product of RealPolynomials, left to right, each coefficient summed
    in the i-major order of the library's former product, so every test
    polynomial keeps its coefficients to the bit."""
    from dtlocus.poly import RealPolynomial

    for q in factors:
        out = [0.0] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
        p = RealPolynomial(tuple(out))
    return p


def poly_add(p, q, sign=1.0):
    """p + q, or p - q with sign -1.0, coefficient by coefficient."""
    from dtlocus.poly import RealPolynomial

    n = max(len(p.coeffs), len(q.coeffs))
    a, b = (list(x.coeffs) + [0.0] * (n - len(x.coeffs)) for x in (p, q))
    return RealPolynomial(tuple(x + sign * y for x, y in zip(a, b)))


def poly_scale(c, p):
    """c*p, coefficient by coefficient."""
    from dtlocus.poly import RealPolynomial

    return RealPolynomial(tuple(float(c) * x for x in p.coeffs))


def poly_from_roots(roots):
    """Monic real polynomial with the given roots.  A complex root brings its
    conjugate, and one with Im < 0 is skipped, so a conjugate-closed list and
    its upper half give the same polynomial."""
    from dtlocus.poly import RealPolynomial

    p = RealPolynomial((1.0,))
    for r in roots:
        if r.imag == 0.0:
            p = poly_mul(p, RealPolynomial((-r.real, 1.0)))
        elif r.imag > 0.0:
            p = poly_mul(p, RealPolynomial((abs(r) ** 2, -2.0 * r.real, 1.0)))
    return p


def clean_region(plant, rng):
    """Pick (sigma0, kmax) placing the boundary away from plant structure."""
    res = [p.real for p in plant.poles] + [z.real for z in plant.zeros]
    for _ in range(50):
        sigma0 = rng.uniform(min(res) - 1.0, max(res) + 0.5)
        if min(abs(sigma0 - r) for r in res) >= 0.05:
            return sigma0, math.exp(rng.uniform(-1.0, 3.0))
    return min(res) - 1.0, math.e


def branch_fan_angles(plant, s_star, k_star):
    """Angles about s_star of the closed-loop roots just past a branch gain.

    At k = k_star(1 + 1e-6) the multiple root has split; direct complex
    Newton from 90 points on a circle of radius r = 1e-3(1 + |s_star|) finds
    the pieces, and the distinct converged roots within 5r give the
    departure directions.
    """
    k = k_star * (1.0 + 1e-6)
    r = 1e-3 * (1.0 + abs(s_star))
    found = []
    for i in range(90):
        s = newton_root(plant, k, s_star + r * cmath.exp(2j * math.pi * i / 90))
        if locus_residual(plant, s, k) > 1e-9 or abs(s - s_star) > 5.0 * r:
            continue
        if all(abs(s - q) > 1e-3 * r for q in found):
            found.append(s)
    return [cmath.phase(s - s_star) for s in found]


def dlog_zero_count(plant, sigma0, max_rounds=80):
    """Zeros of dlog = G'/G - h with Re s > sigma0, with multiplicity, by
    the argument principle.

    Over the distinct plant roots r with net weight w = (zeros at r) -
    (poles at r) != 0, dlog = sum w/(s - r) - h.  At a zero h <= sum|w|/|s - r|
    for the nearest r, so every zero lies within B = sum|w|/h of a root, and
    inside [sigma0, R] x [-Omega, Omega] with R and Omega one past that
    bound.  The count is the winding of dlog around that rectangle plus the
    roots inside it, each a simple pole of dlog.  The edges start at 64
    samples each, and a step is bisected until dlog provably turns by less
    than pi/4 along it: |dlog'| <= L = sum|w|/d^2, with d the distance from
    the step to r, so a step no longer than sin(pi/8)|dlog(a)|/L from its
    start a keeps dlog in a disc about dlog(a) that 0 lies outside, and the
    phase step is under pi/4.  A contour through a zero or a pole never gets
    there and raises ValueError.
    """
    weight = {}
    for z in plant.zeros:
        weight[z] = weight.get(z, 0) + 1
    for p in plant.poles:
        weight[p] = weight.get(p, 0) - 1
    table = [(r, w) for r, w in weight.items() if w]
    if not table:
        return 0
    r = np.array([x for x, _ in table], dtype=complex)
    w = np.array([x for _, x in table], dtype=float)
    reach = np.abs(w).sum() / plant.delay + 1.0
    right = max(r.real.max() + reach, sigma0 + 1.0)
    top = np.abs(r.imag).max() + reach
    corners = [complex(sigma0, -top), complex(right, -top),
               complex(right, top), complex(sigma0, top)]
    t = np.linspace(0.0, 1.0, 65)[:-1]
    path = np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])]
                          + [corners[:1]])

    def dlog(s):
        return (w / (s[:, None] - r)).sum(axis=1) - plant.delay

    def too_long(a, b, fa):
        """Steps a -> b whose length could let dlog turn by pi/4 or more."""
        ab = (b - a)[:, None]
        along = np.clip(((r - a[:, None]) * ab.conjugate()).real / np.abs(ab) ** 2, 0.0, 1.0)
        dist = np.abs(a[:, None] + along * ab - r)
        lip = (np.abs(w) / dist ** 2).sum(axis=1)
        return ~(lip * np.abs(b - a) < math.sin(math.pi / 8) * np.abs(fa))

    with np.errstate(divide="ignore", invalid="ignore"):
        f = dlog(path)
        for _ in range(max_rounds):
            wide = too_long(path[:-1], path[1:], f[:-1])
            if not wide.any():
                break
            at = np.nonzero(wide)[0] + 1
            mid = 0.5 * (path[at - 1] + path[at])
            path, f = np.insert(path, at, mid), np.insert(f, at, dlog(mid))
        else:
            raise ValueError(f"the contour at sigma0 = {sigma0} runs through a zero or "
                             "a pole of dlog")
    step = np.angle(f[1:] / f[:-1])
    assert np.abs(step).max() < math.pi / 4
    winding = step.sum() / (2.0 * math.pi)
    assert abs(winding - round(winding)) < 1e-6, winding
    return round(winding) + int((r.real > sigma0).sum())


def exact_dlog(plant, s):
    """|dlog(s)| for dlog = G'/G - h, and dlog's Newton step at s, as
    floats, from exact rational arithmetic over the double inputs: s and
    the roots are exact binary fractions, so only the two results round."""
    from fractions import Fraction

    def inv(re, im):
        n = re * re + im * im
        return re / n, -im / n

    sr, si = Fraction(s.real), Fraction(s.imag)
    f, fp = [Fraction(-plant.delay), Fraction(0)], [Fraction(0), Fraction(0)]
    for roots, sign in ((plant.zeros, 1), (plant.poles, -1)):
        for r in roots:
            dr, di = inv(sr - Fraction(r.real), si - Fraction(r.imag))
            f[0] += sign * dr
            f[1] += sign * di
            fp[0] -= sign * (dr * dr - di * di)
            fp[1] -= sign * 2 * dr * di
    qr, qi = inv(*fp)
    step = complex(float(f[0] * qr - f[1] * qi), float(f[0] * qi + f[1] * qr))
    return math.hypot(float(f[0]), float(f[1])), step


def reference_dlog_zero(plant, s, steps=4):
    """The zero of dlog that exact Newton reaches from s, to the nearest
    double: each step is exact_dlog's, rounded to a double; from a start
    near a simple zero the steps shrink quadratically to far below an ulp."""
    for _ in range(steps):
        s -= exact_dlog(plant, s)[1]
    return s


def rows_array(points):
    """A trajectory's array from a sequence of (sigma, omega, K) points:
    read-only float64 of shape (n, 3), as the tracer hands them over."""
    array = np.array(points, dtype=float).reshape(-1, 3)
    array.flags.writeable = False
    return array


def trajectory_rows(t, sign=1.0):
    """(sigma, omega, k) per point of trajectory t, led by a (sigma, omega,
    0.0) row for its start marker; sign is -1.0 for the negative-gain pass."""
    rows = [(sigma, omega, sign * math.exp(K)) for sigma, omega, K in t.array.tolist()]
    if t.start_marker is not None:
        rows.insert(0, (t.start_marker.real, t.start_marker.imag, 0.0))
    return rows


def same_result(a, b):
    """Whether two RootLocusResults (or None) are equal field by field,
    their trajectories too, each array by np.array_equal: a trajectory is a
    named tuple of an array, which has no truth value for ==."""
    import dataclasses

    if a is None or b is None:
        return a is b

    def strip(r):
        return dataclasses.replace(r, trajectories=(), negative=None)

    return (strip(a) == strip(b) and len(a.trajectories) == len(b.trajectories)
            and all(s._replace(array=None) == t._replace(array=None)
                    and np.array_equal(s.array, t.array)
                    for s, t in zip(a.trajectories, b.trajectories))
            and same_result(a.negative, b.negative))


def pairwise_dedup(trajectories):
    """Reference trajectory dedup by comparing every pair, O(T^2).

    For i ascending, then j > i ascending: two trajectories of the same
    termination type whose final points are within 1e-8 in sigma, omega and
    K (Chebyshev distance) are duplicates, and the one with fewer points is
    dropped (j on a tie).  Trajectories already dropped are skipped as i and
    as j; one ending at a branch point is never dropped.
    """
    from dtlocus.tracer import ReachedBranch

    drop = set()
    for i in range(len(trajectories)):
        if i in drop:
            continue
        ti = trajectories[i]
        if isinstance(ti.termination, ReachedBranch):
            continue
        for j in range(i + 1, len(trajectories)):
            if j in drop:
                continue
            tj = trajectories[j]
            if type(ti.termination) is not type(tj.termination):
                continue
            a, b = ti.points[-1], tj.points[-1]
            sep = max(abs(a.sigma - b.sigma), abs(a.omega - b.omega), abs(a.Kval - b.Kval))
            if sep <= 1e-8:
                drop.add(j if len(tj.points) <= len(ti.points) else i)
    return [t for i, t in enumerate(trajectories) if i not in drop]


# The references below are the library's former evaluation loops, 3x3 solve
# and corrector.  The unrolled solve and the corrector are checked for exact
# agreement with them; the product kernel is checked to be as accurate as the
# former loops against an extended-precision evaluation of the same sums.


def reference_log_eval(plant, s):
    """(lnmag, principal phase) of G(s)e^(-hs) by the former log_eval loops.

    The regularity check runs over every root first, then one loop per root
    set accumulates the magnitude and the phase.
    """
    from dtlocus.errors import SingularPointError
    from dtlocus.plant import TOL_SING, wrap_angle

    s = complex(s)
    tol = TOL_SING * (1.0 + abs(s))
    for x in plant.zeros + plant.poles:
        if abs(s - x) <= tol:
            raise SingularPointError(f"evaluation at {s} hits the root {x}")
    lnmag = math.log(abs(plant.alpha))
    phase = 0.0 if plant.alpha > 0 else math.pi
    for z in plant.zeros:
        d = s - z
        lnmag += 0.5 * math.log(d.real * d.real + d.imag * d.imag)
        phase += math.atan2(d.imag, d.real)
    for p in plant.poles:
        d = s - p
        lnmag -= 0.5 * math.log(d.real * d.real + d.imag * d.imag)
        phase -= math.atan2(d.imag, d.real)
    lnmag -= plant.delay * s.real
    phase -= plant.delay * s.imag
    return lnmag, wrap_angle(phase)


def reference_partials(plant, sigma, omega):
    """(dM/dsigma, dM/domega) by the former separate loop (no regularity check)."""
    msig = -plant.delay
    mom = 0.0
    for z in plant.zeros:
        ds, dw = sigma - z.real, omega - z.imag
        g = ds * ds + dw * dw
        msig += ds / g
        mom += dw / g
    for q in plant.poles:
        ds, dw = sigma - q.real, omega - q.imag
        g = ds * ds + dw * dw
        msig -= ds / g
        mom -= dw / g
    return msig, mom


def reference_frozen_newton(plant, s, Kval, kernel, tol=1e-6, max_iter=20, real=False):
    """Plain Newton on ln(k G(s)e^(-hs)) = j pi at the frozen gain e^Kval: a
    kernel pass and one complex step per iteration, every step length kept.
    kernel(plant, s) returns (lnmag, phase, dlog), so the library's kernel
    pins the corrector logic to the bit whatever the kernel's own rounding.
    A kernel raise, a zero slope, or a gain or iterate that is not finite
    fails the solve: the start point, not converged, kappa inf, dlog 0j and
    the steps taken."""
    from dtlocus.continuation import CorrectorOutcome, LocusPoint
    from dtlocus.errors import SingularPointError
    from dtlocus.plant import wrap_angle

    z = complex(s)
    norms = []

    def failed():
        return CorrectorOutcome(LocusPoint(s.real, s.imag, Kval), len(norms), math.inf, False)

    while True:
        if not (math.isfinite(z.real) and math.isfinite(z.imag) and math.isfinite(Kval)):
            return failed()
        try:
            lnmag, phase, dlog = kernel(plant, z)
        except SingularPointError:
            return failed()
        r = complex(lnmag + Kval, wrap_angle(phase - math.pi))
        if abs(r.real) <= tol and abs(r.imag) <= tol:
            break
        if len(norms) >= max_iter:
            break
        if (dlog.real if real else dlog) == 0.0:
            return failed()
        step = complex(-r.real / dlog.real, 0.0) if real else -(r / dlog)
        z = complex(z.real + step.real, z.imag + step.imag)
        norms.append(math.hypot(step.real, step.imag))
    converged = abs(r.real) <= tol and abs(r.imag) <= tol
    kappa = norms[1] / norms[0] if len(norms) >= 2 and norms[0] > 0.0 else 0.0
    return CorrectorOutcome(LocusPoint(z.real, z.imag, Kval), len(norms), kappa, converged,
                            dlog, norms[0] if norms else 0.0)


def extended_log_eval(plant, sigma, omega):
    """(lnmag, phase, dM/dsigma, dM/domega) of G(s)e^(-hs) and the magnitude
    sum each is bounded by, all in numpy longdouble.

    The values are the former loops' sums (half-log squared distances,
    atan2 angles, ds/g and dw/g over the roots), formed from the same double
    inputs in extended precision, so they serve as the exact values for
    double-precision kernels.  A double kernel's error in a value is then a
    small multiple of eps times its magnitude sum: per term, |term| and the
    running sum after it (what adding the term in doubles rounds), and 1
    more for the magnitude and the phase, since every factor carries a
    relative rounding error, an absolute one in its log and its angle.  The
    gain's ln|alpha| and angle and the delay terms count as terms.  The
    phase is not wrapped.
    """
    ld = np.longdouble
    sig, om, delay = ld(sigma), ld(omega), ld(plant.delay)
    terms = [[np.log(ld(abs(plant.alpha)))], [ld(0.0) if plant.alpha > 0 else 4 * np.arctan(ld(1))],
             [-delay], [ld(0.0)]]
    for roots, sign in ((plant.zeros, 1), (plant.poles, -1)):
        for r in roots:
            ds, dw = sig - ld(r.real), om - ld(r.imag)
            g = ds * ds + dw * dw
            for acc, term in zip(terms, (np.log(g) / 2, np.arctan2(dw, ds), ds / g, dw / g)):
                acc.append(sign * term)
    terms[0].append(-delay * sig)
    terms[1].append(-delay * om)
    values, scales = [], []
    for i, acc in enumerate(terms):
        total = scale = ld(0.0)
        for term in acc:
            total += term
            scale += abs(term) + abs(total) + (1 if i < 2 else 0)
        values.append(total)
        scales.append(scale)
    return tuple(values), tuple(scales)


def reference_breakpoint_polys(plant, sigma0):
    """(kprime_poly, phiprime_poly), K' and phi' on the line Re s = sigma0
    cleared of their denominators, by the cofactor assembly, O(n^3).

    Each root set's sum over roots multiplies a per-root factor into the
    product of every other root's squared distance to sigma0 + j w, built
    afresh per root.  A bi-proper plant's K' is truncated to degree 4n-3.
    """
    from dtlocus.poly import RealPolynomial

    def gamma(dsig, om):
        return RealPolynomial((dsig * dsig + om * om, -2.0 * om, 1.0))

    def prod(polys):
        return poly_mul(RealPolynomial((1.0,)), *polys)

    dsz = tuple(sigma0 - z.real for z in plant.zeros)
    omz = tuple(z.imag for z in plant.zeros)
    dsp = tuple(sigma0 - p.real for p in plant.poles)
    omp = tuple(p.imag for p in plant.poles)

    gz = [gamma(ds, om) for ds, om in zip(dsz, omz)]
    gp = [gamma(ds, om) for ds, om in zip(dsp, omp)]
    Gz = prod(gz)
    Gp = prod(gp)
    Gz_r = [prod(gz[:r] + gz[r + 1 :]) for r in range(len(gz))]
    Gp_i = [prod(gp[:i] + gp[i + 1 :]) for i in range(len(gp))]

    zero = RealPolynomial(())
    sum_p = zero
    for i, cof in enumerate(Gp_i):
        sum_p = poly_add(sum_p, poly_mul(RealPolynomial((-omp[i], 1.0)), cof))
    sum_z = zero
    for r, cof in enumerate(Gz_r):
        sum_z = poly_add(sum_z, poly_mul(RealPolynomial((-omz[r], 1.0)), cof))
    kprime_poly = poly_add(poly_mul(Gz, sum_p), poly_mul(Gp, sum_z), -1.0)
    if plant.biproper and plant.poles:
        kprime_poly = RealPolynomial(kprime_poly.coeffs[: 4 * len(plant.poles) - 2])

    ssum_z = zero
    for r, cof in enumerate(Gz_r):
        ssum_z = poly_add(ssum_z, poly_scale(dsz[r], cof))
    ssum_p = zero
    for i, cof in enumerate(Gp_i):
        ssum_p = poly_add(ssum_p, poly_scale(dsp[i], cof))
    phiprime_poly = poly_add(poly_add(poly_mul(Gp, ssum_z), poly_mul(Gz, ssum_p), -1.0),
                             poly_scale(plant.delay, poly_mul(Gz, Gp)), -1.0)
    return kprime_poly, phiprime_poly


class FormerLine:
    """K and phi on the line Re s = sigma0 as BoundaryFunctions evaluated
    them from four parallel tuples: dsz/dsp the offsets sigma0 - Re(root)
    of the zeros and the poles, omz/omp their imaginary parts, with the
    zeros and the poles walked in two loops each.  tests/test_boundary.py
    requires the signed rows that replaced them to give the same bits."""

    def __init__(self, plant, sigma0):
        self.plant, self.sigma0 = plant, sigma0
        self.dsz = tuple(sigma0 - z.real for z in plant.zeros)
        self.omz = tuple(z.imag for z in plant.zeros)
        self.dsp = tuple(sigma0 - p.real for p in plant.poles)
        self.omp = tuple(p.imag for p in plant.poles)
        self.phi0 = self._phi0()

    def K_slope(self, omega):
        h = self.plant.delay
        acc = h * self.sigma0 - math.log(abs(self.plant.alpha))
        slope = 0.0
        for ds, om in zip(self.dsp, self.omp):
            d = omega - om
            g = ds * ds + d * d
            acc += 0.5 * math.log(g)
            slope += d / g
        for ds, om in zip(self.dsz, self.omz):
            d = omega - om
            g = ds * ds + d * d
            acc -= 0.5 * math.log(g)
            slope -= d / g
        return acc, slope

    def phi_slope(self, omega):
        acc = self.phi0 - self.plant.delay * omega
        slope = -self.plant.delay
        for ds, om in zip(self.dsz, self.omz):
            x = omega - om
            acc += math.atan(x / ds)
            slope += ds / (ds * ds + x * x)
        for ds, om in zip(self.dsp, self.omp):
            x = omega - om
            acc -= math.atan(x / ds)
            slope -= ds / (ds * ds + x * x)
        if omega == 0.0:
            acc = math.pi * round(acc / math.pi)
        return acc, slope

    def phi_slope_many(self, omega):
        acc = self.phi0 - self.plant.delay * omega
        slope = np.full(omega.shape, -self.plant.delay)
        for ds, om in zip(self.dsz, self.omz):
            x = omega - om
            acc += np.arctan(x / ds)
            slope += ds / (ds * ds + x * x)
        for ds, om in zip(self.dsp, self.omp):
            x = omega - om
            acc -= np.arctan(x / ds)
            slope -= ds / (ds * ds + x * x)
        acc = np.where(omega == 0.0, math.pi * np.round(acc / math.pi), acc)
        return acc, slope

    def _phi0(self):
        from dtlocus.plant import log_eval

        phi1_0 = (
            sum(math.atan(-om / ds) for ds, om in zip(self.dsz, self.omz))
            - sum(math.atan(-om / ds) for ds, om in zip(self.dsp, self.omp))
        )
        return log_eval(self.plant, complex(self.sigma0, 0.0)).phase - phi1_0


# The former boundary search: breakpoints as the nonnegative real roots of the
# full-degree K' and phi' polynomials (reference_breakpoint_polys), and every
# gain-cap and phase-line hit by bisection.  Its loops are kept as they were;
# only the result differs, a list of (omega, direction, interval end) with no
# DegenerateCrossing check.  The library takes the breakpoints as eigenvalues
# over the plant's roots and solves each line by safeguarded Newton; the
# tests compare the two on the same BoundaryFunctions.


def reference_bisect(f, a, b, fa, fb, tol):
    """Root of monotone f on [a, b] with f(a), f(b) already known."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        # rounding pushed an endpoint graze off the bracket; nearest end wins
        return a if abs(fa) <= abs(fb) else b
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def reference_magnitude_intervals(bf, region):
    """The omega >= 0 set where the boundary gain stays within the cap."""
    from dataclasses import replace

    from dtlocus.boundary import TOL_BISECT, _omega_cap

    L = region.lnkmax
    kp_roots = reference_nonneg_real_roots(reference_breakpoint_polys(bf.plant, bf.sigma0)[0])
    cap = _omega_cap(replace(bf, kprime_roots=tuple(r for r, _ in kp_roots)), region)
    cuts = [0.0] + [r for r, _ in kp_roots if 0.0 < r < cap] + [cap]

    tol = TOL_BISECT * (1.0 + cap)
    kept = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= tol:
            continue
        Ka, Kb = bf.K(a) - L, bf.K(b) - L
        if Ka <= 0.0 and Kb <= 0.0:
            kept.append((a, b))
        elif Ka > 0.0 and Kb > 0.0:
            continue
        else:
            m = reference_bisect(lambda w: bf.K(w) - L, a, b, Ka, Kb, tol)
            kept.append((a, m) if Ka <= 0.0 else (m, b))

    merged = []
    for a, b in kept:
        if merged and a - merged[-1][1] <= tol:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def reference_crossing_omegas(bf, region):
    """Sorted (omega, 'in'|'out', interval end) of every boundary crossing."""
    from dtlocus.boundary import TOL_BISECT

    intervals = reference_magnitude_intervals(bf, region)
    pp_roots = [r for r, _ in reference_nonneg_real_roots(
        reference_breakpoint_polys(bf.plant, bf.sigma0)[1])]

    hits = []
    for lo, hi in intervals:
        tol = TOL_BISECT * (1.0 + hi)
        cuts = [lo] + [r for r in pp_roots if lo < r < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= 0.0:
                continue
            pa, pb = bf.phi(a), bf.phi(b)
            pmin, pmax = (pa, pb) if pa <= pb else (pb, pa)
            l_hi = math.floor(pmax / (2.0 * math.pi) - 0.5)
            l_lo = math.ceil(pmin / (2.0 * math.pi) - 0.5)
            for l in range(l_lo, l_hi + 1):
                target = (2.0 * l + 1.0) * math.pi
                w = reference_bisect(lambda w: bf.phi(w) - target, a, b, pa - target, pb - target, tol)
                hits.append((w, hi))

    hits.sort()
    out = []
    prev = None
    for w, hi in hits:
        if prev is not None and w - prev <= 2.0 * TOL_BISECT * (1.0 + w):
            continue
        prev = w
        out.append((w, "in" if phiprime(bf, w) < 0.0 else "out", hi))
    return out


def reference_classify(bf, region, omegas):
    """The former classification of boundary roots: a CrossingSet whose
    directions come from one log-kernel pass (phiprime) per root."""
    from dtlocus.boundary import BoundaryCrossing, CrossingSet

    inward, outward = [], []
    for w in omegas:
        crossing = BoundaryCrossing(omega=w, Kval=min(bf.K(w), region.lnkmax))
        (inward if phiprime(bf, w) < 0.0 else outward).append(crossing)
    inward.sort(key=lambda c: c.Kval)
    outward.sort(key=lambda c: c.Kval)
    return CrossingSet(inward=tuple(inward), outward=tuple(outward))


def backward_error(coeffs, z):
    """|p(z)| / sum |c_k||z|^k for p with ascending coeffs: about eps at a root
    found to working accuracy, and about 1 at a point that is not a root."""
    den = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
    if den == 0.0:
        return 0.0
    return abs(sum(c * z ** k for k, c in enumerate(coeffs))) / den


def reference_nonneg_real_roots(p, tol_imag=1e-8):
    """The nonnegative real roots picked from the full, unscreened root set:
    every companion eigenvalue of p polished and clustered, then the roots
    with |Im| <= tol_imag and Re >= -tol_imag kept and merged."""
    from dtlocus.poly import complex_roots

    if p.degree < 1:
        return []
    picked = sorted((max(r.value.real, 0.0), r.multiplicity) for r in complex_roots(p)
                    if abs(r.value.imag) <= tol_imag and r.value.real >= -tol_imag)
    merged = []
    for v, m in picked:
        if merged and abs(v - merged[-1][0]) <= 1e-12 * (1.0 + abs(v)):
            merged[-1] = (merged[-1][0], merged[-1][1] + m)
        else:
            merged.append((v, m))
    return merged


# The writers' former per-point formatting.  render_svg now formats a whole
# polyline with one % format per point, result_to_csv and result_to_json a
# whole trajectory (a mirror image by toggling the signs of its original's
# text); these are the loops and the document they replaced, kept so tests
# can require the same bytes.

def _fmt_2f(v, rewrite=True):
    s = format(v, ".2f")
    return "0.00" if rewrite and s == "-0.00" else s


def reference_polyline_points(result, svgplot, rewrite=True):
    """The points="..." text of each trajectory polyline, in render_svg's
    order, by the former per-point _fmt(X(x)),_fmt(Y(y)).  The page and its
    margins are read from the svgplot module, as render_svg reads them;
    rewrite=False keeps a "-0.00" the former _fmt turned into "0.00"."""
    curves = [trajectory_rows(t) for t in result.trajectories]
    if result.negative is not None:
        curves += [trajectory_rows(t) for t in result.negative.trajectories]
    xs = [row[0] for rows in curves for row in rows]
    ys = [row[1] for rows in curves for row in rows]
    sigma0 = result.region.sigma0
    if xs:
        xmin, xmax = min(min(xs), sigma0), max(max(xs), sigma0)
        ymin, ymax = min(ys), max(ys)
    else:
        xmin, xmax, ymin, ymax = sigma0 - 1.0, sigma0 + 1.0, -1.0, 1.0
    dx = (xmax - xmin) or 1.0
    dy = (ymax - ymin) or 1.0
    xmin -= 0.1 * dx
    xmax += 0.1 * dx
    ymin -= 0.1 * dy
    ymax += 0.1 * dy
    px0, px1 = svgplot._MARGIN_LEFT, svgplot._WIDTH - svgplot._MARGIN_RIGHT
    py0, py1 = svgplot._HEIGHT - svgplot._MARGIN_BOTTOM, svgplot._MARGIN_TOP

    def X(x):
        return px0 + (x - xmin) / (xmax - xmin) * (px1 - px0)

    def Y(y):
        return py0 + (y - ymin) / (ymax - ymin) * (py1 - py0)

    return [" ".join(f"{_fmt_2f(X(x), rewrite)},{_fmt_2f(Y(y), rewrite)}" for x, y, _ in rows)
            for rows in curves]


def reference_csv(result):
    """result_to_csv by the former per-row f-string."""
    lines = ["traj_id,sigma,omega,k"]
    tid = 0
    for res, sign in ((result, 1.0), (result.negative, -1.0)):
        if res is None:
            continue
        for t in res.trajectories:
            for s, w, k in trajectory_rows(t, sign):
                lines.append(f"{tid},{s:.17g},{w:.17g},{k:.17g}")
            tid += 1
    return "\n".join(lines) + "\n"


def reference_json(result):
    """result_to_json by the former whole-document json.dumps, the points of
    each trajectory as trajectory_rows(t, sign), each origin and termination
    as {"type": its type's name, **vars(value)}."""
    from dtlocus import tracer

    names = {tracer.PoleOrigin: "pole", tracer.CrossingOrigin: "crossing",
             tracer.BranchOrigin: "branch", tracer.GainCap: "gain_cap",
             tracer.LeftRegion: "left_region", tracer.ReachedBranch: "reached_branch",
             tracer.StepFailure: "step_failure"}

    def tagged(value):
        return {"type": names[type(value)], **vars(value)}

    def doc(result, sign):
        plant = result.plant
        crossing = lambda c: {"omega": c.omega, "k": sign * c.k}
        return {
            "plant": {
                "alpha": plant.alpha,
                "delay": plant.delay,
                "zeros": [[z.real, z.imag] for z in plant.zeros],
                "poles": [[p.real, p.imag] for p in plant.poles],
            },
            "region": {"sigma0": result.region.sigma0, "kmax": result.region.kmax},
            "crossings": {
                "inward": [crossing(c) for c in result.crossings.inward],
                "outward": [crossing(c) for c in result.crossings.outward],
            },
            "branch_points": [
                {"re": b.s.real, "im": b.s.imag, "k": sign * b.k,
                 "multiplicity": b.multiplicity, "active": b.active}
                for b in result.branch_points
            ],
            "trajectories": [
                {"origin": tagged(t.origin), "termination": tagged(t.termination),
                 "mirrored": t.mirrored, "points": trajectory_rows(t, sign)}
                for t in result.trajectories
            ],
            "warnings": list(result.warnings),
        }

    out = doc(result, 1.0)
    if result.negative is not None:
        out["negative"] = doc(result.negative, -1.0)
    return json.dumps(out, allow_nan=False, check_circular=False) + "\n"
