"""End-to-end acceptance checks for the dead-time root-locus package.

Each test covers one acceptance criterion and prints a single pass/fail
line, so `pytest tests/test_acceptance.py -v -s` doubles as a checklist.
Expected values come from independent oracles (closed-form constants,
dense-grid boundary scans, direct complex Newton, central differences),
never from the implementation under test.
"""

import cmath
import functools
import math
import re
from collections import Counter

import numpy as np
import pytest

from dtlocus.boundary import (
    RegionSpec,
    boundary_crossings,
    boundary_functions,
)
from dtlocus.branch import branch_points
from dtlocus.cli import parse_input
from dtlocus.continuation import (
    FIRST_MAX,
    H0,
    H_MAX,
    KAPPA_MAX,
    KAPPA_NOM,
    CorrectorOutcome,
    LocusPoint,
    correct,
    step_update,
)
from dtlocus.errors import (
    BranchOnBoundary,
    DegenerateCrossing,
    PoleOrZeroOnBoundary,
)
from dtlocus.plant import Plant, dlog_ratio
from dtlocus.tracer import (
    BranchOrigin,
    CrossingOrigin,
    GainCap,
    LeftRegion,
    PoleOrigin,
    ReachedBranch,
    TraceOptions,
    _first_step_length,
    _make_pass,
    run,
    seed_points,
)
from oracles import (
    Kprime,
    clean_region,
    geval_delayed,
    grid_crossings,
    locus_residual,
    newton_root,
    phiprime,
    random_plant,
    trajectory_rows,
)

# the two-zero / three-pole demo system, fed through the coefficient parser
DEMO_DOC = b'{"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}'
DEMO_REGION = RegionSpec(-3.5, 5.0)

P1 = Plant(1.0, 1.0, (), (0j,))          # integrator with unit delay
P1_REGION = RegionSpec(-2.0, 1.0)
P3 = Plant(1.0, 0.5, (), (-1.0 + 1.0j, -1.0 - 1.0j))


def _criterion(num, text):
    """Print one pass/fail line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {text}")
                raise
            print(f"[PASS] criterion {num}: {text}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def demo_plant():
    return parse_input(DEMO_DOC)


@pytest.fixture(scope="module")
def demo_result(demo_plant):
    return run(demo_plant, DEMO_REGION)


@pytest.fixture(scope="module")
def p1_result():
    return run(P1, P1_REGION)


@pytest.fixture(scope="module")
def corpus(demo_result, p1_result):
    """Locus results used for the corpus-wide invariant checks."""
    entries = [p1_result, demo_result, run(P3, RegionSpec(-2.0, 2.0))]
    neg = run(P1, P1_REGION, TraceOptions(negative_gains=True))
    entries += [neg, neg.negative]
    rng = np.random.RandomState(11)
    added = 0
    while added < 3:
        plant = random_plant(rng, Plant)
        sigma0, kmax = clean_region(plant, rng)
        try:
            entries.append(run(plant, RegionSpec(sigma0, kmax)))
        except (PoleOrZeroOnBoundary, DegenerateCrossing, BranchOnBoundary):
            continue
        added += 1
    return entries


@_criterion(1, "coefficient ingestion recovers poles, zeros, gain and delay")
def test_01_coefficient_ingestion(demo_plant):
    assert len(demo_plant.poles) == 3
    assert len(demo_plant.zeros) == 2
    for want in (-0.5, -1.0, -2.5):
        assert min(abs(p - want) for p in demo_plant.poles) <= 1e-9
    for want in (5.0 + 5.0j, 5.0 - 5.0j):
        assert min(abs(z - want) for z in demo_plant.zeros) <= 1e-9
    assert abs(demo_plant.alpha - 1.0) <= 1e-9
    assert demo_plant.delay == 1.0


# gain-stationary locations of the demo system are roots of this quintic
# (ascending coefficients, determined by hand from N'D - ND' - hND)
_QUINTIC = (287.5, 597.5, 264.5, -5.75, -5.0, 1.0)


def _quintic(x):
    acc = 0.0
    for c in reversed(_QUINTIC):
        acc = acc * x + c
    return acc


@_criterion(2, "demo branch point matches an independently bisected quintic root")
def test_02_branch_point_location(demo_plant):
    a, b = -0.71, -0.69
    fa = _quintic(a)
    assert fa * _quintic(b) < 0.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = _quintic(mid)
        if fm == 0.0:
            a = b = mid
            break
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    root = 0.5 * (a + b)

    real_active = [
        bp
        for bp in branch_points(demo_plant, DEMO_REGION)
        if bp.active and abs(bp.s.imag) <= 1e-9
    ]
    assert len(real_active) == 1
    bp = real_active[0]
    assert -0.71 <= bp.s.real <= -0.69
    assert abs(bp.s.real - root) <= 1e-8
    assert bp.multiplicity == 2
    assert abs(bp.k - 9.3e-4) <= 5e-6


@_criterion(3, "demo topology: pole merge, matched exit, symmetric continuations")
def test_03_demo_topology(demo_plant, demo_result):
    res = demo_result
    assert not res.warnings
    assert len(res.branch_points) == 1
    bp = res.branch_points[0]

    def pole_traj(value):
        out = [
            t
            for t in res.trajectories
            if isinstance(t.origin, PoleOrigin)
            and abs(demo_plant.poles[t.origin.index] - value) <= 1e-9
        ]
        assert len(out) == 1
        return out[0]

    # the two rightmost poles run together and stop at the branch point
    for pv in (-0.5, -1.0):
        t = pole_traj(pv)
        assert isinstance(t.termination, ReachedBranch)
        assert t.termination.index == 0
        end = t.points[-1]
        assert abs(end.s - bp.s) <= 1e-9
        assert abs(end.Kval - bp.Kval) <= 1e-9

    # the leftmost pole walks out through the boundary and is matched to
    # the outward crossing recorded there
    t = pole_traj(-2.5)
    assert isinstance(t.termination, LeftRegion)
    assert t.termination.matched is not None
    assert abs(t.points[-1].sigma - DEMO_REGION.sigma0) <= 1e-9
    out = res.crossings.outward[t.termination.matched]
    assert abs(t.points[-1].k - out.k) <= 1e-6 * out.k

    # the two continuations leave the branch into opposite half planes and
    # drift right toward the zeros until the gain cap
    spawns = [t for t in res.trajectories if isinstance(t.origin, BranchOrigin)]
    assert len(spawns) == 2
    ends = sorted((t.points[-1] for t in spawns), key=lambda p: p.omega)
    assert ends[0].omega < -1e-3 and ends[1].omega > 1e-3
    for t in spawns:
        sig = [p.sigma for p in t.points]
        assert sig[-1] > bp.s.real
        tail = sig[3:]
        assert all(y >= x - 1e-9 for x, y in zip(tail, tail[1:]))
        assert isinstance(t.termination, GainCap)
        assert abs(t.points[-1].Kval - math.log(5.0)) <= 1e-9


@_criterion(4, "integrator analytics: branch at -1, axis crossing, Lambert endpoint")
def test_04_integrator_analytics(p1_result):
    res = p1_result
    active = [b for b in res.branch_points if b.active]
    assert len(active) == 1
    assert abs(active[0].s - (-1.0)) <= 1e-8
    assert abs(active[0].k - math.exp(-1.0)) <= 1e-8
    assert active[0].multiplicity == 2

    inward = res.crossings.inward
    assert len(inward) == 1
    assert abs(inward[0].omega) <= 1e-8
    assert abs(inward[0].k - 2.0 * math.exp(-2.0)) <= 1e-8

    # independent endpoint oracle: complex Newton on s e^s = -1, upper branch
    s = complex(-0.3, 1.3)
    for _ in range(60):
        ez = cmath.exp(s)
        step = (s * ez + 1.0) / ((1.0 + s) * ez)
        s -= step
        if abs(step) <= 1e-15:
            break
    assert abs(s * cmath.exp(s) + 1.0) <= 1e-12

    spawn = [
        t
        for t in res.trajectories
        if isinstance(t.origin, BranchOrigin) and not t.mirrored
    ]
    assert len(spawn) == 1
    assert isinstance(spawn[0].termination, GainCap)
    end = spawn[0].points[-1]
    assert abs(end.k - 1.0) <= 1e-9
    assert abs(end.s - s) <= 1e-4


@_criterion(5, "crossing count, location and direction verified on 20 random plants")
def test_05_crossing_completeness():
    rng = np.random.RandomState(2026)
    done = 0
    while done < 20:
        plant = random_plant(rng, Plant)
        sigma0, kmax = clean_region(plant, rng)
        region = RegionSpec(sigma0, kmax)
        try:
            bf = boundary_functions(plant, region)
            cs = boundary_crossings(bf, region)
        except (PoleOrZeroOnBoundary, DegenerateCrossing):
            continue
        allc = cs.inward + cs.outward
        # the 1e-3 grid oracle cannot resolve cap-edge membership, grazing
        # tangencies, or crossings closer together than its step
        if any(abs(c.Kval - region.lnkmax) < 1e-4 for c in allc):
            continue
        if any(abs(phiprime(bf, c.omega)) < 1e-4 for c in allc):
            continue
        ws = sorted(c.omega for c in allc)
        if any(y - x < 5e-3 for x, y in zip(ws, ws[1:])):
            continue

        want = grid_crossings(plant, sigma0, kmax, step=1e-3)
        got = sorted([(c.omega, "in", c.k) for c in cs.inward]
                     + [(c.omega, "out", c.k) for c in cs.outward])
        assert len(got) == len(want), (plant, sigma0, kmax)
        for (gw, gd, _), (ww, _, wd) in zip(got, want):
            assert abs(gw - ww) <= 1e-6
            assert gd == wd

        # direction must equal the sign of the root displacement under a
        # small gain increase, computed by direct complex Newton
        for w, d, k in got:
            s0 = complex(sigma0, w)
            disp = None
            for eps in (1e-6, 1e-5, 1e-4, 1e-7):
                kplus = k * (1.0 + eps)
                sp = newton_root(plant, kplus, s0)
                if (
                    locus_residual(plant, sp, kplus) <= 1e-10
                    and abs(sp - s0) <= 0.05
                    and abs(sp.real - sigma0) >= 1e-10
                ):
                    disp = sp.real - sigma0
                    break
            assert disp is not None, (plant, sigma0, w)
            assert (disp > 0.0) == (d == "in")
        done += 1


def _reanchor(raw, anchor):
    return raw + 2.0 * math.pi * round((anchor - raw) / (2.0 * math.pi))


@_criterion(6, "boundary and residual derivatives agree with central differences")
def test_06_derivative_accuracy(demo_plant):
    plants = [(P1, -2.0), (demo_plant, -3.5), (P3, -2.0)]
    rng = np.random.RandomState(7)
    while len(plants) < 8:
        plant = random_plant(rng, Plant)
        sigma0, _ = clean_region(plant, rng)
        try:
            boundary_functions(plant, RegionSpec(sigma0, 10.0))
        except PoleOrZeroOnBoundary:
            continue
        plants.append((plant, sigma0))
    e = 1e-6

    for plant, sigma0 in plants:
        bf = boundary_functions(plant, RegionSpec(sigma0, 10.0))
        roots = plant.poles + plant.zeros

        checked = 0
        while checked < 100:
            w = rng.uniform(-8.0, 8.0)
            if min(abs(complex(sigma0, w) - r) for r in roots) < 1e-2:
                continue
            fd_k = (bf.K(w + e) - bf.K(w - e)) / (2.0 * e)
            fd_phi = (bf.phi(w + e) - bf.phi(w - e)) / (2.0 * e)
            kp, pp = Kprime(bf, w), phiprime(bf, w)
            assert abs(fd_k - kp) <= 1e-5 * (1.0 + abs(kp))
            assert abs(fd_phi - pp) <= 1e-5 * (1.0 + abs(pp))
            checked += 1

        checked = 0
        while checked < 100:
            sig = rng.uniform(-4.0, 3.0)
            w = rng.uniform(-6.0, 6.0)
            s = complex(sig, w)
            if min(abs(s - r) for r in roots) < 1e-2:
                continue
            dlog = dlog_ratio(plant, s)
            msig, mom = dlog.real, -dlog.imag  # dM/dsigma, dM/domega

            def lnmag(q):
                return math.log(abs(geval_delayed(plant, q)))

            anchor = cmath.phase(geval_delayed(plant, s))

            def phase(q):
                return _reanchor(cmath.phase(geval_delayed(plant, q)), anchor)

            fd_ms = (lnmag(s + e) - lnmag(s - e)) / (2.0 * e)
            fd_mw = (lnmag(s + 1j * e) - lnmag(s - 1j * e)) / (2.0 * e)
            fd_ps = (phase(s + e) - phase(s - e)) / (2.0 * e)
            fd_pw = (phase(s + 1j * e) - phase(s - 1j * e)) / (2.0 * e)
            assert abs(fd_ms - msig) <= 1e-5 * (1.0 + abs(msig))
            assert abs(fd_mw - mom) <= 1e-5 * (1.0 + abs(mom))
            assert abs(fd_ps - (-mom)) <= 1e-5 * (1.0 + abs(mom))
            assert abs(fd_pw - msig) <= 1e-5 * (1.0 + abs(msig))

            # the Cauchy-Riemann pairing is structural: the corrector divides
            # by the one complex log-derivative whose parts are checked above
            assert correct(plant, s, 0.0, math.inf, 0).dlog == dlog
            checked += 1


@_criterion(7, "every emitted trajectory point satisfies the locus equation to 1e-5")
def test_07_residual_invariant(corpus):
    npts = 0
    for res in corpus:
        for t in res.trajectories:
            for p in t.points:
                assert locus_residual(res.plant, p.s, p.k) <= 1e-5
                npts += 1
    assert npts > 100


def test_emitted_points_are_finite(demo_plant):
    # points are built unchecked, so every value they carry must come finite
    # from a checked input or a checked Newton iterate: random plants with
    # both gain signs, and the demo plant far left and at large kmax
    rng = np.random.RandomState(2026)
    cases = []
    while len(cases) < 20:
        plant = random_plant(rng, Plant)
        region = RegionSpec(*clean_region(plant, rng))
        try:
            res = run(plant, region, TraceOptions(negative_gains=True))
        except (PoleOrZeroOnBoundary, DegenerateCrossing, BranchOnBoundary):
            continue
        cases += [res, res.negative]
    for sigma0, kmax in ((-3.5, 50.0), (-3.5, 150.0), (-3.5, 500.0), (-6.0, 5.0)):
        cases.append(run(demo_plant, RegionSpec(sigma0, kmax)))
    npts = 0
    for res in cases:
        for t in res.trajectories:
            rows = trajectory_rows(t)
            assert all(map(math.isfinite, (v for row in rows for v in row))), (res.plant, t)
            assert all(isinstance(p, LocusPoint) for p in t.points)
            npts += len(rows)
        for c in res.crossings.inward + res.crossings.outward:
            assert math.isfinite(c.omega) and math.isfinite(c.Kval), (res.plant, c)
    assert npts > 20000


def _traj_key(t):
    o = t.origin
    if isinstance(o, PoleOrigin):
        tag = ("pole", o.index, 0.0)
    elif isinstance(o, CrossingOrigin):
        tag = ("crossing", o.index, 0.0)
    else:
        tag = ("branch", o.index, round(o.angle, 6))
    return tag + (t.mirrored,)


def _endpoint_map(res):
    out = {}
    for t in res.trajectories:
        key = _traj_key(t)
        assert key not in out
        out[key] = (type(t.termination).__name__, t.points[-1].s)
    return out


@_criterion(8, "step control forced cases exact; refinement leaves outcomes fixed")
def test_08_step_control(demo_plant, demo_result, p1_result, step_bounds):
    pt = LocusPoint(0.0, 0.0, 0.0)

    nominal = CorrectorOutcome(pt, 3, KAPPA_NOM, True)
    h, repeat = step_update(0.1, nominal)
    assert h == 0.1 and repeat is False

    slow = CorrectorOutcome(pt, 6, 2.0 * KAPPA_MAX, True)
    h, repeat = step_update(0.1, slow)
    assert h == 0.05 and repeat is True

    far = CorrectorOutcome(pt, 2, 0.0, True, first=2.0 * FIRST_MAX * 0.01)
    h, repeat = step_update(0.1, far, ds=0.01)
    assert h == 0.05 and repeat is True

    crisp = CorrectorOutcome(pt, 2, KAPPA_NOM / 9.0, True)
    h, repeat = step_update(0.01, crisp)
    assert h == 0.02 and repeat is False
    h, repeat = step_update(0.4, crisp)
    assert h == H_MAX == 0.5 and repeat is False

    # halving the initial step, or the largest step, must not change any
    # termination reason, and endpoints may move at most 1e-4.  Crossing
    # seeds start above H0, so the H_MAX run is the one that shortens most
    # steps.
    for h0, h_max in ((H0 / 2.0, H_MAX), (H0, H_MAX / 2.0)):
        step_bounds(h0, h_max)
        for plant, region, base in (
            (P1, P1_REGION, p1_result),
            (demo_plant, DEMO_REGION, demo_result),
        ):
            refined = run(plant, region)
            a, b = _endpoint_map(base), _endpoint_map(refined)
            assert set(a) == set(b)
            for key in a:
                assert a[key][0] == b[key][0], key
                assert abs(a[key][1] - b[key][1]) <= 1e-4, key


@_criterion(9, "trajectory point sets are conjugate symmetric within 1e-8")
def test_09_conjugate_symmetry(corpus):
    tol = 1e-8
    scale = 1.0 / tol
    for res in corpus:
        pts = [p for t in res.trajectories for p in t.points]
        buckets = {}
        for p in pts:
            key = (round(p.sigma * scale), round(p.omega * scale), round(p.Kval * scale))
            buckets.setdefault(key, []).append(p)
        for p in pts:
            base = (round(p.sigma * scale), round(-p.omega * scale), round(p.Kval * scale))
            near = (
                q
                for da in (-1, 0, 1)
                for db in (-1, 0, 1)
                for dc in (-1, 0, 1)
                for q in buckets.get((base[0] + da, base[1] + db, base[2] + dc), ())
            )
            assert any(
                abs(q.sigma - p.sigma) <= tol
                and abs(q.omega + p.omega) <= tol
                and abs(q.Kval - p.Kval) <= tol
                for q in near
            ), (res.plant, p)


def test_branch_departures_complete(corpus):
    # every active branch point is left along its full closed-form fan
    for res in corpus:
        for w in res.warnings:
            m = re.search(r"expects (\d+) arrivals and departures, traced \d+ and (\d+)", w)
            assert m is None or int(m.group(2)) >= int(m.group(1)), w
        for bi, bp in enumerate(res.branch_points):
            if bp.active:
                dep = [t for t in res.trajectories
                       if isinstance(t.origin, BranchOrigin) and t.origin.index == bi]
                assert len(dep) == bp.multiplicity, (res.plant, bp)


def test_first_step_rule(corpus):
    # branch departures start at H0; every first step lies in [H0, H_MAX],
    # and below H_MAX a crossing or pole seed starts at a tenth of its
    # distance to the nearest plant root or branch point, which for a pole
    # seed is its own pole
    sized = Counter()
    for res in corpus:
        anchors = [*res.plant.zeros, *res.plant.poles, *(bp.s for bp in res.branch_points)]
        p = _make_pass(res.plant, res.region, res.branch_points, res.crossings.outward,
                       TraceOptions().tol_corr)
        assert list(p.anchors) == anchors
        seeds = seed_points(p, res.crossings.inward)
        for seed in seeds:
            rho = min(abs(seed.start.s - a) for a in anchors)
            h = _first_step_length(rho)
            assert H0 <= h <= H_MAX
            if isinstance(seed.origin, BranchOrigin):
                assert h == H0, seed
            else:
                assert h == max(H0, min(H_MAX, 0.1 * rho)), seed
                sized[type(seed.origin)] += H0 < 0.1 * rho < H_MAX
            if isinstance(seed.origin, PoleOrigin):
                assert rho == abs(seed.start.s - seed.start_marker), seed
    assert sized[CrossingOrigin] > 0 and sized[PoleOrigin] > 0
