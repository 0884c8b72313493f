"""End-to-end trajectory tracing on the worked plants.

Expected endpoints on the delay integrator come from the Lambert W function:
closed-loop roots of s e^s = -k (positive gain) and s e^s = k (flipped sign)
sit on W branches, evaluated through scipy as an independent oracle.
"""

import gc
import json
import math
from collections import Counter, namedtuple

import numpy as np
import pytest
from scipy.special import lambertw

from dtlocus import boundary, branch, tracer
from dtlocus.boundary import (
    RegionSpec,
    _omega_cap,
    boundary_functions,
)
from dtlocus.cli import parse_input
from dtlocus.continuation import H0, H_MAX, H_MIN, MAX_ITER, CorrectorOutcome, LocusPoint, residuals
from dtlocus.errors import BranchOnBoundary, DtLocusError, InputError
from dtlocus.plant import Plant, _dlog_prime, dlog_ratio
from dtlocus.tracer import (
    BranchOrigin,
    CrossingOrigin,
    GainCap,
    LeftRegion,
    PoleOrigin,
    ReachedBranch,
    RootLocusResult,
    Seed,
    StepFailure,
    TraceOptions,
    Trajectory,
    run,
    seed_points,
)

from oracles import (
    clean_region,
    pass_of,
    random_plant,
    reference_axis_bounds,
    reference_branch_probes,
    same_result,
    seeds_of,
)


def by_origin(result, kind, index=None, mirrored=False):
    out = [
        t for t in result.trajectories
        if isinstance(t.origin, kind)
        and (index is None or t.origin.index == index)
        and t.mirrored == mirrored
    ]
    return out


@pytest.fixture(scope="module")
def res_p1():
    plant = Plant(1.0, 1.0, (), (0j,))
    return run(plant, RegionSpec(-2.0, 1.0))


@pytest.fixture(scope="module")
def res_p2():
    plant = Plant(1.0, 1.0, (5 + 5j, 5 - 5j), (-0.5 + 0j, -1 + 0j, -2.5 + 0j))
    return run(plant, RegionSpec(-3.5, 5.0))


@pytest.fixture(scope="module")
def res_neg():
    plant = Plant(1.0, 1.0, (), (0j,))
    return run(plant, RegionSpec(-2.0, 1.0), TraceOptions(negative_gains=True))


class TestP1Topology:

    def test_counts(self, res_p1):
        assert len(res_p1.trajectories) == 4
        assert len(res_p1.crossings.inward) == 1
        assert len(res_p1.crossings.outward) == 0
        assert len(res_p1.branch_points) == 1
        assert res_p1.warnings == ()

    def test_pole_trajectory_reaches_branch(self, res_p1):
        (t,) = by_origin(res_p1, PoleOrigin, 0)
        assert isinstance(t.termination, ReachedBranch)
        assert t.start_marker == 0j
        end = t.points[-1]
        assert end.sigma == -1.0 and end.omega == 0.0
        assert end.Kval == res_p1.branch_points[0].Kval

    def test_pole_trajectory_on_real_locus(self, res_p1):
        # on the real axis the closed-loop gain is k = -sigma e^sigma
        (t,) = by_origin(res_p1, PoleOrigin, 0)
        for p in t.points:
            assert abs(p.omega) <= 1e-9
            assert math.exp(p.Kval) == pytest.approx(-p.sigma * math.exp(p.sigma), abs=1e-6)

    def test_crossing_trajectory_reaches_branch(self, res_p1):
        (t,) = by_origin(res_p1, CrossingOrigin, 0)
        assert isinstance(t.termination, ReachedBranch)
        assert t.points[0].sigma == -2.0
        assert t.points[-1].sigma == -1.0
        ks = [math.exp(p.Kval) for p in t.points]
        assert min(ks) == pytest.approx(2 * math.exp(-2.0), abs=1e-9)
        assert max(ks) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_branch_continuations_end_at_lambert_root(self, res_p1):
        w0 = lambertw(-1.0, 0)
        up = by_origin(res_p1, BranchOrigin, 0)
        down = by_origin(res_p1, BranchOrigin, 0, mirrored=True)
        assert len(up) == 1 and len(down) == 1
        assert isinstance(up[0].termination, GainCap)
        end = up[0].points[-1]
        assert end.Kval == pytest.approx(0.0, abs=1e-12)
        assert complex(end.sigma, end.omega) == pytest.approx(complex(w0), abs=1e-4)
        mend = down[0].points[-1]
        assert mend.sigma == end.sigma and mend.omega == -end.omega
        assert up[0].origin.angle == pytest.approx(math.pi / 2)
        assert down[0].origin.angle == pytest.approx(-math.pi / 2)

    def test_gain_strictly_increases(self, res_p1):
        for t in res_p1.trajectories:
            ks = [p.Kval for p in t.points]
            assert all(b > a for a, b in zip(ks, ks[1:]))


def test_arity_warning_counts_extra_arrivals(p1, monkeypatch):
    # the pole seed is traced twice, so the double branch point at -1 gets
    # three arrivals: that warns as a missing one would
    seed_points = tracer.seed_points

    def doubled(*args):
        seeds = seed_points(*args)
        return seeds + [s for s in seeds if isinstance(s.origin, PoleOrigin)]

    monkeypatch.setattr(tracer, "seed_points", doubled)
    res = run(p1, RegionSpec(-2.0, 1.0))
    assert sum(isinstance(t.termination, ReachedBranch) for t in res.trajectories) == 3
    assert res.warnings == ("branch point at -1+0j expects 2 arrivals and departures, "
                            "traced 3 and 2",)


class TestP2Topology:

    def test_no_warnings(self, res_p2):
        assert res_p2.warnings == ()

    def test_two_poles_meet_at_branch(self, res_p2):
        bp = res_p2.branch_points[0]
        for idx in (0, 1):
            (t,) = by_origin(res_p2, PoleOrigin, idx)
            assert isinstance(t.termination, ReachedBranch)
            assert t.termination.index == 0
            end = t.points[-1]
            assert complex(end.sigma, end.omega) == bp.s
            assert all(abs(p.omega) <= 1e-9 for p in t.points[:-1])

    def test_third_pole_exits_matched(self, res_p2):
        (t,) = by_origin(res_p2, PoleOrigin, 2)
        assert isinstance(t.termination, LeftRegion)
        assert t.termination.matched == 0
        end = t.points[-1]
        assert end.sigma == -3.5
        assert abs(end.omega) <= 1e-9
        out = res_p2.crossings.outward[0]
        assert math.exp(end.Kval) == pytest.approx(out.k, rel=1e-6)

    def test_exit_claimed_once(self, res_p2):
        claims = [
            t.termination.matched
            for t in res_p2.trajectories
            if isinstance(t.termination, LeftRegion) and not t.mirrored
        ]
        assert claims.count(0) == 1

    def test_splits_head_toward_zeros(self, res_p2):
        ups = by_origin(res_p2, BranchOrigin, 0)
        downs = by_origin(res_p2, BranchOrigin, 0, mirrored=True)
        assert len(ups) == 1 and len(downs) == 1
        up, down = ups[0], downs[0]
        assert isinstance(up.termination, GainCap)
        assert up.points[-1].omega > 0 and down.points[-1].omega < 0
        # real part grows toward the zeros at 5 +- 5j
        sigmas = [p.sigma for p in up.points[3:]]
        assert all(b >= a - 1e-9 for a, b in zip(sigmas, sigmas[1:]))
        assert math.exp(up.points[-1].Kval) == pytest.approx(5.0, abs=1e-9)

    def test_every_inward_crossing_seeds_one_trajectory(self, res_p2):
        for ci in range(len(res_p2.crossings.inward)):
            assert len(by_origin(res_p2, CrossingOrigin, ci)) == 1

    def test_crossing_trajectories_start_on_boundary(self, res_p2):
        for t in res_p2.trajectories:
            if isinstance(t.origin, CrossingOrigin) and not t.mirrored:
                c = res_p2.crossings.inward[t.origin.index]
                assert t.points[0].sigma == -3.5
                assert t.points[0].omega == c.omega

    def test_mirror_symmetry(self, res_p2):
        plain = [t for t in res_p2.trajectories if not t.mirrored]
        mirrored = [t for t in res_p2.trajectories if t.mirrored]
        off_axis = [t for t in plain if any(abs(p.omega) > 1e-9 for p in t.points)]
        assert len(mirrored) == len(off_axis)
        for t in mirrored:
            twin = next(
                u for u in off_axis
                if len(u.points) == len(t.points)
                and all(
                    a.sigma == b.sigma and a.omega == -b.omega and a.Kval == b.Kval
                    for a, b in zip(u.points, t.points)
                )
            )
            assert type(twin.termination) is type(t.termination)

    def test_residuals_on_locus(self, res_p2):
        worst = 0.0
        for t in res_p2.trajectories:
            for p in t.points:
                M, P = residuals(res_p2.plant, p)
                worst = max(worst, abs(1.0 - math.e ** complex(M, P)))
        assert worst <= 1e-5


class TestP3AndEdges:
    def test_conjugate_pair_to_gain_cap(self, p3):
        res = run(p3, RegionSpec(-2.0, 2.0))
        assert len(res.crossings.inward) == 0
        assert len(res.branch_points) == 0
        assert len(res.trajectories) == 2
        t, m = res.trajectories
        assert isinstance(t.termination, GainCap) and isinstance(m.termination, GainCap)
        assert m.mirrored and not t.mirrored
        assert t.points[-1].Kval == pytest.approx(math.log(2.0), abs=1e-12)
        assert t.points[-1].omega == -m.points[-1].omega
        assert t.start_marker == -1 + 1j and m.start_marker == -1 - 1j

    def test_empty_region(self, p1):
        res = run(p1, RegionSpec(0.5, 0.5))
        assert res.trajectories == ()
        assert res.crossings.inward == () and res.crossings.outward == ()

    def test_branch_on_boundary_rejected(self, p1):
        with pytest.raises(BranchOnBoundary):
            run(p1, RegionSpec(-1.0, 1.0))

    def test_step_budget_failure(self, p3, monkeypatch):
        monkeypatch.setattr(tracer, "MAX_STEPS", 1)
        res = run(p3, RegionSpec(-2.0, 2.0))
        assert all(isinstance(t.termination, StepFailure) for t in res.trajectories)
        assert "budget" in res.trajectories[0].termination.reason

    def test_step_failure_warns_once_per_trajectory(self, p1, monkeypatch):
        # a two-step budget stops every trajectory short of its end
        monkeypatch.setattr(tracer, "MAX_STEPS", 2)
        res = run(p1, RegionSpec(-2.0, 1.0))
        failed = [t for t in res.trajectories
                  if isinstance(t.termination, StepFailure) and not t.mirrored]
        assert failed
        stops = [w for w in res.warnings if w.startswith("trajectory stopped")]
        assert len(stops) == len(failed)
        for t, w in zip(failed, stops):
            assert w.endswith(t.termination.reason)
            assert f"k={math.exp(t.points[-1].Kval):.6g}" in w

    def test_options_validated_at_construction(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                TraceOptions(tol_corr=bad)
        TraceOptions(tol_corr=1e-18)


class TestNegativeGains:

    def test_negative_result_attached(self, res_neg):
        assert res_neg.negative is not None
        assert res_neg.negative.plant.alpha == -1.0
        assert res_neg.negative.negative is None

    def test_real_axis_cap_at_lambert_w0(self, res_neg):
        (t,) = by_origin(res_neg.negative, PoleOrigin, 0)
        assert isinstance(t.termination, GainCap)
        end = t.points[-1]
        assert end.omega == 0.0
        assert end.sigma == pytest.approx(float(lambertw(1.0, 0).real), abs=1e-9)

    def test_crossing_branch_ends_at_w1(self, res_neg):
        neg = res_neg.negative
        assert len(neg.crossings.inward) == 1
        assert neg.crossings.inward[0].omega == pytest.approx(4.274782, abs=1e-5)
        (t,) = by_origin(neg, CrossingOrigin, 0)
        w1 = lambertw(1.0, 1)
        end = t.points[-1]
        assert complex(end.sigma, end.omega) == pytest.approx(complex(w1), abs=1e-4)


def _sign_corpus(n=36):
    """(plant, region) draws for the shared-set-up property: every fourth is
    bi-proper, every fourth has a repeated pole, every fourth a negative gain;
    random_plant supplies complex pairs and right-half-plane zeros."""
    rng = np.random.RandomState(2027)
    out = []
    for i in range(n):
        plant = random_plant(rng, Plant)
        alpha, zeros, poles = plant.alpha, list(plant.zeros), list(plant.poles)
        if i % 4 == 1:
            while len(zeros) < len(poles):
                zeros.append(complex(rng.uniform(-3.0, 3.0), 0.0))
        elif i % 4 == 2:
            poles += poles[:2] if poles[0].imag else poles[:1]
        elif i % 4 == 3:
            alpha = -abs(alpha)
        plant = Plant(alpha, plant.delay, tuple(zeros), tuple(poles))
        sigma0, kmax = clean_region(plant, rng)
        if plant.biproper:
            kmax = min(kmax, 0.5 * math.exp(plant.delay * sigma0) / abs(alpha))
        out.append((plant, RegionSpec(sigma0, kmax)))
    return out


class TestSharedSetUp:
    """The sign-free set-up of a two-sign run is built once and serves the
    negative pass exactly as a run of the flipped plant builds its own."""

    @staticmethod
    def _rootings(plant, region, monkeypatch):
        """The run of both signs and its branch_roots and breakpoint solves."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve = counted("branch_roots", branch.branch_roots)
        monkeypatch.setattr(branch, "branch_roots", solve)
        monkeypatch.setattr(tracer, "branch_roots", solve)
        monkeypatch.setattr(boundary, "_turning_points",
                            counted("_turning_points", boundary._turning_points))
        return run(plant, region, TraceOptions(negative_gains=True)), calls

    def test_roots_found_once_for_both_signs(self, p2, monkeypatch):
        res, calls = self._rootings(p2, RegionSpec(-3.5, 5.0), monkeypatch)
        assert res.negative is not None and res.branch_points
        assert res.crossings.inward and res.negative.crossings.inward
        # one solve for K' and one for phi', shared by both signs
        assert calls == {"branch_roots": 1, "_turning_points": 2}

    def test_negative_pass_equals_flipped_run(self):
        compared, active = 0, Counter()
        kinds = Counter()
        for plant, region in _sign_corpus():
            try:
                res = run(plant, region, TraceOptions(negative_gains=True))
            except DtLocusError:
                continue  # the positive pass raised; no negative pass to compare
            assert same_result(res.negative, run(plant.flipped_gain(), region, TraceOptions()))
            compared += 1
            active["positive"] += any(b.active for b in res.branch_points)
            active["negative"] += any(b.active for b in res.negative.branch_points)
            kinds["biproper"] += plant.biproper
            kinds["repeated"] += len(set(plant.poles)) < len(plant.poles)
            kinds["complex"] += any(p.imag for p in plant.poles)
            kinds["rhp_zero"] += any(z.real > 0.0 for z in plant.zeros)
            kinds["negative_alpha"] += plant.alpha < 0.0
        assert compared >= 30
        assert min(active["positive"], active["negative"]) >= 3, active
        assert min(kinds.values()) >= 3 and len(kinds) == 5, kinds


# Corpus seed 408 job 461 (its negative-gain pass) and seed 405 job 183: the
# usual pole seed step overshoots a nearby branch point or pole and its
# frozen-gain polish does not converge (residuals 1.5 and 0.012), so the step
# must shrink until it does.
JOB_461_FLIPPED = Plant(
    4.905108, 1.420699,
    (-1.497614 + 0.829942j, -1.497614 - 0.829942j, -0.781329 + 0j, 1.814507 + 1.017389j,
     1.814507 - 1.017389j, 1.873596 + 0j),
    (-0.715817 + 0j, -0.827853 + 0j, -0.781923 + 0j, -1.158687 + 0j, -2.912805 + 0.337496j,
     -2.912805 - 0.337496j),
)
JOB_183 = Plant(
    3.106323, 0.729426, (-2.505918 + 2.237048j, -2.505918 - 2.237048j),
    (-1.117539 + 0j, -0.268133 + 0.968595j, -0.268133 - 0.968595j, -2.71468 + 0j, -1.115777 + 0j),
)


class TestSeedsAndStability:
    def test_pole_seeds_land_on_locus(self, p2):
        cases = [(p2, RegionSpec(-3.5, 5.0), 3), (JOB_461_FLIPPED, RegionSpec(-1.747593, 0.008512), 4),
                 (JOB_183, RegionSpec(-2.402994, 6.621255), 3)]
        for plant, region, n_seeds in cases:
            seeds = seeds_of(plant, region)
            pole_seeds = [s for s in seeds if isinstance(s.origin, PoleOrigin)]
            assert len(pole_seeds) == n_seeds
            for s in pole_seeds:
                M, P = residuals(plant, s.start)
                assert max(abs(M), abs(P)) <= 1e-8
                if s.start_marker.imag == 0.0 and abs(s.start.omega) < 1e-6:
                    assert s.start.omega == 0.0  # a real ray is polished on the axis

    def test_seed_directions_are_locus_tangents(self):
        # every seed heads along ds/dK = -1/dlog at its start (a pole or
        # branch seed's polished start, a crossing on the boundary): dlog is
        # finite and nonzero there, so its first step raises the gain, and a
        # crossing seed heads into the region
        rng = np.random.RandomState(11)
        checked = 0
        for _ in range(100):
            plant = random_plant(rng, Plant)
            region = RegionSpec(*clean_region(plant, rng))
            for signed in (plant, plant.flipped_gain()):
                for s in seeds_of(signed, region):
                    dlog = dlog_ratio(signed, s.start.s)
                    assert 0.0 < abs(dlog) < math.inf, s.origin
                    if isinstance(s.origin, CrossingOrigin):
                        assert (-1.0 / dlog).real > 0.0, s.origin
                    checked += 1
        assert checked > 300

    def test_seed_at_gain_cap_ends_without_a_step(self, p1, monkeypatch):
        # the integrator's trajectory reaches a cap of 1e-4 about 1e-4 off its
        # pole, so its seed is placed there, at the cap: it is its own only
        # point, with no corrector call
        region = RegionSpec(-2.0, 1e-4)
        (seed,) = [s for s in seeds_of(p1, region) if isinstance(s.origin, PoleOrigin)]
        assert seed.start.Kval >= region.lnkmax
        calls = []
        correct = tracer.correct

        def counted(*args):
            calls.append(None)
            return correct(*args)

        monkeypatch.setattr(tracer, "correct", counted)
        traj = tracer.trace(tracer._make_pass(p1, region, (), (), TraceOptions().tol_corr), seed)
        assert traj.points == (seed.start,)
        # made as trace makes every array: read-only float64 rows
        assert traj.array.dtype == np.float64 and not traj.array.flags.writeable
        assert traj.array.shape == (1, 3) and traj.array.tolist() == [list(seed.start)]
        assert traj.termination == GainCap()
        assert traj.start_marker == 0j
        assert calls == []

    @pytest.mark.parametrize("fails", [3, tracer._SEED_HALVINGS + 4])
    def test_seed_step_halves_while_the_polish_fails(self, p1, monkeypatch, fails):
        # while correct fails, the fixed step along the ray (a branch seed's,
        # and a pole seed's that the pole's model does not place) halves, at
        # most _SEED_HALVINGS times; then the last try is the seed
        tries, correct = [], tracer.correct

        def failing(plant, s, *args):
            out = correct(plant, s, *args)
            tries.append((s, out.point))
            return out._replace(converged=False) if len(tries) <= fails else out

        monkeypatch.setattr(tracer, "correct", failing)
        p = tracer._make_pass(p1, RegionSpec(-2.0, 1.0), (), (), 1e-10)
        seed = tracer._seed_from_ray(p, PoleOrigin(0), 0j, math.pi)
        assert len(tries) == min(fails, tracer._SEED_HALVINGS) + 1
        steps = [-s.real for s, _ in tries]
        assert steps[0] == 1e-3 and all(s.imag == 0.0 for s, _ in tries)
        assert steps[1:] == [0.5 * x for x in steps[:-1]]
        assert seed.start == tries[-1][1]

    def test_pole_seed_with_no_other_anchor(self, p1):
        # the integrator right of its branch point at -1 has no other anchor:
        # its pole seed keeps the fixed radius 1e-3, polished below the cap,
        # and is placed on the cap when the cap lies inside that radius
        for kmax, radius in ((1.0, 1e-3), (1e-4, 1e-4)):
            p = tracer._make_pass(p1, RegionSpec(-0.5, kmax), (), (), TraceOptions().tol_corr)
            (seed,) = seed_points(p, ())
            M, P = residuals(p1, seed.start)
            assert max(abs(M), abs(P)) <= 1e-8
            assert seed.start.Kval <= p.region.lnkmax and seed.dlog is not None
            assert abs(seed.start.s) == pytest.approx(radius, rel=1e-2)
        assert seed.start.Kval == p.region.lnkmax

    def test_pole_seed_below_the_floor_keeps_the_fixed_step(self, p1):
        # a cap reached within _CAP_FLOOR(1 + |p|) of the pole is not trusted
        # to the pole's model: the seed is the fixed step's, above the cap
        region = RegionSpec(-0.5, 0.1 * tracer._CAP_FLOOR)
        (seed,) = seed_points(tracer._make_pass(p1, region, (), (), 1e-6), ())
        assert seed.start.s == -1e-3 and seed.start.Kval > region.lnkmax

    def test_pole_seed_off_its_sheet_keeps_the_fixed_step(self, p3, monkeypatch):
        # a polish whose first Newton correction exceeds _SHEET times its
        # start's distance from the pole has left the pole's sheet, so the
        # seed is the fixed step's 1e-3(1 + |p|) instead of a tenth of the
        # way to the conjugate pole
        p = tracer._make_pass(p3, RegionSpec(-3.0, 100.0), (), (), 1e-6)
        pole = p3.poles[0]

        def distance():
            (seed,) = seed_points(p, ())
            assert seed.start_marker == pole and seed.start.Kval < p.region.lnkmax
            return abs(seed.start.s - pole)

        assert distance() == pytest.approx(0.2, rel=1e-2)
        correct = tracer.correct

        def jumped(plant, s, *args):
            out = correct(plant, s, *args)
            return out._replace(first=1.01 * tracer._SHEET * abs(s - pole))

        monkeypatch.setattr(tracer, "correct", jumped)
        assert distance() == pytest.approx(1e-3 * (1.0 + abs(pole)), rel=1e-2)

    def test_crossing_seeds_sit_on_crossings(self, p2):
        region = RegionSpec(-3.5, 5.0)
        seeds = seeds_of(p2, region)
        cross = [s for s in seeds if isinstance(s.origin, CrossingOrigin)]
        assert len(cross) == 27
        for s in cross:
            assert s.start.sigma == -3.5
            assert (-1.0 / dlog_ratio(p2, s.start.s)).real > 0.0  # inward means growing sigma

    def test_topology_stable_under_refinement(self, p1, step_bounds):
        region = RegionSpec(-2.0, 1.0)
        coarse = run(p1, region)
        for h0, h_max in ((H0 / 2.0, H_MAX), (H0, H_MAX / 2.0)):
            step_bounds(h0, h_max)
            fine = run(p1, region)
            assert len(coarse.trajectories) == len(fine.trajectories)
            for a, b in zip(coarse.trajectories, fine.trajectories):
                assert type(a.termination) is type(b.termination)
                pa, pb = a.points[-1], b.points[-1]
                assert abs(pa.sigma - pb.sigma) <= 1e-4
                assert abs(pa.omega - pb.omega) <= 1e-4


class TestFirstStep:
    """The README demo plant at sigma0 -3.5 and kmax 500: 2,639 traced
    trajectories, almost all seeded at boundary crossings far from every
    root, which start at a step sized to that distance instead of H0."""

    @pytest.fixture(scope="class")
    def demo_500(self):
        calls = []  # one step_update per step taken, one per solve of a lockstep round
        step_update, step_update_many = tracer.step_update, tracer.step_update_many

        def counted(*args):
            calls.append(1)
            return step_update(*args)

        def counted_many(h, *args):
            calls.append(len(h))
            return step_update_many(h, *args)

        plant = parse_input(b'{"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}')
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracer, "step_update", counted)
            mp.setattr(tracer, "step_update_many", counted_many)
            res = run(plant, RegionSpec(-3.5, 500.0))
        return res, sum(calls)

    def test_corrector_calls_per_trajectory(self, demo_500):
        res, calls = demo_500
        traced = sum(1 for t in res.trajectories if not t.mirrored)
        assert calls <= 4 * traced  # 7.8 per trajectory from a first step of H0

    def test_topology(self, demo_500):
        res, _ = demo_500
        ends = Counter(type(t.termination).__name__ for t in res.trajectories)
        assert len(res.trajectories) == 5275
        assert ends == {"GainCap": 5272, "LeftRegion": 1, "ReachedBranch": 2}
        assert res.warnings == ()


def test_pass_record_answers_as_the_per_trajectory_rebuilds():
    # the record's probes above a gain and the real plant roots around a
    # start sigma (_Pass.ahead, which _advance reads) equal what the tracer
    # rebuilt for every trajectory before (oracles), in both gain passes:
    # at each seed's start gain, at each branch gain and between them, at
    # random sigmas and at each real plant root itself
    rng = np.random.RandomState(35)
    passes = probed = at_active_gain = at_root = 0
    for _ in range(200):
        plant = random_plant(rng, Plant)
        region = RegionSpec(*clean_region(plant, rng))
        for signed in (plant, plant.flipped_gain()):
            try:
                p, crossings = pass_of(signed, region)
                seeds = seed_points(p, crossings.inward)
            except DtLocusError:
                continue
            passes += 1
            gains = sorted({bp.Kval for bp in p.branches})
            between = [0.5 * (a + b) for a, b in zip(gains, gains[1:])]
            edges = [gains[0] - 1.0, gains[-1] + 1.0] if gains else [0.0]
            for K in [seed.start.Kval for seed in seeds] + gains + between + edges:
                want = reference_branch_probes(signed, p.branches, K)
                assert p.ahead(0.0, K)[0] == want, (signed, K)
                probed += bool(want)
            at_active_gain += sum(bp.active for bp in p.branches)
            real = [r.real for r in signed.zeros + signed.poles if r.imag == 0.0]
            lo, hi = min(real, default=-1.0) - 1.0, max(real, default=1.0) + 1.0
            sigmas = [*rng.uniform(lo, hi, 20), *real, region.sigma0,
                      *(seed.start.sigma for seed in seeds)]
            for sigma in sigmas:
                assert p.ahead(sigma, 0.0)[1:] == reference_axis_bounds(signed, sigma), sigma
            at_root += len(real)
    assert passes >= 380 and probed > 400 and at_active_gain > 100 and at_root > 800, (
        passes, probed, at_active_gain, at_root)


# corpus draws where a real-axis trajectory stepped past the branch point it
# was arriving at: into falling gain (124, 154, 607) or onto another sheet
# (429, 486, 656, 737); each step is now redone at half the length
_OVERSHOOT_CASES = [
    ({"alpha": 3.546259, "delay": 0.375937, "zeros": [],
      "poles": [[-0.524087, 0], [-0.053702, 0.911345], [-0.053702, -0.911345],
                [-1.654103, 1.074922], [-1.654103, -1.074922], [-2.091377, 0],
                [-0.524087, 0]]}, -2.367108, 0.648453, -1),
    ({"alpha": 4.814848, "delay": 0.519405, "zeros": [],
      "poles": [[0.180416, 0], [-1.626686, 1.349893], [-1.626686, -1.349893]]},
     -1.307978, 15.285959, 1),
    ({"alpha": 0.200721, "delay": 0.443282, "zeros": [[2.6086, 0]],
      "poles": [[-0.497711, 0], [-0.454203, 0], [-0.190637, 1.414825],
                [-0.190637, -1.414825], [-1.381718, 1.685196], [-1.381718, -1.685196],
                [-0.497711, 0]]}, -1.935781, 6.120233, -1),
    ({"alpha": 2.154809, "delay": 1.922042, "zeros": [],
      "poles": [[-0.970863, 0], [-0.586357, 0], [-0.102619, 0], [-0.102619, 0],
                [-1.261645, 0]]}, -0.447188, 0.664038, -1),
    ({"alpha": 2.701045, "delay": 0.746612,
      "zeros": [[2.47523, 0], [-0.229818, 2.881815], [-0.229818, -2.881815], [2.169531, 0],
                [0.674923, 0], [-1.275804, 0], [1.586002, 0]],
      "poles": [[-1.186247, 2.173751], [-1.186247, -2.173751], [0.464154, 1.102363],
                [0.464154, -1.102363], [-0.537021, 0], [-1.596583, 0], [0.19069, 0]]},
     -0.39214, 0.13813, 1),
    ({"alpha": 4.697289, "delay": 1.591063,
      "zeros": [[1.470681, 0.789899], [1.470681, -0.789899], [0.758655, 0]],
      "poles": [[-2.244591, 0], [-2.438812, 0], [-0.337875, 0], [-1.630465, 0],
                [-1.735954, 0], [-1.623342, 0]]}, -1.424064, 0.711628, -1),
    ({"alpha": 4.043233, "delay": 1.970284,
      "zeros": [[0.136769, 0.35326], [0.136769, -0.35326]],
      "poles": [[-0.295887, 0], [0.485879, 0], [-1.217395, 0]]}, 0.02383, 6.243304, 1),
]


@pytest.mark.parametrize("doc, sigma0, kmax, sign", _OVERSHOOT_CASES)
def test_branch_overshoot_is_redone(doc, sigma0, kmax, sign):
    res = run(parse_input(json.dumps(doc).encode()), RegionSpec(sigma0, kmax),
              TraceOptions(negative_gains=True))
    res = res if sign > 0 else res.negative
    # no step failure, no outward crossing without its one exit, no branch
    # point short of its arrivals
    assert res.warnings == ()


DEMO = b'{"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}'


class TestLooseTolerance:
    """At tol_corr 1e-2 a converged point may sit 1e-2 off the locus; the
    step rule must not read that as a bad step and shrink to H_MIN."""

    def test_p1(self, p1):
        res = run(p1, RegionSpec(-2.0, 1.0), TraceOptions(tol_corr=1e-2))
        assert not any(isinstance(t.termination, StepFailure) for t in res.trajectories)

    def test_demo_plant(self):
        res = run(parse_input(DEMO), RegionSpec(-3.5, 5.0), TraceOptions(tol_corr=1e-2))
        assert not any(isinstance(t.termination, StepFailure) for t in res.trajectories)
        assert sum(len(t.points) for t in res.trajectories) < 1000


class TestRejectAtFloor:
    """Each way a step is rejected halves it down to H_MIN, then ends the
    trajectory in StepFailure with that reason."""

    @pytest.fixture()
    def traced(self, monkeypatch):
        """[trajectory, [h of each step]] per traced seed."""
        traced = []
        step_update, trace = tracer.step_update, tracer.trace

        def recorded_step_update(h, *args):
            traced[-1][1].append(h)
            return step_update(h, *args)

        def recorded_trace(*args):
            traced.append([None, []])
            traced[-1][0] = trace(*args)
            return traced[-1][0]

        monkeypatch.setattr(tracer, "step_update", recorded_step_update)
        monkeypatch.setattr(tracer, "trace", recorded_trace)
        return traced

    def _assert_failed(self, traced, prefix, at_least=1):
        failed = [(t, steps) for t, steps in traced if isinstance(t.termination, StepFailure)]
        assert len(failed) >= at_least
        for t, steps in failed:
            assert t.termination.reason.startswith(prefix), t.termination.reason
            assert steps[-1] == H_MIN and steps[-2] <= 2.0 * H_MIN
        return failed

    def _outward_replaced(self, monkeypatch, crossings):
        """Trace every seed against crossings(outward) in place of outward,
        in a pass record rebuilt around them, exit gains included."""
        trace = tracer.trace

        def replaced(p, seed):
            return trace(tracer._make_pass(p.plant, p.region, p.branches, crossings(p.outward),
                                           p.tol), seed)

        monkeypatch.setattr(tracer, "trace", replaced)

    def test_region_exit_with_no_crossing(self, p1, monkeypatch, traced):
        # the pole trajectory leaves the region right of the branch point,
        # with no outward crossing to end at
        self._outward_replaced(monkeypatch, lambda outward: ())
        res = run(p1, RegionSpec(-0.5, 1.0))
        self._assert_failed(traced, "step left the region off every outward crossing at step ")
        assert len(res.crossings.outward) == 1
        assert any("ends 0 traced trajectories" in w for w in res.warnings)

    def test_region_exit_off_its_crossing_gain(self, p1, monkeypatch, traced):
        # the exit's crossing moved one unit of K down: at that gain the
        # trajectory is not at the crossing, and at its own exit gain there is
        # no crossing
        self._outward_replaced(monkeypatch, lambda outward: tuple(
            c._replace(Kval=c.Kval - 1.0) for c in outward))
        run(p1, RegionSpec(-0.5, 1.0))
        self._assert_failed(traced, "step left the region off every outward crossing at step ")

    def test_gain_cap_off_locus(self, p1, monkeypatch, traced):
        # every frozen-gain solve at the cap (ln kmax = 0) fails: each failed
        # cap step is halved, the cursor creeps up to the cap, and the step
        # shrinks with it until one no longer than H_MIN fails
        correct = tracer.correct

        def no_cap(plant, s, Kval, *args):
            if Kval == 0.0:
                return CorrectorOutcome(LocusPoint(s.real, s.imag, Kval), 20, math.inf, False)
            return correct(plant, s, Kval, *args)

        monkeypatch.setattr(tracer, "correct", no_cap)
        run(p1, RegionSpec(-2.0, 1.0))
        for t, _ in self._assert_failed(traced, "step underflow: step length "):
            assert t.points[-1].Kval < 0.0

    def test_step_passes_a_real_root(self, p2, monkeypatch, traced):
        # every real-axis step lands 3 to the right of its prediction, past
        # a real pole of the plant, and is redone
        correct = tracer.correct

        def jumping(plant, s, Kval, tol, max_iter, real):
            out = correct(plant, s, Kval, tol, max_iter, real)
            if not real or max_iter != MAX_ITER:  # off the axis, or a seed polish
                return out
            return CorrectorOutcome(LocusPoint(s.real + 3.0, 0.0, Kval), 1, 0.0, True, out.dlog)

        monkeypatch.setattr(tracer, "correct", jumping)
        run(p2, RegionSpec(-3.5, 5.0))
        self._assert_failed(traced, "step passed a real plant root at step ", at_least=3)


def _exit_crossing(res, t):
    """The outward crossing a region exit names, as a point on its side."""
    c = res.crossings.outward[t.termination.matched]
    return LocusPoint(res.region.sigma0, math.copysign(c.omega, t.points[-1].omega), c.Kval)


@pytest.mark.parametrize("plant, region", [
    (Plant(1.0, 1.0, (), (0j,)), RegionSpec(-0.5, 1.0)),
    (Plant(1.0, 1.0, (5 + 5j, 5 - 5j), (-0.5 + 0j, -1 + 0j, -2.5 + 0j)), RegionSpec(-3.5, 5.0)),
    (parse_input(b'{"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}'),
     RegionSpec(-3.5, 50.0)),
], ids=["integrator", "p2", "demo"])
def test_region_exits_are_their_crossings(plant, region):
    # every exit ends at its outward crossing, to the bit
    res = run(plant, region)
    exits = [t for t in res.trajectories if isinstance(t.termination, LeftRegion)]
    assert exits and res.warnings == ()
    for t in exits:
        assert t.points[-1] == _exit_crossing(res, t)


def test_region_exits_lie_on_the_boundary_line():
    # every exit ends exactly on Re(s) = sigma0 at its crossing.  Without
    # warnings each outward crossing ends exactly one unmirrored trajectory.
    rng = np.random.RandomState(23)
    exits = clean = 0
    for _ in range(60):
        plant = random_plant(rng, Plant)
        sigma0, kmax = clean_region(plant, rng)
        res = run(plant, RegionSpec(sigma0, kmax), TraceOptions(negative_gains=True))
        for r in (res, res.negative):
            ends = Counter()
            for t in r.trajectories:
                if isinstance(t.termination, LeftRegion):
                    assert t.points[-1] == _exit_crossing(r, t), (t.points[-1], sigma0)
                    exits += 1
                    ends[t.termination.matched] += not t.mirrored
            if r.warnings == ():
                assert ends == Counter(range(len(r.crossings.outward)))
                clean += bool(ends)
    assert exits >= 20 and clean >= 20


class TestOutwardCrossingCount:
    """Each outward crossing ends exactly one traced trajectory; one that
    ends another number, counted before _dedup, gets a warning."""

    @staticmethod
    def _warned(p2, count):
        res = run(p2, RegionSpec(-3.5, 5.0))
        (c,) = res.crossings.outward
        assert res.warnings == (
            f"outward crossing at omega={c.omega:.6g}, k={c.k:.6g} ends {count} traced "
            "trajectories, not 1",)
        return res

    def test_lost_exit_warns_once(self, p2, monkeypatch):
        # the third pole's exit is dropped: its crossing ends no trajectory
        trace = tracer.trace

        def lost(*args):
            t = trace(*args)
            if isinstance(t.termination, LeftRegion):
                return t._replace(termination=GainCap())
            return t

        monkeypatch.setattr(tracer, "trace", lost)
        self._warned(p2, 0)

    def test_doubled_exit_warns_although_deduplicated(self, p2, monkeypatch):
        # the third pole, which exits, is seeded twice; _dedup keeps one
        # copy, the count still reads two
        seed_points = tracer.seed_points

        def doubled(*args):
            seeds = seed_points(*args)
            return seeds + [s for s in seeds if s.start_marker == -2.5 + 0j]

        monkeypatch.setattr(tracer, "seed_points", doubled)
        res = self._warned(p2, 2)
        assert sum(isinstance(t.termination, LeftRegion) for t in res.trajectories) == 1


def assert_ends_on_locus(result, sigma0, tol=1e-6):
    for t in result.trajectories:
        assert not isinstance(t.termination, StepFailure), t.termination
        end = t.points[-1]
        assert end.sigma >= sigma0
        M, P = residuals(result.plant, end)
        assert max(abs(M), abs(P)) <= tol


class TestCorpusRegressions:
    """Random corpus draws that once broke the tracer."""

    @staticmethod
    def _arrivals_match(res):
        # every active branch point is reached by exactly its multiplicity
        arrivals = Counter(t.termination.index for t in res.trajectories
                           if isinstance(t.termination, ReachedBranch))
        for bi, bp in enumerate(res.branch_points):
            if bp.active:
                assert arrivals[bi] == bp.multiplicity, (bp, arrivals[bi])

    @staticmethod
    def _distinct_cap_ends(res):
        ends = [t.points[-1].s for t in res.trajectories if isinstance(t.termination, GainCap)]
        for i, a in enumerate(ends):
            assert all(abs(a - b) > 1e-6 for b in ends[i + 1:]), a

    def test_branch_point_not_over_captured(self):
        # corpus seed 101 job 22: all seven pole trajectories, the pole at
        # -0.673 among them 0.85 away, were captured by the double branch
        # point -1.527 (K -6.083) inside its radius 0.5(1 + |s*|), with no
        # warning; six roots live at K -0.023, where two trajectories were
        plant = parse_input(json.dumps({
            "alpha": 1.078556, "delay": 0.398065,
            "zeros": [[1.251255, 2.108382], [1.251255, -2.108382]],
            "poles": [[-1.842559, 0.0], [-2.726549, 0.376469], [-2.726549, -0.376469],
                      [-2.477959, 0.0], [-0.673334, 0.0], [-1.158574, 0.0], [-1.158574, 0.0]],
        }).encode())
        res = run(plant, RegionSpec(-2.886095, 19.625275))
        assert any(bp.active and abs(bp.s - -1.527) < 1e-3 for bp in res.branch_points)
        self._arrivals_match(res)
        assert res.warnings == ()
        assert_ends_on_locus(res, -2.886095)

    def test_branch_point_not_captured_across_a_pole(self):
        # corpus seed 101 job 429, negative gains: the right-going ray of the
        # double pole -0.102619 was recorded as arriving at -0.33596, 0.31
        # away on the other side of its own pole; that branch point got three
        # arrivals, with no warning
        plant = parse_input(json.dumps({
            "alpha": 2.154809, "delay": 1.922042, "zeros": [],
            "poles": [[-0.970863, 0.0], [-0.586357, 0.0], [-0.102619, 0.0], [-0.102619, 0.0],
                      [-1.261645, 0.0]],
        }).encode())
        res = run(plant, RegionSpec(-0.447188, 0.664038), TraceOptions(negative_gains=True))
        neg = res.negative
        assert any(bp.active and abs(bp.s - -0.33596) < 1e-4 for bp in neg.branch_points)
        self._arrivals_match(neg)
        assert neg.warnings == ()
        assert_ends_on_locus(neg, -0.447188)

    def test_region_exit_inside_the_step_gain_window(self):
        # corpus seed 101 job 122: a step from -0.6212 (K -6.9318) converged
        # at -3.6414+3.5364j (K -6.8044), on another sheet, and its exit
        # solve was accepted below the step's gain window: an unmatched exit
        # at omega -3.7497 and "traced 1 and 2" at the branch point -0.717
        plant = parse_input(json.dumps({
            "alpha": 4.511525, "delay": 1.927351, "zeros": [[-2.419353, 0.0]],
            "poles": [[-0.540948, 0.0], [-0.947872, 0.0]],
        }).encode())
        res = run(plant, RegionSpec(-1.461703, 1.630979))
        assert res.warnings == ()
        self._arrivals_match(res)
        assert all(t.termination.matched is not None for t in res.trajectories
                   if isinstance(t.termination, LeftRegion))
        assert_ends_on_locus(res, -1.461703)

    @pytest.mark.parametrize("doc, sigma0, kmax, sign", [
        # corpus seed 101 job 377 (positive gains): poles 1 and 2 both ended
        # at the cap root 1.185709
        ({"alpha": 2.098697, "delay": 1.21405,
          "zeros": [[-0.16239, 2.59566], [-0.16239, -2.59566], [2.581496, 0.0]],
          "poles": [[-1.50594, 0.0], [-1.027277, 0.0], [-0.569376, 0.0], [-1.747907, 0.0]]},
         -1.156699, 5.162854, 1),
        # job 407 (negative gains): poles 4 and 5 at 1.076415
        ({"alpha": -4.377459, "delay": 1.210658,
          "zeros": [[-0.816071, 2.503608], [-0.816071, -2.503608], [2.033694, 0.0]],
          "poles": [[0.344713, 0.679797], [0.344713, -0.679797], [-1.725447, 0.0],
                    [-2.242591, 0.0], [-0.053281, 0.0], [0.227897, 0.0], [-0.051997, 0.0],
                    [-0.053281, 0.0]]},
         -1.18388, 1.0109, -1),
        # job 492 (positive gains): poles 2 and 3 at -1.437469
        ({"alpha": 2.486798, "delay": 0.907598,
          "zeros": [[1.971108, 0.0], [-0.906097, 2.486549], [-0.906097, -2.486549],
                    [-0.266434, 1.324928], [-0.266434, -1.324928], [-1.078665, 0.0],
                    [-2.836575, 0.0]],
          "poles": [[-0.687635, 1.344749], [-0.687635, -1.344749], [-0.059702, 0.0],
                    [-1.085837, 0.0], [-0.348326, 1.15786], [-0.348326, -1.15786],
                    [0.078638, 0.0]]},
         -2.94571, 0.013875, 1),
    ])
    def test_real_poles_end_at_distinct_cap_roots(self, doc, sigma0, kmax, sign):
        # two real-axis pole trajectories ended at one cap root and both were
        # kept, so that root was listed twice and another was missing
        res = run(parse_input(json.dumps(doc).encode()), RegionSpec(sigma0, kmax),
                  TraceOptions(negative_gains=True))
        res = res if sign > 0 else res.negative
        self._distinct_cap_ends(res)
        self._arrivals_match(res)
        assert res.warnings == ()
        assert_ends_on_locus(res, sigma0)

    @pytest.mark.parametrize("doc, sigma0, kmax, sign", [
        # corpus seed 111 job 782 (negative gains): the pole -0.71306+2.709039j
        # reached -1.073692+2.134033j at K -2.03512, 0.004 right of sigma0 and
        # 0.045 below its crossing's gain; the next step converged back inside,
        # on the sheet entering at omega 1.84767, and two trajectories ended
        # 1e-6 apart at one cap root
        ({"alpha": 4.737496, "delay": 0.767232, "zeros": [[-2.024994, 0.0]],
          "poles": [[-0.71306, 2.709039], [-0.71306, -2.709039]]},
         -1.077657, 0.562122, -1),
        # seed 106 job 592 (positive gains): the crossing at omega 2.20471
        # ended no trajectory, and _dedup dropped one
        ({"alpha": -1.97003, "delay": 1.776829, "zeros": [],
          "poles": [[0.452499, 0.0], [0.111975, 0.0], [0.091949, 2.156733],
                    [0.091949, -2.156733]]},
         -0.554425, 19.224346, 1),
        # seed 107 job 271 (positive gains): the crossing at omega 2.66082
        ({"alpha": -4.653878, "delay": 1.919645, "zeros": [[-0.3948, 0.0]],
          "poles": [[0.059108, 0.0], [-0.1859, 0.0], [-0.891113, 2.887738],
                    [-0.891113, -2.887738]]},
         -1.226265, 1.000357, 1),
        # seed 110 job 327 (negative gains): the crossing at omega 2.70076
        ({"alpha": -4.454473, "delay": 1.801103,
          "zeros": [[-2.471892, 2.593291], [-2.471892, -2.593291]],
          "poles": [[-2.309278, 0.0], [0.347747, 2.742446], [0.347747, -2.742446],
                    [-1.314408, 0.0], [-0.643159, 2.548332], [-0.643159, -2.548332],
                    [-1.189571, 2.963179], [-1.189571, -2.963179]]},
         -0.767842, 4.69366, -1),
    ])
    def test_region_exit_not_lost(self, doc, sigma0, kmax, sign):
        # a step jumped back across Re(s) = sigma0 between two event gains, so
        # the exit test never ran: the trajectory went on along another sheet
        # and its outward crossing ended no trajectory
        res = run(parse_input(json.dumps(doc).encode()), RegionSpec(sigma0, kmax),
                  TraceOptions(negative_gains=True))
        assert res.warnings == () and res.negative.warnings == ()
        res = res if sign > 0 else res.negative
        ends = Counter(t.termination.matched for t in res.trajectories
                       if isinstance(t.termination, LeftRegion) and not t.mirrored)
        assert res.crossings.outward and ends == Counter(range(len(res.crossings.outward)))
        self._distinct_cap_ends(res)
        assert_ends_on_locus(res, sigma0)

    def test_corrector_overflow_does_not_abort(self):
        # an unconverged correction reached M > 709, and e^M overflowed
        plant = parse_input(json.dumps({
            "alpha": 3.412644, "delay": 0.922339,
            "zeros": [[1.371709, 0], [2.99103, 1.594607], [2.99103, -1.594607]],
            "poles": [[-1.148499, 0], [-0.409626, 0], [-2.373166, 1.27043],
                      [-2.373166, -1.27043], [0.440626, 0], [-1.712378, 0]],
        }).encode())
        res = run(plant, RegionSpec(-1.004888, 4.142812), TraceOptions(negative_gains=True))
        assert_ends_on_locus(res, -1.004888)
        assert_ends_on_locus(res.negative, -1.004888)

    def test_gain_cap_end_stays_in_region(self):
        # the cap refinement used to jump to a root left of sigma0
        plant = parse_input(json.dumps({
            "alpha": 1.857143, "delay": 0.801721,
            "zeros": [[2.175579, 0], [-1.226473, 0], [-2.717868, 1.696558],
                      [-2.717868, -1.696558], [-0.364887, 0], [-0.950146, 0]],
            "poles": [[-0.424364, 2.077631], [-0.424364, -2.077631], [-1.806685, 0],
                      [-0.280896, 2.181938], [-0.280896, -2.181938], [-1.65713, 0]],
        }).encode())
        res = run(plant, RegionSpec(-2.422133, 0.038617))
        assert_ends_on_locus(res, -2.422133)
        assert any(isinstance(t.termination, GainCap) for t in res.trajectories)

    def test_real_axis_gain_cap_end_stays_on_locus(self):
        # the real-axis cap bisection used to return an unrefined point
        plant = parse_input(json.dumps({
            "alpha": 1.468577, "delay": 0.534714, "zeros": [[2.035526, 0]],
            "poles": [[-2.544574, 0], [-0.165133, 0], [-1.755284, 0]],
        }).encode())
        res = run(plant, RegionSpec(-2.466171, 2.568576), TraceOptions(negative_gains=True))
        assert_ends_on_locus(res, -2.466171)
        assert_ends_on_locus(res.negative, -2.466171)
        assert any(isinstance(t.termination, GainCap) for t in res.negative.trajectories)
        # corpus seed 101 job 682: a cap solve extrapolated from a step that
        # ends below the cap lands on the departure's cap point, and both
        # departures of the branch point near -0.6009 are then dropped
        neg = res.negative
        assert neg.warnings == ()
        (bi,) = [i for i, bp in enumerate(neg.branch_points)
                 if bp.active and abs(bp.s - -0.6009) < 1e-3]
        departures = [t for t in neg.trajectories
                      if isinstance(t.origin, BranchOrigin) and t.origin.index == bi]
        assert len(departures) == 2
        assert all(isinstance(t.termination, GainCap) for t in departures)

    def test_real_axis_cap_bracket_skips_plant_root(self):
        # corpus seed 101 job 541: the last step of the pole at 0.132068 jumps
        # from -0.161 to +0.352, across the poles 0.132068 and 0.20331; the
        # cap bisection over that bracket returned the other pole's cap point
        # and the trajectory was dropped as its duplicate
        plant = parse_input(json.dumps({
            "alpha": -4.96985, "delay": 1.902015,
            "zeros": [[0.974576, 1.02104], [0.974576, -1.02104]],
            "poles": [[-2.667288, 0], [0.20331, 0], [0.132068, 0],
                      [-2.755341, 2.90241], [-2.755341, -2.90241]],
        }).encode())
        res = run(plant, RegionSpec(-0.313378, 0.395235))
        assert_ends_on_locus(res, -0.313378)
        (left,) = [t for t in res.trajectories if t.start_marker == 0.132068]
        assert isinstance(left.termination, LeftRegion)
        assert left.termination.matched is not None
        assert res.warnings == ()

    def test_real_axis_cap_end_stays_on_the_axis(self):
        # corpus seed 101 job 15: the cap end of the pole 0.105973 drifted to
        # omega 3.59e-9 and was mirrored into a duplicate of itself
        plant = parse_input(json.dumps({
            "alpha": -1.404062, "delay": 1.255026, "zeros": [[2.241379, 0.0]],
            "poles": [[-2.961157, 1.476593], [-2.961157, -1.476593], [0.105973, 0.0]],
        }).encode())
        res = run(plant, RegionSpec(-0.786556, 0.583048))
        assert len(res.trajectories) == 2
        assert not any(t.mirrored for t in res.trajectories)
        (pole,) = [t for t in res.trajectories if t.start_marker == 0.105973]
        assert isinstance(pole.termination, GainCap)
        assert pole.points[-1].omega == 0.0
        assert_ends_on_locus(res, -0.786556)

    def test_real_axis_pole_leaves_before_the_crossing_cap_root(self):
        # corpus seed 101 job 534: the pole -0.408936 ended on the crossing
        # trajectory's cap root -0.809574+0.478216j, counting it twice; on
        # the axis between it and the zero -1.207795 it must leave at sigma0
        plant = parse_input(json.dumps({
            "alpha": 0.787449, "delay": 1.797276, "zeros": [[-1.207795, 0.0]],
            "poles": [[-0.104843, 1.985933], [-0.104843, -1.985933], [0.243768, 1.619587],
                      [0.243768, -1.619587], [-2.411496, 0.0], [-1.327767, 0.0],
                      [-0.408936, 0.0], [-2.391152, 0.0]],
        }).encode())
        res = run(plant, RegionSpec(-1.012989, 9.000215))
        assert_ends_on_locus(res, -1.012989)
        (pole,) = [t for t in res.trajectories if t.start_marker == -0.408936]
        assert isinstance(pole.termination, LeftRegion)
        assert pole.termination.matched is not None
        end = pole.points[-1]
        assert (end.sigma, end.omega) == (-1.012989, 0.0)
        cap_ends = [t for t in res.trajectories if abs(t.points[-1].s - (-0.809574 + 0.478216j)) < 1e-5]
        assert len(cap_ends) == 1
        assert res.warnings == ()

    def test_falling_step_left_of_boundary_is_redone(self):
        # draw 43 of the region-exit test's sequence, negative gains: a step
        # from -0.6998+0.3022j lands left of sigma0 with falling gain; taken
        # as a region exit, it left an unmatched exit at omega 0.302 and the
        # branch point at -0.6731 with "traced 0 and 2"
        rng = np.random.RandomState(23)
        for _ in range(44):
            plant = random_plant(rng, Plant)
            sigma0, kmax = clean_region(plant, rng)
        assert abs(sigma0 - -1.04245) < 1e-5 and abs(kmax - 3.11263) < 1e-5
        res = run(plant, RegionSpec(sigma0, kmax), TraceOptions(negative_gains=True))
        assert res.warnings == () and res.negative.warnings == ()
        assert_ends_on_locus(res.negative, sigma0)

    def test_biproper_kprime_has_exact_degree(self):
        # a bi-proper K' loses its leading term (C_1 = 0, exactly); a 1e-16
        # residue of it once made a spurious root near 1e16 and an omega cap
        # near 1e17, and the crossing search ran for millions of pieces
        plant = parse_input(json.dumps({
            "alpha": -0.416151, "delay": 0.145683,
            "zeros": [[1.747341, 0.413925], [1.747341, -0.413925],
                      [0.845759, 0.566891], [0.845759, -0.566891]],
            "poles": [[0.07467, 1.7916], [0.07467, -1.7916],
                      [-0.56304, 1.788567], [-0.56304, -1.788567]],
        }).encode())
        region = RegionSpec(-1.264558, 0.434758)
        for signed in (plant, plant.flipped_gain()):
            bf = boundary_functions(signed, region)
            assert bf.kprime_roots[0] == 0.0 and bf.kprime_roots[-1] < 10.0
            assert _omega_cap(bf, region) < 1e3
        res = run(plant, region, TraceOptions(negative_gains=True))
        assert_ends_on_locus(res, -1.264558)
        assert_ends_on_locus(res.negative, -1.264558)
        assert res.warnings == () and res.negative.warnings == ()

    def test_branch_departures_leave_real_point_vertically(self):
        # corpus seed 408 job 461: the departures out of the real branch point
        # near -1.668 once came from a secant of the arriving trajectory
        plant = parse_input(json.dumps({
            "alpha": -4.905108, "delay": 1.420699,
            "zeros": [[-1.497614, 0.829942], [-1.497614, -0.829942], [-0.781329, 0],
                      [1.814507, 1.017389], [1.814507, -1.017389], [1.873596, 0]],
            "poles": [[-0.715817, 0], [-0.827853, 0], [-0.781923, 0], [-1.158687, 0],
                      [-2.912805, 0.337496], [-2.912805, -0.337496]],
        }).encode())
        res = run(plant, RegionSpec(-1.747593, 0.008512))
        assert res.branch_points[1].s == pytest.approx(-1.668, abs=1e-3)
        angles = [t.origin.angle for t in res.trajectories
                  if isinstance(t.origin, BranchOrigin) and t.origin.index == 1]
        assert sorted(angles) == pytest.approx([-math.pi / 2, math.pi / 2], abs=1e-9)

    def test_unrefined_region_exit_not_recorded(self):
        # corpus seed 405 job 12: the exit refinement did not converge and
        # the interpolated exit point, off the locus, ended the trajectory
        plant = parse_input(json.dumps({
            "alpha": 0.594576, "delay": 1.435631,
            "zeros": [[-1.661074, 0], [2.520345, 0], [-2.200218, 0], [1.444943, 0]],
            "poles": [[-0.848337, 0], [0.329148, 2.4933], [0.329148, -2.4933],
                      [-0.495952, 0]],
        }).encode())
        res = run(plant, RegionSpec(-0.926796, 0.222289), TraceOptions(negative_gains=True))
        assert_ends_on_locus(res, -0.926796)
        assert_ends_on_locus(res.negative, -0.926796)
        assert res.warnings == () and res.negative.warnings == ()

    def test_unrefined_region_exit_negative_gains(self):
        # corpus seed 402 job 230: the same, on the negative-gain pass
        plant = parse_input(json.dumps({
            "alpha": -2.119636, "delay": 1.237318,
            "zeros": [[-1.731972, 1.498028], [-1.731972, -1.498028]],
            "poles": [[-1.484862, 2.059444], [-1.484862, -2.059444],
                      [-1.288251, 1.398539], [-1.288251, -1.398539], [-2.965099, 0],
                      [0.244868, 1.469025], [0.244868, -1.469025], [-2.240541, 0]],
        }).encode())
        res = run(plant, RegionSpec(-2.151683, 12.266624), TraceOptions(negative_gains=True))
        assert_ends_on_locus(res, -2.151683)
        assert_ends_on_locus(res.negative, -2.151683)
        assert res.warnings == () and res.negative.warnings == ()

    def test_branch_departure_between_close_poles(self):
        # corpus seed 405 job 183: the poles -1.117539 and -1.115777 are
        # 1.8e-3 apart with a branch point between them; the departure seeded
        # at -1.11666+0.00212j (k 2.9e-7) along the ray, with no gain in its
        # direction, underflowed before its first step
        plant = parse_input(json.dumps({
            "alpha": 3.106323, "delay": 0.729426,
            "zeros": [[-2.505918, 2.237048], [-2.505918, -2.237048]],
            "poles": [[-1.117539, 0], [-0.268133, 0.968595], [-0.268133, -0.968595],
                      [-2.71468, 0], [-1.115777, 0]],
        }).encode())
        res = run(plant, RegionSpec(-2.402994, 6.621255), TraceOptions(negative_gains=True))
        assert not any(isinstance(t.termination, StepFailure) for t in res.trajectories)
        assert res.warnings == ()
        assert_ends_on_locus(res, -2.402994)

    def test_step_after_sheet_jump_heads_up_the_locus(self):
        # corpus seed 101 job 231, negative gains: the trajectory of the pole
        # -2.24463+2.722738j takes a halved step that converges on another
        # sheet; the secant of that step pointed back down the locus, so
        # every later step lost gain and the trajectory underflowed
        plant = parse_input(json.dumps({
            "alpha": 3.922218, "delay": 0.343679,
            "zeros": [[-0.372245, 0], [-2.335929, 1.7766], [-2.335929, -1.7766]],
            "poles": [[-2.24463, 2.722738], [-2.24463, -2.722738], [-0.92018, 0],
                      [-0.016623, 1.685557], [-0.016623, -1.685557], [-0.290349, 0]],
        }).encode())
        res = run(plant, RegionSpec(-3.104679, 16.582898), TraceOptions(negative_gains=True))
        neg = res.negative
        assert not any(isinstance(t.termination, StepFailure) for t in neg.trajectories)
        assert neg.warnings == ()
        pole = [t for t in neg.trajectories if isinstance(t.origin, PoleOrigin)
                and abs(neg.plant.poles[t.origin.index] - (-2.24463 + 2.722738j)) < 1e-9]
        assert len(pole) == 1 and isinstance(pole[0].termination, GainCap)
        assert_ends_on_locus(neg, -3.104679)

    def test_branch_departure_seed_stays_in_region(self):
        # corpus seed 405 job 90: a real branch point 1.6e-3 right of sigma0
        # departs along the axis toward the boundary; a seed placed the usual
        # 3.6e-3 away would start left of sigma0
        plant = parse_input(json.dumps({
            "alpha": -4.007204, "delay": 0.825813,
            "zeros": [[1.266502, 0], [-1.842266, 0]],
            "poles": [[-0.597835, 1.633674], [-0.597835, -1.633674],
                      [-0.673553, 1.383274], [-0.673553, -1.383274],
                      [-2.720488, 0.345289], [-2.720488, -0.345289],
                      [-1.864961, 0], [-1.693723, 0]],
        }).encode())
        res = run(plant, RegionSpec(-2.640953, 8.165603))
        assert res.branch_points[0].s.real - -2.640953 == pytest.approx(1.6e-3, abs=1e-4)
        assert_ends_on_locus(res, -2.640953)
        (left,) = [t for t in res.trajectories
                   if isinstance(t.origin, BranchOrigin) and t.origin.angle == math.pi]
        assert all(p.sigma >= -2.640953 for p in left.points)
        assert left.termination == LeftRegion(0)


class TestPoleSeedsAtTheCap:
    """A pole seed is placed by the pole's local model, at the cap when the
    whole trajectory lies within its seeding radius, so no trajectory rises
    above kmax."""

    # corpus seed 101, job 201: the fixed step 1e-3(1 + |p|) off the
    # right-half-plane pole 0.297017 lies at k = 2.87 (2.86 for negative
    # gains), far above kmax
    PLANT = Plant(1.890989, 1.587676, (2.50146 + 0j, -0.607964 + 0j), (
        -2.962119 + 0j, -2.881959 + 2.052216j, -2.881959 - 2.052216j, -0.770574 + 2.899675j,
        -0.770574 - 2.899675j, 0.297017 + 0j, -2.443224 + 2.040307j, -2.443224 - 2.040307j))
    REGION = RegionSpec(-1.607544, 0.394262)

    def test_right_half_plane_pole_ends_at_the_cap(self):
        res = run(self.PLANT, self.REGION, TraceOptions(negative_gains=True))
        for signed in (res, res.negative):
            (traj,) = [t for t in by_origin(signed, PoleOrigin) if t.start_marker == 0.297017]
            assert traj.termination == GainCap()
            assert traj.array[-1, 2] == self.REGION.lnkmax
            assert (traj.array[:, 2] <= self.REGION.lnkmax).all()
            M, P = residuals(signed.plant, traj.points[0])
            assert max(abs(M), abs(P)) <= TraceOptions().tol_corr

    def test_model_places_the_cap_point(self, monkeypatch):
        # the cap point's polish starts within 2% of the root's distance from
        # the pole: the bare pole's radius R e^((ln kmax - K_R)/m) lies a
        # fifth short of it here, and the first-order term for the rest of
        # the plant takes up all but a few hundredths of that
        starts, correct = [], tracer.correct

        def recorded(plant, s, *args):
            starts.append(s)
            return correct(plant, s, *args)

        monkeypatch.setattr(tracer, "correct", recorded)
        for plant in (self.PLANT, self.PLANT.flipped_gain()):
            starts.clear()
            (seed,) = [s for s in seeds_of(plant, self.REGION) if s.start_marker == 0.297017]
            assert seed.start.Kval == self.REGION.lnkmax
            start = min(starts, key=lambda s: abs(s - seed.start.s))
            assert abs(start - seed.start.s) <= 0.02 * abs(seed.start.s - 0.297017)

    def test_random_plants_stay_below_the_cap(self):
        rng = np.random.RandomState(41)
        tol = TraceOptions().tol_corr
        capped = 0
        for _ in range(40):
            plant = random_plant(rng, Plant)
            region = RegionSpec(*clean_region(plant, rng))
            res = run(plant, region, TraceOptions(negative_gains=True))
            for signed in (res, res.negative):
                for traj in signed.trajectories:
                    assert np.exp(traj.array[:, 2]).max() <= region.kmax * (1.0 + 1e-12), traj
                    if isinstance(traj.origin, PoleOrigin):
                        M, P = residuals(signed.plant, traj.points[0])
                        assert max(abs(M), abs(P)) <= tol, traj
                        capped += len(traj.array) == 1
        assert capped > 0  # some pole trajectories are their one point at the cap


def _close_cap_ends(result):
    """Pairs of GainCap ends of one gain pass within 1e-4 in |dsigma| +
    |domega| of each other, mirror images included: two trajectories on
    one root."""
    ends = [t.array[-1, :2] for t in result.trajectories if t.termination == GainCap()]
    return [(a, b) for i, a in enumerate(ends) for b in ends[i + 1:]
            if np.abs(a - b).sum() <= 1e-4]


class TestStepsStayOnTheirSheet:
    """Benchmark jobs where a step predicted by the two-point Hermite cubic,
    or by the tangent where the cubic was left out, converged on another
    root's sheet; each step bent by the cursor's own Taylor term stays on
    its own.  The plants are those of the workload jobs named."""

    def test_corpus_139_76_arrives_at_the_branch_point(self):
        # the +pi/2 departure from the double branch point at -0.606514 used
        # to land on a pole trajectory's sheet, so the break-in at 0.349802
        # had no arrival: "expects 2 arrivals and departures, traced 0 and 2"
        plant = Plant(3.454935, 1.028828, (2.373544 + 0j, 0.10322 + 0j), (
            -0.188549 + 0j, 0.258711 + 0.876252j, 0.258711 - 0.876252j, -1.921772 + 0j))
        res = run(plant, RegionSpec(-1.554785, 5.399994))
        assert any(abs(bp.s - 0.349802) < 1e-6 and bp.active for bp in res.branch_points)
        assert res.warnings == ()

    def test_corpus_203_264_ends_on_distinct_roots(self):
        plant = Plant(-1.983502, 0.921258, (0.361547 + 0j,), (
            -1.588912 + 0j, -1.041292 + 0j, -1.180978 + 1.449563j, -1.180978 - 1.449563j,
            -2.333674 + 0j, -0.777649 + 0j, -0.533294 + 0j))
        res = run(plant, RegionSpec(-2.700074, 3.057365), TraceOptions(negative_gains=True))
        for signed in (res, res.negative):
            assert _close_cap_ends(signed) == []
            assert signed.warnings == ()

    def test_highorder_120_3_ends_on_distinct_roots(self):
        plant = parse_input(json.dumps({
            "num": [3680676.0554197757, -3402426.9295653906, -5704726.0164178265,
                    3650210.8434634022, 2454209.2604227327, -632332.2212635723,
                    123076.45062780182, 152287.26412608798, -23893.17118735506,
                    5603.321755679328, 2983.273738200688, -546.7925077464793,
                    219.88818295648443, 17.307301429539237, -7.202226955419999, 2.46593],
            "den": [-1850798.5638940409, 5477546.479504561, 3381867.968421991,
                    -11135669.76114763, -9196365.421289925, 2766189.529556337,
                    7517358.897180534, 6565852.416598487, 4251790.255705946,
                    2168426.647033845, 909425.4592723339, 327173.4052315616,
                    100724.1419189405, 26421.76091154191, 5899.817785189802,
                    1091.1383096259544, 160.27382275725202, 17.220279, 1.0],
            "delay": 0.165874}).encode())
        res = run(plant, RegionSpec(-3.656635, 18.717722), TraceOptions(negative_gains=True))
        for signed in (res, res.negative):
            assert _close_cap_ends(signed) == []
            assert signed.warnings == ()


Step = namedtuple("Step", "kind got rule slack plain bend oversized first after_probe "
                           "cursor priced")


def _replayed_steps(plant, region, monkeypatch):
    """Every step of every trajectory of one gain sign, replayed against the
    predictor rule: one Step per prediction, with the prediction the tracer
    made (got), the rule's (rule, to within rounding: slack), the plain
    tangent's, the Taylor bend, whether the bend is more than half the
    tangent step (oversized), whether the step is its trajectory's first or
    the last accepted step stopped at a branch probe gain (after_probe), the
    cursor it starts from and the points the tracer took dlog' at while
    predicting it (priced).

    At the cursor s, with D = dlog, v = -1/D and D' = _dlog_prime (their
    real parts on the axis), the second-order Taylor polynomial of s(K)
    predicts s + t v + 1/2 t^2 D' v^3 at K + t.  Its bend applies to every
    step but the cap step (``cap``) and a bend more than half the tangent
    step in size (``oversized``); every other step bends (``bent``).
    """
    p, crossings = pass_of(plant, region)
    seeds = seed_points(p, crossings.inward)
    calls, priced = [], []
    correct, dlog_prime = tracer.correct, tracer._dlog_prime

    def recorded(*args):
        out = correct(*args)
        calls.append((args[1], args[2], out, priced[:]))
        priced.clear()
        return out

    def recorded_prime(plant, s):
        priced.append(s)
        return dlog_prime(plant, s)

    monkeypatch.setattr(tracer, "correct", recorded)
    monkeypatch.setattr(tracer, "_dlog_prime", recorded_prime)
    steps = []
    for seed in seeds:
        calls.clear()
        traj = tracer.trace(p, seed)
        if not calls:
            continue  # a seed at the cap takes no step
        real = seed.start.omega == 0.0
        probe_gains = {K for K, _, _ in reference_branch_probes(plant, p.branches,
                                                                seed.start.Kval)}
        tries, dlog = calls, seed.dlog  # a polished seed carries dlog at its start
        if dlog is None:  # else trace takes it by a first, zero-iteration correct
            (_, _, start, _), *tries = calls
            dlog = start.dlog
        accepted = iter(traj.points[1:])
        following = next(accepted, None)
        s, K, first, after_probe = seed.start.s, seed.start.Kval, True, False
        for s_in, K1, out, at in tries:
            slope = dlog.real if real else dlog
            v = -1.0 / slope
            curv = 0.5 * _dlog_prime(plant, s) * (v * v * v)
            t = K1 - K
            plain = s + t * v
            bend = t * t * (curv.real if real else curv)
            oversized = abs(bend) > 0.5 * abs(t * v)
            kind = "cap" if K1 >= region.lnkmax else "oversized" if oversized else "bent"
            rule = s + (t * v + bend) if kind == "bent" else plain
            slack = 1e-12 * (abs(s) + abs(t * v)) if kind == "bent" else 0.0
            steps.append(Step(kind, s_in, rule, slack, plain, bend, oversized, first,
                              after_probe, s, at))
            if out.point != following:
                continue  # rejected: the cursor stays
            following = next(accepted, None)
            s, K, dlog, first, after_probe = out.point.s, K1, out.dlog, False, K1 in probe_gains
    return steps


class TestHermitePredictor:
    """Each step is predicted from the cursor alone, along the second-order
    Taylor polynomial of s(K) (the class keeps the name of the two-point
    Hermite cubic it replaced), with two guards: no bend larger than half
    the tangent step, and none on the cap step."""

    @pytest.fixture(scope="class")
    def steps(self):
        rng = np.random.RandomState(31)
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            for _ in range(12):
                plant = random_plant(rng, Plant)
                region = RegionSpec(*clean_region(plant, rng))
                for signed in (plant, plant.flipped_gain()):
                    try:
                        steps += _replayed_steps(signed, region, mp)
                    except DtLocusError:
                        continue
        return steps

    def test_every_prediction_follows_the_rule(self, steps):
        kinds = Counter(step.kind for step in steps)
        assert set(kinds) == {"cap", "oversized", "bent"}, kinds
        assert kinds["bent"] > 5 * kinds["oversized"]
        for step in steps:
            assert abs(step.got - step.rule) <= step.slack, step
        bent = [step for step in steps if step.kind == "bent"]
        assert sum(abs(step.bend) > 1e3 * step.slack for step in bent) > 0.9 * len(bent)

    def test_dlog_prime_is_taken_once_per_cursor(self, steps):
        # on the first step from a cursor that is not the cap step, and on
        # no other; a rejected step keeps the cursor's
        seen = set()
        for step in steps:
            fresh = step.kind != "cap" and step.cursor not in seen
            assert step.priced == ([step.cursor] if fresh else []), step
            if fresh:
                seen.add(step.cursor)

    def test_first_step_and_step_after_a_probe_cut_bend(self, steps):
        # the cursor's own derivatives need no earlier point, so a
        # trajectory's first step and a step after one cut short at a branch
        # probe gain bend like any other
        for which in ("first", "after_probe"):
            bent = [step for step in steps if getattr(step, which) and step.kind == "bent"]
            assert bent, which
            for step in bent:
                assert step.got != step.plain, step
                assert abs(step.got - step.rule) <= step.slack, step

    def test_oversized_bend_is_dropped(self, steps):
        dropped = [step for step in steps if step.kind == "oversized"]
        assert dropped
        for step in dropped:
            assert step.got == step.plain != step.plain + step.bend

    def test_axis_bend_stays_on_the_axis(self):
        # with conjugate pairs stored apart, dlog' summed in stored order at a
        # real point keeps a rounding residue in its imaginary part; the
        # bend takes its real part, so real-axis trajectories keep omega 0
        plant = Plant(1.3, 0.7, (1 + 1j, 0.5 + 2.5j, 1 - 1j, 0.5 - 2.5j),
                      (-1 + 1j, -0.5 + 2j, -1 - 1j, -0.5 - 2j, -0.3 + 0j, -2 + 0j))
        res = run(plant, RegionSpec(-3.5, 10.0), TraceOptions(negative_gains=True))
        on_axis = [t for signed in (res, res.negative) for t in signed.trajectories
                   if t.array[0, 1] == 0.0]
        assert len(on_axis) == 4
        for traj in on_axis:
            assert (traj.array[:, 1] == 0.0).all(), traj

    def test_cap_step_does_not_bend(self, p1, monkeypatch):
        # on the integrator's negative-gain axis the cap step would bend by a
        # nonzero amount within the other guard; it predicts along the
        # tangent instead, and its Newton solve ends on Lambert W0
        steps = _replayed_steps(p1.flipped_gain(), RegionSpec(-2.0, 1.0), monkeypatch)
        caps = [step for step in steps if step.kind == "cap"]
        assert caps
        for step in caps:
            assert step.got == step.plain
            assert step.priced == []
        assert any(not step.oversized and step.plain + step.bend != step.plain for step in caps)

    def test_newton_iterations_per_accepted_step(self, monkeypatch):
        # the Taylor predictor lands closer to the locus than the tangent did:
        # over these draws the tangent predictor took 1.08 Newton iterations per
        # accepted step, the two-point Hermite cubic 0.62, the Taylor one 0.56
        counts = Counter()
        step_update, correct_many = tracer.step_update, tracer.correct_many
        step_update_many = tracer.step_update_many

        def counted(h, out, *args):
            new_h, repeat = step_update(h, out, *args)
            counts["newton"] += out.iterations
            counts["accepted"] += not repeat
            return new_h, repeat

        # the lockstep rounds: each solve of a round is one step, judged by
        # step_update_many (the seeds' own dlog solves take no iteration)
        def counted_correct_many(*args):
            outs = correct_many(*args)
            counts["newton"] += int(outs.iterations.sum())
            return outs

        def counted_many(*args):
            new_h, repeat = step_update_many(*args)
            counts["accepted"] += int((~repeat).sum())
            counts["lockstep"] += len(repeat)
            return new_h, repeat

        monkeypatch.setattr(tracer, "step_update", counted)
        monkeypatch.setattr(tracer, "correct_many", counted_correct_many)
        monkeypatch.setattr(tracer, "step_update_many", counted_many)
        rng = np.random.RandomState(47)
        for _ in range(40):
            plant = random_plant(rng, Plant)
            region = RegionSpec(*clean_region(plant, rng))
            try:
                run(plant, region, TraceOptions(negative_gains=True))
            except DtLocusError:
                continue
        assert counts["accepted"] > 2000 and counts["lockstep"] > 0
        assert counts["newton"] <= 0.9 * counts["accepted"], counts


def _traced_in_lockstep(plant, region, options, monkeypatch):
    """run(plant, region, options) with every _trace_batch call recorded as
    (pass record, seeds, trajectories), and every seed that trace took from
    the start, with its plant."""
    batches, traced = [], []
    batch, trace = tracer._trace_batch, tracer.trace

    def recorded_batch(p, seeds, starts):
        out = batch(p, seeds, starts)
        batches.append((p, seeds, out))
        return out

    def recorded_trace(p, seed):
        traced.append((p.plant, seed))
        return trace(p, seed)

    with monkeypatch.context() as mp:
        mp.setattr(tracer, "_trace_batch", recorded_batch)
        mp.setattr(tracer, "trace", recorded_trace)
        res = run(plant, region, options)
    return res, batches, traced


def _assert_as_traced(batches):
    """Each batched trajectory has the origin, termination and point count
    trace gives its seed in the same pass, and its end within 1e-9
    relative; the kinds of ending seen are returned."""
    ends = Counter()
    for p, seeds, out in batches:
        assert len(out) == len(seeds)
        for seed, got in zip(seeds, out):
            ref = tracer.trace(p, seed)
            assert (got.origin, got.termination, len(got.points), got.start_marker) == (
                ref.origin, ref.termination, len(ref.points), ref.start_marker)
            assert got.points[0] == seed.start
            a, b = got.points[-1], ref.points[-1]
            assert abs(a.s - b.s) <= 1e-9 * (1.0 + abs(b.s)), (a, b)
            assert abs(a.Kval - b.Kval) <= 1e-9 * (1.0 + abs(b.Kval)), (a, b)
            ends[type(got.termination).__name__] += 1
    return ends


class TestBatch:
    """_trace_batch, the lockstep tracer of the crossing-seeded bulk, ends
    every trajectory as trace does from its seed: in lockstep at the cap,
    through trace's own loop everywhere else."""

    @pytest.mark.parametrize("sigma0, kmax", [(-3.5, 50.0), (-3.5, 150.0), (-3.5, 500.0),
                                              (-6.0, 5.0)])
    def test_dense_rungs(self, sigma0, kmax, monkeypatch):
        res, batches, traced = _traced_in_lockstep(
            parse_input(DEMO), RegionSpec(sigma0, kmax), TraceOptions(), monkeypatch)
        ((_, seeds, *_),) = batches
        assert len(seeds) >= tracer._BATCH_MIN
        assert len(seeds) + len(traced) == sum(not t.mirrored for t in res.trajectories)
        assert _assert_as_traced(batches)["GainCap"] > 0.99 * len(seeds)

    def test_random_plants(self, monkeypatch):
        # every pass batches, and every batched trajectory stays in lockstep
        # until it needs another of trace's rules; the seeds left to trace
        # are the real ones and those below an active branch point's gain,
        # and the batch hands on region exits to trace's loop
        monkeypatch.setattr(tracer, "_BATCH_MIN", 1)
        monkeypatch.setattr(tracer, "_LIVE_MIN", 1)
        rng = np.random.RandomState(19)
        ends, left_out = Counter(), Counter()
        for _ in range(40):
            plant = random_plant(rng, Plant)
            region = RegionSpec(*clean_region(plant, rng))
            options = TraceOptions(negative_gains=True)
            try:
                res, batches, traced = _traced_in_lockstep(plant, region, options, monkeypatch)
            except DtLocusError:
                continue
            ends += _assert_as_traced(batches)
            for p, seeds, _ in batches:
                top = max((bp.Kval for bp in p.branches if bp.active), default=-math.inf)
                for seed in seeds:
                    assert seed.start.omega != 0.0 and top <= seed.start.Kval < region.lnkmax
            tops = {r.plant: max((bp.Kval for bp in r.branch_points if bp.active),
                                 default=-math.inf) for r in (res, res.negative)}
            for signed, seed in traced:
                top = tops[signed]
                if seed.start.omega == 0.0:
                    left_out["real"] += 1
                elif seed.start.Kval < top:
                    left_out["below a branch point"] += 1
        assert ends["GainCap"] and ends["LeftRegion"], ends
        assert left_out["real"] and left_out["below a branch point"], left_out

    def test_crossing_trajectory_that_exits(self, monkeypatch):
        # corpus seed 101 job 287, negative gains: one of its two crossing
        # seeds leaves the region again; the batch hands the step capped at
        # its outward crossing's gain to trace's loop, which ends it there
        monkeypatch.setattr(tracer, "_BATCH_MIN", 1)
        monkeypatch.setattr(tracer, "_LIVE_MIN", 1)
        doc = {"alpha": -4.268413, "delay": 0.374703,
               "zeros": [[-2.05334, 1.996117], [-2.05334, -1.996117], [-1.12581, 0.0]],
               "poles": [[0.134537, 0.0], [-2.313032, 0.0], [-0.876671, 0.0],
                         [-2.118442, 1.25742], [-2.118442, -1.25742], [-2.468588, 0.0]]}
        region = RegionSpec(-1.863112, 12.958963)
        _, batches, _ = _traced_in_lockstep(parse_input(json.dumps(doc).encode()), region,
                                            TraceOptions(), monkeypatch)
        assert _assert_as_traced(batches)["LeftRegion"] == 1
        (_, _, out), = batches
        assert [type(t.origin) for t in out if isinstance(t.termination, LeftRegion)] == [
            CrossingOrigin]

    def test_step_budget(self, monkeypatch):
        # with MAX_STEPS 2 the batch hands its live trajectories to trace's
        # loop with no steps left, which ends them as trace does
        monkeypatch.setattr(tracer, "MAX_STEPS", 2)
        region = RegionSpec(-3.5, 50.0)
        _, batches, _ = _traced_in_lockstep(parse_input(DEMO), region, TraceOptions(),
                                            monkeypatch)
        ends = _assert_as_traced(batches)
        assert ends["GainCap"] and ends["StepFailure"], ends

    def test_point_next_to_a_plant_root(self, monkeypatch):
        # a seed next to a plant zero, where trace's kernel raises, and
        # steps on which the batch's kernel flags a point: trace's loop
        # ends the first and takes the steps of the others
        plant, region = parse_input(DEMO), RegionSpec(-3.5, 50.0)
        p, crossings = pass_of(plant, region)
        seeds = seed_points(p, crossings.inward)
        seeds = [seed for seed in seeds if seed.start.omega != 0.0]
        zero = plant.zeros[0]
        near = zero + complex(0.0, 1e-14)
        seeds.insert(3, Seed(CrossingOrigin(99), LocusPoint(near.real, near.imag, 0.0)))
        correct_many = tracer.correct_many

        def flagging(plant, s, Kval, *args):
            out = correct_many(plant, s, Kval, *args)
            return out._replace(bad=out.bad | (Kval > 2.0))

        monkeypatch.setattr(tracer, "correct_many", flagging)
        starts = np.array([seed.start for seed in seeds])
        out = tracer._trace_batch(p, seeds, starts)
        ends = _assert_as_traced([(p, seeds, out)])
        assert out[3].termination == StepFailure("the gain no longer rises at step 1")
        assert ends["GainCap"] > 0.9 * len(seeds)

    def test_gain_that_stops_rising(self, monkeypatch):
        # steps shorter than 0.3 raise the gain by nothing, in trace and in
        # the batch alike: trace's loop ends those trajectories
        gain_step = tracer.gain_step
        monkeypatch.setattr(tracer, "gain_step",
                            lambda h, dlog, sqrt=math.sqrt: gain_step(h, dlog, sqrt) * (h > 0.3))
        region = RegionSpec(-3.5, 50.0)
        _, batches, _ = _traced_in_lockstep(parse_input(DEMO), region, TraceOptions(),
                                            monkeypatch)
        ends = _assert_as_traced(batches)
        assert ends["GainCap"] and ends["StepFailure"], ends

    def test_rejection_at_the_smallest_step(self, monkeypatch):
        # every solve at the cap fails, in trace and in the batch alike: cap
        # steps halve down to H_MIN, where trace's loop ends the trajectory
        region = RegionSpec(-3.5, 50.0)
        correct, correct_many = tracer.correct, tracer.correct_many

        def no_cap(plant, s, Kval, *args):
            out = correct(plant, s, Kval, *args)
            return out._replace(converged=False) if Kval == region.lnkmax else out

        def no_cap_many(plant, s, Kval, *args):
            out = correct_many(plant, s, Kval, *args)
            return out._replace(converged=out.converged & (Kval != region.lnkmax))

        monkeypatch.setattr(tracer, "correct", no_cap)
        monkeypatch.setattr(tracer, "correct_many", no_cap_many)
        monkeypatch.setattr(tracer, "_LIVE_MIN", 1)
        _, batches, _ = _traced_in_lockstep(parse_input(DEMO), region, TraceOptions(),
                                            monkeypatch)
        ends = _assert_as_traced(batches)
        assert ends == {"StepFailure": len(batches[0][1])}


def _run_both_crossing_paths(plant, region, options, monkeypatch):
    """run(plant, region, options) with every crossing-search piece solved
    over arrays, then with every piece by the scalar chain; a DtLocusError
    is returned, not raised."""
    out = []
    for lines in (1, math.inf):
        with monkeypatch.context() as mp:
            mp.setattr(boundary, "_ARRAY_LINES", lines)
            try:
                out.append(run(plant, region, options))
            except DtLocusError as e:
                out.append(e)
    return out


def _assert_same_locus(arrays, scalar):
    """The same trajectories, origins and terminations on both paths, each
    end within 1e-9 relative; the number of trajectories compared."""
    n = 0
    for a, b in ((arrays, scalar), (arrays.negative, scalar.negative)):
        if b is None:
            assert a is None
            continue
        assert len(a.crossings.inward) == len(b.crossings.inward)
        assert len(a.crossings.outward) == len(b.crossings.outward)
        assert len(a.trajectories) == len(b.trajectories)
        for got, want in zip(a.trajectories, b.trajectories):
            assert (got.origin, got.termination, got.mirrored) == (
                want.origin, want.termination, want.mirrored)
            x, y = got.points[-1], want.points[-1]
            assert abs(x.s - y.s) <= 1e-9 * (1.0 + abs(y.s)), (x, y)
        n += len(b.trajectories)
    return n


class TestArrayCrossings:
    """The crossing search's array solve seeds and ends every trajectory as
    the scalar chain does."""

    @pytest.mark.parametrize("sigma0, kmax", [(-3.5, 50.0), (-3.5, 150.0), (-3.5, 500.0),
                                              (-6.0, 5.0)])
    def test_dense_rungs(self, sigma0, kmax, monkeypatch):
        arrays, scalar = _run_both_crossing_paths(parse_input(DEMO), RegionSpec(sigma0, kmax),
                                                  TraceOptions(), monkeypatch)
        assert _assert_same_locus(arrays, scalar) > 200

    def test_random_plants(self, monkeypatch):
        rng = np.random.RandomState(19)
        traced = crossings = 0
        for _ in range(40):
            plant = random_plant(rng, Plant)
            region = RegionSpec(*clean_region(plant, rng))
            options = TraceOptions(negative_gains=True)
            arrays, scalar = _run_both_crossing_paths(plant, region, options, monkeypatch)
            assert type(arrays) is type(scalar)
            if isinstance(scalar, DtLocusError):
                continue
            traced += _assert_same_locus(arrays, scalar)
            crossings += sum(len(r.crossings.inward) + len(r.crossings.outward)
                             for r in (scalar, scalar.negative))
        assert traced > 4000 and crossings > 2000


class TestColumnarResult:
    """run's trajectories hold their points in read-only float arrays, so
    the result keeps no LocusPoint alive: a tuple subclass stays tracked by
    the cyclic collector, and every full collection would walk it.  Each
    mirrored trajectory directly follows its original, its array the
    original's with omega negated to the bit; the writers rely on that
    order to reuse the original's text."""

    def test_no_locus_points_and_images_follow_originals(self):
        plant = parse_input(DEMO)

        def locus_points():
            gc.collect()
            return sum(type(o) is LocusPoint for o in gc.get_objects())

        before = locus_points()
        res = run(plant, RegionSpec(-3.5, 500.0))
        assert locus_points() == before
        assert not res.trajectories[0].mirrored
        images = 0
        for prev, t in zip(res.trajectories, res.trajectories[1:]):
            assert not t.array.flags.writeable and t.array.dtype == np.float64
            if t.mirrored:
                assert not prev.mirrored
                assert (prev.array * (1.0, -1.0, 1.0)).tobytes() == t.array.tobytes()
                images += 1
        assert images > 2500 and len(res.trajectories) > 5000
        # the points view builds LocusPoints from the array on each access
        t = res.trajectories[-1]
        assert t.points == tuple(LocusPoint(*row) for row in t.array.tolist())
        assert t.points is not t.points

    def test_every_producer_hands_over_read_only_float64_rows(self, monkeypatch):
        # trace, _trace_batch and _mirror build every trajectory; none is
        # checked after, so each must make its array read-only float64 of
        # shape (n, 3), in both gain passes
        batched = []
        trace_batch = tracer._trace_batch

        def recorded(*args):
            out = trace_batch(*args)
            batched.extend(out)
            return out

        monkeypatch.setattr(tracer, "_trace_batch", recorded)
        rng = np.random.RandomState(2031)
        cases = [(parse_input(DEMO), RegionSpec(-3.5, 500.0))]
        for _ in range(24):
            plant = random_plant(rng, Plant)
            cases.append((plant, RegionSpec(*clean_region(plant, rng))))
        seen = Counter()
        for plant, region in cases:
            try:
                res = run(plant, region, TraceOptions(negative_gains=True))
            except DtLocusError:
                continue
            for sign, r in (("positive", res), ("negative", res.negative)):
                for t in r.trajectories:
                    a = t.array
                    assert a.dtype == np.float64 and not a.flags.writeable, (plant, t.origin)
                    assert a.ndim == 2 and a.shape[1] == 3 and len(a) >= 1, (plant, t.origin)
                    seen[sign, t.mirrored] += 1
        assert len(seen) == 4 and min(seen.values()) >= 20, seen
        assert len(batched) > 1000 and all(not t.array.flags.writeable for t in batched)
