"""Branch point location, membership filtering, and the closed-form
departure fan, checked against roots found by direct Newton just past the
branch gain."""

import math

import numpy as np
import pytest

from dtlocus.boundary import RegionSpec
from dtlocus.branch import branch_departures, branch_points
from dtlocus.plant import Plant

from oracles import _wrap, branch_fan_angles, locus_residual, random_plant

# corpus seed 408 job 461: a secant of the arriving trajectory sent the real
# branch point near -1.668 out at +-1.385 rad instead of +-pi/2
JOB_461 = Plant(
    -4.905108, 1.420699,
    (-1.497614 + 0.829942j, -1.497614 - 0.829942j, -0.781329 + 0j,
     1.814507 + 1.017389j, 1.814507 - 1.017389j, 1.873596 + 0j),
    (-0.715817 + 0j, -0.827853 + 0j, -0.781923 + 0j, -1.158687 + 0j,
     -2.912805 + 0.337496j, -2.912805 - 0.337496j),
)
JOB_461_REGION = RegionSpec(-1.747593, 0.008512)


def fan_error(plant, bp):
    """Largest angle between a departure and its oracle root direction."""
    got = branch_departures(plant, bp)
    want = branch_fan_angles(plant, bp.s, bp.k)
    assert len(got) == len(want) == bp.multiplicity
    pairs = [min(range(len(want)), key=lambda i: abs(_wrap(theta - want[i]))) for theta in got]
    assert sorted(pairs) == list(range(len(want)))  # one departure per root
    return max(abs(_wrap(theta - want[i])) for theta, i in zip(got, pairs))


class TestBranchDepartures:
    def test_integrator_goes_vertical(self, p1):
        (bp,) = branch_points(p1, RegionSpec(-2.0, 1.0))
        assert sorted(branch_departures(p1, bp)) == pytest.approx([-math.pi / 2, math.pi / 2])
        assert fan_error(p1, bp) <= 1e-2

    def test_demo_plant(self, p2):
        (bp,) = branch_points(p2, RegionSpec(-3.5, 5.0))
        assert fan_error(p2, bp) <= 1e-2

    def test_job_461(self):
        got = [bp for bp in branch_points(JOB_461, JOB_461_REGION) if bp.active]
        assert any(bp.s == pytest.approx(-1.668, abs=1e-3) for bp in got)
        for bp in got:
            assert fan_error(JOB_461, bp) <= 1e-2

    def test_triple_point(self):
        # poles lam*(+-a, +-jv, 1) with h = 1/lam make s = 0 a triple root:
        # sum 1/p = h zeroes the first log-derivative and 2/a^2 - 2/v^2 + 1
        # = 0 the second; S_3 = lam^-3 > 0, so c < 0 and the fan is
        # -pi/3, pi/3, pi
        lam, v = 0.1, 1.3
        a = math.sqrt(2.0 / (2.0 / v**2 - 1.0))
        plant = Plant(-lam**5, 1.0 / lam, (),
                      tuple(lam * x for x in (a, -a, 1j * v, -1j * v, 1.0)))
        (bp,) = [b for b in branch_points(plant, RegionSpec(-0.3, 10.0)) if b.multiplicity == 3]
        assert abs(bp.s) <= 1e-12
        assert sorted(branch_departures(plant, bp)) == pytest.approx(
            [-math.pi / 3, math.pi / 3, math.pi], abs=1e-12)
        assert fan_error(plant, bp) <= 1e-2

    def test_complex_pair(self):
        # at this delay the complex branch candidates of the plant pass the
        # phase test; their fans are each other's conjugates
        plant = Plant(1.0, 1.173588916172437, (-1 + 2j, -1 - 2j), (0j, -4 + 0j))
        got = [bp for bp in branch_points(plant, RegionSpec(-2.0, 100.0)) if abs(bp.s.imag) > 1.0]
        assert len(got) == 2
        lower, upper = sorted(got, key=lambda bp: bp.s.imag)
        assert sorted(branch_departures(plant, lower)) == pytest.approx(
            sorted(-t for t in branch_departures(plant, upper)), abs=1e-12)
        for bp in got:
            assert fan_error(plant, bp) <= 1e-2

    def test_independent_of_alpha(self, p2):
        (bp,) = branch_points(p2, RegionSpec(-3.5, 5.0))
        doubled = Plant(2.0, p2.delay, p2.zeros, p2.poles)
        (bq,) = branch_points(doubled, RegionSpec(-3.5, 5.0))
        assert branch_departures(doubled, bq) == pytest.approx(branch_departures(p2, bp), abs=1e-9)

    def test_random_corpus(self):
        rng = np.random.RandomState(43)
        errors = []
        for _ in range(30):
            plant = random_plant(rng, Plant)
            for bp in branch_points(plant, RegionSpec(-4.0, 100.0)):
                if bp.active:
                    errors.append(fan_error(plant, bp))
        assert len(errors) >= 20
        assert max(errors) <= 1e-2


class TestBranchPoints:
    def test_p1_single_branch(self, p1):
        got = branch_points(p1, RegionSpec(-2.0, 1.0))
        assert len(got) == 1
        bp = got[0]
        assert bp.s == pytest.approx(-1.0 + 0j, abs=1e-10)
        assert bp.k == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert bp.Kval == pytest.approx(-1.0, abs=1e-10)
        assert bp.multiplicity == 2
        assert bp.active

    def test_p1_region_filter(self, p1):
        assert branch_points(p1, RegionSpec(-0.5, 1.0)) == []

    def test_p1_inactive_when_capped(self, p1):
        got = branch_points(p1, RegionSpec(-2.0, 0.2))
        assert len(got) == 1
        assert not got[0].active  # k = e^-1 > 0.2

    def test_p2_branch_near_minus_0_7(self, p2):
        region = RegionSpec(-3.5, 5.0)
        got = branch_points(p2, region)
        assert len(got) == 1
        bp = got[0]
        assert bp.s.imag == pytest.approx(0.0, abs=1e-10)
        assert bp.s.real == pytest.approx(-0.6977, abs=5e-4)
        assert bp.k == pytest.approx(9.3e-4, rel=0.05)
        assert bp.multiplicity == 2
        assert bp.active

    def test_membership_residual(self, p2):
        for bp in branch_points(p2, RegionSpec(-3.5, 5.0)):
            assert locus_residual(p2, bp.s, bp.k) <= 1e-6

    def test_alpha_scaling_halves_gain(self, p2):
        doubled = Plant(2.0, p2.delay, p2.zeros, p2.poles)
        a = branch_points(p2, RegionSpec(-3.5, 5.0))
        b = branch_points(doubled, RegionSpec(-3.5, 5.0))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert y.s == pytest.approx(x.s, abs=1e-9)
            assert y.k == pytest.approx(x.k / 2.0, rel=1e-9)
            assert y.multiplicity == x.multiplicity

    def test_p3_candidates_fail_phase_test(self, p3):
        # the branch polynomial has real roots at -3 +- sqrt(3) but neither
        # satisfies the phase condition for positive gain
        got = branch_points(p3, RegionSpec(-5.0, 100.0))
        assert got == []

    def test_sorted_by_gain(self):
        rng = np.random.RandomState(43)
        from oracles import random_plant

        for _ in range(10):
            plant = random_plant(rng, Plant)
            got = branch_points(plant, RegionSpec(-4.0, 100.0))
            kvals = [bp.Kval for bp in got]
            assert kvals == sorted(kvals)
            for bp in got:
                assert bp.s.real >= -4.0 - 1e-9
                assert locus_residual(plant, bp.s, bp.k) <= 1e-6
                assert bp.active == (bp.Kval <= math.log(100.0))

    def test_conjugate_pairs_both_reported(self):
        # plant engineered to push a conjugate branch pair into the region:
        # poles at 0 and -4, zeros at -1 +- 2j pull the locus off-axis
        plant = Plant(1.0, 0.3, (-1 + 2j, -1 - 2j), (0j, -4 + 0j))
        got = branch_points(plant, RegionSpec(-6.0, 1e6))
        complex_bps = [bp for bp in got if abs(bp.s.imag) > 1e-6]
        if complex_bps:  # structure-dependent; when present, must pair up
            ims = sorted(bp.s.imag for bp in complex_bps)
            assert len(ims) % 2 == 0
            for lo, hi in zip(ims, reversed(ims)):
                assert lo == pytest.approx(-hi, abs=1e-8)

    def test_candidates_polished_onto_zeros_of_dlog(self):
        # highorder seed 101 job 159: the degree-38 branch numerator in
        # coefficient form put a real branch point at -2.21964, where dlog is
        # 3.59; the real-axis gain peaks at -2.231252, and the polish on dlog
        # moves the point there; every point kept is a zero of dlog
        import json

        from dtlocus.cli import parse_input
        from dtlocus.plant import dlog_ratio

        plant = parse_input(json.dumps({
            "num": [40722.75892529389, -2302.9508908840708, -197578.58127162207,
                    -266550.40252179594, -157914.44305267898, -54820.81452019485,
                    -380.44649880058205, 18223.682941904037, 9624.233777512542,
                    281.0457019151995, -800.5052988183786, -43.926801147777354,
                    36.40945966093906, -8.709900442420267, -5.254668578166, -0.545097],
            "den": [698666144.87589, 6414029554.326253, 27085222507.97059, 70382484578.96005,
                    127208866006.75035, 171517843957.1746, 180708666237.3752,
                    153763294773.39264, 108246851506.60303, 64176550578.04485,
                    32461423438.176563, 14139361622.576237, 5337312619.946436,
                    1752549655.128784, 501152260.20413834, 124589262.03031549,
                    26791711.6307129, 4937288.907378981, 768136.1115328991,
                    98572.48594870327, 10059.623673656133, 768.248821679759,
                    39.144960000000005, 1.0],
            "delay": 0.924273}).encode())
        region = RegionSpec(-2.975088, 0.960858)
        bps = branch_points(plant, region)
        assert any(bp.active and abs(bp.s - -2.231252) < 1e-6 for bp in bps)
        assert not any(abs(bp.s - -2.21964) < 1e-3 for bp in bps)
        for bp in bps + branch_points(plant.flipped_gain(), region):
            scale = plant.delay + sum(abs(1.0 / (bp.s - r)) for r in plant.zeros + plant.poles)
            assert abs(dlog_ratio(plant, bp.s)) <= 1e-9 * scale, bp

    def test_missing_real_zero_of_dlog_is_added(self, p2):
        # dlog runs from -inf just right of the pole -1 to +inf just left of
        # the pole -0.5, so a zero lies between them: with no candidate there
        # it is found by bisection and polished; with one, it is not added
        from dtlocus.branch import _axis_zeros
        from dtlocus.plant import dlog_ratio
        from dtlocus.poly import PolyRoot

        # (the stretch between the poles -2.5 and -1 holds one as well)
        low, added = _axis_zeros(p2, -3.5, [])
        assert -2.5 < low.value.real < -1.0
        assert -1.0 < added.value.real < -0.5 and added.value.imag == 0.0
        assert abs(dlog_ratio(p2, added.value)) <= 1e-12
        bp = [b for b in branch_points(p2, RegionSpec(-3.5, 5.0)) if -1.0 < b.s.real < -0.5]
        assert abs(bp[0].s - added.value) <= 1e-12
        assert _axis_zeros(p2, -3.5, [PolyRoot(bp[0].s, 1)]) == [low]
