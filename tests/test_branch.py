"""Branch point location, membership filtering, and the closed-form
departure fan, checked against roots found by direct Newton just past the
branch gain."""

import json
import math

import numpy as np
import pytest

from dtlocus import branch
from dtlocus.boundary import RegionSpec
from dtlocus.branch import branch_departures, branch_points, branch_roots
from dtlocus.plant import Plant, log_eval
from dtlocus.poly import PolyRoot

from oracles import (_wrap, branch_fan_angles, dlog_zero_count, locus_residual, poly_from_roots,
                     random_plant)

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

# Benchmark highorder jobs (plant document, sigma0, kmax, branch point) with
# a real branch point inside a cluster of nearly coincident plant roots that
# an expanded branch polynomial N'D - ND' - hND (degree 41, 42 and 31 here)
# did not resolve: seed 114 job
# 199 (poles -3.758472 +- 3.0e-4j and -3.715613, zero -3.715464), seed 122
# job 33 (two complex pole pairs within 0.08) and seed 129 job 124 (five
# poles within 0.17)
CLUSTER_JOBS = {
    "highorder seed 114 job 199": (
        {"num": [7543338.266843425, 29692480.324540887, 49068506.65425019, 44361132.88738758,
                 20963445.979671665, -93759.68136186898, -8056744.014318265, -6717988.629807096,
                 -3261479.4162029265, -1064433.503516524, -223052.28097218237, -16387.00344869241,
                 8563.351303154514, 4528.642833354859, 1252.39584337902, 229.86821849957494,
                 28.133259014565006, 1.772831],
         "den": [204240186.33282432, 2996851681.3063383, 5240554338.277575, -2833109118.975068,
                 -18085301690.21664, -24985110555.597027, -15032733783.618343, 7800922432.350483,
                 31741933895.945076, 44421136698.4531, 41735689455.48717, 29547023520.28105,
                 16519820018.717962, 7491708271.422842, 2803991913.758156, 875796079.2995955,
                 229522083.9044587, 50449449.84122001, 9236629.839133436, 1388696.6758896434,
                 167468.90793042028, 15610.470651465766, 1058.224408039094, 46.54506899999999, 1.0],
         "delay": 0.453097},
        -4.363632, 1.179422, -3.717409),
    "highorder seed 122 job 33": (
        {"num": [59209411.118269145, -239656935.08724648, 274276613.3054108, -27464917.368162602,
                 -103647527.1313446, 56799634.02372052, -29777399.097887732, 6999398.124591922,
                 9471058.902389793, -4372786.577410584, -964508.1650931924, 749400.2336525784,
                 32645.683020221943, -70970.80312180851, 1891.025861019053, 4409.9111834991,
                 -214.32990187772504, -168.12479075608667, 7.344135689435991, 3.696498],
         "den": [-3754618640.0114884, -25389037164.339397, -77036927534.95558, -135938359329.47742,
                 -144900784349.4901, -70212816382.67606, 53069910941.76727, 151662911189.07974,
                 180578213271.531, 149251240499.72626, 95289093101.05212, 49044275357.17218,
                 20784163195.997063, 7331539451.034137, 2162587582.0281587, 533345651.318255,
                 109485065.15940803, 18536087.008953772, 2549405.850882205, 278245.5266681639,
                 23228.303416603878, 1395.400726581652, 53.78133100000001, 1.0],
         "delay": 0.553429},
        -3.733406, 0.536369, -3.524412),
    "highorder seed 129 job 124": (
        {"num": [-156702.83157133963, -39883.77440279691, 20644.688050048273, 8135.711066033056,
                 233.47780924751078, -98.09404207362161, -106.06423486740613, -8.254139271154948,
                 18.797802982986994, 4.642961],
         "den": [-2508537.3315746635, -31593967.774560407, -13014693.450031554, 477709139.8060612,
                 1886515015.9825444, 3818193910.966543, 5111002447.808743, 5023951204.03211,
                 3864843311.8524, 2434923220.515313, 1297902550.965451, 597578412.8603358,
                 240146928.85756487, 84501498.17477956, 25993857.56166897, 6949792.888877902,
                 1597060.5313224383, 309742.2462846518, 49314.30982242824, 6180.390091833101,
                 570.0777457373149, 34.254571999999996, 1.0],
         "delay": 0.84029},
        -2.991689, 10.670463, -2.507808),
}


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

    def test_gain_beyond_double_range_skipped(self):
        # the one zero of dlog, 10.009983, passes the phase test (phase pi)
        # at ln|G e^(-hs)| = -1010.49: its gain e^1010.49 is no double
        plant = Plant(-1.0, 100.0, (10 + 0j,), (-1 + 0j, -2 + 0j))
        region = RegionSpec(-0.5, 1.0)
        (root,) = branch_roots(plant, region.sigma0)
        assert root.value == pytest.approx(10.009983, abs=1e-6)
        lv = log_eval(plant, root.value)
        assert lv.lnmag == pytest.approx(-1010.49, abs=1e-2) and lv.phase == pytest.approx(math.pi)
        assert branch_points(plant, region) == []

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
        # dlog has real zeros at -3 +- sqrt(3) but neither satisfies the
        # phase condition for positive gain
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
        # highorder seed 101 job 159: an expanded degree-38 branch numerator
        # put a real branch point at -2.21964, where dlog is 3.59; the
        # real-axis gain peaks at -2.231252, a zero of dlog, and every point
        # kept is a zero of dlog

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
        # the pole -0.5, so a zero lies between them, and the stretch between
        # the poles -2.5 and -1 holds one as well: both are candidates, real
        # and on a zero of dlog
        from dtlocus.plant import dlog_ratio

        real = [r.value for r in branch_roots(p2, -3.5) if r.value.imag == 0.0]
        low = [s for s in real if -2.5 < s.real < -1.0]
        high = [s for s in real if -1.0 < s.real < -0.5]
        assert len(low) == len(high) == 1
        for s in low + high:
            assert abs(dlog_ratio(p2, s)) <= 1e-12
        bp = [b for b in branch_points(p2, RegionSpec(-3.5, 5.0)) if -1.0 < b.s.real < -0.5]
        assert bp[0].s == high[0]


def _with(plant, zeros=(), poles=()):
    return Plant(plant.alpha, plant.delay, plant.zeros + tuple(zeros), plant.poles + tuple(poles))


def _pair(s):
    return (s, s.conjugate()) if s.imag else (s,)


def _argument_corpus(rng):
    """Plants of every kind the argument-principle test covers, 40 each:
    clean random plants (right-half-plane zeros among them), near-coincident
    root clusters, repeated poles, zero-pole coincidences, bi-proper plants,
    and plants rooted from coefficients."""
    from dtlocus.plant import plant_from_coefficients

    out = [random_plant(rng, Plant) for _ in range(40)]
    for i in range(40):  # a cluster of roots 1e-6 to 1e-2 across
        plant = random_plant(rng, Plant)
        a, d = rng.uniform(-3.0, 0.5), 10.0 ** rng.uniform(-6.0, -2.0)
        c = complex(a, rng.uniform(0.3, 3.0))
        zeros, poles = [(), (), (), (a + 0.5 * d,)][i % 4], [
            (a, a + d, a + 2.0 * d),  # three real poles
            _pair(c) + _pair(c + d * (1 + 1j)),  # a near-double complex pair
            (a,) + _pair(complex(a - d, d)),  # a pair straddling the axis by a pole
            _pair(complex(a, d)) + (a + d,),  # ... with a zero beside them
        ][i % 4]
        out.append(_with(plant, zeros, poles))
    for i in range(40):  # a pole repeated once or twice
        plant = random_plant(rng, Plant)
        out.append(_with(plant, poles=_pair(plant.poles[-1]) * (1 + i % 2)))
    for i in range(40):  # a zero on a pole, on a repeated pole, or 1e-9 beside one
        plant = random_plant(rng, Plant)
        p = plant.poles[0]
        zero = [p, p, p + 1e-9][i % 3]
        poles = plant.poles + (_pair(p) if i % 3 == 1 else ())
        out.append(Plant(plant.alpha, plant.delay, _pair(zero), poles))
    for _ in range(40):  # bi-proper
        plant = random_plant(rng, Plant)
        zeros = list(plant.zeros)
        while len(zeros) < len(plant.poles):
            zeros.append(complex(rng.uniform(-3.0, 3.0), 0.0))
        out.append(Plant(plant.alpha, plant.delay, tuple(zeros), plant.poles))
    for _ in range(40):  # coefficient form, order 6-15
        plant = random_plant(rng, Plant)
        more = random_plant(rng, Plant).poles + random_plant(rng, Plant).poles
        den = poly_from_roots(plant.poles + more)
        out.append(plant_from_coefficients(poly_from_roots(plant.zeros), den, plant.delay))
    return out


class TestPolish:
    def test_newton_settles_a_zero_between_close_pole_pairs(self, monkeypatch):
        # two pole pairs 3.8e-7 apart put a simple zero of dlog between
        # them, where dlog's terms are about 5e6 each: the eigenvalue there
        # misses it by more than _DLOG_REL of their sum, so _on_dlog moves
        # it by Newton onto the nearest double of the exact zero
        from oracles import exact_dlog, reference_dlog_zero

        a, b, im = -2.2861061187243257, -2.286105738776417, 1.1796126055327134
        poles = (complex(a, im), complex(a, -im), complex(b, im), complex(b, -im),
                 complex(-1.6297323172643674, 0.0))
        plant = Plant(1.0, 1.2506391072647212, (), poles)
        moved = []
        on_dlog = branch._on_dlog

        def recorded(plant, r):
            s = on_dlog(plant, r)
            if s is not None and s != r.value:
                moved.append((r.value, s))
            return s

        monkeypatch.setattr(branch, "_on_dlog", recorded)
        got = [r.value for r in branch_roots(plant, -3.0)]
        ((start, s),) = moved
        assert s in got and a < s.real < b and abs(s.imag - im) <= 1e-12
        scale = sum(1.0 / abs(s - p) for p in poles)
        assert exact_dlog(plant, start)[0] > branch._DLOG_REL * scale
        assert exact_dlog(plant, s)[0] <= branch._DLOG_REL * scale
        assert s == reference_dlog_zero(plant, start)


    def test_start_on_a_plant_root_is_rejected(self):
        # dlog has a pole there: the first reciprocal divides by zero
        plant = Plant(1.0, 1.0, (-0.5 + 0j,), (0j, -2.0 + 1j, -2.0 - 1j))
        for r in (*plant.zeros, *plant.poles):
            assert branch._on_dlog(plant, PolyRoot(r, 1)) is None


def test_branch_points_skip_a_candidate_on_a_plant_pole():
    # the gain is infinite at a pole: a candidate there is skipped, and the
    # other candidates keep their branch points
    plant, region = Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0)
    roots = branch_roots(plant, region.sigma0)
    assert [r.value for r in roots] == [-1.0 + 0j]
    got = branch_points(plant, region, (PolyRoot(0j, 1), *roots))
    assert [bp.s for bp in got] == [-1.0 + 0j] and got == branch_points(plant, region)


def _closed_under_conjugation(roots):
    key = sorted((r.value.real, r.value.imag, r.multiplicity) for r in roots)
    return key == sorted((r.value.real, -r.value.imag, r.multiplicity) for r in roots)


class TestArgumentPrinciple:
    def test_candidates_count_every_zero_of_dlog(self):
        # the summed multiplicities of the candidates right of sigma0 equal
        # the argument-principle count of the zeros of dlog there; a sigma0
        # within 1e-6 of a candidate or a plant root moves 1e-3 right
        rng = np.random.RandomState(2105)
        plants = _argument_corpus(rng)
        assert len(plants) >= 200
        counted = 0
        for plant in plants:
            structure = [r.real for r in plant.zeros + plant.poles]
            sigma0 = rng.uniform(min(structure) - 1.0, max(structure) + 0.5)
            for _ in range(10):
                got = branch_roots(plant, sigma0)
                near = [x for x in [r.value.real for r in got] + structure
                        if abs(x - sigma0) <= 1e-6]
                if not near:
                    break
                sigma0 += 1e-3
            assert not near, plant
            assert _closed_under_conjugation(got), (plant, got)
            want = dlog_zero_count(plant, sigma0)
            assert sum(r.multiplicity for r in got if r.value.real > sigma0) == want, (
                plant, sigma0, got)
            counted += want
        assert counted >= 400

    @pytest.mark.parametrize("name", sorted(CLUSTER_JOBS))
    def test_branch_point_in_a_root_cluster(self, name):
        # highorder jobs whose real branch point inside a cluster of nearly
        # coincident plant roots the expanded branch polynomial missed: it
        # is catalogued now, and the job traces with no warning
        from dtlocus import TraceOptions, run
        from dtlocus.cli import parse_input

        doc, sigma0, kmax, where = CLUSTER_JOBS[name]
        plant, region = parse_input(json.dumps(doc).encode()), RegionSpec(sigma0, kmax)
        res = run(plant, region, TraceOptions(negative_gains=True))
        catalogued = [bp for r in (res, res.negative) for bp in r.branch_points
                      if bp.active and abs(bp.s - where) <= 1e-6]
        assert len(catalogued) == 1 and catalogued[0].multiplicity == 2
        assert not res.warnings and not res.negative.warnings
