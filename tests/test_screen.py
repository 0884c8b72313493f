"""The eigenvalue screen of the breakpoint and branch root finders.

boundary._turning_points moves onto real zeros of its secular function only
the eigenvalues near the nonnegative real axis, and branch.branch_roots
moves onto zeros of dlog only the eigenvalues of its root-form matrix that
may become a candidate it keeps.  The screen must change nothing but the
work: every root they return is a root, and they return every genuine root
the full, unscreened eigenvalue set would have given them.
"""

import math

import numpy as np
import pytest

from dtlocus import boundary, branch
from dtlocus.boundary import RegionSpec, boundary_functions
from dtlocus.branch import branch_roots
from dtlocus.plant import Plant, dlog_ratio, plant_from_coefficients
from dtlocus.poly import RealPolynomial
from dtlocus.tracer import TraceOptions, run

from oracles import (backward_error, clean_region, poly_from_roots, poly_scale, random_plant,
                     reference_breakpoint_polys)

TOL_GENUINE = 1e-10

# Benchmark highorder jobs (num, den, delay, sigma0, kmax) where polishing
# every companion eigenvalue of a breakpoint polynomial, as breakpoints were
# once found, carried one onto a point that is not a root.
NON_ROOT_POLISH_JOBS = {
    # the root u = -49.26 of phi''s omega^2 polynomial went to u = 17.94, a
    # spurious phi' breakpoint at omega = 4.2352
    "highorder seed 101 job 219": (
        RealPolynomial((19456557.723197695, 48403093.260163814, 39801338.94631182,
                        6115705.360095404, -9395691.85651473, -4440979.013669231,
                        1840608.6731478828, 2429484.0195886074, 798164.2807439475,
                        -72259.9671452221, -136609.2798177025, -41233.40922321995,
                        -2463.708743805872, 1778.2998841488984, 582.7627740931367,
                        79.59207145711801, 4.378323)),
        RealPolynomial((-35931409.98516332, -352418321.1224531, -1305446026.8521988,
                        -2395455960.091775, -2454763950.5559454, -1031261412.2899084,
                        1281765283.2099736, 3641195082.4297843, 5235431773.558727,
                        5469114159.725834, 4443379500.75649, 2888305932.1461,
                        1529655346.4820166, 668456625.1753161, 242994593.8294969,
                        73751156.03622107, 18673744.241487544, 3921333.91420311,
                        674696.503663397, 93154.8345395404, 9971.060505575775,
                        779.933471641293, 39.821067000000006, 1.0)),
        0.208333, 3.922062, 2.980971),
    "highorder seed 101 job 160": (
        RealPolynomial((580301.5007570409, -3285741.038569455, 2625939.319036404,
                        1452121.5791949444, -595655.6299369264, -184578.14600739675,
                        44599.632058086725, -2662.8585272467753, -5093.326398513318,
                        1071.31886309706, 415.09575160491516, -64.12000480445197,
                        -17.8578173906298, 2.6965055461319998, 0.629611)),
        RealPolynomial((6076516.553239804, 113966303.94123906, 516968544.10784495,
                        382660267.6002377, -1786483776.4247165, -4842108145.287415,
                        -4626332758.887537, 1046601992.5895169, 9169357452.729776,
                        14627070866.370823, 14989380517.757372, 11568572762.643415,
                        7129810165.521942, 3606980010.3963223, 1517777457.781509,
                        533763050.7017815, 156713295.4162765, 38189812.71889792,
                        7643604.778133921, 1236346.3778368055, 157762.93840945803,
                        15305.059863859322, 1062.1784096184438, 47.037289999999985, 1.0)),
        0.147744, 3.771769, 1.750213),
    "highorder seed 103 job 5": (
        RealPolynomial((46459.19694377675, 484.13523931714735, -18453.341587906398,
                        -2433.2074060119194, 2190.7736287516746, 568.0062085338831,
                        -37.10976049415879, -28.442587975463997, -3.165114)),
        RealPolynomial((58100499.20789419, 715724041.0977528, 4118105775.851564,
                        14750869937.005173, 36982839758.54537, 69164599603.08221,
                        100380393433.95439, 116091375218.10364, 108982653663.49815,
                        84138584418.03564, 53911236280.54445, 28842793491.163815,
                        12929061294.637386, 4861078104.002248, 1530982346.9593706,
                        402347555.2779324, 87626478.10979038, 15646194.527767107,
                        2254009.9122143034, 255786.08104032034, 22036.818066001164,
                        1356.2488977392682, 53.186018, 1.0)),
        0.41301, 3.231846, 1.219547),
    "highorder seed 103 job 185": (
        RealPolynomial((17851352.13463542, 9971440.632138085, -20042362.05590297,
                        2283072.9817205938, 5972158.8308698945, -1500794.2911126488,
                        -836515.4425727935, 301574.9563603514, 54875.47401317774,
                        -30545.03947609231, -342.27507340406373, 1545.1219981570885,
                        -133.19616386552647, -29.676611314194002, 4.740229)),
        RealPolynomial((-2822586708.452159, -7413574140.782924, 10348154625.281902,
                        92119769784.38977, 251675495567.66986, 440563100690.32056,
                        573769578483.0472, 592711681256.6182, 502764843648.5203,
                        357491826920.6725, 215802050106.88242, 111438610870.20306,
                        49427992754.05914, 18856844612.73057, 6182258135.996285,
                        1736620674.268928, 415768458.66527563, 84162857.07565537,
                        14240247.026172627, 1981077.3152638543, 221243.30413487682,
                        19125.103025901783, 1205.410894135614, 49.504259999999995, 1.0)),
        0.10938, 3.922939, 15.630632),
}


def _job(name):
    num, den, delay, sigma0, kmax = NON_ROOT_POLISH_JOBS[name]
    return plant_from_coefficients(num, den, delay), RegionSpec(sigma0, kmax)


def _omega2_polys(plant, sigma0):
    """q with K'(omega) ~ omega*q(omega^2) and phi'(omega) ~ q(omega^2), from
    the cofactor-assembled polynomials cleared of their denominators."""
    kp, pp = reference_breakpoint_polys(plant, sigma0)
    return RealPolynomial(kp.coeffs[1::2]), RealPolynomial(pp.coeffs[0::2])


def _genuine(p, z):
    return backward_error(p.coeffs, z) <= TOL_GENUINE


def _on_dlog(plant, s):
    """|dlog(s)| within 1e-12 of the size of its terms: a zero of dlog to
    the rounding floor of its root-form sum."""
    scale = plant.delay + sum(abs(1.0 / (s - r)) for r in plant.zeros + plant.poles)
    return abs(dlog_ratio(plant, s)) <= 1e-12 * scale


class TestGenuineBreakpoints:
    @pytest.mark.parametrize("name", sorted(NON_ROOT_POLISH_JOBS))
    def test_breakpoints_are_roots(self, name):
        plant, region = _job(name)
        bf = boundary_functions(plant, region)
        kq, phiq = _omega2_polys(plant, region.sigma0)
        # omega = 0 is a root of the odd K', not a root of kq
        for w in [w for w in bf.kprime_roots if w > 0.0]:
            assert _genuine(kq, w * w), (name, "K'", w)
        for w in bf.phiprime_roots:
            assert _genuine(phiq, w * w), (name, "phi'", w)

    @pytest.mark.parametrize("name", sorted(NON_ROOT_POLISH_JOBS))
    def test_branch_candidates_are_roots(self, name):
        plant, region = _job(name)
        for r in branch_roots(plant, region.sigma0):
            assert _on_dlog(plant, r.value), (name, r)


def _highorder_plant(rng):
    """Coefficient form of order 14-24, as the highorder benchmark draws it."""
    def draw(n, re_lo, re_hi):
        out = []
        while len(out) < n:
            re = round(rng.uniform(re_lo, re_hi), 6)
            if n - len(out) >= 2 and rng.rand() < 0.5:
                out.append(complex(re, round(rng.uniform(0.3, 4.0), 6)))
                out.append(out[-1].conjugate())
            else:
                out.append(complex(re, 0.0))
        return [r for r in out if r.imag >= 0.0]

    n = rng.randint(14, 25)
    num = poly_scale(float(rng.uniform(0.2, 5.0)),
                     poly_from_roots(draw(rng.randint(0, n), -4.0, 4.0)))
    den = poly_from_roots(draw(n, -4.0, 1.0))
    return plant_from_coefficients(num, den, round(rng.uniform(0.1, 1.0), 6))


def _plants():
    rng = np.random.RandomState(909)
    out = []
    for i in range(80):
        plant = random_plant(rng, Plant)
        reals = [p for p in plant.poles if p.imag == 0.0]
        if i % 4 == 0 and reals:  # a repeated pole
            plant = Plant(plant.alpha, plant.delay, plant.zeros, plant.poles + tuple(reals[:1]))
        out.append(plant)
    out += [_highorder_plant(rng) for _ in range(24)]
    return [(plant, clean_region(plant, rng)[0]) for plant in out]


def _crafted():
    """Plants whose K' zero in u = omega^2 sits at the screen's edge u = 0:
    over the pole pair sigma0 - 1 +- j(1 + d), K'(omega) = omega f(omega^2)
    with f zero at u = (1 + d)^2 - 1 ~ 2d, next to the eigenvalue at u = 0
    that _turning_points drops; at d = 0, omega = 0 is a triple zero of K'."""
    return [(Plant(1.0, h, (), (complex(-2.0, 1.0 + d), complex(-2.0, -1.0 - d))), -1.0)
            for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3)
            for h in (0.3, 0.7, 2.0)]


class TestScreenChangesNothingElse:
    def test_nonneg_real_roots(self, monkeypatch):
        # the breakpoints, as omega = sqrt(u) of the nonnegative real zeros u
        cases = _plants() + _crafted()
        assert len(cases) >= 130
        regions = [RegionSpec(sigma0, 10.0) for _, sigma0 in cases]
        screened = [boundary_functions(plant, region) for (plant, _), region in zip(cases, regions)]
        monkeypatch.setattr(boundary, "SCREEN_REL", math.inf)  # every eigenvalue kept
        kept = 0
        for (plant, _), region, bf in zip(cases, regions, screened):
            full = boundary_functions(plant, region)
            # an unscreened eigenvalue far off the axis may polish onto a
            # zero another reached: the copies merge, to the last bits
            for got, want in ((bf.kprime_roots, full.kprime_roots),
                              (bf.phiprime_roots, full.phiprime_roots)):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), plant
            kept += len(bf.kprime_roots) + len(bf.phiprime_roots)
        assert kept >= 200

    def test_branch_roots(self, monkeypatch):
        # every plant at its clean sigma0, and plants whose real candidate
        # sits on the screen's edge: on sigma0 and 1e-12 to 1e-3 either side
        cases = _plants()
        for plant, _ in cases[:24]:
            for r in branch_roots(plant, -100.0):
                if r.value.imag == 0.0:
                    x = r.value.real
                    cases += [(plant, x + d) for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9,
                                                       1e-6, -1e-6, 1e-3, -1e-3)]
        assert len(cases) >= 200
        screened = [branch_roots(plant, sigma0) for plant, sigma0 in cases]
        monkeypatch.setattr(branch, "SCREEN_REL", math.inf)  # every eigenvalue kept
        kept = 0
        for (plant, sigma0), got in zip(cases, screened):
            assert got == branch_roots(plant, sigma0), (plant, sigma0)
            assert all(_on_dlog(plant, r.value) for r in got)
            kept += len(got)
        assert kept >= 100


class TestScreenWork:
    @staticmethod
    def _counted(monkeypatch):
        """The eigenvalues the breakpoint solves find, and the Newton polishes
        they start."""
        found, polished = [], []
        eigvals, polish = boundary.secular_eigvals, boundary._on_secular

        def counted_eigvals(*args):
            out = eigvals(*args)
            found.extend(out)
            return out

        def counted_polish(terms, h, u, snap):
            polished.append(u)
            return polish(terms, h, u, snap)

        monkeypatch.setattr(boundary, "secular_eigvals", counted_eigvals)
        monkeypatch.setattr(boundary, "_on_secular", counted_polish)
        return found, polished

    def test_nonneg_polishes_only_screened_eigenvalues(self, monkeypatch):
        found, polished = self._counted(monkeypatch)
        plant = Plant(1.0, 0.5, (1.0 + 2j, 1.0 - 2j, -0.5 + 0j),
                      (-1.0 + 0j, -3.0 + 0j, -2.0 + 1.5j, -2.0 - 1.5j, -0.5 + 3j, -0.5 - 3j))
        bf = boundary_functions(plant, RegionSpec(0.0, 1.0))
        near = [z for z in found if abs(z.imag) <= boundary.SCREEN_REL * (1.0 + abs(z))
                and z.real >= -boundary.SCREEN_REL * (1.0 + abs(z))]
        assert len(found) == 18 and 0 < len(polished) <= len(near) < len(found)
        assert len(bf.kprime_roots) + len(bf.phiprime_roots) >= 2
        assert all(u >= -boundary.SCREEN_REL * (1.0 + abs(u)) for u in polished)

    def test_run_polishes_fewer_than_it_finds(self, monkeypatch):
        plant, region = _job("highorder seed 101 job 219")
        found, polished = self._counted(monkeypatch)
        run(plant, region, TraceOptions(negative_gains=True))
        assert found
        assert len(polished) < len(found)
