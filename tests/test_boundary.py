"""Boundary-line gain/phase functions, intervals, and crossing detection."""

import json
import math

import numpy as np
import pytest

from dtlocus import boundary
from dtlocus import plant as plant_module
from dtlocus.boundary import (
    TOL_BISECT,
    BoundaryCrossing,
    BoundaryFunctions,
    RegionSpec,
    _omega_cap,
    _solve_many,
    _solve_monotone,
    boundary_crossings,
    boundary_functions,
    magnitude_intervals,
)
from dtlocus.cli import parse_input
from dtlocus.errors import (
    BiProperGainCapViolated,
    DegenerateCrossing,
    InputError,
    PoleOrZeroOnBoundary,
)
from dtlocus.plant import Plant, log_eval, plant_from_coefficients, wrap_angle

from oracles import Kprime, fd, geval, grid_crossings, phiprime, reference_classify


@pytest.fixture
def bf1():
    p = Plant(1.0, 1.0, (), (0j,))
    return p, boundary_functions(p, RegionSpec(-2.0, 1.0))


@pytest.fixture
def bf2(p2):
    return p2, boundary_functions(p2, RegionSpec(-3.5, 5.0))


class TestRegionSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            RegionSpec(0.0, 0.0)
        with pytest.raises(InputError):
            RegionSpec(0.0, -2.0)
        with pytest.raises(InputError):
            RegionSpec(math.inf, 1.0)

    def test_lnkmax(self):
        assert RegionSpec(-1.0, math.e).lnkmax == pytest.approx(1.0)


class TestBoundaryFunctions:
    def test_pole_on_boundary_rejected(self, p1):
        with pytest.raises(PoleOrZeroOnBoundary):
            boundary_functions(p1, RegionSpec(0.0, 1.0))

    def test_complex_pole_on_boundary_rejected(self, p3):
        # the line is vertical: Re = -1 hits the pair -1 +- j
        with pytest.raises(PoleOrZeroOnBoundary):
            boundary_functions(p3, RegionSpec(-1.0, 1.0))

    def test_biproper_cap(self):
        plant = Plant(2.0, 1.0, (-2 + 0j,), (-0.5 + 0j,))
        # flat-gain limit: K -> h*sigma0 - ln|alpha| = -1 - ln 2
        with pytest.raises(BiProperGainCapViolated):
            boundary_functions(plant, RegionSpec(-1.0, 0.2))
        bf = boundary_functions(plant, RegionSpec(-1.0, math.exp(-2.0)))
        assert bf.phi0 == pytest.approx(math.pi)  # G(-1) = 2/(-0.5) < 0

    def test_p1_structure(self, bf1):
        _, bf = bf1
        assert bf.phi0 == pytest.approx(math.pi)
        assert bf.kprime_roots == (0.0,)
        assert bf.phiprime_roots == ()

    def test_p1_values(self, bf1):
        _, bf = bf1
        assert bf.K(0.0) == pytest.approx(-2.0 + math.log(2.0), abs=1e-12)
        w1 = math.sqrt(math.exp(4.0) - 4.0)
        assert bf.K(w1) == pytest.approx(0.0, abs=1e-12)
        assert bf.phi(0.0) == pytest.approx(math.pi)
        assert bf.phi(2.0) == pytest.approx(math.pi + math.atan(1.0) - 2.0, abs=1e-12)
        assert phiprime(bf, 0.0) == pytest.approx(-0.5, abs=1e-14)
        assert Kprime(bf, 2.0) == pytest.approx(0.25, abs=1e-14)

    def test_p1_shifted_phiprime_root(self):
        p = Plant(1.0, 1.0, (), (0j,))
        bf = boundary_functions(p, RegionSpec(-0.5, 1.0))
        # phi' = 0.5/(0.25 + omega^2) - 1
        assert bf.phiprime_roots == (pytest.approx(0.5, abs=1e-10),)

    def test_p2_phi0(self, bf2):
        _, bf = bf2
        # G(-3.5) = 97.25 / -7.5 < 0
        assert bf.phi0 == pytest.approx(math.pi)

    def test_K_equals_negative_lnmag(self, bf2):
        plant, bf = bf2
        for w in np.linspace(0.0, 20.0, 41):
            lv = log_eval(plant, complex(-3.5, w))
            assert bf.K(w) == pytest.approx(-lv.lnmag, abs=1e-11)
            assert wrap_angle(bf.phi(w) - lv.phase) == pytest.approx(0.0, abs=1e-9)

    def test_derivatives_match_fd(self, bf2):
        _, bf = bf2
        rng = np.random.RandomState(13)
        for w in rng.uniform(0.1, 15.0, size=50):
            assert Kprime(bf, w) == pytest.approx(fd(bf.K, w), rel=1e-5, abs=1e-8)
            assert phiprime(bf, w) == pytest.approx(fd(bf.phi, w), rel=1e-5, abs=1e-8)
            assert bf.K_slope(w) == (bf.K(w), pytest.approx(Kprime(bf, w), rel=1e-12, abs=1e-14))
            assert bf.phi_slope(w) == (bf.phi(w), pytest.approx(phiprime(bf, w), rel=1e-12, abs=1e-14))

    def test_breakpoints_are_zeros_of_the_slopes(self):
        found = 0
        for plant, region in PROPERTY_CORPUS:
            bf = boundary_functions(plant, region)
            for roots, slope in ((bf.kprime_roots, Kprime), (bf.phiprime_roots, phiprime)):
                for w in roots:
                    assert abs(slope(bf, w)) <= 1e-10 * _slope_scale(bf, w), (plant, region, w)
                found += len(roots)
        assert found >= 400

    def test_kprime_zero_at_origin(self, bf2):
        # conjugate closure forces a stationary boundary gain at omega = 0
        _, bf = bf2
        assert Kprime(bf, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert bf.kprime_roots[0] == 0.0


def _slope_scale(bf, w):
    """h + sum_r 1/|s - r| at s = sigma0 + j w: the size of the terms K' and
    phi' are summed from, against which their rounding is measured."""
    s = complex(bf.sigma0, w)
    return bf.plant.delay + sum(1.0 / abs(s - r) for r in bf.plant.zeros + bf.plant.poles)


class TestMagnitudeIntervals:
    def test_p1_single_interval(self, bf1):
        _, bf = bf1
        got = magnitude_intervals(bf, RegionSpec(-2.0, 1.0))
        assert len(got) == 1
        assert got[0][0] == pytest.approx(0.0, abs=1e-12)
        assert got[0][1] == pytest.approx(math.sqrt(math.exp(4.0) - 4.0), abs=1e-6)

    def test_p1_empty_when_cap_below_min(self, bf1):
        _, bf = bf1
        assert magnitude_intervals(bf, RegionSpec(-2.0, 0.2)) == []

    def test_p2_matches_grid(self, bf2):
        plant, bf = bf2
        region = RegionSpec(-3.5, 5.0)
        intervals = magnitude_intervals(bf, region)
        assert intervals

        def inside(w):
            return any(a - 2e-3 <= w <= b + 2e-3 for a, b in intervals)

        def outside(w):
            return not any(a + 2e-3 <= w <= b - 2e-3 for a, b in intervals)

        hi = intervals[-1][1] + 3.0
        for w in np.arange(0.0, hi, 1e-3):
            if bf.K(w) <= region.lnkmax - 1e-6:
                assert inside(w), f"omega={w} admissible but not covered"
            elif bf.K(w) >= region.lnkmax + 1e-6:
                assert outside(w), f"omega={w} inadmissible but covered"

    def test_biproper_interval(self):
        plant = Plant(2.0, 1.0, (-2 + 0j,), (-0.5 + 0j,))
        region = RegionSpec(-1.0, math.exp(-2.0))
        bf = boundary_functions(plant, region)
        got = magnitude_intervals(bf, region)
        assert len(got) == 1
        # K(w) = -1 - ln2 + 0.5 ln((0.25+w^2)/(1+w^2)) = -2 at w ~ 0.797
        x = (4.0 * math.exp(-2.0) - 0.25) / (1.0 - 4.0 * math.exp(-2.0))
        assert got[0] == pytest.approx((0.0, math.sqrt(x)), abs=1e-6)


class TestBoundaryCrossings:
    def test_p1_single_inward_at_origin(self, bf1):
        _, bf = bf1
        cs = boundary_crossings(bf, RegionSpec(-2.0, 1.0))
        assert len(cs.inward) == 1 and len(cs.outward) == 0
        c = cs.inward[0]
        assert c.omega == pytest.approx(0.0, abs=1e-9)
        assert c.k == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)
        assert c.Kval == pytest.approx(math.log(2.0) - 2.0, abs=1e-9)

    def test_p2_against_grid_oracle(self, p2, bf2):
        _, bf = bf2
        region = RegionSpec(-3.5, 5.0)
        cs = boundary_crossings(bf, region)
        assert cs.outward, "the locus must offer an exit point on this line"
        got = sorted(
            [(c.omega, c.k, "in") for c in cs.inward]
            + [(c.omega, c.k, "out") for c in cs.outward]
        )
        want = grid_crossings(p2, -3.5, 5.0, step=1e-3)
        assert len(got) == len(want)
        for (gw, gk, gd), (ww, wk, wd) in zip(got, want):
            assert gw == pytest.approx(ww, abs=1e-6)
            assert gk == pytest.approx(wk, rel=1e-6, abs=1e-12)
            assert gd == wd

    def test_sorted_by_gain(self, bf2):
        _, bf = bf2
        cs = boundary_crossings(bf, RegionSpec(-3.5, 5.0))
        for group in (cs.inward, cs.outward):
            kvals = [c.Kval for c in group]
            assert kvals == sorted(kvals)
            for c in group:
                assert c.Kval <= RegionSpec(-3.5, 5.0).lnkmax + 1e-12
                assert c.k == pytest.approx(math.exp(c.Kval), rel=1e-15)

    def test_empty_interval_no_crossings(self, bf1):
        _, bf = bf1
        cs = boundary_crossings(bf, RegionSpec(-2.0, 0.2))
        assert cs.inward == () and cs.outward == ()

    def test_degenerate_crossing_raises(self):
        # triple integrator, h = 3: phase slope vanishes exactly where the
        # phase sits on the odd line at omega = 0
        p = Plant(1.0, 3.0, (), (0j, 0j, 0j))
        with pytest.raises(DegenerateCrossing):
            boundary_crossings(boundary_functions(p, RegionSpec(-1.0, 1.0)), RegionSpec(-1.0, 1.0))

    def test_random_plants_against_grid(self):
        from oracles import clean_region, random_plant

        rng = np.random.RandomState(101)
        done = 0
        while done < 8:
            plant = random_plant(rng, Plant)
            sigma0, kmax = clean_region(plant, rng)
            region = RegionSpec(sigma0, kmax)
            try:
                bf = boundary_functions(plant, region)
                cs = boundary_crossings(bf, region)
            except (PoleOrZeroOnBoundary, DegenerateCrossing):
                continue
            # skip cases where a crossing hugs the cap edge: the grid oracle
            # cannot resolve membership there
            edge = any(
                abs(c.Kval - region.lnkmax) < 1e-4
                for c in cs.inward + cs.outward
            )
            if edge or any(abs(phiprime(bf, c.omega)) < 1e-4 for c in cs.inward + cs.outward):
                continue
            want = grid_crossings(plant, sigma0, kmax, step=1e-3)
            got = sorted(
                [(c.omega, "in") for c in cs.inward] + [(c.omega, "out") for c in cs.outward]
            )
            assert len(got) == len(want), (plant, sigma0, kmax)
            for (gw, gd), (ww, wk, wd) in zip(got, want):
                assert gw == pytest.approx(ww, abs=1e-6)
                assert gd == wd
            done += 1


def _roots(rng, n, lo, hi):
    """n roots closed under conjugation, a complex pair half the time."""
    out = []
    while len(out) < n:
        re = rng.uniform(lo, hi)
        if n - len(out) >= 2 and rng.rand() < 0.5:
            im = rng.uniform(0.3, 3.0)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    return tuple(out)


def _breakpoint_corpus():
    """(plant, region) pairs: seeded random plants, bi-proper plants,
    repeated real and complex roots, right-half-plane zeros, each on a clean
    sigma0 and on a sigma0 10 to 40 left of every root."""
    from oracles import clean_region, random_plant

    rng = np.random.RandomState(47)
    plants = [random_plant(rng, Plant) for _ in range(24)]
    for _ in range(8):
        n = rng.randint(1, 7)
        plants.append(Plant(rng.uniform(0.2, 5.0) * rng.choice([-1, 1]), rng.uniform(0.1, 2.0),
                            _roots(rng, n, -3.0, 3.0), _roots(rng, n, -3.0, 0.5)))
    plants += [
        Plant(2.0, 0.7, (1.5 + 0j, 0.5 + 2j, 0.5 - 2j),
              (-1 + 0j, -1 + 0j, -1 + 0j, -2 + 1j, -2 - 1j, -2 + 1j, -2 - 1j)),
        Plant(-1.2, 1.3, (0.4 + 0j, 0.4 + 0j, -0.5 + 1j, -0.5 - 1j),
              (-0.3 + 2j, -0.3 - 2j, -0.3 + 2j, -0.3 - 2j)),
        Plant(1.0, 1.0, (), (0j, 0j, 0j)),
    ]
    out = []
    for plant in plants:
        res = [r.real for r in plant.zeros + plant.poles]
        sigma0, _ = clean_region(plant, rng)
        for s0 in (sigma0, min(res) - rng.uniform(10.0, 40.0)):
            kmax = 0.5 * math.exp(plant.delay * s0) / abs(plant.alpha) if plant.biproper else math.e
            out.append((plant, RegionSpec(s0, kmax)))
    return out


BREAKPOINT_CORPUS = _breakpoint_corpus()


def _property_corpus():
    """About 200 (plant, region) pairs, fixed seeds: oracles.random_plant;
    coefficient-form plants with a root cluster 1e-5 to 1e-3 wide or a
    repeated root; bi-proper plants; a pure delay; cancelled zero-pole
    pairs.  Each on a clean sigma0, a bi-proper one with kmax half its cap."""
    from oracles import clean_region, poly_from_roots, poly_scale, random_plant

    rng = np.random.RandomState(2028)
    plants = [random_plant(rng, Plant) for _ in range(116)]
    for i in range(50):
        center = complex(rng.uniform(-3.0, 0.5), rng.uniform(0.3, 2.0) if i % 2 else 0.0)
        m = rng.randint(2, 4)
        width = 10.0 ** -rng.randint(3, 6) if i % 4 < 2 else 0.0  # a cluster, or m equal roots
        den = poly_from_roots([center + width * k for k in range(m)]
                              + list(_roots(rng, rng.randint(0, 4), -3.0, 0.5)))
        num = _roots(rng, rng.randint(0, den.degree), -3.0, 3.0)
        num = poly_scale(rng.uniform(0.2, 5.0), poly_from_roots(num))
        plants.append(plant_from_coefficients(num, den, rng.uniform(0.1, 2.0)))
    for _ in range(30):
        n = rng.randint(1, 6)
        plants.append(Plant(rng.uniform(0.2, 5.0) * rng.choice([-1, 1]), rng.uniform(0.1, 2.0),
                            _roots(rng, n, -3.0, 3.0), _roots(rng, n, -3.0, 0.5)))
    plants += [
        Plant(1.5, 0.6, (-1 + 0j,), (-1 + 0j, -2 + 0j)),
        Plant(0.8, 1.1, (0.5 + 0j,), (0.5 + 0j, -1 + 1j, -1 - 1j)),
        Plant(-2.0, 0.4, (-1 + 1j, -1 - 1j), (-1 + 1j, -1 - 1j)),
    ]
    out = [(Plant(1.0, 0.8, (), ()), RegionSpec(-1.0, 0.2))]
    for plant in plants:
        sigma0, kmax = clean_region(plant, rng)
        if plant.biproper:
            kmax = 0.5 * math.exp(plant.delay * sigma0) / abs(plant.alpha)
        out.append((plant, RegionSpec(sigma0, kmax)))
    return out


PROPERTY_CORPUS = _property_corpus()


class TestBreakpointPolynomials:
    """The breakpoints against K' and phi' themselves and against the
    nonnegative real roots of their cofactor-assembled polynomials
    (oracles.reference_breakpoint_polys), on PROPERTY_CORPUS and the demo
    plant."""

    def test_match_cofactor_reference(self, p2):
        from oracles import reference_breakpoint_polys, reference_nonneg_real_roots

        plants = [p for p, _ in PROPERTY_CORPUS]
        assert len(plants) >= 200 and sum(p.biproper for p in plants) >= 30
        assert sum(len(set(p.poles)) < len(p.poles) for p in plants) >= 10
        assert any(not p.poles for p in plants)
        assert sum(bool(set(p.zeros) & set(p.poles)) for p in plants) >= 3
        compared = 0
        for plant, region in PROPERTY_CORPUS + _demo_ladder(p2):
            bf = boundary_functions(plant, region)
            for got, ref in zip((bf.kprime_roots, bf.phiprime_roots),
                                reference_breakpoint_polys(plant, region.sigma0)):
                want = [v for v, _ in reference_nonneg_real_roots(ref)]
                assert len(got) == len(want), (plant, region, got, want)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-8 * (1.0 + b), (plant, region, a, b)
                compared += len(got)
        assert compared >= 450

    def test_slopes_keep_sign_between_breakpoints(self, p2):
        # sampled between consecutive breakpoints and on to twice the last
        # plus 10, K' and phi' keep one sign wherever they stand above the
        # rounding of their terms
        for plant, region in PROPERTY_CORPUS + _demo_ladder(p2):
            bf = boundary_functions(plant, region)
            for cuts, slope in ((bf.kprime_roots, bf.K_slope), (bf.phiprime_roots, bf.phi_slope)):
                ends = [0.0, *cuts]
                ends.append(2.0 * ends[-1] + 10.0)
                for a, b in zip(ends, ends[1:]):
                    signs = set()
                    for w in np.linspace(a, b, 27)[1:-1].tolist():
                        v = slope(w)[1]
                        if abs(v) > 1e-9 * _slope_scale(bf, w):
                            signs.add(v > 0.0)
                    assert len(signs) <= 1, (plant, region, a, b)

    def test_zero_is_the_first_kprime_breakpoint(self):
        # K' is odd by conjugate closure, so omega = 0 is a zero, exactly
        # and once; a plant whose roots all cancel has a flat gain and none
        for plant, region in PROPERTY_CORPUS:
            bf = boundary_functions(plant, region)
            kp, pp = bf.kprime_roots, bf.phiprime_roots
            assert list(kp) == sorted(kp) and list(pp) == sorted(pp)
            if set(plant.zeros) == set(plant.poles) and plant.biproper:
                assert kp == () and pp == (), plant
            else:
                assert kp[0] == 0.0 and all(w > 0.0 for w in kp[1:]), plant


# Benchmark jobs (corpus seed 101 jobs 195, 393, 471, 500, 594, 606, 729 and
# 835, highorder seed 101 job 55) on which K' built without exact parity kept
# a ~1e-13 constant term: its root moved just past omega = 0, the first
# magnitude interval started there, and the real-axis crossing was lost.
OMEGA0_JOBS = [
    ({"alpha": 0.900038, "delay": 0.855094, "zeros": [[1.309373, 2.205538], [1.309373, -2.205538]],
      "poles": [[-0.91296, 0.0], [-2.332976, 0.482232], [-2.332976, -0.482232], [0.244179, 0.640328],
                [0.244179, -0.640328], [-1.940797, 0.0]]}, -0.103698, 5.047174),
    ({"alpha": 2.017591, "delay": 1.510297,
      "zeros": [[0.018543, 0.356569], [0.018543, -0.356569], [2.766262, 0.0]],
      "poles": [[-0.094013, 1.518642], [-0.094013, -1.518642], [-0.701472, 1.06803],
                [-0.701472, -1.06803]]}, -1.151736, 3.804224),
    ({"alpha": 3.192995, "delay": 1.532328, "zeros": [],
      "poles": [[-0.332031, 2.530532], [-0.332031, -2.530532], [-2.83716, 0.0], [-0.612817, 0.0],
                [-0.271179, 0.441061], [-0.271179, -0.441061]]}, 0.015774, 1.197022),
    ({"alpha": 3.860875, "delay": 1.128714, "zeros": [[2.893101, 0.0]],
      "poles": [[0.384522, 0.0], [-1.423881, 2.027836], [-1.423881, -2.027836], [-1.118886, 2.414967],
                [-1.118886, -2.414967]]}, -1.979571, 1.91823),
    ({"alpha": 3.707475, "delay": 1.576862,
      "zeros": [[1.558316, 0.78494], [1.558316, -0.78494], [0.977308, 0.0]],
      "poles": [[-2.794691, 0.0], [-2.866323, 1.239639], [-2.866323, -1.239639],
                [-0.037187, 1.782819], [-0.037187, -1.782819], [-2.681216, 0.0]]}, -0.832071, 17.855103),
    ({"alpha": -0.649301, "delay": 1.169866, "zeros": [[1.065903, 0.333183], [1.065903, -0.333183]],
      "poles": [[0.164184, 0.0], [-1.377644, 0.787202], [-1.377644, -0.787202], [-1.612763, 2.273425],
                [-1.612763, -2.273425], [-0.322831, 0.0], [-0.025594, 0.0], [0.125898, 0.0]]},
     -1.158127, 1.428993),
    ({"alpha": 0.326507, "delay": 0.851789,
      "zeros": [[-1.934271, 1.895689], [-1.934271, -1.895689], [0.983357, 0.0]],
      "poles": [[-1.962674, 0.0], [-1.695376, 0.460709], [-1.695376, -0.460709], [-0.09278, 1.282453],
                [-0.09278, -1.282453]]}, -0.884319, 0.447894),
    ({"alpha": -4.183842, "delay": 1.667198,
      "zeros": [[-2.870059, 0.0], [-0.860109, 1.864766], [-0.860109, -1.864766]],
      "poles": [[-2.921366, 0.983221], [-2.921366, -0.983221], [-2.522934, 2.774887],
                [-2.522934, -2.774887]]}, -1.24599, 2.25211),
    ({"num": [-4318.613704470754, -7671.686286934535, -5213.589874246051, -3882.0531671423137,
              -1776.0435020077118, -295.73484215045875, 3.8737466221020043, 67.77169706372527,
              13.28233273351, 3.690034],
      "den": [12761.766037901933, 303791.6145910128, 1273388.703311129, 2163174.2339946474,
              2147122.824006303, 1492648.1482926882, 797015.6492485089, 339854.9960716694,
              117843.23693928834, 33496.68735804825, 7748.743584534392, 1424.061279398742,
              199.35898595216096, 19.368357, 1.0],
      "delay": 0.872025}, -2.580224, 0.88083),
]


# Benchmark jobs (corpus seed 101 jobs 34, 72, 187 and 399, highorder
# seed 101 jobs 46 and 81) whose phase at omega = 0, summed from arctangents,
# landed a few ulp off the line at +-pi it lies on.  The piece starting there
# counted its phase lines from that value, missed the line at omega = 0, and
# the real-axis crossing was lost.
EXACT_PHASE_JOBS = [
    ({"alpha": 4.358233, "delay": 0.648244, "zeros": [],
      "poles": [[-2.215902, 2.412985], [-2.215902, -2.412985], [-2.794387, 0.0], [-2.221246, 1.041712],
                [-2.221246, -1.041712], [-1.264597, 0.0], [-2.111082, 0.0]]}, -0.96487, 11.868524),
    ({"alpha": -1.135096, "delay": 0.661094, "zeros": [[-2.153698, 0.0]],
      "poles": [[-1.540026, 2.036364], [-1.540026, -2.036364], [-0.135139, 0.0], [-2.932592, 0.318743],
                [-2.932592, -0.318743], [-2.001784, 0.890017], [-2.001784, -0.890017]]},
     -3.651957, 13.064517),
    ({"alpha": 4.759249, "delay": 0.88207, "zeros": [[2.962182, 0.0]],
      "poles": [[-1.1883, 2.50865], [-1.1883, -2.50865]]}, -0.36381, 4.212023),
    ({"alpha": 3.274744, "delay": 0.671386, "zeros": [[1.12472, 0.920368], [1.12472, -0.920368]],
      "poles": [[-0.609346, 0.0], [-0.709328, 1.289194], [-0.709328, -1.289194]]}, 0.916388, 18.332259),
    ({"num": [9437638.986226495, 10797872.272945246, -21632964.282100398, -55503267.64030126,
              -58175093.31173242, -38213568.48402196, -17003765.074096404, -5013396.255868058,
              -713684.8672212368, 208677.2980305032, 202587.63344783644, 88772.70917781432,
              28183.59200996745, 7289.317413587608, 1563.8437520677608, 265.66614368969647,
              30.62886482843101, 1.978371],
      "den": [1.0313156260217908, -140.2428398765852, -3381.558535056618, -23288.389573437897,
              -79976.39779169325, -211276.55467636613, -517952.6972704068, -830791.3628054385,
              -500711.93279940274, 533760.3949789285, 1652954.0369307734, 2270121.915366749,
              2157553.135424471, 1571086.0008359624, 916932.1274570263, 433330.0424882313,
              165968.85047995072, 51201.44391608266, 12397.747293958519, 2263.0453897987995,
              293.26761963801295, 24.280775999999996, 1.0],
      "delay": 0.952513}, -0.753241, 10.549213),
    ({"num": [19410581.720973533, 170008045.67286667, -241582665.81412512, -259240833.32202524,
              -117988423.0068478, -9544688.46719176, -68255394.12797609, 20704589.755746424,
              -16738516.093714276, 5394289.2163495, -2087470.6127822548, 434438.16575213365,
              -36286.12213633517, -14724.41415303725, 8050.960498738193, -725.3659158257116,
              -155.86282006681483, 147.10192793142818, -25.75544391143101, 3.667583],
      "den": [26703514.32276182, 138059680.6870251, 96555068.78974184, -357166658.6695313,
              -857729317.5437887, -808514234.4145935, -194957955.3453634, 475046015.7431511,
              794111110.8437016, 741427560.2819027, 513121940.9142585, 285959631.01129377,
              132991628.59678367, 52492675.93336555, 17705158.26417896, 5101758.266452117,
              1247182.0443405088, 254866.6013069435, 42463.23839202719, 5541.933410768223,
              530.5849853033681, 33.039345000000004, 1.0],
      "delay": 0.338756}, -1.849624, 4.307498),
]


@pytest.mark.parametrize(
    "doc, sigma0, kmax", OMEGA0_JOBS + EXACT_PHASE_JOBS,
    ids=[f"corpus101-{j}" for j in (195, 393, 471, 500, 594, 606, 729, 835)] + ["highorder101-55"]
    + [f"corpus101-{j}" for j in (34, 72, 187, 399)] + ["highorder101-46", "highorder101-81"],
)
def test_real_axis_crossing_kept(doc, sigma0, kmax):
    plant = parse_input(json.dumps(doc).encode())
    region = RegionSpec(sigma0, kmax)
    at_zero = 0
    for signed in (plant, plant.flipped_gain()):
        cs = boundary_crossings(boundary_functions(signed, region), region)
        want = grid_crossings(signed, sigma0, kmax, step=1e-3)
        got = sorted(
            [(c.omega, "in") for c in cs.inward] + [(c.omega, "out") for c in cs.outward]
        )
        assert len(got) == len(want)
        for (gw, gd), (ww, _, wd) in zip(got, want):
            assert gw == pytest.approx(ww, abs=1e-6)
            assert gd == wd
        at_zero += sum(ww == 0.0 for ww, _, _ in want)
    assert at_zero == 1


def _signed_corpus(far_left=True):
    """BREAKPOINT_CORPUS with both gain signs.

    far_left=False keeps only each plant's clean sigma0: on the sigma0 10 to
    40 left of every root, the gain cap e admits up to millions of crossings.
    """
    return [(s, region) for i, (p, region) in enumerate(BREAKPOINT_CORPUS)
            if far_left or i % 2 == 0 for s in (p, p.flipped_gain())]


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestSignedRows:
    def test_equal_former_tuples_to_the_bit(self):
        # each root's sign folded into its row gives K, phi, their slopes
        # and phi0 the bits of the former four tuples (oracles.FormerLine),
        # for both gain signs, at omega = 0, at random floats and on arrays;
        # each plant also with its roots shuffled, so that conjugates need
        # not sit side by side and cancel in phi0's sums
        from oracles import FormerLine

        rng = np.random.RandomState(32)
        plants = [p for p, _ in PROPERTY_CORPUS]
        assert len(plants) >= 200 and sum(p.biproper for p in plants) >= 30
        assert sum(len(set(p.poles)) < len(p.poles) for p in plants) >= 10
        shuffled = [(Plant(p.alpha, p.delay, rng.permutation(p.zeros), rng.permutation(p.poles)),
                     region) for p, region in PROPERTY_CORPUS]
        compared = 0
        for plant, region in PROPERTY_CORPUS + shuffled:
            bf = boundary_functions(plant, region)
            reach = 2.0 * max([abs(r) for r in plant.zeros + plant.poles], default=1.0)
            w = np.concatenate([[0.0], rng.uniform(0.0, reach, 12),
                                10.0 ** rng.uniform(-6.0, 4.0, 12)])
            for line in (bf, bf.flipped_gain()):
                ref = FormerLine(line.plant, region.sigma0)
                assert _bits(line.phi0) == _bits(ref.phi0), (plant, region)
                K, dK = line.K_slope(w)
                phi, dphi = line.phi_slope(w)
                want = ref.phi_slope_many(w)
                assert phi.tobytes() == want[0].tobytes() and dphi.tobytes() == want[1].tobytes()
                for i, x in enumerate(w.tolist()):
                    assert _bits(*line.K_slope(x)) == _bits(*ref.K_slope(x)) == _bits(K[i], dK[i])
                    assert _bits(*line.phi_slope(x)) == _bits(*ref.phi_slope(x)), (plant, x)
                compared += w.size
        assert compared >= 20_000


class TestExactPhaseAtOrigin:
    def test_job_phase_is_pi(self):
        doc, sigma0, kmax = EXACT_PHASE_JOBS[0]
        plant = parse_input(json.dumps(doc).encode()).flipped_gain()
        bf = boundary_functions(plant, RegionSpec(sigma0, kmax))
        assert bf.phi(0.0) == math.pi  # the sum of its arctangents is 1 ulp short

    def test_phase_is_the_exact_multiple_of_pi(self):
        for plant, region in _signed_corpus():
            bf = boundary_functions(plant, region)
            value, slope = bf.phi_slope(0.0)
            assert bf.phi(0.0) == value
            turns = round(value / math.pi)
            assert value == math.pi * turns
            # the phase line through omega = 0 is odd exactly when G(sigma0) < 0
            assert turns % 2 == (geval(plant, region.sigma0).real < 0.0), (plant, region)
            assert slope == pytest.approx(phiprime(bf, 0.0), rel=1e-12, abs=1e-12)


def _demo_ladder(plant):
    return [(plant, RegionSpec(s0, kmax)) for s0, kmax in
            ((-3.5, 50.0), (-3.5, 150.0), (-3.5, 500.0), (-6.0, 5.0))]


class TestHalfDegreeBreakpoints:
    """The breakpoints are solved for in u = omega^2, at half the degree of
    K' and phi' in omega."""

    def test_cover_full_degree_roots(self, p2):
        from oracles import reference_breakpoint_polys, reference_nonneg_real_roots

        for plant, region in BREAKPOINT_CORPUS + _demo_ladder(p2):
            bf = boundary_functions(plant, region)
            polys = reference_breakpoint_polys(plant, region.sigma0)
            for half, poly in zip((bf.kprime_roots, bf.phiprime_roots), polys):
                assert list(half) == sorted(half) and all(r >= 0.0 for r in half)
                # extra roots are allowed: an extra cut only splits a monotone piece
                for r, _ in reference_nonneg_real_roots(poly):
                    assert min(abs(r - w) for w in half) <= 1e-9 * (1.0 + r), (plant, region, r)

    def test_odd_polynomial_roots_at_origin(self):
        # K' is odd: omega*f(omega^2).  Over the pole pair sigma0 - 1 +- jb,
        # f(u) = 2(u - b^2 + 1)/|u - q|^2, so b = sqrt(5) turns K at omega =
        # 0 and 2, and b = 1 makes omega = 0 a triple zero, found once; at
        # b = 1 + 1e-15 the zero u = 2.2e-15 rounds to 0 and merges with it
        for b, want in ((5.0 ** 0.5, (0.0, 2.0)), (1.0, (0.0,)), (1.0 + 1e-15, (0.0,))):
            plant = Plant(1.0, 0.5, (), (complex(-2.0, b), complex(-2.0, -b)))
            bf = boundary_functions(plant, RegionSpec(-1.0, 1.0))
            assert bf.kprime_roots == pytest.approx(want, rel=1e-14, abs=1e-14)
            assert bf.kprime_roots[0] == 0.0
        plant = Plant(1.0, 0.5, (), (0j,))
        assert boundary_functions(plant, RegionSpec(-1.0, 1.0)).kprime_roots == (0.0,)


class TestNewtonSearch:
    """The safeguarded Newton search against the former bisection search."""

    def test_matches_bisection_reference(self, p2):
        from oracles import reference_crossing_omegas, reference_magnitude_intervals

        compared = crossings = 0
        for plant, region in _signed_corpus(far_left=False) + _demo_ladder(p2):
            bf = boundary_functions(plant, region)
            cap = _omega_cap(bf, region)
            got_iv = magnitude_intervals(bf, region)
            want_iv = reference_magnitude_intervals(bf, region)
            assert len(got_iv) == len(want_iv), (plant, region)
            for g, w in zip(got_iv, want_iv):
                assert g == pytest.approx(w, rel=0.0, abs=TOL_BISECT * (1.0 + cap))
            try:
                cs = boundary_crossings(bf, region)
            except DegenerateCrossing:
                continue
            got = sorted(
                [(c.omega, "in") for c in cs.inward] + [(c.omega, "out") for c in cs.outward]
            )
            want = reference_crossing_omegas(bf, region)
            assert len(got) == len(want), (plant, region)
            for (gw, gd), (ww, wd, hi) in zip(got, want):
                assert gd == wd
                assert abs(gw - ww) <= TOL_BISECT * (1.0 + hi), (plant, region, gw, ww)
            compared += 1
            crossings += len(got)
        assert compared >= 70 and crossings >= 4000

    def test_phase_evaluations_per_crossing(self, p2, monkeypatch):
        region = RegionSpec(-3.5, 500.0)
        bf = boundary_functions(p2, region)
        calls = []
        phi_slope = BoundaryFunctions.phi_slope

        def counted(self, omega):
            calls.append(omega)
            return phi_slope(self, omega)

        monkeypatch.setattr(BoundaryFunctions, "phi_slope", counted)
        cs = boundary_crossings(bf, region)
        n = len(cs.inward) + len(cs.outward)
        assert n > 2000
        assert len(calls) <= 3 * n  # bisection to TOL_BISECT took about 34

    def test_direction_from_solve_slope(self, p2, monkeypatch):
        # each crossing's direction comes from the phase slope the solve
        # already has, not from a kernel pass of its own
        region = RegionSpec(-3.5, 500.0)
        bf = boundary_functions(p2, region)
        calls = []
        for name in ("_log_kernel", "_log_kernel_many"):
            kernel = getattr(plant_module, name)
            monkeypatch.setattr(plant_module, name,
                                lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
        cs = boundary_crossings(bf, region)
        monkeypatch.undo()
        assert calls == []
        omegas = sorted(c.omega for c in cs.inward + cs.outward)
        assert len(omegas) > 2000
        assert cs == reference_classify(bf, region, omegas)

    def test_safeguards(self):
        # w^3 = 1 on [0, 4]: the tangent at 0 is flat and the one at 4 jumps
        # past 0, so only bisection steps make progress at first
        def f(w):
            return w ** 3, 3.0 * w * w

        for start in ((0.0, 0.0, 0.0), (4.0, 64.0, 48.0), (-1.0, 0.0, 1e-300)):
            root, _ = _solve_monotone(f, 1.0, 0.0, 4.0, 0.0, 64.0, 0.0, start, 1e-12)
            assert root == pytest.approx(1.0, abs=1e-12)
        # w^25 = 1e-25: plain Newton from 2 creeps toward 0.1 by a factor 24/25
        # per step; a step that fails to halve the one before it bisects
        calls = []

        def steep(w):
            calls.append(w)
            return w ** 25, 25.0 * w ** 24

        root, _ = _solve_monotone(steep, 1e-25, 0.0, 2.0, 0.0, 2.0 ** 25, 0.0,
                                  (2.0, 2.0 ** 25, 25.0 * 2.0 ** 24), 1e-12)
        assert root == pytest.approx(0.1, abs=1e-12)
        assert len(calls) <= 30
        # w^25 = 2^24 from the chord of [0, 2]: the 9th evaluation is the root
        # to the last bit, where the step rounds to nothing and lands on the
        # bracket end that evaluation just set; that step is taken
        calls.clear()
        target = 2.0 ** 24
        root, _ = _solve_monotone(steep, target, 0.0, 2.0, 0.0, 2.0 ** 25, 0.0,
                                  (1.0, target, 1.0), 1e-12)
        assert len(calls) <= 10 and root == calls[8]
        assert abs(root - 2.0 ** (24 / 25)) <= 4e-16
        # an endpoint on the target returns it; a graze off the bracket picks the nearer end
        assert _solve_monotone(f, 0.0, 0.0, 4.0, 0.0, 64.0, 0.0, (0.0, 0.0, 0.0), 1e-12)[0] == 0.0
        assert _solve_monotone(f, -1e-9, 0.0, 4.0, 0.0, 64.0, 0.0, (0.0, 0.0, 0.0), 1e-12)[0] == 0.0

    def test_right_end_on_the_target(self):
        # the right end on the target returns it, with start, unevaluated
        def f(w):
            raise AssertionError("evaluated")

        start = (1.0, 1.0, 3.0)
        got = _solve_monotone(f, 64.0, 0.0, 4.0, 0.0, 64.0, 0.0, start, 1e-12)
        assert got[0] == 4.0 and got[1] is start

    def test_flat_slope_bisects_down_to_tol(self):
        # a flat slope gives no Newton step, so the search bisects until the
        # bracket is within tol and returns its midpoint with the last
        # evaluation; the root 1/3 is no double, so no evaluation hits it
        calls = []

        def flat(w):
            assert len(calls) < 60, "no end to the bisection"
            calls.append(w)
            return w - 1.0 / 3.0, 0.0

        tol = 1e-6
        root, last = _solve_monotone(flat, 0.0, 0.0, 1.0, -1.0 / 3.0, 2.0 / 3.0, 0.0,
                                     (0.0, -1.0 / 3.0, 0.0), tol)
        assert abs(root - 1.0 / 3.0) <= tol and root not in calls
        assert last == (calls[-1], calls[-1] - 1.0 / 3.0, 0.0)
        assert len(calls) == math.ceil(math.log2(1.0 / tol))



def _crossing_cases(p2):
    """The (plant, region) pairs of TestBoundaryCrossings and TestNewtonSearch:
    the integrator, the demo plant, the degenerate triple integrator, seeded
    random plants and the signed breakpoint corpus with the demo ladder."""
    from oracles import clean_region, random_plant

    integrator = Plant(1.0, 1.0, (), (0j,))
    cases = [(integrator, RegionSpec(-2.0, 1.0)), (integrator, RegionSpec(-2.0, 0.2)),
             (p2, RegionSpec(-3.5, 5.0)),
             (Plant(1.0, 3.0, (), (0j, 0j, 0j)), RegionSpec(-1.0, 1.0))]
    rng = np.random.RandomState(101)
    for _ in range(16):
        plant = random_plant(rng, Plant)
        cases.append((plant, RegionSpec(*clean_region(plant, rng))))
    return cases + _signed_corpus(far_left=False) + _demo_ladder(p2)


def _on_both_paths(bf, region, monkeypatch):
    """boundary_crossings with every piece solved over arrays, then with every
    piece by the scalar chain; a DegenerateCrossing is returned, not raised."""
    out = []
    for lines in (1, math.inf):
        with monkeypatch.context() as mp:
            mp.setattr(boundary, "_ARRAY_LINES", lines)
            try:
                out.append(boundary_crossings(bf, region))
            except DegenerateCrossing as e:
                out.append(e)
    return out


def _by_omega(cs):
    """(omega, "in" | "out", k) of every crossing, ascending in omega."""
    return sorted([(c.omega, "in", c.k) for c in cs.inward]
                  + [(c.omega, "out", c.k) for c in cs.outward])


class TestArraySolve:
    """_solve_many, the array solve of every piece with _ARRAY_LINES or more
    phase lines, against the scalar chain of _solve_monotone."""

    def test_same_crossings_as_scalar_chain(self, p2, monkeypatch):
        compared = crossings = 0
        for plant, region in _crossing_cases(p2):
            try:
                bf = boundary_functions(plant, region)
            except PoleOrZeroOnBoundary:
                continue
            arrays, scalar = _on_both_paths(bf, region, monkeypatch)
            assert type(arrays) is type(scalar), (plant, region)
            if isinstance(scalar, DegenerateCrossing):
                continue
            for cs in (arrays, scalar):
                for group in (cs.inward, cs.outward):
                    assert [c.Kval for c in group] == sorted(c.Kval for c in group)
            got, want = _by_omega(arrays), _by_omega(scalar)
            assert len(got) == len(want), (plant, region)
            ends = [b for _, b in magnitude_intervals(bf, region)]
            for (gw, gd, _), (ww, wd, _) in zip(got, want):
                hi = next(b for b in ends if ww <= b + TOL_BISECT * (1.0 + b))
                assert gd == wd, (plant, region, ww)
                assert abs(gw - ww) <= TOL_BISECT * (1.0 + hi), (plant, region, gw, ww)
            compared += 1
            crossings += len(got)
        assert compared >= 80 and crossings >= 4000

    def test_against_oracles(self, p2, monkeypatch):
        # the grid oracle of TestBoundaryCrossings and the bisection reference
        # of TestNewtonSearch, with every piece solved over arrays
        from oracles import reference_crossing_omegas

        monkeypatch.setattr(boundary, "_ARRAY_LINES", 1)
        region = RegionSpec(-3.5, 5.0)
        got = _by_omega(boundary_crossings(boundary_functions(p2, region), region))
        want = grid_crossings(p2, -3.5, 5.0, step=1e-3)
        assert len(got) == len(want)
        for (gw, gd, gk), (ww, wk, wd) in zip(got, want):
            assert gw == pytest.approx(ww, abs=1e-6)
            assert gk == pytest.approx(wk, rel=1e-6, abs=1e-12)
            assert gd == wd
        for plant, region in _demo_ladder(p2):
            bf = boundary_functions(plant, region)
            got = _by_omega(boundary_crossings(bf, region))
            want = reference_crossing_omegas(bf, region)
            assert len(got) == len(want) > 200
            for (gw, gd, _), (ww, wd, hi) in zip(got, want):
                assert gd == wd and abs(gw - ww) <= TOL_BISECT * (1.0 + hi)

    def test_degenerate_crossing_raises_on_both_paths(self, monkeypatch):
        p = Plant(1.0, 3.0, (), (0j, 0j, 0j))
        region = RegionSpec(-1.0, 1.0)
        for got in _on_both_paths(boundary_functions(p, region), region, monkeypatch):
            assert isinstance(got, DegenerateCrossing)

    def test_phase_evaluations_per_crossing(self, p2, monkeypatch):
        # every line starts from the chord through its piece and takes about
        # two evaluations; the scalar chain's tangent from the previous hit
        # takes about one, each a Python call
        region = RegionSpec(-3.5, 500.0)
        bf = boundary_functions(p2, region)
        evaluated = []
        phi_slope = BoundaryFunctions.phi_slope
        monkeypatch.setattr(BoundaryFunctions, "phi_slope",
                            lambda self, w: evaluated.append(np.size(w)) or phi_slope(self, w))
        cs = boundary_crossings(bf, region)
        n = len(cs.inward) + len(cs.outward)
        assert n > 2000 and len(evaluated) < 100
        assert sum(evaluated) <= 3 * n

    def test_twins_match_scalar(self, bf2):
        # phi_slope and K_slope over an array evaluate each omega as they do
        # over a float: K to the bit (its logs are math.log's), phi to
        # numpy's arctan, and phi at omega = 0 on its multiple of pi
        _, bf = bf2
        w = np.concatenate([[0.0], np.random.RandomState(5).uniform(0.0, 200.0, 300)])
        K, dK = bf.K_slope(w)
        phi, dphi = bf.phi_slope(w)
        for i, x in enumerate(w.tolist()):
            assert (K[i], dK[i]) == bf.K_slope(x)
            value, slope = bf.phi_slope(x)
            assert phi[i] == pytest.approx(value, rel=1e-15, abs=1e-14)
            assert dphi[i] == pytest.approx(slope, rel=1e-12, abs=1e-14)
            assert dphi[i] == pytest.approx(phiprime(bf, x), rel=1e-12, abs=1e-14)
        assert phi[0] == bf.phi(0.0) == math.pi

    def test_safeguards(self):
        # w^3 = t on [0, 4] for several t at once: the chord from (0, 0) to
        # (4, 64) starts small targets where the tangent jumps out of the
        # bracket, so they bisect first, as in _solve_monotone
        def f(w):
            return w ** 3, 3.0 * w * w

        t = np.array([1e-6, 0.5, 1.0, 8.0, 27.0, 63.9])
        roots, slopes = _solve_many(f, t, 0.0, 4.0, 0.0, 64.0, 1e-12)
        assert roots == pytest.approx(np.cbrt(t), abs=1e-12)
        assert slopes == pytest.approx(3.0 * roots ** 2, rel=1e-6)
        # w^25 = 1e-25 from the chord of [0, 2]: steps that fail to halve
        # the one before them bisect, so the creep toward 0.1 stays short;
        # each target takes as many evaluations as _solve_monotone started
        # at the same point, and returns the same root
        rounds = []

        def steep(w):
            rounds.append(w)
            return w ** 25, 25.0 * w ** 24

        t = np.array([1e-25, 1e-10, 1.0, 2.0 ** 24])
        roots, _ = _solve_many(steep, t, 0.0, 2.0, 0.0, 2.0 ** 25, 1e-12)
        assert roots == pytest.approx(t ** (1.0 / 25.0), abs=1e-12)
        assert len(rounds) <= 30
        for target, root in zip(t, roots):
            rounds.clear()
            _solve_many(steep, np.array([target]), 0.0, 2.0, 0.0, 2.0 ** 25, 1e-12)
            solo = len(rounds)
            rounds.clear()
            chord = (2.0 * target / 2.0 ** 25, target, 1.0)
            assert _solve_monotone(steep, target, 0.0, 2.0, 0.0, 2.0 ** 25, 0.0, chord,
                                   1e-12)[0] == root
            assert solo == len(rounds)
        # 2^24 is reached to the last bit at the 9th evaluation, where the
        # step rounds to nothing and lands on a bracket end; that step is taken
        rounds.clear()
        roots, _ = _solve_many(steep, np.array([2.0 ** 24]), 0.0, 2.0, 0.0, 2.0 ** 25, 1e-12)
        assert len(rounds) <= 10 and roots[0] == rounds[8][0]
        # an endpoint on the target returns it, as does a graze off the
        # bracket, the nearer end winning; nothing is evaluated for them
        roots, slopes = _solve_many(f, np.array([0.0, -1e-9, 64.0, 64.0 + 1e-9]),
                                    0.0, 4.0, 0.0, 64.0, 1e-12)
        assert roots.tolist() == [0.0, 0.0, 4.0, 4.0] and np.isnan(slopes).all()
