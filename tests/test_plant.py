"""Plant construction and log-domain evaluation."""

import cmath
import math

import numpy as np
import pytest

from dtlocus.errors import InputError, SingularPointError
from dtlocus.branch import branch_roots
from dtlocus.plant import (
    Plant,
    dlog_ratio,
    gain_at,
    log_eval,
    plant_from_coefficients,
    wrap_angle,
)
from dtlocus.poly import PolyRoot, RealPolynomial

from oracles import fd, geval, random_plant


class TestWrapAngle:
    def test_principal_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open on the left
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0)
        assert wrap_angle(0.1 - 4 * math.pi) == pytest.approx(0.1)

    def test_range_random(self):
        rng = np.random.RandomState(3)
        for x in rng.uniform(-50, 50, size=200):
            w = wrap_angle(x)
            assert -math.pi < w <= math.pi
            assert abs(math.remainder(w - x, 2 * math.pi)) < 1e-9


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InputError):
            Plant(0.0, 1.0, (), (0j,))
        with pytest.raises(InputError):
            Plant(1.0, 0.0, (), (0j,))
        with pytest.raises(InputError):
            Plant(1.0, -1.0, (), (0j,))
        with pytest.raises(InputError):
            Plant(1.0, 1.0, (1j, 2j), (0j, 0j))  # zeros not conjugate closed
        with pytest.raises(InputError):
            Plant(1.0, 1.0, (0j, 1j, -1j), (0j, 0j))  # improper
        for root in (complex(math.inf, 0.0), complex(math.nan, 0.0), complex(-1.0, math.inf)):
            with pytest.raises(InputError, match="zeros/poles must be finite"):
                Plant(1.0, 1.0, (), (root, root.conjugate()))
            with pytest.raises(InputError, match="zeros/poles must be finite"):
                Plant(1.0, 1.0, (root, root.conjugate()), (0j, 0j))

    def test_conjugate_pairs_accepted(self):
        p = Plant(2.0, 0.5, (1 + 1j, 1 - 1j), (0j, -2 + 3j, -2 - 3j))
        assert len(p.poles) == 3 and len(p.zeros) == 2
        assert not p.biproper

    def test_flipped_gain(self, p1):
        q = p1.flipped_gain()
        assert q.alpha == -1.0
        assert q.poles == p1.poles

    def test_from_coefficients_p2(self):
        num = RealPolynomial((50.0, -10.0, 1.0))
        den = RealPolynomial((1.25, 4.25, 4.0, 1.0))
        p = plant_from_coefficients(num, den, 1.0)
        assert p.alpha == pytest.approx(1.0)
        assert sorted(z.real for z in p.zeros) == pytest.approx([5.0, 5.0])
        assert sorted(z.imag for z in p.zeros) == pytest.approx([-5.0, 5.0])
        assert sorted(q.real for q in p.poles) == pytest.approx([-2.5, -1.0, -0.5], abs=1e-9)

    def test_from_coefficients_trivia(self):
        p = plant_from_coefficients(RealPolynomial((1.0,)), RealPolynomial((0.0, 1.0)), 1.0)
        assert (p.alpha, p.zeros, p.poles) == (1.0, (), (0j,))
        q = plant_from_coefficients(RealPolynomial((2.0, 2.0)), RealPolynomial((3.0, 1.0)), 1.0)
        assert q.alpha == pytest.approx(2.0)
        assert q.zeros[0] == pytest.approx(-1.0)
        assert q.poles[0] == pytest.approx(-3.0)

    def test_from_coefficients_errors(self):
        s = RealPolynomial((0.0, 1.0))
        with pytest.raises(InputError):
            plant_from_coefficients(RealPolynomial((0.0, 0.0, 1.0)), s, 1.0)  # improper
        with pytest.raises(InputError):
            plant_from_coefficients(RealPolynomial(()), s, 1.0)  # zero numerator
        for zero in (RealPolynomial(()), RealPolynomial((0.0, 0.0))):
            with pytest.raises(InputError, match="denominator is the zero polynomial"):
                plant_from_coefficients(RealPolynomial((1.0,)), zero, 1.0)
        with pytest.raises(InputError):
            plant_from_coefficients(RealPolynomial((1.0,)), s, 0.0)  # h = 0

    def test_repeated_pole_expansion(self):
        den = RealPolynomial((1.0, 2.0, 1.0))  # (s + 1)^2
        p = plant_from_coefficients(RealPolynomial((1.0,)), den, 1.0)
        assert len(p.poles) == 2
        assert p.poles[0] == pytest.approx(p.poles[1])


class TestLogEval:
    def test_p1_reference_points(self, p1):
        v = log_eval(p1, -1.0)
        assert v.lnmag == pytest.approx(1.0, abs=1e-12)
        assert v.phase == pytest.approx(math.pi)
        far = log_eval(p1, -30.0)
        assert far.lnmag == pytest.approx(30.0 - math.log(30.0), abs=1e-12)

    def test_p2_at_origin(self, p2):
        v = log_eval(p2, 0.0)
        assert v.lnmag == pytest.approx(math.log(40.0), abs=1e-12)
        assert v.phase == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_evaluation(self, p2):
        rng = np.random.RandomState(11)
        for _ in range(50):
            s = complex(rng.uniform(-4, 6), rng.uniform(-8, 8))
            direct = geval(p2, s) * cmath.exp(-p2.delay * s)
            v = log_eval(p2, s)
            assert v.lnmag == pytest.approx(math.log(abs(direct)), abs=1e-9)
            assert wrap_angle(v.phase - cmath.phase(direct)) == pytest.approx(0.0, abs=1e-9)

    def test_no_overflow_far_left(self, p2):
        v = log_eval(p2, complex(-400.0, 3.0))
        assert math.isfinite(v.lnmag) and v.lnmag > 350.0

    def test_conjugate_symmetry(self, p2):
        rng = np.random.RandomState(5)
        for _ in range(30):
            s = complex(rng.uniform(-4, 6), rng.uniform(0.1, 8))
            a, b = log_eval(p2, s), log_eval(p2, s.conjugate())
            assert a.lnmag == pytest.approx(b.lnmag, abs=1e-12)
            assert wrap_angle(a.phase + b.phase) == pytest.approx(0.0, abs=1e-12)

    def test_singular_point_rejected(self, p1, p2):
        with pytest.raises(SingularPointError):
            log_eval(p1, 0.0)
        with pytest.raises(SingularPointError):
            log_eval(p2, 5 + 5j)
        with pytest.raises(SingularPointError):
            gain_at(p2, -0.5 + 1e-14j)

    def test_negative_alpha_phase_offset(self, p1):
        q = p1.flipped_gain()
        a, b = log_eval(p1, -1.0 + 0.5j), log_eval(q, -1.0 + 0.5j)
        assert a.lnmag == pytest.approx(b.lnmag)
        assert wrap_angle(b.phase - a.phase - math.pi) == pytest.approx(0.0, abs=1e-12)


class TestDlogRatio:
    def test_p1_values(self, p1):
        # -1/(s-0) - h: the pole enters with a minus sign
        assert dlog_ratio(p1, -1.0) == pytest.approx(0.0, abs=1e-12)
        assert dlog_ratio(p1, -0.5) == pytest.approx(1.0, abs=1e-12)
        # consistency with the boundary phase slope at sigma0=-2, omega=0:
        # phi'(0) = -0.5 there, and dlog_ratio on the real axis is real
        assert dlog_ratio(p1, -2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_matches_fd_of_log(self, p2):
        rng = np.random.RandomState(17)
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-4, 6), rng.uniform(-8, 8))
            if min(abs(s - r) for r in p2.zeros + p2.poles) < 1e-2:
                continue
            dsig = fd(lambda x: log_eval(p2, s + x).lnmag, 0.0)
            dom = fd(lambda y: log_eval(p2, s + 1j * y).lnmag, 0.0)
            got = dlog_ratio(p2, s)
            # d/ds ln(Ge^{-hs}) = dlog_ratio; real part from lnmag_sigma,
            # imag part from -lnmag_omega (Cauchy-Riemann)
            assert got.real == pytest.approx(dsig, rel=1e-5, abs=1e-7)
            assert got.imag == pytest.approx(-dom, rel=1e-5, abs=1e-7)
            checked += 1

    def test_near_branch_point_p2(self, p2):
        # G' - hG vanishes near s=-0.6977 but G'/G - h stays moderate there
        v = dlog_ratio(p2, -0.6977)
        fd_v = fd(lambda x: log_eval(p2, -0.6977 + x).lnmag, 0.0)
        assert v.real == pytest.approx(fd_v, rel=1e-5)
        assert abs(v) < 10.0


class TestGainAt:
    def test_p1_values(self, p1):
        assert gain_at(p1, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert gain_at(p1, -2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_reciprocal_identity(self, p2):
        rng = np.random.RandomState(23)
        for _ in range(20):
            s = complex(rng.uniform(-4, 6), rng.uniform(-8, 8))
            assert gain_at(p2, s) * math.exp(log_eval(p2, s).lnmag) == pytest.approx(1.0)


class TestBranchNumerator:
    """The zeros of dlog's numerator prod(s - r)·dlog(s), which branch_roots
    finds as eigenvalues over the plant's roots."""

    def test_p1(self, p1):
        # G = 1/s: dlog = -1/s - 1 vanishes at s = -1 only
        assert branch_roots(p1, -10.0) == (PolyRoot(-1.0 + 0j, 1),)

    def test_p2_quintic(self, p2):
        # 2 zeros and 3 poles: five zeros of dlog, one real near -0.6977
        got = branch_roots(p2, -100.0)
        assert sum(r.multiplicity for r in got) == 5
        real = [r.value.real for r in got if r.value.imag == 0.0]
        assert any(abs(x + 0.6977) < 5e-4 for x in real)

    def test_alpha_invariance(self, p1, p2):
        for plant in (p1, p2):
            scaled = Plant(-3.0 * plant.alpha, plant.delay, plant.zeros, plant.poles)
            assert branch_roots(scaled, -10.0) == branch_roots(plant, -10.0)

    def test_random_plants_root_residual(self):
        # every candidate is a zero of dlog = G'/G - h to its rounding floor:
        # |dlog| within 1e-12 of the size of its terms (200 plants of this
        # generator read at most 1.5e-13)
        rng = np.random.RandomState(31)
        checked = 0
        for _ in range(15):
            plant = random_plant(rng, Plant)
            for r in branch_roots(plant, -100.0):
                s = r.value
                scale = plant.delay + sum(abs(1.0 / (s - x)) for x in plant.zeros + plant.poles)
                assert abs(dlog_ratio(plant, s)) <= 1e-12 * scale, (plant, r)
                checked += 1
        assert checked >= 30
