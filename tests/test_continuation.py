"""Residuals, their gradient, the frozen-gain corrector, and the adaptive
step rule."""

import math

import numpy as np
import pytest

from dtlocus.boundary import RegionSpec, boundary_crossings, boundary_functions
from dtlocus.continuation import (
    FIRST_MAX,
    H0,
    H_MIN,
    KAPPA_MAX,
    KAPPA_NOM,
    CorrectorOutcome,
    LocusPoint,
    correct,
    departure_angles,
    gain_step,
    residuals,
    step_update,
)
from dtlocus.plant import Plant, dlog_ratio
from dtlocus.tracer import CrossingOrigin

from oracles import fd, seeds_of


class TestLocusPoint:
    def test_accessors(self):
        p = LocusPoint(-1.0, 2.0, 0.5)
        assert p.s == complex(-1.0, 2.0)
        assert p.k == pytest.approx(math.exp(0.5))


class TestResiduals:
    def test_p1_reference(self, p1):
        M, P = residuals(p1, LocusPoint(-1.0, 0.0, -1.0))
        assert M == pytest.approx(0.0, abs=1e-12)
        assert P == pytest.approx(0.0, abs=1e-12)
        M, P = residuals(p1, LocusPoint(-1.0, 0.0, 0.0))
        assert M == pytest.approx(1.0, abs=1e-12)
        assert P == pytest.approx(0.0, abs=1e-12)

    def test_p1_real_locus_relation(self, p1):
        # on the real locus of 1/s: k = -sigma * e^sigma for sigma in (-1, 0)
        for sig in (-0.1, -0.5, -0.9):
            k = -sig * math.exp(sig)
            M, P = residuals(p1, LocusPoint(sig, 0.0, math.log(k)))
            assert M == pytest.approx(0.0, abs=1e-12)
            assert P == pytest.approx(0.0, abs=1e-12)


class TestJacobian:
    """The corrector divides by dlog = dM/dsigma - j dM/domega, the kernel's
    one complex log-derivative; by Cauchy-Riemann it is the whole (M, P)
    Jacobian in s."""

    def test_p1_branch_point_structure(self, p1):
        dlog = dlog_ratio(p1, -1.0)
        # at the branch point the 2x2 (M,P)x(sigma,omega) block, rows
        # (dM/dsigma, dM/domega) = (Re dlog, -Im dlog) and (Im dlog, Re dlog),
        # vanishes
        assert dlog.real == pytest.approx(0.0, abs=1e-12)
        assert dlog.imag == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_riemann_exact(self, p2):
        rng = np.random.RandomState(7)
        for _ in range(100):
            pt = LocusPoint(rng.uniform(-4, 6), rng.uniform(-8, 8), rng.uniform(-3, 3))
            if min(abs(pt.s - r) for r in p2.zeros + p2.poles) < 1e-3:
                continue
            # exact: the corrector's Jacobian is the one complex log-derivative
            out = correct(p2, pt.s, pt.Kval, math.inf, 0)
            assert out.dlog == dlog_ratio(p2, pt.s)

    def test_partials_match_fd(self, p2):
        rng = np.random.RandomState(19)
        checked = 0
        while checked < 100:
            pt = LocusPoint(rng.uniform(-4, 6), rng.uniform(-8, 8), rng.uniform(-3, 3))
            if min(abs(pt.s - r) for r in p2.zeros + p2.poles) < 1e-2:
                continue
            dlog = dlog_ratio(p2, pt.s)
            msig, mom = dlog.real, -dlog.imag  # dM/dsigma, dM/domega

            def M_at(sig, om):
                return residuals(p2, LocusPoint(sig, om, pt.Kval))[0]

            def P_at(sig, om):
                return residuals(p2, LocusPoint(sig, om, pt.Kval))[1]

            assert msig == pytest.approx(fd(lambda x: M_at(x, pt.omega), pt.sigma), rel=1e-5, abs=1e-7)
            assert mom == pytest.approx(fd(lambda y: M_at(pt.sigma, y), pt.omega), rel=1e-5, abs=1e-7)
            assert -mom == pytest.approx(fd(lambda x: P_at(x, pt.omega), pt.sigma), rel=1e-5, abs=1e-7)
            assert msig == pytest.approx(fd(lambda y: P_at(pt.sigma, y), pt.omega), rel=1e-5, abs=1e-7)
            checked += 1

    def test_dM_dK_is_one(self, p2):
        pt = LocusPoint(1.0, 2.0, 0.0)
        M0, _ = residuals(p2, pt)
        M1, _ = residuals(p2, LocusPoint(1.0, 2.0, 0.7))
        assert M1 - M0 == pytest.approx(0.7, abs=1e-12)


class TestPredictCorrect:
    def test_gain_step_travels_h(self):
        # a gain step dK moves s by dK/|dlog|: the step is h long in (sigma, omega, K)
        for h, dlog in ((0.1, 1.0 + 0j), (0.02, 3.0 - 4.0j), (0.5, 1e-3j), (1e-8, 1e6 + 0j)):
            dK = gain_step(h, dlog)
            ds = dK / abs(dlog)
            assert math.hypot(ds, dK) == pytest.approx(h, rel=1e-12)
            assert dK > 0.0
        assert gain_step(0.1, 0j) == 0.0

    def test_exact_root_is_fixed_point(self, p1):
        out = correct(p1, complex(-1.0, 0.0), -1.0)
        assert out.converged
        assert out.iterations == 0
        assert out.point == LocusPoint(-1.0, 0.0, -1.0)
        assert out.first == 0.0 and out.dlog == dlog_ratio(p1, -1.0)

    def test_pulls_back_to_real_locus(self, p1):
        # the real locus k = -sigma e^sigma at sigma -0.48, from a start 0.02 off
        sig = -0.48
        K = math.log(-sig * math.exp(sig))
        for real in (False, True):
            out = correct(p1, complex(sig + 0.02, 0.0), K, real=real)
            assert out.converged
            assert out.point.omega == 0.0
            assert out.point.Kval == K
            assert out.point.sigma == pytest.approx(sig, abs=1e-6)
            assert out.first == pytest.approx(0.02, rel=0.1)

    def test_real_mode_keeps_omega(self, p2):
        # with real set only the real part of each Newton step is taken
        from dtlocus.plant import log_eval

        K = -log_eval(p2, -0.6).lnmag  # on the real segment between the poles -0.5 and -1
        out = correct(p2, complex(-0.62, 0.0), K, real=True)
        assert out.converged and out.point.omega == 0.0
        assert out.point.sigma == pytest.approx(-0.6, abs=1e-6)

    def test_real_step_adds_zero_to_omega(self, p1):
        # omega + 0.0 at each real step: a start at omega -0.0 ends at 0.0
        sig = -0.48
        K = math.log(-sig * math.exp(sig))
        out = correct(p1, complex(sig + 0.02, -0.0), K, real=True)
        assert out.converged and out.iterations > 0
        assert math.copysign(1.0, out.point.omega) == 1.0

    def test_converged_residuals_hold(self, p2):
        # perturb true locus points, correct at their gain, verify directly
        rng = np.random.RandomState(37)
        from oracles import locus_residual, newton_root

        count = 0
        while count < 20:
            s0 = complex(rng.uniform(-2, 1), rng.uniform(0.5, 4))
            k = math.exp(rng.uniform(-4, 1.5))
            s = newton_root(p2, k, s0)
            if locus_residual(p2, s, k) > 1e-10:
                continue
            out = correct(p2, s + complex(1e-3, -1e-3), math.log(k))
            if not out.converged:
                continue
            M, P = residuals(p2, out.point)
            assert abs(M) <= 1e-6 and abs(P) <= 1e-6
            assert out.point.Kval == math.log(k)
            assert abs(out.point.s - s) <= 1e-6
            count += 1

    def test_far_off_manifold_terminates(self, p1):
        out = correct(p1, complex(-0.5, 0.0), 5.0, max_iter=20)
        assert out.iterations <= 20  # bounded; may or may not converge

    def test_huge_magnitude_residual_halves_the_step(self, p1):
        # M = ln|G| + K is about 800 here, far off the locus
        out = correct(p1, complex(-0.5, 0.0), 800.0, max_iter=0)
        assert not out.converged
        new_h, repeat = step_update(0.1, out)
        assert repeat and new_h == pytest.approx(0.05)

    def test_frozen_gain_plane_keeps_gain_exactly(self):
        # every solve holds K fixed, which keeps gain-cap points at exactly ln kmax
        from oracles import random_plant

        rng = np.random.RandomState(59)
        converged = 0
        for _ in range(300):
            plant = random_plant(rng, Plant)
            s = complex(rng.uniform(-3.0, 1.0), rng.uniform(-3.0, 3.0))
            K = float(rng.uniform(-3.0, 3.0))
            out = correct(plant, s, K, 1e-8, 11)
            assert out.point.Kval == K
            converged += out.converged
        assert converged >= 150

    def test_kappa_zero_for_quick_convergence(self, p1):
        out = correct(p1, complex(-1.0, 0.0), -1.0)
        assert out.kappa == 0.0


class TestStepController:
    """step_update, the one step rule: (new h, redo?) from h and the outcome."""

    def _out(self, kappa, converged=True, first=0.0):
        return CorrectorOutcome(LocusPoint(0, 0, 0), 3, kappa, converged, first=first)

    def test_clamps_h(self, step_bounds):
        # the new length stays in [H_MIN, H_MAX] whatever h is
        for h, want in ((1e-12, 1e-8), (1e-8, 1e-8), (0.3, 0.3), (0.5, 0.5), (7.0, 0.5),
                        (10.0, 0.5)):
            assert step_update(h, self._out(KAPPA_NOM)) == (want, False)
        step_bounds(H0, 0.2)
        assert step_update(0.4, self._out(KAPPA_NOM)) == (0.2, False)

    def test_nominal_keeps_h(self):
        new_h, repeat = step_update(0.01, self._out(KAPPA_NOM))
        assert new_h == pytest.approx(0.01)
        assert not repeat

    def test_bad_contraction_halves_and_repeats(self):
        new_h, repeat = step_update(0.01, self._out(1.01 * KAPPA_MAX))
        assert new_h == pytest.approx(0.005)
        assert repeat
        # the largest accepted contraction shrinks the next step only
        new_h, repeat = step_update(0.01, self._out(KAPPA_MAX))
        assert new_h == pytest.approx(0.01 / math.sqrt(KAPPA_MAX / KAPPA_NOM))
        assert not repeat

    def test_large_first_correction_halves_and_repeats(self):
        # the first Newton correction may be at most FIRST_MAX of the predicted |ds|
        assert step_update(0.01, self._out(0.0, first=FIRST_MAX * 0.2), ds=0.2) == (0.02, False)
        new_h, repeat = step_update(0.01, self._out(0.0, first=1.01 * FIRST_MAX * 0.2), ds=0.2)
        assert new_h == pytest.approx(0.005)
        assert repeat

    def test_good_step_doubles(self):
        new_h, repeat = step_update(0.01, self._out(KAPPA_NOM / 4))
        assert new_h == pytest.approx(0.02)
        assert not repeat

    def test_growth_capped_at_h_max(self):
        new_h, _ = step_update(0.4, self._out(0.0))
        assert new_h == 0.5

    def test_failed_correction_forces_halving(self):
        new_h, repeat = step_update(0.01, self._out(0.1, converged=False))
        assert new_h == pytest.approx(0.005)
        assert repeat

    def test_underflow(self):
        # a redo at H_MIN stays at H_MIN; ending the trajectory is the caller's
        assert step_update(H_MIN, self._out(9.0, converged=False)) == (H_MIN, True)
        assert step_update(H_MIN, self._out(1.01 * KAPPA_MAX)) == (H_MIN, True)

    def test_no_underflow_when_not_repeating(self):
        new_h, repeat = step_update(1e-8, self._out(KAPPA_NOM))
        assert not repeat
        assert new_h == 1e-8


class TestInitialDirections:
    def test_p1_pole_departs_left(self, p1):
        assert departure_angles(p1, 0)[0] == pytest.approx(math.pi)

    def test_p2_departures(self, p2):
        # G_rest at -0.5 is 55.25 > 0 -> angle pi; at -1 it is negative -> 0
        angles = {p.real: departure_angles(p2, i)[0] for i, p in enumerate(p2.poles)}
        assert angles[-0.5] == pytest.approx(math.pi)
        assert angles[-1.0] == pytest.approx(0.0, abs=1e-12)
        assert angles[-2.5] == pytest.approx(math.pi)

    def test_conjugate_pole_angles_mirror(self, p3):
        a = departure_angles(p3, 0)[0]  # pole -1 + j
        b = departure_angles(p3, 1)[0]  # pole -1 - j
        assert a == pytest.approx(-b, abs=1e-12)

    def test_repeated_pole_fan(self):
        plant = Plant(1.0, 1.0, (), (-1 + 0j, -1 + 0j))
        fan = departure_angles(plant, 0)
        assert len(fan) == 2
        # G_rest = 1 > 0 at -1, h*omega = 0: psi = -pi, angles -pi/2 and pi/2
        assert sorted(fan) == pytest.approx([-math.pi / 2, math.pi / 2])

    def test_departure_matches_tiny_gain_root(self, p2):
        # solve the locus at k = 1e-8 near each pole; the root must lie along
        # the departure ray
        from oracles import locus_residual, newton_root

        for i, p in enumerate(p2.poles):
            theta = departure_angles(p2, i)[0]
            k = 1e-8
            # first-order root distance from the pole: k |residue| e^{-h Re p}
            res = complex(p2.alpha)
            for z in p2.zeros:
                res *= p - z
            for j, q in enumerate(p2.poles):
                if j != i:
                    res /= p - q
            r0 = k * abs(res) * math.exp(-p2.delay * p.real)
            s = newton_root(p2, k, p + r0 * complex(math.cos(theta), math.sin(theta)))
            assert locus_residual(p2, s, k) < 1e-10
            got = math.atan2((s - p).imag, (s - p).real)
            assert math.cos(got - theta) == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _entry(plant, sigma0, c):
        """ds/dK = -1/dlog of the crossing root, the way a crossing seed heads."""
        return -1.0 / dlog_ratio(plant, complex(sigma0, c.omega))

    def test_p1_entry_direction(self, p1):
        region = RegionSpec(-2.0, 1.0)
        bf = boundary_functions(p1, region)
        cs = boundary_crossings(bf, region)
        c = cs.inward[0]
        d0 = self._entry(p1, region.sigma0, c)
        # ds/dK = k ds/dk = k * -1/(k * phi') = -1/phi' = 2
        assert c.k * math.exp(2.0) == pytest.approx(2.0, rel=1e-9)
        assert d0.real == pytest.approx(2.0, rel=1e-9)
        assert d0.imag == pytest.approx(0.0, abs=1e-12)
        (seed,) = [s for s in seeds_of(p1, region) if isinstance(s.origin, CrossingOrigin)]
        assert seed.start == LocusPoint(region.sigma0, c.omega, c.Kval)

    def test_inward_entries_point_right(self, p2):
        region = RegionSpec(-3.5, 5.0)
        bf = boundary_functions(p2, region)
        cs = boundary_crossings(bf, region)
        for c in cs.inward:
            assert self._entry(p2, region.sigma0, c).real > 0
        for c in cs.outward:
            assert self._entry(p2, region.sigma0, c).real < 0

    def test_entry_matches_perturbed_roots(self, p2):
        from oracles import newton_root

        region = RegionSpec(-3.5, 5.0)
        bf = boundary_functions(p2, region)
        cs = boundary_crossings(bf, region)
        for c in list(cs.inward)[:3] + list(cs.outward)[:2]:
            d0 = self._entry(p2, region.sigma0, c)
            s_c = complex(-3.5, c.omega)
            eps = 1e-5 * c.k
            s_hi = newton_root(p2, c.k + eps, s_c)
            s_lo = newton_root(p2, c.k - eps, s_c)
            fd_dir = c.k * (s_hi - s_lo) / (2 * eps)  # ds/dK = k ds/dk
            assert fd_dir.real == pytest.approx(d0.real, rel=1e-4, abs=1e-9)
            assert fd_dir.imag == pytest.approx(d0.imag, rel=1e-4, abs=1e-9)
