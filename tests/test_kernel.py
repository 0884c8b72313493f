"""The product plant kernel against the former loops kept in oracles.py, and
exact agreement of the frozen-gain corrector with a plain Newton loop.

The kernel multiplies factors where the former loops summed logs and
angles, so it is held to their accuracy, not to their bits: both must come
within BOUND·eps of an extended-precision evaluation of the same sums,
scaled by each value's magnitude sum (oracles.extended_log_eval).  Which
points raise, and the message, stay ==, as do the kernel's callers and the
corrector logic run on the kernel.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from dtlocus import continuation
from dtlocus import plant as plant_module
from dtlocus.continuation import (
    KAPPA_NOM,
    CorrectorOutcome,
    LocusPoint,
    correct,
    correct_many,
    residuals,
    step_update,
    step_update_many,
)
from dtlocus.errors import SingularPointError
from dtlocus.plant import (
    TOL_SING,
    Plant,
    _log_kernel,
    _log_kernel_many,
    dlog_ratio,
    log_eval,
    wrap_angle,
)
from dtlocus.tracer import _first_step_length

from oracles import (
    extended_log_eval,
    newton_root,
    random_plant,
    reference_frozen_newton,
    reference_log_eval,
    reference_partials,
)


def _plants():
    rng = np.random.RandomState(11)
    out = [random_plant(rng, Plant) for _ in range(8)]
    out += [
        # repeated real pole, repeated complex pair, right-half-plane zeros
        Plant(2.0, 0.7, (1.5 + 0j, 0.5 + 2j, 0.5 - 2j), (-1 + 0j, -1 + 0j, -1 + 0j, -2 + 1j, -2 - 1j,
                                                      -2 + 1j, -2 - 1j)),
        # negative gain, bi-proper
        Plant(-0.416151, 0.145683,
              (1.747341 + 0.413925j, 1.747341 - 0.413925j, 0.845759 + 0.566891j, 0.845759 - 0.566891j),
              (0.07467 + 1.7916j, 0.07467 - 1.7916j, -0.56304 + 1.788567j, -0.56304 - 1.788567j)),
        # bi-proper first order, pure integrator, pure delay
        Plant(3.0, 1.3, (-0.25 + 0j,), (0.75 + 0j,)),
        Plant(1.0, 1.0, (), (0j,)),
        Plant(-1.5, 0.4, (), ()),
    ]
    return out


PLANTS = _plants()


def _points(plant, rng, n):
    """Random points: a box around the roots, far left (large |M|), on the
    real axis, on a root's horizontal line and close to a root."""
    roots = plant.zeros + plant.poles
    pts = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            pts.append(complex(rng.uniform(-5.0, 4.0), rng.uniform(-6.0, 6.0)))
        elif kind == 1:
            pts.append(complex(-rng.uniform(50.0, 400.0), rng.uniform(-30.0, 30.0)))
        elif kind == 2:
            pts.append(complex(rng.uniform(-5.0, 4.0), 0.0))
        elif roots and kind == 3:
            r = roots[rng.randint(len(roots))]
            pts.append(complex(rng.uniform(-5.0, 4.0), r.imag))
        elif roots:
            r = roots[rng.randint(len(roots))]
            rho = 10.0 ** rng.uniform(-9.0, -2.0)
            pts.append(r + rho * complex(math.cos(i), math.sin(i)))
        else:
            pts.append(complex(rng.uniform(-80.0, 4.0), rng.uniform(-6.0, 6.0)))
    return pts


def _parts(value):
    """(lnmag, phase, dM/dsigma, dM/domega) of a kernel value (lnmag, phase,
    dlog): dlog = dM/dsigma - j dM/domega."""
    lnmag, phase, dlog = value
    return lnmag, phase, dlog.real, -dlog.imag


def _outcome(f, *args):
    """Return value, or (exception type, message) when f raises."""
    try:
        return f(*args)
    except SingularPointError as e:
        return type(e), str(e)


BOUND = 2.0  # in units of eps times a value's magnitude sum
_EPS = np.finfo(float).eps
_PI = 4 * np.arctan(np.longdouble(1))


def _errors(vals, plant, s):
    """Error of each of (lnmag, phase, dM/dsigma, dM/domega) in units of eps
    times its magnitude sum; the phase error is taken around the circle."""
    exact, scale = extended_log_eval(plant, s.real, s.imag)
    errs = []
    for i, (v, x, m) in enumerate(zip(vals, exact, scale)):
        diff = np.longdouble(v) - x
        if i == 1:
            diff = (diff + _PI) % (2 * _PI) - _PI
        if m > 0:
            errs.append(float(abs(diff) / (_EPS * m)))
        else:  # no terms at all: the value must be exact
            errs.append(0.0 if diff == 0 else math.inf)
    return errs


def test_kernel_equals_former_loops():
    # as accurate as the former loops: both within BOUND of extended precision
    rng = np.random.RandomState(5)
    checked = 0
    big_m = 0
    for plant in PLANTS:
        for s in _points(plant, rng, 120):
            got = _outcome(_log_kernel, plant, s)
            ref = _outcome(reference_log_eval, plant, s)
            if isinstance(ref, tuple) and ref and ref[0] is SingularPointError:
                assert got == ref
                continue
            assert max(_errors(_parts(got), plant, s)) <= BOUND, (plant, s)
            former = ref + reference_partials(plant, s.real, s.imag)
            assert max(_errors(former, plant, s)) <= BOUND, (plant, s)
            lv = log_eval(plant, s)
            assert (lv.lnmag, lv.phase) == got[:2]
            assert dlog_ratio(plant, s) == got[2]
            K = rng.uniform(-3.0, 3.0)
            M, P = residuals(plant, LocusPoint(s.real, s.imag, K))
            assert (M, P) == (got[0] + K, wrap_angle(got[1] - math.pi))
            rng.randn(3)  # the former direction draw, so later points stay the same
            big_m += abs(M) > 50.0
            checked += 1
    assert checked >= 1000
    assert big_m >= 100


def test_singular_points_raise_as_before():
    hits = 0
    for plant in PLANTS:
        for x in plant.zeros + plant.poles:
            scale = TOL_SING * (1.0 + abs(x))
            for c in (0.0, 0.3, 0.999, 1.0, 1.001, 1.5, 4.0, 1e3):
                for theta in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
                    s = x + c * scale * complex(math.cos(theta), math.sin(theta))
                    got = _outcome(_log_kernel, plant, s)
                    ref = _outcome(reference_log_eval, plant, s)
                    if ref[0] is SingularPointError:
                        assert got == ref
                        hits += 1
                    else:
                        assert max(_errors(_parts(got), plant, s)) <= BOUND, (plant, s)
    assert hits > 0


def _ring(n, radius, centre=0j):
    """n roots (n even) on a circle, closed under conjugation."""
    half = [centre + radius * complex(math.cos(a), math.sin(a))
            for a in np.linspace(0.1, math.pi - 0.1, n // 2)]
    return tuple(half + [r.conjugate() for r in half])


@pytest.mark.parametrize("plant, points, folded", [
    # a 100-pole plant high on the imaginary axis: the pole product is near
    # 1e330, past the double range, so the kernel takes it again folded
    (Plant(1.0, 0.5, (), _ring(100, 3.0, -4.0)), [2000j, 1500 + 2000j, -1800 + 50j], True),
    # within 1e-10 of a 4-fold pole: a pole product near 1e-40 stays in range
    (Plant(2.0, 1.0, (-0.5 + 0j,), (-1 + 0j,) * 4 + (-2 + 1j, -2 - 1j)),
     [-1 + 1e-10 * complex(math.cos(a), math.sin(a)) for a in (0.0, 1.0, 2.0, math.pi)], False),
    # roots of magnitude 1e30: 13 pole factors near 1e30 each overflow
    (Plant(-3.0, 0.2, _ring(4, 1e30), _ring(12, 2e30) + (-1e30 + 0j,)), [0.5 + 1j, 1e29j, 3e30 + 0j],
     True),
])
def test_kernel_range_extremes(plant, points, folded, monkeypatch):
    calls = []
    fold = plant_module._folded_log
    monkeypatch.setattr(plant_module, "_folded_log", lambda s, roots: calls.append(s) or fold(s, roots))
    for s in points:
        got = _parts(_log_kernel(plant, s))
        assert all(math.isfinite(v) for v in got)
        assert max(_errors(got, plant, s)) <= BOUND, s
        former = reference_log_eval(plant, s) + reference_partials(plant, s.real, s.imag)
        assert max(_errors(former, plant, s)) <= BOUND, s
    assert bool(calls) is folded
    if folded:  # a plain product overflows there
        assert not cmath.isfinite(math.prod(points[0] - p for p in plant.poles))


def test_kernel_folds_a_product_that_underflows_to_zero():
    # 40 poles at the origin, 1e-11 away (outside the singular guard): the
    # plain pole product underflows to exactly zero, which has no log, so
    # the kernel takes it again folded; it equals the sum of the factors' logs
    plant = Plant(-2.0, 0.5, (-1.0 + 0j,), (0j,) * 40)
    for s in (1e-11 + 0j, 3e-12 + 4e-12j, -6e-12j):
        assert math.prod(s - p for p in plant.poles) == 0.0
        lnmag, phase, _ = _log_kernel(plant, s)
        logs = math.log(2.0) + cmath.log(s + 1.0) - 40 * cmath.log(s) - 0.5 * s
        assert abs(lnmag - logs.real) <= 1e-13 * abs(logs.real)
        assert abs(wrap_angle(phase - math.pi - logs.imag)) <= 1e-12


def test_kernel_many_equals_the_kernel(monkeypatch):
    # the lockstep twin at arrays of random points, points within the
    # singular radius of a root and points where a product leaves the double
    # range: values within 1e-13 of _log_kernel's (relative, the phase
    # around the circle), flagged exactly where _log_kernel raises or folds
    folds = []
    fold = plant_module._folded_log
    monkeypatch.setattr(plant_module, "_folded_log", lambda s, roots: folds.append(s) or fold(s, roots))
    rng = np.random.RandomState(23)
    plants = PLANTS + [Plant(1.0, 0.5, (), _ring(100, 3.0, -4.0)),
                       Plant(2.0, 1.0, (-0.5 + 0j,), (-1 + 0j,) * 4 + (-2 + 1j, -2 - 1j))]
    counts = Counter()
    for plant in plants:
        roots = plant.zeros + plant.poles
        pts = _points(plant, rng, 150) + [2000j, 1500 + 2000j, complex(-1e160, 1.0)]
        pts += [r + 0.5 * TOL_SING * (1.0 + abs(r)) for r in roots[:3]]
        lnmag, phase, dlog, bad = _log_kernel_many(plant, np.array(pts))
        for i, s in enumerate(pts):
            folds.clear()
            try:
                want = _parts(_log_kernel(plant, s))
            except SingularPointError:
                counts["raised"] += 1
                assert bad[i], s
                continue
            if folds:
                counts["folded"] += 1
                assert bad[i], s
                continue
            assert not bad[i], s
            got = _parts((lnmag[i], phase[i], dlog[i]))
            for j, (a, b) in enumerate(zip(got, want)):
                diff = wrap_angle(a - b) if j == 1 else a - b
                assert abs(diff) <= 1e-13 * max(1.0, abs(b)), (plant, s, j, a, b)
            counts["equal"] += 1
    assert counts["raised"] and counts["folded"] and counts["equal"] > 1000, counts


def test_lockstep_corrector_and_step_rule_equal_theirs():
    # correct_many and step_update_many against correct and step_update,
    # solve by solve, off the axis: correct fails exactly where correct_many
    # flags a bad point, and elsewhere the same iterations, convergence,
    # steps and next length, points within the rounding of the two kernels
    rng = np.random.RandomState(29)
    counts = Counter()
    for plant in PLANTS[:10]:
        pts = [s for s in _points(plant, rng, 60) + list(plant.poles) if s.imag != 0.0]
        values = [_outcome(log_eval, plant, s) for s in pts]
        K = np.array([0.0 if isinstance(lv, tuple) else -lv.lnmag + rng.uniform(-0.05, 0.05)
                      for lv in values])
        many = correct_many(plant, np.array(pts), K, 1e-6, 20)
        h = rng.uniform(1e-8, 0.5, len(pts))
        ds = rng.uniform(0.0, 0.3, len(pts))
        new_h, redo = step_update_many(h, many.converged, many.kappa, many.first, ds,
                                       np.full(len(pts), 1e-7))
        for i, s in enumerate(pts):
            one = correct(plant, s, K[i], 1e-6, 20)
            assert many.bad[i] == (one.kappa == math.inf), (plant, s)
            if many.bad[i]:
                assert one == CorrectorOutcome(LocusPoint(s.real, s.imag, K[i]), many.iterations[i],
                                               math.inf, False)
                counts["bad"] += 1
                continue
            assert (many.iterations[i], many.converged[i]) == (one.iterations, one.converged)
            assert abs(many.point[i] - one.point.s) <= 1e-9 * (1.0 + abs(s))
            assert abs(many.kappa[i] - one.kappa) <= 1e-9 and abs(many.first[i] - one.first) <= 1e-9
            want = step_update(h[i], one, ds[i], 1e-7)
            assert (redo[i], new_h[i]) == pytest.approx((want[1], want[0]), rel=1e-9)
            counts["redo" if want[1] else "accept"] += 1
    assert counts["accept"] > 50 and counts["redo"] > 50 and counts["bad"], counts


def _tiny_dlog(monkeypatch):
    # a log-derivative of 1e-320 sends the Newton step to infinity
    kernel = continuation._log_kernel
    monkeypatch.setattr(continuation, "_log_kernel", lambda *args: kernel(*args)[:2] + (1e-320 + 0j,))


@pytest.mark.parametrize("s, Kval, real, patch, steps", [
    pytest.param(0j, 0.0, False, None, 0, id="start_on_root"),
    pytest.param(-0.5 + 0.3j, math.nan, False, None, 0, id="nonfinite_gain"),
    pytest.param(-0.5 + 0.3j, 0.0, False, _tiny_dlog, 1, id="iterate_to_infinity"),
    # dlog = -1/s - 1 vanishes at s = -1, where M = 1
    pytest.param(-1.0 + 0j, 0.0, True, None, 0, id="zero_slope_on_axis"),
])
def test_corrector_fails_without_raising(s, Kval, real, patch, steps, monkeypatch):
    # the start point, not converged, kappa inf, the steps taken, and dlog 0j
    # and first 0.0 by default
    plant = Plant(1.0, 1.0, (), (0j,))
    if patch:
        patch(monkeypatch)
    out = correct(plant, s, Kval, real=real)
    assert out == CorrectorOutcome(LocusPoint(s.real, s.imag, Kval), steps, math.inf, False)


def test_corrector_equals_former_corrector():
    # the corrector's logic to the bit, against a plain Newton loop on the
    # same kernel, failed solves at singular points included; converged
    # points are the closed-loop roots at their gain
    rng = np.random.RandomState(17)
    converged = failed = total = 0
    for plant in PLANTS:
        for s in _points(plant, rng, 40) + [*plant.zeros, *plant.poles][:2]:
            ref_lv = _outcome(reference_log_eval, plant, s)
            singular = ref_lv[0] is SingularPointError
            K = (0.0 if singular else -ref_lv[0]) + rng.uniform(-0.05, 0.05)
            real = s.imag == 0.0
            got = correct(plant, s, K, 1e-6, 20, real)
            assert got == reference_frozen_newton(plant, s, K, _log_kernel, 1e-6, 20, real)
            failed += got.kappa == math.inf
            if got.converged and not real:
                root = newton_root(plant, math.exp(K), got.point.s)
                assert abs(root - got.point.s) <= 1e-5 * (1.0 + abs(root))
                converged += 1
            total += 1
    assert total >= 400 and converged >= 50 and failed > 0


def test_step_controller_resize_clamps_like_constructor(step_bounds):
    # a nominal step keeps its length, so step_update only clamps it; the
    # first step of a seed 1e-15 from a pole is H0 capped at H_MAX: the two
    # clamps agree (H0 is never below H_MIN)
    nominal = CorrectorOutcome(LocusPoint(0.0, 0.0, 0.0), 3, KAPPA_NOM, True)
    for h in (1e-8, 0.3, 0.5, 7.0):
        step_bounds(h, continuation.H_MAX)
        assert step_update(h, nominal) == (_first_step_length(1e-15), False)
