"""Frozen-gain Newton and the step rule along one locus trajectory.

Points live in (sigma, omega, K) with K = ln k.  Between branch points each
closed-loop root is an analytic function s(K), ds/dK = -1/dlog with
dlog = G'/G - h, so trajectories step in K and every solve on the locus
holds K fixed: correct is scalar complex Newton on the kernel's dlog, one
kernel pass per iteration, and returns a failed outcome, never an error,
where the kernel meets a plant root, the slope vanishes or a value is not
finite.  The tracer predicts each step from the cursor alone, by the
second-order Taylor term of s(K), s'' = dlog' v^3 with v = ds/dK, and
along the tangent alone on the cap step and where that term bends by more
than half the tangent step (tracer.trace).  step_update is the one step
rule; the step stays in [H_MIN, H_MAX], and the tracer ends a trajectory
that must halve at H_MIN.  gain_step serves floats and arrays alike;
correct_many and step_update_many are the array twins of correct and
step_update for the tracer's lockstep rounds.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularPointError
from .plant import Plant, _log_kernel, _log_kernel_many, _wrap_angles, wrap_angle

TOL_CORR = 1e-6
MAX_ITER = 20
H0 = 1e-2  # the floor under a trajectory's first step
H_MIN = 1e-8
H_MAX = 0.5  # the longest step
KAPPA_NOM = 0.5
KAPPA_MAX = 0.7
FIRST_MAX = 1.0
_RESOLUTION = 2.0 ** -52  # the spacing of the doubles relative to their size


class LocusPoint(NamedTuple):
    """One point of a trajectory: position sigma + j*omega at gain e^Kval.

    Built unchecked: finiteness is checked where values enter the program
    (Plant, RegionSpec, TraceOptions, and every Newton iterate in correct
    and _log_kernel_many).
    """

    sigma: float
    omega: float
    Kval: float

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.omega)

    @property
    def k(self) -> float:
        return math.exp(self.Kval)


class CorrectorOutcome(NamedTuple):
    """A corrected point and its Newton record: kappa is the ratio of the
    first two Newton step lengths (0 when fewer than two ran), first the
    length of the first, and dlog the log-derivative at the point."""

    point: LocusPoint
    iterations: int
    kappa: float
    converged: bool
    dlog: complex = 0j
    first: float = 0.0


def residuals(plant: Plant, p: LocusPoint) -> tuple[float, float]:
    """Log-magnitude and phase residuals of 1 + e^K G(s)e^(-hs) = 0.

    Both vanish exactly on the locus; P is the principal distance of the
    phase from pi, so it lives in (-pi, pi].
    """
    lnmag, phase, _ = _log_kernel(plant, p.s)
    return lnmag + p.Kval, wrap_angle(phase - math.pi)


def gain_step(h: float, dlog: complex, sqrt=math.sqrt) -> float:
    """dK moves s by dK/|dlog| along s(K), so a step of length h in
    (sigma, omega, K) raises the gain by h |dlog| / sqrt(1 + |dlog|^2).

    With arrays h and dlog, pass sqrt=np.sqrt."""
    a = abs(dlog)
    return h * a / sqrt(1.0 + a * a)


def correct(plant: Plant, s: complex, Kval: float, tol: float = TOL_CORR,
            max_iter: int = MAX_ITER, real: bool = False) -> CorrectorOutcome:
    """Newton s <- s - r/dlog onto the locus at the frozen gain Kval, with
    r = M + jP = K + ln|G e^(-hs)| + j wrap(arg - pi).

    Converged when |M| and |P| are within tol, or within |dlog| times the
    spacing of the doubles around s where that is coarser (next to a plant
    root no s does better).  With real set each step keeps only its real
    part, -M/(dM/dsigma), so omega stays as given.  An iterate on a plant
    root, a zero slope, or a start, gain or iterate that is not finite fails
    the solve: the outcome is the start point, not converged, with kappa inf,
    dlog 0j and the steps taken.
    """
    z = s
    steps = 0
    norm0 = norm1 = 0.0
    while math.isfinite(Kval) and cmath.isfinite(z):
        try:
            lnmag, phase, dlog = _log_kernel(plant, z)
        except SingularPointError:
            break
        M, P = lnmag + Kval, wrap_angle(phase - math.pi)
        lim = max(tol, _RESOLUTION * (abs(z.real) + abs(z.imag))
                  * (abs(dlog.real) + abs(dlog.imag)))
        converged = abs(M) <= lim and abs(P) <= lim
        if converged or steps >= max_iter:
            kappa = norm1 / norm0 if steps >= 2 and norm0 > 0.0 else 0.0
            return CorrectorOutcome(LocusPoint(z.real, z.imag, Kval), steps, kappa, converged,
                                    dlog, norm0)
        slope = dlog.real if real else dlog
        if not slope:
            break
        # on the axis omega - (-0.0) is omega + 0.0: omega stays, a -0.0 turns 0.0
        d = complex(M / slope, -0.0) if real else complex(M, P) / slope
        z -= d
        steps += 1
        if steps == 1:
            norm0 = math.hypot(d.real, d.imag)
        elif steps == 2:
            norm1 = math.hypot(d.real, d.imag)
    return CorrectorOutcome(LocusPoint(s.real, s.imag, Kval), steps, math.inf, False)


def step_update(h: float, out: CorrectorOutcome, ds: float = math.inf,
                err: float = 0.0) -> tuple[float, bool]:
    """Next step length after a step of length h, and whether to redo it.

    The step is redone at half the length unless Newton converged with
    contraction kappa <= KAPPA_MAX and a first correction of at most
    FIRST_MAX times the predicted |ds|, plus err, how far the step's start
    may lie off the locus (tol/|dlog|, which no shorter step shrinks).  An
    accepted step divides h by sqrt(kappa/KAPPA_NOM) clamped to [0.5, 2].
    The length stays in [H_MIN, H_MAX]; a redo at H_MIN is the caller's to end.
    """
    if out.converged and out.kappa <= KAPPA_MAX and out.first <= FIRST_MAX * ds + err:
        h_bar = min(max(math.sqrt(out.kappa / KAPPA_NOM), 0.5), 2.0)
        return min(max(h / h_bar, H_MIN), H_MAX), False
    return min(max(0.5 * h, H_MIN), H_MAX), True


class CorrectorOutcomes(NamedTuple):
    """CorrectorOutcome of many solves, each field an array, the points as
    complex numbers; bad marks the solves that met a point _log_kernel_many
    flagged, whose other fields are not to be used."""

    point: np.ndarray
    iterations: np.ndarray
    kappa: np.ndarray
    converged: np.ndarray
    dlog: np.ndarray
    first: np.ndarray
    bad: np.ndarray


def correct_many(plant: Plant, s: np.ndarray, Kval: np.ndarray, tol: float = TOL_CORR,
                 max_iter: int = MAX_ITER) -> CorrectorOutcomes:
    """correct (off the axis) from every start point of the complex array s,
    each at its own frozen gain in Kval, the Newton iterations of all solves
    in lockstep.  A solve stops at an iterate where correct would raise or
    fold (bad).
    """
    n = len(s)
    point = s.copy()
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    dlog = np.zeros(n, dtype=complex)
    first = np.zeros(n)
    second = np.zeros(n)
    ids = np.arange(n)  # the solves still iterating, all at iteration it
    for it in range(max_iter + 1):
        lnmag, phase, dl, flag = _log_kernel_many(plant, s)
        M = lnmag + Kval
        P = _wrap_angles(phase - math.pi)
        lim = np.maximum(tol, _RESOLUTION * (np.abs(s.real) + np.abs(s.imag))
                         * (np.abs(dl.real) + np.abs(dl.imag)))
        done = (np.abs(M) <= lim) & (np.abs(P) <= lim) & ~flag
        stop = done | flag | (it >= max_iter)
        out = ids[stop]
        point[out] = s[stop]
        iterations[out] = it
        converged[out] = done[stop]
        bad[out] = flag[stop]
        dlog[out] = dl[stop]
        go = ~stop
        if not go.any():
            break
        ids, s, Kval = ids[go], s[go], Kval[go]
        with np.errstate(all="ignore"):  # a zero dlog gives a non-finite iterate, flagged next
            d = (M[go] + 1j * P[go]) / dl[go]
        s = s - d
        if it < 2:
            (first if it == 0 else second)[ids] = np.abs(d)
    with np.errstate(all="ignore"):
        kappa = np.where((second > 0.0) & (first > 0.0), second / first, 0.0)
    return CorrectorOutcomes(point, iterations, kappa, converged, dlog, first, bad)


def step_update_many(h: np.ndarray, converged: np.ndarray, kappa: np.ndarray,
                     first: np.ndarray, ds: np.ndarray,
                     err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """step_update at every element of arrays: the next step lengths and
    whether each step is to be redone."""
    accept = converged & (kappa <= KAPPA_MAX) & (first <= FIRST_MAX * ds + err)
    with np.errstate(all="ignore"):
        h_bar = np.clip(np.sqrt(kappa / KAPPA_NOM), 0.5, 2.0)
    new_h = np.where(accept, h / h_bar, 0.5 * h)
    return np.clip(new_h, H_MIN, H_MAX), ~accept


def _phase_rest_at(plant: Plant, p: complex, skip: list[int]) -> float:
    """Phase of G at p with the pole factors named in skip removed."""
    acc = 0.0 if plant.alpha > 0 else math.pi
    for z in plant.zeros:
        d = p - z
        acc += math.atan2(d.imag, d.real)
    for i, q in enumerate(plant.poles):
        if i in skip:
            continue
        d = p - q
        acc -= math.atan2(d.imag, d.real)
    return acc


def pole_group(plant: Plant, pole_index: int) -> list[int]:
    """Indices of poles coinciding with the indexed one (itself included)."""
    p = plant.poles[pole_index]
    tol = 1e-9 * (1.0 + abs(p))
    return [i for i, q in enumerate(plant.poles) if abs(q - p) <= tol]


def departure_angles(plant: Plant, pole_index: int) -> list[float]:
    """All k=0+ departure directions from the pole (one per multiplicity).

    Solves the locus phase condition on a vanishing circle around the pole;
    a mu-fold pole departs along mu rays 2*pi/mu apart.
    """
    group = pole_group(plant, pole_index)
    mu = len(group)
    p = plant.poles[pole_index]
    psi = _phase_rest_at(plant, p, group) - plant.delay * p.imag - math.pi
    return [wrap_angle((psi + 2.0 * math.pi * j) / mu) for j in range(mu)]

