"""Predictor-corrector stepping along one locus trajectory.

Work happens in (sigma, omega, K) space with K = ln k.  The corrector solves
the log-magnitude residual M, the phase residual P, and an affine constraint
pinning the iterate to the plane through the start point orthogonal to a
normal: the travel direction along a trajectory, or a unit normal that
freezes one coordinate, (0, 0, 1) the gain and (1, 0, 0) sigma.  The 3x3
Jacobian rows for M and P share their entries by the Cauchy-Riemann
structure of ln G.  correct is the one Newton solve on (M, P); it also
returns the locus tangent at its last iterate, from the same kernel pass, so
every trajectory leaves each point along _tangent, the one travel direction.

The step length follows one rule, step_update: it grows or shrinks with the
corrector's contraction, and a failed correction halves it.  The step stays
in [H_MIN, h_max]; the tracer ends a trajectory that must halve at H_MIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, SingularJacobian
from .plant import Plant, _log_kernel, wrap_angle

TOL_CORR = 1e-6
MAX_ITER = 20
H0 = 1e-2
H_MIN = 1e-8
H_MAX = 0.5
KAPPA_NOM = 1.1
COND_LIMIT = 1e12

_setattr = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True, init=False)
class LocusPoint:
    """One point of a trajectory: position sigma + j*omega at gain e^Kval.

    The constructor checks finiteness before it sets the frozen fields.
    """

    sigma: float
    omega: float
    Kval: float

    def __init__(self, sigma: float, omega: float, Kval: float):
        if not (math.isfinite(sigma) and math.isfinite(omega) and math.isfinite(Kval)):
            raise InputError(f"non-finite locus point ({sigma}, {omega}, {Kval})")
        _setattr(self, "sigma", sigma)
        _setattr(self, "omega", omega)
        _setattr(self, "Kval", Kval)

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.omega)

    @property
    def k(self) -> float:
        return math.exp(self.Kval)


@dataclass(frozen=True)
class CorrectorOutcome:
    """A corrected point and its Newton record; tangent is the unit locus
    tangent at the point, None where _tangent has none."""

    point: LocusPoint
    iterations: int
    kappa: float
    converged: bool
    tangent: tuple[float, float, float] | None = None


def unit3(v) -> tuple[float, float, float]:
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if n == 0.0 or not math.isfinite(n):
        raise InputError(f"cannot normalize direction {v}")
    return (v[0] / n, v[1] / n, v[2] / n)


def _tangent(msig: float, mom: float) -> tuple[float, float, float] | None:
    """Unit locus tangent in (sigma, omega, K) where dM/dsigma = msig and
    dM/domega = mom, or None where it is undefined (both zero, or too large
    to normalise).

    Differentiating ln(G e^(-hs)) + K = const gives ds/dK = -1/dlog with
    dlog = G'/G - h = msig - j mom, so the lifted direction (Re ds/dK,
    Im ds/dK, 1) is parallel to (-msig, -mom, msig² + mom²): the gain rises.
    """
    try:
        return unit3((-msig, -mom, msig * msig + mom * mom))
    except InputError:
        return None


def _locus_eval(plant: Plant, sigma: float, omega: float, Kval: float):
    """(M, P, dM/dsigma, dM/domega) at one iterate, from one plant pass.

    A non-finite iterate raises InputError, as LocusPoint does.
    """
    if not (math.isfinite(sigma) and math.isfinite(omega) and math.isfinite(Kval)):
        raise InputError(f"non-finite locus point ({sigma}, {omega}, {Kval})")
    lnmag, phase, msig, mom = _log_kernel(plant, sigma, omega)
    return lnmag + Kval, wrap_angle(phase - math.pi), msig, mom


def residuals(plant: Plant, p: LocusPoint) -> tuple[float, float]:
    """Log-magnitude and phase residuals of 1 + e^K G(s)e^(-hs) = 0.

    Both vanish exactly on the locus; P is the principal distance of the
    phase from pi, so it lives in (-pi, pi].
    """
    M, P, _, _ = _locus_eval(plant, p.sigma, p.omega, p.Kval)
    return M, P


def predict(prev: LocusPoint, d, h: float) -> LocusPoint:
    return LocusPoint(prev.sigma + h * d[0], prev.omega + h * d[1], prev.Kval + h * d[2])


def solve3(a: list[list[float]], b: list[float]) -> list[float]:
    """3x3 linear solve, partial pivoting; raises on ill-conditioned systems.

    Unrolled Gaussian elimination: each pivot is the first entry of largest
    magnitude in its column, a row is updated only for a nonzero multiplier,
    and the condition estimate is the largest entry over the smallest pivot.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    b0, b1, b2 = b
    top, m1, m2 = abs(a00), abs(a10), abs(a20)
    scale = max(top, abs(a01), abs(a02), m1, abs(a11), abs(a12), m2, abs(a21), abs(a22))
    if scale == 0.0:
        raise SingularJacobian("zero Jacobian")

    # column 0; top tracks the pivot magnitude
    if m1 > top:
        top = m1
        if m2 > top:
            top = m2
            a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
        else:
            a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    elif m2 > top:
        top = m2
        a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
    if top == 0.0:
        raise SingularJacobian("exactly singular Jacobian")
    min_pivot = min(math.inf, top)
    f = a10 / a00
    if f != 0.0:
        a11 -= f * a01
        a12 -= f * a02
        b1 -= f * b0
    f = a20 / a00
    if f != 0.0:
        a21 -= f * a01
        a22 -= f * a02
        b2 -= f * b0

    # column 1
    top, m2 = abs(a11), abs(a21)
    if m2 > top:
        top = m2
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if top == 0.0:
        raise SingularJacobian("exactly singular Jacobian")
    if top < min_pivot:
        min_pivot = top
    f = a21 / a11
    if f != 0.0:
        a22 -= f * a12
        b2 -= f * b1

    # column 2
    top = abs(a22)
    if top == 0.0:
        raise SingularJacobian("exactly singular Jacobian")
    if top < min_pivot:
        min_pivot = top

    if scale / min_pivot > COND_LIMIT:
        raise SingularJacobian(f"Jacobian condition estimate {scale / min_pivot:.3e}")
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    x0 = (b0 - a01 * x1 - a02 * x2) / a00
    return [x0, x1, x2]


def correct(
    plant: Plant,
    predicted: LocusPoint,
    prev_dir,
    tol: float = TOL_CORR,
    max_iter: int = MAX_ITER,
) -> CorrectorOutcome:
    """Newton-correct a predicted point back onto the locus.

    Convergence is declared on the residuals themselves (|M|, |P| and the
    plane constraint all within tol), so a converged outcome always satisfies
    the locus equations to tolerance.  kappa is the ratio of the first two
    Newton step lengths (0 when fewer than two steps ran); only those two
    lengths are kept.  tangent is _tangent at the returned point, from the
    partials of the residual pass that ended the loop.
    """
    s0, w0, K0 = predicted.sigma, predicted.omega, predicted.Kval
    d0, d1, d2 = prev_dir
    sig, w, K = s0, w0, K0
    steps = 0
    norm0 = norm1 = 0.0
    converged = False
    while True:
        M, P, msig, mom = _locus_eval(plant, sig, w, K)
        f3 = (sig - s0) * d0 + (w - w0) * d1 + (K - K0) * d2
        if max(abs(M), abs(P), abs(f3)) <= tol:
            converged = True
            break
        if steps >= max_iter:
            break
        x0, x1, x2 = solve3([[msig, mom, 1.0], [-mom, msig, 0.0], [d0, d1, d2]], [-M, -P, -f3])
        sig += x0
        w += x1
        K += x2
        steps += 1
        if steps == 1:
            norm0 = math.sqrt(x0 ** 2 + x1 ** 2 + x2 ** 2)
        elif steps == 2:
            norm1 = math.sqrt(x0 ** 2 + x1 ** 2 + x2 ** 2)
    kappa = norm1 / norm0 if steps >= 2 and norm0 > 0.0 else 0.0
    return CorrectorOutcome(LocusPoint(sig, w, K), steps, kappa, converged, _tangent(msig, mom))


def step_update(h: float, out: CorrectorOutcome, h_max: float = H_MAX) -> tuple[float, bool]:
    """Next step length after a step of length h, and whether to redo it.

    A converged step is graded by its contraction: the step is divided by
    sqrt(kappa/KAPPA_NOM) clamped to [0.5, 2].  A factor of 2, or a failed
    correction, halves the step and redoes it.  The new length is kept in
    [H_MIN, h_max]; a redo asked at H_MIN is the caller's to end.
    """
    h_bar = min(max(math.sqrt(out.kappa / KAPPA_NOM), 0.5), 2.0) if out.converged else 2.0
    return min(max(h / h_bar, H_MIN), h_max), h_bar >= 2.0


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

