"""SISO dead-time plant G(s)·e^(-h·s) in zero-pole-gain form.

Evaluation multiplies each root set's factors s - r into one complex
product and takes its complex log, so the magnitude and phase cost one log
per root set, not one per root.  The delay enters in the log domain only,
so a large |Re(s)| never forms e^(-h·s) directly.  Nothing here expands the
roots back into coefficients: the log-derivative is a sum over the roots as
stored.  The zeros of dlog (branch.branch_roots) and the turning points of
the boundary gain and phase (boundary.boundary_functions) come from the
same roots, as the eigenvalues of a diagonal-plus-rank-one matrix
(secular_eigvals) over the distinct ones (root_weights).
"""

from __future__ import annotations

import math
import sys
from cmath import log as _clog
from collections import Counter
from dataclasses import dataclass, field
from math import log as _log

import numpy as np

from .errors import InputError, SingularPointError
from .poly import RealPolynomial, complex_roots, refine_roots

TOL_SING = 1e-12
# Screen margin of the eigenvalues of secular_eigvals a caller keeps: far
# above the worst eigenvalue error seen on the benchmark plants (9e-5) and
# the eps^(1/4) ~ 1.2e-4 spread of a 4-fold root, so no root a caller keeps
# and no member of its cluster is screened out.
SCREEN_REL = 1e-2
_TOL_CONJ = 1e-9
# ln of the smallest normal and of the largest double: a product whose ln|.|
# lies outside has lost precision or overflowed
_LN_MIN = math.log(sys.float_info.min)
_LN_MAX = math.log(sys.float_info.max)


def wrap_angle(x: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    w = math.fmod(x, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """wrap_angle at every element of a float array."""
    w = np.fmod(x, 2.0 * math.pi)
    w[w > math.pi] -= 2.0 * math.pi
    w[w <= -math.pi] += 2.0 * math.pi
    return w


def _check_conjugate_closed(roots, what: str) -> None:
    unmatched = [r for r in roots if abs(r.imag) > _TOL_CONJ * (1.0 + abs(r))]
    while unmatched:
        r = unmatched.pop()
        best = None
        for i, o in enumerate(unmatched):
            if abs(o - r.conjugate()) <= _TOL_CONJ * (1.0 + abs(r)):
                best = i
                break
        if best is None:
            raise InputError(f"{what} are not closed under conjugation: {r} has no partner")
        unmatched.pop(best)


@dataclass(frozen=True)
class Plant:
    """Proper rational plant alpha*N(s)/D(s) with input delay.

    zeros/poles are stored with repetition (a double pole appears twice) and
    each list must be closed under complex conjugation.  _table holds what
    the evaluation loop starts from: the zeros, the poles, ln|alpha| and the
    phase of alpha; it is derived, so it stays out of == and repr.
    """

    alpha: float
    delay: float
    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "delay", float(self.delay))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        if not math.isfinite(self.alpha) or self.alpha == 0.0:
            raise InputError(f"alpha must be a nonzero finite real, got {self.alpha}")
        if not math.isfinite(self.delay) or self.delay <= 0.0:
            raise InputError(f"delay must be > 0, got {self.delay}")
        if len(self.zeros) > len(self.poles):
            raise InputError(
                f"improper plant: {len(self.zeros)} zeros exceed {len(self.poles)} poles"
            )
        for v in self.zeros + self.poles:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InputError("zeros/poles must be finite")
        _check_conjugate_closed(self.zeros, "zeros")
        _check_conjugate_closed(self.poles, "poles")
        object.__setattr__(self, "_table", (
            self.zeros,
            self.poles,
            math.log(abs(self.alpha)),
            0.0 if self.alpha > 0 else math.pi,
        ))

    @property
    def biproper(self) -> bool:
        return len(self.zeros) == len(self.poles)

    def flipped_gain(self) -> "Plant":
        return Plant(-self.alpha, self.delay, self.zeros, self.poles)


@dataclass(frozen=True)
class LogValue:
    """ln-magnitude and principal phase of G(s)e^(-h*s) at one point."""

    lnmag: float
    phase: float


def plant_from_coefficients(num: RealPolynomial, den: RealPolynomial, delay: float) -> Plant:
    """Build a Plant from numerator/denominator coefficients.

    The gain is the ratio of leading coefficients; zeros and poles come from
    the monic factors, with multiplicity expanded to repeated entries, and
    each simple root is refined on compensated values (poly.refine_roots).
    """
    if num.degree < 0:
        raise InputError("numerator is the zero polynomial")
    if den.degree < 0:
        raise InputError("denominator is the zero polynomial")
    if num.degree > den.degree:
        raise InputError(f"improper transfer function: deg num {num.degree} > deg den {den.degree}")
    alpha = num.coeffs[-1] / den.coeffs[-1]

    def roots_of(p: RealPolynomial) -> tuple[complex, ...]:
        if p.degree < 1:
            return ()
        roots = complex_roots(p)
        out: list[complex] = []
        for r, value in zip(roots, refine_roots(p, roots)):
            out.extend([value] * r.multiplicity)
        return tuple(out)

    return Plant(alpha, delay, roots_of(num), roots_of(den))


def root_weights(plant: Plant) -> tuple[np.ndarray, np.ndarray]:
    """The plant's distinct roots r_j, compared as stored, and their net
    weights w_j = (zeros at r_j) - (poles at r_j), those with w_j != 0:
    dlog = G'/G - h = sum_j w_j/(s - r_j) - h.  A cancelled zero-pole pair
    drops out."""
    weight = Counter(plant.zeros)
    weight.subtract(plant.poles)
    table = [(r, w) for r, w in weight.items() if w]
    return (np.array([r for r, _ in table], dtype=complex),
            np.array([w for _, w in table], dtype=float))


def secular_eigvals(d: np.ndarray, a: np.ndarray) -> list[complex]:
    """The zeros of 1 - sum_j a_j/(x - d_j), as the eigenvalues of
    diag(d) + a 1^T: det(xI - diag(d) - a 1^T) = prod_j (x - d_j) times
    that sum (Golub, "Some modified matrix eigenvalue problems", 1973)."""
    return list(map(complex, np.linalg.eigvals(np.diag(d) + np.outer(a, np.ones(len(d))))))


def _log_kernel(plant: Plant, s: complex) -> tuple[float, float, complex]:
    """ln|G(s)e^(-hs)|, its principal phase and dlog = G'/G - h at s.

    One pass over each root set multiplies the factors s - r into a running
    complex product and sums their reciprocals, which give dlog =
    dM/dsigma - j dM/domega; by Cauchy-Riemann the phase gradient is
    (-dM/domega, dM/dsigma).  The magnitude and phase then come from one
    complex log per product.  A product that leaves the normal double range
    is taken again by _folded_log.  A point within TOL_SING*(1+|s|) of a root
    raises SingularPointError.
    """
    tol = TOL_SING * (1.0 + abs(s))
    zeros, poles, lnalpha, argalpha = plant._table
    delay = plant.delay
    num = den = 1.0
    dlog = complex(-delay)
    for r in zeros:
        d = s - r
        if abs(d) <= tol:
            raise SingularPointError(f"evaluation at {s} hits the root {r}")
        num *= d
        dlog += (1 + 0j) / d  # a complex numerator skips the float's coercion
    for r in poles:
        d = s - r
        if abs(d) <= tol:
            raise SingularPointError(f"evaluation at {s} hits the root {r}")
        den *= d
        dlog -= (1 + 0j) / d
    try:
        lz, lp = _clog(num), _clog(den)
        normal = _LN_MIN < lz.real < _LN_MAX and _LN_MIN < lp.real < _LN_MAX
    except ValueError:  # a product underflowed to zero
        normal = False
    if not normal:
        lz, lp = _folded_log(s, zeros), _folded_log(s, poles)
    lnmag = lnalpha + lz.real - lp.real - delay * s.real
    phase = argalpha + lz.imag - lp.imag - delay * s.imag
    return lnmag, wrap_angle(phase), dlog


def _log_kernel_many(plant: Plant, s: np.ndarray):
    """_log_kernel at every point of the complex array s, as arrays
    (lnmag, phase, dlog), with a mask of the points where _log_kernel would
    raise SingularPointError or fold a product by _folded_log, or s is not
    finite; the values there are not to be used.

    Each point's products and sums run over the roots in _log_kernel's order.
    """
    zeros, poles, lnalpha, argalpha = plant._table
    delay = plant.delay
    d = s - np.array([*zeros, *poles], dtype=complex).reshape(-1, 1)  # a row per root
    weight = np.array([1.0] * len(zeros) + [-1.0] * len(poles)).reshape(-1, 1)
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(s) | (np.abs(d) <= TOL_SING * (1.0 + np.abs(s))).any(axis=0)
        dlog = np.add.reduce(weight / d, axis=0, initial=-delay)
        lz = np.log(np.multiply.reduce(d[:len(zeros)], axis=0, initial=1.0))
        lp = np.log(np.multiply.reduce(d[len(zeros):], axis=0, initial=1.0))
        lnmag = lnalpha + lz.real - lp.real - delay * s.real
        phase = _wrap_angles(argalpha + lz.imag - lp.imag - delay * s.imag)
    bad |= ~((_LN_MIN < lz.real) & (lz.real < _LN_MAX) & (_LN_MIN < lp.real) & (lp.real < _LN_MAX))
    return lnmag, phase, dlog, bad


def _dlog_prime(plant: Plant, s):
    """The derivative of dlog at s, sum_p (s - p)^-2 - sum_z (s - z)^-2,
    over the roots in _log_kernel's order: a complex number, or an array of
    them at every point of a complex array s.  s lies off every root."""
    acc = 0j * s  # 0j, or zeros shaped as s
    for r in plant.zeros:
        q = (1 + 0j) / (s - r)
        acc -= q * q
    for r in plant.poles:
        q = (1 + 0j) / (s - r)
        acc += q * q
    return acc


def _folded_log(s: complex, roots) -> complex:
    """ln of the product of s - r over roots, |product| folded into a sum of
    logs at every factor so that no partial product leaves the double range."""
    lnabs = 0.0
    unit = 1.0
    for r in roots:
        unit *= s - r
        m = abs(unit)
        lnabs += _log(m)
        unit /= m
    return lnabs + _clog(unit)


def log_eval(plant: Plant, s: complex) -> LogValue:
    """Log-domain value of G(s)e^(-h*s): never forms the exponential."""
    return LogValue(*_log_kernel(plant, complex(s))[:2])


def dlog_ratio(plant: Plant, s: complex) -> complex:
    """Logarithmic derivative of the delayed plant: G'(s)/G(s) - h."""
    return _log_kernel(plant, complex(s))[2]


def gain_at(plant: Plant, s: complex) -> float:
    """The k > 0 that puts s on the locus magnitude-wise: |k G(s)e^(-hs)| = 1."""
    return math.exp(-log_eval(plant, s).lnmag)
