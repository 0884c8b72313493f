"""Real-coefficient polynomials and their roots: the rooting behind a plant
given in coefficient form (plant.plant_from_coefficients).  There is no
polynomial arithmetic; the library expands no roots into coefficients.

Coefficients are stored densely in ascending degree order, so coeffs[d] is the
coefficient of x**d.  Root finding normalizes by the largest coefficient
magnitude, takes companion-matrix eigenvalues, polishes each with a few
Newton steps, and finally clusters nearby values so callers see multiple
roots with an explicit multiplicity.  The polish stops after a step that
rounding lets it meet: one below 1e-12(1 + |z|), or one no longer than its
own rounding floor eps sum|a_i||z|^i / |p'(z)| where that floor lies within
a tenth of the cluster tolerance.  The eigenvalue solvers over a plant's
roots (plant.secular_eigvals) cluster their eigenvalues the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

TOL_IMAG = 1e-8
CLUSTER_REL = 1e-6
_POLISH_STEPS = 10
_STOP_REL = 1e-12  # a polish step this short ends it
_FLOOR_REL = 0.1 * CLUSTER_REL  # so does one within its rounding floor, if that is this narrow
_EPS = 2.0 ** -52


def _trimmed(coeffs) -> tuple[float, ...]:
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class RealPolynomial:
    """Dense univariate polynomial with real coefficients, trailing zeros
    trimmed.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class PolyRoot:
    value: complex
    multiplicity: int


def _horner_triple(coeffs, z):
    """Value, first and second derivative at z in one Horner pass."""
    v = 0j
    d1 = 0j
    d2 = 0j
    for c in reversed(coeffs):
        d2 = d2 * z + d1
        d1 = d1 * z + v
        v = v * z + c
    return v, d1, 2.0 * d2


def _magnitude(coeffs, r: float) -> float:
    """sum |a_i| r^i, which bounds the rounding error of p at |z| = r over eps."""
    m = 0.0
    for c in reversed(coeffs):
        m = m * r + abs(c)
    return m


def _polish(coeffs, z):
    """Newton iteration on p/p', which has a simple zero at every root.

    Plain Newton stalls on multiple roots (|p| hits the rounding floor while
    the iterates are still spread ~eps^(1/m) apart, too wide for the cluster
    pass); the ratio variant converges quadratically for any multiplicity.

    Returns the iterate of least |p/p'|.  The iteration ends after
    _POLISH_STEPS passes, or after a step no longer than _STOP_REL(1 + |z|),
    or no longer than f = eps sum|a_i||z|^i / |p'(z)|, the rounding floor of
    a step at a simple root, when f <= _FLOOR_REL(1 + |z|).  A step that
    short leaves the iterate at the floor, so the point it reaches is
    evaluated, kept if it is better, and no further pass can improve on it.
    Near a multiple root p' is small and f wide, so the copies keep
    iterating until they meet the cluster tolerance; a floor
    within a tenth of that tolerance leaves copies stopped at it clustered.
    """
    best, best_prox = z, None
    for _ in range(_POLISH_STEPS):
        v, d1, d2 = _horner_triple(coeffs, z)
        if v == 0:
            return z
        if d1 != 0:
            prox = abs(v / d1)  # ~ distance/multiplicity
            if best_prox is None or prox < best_prox:
                best, best_prox = z, prox
        den = d1 * d1 - v * d2
        if den == 0:
            break
        step = v * d1 / den
        size, r = abs(step), abs(z)
        z = z - step
        floor_max = _FLOOR_REL * (1.0 + r)
        if size <= _STOP_REL * (1.0 + r) or (  # the sum only for a step under floor_max
                size <= floor_max
                and size * abs(d1) <= _EPS * _magnitude(coeffs, r) <= floor_max * abs(d1)):
            v, d1, _ = _horner_triple(coeffs, z)
            if d1 != 0 and (best_prox is None or abs(v / d1) < best_prox):
                best = z
            break
    return best


_REFINE_STEPS = 4
_REFINE_REL = 1e-12
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles


def _compensated_value(coeffs, x: float, y: float) -> complex:
    """p(x + jy) by compensated Horner: as accurate as if evaluated in twice
    the working precision, then rounded.

    Each step's rounding errors are taken exactly (Dekker's product on
    Veltkamp's split, Knuth's sum) and carried by a second Horner recurrence
    in plain arithmetic (Graillat, Langlois and Louvet, 2009).
    """
    sr = si = cr = ci = 0.0
    t, u = _SPLIT * x, _SPLIT * y
    xh, yh = t - (t - x), u - (u - y)
    xl, yl = x - xh, y - yh
    for a in reversed(coeffs):
        t, u = _SPLIT * sr, _SPLIT * si
        rh, ih = t - (t - sr), u - (u - si)
        rl, il = sr - rh, si - ih
        p1, p2, p3, p4 = sr * x, si * y, sr * y, si * x
        e1 = rl * xl - (((p1 - rh * xh) - rl * xh) - rh * xl)
        e2 = il * yl - (((p2 - ih * yh) - il * yh) - ih * yl)
        e3 = rl * yl - (((p3 - rh * yh) - rl * yh) - rh * yl)
        e4 = il * xl - (((p4 - ih * xh) - il * xh) - ih * xl)
        t = p1 - p2
        sr, si = t + a, p3 + p4
        z1, z2, z3 = t - p1, sr - t, si - p3
        f = (p1 - (t - z1)) + (-p2 - z1) + (t - (sr - z2)) + (a - z2)
        g = (p3 - (si - z3)) + (p4 - z3)
        cr, ci = cr * x - ci * y + (e1 - e2 + f), cr * y + ci * x + (e3 + e4 + g)
    return complex(sr + cr, si + ci)


def refine_roots(p: RealPolynomial, roots: list[PolyRoot]) -> list[complex]:
    """The values of roots, each simple one refined by Newton steps on
    compensated values.  Plain Horner leaves a root no closer than its
    rounding floor eps sum|a_i||z|^i / |p'(z)|, far from eps for clustered
    roots of a high-degree p; compensated values lower that to about eps^2.
    A simple root whose floor exceeds _REFINE_REL(1 + |z|) takes up to
    _REFINE_STEPS steps, until one is below sqrt(eps)(1 + |z|), none to a
    point farther than half the distance to its nearest neighbour.
    """
    c = np.array(p.coeffs[::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.array([r.value for r in roots], dtype=complex)
        floor = 2.0 ** -52 * np.polyval(np.abs(c), np.abs(z)) / np.abs(np.polyval(np.polyder(c), z))
    out = []
    for r, f in zip(roots, floor):
        z0 = w = r.value
        if r.multiplicity == 1 and not f <= _REFINE_REL * (1.0 + abs(w)):
            reach = 0.5 * min((abs(w - q.value) for q in roots if q is not r), default=math.inf)
            for _ in range(_REFINE_STEPS):
                d = v = 0j
                for a in reversed(p.coeffs):
                    d, v = d * w + v, v * w + a
                if d == 0:
                    break
                step = _compensated_value(p.coeffs, w.real, w.imag) / d
                step = step.real if w.imag == 0.0 else step
                if abs(w - step - z0) > reach:
                    break
                w -= step
                if abs(step) <= 2.0 ** -26 * (1.0 + abs(w)):
                    break
        out.append(w)
    return out


def _cluster(values, rel):
    """Group values whose pairwise distance is within rel*(1 + magnitude):
    the groups, as lists of values."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            tol = rel * (1.0 + max(abs(values[i]), abs(values[j])))
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i, v in enumerate(values):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


def complex_roots(p: RealPolynomial) -> list[PolyRoot]:
    """All complex roots of p with multiplicities.

    The root set is closed under conjugation: complex clusters are paired with
    their mirror cluster and averaged, and clusters with negligible imaginary
    part are snapped onto the real axis.
    """
    if p.degree < 1:
        raise InputError(f"root finding needs degree >= 1, got degree {p.degree}")
    c = list(p.coeffs)
    nzero = 0
    while c and c[0] == 0.0:  # exact roots at the origin
        c.pop(0)
        nzero += 1
    # scale by a power of two: exact division, so multiple roots stay multiple
    scale = 2.0 ** round(math.log2(max(abs(v) for v in c)))
    cs = [v / scale for v in c]
    if not all(math.isfinite(v / cs[-1]) for v in cs):  # np.roots divides by it
        raise InputError(f"leading coefficient {c[-1]!r} is too small beside the others: "
                         "the monic polynomial overflows")
    raw = [_polish(cs, z) for z in map(complex, np.roots(cs[::-1]))] if len(cs) >= 2 else []
    raw.extend([0j] * nzero)

    clusters = [(sum(g) / len(g), len(g)) for g in _cluster(raw, CLUSTER_REL)]
    reals: list[tuple[float, int]] = []
    ups: list[tuple[complex, int]] = []
    downs: list[tuple[complex, int]] = []
    for z, m in clusters:
        if abs(z.imag) <= TOL_IMAG * (1.0 + abs(z)):
            reals.append((z.real, m))
        elif z.imag > 0:
            ups.append((z, m))
        else:
            downs.append((z, m))

    out = [PolyRoot(complex(r, 0.0), m) for r, m in reals]
    downs_left = list(downs)
    for z, m in ups:
        if downs_left:
            j = min(range(len(downs_left)), key=lambda i: abs(downs_left[i][0] - z.conjugate()))
            w, mw = downs_left.pop(j)
            avg = (z + w.conjugate()) / 2.0
            out.append(PolyRoot(avg, m))
            out.append(PolyRoot(avg.conjugate(), mw))
        else:
            out.append(PolyRoot(z, m))
    out.extend(PolyRoot(z, m) for z, m in downs_left)
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out
