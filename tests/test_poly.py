"""Coefficient trimming and root extraction."""

from fractions import Fraction

import numpy as np
import pytest

from dtlocus import poly
from dtlocus.errors import InputError
from dtlocus.poly import PolyRoot, RealPolynomial, complex_roots

from oracles import poly_from_roots, poly_mul, poly_scale, reference_nonneg_real_roots


def frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestArithmetic:
    """Coefficient trimming, and the product the tests build their
    polynomials with (oracles.poly_mul; the library multiplies none)."""

    def test_trim_and_degree(self):
        assert RealPolynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
        assert RealPolynomial((0.0,)).degree == -1
        assert RealPolynomial(()).degree == -1
        assert RealPolynomial((5.0,)).degree == 0

    def test_mul_matches_fraction_oracle(self):
        rng = np.random.RandomState(7)
        for _ in range(40):
            da, db = rng.randint(0, 5), rng.randint(0, 5)
            ca = [Fraction(int(v), 8) for v in rng.randint(-40, 40, size=da + 1)]
            cb = [Fraction(int(v), 8) for v in rng.randint(-40, 40, size=db + 1)]
            want = frac_mul(ca, cb)
            got = poly_mul(RealPolynomial(tuple(map(float, ca))),
                           RealPolynomial(tuple(map(float, cb))))
            n = len(got.coeffs)
            assert all(float(w) == 0.0 for w in want[n:])
            for g, w in zip(got.coeffs, want):
                assert g == pytest.approx(float(w), abs=1e-12)

    def test_known_product(self):
        # the monic factors (x+0.5)(x+1)(x+2.5)(x-5-5j)(x-5+5j)
        p = poly_mul(RealPolynomial((0.5, 1.0)), RealPolynomial((1.0, 1.0)),
                     RealPolynomial((2.5, 1.0)), RealPolynomial((50.0, -10.0, 1.0)))
        assert p.coeffs == pytest.approx((62.5, 200.0, 158.75, 14.25, -6.0, 1.0), rel=1e-14)


class TestRoots:
    def test_rejects_constant(self):
        with pytest.raises(InputError):
            complex_roots(RealPolynomial((3.0,)))

    def test_simple_reals(self):
        p = poly_from_roots([-0.5 + 0j, -1.0 + 0j, -2.5 + 0j])
        roots = complex_roots(p)
        vals = sorted(r.value.real for r in roots)
        assert vals == pytest.approx([-2.5, -1.0, -0.5], abs=1e-10)
        assert all(r.multiplicity == 1 and r.value.imag == 0.0 for r in roots)

    def test_conjugate_pair_exact_symmetry(self):
        p = poly_mul(RealPolynomial((50.0, -10.0, 1.0)), RealPolynomial((1.0, 3.0, 1.0)))
        roots = complex_roots(p)
        ups = [r.value for r in roots if r.value.imag > 0]
        downs = [r.value for r in roots if r.value.imag < 0]
        assert len(ups) == len(downs) == 1
        assert ups[0] == downs[0].conjugate()  # exact, not approximate
        assert ups[0] == pytest.approx(5 + 5j, abs=1e-10)

    def test_multiplicity_clustering(self):
        p = poly_from_roots([-1.0 + 0j] * 3)
        roots = complex_roots(p)
        assert len(roots) == 1
        assert roots[0].multiplicity == 3
        assert roots[0].value == pytest.approx(-1.0, abs=1e-5)

    def test_zero_roots_deflated_exactly(self):
        p = RealPolynomial((0.0, 0.0, 0.0, 2.0, 1.0))  # x^3 (x + 2)
        roots = complex_roots(p)
        got = sorted(((r.value.real, r.value.imag), r.multiplicity) for r in roots)
        assert got == [((-2.0, 0.0), 1), ((0.0, 0.0), 3)]

    def test_residual_invariant_random(self):
        rng = np.random.RandomState(21)
        for _ in range(60):
            deg = rng.randint(1, 8)
            c = rng.uniform(-5.0, 5.0, size=deg + 1)
            c[-1] = c[-1] if abs(c[-1]) > 0.5 else 1.0
            p = RealPolynomial(tuple(c))
            roots = complex_roots(p)
            assert sum(r.multiplicity for r in roots) == p.degree
            mx = max(abs(v) for v in p.coeffs)
            for r in roots:
                # multiple roots converge slowly; single roots should be sharp
                bound = 1e-7 * mx * max(1.0, abs(r.value)) ** p.degree
                value = abs(np.polyval(p.coeffs[::-1], r.value))
                if r.multiplicity == 1:
                    assert value <= bound
                else:
                    assert value <= bound ** (1.0 / r.multiplicity) * mx

    def test_scaling_invariance(self):
        base = RealPolynomial((62.5, 200.0, 158.75, 14.25, -6.0, 1.0))
        big = poly_scale(1e8, base)
        a = complex_roots(base)
        b = complex_roots(big)
        for ra, rb in zip(a, b):
            assert ra.value == pytest.approx(rb.value, abs=1e-9)


class TestNonnegRealRoots:
    """The oracle the boundary breakpoints are checked against: the
    nonnegative real roots picked from complex_roots."""

    def test_pure_even_origin(self):
        # -w^2: double root at 0
        assert reference_nonneg_real_roots(RealPolynomial((0.0, 0.0, -1.0))) == [(0.0, 2)]

    def test_offset_quadratic(self):
        # 0.25 - w^2 has roots +-0.5; keep the nonnegative one
        got = reference_nonneg_real_roots(RealPolynomial((0.25, 0.0, -1.0)))
        assert len(got) == 1
        assert got[0][0] == pytest.approx(0.5, abs=1e-12)
        assert got[0][1] == 1

    def test_discards_complex_and_negative(self):
        p = poly_mul(RealPolynomial((1.0, 0.0, 1.0)), RealPolynomial((1.0, 1.0)))  # (w^2+1)(w+1)
        assert reference_nonneg_real_roots(p) == []

    def test_constant_has_none(self):
        assert reference_nonneg_real_roots(RealPolynomial((4.0,))) == []

    def test_near_zero_negative_clamped(self):
        p = RealPolynomial((1e-12, 1.0))  # root at -1e-12
        got = reference_nonneg_real_roots(p)
        assert got == [(0.0, 1)]


def _exact_backward_error(coeffs, z):
    """|p(z)| / sum |a_i||z|^i with p(z) summed exactly in rationals."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for a in reversed(coeffs):
        re, im = re * x - im * y + Fraction(a), re * y + im * x
    return float(re * re + im * im) ** 0.5 / sum(abs(a) * abs(z) ** i for i, a in enumerate(coeffs))


def test_polish_stops_at_the_rounding_floor(monkeypatch):
    # twelve conjugate pairs, at least 0.6 apart, with moduli 0.5 to 4.2:
    # in coefficient form the rounding floor of each root lies near 1e-9
    # relative, so a polish that waits for a step of 1e-16 or 1e-12 runs all
    # its passes, while the first step at the floor ends it
    rng = np.random.RandomState(0)
    ups = []
    while len(ups) < 12:
        r = complex(rng.uniform(-3.0, 0.0), rng.uniform(0.2, 3.0))
        if abs(r) > 0.5 and all(abs(r - q) > 0.6 for q in ups):
            ups.append(r)
    p = poly_from_roots(ups)
    passes = []
    horner = poly._horner_triple

    def counted(*args):
        passes.append(None)
        return horner(*args)

    monkeypatch.setattr(poly, "_horner_triple", counted)
    roots = complex_roots(p)
    assert [r.multiplicity for r in roots] == [1] * 24
    assert len(passes) <= 3 * 24
    for r in roots:
        assert min(abs(r.value - q) for q in ups + [q.conjugate() for q in ups]) <= 1e-7
        assert _exact_backward_error(p.coeffs, r.value) <= 2.0 ** -51
