"""Polynomial arithmetic, affine composition, binomial series, evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wcochaos.series import (SHORT_FACTOR_TAPS, AnalyticPoly, binomial_series, compose,
                             compose_affine, eval_on_circle)


def gap(f: AnalyticPoly, g: AnalyticPoly) -> float:
    n = max(len(f.coeffs), len(g.coeffs))
    return float(np.max(np.abs(f.padded(n) - g.padded(n))))


def unit_box_poly(draw_floats):
    return AnalyticPoly([complex(a, b) for a, b in draw_floats])


coeff_pairs = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
polys = st.lists(coeff_pairs, min_size=1, max_size=33).map(unit_box_poly)


class TestArithmetic:
    def test_difference_of_squares(self):
        one_plus = AnalyticPoly([1, 1])
        one_minus = AnalyticPoly([1, -1])
        assert one_plus * one_minus == AnalyticPoly([1, 0, -1])

    def test_multiplicative_identity(self):
        f = AnalyticPoly([2, -1j, 0.5])
        assert f * AnalyticPoly.one() == f

    def test_hand_expansion(self):
        assert AnalyticPoly([1, 2]) * AnalyticPoly([3, 4]) == AnalyticPoly([3, 10, 8])

    def test_add_and_scale(self):
        f = AnalyticPoly([1, 2])
        g = AnalyticPoly([0, 0, 3])
        assert f + g == AnalyticPoly([1, 2, 3])
        assert 2.0 * f == AnalyticPoly([2, 4])
        assert f - f == AnalyticPoly.zero()

    def test_equality_up_to_trailing_zeros(self):
        assert AnalyticPoly([1, 2, 0, 0]) == AnalyticPoly([1, 2])
        assert AnalyticPoly([0, 0]) == AnalyticPoly.zero()
        assert AnalyticPoly([1, 2, 3e-17]) != AnalyticPoly([1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AnalyticPoly([])

    def test_monomial_and_truncate(self):
        assert AnalyticPoly.monomial(3, 2.0) == AnalyticPoly([0, 0, 0, 2])
        assert AnalyticPoly([1, 2, 3, 4]).truncated(1) == AnalyticPoly([1, 2])

    @given(f=polys, g=polys)
    @settings(max_examples=60, deadline=None)
    def test_degree_additivity(self, f, g):
        ft, gt = f.trimmed(), g.trimmed()
        lead = ft.coeffs[-1] * gt.coeffs[-1]
        if lead == 0:  # float underflow can kill the product's leading term
            return
        assert (ft * gt).trimmed().degree == ft.degree + gt.degree


def complex_arrays(max_len):
    """Complex coefficient arrays of length 1..max_len in the unit box."""
    def box(n):
        part = hnp.arrays(np.float64, n, elements=st.floats(-1, 1))
        return st.tuples(part, part).map(lambda t: t[0] + 1j * t[1])
    return st.integers(1, max_len).flatmap(box)


class TestShortFactorKernel:
    """Products with a short factor are built tap by tap, not by np.convolve."""

    @given(short=complex_arrays(SHORT_FACTOR_TAPS + 2), long=complex_arrays(300))
    @settings(max_examples=150, deadline=None)
    def test_matches_convolve_within_four_ulp(self, short, long):
        want = np.convolve(short, long)
        # Per coefficient, both roundings are bounded by the sum of |a_i||b_j|.
        scale = np.convolve(np.abs(short), np.abs(long))
        for a, b in ((short, long), (long, short)):
            got = (AnalyticPoly(a) * AnalyticPoly(b)).coeffs
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    def test_zero_factor(self):
        f = AnalyticPoly(np.linspace(-1, 1, 40) + 0.5j)
        for zero in (AnalyticPoly.zero(), AnalyticPoly([0, 0]),
                     AnalyticPoly(np.zeros(SHORT_FACTOR_TAPS + 1))):
            for prod in (f * zero, zero * f):
                assert len(prod.coeffs) == len(f.coeffs) + len(zero.coeffs) - 1
                assert not np.any(prod.coeffs)

    def test_monomial_factor_is_an_exact_shift(self):
        f = AnalyticPoly(np.linspace(-1, 1, 40) * (0.3 - 0.7j) + 0.1j)
        c = 0.375 - 1.25j
        for k in range(SHORT_FACTOR_TAPS):  # every monomial of at most K taps
            mono = AnalyticPoly.monomial(k, c)
            for prod in (f * mono, mono * f):
                assert len(prod.coeffs) == len(f.coeffs) + k
                assert not np.any(prod.coeffs[:k])
                assert np.array_equal(prod.coeffs[k:], f.coeffs * c)

    def test_products_are_immutable(self):
        prod = AnalyticPoly([1, 2, 3]) * AnalyticPoly([1, -1])
        with pytest.raises(ValueError):
            prod.coeffs[0] = 5.0
        scaled = 2.0 * prod
        with pytest.raises(ValueError):
            scaled.coeffs[0] = 5.0


class TestComposeAffine:
    def test_square(self):
        f = AnalyticPoly([0, 0, 1])
        assert compose_affine(f, 0.5, 0.5) == AnalyticPoly([0.25, 0.5, 0.25])

    def test_constant(self):
        assert compose_affine(AnalyticPoly.one(), 0.3 + 0.1j, -2.0) == AnalyticPoly.one()

    def test_fixed_point_contraction_case(self):
        # (1 - phi(z))^2 = a^2 (1 - z)^2 for phi = a z + 1 - a; dyadic a keeps
        # the Horner arithmetic exact.
        f = AnalyticPoly([1, -1]) * AnalyticPoly([1, -1])
        assert compose_affine(f, 0.5, 0.5) == 0.25 * f

    @given(f=polys)
    @settings(max_examples=60, deadline=None)
    def test_identity_map_is_exact(self, f):
        assert compose_affine(f, 1.0, 0.0) == f

    @given(f=polys, a=st.floats(-0.9, 0.9), g=st.floats(-0.9, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_general_composition(self, f, a, g):
        direct = compose_affine(f, a, g)
        generic = compose(f, AnalyticPoly([g, a]))
        scale = 1.0 + float(np.max(np.abs(direct.padded(len(direct.coeffs)))))
        assert gap(direct, generic) <= 1e-12 * scale


class TestCompose:
    def test_simple(self):
        f = AnalyticPoly([1, 0, 1])  # 1 + z^2
        g = AnalyticPoly([0, 0, 2])  # 2 z^2
        assert compose(f, g) == AnalyticPoly([1, 0, 0, 0, 4])

    def test_cap_gives_partial_sums(self):
        f = AnalyticPoly([1, 1, 1])
        g = AnalyticPoly([0.5, 0.5])
        full = compose(f, g)
        capped = compose(f, g, max_degree=1)
        assert capped == full.truncated(1)


class TestBinomialSeries:
    def test_linear(self):
        assert binomial_series(1, 1) == AnalyticPoly([1, -1])

    def test_square(self):
        assert binomial_series(2, 2) == AnalyticPoly([1, -2, 1])

    def test_integer_exponent_terminates(self):
        assert binomial_series(2, 6) == AnalyticPoly([1, -2, 1])

    def test_half_exponent(self):
        # d2 = (-0.5)(1 - 0.5)/2, d3 = d2 (2 - 0.5)/3; all steps dyadic.
        expected = AnalyticPoly([1, -0.5, -0.125, -0.0625])
        assert binomial_series(0.5, 3) == expected

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            binomial_series(0.5, -1)

    @given(s=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
           degree=st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_ratio_recurrence(self, s, degree):
        d = binomial_series(s, degree).coeffs
        k = np.arange(degree)
        lhs = (k + 1) * d[1:]
        rhs = (k - s) * d[:-1]
        assert np.all(np.abs(lhs - rhs) <= 1e-15 * (1 + np.abs(rhs)))


class TestEvaluation:
    def test_point_values(self):
        assert AnalyticPoly([1, -1])(0.5) == pytest.approx(0.5)
        assert AnalyticPoly([0, 0, 1])(1j) == pytest.approx(-1)

    @given(f=polys, g=polys,
           zs=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_product_evaluation(self, f, g, zs):
        for re, im in zs:
            z = complex(re, im)
            if abs(z) > 1:
                z /= abs(z)
            lhs = (f * g)(z)
            rhs = f(z) * g(z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_circle_grid_matches_pointwise(self):
        rng = np.random.default_rng(3)
        f = AnalyticPoly(rng.uniform(-1, 1, 11) + 1j * rng.uniform(-1, 1, 11))
        for m in (7, 16, 64):  # degree 10 > 7 exercises the aliasing fold
            grid = np.exp(2j * np.pi * np.arange(m) / m)
            direct = f(grid)
            fast = eval_on_circle(f, m)
            assert np.max(np.abs(direct - fast)) <= 1e-12 * (1 + np.max(np.abs(direct)))

    def test_fold_matches_padded_rows_bit_for_bit(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-1, 1, 2901) + 1j * rng.uniform(-1, 1, 2901)
        for m in (256, 1000, 2900, 2901):
            pad = (-len(c)) % m
            rows = np.pad(c, (0, pad)).reshape(-1, m).sum(axis=0)
            want = np.fft.ifft(rows, n=m) * m
            assert np.array_equal(eval_on_circle(AnalyticPoly(c), m), want)
