"""Self-map validation, affine iteration, weight brackets."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcochaos.series import AnalyticPoly, eval_on_circle
from wcochaos.spaces import SUP_BRACKET_GRID
from wcochaos.symbols import (SelfMapSymbol, WeightSymbol, affine_fixing_one,
                              validate_self_map)

from oracle import rotation


def compose_pairs(outer: SelfMapSymbol, inner: SelfMapSymbol) -> tuple[complex, complex]:
    # (outer o inner)(z) = a1 a2 z + a1 g2 + g1, as exact scalar arithmetic
    return outer.alpha * inner.alpha, outer.alpha * inner.gamma + outer.gamma


class TestValidation:
    def test_boundary_fixing_family_passes(self):
        phi = affine_fixing_one(0.5)
        assert validate_self_map(phi)
        assert phi.validated

    def test_expanding_map_fails(self):
        phi = SelfMapSymbol.affine(2.0, 0.0)
        assert not validate_self_map(phi)
        assert not phi.validated

    def test_rotation_passes(self):
        assert validate_self_map(rotation(np.pi / 3))

    def test_constant_one_fails_at_origin(self):
        # boundary grid max is 1 but |phi(0)| = 1 is not inside the disk
        assert not validate_self_map(SelfMapSymbol.affine(0.0, 1.0))

    def test_polynomial_symbol(self):
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 0.9]))
        assert validate_self_map(phi)

    def test_map_leaving_the_disk_between_grid_points_is_refused(self):
        # 0.3 + 0.9 z^128 - 0.3 z^256 reads 0.9 on the 256-point grid, where
        # z^128 = 1, yet reaches sqrt(0.81 + 4 * 0.09) = 1.0817 where z^128 = i.
        c = np.zeros(257)
        c[[0, 128, 256]] = 0.3, 0.9, -0.3
        phi = SelfMapSymbol.polynomial(AnalyticPoly(c))
        start = time.perf_counter()
        assert not validate_self_map(phi)
        assert time.perf_counter() - start < 1.0
        assert not phi.validated

    def test_cancelling_coefficients_pass_through_the_bernstein_bound(self):
        # sum |c_k| = 1.2, but sup |0.4 + 0.4 z - 0.4 z^2| = 0.894.
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0.4, 0.4, -0.4]))
        assert validate_self_map(phi)
        z = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        assert np.max(np.abs(phi(z))) < 0.9

    def test_unseparable_boundary_touching_map_is_refused_at_once(self):
        # |z^2 + 2z - 1| = 2 sqrt(1 + sin^2 t): the sup is exactly 1 at z = i,
        # a grid point, so no grid bound can pass; sum |c_k| = sqrt(2).
        phi = SelfMapSymbol.polynomial(AnalyticPoly(np.array([-1, 2, 1]) / (2 * np.sqrt(2))))
        start = time.perf_counter()
        assert not validate_self_map(phi)
        assert time.perf_counter() - start < 1.0

    @given(a=st.floats(0.05, 0.95), t=st.floats(0, 2 * np.pi),
           r=st.floats(0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_validated_maps_stay_inside(self, a, t, r):
        phi = affine_fixing_one(a)
        assert validate_self_map(phi)
        z = r * np.exp(1j * t)
        assert abs(phi(z)) < 1


class TestAffineIteration:
    def test_three_fold(self):
        phi = affine_fixing_one(0.5)
        it = phi.iterate(3)
        assert it.alpha == 0.125 and it.gamma == 0.875

    def test_zero_is_identity(self):
        it = affine_fixing_one(0.3).iterate(0)
        assert it.alpha == 1.0 and it.gamma == 0.0

    def test_one_is_self(self):
        phi = SelfMapSymbol.affine(0.4 + 0.1j, 0.2)
        it = phi.iterate(1)
        assert it.alpha == phi.alpha and it.gamma == phi.gamma

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            affine_fixing_one(0.5).iterate(-1)

    @pytest.mark.parametrize("a", [0.5, 0.25, 0.75])
    def test_semigroup_exact_for_dyadic_parameters(self, a):
        # a^(m+n) and 1 - a^(m+n) stay exactly representable for m+n <= 20,
        # so iteration and pair composition must agree bit for bit.
        phi = affine_fixing_one(a)
        for m in range(0, 12):
            for n in range(0, 12):
                if m + n > 20:
                    continue
                combined = phi.iterate(m + n)
                ca, cg = compose_pairs(phi.iterate(m), phi.iterate(n))
                assert combined.alpha == ca
                assert combined.gamma == cg

    @given(a=st.floats(0.05, 0.95), g=st.floats(-0.4, 0.4),
           m=st.integers(0, 10), n=st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_semigroup_generic(self, a, g, m, n):
        phi = SelfMapSymbol.affine(a, g)
        combined = phi.iterate(m + n)
        ca, cg = compose_pairs(phi.iterate(m), phi.iterate(n))
        assert abs(combined.alpha - ca) <= 1e-14 * (1 + abs(ca))
        assert abs(combined.gamma - cg) <= 1e-13 * (1 + abs(cg))

    def test_identity_alpha_one(self):
        phi = SelfMapSymbol.affine(1.0, 0.0)
        it = phi.iterate(7)
        assert it.alpha == 1.0 and it.gamma == 0.0


class TestPolynomialIteration:
    def test_square_map(self):
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 1.0]))
        it = phi.iterate(2, max_degree=10)
        assert it.poly == AnalyticPoly.monomial(4)

    def test_cap_required(self):
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 0.5]))
        with pytest.raises(ValueError):
            phi.iterate(3)


class TestWeightSymbol:
    def test_monomial_weight_bracket_is_tight(self):
        w = WeightSymbol.from_coeffs([0, 0.6])
        assert w.sup_lower == pytest.approx(0.6, rel=1e-12)
        assert w.sup_upper == pytest.approx(0.6, rel=1e-15)

    def test_lower_grows_toward_sup_under_refinement(self):
        w_poly = AnalyticPoly([0.5, 0.5])  # sup attained at z = 1
        grids = (64, 128, 256, 512)
        lowers = [float(np.max(np.abs(eval_on_circle(w_poly, m)))) for m in grids]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert lowers[-1] <= 1.0 + 1e-12
        assert lowers[-1] == pytest.approx(1.0, rel=1e-12)
        # The weight's lower side is the maximum on the sup-bracket grid.
        assert WeightSymbol.build(w_poly).sup_lower == lowers[grids.index(SUP_BRACKET_GRID)]

    @given(cs=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                       min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bracket_ordering(self, cs):
        w = WeightSymbol.from_coeffs([complex(a, b) for a, b in cs])
        assert w.sup_lower <= w.sup_upper * (1 + 1e-12) + 1e-15
