"""Norm evaluation: coefficient formulas, quadrature rules, brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcochaos.series import AnalyticPoly, binomial_series
from wcochaos.spaces import (Bergman, Hardy, SupSpace, bergman2_coeff_weights,
                             coeff_norm_bergman2, coeff_norm_h2, parse_space,
                             quad_norm_bergman_p, quad_norm_hp, require_in_space,
                             space_norm, space_provenance, sup_norm_bracket)

coeff_pairs = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
polys = st.lists(coeff_pairs, min_size=1, max_size=33).map(
    lambda ps: AnalyticPoly([complex(a, b) for a, b in ps]))


def random_poly(rng, max_degree):
    d = int(rng.integers(0, max_degree + 1))
    return AnalyticPoly(rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1))


class TestCoefficientNorms:
    def test_h2_examples(self):
        assert coeff_norm_h2(AnalyticPoly([1, 1, 1])) == pytest.approx(math.sqrt(3))
        assert coeff_norm_h2(AnalyticPoly([1, -1])) == pytest.approx(math.sqrt(2))

    def test_h2_of_binomial_series(self):
        # coefficients (1, -0.5, -0.125, -0.0625) from the ratio recurrence
        f = binomial_series(0.5, 3)
        expected = math.sqrt(1 + 0.25 + 0.015625 + 0.00390625)
        assert coeff_norm_h2(f) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.126735, abs=5e-7)

    def test_bergman_weight_recurrence_start(self):
        g = bergman2_coeff_weights(3, beta=0.0)
        assert g[0] == 1.0
        assert g[1] == pytest.approx(0.5)
        assert g[2] == pytest.approx(0.5 * 2 / 3)

    def test_bergman_examples(self):
        assert coeff_norm_bergman2(AnalyticPoly.one(), beta=2.1) == 1.0
        assert coeff_norm_bergman2(AnalyticPoly([0, 1]), beta=0.0) == pytest.approx(1 / math.sqrt(2))
        assert coeff_norm_bergman2(AnalyticPoly([0, 1]), beta=1.0) == pytest.approx(1 / math.sqrt(3))

    def test_bergman_beta_range(self):
        with pytest.raises(ValueError):
            coeff_norm_bergman2(AnalyticPoly.one(), beta=-1.0)

    @given(f=polys, beta=st.floats(-0.99, 4))
    @settings(max_examples=80, deadline=None)
    def test_bergman_dominated_by_h2(self, f, beta):
        # every coefficient weight is < 1 for beta > -1
        assert coeff_norm_bergman2(f, beta) <= coeff_norm_h2(f) * (1 + 1e-12)


class TestHardyQuadrature:
    @pytest.mark.parametrize("p", [1, 2, 2.5, 3])
    def test_constants_and_monomials(self, p):
        assert quad_norm_hp(AnalyticPoly.one(), p) == pytest.approx(1.0, rel=1e-12)
        assert quad_norm_hp(AnalyticPoly([0, 0, 1]), p) == pytest.approx(1.0, rel=1e-9)

    def test_parseval_against_coefficients(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = random_poly(rng, 64)
            q = quad_norm_hp(f, 2, angular_grid=4 * 64 + 1)
            c = coeff_norm_h2(f)
            assert abs(q - c) <= 1e-10 * c

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            quad_norm_hp(AnalyticPoly.one(), 0.5)

    def test_undersized_grid_rejected(self):
        f = AnalyticPoly(np.ones(11))
        with pytest.raises(ValueError):
            quad_norm_hp(f, 2, angular_grid=17)


class TestBergmanQuadrature:
    @pytest.mark.parametrize("p,beta", [(2, -0.5), (2, 0.0), (1.5, 1.0), (3, 2.5)])
    def test_normalized_measure(self, p, beta):
        assert quad_norm_bergman_p(AnalyticPoly.one(), p, beta) == pytest.approx(1.0, rel=1e-10)

    def test_monomial_matches_coefficient_route(self):
        got = quad_norm_bergman_p(AnalyticPoly([0, 1]), 2, 0.0)
        assert got == pytest.approx(1 / math.sqrt(2), rel=1e-8)

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 2.5])
    def test_oracle_cross_check(self, beta):
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_poly(rng, 32)
            q = quad_norm_bergman_p(f, 2, beta, radial_order=128)
            c = coeff_norm_bergman2(f, beta)
            assert abs(q - c) <= 1e-8 * c

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quad_norm_bergman_p(AnalyticPoly.one(), 1.0, 0.0)
        with pytest.raises(ValueError):
            quad_norm_bergman_p(AnalyticPoly.one(), 2.0, -1.5)


class TestSupBracket:
    def test_monomial(self):
        lo, up = sup_norm_bracket(AnalyticPoly([0, 1]))
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert up == 1.0

    def test_half_sum_bracket(self):
        f = AnalyticPoly([0.5, 0.5])
        lowers = [sup_norm_bracket(f, m)[0] for m in (64, 128, 256)]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert sup_norm_bracket(f)[1] == pytest.approx(1.0)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            sup_norm_bracket(AnalyticPoly.one(), 32)

    @given(f=polys)
    @settings(max_examples=60, deadline=None)
    def test_lower_below_upper(self, f):
        lo, up = sup_norm_bracket(f)
        assert lo <= up * (1 + 1e-12) + 1e-15


class TestHomogeneityAndDispatch:
    @pytest.mark.parametrize("spec", [Hardy(2), Hardy(1), Hardy(3),
                                      Bergman(2, 0.5), Bergman(2, -0.5), SupSpace()])
    def test_homogeneity(self, spec):
        rng = np.random.default_rng(31)
        f = random_poly(rng, 12)
        c = 2.7
        assert space_norm(c * f, spec) == pytest.approx(c * space_norm(f, spec), rel=1e-12)

    def test_provenance_tags(self):
        assert space_provenance(Hardy(2)) == "exact-coefficient"
        assert space_provenance(Hardy(2), capped=True) == "bracket-lower"
        assert space_provenance(Hardy(1)) == "quadrature"
        assert space_provenance(Bergman(2, 0.0)) == "exact-coefficient"
        assert space_provenance(Bergman(2.5, 0.0)) == "quadrature"
        assert space_provenance(SupSpace(), sup_side="lower") == "bracket-lower"
        assert space_provenance(SupSpace(), sup_side="upper") == "bracket-upper"

    def test_parse_space(self):
        assert parse_space("h2") == Hardy(2)
        assert parse_space("h1") == Hardy(1)
        assert parse_space("h2.5") == Hardy(2.5)
        assert parse_space("bergman:2:0") == Bergman(2, 0)
        assert parse_space("bergman:3:-0.5") == Bergman(3, -0.5)
        assert parse_space("hinf") == SupSpace()
        with pytest.raises(ValueError):
            parse_space("l2")
        with pytest.raises(ValueError):
            parse_space("h0.5")

    def test_sup_space_side_dispatch(self):
        f = AnalyticPoly([0.5, 0.5])
        assert space_norm(f, SupSpace(), sup_side="upper") == pytest.approx(1.0)
        assert space_norm(f, SupSpace(), sup_side="lower") <= 1.0 + 1e-12
        with pytest.raises(ValueError):
            space_norm(f, SupSpace(), sup_side="middle")


class TestCandidateMembership:
    # Each space at its boundary exponent: -1/p, -(2+beta)/p, and 0 for H^inf.
    @pytest.mark.parametrize("spec, inside, boundary", [
        (Hardy(2), -0.49, -0.5), (Hardy(4), -0.24, -0.25), (Hardy(1.5), -0.66, -2 / 3),
        (Bergman(2, 0.5), -1.24, -1.25), (Bergman(3, 0.5), -0.83, -0.9),
        (SupSpace(), 0.0, -0.01),
    ])
    def test_boundary(self, spec, inside, boundary):
        require_in_space(spec, inside)
        require_in_space(spec, complex(inside, 3.0))  # only Re(s) matters
        with pytest.raises(ValueError):
            require_in_space(spec, boundary)
