"""Operator powers, orbit norm sequences, norm-domination inequalities."""

import numpy as np
import pytest

from wcochaos.iterates import weight_iterate_sequence
from wcochaos.series import AnalyticPoly, binomial_series
from wcochaos.symbols import SelfMapSymbol, WeightSymbol, affine_fixing_one, validate_self_map
from wcochaos.operators import (NormSequence, WeightedCompOp,
                                eigen_orbit_norm_sequence, orbit_norm_sequence,
                                weight_norm_sequence)
from wcochaos.spaces import (Bergman, Hardy, SupSpace, coeff_norm_h2, quad_norm_bergman_p,
                             quad_norm_hp)

from oracle import apply, apply_n, rotation


def gap(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return float(np.max(np.abs(f.padded(n) - g.padded(n))))


def make_op(w_coeffs, a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return WeightedCompOp(WeightSymbol.from_coeffs(w_coeffs), phi)


def weights_by_n(op, horizon):
    """{n: w(n)} for n = 1..horizon."""
    return dict(enumerate(weight_iterate_sequence(op.w, op.phi, horizon), start=1))


class TestApplyN:
    def test_plain_composition_when_weight_is_one(self):
        op = make_op([1.0], 0.5)
        f = AnalyticPoly([1, 2, 3])
        assert apply_n(op, f, 1) == op.phi.compose_into(f)

    def test_constant_one_recovers_weight_iterates(self):
        op = make_op([0.3, 0.4], 0.25)
        weights = weights_by_n(op, 6)
        for n in (1, 3, 6):
            assert apply_n(op, AnalyticPoly.one(), n) == weights[n]

    def test_eigen_relation_cubed(self):
        # (1 - z)^2 is an exact eigenvector of the unweighted operator with
        # a = 0.5: three applications scale it by 0.5^6 = 0.015625.
        op = make_op([1.0], 0.5)
        f = AnalyticPoly([1, -1]) * AnalyticPoly([1, -1])
        assert apply_n(op, f, 3) == 0.015625 * f

    def test_zero_power_is_identity(self):
        op = make_op([0, 0.9], 0.25)
        f = AnalyticPoly([1, 1j])
        assert apply_n(op, f, 0) is f

    def test_power_bounds(self):
        op = make_op([0, 0.9], 0.25)
        with pytest.raises(ValueError):
            apply_n(op, AnalyticPoly.one(), -1)

    def test_capped_power_is_the_orbit_element(self):
        # A polynomial map needs a cap; under it, apply_n and the streamed
        # orbit form each T^n f by the same arithmetic.
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0.3, 0, 0.5]))
        assert validate_self_map(phi)
        op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), phi)
        f = AnalyticPoly([1, -0.5, 0.25])
        with pytest.raises(ValueError, match="degree cap"):
            apply_n(op, f, 2)
        seq = orbit_norm_sequence(op, f, Hardy(2), 7, max_degree=40)
        for n in range(1, 8):
            power = apply_n(op, f, n, max_degree=40)
            assert power.trimmed().degree <= 40
            assert seq.value(n) == coeff_norm_h2(power)

    def test_unvalidated_symbol_rejected(self):
        with pytest.raises(ValueError):
            WeightedCompOp(WeightSymbol.from_coeffs([1.0]), affine_fixing_one(0.5))

    def test_iterate_identity_matches_sequential_application(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            a = rng.uniform(0.1, 0.9)
            w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            op = make_op(w, a)
            f = AnalyticPoly(rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17))
            seq = f
            for n in range(1, 13):
                seq = apply(op, seq)
                closed = apply_n(op, f, n)
                scale = 1.0 + float(np.max(np.abs(seq.coeffs)))
                assert gap(closed, seq) <= 1e-12 * scale


class TestNormInequalities:
    def test_hardy_domination(self):
        # ||T^n f||_p <= ||w(n)||_p * sup|f| with the coefficient-sum upper
        # bound standing in for sup|f|
        rng = np.random.default_rng(43)
        for _ in range(12):
            op = make_op(rng.uniform(-1, 1, 3), rng.uniform(0.1, 0.9))
            weights = weights_by_n(op, 6)
            f = AnalyticPoly(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            f_sup_upper = f.coeff_abs_sum()
            for p in (1, 2, 3):
                for n in (1, 3, 6):
                    lhs = quad_norm_hp(apply_n(op, f, n), p)
                    rhs = quad_norm_hp(weights[n], p) * f_sup_upper
                    assert lhs <= rhs * (1 + 1e-9)

    def test_bergman_domination(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            op = make_op(rng.uniform(-1, 1, 3), rng.uniform(0.1, 0.9))
            weights = weights_by_n(op, 4)
            f = AnalyticPoly(rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7))
            f_sup_upper = f.coeff_abs_sum()
            for p, beta in ((2, 0.0), (2, 1.0), (3, -0.5)):
                for n in (1, 4):
                    lhs = quad_norm_bergman_p(apply_n(op, f, n), p, beta)
                    rhs = quad_norm_bergman_p(weights[n], p, beta) * f_sup_upper
                    assert lhs <= rhs * (1 + 1e-9)

    def test_sup_identity_attained_by_constant_one(self):
        # the coefficient-sum bracket of T^n f never exceeds that of w(n)
        # for Wiener-contractive symbols, and f = 1 attains it exactly
        rng = np.random.default_rng(53)
        op = make_op(rng.uniform(-1, 1, 4), 0.35)
        weights = weights_by_n(op, 8)
        for _ in range(10):
            f = AnalyticPoly(rng.uniform(-1, 1, 6))
            f = (1.0 / f.coeff_abs_sum()) * f
            for n in (1, 4, 8):
                upper = apply_n(op, f, n).coeff_abs_sum()
                assert upper <= weights[n].coeff_abs_sum() * (1 + 1e-9)
        for n in (1, 4, 8):
            attained = apply_n(op, AnalyticPoly.one(), n).coeff_abs_sum()
            assert attained == weights[n].coeff_abs_sum()


class TestOrbitSequences:
    def test_identity_symbol_constant_orbit(self):
        phi = SelfMapSymbol.identity()
        assert validate_self_map(phi)
        op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
        f = AnalyticPoly([1, 2, 3])
        seq = orbit_norm_sequence(op, f, Hardy(2), 10)
        assert np.allclose(seq.values, coeff_norm_h2(f), rtol=1e-14)

    def test_rotation_isometry_constant_orbit(self):
        phi = rotation(np.pi / 3)
        assert validate_self_map(phi)
        op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
        f = AnalyticPoly([1, 1j, -2])
        seq = orbit_norm_sequence(op, f, Hardy(2), 24)
        assert np.max(np.abs(seq.values - seq.values[0])) <= 1e-12 * seq.values[0]

    def test_truncated_orbit_transient_then_weight_decay(self):
        # Orbit of the degree-1024 truncation of (1-z)^(-0.4) under
        # w = 0.9 z, phi = 0.25 z + 0.75: the truncation stops resolving the
        # eigen-behaviour once 0.25^n < 1/1024, so the sequence peaks within
        # a few steps and then decays at the weight rate log 0.9.  (Frozen
        # from a direct run; the closed-form route in
        # eigen_orbit_norm_sequence is the one that keeps growing.)
        op = make_op([0, 0.9], 0.25)
        horizon = 250
        f = binomial_series(-0.4, 1024)
        seq = orbit_norm_sequence(op, f, Hardy(2), horizon)
        v = seq.values
        assert int(np.argmax(v)) + 1 == 6
        assert v.max() / v[0] == pytest.approx(3.329, rel=1e-2)
        tail_slope = np.polyfit(np.arange(150, 251), np.log(v[149:250]), 1)[0]
        assert tail_slope == pytest.approx(np.log(0.9), abs=1e-4)

    def test_weight_norm_sequence_is_orbit_of_one(self):
        op = make_op([0, 0.8, 0.1], 0.3)
        ws = weight_norm_sequence(op, Hardy(2), 15)
        orbit_one = orbit_norm_sequence(op, AnalyticPoly.one(), Hardy(2), 15)
        assert np.array_equal(ws.values, orbit_one.values)

    def test_constant_weight_norm_sequence(self):
        op = make_op([1.0], 0.5)
        for spec in (Hardy(2), Bergman(2, 1.0)):
            seq = weight_norm_sequence(op, spec, 10)
            assert np.allclose(seq.values, 1.0, rtol=1e-14)

    def test_sup_lower_sequence_is_exact_geometric(self):
        op = make_op([0, 0.6], 0.5)
        seq = weight_norm_sequence(op, SupSpace(), 60)
        expected = 0.6 ** np.arange(1, 61)
        for side in (seq.values, seq.upper):
            assert np.max(np.abs(side - expected) / expected) <= 1e-9

    def test_h2_weight_sequence_tracks_geometric_rate(self):
        op = make_op([0, 0.6], 0.5)
        seq = weight_norm_sequence(op, Hardy(2), 200)
        ratio = seq.values / 0.6 ** np.arange(1, 201)
        assert np.all(ratio <= 1 + 1e-12)
        assert ratio.min() > 0.55  # frozen: measured 0.586

    def test_provenance_tags(self):
        op = make_op([0, 0.9], 0.25)
        assert weight_norm_sequence(op, Hardy(2), 5).provenance == "exact-coefficient"
        assert weight_norm_sequence(op, Hardy(1), 5).provenance == "quadrature"
        assert weight_norm_sequence(op, SupSpace(), 5).provenance == "bracket-lower"
        seq = weight_norm_sequence(op, Hardy(2), 5, max_degree=2)
        assert seq.provenance == "bracket-lower" and seq.truncated
        # The tag follows the space and the flag, so the two cannot disagree.
        assert NormSequence(values=seq.values, space=Hardy(2)).provenance == "exact-coefficient"

    def test_norm_sequence_validation(self):
        with pytest.raises(ValueError):
            NormSequence(values=np.array([]), space=Hardy(2))
        with pytest.raises(ValueError):
            NormSequence(values=np.array([-1.0]), space=Hardy(2))
        seq = NormSequence(values=np.array([1.0, 2.0]), space=Hardy(2))
        assert seq.value(2) == 2.0
        with pytest.raises(ValueError):
            seq.value(3)

    def test_norm_sequence_rejects_nan_but_keeps_inf(self):
        values = np.array([1.0, np.inf, np.nan, np.nan])
        with pytest.raises(ValueError, match=r"'weight-norm' has its first NaN at n=3"):
            NormSequence(values=values, space=Hardy(2), label="weight-norm")
        seq = NormSequence(values=values[:2], space=Hardy(2))
        assert seq.value(2) == np.inf


class TestEigenOrbit:
    def test_matches_direct_route_for_polynomial_eigenvectors(self):
        # for integer s the candidate is an exact polynomial eigenvector, so
        # the closed form and the iterate identity must agree to rounding
        op = make_op([0, 0.7], 0.5)
        for s in (1, 2):
            closed = eigen_orbit_norm_sequence(op, s, 8, Hardy(2), 10)
            direct = orbit_norm_sequence(op, binomial_series(s, 8), Hardy(2), 10)
            assert np.allclose(closed.values, direct.values, rtol=1e-12)

    def test_matches_direct_route_with_monomial_factor(self):
        op = make_op([1.0], 0.5)
        closed = eigen_orbit_norm_sequence(op, 2, 8, Hardy(2), 8, power=2)
        f = binomial_series(2, 8) * AnalyticPoly.monomial(2)
        direct = orbit_norm_sequence(op, f, Hardy(2), 8)
        assert np.allclose(closed.values, direct.values, rtol=1e-12)

    def test_growth_rate_is_weight_times_eigenvalue(self):
        op = make_op([0, 0.9], 0.25)
        seq = eigen_orbit_norm_sequence(op, -0.4, 1024, Hardy(2), 500)
        slope = np.polyfit(np.arange(300, 501), np.log(seq.values[299:500]), 1)[0]
        assert slope == pytest.approx(np.log(0.9 * 0.25**-0.4), rel=1e-3)

    def test_requires_fixed_point_one(self):
        phi = rotation(0.5)
        assert validate_self_map(phi)
        op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
        with pytest.raises(ValueError):
            eigen_orbit_norm_sequence(op, -0.4, 64, Hardy(2), 10)

    def test_h2_membership_enforced(self):
        op = make_op([1.0], 0.5)
        for spec, s in [(Hardy(2), -0.6), (Hardy(4), -0.4), (Hardy(3), -0.4),
                        (Bergman(3, 0.5), -0.9), (SupSpace(), -0.1)]:
            with pytest.raises(ValueError):
                eigen_orbit_norm_sequence(op, s, 64, spec, 10)
