"""Weight iterate cache: recurrence, consistency, bounds."""

import numpy as np
import pytest

from wcochaos.series import AnalyticPoly, compose_affine
from wcochaos.symbols import SelfMapSymbol, WeightSymbol, affine_fixing_one, validate_self_map
from wcochaos.iterates import first_capped, weight_iterate_sequence
from wcochaos.operators import WeightedCompOp, orbit_norm_sequence
from wcochaos.spaces import Hardy


def gap(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return float(np.max(np.abs(f.padded(n) - g.padded(n))))


def validated(a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return phi


def test_constant_weight_stays_one():
    cache = weight_iterate_sequence(WeightSymbol.from_coeffs([1.0]), validated(0.5), 20)
    for n in range(1, 21):
        assert cache.weight_iterate(n) == AnalyticPoly.one()


def test_first_iterate_is_the_weight():
    w = WeightSymbol.from_coeffs([0.2, 0.5, -0.1])
    cache = weight_iterate_sequence(w, validated(0.3), 5)
    assert cache.weight_iterate(1) == w.poly


def test_second_iterate_formula():
    # (w o phi) * w with w = lam z and phi = a z + 1 - a expands to
    # lam^2 z (a z + 1 - a).
    lam, a = 0.7, 0.3
    cache = weight_iterate_sequence(WeightSymbol.from_coeffs([0, lam]), validated(a), 2)
    expected = (lam * lam) * (AnalyticPoly([0, 1]) * AnalyticPoly([1 - a, a]))
    assert gap(cache.weight_iterate(2), expected) <= 1e-15


def test_degree_grows_linearly_for_affine():
    w = WeightSymbol.from_coeffs([0.1, 0.2, 0.3])
    cache = weight_iterate_sequence(w, validated(0.4), 12)
    for n in (1, 5, 12):
        assert cache.weight_iterate(n).trimmed().degree == 2 * n


def test_multiplicative_consistency():
    # w(m+n) = w(m) * (w(n) o phi^m), coefficientwise to rounding
    rng = np.random.default_rng(11)
    w = WeightSymbol.from_coeffs(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    phi = validated(0.3)
    cache = weight_iterate_sequence(w, phi, 20)
    for m in (1, 3, 7, 10):
        for n in (1, 4, 10):
            it = phi.iterate(m)
            shifted = compose_affine(cache.weight_iterate(n), it.alpha, it.gamma)
            lhs = cache.weight_iterate(m + n)
            rhs = cache.weight_iterate(m) * shifted
            scale = 1.0 + float(np.max(np.abs(rhs.coeffs)))
            assert gap(lhs, rhs) <= 1e-12 * scale


def test_sup_upper_bracket_is_submultiplicative():
    # Wiener-contractive affine symbols keep the l1 norm of w o phi^n below
    # that of w, mirroring |w(n)(z)| <= sup|w|^n.
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(0.1, 0.9)
        w = WeightSymbol.from_coeffs(rng.uniform(-1, 1, 3))
        cache = weight_iterate_sequence(w, validated(a), 30)
        for n in range(1, 31):
            upper = cache.weight_iterate(n).coeff_abs_sum()
            assert upper <= (w.sup_upper**n) * (1 + 1e-9)


def test_boundary_value_at_one_is_lambda_power():
    # every factor of w(n) equals 1 at z = 1 except the lam z factors
    lam, a = 0.6, 0.5
    cache = weight_iterate_sequence(WeightSymbol.from_coeffs([0, lam]), validated(a), 40)
    for n in (1, 7, 23, 40):
        val = abs(cache.weight_iterate(n)(1.0))
        assert val == pytest.approx(lam**n, rel=1e-12)


def test_unvalidated_symbol_rejected():
    phi = affine_fixing_one(0.5)  # never validated
    with pytest.raises(ValueError):
        weight_iterate_sequence(WeightSymbol.from_coeffs([1.0]), phi, 5)


def test_bad_horizon_rejected():
    with pytest.raises(ValueError):
        weight_iterate_sequence(WeightSymbol.from_coeffs([1.0]), validated(0.5), 0)


def test_capped_run_records_truncation():
    w = WeightSymbol.from_coeffs([0, 0.5])
    full = weight_iterate_sequence(w, validated(0.5), 10)
    capped = weight_iterate_sequence(w, validated(0.5), 10, max_degree=3)
    assert capped.truncated and not full.truncated
    for n in range(1, 11):
        assert capped.weight_iterate(n) == full.weight_iterate(n).truncated(3)


def test_polynomial_symbol_requires_cap_and_flags():
    phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 0.8]))
    assert validate_self_map(phi)
    w = WeightSymbol.from_coeffs([0, 1.0])
    with pytest.raises(ValueError):
        weight_iterate_sequence(w, phi, 4)
    # deg w(n) = 2^n - 1: 15 at n = 4 stays below the cap, 63 at n = 6 passes it.
    assert not weight_iterate_sequence(w, phi, 4, max_degree=40).truncated
    cache = weight_iterate_sequence(w, phi, 6, max_degree=40)
    assert cache.truncated
    # w(2) = (w o phi) * w = 0.8 z^2 * z = 0.8 z^3, below the cap hence exact
    assert cache.weight_iterate(2) == AnalyticPoly.monomial(3, 0.8)


def test_first_capped_follows_exact_degrees():
    w = WeightSymbol.from_coeffs([0, 0.9])
    square = SelfMapSymbol.polynomial(AnalyticPoly([0.3, 0, 0.5]))
    line = SelfMapSymbol.polynomial(AnalyticPoly([0.5, 0.5]))
    assert validate_self_map(square) and validate_self_map(line)
    # deg w(n) = 2^n - 1 under the square map passes the cap 16 at n = 5.
    assert first_capped(w, square, 10, 16) == 5
    assert first_capped(w, square, 4, 16) == 5  # horizon + 1: never capped
    # An f of degree 3 adds 3 * 2^n: 7 + 24 passes 16 at n = 3.
    assert first_capped(w, square, 10, 16, f_degree=3) == 3
    # The line keeps degree 1, so deg w(n) = n.
    assert first_capped(w, line, 30, 64) == 31
    assert first_capped(w, line, 100, 64) == 65
    # A constant weight stays constant whatever the cap does to phi^n.
    assert first_capped(WeightSymbol.from_coeffs([0.5]), square, 50, 1) == 51
    assert first_capped(w, square, 50, None) == 51


def test_orbit_flag_counts_the_vector_degree():
    phi = SelfMapSymbol.polynomial(AnalyticPoly([0.3, 0, 0.5]))
    assert validate_self_map(phi)
    op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), phi)
    cache = op.build_cache(4, max_degree=16)
    assert not cache.truncated
    assert not orbit_norm_sequence(op, AnalyticPoly.one(), Hardy(2), 4, cache=cache).truncated
    cut = orbit_norm_sequence(op, AnalyticPoly.monomial(3), Hardy(2), 4, cache=cache)
    assert cut.truncated and cut.provenance == "bracket-lower"


def test_capped_polynomial_iterates_are_exact_partial_sums():
    # phi = 0.3 + 0.5 z^2: the exact phi^3 starts 0.3595125 + 0.05175 z^2 + ...
    phi = SelfMapSymbol.polynomial(AnalyticPoly([0.3, 0, 0.5]))
    assert validate_self_map(phi)
    cache = weight_iterate_sequence(WeightSymbol.from_coeffs([1.0]), phi, 3, max_degree=2)
    for it in (phi.iterate(3, max_degree=2), cache.symbol_iterate(3)):
        assert it.approximate
        assert np.allclose(it.poly.coeffs, [0.3595125, 0, 0.05175], rtol=0, atol=1e-15)


def test_index_bounds():
    cache = weight_iterate_sequence(WeightSymbol.from_coeffs([1.0]), validated(0.5), 3)
    with pytest.raises(ValueError):
        cache.weight_iterate(0)
    with pytest.raises(ValueError):
        cache.weight_iterate(4)
    with pytest.raises(ValueError):
        cache.symbol_iterate(-1)
    assert cache.symbol_iterate(0).alpha == 1.0
    assert len(cache) == 3
