"""Block-batched long-horizon streams.

The streamed loops drop exact trailing zeros, build the affine factors in
batched Horner passes, and take H^2, A^2_beta and H^inf norms one block of
rows at a time.  The references below are the per-row norms and the
untrimmed per-step recurrences the loops replaced.
"""

import math

import numpy as np
import pytest

from wcochaos import iterates, operators, spaces
from wcochaos.experiments import ExperimentConfig, build_operator
from wcochaos.iterates import affine_compositions, weight_iterates
from wcochaos.operators import WeightedCompOp, eigen_orbit_norm_sequence, weight_norm_sequence
from wcochaos.series import (AnalyticPoly, binomial_series, coeff_product, compose_affine,
                             compose_affine_rows, trim_trailing_zeros)
from wcochaos.spaces import Bergman, Hardy, SupSpace, space_norm, space_norms, sup_norm_bracket
from wcochaos.symbols import SelfMapSymbol, WeightSymbol, validate_self_map

CASES = [(Hardy(2.0), "lower"), (Bergman(2.0, 0.5), "lower"), (Bergman(2.0, -0.7), "lower"),
         (SupSpace(), "lower"), (SupSpace(), "upper")]


def ragged_rows(rng):
    """Rows of many widths, with zero rows and rows far outside 1e+-140."""
    rows = []
    for width in (1, 3, 40, 41, 255, 256, 257, 700, 2, 1):
        rows.append(rng.normal(size=width) + 1j * rng.normal(size=width))
    rows[2][-5:] = 0.0  # trailing zeros inside a row
    rows += [np.zeros(1, complex), np.zeros(17, complex)]
    rows += [rows[3] * 1e-200, rows[4] * 1e160, rows[6] * 2.0**-1060, rows[7] * 1e300]
    rows.append(rng.normal(size=300))  # a real row
    return [rows[i] for i in rng.permutation(len(rows))]


def reference_norm(c, spec, side):
    """The norm from its definition, scaled by a power of two, summed exactly."""
    a = np.abs(np.asarray(c, dtype=complex))
    if isinstance(spec, SupSpace):
        if side == "upper":
            return math.fsum(a)
        return float(np.max(np.abs(np.polynomial.polynomial.polyval(
            np.exp(2j * np.pi * np.arange(spaces.SUP_BRACKET_GRID) / spaces.SUP_BRACKET_GRID),
            c))))
    e = math.frexp(a.max())[1] if a.max() > 0 else 0
    s = np.ldexp(a, -e)
    g = np.ones(len(c)) if isinstance(spec, Hardy) else spaces.bergman2_coeff_weights(len(c), spec.beta)
    return math.ldexp(math.sqrt(math.fsum(g * s * s)), e)


@pytest.mark.parametrize("block_bytes", [1 << 20, 4096, 64])
@pytest.mark.parametrize("spec,side", CASES,
                         ids=["h2", "bergman2_0.5", "bergman2_-0.7", "hinf-lower", "hinf-upper"])
def test_block_kernels_match_per_row_norms(monkeypatch, spec, side, block_bytes):
    # 4096 bytes puts a few rows in a block and the widest rows alone; 64
    # bytes makes every row its own block.
    monkeypatch.setattr(spaces, "BLOCK_BYTES", block_bytes)
    rows = ragged_rows(np.random.default_rng(7))
    lower, upper = space_norms(iter(rows), spec)
    got = upper if side == "upper" else lower
    if not isinstance(spec, SupSpace):
        assert upper is lower
    if side == "upper":
        per_row = np.array([sup_norm_bracket(AnalyticPoly(c))[1] for c in rows])
    else:
        per_row = np.array([space_norm(AnalyticPoly(c), spec) for c in rows])
    assert got.shape == (len(rows),)
    if isinstance(spec, SupSpace) and side == "lower":
        # Zero padding and folding add exact zeros: the same FFT input.
        assert np.array_equal(got, per_row)
    np.testing.assert_allclose(got, per_row, rtol=1e-15, atol=0)
    assert np.all(got[[not np.any(c) for c in rows]] == 0.0)
    # Grid values of subnormal coefficients carry too few bits to compare.
    normal = [np.max(np.abs(c)) > 1e-300 or not np.any(c) for c in rows]
    want = np.array([reference_norm(c, spec, side) for c in rows])
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
    assert np.all(got[[0 < np.max(np.abs(c)) for c in rows]] > 0)


def test_block_kernels_check_their_arguments():
    for spec in (Hardy(2.0), SupSpace()):
        assert [side.shape for side in space_norms([], spec)] == [(0,), (0,)]


def test_quadrature_spaces_take_one_norm_per_row():
    rows = [np.array([1.0, 0.5]), np.array([0.3, 0.0, 0.2j])]
    for spec in (Hardy(3.0), Bergman(1.5, 0.2)):
        lower, upper = space_norms(rows, spec)
        assert upper is lower
        assert np.array_equal(lower, [space_norm(AnalyticPoly(c), spec) for c in rows])


def affine(a):
    phi = SelfMapSymbol.affine(a, 1 - a)
    assert validate_self_map(phi)
    return phi


class TestAffineFactors:
    @pytest.mark.parametrize("phi", [SelfMapSymbol.affine(0.3, 0.7), SelfMapSymbol.affine(1.0, 0.2j),
                                     SelfMapSymbol.affine(0.5 + 0.2j, -0.1)],
                             ids=["fixes-one", "alpha-one", "general"])
    def test_closed_form_coefficients_match_iterate(self, phi):
        alphas, gammas = phi.affine_coefficients(range(0, 140))
        for n in range(140):
            it = phi.iterate(n)
            assert (alphas[n], gammas[n]) == (it.alpha, it.gamma)

    def test_batched_horner_matches_one_row_at_a_time(self):
        f = AnalyticPoly([0.2, -0.5, 0.1, 0.3])
        alphas, gammas = np.array([0.3, 0.5, 1.0]), np.array([0.7, 0.5, 0.0])
        rows = compose_affine_rows(f, alphas, gammas)
        for row, a, g in zip(rows, alphas, gammas):
            assert np.array_equal(row, compose_affine(f, a, g).coeffs)

    def test_compositions_stream_in_bounded_chunks(self, monkeypatch):
        calls = []

        def recorder(f, alphas, gammas):
            calls.append(len(alphas))
            return compose_affine_rows(f, alphas, gammas)

        monkeypatch.setattr(iterates, "BLOCK_BYTES", 64)  # two rows of two taps
        monkeypatch.setattr(iterates, "compose_affine_rows", recorder)
        phi = affine(0.4)
        w = AnalyticPoly([0.0, 0.9])
        rows = list(affine_compositions(w, phi, 7))
        assert calls == [2, 2, 2, 1]
        for n, row in enumerate(rows, start=1):
            assert np.array_equal(row, phi.iterate(n).compose_into(w).coeffs)
            assert not row.flags.writeable


def untrimmed_weights(w, phi, horizon):
    """w(n) by the per-step recurrence, at full length n deg w + 1."""
    current = w
    yield current
    for n in range(1, horizon):
        it = phi.iterate(n)
        current = current * compose_affine(w, it.alpha, it.gamma)
        yield current


def untrimmed_orbit_logs(w, phi, s, degree, horizon, power, norm):
    """log ||T^n (1-z)^s z^k|| the way the per-step loop computed it."""
    mu = np.exp(complex(s) * np.log(phi.alpha))
    product, log_scale, logs = binomial_series(s, degree) * w, 0.0, []
    for n in range(1, horizon + 1):
        log_scale += math.log(abs(mu))
        it = phi.iterate(n)
        term = product * compose_affine(AnalyticPoly.monomial(power), it.alpha, it.gamma)
        logs.append(log_scale + math.log(norm(term.coeffs)))
        product = product * compose_affine(w, it.alpha, it.gamma)
        peak = float(np.max(np.abs(product.coeffs)))
        product = (1.0 / peak) * product
        log_scale += math.log(peak)
    return np.array(logs)


class TestLongHorizons:
    def test_trimmed_iterate_is_short_and_equal(self):
        op = build_operator(ExperimentConfig(weight="0.9*z", phi_affine=0.25))
        stream = list(weight_iterates(op.w, op.phi, 3000))
        w3000 = stream[-1]
        assert len(w3000.coeffs) <= 64
        for n, reference in enumerate(untrimmed_weights(op.w.poly, op.phi, 3000), start=1):
            if n in (1, 2, 50, 1000, 3000):
                assert stream[n - 1] == reference
        assert len(reference.coeffs) == 3001

    @pytest.mark.parametrize("space", ["h2", "hinf", "bergman:2:0.5"])
    def test_weight_norms_at_h3000(self, space):
        op = build_operator(ExperimentConfig(weight="0.95*z", phi_affine=0.3))
        spec = spaces.parse_space(space)
        seq = weight_norm_sequence(op, spec, 3000)
        reference = list(untrimmed_weights(op.w.poly, op.phi, 3000))
        want = np.array([space_norm(wn, spec) for wn in reference])
        np.testing.assert_allclose(seq.values, want, rtol=1e-14, atol=0)
        if space == "hinf":
            assert np.array_equal(seq.values, want)
            upper = np.array([sup_norm_bracket(wn)[1] for wn in reference])
            np.testing.assert_allclose(seq.upper, upper, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("power", [0, 2])
    def test_eigen_orbit_at_h3000(self, power):
        op = build_operator(ExperimentConfig(weight="0.95*z", phi_affine=0.3))
        got = eigen_orbit_norm_sequence(op, -0.2, 256, Hardy(2.0), 3000, power=power)
        want = untrimmed_orbit_logs(op.w.poly, op.phi, -0.2, 256, 3000, power,
                                    lambda c: float(np.linalg.norm(c)))
        np.testing.assert_allclose(np.exp(got.log_values - want), 1.0, rtol=0, atol=1e-14)

    def test_complex_eigen_orbit_keeps_complex_arithmetic(self):
        op = build_operator(ExperimentConfig(weight="0.9*z", phi_affine=0.3))
        s = 0.2 + 0.3j
        got = eigen_orbit_norm_sequence(op, s, 128, SupSpace(), 400, power=1)
        want = untrimmed_orbit_logs(op.w.poly, op.phi, s, 128, 400, 1,
                                    lambda c: float(np.sum(np.abs(c))))
        np.testing.assert_allclose(got.upper / np.exp(want), 1.0, rtol=0, atol=1e-14)


def collapse_step(phi):
    """N0, the first n >= 2 where alpha_n = alpha**n is exactly 0.0."""
    return next(n for n in range(2, 10**6) if phi._closed_form(n, phi.fixes_one())[0] == 0)


def stepped_weights(w, phi, horizon):
    """w(n) by the per-step loop: a freshly composed factor and a full product
    every step."""
    current = w.coeffs
    yield current
    for n in range(1, horizon):
        current = trim_trailing_zeros(coeff_product(current, phi.iterate(n).compose_into(w).coeffs))
        yield current


def stepped_eigen_orbit(op, s, degree, spec, horizon, power):
    """(log_values, values, upper) of a real eigen orbit by the per-step loop."""
    phi, w = op.phi, op.w.poly.trimmed()
    log_mu = math.log(abs(np.exp(complex(s) * np.log(phi.alpha))))
    product = trim_trailing_zeros(coeff_product(np.real(binomial_series(s, degree).coeffs),
                                                np.real(w.coeffs)))
    log_scales = []

    def terms():
        nonlocal product
        log_scale = 0.0
        for n in range(1, horizon + 1):
            log_scale += log_mu
            log_scales.append(log_scale)
            it = phi.iterate(n)
            yield (coeff_product(product, np.real(it.compose_into(AnalyticPoly.monomial(power)).coeffs))
                   if power else product)
            c = coeff_product(product, np.real(it.compose_into(w).coeffs))
            peak = float(np.abs(c).max())
            c *= 1.0 / peak
            log_scale += math.log(peak)
            product = trim_trailing_zeros(c)

    lower, upper = space_norms(terms(), spec)
    logs = np.array(log_scales) + np.log(lower)
    return logs, np.exp(logs), np.exp(np.array(log_scales) + np.log(upper))


class TestCollapsedIterates:
    """From N0 on, alpha_n is 0.0, phi^n is one constant map, and the streams
    stop doing per-step arithmetic: the results stay those of the step loop."""

    @pytest.mark.parametrize("phi", [affine(a) for a in np.geomspace(1e-4, 0.99, 13)]
                             + [SelfMapSymbol.affine(0.3 + 0.4j, 0.6 - 0.4j),
                                SelfMapSymbol.affine(0.5 - 0.2j, 0.1),
                                SelfMapSymbol.affine(0.0, 0.3)],
                             ids=[f"a={a:.4g}" for a in np.geomspace(1e-4, 0.99, 13)]
                             + ["complex-fixes-one", "general", "constant"])
    def test_affine_coefficients_match_closed_form_past_collapse(self, phi):
        horizon = 2 * collapse_step(phi)
        fixes_one = phi.fixes_one()
        want = np.array([phi._closed_form(n, fixes_one) for n in range(horizon + 1)],
                        dtype=complex)
        for start in (0, 1, horizon // 2 + 1):
            alphas, gammas = phi.affine_coefficients(range(start, horizon + 1))
            assert np.array_equal(alphas, want[start:, 0])
            assert np.array_equal(gammas, want[start:, 1])

    @pytest.mark.parametrize("a", [0.15, 0.3, 0.45])
    def test_real_weight_streams_match_the_step_loop(self, a):
        self.check_weights(AnalyticPoly([0.0, 0.95]), affine(a), 3000)

    @pytest.mark.parametrize("coeffs", [[0.5, 0.3j], [0.2, 0.1, 0.3, 0.1, 0.2, 0.05],
                                        [0.2, 0.1j, 0.3, 0.1, 0.2j, 0.05], [0.0, 1.2],
                                        [0.5, 0.9j], [1.05, 0.1j, 0.2, 0.1, 0.1j, 0.05]],
                             ids=["complex", "degree-5", "complex-degree-5", "growing",
                                  "growing-complex", "growing-complex-degree-5"])
    def test_other_weight_streams_match_the_step_loop(self, coeffs):
        self.check_weights(AnalyticPoly(coeffs), affine(0.15), 1500)

    @staticmethod
    def check_weights(poly, phi, horizon):
        w = WeightSymbol.build(poly)
        stream = list(weight_iterates(w, phi, horizon))
        steps = list(stepped_weights(w.poly.trimmed(), phi, horizon))
        assert len(stream) == len(steps) == horizon
        for got, want in zip(stream, steps):
            assert np.array_equal(got.coeffs, want)  # the sign of a zero may differ
        for spec in (Hardy(2.0), SupSpace()):
            got = weight_norm_sequence(WeightedCompOp(w, phi), spec, horizon)
            lower, upper = space_norms(iter(steps), spec)
            assert np.array_equal(got.values, lower)
            assert np.array_equal(got.upper, upper)

    @pytest.mark.parametrize("lam,a,s,power", [(0.95, 0.3, -0.2, 0), (0.95, 0.3, -0.2, 1),
                                               (0.7, 0.2, -0.3, 2), (0.8609, 0.3998, -0.1532, 0),
                                               (0.8609, 0.3998, -0.1532, 2)],
                             ids=["k0", "k1", "k2", "period-2-k0", "period-2-k2"])
    def test_eigen_orbits_match_the_step_loop(self, lam, a, s, power):
        op = build_operator(ExperimentConfig(weight=f"{lam}*z", phi_affine=a))
        got = eigen_orbit_norm_sequence(op, s, 256, Hardy(2.0), 2000, power=power)
        logs, values, upper = stepped_eigen_orbit(op, s, 256, Hardy(2.0), 2000, power)
        assert np.array_equal(got.log_values, logs)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.upper, upper)

    def test_collapsed_steps_make_no_products(self, monkeypatch):
        calls = []

        def counting(name, module):
            def product(a, b):
                calls.append(name)
                return coeff_product(a, b)
            monkeypatch.setattr(module, "coeff_product", product)

        counting("weights", iterates)
        counting("eigen", operators)
        op = build_operator(ExperimentConfig(weight="0.95*z", phi_affine=0.3))
        n0 = collapse_step(op.phi)
        rows = list(affine_compositions(op.w.poly, op.phi, 3000))
        assert all(row is rows[n0 - 1] for row in rows[n0 - 1:])
        assert not rows[-1].flags.writeable and rows[n0 - 2] is not rows[n0 - 1]
        list(weight_iterates(op.w, op.phi, 3000))
        assert calls.count("weights") <= n0
        # The period-2 draw: its products repeat two steps after N0.
        op = build_operator(ExperimentConfig(weight="0.8609*z", phi_affine=0.3998))
        n0 = collapse_step(op.phi)
        eigen_orbit_norm_sequence(op, -0.1532, 256, Hardy(2.0), 3000, power=1)
        assert calls.count("eigen") <= 2 * (n0 + 3)

    def test_overflowing_weights_keep_the_full_products(self):
        # 1.3^n leaves the double range before n = 3000.  The full product
        # turns an inf next to a zero into NaN, and so must the stream.
        w, phi = WeightSymbol.build(AnalyticPoly([0.0, 1.3])), affine(0.3)
        with np.errstate(over="ignore", invalid="ignore"):
            stream = list(weight_iterates(w, phi, 3000))
            steps = list(stepped_weights(w.poly, phi, 3000))
        assert np.isnan(steps[-1]).any()
        for got, want in zip(stream, steps):
            assert np.array_equal(got.coeffs, want, equal_nan=True)
