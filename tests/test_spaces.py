"""Norm evaluation: coefficient formulas, quadrature rules, brackets."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scipy.special import gammaln, roots_jacobi

import wcochaos
from wcochaos import cli, spaces
from wcochaos.experiments import ExperimentConfig, build_operator
from wcochaos.iterates import weight_iterate_sequence
from wcochaos.series import AnalyticPoly, binomial_series, eval_on_circle
from wcochaos.spaces import (Bergman, Hardy, SupSpace, bergman2_coeff_weights,
                             coeff_norm_bergman2, coeff_norm_h2, parse_space,
                             quad_norm_bergman_p, quad_norm_hp, require_in_space,
                             space_norm, space_norms, space_provenance,
                             sup_norm_bracket)

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

    def test_long_horizon_weight_norms_stay_positive(self):
        # |w(n)| ~ 0.9^n reaches ~1e-165 at n = 3600: the squares of the
        # coefficients are subnormal long before that.
        op = build_operator(ExperimentConfig(weight="0.9*z", phi_affine=0.25))
        tail = weight_iterate_sequence(op.w, op.phi, 3600)[3399:]
        for norm in (coeff_norm_h2, lambda f: coeff_norm_bergman2(f, 0.5)):
            v = np.array([norm(wn) for wn in tail])
            assert np.all(v > 0)
            assert np.max(np.abs(v[1:] / v[:-1] - 0.9)) <= 1e-9

    def test_rescaled_norms_match_scaled_inputs(self):
        f = AnalyticPoly([1, 0.5j, -0.25, 1e-3])
        for scale in (2.0**-600, 2.0**-1000, 2.0**600):
            g = AnalyticPoly(f.coeffs * scale)
            with np.errstate(over="ignore"):  # the plain sum of squares overflows first
                h2, berg = coeff_norm_h2(g), coeff_norm_bergman2(g, 0.5)
            assert h2 == pytest.approx(coeff_norm_h2(f) * scale, rel=1e-15)
            assert berg == pytest.approx(coeff_norm_bergman2(f, 0.5) * scale, rel=1e-15)
        assert coeff_norm_h2(AnalyticPoly.zero()) == 0.0

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
            q = quad_norm_hp(f, 2)
            c = coeff_norm_h2(f)
            assert abs(q - c) <= 1e-10 * c

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            quad_norm_hp(AnalyticPoly.one(), 0.5)


class TestQuadratureRange:
    """|f|^p leaves the normal doubles long before f does; the quadratures
    rescale f by a power of two there and nowhere else."""

    G = binomial_series(-0.2, 256)
    NORMS = {"h3": lambda f: quad_norm_hp(f, 3),
             "bergman:3:0.5": lambda f: quad_norm_bergman_p(f, 3, 0.5)}

    @pytest.mark.parametrize("space", NORMS)
    @pytest.mark.parametrize("scale", [1e-120, 2.0**-400, 1e-200, 2.0**400, 1e110])
    def test_tiny_and_huge_polynomials(self, space, scale):
        norm = self.NORMS[space]
        got = norm(scale * self.G)
        assert got == pytest.approx(scale * norm(self.G), rel=1e-13)

    @pytest.mark.parametrize("space", NORMS)
    def test_in_range_values_are_not_rescaled(self, space, monkeypatch):
        def refuse(c, e):
            raise AssertionError("an in-range polynomial was rescaled")

        monkeypatch.setattr(spaces, "_times_two_to", refuse)
        for scale in (1e-90, 1.0, 1e90):
            assert self.NORMS[space](scale * self.G) > 0

    def test_long_h3_weight_norms_stay_positive(self, tmp_path):
        # 0.9^n: the norm passes 1e-103 near n = 2260, where |f|^3 went
        # subnormal, and reaches about 1e-110 at n = 2400.
        out = tmp_path / "weights.csv"
        assert cli.main(["weights", "--w", "0.9*z", "--phi-affine", "0.25", "--space", "h3",
                         "--horizon", "2400", "--out", str(out)]) == 0
        norms = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
        assert len(norms) == 2400 and norms.min() > 0
        ratios = norms[1:] / norms[:-1]
        assert np.allclose(ratios[-200:], 0.9, rtol=1e-9, atol=0)


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
            q = quad_norm_bergman_p(f, 2, beta)
            c = coeff_norm_bergman2(f, beta)
            assert abs(q - c) <= 1e-8 * c

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quad_norm_bergman_p(AnalyticPoly.one(), 1.0, 0.0)
        with pytest.raises(ValueError):
            quad_norm_bergman_p(AnalyticPoly.one(), 2.0, -1.5)


def _smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


def _zero_free_poly(degree):
    # (1 + z^3/2) * sum_k (0.7 z)^k has no zeros in the closed disk, so |f|^p
    # is smooth and the high-resolution rules below are accurate far beyond
    # the tolerances checked.
    return AnalyticPoly([1, 0, 0, 0.5]) * AnalyticPoly(0.7 ** np.arange(degree - 2))


class TestQuadratureKernels:
    @given(n=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_fast_len_is_smallest_5_smooth(self, n):
        m = spaces._fast_len(n)
        assert m >= n and _smooth(m)
        assert not any(_smooth(k) for k in range(n, m))

    @pytest.mark.parametrize("p", [1, 1.5, 3])
    def test_nested_doubling_equals_direct_rule(self, p, monkeypatch):
        # An infinite tolerance stops after one doubling of the starting grid.
        monkeypatch.setattr(spaces, "GRID_DOUBLING_TOL", math.inf)
        rng = np.random.default_rng(41)
        for degree in (40, 49, 97):  # starting grids 162, 200 and 400
            f = AnalyticPoly(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
            nested = quad_norm_hp(f, p) ** p
            direct = np.mean(np.abs(eval_on_circle(f, 2 * spaces._auto_grid(degree, p))) ** p)
            assert abs(nested - direct) <= 1e-13 * direct

    def test_jacobi_rule_computed_once_per_order_and_beta(self, monkeypatch):
        calls = []

        def counting(order, alpha, beta):
            calls.append((order, alpha))
            return roots_jacobi(order, alpha, beta)

        monkeypatch.setattr(spaces, "roots_jacobi", counting)
        spaces._radial_rule.cache_clear()
        try:
            f = binomial_series(-0.2, 64)
            for beta in (0.5, -0.5, 0.5, -0.5):
                first = quad_norm_bergman_p(f, 3, beta)
                assert quad_norm_bergman_p(f, 3, beta) == first
        finally:
            spaces._radial_rule.cache_clear()
        assert calls and len(calls) == len(set(calls))
        assert {(128, 0.5), (128, -0.5)} <= set(calls)

    def test_scipy_special_is_imported_on_first_use(self):
        src = str(Path(wcochaos.__file__).resolve().parents[1])
        code = "import sys, wcochaos.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("p", [1.5, 3])
    def test_hardy_against_high_resolution_rule(self, p):
        f = _zero_free_poly(120)
        ref = np.mean(np.abs(eval_on_circle(f, 1 << 16)) ** p) ** (1 / p)
        assert quad_norm_hp(f, p) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("beta", [-0.5, 0.5])
    def test_bergman_against_high_resolution_rule(self, beta):
        f = _zero_free_poly(60)
        nodes, wq = roots_jacobi(512, beta, 0.0)
        k = np.arange(len(f.coeffs))
        ps = (1.5, 3)
        angular = np.empty((len(ps), len(nodes)))
        for i, r in enumerate(np.sqrt((nodes + 1) / 2)):
            m = np.abs(eval_on_circle(AnalyticPoly(f.coeffs * r**k), 1 << 16))
            angular[:, i] = [np.mean(m**p) for p in ps]
        for p, row in zip(ps, angular):
            ref = ((beta + 1) * 2 ** (-(beta + 1)) * np.dot(wq, row)) ** (1 / p)
            assert quad_norm_bergman_p(f, p, beta) == pytest.approx(ref, rel=1e-8)

    def test_automatic_fft_lengths_are_5_smooth(self, monkeypatch):
        # The Hardy rows reach ifft through eval_on_circle; the Bergman rows
        # are real, so they reach rfft.
        lengths = {"ifft": [], "rfft": []}

        def record(name):
            fft = getattr(np.fft, name)

            def recording(a, n=None, axis=-1, **kwargs):
                lengths[name].append(np.shape(a)[axis] if n is None else n)
                return fft(a, n=n, axis=axis, **kwargs)
            return recording

        for name in lengths:
            monkeypatch.setattr(np.fft, name, record(name))
        for degree in (100, 257, 433, 600):
            f = binomial_series(-0.2, degree)
            for p in (1.5, 3, 4, 6):
                quad_norm_hp(f, p)
            for p in (1.5, 3, 4):
                quad_norm_bergman_p(f, p, 0.5)
        assert lengths["ifft"] and lengths["rfft"]
        seen = lengths["ifft"] + lengths["rfft"]
        assert all(_smooth(m) for m in seen), sorted(set(seen))


def _smallest_cutoffs(c, r):
    # K_i = min K with max_{k>=K}|c_k| r^K / (1-r) <= 2^-53 max_{k<K}|c_k| r^k,
    # evaluated directly on every K.
    a, k = np.abs(c), np.arange(1, len(c) + 1)
    head = np.maximum.accumulate(a * r[:, None] ** (k - 1), axis=1)
    tail_max = np.append(np.maximum.accumulate(a[::-1])[::-1][1:], 0.0)
    tail = tail_max * r[:, None] ** k / (1 - r[:, None])
    return np.argmax(tail <= 2.0**-53 * head, axis=1) + 1


def _untruncated_bergman(f, beta, ps):
    # Every row keeps every coefficient: order 512 on a 2^14-point grid.
    nodes, wq = roots_jacobi(512, beta, 0.0)
    r = np.sqrt((nodes + 1) / 2)
    k = np.arange(len(f.coeffs))
    angular = np.empty((len(ps), len(r)))
    for i in range(0, len(r), 64):
        vals = np.abs(np.fft.ifft(r[i:i + 64, None] ** k * f.coeffs, n=1 << 14, axis=1)) * (1 << 14)
        angular[:, i:i + 64] = [np.mean(vals**p, axis=1) for p in ps]
    return {p: ((beta + 1) * 2 ** (-(beta + 1)) * np.dot(wq, row)) ** (1 / p)
            for p, row in zip(ps, angular)}


class TestTruncatedBergmanRows:
    @pytest.mark.parametrize("beta", [-0.5, 0.5, 2])
    def test_against_untruncated_rule(self, beta):
        # Complex coefficients, with and without a constant term.
        g = AnalyticPoly(_zero_free_poly(120).coeffs * np.exp(0.7j * np.arange(121)) * (1 - 2j))
        for f in (g, AnalyticPoly([0, 1]) * g):
            ps = (1.5, 3, 4)
            for p, ref in _untruncated_bergman(f, beta, ps).items():
                assert quad_norm_bergman_p(f, p, beta) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 2])
    @pytest.mark.parametrize("p", [1.5, 3, 4])
    def test_monomial_closed_form(self, p, beta):
        # ||z^m||^p = (beta+1) B(m p/2 + 1, beta + 1): every coefficient but
        # the last is zero, so no row can lean on a leading term.
        m = 200
        log_ref = gammaln(beta + 2) + gammaln(m * p / 2 + 1) - gammaln(m * p / 2 + beta + 2)
        got = quad_norm_bergman_p(AnalyticPoly.monomial(m), p, beta)
        assert got == pytest.approx(math.exp(log_ref / p), rel=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3, 4])
    def test_zero_and_constant(self, p):
        assert quad_norm_bergman_p(AnalyticPoly.zero(), p, 0.5) == 0.0
        assert quad_norm_bergman_p(AnalyticPoly([0.0, 0.0, 0.0]), p, 2) == 0.0
        assert quad_norm_bergman_p(AnalyticPoly([2.5 - 1j]), p, -0.5) == pytest.approx(
            abs(2.5 - 1j), rel=1e-12)

    @pytest.mark.parametrize("degree", [256, 1024])
    @pytest.mark.parametrize("p", [3, 4])
    def test_each_row_in_one_rung_with_enough_terms_and_points(self, degree, p, monkeypatch):
        # The rows are real, so they go through the half-spectrum rfft.
        calls = []
        rfft = np.fft.rfft

        def recording(a, n=None, axis=-1, **kwargs):
            calls.append((np.array(a), n))
            return rfft(a, n=n, axis=axis, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a real row took the complex inverse FFT")

        monkeypatch.setattr(np.fft, "rfft", recording)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        c = binomial_series(-0.2, degree).coeffs  # c_1 = 0.2 identifies each row
        grid0 = spaces._auto_grid(degree, p)
        for order, scale in ((128, 1), (256, 2)):
            calls.clear()
            spaces._bergman_mean(c, p, 0.5, order, grid0 * scale, scale)
            r, _ = spaces._radial_rule(order, 0.5)
            need = _smallest_cutoffs(c, r)
            seen = np.zeros(len(r), dtype=int)
            assert len(calls) <= 12
            for block, m in calls:
                rows = np.searchsorted(r, block[:, 1].real / c[1].real - 1e-15)
                np.testing.assert_allclose(r[rows], block[:, 1].real / c[1].real, rtol=1e-14)
                seen[rows] += 1
                assert _smooth(m) and m >= 16
                if m != grid0 * scale:  # a truncated rung
                    assert block.shape[1] < len(c)
                    assert np.all(block.shape[1] >= need[rows])
                    assert np.all(m >= (4 * need[rows] + 1) * scale)
            assert np.all(seen == 1)
            assert len(calls) > 1  # some rows were truncated

    @pytest.mark.parametrize("p", [1.5, 3])
    @pytest.mark.parametrize("g, fft", [
        (AnalyticPoly(_zero_free_poly(120).coeffs * np.exp(0.7j * np.arange(121))), "ifft"),
        (_zero_free_poly(120), "rfft"),  # real coefficients: the half-spectrum path
    ], ids=["complex", "real"])
    def test_rungs_split_into_bounded_chunks(self, g, fft, p, monkeypatch):
        unchunked = {"quad": quad_norm_bergman_p(g, p, 0.5),
                     "mean": spaces._bergman_mean(g.coeffs, p, 0.5, 256, 1080, 2)}
        sizes = []
        transform = getattr(np.fft, fft)

        def recording(a, n=None, axis=-1, **kwargs):
            sizes.append(np.shape(a)[0] * n)
            return transform(a, n=n, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, fft, recording)
        monkeypatch.setattr(spaces, "BERGMAN_CHUNK_POINTS", 5000)
        chunked = {"quad": quad_norm_bergman_p(g, p, 0.5),
                   "mean": spaces._bergman_mean(g.coeffs, p, 0.5, 256, 1080, 2)}
        # One row of the full grid (up to 2160 points here) fits, two do not.
        # Sizes count full-grid points, rows times m, as the chunk bound does.
        assert sizes and max(sizes) <= 5000 and len(sizes) > 20
        assert chunked == unchunked


def real_polys(min_degree, max_degree):
    """Real polynomials whose constant term outweighs the rest, so that they
    have no zeros in the closed disk: a zero near the circle makes the rules
    double for seconds, on either path alike.  Subnormal coefficients are
    left out: rotating one rounds it to a coarser grid, so f and f o rho
    would no longer be the same function."""
    coeffs = st.floats(-1, 1, allow_subnormal=False)
    return st.lists(coeffs, min_size=min_degree, max_size=max_degree).map(
        lambda cs: AnalyticPoly([1 + sum(map(abs, cs))] + cs))


def _rotated(f, p, step):
    """f o rho for rho(z) = e^{i theta} z, coefficients c_k e^{i k theta},
    with theta = 2 pi q / m0 a whole number of steps of the starting grid
    m0 of f in the p rules, and 0 < theta < pi.

    A general angle moves the quadrature nodes and changes a converged rule
    by up to its tolerance (2e-10 relative was seen in H^1.5 on these
    polynomials).  This one permutes every nested Hardy grid and the full
    A^p_beta grid, so only rounding separates the two values; the
    truncated A^p_beta rows sit on shorter grids, but at radii where the
    rule is exact to rounding.
    """
    m0 = spaces._auto_grid(f.trimmed().degree, p)
    theta = 2 * math.pi * (1 + step % ((m0 - 1) // 2)) / m0
    return AnalyticPoly(f.coeffs * np.exp(1j * theta * np.arange(len(f.coeffs))))


steps = st.integers(0, 10**6)


class TestRealRowsAgainstRotations:
    """A rotation is an isometry of every space here.  A real-coefficient f
    takes the half-spectrum path of the A^p_beta rule, and f o rho, whose
    coefficients are complex, takes the full inverse FFT."""

    @pytest.mark.parametrize("beta", [-0.5, 0.5])
    @pytest.mark.parametrize("p", [1.5, 3])
    @given(f=real_polys(0, 60), step=steps)
    @settings(max_examples=25, deadline=None)
    def test_bergman_norm(self, p, beta, f, step):
        assert quad_norm_bergman_p(_rotated(f, p, step), p, beta) == pytest.approx(
            quad_norm_bergman_p(f, p, beta), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3])
    @given(f=real_polys(0, 60), step=steps)
    @settings(max_examples=25, deadline=None)
    def test_hardy_norm(self, p, f, step):
        assert quad_norm_hp(_rotated(f, p, step), p) == pytest.approx(
            quad_norm_hp(f, p), rel=1e-12)

    @given(f=real_polys(11, 11), step=steps)
    @settings(max_examples=25, deadline=None)
    def test_bergman_norm_from_an_odd_grid(self, f, step):
        # Degree 10 or 11 starts the doubling at m = 45 points.
        assume(f.trimmed().degree >= 10)
        assert spaces._auto_grid(f.trimmed().degree, 1.5) == 45
        assert quad_norm_bergman_p(_rotated(f, 1.5, step), 1.5, 0.5) == pytest.approx(
            quad_norm_bergman_p(f, 1.5, 0.5), rel=1e-12)

    @pytest.mark.parametrize("m", [45, 48])
    @pytest.mark.parametrize("p", [1.5, 3])
    def test_half_spectrum_mean_is_the_grid_mean(self, p, m):
        # The doubling loop would hide a wrong first mean; this compares
        # one grid mean on its own, for odd and even m.
        f = AnalyticPoly(np.random.default_rng(m).uniform(-1, 1, 12))
        g = AnalyticPoly(f.coeffs * np.exp(2j * math.pi * 7 / m * np.arange(12)))
        assert spaces._bergman_mean(g.coeffs, p, 0.5, 128, m, 1) == pytest.approx(
            spaces._bergman_mean(f.coeffs, p, 0.5, 128, m, 1), rel=1e-12)


class TestSupBracket:
    def test_monomial(self):
        lo, up = sup_norm_bracket(AnalyticPoly([0, 1]))
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert up == 1.0

    def test_half_sum_bracket(self):
        f = AnalyticPoly([0.5, 0.5])
        lowers = [np.max(np.abs(eval_on_circle(f, m))) for m in (64, 128, spaces.SUP_BRACKET_GRID)]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert sup_norm_bracket(f)[0] == lowers[-1]
        assert sup_norm_bracket(f)[1] == pytest.approx(1.0)

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
        assert space_provenance(SupSpace()) == "bracket-lower"

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
        # space_norm gives the lower side, space_norms both
        f = AnalyticPoly([0.5, 0.5j])
        lower, upper = space_norms([f.coeffs], SupSpace())
        assert upper[0] == 1.0
        assert lower[0] == space_norm(f, SupSpace()) == sup_norm_bracket(f)[0]
        assert lower[0] == pytest.approx(1.0, abs=1e-4)


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
