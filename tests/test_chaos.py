"""Sequence statistics, witnesses, certificates, growth fits, eigen residuals."""

import warnings

import numpy as np
import pytest

from wcochaos.chaos import (certify_li_yorke, certify_mean_li_yorke,
                            decay_window, eigen_residual, fit_window,
                            growth_rate_fit, sequence_stats)
from wcochaos.operators import (NormSequence, WeightedCompOp,
                                eigen_orbit_norm_sequence, orbit_norm_sequence,
                                weight_norm_sequence)
from wcochaos.series import binomial_series
from wcochaos.spaces import Bergman, Hardy, SupSpace
from wcochaos.symbols import WeightSymbol, affine_fixing_one, validate_self_map

from oracle import rotation


def synth(values, truncated=False, space=Hardy(2)):
    return NormSequence(values=np.asarray(values, dtype=float), space=space,
                        label="synthetic", truncated=truncated)


def make_op(w_coeffs, a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return WeightedCompOp(WeightSymbol.from_coeffs(w_coeffs), phi)


class TestSequenceStats:
    def test_constant(self):
        st = sequence_stats(synth([3.0] * 7))
        assert st.min_value == st.max_value == 3.0
        assert np.all(st.cesaro == 3.0)

    def test_linear(self):
        st = sequence_stats(np.arange(1.0, 101.0))
        n = np.arange(1, 101)
        assert np.allclose(st.cesaro, (n + 1) / 2, rtol=1e-15)

    def test_geometric(self):
        v = 0.5 ** np.arange(1, 41)
        st = sequence_stats(v)
        n = np.arange(1, 41)
        assert np.allclose(st.cesaro, (1 - 0.5**n) / n, rtol=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequence_stats(np.array([]))

    def test_overflowing_sum_reads_inf_without_a_warning(self):
        # The output steps refuse the inf with a clear error; numpy's
        # overflow warning would only print ahead of it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = sequence_stats([1e308, 1e308])
        assert st.cesaro[0] == 1e308 and st.cesaro[1] == np.inf


class TestIrregularWitness:
    """The decay/growth witness pair that certify_li_yorke reports."""

    def test_constant_is_regular(self):
        verdict = certify_li_yorke(synth([1.0] * 50), [], epsilon=1e-10, growth_factor=1e3)
        assert verdict.kind == "NO_EVIDENCE"
        assert verdict.decay is None and verdict.growth is None

    def test_synthetic_irregular(self):
        v = np.ones(100)
        v[9] = 1e-12
        v[89] = 1e6
        verdict = certify_li_yorke(synth(v), [], epsilon=1e-10, growth_factor=1e3)
        assert verdict.kind == "LI_YORKE_EVIDENCE"
        assert (verdict.decay.index, verdict.decay.value) == (10, 1e-12)
        assert (verdict.growth.index, verdict.growth.value) == (90, 1e6)

    def test_pure_decay_is_not_irregular(self):
        v = 0.5 ** np.arange(1, 200)
        verdict = certify_li_yorke(synth(v), [], epsilon=1e-10, growth_factor=1e3)
        assert verdict.kind != "LI_YORKE_EVIDENCE"
        assert verdict.decay is not None and verdict.growth is None


class TestCertifyLiYorke:
    def test_rotation_control_no_evidence(self):
        phi = rotation(np.pi / 3)
        assert validate_self_map(phi)
        op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
        ws = weight_norm_sequence(op, Hardy(2), 200)
        orbit = orbit_norm_sequence(op, binomial_series(-0.4, 64), Hardy(2), 200)
        verdict = certify_li_yorke(ws, [orbit])
        assert verdict.kind == "NO_EVIDENCE"
        assert verdict.decay is None and verdict.growth is None

    def test_weighted_eigen_family_yields_evidence(self):
        op = make_op([0, 0.9], 0.25)
        ws = weight_norm_sequence(op, Hardy(2), 500)
        orbit = eigen_orbit_norm_sequence(op, -0.4, 1024, Hardy(2), 500)
        # frozen crossing indices from a direct run of both sequences
        assert int(np.argmax(ws.values < 1e-10)) + 1 == 216
        assert int(np.argmax(orbit.values > 1e3 * orbit.values[0])) + 1 == 17
        verdict = certify_li_yorke(ws, [orbit])
        assert verdict.kind == "LI_YORKE_EVIDENCE"
        assert verdict.growth.channel == "orbit" and verdict.growth.orbit == 0
        assert verdict.decay.value < 1e-10

    def test_subcritical_family_is_inconclusive(self):
        # lam = 0.6 < sqrt(0.5): the weight norms vanish but the candidate
        # orbit decays (rate 0.6 * 2^0.4 < 1), so growth never fires
        op = make_op([0, 0.6], 0.5)
        ws = weight_norm_sequence(op, Hardy(2), 500)
        orbit = eigen_orbit_norm_sequence(op, -0.4, 1024, Hardy(2), 500)
        verdict = certify_li_yorke(ws, [orbit])
        assert verdict.kind == "INCONCLUSIVE"
        assert verdict.decay is not None and verdict.growth is None

    def test_synthetic_weight_channel_evidence(self):
        v = np.ones(100)
        v[49] = 1e-12
        v[79] = 5e3
        verdict = certify_li_yorke(synth(v), [])
        assert verdict.kind == "LI_YORKE_EVIDENCE"
        assert verdict.growth.channel == "weight-norm"

    def test_growth_only_inconclusive(self):
        v = np.ones(100)
        v[79] = 5e3
        verdict = certify_li_yorke(synth(v), [])
        assert verdict.kind == "INCONCLUSIVE" and verdict.decay is None

    def test_decay_soundness_guards(self):
        v = 0.5 ** np.arange(1, 50)
        with pytest.raises(ValueError, match="capped"):
            certify_li_yorke(synth(v, truncated=True), [])
        # A lower-bound tag alone is no refusal: decay reads the upper side.
        lower = synth(np.r_[v, 1e-31], space=SupSpace())
        assert lower.provenance == "bracket-lower"
        verdict = certify_li_yorke(lower, [])
        assert verdict.decay is not None

    def test_capped_orbit_stays_out_of_the_growth_scan(self):
        v = 0.5 ** np.arange(1, 50)
        grows = 2.0 ** np.arange(49)
        capped = synth(grows, truncated=True)
        for certify in (certify_li_yorke, certify_mean_li_yorke):
            assert certify(synth(v), [synth(grows)]).growth.orbit == 0
            assert certify(synth(v), [capped]).growth is None
            assert certify(synth(v), [capped, synth(grows)]).growth.orbit == 1

    def test_skipped_orbits_are_named_in_the_citation(self):
        v = np.full(49, 1e-11)  # below epsilon throughout: decay fires
        capped = synth(2.0 ** np.arange(49), truncated=True)
        for certify in (certify_li_yorke, certify_mean_li_yorke):
            plain = certify(synth(np.ones(49)), [synth(np.ones(49))]).citation
            assert "not scanned" not in plain
            one = certify(synth(np.ones(49)), [synth(np.ones(49)), None])
            assert one.kind == "NO_EVIDENCE" and one.growth is None
            assert one.citation == plain + "; orbit 1 not scanned: computed under the degree cap"
            two = certify(synth(v), [capped, None])
            assert two.growth is None and two.decay is not None
            assert two.citation.endswith("; orbits 0, 1 not scanned: computed under the degree cap")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            certify_li_yorke(synth([1.0]), [], epsilon=0.0)
        with pytest.raises(ValueError):
            certify_li_yorke(synth([1.0]), [], growth_factor=0.5)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            v = np.exp(rng.normal(scale=rng.uniform(0.5, 20), size=60))
            ws = synth(v)
            eps, g = rng.uniform(1e-12, 1e2), rng.uniform(1.5, 1e4)
            before = certify_li_yorke(ws, [], epsilon=eps, growth_factor=g)
            after = certify_li_yorke(ws, [], epsilon=eps * 10, growth_factor=max(1.0001, g / 10))
            if before.kind == "LI_YORKE_EVIDENCE":
                assert after.kind == "LI_YORKE_EVIDENCE"

    def test_witness_reproducibility(self):
        rng = np.random.default_rng(67)
        v = np.exp(rng.normal(scale=15, size=80))
        ws = synth(v)
        verdict = certify_li_yorke(ws, [])
        if verdict.decay is not None:
            assert ws.values[verdict.decay.index - 1] == verdict.decay.value
        if verdict.growth is not None:
            assert ws.values[verdict.growth.index - 1] == verdict.growth.value


def bracketed(lower, upper):
    return NormSequence(values=np.asarray(lower, dtype=float), upper=np.asarray(upper, dtype=float),
                        space=SupSpace(), label="bracketed")


class TestBracketSides:
    """Growth reads the lower side against G times the upper side's first
    value; decay reads the upper side."""

    CERTIFY = [certify_li_yorke, certify_mean_li_yorke]

    @staticmethod
    def channels(seq):
        # (weight sequence, orbits) with ``seq`` as the weight norms or as an orbit
        return [(seq, []), (synth(np.ones(len(seq))), [seq])]

    @pytest.mark.parametrize("certify", CERTIFY)
    def test_lower_side_alone_past_g_times_lower_1_fires_no_growth(self, certify):
        # lower_1 = 1 and upper_1 = 10: the lower side passes G * lower_1 = 1e3
        # (its Cesaro means too) but never G * upper_1 = 1e4.
        lower, upper = np.full(100, 5e3), np.full(100, 1e4)
        lower[0], upper[0] = 1.0, 10.0
        for weight, orbits in self.channels(bracketed(lower, upper)):
            assert certify(weight, orbits).growth is None
        lower = np.r_[1.0, np.full(99, 2e6)]  # past G * upper_1, and so are its means
        for weight, orbits in self.channels(bracketed(lower, upper)):
            growth = certify(weight, orbits).growth
            assert growth is not None and growth.value > 1e4
            assert growth.channel == ("orbit" if orbits else "weight-norm")

    @pytest.mark.parametrize("certify", CERTIFY)
    def test_lower_side_alone_below_epsilon_fires_no_decay(self, certify):
        lower = 0.5 ** np.arange(1, 101)  # below 1e-10 from n = 34, tail mean too
        assert certify(bracketed(lower, np.ones(100)), []).decay is None
        decay = certify(bracketed(lower, 2 * lower), []).decay
        assert decay is not None and decay.value >= 2 * lower[-1]

    def test_decay_and_growth_values_come_from_their_sides(self):
        lower = 0.5 ** np.arange(1, 101)
        lower[89] = 1e6
        upper = 2 * lower
        verdict = certify_li_yorke(bracketed(lower, upper), [])
        assert verdict.kind == "LI_YORKE_EVIDENCE"
        assert (verdict.decay.index, verdict.decay.value) == (100, upper[-1])
        assert (verdict.growth.index, verdict.growth.value) == (90, 1e6)

    def test_a_sequence_without_an_upper_side_is_its_own_upper_side(self):
        seq = synth([1.0, 2.0])
        assert seq.upper is seq.values
        with pytest.raises(ValueError, match="length"):
            bracketed([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="NaN"):
            bracketed([1.0, 2.0], [1.0, np.nan])


class TestCertifyMeanLiYorke:
    def test_constant_weight_no_evidence(self):
        verdict = certify_mean_li_yorke(synth([1.0] * 100), [])
        assert verdict.kind == "NO_EVIDENCE"

    def test_weighted_eigen_family_yields_mean_evidence(self):
        op = make_op([0, 0.9], 0.25)
        ws = weight_norm_sequence(op, Hardy(2), 500)
        orbit = eigen_orbit_norm_sequence(op, -0.4, 1024, Hardy(2), 500)
        verdict = certify_mean_li_yorke(ws, [orbit])
        assert verdict.kind == "MEAN_LI_YORKE_EVIDENCE"
        assert verdict.decay.value < 1e-10
        assert verdict.growth.channel == "orbit"

    def test_linear_orbit_growth_channel(self):
        # Cesaro means of v_n = n reach (N+1)/2, so A_100 = 50.5 > 10 * A_1
        weight = synth(0.5 ** np.arange(1, 101))
        orbit = synth(np.arange(1.0, 101.0))
        verdict = certify_mean_li_yorke(weight, [orbit], epsilon=1e-10, growth_factor=10)
        assert verdict.growth is not None
        assert verdict.growth.channel == "orbit"
        assert verdict.growth.value == pytest.approx(50.5)

    def test_decay_statistic_is_tail_average(self):
        v = 0.5 ** np.arange(1, 101)
        verdict = certify_mean_li_yorke(synth(v), [])
        lo, hi = decay_window(100)
        assert verdict.decay.index == lo
        assert verdict.decay.value == np.mean(v[lo - 1 : hi])

    def test_subcritical_family_inconclusive(self):
        op = make_op([0, 0.6], 0.5)
        ws = weight_norm_sequence(op, Hardy(2), 400)
        orbit = eigen_orbit_norm_sequence(op, -0.4, 512, Hardy(2), 400)
        verdict = certify_mean_li_yorke(ws, [orbit])
        assert verdict.kind == "INCONCLUSIVE"


class TestGrowthRateFit:
    def test_pure_exponential(self):
        v = 2.0 ** np.arange(1, 41)
        assert growth_rate_fit(v, (1, 40)) == pytest.approx(np.log(2), rel=1e-12)

    def test_constant(self):
        assert abs(growth_rate_fit(np.ones(20), (1, 20))) <= 1e-14

    def test_window_validation(self):
        v = np.ones(20)
        with pytest.raises(ValueError):
            growth_rate_fit(v, (1, 5))  # too short
        with pytest.raises(ValueError):
            growth_rate_fit(v, (10, 25))  # outside
        v[12] = 0.0
        with pytest.raises(ValueError):
            growth_rate_fit(v, (1, 20))  # nonpositive

    def test_windows(self):
        assert fit_window(500) == (300, 500)
        assert decay_window(500) == (251, 500)


class TestEigenResidual:
    def test_exact_for_linear(self):
        assert eigen_residual(0.5, 1, Hardy(2), 4) <= 1e-14

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_exact_for_integer_exponents(self, a):
        assert eigen_residual(a, 2, Hardy(2), 8) <= 1e-12
        assert eigen_residual(a, 3, Hardy(2), 8) <= 1e-12

    def test_truncation_tail_shrinks(self):
        r1 = eigen_residual(0.25, -0.4, Hardy(2), 1024)
        r2 = eigen_residual(0.25, -0.4, Hardy(2), 4096)
        assert r2 < r1
        assert r1 == pytest.approx(0.3635, rel=1e-2)  # frozen from a direct run
        assert r2 == pytest.approx(0.3132, rel=1e-2)

    def test_membership_guard(self):
        for spec, s in [(Hardy(2), -0.6), (Hardy(4), -0.4), (Hardy(3), -0.4),
                        (Bergman(3, 0.5), -0.9), (SupSpace(), -0.1)]:
            with pytest.raises(ValueError):
                eigen_residual(0.25, s, spec, 64)

    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            eigen_residual(1.5, 1, Hardy(2), 8)

    def test_sup_space_uses_wiener_bracket(self):
        assert eigen_residual(0.5, 2, SupSpace(), 8) <= 1e-12
