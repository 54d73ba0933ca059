"""Streamed weight iterates: no stored w(n) on the paths that read them in order."""

import tracemalloc

import numpy as np
import pytest

from wcochaos import iterates, operators
from wcochaos.cli import main
from wcochaos.iterates import weight_iterate_sequence, weight_iterates
from wcochaos.operators import WeightedCompOp, weight_norm_sequence
from wcochaos.series import AnalyticPoly
from wcochaos.spaces import Hardy
from wcochaos.symbols import SelfMapSymbol, WeightSymbol, affine_fixing_one, validate_self_map

MB = float(1 << 20)


def validated(a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return phi


class TestStream:
    def test_stream_matches_the_cache(self):
        w = WeightSymbol.from_coeffs([0.2, 0.5 - 0.1j, -0.1])
        phi = validated(0.3)
        cache = weight_iterate_sequence(w, phi, 25)
        pairs = list(weight_iterates(w, phi, 25))
        assert len(pairs) == 25
        for n, (wn, truncated) in enumerate(pairs, start=1):
            assert np.array_equal(wn.coeffs, cache.weight_iterate(n).coeffs)
            assert not truncated

    def test_truncated_turns_on_at_the_first_capped_iterate(self):
        # w = 0.5 z: w(n) has degree n, so the cap 3 first cuts w(4).
        flags = [t for _, t in weight_iterates(WeightSymbol.from_coeffs([0, 0.5]),
                                               validated(0.5), 6, max_degree=3)]
        assert flags == [False, False, False, True, True, True]
        capped = weight_iterate_sequence(WeightSymbol.from_coeffs([0, 0.5]), validated(0.5),
                                         6, max_degree=3)
        assert capped.truncated

    def test_polynomial_symbols_are_truncated_once_the_cap_drops_terms(self):
        # deg w(n) = 2^n - 1 for w = z and phi = 0.8 z^2: 31 at n = 5, 63 at n = 6.
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 0.8]))
        assert validate_self_map(phi)
        pairs = list(weight_iterates(WeightSymbol.from_coeffs([0, 1.0]), phi, 7, max_degree=40))
        assert [t for _, t in pairs] == [False] * 5 + [True, True]
        assert pairs[1][0] == AnalyticPoly.monomial(3, 0.8)

    def test_checks_run_when_the_stream_is_made(self):
        w = WeightSymbol.from_coeffs([1.0])
        with pytest.raises(ValueError):
            weight_iterates(w, affine_fixing_one(0.5), 5)  # not validated
        with pytest.raises(ValueError):
            weight_iterates(w, validated(0.5), 0)

    def test_weight_norms_agree_for_stream_and_cache(self):
        phi = validated(0.25)
        op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), phi)
        for max_degree in (None, 30):
            streamed = weight_norm_sequence(weight_iterates(op.w, phi, 60, max_degree), Hardy(2))
            stored = weight_norm_sequence(op.build_cache(60, max_degree), Hardy(2))
            assert np.array_equal(streamed.values, stored.values)
            assert streamed.truncated == stored.truncated == (max_degree is not None)
            assert streamed.provenance == stored.provenance


def _no_cache(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an iterate cache was built on a streaming path")

    monkeypatch.setattr(WeightedCompOp, "build_cache", refuse)
    monkeypatch.setattr(iterates, "weight_iterate_sequence", refuse)
    monkeypatch.setattr(operators, "weight_iterate_sequence", refuse)


SYMBOLS = ["--w", "0.9*z", "--phi-affine", "0.3"]


class TestNoCacheForMapsFixingOne:
    @pytest.mark.parametrize("argv", [
        ["weights", *SYMBOLS, "--space", "h2", "--horizon", "80"],
        ["weights", *SYMBOLS, "--space", "hinf", "--horizon", "80"],
        ["classify", *SYMBOLS, "--space", "h2", "--horizon", "80", "--degree", "64"],
        ["sweep", "--grid-lambda", "0.5:0.9:2", "--grid-a", "0.1:0.4:2", "--space", "h2",
         "--horizon", "60", "--degree", "64"],
    ], ids=["weights-h2", "weights-hinf", "classify", "sweep-2x2"])
    def test_command_succeeds_without_a_cache(self, monkeypatch, tmp_path, argv):
        _no_cache(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_text()

    @pytest.mark.parametrize("name", ["weighted", "unweighted"])
    def test_preset_succeeds_without_a_cache(self, monkeypatch, tmp_path, name):
        _no_cache(monkeypatch)
        assert main(["preset", name, "--horizon", "60", "--degree", "64",
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "weights.csv").is_file()


def _peak_mb(argv) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


class TestMemory:
    """At H = 2000 the stored w(n) alone take about 31 MB."""

    def test_stored_iterates_would_show(self):
        op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), validated(0.3))
        tracemalloc.start()
        try:
            cache = op.build_cache(2000)
            peak = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        assert len(cache) == 2000 and peak > 20

    def test_weights_peak(self, tmp_path):
        peak = _peak_mb(["weights", *SYMBOLS, "--space", "h2", "--horizon", "2000",
                         "--out", str(tmp_path / "w.csv")])
        assert peak < 4

    def test_classify_peak(self, tmp_path):
        peak = _peak_mb(["classify", *SYMBOLS, "--space", "h2", "--horizon", "2000",
                         "--candidates", "s=-0.3", "--out", str(tmp_path / "v.json")])
        assert peak < 4
