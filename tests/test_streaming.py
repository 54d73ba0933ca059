"""Streamed iterates: no stored w(n) or phi^n on any path that reads them in order."""

import tracemalloc

import numpy as np
import pytest

import wcochaos
from wcochaos import cli, experiments, iterates, operators
from wcochaos.cli import main
from wcochaos.iterates import compositions, first_capped, weight_iterate_sequence, weight_iterates
from wcochaos.operators import WeightedCompOp, orbit_norm_sequence, weight_norm_sequence
from wcochaos.series import AnalyticPoly
from wcochaos.spaces import Hardy
from wcochaos.symbols import SelfMapSymbol, WeightSymbol, affine_fixing_one, validate_self_map

MB = float(1 << 20)


def validated(a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return phi


class TestStream:
    def test_truncated_turns_on_at_the_first_capped_iterate(self):
        # w = 0.5 z: w(n) has degree n, so the cap 3 first cuts w(4).
        w = WeightSymbol.from_coeffs([0, 0.5])
        assert first_capped(w, validated(0.5), 6, 3) == 4
        op = WeightedCompOp(w, validated(0.5))
        assert not weight_norm_sequence(op, Hardy(2), 3, max_degree=3).truncated
        assert weight_norm_sequence(op, Hardy(2), 6, max_degree=3).truncated

    def test_polynomial_symbols_are_truncated_once_the_cap_drops_terms(self):
        # deg w(n) = 2^n - 1 for w = z and phi = 0.8 z^2: 31 at n = 5, 63 at n = 6.
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0, 0, 0.8]))
        assert validate_self_map(phi)
        w = WeightSymbol.from_coeffs([0, 1.0])
        assert first_capped(w, phi, 7, 40) == 6
        assert list(weight_iterates(w, phi, 7, max_degree=40))[1] == AnalyticPoly.monomial(3, 0.8)

    def test_checks_run_when_the_stream_is_made(self):
        w = WeightSymbol.from_coeffs([1.0])
        with pytest.raises(ValueError):
            weight_iterates(w, affine_fixing_one(0.5), 5)  # not validated
        with pytest.raises(ValueError):
            weight_iterates(w, validated(0.5), 0)
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0.25, 0.5, 0.25]))
        assert validate_self_map(phi)
        for make in (lambda: weight_iterates(w, phi, 1), lambda: compositions(w.poly, phi, 5),
                     lambda: phi.iterates(5)):
            with pytest.raises(ValueError, match="degree cap"):
                make()

    def test_polynomial_compositions_match_the_capped_iterates(self):
        phi = SelfMapSymbol.polynomial(AnalyticPoly([0.25, 0.5, 0.25]))
        assert validate_self_map(phi)
        f = AnalyticPoly([1, 2, 3])
        rows = list(compositions(f, phi, 12, max_degree=40))
        assert len(rows) == 12
        for n, row in enumerate(rows, start=1):
            want = phi.iterate(n, max_degree=40).compose_into(f, max_degree=40).coeffs
            assert np.array_equal(row.view(np.int64), want.view(np.int64))

    def test_weight_norms_agree_with_the_orbit_of_one(self):
        # The weight norms and the orbit of f = 1 read two streams of w(n).
        phi = validated(0.25)
        op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), phi)
        for max_degree in (None, 30):
            weights = weight_norm_sequence(op, Hardy(2), 60, max_degree)
            orbit = orbit_norm_sequence(op, AnalyticPoly.one(), Hardy(2), 60, max_degree)
            assert np.array_equal(weights.values, orbit.values)
            assert weights.truncated == orbit.truncated == (max_degree is not None)
            assert weights.provenance == orbit.provenance


def _no_cache(monkeypatch):
    """Make every binding of the stored-iterate builder in the package raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("weight iterates were stored on a streaming path")

    for module in (wcochaos, cli, experiments, iterates, operators):
        for name, value in list(vars(module).items()):
            if value is weight_iterate_sequence:
                monkeypatch.setattr(module, name, refuse)


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


class TestNoCacheForOtherRuns:
    """Fixed vectors and polynomial maps read the same streams."""

    @pytest.mark.parametrize("argv", [
        ["orbit", *SYMBOLS, "--poly-coeffs", "1,2,3", "--horizon", "80"],
        ["orbit", "--w", "0.9*z", "--phi-poly", "0,0.5", "--max-degree", "64",
         "--horizon", "60", "--candidates", "s=-0.3"],
        ["classify", "--w", "1", "--phi-poly", "0.25,0.5,0.25", "--max-degree", "64",
         "--horizon", "20", "--candidates", "s=-0.3"],
    ], ids=["orbit-poly-coeffs", "orbit-phi-poly", "classify-phi-poly"])
    def test_command_succeeds_without_a_cache(self, monkeypatch, tmp_path, argv):
        _no_cache(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_text()


def _peak_mb(argv) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


class TestMemory:
    """Stored iterates drop their exact-zero tails.  Under a = 0.9999 no
    coefficient of w(n) underflows by H = 2000, so the stored w(n) keep all
    of theirs and take about 31 MB; under a = 0.3 they take about 2 MB.
    Streams hold one w(n) at a time whatever the map."""

    def test_stored_iterates_would_show(self):
        tracemalloc.start()
        try:
            stored = weight_iterate_sequence(WeightSymbol.from_coeffs([0, 0.9]),
                                             validated(0.9999), 2000)
            peak = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        assert len(stored) == 2000 and peak > 20
        assert len(stored[-1].coeffs) == 2001

    def test_stored_iterates_are_trimmed(self):
        stored = weight_iterate_sequence(WeightSymbol.from_coeffs([0, 0.9]), validated(0.3), 2000)
        assert sum(wn.coeffs.nbytes for wn in stored) / MB < 4

    def test_orbit_peak(self):
        op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), validated(0.9999))
        tracemalloc.start()
        try:
            seq = orbit_norm_sequence(op, AnalyticPoly([1, 2, 3]), Hardy(2), 2000)
            peak = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        assert len(seq) == 2000 and peak < 4

    def test_weights_peak(self, tmp_path):
        peak = _peak_mb(["weights", *SYMBOLS, "--space", "h2", "--horizon", "2000",
                         "--out", str(tmp_path / "w.csv")])
        assert peak < 4

    def test_classify_peak(self, tmp_path):
        peak = _peak_mb(["classify", *SYMBOLS, "--space", "h2", "--horizon", "2000",
                         "--candidates", "s=-0.3", "--out", str(tmp_path / "v.json")])
        assert peak < 4

    # phi = ((1 + z)/2)^2 under the cap 256: a capped phi^n takes up to
    # 16 * 257 bytes, so 1000 of them stored would pass the bound alone.
    # Streamed, the runs peak at about 1.7 MB (orbit) and 0.9 MB (weights).
    POLY = ["--w", "0.9*z", "--phi-poly", "0.25,0.5,0.25", "--max-degree", "256",
            "--horizon", "1000"]

    def test_polynomial_orbit_peak(self, tmp_path):
        peak = _peak_mb(["orbit", *self.POLY, "--poly-coeffs", "1,2,3",
                         "--out", str(tmp_path / "o.csv")])
        assert peak < 3

    def test_polynomial_weights_peak(self, tmp_path):
        peak = _peak_mb(["weights", *self.POLY, "--out", str(tmp_path / "w.csv")])
        assert peak < 3
