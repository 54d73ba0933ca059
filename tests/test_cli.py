"""End-to-end CLI checks: flags, file formats, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from wcochaos import experiments
from wcochaos.cli import main
from wcochaos.experiments import ExperimentConfig, parse_candidate, parse_weight
from wcochaos.operators import WeightedCompOp
from wcochaos.series import AnalyticPoly


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_weight_forms(self):
        assert parse_weight("0.9*z") == AnalyticPoly([0, 0.9])
        assert parse_weight("1") == AnalyticPoly.one()
        assert parse_weight("0,0.9") == AnalyticPoly([0, 0.9])
        assert parse_weight("0.5, -0.25, 1") == AnalyticPoly([0.5, -0.25, 1])

    def test_candidates(self):
        assert parse_candidate("s=-0.4") == {"s": -0.4, "k": 0}
        assert parse_candidate("s=0.25,k=2") == {"s": 0.25, "k": 2}
        with pytest.raises(ValueError):
            parse_candidate("k=2")
        with pytest.raises(ValueError):
            parse_candidate("s=1,j=2")

    def test_config_round_trip(self):
        cfg = ExperimentConfig(weight="0.7*z", phi_affine=0.3, space="bergman:2:0.5",
                               degree=128, horizon=100,
                               candidates=[{"s": complex(-0.3, 0.1), "k": 1}])
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert cfg.to_dict()["schema_version"] == 1


class TestWeightsCommand:
    def test_constant_weight_csv(self, tmp_path, capsys):
        assert main(["weights", "--w", "1", "--phi-affine", "0.5",
                     "--space", "h2", "--horizon", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,norm,cesaro_mean,running_min,running_max"
        assert len(lines) == 51
        assert lines[1] == "1,1.0,1.0,1.0,1.0"
        assert lines[-1].startswith("50,1.0")

    def test_invalid_self_map_exit_code(self, capsys):
        rc = main(["weights", "--w", "1", "--phi-affine", "1.2", "--space", "h2",
                   "--horizon", "5"])
        assert rc == 2
        assert "self-map validation" in capsys.readouterr().err


class TestOrbitCommand:
    def test_eigen_candidate(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--w", "0.9*z", "--phi-affine", "0.25", "--space", "h2",
                     "--degree", "256", "--horizon", "40",
                     "--candidates", "s=-0.4", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 40
        assert float(rows[-1]["norm"]) > float(rows[0]["norm"])

    def test_direct_polynomial(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--w", "1", "--phi-affine", "0.5", "--space", "h2",
                     "--horizon", "10", "--poly-coeffs", "1,-2,1",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        # (1-z)^2 is an exact eigenvector: norms decay by 0.25 per step
        v = np.array([float(r["norm"]) for r in rows])
        assert np.allclose(v[1:] / v[:-1], 0.25, rtol=1e-12)


    def test_candidate_refused_before_the_iterate_cache(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the iterate cache was built before the membership check")

        monkeypatch.setattr(WeightedCompOp, "build_cache", no_work)
        rc = main(["orbit", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--max-degree", "64",
                   "--space", "h3", "--horizon", "30", "--candidates", "s=-0.4"])
        assert rc == 2
        assert "Re(s) > -1/3" in capsys.readouterr().err


class TestClassifyCommand:
    def test_verdict_file_shape_and_kinds(self, tmp_path):
        out = tmp_path / "verdict.json"
        assert main(["classify", "--w", "0.9*z", "--phi-affine", "0.25",
                     "--space", "h2", "--degree", "1024", "--horizon", "500",
                     "--candidates", "s=-0.4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        li = doc["li_yorke"]
        assert li["kind"] == "LI_YORKE_EVIDENCE"
        assert li["decay_witness"]["value"] < 1e-10
        assert li["growth_witness"]["channel"] == "orbit"
        assert li["thresholds"] == {"epsilon": 1e-10, "growth_factor": 1e3, "horizon": 500}
        assert li["config"]["weight"] == "0.9*z"
        assert doc["mean_li_yorke"]["kind"] == "MEAN_LI_YORKE_EVIDENCE"

    def test_deterministic_output(self, tmp_path):
        args = ["classify", "--w", "0.9*z", "--phi-affine", "0.25", "--space", "h2",
                "--degree", "128", "--horizon", "300", "--candidates", "s=-0.4"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_input(self, tmp_path):
        cfg = ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="h2",
                               degree=128, horizon=300)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "verdict.json"
        assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["li_yorke"]["config"]["degree"] == 128

    def test_candidate_outside_space_exit_code(self, capsys):
        # (1-z)^(-0.4), the default candidate, is not in H^4
        rc = main(["classify", "--w", "0.9*z", "--phi-affine", "0.25", "--space", "h4",
                   "--horizon", "100"])
        assert rc == 2
        assert "Re(s) > -1/4" in capsys.readouterr().err

    def test_candidate_refused_before_any_sequence(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a sequence was built before the membership check")

        monkeypatch.setattr(experiments, "weight_norm_sequence", no_work)
        monkeypatch.setattr(WeightedCompOp, "build_cache", no_work)
        config = ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="bergman:3:0.5",
                                  degree=256, horizon=40,
                                  candidates=[{"s": 0.2, "k": 0}, {"s": -0.9, "k": 0}])
        with pytest.raises(ValueError, match=r"Re\(s\) > -2.5/3"):
            experiments.run_classify(config)

    def test_capped_decay_refusal_names_the_cap(self, capsys):
        rc = main(["classify", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--max-degree", "64",
                   "--space", "h2", "--horizon", "30"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "capped" in err and "sup norm" not in err

    def test_unknown_space_exit_code(self, capsys):
        rc = main(["classify", "--w", "1", "--phi-affine", "0.5", "--space", "l2"])
        assert rc == 2
        assert "space" in capsys.readouterr().err


class TestSweepCommand:
    def test_small_grid_matches_hypothesis_region(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid-lambda", "0.5:0.9:2", "--grid-a", "0.1:0.5:2",
                     "--space", "h2", "--candidates", "s=-0.4", "--degree", "256",
                     "--horizon", "400", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            lam, a = float(row["lam"]), float(row["a"])
            assert row["epsilon"] and row["horizon"] == "400"
            if lam * a**-0.4 > 1 and lam > a**0.5:
                assert row["li_kind"] == "LI_YORKE_EVIDENCE", (lam, a)
            if lam * a**-0.4 < 1:
                assert row["li_kind"] == "INCONCLUSIVE", (lam, a)

    def test_five_by_five_region(self, tmp_path):
        # lam in {0.5..0.9} x a in {0.1..0.5}: every cell whose candidate rate
        # lam * a^(Re s) exceeds 1 must certify evidence within the horizon;
        # every cell below 1 decays and stays inconclusive.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid-lambda", "0.5:0.9:5", "--grid-a", "0.1:0.5:5",
                     "--space", "h2", "--candidates", "s=-0.4", "--degree", "512",
                     "--horizon", "800", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 25
        for row in rows:
            lam, a = float(row["lam"]), float(row["a"])
            rate = lam * a**-0.4
            if rate > 1 + 1e-9 and lam > a**0.5:
                assert row["li_kind"] == "LI_YORKE_EVIDENCE", (lam, a)
            elif rate < 1 - 1e-9:
                assert row["li_kind"] == "INCONCLUSIVE", (lam, a)

    def test_workers_write_identical_bytes(self, tmp_path):
        args = ["sweep", "--grid-lambda", "0.5:0.9:3", "--grid-a", "0.1:0.4:2",
                "--space", "h2", "--horizon", "150"]
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].count(b"\n") == 7

    def test_p_beta_rows_match_classify(self, tmp_path):
        common = ["--w", "0.9*z", "--phi-affine", "0.25", "--horizon", "150",
                  "--degree", "256", "--eps", "1e-4"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *common, "--grid-p", "2:2:1", "--grid-beta=-0.5:1:3",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [(r["p"], r["beta"], r["space"]) for r in rows] == [
            ("2.0", beta, "bergman") for beta in ("-0.5", "0.25", "1.0")]
        for row in rows:
            verdict = tmp_path / f"beta{row['beta']}.json"
            assert main(["classify", *common, "--space", f"bergman:2:{row['beta']}",
                         "--out", str(verdict)]) == 0
            doc = json.loads(verdict.read_text())
            assert row["li_kind"] == doc["li_yorke"]["kind"] == "LI_YORKE_EVIDENCE"
            assert row["mean_kind"] == doc["mean_li_yorke"]["kind"]

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid-lambda", "0.5:0.9:0", "--grid-a", "0.1:0.5:3",
                     "--space", "h2", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1  # header only

    def test_invalid_cell_aborts(self, capsys):
        rc = main(["sweep", "--grid-lambda", "0.5:0.9:2", "--grid-a", "1.2:1.2:1",
                   "--space", "h2", "--degree", "64", "--horizon", "50"])
        assert rc == 2
        assert "self-map validation" in capsys.readouterr().err

    def test_missing_grid_flags(self, capsys):
        assert main(["sweep", "--space", "h2"]) == 2


class TestEigenCommand:
    def test_exact_case(self, tmp_path):
        out = tmp_path / "eigen.json"
        assert main(["eigen", "--a", "0.5", "--s", "2", "--space", "h2",
                     "--degree", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["residual"] <= 1e-12

    def test_membership_violation(self, capsys):
        for space, s in [("h2", "-0.6"), ("h4", "-0.4")]:
            assert main(["eigen", "--a", "0.5", "--s", s, "--space", space,
                         "--degree", "64"]) == 2


class TestPresets:
    def test_weighted_preset(self, tmp_path):
        out = tmp_path / "wp"
        assert main(["preset", "weighted", "--lam", "0.9", "--a", "0.25",
                     "--space", "h2", "--degree", "512", "--horizon", "400",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["li_yorke"]["kind"] == "LI_YORKE_EVIDENCE"
        assert (out / "weights.csv").exists()
        assert (out / "orbit_0.csv").exists()

    def test_failed_preset_writes_nothing(self, tmp_path, capsys):
        # The growth candidate s = -1/12 is not in H^inf; the run fails only
        # after the weight and decay sequences are computed.
        out = tmp_path / "uw"
        assert main(["preset", "unweighted", "--space", "hinf", "--horizon", "50",
                     "--out-dir", str(out)]) == 2
        assert "Re(s) >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unweighted_preset(self, tmp_path):
        out = tmp_path / "uw"
        assert main(["preset", "unweighted", "--a", "0.5", "--space", "h2",
                     "--degree", "2048", "--horizon", "200",
                     "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["growth_rate"] == pytest.approx(np.log(2) / 12, rel=1e-6)
        for k in (0, 1, 2):
            rows = read_csv(out / f"decay_k{k}.csv")
            assert len(rows) == 200
            for row in rows:
                assert float(row["norm"]) <= float(row["bound"]) * (1 + 1e-9)
        weights = read_csv(out / "weights.csv")
        assert {row["norm"] for row in weights} == {"1.0"}
