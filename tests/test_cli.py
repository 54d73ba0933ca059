"""End-to-end CLI checks: flags, file formats, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from wcochaos import cli, experiments, iterates, operators
from wcochaos.chaos import sequence_stats
from wcochaos.cli import main
from wcochaos.experiments import ExperimentConfig, parse_candidate, parse_weight
from wcochaos.series import AnalyticPoly


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def refuse_iterates(monkeypatch, no_work):
    """Route every stream of weight iterates in the package to ``no_work``."""
    for module in (iterates, operators):
        monkeypatch.setattr(module, "weight_iterates", no_work)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cell_exits_instead_of_writing_inf(self, tmp_path, capsys):
        # The Cesaro sum overflows at n = 646, the norm itself at n = 647.
        out = tmp_path / "weights.csv"
        rc = main(["weights", "--w", "3*z", "--phi-affine", "0.25", "--space", "h2",
                   "--horizon", "647", "--out", str(out)])
        assert rc == 2
        assert "row n=646, column cesaro_mean" in capsys.readouterr().err
        assert not out.exists()

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
            raise AssertionError("weight iterates were built before the membership check")

        refuse_iterates(monkeypatch, no_work)
        rc = main(["orbit", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--max-degree", "64",
                   "--space", "h3", "--horizon", "30", "--candidates", "s=-0.4"])
        assert rc == 2
        assert "Re(s) > -1/3" in capsys.readouterr().err


def per_cell_csv(seq, extra=None):
    """``sequence_csv`` as it rendered one cell at a time, with repr."""
    v = seq.values
    columns = {"norm": v, "cesaro_mean": sequence_stats(v).cesaro,
               "running_min": np.minimum.accumulate(v),
               "running_max": np.maximum.accumulate(v), **(extra or {})}
    lines = [",".join(["n", *columns])]
    for n, row in enumerate(np.column_stack(list(columns.values())), start=1):
        lines.append(",".join([str(n), *map(repr, row.tolist())]))
    return "\n".join(lines) + "\n"


def test_csv_renders_each_distinct_float_as_repr():
    from wcochaos.operators import NormSequence
    from wcochaos.spaces import Hardy

    rng = np.random.default_rng(3)
    v = np.repeat(rng.random(40), 3)  # repeats in every column
    v[[0, 5, 9]] = [0.0, 5e-324, 1e308]
    seq = NormSequence(values=v, space=Hardy(2.0))
    bound = rng.normal(size=len(v))
    bound[:6] = [0.0, -0.0, -0.0, 2.2250738585072014e-308, -1e308, 1e-310]
    extra = {"bound": bound}
    assert cli.sequence_csv(seq, extra) == per_cell_csv(seq, extra)
    assert ",-0.0\n" in cli.sequence_csv(seq, extra)
    assert cli.sequence_csv(seq) == per_cell_csv(seq)


class TestClassifyCommand:
    @pytest.mark.parametrize("flag,value,message", [("--eps", "0", "epsilon must be positive"),
                                                    ("--growth-factor", "1",
                                                     "growth factor must exceed 1")])
    @pytest.mark.parametrize("command", [["classify", "--w", "0.9*z", "--phi-affine", "0.25"],
                                         ["sweep", "--grid-lambda", "0.5:0.9:2",
                                          "--grid-a", "0.1:0.4:2"]],
                             ids=["classify", "sweep"])
    def test_thresholds_refused_before_any_sequence(self, monkeypatch, capsys, command, flag,
                                                    value, message):
        def no_work(*args, **kwargs):
            raise AssertionError("weight iterates were built before the threshold check")

        refuse_iterates(monkeypatch, no_work)
        assert main(command + ["--horizon", "3000", flag, value]) == 2
        assert message in capsys.readouterr().err

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
        refuse_iterates(monkeypatch, no_work)
        config = ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="bergman:3:0.5",
                                  degree=256, horizon=40,
                                  candidates=[{"s": 0.2, "k": 0}, {"s": -0.9, "k": 0}])
        with pytest.raises(ValueError, match=r"Re\(s\) > -2.5/3"):
            experiments.run_classify(config)

    def test_polynomial_map_below_the_cap_reaches_a_verdict(self, tmp_path):
        # phi = 0.5 + 0.5 z keeps degree 1, so w(30) has degree 30 < 64: the
        # cap drops nothing and the weight norms are exact.
        out = tmp_path / "verdict.json"
        assert main(["classify", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--max-degree", "64",
                     "--space", "h2", "--horizon", "30", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["li_yorke"]["kind"] == "NO_EVIDENCE"

    def test_capped_orbit_certifies_no_growth(self, tmp_path):
        # Under the cap 64 the candidate of degree 1024 loses most of its
        # norm, so the orbit is a partial sum and its bar G * v_1 too low:
        # read as growth it fired at n = 9 with a fitted rate of log 0.9.
        out = tmp_path / "verdict.json"
        assert main(["classify", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--max-degree", "64",
                     "--space", "h2", "--horizon", "60", "--eps", "1e-2",
                     "--growth-factor", "2", "--out", str(out)]) == 0
        li = json.loads(out.read_text())["li_yorke"]
        assert li["kind"] == "INCONCLUSIVE" and li["growth_witness"] is None
        assert li["decay_witness"]["n"] == 60

    def test_capped_orbit_is_never_built_and_is_named(self, tmp_path, monkeypatch):
        # The parabolic map ((1 + z)/2)^2 doubles the degree 1024 of the
        # candidate past the cap 256 at n = 1, so the orbit is capped throughout.
        def refuse(*args, **kwargs):
            raise AssertionError("a capped orbit was composed")

        monkeypatch.setattr(experiments, "orbit_norm_sequence", refuse)
        out = tmp_path / "verdict.json"
        assert main(["classify", "--w", "1", "--phi-poly", "0.25,0.5,0.25", "--max-degree", "256",
                     "--horizon", "40", "--candidates", "s=-0.3", "--growth-factor", "10",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("li_yorke", "mean_li_yorke"):
            assert doc[key]["kind"] == "NO_EVIDENCE"
            assert doc[key]["citation"].endswith(
                "; orbit 0 not scanned: computed under the degree cap")

    # A constant weight keeps every norm row real; 0.9*z under the complex
    # map makes complex weight iterates, which take the complex quadrature.
    @pytest.mark.parametrize("weight", ["0.5", "0.9*z"])
    def test_complex_phi_poly_flag_matches_the_config_file(self, tmp_path, weight):
        common = ["--space", "bergman:3:0.5", "--horizon", "3"]
        flags, from_file = tmp_path / "flags.json", tmp_path / "file.json"
        assert main(["classify", "--w", weight, "--phi-poly", "0.1,0.3j,0.4",
                     "--max-degree", "100", *common, "--out", str(flags)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": weight, "phi_affine": None,
                                   "phi_poly": [0.1, [0, 0.3], 0.4], "max_degree": 100,
                                   "space": "bergman:3:0.5", "horizon": 3}))
        assert main(["classify", "--config", str(cfg), "--out", str(from_file)]) == 0
        a, b = json.loads(flags.read_text()), json.loads(from_file.read_text())
        for key in ("li_yorke", "mean_li_yorke"):
            assert a[key]["config"]["phi_poly"] == [0.1, [0.0, 0.3], 0.4]
            for field in ("kind", "citation", "growth_witness", "decay_witness"):
                assert a[key][field] == b[key][field]

    def test_polynomial_map_without_a_cap_names_the_flag(self, capsys):
        rc = main(["weights", "--w", "0.9*z", "--phi-poly", "0.5,0.5", "--horizon", "5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: polynomial symbols need an explicit degree cap to iterate "
            "(--max-degree, or max_degree in a config)\n")

    def test_self_map_leaving_the_disk_is_refused(self, capsys):
        # The grid maximum is 0.9 on 256 points, the sup 1.0817.
        coeffs = ["0"] * 257
        coeffs[0], coeffs[128], coeffs[256] = "0.3", "0.9", "-0.3"
        rc = main(["weights", "--w", "1", "--phi-poly", ",".join(coeffs), "--space", "hinf",
                   "--max-degree", "70000", "--horizon", "2"])
        assert rc == 2
        assert "self-map validation failed" in capsys.readouterr().err

    def test_capped_decay_refusal_names_the_cap(self, capsys):
        # phi = 0.3 + 0.5 z^2: deg w(n) = 2^n - 1 passes the cap 16 at n = 5.
        rc = main(["classify", "--w", "0.9*z", "--phi-poly", "0.3,0,0.5", "--max-degree", "16",
                   "--space", "h2", "--horizon", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "capped" in err and "sup norm" not in err

    # The orbit overflows a double on purpose; numpy warns on the way.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_instead_of_writing_infinity(self, tmp_path, capsys):
        # log 0.9 + 0.49 log 100 = 2.15 per step: the orbit passes 1e308 near n = 330.
        out = tmp_path / "verdict.json"
        rc = main(["classify", "--w", "0.9*z", "--phi-affine", "0.01", "--space", "h2",
                   "--horizon", "400", "--degree", "64", "--candidates", "s=-0.49",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "li_yorke.growth_witness.value" in err and "overflowed" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_weight_norms_exit_instead_of_dropping_the_channel(self, tmp_path, capsys):
        # |w(n)| ~ 3^n passes 1e308 at n = 647 and the weight norms are NaN
        # from n = 648; the weight channel used to be skipped silently.
        out = tmp_path / "verdict.json"
        rc = main(["classify", "--w", "3*z", "--phi-affine", "0.25", "--space", "h2",
                   "--horizon", "700", "--degree", "32", "--candidates", "s=0.5",
                   "--out", str(out)])
        assert rc == 2
        assert "'weight-norm' has its first NaN at n=648" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_space_exit_code(self, capsys):
        rc = main(["classify", "--w", "1", "--phi-affine", "0.5", "--space", "l2"])
        assert rc == 2
        assert "space" in capsys.readouterr().err


class TestSupSpaceSides:
    """In hinf decay reads the upper bracket side and growth the lower one."""

    ARGS = ["classify", "--phi-affine", "0.25", "--space", "hinf", "--candidates", "s=0.5"]

    def classify(self, tmp_path, weight):
        out = tmp_path / "verdict.json"
        assert main(self.ARGS + ["--w", weight, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_decay_reads_the_upper_side(self, tmp_path):
        doc = self.classify(tmp_path, "0.9*z")
        for block, n, value in (("li_yorke", 500, 1.3220708194808237e-23),
                                ("mean_li_yorke", 251, 1.3089705046465668e-13)):
            assert doc[block]["kind"] == "INCONCLUSIVE"
            assert doc[block]["decay_witness"] == {"n": n, "value": value}
            assert doc[block]["growth_witness"] is None
        assert "sup_side" not in doc["li_yorke"]["config"]

    def test_growth_reads_the_lower_side(self, tmp_path):
        doc = self.classify(tmp_path, "1.1*z")
        # the coefficient-sum side: 1.1^500 and the Cesaro mean of 1.1^n at n = 500
        for block, value, rate in (("li_yorke", 4.969841967312473e+20, 0.09531017980432493),
                                   ("mean_li_yorke", 1.0933652328087433e+19,
                                    0.09277773335546594)):
            growth = doc[block]["growth_witness"]
            assert doc[block]["kind"] == "INCONCLUSIVE" and doc[block]["decay_witness"] is None
            assert (growth["channel"], growth["orbit"], growth["n"]) == ("weight-norm", None, 500)
            assert growth["value"] == pytest.approx(value, rel=1e-12)
            assert growth["rate"] == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("command", [["weights"], ["orbit", "--candidates", "s=0.5,k=1"]],
                             ids=["weights", "orbit"])
    def test_csv_carries_both_sides(self, tmp_path, command):
        out = tmp_path / "seq.csv"
        assert main([*command, "--w", "0.9*z", "--phi-affine", "0.25", "--space", "hinf",
                     "--horizon", "60", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["n", "norm", "cesaro_mean", "running_min", "running_max",
                                 "norm_upper"]
        lower = np.array([float(r["norm"]) for r in rows])
        upper = np.array([float(r["norm_upper"]) for r in rows])
        assert np.all(lower <= upper * (1 + 1e-14))

    def test_the_side_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["weights", "--space", "hinf", "--sup-side", "upper"])

    def test_version_1_config_with_a_side_loads(self, tmp_path):
        cfg = ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="hinf", horizon=200,
                               candidates=[{"s": 0.5, "k": 0}]).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "sup_side": "upper"}))
        assert ExperimentConfig.from_dict(json.loads(path.read_text())).to_dict() == cfg
        out = tmp_path / "verdict.json"
        assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["li_yorke"]["config"] == cfg


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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_refused(self, capsys, workers):
        assert main(["sweep", "--grid-lambda", "0.5:0.9:2", "--grid-a", "0.1:0.4:2",
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_csv_preset_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "wp"
        assert main(["preset", "weighted", "--lam", "3", "--space", "h2", "--degree", "64",
                     "--horizon", "600", "--out-dir", str(out)]) == 2
        assert "column norm" in capsys.readouterr().err
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
