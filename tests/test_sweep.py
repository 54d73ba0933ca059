"""The lambda-a sweep scales one set of lam = 1 sequences per column.

For w = lam z and phi = a z + 1 - a every norm is |lam|^n times its lam = 1
value, so a column of cells needs one weight stream and one set of orbits.
The reference below is one full classify per cell, the route the sweep took
before the columns.
"""

import csv
import math

import pytest

from wcochaos import experiments
from wcochaos.cli import main
from wcochaos.experiments import ExperimentConfig, run_classify, sweep_task


def per_cell(base: dict, lam: float, a: float):
    config = ExperimentConfig.from_dict(base)
    config.weight, config.phi_affine = f"{lam!r}*z", a
    result = run_classify(config)
    return result.li_yorke, result.mean_li_yorke


def close(x, y, rtol=1e-10):
    if x is None or y is None:
        return x is y
    return abs(x - y) <= rtol * max(abs(x), abs(y)) or x == y


def assert_same_verdict(got, want):
    assert got.kind == want.kind
    assert got.citation == want.citation
    assert (got.decay is None) == (want.decay is None)
    if got.decay is not None:
        assert got.decay.index == want.decay.index
        assert close(got.decay.value, want.decay.value)
    assert (got.growth is None) == (want.growth is None)
    if got.growth is not None:
        assert (got.growth.channel, got.growth.orbit, got.growth.index) == (
            want.growth.channel, want.growth.orbit, want.growth.index)
        assert close(got.growth.value, want.growth.value)
        assert close(got.growth.rate, want.growth.rate)


# (space, horizon, degree, candidates, sup_side, lams, avals); every cell
# stays inside the double range, so the per-cell route is a fair reference.
CASES = {
    "h2": ("h2", 1000, 256, [{"s": -0.4, "k": 0}, {"s": 0.25, "k": 1}], "lower",
           [0.5, 0.8, 0.97], [0.3, 0.45]),
    "bergman2": ("bergman:2:0.5", 600, 256, [{"s": -0.6, "k": 0}], "lower",
                 [0.6, 0.9], [0.25, 0.5]),
    "h3": ("h3", 160, 96, [{"s": -0.2, "k": 0}], "lower", [0.7, 0.9], [0.05, 0.4]),
    "hinf-upper": ("hinf", 400, 128, [{"s": 0.5, "k": 0}], "upper",
                   [0.5, 1.0, 1.1], [0.3, 0.6]),
}


@pytest.mark.parametrize("name", CASES)
def test_columns_match_one_classify_per_cell(name):
    space, horizon, degree, candidates, side, lams, avals = CASES[name]
    base = ExperimentConfig(space=space, horizon=horizon, degree=degree, epsilon=1e-6,
                            candidates=candidates, sup_side=side).to_dict()
    kinds = set()
    for a in avals:
        rows = sweep_task(("lambda-a", lams, a, base))
        assert [(row["x"], row["y"]) for row in rows] == [(lam, a) for lam in lams]
        for lam, row in zip(lams, rows):
            li, mean = per_cell(base, lam, a)
            assert_same_verdict(row["li"], li)
            assert_same_verdict(row["mean"], mean)
            kinds.add(li.kind)
    assert len(kinds) > 1  # the grid crosses a verdict boundary


def test_zero_and_negative_lambda():
    base = ExperimentConfig(space="h2", horizon=200, degree=128).to_dict()
    rows = sweep_task(("lambda-a", [0.0, -0.8, 0.8], 0.25, base))
    zero, negative, positive = rows
    # lam = 0: every norm is 0, so decay fires at n = 1 and nothing grows.
    assert zero["li"].decay.index == 1 and zero["li"].decay.value == 0.0
    assert zero["li"].growth is None and zero["li"].kind == "INCONCLUSIVE"
    assert_same_verdict(zero["li"], per_cell(base, 0.0, 0.25)[0])
    # Norms see |lam| only.
    assert_same_verdict(negative["li"], positive["li"])
    assert_same_verdict(negative["mean"], positive["mean"])
    for row, lam in ((negative, -0.8), (zero, 0.0)):
        li, mean = per_cell(base, lam, 0.25)
        assert_same_verdict(row["li"], li)
        assert_same_verdict(row["mean"], mean)


def test_lambda_one_orbit_may_overflow_where_the_cells_do_not():
    # At lam = 1 the orbit of s = -0.4 under a = 0.1 grows like 10^(0.4 n) and
    # passes 1e308 near n = 770; lam = 0.5 brings the rate under log 10^0.4.
    base = ExperimentConfig(space="h2", horizon=900, degree=256).to_dict()
    [row] = sweep_task(("lambda-a", [0.5], 0.1, base))
    li, mean = per_cell(base, 0.5, 0.1)
    assert math.isfinite(li.growth.value)
    assert_same_verdict(row["li"], li)
    assert_same_verdict(row["mean"], mean)


@pytest.fixture
def recorded_builds(monkeypatch):
    calls = []
    build = experiments.build_sequences

    def recorder(config):
        calls.append((config.weight, config.phi_affine))
        return build(config)

    monkeypatch.setattr(experiments, "build_sequences", recorder)
    return calls


SWEEP = ["sweep", "--space", "h2", "--horizon", "120", "--degree", "64"]


def test_one_build_per_a_column(recorded_builds, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([*SWEEP, "--grid-lambda", "0.5:0.9:4", "--grid-a", "0.1:0.4:3",
                 "--out", str(out)]) == 0
    assert recorded_builds == [("1.0*z", a) for a in (0.1, 0.25, 0.4)]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # Grid order: lam outer, a inner.
    assert [(float(r["lam"]), float(r["a"])) for r in rows] == [
        (lam, a) for lam in (0.5, 0.5 + 0.4 / 3, 0.5 + 0.8 / 3, 0.9) for a in (0.1, 0.25, 0.4)]


def test_empty_lambda_grid_builds_nothing(recorded_builds, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([*SWEEP, "--grid-lambda", "0.5:0.9:0", "--grid-a", "0.1:0.4:3",
                 "--out", str(out)]) == 0
    assert recorded_builds == []
    assert out.read_text().count("\n") == 1


def test_workers_match_serial_with_more_columns_than_workers(tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        assert main([*SWEEP, "--grid-lambda", "0.5:1.0:3", "--grid-a", "0.1:0.5:5",
                     "--workers", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 16


def test_scaled_overflow_exits_naming_the_cell(tmp_path, capsys):
    # 3^n passes 1e308 at n = 647, the last step: the per-cell route wrote inf
    # as growth_value here.  The lam = 1 weight norms stay below 1.
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--space", "h2", "--horizon", "647", "--degree", "32",
               "--grid-lambda", "3:3:1", "--grid-a", "0.25:0.25:1", "--candidates", "s=0.5",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sweep cell lam=3.0, a=0.25: weight-norm overflows a double at n=647" in err
    assert not out.exists()


class TestRefusals:
    def test_polynomial_self_map(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([*SWEEP, "--phi-poly", "0.5,0.5", "--max-degree", "64",
                   "--grid-lambda", "0.5:0.9:2", "--grid-a", "0.1:0.4:2", "--out", str(out)])
        assert rc == 2
        assert "polynomial self-map" in capsys.readouterr().err
        assert not out.exists()

    def test_polynomial_self_map_from_a_config(self):
        base = ExperimentConfig(phi_affine=None, phi_poly=[0.5, 0.5], max_degree=64,
                                horizon=30).to_dict()
        with pytest.raises(ValueError, match="polynomial self-map"):
            sweep_task(("lambda-a", [0.5, 0.9], 0.25, base))

    # The weight iterates of 3z overflow a double on purpose; numpy warns.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cell_in_a_p_beta_sweep(self, tmp_path, capsys):
        # The A^2_0 weight norm reads inf at n = 647, the last step before NaN.
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--w", "3*z", "--phi-affine", "0.25", "--horizon", "647",
                   "--degree", "32", "--candidates", "s=0.5", "--grid-p", "2:2:1",
                   "--grid-beta", "0:0:1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite inf in sweep cell p=2.0, beta=0.0, column growth_value" in err
        assert not out.exists()

    def test_non_finite_cell_in_a_lambda_a_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([*SWEEP, "--grid-lambda", "0.5:0.5:1", "--grid-a", "0.25:0.25:1",
                   "--growth-factor", "inf", "--out", str(out)])
        assert rc == 2
        assert "sweep cell lam=0.5, a=0.25, column growth_factor" in capsys.readouterr().err
        assert not out.exists()
