"""Workloads: seeded rounds of wcochaos CLI operations, each with its check.

A round holds one operation of every kind the workload has, in a seeded
order, with parameters drawn from the workload's ranges.  Every run attempts
whole rounds, so the share of kept failures is the same in every run.

Every workload uses the weight w = lam*z and the self-map a*z + 1 - a with
0 < a < 1/2, for which ``reference`` computes norms, orbit rates and verdict
kinds without wcochaos.  Draws whose verdict the reference bounds cannot
decide, or whose orbit would overflow a double, are redrawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

EXACT_TOL = 1e-9      # H^2, H^4, A^2_beta and H^inf: formulas or exact rules
HP_TOL = 1e-8         # H^p quadrature, grid doubled to 1e-9
BERGMAN_TOL = 1e-7    # A^p_beta quadrature, orders doubled to 1e-8
RATE_TOL = 1e-8       # fitted growth rate against log(lam a^s)
TAIL_RATIO_TOL = 1e-9  # v_{n+1}/v_n against lam a^s once a^n < 1e-13
MAX_LOG_ORBIT = 650.0  # keeps every orbit value below exp(709)


@dataclass
class Op:
    """One CLI call and the check of what it wrote."""

    kind: str
    argv: list[str]
    check: Callable[[str], list[str]]
    kept_failure: bool = False


@dataclass
class Workload:
    """``make`` draws one round; op_s.tail is the ``tail_percentile`` of op times."""

    name: str
    make: Callable[[np.random.Generator, Path], list[Op]]
    tail_percentile: int


# ---------------------------------------------------------------- parsing


class OutputError(ValueError):
    """The output breaks its format: the operation counts as failed."""


def _reject_constant(name):
    raise OutputError(f"non-finite JSON number {name}")


def parse_json(text: str) -> dict:
    """JSON as json.dumps(allow_nan=False) would accept it."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"unparseable JSON: {exc}") from exc


def parse_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _floats(col) -> np.ndarray:
    return np.array([float(x) for x in col])


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


def _space(token: str) -> tuple:
    if token == "hinf":
        return ("hinf",)
    if token.startswith("bergman:"):
        _, p, beta = token.split(":")
        return ("bergman", float(p), float(beta))
    return ("h", float(token[1:]))


def _tol(space: tuple) -> float:
    if space[0] == "hinf" or space[1] == 2.0 or space == ("h", 4.0):
        return EXACT_TOL
    return HP_TOL if space[0] == "h" else BERGMAN_TOL


# ---------------------------------------------------------------- checks


def check_sequence_columns(cols: dict, label: str) -> list[str]:
    """The derived CSV columns follow from the norm column."""
    v = _floats(cols["norm"])
    n = np.arange(1, len(v) + 1)
    problems = []
    if list(map(int, cols["n"])) != list(n):
        problems.append(f"{label}: n column is not 1..{len(v)}")
    expect = {"cesaro_mean": np.cumsum(v) / n,
              "running_min": np.minimum.accumulate(v),
              "running_max": np.maximum.accumulate(v)}
    for name, want in expect.items():
        got = _floats(cols[name])
        if not np.allclose(got, want, rtol=1e-12, atol=0):
            problems.append(f"{label}: column {name} disagrees with the norms")
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        problems.append(f"{label}: norms are not finite and positive")
    return problems


def check_values(v: np.ndarray, ns, space, lam, a, s, degree, label) -> list[str]:
    """Norms at the given n against the reference quadrature."""
    problems = []
    for n in ns:
        want = ref.space_norm(space, lam, a, n, s, degree)
        if _rel(v[n - 1], want) > _tol(space):
            problems.append(f"{label}: v_{n} = {v[n - 1]!r}, reference {want!r}")
    return problems


def check_tail_ratio(v: np.ndarray, ratio: float, a: float, label: str) -> list[str]:
    """v_{n+1}/v_n = lam a^s once a^n is negligible; H >= 20 to apply."""
    lo = max(math.ceil(0.6 * len(v)), math.ceil(math.log(1e-13) / math.log(a)))
    if len(v) - lo < 5:
        return []
    got = v[lo:] / v[lo - 1:-1]
    worst = float(np.max(np.abs(got / ratio - 1.0)))
    if worst > TAIL_RATIO_TOL:
        return [f"{label}: tail ratio off lam*a^s by {worst:.2e}"]
    return []


def check_verdict(d: dict, space, lam, a, s, horizon, degree, eps, gf, label) -> list[str]:
    """Kinds, witnesses and rate of a classify verdict."""
    problems = []
    kinds = ref.predict_kinds(space, lam, a, s, horizon, eps, gf)
    got = (d["li_yorke"]["kind"], d["mean_li_yorke"]["kind"])
    if got != kinds:
        problems.append(f"{label}: kinds {got}, predicted {kinds}")
    li = d["li_yorke"]
    decay, growth = li["decay_witness"], li["growth_witness"]
    if decay is not None:
        if decay["n"] != horizon:
            problems.append(f"{label}: decay witness at n={decay['n']}, weight norms "
                            f"are decreasing so it must be n={horizon}")
        want = ref.space_norm(space, lam, a, horizon)
        if _rel(decay["value"], want) > _tol(space):
            problems.append(f"{label}: decay value {decay['value']!r}, reference {want!r}")
    if growth is not None:
        if growth["channel"] != "orbit":
            problems.append(f"{label}: growth channel {growth['channel']}, weight "
                            "norms are non-increasing")
        n = growth["n"]
        want = ref.space_norm(space, lam, a, n, s, degree)
        if _rel(growth["value"], want) > _tol(space):
            problems.append(f"{label}: growth value at n={n} {growth['value']!r}, "
                            f"reference {want!r}")
        rate, want_rate = growth["rate"], ref.orbit_rate(lam, a, s)
        if rate is None or abs(rate - want_rate) > RATE_TOL:
            problems.append(f"{label}: growth rate {rate!r}, predicted {want_rate!r}")
    return problems


# ---------------------------------------------------------------- draws


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw rounded to 4 decimals, so the CLI text is the exact value."""
    return float(f"{rng.uniform(lo, hi):.4f}")


def _draw_case(rng, horizon, lam_r, a_r, s_r, verdict=None, max_rate=None):
    """(lam, a, s) whose orbit stays finite and, given verdict = (space, eps,
    factor), whose classify verdict the reference bounds decide."""
    for _ in range(1000):
        lam, a, s = _u(rng, *lam_r), _u(rng, *a_r), _u(rng, *s_r)
        r = ref.orbit_rate(lam, a, s)
        if r * horizon > MAX_LOG_ORBIT or (max_rate is not None and r > max_rate):
            continue
        if verdict is None or ref.predict_kinds(verdict[0], lam, a, s, horizon,
                                                *verdict[1:]) is not None:
            return lam, a, s
    raise RuntimeError("no decidable draw in 1000 tries")


def _symbol_args(lam, a) -> list[str]:
    return ["--w", f"{lam!r}*z", "--phi-affine", repr(a)]


def classify_op(rng, token, horizon_r, degree, eps, gf, lam_r, a_r, s_r, kind) -> Op:
    space = _space(token)
    horizon = int(rng.integers(horizon_r[0], horizon_r[1] + 1))
    lam, a, s = _draw_case(rng, horizon, lam_r, a_r, s_r, (space, eps, gf))
    argv = ["classify", *_symbol_args(lam, a), "--space", token,
            "--horizon", str(horizon), "--degree", str(degree),
            "--candidates", f"s={s!r}", "--eps", repr(eps), "--growth-factor", repr(gf)]

    def check(out: str) -> list[str]:
        return check_verdict(parse_json(out), space, lam, a, s, horizon, degree,
                             eps, gf, kind)

    return Op(kind, argv, check)


def orbit_op(rng, token, horizon_r, degree, lam_r, a_r, s_r, kind, max_rate=None) -> Op:
    """Orbit CSV; lam, a, s only need a finite orbit, so any verdict will do."""
    space = _space(token)
    horizon = int(rng.integers(horizon_r[0], horizon_r[1] + 1))
    lam, a, s = _draw_case(rng, horizon, lam_r, a_r, s_r, max_rate=max_rate)
    argv = ["orbit", *_symbol_args(lam, a), "--space", token,
            "--horizon", str(horizon), "--degree", str(degree), "--candidates", f"s={s!r}"]
    ns = sorted({1, int(rng.integers(1, horizon + 1))})

    def check(out: str) -> list[str]:
        cols = parse_csv(out)
        v = _floats(cols["norm"])
        problems = check_sequence_columns(cols, kind)
        if len(v) != horizon:
            return problems + [f"{kind}: {len(v)} rows, expected {horizon}"]
        problems += check_values(v, ns, space, lam, a, s, degree, kind)
        problems += check_tail_ratio(v, lam * a**s, a, kind)
        return problems

    return Op(kind, argv, check)


def weights_op(rng, token, horizon_r, lam_r, a_r, kind) -> Op:
    space = _space(token)
    horizon = int(rng.integers(horizon_r[0], horizon_r[1] + 1))
    lam, a = _u(rng, *lam_r), _u(rng, *a_r)
    argv = ["weights", *_symbol_args(lam, a), "--space", token, "--horizon", str(horizon)]
    ns = sorted({int(rng.integers(1, horizon + 1)), horizon})

    def check(out: str) -> list[str]:
        cols = parse_csv(out)
        v = _floats(cols["norm"])
        problems = check_sequence_columns(cols, kind)
        if len(v) != horizon:
            return problems + [f"{kind}: {len(v)} rows, expected {horizon}"]
        if space[0] == "hinf":
            # Every coefficient of w(n) is nonnegative: sup |w(n)| = w(n)(1) = lam^n.
            want = np.exp(np.arange(1, horizon + 1) * math.log(lam))
            worst = float(np.max(np.abs(v / want - 1.0)))
            if worst > EXACT_TOL:
                problems.append(f"{kind}: sup norms off lam^n by {worst:.2e}")
        else:
            problems += check_values(v, ns, space, lam, a, None, 0, kind)
        return problems

    return Op(kind, argv, check)


def eigen_op(rng, p, degree, a_r, s_r, kind) -> Op:
    a, s = _u(rng, *a_r), _u(rng, *s_r)
    argv = ["eigen", "--a", repr(a), "--s", repr(s), "--space", f"h{p:g}",
            "--degree", str(degree)]

    def check(out: str) -> list[str]:
        got = parse_json(out)["residual"]
        want = ref.eigen_residual(p, a, s, degree)
        if _rel(got, want) > 1e-7:
            return [f"{kind}: residual {got!r}, reference {want!r}"]
        return []

    return Op(kind, argv, check)


def sweep_op(rng, horizon, eps, gf, kind) -> Op:
    """3x3 lam x a sweep; the grid spans evidence, decay-only and growth-only cells."""
    space = ("h", 2.0)
    for _ in range(1000):
        lam_g = (_u(rng, 0.5, 0.55), _u(rng, 0.97, 1.0))
        a_g = (_u(rng, 0.1, 0.15), _u(rng, 0.4, 0.45))
        s = _u(rng, -0.45, -0.35)
        cells = [(float(x), float(y)) for x in np.linspace(*lam_g, 3)
                 for y in np.linspace(*a_g, 3)]
        if all(ref.orbit_rate(x, y, s) * horizon < MAX_LOG_ORBIT
               and ref.predict_kinds(space, x, y, s, horizon, eps, gf) is not None
               for x, y in cells):
            break
    else:
        raise RuntimeError("no decidable sweep grid in 1000 tries")
    argv = ["sweep", "--space", "h2", "--horizon", str(horizon),
            "--grid-lambda", f"{lam_g[0]!r}:{lam_g[1]!r}:3",
            "--grid-a", f"{a_g[0]!r}:{a_g[1]!r}:3",
            "--candidates", f"s={s!r}", "--eps", repr(eps), "--growth-factor", repr(gf),
            "--workers", "1"]

    def check(out: str) -> list[str]:
        cols = parse_csv(out)
        problems = []
        if len(cols["lam"]) != 9:
            return [f"{kind}: {len(cols['lam'])} cells, expected 9"]
        for i in range(9):
            lam, a = float(cols["lam"][i]), float(cols["a"][i])
            kinds = ref.predict_kinds(space, lam, a, s, horizon, eps, gf)
            got = (cols["li_kind"][i], cols["mean_kind"][i])
            if got != kinds:
                problems.append(f"{kind}: cell lam={lam} a={a} kinds {got}, predicted {kinds}")
            if cols["growth_channel"][i] == "orbit":
                rate = float(cols["growth_rate"][i])
                if abs(rate - ref.orbit_rate(lam, a, s)) > RATE_TOL:
                    problems.append(f"{kind}: cell lam={lam} a={a} rate {rate!r}")
            elif cols["growth_channel"][i]:
                problems.append(f"{kind}: cell lam={lam} a={a} weight-norm growth")
            if cols["decay_n"][i] and int(cols["decay_n"][i]) != horizon:
                problems.append(f"{kind}: cell lam={lam} a={a} decay at {cols['decay_n'][i]}")
        return problems

    return Op(kind, argv, check)


def preset_weighted_op(rng, out_dir: Path, horizon, lam_r, a_r, s_r, kind) -> Op:
    """Preset defaults but the horizon: h2, degree 1024, eps 1e-10, factor 1e3."""
    degree, eps, gf, space = 1024, 1e-10, 1e3, ("h", 2.0)
    lam, a, s = _draw_case(rng, horizon, lam_r, a_r, s_r, (space, eps, gf))
    argv = ["preset", "weighted", "--lam", repr(lam), "--a", repr(a), "--s", repr(s),
            "--horizon", str(horizon), "--out-dir", str(out_dir)]
    ns = [int(rng.integers(1, horizon + 1))]

    def check(_out: str) -> list[str]:
        d = parse_json((out_dir / "verdict.json").read_text())
        problems = check_verdict(d, space, lam, a, s, horizon, degree, eps, gf, kind)
        cols = parse_csv((out_dir / "weights.csv").read_text())
        problems += check_sequence_columns(cols, kind + "/weights")
        problems += check_values(_floats(cols["norm"]), ns, space, lam, a, None, 0,
                                 kind + "/weights")
        cols = parse_csv((out_dir / "orbit_0.csv").read_text())
        v = _floats(cols["norm"])
        problems += check_sequence_columns(cols, kind + "/orbit")
        problems += check_values(v, ns, space, lam, a, s, degree, kind + "/orbit")
        problems += check_tail_ratio(v, lam * a**s, a, kind + "/orbit")
        return problems

    return Op(kind, argv, check)


def preset_unweighted_op(rng, out_dir: Path, a_r, kind) -> Op:
    """w = 1: weight norms are 1, (1-z)^(1/4) z^k decays, (1-z)^(-1/12) grows."""
    horizon, space = 500, ("h", 2.0)
    a = _u(rng, *a_r)
    argv = ["preset", "unweighted", "--a", repr(a), "--out-dir", str(out_dir)]
    n_seed = int(rng.integers(1, horizon + 1))

    def check(_out: str) -> list[str]:
        problems = []
        cols = parse_csv((out_dir / "weights.csv").read_text())
        if set(cols["norm"]) != {"1.0"}:
            problems.append(f"{kind}: weight norms of w = 1 are not all 1.0")
        n = np.arange(1, horizon + 1)
        for k in (0, 1, 2):
            cols = parse_csv((out_dir / f"decay_k{k}.csv").read_text())
            v, bound = _floats(cols["norm"]), _floats(cols["bound"])
            problems += check_sequence_columns(cols, f"{kind}/decay_k{k}")
            want = a ** (n / 4.0) * 2.0**0.25 * (a**n + 1.0) ** k
            if not np.allclose(bound, want, rtol=1e-12, atol=0):
                problems.append(f"{kind}/decay_k{k}: bound column is not a^(n/4) 2^(1/4) (a^n+1)^k")
            if np.any(v > bound):
                problems.append(f"{kind}/decay_k{k}: a norm exceeds its bound")
            if k == 0:
                problems += check_values(v, [n_seed], space, None, a, 0.25, 1024,
                                         f"{kind}/decay_k0")
                problems += check_tail_ratio(v, a**0.25, a, f"{kind}/decay_k0")
        cols = parse_csv((out_dir / "growth.csv").read_text())
        v = _floats(cols["norm"])
        problems += check_sequence_columns(cols, f"{kind}/growth")
        problems += check_values(v, [n_seed], space, None, a, -1.0 / 12.0, 2048,
                                 f"{kind}/growth")
        problems += check_tail_ratio(v, a ** (-1.0 / 12.0), a, f"{kind}/growth")
        summary = parse_json((out_dir / "summary.json").read_text())
        want_rate = math.log(1.0 / a) / 12.0
        if abs(summary["growth_rate"] - want_rate) > RATE_TOL:
            problems.append(f"{kind}: growth rate {summary['growth_rate']!r}, "
                            f"predicted {want_rate!r}")
        if summary["growth_window"] != [300, 500]:
            problems.append(f"{kind}: growth window {summary['growth_window']}")
        return problems

    return Op(kind, argv, check)


def kept_failure_op(argv: list[str], space, lam, a, s, horizon, kind) -> Op:
    """An operation that fails on every run because of a known fault.

    Its inputs do not depend on the seed.  Should the fault be mended, the
    output is checked like any other classify verdict.
    """
    def check(out: str) -> list[str]:
        return check_verdict(parse_json(out), space, lam, a, s, horizon, 1024,
                             1e-10, 1e3, kind)

    return Op(kind, argv, check, kept_failure=True)


# ---------------------------------------------------------------- workloads


def coefficient_norms(rng, out_dir: Path) -> list[Op]:
    lam_r, a_r, s_r = (0.75, 0.85), (0.15, 0.3), (-0.45, -0.35)
    eps, gf = 1e-10, 1e3
    return [
        classify_op(rng, "h2", (300, 500), 1024, eps, gf, lam_r, a_r, s_r, "classify-h2"),
        classify_op(rng, f"bergman:2:{_u(rng, -0.5, 1.0)!r}", (300, 500), 1024, eps, gf,
                    lam_r, a_r, s_r, "classify-bergman2"),
        kept_failure_op(["classify", "--w", "0.9*z", "--phi-affine", "0.25",
                         "--space", "hinf", "--horizon", "400"],
                        ("hinf",), 0.9, 0.25, -0.4, 400, "classify-hinf"),
        sweep_op(rng, 300, eps, gf, "sweep-h2"),
        preset_weighted_op(rng, out_dir / "preset-weighted", 500, lam_r, a_r, s_r,
                           "preset-weighted"),
        preset_unweighted_op(rng, out_dir / "preset-unweighted", (0.15, 0.45),
                             "preset-unweighted"),
        weights_op(rng, "hinf", (300, 500), (0.75, 0.95), (0.15, 0.45), "weights-hinf"),
    ]


def quadrature_norms(rng, out_dir: Path) -> list[Op]:
    # Thresholds suited to horizon 60, so both channels fire in H^p.
    eps, gf = 1e-4, 10.0
    lam_r, a_r, s_r = (0.65, 0.75), (0.05, 0.15), (-0.24, -0.12)
    ops = []
    for token in ("h3", "h1.5", "h4"):
        ops.append(classify_op(rng, token, (60, 60), 512, eps, gf, lam_r, a_r, s_r,
                               f"classify-{token}"))
        ops.append(orbit_op(rng, token, (60, 60), 512, lam_r, a_r, s_r, f"orbit-{token}"))
    for p in ("3", "1.5"):
        # beta above ~0.9 adds a doubling for p = 1.5: keep the grid sizes fixed.
        token = f"bergman:{p}:{_u(rng, -0.5, 0.5)!r}"
        ops.append(classify_op(rng, token, (4, 4), 256, 1e-10, 1e3, lam_r, a_r, s_r,
                               f"classify-bergman{p}"))
        ops.append(orbit_op(rng, token, (4, 4), 256, lam_r, a_r, s_r, f"orbit-bergman{p}"))
    ops.append(eigen_op(rng, 3.0, 1024, (0.1, 0.45), (-0.3, 0.5), "eigen-h3"))
    return ops


def long_horizon(rng, out_dir: Path) -> list[Op]:
    # Horizons are fixed: their cost is quadratic, the draws only move values.
    return [
        classify_op(rng, "h2", (1500, 1500), 1024, 1e-10, 1e3, (0.85, 0.95), (0.2, 0.35),
                    (-0.35, -0.2), "classify-h2"),
        preset_weighted_op(rng, out_dir / "preset-weighted", 1500, (0.85, 0.95), (0.2, 0.35),
                           (-0.35, -0.2), "preset-weighted"),
        weights_op(rng, "h2", (3000, 3000), (0.92, 0.98), (0.15, 0.45), "weights-h2"),
        weights_op(rng, "hinf", (3000, 3000), (0.85, 0.98), (0.15, 0.45), "weights-hinf"),
        orbit_op(rng, "h2", (3000, 3000), 1024, (0.9, 0.98), (0.2, 0.4), (-0.3, -0.1),
                 "orbit-h2", max_rate=0.2),
        kept_failure_op(["classify", "--w", "0.9*z", "--phi-affine", "0.25",
                         "--space", "h2", "--horizon", "2000"],
                        ("h", 2.0), 0.9, 0.25, -0.4, 2000, "classify-h2-2000"),
    ]


def operator_configs(ops: list[Op]) -> list[dict]:
    """The (w, phi) pairs of a round, as ExperimentConfig fields."""
    configs = []
    for op in ops:
        if "--w" in op.argv:
            i, j = op.argv.index("--w"), op.argv.index("--phi-affine")
            configs.append({"weight": op.argv[i + 1], "phi_affine": float(op.argv[j + 1])})
    return configs


# op_s.tail is the highest percentile with ten samples beyond it at the
# workload's minimum sample count (100 for p90, 40 for p75).
WORKLOADS = {
    "coefficient-norms": Workload("coefficient-norms", coefficient_norms, 90),
    "quadrature-norms": Workload("quadrature-norms", quadrature_norms, 90),
    "long-horizon": Workload("long-horizon", long_horizon, 75),
}
