"""Command-line surface: weights | orbit | classify | sweep | eigen | preset.

Sequences are written as CSV with columns n, norm, cesaro_mean, running_min,
running_max; verdicts as JSON with kind, citation, witnesses, thresholds and
a config echo.  Identical configs produce bit-identical output files: floats
are rendered with shortest round-trip repr and nothing time-dependent is
emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .chaos import ChaosVerdict, eigen_residual, fit_window, growth_rate_fit, sequence_stats
from .experiments import (SCHEMA_VERSION, ClassifyResult, ExperimentConfig,
                          build_operator, candidate_orbit, parse_candidate,
                          run_classify, sweep_task)
from .iterates import weight_iterates
from .operators import NormSequence, orbit_norm_sequence, weight_norm_sequence
from .series import AnalyticPoly
from .spaces import parse_space, require_in_space

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def sequence_csv(seq: NormSequence, extra: dict | None = None) -> str:
    """Render a norm sequence per the fixed column schema (plus optional extras).

    A non-finite cell is an error naming its row and column, never an inf or
    nan in the file.
    """
    v = seq.values
    columns = {"norm": v, "cesaro_mean": sequence_stats(v).cesaro,
               "running_min": np.minimum.accumulate(v),
               "running_max": np.maximum.accumulate(v), **(extra or {})}
    table = np.column_stack([np.asarray(col, dtype=np.float64) for col in columns.values()])
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"non-finite {table[i, j]} at row n={i + 1}, column "
                         f"{list(columns)[j]}: a norm or its running mean overflowed a "
                         "double, and the CSV output admits no inf or nan")
    lines = [",".join(["n", *columns])]
    for n, row in enumerate(table, start=1):
        lines.append(",".join([str(n), *map(_fmt, row.tolist())]))
    return "\n".join(lines) + "\n"


def verdict_dict(v: ChaosVerdict, config: ExperimentConfig) -> dict:
    return {
        "kind": v.kind,
        "citation": v.citation,
        "decay_witness": None if v.decay is None else
            {"n": v.decay.index, "value": v.decay.value},
        "growth_witness": None if v.growth is None else
            {"channel": v.growth.channel, "orbit": v.growth.orbit,
             "n": v.growth.index, "value": v.growth.value, "rate": v.growth.rate},
        "thresholds": {"epsilon": v.epsilon, "growth_factor": v.growth_factor,
                       "horizon": v.horizon},
        "config": config.to_dict(),
    }


def _nonfinite_key(obj, path: str = "") -> str | None:
    """Dotted path of the first non-finite float in a JSON payload, if any."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else path
    if isinstance(obj, (dict, list, tuple)):
        items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            found = _nonfinite_key(value, f"{path}.{key}" if path else str(key))
            if found is not None:
                return found
    return None


def json_text(payload: dict) -> str:
    """Deterministic JSON text; a non-finite number is an error, never Infinity."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        key = _nonfinite_key(payload)
        raise ValueError(f"non-finite number at {key}: a norm overflowed a double, "
                         "and the JSON output admits no Infinity or NaN") from None


def classify_json(result: ClassifyResult) -> str:
    return json_text({
        "schema_version": SCHEMA_VERSION,
        "li_yorke": verdict_dict(result.li_yorke, result.config),
        "mean_li_yorke": verdict_dict(result.mean_li_yorke, result.config),
    })


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = ExperimentConfig.from_dict(json.load(fh))
        return config
    candidates = [parse_candidate(c) for c in getattr(args, "candidates", None) or []]
    if not candidates:
        candidates = [{"s": -0.4, "k": 0}]
    phi_poly = None
    if getattr(args, "phi_poly", None):
        phi_poly = [float(p) for p in args.phi_poly.split(",")]
    return ExperimentConfig(
        weight=args.w,
        phi_affine=None if phi_poly is not None else args.phi_affine,
        phi_poly=phi_poly,
        space=args.space,
        degree=args.degree,
        horizon=args.horizon,
        epsilon=args.eps,
        growth_factor=args.growth_factor,
        candidates=candidates,
        max_degree=getattr(args, "max_degree", None),
        sup_side=getattr(args, "sup_side", "lower"),
    )


def _add_symbol_args(p: argparse.ArgumentParser, horizon_default: int = 500) -> None:
    p.add_argument("--w", default="1", help="weight: 'lam*z', coefficient list 'c0,c1,..' or constant")
    p.add_argument("--phi-affine", dest="phi_affine", type=float, default=None,
                   help="a parameter of the affine self-map a*z + 1 - a")
    p.add_argument("--phi-poly", dest="phi_poly", default=None,
                   help="polynomial self-map coefficients 'c0,c1,...' (grid-validated)")
    p.add_argument("--space", default="h2", help="h<p>, bergman:<p>:<beta> or hinf")
    p.add_argument("--horizon", type=int, default=horizon_default)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=None,
                   help="degree cap (required for polynomial self-maps)")
    p.add_argument("--sup-side", dest="sup_side", choices=("lower", "upper"), default="lower",
                   help="which sup-norm bracket side to report in hinf")


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=int, default=1024, help="candidate truncation degree")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--growth-factor", dest="growth_factor", type=float, default=1e3)
    p.add_argument("--candidates", nargs="*", default=None,
                   help="candidate vectors, each 's=<exponent>[,k=<power>]'")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 0:
        raise ValueError("grid count must be nonnegative")
    return np.linspace(start, stop, count)


def cmd_weights(args) -> int:
    config = _config_from_args(args)
    op = build_operator(config)
    iterates = weight_iterates(op.w, op.phi, config.horizon, max_degree=config.max_degree)
    seq = weight_norm_sequence(iterates, config.space_spec(), sup_side=config.sup_side)
    _emit(sequence_csv(seq), args.out)
    return 0


def cmd_orbit(args) -> int:
    config = _config_from_args(args)
    op = build_operator(config)
    spec = config.space_spec()
    if args.poly_coeffs:
        f = AnalyticPoly([float(c) for c in args.poly_coeffs.split(",")])
        seq = orbit_norm_sequence(op, f, spec, config.horizon,
                                  cache=op.build_cache(config.horizon, max_degree=config.max_degree),
                                  sup_side=config.sup_side)
    else:
        cand = config.candidates[0]
        require_in_space(spec, cand["s"])
        cache = None if op.phi.fixes_one() else op.build_cache(config.horizon,
                                                               max_degree=config.max_degree)
        seq = candidate_orbit(op, cand, spec, config.degree, config.horizon,
                              cache=cache, sup_side=config.sup_side)
    _emit(sequence_csv(seq), args.out)
    return 0


def cmd_classify(args) -> int:
    config = _config_from_args(args)
    result = run_classify(config)
    _emit(classify_json(result), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.grid_lambda and args.grid_a:
        kind = "lambda-a"
        xs, ys = _parse_grid(args.grid_lambda), _parse_grid(args.grid_a)
    elif args.grid_p and args.grid_beta:
        kind = "p-beta"
        xs, ys = _parse_grid(args.grid_p), _parse_grid(args.grid_beta)
    else:
        raise ValueError("sweep needs --grid-lambda with --grid-a, or --grid-p with --grid-beta")
    if len(xs) * len(ys) > 10_000:
        raise ValueError("sweep grid exceeds 10000 cells")
    base = _config_from_args(args).to_dict()
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    if kind == "lambda-a":
        tasks = [(kind, xs, y, base) for y in ys]  # one per a column
    else:
        tasks = [(kind, [x], y, base) for x in xs for y in ys]  # one per cell
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            columns = list(pool.map(sweep_task, tasks))
    else:
        columns = [sweep_task(t) for t in tasks]
    # Grid order, x outer and y inner: the i-th rows of the lambda-a columns
    # form row i of the grid, and the one-cell p-beta tasks are already in it.
    rows = [row for cells in zip(*columns) for row in cells]

    xname, yname = ("lam", "a") if kind == "lambda-a" else ("p", "beta")
    header = [xname, yname, "space", "li_kind", "mean_kind", "decay_n", "decay_value",
              "growth_channel", "growth_orbit", "growth_n", "growth_value", "growth_rate",
              "epsilon", "growth_factor", "horizon"]
    lines = [",".join(header)]
    space = base["space"] if kind == "lambda-a" else "bergman"
    for row in rows:
        li = row["li"]
        d = [None, None] if li.decay is None else [li.decay.index, li.decay.value]
        if li.growth is None:
            g = [None] * 5
        else:
            g = [li.growth.channel, li.growth.orbit, li.growth.index, li.growth.value,
                 li.growth.rate]
        cells = [row["x"], row["y"], space, li.kind, row["mean"].kind, *d, *g,
                 li.epsilon, li.growth_factor, li.horizon]
        for name, cell in zip(header, cells):
            if isinstance(cell, float) and not np.isfinite(cell):
                raise ValueError(f"non-finite {cell} in sweep cell {xname}={row['x']!r}, "
                                 f"{yname}={row['y']!r}, column {name}: a norm overflowed a "
                                 "double, and the CSV output admits no inf or nan")
        lines.append(",".join("" if c is None else _fmt(c) for c in cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eigen(args) -> int:
    spec = parse_space(args.space)
    res = eigen_residual(args.a, args.s, spec, args.degree)
    payload = {"schema_version": SCHEMA_VERSION, "residual": res,
               "config": {"a": args.a, "s": args.s, "space": args.space,
                          "degree": args.degree}}
    _emit(json_text(payload), args.out)
    return 0


def cmd_preset(args) -> int:
    # Every file is rendered before the directory is touched, so a run that
    # fails leaves no partial output behind.
    files = {}
    if args.name == "weighted":
        config = ExperimentConfig(weight=f"{args.lam!r}*z", phi_affine=args.a,
                                  space=args.space, degree=args.degree,
                                  horizon=args.horizon, epsilon=args.eps,
                                  growth_factor=args.growth_factor,
                                  candidates=[{"s": args.s, "k": 0}])
        result = run_classify(config)
        files["verdict.json"] = classify_json(result)
        files["weights.csv"] = sequence_csv(result.weight_seq)
        for i, orbit in enumerate(result.orbit_seqs):
            files[f"orbit_{i}.csv"] = sequence_csv(orbit)
    elif args.name == "unweighted":
        # Unweighted control: the weight norms stay at 1 (no decay channel)
        # while eigen-structured candidates still certify unbounded growth.
        config = ExperimentConfig(weight="1", phi_affine=args.a, space=args.space,
                                  degree=args.degree, horizon=args.horizon,
                                  epsilon=args.eps, growth_factor=args.growth_factor,
                                  candidates=[{"s": 0.25, "k": k} for k in (0, 1, 2)])
        op = build_operator(config)
        spec = config.space_spec()
        # phi fixes 1, so every candidate takes the closed-form route and
        # the weight norms stream: no iterate cache is built.
        files["weights.csv"] = sequence_csv(weight_norm_sequence(
            weight_iterates(op.w, op.phi, config.horizon), spec, sup_side=config.sup_side))
        n = np.arange(1, config.horizon + 1)
        for k in (0, 1, 2):
            seq = candidate_orbit(op, {"s": 0.25, "k": k}, spec, config.degree,
                                  config.horizon)
            bound = args.a ** (n / 4.0) * 2.0**0.25 * (args.a**n + 1.0) ** k
            files[f"decay_k{k}.csv"] = sequence_csv(seq, extra={"bound": bound})
        growth = candidate_orbit(op, {"s": -1.0 / 12.0, "k": 0}, spec,
                                 max(config.degree, 2048), config.horizon)
        files["growth.csv"] = sequence_csv(growth)
        rate = growth_rate_fit(growth, fit_window(config.horizon))
        summary = {"schema_version": SCHEMA_VERSION,
                   "growth_rate": rate,
                   "growth_window": list(fit_window(config.horizon)),
                   "config": config.to_dict()}
        files["summary.json"] = json_text(summary)
    else:
        raise ValueError(f"unknown preset {args.name!r}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcochaos",
        description="Norm sequences and finite-horizon chaos certificates for "
                    "weighted composition operators on disk function spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="weight-iterate norm sequence as CSV")
    _add_symbol_args(p, horizon_default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_weights, degree=1024, eps=1e-10, growth_factor=1e3, candidates=None)

    p = sub.add_parser("orbit", help="orbit norm sequence for one candidate as CSV")
    _add_symbol_args(p)
    _add_threshold_args(p)
    p.add_argument("--poly-coeffs", dest="poly_coeffs", default=None,
                   help="orbit of an explicit polynomial instead of an eigen candidate")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("classify", help="run both chaos certificates, JSON verdicts")
    _add_symbol_args(p)
    _add_threshold_args(p)
    p.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="verdict table over a parameter grid")
    _add_symbol_args(p)
    _add_threshold_args(p)
    for axis in ("lambda", "a", "p", "beta"):
        p.add_argument(f"--grid-{axis}", dest=f"grid_{axis}", default=None,
                       help=f"start:stop:count; a negative start needs the = form "
                            f"--grid-{axis}=start:stop:count")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("eigen", help="eigen-relation residual for (1-z)^s under a*z+1-a")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--space", default="h2")
    p.add_argument("--degree", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("preset", help="bundled experiment families")
    p.add_argument("name", choices=("weighted", "unweighted"))
    p.add_argument("--lam", type=float, default=0.9, help="weight scale (weighted preset)")
    p.add_argument("--a", type=float, default=0.25)
    p.add_argument("--s", type=float, default=-0.4, help="candidate exponent (weighted preset)")
    p.add_argument("--space", default="h2")
    p.add_argument("--degree", type=int, default=1024)
    p.add_argument("--horizon", type=int, default=500)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--growth-factor", dest="growth_factor", type=float, default=1e3)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(fn=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
