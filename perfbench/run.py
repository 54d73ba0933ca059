"""wcochaos benchmark: seeded rounds of in-process CLI calls, checked outputs.

    python3 perfbench/run.py --workload coefficient-norms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, both modes
    python3 perfbench/run.py --smoke                         # one round of each, all checks

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  See perfbench/README.md for what each metric means.
"""

import os

# One caller, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_STARTS = 7


def _require_source() -> None:
    if not (SRC / "wcochaos" / "__init__.py").is_file():
        print(f"error: wcochaos sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup(configs: list, starts: int) -> dict:
    """Median wall time of fresh interpreters that import wcochaos and build operators."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports = [], []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_child.py"), json.dumps(configs)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports)}


def execute(op, cli_main) -> dict:
    """Run one operation, time it, and check what it wrote."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op.argv)
    except Exception:  # the benchmark keeps running and reports the traceback
        rc = traceback.format_exc()
    dt = time.perf_counter() - t0
    failed, problems = rc != 0, []
    t1 = time.perf_counter()
    if failed:
        reason = rc if isinstance(rc, str) else err.getvalue().strip()
    else:
        try:
            problems = op.check(out.getvalue())
        except workloads.OutputError as exc:
            failed, reason = True, str(exc)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            problems = [f"{op.kind}: output could not be read: {exc!r}"]
    if failed and not op.kept_failure:
        problems.append(f"{op.kind}: unexpected failure: {reason}")
    return {"kind": op.kind, "seconds": dt, "failed": failed, "problems": problems,
            "check_s": time.perf_counter() - t1}


def nearest_rank(values: list, percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * percentile / 100) - 1)]


def min_samples(percentile: int) -> int:
    """Samples needed for ten beyond the percentile."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    out_dir = OUT / f"{wl.name}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm = wl.make(rng, out_dir)
        setup = measure_setup(workloads.operator_configs(warm), 1 if smoke else SETUP_STARTS)
        from wcochaos import cli

        records, traced, problems = [], [], []  # records: the untraced executions
        for op in warm:  # warm-up: every kind once, checked, not timed
            problems += execute(op, cli.main)["problems"]
        tracer = Tracer() if trace else None
        # op_s.tail needs its sample count; traced runs report no percentiles.
        need = 0 if smoke or trace else min_samples(wl.tail_percentile)
        timed = 0.0
        rounds = 0
        while True:
            ops = wl.make(rng, out_dir)
            for pos, i in enumerate(rng.permutation(len(ops))):
                # A traced run executes each operation traced and untraced on
                # the same inputs, in alternating order, so drift hits both.
                sides = (False,) if tracer is None else (
                    (True, False) if (rounds + pos) % 2 == 0 else (False, True))
                for traced_side in sides:
                    if traced_side:
                        tracer.op += 1
                        tracer.install()
                        try:
                            rec = execute(ops[i], cli.main)
                        finally:
                            tracer.uninstall()
                    else:
                        rec = execute(ops[i], cli.main)
                    (traced if traced_side else records).append(rec)
                    timed += rec["seconds"]
                    problems += rec["problems"]
            rounds += 1
            ok = sum(not r["failed"] for r in (traced if tracer else records))
            if timed >= seconds and ok >= need:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    done = traced if tracer else records
    attempted = len(done)
    failed = sum(r["failed"] for r in done)
    if tracer is None:
        metrics = end_to_end(records, setup, wl.tail_percentile)
    else:
        metrics = per_layer(tracer, traced, records, setup)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}-{seed}.npz")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    report(wl, done, rounds, setup)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def end_to_end(records: list, setup: dict, tail_percentile: int) -> dict:
    ok = [r["seconds"] for r in records if not r["failed"]]
    busy = sum(r["seconds"] for r in records)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "ops_per_s": {"value": len(ok) / busy, "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(ok), "unit": "s"},
        "op_s.tail": {"value": nearest_rank(ok, tail_percentile), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def per_layer(tracer, traced: list, plain: list, setup: dict) -> dict:
    """Per traced operation: seconds in each layer, calls, and the tracing overhead."""
    totals = tracer.totals()
    n_ops = len(traced)

    def per_op(name, field):
        return totals[name][field] / n_ops

    def rate(recs):
        return sum(not r["failed"] for r in recs) / sum(r["seconds"] for r in recs)

    traced_rate, plain_rate = rate(traced), rate(plain)
    values = {
        "setup.import_s": (setup["import_s"], "s"),
        "experiments.build_operator_s": (per_op("experiments.build_operator", "total_s"), "s/op"),
        "iterates.build_cache_s": (per_op("iterates.build_cache", "total_s"), "s/op"),
        "iterates.cache_mb": (tracer.max_cache_mb, "MB"),
        "series.compose_affine_s": (per_op("series.compose_affine", "total_s"), "s/op"),
        "series.compose_affine_calls": (per_op("series.compose_affine", "calls"), "calls/op"),
        "series.binomial_series_s": (per_op("series.binomial_series", "total_s"), "s/op"),
        "symbols.iterate_s": (per_op("symbols.iterate", "total_s"), "s/op"),
        "operators.weight_norms_self_s": (per_op("operators.weight_norms", "self_s"), "s/op"),
        "operators.orbit_self_s": (per_op("operators.orbit", "self_s"), "s/op"),
        "spaces.norm_calls": (per_op("spaces.space_norm", "calls"), "calls/op"),
        "spaces.h2_s": (per_op("spaces.h2", "total_s"), "s/op"),
        "spaces.bergman2_s": (per_op("spaces.bergman2", "total_s"), "s/op"),
        "spaces.sup_bracket_s": (per_op("spaces.sup_bracket", "total_s"), "s/op"),
        "spaces.hp_quad_s": (per_op("spaces.hp_quad", "total_s"), "s/op"),
        "spaces.bergman_quad_s": (per_op("spaces.bergman_quad", "total_s"), "s/op"),
        "chaos.certify_s": (per_op("chaos.certify", "total_s"), "s/op"),
        "chaos.eigen_residual_s": (per_op("chaos.eigen_residual", "total_s"), "s/op"),
        "cli.render_s": (per_op("cli.render", "total_s"), "s/op"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (plain_rate / traced_rate - 1.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def report(wl, records: list, rounds: int, setup: dict) -> None:
    """Human-readable summary on standard error."""
    ok = [r for r in records if not r["failed"]]
    print(f"# {wl.name}: {rounds} timed rounds, {len(records)} operations, "
          f"{len(ok)} succeeded; op_s.tail = p{wl.tail_percentile} of {len(ok)} samples; "
          f"setup median {setup['setup_s']:.3f} s (import {setup['import_s']:.3f} s)",
          file=sys.stderr)
    kinds = sorted({r["kind"] for r in records})
    for k in kinds:
        mine = [r for r in records if r["kind"] == k]
        t = statistics.median(r["seconds"] for r in mine)
        c = statistics.median(r["check_s"] for r in mine)
        bad = sum(r["failed"] for r in mine)
        print(f"#   {k:22s} n={len(mine):4d} failed={bad:3d} median={t:.4f} s check={c:.4f} s",
              file=sys.stderr)


def run_all(seconds: float, seed: int) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not res["correct"]
            print(f"{name} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:32s} {v['value']:.6g} {v['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, traced and untraced, all checks")
    args = parser.parse_args()
    if args.smoke:
        results = {name: run_workload(wl, args.seed, 0.0, trace=True, smoke=True)
                   for name, wl in workloads.WORKLOADS.items()}
        for name, res in results.items():
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload == "all":
        return run_all(args.seconds, args.seed)
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _require_source()
    sys.path.insert(0, str(SRC))
    sys.exit(main())
