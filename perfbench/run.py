#!/usr/bin/env python3
"""magsphere benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Run from anywhere; magsphere is imported from the `src/` directory next to
this one.  The workload's inputs are generated from `--seed` in set-up; the
run then repeats one pass over them, one item at a time in one process,
until `--seconds` have passed and enough items ran for the tail percentile.
Every item's outputs go through the workload's gates.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
THREAD_PINS = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("orbits", "atlas", "general")
SETUP_REPEATS = 7        # set-ups per run: this process plus six fresh ones
# On a shared host, neighbours slow a repetition by up to 1.6x for seconds at
# a time, and the share of a run they do so differs from run to run.  An item's time
# is therefore the upper quartile of its repetitions over the run's passes:
# it measures every item in the loaded state, which nearly every run reaches.
ITEM_PCT = 75
HARD_LIMIT_S = 150.0     # stop repeating passes after this long, whatever the count
LAYERS = ("reduced", "fullspace", "equilibria", "stability", "symmetry", "atlas", "bench")

# Per-call times of the ROADMAP re-anchor table (us; min of 3, 2 cores).
ROADMAP_US = {
    "rhs": 5.0,
    "full_rhs": 90.0,
    "type1": 49.0,
    "type2": 47.0,
    "solve_general": 1800.0,
    "linearize (no Hessian)": 170.0,
    "reduced RK4 step": 40.0,
    "full RK4 step": 532.0,
}


def load():
    """Import magsphere from this checkout's src/, then the workloads."""
    src = ROOT / "src"
    if not (src / "magsphere" / "__init__.py").is_file():
        raise ImportError(f"no magsphere package under {src}")
    sys.path.insert(0, str(src))
    import magsphere

    if Path(magsphere.__file__).resolve().parent != src / "magsphere":
        raise ImportError(f"imported magsphere from {magsphere.__file__}, not {src}")
    import workloads

    return magsphere, workloads


def child_setup_seconds(workload: str, seed: int, n: int) -> list:
    """Set-up time measured in `n` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


@dataclass
class Pass:
    traced: bool
    wall: float
    item_s: list
    tally: object
    trace_counts: tuple = ()


def run_passes(wl, W, seconds: float, tracer=None, package=None) -> list:
    """Repeat the pass until `seconds` are up and at least `wl.min_items`
    items ran.  With a tracer, passes alternate untraced and traced."""
    passes = []
    start = perf_counter()
    item_id = 0
    extra = (("symmetry.check", W, "opposite_charge_residuals"),)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        tally = W.Tally()
        item_s = []
        if traced:
            before = tracer.counts()
            tracer.install(package, extra)
        t0 = perf_counter()
        for i in range(len(wl.items)):
            s = perf_counter()
            if traced:
                tracer.item = item_id
                tracer.open("bench.item")
            try:
                W.run_item(wl, i, tally)
            finally:
                if traced:
                    tracer.close()
            item_s.append(perf_counter() - s)
            item_id += 1
        wall = perf_counter() - t0
        counts = ()
        if traced:
            tracer.uninstall()
            counts = tuple(a - b for a, b in zip(tracer.counts(), before))
        passes.append(Pass(traced, wall, item_s, tally, counts))
        elapsed = perf_counter() - start
        if tracer is None:
            enough = sum(len(p.item_s) for p in passes) >= wl.min_items
        else:
            enough = len(passes) >= 2
        if (elapsed >= seconds and enough) or elapsed >= HARD_LIMIT_S:
            return passes


def consistency_errors(passes) -> list:
    """Every pass must leave the same tally, and every traced pass the same
    traced counts; otherwise the run is not deterministic."""
    errors = []
    first = passes[0].tally.fingerprint()
    for k, p in enumerate(passes[1:], start=1):
        if p.tally.fingerprint() != first:
            errors.append(f"pass {k} tally differs from pass 0")
    traced = [p.trace_counts for p in passes if p.traced]
    if len(set(traced)) > 1:
        errors.append(f"traced counts differ between passes: {traced}")
    return errors


def outcome(wl, passes) -> tuple:
    """(attempted, failed) for the result line.  Every pass runs the same
    inputs and must leave the same tally, so the operations are the inputs
    of one pass: their count and their failures depend on the seed alone,
    not on how many passes the time allowed."""
    return len(wl.items), passes[0].tally.failed_items()


def end_to_end(passes, wl, setups) -> dict:
    import numpy as np

    item_s = np.array([p.item_s for p in passes])     # passes x items
    item = np.percentile(item_s, ITEM_PCT, axis=0)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (float(item.sum()), "s"),
        "item_p50_ms": (1e3 * float(np.median(item)), "ms"),
        "item_tail_ms": (1e3 * float(np.percentile(item_s, wl.tail_pct)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(passes, wl, tracer) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    counts, worst = passes[0].tally.counts, passes[0].tally.worst
    spans = tracer.by_name()
    CALLS, TOTAL, SELF = range(3)

    def agg(field, *names):
        return sum(spans[k][field] for k in names if k in spans)

    def per(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    def us(field, *names):
        return per(agg(field, *names), agg(CALLS, *names))

    rhs_calls, rhs_s = tracer.hot["reduced.rhs"]
    frhs_calls, frhs_s = tracer.hot["fullspace.full_rhs"]
    closed = ("equilibria.type1", "equilibria.type2")
    m = {
        "reduced.step_us": (per(agg(SELF, "reduced.integrate"), n * counts["steps"]), "us"),
        "reduced.steps": (counts["steps"], "count"),
        "reduced.rhs_us": (per(rhs_s, rhs_calls), "us"),
        "reduced.rhs_calls": (rhs_calls / n, "count"),
        "reduced.to_csv_s": (agg(TOTAL, "reduced.to_csv") / n, "s"),
        "reduced.max_drift": (worst.get("drift", 0.0), "1"),
        "fullspace.step_us": (
            per(agg(SELF, "fullspace.full_integrate"), n * counts["full_steps"]), "us"),
        "fullspace.full_rhs_us": (per(frhs_s, frhs_calls), "us"),
        "fullspace.full_rhs_calls": (frhs_calls / n, "count"),
        "fullspace.lift_reduce_s": (
            agg(TOTAL, "fullspace.lift_state", "fullspace.reduce_state") / n, "s"),
        "fullspace.to_csv_s": (agg(TOTAL, "fullspace.to_csv") / n, "s"),
        "fullspace.max_phi_drift": (worst.get("phi_drift", 0.0), "1"),
        "fullspace.max_crossval_err": (worst.get("crossval", 0.0), "1"),
        "equilibria.closed_form_us": (us(SELF, *closed), "us"),
        "equilibria.closed_form_calls": (agg(CALLS, *closed) / n, "count"),
        "equilibria.solve_general_us": (us(TOTAL, "equilibria.solve_general"), "us"),
        "equilibria.solve_general_calls": (agg(CALLS, "equilibria.solve_general") / n, "count"),
        "equilibria.right_angle_us": (us(TOTAL, "equilibria.solve_right_angle"), "us"),
        "equilibria.records": (tracer.records / n, "count"),
        "equilibria.max_residual": (tracer.max_residual, "1"),
        "stability.linearize_us": (us(SELF, "stability.linearize"), "us"),
        "stability.linearize_calls": (agg(CALLS, "stability.linearize") / n, "count"),
        "stability.hessian_us": (us(TOTAL, "stability.hessian_signature"), "us"),
        "stability.stable": (counts["LinearlyStable"], "count"),
        "stability.unstable": (counts["LinearlyUnstable"], "count"),
        "stability.degenerate": (counts["Degenerate"], "count"),
        "symmetry.check_s": (agg(TOTAL, "symmetry.check") / n, "s"),
        "symmetry.checks": (counts["checks"], "count"),
        "atlas.stability_grid_self_s": (agg(SELF, "atlas.stability_grid") / n, "s"),
        "atlas.ec_self_s": (agg(SELF, "atlas.energy_casimir_diagram") / n, "s"),
        "atlas.bc_self_s": (agg(SELF, "atlas.bc_region") / n, "s"),
        "atlas.cells": (counts["cells"], "count"),
        "atlas.cusps": (counts["cusps"], "count"),
        "atlas.gate_failures": (counts["gate_failures"], "count"),
        "atlas.type1_dropped": (counts["type1_dropped"], "count"),
        "core.table_potential_s": (wl.table_potential_s, "s"),
    }
    for layer in LAYERS:
        names = [k for k in spans if k.split(".")[0] == layer]
        m[f"{layer}.self_s"] = (agg(SELF, *names) / n, "s")
    traced_wall = sum(p.wall for p in traced)
    m["trace.wall_s"] = (statistics.median(p.wall for p in traced), "s")
    m["trace.gap_frac"] = ((traced_wall - agg(SELF, *spans)) / traced_wall, "1")
    m["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0,
        "1",
    )
    return m


def roadmap_rows(metrics: dict, tracer) -> list:
    """(name, measured us per call, ROADMAP us per call) where measured."""
    spans = tracer.by_name()

    def span_us(name):
        c, _total, self_s = spans.get(name, (0, 0.0, 0.0))
        return 1e6 * self_s / c if c else 0.0

    measured = {
        "rhs": metrics["reduced.rhs_us"][0],
        "full_rhs": metrics["fullspace.full_rhs_us"][0],
        "type1": span_us("equilibria.type1"),
        "type2": span_us("equilibria.type2"),
        "solve_general": metrics["equilibria.solve_general_us"][0],
        "linearize (no Hessian)": metrics["stability.linearize_us"][0],
        "reduced RK4 step": metrics["reduced.step_us"][0],
        "full RK4 step": metrics["fullspace.step_us"][0],
    }
    return [(k, v, ROADMAP_US[k]) for k, v in measured.items() if v > 0]


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    start = perf_counter()
    try:
        magsphere, W = load()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = W.build(args.workload, args.seed)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import numpy
    import scipy

    tracer = None
    setups = [setup_s]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setups += child_setup_seconds(args.workload, args.seed, SETUP_REPEATS - 1)

    passes = run_passes(wl, W, args.seconds, tracer, magsphere)
    errors = consistency_errors(passes)
    attempted, failed = outcome(wl, passes)
    items_run = sum(len(p.item_s) for p in passes)
    failures = passes[0].tally.failures
    unexplained = [f for f in failures if not f.known]
    if args.trace:
        metrics = per_layer(passes, wl, tracer)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = end_to_end(passes, wl, setups)

    print(f"magsphere benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if args.trace:
        print("  per-call times against the ROADMAP re-anchor table (us):")
        for name, got, ref in roadmap_rows(metrics, tracer):
            flag = "  (>2x apart, see README.md)" if max(got / ref, ref / got) > 2 else ""
            print(f"    {name:24s} {got:10.1f}  ROADMAP {ref:8.1f}  ratio {got / ref:5.2f}{flag}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **git_state(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "magsphere": magsphere.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "inputs_sha256": wl.digest,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "items_run": items_run,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "tail_percentile": wl.tail_pct,
        "items_beyond_tail": round(
            sum(len(p.item_s) for p in passes if not p.traced) * (1 - wl.tail_pct / 100), 1),
        "setup_samples_s": setups,
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "pass_counts": dict(sorted(passes[0].tally.counts.items())),
        "pass_worst": passes[0].tally.worst,
        "pass_failures": [
            [f.item, f.reason, "known" if f.known else "unexplained"] for f in failures
        ],
        "consistency_errors": errors,
    }
    print("provenance " + json.dumps(provenance))
    result = {
        "correct": not errors and not unexplained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
