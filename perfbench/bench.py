"""One benchmark run in a fresh process; perfbench/run.py starts it.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T

T is the wall-clock time (time.time()) at which the parent started this
process, so setup_s covers interpreter start, `import sixvertex` and building
and validating the workload's grids. The process then runs whole rounds of
the workload until S seconds have passed, checks every value the program
returned, and prints one JSON line.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (the median over
the run's rounds of the round's summed operation wall times) and peak_rss_mb
(peak resident memory when the rounds end, before the checks). Both times
are rescaled to the reference speed of pace.py: setup_s by the yardstick
timed right after the set-up, each operation by the yardstick timed around
it. The measured times go to standard error.
--trace 1 runs untraced rounds for half the time and traced rounds for the
rest, reports the per-layer metrics (set-up plus one traced round, averaged
over the traced rounds) and trace.overhead_s (traced minus untraced wall_s),
and writes the spans to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import builtins
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

from pace import UNIT_S, Clock, per_unit

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "traces"

LAYER_TIMES = {
    # metric: span name; every _s metric is summed self time, except the
    # acceptance criteria, which are whole
    "grid.build_s": "grid.build",
    "grid.validate_s": "grid.validate",
    "classify.in_P_s": "classify.in_P",
    "classify.in_A_s": "classify.in_A",
    "classify.classify_s": "classify.classify",
    "contract.plan_s": "contract.plan",
    "contract.eval_s": "contract.eval",
    "solvers.solve_P_s": "solvers.solve_P",
    "solvers.solve_A_s": "solvers.solve_A",
    "solvers.solve_M_s": "solvers.solve_M",
    "gf2.reduce_s": "gf2.reduce",
    "gf2.gauss_sum_s": "gf2.gauss_sum",
    "evaluate.brute_s": "evaluate.brute",
}
LAYER_COUNTS = (
    "grid.validate_calls",
    "scalar.mul_calls",
    "scalar.add_calls",
    "scalar.div_calls",
    "classify.in_P_calls",
    "classify.in_A_calls",
    "gf2.substitute_calls",
    "evaluate.brute_assignments",
)
CRITERIA = 9
SETUP_PACE_S = 0.3


def import_program():
    """Import sixvertex from this checkout's src/; returns (package, import
    seconds, seconds spent importing sympy inside it)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sympy_s = [0.0]
    depth = [0]
    real_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        if name.split(".")[0] != "sympy" or "sympy" in sys.modules or depth[0]:
            return real_import(name, *args, **kwargs)
        depth[0] += 1
        t0 = perf_counter()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            sympy_s[0] += perf_counter() - t0
            depth[0] -= 1

    builtins.__import__ = timed_import
    t0 = perf_counter()
    try:
        sv = importlib.import_module("sixvertex")
        for mod in ("acceptance", "evaluate", "grid", "scalar", "signature", "solvers"):
            importlib.import_module(f"sixvertex.{mod}")
    finally:
        builtins.__import__ = real_import
    import_s = perf_counter() - t0
    if not Path(sv.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"sixvertex imported from {sv.__file__}, not from {src}")
    return sv, import_s, sympy_s[0]


def run_rounds(wl, seconds: float, start: float, tracer=None) -> list[float]:
    """Whole rounds until `seconds` have passed since `start`; at least one.
    Returns each round's wall time at the reference speed (see pace.py)."""
    clock = Clock()
    rounds = []
    while True:
        if tracer is not None:
            tracer.install()
            idx = tracer.open("round")
        first = len(clock.scaled)
        try:
            wl.round(clock)
        finally:
            if tracer is not None:
                tracer.close(idx)
                tracer.restore()
        rounds.append(sum(clock.scaled[first:]))
        print(
            f"round: {sum(clock.raw[first:]):.3f} s measured, {rounds[-1]:.3f} s paced",
            file=sys.stderr,
        )
        if perf_counter() - start >= seconds:
            return rounds


def layer_metrics(tracer, setup_counts, round_counts, traced_rounds, import_s, sympy_s, overhead):
    """Per-layer figures for the set-up plus one round (the mean of the
    traced rounds)."""
    from tracer import plan_figures

    per = 1.0 / traced_rounds
    first_round = next(i for i, s in enumerate(tracer.spans) if s[0] == "round")
    setup_t = tracer.self_times(0, first_round)
    round_t = tracer.self_times(first_round)
    whole = tracer.inclusive_times(first_round)
    out = {"setup.import_s": (import_s, "s"), "setup.import_sympy_s": (sympy_s, "s")}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (setup_t[span] + per * round_t[span], "s")
    for metric in LAYER_COUNTS:
        out[metric] = (setup_counts[metric] + per * round_counts[metric], "count")
    steps = peak = work = 0
    for grid, plan in tracer.plans:
        s, p, w = plan_figures(grid, plan)
        steps, peak, work = steps + s, max(peak, p), work + w
    out["contract.steps"] = (per * steps, "count")
    out["contract.peak_rank"] = (peak, "count")
    out["contract.work_bound"] = (per * work, "count")
    for i in range(1, CRITERIA + 1):
        out[f"acceptance.criterion{i}_s"] = (per * whole[f"acceptance.criterion{i}"], "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sv, import_s, sympy_s = import_program()
    wl = WORKLOADS[args.workload](sv, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wl.setup()
        tracer.restore()
        if tracer.missing:
            # a metric that reads 0 because its wrapper is gone is no figure
            print("cannot bind: " + ", ".join(sorted(tracer.missing)), file=sys.stderr)
            return 1
    else:
        wl.setup()
    setup_raw = time.time() - args.t0
    # the same rescaling as wall_s, by the yardstick timed right after
    setup_s = setup_raw * UNIT_S / per_unit(SETUP_PACE_S)
    print(f"setup: {setup_raw:.3f} s measured, {setup_s:.3f} s paced", file=sys.stderr)

    start = perf_counter()
    if tracer is None:
        rounds = run_rounds(wl, args.seconds, start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (median(rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        setup_counts = tracer.counts.copy()
        tracer.counts.clear()
        plain = run_rounds(wl, args.seconds / 2, start)
        traced = run_rounds(wl, args.seconds, start, tracer)
        overhead = median(traced) - median(plain)
        metrics = layer_metrics(
            tracer, setup_counts, tracer.counts, len(traced), import_s, sympy_s, overhead
        )
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")

    correct = wl.check()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": wl.attempted,
                "failed": wl.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
