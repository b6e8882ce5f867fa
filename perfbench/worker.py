"""Measuring process of the benchmark; started by ``run.py``, one per run.

    worker.py setup   --workload W --seed S --out DIR
    worker.py measure --workload W --seed S --out DIR --seconds T --trace 0|1

``setup`` runs the workload's first small op in this fresh interpreter,
prints ``ready`` and exits; the parent times it from process start.
``measure`` runs one warm-up pass, then timed passes until ``T`` seconds
have passed, with the workload's reference kernel timed between the ops,
then (with ``--trace 1``) one traced pass, and prints one JSON line of
results.  Every op's output is checked after the op, outside its
timed interval.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import steerkit  # noqa: E402
from tracer import TRACED_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402



def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") for k in ("blas", "lapack")}
        blas["version"] = deps["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        blas = {"config": "unavailable"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "steerkit_threads_env": os.environ.get("STEERKIT_THREADS"),
    }


class Runner:
    """Runs passes over a workload's ops and keeps the tallies."""

    def __init__(self, workload, seed: int, out_dir: str):
        self.seed = seed
        self.stats: dict = {}
        self.ops = workload.build(seed, out_dir, self.stats)
        self.order = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def run_pass(self, tracer=None, before_op=None) -> list[tuple]:
        """Run every op once in a seeded order; returns ``(start, seconds)``
        of each op, by op index."""
        self.passes += 1
        times = [(0.0, 0.0)] * len(self.ops)
        order = list(range(len(self.ops)))
        self.order.shuffle(order)
        for idx in order:
            op = self.ops[idx]
            self.attempted += 1
            if before_op is not None:
                before_op()
            try:
                t0 = time.perf_counter()
                out = (op.run() if tracer is None
                       else tracer.run_op(idx, op.run))
                times[idx] = (t0, time.perf_counter() - t0)
                problems = op.check(out, self.passes)
            except Exception as exc:  # an op that raises is a failed op
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in problems)
        return times


class ReferenceClock:
    """Times a reference kernel between ops, ``BURST`` times in a row and
    at most every ``EVERY_S`` seconds.

    The machine's speed drifts over seconds to minutes.  Dividing an op's
    time by the mean time of the reference samples around it (``AROUND``
    before its start and ``AROUND`` after its end) gives its time in
    reference-kernel units, which that drift leaves nearly unchanged.
    """

    EVERY_S = 0.75
    BURST = 2
    AROUND = 4

    def __init__(self, kernel):
        self.kernel = kernel
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        if (force or not self.starts
                or time.perf_counter() - self.starts[-1] >= self.EVERY_S):
            for _ in range(self.BURST):
                t0 = time.perf_counter()
                self.kernel()
                self.starts.append(t0)
                self.seconds.append(time.perf_counter() - t0)

    def units(self, start: float, seconds: float) -> float:
        """An op's time in reference-kernel units."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        around = self.seconds[max(0, lo - self.AROUND):hi + self.AROUND]
        return seconds / statistics.fmean(around)


def gap_observer(acc: dict):
    """Collects Σ m·n and the rank-gap ratio of each nullspace SVD."""
    def observe(args, kwargs, result):
        m, n = np.shape(args[0])
        acc["svd_input_elems"] += m * n
        _, kept, dropped = result
        if kept.size and dropped.size and dropped[0] > 0.0:
            acc["gap_ratios"].append(float(kept[-1] / dropped[0]))
    return observe


def traced_pass(runner: Runner, workload, untraced_s: float) -> dict:
    """One pass with every layer boundary traced; the per-layer metrics."""
    acc = {"svd_input_elems": 0, "gap_ratios": []}
    tracer = Tracer(observers={
        "numerics.nullspace_with_spectrum": gap_observer(acc)})
    traced_s = sum(s for _, s in runner.run_pass(tracer))
    totals = tracer.totals()
    metrics = {}
    for name in TRACED_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    evals = (sum(op.units for op in runner.ops)
             if workload.name == "grid-sample" else 0)
    rep_calls = sum(totals.get(f"irreps.{fn}", (0,))[0]
                    for fn in ("rep_matrix", "rep_inverse"))
    worst = runner.stats.get("worst_residual", 0.0)
    derived = {
        "irreps.rep_calls_per_eval": (rep_calls / evals if evals else 0.0,
                                      "ratio"),
        "numerics.svd_input_elems": (acc["svd_input_elems"], "count"),
        "stabilizer_solver.min_gap_ratio": (min(acc["gap_ratios"],
                                                default=0.0), "ratio"),
        "verify.steer_headroom": (1e-10 / worst if worst else 0.0, "ratio"),
        "cli.payload_bytes": (sum(runner.stats.get("payload_bytes",
                                                   {}).values()), "bytes"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = {"value": value, "unit": unit}
    trace_path = SRC.parent / ".bench_out" / (
        f"trace-{workload.name}-seed{runner.seed}.tsv")
    tracer.write(trace_path)
    return {"per_layer": metrics, "trace_file": str(trace_path),
            "untraced_functions": tracer.missing}


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.out)
    runner.run_pass()  # warm-up: fills lru caches, starts LAPACK
    clock = ReferenceClock(workload.reference)
    clock.sample()
    samples: list[list[tuple]] = [[] for _ in runner.ops]
    t_end = time.perf_counter() + args.seconds
    while not samples[0] or time.perf_counter() < t_end:
        for idx, sample in enumerate(runner.run_pass(before_op=clock.sample)):
            samples[idx].append(sample)
    clock.sample(force=True)
    wall = [statistics.median(s for _, s in ss) for ss in samples]
    ref = [statistics.median(clock.units(*x) for x in ss) for ss in samples]
    units = sum(op.units for op in runner.ops)
    out = {
        "throughput": units / sum(ref),
        "wall_throughput": units / sum(wall),
        "throughput_name": workload.throughput,
        "unit": workload.unit,
        "units_per_pass": units,
        "timed_passes": len(samples[0]),
        "median_pass_s": sum(wall),
        "reference": workload.reference.__name__,
        "median_reference_s": statistics.median(clock.seconds),
        "reference_samples": len(clock.seconds),
        "op_median_s": {op.name: m for op, m in zip(runner.ops, wall)},
        "op_median_ref": {op.name: m for op, m in zip(runner.ops, ref)},
    }
    if args.trace:
        out.update(traced_pass(runner, workload, sum(wall)))
    out.update(attempted=runner.attempted, failed=runner.failed,
               problems=runner.problems[:20], stats=runner.stats,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               environment=environment())
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(steerkit.__file__).resolve().is_relative_to(SRC):
        print(f"steerkit imported from {steerkit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "setup":
        WORKLOADS[args.workload].setup_op(args.seed, args.out)
        print("ready", flush=True)
        return 0
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
