"""steerkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload grid-sample --seed 1 --seconds 15 --trace 0

Run from the root of a steerkit checkout.  Measures one workload from
outside the library, in fresh processes:

1. one discarded warm-up interpreter (the first process after idle runs
   several times slower);
2. with ``--trace 0``, ``SETUP_SAMPLES`` fresh interpreters, each timed
   from process start to the end of the workload's first small op; their
   median is ``setup_s``;
3. one measuring process (``worker.py``), between the two halves of the
   setup samples: a warm-up pass, then timed passes for ``--seconds``; with
   ``--trace 1`` one more pass with every layer boundary traced.

Children run with ``STEERKIT_THREADS`` removed, the BLAS thread count
fixed at ``BLAS_THREADS`` and glibc's mmap threshold pinned.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics
traced).  The lines
before it, and ``.bench_out/result-<workload>-seed<seed>-trace<k>.json``,
record the environment and the details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 21
#: A run must end within 180 s; children are killed when this much has gone.
DEADLINE_S = 170.0
#: One BLAS thread: with two on a shared two-core machine, the oracle's
#: largest SVD ran 10x slower whenever the other core was busy.
BLAS_THREADS = 1
MMAP_THRESHOLD = 128 * 1024  # glibc's initial default
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STEERKIT_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    # glibc raises its mmap threshold after the first large free, so which
    # arrays go back to the OS, and the peak RSS, would depend on the op
    # order: 101-121 MB over five grid-sample seeds, 99.5-101.3 MB pinned.
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


def worker_argv(mode: str, args, out_dir: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--out", str(out_dir)]


def setup_sample(args, env, out_dir: Path, deadline: float) -> float:
    """Seconds from starting a fresh interpreter to the end of its first
    small op, which the child announces with a ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(worker_argv("setup", args, out_dir), env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"setup process failed (exit {proc.returncode})")
    return elapsed


def measure(args, env, out_dir: Path, deadline: float) -> dict:
    argv = worker_argv("measure", args, out_dir) + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("measuring process timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"measuring process failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    if not (ROOT / "src" / "steerkit" / "__init__.py").is_file():
        raise BenchError(f"no steerkit sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_sample(args, env, out_dir, deadline)  # warm-up, discarded
        # Process start-up speed shifts over seconds, so half the samples
        # are taken before the measuring process and half after it.
        n_setup = 0 if args.trace else SETUP_SAMPLES
        setup = [setup_sample(args, env, out_dir, deadline)
                 for _ in range(n_setup // 2)]
        result = measure(args, env, out_dir, deadline)
        setup += [setup_sample(args, env, out_dir, deadline)
                  for _ in range(n_setup - n_setup // 2)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["setup_samples_s"] = setup
    return result


def report(args, result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_samples_s"]),
                        "unit": "s"},
            "throughput": {"value": result["throughput"], "unit": "1/ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {result['throughput_name']} "
          f"{result['wall_throughput']:.6g} wall-clock "
          f"({result['units_per_pass']} x {result['unit']} a pass, per-op "
          f"medians of {result['timed_passes']} timed passes); throughput "
          f"{result['throughput']:.6g} per {result['reference']} run "
          f"(median {result['median_reference_s']:.4f} s of "
          f"{result['reference_samples']})")
    if not args.trace:
        print(f"setup_s {metrics['setup_s']['value']:.4f} (median of "
              f"{len(result['setup_samples_s'])} fresh interpreters), "
              f"peak_rss_mb {result['peak_rss_mb']:.1f}")
    else:
        print(f"trace.overhead_ratio "
              f"{metrics['trace.overhead_ratio']['value']:.3f}; spans in "
              f"{result['trace_file']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
          f"ops failed their output check)")
    stats = result["stats"]
    if "golden_checked" in stats:
        print(f"payload digests equal to the pinned ones: "
              f"{stats['golden_matched']} of {stats['golden_checked']} "
              f"(informational)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
