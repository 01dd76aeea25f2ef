"""Benchmark for gsqc: one workload, end-to-end metrics or (with --trace 1) per-layer ones.

    python3 perfbench/run.py --workload run-batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the gsqc under test is the one in ``src/`` next to this
directory.  Every call's output is checked.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment and how the figures were taken.  Scratch files and
span dumps go to ``.perfbench_out/``.  Workloads, metrics, and what each layer
metric is expected to move are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("run-batch", "pinned-large", "gap-scan")
SETUP_SAMPLES = 3       # set-up is timed in this many fresh processes per run
DEADLINE_S = 170.0      # every child is killed past this, and the run fails
THREAD_VARS = ("GSQC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env(single_thread_blas: bool = False) -> dict:
    """Default threading as users get it: no thread variables at all (so gap-scan
    uses its default pool size), or every BLAS/OpenMP pool forced to one thread."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if single_thread_blas:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(mode: str, args, deadline: float, env: dict) -> tuple[float, dict]:
    """Run one child to completion; returns its set-up time and its result."""
    cmd = [sys.executable, str(CHILD), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise ChildFailed(f"{mode}: no time left before the {DEADLINE_S:g} s deadline")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode}: killed after {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def declared_units(key: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for one mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def untraced(args, deadline: float) -> tuple[dict, dict]:
    env = child_env()
    setups = [spawn("setup", args, deadline, env)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = spawn("measure", args, deadline, env)
    setups.append(setup)
    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    report = {"correct": not result["mismatches"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in declared_units("end_to_end").items()}}
    info = {"env": result["env"], "setup_samples_s": setups, "failures": result["failures"],
            "mismatches": result["mismatches"][:5],
            "failed_frac": result["failed"] / result["attempted"], **result["detail"]}
    return report, info


def traced(args, deadline: float) -> tuple[dict, dict]:
    _, result = spawn("trace", args, deadline, child_env())
    _, single = spawn("blas1", args, deadline, child_env(single_thread_blas=True))
    metrics = dict(result["metrics"], **single["metrics"])
    report = {"correct": not (result["mismatches"] or single["mismatches"]),
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in declared_units("per_layer").items()}}
    info = {"env": result["env"], "env_blas1": single["env"], "failures": result["failures"],
            "mismatches": (result["mismatches"] + single["mismatches"])[:5],
            **result["detail"]}
    return report, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gsqc" / "__init__.py").is_file():
        print(f"error: no gsqc sources at {ROOT / 'src' / 'gsqc'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        report, info = (traced if args.trace else untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "info": info}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
