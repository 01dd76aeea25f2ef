"""One benchmark process: set a workload up, then time it, trace it, or time its solves.

Started by run.py in a fresh interpreter, so imports and peak memory are this
workload's own.  Prints one JSON object as its last line of standard output.

Modes:
  setup    set up (imports, inputs, files, warm-up) and report when the first
           timed call would start
  measure  untraced closed-loop passes for --seconds; end-to-end metrics
  trace    one untraced pass, then the same pass traced; per-layer metrics
  blas1    one pass with only solve_spectrum timed (run.py starts this mode
           with single-threaded BLAS)
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODES = ("setup", "measure", "trace", "blas1")
MIN_PASSES = 2     # so no run rests on a single pass of the slow workloads
TAIL_BEYOND = 10   # samples required beyond the reported tail percentile
TAIL_FLOOR = 90.0  # lowest percentile still reported as a tail


def run_pass(workload, tracer=None):
    """Every call of one pass, timed one by one; checks run after the timed part."""
    workload.prepare()
    raws = []
    start = time.perf_counter()
    for i, spec in enumerate(workload.calls()):
        t = time.perf_counter()
        with tracer.call(i) if tracer else nullcontext():
            try:
                raw = workload.call(spec)
            except Exception as exc:  # a failed call is counted, not fatal
                raw = exc
        raws.append((spec, raw, time.perf_counter() - t))
    wall = time.perf_counter() - start
    return wall, [u for spec, raw, lat in raws for u in workload.check(spec, raw, lat)]


def tail_latency(ok: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when that percentile would
    fall below TAIL_FLOOR (fewer than 100 samples)."""
    ok = sorted(ok)
    percentile = 100.0 * (len(ok) - TAIL_BEYOND) / len(ok)
    if percentile >= TAIL_FLOOR:
        return ok[len(ok) - TAIL_BEYOND - 1], percentile, TAIL_BEYOND
    return ok[-1], 100.0, 0


def outcome(units) -> dict:
    failures = Counter(u.error.split(":")[0] if u.error else "mismatch"
                       for u in units if not u.ok)
    return {"attempted": len(units), "failed": sum(not u.ok for u in units),
            "mismatches": [u.mismatch for u in units if u.mismatch],
            "failures": dict(failures)}


def measure(workload, seconds: float) -> dict:
    """Whole passes, at least MIN_PASSES, while the next one is expected to
    end within the budget.

    Throughput is the median over passes, so one pass slowed by the machine
    does not set it; latencies are pooled over passes.  Peak memory is taken
    after the first pass: later passes reuse freed heap unevenly, which would
    make it depend on how many passes fit.
    """
    walls, rates, units = [], [], []
    while True:
        wall, pass_units = run_pass(workload)
        if not walls:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        rates.append(sum(u.ok for u in pass_units) / wall)
        units += pass_units
        if len(walls) >= MIN_PASSES and sum(walls) + wall > seconds:
            break
    ok = [u.latency for u in units if u.ok] or [u.latency for u in units]
    tail, percentile, beyond = tail_latency(ok)
    result = outcome(units)
    solved = sum(u.ok for u in units)
    result["metrics"] = {
        "solved_per_s": statistics.median(rates),
        "call_p50_s": statistics.median(ok),
        "call_tail_s": tail,
        "ok_frac": solved / len(units),
        "peak_rss_mb": first_pass_rss,
    }
    result["detail"] = {"passes": len(walls), "pass_walls_s": walls,
                        "latency_samples": len(ok), "latency_of": "successful" if solved else "all",
                        "tail_percentile": percentile, "tail_samples_beyond": beyond}
    return result


def trace(workload, name: str, seed: int) -> dict:
    from tracing import Tracer, instrument, layer_metrics

    base_wall, base_units = run_pass(workload)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        wall, units = run_pass(workload, tracer)
    finally:
        restore()
    result = outcome(units)
    result["mismatches"] += outcome(base_units)["mismatches"]
    result["metrics"] = layer_metrics(tracer)
    result["metrics"]["trace.overhead_s"] = wall - base_wall
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write(path)
    result["detail"] = {"spans": len(tracer.spans), "span_file": str(path.relative_to(ROOT)),
                        "missing_hooks": tracer.missing, "untraced_wall_s": base_wall,
                        "traced_wall_s": wall}
    return result


def blas1(workload) -> dict:
    from tracing import Tracer, instrument

    tracer = Tracer()
    restore = instrument(tracer, only=("eigensolve.solve",))
    try:
        _, units = run_pass(workload, tracer)
    finally:
        restore()
    result = outcome(units)
    result["metrics"] = {"eigensolve.solve_s.blas1": sum(
        s.duration for s in tracer.spans if s.name == "eigensolve.solve")}
    return result


def environment() -> dict:
    """nproc, library versions, and the BLAS libraries loaded with their thread counts."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    loaded = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                loaded.append({"library": os.path.basename(path), "threads": fn()})
                break
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_loaded": loaded,
            "GSQC_THREADS": os.environ.get("GSQC_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        import gsqc
        if Path(gsqc.__file__).resolve().parent != ROOT / "src" / "gsqc":
            raise SystemExit(f"imported gsqc from {gsqc.__file__}, not from {ROOT / 'src'}")
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        workload.warmup()
        ready = time.perf_counter()
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(workload, args.seconds)
        elif args.mode == "trace":
            result = trace(workload, args.workload, args.seed)
        else:
            result = blas1(workload)
        result["ready"] = ready
        if args.mode != "setup":
            result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
