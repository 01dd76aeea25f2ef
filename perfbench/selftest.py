"""Self-test of the benchmark on tiny inputs (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that:
  * every workload of BENCHMARK.json, untraced and traced, prints a result
    line with every metric BENCHMARK.json declares for its mode, with its
    unit, and correct outputs;
  * a deliberately wrong output of each workload is counted as failed;
  * run.py fails, printing no result, in a directory holding only
    BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gsqc.cli  # noqa: E402
import gsqc.semantics  # noqa: E402
import run  # noqa: E402
from child import OUT_DIR, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

gsqc_main = gsqc.cli.main
gsqc_run_program = gsqc.semantics.run_program


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_result_lines(spec: dict) -> None:
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: outputs reported incorrect")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{where}: metrics/units differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{where}: {name} not a number")
            print(f"ok   {where}: {len(emitted)} metrics")


def _corrupt_run_output(argv):
    """gsqc run, then all output probability moved onto its least likely bitstring."""
    code = gsqc_main(argv)
    out = argv[argv.index("--out") + 1]
    with open(out) as fh:
        doc = json.load(fh)
    probs = np.zeros(2 ** doc["qubits"])
    for bits, p in doc["output"]:
        probs[int(bits, 2)] = p
    doc["output"] = [[format(int(np.argmin(probs)), f"0{doc['qubits']}b"), 1.0]]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    return code


def _corrupt_gap_rows(argv):
    """gsqc gap-scan, then every gap raised above its bound."""
    code = gsqc_main(argv)
    out = argv[argv.index("--out") + 1]
    with open(out) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    for r in rows:
        r["gap"] = repr(10.0 * float(r["upper"]))
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return code


def _corrupt_state(program, **kwargs):
    """run_program, then its output state moved to another basis state."""
    result = gsqc_run_program(program, **kwargs)
    result.logical_state = np.roll(result.logical_state, 1)
    return result


def check_wrong_outputs_fail() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    corrupt = {"run-batch": (gsqc.cli, "main", _corrupt_run_output),
               "pinned-large": (gsqc.semantics, "run_program", _corrupt_state),
               "gap-scan": (gsqc.cli, "main", _corrupt_gap_rows)}
    for name, (module, attr, wrong) in corrupt.items():
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workload = WORKLOADS[name](3, workdir, tiny=True)
            workload.warmup()
            _, honest = run_pass(workload)
            expect(all(u.ok for u in honest), f"{name}: honest outputs rejected")
            original = getattr(module, attr)
            setattr(module, attr, wrong)
            try:
                _, units = run_pass(workload)
            finally:
                setattr(module, attr, original)
        expect(units and all(u.mismatch and not u.ok for u in units),
               f"{name}: a wrong output was not counted as failed")
        print(f"ok   {name}: {len(units)}/{len(units)} wrong outputs counted as failed")


def check_fails_without_sources() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", run.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without sources: exit code {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   run.py fails without the gsqc sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_wrong_outputs_fail()
        check_fails_without_sources()
        check_result_lines(spec)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
