"""The benchmark's workloads: seeded inputs, an untimed warm-up, timed calls, checks.

Every call goes through the module attribute a user's code would reach
(``gsqc.cli.main`` or ``gsqc.semantics.run_program``), looked up at call
time, so the traced run's wrappers see it.  Checks run after the timed calls
and compare against ``reference_circuit``, the statevector oracle.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

import gsqc.cli
import gsqc.semantics
from gsqc import (Program, attach_readout, choose_beta, gate_cid, gate_cnot, pin_all,
                  program_to_dict, random_program, reference_circuit)
from gsqc.semantics import RUN_RESIDUAL_TOL

FIDELITY_MIN = 1.0 - 1e-8
E0_ABS_MAX = 1e-8
BOUND_SLACK = 1e-12


@dataclass
class Unit:
    """One counted outcome: a program run, or one gap-scan row."""

    latency: float
    error: str | None = None     # raised, exited non-zero, or row status not ok
    mismatch: str | None = None  # finished, but its output failed the check

    @property
    def ok(self) -> bool:
        return self.error is None and self.mismatch is None


def _error_unit(raw, latency: float) -> Unit | None:
    if isinstance(raw, BaseException):
        return Unit(latency, error=f"{type(raw).__name__}: {raw}")
    return None


def _pin_bits(program: Program) -> str:
    return "".join(str(p.bit) for p in sorted(program.input_pins, key=lambda p: p.qubit))


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# -- run-batch -------------------------------------------------------------------


def _draw(rng, shape: tuple[int, int], **kwargs) -> Program:
    """random_program conditioned on (qubits, steps) by rejection.

    Fixing each shape's share keeps the batch's cost from swinging with the
    seed (dense eigh cost grows as dim^3), while gates, pins and rotations stay
    as random_program draws them.
    """
    while True:
        program = random_program(rng, **kwargs)
        if (program.num_qubits, program.num_steps) == shape:
            return program


def batch_programs(seed: int, tiny: bool = False) -> list[Program]:
    """60% random_program, 20% of the same mix tipped to 1/sqrt(MN), 20% readout.

    Every (qubits, steps) shape that random_program can draw appears in a
    fixed proportion; the largest dimension is (2*6)^3 = 1728, below the
    dense cutoff.
    """
    rng = np.random.default_rng(seed)
    max_m, max_n, copies = (2, 3, 1) if tiny else (3, 5, 2)
    shapes = [(m, n) for m in range(1, max_m + 1) for n in range(2, max_n + 1)]
    readout_shapes = [(m, n) for m in (1, 2) for n in range(2, max_n + 1)]
    mix = dict(max_qubits=max_m, max_steps=max_n, max_two_body=3)
    plain = [_draw(rng, s, **mix) for s in shapes * 3 * copies]
    tipped = [replace(p, tip_beta=float(choose_beta(p.num_qubits, p.num_steps)))
              for p in (_draw(rng, s, **mix) for s in shapes * copies)]
    readout = [attach_readout(_draw(rng, s, max_qubits=2, max_steps=max_n,
                                    gate_pool="permutation"))
               for s in readout_shapes * (1 if tiny else 3)]
    programs = plain + tipped + readout
    return [programs[i] for i in rng.permutation(len(programs))]


class RunBatch:
    """Small pinned programs, each run in-process as ``gsqc run --program f --out o``."""

    name = "run-batch"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.workdir = workdir
        self.specs = []
        for i, program in enumerate(batch_programs(seed, tiny)):
            path = os.path.join(workdir, f"program-{i:03d}.json")
            _write_json(path, program_to_dict(program))
            self.specs.append((program, path, os.path.join(workdir, f"output-{i:03d}.json")))

    def warmup(self) -> None:
        program = attach_readout(pin_all(Program(num_qubits=2, num_steps=3,
                                                 gates=[gate_cnot(2, 0, 1)]), "10"))
        path = os.path.join(self.workdir, "warmup.json")
        _write_json(path, program_to_dict(program))
        gsqc.cli.main(["run", "--program", path, "--out", path + ".out"])

    def calls(self):
        return self.specs

    def prepare(self) -> None:
        for _, _, out in self.specs:
            if os.path.exists(out):
                os.remove(out)

    def call(self, spec):
        _, path, out = spec
        return gsqc.cli.main(["run", "--program", path, "--out", out])

    def check(self, spec, raw, latency: float) -> list[Unit]:
        program, _, out = spec
        failed = _error_unit(raw, latency)
        if failed:
            return [failed]
        if raw != 0:
            return [Unit(latency, error=f"exit code {raw}")]
        with open(out) as fh:
            doc = json.load(fh)
        return [Unit(latency, mismatch=self.mismatch(program, doc))]

    @staticmethod
    def mismatch(program: Program, doc: dict) -> str | None:
        """The CLI reports output probabilities, so fidelity is taken between
        distributions: (sum_i sqrt(p_i q_i))^2 against |reference|^2."""
        expected = np.abs(reference_circuit(program, _pin_bits(program))) ** 2
        got = np.zeros_like(expected)
        for bits, prob in doc["output"]:
            got[int(bits, 2)] = prob
        fidelity = float(np.sum(np.sqrt(got * expected)) ** 2)
        if not fidelity >= FIDELITY_MIN:
            return f"output fidelity {fidelity!r} below {FIDELITY_MIN!r}"
        if not doc["residual"] <= RUN_RESIDUAL_TOL:
            return f"residual {doc['residual']!r} above {RUN_RESIDUAL_TOL!r}"
        if program.readout:
            want = format(int(np.argmax(expected)), f"0{program.num_qubits}b")
            if doc.get("readout_bits") != want:
                return f"readout_bits {doc.get('readout_bits')!r}, expected {want!r}"
        return None


# -- pinned-large ------------------------------------------------------------------


def cid_chain(M: int, N: int, beta: float | None = None) -> Program:
    """Acceptance criterion 10's chained controlled-identity program, inputs 0...0."""
    gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
    return pin_all(Program(num_qubits=M, num_steps=N, gates=gates, tip_beta=beta), "0" * M)


def cnot_line(N: int, row: int, beta: float | None = None) -> Program:
    """Two qubits, one CNOT at the given row, inputs 10 (the target flips)."""
    return pin_all(Program(num_qubits=2, num_steps=N, gates=[gate_cnot(row, 0, 1)],
                           tip_beta=beta), "10")


def pinned_programs(tiny: bool = False) -> list[tuple[str, Program]]:
    if tiny:
        return [("cnot-m2-n32", cnot_line(32, 16))]
    cnot_chain = pin_all(Program(num_qubits=4, num_steps=6,
                                 gates=[gate_cnot(2, 0, 1), gate_cnot(3, 1, 2),
                                        gate_cnot(4, 2, 3)]), "1000")
    return [
        ("cid-chain-m3-n16", cid_chain(3, 16)),                           # dim 39304
        ("cnot-chain-m4-n6", cnot_chain),                                 # dim 38416
        ("cnot-m2-n60", cnot_line(60, 30)),                               # dim 14884
        ("cid-chain-m3-n8-tipped", cid_chain(3, 8, float(choose_beta(3, 8)))),
        ("cnot-m2-n60-tipped", cnot_line(60, 30, float(choose_beta(2, 60)))),
    ]


class PinnedLarge:
    """Fixed pinned programs above the dense cutoff, run through run_program."""

    name = "pinned-large"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        # the inputs are fixed; the seed does not change them
        self.specs = pinned_programs(tiny)

    def warmup(self) -> None:
        gsqc.semantics.run_program(cnot_line(32, 16))  # dim 4356, iterative path

    def calls(self):
        return self.specs

    def prepare(self) -> None:
        pass

    def call(self, spec):
        return gsqc.semantics.run_program(spec[1])

    def check(self, spec, raw, latency: float) -> list[Unit]:
        failed = _error_unit(raw, latency)
        if failed:
            return [failed]
        return [Unit(latency, mismatch=self.mismatch(spec[1], raw))]

    @staticmethod
    def mismatch(program: Program, result) -> str | None:
        fidelity = result.output_fidelity(reference_circuit(program, _pin_bits(program)))
        if not fidelity >= FIDELITY_MIN:
            return f"output fidelity {fidelity!r} below {FIDELITY_MIN!r}"
        if not result.residual <= RUN_RESIDUAL_TOL:
            return f"residual {result.residual!r} above {RUN_RESIDUAL_TOL!r}"
        return None


# -- gap-scan -----------------------------------------------------------------------


class GapScan:
    """One in-process ``gsqc gap-scan`` sweep per call; each row is counted.

    Row latency is the sweep's own ``wall_ms`` column (``--timings``).
    """

    name = "gap-scan"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        # the sweep is fixed; the seed does not change it
        self.m, self.n_min, self.n_max = (2, 2, 5) if tiny else (3, 4, 10)
        self.out = os.path.join(workdir, "gap-scan.csv")
        self.warmup_out = os.path.join(workdir, "warmup.csv")

    def argv(self, n_min: int, n_max: int, out: str) -> list[str]:
        return ["gap-scan", "--m", str(self.m), "--gate", "cnot", "--n-min", str(n_min),
                "--n-max", str(n_max), "--timings", "--out", out]

    def warmup(self) -> None:
        gsqc.cli.main(self.argv(self.n_min, self.n_min, self.warmup_out))

    def calls(self):
        return [self.argv(self.n_min, self.n_max, self.out)]

    def prepare(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)

    def call(self, spec):
        return gsqc.cli.main(spec)

    def check(self, spec, raw, latency: float) -> list[Unit]:
        expected = range(self.n_min, self.n_max + 1)
        failed = _error_unit(raw, latency)
        if failed or not os.path.exists(self.out):
            why = failed.error if failed else f"exit code {raw}, no CSV written"
            return [Unit(0.0, error=why) for _ in expected]
        with open(self.out) as fh:
            rows = {int(r["N"]): r for r in csv.DictReader(
                line for line in fh if not line.startswith("#"))}
        return [self.row_unit(rows.get(N)) for N in expected]

    @staticmethod
    def row_unit(row: dict | None) -> Unit:
        if row is None:
            return Unit(0.0, error="row missing")
        latency = float(row["wall_ms"]) / 1000.0
        if row["status"] != "ok":
            return Unit(latency, error=row["status"])
        if not row["gap"] or not row["upper"]:
            return Unit(latency, mismatch=f"N={row['N']}: gap {row['gap']!r}, "
                                          f"upper {row['upper']!r}")
        e0, gap, upper = float(row["e0"]), float(row["gap"]), float(row["upper"])
        if not abs(e0) < E0_ABS_MAX:
            return Unit(latency, mismatch=f"N={row['N']}: |e0| {e0!r} not below {E0_ABS_MAX}")
        if not 0.0 < gap <= upper * (1.0 + BOUND_SLACK):
            return Unit(latency, mismatch=f"N={row['N']}: gap {gap!r} above bound {upper!r}")
        return Unit(latency)


WORKLOADS = {w.name: w for w in (RunBatch, PinnedLarge, GapScan)}
