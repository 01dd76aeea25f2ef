import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsqc.bounds
import gsqc.cli
import gsqc.eigensolve
import gsqc.hamiltonian
import gsqc.semantics
import gsqc.verify
from gsqc.cli import main
from gsqc.errors import ConvergenceError

NOT_PROGRAM = {
    "qubits": 1, "steps": 2,
    "gates": [{"kind": "single", "row": 1, "qubit": 0,
               "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
    "pins": [{"qubit": 0, "bit": 0}],
}


@pytest.fixture()
def not_program(tmp_path):
    path = tmp_path / "not.json"
    path.write_text(json.dumps(NOT_PROGRAM))
    return str(path)


def test_run_not_program(not_program, capsys):
    assert main(["run", "--program", not_program]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["output"] == [["1", 1.0]]
    assert doc["residual"] < 1e-8
    assert abs(doc["ground_energy"]) < 1e-9
    assert doc["detection"]["p_all_final"] == pytest.approx(1.0 / 3.0)


def test_run_two_qubit_cnot(tmp_path, capsys):
    doc = {"qubits": 2, "steps": 2,
           "gates": [{"kind": "cnot", "row": 1, "control": 0, "target": 1}],
           "pins": [{"qubit": 0, "bit": 1}, {"qubit": 1, "bit": 0}]}
    path = tmp_path / "cnot.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["output"] == [["11", 1.0]]


def test_run_unknown_field_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qubits": 1, "steps": 1, "bogus": 1}))
    assert main(["run", "--program", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"gates": [{"kind": "single", "row": 1, "qubit": 0,
                "matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}]},
    {"gates": [{"kind": "single", "row": 1, "qubit": 0,
                "matrix": [[["a", 0], [1, 0]], [[1, 0], [0, 0]]]}]},
    {"epsilon": float("inf")},
    {"epsilon": "abc"},
    {"qubits": True, "pins": [{"qubit": 0, "bit": 0}]},
    {"gates": [{"kind": "cnot", "row": 1.5, "control": 0, "target": 1}]},
    {"gates": [{"kind": "cnot", "row": 1, "control": [0], "target": 1}]},
    {"readout": 5},
    {"tip_beta": "x"},
    {"pins": [{"qubit": 0, "bit": 0, "lambda": "x"}, {"qubit": 1, "bit": 0}]},
], ids=["nan-matrix", "string-matrix-entry", "inf-epsilon", "string-epsilon",
        "bool-qubits", "fractional-row", "list-control", "scalar-readout",
        "string-tip-beta", "string-lambda"])
def test_run_malformed_document_exit_2(tmp_path, capsys, change):
    doc = {"qubits": 2, "steps": 2, "pins": [{"qubit": 0, "bit": 0}, {"qubit": 1, "bit": 0}],
           **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_ONE_QUBIT_SINGLE = {"kind": "single", "row": 1, "qubit": 0,
                     "matrix": NOT_PROGRAM["gates"][0]["matrix"]}


@pytest.mark.parametrize("flag,doc,message", [
    ("--program", {"qubits": 2, "steps": 2,
                   "gates": [{"kind": "bogus", "row": 1, "control": 0, "target": 1}]},
     "gates[0]: unknown gate kind 'bogus'"),
    ("--program", {"qubits": 1, "steps": 2,
                   "gates": [dict(_ONE_QUBIT_SINGLE, matrix=[[1, 0], [0, 1]])]},
     "gates[0]: matrix must be a 2x2 array of [re, im] pairs"),
    ("--program", {"qubits": 2, "steps": 2, "readout": [0, 0]},
     "readout qubit 0 listed twice"),
    ("--program", {"qubits": 1, "steps": 2, "pins": [{"qubit": 0, "bit": 2}]},
     "pin bit must be 0 or 1, got 2"),
    ("--program", {"qubits": 1, "steps": 2, "gates": [dict(_ONE_QUBIT_SINGLE, qubit=5)]},
     "single gate qubit 5 outside 0..0"),
    ("--config", None, "cannot read config file: [Errno 2] No such file or directory"),
    ("--config", [1, 2], "config file must hold a JSON object"),
], ids=["bogus-kind", "matrix-not-pairs", "readout-twice", "pin-bit-2", "qubit-5-of-1",
        "config-missing", "config-list"])
def test_rejected_input_file_exit_2_with_message(tmp_path, capsys, flag, doc, message):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    command = "run" if flag == "--program" else "gap-scan"
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""


def test_spectrum_huge_qubit_count_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"qubits": 10000, "steps": 1}))
    assert main(["spectrum", "--program", str(path)]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_run_missing_file_exit_2(capsys):
    assert main(["run", "--program", "/nonexistent/prog.json"]) == 2


def test_run_readout_program(tmp_path, capsys, monkeypatch):
    calls = []
    real = gsqc.eigensolve.solve_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (gsqc.cli, gsqc.semantics):
        monkeypatch.setattr(module, "solve_spectrum", counted)
    doc = dict(NOT_PROGRAM)
    doc["readout"] = [0]
    path = tmp_path / "ro.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["readout_bits"] == "1"
    assert len(calls) == 1


def test_run_readout_at_large_epsilon(tmp_path, capsys):
    # X then CNOT on inputs 00 gives 11; at epsilon 1e9 the factoring ground
    # energy is rounding of order 1e-8, not a frustrated output
    doc = {"qubits": 2, "steps": 3, "epsilon": 1e9,
           "gates": [NOT_PROGRAM["gates"][0],
                     {"kind": "cnot", "row": 2, "control": 0, "target": 1}],
           "pins": [{"qubit": 0, "bit": 0}, {"qubit": 1, "bit": 0}], "readout": [0, 1]}
    path = tmp_path / "ro.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["readout_bits"] == "11"
    assert "readout_error" not in out


def test_run_bell_readout_names_degenerate_ground_level(tmp_path, capsys):
    # H then CNOT on inputs 00 gives a Bell state, which no readout product
    # matches: the frustrated ground level is twofold, not a k to grow
    h = 2 ** -0.5
    doc = {"qubits": 2, "steps": 2,
           "gates": [{"kind": "single", "row": 1, "qubit": 0,
                      "matrix": [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]},
                     {"kind": "cnot", "row": 2, "control": 0, "target": 1}],
           "pins": [{"qubit": 0, "bit": 0}, {"qubit": 1, "bit": 0}], "readout": [0, 1]}
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ground level is degenerate" in err and "does not factor" in err
    assert "larger k" not in err


def test_run_readout_of_a_superposition_exit_2(tmp_path, capsys):
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    doc = {"qubits": 1, "steps": 2,
           "gates": [{"kind": "single", "row": 1, "qubit": 0,
                      "matrix": [[[c, 0], [-s, 0]], [[s, 0], [c, 0]]]}],
           "pins": [{"qubit": 0, "bit": 0}], "readout": [0]}
    path = tmp_path / "rot30.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 2
    captured = capsys.readouterr()
    assert "combined ground energy" in captured.err and "does not factor" in captured.err
    assert captured.out == ""


def test_run_partial_readout_list_reports_readout_error(tmp_path, capsys):
    doc = {"qubits": 2, "steps": 2, "gates": [{"kind": "cnot", "row": 1, "control": 0,
                                               "target": 1}],
           "pins": [{"qubit": 0, "bit": 1}, {"qubit": 1, "bit": 0}], "readout": [0]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["output"] == [["11", pytest.approx(1.0)]]
    assert out["readout_bits"] is None
    assert "qubit(s) [1]" in out["readout_error"]


def test_run_unresolved_gap_without_readout_names_the_cluster_width(tmp_path, capsys):
    # a pin of 1e-6 against epsilon 1e9 splits the ground level by about 4e-7,
    # below the cluster width 1e-8 * 4e9 = 40: the ground state is unique, but
    # the solver cannot tell, and no readout particle is involved
    doc = {"qubits": 2, "steps": 3, "epsilon": 1e9,
           "gates": [{"kind": "cnot", "row": 2, "control": 0, "target": 1}],
           "pins": [{"qubit": 0, "bit": 1, "lambda": 1e-6}, {"qubit": 1, "bit": 0}]}
    path = tmp_path / "weak_pin.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cluster width 40 " in err and "gap is below that resolution" in err
    assert "readout" not in err and "not unique" not in err


def test_run_unresolved_gap_of_one_qubit_group_names_that_groups_width(tmp_path, capsys):
    # gate-free, each qubit solved as its own factor: qubit 1's pin of 1e-9
    # is below its factor's width 1e-8 * 2, the resolution its solve had
    doc = {"qubits": 2, "steps": 2,
           "pins": [{"qubit": 0, "bit": 0}, {"qubit": 1, "bit": 0, "lambda": 1e-9}]}
    path = tmp_path / "weak_free.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--program", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cluster width 2e-08 (1e-08 times the energy scale 2)" in err
    assert "gap is below that resolution" in err and "readout" not in err


def test_run_consistency_error_exit_4(not_program, monkeypatch, capsys):
    monkeypatch.setattr(gsqc.semantics, "verify_development", lambda *args: 1.0)
    assert main(["run", "--program", not_program]) == 4
    captured = capsys.readouterr()
    assert "consistency error: development residual 1.000e+00 above 1e-06" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "3"],
    ["run", "--program", None],
    ["detect", "--m", "1", "--n", "2"],
    ["spectrum", "--program", None],
], ids=["gap-scan", "run", "detect", "spectrum"])
def test_unwritable_out_exit_2(not_program, tmp_path, monkeypatch, capsys, argv):
    # a missing directory or a directory is found before anything is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    for name in ("solve_program", "run_program", "assemble"):
        monkeypatch.setattr(gsqc.cli, name, no_solve)
    argv = [not_program if a is None else a for a in argv]
    for target, reason in ((tmp_path / "missing" / "out.txt", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        assert main(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot write output file:" in captured.err and str(target) in captured.err
        assert reason in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == ["not.json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gap_scan_timings_appends_wall_ms(capsys, fmt):
    argv = ["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "5", "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr().out
    if fmt == "csv":
        plain = list(csv.DictReader(l for l in plain.splitlines() if not l.startswith("#")))
        timed = list(csv.DictReader(l for l in timed.splitlines() if not l.startswith("#")))
    else:
        plain, timed = json.loads(plain), json.loads(timed)
    assert len(timed) == 4
    for row, timed_row in zip(plain, timed):
        assert float(timed_row.pop("wall_ms")) > 0.0
        assert timed_row == row


def test_gap_scan_single_qubit_with_footer(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "12",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("N,M,gates,e0,gap,upper,alpha4,iterations,status")
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 11
    footer = lines[-1]
    assert footer.startswith("# scaling_fit")
    exponent = float(footer.split("exponent=")[1].split()[0])
    # N=2 sits outside the asymptotic regime and shifts the fit by ~0.002
    # beyond the 0.05 window that holds from N=3 up
    assert abs(exponent + 2.0) < 0.06


def test_gap_scan_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gap-scan", "--m", "2", "--n-min", "2", "--n-max", "5",
            "--gate", "cnot", "--j", "mid"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gap_scan_rows_respect_bound(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["gap-scan", "--m", "2", "--n-min", "2", "--n-max", "6",
                 "--gate", "cnot", "--j", "mid", "--out", str(out)]) == 0
    for line in out.read_text().strip().split("\n")[1:]:
        if line.startswith("#"):
            continue
        parts = line.split(",")
        gap, upper, status = float(parts[4]), float(parts[5]), parts[8]
        assert status == "ok"
        assert gap <= upper * (1 + 1e-12)


def test_gap_scan_failed_row_message_on_stderr(monkeypatch, capsys):
    argv = ["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "4"]
    assert main(argv) == 0
    unpatched = capsys.readouterr().out.splitlines()
    real = gsqc.cli.solve_program
    message = 'ARPACK stalled, residual 1e-3, 7 restarts, "quoted"'

    def stalls_at_n3(program, *args, **kwargs):
        if program.num_steps == 3:
            raise ConvergenceError(message)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(gsqc.cli, "solve_program", stalls_at_n3)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert f"N=3: ConvergenceError: {message}" in captured.err
    header, row2, row3, row4 = captured.out.splitlines()
    # the ok rows are written as before; the failed one keeps its message
    assert [header, row2, row4] == [unpatched[i] for i in (0, 1, 3)]
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [r["status"] for r in rows] == ["ok", f"ConvergenceError: {message}", "ok"]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[1]["status"] == f"ConvergenceError: {message}"


def test_gap_scan_violated_bound_fails_only_that_row(monkeypatch, capsys):
    # the row's upper and alpha4 come from check_bounds, which judges the gap
    real = gsqc.bounds.upper_bound

    def too_small_at_n3(program):
        return 1e-9 if program.num_steps == 3 else real(program)

    monkeypatch.setattr(gsqc.bounds, "upper_bound", too_small_at_n3)
    assert main(["gap-scan", "--m", "2", "--gate", "cnot", "--n-min", "2", "--n-max", "4",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["status"].split(":")[0] for r in rows] == ["ok", "BoundViolationError", "ok"]
    assert "exceeds variational upper bound" in rows[1]["status"]
    assert rows[1]["gap"] > 0 and rows[1]["upper"] is None
    assert rows[0]["alpha4"] == rows[0]["gap"] * 3 ** 4


def test_gap_scan_free_qubits_keep_the_two_qubit_gap(capsys):
    # qubits 2 and 3 share no gate: each M=4 row is solved factor by factor
    rows = {}
    for m in ("2", "4"):
        assert main(["gap-scan", "--m", m, "--gate", "cnot", "--n-min", "2", "--n-max", "6",
                     "--format", "json"]) == 0
        rows[m] = json.loads(capsys.readouterr().out)
    assert len(rows["4"]) == 5
    for two, four in zip(rows["2"], rows["4"]):
        assert four["status"] == "ok" and four["upper"] == two["upper"]
        assert four["gap"] == pytest.approx(two["gap"], rel=1e-10)


def test_gap_scan_empty_range_exit_2(capsys):
    assert main(["gap-scan", "--n-min", "5", "--n-max", "3"]) == 2


def test_detect_rows(tmp_path):
    out = tmp_path / "det.csv"
    assert main(["detect", "--m", "1", "--n", "3", "--betas", "1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,p_all,predicted,expected_attempts"
    rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert pytest.approx(float(rows[1.0][1])) == 0.25
    # the 1/sqrt(MN) row is always included
    assert any(abs(b - 1 / np.sqrt(3)) < 1e-9 for b in rows)


def test_detect_solves_each_distinct_beta_once(monkeypatch, capsys):
    # 1/sqrt(2*2) is 0.5 too, and 0.5 + 1e-14 lies within 1e-12 of it
    betas, run_program = [], gsqc.cli.run_program

    def counting(program):
        betas.append(program.beta)
        return run_program(program)

    monkeypatch.setattr(gsqc.cli, "run_program", counting)
    assert main(["detect", "--m", "2", "--n", "2", "--betas", "1.0,0.5,0.5,0.50000000000001",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert betas == [0.5, 1.0]
    assert [r["beta"] for r in rows] == [0.5, 1.0]


def test_detect_rejects_beta_zero(capsys):
    assert main(["detect", "--m", "1", "--n", "3", "--betas", "0"]) == 2


def test_detect_non_numeric_beta_exit_2(capsys):
    assert main(["detect", "--m", "1", "--n", "3", "--betas", "1.0,abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "abc" in err


@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_spectrum_k_below_one_exit_2(tmp_path, capsys, k):
    path = tmp_path / "m2n22.json"  # dimension 2116, above the dense size
    path.write_text(json.dumps({"qubits": 2, "steps": 22,
                                "gates": [{"kind": "cnot", "row": 11, "control": 0,
                                           "target": 1}]}))
    assert main(["spectrum", "--program", str(path), "--k", k]) == 2
    assert "--k must be at least 2" in capsys.readouterr().err


def test_spectrum_k_beyond_dense_cap_exit_3(tmp_path, capsys):
    path = tmp_path / "m1n2048.json"  # one block of dimension 4098, above the 4096 dense cap
    path.write_text(json.dumps({"qubits": 1, "steps": 2048,
                                "gates": [{"kind": "single", "row": 1024, "qubit": 0,
                                           "matrix": [[[0.7071067811865476, 0],
                                                       [0.7071067811865476, 0]],
                                                      [[0.7071067811865476, 0],
                                                       [-0.7071067811865476, 0]]]}]}))
    assert main(["spectrum", "--program", str(path), "--k", "1500"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "pass a smaller k" in captured.err


def test_spectrum_k_beyond_dense_cap_solved_block_by_block(tmp_path, capsys):
    path = tmp_path / "m2n32.json"  # dimension 4356, every block below the dense cap
    path.write_text(json.dumps({"qubits": 2, "steps": 32,
                                "gates": [{"kind": "cnot", "row": 16, "control": 0,
                                           "target": 1}]}))
    assert main(["spectrum", "--program", str(path), "--k", "1500"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 1500 and values == sorted(values)
    assert main(["spectrum", "--program", str(path), "--k", "5"]) == 0
    lowest = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert np.allclose(values[:5], lowest, atol=1e-12)


@pytest.mark.parametrize("argv", [["--m", "0"], ["--n", "0"], ["--m", "-2", "--n", "-1"]])
def test_detect_size_below_one_exit_2(capsys, argv):
    assert main(["detect", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [["--j", "abc"], ["--j", "0"], ["--m", "0"],
                                  ["--gate", "cnot", "--m", "1"], ["--beta", "0"],
                                  ["--beta", "1.5"], ["--beta", "nan"], ["--n-min", "0"]],
                         ids=["j-abc", "j-0", "m-0", "cnot-m-1", "beta-0", "beta-1.5",
                              "beta-nan", "n-min-0"])
def test_gap_scan_bad_sweep_option_exit_2_before_any_row(monkeypatch, capsys, argv):
    def no_row(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(gsqc.cli, "solve_program", no_row)
    base = {"--m": "2", "--gate": "cnot", "--n-min": "2", "--n-max": "3"}
    base.update(zip(argv[::2], argv[1::2]))
    assert main(["gap-scan", *[t for kv in base.items() for t in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_gap_scan_gate_row_beyond_n_fails_only_that_row(capsys):
    assert main(["gap-scan", "--m", "2", "--gate", "cnot", "--j", "3",
                 "--n-min", "2", "--n-max", "3"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["status"] for r in rows] == ["ProgramError: gate row 3 outside 1..2", "ok"]


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(["-1", "0", "1", "2"]), n_min=st.sampled_from(["-1", "0", "1", "2"]),
       n_max=st.sampled_from(["0", "1", "2", "4"]),
       gate=st.sampled_from(["none", "cnot", "cid"]),
       j=st.sampled_from(["mid", "0", "1", "3", "9", "abc", "-1"]),
       beta=st.sampled_from(["0", "0.5", "1", "1.5", "nan", "-1"]))
def test_gap_scan_never_raises(m, n_min, n_max, gate, j, beta):
    # M <= 2 and N <= 4: every row has dimension at most 100
    argv = ["gap-scan", "--m", m, "--n-min", n_min, "--n-max", n_max, "--gate", gate,
            "--j", j, "--beta", beta]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("argv", [["run", "--k", "3"], ["run", "--format", "json"],
                                  ["detect", "--k", "3"], ["verify", "--out", "x"],
                                  ["verify", "--dense-cutoff", "64"], ["run", "--tol", "0"],
                                  ["run", "--seed", "3"], ["gap-scan", "--k", "3"]])
def test_command_rejects_option_it_does_not_read(not_program, argv):
    if argv[0] == "run":
        argv = argv + ["--program", not_program]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_spectrum_json(not_program, capsys):
    assert main(["spectrum", "--program", not_program, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ground_manifold_dim"] == 1
    assert len(doc["eigenvalues"]) == 6


def test_show_config(capsys):
    assert main(["gap-scan", "--show-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 1 and "seed" not in doc


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 4, "n_max": 5}))
    assert main(["gap-scan", "--config", str(cfg), "--m", "3", "--show-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 3  # flag wins
    assert doc["n_max"] == 5  # file beats default


@pytest.mark.parametrize("key", ["bogus", "dense-cutoff", "tol", "seed"])
def test_config_file_unknown_key_exit_2(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, key: 1}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 2
    assert key.replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1], 2.5, True, "abc", {"a": 1}],
                         ids=["list", "fraction", "bool", "text", "object"])
def test_config_value_runs_through_option_type_exit_2(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    for key in ("m", "n_max"):
        cfg.write_text(json.dumps({key: value}))
        assert main(["gap-scan", "--config", str(cfg), "--n-min", "2", "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config key '{key}'" in captured.err


def test_config_value_checked_against_choices_and_switches(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc in ({"gate": "toffoli"}, {"fmt": "xml"}, {"timings": 1}):
        cfg.write_text(json.dumps(doc))
        assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 2
        assert f"config key '{next(iter(doc))}'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"n-min": "5", "beta": 0.5, "gate": "cid", "timings": True,
                               "j": 2, "n-max": None}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n_min"], doc["beta"], doc["gate"], doc["timings"], doc["j"]) == (
        5, 0.5, "cid", True, "2")
    assert doc["n_max"] == 8  # null leaves the default


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    assert main(["gap-scan", "--show-config"]) == 0
    plain = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 5, "m": 3}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3
    assert main(["gap-scan", "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out) == plain


def test_parser_built_once_per_process(not_program, capsys):
    gsqc.cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["run", "--program", not_program]) == 0
    assert gsqc.cli.build_parser.cache_info().misses == 1


def test_import_cli_does_not_load_scipy_optimize():
    # scipy.optimize is slow to load, and nothing in gsqc imports it
    src = str(Path(gsqc.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import gsqc.cli, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_run_above_the_basis_cap_exits_2_in_bounded_memory(tmp_path):
    # pinned gate-free M=7, N=8 splits into seven one-qubit factors, but its
    # product vector (18^7 entries, 4.9 GB) is past the basis cap: the cap must
    # be checked before that vector is formed, so 3 GiB of address space is plenty
    path = tmp_path / "m7n8.json"
    path.write_text(json.dumps({"qubits": 7, "steps": 8,
                                "pins": [{"qubit": q, "bit": 0} for q in range(7)]}))
    src = str(Path(gsqc.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    limit = 3 * 2 ** 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "gsqc.cli", "run", "--program", str(path)],
                          env=env, preexec_fn=cap_memory, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds cap" in proc.stderr


def test_verify_passes(capsys):
    assert main(["verify", "--checks", "single-qubit-spectrum,gate-commutation"]) == 0
    out = capsys.readouterr().out
    assert "single-qubit-spectrum" in out and "PASS" in out


@pytest.mark.parametrize("checks,unknown", [
    ("bogus", "['bogus']"),
    (",", "['', '']"),
    ("single-qubit-spectrum,typo", "['typo']"),
])
def test_verify_unknown_check_exit_2(capsys, checks, unknown):
    assert main(["verify", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert f"error: unknown check(s) {unknown}: known checks are " in captured.err
    assert "single-qubit-spectrum, char-det-vs-dense" in captured.err
    assert captured.out == ""  # no check ran


def test_verify_block_spectrum_oracle_and_seconds(capsys):
    assert len(gsqc.verify.ALL_CHECKS) == 14
    assert main(["verify", "--checks", "block-spectrum-oracle"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    name, mark, seconds, unit = line.split()[:4]
    assert (name, mark, unit) == ("block-spectrum-oracle", "PASS", "s")
    assert float(seconds) >= 0.0


def test_verify_kronecker_factors(capsys):
    assert main(["verify", "--checks", "kronecker-factors"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.split()[:2] == ["kronecker-factors", "PASS"]


def test_verify_names_broken_check(monkeypatch, capsys):
    real = gsqc.hamiltonian.cnot_term

    def perturbed(basis, control, target, row, eps=1.0):
        rows, cols, vals = real(basis, control, target, row, eps)
        idx = basis.indices_where({control: 0})
        return (np.concatenate([rows, idx]), np.concatenate([cols, idx]),
                np.concatenate([vals, np.full(idx.size, 0.05 * eps)]))

    monkeypatch.setattr(gsqc.hamiltonian, "cnot_term", perturbed)
    assert main(["verify", "--checks", "cnot-spectrum-oracle"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert line.startswith("cnot-spectrum-oracle") and "FAIL" in line
    # the bump shifts the levels; a crash would name an exception class instead
    assert "max restricted-level deviation" in line
    assert "cnot-spectrum-oracle" in captured.err
