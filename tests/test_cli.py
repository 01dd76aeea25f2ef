import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsqc.cli
import gsqc.eigensolve
import gsqc.hamiltonian
import gsqc.semantics
import gsqc.verify
from gsqc.cli import main
from gsqc.errors import ConvergenceError
from gsqc.sparse import SparseHermitian

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
    real = gsqc.cli.solve_spectrum

    def stalls_at_n3(H, **kwargs):
        if H.dim == 8:  # M=1, N=3
            raise ConvergenceError("ARPACK stalled, residual 1e-3, 7 restarts")
        return real(H, **kwargs)

    monkeypatch.setattr(gsqc.cli, "solve_spectrum", stalls_at_n3)
    assert main(["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "4"]) == 0
    captured = capsys.readouterr()
    assert "N=3: ConvergenceError: ARPACK stalled, residual 1e-3, 7 restarts" in captured.err
    header, row2, row3, row4 = captured.out.strip().split("\n")
    assert row3.split(",")[-1] == "ConvergenceError"
    assert row3.count(",") == header.count(",")


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


def test_detect_rejects_beta_zero(capsys):
    assert main(["detect", "--m", "1", "--n", "3", "--betas", "0"]) == 2


def test_detect_non_numeric_beta_exit_2(capsys):
    assert main(["detect", "--m", "1", "--n", "3", "--betas", "1.0,abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "abc" in err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_spectrum_k_below_one_exit_2(tmp_path, capsys, k):
    path = tmp_path / "m2n22.json"  # dimension 2116, above the dense size
    path.write_text(json.dumps({"qubits": 2, "steps": 22,
                                "gates": [{"kind": "cnot", "row": 11, "control": 0,
                                           "target": 1}]}))
    assert main(["spectrum", "--program", str(path), "--k", k]) == 2
    assert "--k must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_gap_scan_k_below_one_exit_2(capsys, k):
    assert main(["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "3", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--k must be at least 1" in captured.err


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

    monkeypatch.setattr(gsqc.cli, "assemble", no_row)
    base = {"--m": "2", "--gate": "cnot", "--n-min": "2", "--n-max": "3"}
    base.update(zip(argv[::2], argv[1::2]))
    assert main(["gap-scan", *[t for kv in base.items() for t in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_gap_scan_gate_row_beyond_n_fails_only_that_row(capsys):
    assert main(["gap-scan", "--m", "2", "--gate", "cnot", "--j", "3",
                 "--n-min", "2", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["ProgramError", "ok"]


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(["-1", "0", "1", "2"]), n_min=st.sampled_from(["-1", "0", "1", "2"]),
       n_max=st.sampled_from(["0", "1", "2", "4"]),
       gate=st.sampled_from(["none", "cnot", "cid"]),
       j=st.sampled_from(["mid", "0", "1", "3", "9", "abc", "-1"]),
       beta=st.sampled_from(["0", "0.5", "1", "1.5", "nan", "-1"]),
       k=st.sampled_from(["-1", "0", "1", "5"]))
def test_gap_scan_never_raises(m, n_min, n_max, gate, j, beta, k):
    # M <= 2 and N <= 4: every row has dimension at most 100
    argv = ["gap-scan", "--m", m, "--n-min", n_min, "--n-max", n_max, "--gate", gate,
            "--j", j, "--beta", beta, "--k", k]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("argv", [["run", "--k", "3"], ["run", "--format", "json"],
                                  ["detect", "--k", "3"], ["verify", "--out", "x"],
                                  ["verify", "--dense-cutoff", "64"], ["run", "--tol", "0"]])
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
    assert doc["seed"] == 7


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "k": 5}))
    assert main(["gap-scan", "--config", str(cfg), "--seed", "3", "--show-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3  # flag wins
    assert doc["k"] == 5  # file beats default


@pytest.mark.parametrize("key", ["bogus", "dense-cutoff", "tol"])
def test_config_file_unknown_key_exit_2(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, key: 1}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 2
    assert key.replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1], 2.5, True, "abc", {"a": 1}],
                         ids=["list", "fraction", "bool", "text", "object"])
def test_config_value_runs_through_option_type_exit_2(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    for key in ("m", "k"):
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
    cfg.write_text(json.dumps({"k": "5", "beta": 0.5, "gate": "cid", "timings": True,
                               "j": 2, "n-max": None}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["k"], doc["beta"], doc["gate"], doc["timings"], doc["j"]) == (5, 0.5, "cid",
                                                                            True, "2")
    assert doc["n_max"] == 8  # null leaves the default


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    assert main(["gap-scan", "--show-config"]) == 0
    plain = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "k": 5, "m": 3}))
    assert main(["gap-scan", "--config", str(cfg), "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3
    assert main(["gap-scan", "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out) == plain


def test_parser_built_once_per_process(not_program, capsys):
    gsqc.cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["run", "--program", not_program]) == 0
    assert gsqc.cli.build_parser.cache_info().misses == 1


def test_verify_passes(capsys):
    assert main(["verify", "--checks", "single-qubit-spectrum,gate-commutation"]) == 0
    out = capsys.readouterr().out
    assert "single-qubit-spectrum" in out and "PASS" in out


def test_verify_block_spectrum_oracle_and_seconds(capsys):
    assert len(gsqc.verify.ALL_CHECKS) == 13
    assert main(["verify", "--checks", "block-spectrum-oracle"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    name, mark, seconds, unit = line.split()[:4]
    assert (name, mark, unit) == ("block-spectrum-oracle", "PASS", "s")
    assert float(seconds) >= 0.0


def test_verify_names_broken_check(monkeypatch, capsys):
    real = gsqc.hamiltonian.cnot_term

    def perturbed(basis, control, target, row, eps=1.0):
        term = real(basis, control, target, row, eps)
        idx = basis.indices_where({control: 0})
        bump = SparseHermitian(basis.dim, idx, idx, np.full(idx.size, 0.05 * eps))
        return term + bump

    monkeypatch.setattr(gsqc.hamiltonian, "cnot_term", perturbed)
    assert main(["verify", "--checks", "cnot-spectrum-oracle"]) == 1
    captured = capsys.readouterr()
    assert "cnot-spectrum-oracle" in captured.out
    assert "FAIL" in captured.out
    assert "cnot-spectrum-oracle" in captured.err
