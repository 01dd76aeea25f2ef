import json

import numpy as np
import pytest

from gsqc.errors import ProgramError
from gsqc.program import (Pin, Program, gate_cid, gate_cnot, gate_single, load_program,
                          pin_all, program_from_dict, program_to_dict, validate_program)

NOT = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_roundtrip_through_dict():
    prog = Program(num_qubits=2, num_steps=3, epsilon=2.0,
                   gates=[gate_single(1, 0, NOT), gate_cnot(2, 0, 1), gate_cid(3, 1, 0)],
                   input_pins=[Pin(0, 1, 0.5), Pin(1, 0)],
                   tip_beta=0.5, readout=[0, 1])
    back = program_from_dict(program_to_dict(prog))
    assert back.num_qubits == 2 and back.num_steps == 3
    assert back.epsilon == 2.0 and back.tip_beta == 0.5
    assert [g.kind for g in back.gates] == ["single", "cnot", "cid"]
    assert np.allclose(back.gates[0].matrix, NOT)
    assert back.input_pins[0].strength == 0.5 and back.input_pins[1].strength is None
    assert back.readout == [0, 1]


def test_unknown_program_field_rejected_by_name():
    with pytest.raises(ProgramError, match="bogus"):
        program_from_dict({"qubits": 1, "steps": 1, "bogus": 3})


def test_unknown_gate_field_rejected_by_name():
    doc = {"qubits": 2, "steps": 2,
           "gates": [{"kind": "cnot", "row": 1, "control": 0, "target": 1, "spin": 2}]}
    with pytest.raises(ProgramError, match="spin"):
        program_from_dict(doc)


def test_unknown_pin_field_rejected():
    with pytest.raises(ProgramError, match="weight"):
        program_from_dict({"qubits": 1, "steps": 1, "pins": [{"qubit": 0, "bit": 0, "weight": 1}]})


def test_missing_required_field():
    with pytest.raises(ProgramError, match="steps"):
        program_from_dict({"qubits": 1})


def test_non_unitary_matrix_rejected():
    bad = Program(num_qubits=1, num_steps=1,
                  gates=[gate_single(1, 0, np.array([[1.0, 0.0], [0.0, 2.0]]))])
    with pytest.raises(ProgramError, match="unitary"):
        validate_program(bad)


@pytest.mark.parametrize("program", [
    Program(num_qubits=1, num_steps=1,
            gates=[gate_single(1, 0, np.array([[np.nan, 0.0], [0.0, 1.0]]))]),
    Program(num_qubits=1, num_steps=1, epsilon=float("inf")),
    Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1.5, 0, 1)]),
    Program(num_qubits=True, num_steps=1),
    Program(num_qubits=2, num_steps=1, gates=[gate_cnot(1, [0], 1)]),
    Program(num_qubits=1, num_steps=1, tip_beta="x"),
    Program(num_qubits=1, num_steps=1, input_pins=[Pin(0, 0, "x")]),
    Program(num_qubits=1, num_steps=1, input_pins=[Pin(0.0, 0)]),
], ids=["nan-matrix", "inf-epsilon", "fractional-row", "bool-qubits", "list-control",
        "string-tip-beta", "string-lambda", "float-pin-qubit"])
def test_malformed_values_rejected(program):
    with pytest.raises(ProgramError):
        validate_program(program)


def test_slot_conflict_rejected():
    prog = Program(num_qubits=2, num_steps=2,
                   gates=[gate_cnot(1, 0, 1), gate_single(1, 1, NOT)])
    with pytest.raises(ProgramError, match="slot conflict"):
        validate_program(prog)


def test_row_and_index_bounds():
    with pytest.raises(ProgramError, match="row"):
        validate_program(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(3, 0, 1)]))
    with pytest.raises(ProgramError, match="differ"):
        validate_program(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 1, 1)]))
    with pytest.raises(ProgramError, match="tip_beta"):
        validate_program(Program(num_qubits=1, num_steps=1, tip_beta=0.0))
    with pytest.raises(ProgramError, match="pinned twice"):
        validate_program(Program(num_qubits=1, num_steps=1, input_pins=[Pin(0, 0), Pin(0, 1)]))
    with pytest.raises(ProgramError, match="readout"):
        validate_program(Program(num_qubits=1, num_steps=1, readout=[2]))


def test_load_program_file(tmp_path):
    doc = {"qubits": 1, "steps": 2,
           "gates": [{"kind": "single", "row": 1, "qubit": 0,
                      "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
           "pins": [{"qubit": 0, "bit": 0}]}
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(doc))
    prog = load_program(path)
    assert prog.num_steps == 2
    assert np.allclose(prog.gates[0].matrix, NOT)


def test_load_program_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProgramError, match="malformed"):
        load_program(path)


def test_load_program_integer_too_long_to_parse(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"qubits": ' + "9" * 5000 + ', "steps": 1}')
    with pytest.raises(ProgramError, match="malformed"):
        load_program(path)


def test_pin_all():
    prog = pin_all(Program(num_qubits=3, num_steps=2), "101")
    assert [(p.qubit, p.bit) for p in prog.input_pins] == [(0, 1), (1, 0), (2, 1)]
    with pytest.raises(ProgramError):
        pin_all(Program(num_qubits=2, num_steps=2), "1")
