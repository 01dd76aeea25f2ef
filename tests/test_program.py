import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsqc.detection import attach_readout
from gsqc.errors import ProgramError
from gsqc.hamiltonian import assemble
from gsqc.program import (Pin, Program, gate_cid, gate_cnot, gate_single, load_program,
                          pin_all, program_from_dict, program_to_dict, validate_program)
from gsqc.semantics import random_program

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


@pytest.mark.parametrize("entry", [10 ** 400, float("inf"), float("nan"), 1e200],
                         ids=["int-past-float", "inf", "nan", "huge"])
def test_matrix_entry_beyond_float_range_rejected(entry):
    doc = {"qubits": 1, "steps": 1,
           "gates": [{"kind": "single", "row": 1, "qubit": 0,
                      "matrix": [[[entry, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
    with pytest.raises(ProgramError):
        program_from_dict(doc)
    with pytest.raises(ProgramError):
        validate_program(Program(num_qubits=1, num_steps=1,
                                 gates=[gate_single(1, 0, [[entry, 0], [0, 1]])]))


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


def test_readout_strength_survives_json():
    prog = attach_readout(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)],
                                  input_pins=[Pin(0, 1), Pin(1, 0)]), strength=3.0)
    back = program_from_dict(json.loads(json.dumps(program_to_dict(prog))))
    assert back.readout_strength == 3.0
    assert np.array_equal(assemble(back)[1].toarray(), assemble(prog)[1].toarray())


def test_readout_strength_written_only_when_set():
    doc = program_to_dict(attach_readout(Program(num_qubits=1, num_steps=2)))
    assert "readout_strength" not in doc


@pytest.mark.parametrize("value", [0, -1.0, "3", True, float("nan"), float("inf"), [3.0]])
def test_readout_strength_rejected_like_lambda(value):
    with pytest.raises(ProgramError, match="readout strength"):
        program_from_dict({"qubits": 1, "steps": 1, "readout": [0], "readout_strength": value})


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
                | st.floats() | st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                     max_leaves=12)


_SMALL = st.integers(0, 3) | _JSON
_ENTRY = st.floats(-1.0, 1.0) | st.floats() | st.integers(-1, 1) | st.integers() | _JSON_LEAVES
_MATRIX = st.lists(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=2, max_size=2),
                   min_size=2, max_size=2)
# documents close enough to valid ones that validation gets past the
# unknown-field and required-field checks and reaches the values
_GATE_DOC = st.fixed_dictionaries(
    {"kind": st.sampled_from(["single", "cnot", "cid"]) | _JSON, "row": _SMALL,
     "matrix": _MATRIX | _JSON},
    optional={"qubit": _SMALL, "control": _SMALL, "target": _SMALL}
).map(lambda g: g if g["kind"] == "single" else {k: v for k, v in g.items() if k != "matrix"})
_PIN_DOC = st.fixed_dictionaries({}, optional={"qubit": _SMALL, "bit": _SMALL, "lambda": _SMALL})
_PROGRAM_DOC = st.fixed_dictionaries(
    {"qubits": st.integers(1, 3), "steps": st.integers(1, 3)},
    optional={"epsilon": _SMALL, "tip_beta": _SMALL, "readout_strength": _SMALL,
              "readout": st.lists(_SMALL, max_size=3) | _JSON,
              "gates": st.lists(_GATE_DOC, max_size=3) | _JSON,
              "pins": st.lists(_PIN_DOC, max_size=3) | _JSON})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, st.fixed_dictionaries({"qubits": _JSON, "steps": _JSON}), _PROGRAM_DOC))
def test_any_json_value_is_program_or_program_error(doc):
    try:
        program = program_from_dict(doc)
    except ProgramError:
        return
    assert isinstance(program, Program)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pool=st.sampled_from(["orthogonal", "unitary"]),
       kind=st.sampled_from(["cnot", "cid"]),
       beta=st.none() | st.floats(0.05, 1.0, exclude_min=True),
       strength=st.none() | st.floats(0.01, 100.0),
       epsilon=st.floats(0.01, 100.0), pin_strength=st.none() | st.floats(0.01, 100.0))
def test_random_program_roundtrips_field_by_field(seed, pool, kind, beta, strength, epsilon,
                                                  pin_strength):
    prog = random_program(np.random.default_rng(seed), gate_pool=pool, two_body_kind=kind)
    prog = replace(prog, epsilon=epsilon, tip_beta=beta,
                   input_pins=[replace(prog.input_pins[0], strength=pin_strength),
                               *prog.input_pins[1:]])
    if strength is not None or seed % 2:
        prog = attach_readout(prog, strength=strength)
    back = program_from_dict(json.loads(json.dumps(program_to_dict(prog))))
    for name in ("num_qubits", "num_steps", "epsilon", "tip_beta", "readout",
                 "readout_strength", "input_pins"):
        assert getattr(back, name) == getattr(prog, name), name
    assert len(back.gates) == len(prog.gates)
    for g, h in zip(prog.gates, back.gates):
        assert (g.kind, g.row, g.qubit, g.control, g.target) == (
            h.kind, h.row, h.qubit, h.control, h.target)
        if g.kind == "single":
            assert np.array_equal(np.asarray(g.matrix, dtype=complex), h.matrix)
