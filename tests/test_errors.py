import re
from pathlib import Path

import numpy as np
import pytest

from terniq import widgets
from terniq.arithmetic import (ShiftSpec, mcx_ops, mod_add_const, ripple_add_const,
                               ripple_add_const_ternary)
from terniq.circuit import Chain, Circuit, MeasureOp, RusOp, gate_op
from terniq.errors import (CatalogError, NonUnitaryError, ParseError, SizeError, WidthCapError,
                           as_int, int_fields)
from terniq.gates import is_clifford, matrix_for_name
from terniq.sim import StateVector, choice_draw, circuit_unitary, run
from terniq.textfmt import deserialize

SRC = Path(__file__).parents[1] / "src" / "terniq"


@pytest.mark.parametrize("value,expected", [(3, 3), (True, 1), (False, 0), (np.int64(7), 7),
                                            (np.uint8(2), 2), (2**80, 2**80)], ids=repr)
def test_as_int_returns_a_python_int(value, expected):
    got = as_int(value, "x", 0)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value,low,high,message", [
    (1.5, None, None, "non-integer digits: 1.5 is not an integer"),
    (2.0, 0, None, "non-integer digits: 2.0 is not an integer >= 0"),
    ("3", None, None, "non-integer digits: '3' is not an integer"),
    (None, None, 5, "non-integer digits: None is not an integer <= 5"),
    (np.float64(1.0), 0, 2, "non-integer digits: np.float64(1.0) is not an integer in [0, 2]"),
    (-1, 0, None, "out-of-range digits: -1 is not an integer >= 0"),
    (3, 0, 2, "out-of-range digits: 3 is not an integer in [0, 2]"),
    (np.int8(-4), None, -5, "out-of-range digits: -4 is not an integer <= -5"),
], ids=repr)
def test_as_int_names_the_field_and_its_bounds(value, low, high, message):
    with pytest.raises(SizeError, match=f"^{re.escape(message)}$"):
        as_int(value, "digits", low, high)


def test_int_fields_sets_each_field_to_its_int():
    op = MeasureOp(np.int64(1), True)
    assert (op.wire, op.slot) == (1, 1) and type(op.wire) is type(op.slot) is int
    int_fields(op, wire=1)
    with pytest.raises(SizeError, match="out-of-range MeasureOp slot: 1 is not an integer >= 2"):
        int_fields(op, slot=2)


def test_only_the_errors_module_checks_integer_ness():
    # any other input check goes through as_int or int_fields
    idioms = re.compile(r"__index__|np\.integer\)\)|operator\.index")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1) if idioms.search(line)]
    assert offenders == [] and idioms.search((SRC / "errors.py").read_text())


def _rus(**form):
    return RusOp(Circuit(1, (gate_op("INC", 0), MeasureOp(0, 0))), **form)


# error paths that no other test reaches: each raises its TerniqError, not a bare exception
@pytest.mark.parametrize("call,error,message", [
    (lambda: mcx_ops((0, 1, 2), 3), SizeError, "3 controls need 2 markers"),
    (lambda: ripple_add_const(ShiftSpec(1, 4, "ternary")), SizeError, "binary encoding"),
    (lambda: ripple_add_const(ShiftSpec(1, 4, modulus=7)), SizeError, "no modulus"),
    (lambda: ripple_add_const_ternary(ShiftSpec(1, 4)), SizeError, "ternary encoding"),
    (lambda: mod_add_const(ShiftSpec(1, 4)), SizeError, "needs a modulus"),
    (lambda: _rus(predicate=((0, 1),), chain=Chain(0, {(0, 1): 1}, frozenset({1}))),
     SizeError, "exactly one of predicate or chain"),
    (lambda: run(Circuit(1, ()), gate_mode="x"), SizeError, "gate_mode 'x'"),
    (lambda: run(Circuit(1, (MeasureOp(0, 0),)), StateVector(1, np.array([2, 0, 0], complex))),
     NonUnitaryError, "norm drifted to 4"),
    (lambda: run(Circuit(1, (_rus(chain=Chain(0, {(0, 0): 1}, frozenset({1}))),))),
     SizeError, "no transition from state 0 on outcome 1"),
    (lambda: circuit_unitary(Circuit(3, ()), cap=2), WidthCapError, "width 3 > 2"),
    (lambda: circuit_unitary(Circuit(1, (MeasureOp(0, 0),))), NonUnitaryError, "unitary circuit"),
    (lambda: is_clifford(matrix_for_name("C1[SUM]")), SizeError, "arity <= 2"),
    (lambda: deserialize("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 expected x\n"),
     ParseError, "expected a number, got 'x'"),
    (lambda: deserialize("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 corrections {\n"),
     ParseError, "line 4, col 1: unknown rus option 'corrections'"),
    (lambda: widgets.toffoli_emulated("x"), SizeError, "ancilla_mode 'x'"),
    (lambda: widgets.ccc_not("x"), SizeError, "ancilla_mode 'x'"),
    (lambda: widgets.horner_gates("x"), SizeError, "unknown horner kind 'x'"),
    (lambda: widgets.resource_state_prep("x"), SizeError, "unknown resource state 'x'"),
    (lambda: widgets.add_binary_control(widgets.cnot_emulated(), 2), SizeError,
     "control wire 2 undeclared"),
    (lambda: widgets.tau2_ops(0, 1, (0, 2), (0, 2)), SizeError, "degenerate reflection"),
    (lambda: matrix_for_name({}), CatalogError, "gate name {} is not a string"),
    (lambda: matrix_for_name(5), CatalogError, "gate name 5 is not a string"),
    (lambda: matrix_for_name(None), CatalogError, "gate name None is not a string"),
    (lambda: matrix_for_name(b"INC"), CatalogError, "gate name b'INC' is not a string"),
    (lambda: choice_draw("x", None), SizeError, "needs three probabilities, got 'x'"),
    (lambda: choice_draw([0.5, 0.5], None), SizeError, "needs three probabilities"),
    (lambda: choice_draw(None, None), SizeError, "needs three probabilities, got None"),
    (lambda: Circuit(2, ("x",)), SizeError, "'x' is not an instruction in circuit"),
], ids=["mcx markers", "binary adder encoding", "binary adder modulus", "ternary adder encoding",
        "modular adder modulus", "rus predicate and chain", "gate mode", "unnormalised measurement",
        "rus chain without transition", "unitary above cap", "unitary of a measurement",
        "clifford arity 3", "reader expected", "reader corrections", "toffoli mode", "ccc mode",
        "horner kind", "resource state", "binary control wire", "tau2 of one pair",
        "gate name dict", "gate name int", "gate name None", "gate name bytes",
        "draw from a string", "draw from two", "draw from None", "circuit of a string"])
def test_reachable_error_paths_raise_their_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
