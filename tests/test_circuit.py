import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_unitary
from terniq.circuit import (
    Chain,
    Circuit,
    CondGateOp,
    GateOp,
    MeasureOp,
    RusOp,
    compose,
    count_resources,
    inverse,
    remap_wires,
)
from terniq.errors import (CircuitNameError, NonUnitaryError, ParseError, SizeError, TerniqError,
                           WidthMismatchError)
from terniq.gates import GateMatrix, matrix_for_name
from terniq.sim import circuit_unitary, run
from terniq.textfmt import deserialize, serialize
from terniq import widgets


def g(name, *wires):
    return GateOp(matrix_for_name(name), tuple(wires))


_MEASURED = Circuit(1, (MeasureOp(0, 0),))  # the smallest valid RUS body


def x_ladder(width):
    return Circuit(width, tuple(g("INC", w) for w in range(width)))


def test_compose_inverse_identity():
    c = x_ladder(3)
    both = compose(c, inverse(c))
    u = circuit_unitary(both)
    assert np.allclose(u, np.eye(27), atol=1e-12)


def test_blocks_concatenate_to_the_instructions():
    add = (g("SUM", 0, 1), g("INC", 2))
    c = Circuit(3, blocks=[add, [g("TSWAP", 1, 2)], add, ()], name="shared")
    assert c.instructions == add + (g("TSWAP", 1, 2),) + add
    assert c.blocks[0] is c.blocks[2] is add and len(c.blocks) == 3  # empty blocks drop out
    flat = Circuit(3, c.instructions, name="shared")
    assert flat.blocks == (c.instructions,) and flat == c and hash(flat) == hash(c)
    assert replace(c, name="renamed").blocks[0] is add
    both = compose(c, c)
    assert both.blocks == c.blocks + c.blocks and both.blocks[3] is add
    with pytest.raises(SizeError, match="concatenate"):
        Circuit(3, add, blocks=[add, add])
    with pytest.raises(WidthMismatchError):
        Circuit(2, blocks=[add])


def test_compose_width_mismatch():
    with pytest.raises(WidthMismatchError):
        compose(x_ladder(2), x_ladder(3))


def test_counts_additive():
    a = widgets.cnot_emulated()
    b = widgets.c1z_from_p9()
    ca, cb = count_resources(a), count_resources(b)
    cc = count_resources(compose(a, b))
    assert cc.p9_count == ca.p9_count + cb.p9_count
    assert cc.clifford_count == ca.clifford_count + cb.clifford_count
    assert cc.p9_depth <= ca.p9_depth + cb.p9_depth


def test_inverse_rejects_measurement():
    c = Circuit(1, (MeasureOp(0, 0),))
    with pytest.raises(NonUnitaryError):
        inverse(c)


def test_inverse_involution():
    c = widgets.cnot_emulated()
    assert inverse(inverse(c)).instructions == c.instructions


def test_inverse_single_inc():
    c = Circuit(1, (g("INC", 0),))
    u = circuit_unitary(inverse(c))
    v = np.zeros(3)
    v[0] = 1
    assert (u @ v)[2] == 1.0  # INC^dag |0> = |2>


def test_inverse_random_clifford_circuits(rng):
    names = ["H", "Q", "INC", "Z", "SUM", "TSWAP"]
    for trial in range(10):
        ops = []
        for _ in range(12):
            name = names[rng.integers(len(names))]
            gm = matrix_for_name(name)
            wires = tuple(rng.choice(3, size=gm.arity, replace=False))
            ops.append(GateOp(gm, wires))
        c = Circuit(3, tuple(ops))
        u = circuit_unitary(compose(c, inverse(c)))
        assert np.allclose(u, np.eye(27), atol=1e-10)


def test_depth_subadditive_and_deterministic():
    a = widgets.toffoli_emulated("one_clean")
    ra = count_resources(a)
    rb = count_resources(compose(a, a))
    assert rb.p9_depth <= 2 * ra.p9_depth
    assert count_resources(a) == count_resources(a)


def test_costed_primitive_tally():
    c = widgets.horner_gates("CF_LSUM", f=1)
    rc = count_resources(c)
    assert rc.p9_count == 23
    assert dict(rc.costed_primitive_tally) == {"L[SUM]": 2, "C1[SUM]": 1}


def test_injection_widget_composes_to_p9_squared(rng):
    # running the injection widget twice applies P9^2
    w = widgets.p9_injection_widget()
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    state = v
    from terniq.sim import product_state, resource_state
    for i in range(2):
        rec = run(w, product_state([state, resource_state("mu")]), seed=i)
        m = rec.slots[0]
        state = rec.state.amps.reshape(3, 3)[m, :]
        state = state / np.linalg.norm(state)
    want = np.linalg.matrix_power(matrix_for_name("P9").matrix, 2) @ v
    idx = np.argmax(np.abs(want))
    assert np.linalg.norm(state - (state[idx] / want[idx]) * want) < 1e-10


# -------------------------------------------------------- serialization

from terniq.arithmetic import ShiftSpec, mod_add_const, ripple_add_const
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.qft import qft3n

WIDGET_CIRCUITS = [
    widgets.p9_injection_widget(),
    widgets.r2_injection_rus(),
    widgets.c1z_from_p9(),
    widgets.c1z_depth_one(),
    widgets.cnot_emulated(),
    widgets.toffoli_emulated("none"),
    widgets.toffoli_emulated("one_clean"),
    widgets.ccc_not("two_clean"),
    widgets.ccc_not("one_clean"),
    widgets.horner_gates("LLSUM"),
    widgets.resource_state_prep("plus_omega3"),
    widgets.resource_state_prep("eta"),
    widgets.resource_state_prep("psi"),
    ripple_add_const(ShiftSpec(11, 4, "binary", control="double")).circuit,
    mod_add_const(ShiftSpec(7, 4, "ternary", modulus=13,
                            control="single", control_mode="ternary")).circuit,
    qft3n(4),
    modexp_circuit(ModExpSpec(7, 15)).circuit,  # a name with spaces
]


@pytest.mark.parametrize("circ", WIDGET_CIRCUITS, ids=lambda c: c.name)
def test_round_trip_identity(circ):
    text = serialize(circ)
    back = deserialize(text)
    assert back == circ
    assert serialize(back) == text


def _rus_with(**fields):
    rus = widgets.r2_injection_rus()
    return Circuit(rus.width, (replace(rus.instructions[0], **fields),), rus.ancillas, rus.name)


@pytest.mark.parametrize("name,field,message", [
    pytest.param(n, "name", repr(n[1]), id=n) for n in ("a#b", "a\nb", "a\r\nb", "a\u2028b")
] + [
    pytest.param(" a", "name", "edge whitespace", id="name-leading-space"),
    pytest.param("a\t", "name", "edge whitespace", id="name-trailing-tab"),
    pytest.param("a b", "label", repr(" "), id="label-space"),
    pytest.param("x#y", "label", repr("#"), id="label-hash"),
    pytest.param("a\nb", "label", repr("\n"), id="label-newline"),
])
def test_serialize_rejects_names_the_reader_would_cut(name, field, message):
    # the reader strips '#' comments, splits lines, strips the header line and
    # splits a rus tail on whitespace, so these would not round trip
    circ = Circuit(1, (), name=name) if field == "name" else _rus_with(label=name)
    with pytest.raises(CircuitNameError, match=re.escape(message)):
        serialize(circ)


def test_parse_simple_gate_line():
    c = deserialize("circuit 2\ngate SUM 0 1\n")
    assert len(c.instructions) == 1
    assert c.instructions[0].gate.name == "SUM"


def test_parse_rejects_bad_wire():
    with pytest.raises(ParseError):
        deserialize("circuit 2\ngate SUM 0 9\n")


def test_parse_error_carries_location():
    try:
        deserialize("circuit 2\n# fine\ngate NOPE 0\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected ParseError")


def test_comments_and_blank_lines():
    c = deserialize("circuit 1\n\n# comment\ngate INC 0  # trailing\n")
    assert len(c.instructions) == 1


def test_depth_bounded_by_count():
    for circ in WIDGET_CIRCUITS:
        rc = count_resources(circ)
        assert rc.p9_depth <= rc.p9_count or rc.p9_count == 0


def test_counts_invariant_under_disjoint_interleaving():
    a = [g("P9", 0), g("H", 0), g("P9", 1), g("INC", 1)]
    b = [g("P9", 1), g("P9", 0), g("INC", 1), g("H", 0)]
    ca, cb = Circuit(2, tuple(a)), Circuit(2, tuple(b))
    ra, rb = count_resources(ca), count_resources(cb)
    assert (ra.p9_count, ra.clifford_count, ra.r_count) == \
           (rb.p9_count, rb.clifford_count, rb.r_count)


def test_rus_body_requires_measurement():
    from terniq.circuit import RusOp
    from terniq.errors import NonUnitaryError
    with pytest.raises(NonUnitaryError):
        RusOp(Circuit(1, (g("INC", 0),)), predicate=((0, 0),))


@pytest.mark.parametrize("wires", [(1, 1), (1,), (0, 1, 2), (0, 1.0), (0, 1.5), (0, "1"), (0, None)],
                         ids=str)
def test_every_gate_slot_checks_its_wires(wires):
    # GateOp, CondGateOp and gate_op refuse
    # repeated wires, a wire count other than the arity and a non-integer wire alike
    from terniq.circuit import CondGateOp, gate_op
    sum_gate = matrix_for_name("SUM")
    gate_op("SUM", 0, 1)  # the cached op on wires (0, 1) must not answer for (0, 1.0)
    for build in (lambda: GateOp(sum_gate, wires),
                  lambda: CondGateOp(0, 0, GateOp(sum_gate, wires)),
                  lambda: gate_op("SUM", *wires),
                  lambda: gate_op("SUM", *wires)):  # twice: lru_cache stores no exception
        with pytest.raises(SizeError):
            build()


@pytest.mark.parametrize("make", [
    lambda: MeasureOp(1.0, 0), lambda: MeasureOp(0, "a"), lambda: MeasureOp(None, 0),
    lambda: CondGateOp("x", 1, GateOp(matrix_for_name("INC"), (0,))),
    lambda: CondGateOp(0, 1.5, GateOp(matrix_for_name("INC"), (0,))),
    lambda: remap_wires(Circuit(1, (MeasureOp(0, 0),)), {0: 1.5}, 2),
    lambda: run(Circuit(2, (MeasureOp(1.0, 0),))),
    lambda: RusOp(_MEASURED, predicate=((0.5, 0),)),
    lambda: RusOp(_MEASURED, predicate=((0, 0),), outcome_slot="a"),
    lambda: RusOp(_MEASURED, chain=Chain(0, {(0, 0): "z"}, frozenset({1}))),
    lambda: RusOp(_MEASURED, predicate=5),
], ids=["wire 1.0", "slot 'a'", "wire None", "slot 'x'", "value 1.5", "remapped wire", "run",
        "predicate slot 0.5", "outcome slot 'a'", "chain target 'z'",
        "predicate 5"])
def test_measure_and_condition_fields_are_integers(request, make):
    # each would fail later: a bare TypeError in a run, or text that the reader rejects;
    # a predicate that is no sequence at all is not a tuple of pairs
    whole = request.node.callspec.id == "predicate 5"
    with pytest.raises(SizeError, match="not a tuple of pairs" if whole else "non-integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: GateOp("INC", (0,)),
    lambda: CondGateOp(0, 1, "INC"),
    lambda: CondGateOp(0, 1, matrix_for_name("INC")),
], ids=["gate name", "conditioned name", "conditioned matrix"])
def test_gate_slots_take_only_gate_ops(make):
    # each raised a bare AttributeError or ValueError, or was accepted and failed in a run
    with pytest.raises(TerniqError, match="not a GateMatrix|not a GateOp"):
        make()


def test_integer_fields_round_trip_as_python_ints():
    ops = (MeasureOp(np.int64(1), np.int8(2)),
           CondGateOp(np.int64(2), np.int64(1), GateOp(matrix_for_name("INC"), (0,))))
    assert [type(v) for v in (ops[0].wire, ops[0].slot, ops[1].slot, ops[1].value)] == [int] * 4
    c = Circuit(2, ops)
    assert deserialize(serialize(c)) == c


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"max_iters": -3}, {"max_iters": 2.5},
                                 {"expected_trials": -1.0}, {"expected_trials": 0.0},
                                 {"expected_trials": float("nan")},
                                 {"expected_trials": float("inf")}], ids=str)
def test_rus_loop_fields_are_checked(bad):
    # serialize would write each of these, and the reader rejects them
    with pytest.raises(SizeError):
        RusOp(Circuit(1, (MeasureOp(0, 0),)), predicate=((0, 0),), **bad)


@pytest.mark.parametrize("bad", [{"expected_trials": "x"}, {"label": 3}, {"predicate": ((0,),)}],
                         ids=["expected trials 'x'", "label 3", "one-element predicate"])
def test_rus_text_and_pair_fields_are_checked(bad):
    # each raised a bare TypeError or ValueError, or was accepted and serialize raised
    fields = {"predicate": ((0, 0),), **bad}
    with pytest.raises(SizeError):
        RusOp(Circuit(1, (MeasureOp(0, 0),)), **fields)


@pytest.mark.parametrize("trials", [np.float64(1.5), 2, True], ids=repr)
def test_rus_expected_trials_round_trip_as_a_float(trials):
    # serialize wrote the repr of the value given, and the reader refused 'np.float64(1.5)'
    c = Circuit(1, (RusOp(Circuit(1, (MeasureOp(0, 0),)), predicate=((0, 0),),
                          expected_trials=trials),))
    assert type(c.instructions[0].expected_trials) is float
    assert deserialize(serialize(c)) == c


def test_every_instruction_checks_the_circuit_width():
    # a wire at the width, in each kind of instruction, in a width-2 circuit
    from terniq.circuit import CondGateOp, RusOp
    inc = matrix_for_name("INC")
    for op in (GateOp(inc, (2,)), MeasureOp(2, 0), CondGateOp(0, 0, GateOp(inc, (2,))),
               RusOp(Circuit(3, (MeasureOp(2, 0),)), predicate=((0, 0),))):
        with pytest.raises(WidthMismatchError, match="wire 2 outside width 2 in circuit"):
            Circuit(2, (op,))
    with pytest.raises(WidthMismatchError, match="wire -1 outside width 2"):
        Circuit(2, (MeasureOp(-1, 0),))
    rus = RusOp(Circuit(3, (GateOp(inc, (1,)), MeasureOp(0, 0))), predicate=((0, 0),))
    assert rus.wires == (0, 1)
    Circuit(2, (rus,))


def test_integer_like_wires_are_stored_as_ints():
    from terniq.circuit import CondGateOp, gate_op
    inc = matrix_for_name("INC")
    for wires in (GateOp(inc, (np.int64(1),)).wires, GateOp(inc, (True,)).wires,
                  CondGateOp(0, 0, GateOp(inc, (np.int64(1),))).wires, gate_op("INC", np.int64(1)).wires):
        assert wires == (1,) and type(wires[0]) is int
    text = serialize(Circuit(2, (GateOp(inc, (np.int64(1),)),)))
    assert text == "circuit 2\ngate INC 1\n" and deserialize(text).instructions[0].wires == (1,)


@pytest.mark.parametrize("width", [-1, 1.5, 2.0, "2", None], ids=repr)
def test_circuit_width_is_a_non_negative_integer(width):
    with pytest.raises(SizeError, match="is not an integer >= 0"):
        Circuit(width, ())


def test_circuit_width_is_stored_as_an_int():
    c = Circuit(np.int64(2), ())
    assert c.width == 2 and type(c.width) is int
    assert Circuit(0, ()).width == 0


def test_remap_wires_names_a_missing_wire():
    from terniq.circuit import remap_wires
    c = Circuit(2, (g("SUM", 0, 1),))
    with pytest.raises(WidthMismatchError, match="wire 1"):
        remap_wires(c, {0: 3}, 4)
    with pytest.raises(WidthMismatchError, match="wire 1"):
        remap_wires(Circuit(2, (MeasureOp(1, 0),)), {0: 0}, 2)
    with pytest.raises(WidthMismatchError, match="wire 1"):
        remap_wires(Circuit(2, (), ancillas=frozenset({1})), {0: 0}, 2)
    assert remap_wires(c, {0: 3, 1: 2}, 4).instructions == (g("SUM", 3, 2),)


def test_gate_op_shares_one_op_per_name_and_wires():
    from terniq.circuit import gate_op
    op = gate_op("C1[SUM]", 0, 2, 1)
    assert gate_op("C1[SUM]", 0, 2, 1) is op
    assert op == g("C1[SUM]", 0, 2, 1) and op.wires == (0, 2, 1)
    assert gate_op("C1[SUM]", 0, 1, 2) is not op


def test_adjoint_ops_twice_gives_back_the_same_objects():
    from terniq.circuit import adjoint_ops, gate_op
    ops = [gate_op("SUM", 0, 1), gate_op("TSWAP", 1, 2), gate_op("L[SUM]_INV", 2, 0, 1),
           gate_op("H", 0), gate_op("P9", 2)]
    once = adjoint_ops(ops)
    assert [op.gate for op in once] == [op.gate.adjoint() for op in reversed(ops)]
    assert len(once) == len(ops) and all(a is b for a, b in zip(adjoint_ops(once), ops))
    assert all(a is b for a, b in zip(adjoint_ops(ops), once))
    # the adjoint of a catalog op is the shared op of the adjoint's name
    assert once[-1] is gate_op("SUM_INV", 0, 1) and once[-2] is gate_op("TSWAP", 1, 2)
    # an op outside the catalog, or built without gate_op, keeps one adjoint op of its own
    rand = GateOp(GateMatrix("RAND", 1, random_unitary(np.random.default_rng(5), 3)), (0,))
    unshared = g("C2[INC]", 0, 1)
    for op in (rand, unshared):
        assert adjoint_ops([op])[0] is adjoint_ops([op])[0]
        assert adjoint_ops(adjoint_ops([op])) == [op]
    assert adjoint_ops([unshared])[0] is gate_op("C2[INC]_INV", 0, 1)


# instructions the circuit model would reject, and input repeated where serialize
# writes one value, with the line the parser names
BAD_INSTRUCTIONS = [
    ("circuit 2\nmeasure 5 -> c0", 2),
    ("circuit 2\nmeasure -1 -> c0", 2),
    ("circuit 2\ngate SUM 0 0", 2),
    ("circuit 1\n# a body with no measurement\nrus {\ngate INC 0\n} until c0==0", 5),
    ("circuit 2\nmeasure 0 -> c0\ncc c0==0 gate SUM 1 1", 3),
    # corrections is no rus option: a gate on a loop's outcome is a cc line after the loop
    ("circuit 2\nrus {\nmeasure 0 -> c0\n} until c0==0 corrections {\n0: gate INC 1\n}", 4),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 maxiter 0", 4),
    ("circuit 1\n\nrus {\nmeasure 0 -> c0\n} until c0==0 maxiter -2", 5),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 expected -1.0", 4),
    ("circuit 2\nancilla 0\ngate SUM 0 1\nancilla 1", 4),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 maxiter 5 maxiter 6", 4),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 label a expected 0.5 label b", 4),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until chain(c0) start=0 accept=1 trans=0,0,1|0,0,2", 4),
    ("circuit 1\nrus {\nmeasure 0 -> c0\n} until chain(c0) start=0 start=1 accept=1 trans=0,0,1", 4),
]


@pytest.mark.parametrize("text", [
    "",
    "circuit",
    "circuit x",
    "circuit 2\ngate",
    "circuit 2\ngate SUM 0",
    "circuit 2\nmeasure 0 ->",
    "circuit 2\ncc c0=1 gate INC 0",
    "circuit 1\nrus {\n",
    "circuit 1\nrus {\ngate INC 0\n} until",
    "circuit 1\nrus {\nmeasure 0 -> c0\n} until c0==0 corrections {",
    "circuit 2\ngate TAU2[1,99] 0 1",
    "circuit 1\ngate PHASE[1,0] 0",
    "circuit 1\nancilla 5\n",
    "circuit -1",
    *(pytest.param(text, id=text.split("\n", 1)[1]) for text, _ in BAD_INSTRUCTIONS),
    *(pytest.param(f"circuit 1\nrus {{\nmeasure 0 -> c0\n}} until {tail}", id=tail) for tail in (
        "c0==0 maxiter",
        "c0==0 consumes psi",
        "c0==0 consumes psi:x",
        "c0==0 expected nan",
        "c0==0 expected inf",
        "c0==0 expected 0",
        "chain(c0) start=x",
        "chain(c0) start=0 accept=1 trans=0,0",
        "chain(c0x start=0 accept=1 trans=0,1,1",
    )),
])
def test_malformed_documents_raise_parse_errors(text):
    from terniq.errors import ParseError
    with pytest.raises(ParseError):
        deserialize(text)


@pytest.mark.parametrize("text,line", BAD_INSTRUCTIONS, ids=lambda v: str(v).split("\n", 1)[-1])
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert exc.value.line == line


def test_fuzz_round_trips(rng):
    # random gate soups over the name grammar survive exact round trips
    names = ["INC", "H", "Q", "P9", "R2", "SUM", "TSWAP", "C2[INC]", "L[SUM]",
             "TAU1[0,2]", "TAU2[3,7]", "PHASE[5,27]", "X2Z1", "C1[SUM]_INV"]
    for _ in range(30):
        width = int(rng.integers(2, 6))
        ops = []
        for _ in range(int(rng.integers(1, 25))):
            gm = matrix_for_name(names[rng.integers(len(names))])
            if gm.arity > width:
                continue
            wires = tuple(int(w) for w in rng.choice(width, size=gm.arity, replace=False))
            ops.append(GateOp(gm, wires))
        c = Circuit(width, tuple(ops))
        assert deserialize(serialize(c)) == c
