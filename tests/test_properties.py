"""Property tests: the costed binary-data networks and their P9 expansion,
the gate grammar, the two classical paths, and the text format on random
and mutated documents."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from terniq import widgets
from terniq.arithmetic import mcx_ops
from terniq.circuit import Chain, Circuit, CondGateOp, GateOp, MeasureOp, RusOp, count_resources, gate_op
from terniq.errors import ParseError
from terniq.gates import MAX_ARITY, matrix_for_name
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.sim import (basis_state, circuit_unitary, compile_classical, index_of_trits, run,
                        run_compiled, trits_of_index)
from terniq.textfmt import deserialize, serialize
from terniq.widgets import _expand

# costed primitives _expand rewrites, and Clifford gates it keeps
_TWO_WIRE = ([f"C{level}[INC]" for level in range(3)]
             + [f"C{level}[INC]_INV" for level in range(3)]
             + [f"C{level}[INC_INV]" for level in range(3)]
             + [f"TAU2[{j},{k}]" for j in range(9) for k in range(9) if j < k]
             + ["SUM", "SUM_INV", "TSWAP"])
_ONE_WIRE = ["TAU1[0,1]", "TAU1[1,2]", "INC"]


@st.composite
def costed_networks(draw):
    """(width, ops, helper): at most 4 data wires, an optional clean helper after them."""
    width = draw(st.integers(2, 4))
    helper = width if draw(st.booleans()) else None
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):
            name = draw(st.sampled_from(_TWO_WIRE))
            wires = draw(st.permutations(range(width)))[:2]
        else:
            name = draw(st.sampled_from(_ONE_WIRE))
            wires = (draw(st.integers(0, width - 1)),)
        ops.append(gate_op(name, *wires))
    return width, ops, helper


@settings(max_examples=40)
@given(costed_networks())
def test_expand_keeps_the_unitary(net):
    width, ops, helper = net
    full = width + (helper is not None)
    costed = circuit_unitary(Circuit(full, tuple(ops)))
    expanded = circuit_unitary(Circuit(full, tuple(_expand(ops, helper))))
    cols = 3**width  # with a helper, only the columns where it starts in |0>
    assert np.max(np.abs(expanded[:, :cols] - costed[:, :cols])) < 1e-12


@settings(max_examples=200)
@given(costed_networks())
def test_expand_keeps_the_p9_count(net):
    width, ops, helper = net
    full = width + (helper is not None)
    want = count_resources(Circuit(full, tuple(ops))).p9_count
    assert count_resources(Circuit(full, tuple(_expand(ops, helper)))).p9_count == want


@st.composite
def mcx_cases(draw):
    """(controls, target, markers, control bits, target bit) on shuffled wires."""
    k = draw(st.integers(0, 3))
    n_markers = max(k - 1, 0)
    wires = draw(st.permutations(range(k + 1 + n_markers)))
    bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return wires[:k], wires[k], wires[k + 1:], bits, draw(st.integers(0, 1))


@settings(max_examples=200)
@given(mcx_cases())
def test_mcx_flips_the_target_iff_every_control_is_one(case):
    controls, target, markers, bits, t = case
    width = len(controls) + 1 + len(markers)
    trits = [0] * width
    for w, b in zip(controls, bits):
        trits[w] = b
    trits[target] = t
    comp = compile_classical(Circuit(width, tuple(mcx_ops(controls, target, markers))))
    out = list(trits_of_index(run_compiled(comp, index_of_trits(trits)), width))
    trits[target] = t ^ all(bits)
    assert out == trits  # controls kept, markers back to 0


# serialized widgets, RUS factories and a modexp circuit, and tokens of the
# grammar (with out-of-range and malformed values) to splice into their lines
_DOCUMENTS = [serialize(c) for c in (
    widgets.p9_injection_widget(), widgets.r2_injection_rus(), widgets.ccc_not("one_clean"),
    widgets.resource_state_prep("psi"), widgets.resource_state_prep("plus_omega3"),
    modexp_circuit(ModExpSpec(2, 5, "ternary")).circuit)]
_TOKENS = ["-1", "0", "1", "2", "9", "x", "{", "}", "->", "c0", "c-1", "c0==1", "c0=1", "&&",
           "gate", "measure", "cc", "rus", "until", "ancilla", "circuit", "SUM", "INC", "P9",
           "TAU2[1,99]", "PHASE[1,0]", "chain(c0)", "chain(c0", "start=0", "accept=1|2",
           "trans=0,0,1", "trans=0,0", "maxiter", "expected", "nan", "label", "consumes",
           "psi:1", "psi", "corrections", "0:", "#", ":", ","]


@st.composite
def mutated_documents(draw):
    """A serialized circuit with one or two of its lines edited."""
    lines = draw(st.sampled_from(_DOCUMENTS)).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        k = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["number", "replace", "insert", "drop", "drop line",
                                     "drop kind", "copy line"]))
        numbers = [j for j, w in enumerate(words) if w.lstrip("-").isdigit()]
        if edit == "number" and numbers:
            # the grammar kept: a value repeated from the line, negative or large
            value = draw(st.sampled_from([words[j] for j in numbers] + ["-1", "99"]))
            words[draw(st.sampled_from(numbers))] = value
            lines[i] = " ".join(words)
        elif edit == "drop line":
            del lines[i]
        elif edit == "drop kind":  # every line of the same instruction, e.g. every measure
            lines = [ln for ln in lines if ln.split()[:1] != words[:1]] or lines[:1]
        elif edit == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "insert" or not words:
            lines[i] = " ".join(words[:k] + [draw(st.sampled_from(_TOKENS))] + words[k:])
        else:
            k = min(k, len(words) - 1)
            new = [draw(st.sampled_from(_TOKENS))] if edit == "replace" else []
            lines[i] = " ".join(words[:k] + new + words[k + 1:])
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_parse_error(text):
    try:
        deserialize(text)
    except ParseError:
        pass


@pytest.mark.parametrize("bad", ["gate SUM 1 1", "cc c0==0 gate SUM 1 1", "gate NOPE 0",
                                 "measure 9 -> c0", "  gate SUM 0 1 1  # indented"])
def test_a_repeated_bad_line_is_named_at_its_first_occurrence(bad):
    # the reader parses each distinct line once; the good lines around the bad
    # ones repeat too
    text = "\n".join(["circuit 2", "measure 0 -> c0", "gate INC 0", "gate INC 0", bad,
                      "gate INC 0", bad]) + "\n"
    with pytest.raises(ParseError) as first:
        deserialize(text)
    with pytest.raises(ParseError) as alone:
        deserialize(f"circuit 2\nmeasure 0 -> c0\n{bad}\n")
    assert first.value.line == 5
    assert str(first.value) == str(alone.value).replace("line 3", "line 5")


# ------------------------------------------------------------ gate grammar

_FIXED_NAMES = ["INC", "Z", "H", "Q", "Q0", "Q1", "Q2", "SUM", "TSWAP", "P9", "R2", "HBIN",
                "LOADMU", "LOADMUDG", "LOADPSI"]


@st.composite
def gate_names(draw, permutations=False):
    """A name of the gate grammar: a base gate under up to three controls and
    adjoints; with ``permutations``, only classical reversible gates."""
    kinds = ["fixed", "tau", "pauli"] + ([] if permutations else ["phase", "cmu"])
    kind = draw(st.sampled_from(kinds))
    if kind == "fixed":
        name = draw(st.sampled_from(["INC", "SUM", "TSWAP"] if permutations else _FIXED_NAMES))
    elif kind == "tau":
        arity = draw(st.integers(1, 2))
        j, k = sorted(draw(st.lists(st.integers(0, 3**arity - 1), min_size=2, max_size=2,
                                    unique=True)))
        name = f"TAU{arity}[{j},{k}]"
    elif kind == "pauli":
        name = f"X{draw(st.integers(0, 2))}Z{0 if permutations else draw(st.integers(0, 2))}"
    elif kind == "phase":
        name = f"{draw(st.sampled_from(['PHASE', 'PHASE1']))}[{draw(st.integers(-30, 30))},{draw(st.integers(1, 30))}]"
    else:
        name = f"CMU{draw(st.sampled_from(['', '_INV']))}[{draw(st.integers(0, 2))}]"
    for _ in range(draw(st.integers(0, 3))):
        wrap = draw(st.sampled_from(["C0", "C1", "C2", "L", "_INV"]))
        if wrap == "_INV":
            name += "_INV"
        elif matrix_for_name(name).arity < MAX_ARITY:
            name = f"{wrap}[{name}]"
    return name


@settings(max_examples=150)
@given(gate_names())
def test_gate_grammar_inverts_and_controls(name):
    u = matrix_for_name(name).matrix
    dim = len(u)
    assert np.max(np.abs(u @ matrix_for_name(name + "_INV").matrix - np.eye(dim))) < 1e-12
    if matrix_for_name(name).arity < MAX_ARITY:
        for mode in range(3):  # C<m>[U]: U on the block where the control is m
            want = np.eye(3 * dim, dtype=complex)
            want[mode * dim:(mode + 1) * dim, mode * dim:(mode + 1) * dim] = u
            assert np.max(np.abs(matrix_for_name(f"C{mode}[{name}]").matrix - want)) < 1e-12
        ladder = matrix_for_name(f"L[{name}]").matrix  # L[U]: U^c for control c
        for c in range(3):
            block = ladder[c * dim:(c + 1) * dim, c * dim:(c + 1) * dim]
            assert np.max(np.abs(block - np.linalg.matrix_power(u, c))) < 1e-12


@st.composite
def permutation_circuits(draw):
    """(circuit, basis index): classical gates on 1 to 7 wires, so both the
    small-gate and the wide dense kernels run."""
    width = draw(st.integers(1, 7))
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        gate = matrix_for_name(draw(gate_names(permutations=True)))
        if gate.arity <= width:
            ops.append(GateOp(gate, tuple(draw(st.permutations(range(width)))[:gate.arity])))
    return Circuit(width, tuple(ops)), draw(st.integers(0, 3**width - 1))


@settings(max_examples=150)
@given(permutation_circuits())
def test_dense_run_agrees_with_the_compiled_walk(case):
    circ, index = case
    out = run_compiled(compile_classical(circ), index)
    amps = run(circ, basis_state(circ.width, index)).state.amps
    assert np.flatnonzero(np.abs(amps) > 1e-12).tolist() == [out]
    assert abs(amps[out] - 1) < 1e-12


# ------------------------------------------------------- text round trips

_TEXT = "abcxyz019_[]{}()=&|.-"  # names, labels and resources: no '#', ',', ':' or space


@st.composite
def gate_slots(draw, width, gates):
    """(gate, wires): one of ``gates`` on distinct wires below ``width``."""
    gate = draw(st.sampled_from(gates))
    return gate, tuple(draw(st.permutations(range(width)))[:gate.arity])


@st.composite
def instructions(draw, width, gates, depth=0):
    kind = draw(st.sampled_from(["gate", "gate", "measure", "cc"] + (["rus"] if depth < 2 else [])))
    if kind == "gate":
        return GateOp(*draw(gate_slots(width, gates)))
    if kind == "measure":
        return MeasureOp(draw(st.integers(0, width - 1)), draw(st.integers(0, 3)))
    if kind == "cc":
        return CondGateOp(draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                          *draw(gate_slots(width, gates)))
    body = draw(st.lists(instructions(width, gates, depth + 1), max_size=4))
    body.insert(draw(st.integers(0, len(body))),
                MeasureOp(draw(st.integers(0, width - 1)), draw(st.integers(0, 3))))
    slots = st.integers(0, 3)
    if draw(st.booleans()):
        form = {"predicate": tuple(draw(st.lists(st.tuples(slots, st.integers(0, 2)),
                                                 min_size=1, max_size=3)))}
    else:
        states = st.integers(0, 4)
        form = {"chain": Chain(draw(states),
                               draw(st.dictionaries(st.tuples(states, st.integers(0, 2)), states,
                                                    max_size=4)),
                               frozenset(draw(st.lists(states, max_size=3)))),
                "outcome_slot": draw(slots)}
    corrections = tuple((draw(st.integers(0, 4)), *draw(gate_slots(width, gates)))
                        for _ in range(draw(st.integers(0, 2))))
    return RusOp(Circuit(width, tuple(body)), corrections=corrections,
                 max_iters=draw(st.integers(1, 5000)),
                 consumes=tuple(draw(st.lists(st.tuples(st.text(_TEXT, min_size=1, max_size=5),
                                                        st.integers(0, 9)), max_size=3))),
                 expected_trials=draw(st.floats(1e-3, 1e6)),
                 label=draw(st.text(_TEXT, max_size=6)), **form)


@st.composite
def repetitive_circuits(draw):
    """A random circuit in which some instructions appear again verbatim and
    a few gates recur on other wires."""
    width = draw(st.integers(2, 5))
    gates = [g for g in map(matrix_for_name, draw(st.lists(gate_names(), min_size=1, max_size=3)))
             if g.arity <= width] or [matrix_for_name("INC")]
    ops = draw(st.lists(instructions(width, gates), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 12))):
        ops.insert(draw(st.integers(0, len(ops))), draw(st.sampled_from(ops)))
    ancillas = frozenset(draw(st.lists(st.integers(0, width - 1), max_size=width)))
    name = draw(st.text(_TEXT + " ", max_size=12)).strip()
    return Circuit(width, tuple(ops), ancillas, name)


@settings(max_examples=200)
@given(repetitive_circuits(), st.data())
def test_text_round_trips_with_repeats_and_comments(circ, data):
    text = serialize(circ)
    assert deserialize(text) == circ
    commented = []
    for line in text.splitlines():
        if data.draw(st.integers(0, 4)) == 0:
            commented.append(data.draw(st.sampled_from(["", "# a note", "   # gate INC 0"])))
        commented.append(line + data.draw(st.sampled_from(["", "", "  # same line", "#"])))
    back = deserialize("\n".join(commented))
    assert back == circ
    assert serialize(back) == text
