"""Property tests: the costed binary-data networks and their P9 expansion,
the modular additive shift, the gate grammar, the two classical paths, the
measurement draw, the text format on random and mutated documents, the
dense planner against the reference executor, and how the suite reports a
failing property."""

import os
import shutil
import subprocess
import sys
from dataclasses import astuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, example, given, settings, strategies as st

from conftest import classical_map, expected, random_state_vector, reference_run, tallies
import terniq
from terniq import sim, widgets
from terniq.arithmetic import ShiftSpec, mcx_ops, mod_add_const
from terniq.circuit import (Chain, Circuit, CondGateOp, GateOp, MeasureOp, ResourceCount, RusOp, _gate_class,
                            count_resources, gate_op)
from terniq.errors import NonUnitaryError, ParseError, RusCapError
from terniq.gates import MAX_ARITY, matrix_for_name
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.sim import (StateVector, basis_state, choice_draw, circuit_unitary, compile_classical,
                        index_of_trits, run, run_compiled, trits_of_index)
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


@st.composite
def modular_shifts(draw):
    """A ``mod_add_const`` spec: N <= 40, any a < N, control and control mode."""
    encoding = draw(st.sampled_from(["binary", "ternary"]))
    base = 2 if encoding == "binary" else 3
    N = draw(st.integers(2, 40))
    digits = next(d for d in range(1, 8) if base**d >= 2 * N)
    control = draw(st.sampled_from(["none", "single", "double"]))
    modes = list(range(base)) + (["ternary"] if base == 3 and control == "single" else [])
    mode = 1 if control == "none" else draw(st.sampled_from(modes))
    return ShiftSpec(draw(st.integers(0, N - 1)), digits, encoding, N, control, mode)


@settings(max_examples=300)
@given(modular_shifts())
@example(ShiftSpec(6, 5, "binary", 16, "single", 0))            # even binary N
@example(ShiftSpec(13, 4, "ternary", 27, "single", "ternary"))  # ternary N divisible by 3
@example(ShiftSpec(0, 3, "ternary", 9, "double", 2))            # a = 0, double control
@example(ShiftSpec(0, 7, "binary", 40, "double", 0))
def test_mod_add_const_shifts_by_c_times_a_and_restores_the_ancillas(spec):
    ac = mod_add_const(spec)
    base = 2 if spec.encoding == "binary" else 3
    for cv in product(range(base), repeat=len(ac.controls)):
        want = expected(spec, ac, cv)
        for b, _, _, out in classical_map(ac, base, want, controls=cv):
            assert out == want[b], (cv, b)


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


@settings(max_examples=400)
@given(st.integers(2, 3), st.lists(st.sampled_from([0.0, 1e-300, 1e300]) | st.floats(1e-150, 1e150),
                                   min_size=3, max_size=3),
       st.integers(0, 2**32 - 1), st.booleans())
@example(3, [0.0, 0.0, 1.0], 0, False)
@example(3, [1.0, 0.0, 0.0], 0, False)
@example(3, [0.5, 0.0, 0.5], 0, False)
def test_choice_draw_is_generator_choice(d, weights, seed, at_uniform):
    """Outcome and generator state of ``Generator.choice(d, p=p / p.sum())``, zeros included."""
    p = weights[:d]
    if at_uniform:  # the first cumulative edge, to within rounding, where the uniform falls
        u = np.random.default_rng(seed).random()
        p[0] = u * sum(p[1:]) / (1 - u)
    probs = np.array(p)
    assume(0 < probs.sum() < np.inf)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = int(want_rng.choice(d, p=probs / probs.sum()))
    assert choice_draw(p + [0.0] * (3 - d), got_rng) == want
    assert got_rng.random() == want_rng.random()


# ------------------------------------------------------- text round trips

_TEXT = "abcxyz019_[]{}()=&|.-,:"  # names and labels: no '#' or space


@st.composite
def gate_slots(draw, width, gates):
    """(gate, wires): one of ``gates`` on distinct wires below ``width``."""
    gate = draw(st.sampled_from(gates))
    return gate, tuple(draw(st.permutations(range(width)))[:gate.arity])


def _flat(runs):
    return [op for ops in runs for op in ops]


@st.composite
def instructions(draw, width, gates, depth=0):
    """One instruction as a list, or a RUS loop followed by up to two gates conditioned on
    its outcome slot."""
    kind = draw(st.sampled_from(["gate", "gate", "measure", "cc"] + (["rus"] if depth < 2 else [])))
    if kind == "gate":
        return [GateOp(*draw(gate_slots(width, gates)))]
    if kind == "measure":
        return [MeasureOp(draw(st.integers(0, width - 1)), draw(st.integers(0, 3)))]
    if kind == "cc":
        return [CondGateOp(draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                           GateOp(*draw(gate_slots(width, gates))))]
    body = _flat(draw(st.lists(instructions(width, gates, depth + 1), max_size=4)))
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
    rus = RusOp(Circuit(width, tuple(body)), max_iters=draw(st.integers(1, 5000)),
                expected_trials=draw(st.floats(1e-3, 1e6)),
                label=draw(st.text(_TEXT, max_size=6)), **form)
    return [rus] + [CondGateOp(rus.outcome_slot, draw(st.integers(0, 2)),
                               GateOp(*draw(gate_slots(width, gates))))
                    for _ in range(draw(st.integers(0, 2)))]


@st.composite
def repetitive_circuits(draw):
    """A random circuit in which some instructions appear again verbatim and
    a few gates recur on other wires."""
    width = draw(st.integers(2, 5))
    gates = [g for g in map(matrix_for_name, draw(st.lists(gate_names(), min_size=1, max_size=3)))
             if g.arity <= width] or [matrix_for_name("INC")]
    ops = _flat(draw(st.lists(instructions(width, gates), min_size=1, max_size=8)))
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


# ------------------------------------------------------- resource count

def _reference_count(a: Circuit) -> ResourceCount:
    """The per-instruction visitor that ``count_resources`` replaced."""
    p9 = r2 = cliff = meas = synth = 0
    tally, rus_expected, frontier = {}, [], [0] * a.width

    def visit_gate(gate, wires):
        nonlocal p9, r2, cliff, synth
        kind, gp9, gdepth, _ = _gate_class(gate.name)
        if kind == "p9":
            p9 += gp9
        elif kind == "r2":
            r2 += 1
        elif kind == "costed":
            p9 += gp9
            base = gate.name.replace("_INV", "")  # an adjoint is tallied as its gate
            tally[base] = tally.get(base, 0) + 1
        elif kind == "synth":
            synth += 1
        else:
            cliff += 1
        level = max(frontier[w] for w in wires) + (gdepth if kind != "clifford" else 0)
        for w in wires:
            frontier[w] = level

    def visit(op):
        nonlocal meas
        if isinstance(op, (GateOp, CondGateOp)):
            visit_gate((op.op if isinstance(op, CondGateOp) else op).gate, op.wires)
        elif isinstance(op, MeasureOp):
            meas += 1
        else:
            for sub in op.body.instructions:
                visit(sub)
            rus_expected.append((op.label or "rus", op.expected_trials))

    for op in a.instructions:
        visit(op)
    return ResourceCount(p9, max(frontier, default=0), r2, cliff, meas, a.width, len(a.ancillas),
                         tuple(sorted(tally.items())), tuple(rus_expected), synth)


# every kind the count tells apart: P9 and its P9-like phases (PHASE[3,9] is Z,
# a Clifford), R2, costed primitives, externally synthesized gates and Cliffords
# on 1 to 4 wires
_COUNTED = ["P9", "P9_INV", "PHASE[3,9]", "R2", "R2_INV", "L[SUM]", "L[SUM]_INV", "C1[SUM]",
            "C0[INC_INV]", "C2[INC]_INV", "TAU2[1,5]", "HBIN", "PHASE[1,27]", "C1[C2[SUM]]",
            "INC", "H", "SUM", "TSWAP"]


@st.composite
def counted_circuits(draw):
    """Gates of every cost kind, conditioned gates, measurements and nested
    repeat-until-success loops with gates conditioned on their outcome, on 1 to 5 wires."""
    width = draw(st.integers(1, 5))
    names = draw(st.lists(st.one_of(st.sampled_from(_COUNTED), gate_names()), min_size=1, max_size=6))
    gates = [g for g in map(matrix_for_name, names) if g.arity <= width] or [matrix_for_name("P9")]
    ops = _flat(draw(st.lists(instructions(width, gates), max_size=24)))
    return Circuit(width, tuple(ops), frozenset(draw(st.lists(st.integers(0, width - 1)))))


@settings(max_examples=200)
@given(counted_circuits())
@example(Circuit(0, ()))
def test_count_resources_matches_the_per_instruction_visitor(circ):
    assert count_resources(circ) == _reference_count(circ)


# ------------------------------------------------------- shared blocks

def _compiled(circ):
    try:
        return compile_classical(circ).ops
    except NonUnitaryError as exc:  # a measurement or a gate that is no permutation
        return str(exc)


def _assert_blocks_change_nothing(circ, index=None):
    """``circ`` and the one-block circuit of its flat ops count, write and compile alike,
    and at width <= 8 a permutation runs alike on the dense path from basis ``index``."""
    flat = Circuit(circ.width, circ.instructions, circ.ancillas, circ.name)
    assert len(flat.blocks) <= 1 and flat == circ
    assert astuple(count_resources(circ)) == astuple(count_resources(flat))
    assert serialize(circ) == serialize(flat)
    compiled = _compiled(circ)
    assert compiled == _compiled(flat)
    if not isinstance(compiled, str) and index is not None and circ.width <= 8:
        init = basis_state(circ.width, index)
        assert np.array_equal(run(circ, init).state.amps, run(flat, init).state.amps)


@st.composite
def blocked_circuits(draw):
    """(circuit, basis index): up to four distinct blocks, each reused up to a dozen times in a
    random order, of permutation gates on 1 to 8 wires or of any instruction on 1 to 5."""
    permutations = draw(st.booleans())
    width = draw(st.integers(1, 8 if permutations else 5))
    names = draw(st.lists(gate_names(permutations=permutations), min_size=1, max_size=4))
    gates = [g for g in map(matrix_for_name, names) if g.arity <= width] or [matrix_for_name("INC")]
    ops = (gate_slots(width, gates).map(lambda slot: [GateOp(*slot)]) if permutations
           else instructions(width, gates))
    shared = [tuple(_flat(draw(st.lists(ops, min_size=1, max_size=12))))
              for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=12))
    circ = Circuit(width, ancillas=frozenset(draw(st.lists(st.integers(0, width - 1)))), blocks=order)
    return circ, draw(st.integers(0, 3**width - 1))


@settings(max_examples=200)
@given(blocked_circuits())
def test_shared_blocks_count_write_and_compile_as_their_flat_ops(case):
    _assert_blocks_change_nothing(*case)


@pytest.mark.parametrize("enc,N", [(enc, N) for N in (15, 21, 33, 35) for enc in ("binary", "ternary")]
                         + [pytest.param("binary", 1023, marks=pytest.mark.slow),
                            pytest.param("ternary", 727, marks=pytest.mark.slow)])
def test_modexp_blocks_count_write_and_compile_as_their_flat_ops(enc, N):
    circ = modexp_circuit(ModExpSpec(2, N, enc)).circuit
    assert len(circ.blocks) < len(circ.instructions) / 50  # the additions are shared blocks
    _assert_blocks_change_nothing(circ)


# the planner's gate classes: diagonal (P9, P9_INV and R2 are injected in injected mode),
# neither diagonal nor a permutation (single-wire and multi-wire), and permutations
_PLANNER_GATES = {
    "diagonal": ("P9", "P9_INV", "R2", "Z", "C1[Z]", "C2[C1[Z]]", "L[PHASE[1,9]]"),
    "dense": ("H", "H_INV", "L[H]", "C1[H]", "C2[L[H]]"),
    "permutation": ("INC", "TAU1[0,1]", "SUM", "SUM_INV", "C1[INC]", "C1[C1[INC]]", "L[SUM]"),
    "tswap": ("TSWAP",),
}


#: a failing planner-wide example is reported as drawn: shrinking it runs many full dense runs
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def planner_gate(draw, width, names):
    gm = draw(st.sampled_from([matrix_for_name(n) for n in names]))
    return gm, tuple(draw(st.permutations(range(width)))[:gm.arity])


@st.composite
def planner_ops(draw, width, in_rus=False):
    """A run of 1-4 gates of one class, a measurement, a conditioned gate, or a RUS block and
    up to two gates conditioned on its outcome."""
    fits = {kind: [n for n in names if matrix_for_name(n).arity <= width]
            for kind, names in _PLANNER_GATES.items()}
    every = [n for names in fits.values() for n in names]
    kind = draw(st.sampled_from([k for k, v in fits.items() if v] + ["measure", "cond"]
                                + ["rus"] * (not in_rus)))
    slot, wire = st.integers(0, 2), st.integers(0, width - 1)
    if kind == "measure":
        return [MeasureOp(draw(wire), draw(slot))]
    if kind == "cond":
        return [CondGateOp(draw(slot), draw(st.integers(0, 2)),
                           GateOp(*draw(planner_gate(width, every))))]
    if kind != "rus":
        return [GateOp(*draw(planner_gate(width, fits[kind])))
                for _ in range(draw(st.integers(1, 4)))]
    # a trial: H on the measured wire, a few more instructions, the measurement
    w, s = draw(wire), draw(slot)
    body = [gate_op("H", w)] + [op for _ in range(draw(st.integers(0, 2)))
                                for op in draw(planner_ops(width, True))] + [MeasureOp(w, s)]
    if draw(st.booleans()):
        form = {"predicate": ((s, draw(st.integers(0, 2))),)}
    else:  # states 0, 1 and the accepting 2, with a path to it
        trans = {(q, m): draw(st.integers(0, 2)) for q in (0, 1) for m in range(3)}
        trans[(0, draw(st.integers(0, 2)))], trans[(1, draw(st.integers(0, 2)))] = 1, 2
        form = {"chain": Chain(0, trans, frozenset({2})), "outcome_slot": s}
    rus = RusOp(Circuit(width, tuple(body)), max_iters=40,
                label=draw(st.sampled_from(["", "a", "b"])), **form)
    # a gate conditioned on the loop's outcome runs after it
    return [rus] + [CondGateOp(s, draw(st.integers(0, 2)), GateOp(*draw(planner_gate(width, every))))
                    for _ in range(draw(st.integers(0, 2)))]


@pytest.mark.parametrize("mode", ["ideal", "injected"])
@pytest.mark.parametrize("width", range(1, 11))
@settings(max_examples=8, phases=_NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**16), state_seed=st.integers(0, 2**16))
def test_planned_runs_match_the_reference_executor(width, mode, data, seed, state_seed):
    """Every planner rule at once: fused operators, diagonal runs, gathers, transposes,
    kernels and injections, between measurements, conditioned gates and RUS blocks."""
    runs = data.draw(st.lists(planner_ops(width), min_size=1, max_size=6))
    circ = Circuit(width, tuple(op for ops in runs for op in ops))
    init = random_state_vector(np.random.default_rng(state_seed), width)
    try:
        rec = run(circ, StateVector(width, init), seed=seed, gate_mode=mode)
    except RusCapError:
        with pytest.raises(RusCapError):
            reference_run(circ, init, seed, mode)
        return
    ref = reference_run(circ, init, seed, mode)
    assert np.abs(rec.state.amps - ref.amps).max() < 1e-12
    assert tallies(rec) == tallies(ref)


@pytest.mark.parametrize("mode", ["ideal", "injected"])
@pytest.mark.parametrize("width", range(1, 11))
@settings(max_examples=8, phases=_NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**16), state_seed=st.integers(0, 2**16))
def test_every_planned_step_returns_its_input_or_a_run_state(width, mode, data, seed, state_seed):
    """The one step contract, over the planner-wide circuits above: a step writes into one of
    the run's two states and returns it; only a diagonal run (in place on a run state) or an
    untaken conditioned gate returns its input."""
    runs = data.draw(st.lists(planner_ops(width), min_size=1, max_size=6))
    circ = Circuit(width, tuple(op for ops in runs for op in ops))
    init = random_state_vector(np.random.default_rng(state_seed), width)

    def run_steps(ex, amps, steps, slots):
        for step in steps:
            out = step(ex, amps, slots)
            assert out is amps or ex.owns(out), step
            amps = out
        return amps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim._Exec, "run_steps", run_steps)
        try:
            rec = run(circ, StateVector(width, init), seed=seed, gate_mode=mode)
        except RusCapError:
            return
    assert not np.shares_memory(rec.state.amps, init)


def test_a_failing_property_is_reported_with_its_example(tmp_path):
    # the suite's own configuration and conftest around a property that must fail: pytest
    # reports one failure with the shrunk example (exit 1), not an INTERNALERROR (exit 3)
    root = Path(__file__).parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(root / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n")
    env = {**os.environ, "PYTHONPATH": str(Path(terniq.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_below_five(" in proc.stdout
    assert "1 failed" in proc.stdout
