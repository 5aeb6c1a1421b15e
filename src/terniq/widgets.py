"""Exact circuit constructions for the non-Clifford gate widgets.

Everything here is emitted at P9 level.  The arithmetic module emits
binary-controlled increments C_l[INC] and two-qutrit classical reflections
TAU2[j,k] as opaque costed primitives, and builds every controlled NOT on
binary data there (``arithmetic.mcx_ops``).  The CNOT, Toffoli and CCC(NOT)
widgets and ``add_binary_control`` expand those costed lists with
``_expand``: each C_l[INC] becomes its three-P9 network (depth one on a
shared clean helper wire), each TAU2[j,k] the five-increment network
conjugated by Clifford permutations.  ``tests/test_widgets.py`` pins the two
representations to identical unitaries and P9 counts.

Wire convention for every constructor: data wires first, then markers, then
the shared depth-one helper wire, all listed in each docstring.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache

from .arithmetic import and_ops, mcx_ops
from .circuit import (Chain, Circuit, CondGateOp, GateOp, MeasureOp, RusOp, adjoint_ops, gate_op,
                      remap_wires)
from .errors import SizeError, as_int
from .gates import _TAU_RE

__all__ = [
    "p9_injection_widget", "r2_injection_rus",
    "c1z_from_p9", "c1z_depth_one", "c_binary_inc", "cnot_emulated",
    "toffoli_emulated", "ccc_not", "add_binary_control", "horner_gates",
    "resource_state_prep", "tau2_ops", "reset_ops",
]


# ------------------------------------------------------------ C_l(Z), C_l(INC)

def _c1z_core_ops(c: int, t: int) -> list[GateOp]:
    # Three-P9 network equal to C_0(w3^-1 Z); see _c1z_dressing.
    return [
        gate_op("P9", t), gate_op("L[INC]", c, t),
        gate_op("P9", t), gate_op("L[INC]", c, t),
        gate_op("P9", t), gate_op("L[INC]", c, t),
    ]


def _c1z_depth_one_core_ops(c: int, t: int, a: int) -> list[GateOp]:
    # Same unitary as _c1z_core_ops but with the P9s in one parallel layer,
    # using a clean helper wire ``a``.
    return [
        gate_op("L[INC_INV]", c, a),
        gate_op("L[INC]", t, c),
        gate_op("L[INC]", t, a),
        gate_op("P9", c), gate_op("P9", t), gate_op("P9", a),
        gate_op("L[INC_INV]", t, a),
        gate_op("L[INC_INV]", t, c),
        gate_op("L[INC]", c, a),
    ]


def _c1z_dressing(core: list[GateOp], c: int) -> list[GateOp]:
    # The raw cores realize C_0(w3^-1 Z).  Swapping control levels 0 and 1
    # and adding an w3 phase on control value 1 turns them into C_1(Z).
    return [gate_op("TAU1[0,1]", c)] + core + [gate_op("TAU1[0,1]", c), gate_op("Q1", c)]


def c1z_from_p9() -> Circuit:
    """Ancilla-free C_1(Z) on (control 0, target 1); three P9 gates."""
    return Circuit(2, tuple(_c1z_dressing(_c1z_core_ops(0, 1), 0)), name="c1z")


def c1z_depth_one() -> Circuit:
    """C_1(Z) on (control 0, target 1) at P9-depth one; helper wire 2."""
    ops = _c1z_dressing(_c1z_depth_one_core_ops(0, 1, 2), 0)
    return Circuit(3, tuple(ops), ancillas=frozenset({2}), name="c1z-depth1")


def _c_inc_ops(c: int, t: int, level: int = 1, dagger: bool = False,
               helper: int | None = None) -> list[GateOp]:
    """C_level(INC) on (c -> t) as a P9-level fragment.

    A clean ``helper`` wire selects the single-layer form.  ``dagger`` gives
    the adjoint (= C_level(INC^2)).
    """
    core = _c1z_core_ops(c, t) if helper is None else _c1z_depth_one_core_ops(c, t, helper)
    ops = [gate_op("H", t)] + _c1z_dressing(core, c) + [gate_op("H_INV", t)]
    if level == 0:
        ops = [gate_op("TAU1[0,1]", c)] + ops + [gate_op("TAU1[0,1]", c)]
    elif level == 2:
        ops = [gate_op("TAU1[1,2]", c)] + ops + [gate_op("TAU1[1,2]", c)]
    return adjoint_ops(ops) if dagger else ops


def c_binary_inc(level: int, dagger: bool = False, depth_one: bool = False) -> Circuit:
    """C_level(INC) widget on (control 0, target 1); three P9 gates.

    The depth-one form adds a clean helper on wire 2.
    """
    level, helper = as_int(level, "control level", 0, 2), (2,) if depth_one else ()
    return Circuit(2 + len(helper), tuple(_c_inc_ops(0, 1, level, dagger, *helper)),
                   ancillas=frozenset(helper), name=f"c{level}inc" + ("-depth1" if depth_one else ""))


# ------------------------------------------------------------ two-qutrit reflections

_AFFINE_GENS = (
    # (gate name, wires as (slot indices), matrix rows, translation)
    ("INC", (0,), ((1, 0), (0, 1)), (1, 0)),
    ("INC_INV", (0,), ((1, 0), (0, 1)), (2, 0)),
    ("INC", (1,), ((1, 0), (0, 1)), (0, 1)),
    ("INC_INV", (1,), ((1, 0), (0, 1)), (0, 2)),
    ("SUM", (0, 1), ((1, 0), (1, 1)), (0, 0)),
    ("SUM_INV", (0, 1), ((1, 0), (2, 1)), (0, 0)),
    ("SUM", (1, 0), ((1, 1), (0, 1)), (0, 0)),
    ("SUM_INV", (1, 0), ((1, 2), (0, 1)), (0, 0)),
    ("TSWAP", (0, 1), ((0, 1), (1, 0)), (0, 0)),
)


def _affine_apply(gen, p):
    rows, b = gen[2], gen[3]
    return (
        (rows[0][0] * p[0] + rows[0][1] * p[1] + b[0]) % 3,
        (rows[1][0] * p[0] + rows[1][1] * p[1] + b[1]) % 3,
    )


@lru_cache(maxsize=None)
def _conjugator_word(p1: tuple, p2: tuple) -> tuple:
    """BFS word of Clifford permutations mapping {p1,p2} to {(0,2),(2,0)}."""
    goal = frozenset({(0, 2), (2, 0)})
    start = frozenset({p1, p2})
    if start == goal:
        return ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        cur, word = queue.popleft()
        for gen in _AFFINE_GENS:
            nxt = frozenset(_affine_apply(gen, p) for p in cur)
            if nxt == goal:
                return word + (gen,)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (gen,)))
    raise SizeError("no conjugator found")  # unreachable: AGL(2,3) is 2-transitive


def _tau_02_20_core_ops(x: int, y: int) -> list[GateOp]:
    # tau_{|02>,|20>} as five binary-controlled increments plus a swap.
    a = _c_inc_ops(y, x, level=1)           # C_1(INC)_{2,1}
    b = _c_inc_ops(x, y, level=1)
    return a + b + a + b + a + [gate_op("TSWAP", x, y)]


def tau2_ops(x: int, y: int, p1: tuple[int, int], p2: tuple[int, int]) -> list[GateOp]:
    """P9-level fragment for tau swapping |p1> and |p2> on wires (x, y)."""
    if p1 == p2:
        raise SizeError("degenerate reflection")
    word = _conjugator_word(p1, p2)
    wires = (x, y)
    pre = [gate_op(name, *(wires[i] for i in idx)) for name, idx, _, _ in word]
    return pre + _tau_02_20_core_ops(x, y) + adjoint_ops(pre)


# ------------------------------------------------------------ CNOT / Toffoli family

_C_INC_RE = re.compile(r"^C([012])\[INC(_INV)?\](_INV)?$")


def _expand(ops, helper: int | None = None) -> list[GateOp]:
    """P9-level network of a costed gate list.

    Each C_l[INC] (or an adjoint) becomes :func:`_c_inc_ops`, at depth one
    on the clean ``helper`` wire when one is given; each TAU2[j,k] becomes
    :func:`tau2_ops`; every other gate is kept.
    """
    out: list[GateOp] = []
    for op in ops:
        name = op.gate.name
        if m := _C_INC_RE.match(name):
            out += _c_inc_ops(*op.wires, level=int(m[1]), dagger=bool(m[2]) != bool(m[3]),
                              helper=helper)
        elif (m := _TAU_RE.match(name)) and m[1] == "2":
            out += tau2_ops(*op.wires, divmod(int(m[2]), 3), divmod(int(m[3]), 3))
        else:
            out.append(op)
    return out


def cnot_emulated(depth_two: bool = False) -> Circuit:
    """CNOT on binary data, (control 0, target 1); six P9 gates.

    ``depth_two`` uses a clean helper on wire 2 for P9-depth 2.
    """
    if depth_two:
        ops = _expand(mcx_ops((0,), 1), helper=2)
        return Circuit(3, tuple(ops), ancillas=frozenset({2}), name="cnot-depth2")
    return Circuit(2, tuple(_expand(mcx_ops((0,), 1))), name="cnot")


def _toffoli15_ops(c1: int, c2: int, t: int) -> list[GateOp]:
    # (SUM^dag x I) (I x tau_{|20>,|21>}) (SUM x I): reflection on |110>,|111>.
    return [gate_op("SUM", c1, c2), gate_op("TAU2[6,7]", c2, t), gate_op("SUM_INV", c1, c2)]


def toffoli_emulated(ancilla_mode: str = "none") -> Circuit:
    """Toffoli on binary data, controls (0, 1), target 2.

    ``none``: ancilla-free, 15 P9.  ``one_clean``: 12 P9 at P9-depth 4 with
    a marker on wire 3 and the shared depth helper on wire 4.
    """
    if ancilla_mode == "none":
        return Circuit(3, tuple(_expand(_toffoli15_ops(0, 1, 2))), name="toffoli15")
    if ancilla_mode == "one_clean":
        ops = _expand(mcx_ops((0, 1), 2, (3,)), helper=4)
        return Circuit(5, tuple(ops), ancillas=frozenset({3, 4}), name="toffoli12")
    raise SizeError(f"ancilla_mode {ancilla_mode!r}")


def ccc_not(ancilla_mode: str = "two_clean") -> Circuit:
    """Triply-controlled NOT on binary data, controls (0,1,2), target 3.

    ``two_clean``: 18 P9 at P9-depth 6 (markers 4,5; helper 6).
    ``one_clean``: 21 P9 ancilla-lean (marker 4 only).
    """
    if ancilla_mode == "two_clean":
        ops = _expand(mcx_ops((0, 1, 2), 3, (4, 5)), helper=6)
        return Circuit(7, tuple(ops), ancillas=frozenset({4, 5, 6}), name="cccnot18")
    if ancilla_mode == "one_clean":
        pro = and_ops(0, 1, 4)
        ops = _expand(pro + _toffoli15_ops(4, 2, 3) + adjoint_ops(pro))
        return Circuit(5, tuple(ops), ancillas=frozenset({4}), name="cccnot21")
    raise SizeError(f"ancilla_mode {ancilla_mode!r}")


def add_binary_control(c: Circuit, control: int) -> Circuit:
    """Wrap an emulated C(U) into C(C(U)) for six extra P9 gates.

    ``control`` is the wire of ``c`` acting as its binary control.  Two wires
    are appended: the new control (width) and a clean AND marker (width+1);
    the body is rerun with its control taken from the marker.
    """
    if not 0 <= control < c.width:
        raise SizeError(f"control wire {control} undeclared")
    new_ctrl, marker = c.width, c.width + 1
    width = c.width + 2
    mapping = {w: w for w in range(c.width)}
    mapping[control] = marker
    body = remap_wires(c, mapping, width)
    pro = _expand(and_ops(control, new_ctrl, marker))
    return Circuit(
        width,
        tuple(pro) + body.instructions + tuple(adjoint_ops(pro)),
        ancillas=c.ancillas | {marker},
        name=(c.name + "+ctrl") if c.name else "controlled",
    )


# ------------------------------------------------------------ Horner gates

def horner_gates(kind: str, f: int = 1) -> Circuit:
    """Product-accumulating gates built on the costed Horner primitives.

    ``LSUM``      wires (0,1,2): |i,j,k> -> |i,j,k+ij>;   4 P9 at depth 2.
    ``LLSUM``     wires (0,1,2,3) + helper 4: adds the triple product; 12 P9.
    ``CF_LSUM``   wires (0,1,2,3) + helper 4: adds d_{i,f}*j*k;        23 P9.
    ``CF_SUM``    wires (0,1,2):  adds d_{i,f}*j;                      15 P9.
    """
    if kind == "LSUM":
        return Circuit(3, (gate_op("L[SUM]", 0, 1, 2),), name="lsum")
    if kind == "CF_SUM":
        return Circuit(3, (gate_op(f"C{f}[SUM]", 0, 1, 2),), name=f"c{f}sum")
    if kind == "LLSUM":
        ops = [gate_op("L[SUM]", 0, 1, 4), gate_op("L[SUM]", 2, 4, 3), gate_op("L[SUM]_INV", 0, 1, 4)]
        return Circuit(5, tuple(ops), ancillas=frozenset({4}), name="llsum")
    if kind == "CF_LSUM":
        ops = [gate_op("L[SUM]", 1, 2, 4), gate_op(f"C{f}[SUM]", 0, 4, 3), gate_op("L[SUM]_INV", 1, 2, 4)]
        return Circuit(5, tuple(ops), ancillas=frozenset({4}), name=f"c{f}lsum")
    raise SizeError(f"unknown horner kind {kind!r}")


# ------------------------------------------------------------ injection widgets

def p9_injection_widget(inverse: bool = False) -> Circuit:
    """Deterministic P9 by state injection: input wire 0, resource wire 1.

    The caller places mu (mu_dag for the adjoint) on wire 1; the widget
    entangles, measures it into slot 0, and applies the outcome-indexed
    Clifford correction to the input.
    """
    suffix = "_INV" if inverse else ""
    ops = [
        gate_op("L[INC_INV]", 0, 1),
        MeasureOp(1, 0),
        CondGateOp(0, 1, gate_op(f"CMU{suffix}[1]", 0)),
        CondGateOp(0, 2, gate_op(f"CMU{suffix}[2]", 0)),
    ]
    return Circuit(2, tuple(ops), ancillas=frozenset({1}),
                   name="p9dg-injection" if inverse else "p9-injection")


#: Markov chain of the R2 repeat-until-success loop: state 0 = no flip,
#: 1 = first component flipped, 2 = second flipped, 3 = accepted (third
#: component flipped, up to global sign).  Outcome m flips component (m+2)%3.
R2_CHAIN = Chain(
    start=0,
    transitions={
        (0, 0): 3, (0, 1): 1, (0, 2): 2,
        (1, 0): 2, (1, 1): 0, (1, 2): 3,
        (2, 0): 1, (2, 1): 3, (2, 2): 0,
    },
    accept=frozenset({3}),
)


def r2_injection_rus() -> Circuit:
    """R2 by repeat-until-success injection: input wire 0, psi wire 1.

    Each trial loads a fresh psi on wire 1, entangles with SUM, measures;
    the loop absorbs when the accumulated sign flips equal R2 up to a global
    sign, which is tracked classically and discarded.
    """
    body = Circuit(2, tuple(reset_ops(1, 0)) + (
        gate_op("LOADPSI", 1),
        gate_op("SUM", 0, 1),
        MeasureOp(1, 0),
    ))
    rus = RusOp(body, chain=R2_CHAIN, outcome_slot=0, expected_trials=3.0, label="r2-rus")
    return Circuit(2, (rus,), ancillas=frozenset({1}), name="r2-injection")


# ------------------------------------------------------------ resource-state factories

def reset_ops(wire: int, slot: int) -> list[CondGateOp]:
    """Return ``wire`` to |0> from the trit last measured off it into ``slot``."""
    return [
        CondGateOp(slot, 1, gate_op("INC_INV", wire)),
        CondGateOp(slot, 2, gate_op("INC", wire)),
    ]


def _measured_reset_ops(wire: int, slot: int) -> list:
    # Return a wire to |0> regardless of its current state.
    return [MeasureOp(wire, slot)] + reset_ops(wire, slot)


def _plus_prep_trial_ops(data: int, syndrome: int, phase_power: int,
                         slot: int, aux_slot: int) -> list:
    # One trial: reset both wires, prepare H|phase_power> on the data wire,
    # mark its |2> component on the syndrome wire, measure the syndrome.
    init = "INC" if phase_power == 1 else "INC_INV"
    return (
        _measured_reset_ops(data, aux_slot)
        + _measured_reset_ops(syndrome, aux_slot + 1)
        + [gate_op(init, data), gate_op("H", data)]
        + _c_inc_ops(data, syndrome, level=2)
        + [MeasureOp(syndrome, slot)]
    )


def resource_state_prep(target: str) -> Circuit:
    """Repeat-until-success factories for the injection resource states.

    ``plus_omega3`` / ``plus_omega3_sq``: output on wire 0, syndrome wire 1;
    one C_2(INC) (3 P9) per trial, success probability 2/3.  ``eta``: both
    single-qutrit factors, output on wires 0 and 2 (syndromes 1 and 3),
    restarted jointly: 6 P9 per trial, success 4/9, so 9/4 trials and 27/2
    P9 per eta.  ``psi``: eta followed by an entangling measurement;
    outcomes 0 and 1 (probability 1/2) are Clifford-corrected to psi on
    wire 2, outcome 2 restarts from a fresh eta: 6 x 9/4 x 2 = 27 P9 per
    psi on average.  Outcome 1's correction is a Z^dag on wire 2 after the
    loop, classically controlled on slot 2, which holds the last outcome.
    """
    if target in ("plus_omega3", "plus_omega3_sq"):
        power = 1 if target == "plus_omega3" else 2
        body = Circuit(2, tuple(_plus_prep_trial_ops(0, 1, power, 0, 10)))
        rus = RusOp(body, predicate=((0, 0),), expected_trials=1.5, label=target)
        return Circuit(2, (rus,), ancillas=frozenset({1}), name=target)
    if target == "eta":
        ops = (
            _plus_prep_trial_ops(0, 1, 1, 0, 10)
            + _plus_prep_trial_ops(2, 3, 2, 1, 12)
        )
        body = Circuit(4, tuple(ops))
        rus = RusOp(body, predicate=((0, 0), (1, 0)), expected_trials=2.25, label="eta")
        return Circuit(4, (rus,), ancillas=frozenset({1, 3}), name="eta")
    if target == "psi":
        eta = resource_state_prep("eta")
        body = Circuit(4, eta.instructions + (
            gate_op("SUM", 0, 2),
            gate_op("H_INV", 0),
            MeasureOp(0, 2),
        ))
        # outcome 0 -> psi; outcome 1 -> psi after Z^dag; outcome 2 -> retry.  Every trial
        # starts in state 0, so the loop ends with outcome 1 in slot 2 only in state 2
        chain = Chain(start=0, transitions={(0, 0): 1, (0, 1): 2, (0, 2): 0},
                      accept=frozenset({1, 2}))
        rus = RusOp(body, chain=chain, outcome_slot=2, expected_trials=2.0, label="psi")
        fix = CondGateOp(2, 1, gate_op("Z_INV", 2))
        return Circuit(4, (rus, fix), ancillas=frozenset({0, 1, 3}), name="psi")
    raise SizeError(f"unknown resource state {target!r}")
