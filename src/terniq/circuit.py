"""Circuit data model, composition, and non-Clifford resource accounting.

A circuit is an ordered list of instructions over a fixed-width qutrit
register.  Gate cost is counted in the two non-Clifford currencies used by
the constructions in this package: P9 gates and R2 reflections.  A small set
of *costed primitives* (gates whose internal circuits are imported results,
not rebuilt here) carry an attributed P9 count and depth:

    L[SUM]            4 P9, depth 2
    C0/C1/C2[SUM]    15 P9, depth 5
    TAU2[j,k]        15 P9, depth 5   (generic two-qutrit classical reflection)
    C0/C1/C2[INC]     3 P9, depth 1   (depth assumes the shared helper wire)

Depth follows as-soon-as-possible layering over wire dependencies, counting
only layers that contain at least one non-Clifford gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from . import gates
from .errors import NonUnitaryError, SizeError, WidthMismatchError
from .gates import GateMatrix


def check_gate_wires(gate: GateMatrix, wires: tuple[int, ...]) -> None:
    """Raise ``SizeError`` unless ``wires`` are distinct and match the arity."""
    if len(set(wires)) != len(wires):
        raise SizeError(f"{gate.name}: repeated wires {wires}")
    if len(wires) != gate.arity:
        raise SizeError(f"{gate.name}: {len(wires)} wires for arity {gate.arity}")


@dataclass(frozen=True)
class GateOp:
    gate: GateMatrix
    wires: tuple[int, ...]

    def __post_init__(self):
        check_gate_wires(self.gate, self.wires)


@dataclass(frozen=True)
class MeasureOp:
    wire: int
    slot: int


@dataclass(frozen=True)
class CondGateOp:
    """Apply ``gate`` when classical slot equals ``value``."""

    slot: int
    value: int
    gate: GateMatrix
    wires: tuple[int, ...]

    def __post_init__(self):
        check_gate_wires(self.gate, self.wires)


@dataclass(frozen=True)
class Chain:
    """Classical Markov chain driving a repeat-until-success loop.

    ``transition[(state, outcome)]`` gives the next state after a trial that
    measured ``outcome``; the loop stops when an accepting state is reached.
    """

    start: int
    transitions: Mapping[tuple[int, int], int]
    accept: frozenset[int]


@dataclass(frozen=True)
class RusOp:
    """Repeat the body until a predicate over classical slots succeeds.

    Exactly one of ``predicate`` (all listed slots must equal their values)
    or ``chain`` (driven by ``outcome_slot``) must be given.  ``consumes``
    names resource states loaded per trial, for bookkeeping.  On success the
    ``corrections`` for the final chain state (or outcome) are applied.
    """

    body: "Circuit"
    predicate: tuple[tuple[int, int], ...] = ()
    chain: Optional[Chain] = None
    outcome_slot: int = 0
    corrections: tuple[tuple[int, GateMatrix, tuple[int, ...]], ...] = ()
    max_iters: int = 1000
    consumes: tuple[tuple[str, int], ...] = ()
    expected_trials: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not any(isinstance(op, MeasureOp) for op in self.body.instructions):
            raise NonUnitaryError("RUS body must contain at least one measurement")
        if (self.chain is None) == (not self.predicate):
            raise SizeError("RusOp needs exactly one of predicate or chain")
        for _, gate, wires in self.corrections:
            check_gate_wires(gate, wires)


Instruction = Union[GateOp, MeasureOp, CondGateOp, RusOp]


@dataclass(frozen=True)
class Circuit:
    """Ordered instruction list over ``width`` qutrits.

    ``ancillas`` declares wires expected to start in |0> (or in a declared
    resource state) and be restored by the circuit.
    """

    width: int
    instructions: tuple[Instruction, ...]
    ancillas: frozenset[int] = frozenset()
    name: str = ""

    def __post_init__(self):
        for op in self.instructions:
            for w in _op_wires(op):
                if not 0 <= w < self.width:
                    raise WidthMismatchError(f"wire {w} outside width {self.width} in {self.name or 'circuit'}")

    def __len__(self):
        return len(self.instructions)


def _op_wires(op: Instruction) -> tuple[int, ...]:
    if isinstance(op, GateOp):
        return op.wires
    if isinstance(op, MeasureOp):
        return (op.wire,)
    if isinstance(op, CondGateOp):
        return op.wires
    if isinstance(op, RusOp):
        wires = set()
        for sub in op.body.instructions:
            wires.update(_op_wires(sub))
        for _, _, ws in op.corrections:
            wires.update(ws)
        return tuple(sorted(wires))
    raise TypeError(op)


def circuit(width: int, ops: Sequence[Instruction], ancillas=(), name: str = "") -> Circuit:
    return Circuit(width, tuple(ops), frozenset(ancillas), name)


def compose(a: Circuit, b: Circuit, name: str = "") -> Circuit:
    """Concatenate: run ``a`` then ``b``.  Counts add."""
    if a.width != b.width:
        raise WidthMismatchError(f"compose: widths {a.width} != {b.width}")
    return Circuit(a.width, a.instructions + b.instructions, a.ancillas | b.ancillas,
                   name or f"{a.name}+{b.name}")


def gate_op(name: str, *wires: int) -> GateOp:
    """The named gate of the catalog grammar on ``wires``."""
    return GateOp(gates.matrix_for_name(name), wires)


def adjoint_ops(ops: Sequence[Instruction]) -> list[GateOp]:
    """Reverse a gate list taking each gate to its adjoint."""
    out = []
    for op in reversed(ops):
        if not isinstance(op, GateOp):
            raise NonUnitaryError(f"no adjoint for non-unitary {type(op).__name__}")
        out.append(GateOp(op.gate.adjoint(), op.wires))
    return out


def inverse(a: Circuit) -> Circuit:
    """Reverse instruction order taking each gate to its adjoint."""
    return Circuit(a.width, tuple(adjoint_ops(a.instructions)), a.ancillas,
                   f"{a.name}^-1" if a.name else "")


def remap_wires(a: Circuit, mapping: Mapping[int, int], width: int, name: str = "") -> Circuit:
    """Rebuild ``a`` on new wire labels inside a ``width``-qutrit register."""

    def rw(ws):
        return tuple(mapping[w] for w in ws)

    out = []
    for op in a.instructions:
        if isinstance(op, GateOp):
            out.append(GateOp(op.gate, rw(op.wires)))
        elif isinstance(op, MeasureOp):
            out.append(MeasureOp(mapping[op.wire], op.slot))
        elif isinstance(op, CondGateOp):
            out.append(CondGateOp(op.slot, op.value, op.gate, rw(op.wires)))
        else:
            body = remap_wires(op.body, mapping, width)
            corr = tuple((k, g, rw(ws)) for k, g, ws in op.corrections)
            out.append(RusOp(body, op.predicate, op.chain, op.outcome_slot, corr,
                             op.max_iters, op.consumes, op.expected_trials, op.label))
    return Circuit(width, tuple(out), frozenset(mapping[w] for w in a.ancillas), name or a.name)


# ------------------------------------------------------------ accounting

#: attributed (p9, depth) for opaque costed primitives, keyed by base name
COSTED_PRIMITIVES = {
    "L[SUM]": (4, 2),
    "C0[SUM]": (15, 5),
    "C1[SUM]": (15, 5),
    "C2[SUM]": (15, 5),
    "C0[INC]": (3, 1),
    "C1[INC]": (3, 1),
    "C2[INC]": (3, 1),
}
# adjoints cost the same whether the inverse is written inside or outside
for _base, _cost in list(COSTED_PRIMITIVES.items()):
    _head, _inner = _base.split("[")
    COSTED_PRIMITIVES[f"{_head}[{_inner[:-1]}_INV]"] = _cost

_TAU2_RE = re.compile(r"^TAU2\[\d+,\d+\]$")


@dataclass(frozen=True)
class ResourceCount:
    p9_count: int
    p9_depth: int
    r_count: int
    clifford_count: int
    measurement_count: int
    width: int
    ancilla_count: int
    costed_primitive_tally: tuple[tuple[str, int], ...] = ()
    rus_expected: tuple[tuple[str, float], ...] = ()
    #: non-Clifford gates costed externally (exact phase gates etc.)
    synthesis_gate_count: int = 0

    def tally(self) -> dict:
        return dict(self.costed_primitive_tally)


def _base_name(name: str) -> str:
    return name[:-4] if name.endswith("_INV") else name


@lru_cache(maxsize=None)
def _gate_class(name: str):
    """Classify a gate name: ('p9'|'r2'|'costed'|'clifford'|'synth', p9, depth)."""
    base = _base_name(name)
    if base == "P9":
        return ("p9", 1, 1)
    if base == "R2":
        return ("r2", 0, 1)
    if base in COSTED_PRIMITIVES:
        p9, depth = COSTED_PRIMITIVES[base]
        return ("costed", p9, depth)
    if _TAU2_RE.match(base):
        return ("costed", 15, 5)
    m = re.match(r"^PHASE\[(\d+),9\]$", base)
    if m and int(m.group(1)) % 9:
        # diag(1, w9^a, w9^{2a}) is P9^a up to a Clifford and global phase
        return ("p9", 1, 1)
    g = gates.matrix_for_name(name)
    if g.arity <= 2 and gates.is_clifford(g):
        return ("clifford", 0, 0)
    # Non-Clifford gate outside the two native currencies: synthesized
    # externally (generic phase gates, the emulated binary Hadamard, ...).
    return ("synth", 0, 1)


def count_resources(a: Circuit) -> ResourceCount:
    p9 = r2 = cliff = meas = synth = 0
    tally: dict[str, int] = {}
    rus_expected: list[tuple[str, float]] = []
    frontier = [0] * a.width  # non-Clifford depth reached per wire

    def visit_gate(gate: GateMatrix, wires):
        nonlocal p9, r2, cliff, synth
        kind, gp9, gdepth = _gate_class(gate.name)
        if kind == "p9":
            p9 += gp9
        elif kind == "r2":
            r2 += 1
        elif kind == "costed":
            p9 += gp9
            base = _base_name(gate.name)
            tally[base] = tally.get(base, 0) + 1
        elif kind == "synth":
            synth += 1
        else:
            cliff += 1
        level = max(frontier[w] for w in wires)
        if kind != "clifford":
            level += gdepth
        for w in wires:
            frontier[w] = level

    def visit(op: Instruction):
        nonlocal meas
        if isinstance(op, GateOp):
            visit_gate(op.gate, op.wires)
        elif isinstance(op, MeasureOp):
            meas += 1
        elif isinstance(op, CondGateOp):
            visit_gate(op.gate, op.wires)
        elif isinstance(op, RusOp):
            for sub in op.body.instructions:
                visit(sub)
            for _, g, ws in op.corrections:
                visit_gate(g, ws)
            rus_expected.append((op.label or "rus", op.expected_trials))

    for op in a.instructions:
        visit(op)

    return ResourceCount(
        p9_count=p9,
        p9_depth=max(frontier) if a.width else 0,
        r_count=r2,
        clifford_count=cliff,
        measurement_count=meas,
        width=a.width,
        ancilla_count=len(a.ancillas),
        costed_primitive_tally=tuple(sorted(tally.items())),
        rus_expected=tuple(rus_expected),
        synthesis_gate_count=synth,
    )
