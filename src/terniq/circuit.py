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

import math
import re
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from numbers import Real
from typing import Mapping, Optional, Sequence

from . import gates
from .errors import CatalogError, NonUnitaryError, SizeError, WidthMismatchError, as_int, int_fields
from .gates import GateMatrix


@dataclass(frozen=True, slots=True)
class GateOp:
    """``gate`` on distinct integer ``wires`` matching its arity, else ``SizeError``: the one
    gate-on-wires value, alone or classically controlled."""

    gate: GateMatrix
    wires: tuple[int, ...]
    _adjoint: Optional[GateOp] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        gate = self.gate
        if not isinstance(gate, GateMatrix):
            raise SizeError(f"GateOp gate {gate!r} is not a GateMatrix")
        wires = tuple([as_int(w, "wire") for w in self.wires])
        if len(set(wires)) != len(wires):
            raise SizeError(f"{gate.name}: repeated wires {wires}")
        if len(wires) != gate.arity:
            raise SizeError(f"{gate.name}: {len(wires)} wires for arity {gate.arity}")
        object.__setattr__(self, "wires", wires)

    @property
    def adjoint(self) -> GateOp:
        """The adjoint op, from ``gate_op`` for a catalog gate, kept on this op after first use."""
        if self._adjoint is None:
            adj = GateOp(self.gate.adjoint(), self.wires)
            with suppress(CatalogError):  # a gate outside the catalog grammar keeps a new op
                shared = gate_op(adj.gate.name, *self.wires)
                adj = shared if shared == adj else adj
            object.__setattr__(self, "_adjoint", adj)
        return self._adjoint


@dataclass(frozen=True)
class MeasureOp:
    wire: int
    slot: int

    def __post_init__(self):
        int_fields(self, wire=None, slot=None)

    @property
    def wires(self) -> tuple[int, ...]:
        return (self.wire,)


@dataclass(frozen=True)
class CondGateOp:
    """Apply the gate op ``op`` when classical slot ``slot`` equals ``value``."""

    slot: int
    value: int
    op: GateOp

    def __post_init__(self):
        int_fields(self, slot=None, value=None)
        if not isinstance(self.op, GateOp):
            raise SizeError(f"CondGateOp op {self.op!r} is not a GateOp")

    @property
    def wires(self) -> tuple[int, ...]:
        return self.op.wires


@dataclass(frozen=True)
class Chain:
    """Classical Markov chain driving a repeat-until-success loop.

    ``transition[(state, outcome)]`` gives the next state after a trial that
    measured ``outcome``; the loop stops when an accepting state is reached.
    """

    start: int
    transitions: Mapping[tuple[int, int], int]
    accept: frozenset[int]

    def __post_init__(self):
        int_fields(self, start=None)
        object.__setattr__(self, "transitions", {
            (as_int(s, "Chain state"), as_int(m, "Chain outcome")): as_int(t, "Chain state")
            for (s, m), t in self.transitions.items()})
        object.__setattr__(self, "accept", frozenset([as_int(s, "Chain state") for s in self.accept]))


@dataclass(frozen=True)
class RusOp:
    """Repeat the body until a predicate over classical slots succeeds.

    Exactly one of ``predicate`` (all listed slots must equal their values)
    or ``chain`` (driven by ``outcome_slot``) must be given.  A gate that
    depends on the outcome is a ``CondGateOp`` on its slot after the loop.
    """

    body: "Circuit"
    predicate: tuple[tuple[int, int], ...] = ()
    chain: Optional[Chain] = None
    outcome_slot: int = 0
    max_iters: int = 1000
    expected_trials: float = 1.0
    label: str = ""
    #: every wire the body touches, sorted
    wires: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not any(isinstance(op, MeasureOp) for op in self.body.instructions):
            raise NonUnitaryError("RUS body must contain at least one measurement")
        if (self.chain is None) == (not self.predicate):
            raise SizeError("RusOp needs exactly one of predicate or chain")
        int_fields(self, max_iters=1, outcome_slot=None)
        trials = self.expected_trials
        if not (isinstance(trials, Real) and 0 < trials < math.inf):
            raise SizeError(f"RusOp needs positive, finite expected trials, got {trials!r}")
        object.__setattr__(self, "expected_trials", float(trials))   # its text is a float's repr
        if not (isinstance(self.predicate, (tuple, list))
                and all(isinstance(p, tuple) and len(p) == 2 for p in self.predicate)):
            raise SizeError(f"RusOp predicate {self.predicate!r} is not a tuple of pairs")
        if not isinstance(self.label, str):
            raise SizeError(f"RusOp label {self.label!r} is not a string")
        object.__setattr__(self, "predicate", tuple(
            (as_int(s, "RusOp predicate slot"), as_int(v, "RusOp predicate value"))
            for s, v in self.predicate))
        object.__setattr__(self, "wires", tuple(sorted({w for op in self.body.instructions
                                                        for w in op.wires})))


Instruction = GateOp | MeasureOp | CondGateOp | RusOp


@dataclass(frozen=True)
class Circuit:
    """Ordered instruction tuple over ``width`` qutrits; ``SizeError`` for any other op.

    ``instructions`` and each block are kept as tuples (a list passed in is
    converted), so a circuit is hashable and equals its text round trip.

    ``ancillas`` declares wires expected to start in |0> (or in a declared
    resource state) and be restored by the circuit.

    ``blocks``: op tuples whose concatenation is ``instructions``, outside
    equality.  Pass it instead of ``instructions`` to share a tuple where it
    repeats (a modexp build shares each modular addition); a flat list is one
    block.  The wire check, ``count_resources``, ``textfmt.serialize`` and
    ``sim.compile_classical`` handle each distinct block once.
    """

    width: int
    instructions: tuple[Instruction, ...] = ()
    ancillas: frozenset[int] = frozenset()
    name: str = ""
    blocks: tuple[tuple[Instruction, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, "width", 0))
        instructions = tuple(self.instructions)
        if self.blocks:
            blocks = tuple(tuple(b) for b in self.blocks if b)
            flat = tuple(chain.from_iterable(blocks))
            if instructions and instructions != flat:
                raise SizeError("Circuit blocks do not concatenate to its instructions")
            instructions = flat
        else:
            blocks = (instructions,) if instructions else ()
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "blocks", blocks)
        # shared blocks and ops repeat: check each distinct block's ops, then each wire tuple, once
        wire_tuples = {}
        for b in {id(b): b for b in blocks}.values():
            for op in b:
                if not isinstance(op, Instruction):
                    raise SizeError(f"{op!r} is not an instruction in {self.name or 'circuit'}")
                wire_tuples[op.wires] = None
        for wires in wire_tuples:
            for w in wires:
                if not 0 <= w < self.width:
                    raise WidthMismatchError(f"wire {w} outside width {self.width} in {self.name or 'circuit'}")

    def __len__(self):
        return len(self.instructions)


def compose(a: Circuit, b: Circuit, name: str = "") -> Circuit:
    """Concatenate: run ``a`` then ``b``.  Counts add."""
    if a.width != b.width:
        raise WidthMismatchError(f"compose: widths {a.width} != {b.width}")
    return Circuit(a.width, ancillas=a.ancillas | b.ancillas, name=name or f"{a.name}+{b.name}",
                   blocks=a.blocks + b.blocks)


@lru_cache(maxsize=None, typed=True)  # typed: a wire 1.0 never finds the op of wire 1
def gate_op(name: str, *wires: int) -> GateOp:
    """The named gate of the catalog grammar on ``wires``: one shared op per (name, wires)."""
    return GateOp(gates.matrix_for_name(name), wires)


def adjoint_ops(ops: Sequence[Instruction]) -> list[GateOp]:
    """Reverse a gate list taking each gate op to its shared adjoint op."""
    out = []
    for op in reversed(ops):
        if not isinstance(op, GateOp):
            raise NonUnitaryError(f"no adjoint for non-unitary {type(op).__name__}")
        out.append(op.adjoint)
    return out


def inverse(a: Circuit) -> Circuit:
    """Reverse instruction order taking each gate to its adjoint."""
    return Circuit(a.width, tuple(adjoint_ops(a.instructions)), a.ancillas,
                   f"{a.name}^-1" if a.name else "")


def remap_wires(a: Circuit, mapping: Mapping[int, int], width: int, name: str = "") -> Circuit:
    """Rebuild ``a`` on new wire labels inside a ``width``-qutrit register."""

    def rw(ws):
        if missing := sorted(set(ws) - mapping.keys()):
            raise WidthMismatchError(f"remap_wires: no new label for wire {missing[0]}")
        return tuple(mapping[w] for w in ws)

    def move(op):  # a gate op moves the same way alone or conditioned
        if isinstance(op, GateOp):
            return GateOp(op.gate, rw(op.wires))
        if isinstance(op, MeasureOp):
            return MeasureOp(*rw((op.wire,)), op.slot)
        if isinstance(op, CondGateOp):
            return CondGateOp(op.slot, op.value, move(op.op))
        return replace(op, body=remap_wires(op.body, mapping, width))

    return Circuit(width, tuple(map(move, a.instructions)), frozenset(rw(a.ancillas)), name or a.name)


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


@lru_cache(maxsize=None)
def _gate_class(name: str):
    """Classify a gate: ('p9'|'r2'|'costed'|'clifford'|'synth', p9, depth, base); ``base``, its resolved
    name (PHASE[-1,9] is PHASE[8,9]) with every ``_INV`` stripped, costs C1[INC_INV] as C1[INC]."""
    g = gates.matrix_for_name(name)
    base = g.name.replace("_INV", "")
    if base == "P9":
        return ("p9", 1, 1, base)
    if base == "R2":
        return ("r2", 0, 1, base)
    if base in COSTED_PRIMITIVES:
        return ("costed", *COSTED_PRIMITIVES[base], base)
    if (m := gates._TAU_RE.match(base)) and m[1] == "2":
        return ("costed", 15, 5, base)
    if (m := re.match(r"^PHASE\[(\d+),9\]$", base)) and int(m[1]) % 3:
        # diag(1, w9^a, w9^{2a}) is P9^a up to a Clifford and global phase; 3 | a gives a Z power
        return ("p9", 1, 1, base)
    if g.arity <= 2 and gates.is_clifford(g):
        return ("clifford", 0, 0, base)
    # Non-Clifford gate outside the two native currencies: synthesized
    # externally (generic phase gates, the emulated binary Hadamard, ...).
    return ("synth", 0, 1, base)


def count_resources(a: Circuit) -> ResourceCount:
    """Counts of ``a``: each distinct block is tallied once and scaled by its uses.  The ASAP
    frontier is shift-invariant, so a repeated block's exit frontier on its wires is memoised
    on its entry there minus the entry's minimum; a miss walks the block on the real frontier."""
    steps: dict[str, int] = {}  # depth each gate name adds: 0 for a Clifford
    frontier = [0] * a.width  # non-Clifford depth reached per wire
    uses = Counter(map(id, a.blocks))
    sums, rus_expected = {}, []  # sums: per distinct block, its (names, measurements, RUS entries)
    wires_of, exits = {}, {}  # per repeated block its sorted wires; per (block, entry) its exit

    def walk(ops, names, rus) -> int:  # names: of every gate, counted per name at the end
        meas = 0
        for op in ops:
            cls = type(op)
            if cls is not GateOp:
                if cls is MeasureOp:
                    meas += 1
                    continue
                if cls is RusOp:
                    meas += walk(op.body.instructions, names, rus)
                    rus.append((op.label or "rus", op.expected_trials))
                    continue
                op = op.op  # a CondGateOp counts its gate op
            name = op.gate.name
            names.append(name)
            try:
                step = steps[name]
            except KeyError:
                step = steps[name] = _gate_class(name)[2]
            wires = op.wires
            if len(wires) == 1:
                if step:  # a one-wire Clifford cannot move the frontier
                    frontier[wires[0]] += step
            elif len(wires) == 2:
                x, y = wires
                fx, fy = frontier[x], frontier[y]
                frontier[x] = frontier[y] = (fx if fx > fy else fy) + step
            else:
                level = max([frontier[w] for w in wires]) + step
                for w in wires:
                    frontier[w] = level
        return meas

    for block in a.blocks:
        key = id(block)
        repeated = uses[key] > 1
        if repeated:
            if key not in wires_of:
                wires_of[key] = sorted({w for ws in dict.fromkeys(op.wires for op in block) for w in ws})
            bw = wires_of[key]
            entry = [frontier[w] for w in bw]
            low = min(entry)
            memo_key = (key, tuple([f - low for f in entry]))
            out = exits.get(memo_key)
            if out is not None:
                for w, f in zip(bw, out):
                    frontier[w] = low + f
                rus_expected += sums[key][2]
                continue
        names, rus = [], []
        meas = walk(block, names, rus)
        sums.setdefault(key, (names, meas, rus))
        if repeated:
            exits[memo_key] = tuple([frontier[w] - low for w in bw])
        rus_expected += rus

    meas, p9, kinds, tally = 0, 0, Counter(), Counter()
    for key, (names, block_meas, _) in sums.items():
        uses_of = uses[key]
        meas += block_meas * uses_of
        for name, n in Counter(names).items():
            kind, gp9, _, base = _gate_class(name)
            n *= uses_of
            p9 += gp9 * n
            kinds[kind] += n
            if kind == "costed":
                tally[base] += n

    return ResourceCount(
        p9_count=p9,
        p9_depth=max(frontier) if a.width else 0,
        r_count=kinds["r2"],
        clifford_count=kinds["clifford"],
        measurement_count=meas,
        width=a.width,
        ancilla_count=len(a.ancillas),
        costed_primitive_tally=tuple(sorted(tally.items())),
        rus_expected=tuple(rus_expected),
        synthesis_gate_count=kinds["synth"],
    )
