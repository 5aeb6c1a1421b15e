"""Dense state-vector execution with measurement, feedback, and RUS loops.

Two gate modes:

  * ``ideal``    -- every gate is applied as its matrix.
  * ``injected`` -- each explicit P9 (or P9_INV) instruction is replaced at
    run time by the deterministic magic-state injection protocol, and each
    R2 instruction by the repeat-until-success injection loop.  One extra
    pool wire (appended after the circuit's wires) hosts the consumed
    resource states and is measured back to |0> after every use.

The classical path compiles a permutation circuit into per-gate trit tables
(:func:`compile_classical`), walks one basis index through them on Python-int
trits with no width ceiling (:func:`run_compiled`); exhaustive arithmetic uses
it.  :func:`circuit_permutation` tabulates that walk over every basis index of
a circuit of width at most 12.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CondGateOp, GateOp, MeasureOp, RusOp, _gate_class
from .errors import NonUnitaryError, RusCapError, SizeError, WidthCapError
from .gates import GateMatrix, matrix_for_name, root_of_unity

DEFAULT_WIDTH_CAP = 14
_NORM_TOL = 1e-10


def width_cap() -> int:
    return int(os.environ.get("TERNIQ_WIDTH_CAP", DEFAULT_WIDTH_CAP))


# ------------------------------------------------------------ resource states

def resource_state(name: str) -> np.ndarray:
    """Unit-norm single/two-qutrit resource states consumed by injection."""
    w9 = root_of_unity(1, 9)
    w3 = root_of_unity(1, 3)
    if name == "mu":
        v = np.array([1 / w9, 1.0, w9])
    elif name == "mu_dag":
        v = np.array([w9, 1.0, 1 / w9])
    elif name == "psi":
        v = np.array([1.0, -1.0, 1.0])
    elif name == "plus_omega3":
        v = np.array([1.0, w3, 0.0])
    elif name == "plus_omega3_sq":
        v = np.array([1.0, w3**2, 0.0])
    elif name == "eta":
        v = np.kron(np.array([1.0, w3, 0.0]), np.array([1.0, w3**2, 0.0]))
    else:
        raise SizeError(f"unknown resource state {name!r}")
    v = v.astype(np.complex128)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class StateVector:
    width: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amps.shape != (3**self.width,):
            raise SizeError(f"amplitude vector of length {self.amps.shape} for width {self.width}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def basis_state(width: int, index: int) -> StateVector:
    amps = np.zeros(3**width, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(width, amps)


def product_state(factors) -> StateVector:
    """Kron of per-wire factors, wire 0 first.  Ints mean basis trits."""
    factors = list(factors)
    amps = np.ones(1, dtype=np.complex128)
    for f in factors:
        if isinstance(f, (int, np.integer)):
            v = np.zeros(3, dtype=np.complex128)
            v[int(f)] = 1.0
        else:
            v = np.asarray(f, dtype=np.complex128)
            v = v / np.linalg.norm(v)
        # wire i is the *least* significant trit, so later factors go on the
        # more significant side of the kron product
        amps = np.kron(v, amps)
    return StateVector(len(factors), amps)


def index_of_trits(trits) -> int:
    return sum(int(t) * 3**i for i, t in enumerate(trits))


def trits_of_index(index: int, width: int) -> tuple[int, ...]:
    return tuple((index // 3**i) % 3 for i in range(width))


# ------------------------------------------------------------ gate application

@lru_cache(maxsize=4096)
def _expanded(name: str, wires: tuple, width: int) -> np.ndarray:
    """Full-register operator for small widths (cached for RUS loops)."""
    gate = matrix_for_name(name)
    eye = np.eye(3**width, dtype=np.complex128)
    return _apply_tensordot(eye, gate, wires, width)


_LOADER_STATES = {"LOADMU": "mu", "LOADMUDG": "mu_dag", "LOADPSI": "psi"}


@lru_cache(maxsize=1024)
def _fused_segment(width: int, key: tuple):
    """Product operator of consecutive gates plus its cost/consumption tally."""
    mat = np.eye(3**width, dtype=np.complex128)
    p9 = r2 = 0
    loads: list[str] = []
    for name, wires in key:
        mat = _expanded(name, wires, width) @ mat
        kind = _gate_class(name)[0]
        p9 += kind == "p9"
        r2 += kind == "r2"
        base = name[:-4] if name.endswith("_INV") else name
        if base in _LOADER_STATES:
            loads.append(_LOADER_STATES[base])
    return mat, p9, r2, tuple(loads)


def _apply(amps: np.ndarray, gate: GateMatrix, wires, width: int) -> np.ndarray:
    if width <= 5:
        return _expanded(gate.name, tuple(wires), width) @ amps
    return _apply_tensordot(amps, gate, wires, width)


def _apply_tensordot(amps: np.ndarray, gate: GateMatrix, wires, width: int) -> np.ndarray:
    """Apply gate to a (3**width,) or (3**width, batch) array."""
    batched = amps.ndim == 2
    batch = amps.shape[1] if batched else 1
    a = gate.arity
    # axis for wire w is (width-1-w); gate tensor row axes follow wires order
    tens = amps.reshape([3] * width + ([batch] if batched else []))
    axes = [width - 1 - w for w in wires]
    moved = np.moveaxis(tens, axes, range(a))
    out = gate.matrix @ moved.reshape(3**a, -1)
    out = out.reshape([3] * a + list(moved.shape[a:]))
    return np.moveaxis(out, range(a), axes).reshape(amps.shape)


def apply_gate(s: StateVector, g: GateMatrix, wires) -> StateVector:
    wires = tuple(wires)
    if len(set(wires)) != len(wires):
        raise SizeError(f"wire clash {wires}")
    for w in wires:
        if not 0 <= w < s.width:
            raise SizeError(f"wire {w} outside width {s.width}")
    return StateVector(s.width, _apply(s.amps, g, wires, s.width))


@lru_cache(maxsize=256)
def _trit_masks(width: int, wire: int) -> tuple:
    trits = (np.arange(3**width) // 3**wire) % 3
    return tuple(trits == v for v in range(3))


def born_probabilities(s: StateVector, wire: int) -> np.ndarray:
    masks = _trit_masks(s.width, wire)
    p2 = np.abs(s.amps) ** 2
    return np.array([p2[m].sum() for m in masks])


def measure_wire(s: StateVector, wire: int, rng) -> tuple[int, StateVector]:
    probs = born_probabilities(s, wire)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise NonUnitaryError(f"state norm drifted to {total}")
    outcome = int(rng.choice(3, p=probs / total))
    norm = np.sqrt(probs[outcome])
    if norm < 1e-12:
        raise NonUnitaryError("measured a zero-probability branch")
    amps = np.where(_trit_masks(s.width, wire)[outcome], s.amps, 0.0) / norm
    return outcome, StateVector(s.width, amps)


# ------------------------------------------------------------ run records

@dataclass
class RunRecord:
    state: StateVector
    slots: dict
    seed: int
    rus_trials: dict = field(default_factory=dict)
    consumed: Counter = field(default_factory=Counter)
    p9_executed: int = 0
    r2_executed: int = 0
    measurements: int = 0


class _Exec:
    def __init__(self, width, seed, mode, record):
        self.width = width
        self.rng = np.random.default_rng(seed)
        self.mode = mode
        self.record = record
        self.check_norm = width <= 10

    def gate(self, state, g, wires):
        kind = _gate_class(g.name)[0]
        base = g.name[:-4] if g.name.endswith("_INV") else g.name
        if self.mode == "injected" and base == "P9" and g.arity == 1:
            return self._inject_p9(state, wires[0], inverse=g.name.endswith("_INV"))
        if self.mode == "injected" and base == "R2" and g.arity == 1:
            return self._inject_r2(state, wires[0])
        if base in _LOADER_STATES:
            self.record.consumed[_LOADER_STATES[base]] += 1
        if kind == "p9":
            self.record.p9_executed += 1
        elif kind == "r2":
            self.record.r2_executed += 1
        state = apply_gate(state, g, wires)
        if self.check_norm and abs(state.norm() - 1.0) > _NORM_TOL:
            raise NonUnitaryError(f"norm drift after {g.name}")
        return state

    def _pool(self):
        return self.width - 1

    def _load(self, state, name):
        loader = {"mu": "LOADMU", "mu_dag": "LOADMUDG", "psi": "LOADPSI"}[name]
        self.record.consumed[name] += 1
        return apply_gate(state, matrix_for_name(loader), (self._pool(),))

    def _measure_reset_pool(self, state):
        pool = self._pool()
        m, state = measure_wire(state, pool, self.rng)
        self.record.measurements += 1
        if m:
            state = apply_gate(state, matrix_for_name("INC" if m == 2 else "INC_INV"), (pool,))
        return m, state

    def _inject_p9(self, state, wire, inverse):
        pool = self._pool()
        state = self._load(state, "mu_dag" if inverse else "mu")
        state = apply_gate(state, matrix_for_name("L[INC_INV]"), (wire, pool))
        m, state = self._measure_reset_pool(state)
        if m:
            corr = matrix_for_name(f"CMU_INV[{m}]" if inverse else f"CMU[{m}]")
            state = apply_gate(state, corr, (wire,))
        self.record.p9_executed += 1
        return state

    def _inject_r2(self, state, wire):
        flips = [0, 0, 0]
        trials = 0
        log = []
        while trials < 1000:
            trials += 1
            state = self._load(state, "psi")
            state = apply_gate(state, matrix_for_name("SUM"), (wire, self._pool()))
            m, state = self._measure_reset_pool(state)
            log.append(m)
            flips[(m + 2) % 3] ^= 1
            if flips == [0, 0, 1] or flips == [1, 1, 0]:
                self.record.r2_executed += 1
                self.record.rus_trials.setdefault("injected-r2", []).append(trials)
                return state
        raise RusCapError("R2 injection did not absorb", log)

    def run_ops(self, state, instructions, slots):
        i, n = 0, len(instructions)
        fuse = self.mode == "ideal" and self.width <= 5
        while i < n:
            op = instructions[i]
            if isinstance(op, GateOp):
                if fuse:
                    j = i
                    while j < n and isinstance(instructions[j], GateOp):
                        j += 1
                    if j - i > 1:
                        key = tuple((instructions[k].gate.name, instructions[k].wires)
                                    for k in range(i, j))
                        mat, p9, r2, loads = _fused_segment(self.width, key)
                        state = StateVector(self.width, mat @ state.amps)
                        self.record.p9_executed += p9
                        self.record.r2_executed += r2
                        for name in loads:
                            self.record.consumed[name] += 1
                        i = j
                        continue
                state = self.gate(state, op.gate, op.wires)
            elif isinstance(op, MeasureOp):
                m, state = measure_wire(state, op.wire, self.rng)
                slots[op.slot] = m
                self.record.measurements += 1
            elif isinstance(op, CondGateOp):
                if slots.get(op.slot, 0) == op.value:
                    state = self.gate(state, op.gate, op.wires)
            elif isinstance(op, RusOp):
                state = self.run_rus(state, op, slots)
            else:
                raise TypeError(op)
            i += 1
        return state

    def run_rus(self, state, op: RusOp, slots):
        chain_state = op.chain.start if op.chain else None
        log = []
        for trial in range(1, op.max_iters + 1):
            state = self.run_ops(state, op.body.instructions, slots)
            if op.chain is not None:
                m = slots.get(op.outcome_slot, 0)
                log.append(m)
                if (chain_state, m) not in op.chain.transitions:
                    raise SizeError(f"RUS chain has no transition from state "
                                    f"{chain_state} on outcome {m}")
                chain_state = op.chain.transitions[(chain_state, m)]
                done = chain_state in op.chain.accept
                key = chain_state
            else:
                done = all(slots.get(s, 0) == v for s, v in op.predicate)
                key = slots.get(op.outcome_slot, 0)
            if done:
                for k, g, ws in op.corrections:
                    if k == key:
                        state = self.gate(state, g, ws)
                self.record.rus_trials.setdefault(op.label or "rus", []).append(trial)
                return state
        raise RusCapError(f"RUS {op.label or ''} exceeded {op.max_iters} iterations", log)


def run(c: Circuit, initial: StateVector | None = None, seed: int = 0,
        gate_mode: str = "ideal", cap: int | None = None) -> RunRecord:
    """Execute a circuit, returning the final state and classical record."""
    if gate_mode not in ("ideal", "injected"):
        raise SizeError(f"gate_mode {gate_mode!r}")
    width = c.width + (1 if gate_mode == "injected" else 0)
    if width > (cap if cap is not None else width_cap()):
        raise WidthCapError(f"width {width} above cap {cap if cap is not None else width_cap()}")
    if initial is None:
        state = basis_state(width, 0)
    elif initial.width == width:
        state = initial
    elif gate_mode == "injected" and initial.width == c.width:
        amps = np.zeros(3**width, dtype=np.complex128)
        amps[:3**c.width] = initial.amps
        state = StateVector(width, amps)
    else:
        raise SizeError(f"initial width {initial.width} does not match circuit width {c.width}")
    record = RunRecord(state=state, slots={}, seed=seed)
    ex = _Exec(width, seed, gate_mode, record)
    record.state = ex.run_ops(state, c.instructions, record.slots)
    return record


# ------------------------------------------------------------ unitary extraction

def circuit_unitary(c: Circuit, cap: int = 8) -> np.ndarray:
    """Dense unitary of a measurement-free circuit (small widths)."""
    if c.width > cap:
        raise WidthCapError(f"circuit_unitary width {c.width} > {cap}")
    dim = 3**c.width
    mat = np.eye(dim, dtype=np.complex128)
    for op in c.instructions:
        if not isinstance(op, GateOp):
            raise NonUnitaryError("circuit_unitary needs a unitary circuit")
        mat = _apply(mat, op.gate, op.wires, c.width)
    return mat


# ------------------------------------------------------------ classical path

@lru_cache(maxsize=None)
def trit_table(name: str):
    """Trit table of a classical (0/1-entry) gate, else None.

    Entry ``loc`` (the gate-local input index, first wire most significant)
    is the tuple of output trits on the gate's wires, in wire order.
    """
    g = matrix_for_name(name)
    rows = np.abs(g.matrix).argmax(axis=0)
    if not np.allclose(g.matrix, np.eye(g.dim)[:, rows], rtol=0, atol=1e-12):
        return None
    return tuple(trits_of_index(int(r), g.arity)[::-1] for r in rows)


@dataclass(frozen=True)
class CompiledCircuit:
    """A permutation circuit as ``(arity, wires, trit table)`` per gate."""

    width: int
    ops: tuple

    def __len__(self) -> int:
        return len(self.ops)


def compile_classical(c: Circuit) -> CompiledCircuit:
    """Flatten a measurement-free permutation circuit for fast walks."""
    ops = []
    for op in c.instructions:
        if not isinstance(op, GateOp):
            raise NonUnitaryError(f"classical path cannot run {type(op).__name__}")
        table = trit_table(op.gate.name)
        if table is None:
            raise NonUnitaryError(f"{op.gate.name} is not a classical permutation")
        ops.append((len(op.wires), op.wires, table))
    return CompiledCircuit(c.width, tuple(ops))


def run_compiled(compiled: CompiledCircuit, index: int) -> int:
    """Basis index that the compiled permutation maps ``index`` to."""
    if not 0 <= index < 3**compiled.width:
        raise SizeError(f"basis index {index} outside width {compiled.width}")
    t = list(trits_of_index(int(index), compiled.width))
    for a, wires, table in compiled.ops:
        if a == 2:
            w0, w1 = wires
            t[w0], t[w1] = table[3 * t[w0] + t[w1]]
        elif a == 1:
            w0, = wires
            t[w0], = table[t[w0]]
        elif a == 3:
            w0, w1, w2 = wires
            t[w0], t[w1], t[w2] = table[9 * t[w0] + 3 * t[w1] + t[w2]]
        else:
            loc = 0
            for w in wires:
                loc = 3 * loc + t[w]
            for w, v in zip(wires, table[loc]):
                t[w] = v
    return index_of_trits(t)


def circuit_permutation(c: Circuit, width_cap_: int = 12) -> np.ndarray:
    """Full basis permutation of a classical circuit: ``run_compiled`` per index."""
    if c.width > width_cap_:
        raise WidthCapError(f"width {c.width} > {width_cap_}")
    comp = compile_classical(c)
    return np.array([run_compiled(comp, i) for i in range(3**c.width)], dtype=np.int64)
