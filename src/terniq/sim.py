"""Dense state-vector execution with measurement, feedback, and RUS loops.

Up to width 5 a gate is one product with its cached full-register operator.
Wider (and for :func:`circuit_unitary`'s batched columns), a diagonal gate is
one broadcast multiply on a view splitting out its wires, and an ideal run
applies each run of consecutive diagonal gates as one such multiply.  Another
single-wire gate is one stacked matmul on the ``(3^(w-1-wire), 3, 3^wire)``
view when its rows are long, else one gemm with ``(G ⊗ I)^T``; a permutation
gate 3^arity slice copies when its second-lowest wire is 2 or more, and the
rest one matmul after moving their axes to the front.  Up to width 8, in both
gate modes, a run of permutation gates is one gather through a cached index.
A measurement reduces that view once for the Born probabilities and keeps the
measured slice.

Two gate modes:

  * ``ideal``    -- every gate is applied as its matrix.
  * ``injected`` -- each P9 (or P9_INV) gate runs the widget circuits of
    deterministic magic-state injection: the LOADMU (LOADMUDG) loader, then
    :func:`~terniq.widgets.p9_injection_widget`; each R2 gate runs the
    :func:`~terniq.widgets.r2_injection_rus` repeat-until-success block.  One
    extra pool wire (appended after the circuit's wires) hosts the consumed
    resource states and is reset to |0> from its last measured outcome after
    every use.  The protocols keep their own classical slots, so they never
    touch the circuit's.

:func:`run` checks the norm of the final state; every measurement checks
the norm of the state it measures.

The classical path compiles a permutation circuit into per-gate trit tables
(:func:`compile_classical`), walks one basis index through them on Python-int
trits with no width ceiling (:func:`run_compiled`); exhaustive arithmetic uses
it.  :func:`circuit_permutation` inverts the gather index of a whole circuit of
width at most 12.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce

import numpy as np

from .circuit import (Circuit, CondGateOp, GateOp, MeasureOp, RusOp, _base_name, _gate_class,
                      gate_op, remap_wires)
from .errors import NonUnitaryError, RusCapError, SizeError, WidthCapError
from .gates import GateMatrix, matrix_for_name, root_of_unity
from .widgets import p9_injection_widget, r2_injection_rus, reset_ops

DEFAULT_WIDTH_CAP = 14
_NORM_TOL = 1e-10


def width_cap() -> int:
    text = os.environ.get("TERNIQ_WIDTH_CAP", str(DEFAULT_WIDTH_CAP))
    try:
        return int(text)
    except ValueError:
        raise WidthCapError(f"TERNIQ_WIDTH_CAP={text!r} is not an integer") from None


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


@lru_cache(maxsize=4096)
def _tally(names: tuple) -> tuple:
    """P9 count, R2 count and loaded resource states of a gate-name sequence."""
    kinds = [_gate_class(name)[0] for name in names]
    loads = tuple(_LOADER_STATES[b] for b in map(_base_name, names) if b in _LOADER_STATES)
    return kinds.count("p9"), kinds.count("r2"), loads


@lru_cache(maxsize=1024)
def _fused_segment(width: int, key: tuple):
    """Product operator of consecutive gates plus its tally."""
    mat = np.eye(3**width, dtype=np.complex128)
    for name, wires in key:
        mat = _expanded(name, wires, width) @ mat
    return mat, _tally(tuple(name for name, _ in key))


@lru_cache(maxsize=256)
def _injection(name: str, wire: int, width: int) -> tuple:
    """Injection protocol standing in for a P9, P9_INV or R2 gate on ``wire``.

    The widget's resource wire 1 becomes the pool (the top wire), which the
    closing reset returns to |0> from the outcome last measured into slot 0.
    Injected R2 trials are recorded under ``injected-r2``, apart from any
    ``r2-rus`` block the circuit itself holds.
    """
    if _base_name(name) == "R2":
        ops = (replace(r2_injection_rus().instructions[0], label="injected-r2"),)
    else:
        inverse = name == "P9_INV"
        ops = ((gate_op("LOADMUDG" if inverse else "LOADMU", 1),)
               + p9_injection_widget(inverse).instructions)
    ops += tuple(reset_ops(1, 0))
    return remap_wires(Circuit(2, ops), {0: wire, 1: width - 1}, width).instructions


def _apply(amps: np.ndarray, gate: GateMatrix, wires, width: int) -> np.ndarray:
    if width <= 5:
        return _expanded(gate.name, tuple(wires), width) @ amps
    return _apply_tensordot(amps, gate, wires, width)


@lru_cache(maxsize=4096)
def _diagonal(gate: GateMatrix):
    """Diagonal of a diagonal gate as a ``(3,) * arity`` tensor, first wire first, else None."""
    d = np.diagonal(gate.matrix)
    return None if np.count_nonzero(gate.matrix - np.diag(d)) else d.reshape((3,) * gate.arity)


@lru_cache(maxsize=1024)
def _diagonal_run(key: tuple):
    """Descending wire union, per-gate broadcast factors and tally of a run of diagonal gates."""
    union = sorted({w for _, wires in key for w in wires}, reverse=True)
    factors = []
    # lowest wire first (they commute): the product's full-size steps get long inner loops
    for name, wires in sorted(key, key=lambda op: min(op[1])):
        order = sorted(range(len(wires)), key=lambda k: -wires[k])
        shape = [3 if w in wires else 1 for w in union]
        factors.append(_diagonal(matrix_for_name(name)).transpose(order).reshape(shape))
    return tuple(union), tuple(factors), _tally(tuple(name for name, _ in key))


def _apply_diagonal(amps: np.ndarray, diag: np.ndarray, wires, width: int) -> np.ndarray:
    """Multiply by ``diag`` (axes in descending ``wires`` order); adjacent wires share an axis."""
    shape, top = [], width
    for w in wires:
        if w == top - 1 and shape:
            shape[-1] *= 3
        else:
            shape += [3 ** (top - w - 1), 3]
        top = w
    shape.append(amps.size // 3 ** (width - top))
    d = diag.reshape([n if k % 2 else 1 for k, n in enumerate(shape)])
    return (amps.reshape(shape) * d).reshape(amps.shape)


@lru_cache(maxsize=1024)
def _slice_moves(name: str, wires: tuple) -> tuple:
    """(output index, input index) pairs of a permutation gate on its wires' split view."""
    order = sorted(range(len(wires)), key=lambda k: -wires[k])

    def at(trits):
        return sum(((slice(None), trits[k]) for k in order), ()) + (slice(None),)
    return tuple((at(out), at(trits_of_index(loc, len(wires))[::-1]))
                 for loc, out in enumerate(trit_table(name)))


def _permute_slices(amps: np.ndarray, name: str, wires: tuple, width: int) -> np.ndarray:
    """Apply a permutation gate as 3^arity slice copies on its wires' split view."""
    tops = [width, *sorted(wires, reverse=True)]
    view = amps.reshape([n for hi, lo in zip(tops, tops[1:]) for n in (3**(hi - lo - 1), 3)] + [-1])
    out = np.empty_like(view)
    for dst, src in _slice_moves(name, wires):
        out[dst] = view[src]
    return out.reshape(amps.shape)


@lru_cache(maxsize=64)  # used up to width 8, where an index is 52 KB and the cache <= 3.4 MB
def _perm_run(key: tuple, width: int) -> np.ndarray:
    """``src`` with ``amps[src]`` the permutation run ``key``: its slice copies on the indices."""
    return reduce(lambda src, op: _permute_slices(src, *op, width), key, np.arange(3**width))


@lru_cache(maxsize=256)
def _kron_eye_t(gate: GateMatrix, rows: int) -> np.ndarray:
    """``(G ⊗ I_rows)^T``: one gemm applies a single-wire gate to rows of length ``3·rows``."""
    return np.kron(gate.matrix, np.eye(rows)).T.copy()


def _apply_tensordot(amps: np.ndarray, gate: GateMatrix, wires, width: int) -> np.ndarray:
    """Apply gate to a (3**width,) or (3**width, batch) array; see the module docstring."""
    batch = amps.shape[1] if amps.ndim == 2 else 1
    a = gate.arity
    if _diagonal(gate) is not None:
        union, (diag,), _ = _diagonal_run(((gate.name, tuple(wires)),))
        return _apply_diagonal(amps, diag, union, width)
    if a == 1:
        rows = 3 ** wires[0] * batch
        if rows > 9:
            return np.matmul(gate.matrix, amps.reshape(-1, 3, rows)).reshape(amps.shape)
        return (amps.reshape(-1, 3 * rows) @ _kron_eye_t(gate, rows)).reshape(amps.shape)
    if 3 ** sorted(wires)[1] * batch >= 9 and trit_table(gate.name) is not None:
        return _permute_slices(amps, gate.name, tuple(wires), width)
    # axis for wire w is (width-1-w); gate tensor row axes follow wires order
    tens = amps.reshape([3] * width + list(amps.shape[1:]))
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


def born_probabilities(s: StateVector, wire: int) -> np.ndarray:
    view = s.amps.reshape(3 ** (s.width - 1 - wire), 3, 3**wire)
    return (view.real**2 + view.imag**2).sum(axis=(0, 2))


def measure_wire(s: StateVector, wire: int, rng) -> tuple[int, StateVector]:
    probs = born_probabilities(s, wire)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise NonUnitaryError(f"state norm drifted to {total}")
    # the draw Generator.choice(3, p=probs / total) makes, without its checks
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    norm = np.sqrt(probs[outcome])
    if norm < 1e-12:
        raise NonUnitaryError("measured a zero-probability branch")
    out = np.zeros_like(s.amps).reshape(-1, 3, 3**wire)
    out[:, outcome] = s.amps.reshape(out.shape)[:, outcome] / norm
    return outcome, StateVector(s.width, out.reshape(-1))


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

    def _count(self, tally):
        p9, r2, loads = tally
        self.record.p9_executed += p9
        self.record.r2_executed += r2
        for name in loads:
            self.record.consumed[name] += 1

    def gate(self, state, g, wires):
        self._count(_tally((g.name,)))
        if self.mode == "injected" and g.arity == 1 and _base_name(g.name) in ("P9", "R2"):
            return self.run_ops(state, _injection(g.name, wires[0], self.width), {})
        return apply_gate(state, g, wires)

    def fused(self, state, key):
        """An ideal stretch of gates at once: its product operator, or above width 5 a run of
        diagonal gates as one multiply."""
        if self.width <= 5:
            mat, tally = _fused_segment(self.width, key)
            amps = mat @ state.amps
        else:
            union, factors, tally = _diagonal_run(key)
            # in C order, so that the product's reshape onto the split view is no copy
            diag = reduce(lambda x, y: np.multiply(x, y, order="C"), factors)
            amps = _apply_diagonal(state.amps, diag, union, self.width)
        self._count(tally)
        return StateVector(self.width, amps)

    def run_ops(self, state, instructions, slots):
        i, n = 0, len(instructions)
        fuse, small = self.mode == "ideal", self.width <= 5
        while i < n:
            op = instructions[i]
            j, gather = i, False
            while (fuse and j < n and isinstance(instructions[j], GateOp)
                   and (small or _diagonal(instructions[j].gate) is not None)):
                j += 1
            if j - i < 2 and self.width <= 8:  # wider, a cached index costs more than it saves
                j, gather = i, True
                while (j < n and isinstance(instructions[j], GateOp)
                       and trit_table(instructions[j].gate.name) is not None):
                    j += 1
            if j - i > 1:
                key = tuple((instructions[k].gate.name, instructions[k].wires) for k in range(i, j))
                # a permutation run (either mode) tallies nothing: no P9, R2 or loader permutes
                state = (StateVector(self.width, state.amps[_perm_run(key, self.width)])
                         if gather else self.fused(state, key))
                i = j
                continue
            if isinstance(op, GateOp):
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
        gate_mode: str = "ideal") -> RunRecord:
    """Execute a circuit, returning the final state and classical record."""
    if gate_mode not in ("ideal", "injected"):
        raise SizeError(f"gate_mode {gate_mode!r}")
    width = c.width + (1 if gate_mode == "injected" else 0)
    cap = width_cap()
    if width > cap:
        raise WidthCapError(f"width {width} above cap {cap}")
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
    if abs(record.state.norm() - 1.0) > _NORM_TOL:
        raise NonUnitaryError(f"final state norm {record.state.norm()}")
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


def circuit_permutation(c: Circuit) -> np.ndarray:
    """Full basis permutation of a classical circuit: the inverse of its gather index."""
    if c.width > 12:
        raise WidthCapError(f"width {c.width} > 12")
    compile_classical(c)  # raises unless every instruction is a permutation gate
    key = tuple((op.gate.name, op.wires) for op in c.instructions)
    return np.argsort(_perm_run.__wrapped__(key, c.width))  # uncached: one index per circuit
