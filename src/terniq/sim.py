"""Dense state-vector execution with measurement, feedback, and RUS loops.

One kernel, chosen once from the gate's structure, applies each gate to a
``(3**w,)`` state or a ``(3**w, batch)`` block of columns: a diagonal gate is
one broadcast multiply on a view splitting out its wires; another single-wire
gate one stacked matmul on the ``(3^(w-1-wire), 3, 3^wire)`` view when its rows
are long, else one gemm with ``(G ⊗ I)^T``; a permutation gate 3^arity slice
copies on its wires' split view; the rest one matmul after moving their axes
to the front.  An operator (a fused segment, or :func:`circuit_unitary`) is its
gates' kernels applied in turn to the identity.

The executor turns each instruction list into a step plan once per
(instruction tuple, exec width, gate mode), found by the identity of the tuple,
so a RUS trial only dispatches over its body's steps on the bare amplitude
array.  :func:`_run_kind` is the one rule table; each maximal run of
consecutive gates of one kind is one step, which holds every table it reads.
A gate that the mode does not inject joins, up to width 5, a run fused into
one cached operator (one gather when the operator permutes); wider, a diagonal
gate joins a run applied as one multiply; at widths 6 to 8 a permutation gate
joins a run applied as one gather through a cached index; above width 8 a
``TSWAP`` joins a run applied as one transpose copy of the ``(3,) * w`` view.
Any other gate is its kernel.  A measurement reduces the view splitting out
its wire once for the three Born probabilities, draws the outcome in Python
floats with the float operations of ``Generator.choice``, and keeps the
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

Each :func:`run` call owns two complex128 states of its exec width, made on
first use, and never writes the caller's initial array.  Every step writes its
whole state into the run's state that is not its input (``_Exec.spare``),
except that a diagonal run multiplies in place on a state of the run's own and
an untaken conditioned gate returns its input.  A real or integer initial state
is first copied into one of the two, and a run in which no step wrote keeps a
copy of it, so records of two runs share no memory.  The planner counts each
step's P9 and R2 gates and loaded resource states once, before it runs.

:func:`run` checks the norm of the final state; every measurement checks
the norm of the state it measures.

The classical path compiles a permutation circuit into one trit table per
maximal run of consecutive gates on at most 5 wires, leaving out identity runs
(:func:`compile_classical`), and walks one basis index through them on
Python-int trits with no width ceiling (:func:`run_compiled`); exhaustive
arithmetic uses it.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import groupby, product

import numpy as np

from .circuit import (Circuit, CondGateOp, GateOp, MeasureOp, RusOp, _gate_class, gate_op,
                      remap_wires)
from .errors import NonUnitaryError, RusCapError, SizeError, WidthCapError, as_int
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
    width = as_int(width, "width", 0)
    index = as_int(index, "basis index", 0, 3**width - 1)
    amps = np.zeros(3**width, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(width, amps)


def product_state(factors) -> StateVector:
    """Kron of per-wire factors, wire 0 first.  Ints mean basis trits."""
    factors = list(factors)
    amps = np.ones(1, dtype=np.complex128)
    for f in factors:
        if np.ndim(f) == 0:
            v = np.zeros(3, dtype=np.complex128)
            v[as_int(f, "basis trit", 0, 2)] = 1.0
        else:
            v = np.asarray(f, dtype=np.complex128)
            norm = np.linalg.norm(v)
            if v.shape != (3,) or not 0 < norm < np.inf:
                raise SizeError(f"wire factor of shape {v.shape} and norm {norm}")
            v = v / norm
        # wire i is the *least* significant trit, so later factors go on the
        # more significant side of the kron product
        amps = np.kron(v, amps)
    return StateVector(len(factors), amps)


def index_of_trits(trits) -> int:
    """Basis index of ``trits``, wire 0 least significant; ``SizeError`` unless each is 0, 1 or 2."""
    try:
        trits = tuple(trits)
    except TypeError:
        raise SizeError(f"trits {trits!r} are not a sequence") from None
    if not set(trits) <= {0, 1, 2}:
        raise SizeError(f"trits {trits} are not all 0, 1 or 2")
    return reduce(lambda index, t: 3 * index + int(t), reversed(trits), 0)


def trits_of_index(index: int, width: int) -> tuple[int, ...]:
    """Trits of basis ``index`` on ``width`` wires, wire 0 first; ``SizeError`` outside the width."""
    width = as_int(width, "width", 0)
    index, trits = as_int(index, "basis index outside width", 0, 3**width - 1), []
    for _ in range(width):
        index, t = divmod(index, 3)
        trits.append(t)
    return tuple(trits)


# ------------------------------------------------------------ gate application

_LOADER_STATES = {"LOADMU": "mu", "LOADMUDG": "mu_dag", "LOADPSI": "psi"}


@lru_cache(maxsize=4096)
def _tally(names: tuple) -> tuple:
    """P9 count, R2 count and loaded resource states of a gate-name sequence."""
    kinds = [_gate_class(name)[0] for name in names]
    loads = tuple(_LOADER_STATES[b] for n in names if (b := n.removesuffix("_INV")) in _LOADER_STATES)
    return kinds.count("p9"), kinds.count("r2"), loads


def _product(key: tuple, width: int) -> np.ndarray:
    """Operator of the gates ``key``: their kernels applied in turn to the identity."""
    dim = 3**width
    return reduce(lambda mat, op: _kernel(matrix_for_name(op[0]), op[1], width, dim)(
        mat, np.empty_like(mat)), key, np.eye(dim, dtype=np.complex128))


@lru_cache(maxsize=1024)
def _fused_segment(width: int, key: tuple) -> np.ndarray:
    """Product operator of consecutive gates, as its gather index if it permutes."""
    mat = _product(key, width)
    rows, src = mat.nonzero()
    return src if len(src) == len(mat) and (mat[rows, src] == 1).all() else mat


@lru_cache(maxsize=256)
def _injection(name: str, wire: int, width: int) -> tuple:
    """Injection protocol standing in for a P9, P9_INV or R2 gate on ``wire``.

    The widget's resource wire 1 becomes the pool (the top wire), which the
    closing reset returns to |0> from the outcome last measured into slot 0.
    Injected R2 trials are recorded under ``injected-r2``, apart from any
    ``r2-rus`` block the circuit itself holds.
    """
    if name.removesuffix("_INV") == "R2":
        ops = (replace(r2_injection_rus().instructions[0], label="injected-r2"),)
    else:
        inverse = name == "P9_INV"
        ops = ((gate_op("LOADMUDG" if inverse else "LOADMU", 1),)
               + p9_injection_widget(inverse).instructions)
    ops += tuple(reset_ops(1, 0))
    return remap_wires(Circuit(2, ops), {0: wire, 1: width - 1}, width).instructions


@lru_cache(maxsize=4096)
def _diagonal(gate: GateMatrix):
    """Diagonal of a diagonal gate as a ``(3,) * arity`` tensor, first wire first, else None."""
    d = np.diagonal(gate.matrix)
    return None if np.count_nonzero(gate.matrix - np.diag(d)) else d.reshape((3,) * gate.arity)


@lru_cache(maxsize=1024)
def _diagonal_run(key: tuple):
    """Descending wire union and per-gate broadcast factors of a run of diagonal gates."""
    union = sorted({w for _, wires in key for w in wires}, reverse=True)
    factors = []
    # lowest wire first (they commute): the product's full-size steps get long inner loops
    for name, wires in sorted(key, key=lambda op: min(op[1])):
        order = sorted(range(len(wires)), key=lambda k: -wires[k])
        shape = [3 if w in wires else 1 for w in union]
        factors.append(_diagonal(matrix_for_name(name)).transpose(order).reshape(shape))
    return tuple(union), tuple(factors)


def _apply_diagonal(amps: np.ndarray, diag: np.ndarray, wires, width: int, out) -> np.ndarray:
    """Multiply by ``diag`` (axes in descending ``wires`` order) into ``out``, which may be
    ``amps``, and return ``out``; adjacent wires share an axis."""
    shape, top = [], width
    for w in wires:
        if w == top - 1 and shape:
            shape[-1] *= 3
        else:
            shape += [3 ** (top - w - 1), 3]
        top = w
    shape.append(amps.size // 3 ** (width - top))
    d = diag.reshape([n if k % 2 else 1 for k, n in enumerate(shape)])
    np.multiply(amps.reshape(shape), d, out=out.reshape(shape))
    return out


@lru_cache(maxsize=1024)
def _slice_moves(name: str, wires: tuple) -> tuple:
    """(output index, input index) pairs of a permutation gate on its wires' split view."""
    order = sorted(range(len(wires)), key=lambda k: -wires[k])

    def at(trits):
        return sum(((slice(None), trits[k]) for k in order), ()) + (slice(None),)
    return tuple((at(out), at(trits_of_index(loc, len(wires))[::-1]))
                 for loc, out in enumerate(trit_table(name)))


def _permute_slices(amps: np.ndarray, moves: tuple, wires: tuple, width: int, out) -> np.ndarray:
    """Apply a permutation gate as its ``_slice_moves`` on its wires' split view into ``out``
    (not ``amps``), and return ``out``."""
    tops = [width, *sorted(wires, reverse=True)]
    view = amps.reshape([n for hi, lo in zip(tops, tops[1:]) for n in (3**(hi - lo - 1), 3)] + [-1])
    moved = out.reshape(view.shape)
    for dst, src in moves:
        moved[dst] = view[src]
    return out


@lru_cache(maxsize=128)  # used up to width 8, where an index is 52 KB and the cache <= 6.7 MB
def _perm_run(key: tuple, width: int) -> np.ndarray:
    """``src`` with ``amps[src]`` the permutation run ``key``: its slice copies on the indices."""
    src = np.arange(3**width)
    for name, wires in key:
        src = _permute_slices(src, _slice_moves(name, wires), wires, width, np.empty_like(src))
    return src


def _kron_eye_t(gate: GateMatrix, rows: int) -> np.ndarray:
    """``(G ⊗ I_rows)^T``: one gemm applies a single-wire gate to rows of length ``3·rows``."""
    return np.kron(gate.matrix, np.eye(rows)).T.copy()


def _kernel(gate: GateMatrix, wires: tuple, width: int, batch: int = 1):
    """``kernel(amps, out) -> out`` writing ``gate`` applied to a (3**width,) or
    (3**width, batch) array ``amps`` into ``out`` (not ``amps``); see the module docstring."""
    a, mat = gate.arity, gate.matrix
    if _diagonal(gate) is not None:
        union, (diag,) = _diagonal_run(((gate.name, wires),))
        return lambda amps, out: _apply_diagonal(amps, diag, union, width, out)
    if a == 1:
        rows = 3 ** wires[0] * batch
        kron = None if rows > 9 else _kron_eye_t(gate, rows)

        def single(amps, out):
            if kron is None:
                np.matmul(mat, amps.reshape(-1, 3, rows), out=out.reshape(-1, 3, rows))
            else:
                np.matmul(amps.reshape(-1, 3 * rows), kron, out=out.reshape(-1, 3 * rows))
            return out
        return single
    if trit_table(gate.name) is not None:
        moves = _slice_moves(gate.name, wires)
        return lambda amps, out: _permute_slices(amps, moves, wires, width, out)
    # axis for wire w is (width-1-w); gate tensor row axes follow wires order
    axes = [width - 1 - w for w in wires]

    def moveaxis(amps, out):
        shape = [3] * width + list(amps.shape[1:])
        moved = np.moveaxis(amps.reshape(shape), axes, range(a))
        np.copyto(np.moveaxis(out.reshape(shape), axes, range(a)),
                  (mat @ moved.reshape(3**a, -1)).reshape(moved.shape))
        return out
    return moveaxis


def _split(width: int, wire: int) -> tuple:
    """Shape of the view splitting out ``wire``: (higher wires, the wire, lower wires)."""
    if not 0 <= wire < width:
        raise SizeError(f"wire {wire} outside width {width}")
    return 3 ** (width - 1 - wire), 3, 3**wire


def _born(amps: np.ndarray, shape: tuple) -> np.ndarray:
    return np.add.reduce((amps.real**2 + amps.imag**2).reshape(shape), axis=(0, 2))


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a non-negative integer seed, else ``SizeError``."""
    return np.random.default_rng(as_int(seed, "seed", 0))


def choice_draw(p: list, rng) -> int:
    """The index ``rng.choice(3, p=p / sum(p))`` draws for Python floats p (pad two with 0.0),
    in its float operations without its checks: cumsum, over its last entry, searchsorted right."""
    try:
        total = p[0] + p[1] + p[2]
        c0 = p[0] / total
        c1 = c0 + p[1] / total
        c2 = c1 + p[2] / total
    except (IndexError, KeyError, TypeError):
        raise SizeError(f"choice_draw needs three probabilities, got {p!r}") from None
    u = rng.random()
    return (u >= c0 / c2) + (u >= c1 / c2)


def _measure(amps: np.ndarray, shape: tuple, rng, out) -> tuple[int, np.ndarray]:
    """Outcome of the wire that ``shape`` splits out, and ``out`` (not ``amps``) holding the
    post-measurement amplitudes."""
    p = _born(amps, shape).tolist()
    total = p[0] + p[1] + p[2]
    if abs(total - 1.0) > 1e-8:
        raise NonUnitaryError(f"state norm drifted to {total}")
    outcome = choice_draw(p, rng)
    norm = math.sqrt(p[outcome])
    if norm < 1e-12:
        raise NonUnitaryError("measured a zero-probability branch")
    out.fill(0)
    np.divide(amps.reshape(shape)[:, outcome], norm, out=out.reshape(shape)[:, outcome])
    return outcome, out


# ------------------------------------------------------------ step plans
#
# A plan is the tuple of steps that runs one instruction list at one exec width in one gate
# mode; a step is a function ``step(ex, amps, slots) -> amps`` that writes into
# ``ex.spare(amps)`` and returns it (see the module docstring for the two exceptions).  Plans
# are built once and looked up by the identity of the instruction tuple, never by its hash.

_PLAN_CAP = 256
_plans: dict = {}  # (id(instructions), width, mode) -> (instructions, steps)


def _plan(instructions, width: int, mode: str) -> tuple:
    """Steps of ``instructions`` at exec ``width`` in gate ``mode``, built on first use."""
    entry = _plans.get((id(instructions), width, mode))
    if entry is None:
        # the entry keeps the tuple alive: its id cannot pass to another object while cached
        entry = (instructions, _build_plan(instructions, width, mode))
        if len(_plans) >= _PLAN_CAP:
            _plans.pop(next(iter(_plans)), None)  # the oldest
        _plans[(id(instructions), width, mode)] = entry
    return entry[1]


def _injects(gate: GateMatrix, mode: str) -> bool:
    """Whether gate ``mode`` runs ``gate`` as an injection protocol instead of its matrix."""
    return mode == "injected" and gate.arity == 1 and gate.name.removesuffix("_INV") in ("P9", "R2")


def _run_kind(gate: GateMatrix, width: int, mode: str):
    """The one rule table: the step builder of the run that ``gate`` joins, or None when it
    gets an injection or a kernel of its own."""
    if _injects(gate, mode):
        return None
    if width <= 5:
        return _fused_step
    if _diagonal(gate) is not None:
        return _diagonal_step
    if width <= 8:  # wider, a cached index costs more than it saves
        return _gather_step if trit_table(gate.name) is not None else None
    return _transpose_step if gate.name == "TSWAP" else None


def _build_plan(instructions, width: int, mode: str) -> tuple:
    """One step per maximal run of consecutive gates of one ``_run_kind``, one per other op."""
    steps = []
    for kind, ops in groupby(instructions, lambda op: isinstance(op, GateOp)
                             and _run_kind(op.gate, width, mode)):
        if kind:
            key = tuple((op.gate.name, op.wires) for op in ops)
            steps.append(_counting(kind(key, width), tuple(name for name, _ in key)))
        else:
            steps += (_instruction_step(op, width, mode) for op in ops)
    return tuple(steps)


def _counting(step, names: tuple):
    """``step``, first adding the P9 and R2 counts and loaded states of the gates ``names`` to
    the record unless there are none."""
    tally = _tally(names)
    if tally == (0, 0, ()):
        return step

    def counted(ex, amps, slots):
        ex.count(tally)
        return step(ex, amps, slots)
    return counted


def _fused_step(key: tuple, width: int):
    """One cached product operator for a run of gates, one gather if the product permutes."""
    op = _fused_segment(width, key)
    if op.ndim == 1:  # mode "clip" (the indices are in range) lets take write into ``out``
        return lambda ex, amps, slots: amps.take(op, out=ex.spare(amps), mode="clip")
    return lambda ex, amps, slots: np.matmul(op, amps, out=ex.spare(amps))


def _diagonal_step(key: tuple, width: int):
    """One multiply for a run of diagonal gates."""
    union, factors = _diagonal_run(key)
    shape, size = (3,) * len(union), 3 ** len(union)

    def diagonal_run(ex, amps, slots):
        out = amps if ex.owns(amps) else ex.spare(amps)
        # in C order, so that the product's reshape onto the split view is no copy; the full
        # product lands in the run's other state, which this step leaves unused
        diag = reduce(lambda x, y: np.multiply(x, y, order="C"), factors[1:-1], factors[0])
        if len(factors) > 1:
            diag = np.multiply(diag, factors[-1], out=ex.spare(out)[:size].reshape(shape))
        return _apply_diagonal(amps, diag, union, width, out)
    return diagonal_run


def _gather_step(key: tuple, width: int):
    """One gather for a run of permutation gates through a cached index."""
    src = _perm_run(key, width)
    return lambda ex, amps, slots: amps.take(src, out=ex.spare(amps), mode="clip")


def _transpose_step(key: tuple, width: int):
    """One transpose copy of the ``(3,) * width`` view for a run of ``TSWAP`` gates."""
    src = list(range(width))  # wire x holds the trit that started on wire src[x]
    for _, (a, b) in key:
        src[a], src[b] = src[b], src[a]
    axes = tuple(width - 1 - src[width - 1 - k] for k in range(width))  # axis k is wire width-1-k

    def transpose(ex, amps, slots):
        out = ex.spare(amps)
        np.copyto(out.reshape((3,) * width), amps.reshape((3,) * width).transpose(axes))
        return out
    return transpose


def _gate_step(op: GateOp, width: int, mode: str):
    """One gate op: an injection protocol, a one-gate run of its ``_run_kind``, or its kernel."""
    gate, wires = op.gate, op.wires
    if _injects(gate, mode):
        steps = _plan(_injection(gate.name, wires[0], width), width, mode)
        step = lambda ex, amps, slots: ex.run_steps(amps, steps, {})
    elif kind := _run_kind(gate, width, mode):
        step = kind(((gate.name, wires),), width)
    else:
        kernel = _kernel(gate, wires, width)
        step = lambda ex, amps, slots: kernel(amps, ex.spare(amps))
    return _counting(step, (gate.name,))


def _instruction_step(op, width: int, mode: str):
    if isinstance(op, GateOp):
        return _gate_step(op, width, mode)
    if isinstance(op, MeasureOp):
        shape, slot = _split(width, op.wire), op.slot

        def measure(ex, amps, slots):
            slots[slot], amps = _measure(amps, shape, ex.rng, ex.spare(amps))
            ex.record.measurements += 1
            return amps
        return measure
    if isinstance(op, CondGateOp):
        gate, slot, value = _gate_step(op.op, width, mode), op.slot, op.value
        return lambda ex, amps, slots: gate(ex, amps, slots) if slots.get(slot, 0) == value else amps
    body = _plan(op.body.instructions, width, mode)  # a RusOp: Circuit checks every op's type
    return lambda ex, amps, slots: ex.run_rus(amps, op, body, slots)


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
    def __init__(self, seed, record):
        self.rng = seeded_rng(seed)
        self.record = record
        self.bufs = (None, None)  # the run's two complex128 states, made on first use

    def owns(self, amps) -> bool:
        """Whether ``amps`` is one of the run's own states, which a step may overwrite."""
        a, b = self.bufs
        return amps is a or amps is b

    def spare(self, amps) -> np.ndarray:
        """The run's own state that ``amps`` is not, for a step to write its output into."""
        a, b = self.bufs
        if a is None:
            a, b = self.bufs = np.empty(amps.size, np.complex128), np.empty(amps.size, np.complex128)
        return b if amps is a else a

    def count(self, tally):
        p9, r2, loads = tally
        self.record.p9_executed += p9
        self.record.r2_executed += r2
        for name in loads:
            self.record.consumed[name] += 1

    def run_steps(self, amps, steps, slots):
        for step in steps:
            amps = step(self, amps, slots)
        return amps

    def run_rus(self, amps, op: RusOp, body, slots):
        chain = op.chain
        chain_state = chain.start if chain else None
        log = []
        for trial in range(1, op.max_iters + 1):
            amps = self.run_steps(amps, body, slots)
            if chain is not None:
                m = slots.get(op.outcome_slot, 0)
                log.append(m)
                if (chain_state, m) not in chain.transitions:
                    raise SizeError(f"RUS chain has no transition from state "
                                    f"{chain_state} on outcome {m}")
                chain_state = chain.transitions[(chain_state, m)]
                done = chain_state in chain.accept
            else:
                done = all(slots.get(s, 0) == v for s, v in op.predicate)
            if done:
                self.record.rus_trials.setdefault(op.label or "rus", []).append(trial)
                return amps
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
    ex = _Exec(seed, record)
    amps = state.amps
    if amps.dtype != np.complex128:  # every step then sees complex amplitudes
        amps = ex.spare(amps)
        amps[...] = state.amps
    amps = ex.run_steps(amps, _plan(c.instructions, width, gate_mode), record.slots)
    if not ex.owns(amps):  # no step wrote: keep a copy, not the caller's array
        amps = amps.copy()
    record.state = StateVector(width, amps)
    if abs(record.state.norm() - 1.0) > _NORM_TOL:
        raise NonUnitaryError(f"final state norm {record.state.norm()}")
    return record


# ------------------------------------------------------------ unitary extraction

def circuit_unitary(c: Circuit, cap: int = 8) -> np.ndarray:
    """Dense unitary of a measurement-free circuit (small widths)."""
    if c.width > cap:
        raise WidthCapError(f"circuit_unitary width {c.width} > {cap}")
    if not all(isinstance(op, GateOp) for op in c.instructions):
        raise NonUnitaryError("circuit_unitary needs a unitary circuit")
    return _product(tuple((op.gate.name, op.wires) for op in c.instructions), c.width)


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
    """A permutation circuit as ``(arity, wires, trit table)`` per fused run of gates."""

    width: int
    ops: tuple

    def __len__(self) -> int:
        return len(self.ops)


@lru_cache(maxsize=None)
def _trit_tuples(k: int) -> tuple:
    """Every ``k``-trit tuple in index order, first trit most significant: one object per value."""
    return tuple(product(range(3), repeat=k))


@lru_cache(maxsize=1024)
def _fused_table(names: tuple, pos: tuple, k: int):
    """Trit table of gates ``names`` at local positions ``pos`` on ``k`` wires; None if identity.
    Its entries are the shared tuples of ``_trit_tuples(k)``."""
    start = np.indices((3,) * k).reshape(k, 3**k).T  # row loc: its trits, first wire first
    rows = start.copy()
    for name in names:
        table = trit_table(name)
        if table is None:
            raise NonUnitaryError(f"{name} is not a classical permutation")
        at, pos = list(pos[:len(table[0])]), pos[len(table[0]):]
        rows[:, at] = np.array(table)[rows[:, at] @ 3 ** np.arange(len(at))[::-1]]
    if (rows == start).all():
        return None
    return tuple(map(_trit_tuples(k).__getitem__, (rows @ 3 ** np.arange(k)[::-1]).tolist()))


@lru_cache(maxsize=4096)
def _run_steps(names: tuple, wires: tuple) -> tuple:
    """Walk steps, none or one, of the gates ``names`` on ``wires``, each gate's wires in turn;
    cached by absolute wires too, because circuits repeat runs on the same wires."""
    order = tuple(dict.fromkeys(wires))  # the run's wires, in order of first use
    table = _fused_table(names, tuple(map(order.index, wires)), len(order))
    return ((len(order), order, table),) if table else ()


def _grow(steps: list, ops, run: set, names: list, wires: list, stop: bool = False):
    """Extend the open run (its wire set, gate names and wires) over ``ops``.  A gate that
    would touch a sixth wire closes the run into ``steps`` and opens the next; with
    ``stop`` the walk returns None there instead, before the closing gate joins."""
    for op in ops:
        if not isinstance(op, GateOp):
            raise NonUnitaryError(f"classical path cannot run {type(op).__name__}")
        if not run.issuperset(op.wires):
            run = run.union(op.wires)
            if len(run) > 5:
                steps += _run_steps(tuple(names), tuple(wires))
                if stop:
                    return None
                run, names, wires = set(op.wires), [], []
        names.append(op.gate.name)
        wires += op.wires
    return run, names, wires


def compile_classical(c: Circuit) -> CompiledCircuit:
    """Flatten a measurement-free permutation circuit for fast walks: one table per maximal run
    of consecutive gates on at most 5 wires, identity runs left out.  A repeated block's gates
    join the open run up to the gate ``i`` that closes it; its steps from there and the run it
    leaves open depend only on (block, ``i``), so they are memoised on that pair."""
    steps, uses, tails = [], Counter(map(id, c.blocks)), {}
    state = set(), [], []
    for block in c.blocks:
        if uses[id(block)] == 1:
            state = _grow(steps, block, *state)
            continue
        joined = len(state[1])
        grown = _grow(steps, block, *state, stop=True)
        if grown is not None:  # the whole block joined the open run
            state = grown
            continue
        i = len(state[1]) - joined
        tail = tails.get((id(block), i))
        if tail is None:
            mark = len(steps)
            end = _grow(steps, block[i:], set(), [], [])
            tail = tails[id(block), i] = (steps[mark:], *end)
        else:
            steps += tail[0]
        state = set(tail[1]), list(tail[2]), list(tail[3])
    steps += _run_steps(tuple(state[1]), tuple(state[2]))
    return CompiledCircuit(c.width, tuple(steps))


def run_compiled(compiled: CompiledCircuit, index: int) -> int:
    """Basis index that the compiled permutation maps ``index`` to."""
    t = list(trits_of_index(index, compiled.width))  # SizeError unless an integer in the width
    for a, wires, table in compiled.ops:  # arity 1 to 5: no gate is wider than 4 wires
        if a == 5:
            w0, w1, w2, w3, w4 = wires
            t[w0], t[w1], t[w2], t[w3], t[w4] = table[81 * t[w0] + 27 * t[w1] + 9 * t[w2]
                                                      + 3 * t[w3] + t[w4]]
        elif a == 4:
            w0, w1, w2, w3 = wires
            t[w0], t[w1], t[w2], t[w3] = table[27 * t[w0] + 9 * t[w1] + 3 * t[w2] + t[w3]]
        elif a == 3:
            w0, w1, w2 = wires
            t[w0], t[w1], t[w2] = table[9 * t[w0] + 3 * t[w1] + t[w2]]
        elif a == 2:
            w0, w1 = wires
            t[w0], t[w1] = table[3 * t[w0] + t[w1]]
        else:
            w0, = wires
            t[w0], = table[t[w0]]
    return index_of_trits(t)

