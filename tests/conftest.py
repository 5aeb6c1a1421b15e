"""Shared oracles and helpers for the test suite."""

import atexit
import shutil
import tempfile
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from terniq import widgets
from terniq.circuit import Circuit, CondGateOp, GateOp, MeasureOp, gate_op, remap_wires
from terniq.errors import RusCapError
from terniq.gates import matrix_for_name
from terniq.sim import compile_classical, run_compiled, trits_of_index

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # property tests skip themselves without the test extra
    pass
else:
    # derandomized: every run draws the same examples and keeps no example
    # database; the source-constant cache goes to a directory removed at exit
    settings.register_profile("terniq", derandomize=True, database=None, deadline=None)
    settings.load_profile("terniq")
    # the plugin imports this on a failing property to write a patch; under
    # filterwarnings = error a DeprecationWarning its imports raise (libcst pulls in
    # mypy_extensions.TypedDict) would end the run with INTERNALERROR, so import it now
    with warnings.catch_warnings(), suppress(ImportError):  # it needs the optional libcst
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
    _home = tempfile.mkdtemp(prefix="terniq-hypothesis-")
    atexit.register(shutil.rmtree, _home, ignore_errors=True)
    set_hypothesis_home_dir(_home)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state_vector(rng, width):
    v = rng.normal(size=3**width) + 1j * rng.normal(size=3**width)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_compiled = [None, None]  # the circuit last walked and its compiled form


def classical_map(adder, base, values, controls=None):
    """Run a compiled permutation circuit over data values; return the map.

    ``values`` iterates data-register values; yields (value, out_value,
    carry, full trit tuple) per input.  Ancillas are asserted restored by
    the caller.  A circuit walked again, at other control values, is
    compiled once.
    """
    if _compiled[0] is not adder.circuit:
        _compiled[:] = adder.circuit, compile_classical(adder.circuit)
    comp, width = _compiled[1], adder.circuit.width
    held = sum(v * 3**w for w, v in zip(adder.controls, controls or ()))  # the controls' index
    for b in values:
        index = held + sum(b // base**j % base * 3**w for j, w in enumerate(adder.data))
        ot = trits_of_index(run_compiled(comp, index), width)
        got = sum(ot[w] * base**j for j, w in enumerate(adder.data))
        carry = ot[adder.carry_out] if adder.carry_out is not None else None
        yield b, got, carry, ot


def _multiplier(spec, cv) -> int:
    """The c of the shift by c*a that the control values ``cv`` select."""
    if not cv:
        return 1
    if spec.control_mode == "ternary":
        return cv[0]
    strict = int(cv[0] == spec.control_mode)  # the first control fires on one level
    return strict * cv[1] if len(cv) == 2 else strict


def expected(spec, adder, cv=()):
    """What the build ``adder`` of ``spec`` must output with its controls at ``cv``: the
    trit tuple out for each register value b it takes, as {b: trits}; None where the build
    is not exact (the ternary double ripple shift at multiplier value 2).

    An adder gives b + (c*a mod radix^n) mod radix^n and its carry-out; a comparator (whose
    spec is its threshold's) flips ``result`` iff b >= t and keeps the register; a modular
    shift gives (b + c*a) mod N for b < N.  The controls come back unchanged and every
    other wire at 0.
    """
    base = 2 if spec.encoding == "binary" else 3
    R, N, a, c = base**spec.digits, spec.modulus, spec.constant, _multiplier(spec, cv)
    if c == 2 and spec.control == "double" and N is None:
        return None
    want = {}
    for b in range(R if N is None else N):
        trits = [0] * adder.circuit.width
        for w, v in zip(adder.controls, cv):
            trits[w] = v
        if adder.result is not None:
            value, trits[adder.result] = b, int(b >= a)
        elif N is not None:
            value = (b + c * a) % N
        else:
            total = b + c * a % R
            value = total % R
            if adder.carry_out is not None:
                trits[adder.carry_out] = total // R
        for j, w in enumerate(adder.data):
            trits[w] = value // base**j % base
        want[b] = tuple(trits)
    return want


def assert_clean(adder, ot, controls=None):
    """All non-data, non-carry wires back to their input values."""
    ctrl_map = dict(zip(adder.controls, controls or ()))
    for w in range(adder.circuit.width):
        if w in adder.data or w == adder.carry_out:
            continue
        expect = ctrl_map.get(w, 0)
        assert ot[w] == expect, f"wire {w} ended in {ot[w]} (expected {expect})"


def moveaxis_apply(amps, matrix, wires, width):
    """Reference gate: move the gate's axes to the front, one matmul, move them back."""
    a, axes = len(wires), [width - 1 - w for w in wires]
    moved = np.moveaxis(amps.reshape([3] * width), axes, range(a))
    out = (matrix @ moved.reshape(3**a, -1)).reshape(moved.shape)
    return np.moveaxis(out, range(a), axes).reshape(-1)


_LOADS = {"LOADMU": "mu", "LOADMUDG": "mu_dag", "LOADPSI": "psi"}


def tallies(rec):
    """The classical record of a run that the reference executor must reproduce."""
    return (rec.slots, rec.rus_trials, rec.consumed, rec.p9_executed, rec.r2_executed,
            rec.measurements)


def reference_run(circ, init, seed=0, mode="ideal"):
    """The reference executor: the record's fields and final ``amps`` of ``circ`` run from
    ``init`` (at the circuit's width) one instruction at a time, none of it planned."""
    width = circ.width + (mode == "injected")
    rng, index = np.random.default_rng(seed), np.arange(3**width)
    rec = SimpleNamespace(slots={}, rus_trials={}, consumed=Counter(), p9_executed=0,
                          r2_executed=0, measurements=0)

    def gate(name, wires, amps):
        base = name.removesuffix("_INV")
        rec.p9_executed += base == "P9"
        rec.r2_executed += base == "R2"
        if base in _LOADS:
            rec.consumed[_LOADS[base]] += 1
        if mode == "ideal" or base not in ("P9", "R2"):
            return moveaxis_apply(amps, matrix_for_name(name).matrix, wires, width)
        # injected: the widget circuits on the gate's wire and a top pool wire, own slots
        if base == "R2":
            ops = (replace(widgets.r2_injection_rus().instructions[0], label="injected-r2"),)
        else:
            ops = ((gate_op("LOADMUDG" if name == "P9_INV" else "LOADMU", 1),)
                   + widgets.p9_injection_widget(name == "P9_INV").instructions)
        protocol = Circuit(2, ops + tuple(widgets.reset_ops(1, 0)))
        return steps(remap_wires(protocol, {0: wires[0], 1: width - 1}, width).instructions,
                     amps, {})

    def steps(ops, amps, slots):
        for op in ops:
            if isinstance(op, GateOp) or (isinstance(op, CondGateOp)
                                          and slots.get(op.slot, 0) == op.value):
                amps = gate((op.op if isinstance(op, CondGateOp) else op).gate.name, op.wires, amps)
            elif isinstance(op, MeasureOp):  # Generator.choice on the masked probabilities
                mask = [index // 3**op.wire % 3 == v for v in range(3)]
                p = np.array([np.sum(np.abs(amps[m]) ** 2) for m in mask])
                slots[op.slot] = v = int(rng.choice(3, p=p / p.sum()))
                amps = np.where(mask[v], amps, 0) / np.sqrt(p[v])
                rec.measurements += 1
            elif not isinstance(op, CondGateOp):
                amps = rus(op, amps, slots)
        return amps

    def rus(op, amps, slots):
        state = op.chain.start if op.chain else None
        for trial in range(1, op.max_iters + 1):
            amps = steps(op.body.instructions, amps, slots)
            if op.chain:
                state = op.chain.transitions[(state, slots.get(op.outcome_slot, 0))]
            if state in op.chain.accept if op.chain else all(
                    slots.get(s, 0) == v for s, v in op.predicate):
                rec.rus_trials.setdefault(op.label or "rus", []).append(trial)
                return amps
        raise RusCapError(f"RUS {op.label} exceeded {op.max_iters} iterations", [])

    amps = np.zeros(3**width, dtype=np.complex128)
    amps[:init.size] = init
    rec.amps = steps(circ.instructions, amps, rec.slots)
    return rec


def acts_as(circ, gate, wires, binary=False):
    """Whether ``circ`` acts as catalog gate ``gate`` on ``wires`` (first wire most significant,
    as in gate kets): run by the reference executor from each binary (``binary``) or ternary
    input there, every other wire at 0, it gives the gate's column on ``wires`` and 0 on every
    other wire."""
    g, a, dim = matrix_for_name(gate).matrix, len(wires), 3**circ.width
    digits = [[k // 3**(a - 1 - i) % 3 for i in range(a)] for k in range(3**a)]
    index = [sum(d * 3**w for d, w in zip(ds, wires)) for ds in digits]
    for k, ds in enumerate(digits):
        if binary and 2 in ds:
            continue
        init, want = np.zeros(dim, dtype=np.complex128), np.zeros(dim, dtype=np.complex128)
        init[index[k]], want[index] = 1, g[:, k]
        if not np.allclose(reference_run(circ, init).amps, want, rtol=0, atol=1e-10):
            return False
    return True
