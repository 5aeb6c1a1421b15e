import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import assert_clean, classical_map, random_state_vector
from terniq.circuit import Circuit, CondGateOp, GateOp, MeasureOp
from terniq.errors import NonUnitaryError, RusCapError, SizeError, WidthCapError
from terniq.gates import matrix_for_name, states_equal_up_to_phase
from terniq.qft import qft3n
from terniq import sim
from terniq.sim import (
    _PLAN_CAP,
    RunRecord,
    StateVector,
    _Exec,
    _build_plan,
    _perm_run,
    _plans,
    _tally,
    _transpose_step,
    apply_gate,
    basis_state,
    born_probabilities,
    circuit_permutation,
    circuit_unitary,
    compile_classical,
    index_of_trits,
    measure_wire,
    product_state,
    resource_state,
    run,
    run_compiled,
    trit_table,
    trits_of_index,
)
from terniq import widgets
from terniq.arithmetic import ShiftSpec, ripple_add_const


def g(name, *wires):
    return GateOp(matrix_for_name(name), tuple(wires))


def test_little_endian_indexing():
    assert index_of_trits([1, 0]) == 1
    assert index_of_trits([0, 1]) == 3
    assert trits_of_index(5, 3) == (2, 1, 0)


def test_apply_inc_wire0():
    s = apply_gate(basis_state(2, 0), matrix_for_name("INC"), (0,))
    assert s.amps[1] == 1.0  # basis index 1 = trit 1 on wire 0


def test_apply_sum():
    # SUM control wire 0, target wire 1 on |2,2>: target -> 2+2 = 1
    s = apply_gate(basis_state(2, index_of_trits([2, 2])), matrix_for_name("SUM"), (0, 1))
    assert abs(s.amps[index_of_trits([2, 1])] - 1.0) < 1e-14


def test_h_then_hdag_roundtrip():
    s = basis_state(1, 0)
    s = apply_gate(s, matrix_for_name("H"), (0,))
    s = apply_gate(s, matrix_for_name("H_INV"), (0,))
    assert abs(s.amps[0] - 1.0) < 1e-12


def test_wire_clash_rejected():
    with pytest.raises(SizeError):
        apply_gate(basis_state(2, 0), matrix_for_name("SUM"), (1, 1))


def _moveaxis_apply(amps, matrix, wires, width):
    # reference: move the gate's axes to the front, one matmul, move them back
    a = len(wires)
    axes = [width - 1 - w for w in wires]
    moved = np.moveaxis(amps.reshape([3] * width), axes, range(a))
    out = (matrix @ moved.reshape(3**a, -1)).reshape(moved.shape)
    return np.moveaxis(out, range(a), axes).reshape(-1)


# diagonal (P9, controlled phases, the asymmetric C1[Z] and C2[C1[Z]]), dense
# single-wire (H, H_INV, and INC, which is not symmetric) and 2- and 3-wire
# non-diagonal gates (the permutations SUM, TSWAP, C1[INC], C1[C1[INC]], and L[SUM])
DIAGONAL_GATES = ["P9", "P9_INV", "L[PHASE[1,9]]", "L[PHASE[2,27]]_INV", "L[L[PHASE[1,9]]]",
                  "C1[Z]", "C2[C1[Z]]"]
KERNEL_GATES = DIAGONAL_GATES + ["H", "H_INV", "INC", "SUM", "TSWAP", "C1[INC]", "C1[C1[INC]]",
                                 "L[SUM]"]


def _random_gate_ops(rng, width, count):
    ops = []
    for _ in range(count):
        gm = matrix_for_name(KERNEL_GATES[rng.integers(len(KERNEL_GATES))])
        wires = tuple(int(w) for w in rng.choice(width, size=gm.arity, replace=False))
        ops.append(GateOp(gm, wires))
    return ops


def _low_wire_permutations(width):
    # wire sets on both sides of the slice-copy rule (second-lowest wire >= 2)
    return [*(g(name, *wires) for name in ("SUM", "TSWAP", "C1[INC]")
              for wires in ((0, 1), (1, 0), (0, width - 1))),
            g("C1[C1[INC]]", 0, 1, 2), g("C1[C1[INC]]", width - 1, 0, 2)]


@pytest.mark.parametrize("width", [6, 7, 8, 9])
def test_gate_kernel_matches_moveaxis_formula(rng, width):
    ops = _random_gate_ops(rng, width, 40) + _low_wire_permutations(width)
    ops += [g("C1[Z]", 0, width - 1), g("C1[Z]", width - 1, 0),
            *(g(name, w) for name in ("H", "INC") for w in (0, 1, 2, 3, width - 1))]
    for op in ops:
        s = StateVector(width, random_state_vector(rng, width))
        got = apply_gate(s, op.gate, op.wires).amps
        want = _moveaxis_apply(s.amps, op.gate.matrix, op.wires, width)
        assert np.abs(got - want).max() < 1e-12, (op.gate.name, op.wires)


@pytest.mark.parametrize("width", [6, 7])
def test_circuit_unitary_matches_single_gate_applies(rng, width):
    circ = Circuit(width, tuple(_random_gate_ops(rng, width, 12) + _low_wire_permutations(width)))
    u = circuit_unitary(circ)
    for idx in rng.choice(3**width, size=6, replace=False):
        col = basis_state(width, int(idx)).amps
        for op in circ.instructions:
            col = _moveaxis_apply(col, op.gate.matrix, op.wires, width)
        assert np.abs(u[:, idx] - col).max() < 1e-12


def _diagonal_run_circuit(rng, width):
    # runs of 1-6 diagonal gates (R2 too) on a few wires, so that wires repeat
    # and come in any order, each run ended by H, SUM, a measurement or a
    # conditioned diagonal gate
    ops = []
    for k in range(12):
        pool = rng.choice(width, size=int(rng.integers(3, width + 1)), replace=False)
        for _ in range(int(rng.integers(1, 7))):
            gm = matrix_for_name((DIAGONAL_GATES + ["R2"])[rng.integers(len(DIAGONAL_GATES) + 1)])
            ops.append(GateOp(gm, tuple(int(w) for w in rng.choice(pool, size=gm.arity,
                                                                    replace=False))))
        a, b = (int(w) for w in rng.choice(width, size=2, replace=False))
        ops.append([g("H", a), g("SUM", a, b), MeasureOp(a, 0),
                    CondGateOp(0, 1, matrix_for_name("P9"), (b,))][k % 4])
    return Circuit(width, tuple(ops))


def _gate_by_gate(circ, amps, seed):
    """State, P9 count and R2 count of applying ``circ`` one gate at a time."""
    rng, slots, p9, r2 = np.random.default_rng(seed), {}, 0, 0
    for op in circ.instructions:
        if isinstance(op, MeasureOp):
            slots[op.slot], s = measure_wire(StateVector(circ.width, amps), op.wire, rng)
            amps = s.amps
        elif not isinstance(op, CondGateOp) or slots.get(op.slot, 0) == op.value:
            amps = _moveaxis_apply(amps, op.gate.matrix, op.wires, circ.width)
            p9 += op.gate.name in ("P9", "P9_INV")
            r2 += op.gate.name == "R2"
    return amps, p9, r2


@pytest.mark.parametrize("width", [6, 7, 8, 9])
def test_diagonal_runs_match_gate_by_gate(rng, width):
    for seed in range(3):
        circ = _diagonal_run_circuit(rng, width)
        init = random_state_vector(rng, width)
        rec = run(circ, StateVector(width, init), seed=seed)
        want, p9, r2 = _gate_by_gate(circ, init, seed)
        assert np.abs(rec.state.amps - want).max() < 1e-12
        assert (rec.p9_executed, rec.r2_executed) == (p9, r2)


def test_injected_mode_does_not_fuse_p9_runs(rng):
    # two adjacent P9s at injected width 7: each one is a separate injection
    circ = Circuit(6, (g("P9", 0), g("P9", 3)))
    init = StateVector(6, random_state_vector(rng, 6))
    rec = run(circ, init, seed=4, gate_mode="injected")
    assert rec.consumed["mu"] == 2 and rec.p9_executed == 2
    pool0 = rec.state.amps.reshape(3, -1)
    assert states_equal_up_to_phase(pool0[0], run(circ, init).state.amps, 1e-9)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_run_qft_matches_inverse_fft(n):
    v = random_state_vector(np.random.default_rng(300 + n), n)
    got = run(qft3n(n), StateVector(n, v)).state.amps
    assert np.abs(got - np.sqrt(3**n) * np.fft.ifft(v)).max() < 1e-10


@pytest.mark.parametrize("n", [6, 8, 10])
def test_run_approximate_qft_matches_gate_by_gate(n):
    # dropped phases move where the diagonal runs start and stop
    circ = qft3n(n, delta=0.5)
    assert len(circ) < len(qft3n(n))
    v = random_state_vector(np.random.default_rng(400 + n), n)
    want, _, _ = _gate_by_gate(circ, v, 0)
    assert np.abs(run(circ, StateVector(n, v)).state.amps - want).max() < 1e-12


def test_qft_run_peak_stays_at_three_states():
    # a run's fused diagonal is built C-contiguous: reshaping it must not copy
    n = 10
    circ, v = qft3n(n), random_state_vector(np.random.default_rng(5), n)
    run(circ, StateVector(n, v))
    tracemalloc.start()
    try:
        run(circ, StateVector(n, v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * v.nbytes


def _permutation_run_circuit(rng, width):
    # runs of 2-6 permutation gates on wires that include 0 and 1, each ended
    # by H, a measurement or a P9
    ops = []
    for k in range(9):
        pool = [0, 1, *rng.choice(range(2, width), size=int(rng.integers(1, width - 1)),
                                  replace=False)]
        for _ in range(int(rng.integers(2, 7))):
            gm = matrix_for_name(["SUM", "TSWAP", "C1[INC]", "C1[C1[INC]]", "INC",
                                  "TAU1[0,1]"][rng.integers(6)])
            ops.append(GateOp(gm, tuple(int(w) for w in rng.choice(pool, size=gm.arity,
                                                                    replace=False))))
        w = int(rng.integers(width))
        ops.append([g("H", w), MeasureOp(w, 0), g("P9", w)][k % 3])
    return Circuit(width, tuple(ops))


def _stepwise(circ, init, seed, mode):
    """One instruction at a time: permutation gates by the moveaxis formula, the rest through
    the executor, all with one generator."""
    width = circ.width + (mode == "injected")
    record = RunRecord(state=None, slots={}, seed=seed)
    ex = _Exec(width, seed, mode, record)
    amps = np.concatenate([init, np.zeros(3**width - init.size)])
    for op in circ.instructions:
        if isinstance(op, GateOp) and trit_table(op.gate.name) is not None:
            amps = _moveaxis_apply(amps, op.gate.matrix, op.wires, width)
            ex.count(_tally((op.gate.name,)))
        else:
            amps = ex.run_ops(amps, (op,), record.slots)
    return amps, record


def _tallies(rec):
    return rec.slots, rec.rus_trials, rec.consumed, rec.p9_executed, rec.measurements


@pytest.mark.parametrize("mode", ["ideal", "injected"])
@pytest.mark.parametrize("width", [6, 7, 8])
def test_permutation_runs_match_gate_by_gate(rng, width, mode):
    for seed in range(3):
        circ = _permutation_run_circuit(rng, width)
        init = random_state_vector(rng, width)
        rec = run(circ, StateVector(width, init), seed=seed, gate_mode=mode)
        want, ref = _stepwise(circ, init, seed, mode)
        assert np.abs(rec.state.amps - want).max() < 1e-12
        assert _tallies(rec) == _tallies(ref)
        p9 = sum(op.gate.name == "P9" for op in circ.instructions if isinstance(op, GateOp))
        assert rec.p9_executed == p9 > 0
        assert rec.consumed["mu"] == (p9 if mode == "injected" else 0)


def test_wide_permutation_runs_leave_the_gather_cache_alone(rng):
    # a cached index at width 10 or 12 would cost more memory than its gather saves
    before = _perm_run.cache_info()
    circ = Circuit(10, (g("SUM", 0, 1), g("TSWAP", 2, 9), g("C1[INC]", 1, 0), g("INC", 0)))
    init = random_state_vector(rng, 10)
    want, _, _ = _gate_by_gate(circ, init, 0)
    assert np.abs(run(circ, StateVector(10, init)).state.amps - want).max() < 1e-12
    run(qft3n(12))
    assert _perm_run.cache_info() == before  # no lookup: a full cache keeps its size


def _wire_exchange_run_circuit(rng, width):
    # runs of 2-6 TSWAPs on random wire pairs, each ended by H, a measurement or a P9
    ops = []
    for k in range(6):
        for _ in range(int(rng.integers(2, 7))):
            ops.append(g("TSWAP", *(int(w) for w in rng.choice(width, size=2, replace=False))))
        w = int(rng.integers(width))
        ops.append([g("H", w), MeasureOp(w, 0), g("P9", w)][k % 3])
    return Circuit(width, tuple(ops))


@pytest.mark.parametrize("mode", ["ideal", "injected"])
@pytest.mark.parametrize("width", [9, 10])
def test_wire_exchange_runs_match_gate_by_gate(rng, monkeypatch, width, mode):
    transposes = []
    monkeypatch.setattr(sim, "_transpose_step",
                        lambda key, w: transposes.append(key) or _transpose_step(key, w))
    for seed in range(2):
        circ = _wire_exchange_run_circuit(rng, width)
        init = random_state_vector(rng, width)
        rec = run(circ, StateVector(width, init), seed=seed, gate_mode=mode)
        want, ref = _stepwise(circ, init, seed, mode)
        assert np.abs(rec.state.amps - want).max() < 1e-12
        assert _tallies(rec) == _tallies(ref)
    assert len(transposes) == 12  # every run is one transpose


def _records_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(repr((sorted(r.slots.items()), sorted(r.rus_trials.items()),
                       sorted(r.consumed.items()), r.p9_executed, r.measurements)).encode())
    return h.hexdigest()[:16]


def test_seeded_records_are_unchanged():
    # recorded before the permutation gather and the short-row gemm landed: a
    # kernel change that moves a measurement draw changes these digests
    golden = {"toffoli": "b261c54213cecb55", "ccc_not": "4fa0dec8841323f1",
              "c1z": "70199fade0d1f517", "cnot": "bac47b47b3f0e4db",
              "psi": "c6345eb32af338bb", "eta": "0cdd9ae7e00e5183",
              "plus_omega3": "293e702e3cd77901"}
    got = {}
    for name, circ in (("toffoli", widgets.toffoli_emulated("one_clean")),
                       ("ccc_not", widgets.ccc_not("two_clean")),
                       ("c1z", widgets.c1z_from_p9()), ("cnot", widgets.cnot_emulated())):
        got[name] = _records_digest(
            run(circ, StateVector(circ.width, random_state_vector(np.random.default_rng(s),
                                                                  circ.width)),
                seed=s, gate_mode="injected") for s in range(10))
    for target in ("psi", "eta", "plus_omega3"):
        circ = widgets.resource_state_prep(target)
        got[target] = _records_digest(run(circ, seed=s) for s in range(20))
    assert got == golden


def test_measurement_is_the_choice_draw_on_the_masked_state():
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        width = int(rng.integers(1, 7))
        wire = int(rng.integers(width))
        amps = random_state_vector(rng, width)
        trits = (np.arange(3**width) // 3**wire) % 3
        if seed % 4 == 0:  # a branch of probability zero
            amps[trits == rng.integers(3)] = 0
            amps /= np.linalg.norm(amps)
        s = StateVector(width, amps)
        probs = born_probabilities(s, wire)
        masked = [np.abs(amps[trits == v]) ** 2 for v in range(3)]
        assert np.allclose(probs, [m.sum() for m in masked], rtol=0, atol=1e-14)
        m, post = measure_wire(s, wire, np.random.default_rng(seed))
        assert m == np.random.default_rng(seed).choice(3, p=probs)
        want = np.where(trits == m, amps, 0) / np.sqrt(probs[m])
        assert np.abs(post.amps - want).max() < 1e-14


@pytest.mark.parametrize("width", [6, 12])
def test_run_leaves_initial_amplitudes_alone(rng, width):
    init = StateVector(width, random_state_vector(rng, width))
    before = init.amps.copy()
    for op in (g("P9", 2), g("L[PHASE[1,9]]", 0, 1), g("H", 0), g("H", width - 1),
               g("SUM", 3, 1), MeasureOp(4, 0)):
        run(Circuit(width, (op,)), init, seed=1)
        assert np.array_equal(init.amps, before), op


def test_factory_body_plans_are_built_once(monkeypatch):
    built = []
    monkeypatch.setattr(sim, "_build_plan",
                        lambda ins, w, mode: built.append(ins) or _build_plan(ins, w, mode))
    psi = widgets.resource_state_prep("psi")
    body = psi.instructions[0].body.instructions
    records = [run(psi, seed=s) for s in range(2)]
    assert sum(r.rus_trials["psi"][0] for r in records) > 2  # the body ran more than twice
    assert sum(b is body for b in built) == 1
    assert len(built) == 3  # the circuit, the psi body and the eta body inside it


def test_equal_instruction_tuples_run_apart(rng):
    ops = (g("H", 0), g("SUM", 0, 1), MeasureOp(1, 0), g("P9", 0))
    first, second = Circuit(2, ops), Circuit(2, tuple(list(ops)))
    assert first.instructions == second.instructions
    assert first.instructions is not second.instructions
    init = StateVector(2, random_state_vector(rng, 2))
    want, _, _ = _gate_by_gate(first, init.amps, 3)
    for circ in (first, second, first):
        assert np.abs(run(circ, init, seed=3).state.amps - want).max() < 1e-12


def test_plan_cache_stays_bounded(rng):
    # each circuit is a fresh tuple, dropped after its run: a reused id must never
    # bring back another circuit's plan
    for k in range(_PLAN_CAP + 40):
        width = 3 + k % 3
        op = _random_gate_ops(rng, width, 1)[0]
        init = random_state_vector(rng, width)
        got = run(Circuit(width, (op,)), StateVector(width, init)).state.amps
        assert np.abs(got - _moveaxis_apply(init, op.gate.matrix, op.wires, width)).max() < 1e-12
        assert len(_plans) <= _PLAN_CAP


@pytest.mark.parametrize("make", [
    lambda: basis_state(2, -1), lambda: basis_state(2, 9), lambda: product_state([3]),
    lambda: product_state([np.zeros(3)]), lambda: product_state([np.ones(2)]),
    lambda: measure_wire(basis_state(2, 0), 2, np.random.default_rng(0)),
    lambda: born_probabilities(basis_state(2, 0), -1),
])
def test_state_constructors_reject_bad_input(make):
    with pytest.raises(SizeError):
        make()


def test_measure_deterministic():
    m, s = measure_wire(basis_state(1, 1), 0, np.random.default_rng(0))
    assert m == 1
    assert abs(s.amps[1] - 1) < 1e-14


def test_measure_uniform_frequencies():
    rng = np.random.default_rng(7)
    s = apply_gate(basis_state(1, 0), matrix_for_name("H"), (0,))
    counts = np.zeros(3)
    for _ in range(100_000):
        m, _ = measure_wire(s, 0, rng)
        counts[m] += 1
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


def test_measure_after_sum_entangler(rng):
    # measuring the resource wire of SUM(psi (x) input) is uniform
    v = random_state_vector(rng, 1)
    init = product_state([v, resource_state("psi")])
    s = apply_gate(init, matrix_for_name("SUM"), (0, 1))
    probs = born_probabilities(s, 1)
    assert np.allclose(probs, 1 / 3, atol=1e-12)


def test_run_empty_circuit_returns_initial(rng):
    init = StateVector(2, random_state_vector(rng, 2))
    rec = run(Circuit(2, ()), init, seed=3)
    assert np.array_equal(rec.state.amps, init.amps)


def test_run_determinism():
    w = widgets.r2_injection_rus()
    a = run(w, basis_state(2, 0), seed=11)
    b = run(w, basis_state(2, 0), seed=11)
    assert a.slots == b.slots
    assert a.rus_trials == b.rus_trials
    assert np.array_equal(a.state.amps, b.state.amps)


def test_norm_preserved_through_run(rng):
    init = StateVector(2, random_state_vector(rng, 2))
    rec = run(widgets.cnot_emulated(), init, seed=0)
    assert abs(rec.state.norm() - 1.0) < 1e-10


def test_rus_cap_raises():
    # an impossible predicate exhausts the iteration cap
    body = Circuit(1, (g("INC", 0), MeasureOp(0, 0)))
    from terniq.circuit import RusOp
    rus = RusOp(body, predicate=((0, 5),), max_iters=8)
    with pytest.raises(RusCapError):
        run(Circuit(1, (rus,)), seed=0)


def test_width_cap(monkeypatch):
    monkeypatch.setenv("TERNIQ_WIDTH_CAP", "3")
    with pytest.raises(WidthCapError):
        run(Circuit(4, ()), seed=0)


def test_width_cap_not_an_integer(monkeypatch):
    monkeypatch.setenv("TERNIQ_WIDTH_CAP", "abc")
    with pytest.raises(WidthCapError, match="TERNIQ_WIDTH_CAP"):
        run(Circuit(1, ()), seed=0)


def test_final_norm_checked_at_every_width():
    amps = np.zeros(3**11, dtype=np.complex128)
    amps[0] = 2.0
    with pytest.raises(NonUnitaryError):
        run(Circuit(11, (g("H", 0),)), StateVector(11, amps), seed=0)


@pytest.mark.parametrize("module", ["terniq.sim", "terniq.widgets"])
def test_import_order(module):
    # sim imports widgets; either may be the first module a program loads
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_classical_path_matches_dense(rng):
    circ = widgets.toffoli_emulated("none")
    # toffoli contains P9 phases: not classical
    with pytest.raises(NonUnitaryError):
        compile_classical(circ)
    ac = ripple_add_const(ShiftSpec(3, 3, "binary"))
    comp = compile_classical(ac.circuit)
    perm = circuit_permutation(ac.circuit)
    u = circuit_unitary(ac.circuit, cap=8)
    for idx in rng.choice(3**ac.circuit.width, size=24, replace=False):
        out = run_compiled(comp, int(idx))
        assert perm[idx] == out
        assert abs(u[out, idx] - 1.0) < 1e-12


def test_walk_above_int64_index_width(rng):
    # width 42: 3**42 > 2**63, so the walk must not use fixed-width indices
    n = 40
    a = int(rng.integers(0, 2**n))
    ac = ripple_add_const(ShiftSpec(a, n, "binary"))
    assert ac.circuit.width == 42
    values = [int(b) for b in rng.integers(0, 2**n, size=6)] + [2**n - 1]
    for b, got, carry, ot in classical_map(ac, 2, values):
        assert got == (a + b) % 2**n and carry == (a + b) >> n
        assert_clean(ac, ot)
    comp = compile_classical(ac.circuit)
    assert type(run_compiled(comp, 3**41)) is int
    with pytest.raises(SizeError):
        run_compiled(comp, 3**42)


PERMUTATION_GATES = ("INC", "INC_INV", "SUM", "SUM_INV", "TSWAP", "C0[INC]",
                     "C1[INC]", "C2[INC]", "L[INC]", "TAU1[0,1]", "TAU1[1,2]",
                     "TAU2[0,4]", "C1[SUM]", "C2[INC]_INV", "C2[C1[SUM]]")


def test_classical_paths_agree_on_random_circuits():
    rng = np.random.default_rng(5150)
    for _ in range(12):
        width = int(rng.integers(1, 6))
        ops = []
        for _ in range(int(rng.integers(1, 40))):
            name = PERMUTATION_GATES[rng.integers(len(PERMUTATION_GATES))]
            gate = matrix_for_name(name)
            if gate.arity > width:
                continue
            ops.append(GateOp(gate, tuple(int(w) for w in
                                          rng.permutation(width)[:gate.arity])))
        circ = Circuit(width, tuple(ops))
        comp = compile_classical(circ)
        perm = circuit_permutation(circ)
        u = circuit_unitary(circ)
        for idx in range(3**width):
            out = run_compiled(comp, idx)
            assert perm[idx] == out
            assert np.flatnonzero(np.abs(u[:, idx]) > 1e-12).tolist() == [out]
            assert abs(u[out, idx] - 1.0) < 1e-12


def test_injected_equivalence_all_widgets(rng):
    cases = [
        widgets.c1z_from_p9(),
        widgets.c1z_depth_one(),
        widgets.cnot_emulated(),
        widgets.cnot_emulated(depth_two=True),
        widgets.c_binary_inc(0),
        widgets.c_binary_inc(1),
        widgets.c_binary_inc(2),
        widgets.toffoli_emulated("none"),
    ]
    for circ in cases:
        for i in range(50):
            init = StateVector(circ.width, random_state_vector(rng, circ.width))
            ideal = run(circ, init, seed=i).state
            inj = run(circ, init, seed=9999 - i, gate_mode="injected").state
            pool0 = inj.amps.reshape(3, -1)
            assert np.linalg.norm(pool0[1:]) < 1e-10  # pool wire back to |0>
            assert states_equal_up_to_phase(pool0[0], ideal.amps, 1e-9), circ.name


def test_injected_consumption_tally(rng):
    init = StateVector(2, random_state_vector(rng, 2))
    rec = run(widgets.c1z_from_p9(), init, seed=1, gate_mode="injected")
    assert rec.consumed["mu"] == 3
    assert rec.p9_executed == 3


def test_injected_r2_gate():
    circ = Circuit(1, (g("R2", 0),))
    for seed in range(40):
        v = np.array([0.5, 0.5j, np.sqrt(0.5)])
        rec = run(circ, StateVector(1, v), seed=seed, gate_mode="injected")
        out = rec.state.amps.reshape(3, 3)[0]
        want = matrix_for_name("R2").matrix @ v
        assert states_equal_up_to_phase(out, want, 1e-10)
        assert rec.consumed["psi"] == rec.rus_trials["injected-r2"][0]


@pytest.mark.parametrize("name", ["P9", "R2"])
def test_injection_keeps_user_slots(name):
    # the protocol measures into its own slot 0, between the user's measure
    # into slot 0 and the gate conditioned on it
    circ = Circuit(2, (g("INC", 0), MeasureOp(0, 0), g(name, 1),
                       CondGateOp(0, 1, matrix_for_name("INC"), (1,))))
    for seed in range(20):
        rec = run(circ, seed=seed, gate_mode="injected")
        assert rec.slots == {0: 1}
        assert abs(abs(rec.state.amps[index_of_trits([1, 1, 0])]) - 1.0) < 1e-10
