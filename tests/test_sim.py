import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (assert_clean, classical_map, moveaxis_apply, random_state_vector,
                      reference_run, tallies)
from terniq.circuit import Circuit, CondGateOp, GateOp, MeasureOp, gate_op, remap_wires
from terniq.errors import NonUnitaryError, RusCapError, SizeError, WidthCapError
from terniq.gates import allclose_up_to_phase, matrix_for_name
from terniq.qft import qft3n
from terniq import sim
from terniq.sim import (
    _PLAN_CAP,
    StateVector,
    _build_plan,
    _perm_run,
    _plans,
    _slice_moves,
    _transpose_step,
    basis_state,
    circuit_unitary,
    compile_classical,
    index_of_trits,
    product_state,
    resource_state,
    run,
    run_compiled,
    trit_table,
    trits_of_index,
)
from terniq import widgets
from terniq.arithmetic import ShiftSpec, ripple_add_const
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.textfmt import deserialize, serialize


def g(name, *wires):
    return GateOp(matrix_for_name(name), tuple(wires))


def test_little_endian_indexing():
    assert index_of_trits([1, 0]) == 1
    assert index_of_trits([0, 1]) == 3
    assert trits_of_index(5, 3) == (2, 1, 0)
    # the place-value formulas, above int64 too
    for index in (0, 123456789, 3**70 - 1):
        trits = trits_of_index(index, 70)
        assert trits == tuple((index // 3**i) % 3 for i in range(70))
        assert index_of_trits(trits) == sum(t * 3**i for i, t in enumerate(trits))


@pytest.mark.parametrize("trits", [None, 5], ids=repr)
def test_index_of_trits_needs_a_sequence(trits):
    # each raised a bare TypeError
    with pytest.raises(SizeError, match="not a sequence"):
        index_of_trits(trits)


def test_trit_conversions_reject_out_of_range_input():
    for index, width in ((27, 3), (-1, 3), (-3**5 - 7, 70), (3**70, 70), (1.0, 3)):
        with pytest.raises(SizeError, match="outside width"):
            trits_of_index(index, width)
    for index, width in ((3, 2.0), (0, -1)):
        with pytest.raises(SizeError, match="width"):
            trits_of_index(index, width)
    for trits in ([5, 0], [0, -1], [3], [1, 1.5]):
        with pytest.raises(SizeError, match="not all 0, 1 or 2"):
            index_of_trits(trits)
    # numpy integers in range convert to Python ints
    assert trits_of_index(np.int64(26), 3) == (2, 2, 2)
    assert all(type(t) is int for t in trits_of_index(np.int64(5), 3))
    assert index_of_trits(np.array([2, 1, 0])) == 5
    assert type(index_of_trits(np.array([2, 1, 0]))) is int


def test_apply_inc_wire0():
    s = run(Circuit(2, (g("INC", 0),))).state
    assert s.amps[1] == 1.0  # basis index 1 = trit 1 on wire 0


def test_apply_sum():
    # SUM control wire 0, target wire 1 on |2,2>: target -> 2+2 = 1
    s = run(Circuit(2, (g("SUM", 0, 1),)), basis_state(2, index_of_trits([2, 2]))).state
    assert abs(s.amps[index_of_trits([2, 1])] - 1.0) < 1e-14


def test_h_then_hdag_roundtrip():
    s = run(Circuit(1, (g("H", 0), g("H_INV", 0)))).state
    assert abs(s.amps[0] - 1.0) < 1e-12


# diagonal (P9, controlled phases, the asymmetric C1[Z] and C2[C1[Z]]), dense
# single-wire (H, H_INV, and INC, which is not symmetric) and 2- and 3-wire
# non-diagonal gates (the permutations SUM, TSWAP, C1[INC], C1[C1[INC]], and L[SUM])
DIAGONAL_GATES = ["P9", "P9_INV", "L[PHASE[1,9]]", "L[PHASE[2,27]]_INV", "L[L[PHASE[1,9]]]",
                  "C1[Z]", "C2[C1[Z]]"]
KERNEL_GATES = DIAGONAL_GATES + ["H", "H_INV", "INC", "SUM", "TSWAP", "C1[INC]", "C1[C1[INC]]",
                                 "L[SUM]"]


def _random_gate_ops(rng, width, count):
    names = [name for name in KERNEL_GATES if matrix_for_name(name).arity <= width]
    ops = []
    for _ in range(count):
        gm = matrix_for_name(names[rng.integers(len(names))])
        wires = tuple(int(w) for w in rng.choice(width, size=gm.arity, replace=False))
        ops.append(GateOp(gm, wires))
    return ops


def _low_wire_permutations(width):
    # slice copies on the lowest wires, where the split view's inner axes are shortest
    triples = [ws for ws in ((0, 1, 2), (width - 1, 0, 2)) if len(set(ws)) == 3 and width > 2]
    return [*(g(name, *wires) for name in ("SUM", "TSWAP", "C1[INC]")
              for wires in ((0, 1), (1, 0), (0, width - 1))),
            *(g("C1[C1[INC]]", *wires) for wires in triples)]


@pytest.mark.parametrize("width", [6, 7, 8, 9])
def test_gate_kernel_matches_moveaxis_formula(rng, width):
    ops = _random_gate_ops(rng, width, 40) + _low_wire_permutations(width)
    ops += [g("C1[Z]", 0, width - 1), g("C1[Z]", width - 1, 0),
            g("L[H]", 0, width - 1), g("C2[C1[H]]", width - 1, 0, 2),  # dense: the moveaxis branch
            *(g(name, w) for name in ("H", "INC") for w in (0, 1, 2, 3, width - 1))]
    for op in ops:
        amps = random_state_vector(rng, width)
        out = np.empty_like(amps)
        got = sim._kernel(op.gate, op.wires, width)(amps, out)
        assert got is out
        want = moveaxis_apply(amps, op.gate.matrix, op.wires, width)
        assert np.abs(got - want).max() < 1e-12, (op.gate.name, op.wires)


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7])
def test_circuit_unitary_matches_single_gate_applies(rng, width):
    circ = Circuit(width, tuple(_random_gate_ops(rng, width, 12) + _low_wire_permutations(width)))
    u = circuit_unitary(circ)
    for idx in rng.choice(3**width, size=6, replace=False):
        col = basis_state(width, int(idx)).amps
        for op in circ.instructions:
            col = moveaxis_apply(col, op.gate.matrix, op.wires, width)
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
                    CondGateOp(0, 1, GateOp(matrix_for_name("P9"), (b,)))][k % 4])
    return Circuit(width, tuple(ops))


@pytest.mark.parametrize("width", [6, 7, 8, 9])
def test_diagonal_runs_match_gate_by_gate(rng, width):
    for seed in range(3):
        circ = _diagonal_run_circuit(rng, width)
        init = random_state_vector(rng, width)
        rec = run(circ, StateVector(width, init), seed=seed)
        ref = reference_run(circ, init, seed)
        assert np.abs(rec.state.amps - ref.amps).max() < 1e-12
        assert tallies(rec) == tallies(ref)


def test_injected_mode_does_not_fuse_p9_runs(rng):
    # two adjacent P9s at injected width 7: each one is a separate injection
    circ = Circuit(6, (g("P9", 0), g("P9", 3)))
    init = StateVector(6, random_state_vector(rng, 6))
    rec = run(circ, init, seed=4, gate_mode="injected")
    assert rec.consumed["mu"] == 2 and rec.p9_executed == 2
    pool0 = rec.state.amps.reshape(3, -1)
    assert allclose_up_to_phase(pool0[0], run(circ, init).state.amps, 1e-9)


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
    want = reference_run(circ, v).amps
    assert np.abs(run(circ, StateVector(n, v)).state.amps - want).max() < 1e-12


def test_qft_run_peak_stays_at_three_states():
    # a run's fused diagonal is built C-contiguous: reshaping it must not copy
    assert _qft_run_peak(10) < 3.5


def test_qft_run_peak_stays_at_three_states_at_width_12():
    assert _qft_run_peak(12) < 3.5


def _qft_run_peak(n):
    """Traced peak of a warm ``run(qft3n(n))`` in states, the caller's state not counted."""
    circ, v = qft3n(n), random_state_vector(np.random.default_rng(5), n)
    run(circ, StateVector(n, v))
    tracemalloc.start()
    try:
        run(circ, StateVector(n, v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / v.nbytes


QFT_DIGESTS = {9: "0dcd6fe9f3a0a285d73bff56f15db267bbe1f2d936c88cc1053a125977437fb5",
               10: "1e25cf36bafb963ff57012b5530de5f3362148a4f693a55f0b87c3792b4e8d4a",
               11: "0d54e09b17410dbe347b7d6b68fa8b185831d914368d8b0d87552ce2f4b21fb6",
               12: "59fd576ffc97857d554e1684e87d75ae3d3789d740eaa4db9883bd804db3ed13"}


@pytest.mark.parametrize("n", sorted(QFT_DIGESTS))
def test_qft_run_amplitudes_are_unchanged(n):
    # recorded while every step still allocated its output: writing into the run's own two
    # states must not move an amplitude bit
    rng = np.random.default_rng(2700 + n)
    v = rng.standard_normal(3**n) + 1j * rng.standard_normal(3**n)
    amps = run(qft3n(n), StateVector(n, v / np.linalg.norm(v))).state.amps
    assert hashlib.sha256(amps.tobytes()).hexdigest() == QFT_DIGESTS[n]


@pytest.mark.parametrize("n", [7, 9, 10])
def test_real_and_integer_initial_states_run_as_complex(n):
    v = np.random.default_rng(n).standard_normal(3**n)
    basis = np.zeros(3**n, np.int64)
    basis[3**n // 2] = 1
    for init in (v / np.linalg.norm(v), basis):
        want = run(qft3n(n), StateVector(n, init.astype(np.complex128))).state.amps
        assert np.array_equal(run(qft3n(n), StateVector(n, init)).state.amps, want)
    # a measurement first: its post-measurement state is complex too
    circ = Circuit(n, (MeasureOp(0, 0), g("H", n - 1)))
    want = run(circ, StateVector(n, basis.astype(np.complex128)), seed=3).state.amps
    assert np.array_equal(run(circ, StateVector(n, basis), seed=3).state.amps, want)


@pytest.mark.parametrize("width,mode", [(w, mode) for mode in ("ideal", "injected")
                                        for w in range(4 + (mode == "injected"), 13)])
def test_run_states_share_no_memory(rng, width, mode):
    # a run writes into two states of its own: never into the caller's array, and never into
    # a state that another run returned
    n = width - (mode == "injected")
    psi = widgets.resource_state_prep("psi")
    circ = Circuit(n, (g("L[PHASE[1,9]]", 0, 1),)  # a diagonal first: it may not run in place
                   + remap_wires(psi, dict(enumerate(range(4))), n).instructions
                   + qft3n(n).instructions + (g("P9", 1), g("R2", n - 1), g("SUM", 0, n - 2)))
    init = random_state_vector(rng, width)
    before = init.copy()
    first = run(circ, StateVector(width, init), seed=7, gate_mode=mode)
    kept = first.state.amps.copy()
    second = run(circ, StateVector(width, init), seed=7, gate_mode=mode)
    assert np.array_equal(init, before)
    assert first.rus_trials["psi"] and first.measurements > 1
    for rec in (first, second):
        assert not np.shares_memory(rec.state.amps, init)
    assert not np.shares_memory(first.state.amps, second.state.amps)
    assert np.array_equal(first.state.amps, kept)
    assert np.array_equal(second.state.amps, kept)


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


@pytest.mark.parametrize("mode", ["ideal", "injected"])
@pytest.mark.parametrize("width", [6, 7, 8])
def test_permutation_runs_match_gate_by_gate(rng, width, mode):
    for seed in range(3):
        circ = _permutation_run_circuit(rng, width)
        init = random_state_vector(rng, width)
        rec = run(circ, StateVector(width, init), seed=seed, gate_mode=mode)
        ref = reference_run(circ, init, seed, mode)
        assert np.abs(rec.state.amps - ref.amps).max() < 1e-12
        assert tallies(rec) == tallies(ref)
        p9 = sum(op.gate.name == "P9" for op in circ.instructions if isinstance(op, GateOp))
        assert rec.p9_executed == p9 > 0
        assert rec.consumed["mu"] == (p9 if mode == "injected" else 0)


def test_wide_permutation_runs_leave_the_gather_cache_alone(rng):
    # a cached index at width 10 or 12 would cost more memory than its gather saves
    before = _perm_run.cache_info()
    circ = Circuit(10, (g("SUM", 0, 1), g("TSWAP", 2, 9), g("C1[INC]", 1, 0), g("INC", 0)))
    init = random_state_vector(rng, 10)
    want = reference_run(circ, init).amps
    assert np.abs(run(circ, StateVector(10, init)).state.amps - want).max() < 1e-12
    run(qft3n(12))
    assert _perm_run.cache_info() == before  # no lookup: a full cache keeps its size


def test_built_steps_look_no_table_up(rng):
    # a gather step holds its index and a permutation kernel its slice moves, so runs of a
    # planned circuit leave both caches alone
    gather = Circuit(7, (g("SUM", 0, 1), g("C1[INC]", 2, 6), g("TSWAP", 3, 5)))
    kernel = Circuit(10, (g("H", 0), g("SUM", 2, 7)))
    for circ, cache in ((gather, _perm_run), (kernel, _slice_moves)):
        init = StateVector(circ.width, random_state_vector(rng, circ.width))
        first = run(circ, init).state.amps
        assert np.abs(first - reference_run(circ, init.amps).amps).max() < 1e-12
        before = cache.cache_info()
        for _ in range(3):
            assert np.array_equal(run(circ, init).state.amps, first)
        assert cache.cache_info() == before


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

    def check(circ, seed):
        init = random_state_vector(rng, circ.width)
        rec = run(circ, StateVector(circ.width, init), seed=seed, gate_mode=mode)
        ref = reference_run(circ, init, seed, mode)
        assert np.abs(rec.state.amps - ref.amps).max() < 1e-12
        assert tallies(rec) == tallies(ref)
    for seed in range(2):
        check(_wire_exchange_run_circuit(rng, width), seed)
    assert len(transposes) == 12  # every run is one transpose
    # above width 8 a lone TSWAP, and one conditioned on a slot (unset slots read 0), is
    # one transpose as well
    check(Circuit(10, (g("TSWAP", 2, 7),)), 0)
    check(Circuit(10, (CondGateOp(0, 0, GateOp(matrix_for_name("TSWAP"), (0, 9))),)), 1)
    assert transposes[12:] == [(("TSWAP", (2, 7)),), (("TSWAP", (0, 9)),)]


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
        probs = np.array([np.sum(np.abs(amps[trits == v]) ** 2) for v in range(3)])
        rec = run(Circuit(width, (MeasureOp(wire, 0),)), StateVector(width, amps), seed=seed)
        m = rec.slots[0]
        assert m == np.random.default_rng(seed).choice(3, p=probs / probs.sum())
        want = np.where(trits == m, amps, 0) / np.sqrt(probs[m])
        assert np.abs(rec.state.amps - want).max() < 1e-14


@pytest.mark.parametrize("width", [4, 5, 6, 12])
def test_run_leaves_initial_amplitudes_alone(rng, width):
    init = StateVector(width, random_state_vector(rng, width))
    before = init.amps.copy()
    for op in (g("P9", 2), g("L[PHASE[1,9]]", 0, 1), g("H", 0), g("H", width - 1),
               g("SUM", 3, 1), MeasureOp(min(4, width - 1), 0)):
        run(Circuit(width, (op,)), init, seed=1)
        assert np.array_equal(init.amps, before), op


def test_runs_in_which_no_step_writes_return_a_copy(rng):
    # no step of an empty circuit or of an untaken conditioned gate writes: the record still
    # holds a state of its own, never the caller's array
    init = StateVector(2, random_state_vector(rng, 2))
    before = init.amps.copy()
    circuits = (Circuit(2, ()), Circuit(2, (CondGateOp(0, 1, g("INC", 0)),)))
    records = [run(circ, init) for circ in circuits for _ in range(2)]
    for k, rec in enumerate(records):
        assert np.array_equal(rec.state.amps, before)
        assert not np.shares_memory(rec.state.amps, init.amps)
        assert not any(np.shares_memory(rec.state.amps, r.state.amps) for r in records[:k])


def test_a_circuit_given_a_list_holds_a_tuple(monkeypatch):
    op = gate_op("SUM", 0, 1)
    listed = Circuit(2, [op])
    assert type(listed.instructions) is tuple and listed.blocks == ((op,),)
    assert hash(listed) == hash(Circuit(2, (op,)))
    assert listed == Circuit(2, (op,)) == deserialize(serialize(listed))
    built = []
    monkeypatch.setattr(sim, "_build_plan",
                        lambda ins, w, mode: built.append(ins) or _build_plan(ins, w, mode))
    for _ in range(2):
        run(listed, basis_state(2, 1))
    assert built == [listed.instructions]


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
    want = reference_run(first, init.amps, 3).amps
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
        assert np.abs(got - moveaxis_apply(init, op.gate.matrix, op.wires, width)).max() < 1e-12
        assert len(_plans) <= _PLAN_CAP


@pytest.mark.parametrize("make", [
    lambda: basis_state(2, -1), lambda: basis_state(2, 9), lambda: product_state([3]),
    lambda: product_state([np.zeros(3)]), lambda: product_state([np.ones(2)]),
    lambda: resource_state("nu"), lambda: StateVector(2, np.zeros(8)),
    lambda: basis_state(2, 1.5), lambda: basis_state(-1, 0),
    lambda: run(Circuit(2, ()), basis_state(3, 0)),
    lambda: basis_state(1.5, 0), lambda: product_state(["a"]),
])
def test_state_constructors_reject_bad_input(make):
    with pytest.raises(SizeError):
        make()


def test_measure_deterministic():
    rec = run(Circuit(1, (MeasureOp(0, 0),)), basis_state(1, 1))
    assert rec.slots[0] == 1
    assert abs(rec.state.amps[1] - 1) < 1e-14


def test_measure_uniform_frequencies():
    rng = np.random.default_rng(7)
    amps = run(Circuit(1, (g("H", 0),))).state.amps
    counts = np.zeros(3)
    out = np.empty_like(amps)
    for _ in range(100_000):
        m, _ = sim._measure(amps, (1, 3, 1), rng, out)
        counts[m] += 1
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


def test_measure_after_sum_entangler(rng):
    # measuring the resource wire of SUM(psi (x) input) is uniform
    v = random_state_vector(rng, 1)
    init = product_state([v, resource_state("psi")])
    s = run(Circuit(2, (g("SUM", 0, 1),)), init).state
    probs = s.probabilities().reshape(3, 3).sum(axis=1)  # wire 1 is the major axis
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


def test_circuit_unitary_leaves_no_operators_held():
    # in a fresh interpreter: every width-5 gate operator of the product is dropped with it
    code = ("import tracemalloc; from terniq import sim, widgets\n"
            "circ = widgets.toffoli_emulated('one_clean')\n"
            "tracemalloc.start(); u = sim.circuit_unitary(circ); del u\n"
            "print(tracemalloc.get_traced_memory()[0])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) < 2**20


def test_classical_path_matches_dense(rng):
    circ = widgets.toffoli_emulated("none")
    # toffoli contains P9 phases: not classical
    with pytest.raises(NonUnitaryError):
        compile_classical(circ)
    ac = ripple_add_const(ShiftSpec(3, 3, "binary"))
    comp = compile_classical(ac.circuit)
    u = circuit_unitary(ac.circuit, cap=8)
    for idx in rng.choice(3**ac.circuit.width, size=24, replace=False):
        out = run_compiled(comp, int(idx))
        assert np.flatnonzero(np.abs(u[:, idx]) > 1e-12).tolist() == [out]
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
        u = circuit_unitary(circ)
        for idx in range(3**width):
            out = run_compiled(comp, idx)
            assert np.flatnonzero(np.abs(u[:, idx]) > 1e-12).tolist() == [out]
            assert abs(u[out, idx] - 1.0) < 1e-12


def _walk_gate_by_gate(circ, index):
    """Reference walk: one gate's trit table at a time, by the place-value formulas."""
    t = [(index // 3**i) % 3 for i in range(circ.width)]
    for op in circ.instructions:
        loc = sum(t[w] * 3**(len(op.wires) - 1 - k) for k, w in enumerate(op.wires))
        for w, v in zip(op.wires, trit_table(op.gate.name)[loc]):
            t[w] = v
    return sum(v * 3**i for i, v in enumerate(t))


def test_fused_walk_matches_gate_by_gate():
    rng = np.random.default_rng(1616)
    arities = set()
    for width in range(1, 9):
        ops = []
        while len(ops) < 40:
            gate = matrix_for_name(PERMUTATION_GATES[rng.integers(len(PERMUTATION_GATES))])
            if gate.arity > width:
                continue
            ops.append(GateOp(gate, tuple(int(w) for w in rng.permutation(width)[:gate.arity])))
            if rng.random() < 0.3:  # a run that cancels, unless the run was cut before it
                ops.append(GateOp(gate.adjoint(), ops[-1].wires))
        circ = Circuit(width, tuple(ops))
        comp = compile_classical(circ)
        assert all(a == len(wires) <= 5 for a, wires, _ in comp.ops)
        arities.update(a for a, _, _ in comp.ops)
        for idx in range(3**width):
            assert run_compiled(comp, idx) == _walk_gate_by_gate(circ, idx)
    assert 5 in arities
    cancel = (g("C2[INC]", 0, 2), g("C2[INC]_INV", 0, 2), g("TSWAP", 1, 2), g("TSWAP", 2, 1))
    assert len(compile_classical(Circuit(3, cancel))) == 0


def test_fused_run_with_a_non_permutation_gate_raises():
    ops = (g("SUM", 0, 1), g("INC", 1), g("C1[INC]", 1, 2))
    compile_classical(Circuit(3, ops))  # the run's table is now cached
    for bad in ("H", "P9"):
        with pytest.raises(NonUnitaryError, match=f"{bad} is not a classical permutation"):
            compile_classical(Circuit(3, ops[:2] + (g(bad, 1),) + ops[2:]))


def test_fused_modexp_walks_a_quarter_of_its_gates():
    for N, enc, fold in ((21, "binary", 16), (15, "ternary", 6)):
        circ = modexp_circuit(ModExpSpec(2, N, enc)).circuit
        assert fold * len(compile_classical(circ)) <= len(circ), (N, enc)


def test_fused_table_entries_are_shared_tuples():
    circ = modexp_circuit(ModExpSpec(2, 15, "ternary")).circuit
    shared = {k: {id(t) for t in sim._trit_tuples(k)} for k in range(1, 6)}
    for a, _, table in compile_classical(circ).ops:
        assert len(table) == 3**a and all(id(entry) in shared[a] for entry in table)


def test_run_compiled_rejects_a_non_integer_index():
    comp = compile_classical(ripple_add_const(ShiftSpec(3, 4, "binary")).circuit)
    for bad in (1.5, "3"):
        with pytest.raises(SizeError, match="not an integer"):
            run_compiled(comp, bad)
    assert run_compiled(comp, np.int64(1)) == run_compiled(comp, 1)


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
            assert allclose_up_to_phase(pool0[0], ideal.amps, 1e-9), circ.name


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
        assert allclose_up_to_phase(out, want, 1e-10)
        assert rec.consumed["psi"] == rec.rus_trials["injected-r2"][0]


@pytest.mark.parametrize("name", ["P9", "R2"])
def test_injection_keeps_user_slots(name):
    # the protocol measures into its own slot 0, between the user's measure
    # into slot 0 and the gate conditioned on it
    circ = Circuit(2, (g("INC", 0), MeasureOp(0, 0), g(name, 1),
                       CondGateOp(0, 1, GateOp(matrix_for_name("INC"), (1,)))))
    for seed in range(20):
        rec = run(circ, seed=seed, gate_mode="injected")
        assert rec.slots == {0: 1}
        assert abs(abs(rec.state.amps[index_of_trits([1, 1, 0])]) - 1.0) < 1e-10
