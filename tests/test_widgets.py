from itertools import product

import numpy as np
import pytest

from conftest import acts_as, random_state_vector
from terniq.circuit import Circuit, CondGateOp, GateOp, MeasureOp, count_resources
from terniq.errors import SizeError
from terniq.gates import allclose_up_to_phase, matrix_for_name
from terniq.sim import basis_state, circuit_unitary, product_state, resource_state, run
from terniq import widgets

W3 = np.exp(2j * np.pi / 3)


# ------------------------------------------------------------ resource states

def test_resource_state_definitions():
    w9 = np.exp(2j * np.pi / 9)
    assert np.allclose(resource_state("mu") * np.sqrt(3), [1 / w9, 1, w9])
    assert np.allclose(resource_state("psi") * np.sqrt(3), [1, -1, 1])
    eta = resource_state("eta")
    assert abs(np.linalg.norm(eta) - 1) < 1e-12
    assert np.allclose(eta * 2, np.kron([1, W3, 0], [1, W3**2, 0]), atol=1e-12)


# ------------------------------------------------------------ P9 injection

def test_p9_injection_fixes_middle_level():
    w = widgets.p9_injection_widget()
    for seed in range(12):
        rec = run(w, product_state([1, resource_state("mu")]), seed=seed)
        m = rec.slots[0]
        out = rec.state.amps.reshape(3, 3)[m]
        assert allclose_up_to_phase(out, np.array([0, 1.0, 0]), 1e-12)


def test_p9_injection_on_plus_02(rng):
    v = np.array([1, 0, 1.0]) / np.sqrt(2)
    want = matrix_for_name("P9").matrix @ v
    w = widgets.p9_injection_widget()
    for seed in range(12):
        rec = run(w, product_state([v, resource_state("mu")]), seed=seed)
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        assert allclose_up_to_phase(out, want, 1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_p9_injection_random_states(rng, inverse):
    w = widgets.p9_injection_widget(inverse)
    mat = matrix_for_name("P9_INV" if inverse else "P9").matrix
    res = resource_state("mu_dag" if inverse else "mu")
    outcomes = set()
    for i in range(100):
        v = random_state_vector(rng, 1)
        rec = run(w, product_state([v, res]), seed=i)
        outcomes.add(rec.slots[0])
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        out /= np.linalg.norm(out)
        want = mat @ v
        idx = int(np.argmax(np.abs(want)))
        assert np.linalg.norm(out - (out[idx] / want[idx]) * want) < 1e-10
    assert outcomes == {0, 1, 2}  # deterministic output for every branch


# ------------------------------------------------------------ R2 injection

def test_r2_first_trial_m0_flips_third():
    w = widgets.r2_injection_rus()
    v = np.array([0.6, 0.48, 0.64])
    for seed in range(60):
        rec = run(w, product_state([v, 0]), seed=seed)
        if rec.rus_trials["r2-rus"][0] == 1 and rec.slots[0] == 0:
            out = rec.state.amps.reshape(3, 3)[0]
            assert np.allclose(out, [0.6, 0.48, -0.64], atol=1e-12)
            return
    raise AssertionError("no first-trial m=0 run found")


def test_r2_fixes_zero_state():
    w = widgets.r2_injection_rus()
    for seed in range(10):
        rec = run(w, product_state([0, 0]), seed=seed)
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        assert allclose_up_to_phase(out, np.array([1.0, 0, 0]), 1e-12)


def test_r2_exact_on_random_states(rng):
    w = widgets.r2_injection_rus()
    r2 = matrix_for_name("R2").matrix
    for i in range(100):
        v = random_state_vector(rng, 1)
        rec = run(w, product_state([v, 0]), seed=i)
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        out /= np.linalg.norm(out)
        want = r2 @ v
        idx = int(np.argmax(np.abs(want)))
        ph = out[idx] / want[idx]
        assert abs(abs(ph) - 1) < 1e-10
        assert np.linalg.norm(out - ph * want) < 1e-10
        # output is exactly +-R2 |v>: the aligned phase must be a sign
        assert min(abs(ph - 1), abs(ph + 1)) < 1e-10


def test_r2_markov_sign_patterns(rng):
    # after any number of trials the state is the input with one component's
    # sign flipped (up to a global sign), i.e. one of the chain's four nodes
    from terniq.circuit import Circuit, CondGateOp, GateOp, MeasureOp
    v = random_state_vector(rng, 1)
    patterns = [np.array(p) for p in
                ([1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1])]
    body = widgets.r2_injection_rus().instructions[0].body
    for seed in range(40):
        rec = run(Circuit(2, body.instructions), product_state([v, 0]), seed=seed)
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        out /= np.linalg.norm(out)
        assert any(allclose_up_to_phase(out, p * v, 1e-10) for p in patterns)


def test_r2_trial_statistics():
    # module-level smoke statistic; the acceptance suite runs the full 10^4
    w = widgets.r2_injection_rus()
    trials = []
    psi = []
    for seed in range(3000):
        rec = run(w, basis_state(2, 0), seed=seed)
        trials.append(rec.rus_trials["r2-rus"][0])
        psi.append(rec.consumed["psi"])
    assert abs(np.mean(trials) - 3.0) < 0.15
    assert abs(np.mean(psi) - 3.0) < 0.15


# ------------------------------------------------------------ the widget ledger

@pytest.mark.parametrize("row", widgets.LEDGER, ids=lambda row: row.label)
def test_ledger_row(row):
    circ = row.build()
    assert acts_as(circ, row.gate, row.data, row.binary)
    rc = count_resources(circ)
    assert rc.p9_count == row.p9 and row.depth in (None, rc.p9_depth)


def test_c_binary_inc_names_its_level_as_an_int():
    assert widgets.c_binary_inc(True).name == "c1inc"
    with pytest.raises(SizeError):
        widgets.c_binary_inc(1.0)


def test_add_binary_control_generic():
    tof = widgets.add_binary_control(widgets.cnot_emulated(), control=0)
    # wires: 0 = old control, 1 = target, 2 = new control, 3 = marker
    assert acts_as(tof, "C1[C1[TAU1[0,1]]]", (2, 0, 1), binary=True)
    assert count_resources(tof).p9_count == 12
    ccc = widgets.add_binary_control(widgets.toffoli_emulated("none"), control=0)
    assert acts_as(ccc, "C1[C1[C1[TAU1[0,1]]]]", (3, 0, 1, 2), binary=True)
    assert count_resources(ccc).p9_count == 21
    ccc2 = widgets.add_binary_control(tof, control=2)
    assert acts_as(ccc2, "C1[C1[C1[TAU1[0,1]]]]", (4, 2, 0, 1), binary=True)
    assert count_resources(ccc2).p9_count == 18


# ------------------------------------------------------------ tau2 network

@pytest.mark.parametrize("pair", [((0, 2), (2, 0)), ((2, 0), (2, 1)), ((0, 1), (2, 0)),
                                  ((1, 0), (1, 1)), ((1, 2), (0, 0))])
def test_tau2_network_matches_reflection(pair):
    from terniq.circuit import Circuit
    p1, p2 = pair
    ops = widgets.tau2_ops(0, 1, p1, p2)
    u = circuit_unitary(Circuit(2, tuple(ops)))
    want = np.eye(9, dtype=complex)
    i = p1[0] + 3 * p1[1]   # wire 0 is the least significant register trit
    j = p2[0] + 3 * p2[1]
    want[i, i] = want[j, j] = 0
    want[i, j] = want[j, i] = 1
    assert np.allclose(u, want, atol=1e-11)


# ------------------------------------------------------------ state factories

def test_plus_state_factories():
    for name in ("plus_omega3", "plus_omega3_sq"):
        w = widgets.resource_state_prep(name)
        trials = []
        for seed in range(600):
            rec = run(w, basis_state(2, 0), seed=seed)
            trials.append(rec.rus_trials[name][0])
            out = rec.state.amps.reshape(3, 3)[0]
            assert allclose_up_to_phase(out / np.linalg.norm(out),
                                        resource_state(name), 1e-10)
        assert abs(np.mean(trials) - 1.5) < 0.1


def test_eta_factory():
    w = widgets.resource_state_prep("eta")
    want = np.kron(resource_state("plus_omega3_sq"), resource_state("plus_omega3"))
    for seed in range(300):
        rec = run(w, basis_state(4, 0), seed=seed)
        amps = rec.state.amps.reshape(3, 3, 3, 3)
        out = amps[0, :, 0, :].reshape(-1)
        assert allclose_up_to_phase(out / np.linalg.norm(out), want, 1e-10)


def test_psi_factory_exact_every_branch():
    w = widgets.resource_state_prep("psi")
    seen = set()
    for seed in range(400):
        rec = run(w, basis_state(4, 0), seed=seed)
        m = rec.slots[2]
        seen.add(m)
        amps = rec.state.amps.reshape(3, 3, 3, 3)
        out = amps[0, :, 0, m].reshape(-1)
        assert allclose_up_to_phase(out / np.linalg.norm(out),
                                    resource_state("psi"), 1e-10)
    assert seen == {0, 1}  # outcome 2 restarts; 0 and 1 deliver


def _pauli(a, b):
    return (np.linalg.matrix_power(matrix_for_name("INC").matrix, a)
            @ np.linalg.matrix_power(matrix_for_name("Z").matrix, b))


ONE_QUTRIT_PAULIS = [_pauli(a, b) for a, b in product(range(3), repeat=2)]
TWO_QUTRIT_PAULIS = {key: np.kron(_pauli(*key[:2]), _pauli(*key[2:]))
                     for key in product(range(3), repeat=4)}


def _stabilizer_profile(frame, paulis, phi):
    """Sorted squared overlaps of ``phi`` with the 12 stabilizer states of the
    qutrit spanned by ``frame``'s columns (``phi`` in frame coordinates).

    The stabilizer states are the eigenvectors of the ``paulis`` that act on
    the span as non-scalars.  Cliffords permute them, so a state
    Clifford-equivalent to psi has psi's profile.
    """
    states = []
    for q in paulis:
        logical = frame.conj().T @ q @ frame
        if np.allclose(logical, logical[0, 0] * np.eye(3), atol=1e-9):
            continue
        for s in np.linalg.eig(logical)[1].T:
            if all(abs(abs(np.vdot(t, s)) - 1) > 1e-9 for t in states):
                states.append(s)
    assert len(states) == 12
    return np.sort([abs(np.vdot(s, phi)) ** 2 for s in states])


PSI_PROFILE = _stabilizer_profile(np.eye(3), ONE_QUTRIT_PAULIS, resource_state("psi"))


def _psi_yield(p, state):
    """Probability that measuring the two-qutrit Pauli ``p`` on ``state``
    leaves a psi-equivalent qutrit.

    Each outcome projects onto a three-dimensional eigenspace of ``p``, one
    logical qutrit, on which the Paulis commuting with ``p`` act.
    """
    commuting = [q for q in TWO_QUTRIT_PAULIS.values() if np.allclose(p @ q, q @ p)]
    total = 0.0
    for k in range(3):
        proj = sum(W3 ** (-j * k) * np.linalg.matrix_power(p, j) for j in range(3)) / 3
        vals, vecs = np.linalg.eigh(proj)
        frame = vecs[:, vals > 0.5]
        amp = frame.conj().T @ state
        prob = float(np.vdot(amp, amp).real)
        if prob > 1e-12 and np.allclose(
                _stabilizer_profile(frame, commuting, amp / np.sqrt(prob)),
                PSI_PROFILE, atol=1e-9):
            total += prob
    return total


def test_eta_measurement_yields_psi_at_most_half():
    """No Pauli measurement on eta emits psi more often than the factory's.

    This bounds the psi factory's final step: its outcome-2 restart cannot be
    avoided, so each psi costs two eta preparations on average.
    """
    eta = resource_state("eta")
    assert np.allclose(eta, np.kron(resource_state("plus_omega3"),
                                    resource_state("plus_omega3_sq")), atol=1e-12)
    # P and P^2 measure the same thing: keep keys whose first nonzero entry is 1
    measurements = {key: p for key, p in TWO_QUTRIT_PAULIS.items()
                    if any(key) and next(e for e in key if e) == 1}
    assert len(measurements) == 40
    best = max(_psi_yield(p, eta) for p in measurements.values())

    rus, fix = widgets.resource_state_prep("psi").instructions
    final = [op for op in rus.body.instructions[1:] if isinstance(op, GateOp)]
    measured = next(op.wire for op in rus.body.instructions
                    if isinstance(op, MeasureOp) and op.slot == rus.outcome_slot)
    # the factory holds plus_omega3 on wire 0 and plus_omega3_sq on wire 2
    # (test_eta_factory); in resource_state("eta") they are wires 1 and 0
    to_eta = {0: 1, 2: 0}
    u = circuit_unitary(Circuit(2, tuple(
        GateOp(op.gate, tuple(to_eta[w] for w in op.wires)) for op in final)))
    z_measured = circuit_unitary(Circuit(2, (GateOp(matrix_for_name("Z"), (to_eta[measured],)),)))
    factory = u.conj().T @ z_measured @ u
    assert any(np.allclose(factory, p) for p in TWO_QUTRIT_PAULIS.values())
    assert abs(_psi_yield(factory, eta) - 0.5) < 1e-12
    assert abs(best - 0.5) < 1e-12

    # the factory's emitting branches deliver psi exactly after its gate conditioned on
    # the outcome; out[m] holds wire 2 after outcome m
    out = (u @ eta).reshape(3, 3)
    assert isinstance(fix, CondGateOp) and fix.slot == rus.outcome_slot and fix.wires == (2,)
    emitted = 0.0
    for m in range(3):
        state = rus.chain.transitions[(rus.chain.start, m)]
        if state in rus.chain.accept:
            v = (fix.op.gate.matrix if m == fix.value else np.eye(3)) @ out[m]
            emitted += float(np.vdot(v, v).real)
            assert allclose_up_to_phase(v / np.linalg.norm(v),
                                        resource_state("psi"), 1e-10)
    assert abs(emitted - 0.5) < 1e-12


# ------------------------------------------------------------ primitive bridge

def test_tau2_primitive_matches_network():
    g = matrix_for_name("TAU2[1,6]")  # |01> <-> |20> in gate kets
    from terniq.circuit import Circuit
    ops = widgets.tau2_ops(0, 1, (0, 1), (2, 0))
    u = circuit_unitary(Circuit(2, tuple(ops)))
    want = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        for b in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    want[a2 + 3 * b2, a + 3 * b] = g.matrix[3 * a2 + b2, 3 * a + b]
    assert np.allclose(u, want, atol=1e-11)
