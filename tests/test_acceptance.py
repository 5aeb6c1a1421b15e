"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 4's resource-consumption clause checks the psi factory
against the P9 cost derived from its own circuits (see the README's psi cost
ledger).
"""

import numpy as np
import pytest

from conftest import (acts_as, assert_clean, classical_map, random_state_vector,
                      random_unitary)
from terniq import costmodel, widgets
from terniq.arithmetic import (
    ShiftSpec,
    mod_add_const,
    ripple_add_const,
    ripple_add_const_ternary,
)
from terniq.circuit import Circuit, GateOp, MeasureOp, count_resources
from terniq.gates import allclose_up_to_phase, is_clifford, matrix_for_name
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.qft import dft_matrix, qft3n
from terniq.shor import (
    classical_postprocess,
    full_register_distribution,
    semiclassical_distribution,
    semiclassical_period_rounds,
    shor_factor,
)
from terniq.sim import (
    basis_state,
    circuit_unitary,
    compile_classical,
    index_of_trits,
    product_state,
    resource_state,
    run,
    run_compiled,
    trits_of_index,
)


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- 1

def test_criterion_01_gate_catalog():
    names = ("INC", "Z", "H", "Q", "SUM", "TSWAP", "P9", "R2")
    unitary_ok = all(
        np.allclose(matrix_for_name(n).matrix @ matrix_for_name(n).matrix.conj().T,
                    np.eye(matrix_for_name(n).dim), atol=1e-12)
        for n in names)
    cliff_ok = (all(is_clifford(matrix_for_name(n)) for n in names[:6])
                and not is_clifford(matrix_for_name("P9"))
                and not is_clifford(matrix_for_name("R2")))
    lam_ok = np.array_equal(
        matrix_for_name("L[INC]").matrix, matrix_for_name("SUM").matrix)
    report(1, unitary_ok and cliff_ok and lam_ok,
           f"unitarity {unitary_ok}, clifford split {cliff_ok}, L(INC)=SUM {lam_ok}")


# ---------------------------------------------------------------- 2

def test_criterion_02_p9_injection(rng):
    w = widgets.p9_injection_widget()
    p9 = matrix_for_name("P9").matrix
    worst = 0.0
    outcomes = set()
    for i in range(100):
        v = random_state_vector(rng, 1)
        rec = run(w, product_state([v, resource_state("mu")]), seed=i)
        outcomes.add(rec.slots[0])
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        out /= np.linalg.norm(out)
        want = p9 @ v
        idx = int(np.argmax(np.abs(want)))
        worst = max(worst, float(np.linalg.norm(out - (out[idx] / want[idx]) * want)))
    report(2, worst < 1e-10 and outcomes == {0, 1, 2},
           f"max distance {worst:.2e} over 100 states, outcomes seen {sorted(outcomes)}")


# ---------------------------------------------------------------- 3

def test_criterion_03_r2_rus(rng):
    w = widgets.r2_injection_rus()
    r2 = matrix_for_name("R2").matrix
    worst = 0.0
    for i in range(100):
        v = random_state_vector(rng, 1)
        rec = run(w, product_state([v, 0]), seed=i)
        out = rec.state.amps.reshape(3, 3)[rec.slots[0]]
        out /= np.linalg.norm(out)
        want = r2 @ v
        idx = int(np.argmax(np.abs(want)))
        ph = out[idx] / want[idx]
        sign_ok = min(abs(ph - 1), abs(ph + 1)) < 1e-10
        worst = max(worst, float(np.linalg.norm(out - ph * want)), 0.0 if sign_ok else 1.0)
    trials, psi = [], []
    for seed in range(10_000):
        rec = run(w, basis_state(2, 0), seed=seed)
        trials.append(rec.rus_trials["r2-rus"][0])
        psi.append(rec.consumed["psi"])
    mt, mp = float(np.mean(trials)), float(np.mean(psi))
    report(3, worst < 1e-10 and abs(mt - 3.0) < 0.1 and abs(mp - 3.0) < 0.1,
           f"exact +-R2 (worst {worst:.1e}), mean trials {mt:.3f}, mean psi {mp:.3f}")


# ---------------------------------------------------------------- 4

def _psi_p9_ledger():
    """Exact inputs of the psi factory's P9 cost, read off its circuits.

    Returns the P9 count of one eta trial, the trial's acceptance probability
    and the probability that the final measurement on eta emits psi.
    """
    psi_rus = widgets.resource_state_prep("psi").instructions[0]
    eta_rus = psi_rus.body.instructions[0]
    trial = eta_rus.body
    p9_trial = count_resources(trial).p9_count
    # from |0000> the trial's measured resets do nothing: its gates alone
    # give the amplitudes before the syndrome measurements
    amps = circuit_unitary(Circuit(trial.width, tuple(
        op for op in trial.instructions if isinstance(op, GateOp))))[:, 0]
    index = np.arange(3**trial.width)

    def trit(slot, body):
        wire = [op.wire for op in body.instructions
                if isinstance(op, MeasureOp) and op.slot == slot][-1]
        return (index // 3**wire) % 3

    accepted = np.all([trit(s, trial) == v for s, v in eta_rus.predicate], axis=0)
    acceptance = float(np.sum(np.abs(amps[accepted]) ** 2))
    eta = np.where(accepted, amps, 0) / np.sqrt(acceptance)
    out = circuit_unitary(Circuit(trial.width, tuple(
        op for op in psi_rus.body.instructions if isinstance(op, GateOp)))) @ eta
    chain = psi_rus.chain
    emitting = [m for m in range(3) if chain.transitions[(chain.start, m)] in chain.accept]
    emit = float(np.sum(np.abs(out[np.isin(trit(psi_rus.outcome_slot, psi_rus.body),
                                           emitting)]) ** 2))
    return p9_trial, acceptance, emit


def test_criterion_04_resource_state_factories():
    w = widgets.resource_state_prep("plus_omega3_sq")
    trials = [run(w, basis_state(2, 0), seed=s).rus_trials["plus_omega3_sq"][0]
              for s in range(10_000)]
    plus_mean = float(np.mean(trials))
    w = widgets.resource_state_prep("eta")
    eta_mean = float(np.mean([run(w, basis_state(4, 0), seed=s).rus_trials["eta"][0]
                              for s in range(10_000)]))
    w = widgets.resource_state_prep("psi")
    psi_exact = True
    p9 = []
    for s in range(10_000):
        rec = run(w, basis_state(4, 0), seed=s)
        p9.append(rec.p9_executed)
        if s < 500:
            out = rec.state.amps.reshape(3, 3, 3, 3)[0, :, 0, rec.slots[2]]
            if not allclose_up_to_phase(out / np.linalg.norm(out),
                                        resource_state("psi"), 1e-10):
                psi_exact = False
    p9_mean = float(np.mean(p9))
    # Each eta trial ends the psi loop with probability p = acceptance * emit,
    # so the eta trials per psi are geometric: mean 1/p, sd sqrt(1 - p)/p.
    p9_trial, acceptance, emit = _psi_p9_ledger()
    p = acceptance * emit
    expected = p9_trial / p
    tol = 4 * p9_trial * np.sqrt(1 - p) / p / np.sqrt(len(p9))
    ledger_ok = (p9_trial == 6 and abs(acceptance - 4 / 9) < 1e-12
                 and abs(emit - 1 / 2) < 1e-12)
    ok = (abs(plus_mean - 1.5) < 0.05 and abs(eta_mean - 2.25) < 0.1
          and psi_exact and ledger_ok and abs(p9_mean - expected) < tol)
    report(4, ok,
           f"plus trials {plus_mean:.3f} (1.5+-0.05), eta {eta_mean:.3f} (2.25+-0.1), "
           f"psi exact {psi_exact}, mean P9 {p9_mean:.2f} (derived {expected:.2f}+-{tol:.2f}: "
           f"{p9_trial} P9 per eta trial / acceptance {acceptance:.4f} / emit {emit:.4f})")


# ---------------------------------------------------------------- 5

def test_criterion_05_widget_count_ledger():
    counts = [(row, count_resources(row.build())) for row in widgets.LEDGER]
    bad = [f"{row.label}={rc.p9_count}(want {row.p9})" for row, rc in counts
           if rc.p9_count != row.p9]
    bad += [f"{row.label} depth={rc.p9_depth}(want {row.depth})" for row, rc in counts
            if row.depth not in (None, rc.p9_depth)]
    report(5, not bad, "all exact: " + ", ".join(
        f"{row.label}={rc.p9_count}" for row, rc in counts) if not bad else "; ".join(bad))


# ---------------------------------------------------------------- 6

def test_criterion_06_functional_exhaustion():
    bad = [row.label for row in widgets.LEDGER
           if not acts_as(row.build(), row.gate, row.data, row.binary)]
    report(6, not bad, f"wrong action: {', '.join(bad)}" if bad else
           f"all {len(widgets.LEDGER)} ledger widgets act as their catalog gates on every "
           "binary or ternary data input, ancillas restored < 1e-10")


# ---------------------------------------------------------------- 7

def test_criterion_07_adders_and_modular():
    # binary ripple exhaustive at n = 4 with all control levels and values
    for a in range(16):
        ac = ripple_add_const(ShiftSpec(a, 4, "binary"))
        for b, got, carry, ot in classical_map(ac, 2, range(16)):
            assert got == (a + b) % 16 and carry == (a + b) >> 4
            assert_clean(ac, ot)
        ac = ripple_add_const(ShiftSpec(a, 4, "binary", control="single"))
        for cv in ((0,), (1,)):
            for b, got, carry, ot in classical_map(ac, 2, range(16), controls=cv):
                assert got == (b + cv[0] * a) % 16
                assert_clean(ac, ot, cv)
        ac = ripple_add_const(ShiftSpec(a, 4, "binary", control="double"))
        for cv in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for b, got, carry, ot in classical_map(ac, 2, range(16), controls=cv):
                assert got == (b + cv[0] * cv[1] * a) % 16
                assert_clean(ac, ot, cv)
    # ternary ripple exhaustive at m = 3
    for a in range(27):
        ac = ripple_add_const_ternary(ShiftSpec(a, 3, "ternary"))
        for b, got, carry, ot in classical_map(ac, 3, range(27)):
            assert got == (a + b) % 27 and carry == (a + b) // 27
            assert_clean(ac, ot)
    # per-digit carry truth tables
    from terniq.arithmetic import ternary_carry_ops
    from terniq.circuit import Circuit
    rows1 = {(0, 0): 0, (0, 1): 0, (0, 2): 1, (1, 0): 0, (1, 1): 1, (1, 2): 1}
    rows0 = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 0, (1, 2): 1}
    u1 = circuit_unitary(Circuit(2, tuple(ternary_carry_ops(1, 0, 1, None))))
    table1 = all(
        trits_of_index(int(np.nonzero(np.abs(u1[:, index_of_trits([c, b])]) > 1e-9)[0][0]), 2)[1] == w
        for (c, b), w in rows1.items())
    u0 = circuit_unitary(Circuit(3, tuple(ternary_carry_ops(0, 0, 1, 2))))
    table0 = all(
        trits_of_index(int(np.nonzero(np.abs(u0[:, index_of_trits([c, b, 0])]) > 1e-9)[0][0]), 3)[2] == w
        for (c, b), w in rows0.items())
    # modular shifts exhaustive at N = 13 and N = 15, both encodings,
    # including the compile-time branch on 2a < N vs 2a > N
    branch_seen = set()
    for N in (13, 15):
        nd = 5                      # 2^5 >= 2N for both moduli
        md = 4 if N == 15 else 3    # 3^md >= 2N
        for a in range(N):
            ac = mod_add_const(ShiftSpec(a, nd, "binary", modulus=N))
            for b, got, _, ot in classical_map(ac, 2, range(N)):
                assert got == (a + b) % N
                assert_clean(ac, ot)
            ac = mod_add_const(ShiftSpec(a, md, "ternary", modulus=N,
                                         control="single", control_mode="ternary"))
            if a:
                branch_seen.add(2 * a < N)
            for cv in ((0,), (1,), (2,)):
                for b, got, _, ot in classical_map(ac, 3, range(N), controls=cv):
                    assert got == (b + cv[0] * a) % N
                    assert_clean(ac, ot, cv)
    report(7, table1 and table0 and branch_seen == {True, False},
           "binary n=4 (all a, b, controls), ternary m=3, carry truth tables, "
           "modular N=13 and N=15 with both compile branches: exhaustive, exact")


# ---------------------------------------------------------------- 8

def test_criterion_08_count_scaling():
    details = []
    ok = True
    for n in (12, 16):
        for control, coef in (("none", 12), ("single", 18), ("double", 24)):
            rc = count_resources(ripple_add_const(
                ShiftSpec(1, n, "binary", control=control)).circuit)
            per = rc.p9_count / n
            details.append(f"b/{control}@{n}:{per:.2f}")
            ok &= abs(per - coef) <= 1.0
    for m in (12, 16):
        for control, coef in (("none", 30), ("single", 34), ("double", 53)):
            rc = count_resources(ripple_add_const_ternary(
                ShiftSpec(1, m, "ternary", control=control)).circuit)
            per = rc.p9_count / m
            details.append(f"t/{control}@{m}:{per:.2f}")
            ok &= abs(per - coef) <= 1.0
    # model vs measured at leading order: difference stays bounded while the
    # leading term grows, i.e. the per-digit delta vanishes
    deltas = []
    for n in (12, 16):
        model = costmodel.RIPPLE_PER_BIT["binary"][2] * n
        built = count_resources(ripple_add_const(
            ShiftSpec(1, n, "binary", control="double")).circuit).p9_count
        deltas.append(abs(built - model))
    ok &= deltas[0] == deltas[1]  # constant offset: zero at leading order
    report(8, ok, " ".join(details) + f"; model-vs-built offset {deltas[0]} (constant)")


# ---------------------------------------------------------------- 9

def test_criterion_09_qft():
    worst = 0.0
    for n in (1, 2, 3, 4):
        u = circuit_unitary(qft3n(n))
        worst = max(worst, float(np.max(np.abs(u - dft_matrix(n)))))
    ok = worst < 1e-10
    approx_detail = []
    for delta in (1e-2, 1e-3):
        err = float(np.linalg.norm(
            circuit_unitary(qft3n(4)) - circuit_unitary(qft3n(4, delta=delta)), 2))
        approx_detail.append(f"delta={delta:g}: err {err:.2e}")
        ok &= err <= delta
    report(9, ok, f"exact n<=4 (worst {worst:.2e}); approx " + ", ".join(approx_detail))


# ---------------------------------------------------------------- 10

def test_criterion_10_modexp():
    def check(N, a, enc, ks):
        spec = ModExpSpec(a, N, enc)
        layout = modexp_circuit(spec)
        comp = compile_classical(layout.circuit)
        base = spec.radix
        for k in ks:
            trits = [0] * layout.circuit.width
            for j, w in enumerate(layout.exponent):
                trits[w] = (k // base**j) % base
            out = trits_of_index(run_compiled(comp, index_of_trits(trits)),
                                 layout.circuit.width)
            got = sum(out[w] * base**j for j, w in enumerate(layout.accumulator))
            if got != pow(a, k, N):
                return False
            if any(out[w] != 0 for w in layout.scratch):
                return False
        return True

    ok15 = all(check(15, a, "binary", range(16)) for a in (2, 4, 7, 8, 11, 13))
    ok21 = check(21, 2, "binary", range(16))
    report(10, ok15 and ok21,
           f"N=15 six bases exhaustive k<16: {ok15}; N=21 a=2 k<16: {ok21} "
           f"(classical permutation path, no width cap)")


# ---------------------------------------------------------------- 11

def test_criterion_11_end_to_end_shor():
    wins = 0
    for t in range(200):
        rep = shor_factor(15, seed=1000 + t, max_trials=1)
        if rep.factors and sorted(rep.factors) == [3, 5]:
            wins += 1
    frac = wins / 200
    spec = ModExpSpec(7, 15, "binary")
    tv = 0.5 * float(np.abs(full_register_distribution(spec)
                            - semiclassical_distribution(spec)).sum())
    rng = np.random.default_rng(5)
    counts = np.zeros(256)
    for _ in range(10_000):
        counts[semiclassical_period_rounds(spec, rng)] += 1
    tv_sampled = 0.5 * float(np.abs(counts / counts.sum()
                                    - full_register_distribution(spec)).sum())
    rep21 = shor_factor(21, seed=3)
    ok = frac >= 0.60 and tv < 0.05 and tv_sampled < 0.05 and rep21.factors is not None
    report(11, ok,
           f"N=15 single-attempt success {frac:.2f} (>=0.60; one random base + one "
           f"period-finding run per trial), protocol-vs-analytic TV {tv:.1e}, "
           f"10^4-sample TV {tv_sampled:.3f}, N=21 seed=3 factors {rep21.factors}")


# ---------------------------------------------------------------- 12

def test_criterion_12_tables():
    import math
    n = 10
    S = costmodel.Scenario
    rows = [
        (costmodel.modexp_cost(S(n, "binary", "ripple", "MTQC-P9-preparation")).depth, 48000.0),
        (costmodel.modexp_cost(S(n, "binary", "lookahead", "MTQC-P9-preparation")).depth,
         120 * n**2 * math.log2(n)),
        (costmodel.modexp_cost(S(n, "binary", "ripple", "binary-CliffordT-reference")).depth,
         160 * n**3),
        (costmodel.modexp_cost(S(n, "binary", "lookahead", "binary-CliffordT-reference")).depth,
         72 * n**2 * math.log2(n)),
        (costmodel.modexp_cost(S(n, "binary", "ripple", "MTQC-inline")).depth,
         432 * n**3 * math.log(n, 3)),
        (costmodel.modexp_cost(S(n, "binary", "ripple", "MTQC-P9-preparation")).prep_width,
         54 * math.log(n, 3)),
        (costmodel.modexp_cost(S(n, "binary", "ripple", "generic-P9-distillation")).prep_width,
         3 * (3 * math.log2(n)) ** 3),
        (costmodel.modexp_cost(S(n, "binary", "lookahead", "binary-CliffordT-reference")).prep_width,
         3 * n * (6 * math.log2(n)) ** math.log(15, 3)),
    ]
    table_text = costmodel.cost_table("lookahead", n, "csv")
    ok = all(abs(got - want) < 1e-6 * max(1, abs(want)) for got, want in rows)
    ok &= "144" in table_text
    report(12, ok, f"all {len(rows)} formula spot-checks exact at n=10; "
                   f"table emission includes the 144 n^2 log2 n reference row")


# ---------------------------------------------------------------- 13

def test_criterion_13_fidelity_budget(rng):
    def unitary_within(u, delta):
        dim = u.shape[0]
        phi = rng.uniform(-1, 1, size=dim)
        phi *= 2 * np.arcsin(delta / 2) / max(np.abs(phi).max(), 1e-12)
        return u @ np.diag(np.exp(1j * phi))

    prod_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 9))
        dim = 3 ** int(rng.integers(1, 3))
        delta = 10.0 ** rng.uniform(-3, -1)
        U = np.eye(dim, dtype=complex)
        V = np.eye(dim, dtype=complex)
        for _ in range(d):
            u = random_unitary(rng, dim)
            v = unitary_within(u, delta)
            U, V = u @ U, v @ V
        prod_ok &= np.linalg.norm(U - V, 2) <= d * delta + 1e-10

    bound_ok = True
    for _ in range(10_000):
        dim = 9
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        u /= np.linalg.norm(u)
        eps = 10.0 ** rng.uniform(-3, -0.7)
        e = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        e *= eps * rng.uniform(0, 1) / np.linalg.norm(e)
        v = (u + e) / np.linalg.norm(u + e)
        eps_true = np.linalg.norm(u - v)
        if eps_true > eps:
            continue
        k = int(rng.integers(1, dim))
        basis = np.linalg.qr(rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))[0][:, :k]
        p = float(np.linalg.norm(basis.conj().T @ u) ** 2)
        pv = float(np.linalg.norm(basis.conj().T @ v) ** 2)
        bound_ok &= pv >= p - 2 * np.sqrt(p) * eps - 1e-10

    b = costmodel.fidelity_budget(0.36, np.sqrt(0.36) / 4, 4)
    half_ok = abs(b.useful_lower_bound - 0.18) < 1e-12
    report(13, prod_ok and bound_ok and half_ok,
           f"product bound (100 runs) {prod_ok}, projection bound (10^4 runs) "
           f"{bound_ok}, eps=sqrt(p)/4 gives p/2 {half_ok}")
