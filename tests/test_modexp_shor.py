import hashlib
from dataclasses import astuple
from math import gcd

import numpy as np
import pytest

from terniq import modexp, shor
from terniq.costmodel import modeled_shift_count
from terniq.circuit import Circuit, GateOp, count_resources, gate_op
from terniq.errors import RoundMapError, SizeError
from terniq.gates import matrix_for_name
from terniq.modexp import (
    ModExpSpec,
    _ctrl_mult_ops,
    _registers,
    controlled_multiply,
    modexp_circuit,
    round_map,
)
from terniq.qft import qft3n
from terniq.shor import (
    FactorReport,
    PeriodCandidate,
    classical_postprocess,
    full_register_distribution,
    period_finding_run,
    semiclassical_distribution,
    semiclassical_gate_run,
    semiclassical_period_rounds,
    shor_factor,
)
from terniq.sim import (CompiledCircuit, compile_classical, index_of_trits, run, run_compiled,
                        trits_of_index)
from terniq.textfmt import serialize


def run_modexp(layout, comp, spec, k):
    base = spec.radix
    trits = [0] * layout.circuit.width
    for j, w in enumerate(layout.exponent):
        trits[w] = (k // base**j) % base
    out = trits_of_index(run_compiled(comp, index_of_trits(trits)), layout.circuit.width)
    value = sum(out[w] * base**j for j, w in enumerate(layout.accumulator))
    kept = sum(out[w] * base**j for j, w in enumerate(layout.exponent))
    scratch_clean = all(out[w] == 0 for w in layout.scratch)
    return value, kept, scratch_clean


@pytest.mark.parametrize("a", [2, 4, 7, 8, 11, 13])
def test_modexp_n15_binary(a):
    spec = ModExpSpec(a, 15, "binary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    for k in range(16):
        value, kept, clean = run_modexp(layout, comp, spec, k)
        assert value == pow(a, k, 15)
        assert kept == k and clean


def test_modexp_k0_gives_one():
    spec = ModExpSpec(7, 15, "binary")
    layout = modexp_circuit(spec)
    value, _, _ = run_modexp(layout, compile_classical(layout.circuit), spec, 0)
    assert value == 1


def test_modexp_permutation_full_range():
    spec = ModExpSpec(7, 15, "binary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    seen = set()
    for k in range(256):
        value, kept, clean = run_modexp(layout, comp, spec, k)
        assert value == pow(7, k, 15) and kept == k and clean
        seen.add((k, value))
    assert len(seen) == 256


def test_modexp_n21():
    spec = ModExpSpec(2, 21, "binary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    for k in range(64):
        value, kept, clean = run_modexp(layout, comp, spec, k)
        assert value == pow(2, k, 21)
        assert kept == k and clean


def test_modexp_ternary():
    spec = ModExpSpec(2, 15, "ternary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    for k in range(81):
        value, kept, clean = run_modexp(layout, comp, spec, k)
        assert value == pow(2, k, 15), k
        assert kept == k and clean


def test_modexp_rejects_common_factor():
    with pytest.raises(SizeError):
        ModExpSpec(6, 15)


@pytest.mark.parametrize("a,N", [(2, -15), (2, 1), (1, 0), (0, 1)])
def test_modexp_rejects_modulus_below_2(a, N):
    # the order of a mod N would never be reached
    with pytest.raises(SizeError, match="modulus"):
        ModExpSpec(a, N)


def test_shift_block_tally():
    spec = ModExpSpec(7, 15, "binary")
    layout = modexp_circuit(spec)
    assert layout.dctrl_shift_count == modeled_shift_count(spec)
    # within twice the leading-order 2n^2, n = 4: the uncompute pass doubles
    # the shifts and rounds whose multiplier is 1 are skipped
    assert 0 < layout.dctrl_shift_count <= 2 * (2 * 4 * 4)


@pytest.mark.parametrize("a,N,shifts,modeled", [(2, 9, 64, 96), (5, 18, 144, 192),
                                                (2, 27, 144, 192)])
def test_ternary_builds_count_only_the_shifts_they_make(a, N, shifts, modeled):
    # N divides 2 * 3^(v-1): the ternary multiply skips each shift by w = 0 mod N, and the
    # count leaves it out
    spec = ModExpSpec(a, N, "ternary")
    assert (modexp_circuit(spec).dctrl_shift_count, modeled_shift_count(spec)) == (shifts, modeled)
    for mult in {pow(a, 3**j, N) for j in range(spec.exp_digits)} - {1}:
        assert round_map("ternary", N, mult) == tuple(
            tuple(acc * pow(mult, c, N) % N for acc in range(N)) for c in range(3)), mult


# ------------------------------------------------------------ distributions

def test_full_register_distribution_peaks():
    spec = ModExpSpec(7, 15, "binary")
    p = full_register_distribution(spec)
    assert len(p) == 256 and abs(p.sum() - 1) < 1e-9
    # period 4: mass concentrates on multiples of 256/4 = 64
    for j in (0, 64, 128, 192):
        assert abs(p[j] - 0.25) < 1e-9
    assert p[[1, 63, 100]].max() < 1e-12


def phase_sum_distribution(spec):
    """Direct reference: p(j) = sum_y |sum_{k: a^k = y} e^(-2 pi i j k / Q)|^2 / Q^2."""
    Q = spec.radix**spec.exp_digits
    values = [pow(spec.base, k, spec.modulus) for k in range(Q)]
    onehot = np.zeros((Q, spec.modulus))
    onehot[np.arange(Q), values] = 1.0
    phases = np.exp(-2j * np.pi * np.outer(np.arange(Q), np.arange(Q)) / Q)
    return (np.abs(phases @ onehot) ** 2).sum(axis=1) / Q**2


@pytest.mark.parametrize("N,a,enc", [(15, 7, "binary"), (21, 2, "binary"), (15, 4, "binary"),
                                     (15, 16, "binary"), (15, 2, "ternary"), (21, 2, "ternary"),
                                     (13, 2, "ternary"), (21, 5, "ternary")])
def test_full_register_matches_phase_sum(N, a, enc):
    spec = ModExpSpec(a, N, enc)
    assert spec.radix**spec.exp_digits <= 1024
    assert np.abs(full_register_distribution(spec) - phase_sum_distribution(spec)).max() < 1e-12


def test_trivial_base_measures_zero():
    spec = ModExpSpec(16, 15, "binary")   # 16 = 1 mod 15
    p = full_register_distribution(spec)
    assert abs(p[0] - 1.0) < 1e-12
    cand = period_finding_run(spec, seed=0, mode="full-register")
    assert cand.period == 1 and cand.verified


@pytest.mark.parametrize("N,a,enc", [(15, 7, "binary"), (21, 2, "binary"),
                                     (15, 2, "ternary"), (13, 2, "ternary"),
                                     (21, 2, "ternary"), (33, 2, "binary"), (33, 2, "ternary"),
                                     (35, 2, "binary"), (35, 2, "ternary")])
def test_semiclassical_matches_full_register(N, a, enc):
    spec = ModExpSpec(a, N, enc)
    pf = full_register_distribution(spec)
    ps = semiclassical_distribution(spec)
    assert 0.5 * np.abs(pf - ps).sum() < 1e-12


def test_semiclassical_sampled_tv():
    spec = ModExpSpec(7, 15, "binary")
    pf = full_register_distribution(spec)
    rng = np.random.default_rng(99)
    counts = np.zeros(256)
    for _ in range(10_000):
        counts[semiclassical_period_rounds(spec, rng)] += 1
    tv = 0.5 * np.abs(counts / counts.sum() - pf).sum()
    assert tv < 0.02


def test_gate_level_semiclassical_bridge():
    """Instruction-level rounds agree with the residue-map rounds per seed."""
    for spec, seeds in ((ModExpSpec(7, 15, "binary"), (0, 1, 7, 40, 123)),
                        (ModExpSpec(2, 21, "binary"), (0, 1, 2)),
                        (ModExpSpec(2, 15, "ternary"), (0, 1, 2))):
        for seed in seeds:
            j_gate = semiclassical_gate_run(spec, seed)
            j_map = semiclassical_period_rounds(spec, np.random.default_rng(seed))
            assert j_gate == j_map, (spec, seed)


def _reference_sample(spec, rng):
    """The sampler as it drew before ``sim.choice_draw``: a (1, r) row per round, the
    Hadamard weights rebuilt each round, and ``rng.choice`` on the normalised probabilities."""
    moves = shor._move_table(spec, False)
    e, d, r = moves.shape
    hadamard = matrix_for_name("HBIN" if d == 2 else "H").matrix[:d, :d]
    row, j = np.eye(1, r, dtype=np.complex128), 0
    for t in range(e):
        phases = np.exp(np.multiply.outer([j], np.arange(d) * (-2j * np.pi / d ** (t + 1))))
        weights = (hadamard.conj().T * hadamard[:, 0])[:, None, :] * phases
        children = np.einsum("mbc,bci->mbi", weights, row[:, moves[t]])
        probs = (np.abs(children) ** 2).sum(axis=(1, 2))
        m = int(rng.choice(d, p=probs / probs.sum()))
        row = children[m]
        j += m * d**t
    return j


def _coprime_specs(moduli):
    return [ModExpSpec(a, N, enc) for N in moduli for enc in ("binary", "ternary")
            for a in range(2, N) if gcd(a, N) == 1]


@pytest.mark.parametrize("N", [15, 21, 33])
def test_sampler_draws_as_the_reference(N):
    for spec in _coprime_specs((N,)):
        for seed in range(10):
            got = semiclassical_period_rounds(spec, np.random.default_rng(seed))
            assert got == _reference_sample(spec, np.random.default_rng(seed)), (spec, seed)


# sha256 of the repr of every outcome, recorded with the reference sampler
SAMPLED_J_DIGEST = "4bb595b82df3ae0c1cb0e1fe31a0b5a05466fb5368d5176a9ceeac90464f91c8"
FACTOR_REPORT_DIGEST = "c515765702945154c793a39b87a73acb60a1f44ced4a2314510913a437b083c3"
# the same for the gate-level mode, recorded while it built two generators per attempt
GATE_FACTOR_REPORT_DIGEST = "ef18a285aaa5ed7eab771cfac95cceb24d47ebf7cb7df06aa8d74e846106fcac"


def test_sampled_outcomes_are_pinned():
    """j of seeds 0-49 at every coprime base of N in {15, 21, 33, 35}, both encodings."""
    js = [semiclassical_period_rounds(spec, np.random.default_rng(seed))
          for spec in _coprime_specs((15, 21, 33, 35)) for seed in range(50)]
    assert len(js) == 6000
    assert hashlib.sha256(repr(js).encode()).hexdigest() == SAMPLED_J_DIGEST


def test_factor_reports_are_pinned():
    reports = [(rep.factors, rep.trials) for N in (15, 21, 33, 35, 39, 51, 55, 57)
               for enc in ("binary", "ternary") for seed in range(20)
               for rep in [shor_factor(N, seed=seed, encoding=enc)]]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == FACTOR_REPORT_DIGEST


def test_gate_level_factor_reports_are_pinned(monkeypatch):
    made = []
    monkeypatch.setattr(shor, "seeded_rng",
                        lambda seed: made.append(seed) or np.random.default_rng(seed))
    reports = [(rep.factors, rep.trials) for N in (15, 21) for enc in ("binary", "ternary")
               for seed in range(10)
               for rep in [shor_factor(N, seed=seed, encoding=enc, mode="semiclassical-gate")]]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == GATE_FACTOR_REPORT_DIGEST
    attempts = sum(kind != "gcd" for _, trials in reports for _, kind, _ in trials)
    assert len(made) == 40 + attempts  # one generator per factoring and one per attempt


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seeds_must_be_non_negative_integers(seed):
    spec = ModExpSpec(7, 15, "binary")
    for call in (lambda: run(Circuit(1, ()), seed=seed), lambda: shor_factor(15, seed=seed),
                 lambda: period_finding_run(spec, seed=seed),
                 lambda: semiclassical_gate_run(spec, seed)):
        with pytest.raises(SizeError, match="seed"):
            call()


def test_numpy_integer_seeds_draw_as_ints():
    assert shor_factor(21, seed=np.int64(3)) == shor_factor(21, seed=3)
    assert run(Circuit(1, ()), seed=np.uint32(5)).seed == 5


@pytest.mark.parametrize("N", [15, 25])
@pytest.mark.parametrize("bad", [{"encoding": "octal"}, {"mode": "bogus"},
                                 {"max_trials": 0}, {"max_trials": -1}])
def test_shor_factor_rejects_bad_arguments_before_any_draw(N, bad):
    # at N = 15 seed 0 draws a base sharing a factor; N = 25 is a perfect power
    for seed in range(8):
        with pytest.raises(SizeError):
            shor_factor(N, seed=seed, **bad)


@pytest.mark.parametrize("make", [
    lambda: qft3n(1.5), lambda: ModExpSpec(2.0, 15), lambda: ModExpSpec(2, 15.0),
    lambda: ModExpSpec(2, 15, exponent_digits=2.0), lambda: shor_factor(15.0),
    lambda: shor_factor("15"),
], ids=["qft3n n", "spec base", "spec modulus", "spec exponent digits", "N", "N text"])
def test_non_integer_sizes_raise_size_error(make):
    with pytest.raises(SizeError, match="integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: ModExpSpec(7, 15, exponent_digits=0), lambda: ModExpSpec(7, 15, exponent_digits=-2),
    lambda: classical_postprocess(1.5, 16, 15, 7), lambda: classical_postprocess(1, 16, 15.0, 7),
    lambda: shor_factor(15, max_trials=1.5),
], ids=["no exponent digits", "negative exponent digits", "measurement", "modulus",
        "max_trials"])
def test_shor_layer_inputs_raise_size_error(make):
    with pytest.raises(SizeError):
        make()


def test_period_finding_run_rejects_a_bad_mode_at_a_trivial_base():
    with pytest.raises(SizeError, match="mode"):
        period_finding_run(ModExpSpec(1, 15, "binary"), mode="bogus")


@pytest.mark.parametrize("enc,mult", [("binary", 7), ("ternary", 2)])
def test_controlled_multiply_multiplies_the_accumulator(enc, mult):
    """Control on wire 0, accumulator from wire 1: acc <- acc * mult^c."""
    comp = controlled_multiply(enc, 15, mult)
    d = 2 if enc == "binary" else 3
    v = ModExpSpec(mult, 15, enc).value_digits
    for c in range(d):
        for y in (1, 4, 14):
            trits = [0] * comp.width
            trits[0] = c
            for j in range(v):
                trits[1 + j] = (y // d**j) % d
            out = trits_of_index(run_compiled(comp, index_of_trits(trits)), comp.width)
            assert sum(out[1 + j] * d**j for j in range(v)) == y * mult**c % 15
            assert out[0] == c and not any(out[1 + v:])


# ------------------------------------------------------------ round maps
# The structural test shows that the modexp circuit is acc <- 1 followed by
# one controlled multiply per round, each the one-digit circuit on
# the shared layout; the exhaustive test checks that circuit on every
# control value and accumulator.  Together they prove every exponent.

def _round_multipliers(spec):
    d, e, N = spec.radix, spec.exp_digits, spec.modulus
    return [pow(spec.base, d**j, N) for j in range(e)]


@pytest.mark.parametrize("a,N,enc", [(2, N, enc) for N in (15, 21, 33, 35)
                                     for enc in ("binary", "ternary")]
                         + [(7, 15, "binary"), (7, 15, "ternary")])
def test_round_map_multiplies_every_accumulator(a, N, enc):
    spec = ModExpSpec(a, N, enc)
    for mult in sorted(set(_round_multipliers(spec)) - {1}):
        table = round_map(enc, N, mult)
        assert table == tuple(tuple(acc * pow(mult, c, N) % N for acc in range(N))
                              for c in range(spec.radix)), mult


@pytest.mark.slow
@pytest.mark.parametrize("enc,N", [("binary", 1023), ("ternary", 727)])
def test_round_map_at_ten_bit_moduli(enc, N):
    d = 2 if enc == "binary" else 3
    assert round_map(enc, N, 2) == tuple(tuple(acc * 2**c % N for acc in range(N))
                                         for c in range(d))


@pytest.mark.parametrize("a,N,enc", [(7, 15, "binary"), (2, 21, "binary"),
                                     (2, 15, "ternary"), (2, 21, "ternary"),
                                     pytest.param(2, 1023, "binary", marks=pytest.mark.slow),
                                     pytest.param(2, 727, "ternary", marks=pytest.mark.slow)])
def test_modexp_circuit_is_its_round_multiplies(a, N, enc):
    spec = ModExpSpec(a, N, enc)
    e = spec.exp_digits
    regs = _registers(spec)
    circ = modexp_circuit(spec).circuit
    blocks = [(kappa, mult, [op for block in _ctrl_mult_ops(spec, regs, kappa, mult) for op in block])
              for kappa, mult in zip(regs.exponent, _round_multipliers(spec)) if mult != 1]
    init = gate_op("TAU1[0,1]" if enc == "binary" else "INC", regs.acc[0])
    assert circ.instructions == (init, *(op for _, _, ops in blocks for op in ops))
    for kappa, mult, ops in blocks:
        # onto the one-digit layout: the exponent wire to 0, the rest down by e - 1
        relabel = {kappa: 0, **{w: w - (e - 1) for w in range(e, circ.width)}}
        one_digit = Circuit(circ.width - (e - 1),
                            tuple(GateOp(op.gate, tuple(relabel[w] for w in op.wires))
                                  for op in ops))
        assert compile_classical(one_digit) == controlled_multiply(enc, N, mult)


@pytest.mark.parametrize("wire,fault", [(0, "the control changed"),
                                        (5, "acc out of range"),
                                        (-1, "acc2 or scratch left non-zero")])
def test_round_map_rejects_a_faulty_multiply(monkeypatch, wire, fault):
    comp = controlled_multiply("binary", 15, 7)
    extra = compile_classical(Circuit(comp.width, (gate_op("INC", wire % comp.width),)))
    faulty = CompiledCircuit(comp.width, comp.ops + extra.ops)
    monkeypatch.setattr(modexp, "controlled_multiply", lambda *args: faulty)
    with pytest.raises(RoundMapError, match=f"control 0, acc 0: {fault}"):
        round_map("binary", 15, 7)


@pytest.mark.parametrize("call", [lambda: round_map("binary", [15], 2),
                                  lambda: round_map({}, 15, 2),
                                  lambda: controlled_multiply("binary", 15, {}),
                                  lambda: controlled_multiply(["binary"], 15, 7)],
                         ids=["round_map modulus", "round_map encoding",
                              "multiply multiplier", "multiply encoding"])
def test_unhashable_round_arguments_raise_size_error(call):
    # a memo once hashed them first: a bare TypeError
    with pytest.raises(SizeError):
        call()


@pytest.mark.parametrize("a,N,enc", [(2, N, enc) for N in (15, 21, 33, 35)
                                     for enc in ("binary", "ternary")] + [(7, 15, "binary")])
def test_gate_level_semiclassical_distribution_is_exact(a, N, enc):
    # the enumerator on the gate-level move table: every round's multiply is
    # read off its circuit through round_map
    spec = ModExpSpec(a, N, enc)
    pf = full_register_distribution(spec)
    pg = shor._distribution(shor._move_table(spec, True))
    assert 0.5 * np.abs(pf - pg).sum() < 1e-12


@pytest.mark.parametrize("acc", [2, 13])
def test_move_table_rejects_a_map_off_the_orbit(monkeypatch, acc):
    # 7 mod 15: orbit 1, 7, 4, 13; round 6 multiplies by 4, and control 1
    # should send 1 to 4; 2 is off the orbit, 13 is where 7 goes
    def faulty(enc, N, mult):
        table = [list(row) for row in round_map(enc, N, mult)]
        table[1][1] = acc
        return table
    monkeypatch.setattr(shor, "round_map", faulty)
    with pytest.raises(RoundMapError, match="multiply by 4 mod 15, round 6, control 1: not a perm"):
        shor._move_table.__wrapped__(ModExpSpec(7, 15, "binary"), True)   # uncached


def test_gate_level_semiclassical_distribution():
    spec = ModExpSpec(7, 15, "binary")
    pf = full_register_distribution(spec)
    counts = np.zeros(256)
    n = 400
    for seed in range(n):
        counts[semiclassical_gate_run(spec, seed)] += 1
    tv = 0.5 * np.abs(counts / n - pf).sum()
    assert tv < 0.06


# ------------------------------------------------------------ postprocessing

def test_postprocess_known_measurements():
    cand = classical_postprocess(192, 256, 15, 7)
    assert cand.period == 4 and cand.verified
    assert classical_postprocess(64, 256, 15, 7).period == 4
    assert classical_postprocess(128, 256, 15, 7).period == 4  # via multiples


def test_postprocess_zero_measurement():
    cand = classical_postprocess(0, 256, 15, 7)
    assert cand.period is None and not cand.verified


@pytest.mark.parametrize("j", [-64, 256, 300])
def test_postprocess_rejects_measurement_outside_register(j):
    with pytest.raises(SizeError):
        classical_postprocess(j, 256, 15, 7)


def test_candidates_verified_property():
    spec = ModExpSpec(7, 15, "binary")
    for seed in range(50):
        cand = period_finding_run(spec, seed=seed)
        if cand.verified:
            assert 0 < cand.period < 15
            assert pow(7, cand.period, 15) == 1


def test_factor_gcd_shortcut():
    cand = classical_postprocess(192, 256, 15, 7)
    assert pow(7, cand.period // 2, 15) == 4
    import math
    assert math.gcd(4 - 1, 15) == 3 and math.gcd(4 + 1, 15) == 5


def test_shor_factor_15():
    rep = shor_factor(15, seed=7)
    assert rep.factors is not None
    assert sorted(rep.factors) == [3, 5]


def test_shor_factor_21_documented_seed():
    rep = shor_factor(21, seed=3)
    assert rep.factors is not None
    assert sorted(rep.factors) == [3, 7]


def test_shor_factor_rejects_even():
    with pytest.raises(SizeError):
        shor_factor(16)


@pytest.mark.parametrize("N", [13, 97])
def test_shor_factor_rejects_prime(N):
    with pytest.raises(SizeError, match="prime"):
        shor_factor(N)


@pytest.mark.parametrize("N,b,k", [(9, 3, 2), (25, 5, 2), (27, 3, 3), (49, 7, 2), (121, 11, 2)])
def test_shor_factor_prime_power_is_classical(N, b, k):
    rep = shor_factor(N, seed=0)
    assert rep.factors == (b, N // b)
    assert rep.trials == ((b, "perfect-power", k),)   # no period-finding attempt


@pytest.mark.slow
def test_modexp_n21_full_exponent_range():
    spec = ModExpSpec(2, 21, "binary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    for k in range(2**spec.exp_digits):
        trits = [0] * layout.circuit.width
        for j, w in enumerate(layout.exponent):
            trits[w] = (k >> j) & 1
        out = trits_of_index(run_compiled(comp, index_of_trits(trits)),
                             layout.circuit.width)
        got = sum(out[w] << j for j, w in enumerate(layout.accumulator))
        assert got == pow(2, k, 21)
        assert all(out[w] == 0 for w in layout.scratch)


@pytest.mark.slow
def test_modexp_ternary_n21_full_exponent_range():
    spec = ModExpSpec(2, 21, "ternary")
    layout = modexp_circuit(spec)
    comp = compile_classical(layout.circuit)
    for k in range(3**spec.exp_digits):
        value, kept, clean = run_modexp(layout, comp, spec, k)
        assert value == pow(2, k, 21), k
        assert kept == k and clean


# sha256 of serialize() and the ResourceCount fields, in order, of the modexp
# circuits at every base the circuit_toolchain benchmark draws, taken from the
# per-gate ops and per-instruction count that shared ops and the per-name count
# replaced: neither may move a gate or a count.  Each C1[INC] row sums the
# C1[INC] and C1[INC_INV] rows recorded then: the tally names an adjoint by its gate.
MODEXP_GOLDEN = {
    ("binary", 2, 15): ("d3d196d081b0cdf67b2a97a3f631dd47e7fb63f68e493f6fd64d0b06c4934d8e",
        (5886, 1687, 0, 5300, 0, 23, 10,
         (('C1[INC]', 862), ('C2[INC]', 1100)), (), 0)),
    ("binary", 7, 15): ("8bb9ee3610b34ceedef38c0ea841d7b9a87619907f5d20c1a19f8abcaa12caff",
        (5886, 1687, 0, 5300, 0, 23, 10,
         (('C1[INC]', 862), ('C2[INC]', 1100)), (), 0)),
    ("binary", 8, 15): ("412b6aab0bcf0ffe0bbffda609bb37db66f5c090748bce9de6d278e72bf79c7a",
        (5898, 1688, 0, 5318, 0, 23, 10,
         (('C1[INC]', 866), ('C2[INC]', 1100)), (), 0)),
    ("binary", 13, 15): ("1027ba5b6341bc12d93ca53344ac5c4e63b5afd0f3a0a40f1b10d60f512df414",
        (5898, 1688, 0, 5318, 0, 23, 10,
         (('C1[INC]', 866), ('C2[INC]', 1100)), (), 0)),
    ("ternary", 2, 15): ("39d7ec46ab082c465d564f26382942d6a9cf2b4d0228f7ac1f197fe25aa4e2c1",
        (91104, 28497, 0, 19705, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3768), ('L[SUM]', 1536), ('TAU2[1,6]', 1032)), (), 0)),
    ("ternary", 4, 15): ("72a717c247520c0fe1e529cfced796754efd00e7f09e35088cfa05cd91e3d210",
        (91104, 28497, 0, 19681, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3744), ('L[SUM]', 1536), ('TAU2[1,6]', 1056)), (), 0)),
    ("ternary", 7, 15): ("11c0b6fea351dd97d62f2bcb09947726c5d592116438fe7e1b83811b7dd921ab",
        (91104, 28497, 0, 19705, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3768), ('L[SUM]', 1536), ('TAU2[1,6]', 1032)), (), 0)),
    ("ternary", 8, 15): ("654d1cbb012a8f485ad8d54175f57b6afdbd2f1c0b8246da2e3cd4fa3cef1c39",
        (91104, 28497, 0, 19705, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3768), ('L[SUM]', 1536), ('TAU2[1,6]', 1032)), (), 0)),
    ("ternary", 11, 15): ("ce414dd59440d1cc7b9920b9dbcc958025be5506bdebd9b773f532b4c82e634c",
        (91104, 28497, 0, 19681, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3744), ('L[SUM]', 1536), ('TAU2[1,6]', 1056)), (), 0)),
    ("ternary", 13, 15): ("a8c631e89b766ba14367def243f5353e48fdcab61ec6504a2bdd086b467e9ead",
        (91104, 28497, 0, 19705, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3768), ('L[SUM]', 1536), ('TAU2[1,6]', 1032)), (), 0)),
    ("binary", 2, 21): ("0205104f5d2d47ed5ee5ff605907e4f2bd2a38514221614030d628c34ae9a41b",
        (40380, 11800, 0, 35631, 0, 27, 11,
         (('C1[INC]', 5660), ('C2[INC]', 7800)), (), 0)),
    ("binary", 8, 21): ("f72aa2918c058c4983159f77ec78cd8b8d12a310b2aea361e1c4fe1c2bd366f3",
        (4038, 1180, 0, 3564, 0, 27, 11,
         (('C1[INC]', 566), ('C2[INC]', 780)), (), 0)),
    ("binary", 13, 21): ("875b6893ccca38519760164759919b30b2d5203e4309977288a240b2c760a8f6",
        (4038, 1180, 0, 3564, 0, 27, 11,
         (('C1[INC]', 566), ('C2[INC]', 780)), (), 0)),
    ("ternary", 2, 21): ("2fdb024c5b2b1004ff20ce3c47c4928ad08b548e41a9f569a860efb817da59ab",
        (91104, 28497, 0, 19471, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3736), ('L[SUM]', 1536), ('TAU2[1,6]', 1064)), (), 0)),
    ("ternary", 4, 21): ("86dc87f38bd50945b91b0aaee9e9d32f9592a969f418d1a863be7ce28ceb7d0a",
        (15184, 4762, 0, 3231, 0, 24, 14,
         (('C0[SUM]', 8), ('C1[INC]', 324), ('C1[SUM]', 32),
          ('C2[INC]', 196), ('C2[SUM]', 608), ('L[SUM]', 256), ('TAU2[1,6]', 192)), (), 0)),
    ("ternary", 8, 21): ("9679bf6676f42225c9cda63e2fba49237b1edc42960a9d2f389e47a68362a2cc",
        (91104, 28497, 0, 19513, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3744), ('L[SUM]', 1536), ('TAU2[1,6]', 1056)), (), 0)),
    ("ternary", 11, 21): ("b27b17f16973f9f24b3b22f83b7bd79db218bdfa62d40e1b1f66d966f9d06f94",
        (91104, 28497, 0, 19535, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3736), ('L[SUM]', 1536), ('TAU2[1,6]', 1064)), (), 0)),
    ("ternary", 13, 21): ("7ee42015e0a2e5e0a47ae3b14343b32f472db2d4a2b83be144572aae49c84cab",
        (91104, 28497, 0, 19513, 0, 24, 14,
         (('C0[SUM]', 48), ('C1[INC]', 1944), ('C1[SUM]', 192),
          ('C2[INC]', 1176), ('C2[SUM]', 3744), ('L[SUM]', 1536), ('TAU2[1,6]', 1056)), (), 0)),
}


@pytest.mark.parametrize("enc,base,N", sorted(MODEXP_GOLDEN), ids=str)
def test_modexp_text_and_count_are_pinned(enc, base, N):
    circ = modexp_circuit(ModExpSpec(base, N, enc)).circuit
    digest, fields = MODEXP_GOLDEN[enc, base, N]
    assert hashlib.sha256(serialize(circ).encode()).hexdigest() == digest
    assert astuple(count_resources(circ)) == fields


# sha256 of serialize() and the dctrl_shift_count of modexp circuits beyond the
# benchmark's bases, recorded before each distinct modular addition was built
# once per build: the memo may not move a gate
MODEXP_LARGER_GOLDEN = {
    ("binary", 2, 33): ("f4b1101e0f0eb691f27732e6fade0359fba3f956ab8e78fd4c37a079af8028b6", 168),
    ("binary", 7, 33): ("86291fca3014d621ed215abd7a7e5a9bbc1f1f9e6fd4866e50d7135064da6c97", 168),
    ("ternary", 2, 33): ("dac5e3a8ff78c2e8ac366d0539a9aec3b7bd30385943f8388272f544a8281218", 256),
    ("ternary", 7, 33): ("481f880782884dab418a9dc0a2bbcc8e176ac631f41aa096faea955094d58d40", 256),
    ("binary", 2, 35): ("a74df52bc3b31ad460c4ecaa95c6692f0046fb46b3134303f4471613f2d2825a", 168),
    ("binary", 3, 35): ("f9ff749c5f72e706abc8d49f4126b46eeb239fff800262ea013274c70f84862c", 168),
    ("ternary", 2, 35): ("3cfca9f85ab50845fc8059373ffdcb982bf944bdcbd3abdb8d91453ffa12fb53", 256),
    ("ternary", 3, 35): ("e2492462b318b258387c16f48fbcefc03b145de34dc7e0da99914b339e75d505", 256),
    ("binary", 2, 1023): ("954cec29af531fcee5ffb9ace4aee5a68fee3f624ba9ba9acc6e4d30d7d35819", 440),
    ("ternary", 2, 727): ("ab32736f98d066f29d472ccfbc123fa25e4daad0de8fc02eeac463703d49b521", 672),
}


@pytest.mark.parametrize("enc,base,N", [
    key if key[2] < 100 else pytest.param(*key, marks=pytest.mark.slow)
    for key in MODEXP_LARGER_GOLDEN], ids=str)
def test_larger_modexp_text_and_shift_count_are_pinned(enc, base, N):
    layout = modexp_circuit(ModExpSpec(base, N, enc))
    assert (hashlib.sha256(serialize(layout.circuit).encode()).hexdigest(),
            layout.dctrl_shift_count) == MODEXP_LARGER_GOLDEN[enc, base, N]


# sha256 over every compiled controlled multiply at N in {15, 21, 33, 35}, both
# encodings, each coprime multiplier: its steps with tables numbered by first
# use, then the tables in that order
CONTROLLED_MULTIPLY_DIGEST = "65f69b3e616eacc7dcf3646635825fda9c4d6b23131292485c74be1c170e3e4a"


def test_controlled_multiply_steps_are_pinned():
    tables, steps = {}, []
    for N in (15, 21, 33, 35):
        for enc in ("binary", "ternary"):
            for mult in range(2, N):
                if gcd(mult, N) == 1:
                    comp = controlled_multiply(enc, N, mult)
                    steps.append((enc, N, mult, comp.width,
                                  tuple((a, wires, tables.setdefault(table, len(tables)))
                                        for a, wires, table in comp.ops)))
    assert len(steps) == 120
    digest = hashlib.sha256(repr((steps, list(tables))).encode()).hexdigest()
    assert digest == CONTROLLED_MULTIPLY_DIGEST


# distinct modular-addition constants w in one modexp build, counted on the
# builder that built every repeat again: 20, 120, 192, 192, 168 and 256 calls
DISTINCT_ADDITIONS = {("binary", 7, 15): 8, ("binary", 2, 21): 12, ("ternary", 2, 15): 12,
                      ("ternary", 2, 21): 16, ("binary", 2, 33): 10, ("ternary", 2, 35): 24}


@pytest.mark.parametrize("enc,base,N", sorted(DISTINCT_ADDITIONS), ids=str)
def test_one_build_makes_each_modular_addition_once(monkeypatch, enc, base, N):
    made, real = [], modexp.mod_add_ops
    monkeypatch.setattr(modexp, "mod_add_ops",
                        lambda encoding, w, *args, **kw: made.append(w) or real(encoding, w, *args, **kw))
    spec = ModExpSpec(base, N, enc)
    modexp_circuit(spec)
    assert len(made) == len(set(made)) == DISTINCT_ADDITIONS[enc, base, N]
    modexp_circuit(spec)   # the memo lasts one build
    assert len(made) == 2 * DISTINCT_ADDITIONS[enc, base, N]
    made.clear()
    regs = _registers(spec)
    _ctrl_mult_ops(spec, regs, regs.exponent[0], base)
    assert len(made) == len(set(made))
