import numpy as np
import pytest

from terniq import modexp
from terniq.circuit import Circuit, GateOp, gate_op
from terniq.errors import RoundMapError, SizeError
from terniq.modexp import (
    ModExpSpec,
    _ctrl_mult_ops,
    _registers,
    controlled_multiply,
    modexp_circuit,
    modeled_shift_count,
    round_map,
)
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
from terniq.sim import CompiledCircuit, compile_classical, index_of_trits, run_compiled, trits_of_index


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


def test_shift_block_tally():
    spec = ModExpSpec(7, 15, "binary")
    layout = modexp_circuit(spec)
    # modeled leading-order 2n^2; constructed circuit includes the uncompute
    # pass and skips trivial multipliers, so it differs by a bounded factor
    assert modeled_shift_count(spec) == 2 * 4 * 4
    assert 0 < layout.dctrl_shift_count <= 2 * modeled_shift_count(spec)


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


@pytest.mark.parametrize("enc,mult", [("binary", 7), ("ternary", 2)])
def test_controlled_multiply_memoised(enc, mult):
    """Control on wire 0, accumulator from wire 1: acc <- acc * mult^c; built once."""
    comp = controlled_multiply(enc, 15, mult)
    assert controlled_multiply(enc, 15, mult) is comp
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
# one controlled multiply per round, each the memoised one-digit circuit on
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
        assert round_map(enc, N, mult) is table


@pytest.mark.parametrize("a,N,enc", [(7, 15, "binary"), (2, 21, "binary"),
                                     (2, 15, "ternary"), (2, 21, "ternary")])
def test_modexp_circuit_is_its_round_multiplies(a, N, enc):
    spec = ModExpSpec(a, N, enc)
    e = spec.exp_digits
    regs = _registers(spec)
    circ = modexp_circuit(spec).circuit
    blocks = [(kappa, mult, _ctrl_mult_ops(spec, regs, kappa, mult)[0])
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
        round_map.__wrapped__("binary", 15, 7)   # uncached: the real map may be memoised


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
