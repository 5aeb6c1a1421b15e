"""Period finding and factoring at desk scale.

Three period-finding executions are provided:

  * ``full-register``  -- the textbook pipeline: the uniform-exponent
    superposition with the modular-power value register, inverse Fourier
    transform, measurement.  The joint state is built from the verified
    classical modular-power map, so the outcome distribution is exact.
  * ``semiclassical``  -- one control qudit recycled through 2n (or 2m)
    rounds of controlled modular multiplication with measurement-conditioned
    phase feedback; simulated on the multiplicative residue support.
  * ``semiclassical-gate`` -- the same protocol executed instruction by
    instruction on a sparse state vector over the full wire register, with
    the controlled multiplies taken from the modular-exponentiation gate
    constructions.  Used to pin the abstract rounds to the gate level.

Outcome conventions: round t measures the t-th least significant digit of
the Fourier outcome j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .circuit import Circuit
from .errors import SizeError
from .gates import matrix_for_name
from .modexp import ModExpSpec, _binary_ctrl_mult_ops, _ternary_ctrl_mult_ops
from .arithmetic import _pool_size
from .sim import compile_classical, run_compiled


# ------------------------------------------------------------ oracle pipeline

def full_register_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact measurement distribution of the first register.

    Builds sum_k |k>|a^k mod N>, applies the inverse Fourier transform over
    Z_Q on the exponent register, and returns p(j).
    """
    d, N, a = spec.radix, spec.modulus, spec.base
    Q = d**spec.exp_digits
    residues: dict[int, list[int]] = {}
    val = 1
    for k in range(Q):
        residues.setdefault(val, []).append(k)
        val = (val * a) % N
    p = np.zeros(Q)
    ks = np.arange(Q)
    for y, klist in residues.items():
        amp = np.zeros(Q, dtype=np.complex128)
        karr = np.asarray(klist)
        for j_chunk in range(0, Q, 4096):
            sl = slice(j_chunk, min(j_chunk + 4096, Q))
            phases = np.exp(-2j * np.pi * np.outer(ks[sl], karr) / Q)
            amp[sl] = phases.sum(axis=1)
        p += np.abs(amp) ** 2
    p /= Q * Q
    return p


# ------------------------------------------------------------ semiclassical

def _phase_feedback(feed: int, t: int, d: int):
    """diag phase on the control wire encoding -2*pi*feed/d^(t+1)."""
    r = d ** (t + 1)
    aa = (-feed) % r
    if d == 2:
        return matrix_for_name(f"PHASE1[{aa},{r}]")
    return matrix_for_name(f"PHASE[{aa},{r}]")


def semiclassical_period_rounds(spec: ModExpSpec, rng) -> int:
    """Run the recycled-control protocol on the residue support; returns j."""
    d, N, a = spec.radix, spec.modulus, spec.base
    e = spec.exp_digits
    hadamard = matrix_for_name("HBIN" if d == 2 else "H").matrix
    inv_h = hadamard.conj().T
    state = {1: 1.0 + 0j}  # accumulator residue amplitudes
    bits: list[int] = []
    feed = 0  # j mod d^t: digits measured so far, ascending significance
    for t in range(e):
        mult = pow(a, d ** (e - 1 - t), N)
        r = d ** (t + 1)
        phase = np.exp(-2j * np.pi * ((feed % r) / r))
        # branch amplitudes: control value c applies mult^c and phase^c
        branches = []
        for c in range(d):
            mc = pow(mult, c, N)
            br = {(y * mc) % N: amp * phase**c * hadamard[c, 0]
                  for y, amp in state.items()}
            branches.append(br)
        probs = np.zeros(d)
        post = [dict() for _ in range(d)]
        for m in range(d):
            acc: dict[int, complex] = {}
            for c in range(d):
                w = inv_h[m, c]
                if abs(w) < 1e-15:
                    continue
                for y, amp in branches[c].items():
                    acc[y] = acc.get(y, 0.0) + w * amp
            post[m] = acc
            probs[m] = sum(abs(v) ** 2 for v in acc.values())
        probs = np.clip(probs, 0, None)
        probs /= probs.sum()
        m = int(rng.choice(d, p=probs))
        norm = np.sqrt(sum(abs(v) ** 2 for v in post[m].values()))
        state = {y: v / norm for y, v in post[m].items() if abs(v) > 1e-15}
        bits.append(m)
        feed += m * d**t
    return sum(m * d**t for t, m in enumerate(bits))


def semiclassical_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact outcome distribution of the semiclassical protocol."""
    d, N, a = spec.radix, spec.modulus, spec.base
    e = spec.exp_digits
    Q = d**e
    hadamard = matrix_for_name("HBIN" if d == 2 else "H").matrix
    inv_h = hadamard.conj().T
    out = np.zeros(Q)

    def walk(t, state, prob, feed, j_acc):
        if prob < 1e-18:
            return
        if t == e:
            out[j_acc] += prob
            return
        mult = pow(a, d ** (e - 1 - t), N)
        r = d ** (t + 1)
        phase = np.exp(-2j * np.pi * ((feed % r) / r))
        branches = []
        for c in range(d):
            mc = pow(mult, c, N)
            branches.append({(y * mc) % N: amp * phase**c * hadamard[c, 0]
                             for y, amp in state.items()})
        for m in range(d):
            acc: dict[int, complex] = {}
            for c in range(d):
                w = inv_h[m, c]
                if abs(w) < 1e-15:
                    continue
                for y, amp in branches[c].items():
                    acc[y] = acc.get(y, 0.0) + w * amp
            pm = sum(abs(v) ** 2 for v in acc.values())
            if pm < 1e-18:
                continue
            norm = np.sqrt(pm)
            walk(t + 1, {y: v / norm for y, v in acc.items() if abs(v) > 1e-15},
                 prob * pm, feed + m * d**t, j_acc + m * d**t)

    walk(0, {1: 1.0 + 0j}, 1.0, 0, 0)
    return out


# ------------------------------------------------------------ gate-level rounds

class _SparseState:
    """Sparse amplitude map over a wide register for semiclassical runs."""

    def __init__(self, width: int):
        self.width = width
        self.amps: dict[int, complex] = {0: 1.0 + 0j}

    def permute(self, compiled):
        """Map every basis index through a compiled permutation circuit."""
        self.amps = {run_compiled(compiled, idx): amp for idx, amp in self.amps.items()}

    def apply(self, gate, wires):
        if gate.arity != 1:
            raise SizeError(f"sparse path: unsupported gate {gate.name}")
        m = gate.matrix
        s = 3 ** wires[0]
        new = {}
        for idx, amp in self.amps.items():
            t = (idx // s) % 3
            for t2 in range(3):
                w = m[t2, t]
                if abs(w) < 1e-15:
                    continue
                idx2 = idx + (t2 - t) * s
                new[idx2] = new.get(idx2, 0.0) + w * amp
        self.amps = {k: v for k, v in new.items() if abs(v) > 1e-15}

    def measure(self, wire, rng) -> int:
        s = 3**wire
        probs = np.zeros(3)
        for idx, amp in self.amps.items():
            probs[(idx // s) % 3] += abs(amp) ** 2
        probs /= probs.sum()
        m = int(rng.choice(3, p=probs))
        kept = {idx: amp for idx, amp in self.amps.items() if (idx // s) % 3 == m}
        norm = np.sqrt(sum(abs(v) ** 2 for v in kept.values()))
        self.amps = {k: v / norm for k, v in kept.items()}
        return m


def semiclassical_gate_run(spec: ModExpSpec, seed: int = 0) -> int:
    """Instruction-level semiclassical run (sparse state vector); returns j."""
    d, N, a = spec.radix, spec.modulus, spec.base
    e = spec.exp_digits
    v = spec.value_digits
    ctrl = 0
    acc = tuple(range(1, v + 1))
    acc2 = tuple(range(v + 1, 2 * v + 1))
    nxt = 2 * v + 1
    A, T, x, marker = nxt, nxt + 1, nxt + 2, nxt + 3
    if d == 2:
        mu = nxt + 4
        width = nxt + 5
    else:
        u1, u = nxt + 4, nxt + 5
        pool = list(range(nxt + 6, nxt + 6 + _pool_size(
            [(w - N) % 3**v for w in range(N)] + [N % 3**v], v)))
        width = pool[-1] + 1
    rng = np.random.default_rng(seed)
    state = _SparseState(width)
    # acc <- 1
    state.apply(matrix_for_name("TAU1[0,1]" if d == 2 else "INC"), (acc[0],))
    had = matrix_for_name("HBIN" if d == 2 else "H")
    had_inv = had.adjoint()
    bits = []
    feed = 0
    for t in range(e):
        mult = pow(a, d ** (e - 1 - t), N)
        state.apply(had, (ctrl,))
        if mult != 1:
            if d == 2:
                ops, _ = _binary_ctrl_mult_ops(ctrl, acc, acc2, A, T, x, marker, mu, mult, N)
            else:
                ops, _ = _ternary_ctrl_mult_ops(ctrl, acc, acc2, A, T, x, marker, u1, u, pool, mult, N)
            state.permute(compile_classical(Circuit(width, tuple(ops))))
        state.apply(_phase_feedback(feed, t, d), (ctrl,))
        state.apply(had_inv, (ctrl,))
        m = state.measure(ctrl, rng)
        if m:
            state.apply(matrix_for_name("INC_INV" if m == 1 else "INC"), (ctrl,))
        bits.append(m)
        feed += m * d**t
    return sum(m * d**t for t, m in enumerate(bits))


# ------------------------------------------------------------ classical post

@dataclass(frozen=True)
class PeriodCandidate:
    measurement: int
    register_modulus: int
    period: int | None
    verified: bool


def classical_postprocess(j: int, Q: int, N: int, a: int) -> PeriodCandidate:
    """Continued-fraction recovery of the period from a measurement j."""
    if j == 0:
        return PeriodCandidate(j, Q, None, False)
    frac = Fraction(j, Q)
    # walk the convergents of j/Q
    cands = []
    num, den = frac.numerator, frac.denominator
    cf = []
    x, y = num, den
    while y:
        cf.append(x // y)
        x, y = y, x % y
    h0, h1 = 1, cf[0]
    k0, k1 = 0, 1
    if h1 and k1 <= N:
        cands.append(k1)
    for q in cf[1:]:
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        if k1 > N:
            break
        if abs(Fraction(j, Q) - Fraction(h1, k1)) <= Fraction(1, 2 * Q):
            cands.append(k1)
    for r in cands:
        for mult in range(1, N // r + 1):
            rr = r * mult
            if rr < N and pow(a, rr, N) == 1:
                return PeriodCandidate(j, Q, rr, True)
    return PeriodCandidate(j, Q, None, False)


def period_finding_run(spec: ModExpSpec, seed: int = 0,
                       mode: str = "semiclassical") -> PeriodCandidate:
    """One period-finding trial; returns the measurement and its candidate."""
    Q = spec.radix**spec.exp_digits
    rng = np.random.default_rng(seed)
    if pow(spec.base, 1, spec.modulus) == 1:
        return PeriodCandidate(0, Q, 1, True)
    if mode == "full-register":
        p = full_register_distribution(spec)
        j = int(rng.choice(Q, p=p / p.sum()))
    elif mode == "semiclassical":
        j = semiclassical_period_rounds(spec, rng)
    elif mode == "semiclassical-gate":
        j = semiclassical_gate_run(spec, seed)
    else:
        raise SizeError(f"mode {mode!r}")
    return classical_postprocess(j, Q, spec.modulus, spec.base)


@dataclass(frozen=True)
class FactorReport:
    factors: tuple[int, int] | None
    trials: tuple
    seed: int


def shor_factor(N: int, seed: int = 0, encoding: str = "binary",
                mode: str = "semiclassical", max_trials: int = 32) -> FactorReport:
    """Factor an odd composite by repeated period finding."""
    if N % 2 == 0 or N < 9:
        raise SizeError("N must be an odd composite")
    rng = np.random.default_rng(seed)
    log = []
    for trial in range(max_trials):
        a = int(rng.integers(2, N - 1))
        g = gcd(a, N)
        if g > 1:
            log.append((a, "gcd", g))
            return FactorReport((g, N // g), tuple(log), seed)
        spec = ModExpSpec(a, N, encoding)
        cand = period_finding_run(spec, seed=int(rng.integers(0, 2**31)), mode=mode)
        if not cand.verified or cand.period is None:
            log.append((a, "no-period", cand.measurement))
            continue
        r = cand.period
        if r % 2:
            log.append((a, "odd-r", r))
            continue
        y = pow(a, r // 2, N)
        if y == N - 1:
            log.append((a, "trivial", r))
            continue
        p, q = gcd(y - 1, N), gcd(y + 1, N)
        if 1 < p < N:
            log.append((a, "ok", r))
            return FactorReport((p, N // p), tuple(log), seed)
        if 1 < q < N:
            log.append((a, "ok", r))
            return FactorReport((q, N // q), tuple(log), seed)
        log.append((a, "degenerate", r))
    return FactorReport(None, tuple(log), seed)
