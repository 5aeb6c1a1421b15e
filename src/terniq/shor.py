"""Period finding and factoring at desk scale.

Three period-finding executions are provided:

  * ``full-register``  -- the textbook pipeline: the uniform-exponent
    superposition with the modular-power value register, inverse Fourier
    transform, measurement; exact from one FFT over the residue classes of
    the exponent modulo the order of a.
  * ``semiclassical``  -- one control qudit recycled through 2n (or 2m)
    rounds of controlled modular multiplication with measurement-conditioned
    phase feedback; sampled on the multiplicative residue support, and
    enumerated exactly, all branches at once, over the orbit of a.
  * ``semiclassical-gate`` -- the same protocol executed instruction by
    instruction on a sparse state vector over the full wire register, with
    the memoised controlled multiplies of the modular-exponentiation gate
    constructions.  Used to pin the abstract rounds to the gate level.

Outcome conventions: round t measures the t-th least significant digit of
the Fourier outcome j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log2

import numpy as np

from .errors import SizeError
from .gates import matrix_for_name
from .modexp import ModExpSpec, controlled_multiply
from .sim import run_compiled


# ------------------------------------------------------------ oracle pipeline

def _order(a: int, N: int) -> int:
    """Multiplicative order of a mod N (a coprime to N)."""
    r, y = 1, a % N
    while y != 1:
        y = y * a % N
        r += 1
    return r


def full_register_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact measurement distribution of the first register.

    Builds sum_k |k>|a^k mod N>, applies the inverse Fourier transform over
    Z_Q on the exponent register, and returns p(j).  The value register
    splits the exponents into the r residue classes k = i (mod r); one FFT
    of their (r, Q) indicator rows gives p(j) = sum_i |row_i(j)|^2 / Q^2.
    """
    Q = spec.radix**spec.exp_digits
    r = _order(spec.base, spec.modulus)
    k = np.arange(Q)
    classes = np.zeros((r, Q))
    classes[k % r, k] = 1.0
    amps = np.fft.fft(classes, axis=1)
    return (np.abs(amps) ** 2).sum(axis=0) / Q**2


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
        feed += m * d**t
    return feed


def semiclassical_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact outcome distribution of the semiclassical protocol.

    All branches run at once, breadth first: row b holds the unnormalised
    amplitudes over the orbit index i (accumulator a^i mod N) of the branch
    whose outcome so far is j mod d^t = b, which is also its phase feedback.
    The round multiply by a^(d^(e-1-t)) is a cyclic shift of i, and one
    einsum takes the (B, r) rows to (d*B, r) through the Hadamard, each
    row's feedback phase and the inverse Hadamard.  p(j) = |row j|^2.
    """
    d, N, a = spec.radix, spec.modulus, spec.base
    e = spec.exp_digits
    r = _order(a, N)
    hadamard = matrix_for_name("HBIN" if d == 2 else "H").matrix[:d, :d]
    inv_h = hadamard.conj().T
    rows = np.zeros((1, r), dtype=np.complex128)
    rows[0, 0] = 1.0
    for t in range(e):
        shift = pow(d, e - 1 - t, r)
        B = len(rows)
        phases = np.exp(-2j * np.pi * np.outer(np.arange(B), np.arange(d)) / d ** (t + 1))
        weights = inv_h[:, None, :] * phases[None] * hadamard[:, 0]   # (m, b, c)
        shifted = np.stack([np.roll(rows, c * shift, axis=1) for c in range(d)])
        rows = np.einsum("mbc,cbi->mbi", weights, shifted).reshape(d * B, r)
    return (np.abs(rows) ** 2).sum(axis=1)


# ------------------------------------------------------------ gate-level rounds

class _SparseState:
    """Sparse amplitude map over a wide register for semiclassical runs."""

    def __init__(self):
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
    ctrl, acc0 = 0, 1  # controlled_multiply's control and accumulator digit 0
    rng = np.random.default_rng(seed)
    state = _SparseState()
    state.apply(matrix_for_name("TAU1[0,1]" if d == 2 else "INC"), (acc0,))  # acc <- 1
    had = matrix_for_name("HBIN" if d == 2 else "H")
    had_inv = had.adjoint()
    feed = 0
    for t in range(e):
        mult = pow(a, d ** (e - 1 - t), N)
        state.apply(had, (ctrl,))
        if mult != 1:
            state.permute(controlled_multiply(spec.encoding, N, mult))
        state.apply(_phase_feedback(feed, t, d), (ctrl,))
        state.apply(had_inv, (ctrl,))
        m = state.measure(ctrl, rng)
        if m:
            state.apply(matrix_for_name("INC_INV" if m == 1 else "INC"), (ctrl,))
        feed += m * d**t
    return feed


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


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first twelve primes as bases decide n < 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return not any(pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
                   for b in bases)


def _perfect_power(N: int) -> tuple[int, int] | None:
    """(b, k) with b**k == N for the largest k >= 2, or None (exact for N < 2**53)."""
    for k in range(N.bit_length(), 1, -1):
        b = round(2 ** (log2(N) / k))
        if b**k == N:
            return b, k
    return None


def shor_factor(N: int, seed: int = 0, encoding: str = "binary",
                mode: str = "semiclassical", max_trials: int = 32) -> FactorReport:
    """Factor an odd composite by repeated period finding.

    Primes are rejected with ``SizeError``.  A perfect power b^k, every
    prime power among them, is answered classically with no period-finding
    attempt and logged as ``(b, "perfect-power", k)``.
    """
    if N % 2 == 0 or N < 9:
        raise SizeError("N must be an odd composite")
    if _is_prime(N):
        raise SizeError(f"N={N} is prime")
    power = _perfect_power(N)
    if power is not None:
        b, k = power
        return FactorReport((b, N // b), ((b, "perfect-power", k),), seed)
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
        p = gcd(y - 1, N)  # y^2 = 1 and y != +-1 mod N make this a proper factor
        if 1 < p < N:
            log.append((a, "ok", r))
            return FactorReport((p, N // p), tuple(log), seed)
        log.append((a, "degenerate", r))  # y = 1: r/2 is already a period
    return FactorReport(None, tuple(log), seed)
