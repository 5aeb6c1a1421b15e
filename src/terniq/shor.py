"""Period finding and factoring at desk scale.

Three period-finding executions are provided:

  * ``full-register``  -- the textbook pipeline: the uniform-exponent
    superposition with the modular-power value register, inverse Fourier
    transform, measurement; exact from one FFT over the residue classes of
    the exponent modulo the order of a.
  * ``semiclassical``  -- one control qudit recycled through 2n (or 2m)
    rounds of controlled modular multiplication with measurement-conditioned
    phase feedback.  There is one round, on rows of amplitudes over the
    orbit of a: the exact enumerator runs it on every branch at once, the
    sampler on the one branch it measures.  The sampler draws each outcome in
    Python floats with ``Generator.choice``'s operations through
    ``sim.choice_draw``, as ``sim`` measures, so every seed keeps its outcome.
  * ``semiclassical-gate`` -- the same round with each multiply read off its
    gate-level circuit: ``modexp.round_map`` walks the compiled controlled
    multiply over every control value and accumulator, checked.

The round's multiply is a move table over the orbit, built once per spec
from the residues y * mult^c mod N or from ``round_map``.  Outcome
conventions: round t measures the t-th least significant digit of j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log2

import numpy as np

from .errors import RoundMapError, SizeError, as_int
from .gates import matrix_for_name
from .modexp import ModExpSpec, round_map
from .sim import choice_draw, seeded_rng

MODES = ("semiclassical", "semiclassical-gate", "full-register")


# ------------------------------------------------------------ oracle pipeline

def _orbit(a: int, N: int) -> list[int]:
    """The orbit a^i mod N, i < r, of a coprime to N; r is the order of a."""
    orbit, y = [1], a % N
    while y != 1:
        orbit.append(y)
        y = y * a % N
    return orbit


def full_register_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact measurement distribution of the first register.

    Builds sum_k |k>|a^k mod N>, applies the inverse Fourier transform over
    Z_Q on the exponent register, and returns p(j).  The value register
    splits the exponents into the r residue classes k = i (mod r); one FFT
    of their (r, Q) indicator rows gives p(j) = sum_i |row_i(j)|^2 / Q^2.
    """
    Q = spec.radix**spec.exp_digits
    r = len(_orbit(spec.base, spec.modulus))
    k = np.arange(Q)
    classes = np.zeros((r, Q))
    classes[k % r, k] = 1.0
    amps = np.fft.fft(classes, axis=1)
    return (np.abs(amps) ** 2).sum(axis=0) / Q**2


# ------------------------------------------------------------ semiclassical

@lru_cache(maxsize=1024)   # factoring draws many bases; a table is e*d*r indices
def _move_table(spec: ModExpSpec, gate_level: bool) -> np.ndarray:
    """(e, d, r) gather table of the round multiplies over the orbit index.

    Round t multiplies the accumulator a^i mod N by mult^c for control value
    c, mult = a^(d^(e-1-t)): y * mult^c mod N, or its ``round_map`` with
    ``gate_level`` (no circuit when mult is 1).  ``row[moves[t, c]]`` is the
    row after it.  Raises ``RoundMapError`` unless it permutes the orbit.
    """
    d, N, a, e = spec.radix, spec.modulus, spec.base, spec.exp_digits
    orbit = np.array(_orbit(a, N))
    r = len(orbit)
    index = np.full(N, -1)
    index[orbit] = np.arange(r)
    mults = [pow(a, d ** (e - 1 - t), N) for t in range(e)]
    images = np.array([[pow(m, c, N) for c in range(d)] for m in mults])[:, :, None] * orbit % N
    if gate_level:  # the round multipliers repeat: one map per distinct one
        maps = {m: round_map(spec.encoding, N, m) for m in dict.fromkeys(mults) if m != 1}
        for t, mult in enumerate(mults):
            if mult != 1:
                images[t] = np.take(maps[mult], orbit, axis=1)
    targets = index[images]
    faults = np.argwhere((np.sort(targets, axis=2) != np.arange(r)).any(axis=2))
    if len(faults):
        t, c = faults[0]
        raise RoundMapError(f"{spec.encoding} multiply by {mults[t]} mod {N}, round {t}, "
                            f"control {c}: not a permutation of the orbit of {a}")
    moves = np.argsort(targets, axis=2)
    moves.flags.writeable = False
    return moves


@lru_cache(maxsize=None)   # keys (d, t): two radices, a few dozen rounds; callers only read
def _round_weights(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, c) Hadamard weights H^dagger[m, c] * H[c, 0]; round t's exponents -2 pi i c / d^(t+1)."""
    hadamard = matrix_for_name("HBIN" if d == 2 else "H").matrix[:d, :d]
    return hadamard.conj().T * hadamard[:, 0], np.arange(d) * (-2j * np.pi / d ** (t + 1))


def _round(rows: np.ndarray, feeds, moves_t: np.ndarray, t: int) -> np.ndarray:
    """Round t on (B, r) branch rows, or one (r,) row, over the orbit index; (d, [B,] r) children.

    ``feeds``, the branches' outcomes j mod d^t so far (a (B, 1) column, an int for one
    row), set the phase feedback; child m is the unnormalised row for control outcome m.
    One einsum applies the Hadamard, the multiply, the phase and the inverse.
    """
    hadamard, steps = _round_weights(len(moves_t), t)
    weights = np.exp(feeds * steps)[..., None, :] * hadamard   # ([B,] m, c)
    return np.einsum("...mc,...ci->m...i", weights, rows.take(moves_t, axis=-1))


def _sample(moves: np.ndarray, rng) -> int:
    """Run the rounds on one branch, drawing each control outcome; returns j."""
    e, d, r = moves.shape
    row, j = np.eye(1, r, dtype=np.complex128)[0], 0   # accumulator 1: orbit index 0
    for t in range(e):
        children = _round(row, j, moves[t], t)
        m = choice_draw((np.abs(children) ** 2).sum(axis=1).tolist() + [0.0] * (3 - d), rng)
        row = children[m]
        j += m * d**t
    return j


def _distribution(moves: np.ndarray) -> np.ndarray:
    """Run the rounds on every branch at once; row j mod d^t is branch j."""
    e, _, r = moves.shape
    rows = np.eye(1, r, dtype=np.complex128)
    for t in range(e):
        rows = _round(rows, np.arange(len(rows))[:, None], moves[t], t).reshape(-1, r)
    return (np.abs(rows) ** 2).sum(axis=1)


def semiclassical_period_rounds(spec: ModExpSpec, rng) -> int:
    """The recycled-control rounds with residue multiplies; returns j."""
    return _sample(_move_table(spec, False), rng)


def semiclassical_gate_run(spec: ModExpSpec, seed: int = 0) -> int:
    """The same rounds with each multiply read off its circuit by ``round_map``."""
    return _sample(_move_table(spec, True), seeded_rng(seed))


def semiclassical_distribution(spec: ModExpSpec) -> np.ndarray:
    """Exact outcome distribution p(j) of the semiclassical protocol."""
    return _distribution(_move_table(spec, False))


# ------------------------------------------------------------ classical post

@dataclass(frozen=True)
class PeriodCandidate:
    measurement: int
    register_modulus: int
    period: int | None
    verified: bool


def classical_postprocess(j: int, Q: int, N: int, a: int) -> PeriodCandidate:
    """Continued-fraction recovery of the period from a measurement 0 <= j < Q.

    Walks the convergents h/k of j/Q with k <= N; at each within 1/(2Q) of j/Q, the first
    multiple r < N of k with a^r = 1 mod N is the period.
    """
    Q, N, a = as_int(Q, "register modulus", 1), as_int(N, "modulus"), as_int(a, "base")
    j = as_int(j, "measurement", 0, Q - 1)
    if j == 0:
        return PeriodCandidate(j, Q, None, False)
    x, y, h0, h1, k0, k1 = j, Q, 0, 1, 1, 0
    while y:
        q, x, y = x // y, y, x % y
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        if k1 > N:
            break
        if 2 * abs(j * k1 - h1 * Q) <= k1:  # |j/Q - h/k| <= 1/(2Q)
            for r in range(k1, N, k1):
                if pow(a, r, N) == 1:
                    return PeriodCandidate(j, Q, r, True)
    return PeriodCandidate(j, Q, None, False)


def period_finding_run(spec: ModExpSpec, seed: int = 0,
                       mode: str = "semiclassical") -> PeriodCandidate:
    """One period-finding trial; returns the measurement and its candidate."""
    if mode not in MODES:
        raise SizeError(f"mode {mode!r}")
    Q = spec.radix**spec.exp_digits
    rng = seeded_rng(seed)
    if pow(spec.base, 1, spec.modulus) == 1:
        return PeriodCandidate(0, Q, 1, True)
    if mode == "full-register":
        p = full_register_distribution(spec)
        j = int(rng.choice(Q, p=p / p.sum()))
    else:
        j = _sample(_move_table(spec, mode == "semiclassical-gate"), rng)
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


def _factor_from_period(a: int, r: int, N: int) -> tuple[str, int | None]:
    """(outcome, factor) of y = a^(r/2) mod N, gcd(y - 1, N) for a period r.

    The outcome is ``odd-r``, ``trivial`` (y = -1), ``ok`` with the factor,
    or ``degenerate`` (y = 1: r/2 is already a period).
    """
    if r % 2:
        return "odd-r", None
    y = pow(a, r // 2, N)
    if y == N - 1:
        return "trivial", None
    p = gcd(y - 1, N)  # y^2 = 1 and y != +-1 mod N make this a proper factor
    return ("ok", p) if 1 < p < N else ("degenerate", None)


def shor_factor(N: int, seed: int = 0, encoding: str = "binary",
                mode: str = "semiclassical", max_trials: int = 32) -> FactorReport:
    """Factor an odd composite by repeated period finding.

    Primes and bad arguments raise ``SizeError`` before any draw.  A perfect power
    b^k, every prime power among them, is answered classically with no
    period-finding attempt and logged as ``(b, "perfect-power", k)``.
    """
    N = as_int(N, "N", 9)
    if N % 2 == 0 or _is_prime(N):
        raise SizeError(f"N={N} is {'even' if N % 2 == 0 else 'prime'}, not an odd composite")
    max_trials = as_int(max_trials, "max_trials", 1)
    if encoding not in ("binary", "ternary") or mode not in MODES:
        raise SizeError(f"encoding {encoding!r}, mode {mode!r}")
    rng = seeded_rng(seed)
    power = _perfect_power(N)
    if power is not None:
        b, k = power
        return FactorReport((b, N // b), ((b, "perfect-power", k),), seed)
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
        kind, p = _factor_from_period(a, cand.period, N)
        log.append((a, kind, cand.period))
        if p:
            return FactorReport((p, N // p), tuple(log), seed)
    return FactorReport(None, tuple(log), seed)
