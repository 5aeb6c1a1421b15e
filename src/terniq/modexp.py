"""Modular exponentiation circuits |k>|1> -> |k>|a^k mod N>.

The accumulator product is built digit by digit from the exponent register:
for each exponent digit, an out-of-place controlled modular multiply writes
acc * A^(k_j) into a fresh register through doubly-controlled modular
additive shifts with precomputed constants, the registers are swapped, and
the stale copy is uncomputed with the inverse multiplier.

Binary exponent digits select the multiply with one strict control; ternary
digits are handled as the strict pair C_1(S_1) C_2(S_2), with the residual
digit-value multiplication decomposed into strict branches as well, so the
circuit is exact on every basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .circuit import Circuit, GateOp, _check_fields, adjoint_ops, gate_op
from .errors import RoundMapError, SizeError
from .sim import CompiledCircuit, compile_classical, index_of_trits, run_compiled, trits_of_index
from .arithmetic import and_ops, mcx_ops, mod_add_ops, strict_ops, _pool_size


@dataclass(frozen=True)
class ModExpSpec:
    base: int
    modulus: int
    encoding: str = "binary"
    exponent_digits: int | None = None   # default 2n (or 2m)

    def __post_init__(self):
        _check_fields(self, "base", "modulus")
        if self.exponent_digits is not None:
            _check_fields(self, "exponent_digits")
        if self.modulus < 2:
            raise SizeError(f"modulus {self.modulus} < 2")
        if gcd(self.base, self.modulus) != 1:
            raise SizeError(f"gcd({self.base},{self.modulus}) != 1")
        if self.encoding not in ("binary", "ternary"):
            raise SizeError(self.encoding)

    @property
    def radix(self) -> int:
        return 2 if self.encoding == "binary" else 3

    @property
    def value_digits(self) -> int:
        """Digits of the value registers: smallest with radix^digits >= 2N."""
        d = 1
        while self.radix**d < 2 * self.modulus:
            d += 1
        return d

    @property
    def exp_digits(self) -> int:
        if self.exponent_digits is not None:
            return self.exponent_digits
        n = 1
        while self.radix**n < self.modulus:
            n += 1
        return 2 * n


@dataclass(frozen=True)
class ModExpLayout:
    circuit: Circuit
    exponent: tuple[int, ...]
    accumulator: tuple[int, ...]
    scratch: tuple[int, ...]
    dctrl_shift_count: int


@dataclass(frozen=True)
class _Registers:
    """modexp wires in order: exponent, acc, acc2, then the scratch A, T, x,
    marker and mu (binary) or u1, u and the ternary adders' constant pool."""

    exponent: tuple[int, ...]
    acc: tuple[int, ...]
    acc2: tuple[int, ...]
    scratch: tuple[int, ...]


def _registers(spec: ModExpSpec) -> _Registers:
    N, e, v = spec.modulus, spec.exp_digits, spec.value_digits
    n_scratch = 5 if spec.encoding == "binary" else 6 + _pool_size(
        [(w - N) % 3**v for w in range(N)] + [N % 3**v], v)
    s = e + 2 * v
    return _Registers(tuple(range(e)), tuple(range(e, e + v)), tuple(range(e + v, s)),
                      tuple(range(s, s + n_scratch)))


def _binary_ctrl_mult_ops(kappa, regs, mult, N):
    """acc2 (=0) <- d_kappa * acc * mult; then swap; then uncompute acc2.

    The uncompute pass adds acc * (-mult^-1), which clears acc2 after the swap.
    """
    acc, acc2 = regs.acc, regs.acc2
    A, T, x, marker, mu = regs.scratch
    ops: list[GateOp] = []
    shifts = 0
    for uncompute, sign in enumerate((1, -1)):
        factor = sign * pow(mult, sign, N)
        for ell in range(len(acc)):
            w = (2**ell * factor) % N
            if w == 0:
                continue
            pro = and_ops(kappa, acc[ell], mu)
            ops += pro + mod_add_ops("binary", w, N, acc2, A, T, x, marker, u=mu) + adjoint_ops(pro)
            shifts += 1
        if not uncompute:
            for ell in range(len(acc)):   # controlled swap of acc and acc2
                swap = mcx_ops((acc2[ell],), acc[ell])
                ops += swap + mcx_ops((kappa, acc[ell]), acc2[ell], (marker,)) + swap
    return ops, shifts


def _ternary_ctrl_mult_ops(kappa, regs, a_pow, N):
    """Ternary-digit controlled multiply: acc2 <- acc * a_pow^(k) for k on kappa.

    As in the binary multiply, the uncompute pass adds acc * (-a_pow^-f).
    """
    acc, acc2 = regs.acc, regs.acc2
    A, T, x, marker, u1, u, *pool = regs.scratch
    m = len(acc)
    ops: list[GateOp] = []
    shifts = 0
    for uncompute, sign in enumerate((1, -1)):
        for f in (1, 2):
            factor = sign * pow(a_pow, sign * f, N)
            body: list[GateOp] = []
            for ell in range(m):
                for gval in (1, 2):
                    w = (gval * 3**ell * factor) % N
                    if w == 0:
                        continue
                    body += [gate_op(f"C{gval}[SUM]", acc[ell], u1, u)]
                    body += mod_add_ops("ternary", w, N, acc2, A, T, x, marker, pool, u=u)
                    body += [gate_op(f"C{gval}[SUM]_INV", acc[ell], u1, u)]
                    shifts += 1
            ops += strict_ops(f, kappa, u1, body)
        if uncompute:
            ops += [gate_op("C0[SUM]_INV", kappa, acc[ell], acc2[ell]) for ell in range(m)]
        else:
            # k = 0 branch: digitwise copy, then swap
            ops += [gate_op("C0[SUM]", kappa, acc[ell], acc2[ell]) for ell in range(m)]
            ops += [gate_op("TSWAP", acc[ell], acc2[ell]) for ell in range(m)]
    return ops, shifts


def _ctrl_mult_ops(spec: ModExpSpec, regs: _Registers, kappa: int, mult: int):
    build = _binary_ctrl_mult_ops if spec.encoding == "binary" else _ternary_ctrl_mult_ops
    return build(kappa, regs, mult, spec.modulus)


def modexp_circuit(spec: ModExpSpec) -> ModExpLayout:
    """Full-register modular exponentiation circuit."""
    N, base, d = spec.modulus, spec.base, spec.radix
    regs = _registers(spec)
    ops = [gate_op("TAU1[0,1]" if d == 2 else "INC", regs.acc[0])]  # acc <- 1
    total_shifts = 0
    for j, kappa in enumerate(regs.exponent):
        mult = pow(base, d**j, N)
        if mult == 1:
            continue
        sub, shifts = _ctrl_mult_ops(spec, regs, kappa, mult)
        ops += sub
        total_shifts += shifts
    circ = Circuit(regs.scratch[-1] + 1, tuple(ops),
                   ancillas=frozenset(regs.acc2) | frozenset(regs.scratch),
                   name=f"modexp-{base}^k mod {N}-{spec.encoding}")
    return ModExpLayout(circ, regs.exponent, regs.acc, regs.scratch, total_shifts)


@lru_cache(maxsize=16)
def controlled_multiply(encoding: str, N: int, multiplier: int) -> CompiledCircuit:
    """Compiled acc <- acc * multiplier^c, one semiclassical round's multiply.

    Wires as in ``modexp_circuit`` with a one-digit exponent: the control c
    on wire 0, the accumulator from wire 1, least significant digit first.
    """
    spec = ModExpSpec(multiplier, N, encoding, exponent_digits=1)
    regs = _registers(spec)
    ops, _ = _ctrl_mult_ops(spec, regs, regs.exponent[0], multiplier)
    return compile_classical(Circuit(regs.scratch[-1] + 1, tuple(ops)))


@lru_cache(maxsize=16)
def round_map(encoding: str, N: int, mult: int) -> tuple[tuple[int, ...], ...]:
    """``table[c][acc]``: the accumulator ``controlled_multiply`` leaves.

    Walks the compiled multiply once for every control value c < d and every
    acc < N with clean scratch.  Raises ``RoundMapError``, naming c and acc,
    unless the control comes back unchanged, acc2 and the scratch back at 0,
    and acc as digits < d of a value < N.
    """
    comp = controlled_multiply(encoding, N, mult)
    spec = ModExpSpec(mult, N, encoding, exponent_digits=1)
    d, v = spec.radix, spec.value_digits
    table = []
    for c in range(d):
        row = []
        for acc in range(N):
            trits = [c] + [acc // d**j % d for j in range(v)] + [0] * (comp.width - 1 - v)
            out = trits_of_index(run_compiled(comp, index_of_trits(trits)), comp.width)
            got = sum(t * d**j for j, t in enumerate(out[1:1 + v]))
            fault = ("the control changed" if out[0] != c
                     else "acc2 or scratch left non-zero" if any(out[1 + v:])
                     else "acc out of range" if max(out[1:1 + v]) >= d or got >= N else None)
            if fault:
                raise RoundMapError(f"{encoding} multiply by {mult} mod {N}, "
                                    f"control {c}, acc {acc}: {fault}")
            row.append(got)
        table.append(tuple(row))
    return tuple(table)
