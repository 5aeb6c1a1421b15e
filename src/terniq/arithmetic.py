"""Reversible constant adders, comparators, and modular additive shifts.

Both encodings are supported:

  * emulated binary -- integers live in the {|0>,|1>} subspace, one bit per
    qutrit; carries ride the third level through the two-qutrit Y gadgets.
  * ternary -- one trit per qutrit; per-digit carry gadgets cost one
    two-qutrit classical reflection (digit 1) or one strictly-controlled SUM
    (digits 0 and 2), 15 P9 either way.

Gates are emitted as costed primitives (C?[INC], C?[SUM], TAU2[..], L[SUM]),
which keeps every instruction a basis permutation so that the classical
simulator path can verify circuits exhaustively.  The widgets module pins
each primitive to its explicit P9-level network.

Controlled shift variants attach controls to the digit-sum stage only; the
carry ladder always runs and is always undone.  Strict (binary-activated)
controls are exact for every control value.  The ternary-fold variant
(shift by c*a for a ternary control c) is built from two strict blocks via
Lambda(U) = C_1(U) C_2(U)^2.  The ``double`` ternary variant keeps the
C_f(Lambda(SUM)) finalizer structure of the 53m ledger; its multiplier
control is exact on {0,1} (see the modular-exponentiation module for the
strict-strict decomposition used when full ternary multipliers are needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log

from .circuit import Circuit, GateOp, adjoint_ops, gate_op
from .errors import SizeError

TAU_01_20 = "TAU2[1,6]"  # |01> <-> |20| on a (carry, digit) pair


def trit_count(n_bits: int) -> int:
    """Trits needed for an n-bit range."""
    return ceil(log(2.0, 3.0) * n_bits)


def digits_of(x: int, base: int, count: int) -> list[int]:
    return [(x // base**i) % base for i in range(count)]


def ones_weight(x: int, base: int = 3) -> int:
    w = 0
    while x:
        w += (x % base) == 1
        x //= base
    return w


@dataclass(frozen=True)
class EncodedInteger:
    """Wire map of an integer register: digit i of the value on wires[i].

    Emulated-binary registers promise {|0>,|1>} support on their wires at
    circuit boundaries; :func:`binary_leakage` measures violations.
    """

    encoding: str
    wires: tuple[int, ...]

    def __post_init__(self):
        if self.encoding not in ("binary", "ternary"):
            raise SizeError(f"encoding {self.encoding!r}")

    @property
    def digits(self) -> int:
        return len(self.wires)

    def value_of(self, trits) -> int:
        base = 2 if self.encoding == "binary" else 3
        return sum(trits[w] * base**i for i, w in enumerate(self.wires))


def binary_leakage(state, wires) -> float:
    """Total amplitude weight outside the binary subspace of the wires."""
    import numpy as np
    probs = np.abs(state.amps) ** 2
    idx = np.arange(len(probs))
    leak = np.zeros(len(probs), dtype=bool)
    for w in wires:
        leak |= (idx // 3**w) % 3 == 2
    return float(probs[leak].sum())


@dataclass(frozen=True)
class ShiftSpec:
    """Compile-time description of an additive shift |b> -> |b + a>.

    ``control`` is ``"none"``, ``"single"`` or ``"double"``; for single
    controls ``control_mode`` is a strict activation level (0, 1 or 2) or
    ``"ternary"`` for the c-fold shift.  Double controls follow the
    modular-exponentiation convention: one strict level plus one multiplier
    control.
    """

    constant: int
    digits: int
    encoding: str = "binary"
    modulus: int | None = None
    control: str = "none"
    control_mode: int | str = 1

    def __post_init__(self):
        if self.encoding not in ("binary", "ternary"):
            raise SizeError(f"encoding {self.encoding!r}")
        base = 2 if self.encoding == "binary" else 3
        if self.modulus is None:
            if not 0 <= self.constant < base**self.digits:
                raise SizeError("constant out of register range")
        else:
            if not 0 <= self.constant < self.modulus:
                raise SizeError("modular constant must satisfy a < N")
            if base**self.digits < 2 * self.modulus:
                raise SizeError(f"need base^digits >= 2N; got {base**self.digits} < {2 * self.modulus}")


@dataclass(frozen=True)
class AdderCircuit:
    """A built shift circuit plus its wire layout."""

    circuit: Circuit
    data: tuple[int, ...]
    carry_in: int
    carry_out: int | None
    controls: tuple[int, ...] = ()
    result: int | None = None          # comparator output wire
    ladder_blocks: int = 1             # carry-ladder passes (reporting)
    spec: ShiftSpec | None = None
    ancilla_pool: tuple[int, ...] = field(default=())


# ---------------------------------------------------------------- primitives

def cnot_prim_ops(c: int, t: int) -> list[GateOp]:
    """CNOT on binary data as two costed binary-controlled increments."""
    return [
        gate_op("SUM_INV", t, c), gate_op("TAU1[1,2]", c), gate_op("TAU1[1,2]", t),
        gate_op("C1[INC_INV]", c, t), gate_op("C1[INC]", t, c),
        gate_op("TSWAP", c, t), gate_op("TAU1[1,2]", c), gate_op("TAU1[1,2]", t),
        gate_op("SUM", t, c),
    ]


def toffoli_prim_ops(c1: int, c2: int, t: int, marker: int) -> list[GateOp]:
    """Toffoli on binary data; 12 P9 with one clean marker wire."""
    return (
        [gate_op("SUM", c1, c2), gate_op("C2[INC]", c2, marker)]
        + cnot_prim_ops(marker, t)
        + [gate_op("C2[INC]_INV", c2, marker), gate_op("SUM_INV", c1, c2)]
    )


def ctrl_toffoli_prim_ops(c1: int, c2: int, c3: int, t: int, m2: int, m1: int) -> list[GateOp]:
    """Binary-controlled Toffoli; 18 P9 with two clean markers."""
    return (
        [gate_op("SUM", c1, c2), gate_op("C2[INC]", c2, m2)]
        + toffoli_prim_ops(m2, c3, t, m1)
        + [gate_op("C2[INC]_INV", c2, m2), gate_op("SUM_INV", c1, c2)]
    )


def y_ops(a_bit: int, c: int, b: int) -> list[GateOp]:
    """Carry gadget: |c_j, b_j> -> |c'_j, c_{j+1}> for the classical bit a_j."""
    if a_bit == 0:
        return [gate_op("TAU1[0,1]", c), gate_op("SUM", b, c), gate_op("C2[INC]_INV", c, b)]
    return [gate_op("TAU1[0,1]", b), gate_op("SUM", b, c), gate_op("TAU1[0,1]", b), gate_op("C2[INC]", c, b)]


def y_gate(a_bit: int) -> Circuit:
    """The Y carry gadget on wires (carry 0, data 1); 3 P9 gates."""
    if a_bit not in (0, 1):
        raise SizeError("a_bit must be 0 or 1")
    return Circuit(2, tuple(y_ops(a_bit, 0, 1)), name=f"y{a_bit}")


# ---------------------------------------------------------------- binary adder

class _BinaryStages:
    """Digit-sum emitters for the chosen control configuration."""

    def __init__(self, control_wires: tuple[int, ...], markers: tuple[int, ...]):
        self.controls = control_wires
        self.markers = markers

    def sum_gate(self, c: int, b: int) -> list[GateOp]:
        if not self.controls:
            return cnot_prim_ops(c, b)
        if len(self.controls) == 1:
            return toffoli_prim_ops(self.controls[0], c, b, self.markers[0])
        return ctrl_toffoli_prim_ops(self.controls[0], self.controls[1], c, b,
                                     self.markers[0], self.markers[1])

    def abit_gate(self, b: int) -> list[GateOp]:
        if not self.controls:
            return [gate_op("TAU1[0,1]", b)]
        if len(self.controls) == 1:
            return cnot_prim_ops(self.controls[0], b)
        return toffoli_prim_ops(self.controls[0], self.controls[1], b, self.markers[0])


def binary_add_ops(a: int, data, carry_in: int, carry_out: int | None,
                   stages: _BinaryStages) -> list[GateOp]:
    """Shift |b> -> |b + a mod 2^n> (carry XORed onto carry_out if given)."""
    n = len(data)
    bits = digits_of(a, 2, n)
    prev = [carry_in] + list(data[:-1])
    ops: list[GateOp] = []
    for j in range(n):
        ops += y_ops(bits[j], prev[j], data[j])
    if carry_out is not None:
        ops += stages.sum_gate(data[n - 1], carry_out)
    for j in reversed(range(n)):
        ops += adjoint_ops(y_ops(bits[j], prev[j], data[j]))
        if j >= 1:
            ops += stages.sum_gate(prev[j], data[j])
        if bits[j]:
            ops += stages.abit_gate(data[j])
    return ops


def ripple_add_const(spec: ShiftSpec) -> AdderCircuit:
    """Emulated-binary ripple shift; 12n / 18n / 24n P9 by control level."""
    if spec.encoding != "binary" or spec.modulus is not None:
        raise SizeError("ripple_add_const: binary encoding, no modulus")
    n = spec.digits
    A, data, T = 0, tuple(range(1, n + 1)), n + 1
    w = n + 2
    controls: tuple[int, ...] = ()
    markers: tuple[int, ...] = ()
    if spec.control == "single":
        controls, markers = (w,), (w + 1,)
        w += 2
    elif spec.control == "double":
        controls, markers = (w, w + 1), (w + 2, w + 3)
        w += 4
    stages = _BinaryStages(controls, markers)
    ops = binary_add_ops(spec.constant, data, A, T, stages)
    if spec.control == "single" and spec.control_mode == 0:
        ops = [gate_op("TAU1[0,1]", controls[0])] + ops + [gate_op("TAU1[0,1]", controls[0])]
    circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, *markers}),
                   name=f"add{spec.constant}n{n}-{spec.control}")
    return AdderCircuit(circ, data, A, T, controls, spec=spec)


# ---------------------------------------------------------------- ternary adder

def ternary_carry_ops(digit: int, c_loc: int, b: int, anc: int | None) -> list[GateOp]:
    """Per-digit carry gadget; 15 P9 for every classical digit value."""
    if digit == 1:
        return [gate_op("TSWAP", c_loc, b), gate_op(TAU_01_20, c_loc, b)]
    if digit == 0:
        return [gate_op("C2[SUM]", b, c_loc, anc)]
    return [
        gate_op("TAU1[0,1]", c_loc), gate_op("INC_INV", b),
        gate_op("C2[SUM]", b, c_loc, anc),
        gate_op("INC", b), gate_op("TAU1[0,1]", c_loc), gate_op("TAU1[0,1]", anc),
    ]


class _TernaryLadder:
    """Forward carry ladder for one shift constant, with unwind info."""

    def __init__(self, a: int, data, carry_in: int, pool: list[int]):
        m = len(data)
        self.digits = digits_of(a, 3, m)
        self.data = list(data)
        self.locs: list[int] = []
        self.ancs: list[int | None] = []
        self.ops: list[GateOp] = []
        loc = carry_in
        it = iter(pool)
        for i in range(m):
            self.locs.append(loc)
            if self.digits[i] == 1:
                self.ops += ternary_carry_ops(1, loc, data[i], None)
                self.ancs.append(None)
                loc = data[i]
            else:
                anc = next(it)
                self.ops += ternary_carry_ops(self.digits[i], loc, data[i], anc)
                self.ancs.append(anc)
                loc = anc
        self.top = loc

    def digit_unwind(self, i: int) -> list[GateOp]:
        return adjoint_ops(ternary_carry_ops(self.digits[i], self.locs[i],
                                             self.data[i], self.ancs[i]))


def _inc_pow_ops(wire: int, d: int) -> list[GateOp]:
    if d == 1:
        return [gate_op("INC", wire)]
    if d == 2:
        return [gate_op("INC_INV", wire)]
    return []


def ternary_add_ops(a: int, data, carry_in: int, carry_out: int | None,
                    pool: list[int], u: int | None = None,
                    double: tuple[int, int, int, int] | None = None,
                    xor_top_marker: int | None = None) -> list[GateOp]:
    """Ternary shift |b> -> |b + a mod 3^m>, optionally controlled.

    ``u``: binary marker wire making the digit-sum stage strict (Horner
    finalizers).  ``double``: (strict wire, strict level, multiplier wire,
    helper) for the C_f(Lambda(SUM)) finalizer structure.  When
    ``xor_top_marker`` is given the top carry is XORed onto ``carry_out``
    (Toffoli) instead of added, for use inside modular blocks.
    """
    ladder = _TernaryLadder(a, data, carry_in, pool)
    ops = list(ladder.ops)
    if carry_out is not None:
        if double is not None:
            kap, f, mult, helper = double
            ops += [gate_op("L[SUM]", mult, ladder.top, helper),
                    gate_op(f"C{f}[SUM]", kap, helper, carry_out),
                    gate_op("L[SUM]_INV", mult, ladder.top, helper)]
        elif u is not None:
            if xor_top_marker is not None:
                ops += toffoli_prim_ops(u, ladder.top, carry_out, xor_top_marker)
            else:
                ops += [gate_op("L[SUM]", u, ladder.top, carry_out)]
        else:
            ops += [gate_op("SUM", ladder.top, carry_out)]
    for i in reversed(range(len(data))):
        ops += ladder.digit_unwind(i)
        d = ladder.digits[i]
        loc = ladder.locs[i]
        if double is not None:
            kap, f, mult, helper = double
            ops += _inc_pow_ops(loc, d)
            ops += [gate_op("L[SUM]", mult, loc, helper),
                    gate_op(f"C{f}[SUM]", kap, helper, data[i]),
                    gate_op("L[SUM]_INV", mult, loc, helper)]
            ops += _inc_pow_ops(loc, (3 - d) % 3)
        elif u is not None:
            ops += _inc_pow_ops(loc, d)
            ops += [gate_op("L[SUM]", u, loc, data[i])]
            ops += _inc_pow_ops(loc, (3 - d) % 3)
        else:
            ops += [gate_op("SUM", loc, data[i])]
            ops += _inc_pow_ops(data[i], d)
    return ops


def _pool_size(constants, m: int) -> int:
    need = 1
    for c in constants:
        need = max(need, m - ones_weight(c % 3**m))
    return need


def ripple_add_const_ternary(spec: ShiftSpec) -> AdderCircuit:
    """Ternary ripple shift; 30m / 34m / 53m P9 by control level."""
    if spec.encoding != "ternary" or spec.modulus is not None:
        raise SizeError("ripple_add_const_ternary: ternary encoding, no modulus")
    m = spec.digits
    D = 3**m
    A, data, T = 0, tuple(range(1, m + 1)), m + 1
    nxt = m + 2
    a = spec.constant % D

    if spec.control == "none":
        pool = list(range(nxt, nxt + _pool_size([a], m)))
        w = (pool[-1] + 1) if pool else nxt
        ops = ternary_add_ops(a, data, A, T, pool)
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, *pool}),
                       name=f"tadd{a}m{m}")
        return AdderCircuit(circ, data, A, T, spec=spec, ancilla_pool=tuple(pool))

    if spec.control == "single" and spec.control_mode in (0, 1, 2):
        kap, u = nxt, nxt + 1
        pool = list(range(nxt + 2, nxt + 2 + _pool_size([a], m)))
        w = pool[-1] + 1
        f = spec.control_mode
        ops = ([gate_op(f"C{f}[INC]", kap, u)]
               + ternary_add_ops(a, data, A, T, pool, u=u)
               + [gate_op(f"C{f}[INC]_INV", kap, u)])
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, u, *pool}),
                       name=f"tadd{a}m{m}-c{f}")
        return AdderCircuit(circ, data, A, T, (kap,), spec=spec, ancilla_pool=tuple(pool))

    if spec.control == "single" and spec.control_mode == "ternary":
        # c-fold shift: Lambda(S_a) = C_1(S_a) C_2(S_{2a}); exact for c in
        # {0,1,2}.  The carry-out reports the wrap of the branch-reduced
        # constant, i.e. [b + (c*a mod 3^m) >= 3^m].
        kap, u = nxt, nxt + 1
        a2 = (2 * a) % D
        pool = list(range(nxt + 2, nxt + 2 + _pool_size([a, a2], m)))
        w = pool[-1] + 1
        ops = []
        for f, const in ((1, a), (2, a2)):
            ops += [gate_op(f"C{f}[INC]", kap, u)]
            ops += ternary_add_ops(const, data, A, T, pool, u=u)
            ops += [gate_op(f"C{f}[INC]_INV", kap, u)]
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, u, *pool}),
                       name=f"tadd{a}m{m}-fold")
        return AdderCircuit(circ, data, A, T, (kap,), spec=spec,
                            ladder_blocks=2, ancilla_pool=tuple(pool))

    if spec.control == "double":
        # strict level f on the first control, multiplier on the second;
        # exact for multiplier values {0,1} (the ledgered 53m structure).
        # No carry-out stage: modular use wraps this in its own carry logic.
        f = spec.control_mode if isinstance(spec.control_mode, int) else 1
        kap1, kap2, helper = nxt, nxt + 1, nxt + 2
        pool = list(range(nxt + 3, nxt + 3 + _pool_size([a], m)))
        w = pool[-1] + 1
        ops = ternary_add_ops(a, data, A, None, pool,
                              double=(kap1, f, kap2, helper))
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, helper, *pool}),
                       name=f"tadd{a}m{m}-double")
        return AdderCircuit(circ, data, A, None, (kap1, kap2), spec=spec, ancilla_pool=tuple(pool))

    raise SizeError(f"control {spec.control!r} / {spec.control_mode!r}")


# ---------------------------------------------------------------- comparators

def binary_compare_ops(t: int, data, carry_in: int, result: int,
                       u: int | None = None, marker: int | None = None) -> list[GateOp]:
    """Flip ``result`` iff the register value >= t (XOR semantics).

    Compute-copy-uncompute: negate, run the carry ladder of +t, copy the
    inverted top carry, unwind.  The register is restored.
    """
    n = len(data)
    bits = digits_of(t % 2**n, 2, n)
    prev = [carry_in] + list(data[:-1])
    neg = [gate_op("TAU1[0,1]", w) for w in data]
    ladder: list[GateOp] = []
    for j in range(n):
        ladder += y_ops(bits[j], prev[j], data[j])
    top = data[n - 1]
    if u is None:
        update = [gate_op("TAU1[0,1]", result)] + cnot_prim_ops(top, result)
    else:
        update = cnot_prim_ops(u, result) + toffoli_prim_ops(u, top, result, marker)
    return neg + ladder + update + adjoint_ops(ladder) + neg


def ternary_compare_ops(t: int, data, carry_in: int, result: int, pool: list[int],
                        u: int | None = None, marker: int | None = None) -> list[GateOp]:
    """Ternary-encoding comparator; same structure on trit-negated data."""
    m = len(data)
    neg = [gate_op("TAU1[0,2]", w) for w in data]
    ladder = _TernaryLadder(t % 3**m, data, carry_in, pool)
    if u is None:
        update = [gate_op("TAU1[0,1]", result)] + cnot_prim_ops(ladder.top, result)
    else:
        update = cnot_prim_ops(u, result) + toffoli_prim_ops(u, ladder.top, result, marker)
    return neg + ladder.ops + update + adjoint_ops(ladder.ops) + neg


def compare_to_threshold(t: int, digits: int, encoding: str = "binary") -> AdderCircuit:
    """Standalone comparator: data wires 1..digits, result wire digits+1."""
    A, data, R = 0, tuple(range(1, digits + 1)), digits + 1
    if encoding == "binary":
        ops = binary_compare_ops(t, data, A, R)
        circ = Circuit(digits + 2, tuple(ops), ancillas=frozenset({A}),
                       name=f"cmp{t}-b{digits}")
        return AdderCircuit(circ, data, A, None, result=R)
    pool = list(range(digits + 2, digits + 2 + _pool_size([t % 3**digits], digits)))
    ops = ternary_compare_ops(t, data, A, R, pool)
    circ = Circuit(pool[-1] + 1, tuple(ops), ancillas=frozenset({A, *pool}),
                   name=f"cmp{t}-t{digits}")
    return AdderCircuit(circ, data, A, None, result=R, ancilla_pool=tuple(pool))


# ---------------------------------------------------------------- modular shifts

def mod_add_binary_ops(a: int, N: int, data, A: int, T: int, x: int, marker: int,
                       u: int | None = None) -> list[GateOp]:
    """|b> -> |(b + d_u * a) mod N> for b < N; ancillas A, T, x restored.

    Speculative +(a-N), carry copied to x, +N correction controlled on x,
    comparator against threshold a cleans x.  ``u`` (binary wire) makes the
    whole shift strict.
    """
    n = len(data)
    D = 2**n
    w1 = (a - N) % D
    stage0 = _BinaryStages(() if u is None else (u,), () if u is None else (marker,))
    stage_x = _BinaryStages((x,), (marker,))
    ops = binary_add_ops(w1, data, A, T, stage0)
    if u is None:
        ops += [gate_op("TAU1[0,1]", T)]
    else:
        ops += cnot_prim_ops(u, T)
    ops += [gate_op("SUM", T, x)]
    ops += binary_add_ops(N % D, data, A, T, stage_x)
    ops += binary_compare_ops(a, data, A, x, u=u, marker=marker)
    return ops


def _tern_strict_block(w: int, data, A, T, pool, u, marker) -> list[GateOp]:
    return ternary_add_ops(w, data, A, T, pool, u=u, xor_top_marker=marker)


def mod_add_ternary_ops(a: int, N: int, data, A: int, T: int, x: int, marker: int,
                        pool: list[int], u: int | None = None,
                        fold: tuple[int, int, int] | None = None) -> list[GateOp]:
    """Ternary modular shift.

    ``u`` (binary wire): strict shift by a.  ``fold``: (kappa, d, u_aux)
    implements |b> -> |(b + c*a) mod N> for the ternary control c on kappa,
    compiled on the 2a<N branch with the extra strict +N lane and threshold
    c*a, else with threshold c(a-N)+N.
    """
    m = len(data)
    D = 3**m
    w1 = (a - N) % D
    ops: list[GateOp] = []
    if fold is None and u is None:
        ops += ternary_add_ops(w1, data, A, T, pool)
        ops += [gate_op("TAU1[0,1]", T), gate_op("SUM", T, x)]
        ops += _tern_strict_block(N % D, data, A, T, pool, x, marker)
        ops += ternary_compare_ops(a, data, A, x, pool)
        return ops
    if fold is None:
        ops += _tern_strict_block(w1, data, A, T, pool, u, marker)
        ops += cnot_prim_ops(u, T)
        ops += [gate_op("SUM", T, x)]
        ops += _tern_strict_block(N % D, data, A, T, pool, x, marker)
        ops += ternary_compare_ops(a, data, A, x, pool, u=u, marker=marker)
        return ops
    kappa, d, u_aux = fold
    branch = 2 * a < N
    lanes = [(1, (a - N) % D), (2, (2 * (a - N)) % D)]
    if branch:
        lanes.append((2, N % D))
    thresholds = ((1, a), (2, 2 * a if branch else 2 * a - N))
    ops += [gate_op("C1[INC]", kappa, d), gate_op("C2[INC]", kappa, d)]
    for f, wv in lanes:
        ops += [gate_op(f"C{f}[INC]", kappa, u_aux)]
        ops += _tern_strict_block(wv, data, A, T, pool, u_aux, marker)
        ops += [gate_op(f"C{f}[INC]_INV", kappa, u_aux)]
    ops += cnot_prim_ops(d, T)
    ops += [gate_op("SUM", T, x)]
    ops += _tern_strict_block(N % D, data, A, T, pool, x, marker)
    for f, t in thresholds:
        ops += [gate_op(f"C{f}[INC]", kappa, u_aux)]
        ops += ternary_compare_ops(t, data, A, x, pool, u=u_aux, marker=marker)
        ops += [gate_op(f"C{f}[INC]_INV", kappa, u_aux)]
    ops += [gate_op("C2[INC]_INV", kappa, d), gate_op("C1[INC]_INV", kappa, d)]
    return ops


def mod_add_const(spec: ShiftSpec) -> AdderCircuit:
    """Modular additive shift |b> -> |(b + c*a) mod N> for b < N.

    Requires b < N at input (documented precondition, not checked).
    """
    if spec.modulus is None:
        raise SizeError("mod_add_const needs a modulus")
    N, a = spec.modulus, spec.constant % spec.modulus
    dig = spec.digits
    A, data = 0, tuple(range(1, dig + 1))
    T, x = dig + 1, dig + 2

    if spec.encoding == "binary":
        marker = dig + 3
        nxt = dig + 4
        if a == 0 and spec.control != "double":
            circ = Circuit(nxt, (), name="mod-add-identity")
            return AdderCircuit(circ, data, A, T, spec=spec, ladder_blocks=0)
        if spec.control == "none":
            ops = mod_add_binary_ops(a, N, data, A, T, x, marker)
            circ = Circuit(nxt, tuple(ops), ancillas=frozenset({A, T, x, marker}),
                           name=f"modadd{a}N{N}b")
            return AdderCircuit(circ, data, A, T, spec=spec, ladder_blocks=3)
        if spec.control == "single":
            kap = nxt
            ops = mod_add_binary_ops(a, N, data, A, T, x, marker, u=kap)
            if spec.control_mode == 0:
                ops = [gate_op("TAU1[0,1]", kap)] + ops + [gate_op("TAU1[0,1]", kap)]
            circ = Circuit(nxt + 1, tuple(ops), ancillas=frozenset({A, T, x, marker}),
                           name=f"modadd{a}N{N}b-c")
            return AdderCircuit(circ, data, A, T, (kap,), spec=spec, ladder_blocks=3)
        if spec.control == "double":
            kap1, kap2, mu = nxt, nxt + 1, nxt + 2
            pro = [gate_op("SUM", kap1, kap2), gate_op("C2[INC]", kap2, mu)]
            ops = pro + mod_add_binary_ops(a, N, data, A, T, x, marker, u=mu) + adjoint_ops(pro)
            circ = Circuit(nxt + 3, tuple(ops), ancillas=frozenset({A, T, x, marker, mu}),
                           name=f"modadd{a}N{N}b-cc")
            return AdderCircuit(circ, data, A, T, (kap1, kap2), spec=spec, ladder_blocks=3)
        raise SizeError(f"control {spec.control!r}")

    # ternary encoding
    marker = dig + 3
    nxt = dig + 4
    consts = [(a - N) % 3**dig, (2 * (a - N)) % 3**dig, N % 3**dig, a % 3**dig,
              (2 * a) % 3**dig, abs(2 * a - N) % 3**dig]
    npool = _pool_size(consts, dig)
    if a == 0 and spec.control != "double":
        circ = Circuit(nxt, (), name="mod-add-identity")
        return AdderCircuit(circ, data, A, T, spec=spec, ladder_blocks=0)
    if spec.control == "none":
        pool = list(range(nxt, nxt + npool))
        w = pool[-1] + 1
        ops = mod_add_ternary_ops(a, N, data, A, T, x, marker, pool)
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, x, marker, *pool}),
                       name=f"modadd{a}N{N}t")
        return AdderCircuit(circ, data, A, T, spec=spec, ladder_blocks=4,
                            ancilla_pool=tuple(pool))
    if spec.control == "single" and spec.control_mode in (0, 1, 2):
        kap, u = nxt, nxt + 1
        pool = list(range(nxt + 2, nxt + 2 + npool))
        w = pool[-1] + 1
        f = spec.control_mode
        ops = ([gate_op(f"C{f}[INC]", kap, u)]
               + mod_add_ternary_ops(a, N, data, A, T, x, marker, pool, u=u)
               + [gate_op(f"C{f}[INC]_INV", kap, u)])
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, x, marker, u, *pool}),
                       name=f"modadd{a}N{N}t-c{f}")
        return AdderCircuit(circ, data, A, T, (kap,), spec=spec, ladder_blocks=4,
                            ancilla_pool=tuple(pool))
    if spec.control == "single" and spec.control_mode == "ternary":
        kap, d, u = nxt, nxt + 1, nxt + 2
        pool = list(range(nxt + 3, nxt + 3 + npool))
        w = pool[-1] + 1
        ops = mod_add_ternary_ops(a, N, data, A, T, x, marker, pool, fold=(kap, d, u))
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, x, marker, d, u, *pool}),
                       name=f"modadd{a}N{N}t-fold")
        blocks = (4 if 2 * a < N else 3) + 2  # strict lanes + +N + comparators
        return AdderCircuit(circ, data, A, T, (kap,), spec=spec, ladder_blocks=blocks,
                            ancilla_pool=tuple(pool))
    if spec.control == "double":
        f = spec.control_mode if isinstance(spec.control_mode, int) else 1
        kap1, kap2 = nxt, nxt + 1
        u2, d, u = nxt + 2, nxt + 3, nxt + 4
        pool = list(range(nxt + 5, nxt + 5 + npool))
        w = pool[-1] + 1
        pro = [gate_op(f"C{f}[SUM]", kap1, kap2, u2)]
        ops = (pro
               + mod_add_ternary_ops(a, N, data, A, T, x, marker, pool, fold=(u2, d, u))
               + adjoint_ops(pro))
        circ = Circuit(w, tuple(ops), ancillas=frozenset({A, T, x, marker, u2, d, u, *pool}),
                       name=f"modadd{a}N{N}t-cc")
        return AdderCircuit(circ, data, A, T, (kap1, kap2), spec=spec,
                            ladder_blocks=(4 if 2 * a < N else 3) + 2,
                            ancilla_pool=tuple(pool))
    raise SizeError(f"control {spec.control!r}")
