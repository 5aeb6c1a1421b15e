"""Reversible constant adders, comparators, and modular additive shifts.

Both encodings are supported:

  * emulated binary -- integers live in the {|0>,|1>} subspace, one bit per
    qutrit; carries ride the third level through the two-qutrit Y gadgets.
  * ternary -- one trit per qutrit; per-digit carry gadgets cost one
    two-qutrit classical reflection (digit 1) or one strictly-controlled SUM
    (digits 0 and 2), 15 P9 either way.

Gates are emitted as costed primitives (C?[INC], C?[SUM], TAU2[..], L[SUM]),
which keeps every instruction a basis permutation so that the classical
simulator path can verify circuits exhaustively.  Every controlled NOT on
binary data comes from :func:`mcx_ops`, which folds the controls pairwise
into clean markers with :func:`and_ops`: X, CNOT (6 P9), Toffoli (12 P9),
controlled Toffoli (18 P9).  The widgets module expands these costed lists
into their explicit P9-level networks.

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

from dataclasses import dataclass

from .circuit import Circuit, GateOp, adjoint_ops, gate_op
from .errors import SizeError

TAU_01_20 = "TAU2[1,6]"  # |01> <-> |20| on a (carry, digit) pair


def digits_of(x: int, base: int, count: int) -> list[int]:
    return [(x // base**i) % base for i in range(count)]


def ones_weight(x: int, base: int = 3) -> int:
    w = 0
    while x:
        w += (x % base) == 1
        x //= base
    return w


@dataclass(frozen=True)
class ShiftSpec:
    """Compile-time description of an additive shift |b> -> |b + a>.

    ``control`` is ``"none"``, ``"single"`` or ``"double"``.
    ``control_mode`` is the strict activation level of the first control:
    0 or 1 on binary registers, 0, 1 or 2 on ternary ones, or ``"ternary"``
    for the c-fold shift of a ternary single control.  Double controls
    follow the modular-exponentiation convention: one strict level plus one
    multiplier control.
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
        if self.control not in ("none", "single", "double"):
            raise SizeError(f"control {self.control!r}")
        modes = (0, 1) if self.encoding == "binary" else (0, 1, 2)
        if self.encoding == "ternary" and self.control == "single":
            modes += ("ternary",)
        if self.control_mode not in modes:
            raise SizeError(f"control_mode {self.control_mode!r} for a {self.encoding} "
                            f"{self.control} control; expected one of {modes}")
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
    carry_out: int | None
    controls: tuple[int, ...] = ()
    result: int | None = None          # comparator output wire
    ladder_blocks: int = 1             # carry-ladder passes (reporting)


# ---------------------------------------------------------------- binary controlled NOT

def and_ops(c1: int, c2: int, marker: int) -> list[GateOp]:
    """XOR c1 AND c2 of two binary controls onto ``marker``; 3 P9.

    SUM takes c2 to 2 exactly when both controls are 1, and C2[INC] marks it.
    Its adjoint restores c2 and a clean marker.
    """
    return [gate_op("SUM", c1, c2), gate_op("C2[INC]", c2, marker)]


def mcx_ops(controls, target: int, markers=()) -> list[GateOp]:
    """NOT on binary ``target`` iff every binary control is 1.

    No control is X; one is CNOT, two costed binary-controlled increments
    (6 P9).  Each further control first ANDs the leading two into the next
    clean marker: Toffoli 12 P9, controlled Toffoli 18 P9.  Needs one clean
    marker per control beyond the first; all are restored.
    """
    if len(markers) < len(controls) - 1:
        raise SizeError(f"{len(controls)} controls need {len(controls) - 1} markers")
    if not controls:
        return [gate_op("TAU1[0,1]", target)]
    if len(controls) == 1:
        c, t = controls[0], target
        return [
            gate_op("SUM_INV", t, c), gate_op("TAU1[1,2]", c), gate_op("TAU1[1,2]", t),
            gate_op("C1[INC_INV]", c, t), gate_op("C1[INC]", t, c),
            gate_op("TSWAP", c, t), gate_op("TAU1[1,2]", c), gate_op("TAU1[1,2]", t),
            gate_op("SUM", t, c),
        ]
    pro = and_ops(controls[0], controls[1], markers[0])
    return pro + mcx_ops((markers[0], *controls[2:]), target, markers[1:]) + adjoint_ops(pro)


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

def binary_add_ops(a: int, data, carry_in: int, carry_out: int | None,
                   controls=(), markers=()) -> list[GateOp]:
    """Shift |b> -> |b + a mod 2^n> (carry XORed onto carry_out if given).

    The digit-sum stage is controlled on the binary ``controls``, with
    ``markers`` as the clean wires of :func:`mcx_ops`.
    """
    n = len(data)
    bits = digits_of(a, 2, n)
    prev = [carry_in] + list(data[:-1])
    ops: list[GateOp] = []
    for j in range(n):
        ops += y_ops(bits[j], prev[j], data[j])
    if carry_out is not None:
        ops += mcx_ops((*controls, data[n - 1]), carry_out, markers)
    for j in reversed(range(n)):
        ops += adjoint_ops(y_ops(bits[j], prev[j], data[j]))
        if j >= 1:
            ops += mcx_ops((*controls, prev[j]), data[j], markers)
        if bits[j]:
            ops += mcx_ops(controls, data[j], markers)
    return ops


def ripple_add_const(spec: ShiftSpec) -> AdderCircuit:
    """Emulated-binary ripple shift; 12n / 18n / 24n P9 by control level."""
    if spec.encoding != "binary" or spec.modulus is not None:
        raise SizeError("ripple_add_const: binary encoding, no modulus")
    n = spec.digits
    A, data, T = 0, tuple(range(1, n + 1)), n + 1
    w = n + 2
    k = {"none": 0, "single": 1, "double": 2}[spec.control]
    controls, markers = tuple(range(w, w + k)), tuple(range(w + k, w + 2 * k))
    ops = binary_add_ops(spec.constant, data, A, T, controls, markers)
    if controls and spec.control_mode == 0:
        ops = [gate_op("TAU1[0,1]", controls[0])] + ops + [gate_op("TAU1[0,1]", controls[0])]
    circ = Circuit(w + 2 * k, tuple(ops), ancillas=frozenset({A, T, *markers}),
                   name=f"add{spec.constant}n{n}-{spec.control}")
    return AdderCircuit(circ, data, T, controls)


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


def strict_ops(level: int, control: int, flag: int, body) -> list[GateOp]:
    """``body``, controlled on the clean binary ``flag``, made strict on
    ``control == level``: C_level[INC] marks the level on ``flag`` and its
    adjoint clears it."""
    return [gate_op(f"C{level}[INC]", control, flag), *body,
            gate_op(f"C{level}[INC]_INV", control, flag)]


def ternary_add_ops(a: int, data, carry_in: int, carry_out: int | None,
                    pool: list[int], u: int | None = None,
                    double: tuple[int, int, int, int] | None = None,
                    xor_top_marker: int | None = None) -> list[GateOp]:
    """Ternary shift |b> -> |b + a mod 3^m>, optionally controlled.

    ``u``: binary marker wire making the digit-sum stage strict (Horner
    finalizers).  ``double``: (strict wire, strict level, multiplier wire,
    helper) for the C_f(Lambda(SUM)) finalizer structure, which has no
    carry-out stage.  When ``xor_top_marker`` is given with ``u`` the top
    carry is XORed onto ``carry_out`` (Toffoli) instead of added, for use
    inside modular blocks.
    """
    ladder = _TernaryLadder(a, data, carry_in, pool)
    ops = list(ladder.ops)
    if carry_out is not None:
        if u is None:
            ops += [gate_op("SUM", ladder.top, carry_out)]
        elif xor_top_marker is None:
            ops += [gate_op("L[SUM]", u, ladder.top, carry_out)]
        else:
            ops += mcx_ops((u, ladder.top), carry_out, (xor_top_marker,))
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
        ops = ternary_add_ops(a, data, A, T, pool)
        circ = Circuit(pool[-1] + 1, tuple(ops), ancillas=frozenset({A, T, *pool}),
                       name=f"tadd{a}m{m}")
        return AdderCircuit(circ, data, T)

    if spec.control == "single":
        # One strict lane C_f(S_a) per (level f, constant).  The c-fold shift
        # is Lambda(S_a) = C_1(S_a) C_2(S_{2a}), exact for c in {0,1,2}; its
        # carry-out reports the wrap of the branch-reduced constant, i.e.
        # [b + (c*a mod 3^m) >= 3^m].
        kap, u = nxt, nxt + 1
        if spec.control_mode == "ternary":
            lanes, name = ((1, a), (2, (2 * a) % D)), f"tadd{a}m{m}-fold"
        else:
            lanes, name = ((spec.control_mode, a),), f"tadd{a}m{m}-c{spec.control_mode}"
        pool = list(range(nxt + 2, nxt + 2 + _pool_size([c for _, c in lanes], m)))
        ops = []
        for f, const in lanes:
            ops += strict_ops(f, kap, u, ternary_add_ops(const, data, A, T, pool, u=u))
        circ = Circuit(pool[-1] + 1, tuple(ops), ancillas=frozenset({A, T, u, *pool}),
                       name=name)
        return AdderCircuit(circ, data, T, (kap,), ladder_blocks=len(lanes))

    # double: strict level f on the first control, multiplier on the second;
    # exact for multiplier values {0,1} (the ledgered 53m structure).
    # No carry-out stage: modular use wraps this in its own carry logic.
    kap1, kap2, helper = nxt, nxt + 1, nxt + 2
    pool = list(range(nxt + 3, nxt + 3 + _pool_size([a], m)))
    ops = ternary_add_ops(a, data, A, None, pool,
                          double=(kap1, spec.control_mode, kap2, helper))
    circ = Circuit(pool[-1] + 1, tuple(ops), ancillas=frozenset({A, helper, *pool}),
                   name=f"tadd{a}m{m}-double")
    return AdderCircuit(circ, data, None, (kap1, kap2))


# ---------------------------------------------------------------- comparators

def compare_ops(encoding: str, t: int, data, carry_in: int, result: int, pool=(),
                u: int | None = None, marker: int | None = None) -> list[GateOp]:
    """Flip ``result`` iff the register value >= t (XOR semantics).

    Compute-copy-uncompute: negate the digits, run the carry ladder of +t,
    copy the inverted top carry, unwind.  The register is restored.  ``u``
    (a binary wire, with a clean ``marker``) makes the flip strict.  The
    ternary ladder takes its ancillas from ``pool``.
    """
    if encoding == "binary":
        n = len(data)
        bits = digits_of(t % 2**n, 2, n)
        prev = [carry_in] + list(data[:-1])
        negate = "TAU1[0,1]"
        ladder = [op for j in range(n) for op in y_ops(bits[j], prev[j], data[j])]
        top = data[-1]
    else:
        negate = "TAU1[0,2]"
        tl = _TernaryLadder(t % 3**len(data), data, carry_in, pool)
        ladder, top = tl.ops, tl.top
    neg = [gate_op(negate, w) for w in data]
    us = () if u is None else (u,)
    update = mcx_ops(us, result) + mcx_ops((*us, top), result, (marker,))
    return neg + ladder + update + adjoint_ops(ladder) + neg


def compare_to_threshold(t: int, digits: int, encoding: str = "binary") -> AdderCircuit:
    """Standalone comparator: data wires 1..digits, result wire digits+1."""
    if encoding not in ("binary", "ternary"):
        raise SizeError(f"encoding {encoding!r}")
    A, data, R = 0, tuple(range(1, digits + 1)), digits + 1
    npool = 0 if encoding == "binary" else _pool_size([t % 3**digits], digits)
    pool = list(range(R + 1, R + 1 + npool))
    ops = compare_ops(encoding, t, data, A, R, pool)
    circ = Circuit(R + 1 + npool, tuple(ops), ancillas=frozenset({A, *pool}),
                   name=f"cmp{t}-{encoding[0]}{digits}")
    return AdderCircuit(circ, data, None, result=R)


# ---------------------------------------------------------------- modular shifts

def mod_add_ops(encoding: str, a: int, N: int, data, A: int, T: int, x: int, marker: int,
                pool=(), u: int | None = None,
                fold: tuple[int, int, int] | None = None) -> list[GateOp]:
    """|b> -> |(b + a) mod N> for b < N in either encoding; A, T, x restored.

    Speculative +(a-N), carry copied to x, +N correction controlled on x,
    comparator against threshold a cleans x.  ``u`` (binary wire) makes the
    whole shift strict.  The ternary adders take their ancillas from
    ``pool``.  ``fold`` (ternary): (kappa, d, u_aux) implements
    |b> -> |(b + c*a) mod N> for the ternary control c on kappa: d marks
    c != 0, and each speculative lane and comparator threshold runs strictly
    on u_aux for one level f of c.  It is compiled on the 2a<N branch with
    the extra strict +N lane and threshold c*a, else with threshold c(a-N)+N.
    """
    if encoding == "binary":
        D = 2**len(data)

        def add(w, ctl):
            return binary_add_ops(w, data, A, T, () if ctl is None else (ctl,), (marker,))
    else:
        D = 3**len(data)

        def add(w, ctl):
            return ternary_add_ops(w, data, A, T, pool, u=ctl, xor_top_marker=marker)
    if fold is None:
        kappa, flag = None, u
        lanes, thresholds = [(None, (a - N) % D)], [(None, a)]
    else:
        kappa, flag, u = fold
        branch = 2 * a < N
        lanes = [(1, (a - N) % D), (2, (2 * (a - N)) % D)] + ([(2, N % D)] if branch else [])
        thresholds = [(1, a), (2, 2 * a if branch else 2 * a - N)]

    def lane(f, body):
        return body if f is None else strict_ops(f, kappa, u, body)

    pro = [] if fold is None else [gate_op("C1[INC]", kappa, flag), gate_op("C2[INC]", kappa, flag)]
    ops = list(pro)
    for f, w in lanes:
        ops += lane(f, add(w, u))
    ops += mcx_ops(() if flag is None else (flag,), T)
    ops += [gate_op("SUM", T, x)]
    ops += add(N % D, x)
    for f, t in thresholds:
        ops += lane(f, compare_ops(encoding, t, data, A, x, pool, u=u, marker=marker))
    return ops + adjoint_ops(pro)


def mod_add_const(spec: ShiftSpec) -> AdderCircuit:
    """Modular additive shift |b> -> |(b + c*a) mod N> for b < N.

    Requires b < N at input (documented precondition, not checked).  Wires:
    A, data, T, x, marker, then the controls, then the wires they fold into
    (binary double: the AND flag u; ternary strict: u; ternary c-fold: d, u;
    ternary double: u2, d, u), then the ternary constant pool.
    """
    if spec.modulus is None:
        raise SizeError("mod_add_const needs a modulus")
    N, a, dig, mode = spec.modulus, spec.constant % spec.modulus, spec.digits, spec.control_mode
    A, data, T, x, marker = 0, tuple(range(1, dig + 1)), dig + 1, dig + 2, dig + 3
    binary = spec.encoding == "binary"
    k = ("none", "single", "double").index(spec.control)
    folded = not binary and (k == 2 or mode == "ternary")
    n_flags = max(k - 1, 0) if binary else k + folded
    D = 3**dig
    npool = 0 if binary else _pool_size([(a - N) % D, (2 * (a - N)) % D, N % D, a % D,
                                         (2 * a) % D, abs(2 * a - N) % D], dig)
    layout = range(dig + 4, dig + 4 + k + n_flags + npool)
    controls, flags, pool = tuple(layout[:k]), layout[k:k + n_flags], list(layout[k + n_flags:])
    ancillas = frozenset({A, T, x, marker, *flags, *pool})
    if a == 0 and spec.control != "double":
        return AdderCircuit(Circuit(dig + 4 + len(layout), (), ancillas=ancillas,
                                    name="mod-add-identity"), data, T, controls, ladder_blocks=0)
    wires = (*controls, *flags)
    u = wires[-1] if k else None   # the single binary control, or the last flag
    pro = []
    if k == 2:
        pro = and_ops(*controls, u) if binary else [gate_op(f"C{mode}[SUM]", *controls, flags[0])]
    ops = pro + mod_add_ops(spec.encoding, a, N, data, A, T, x, marker, pool, u=u,
                            fold=wires[-3:] if folded else None) + adjoint_ops(pro)
    tag = "-" + "c" * k if k else ""
    if binary and k and mode == 0:
        ops = [gate_op("TAU1[0,1]", controls[0])] + ops + [gate_op("TAU1[0,1]", controls[0])]
    elif k == 1 and folded:
        tag = "-fold"
    elif k == 1 and not binary:
        tag, ops = f"-c{mode}", strict_ops(mode, controls[0], u, ops)
    circ = Circuit(dig + 4 + len(layout), tuple(ops), ancillas=ancillas,
                   name=f"modadd{a}N{N}{'b' if binary else 't'}{tag}")
    # a c-fold shift has its strict lanes, the +N correction and two comparators
    blocks = 3 if binary else ((4 if 2 * a < N else 3) + 2 if folded else 4)
    return AdderCircuit(circ, data, T, controls, ladder_blocks=blocks)
