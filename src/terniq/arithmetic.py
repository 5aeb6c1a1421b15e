"""Reversible constant adders, comparators, and modular additive shifts.

Both encodings are supported:

  * emulated binary -- integers live in the {|0>,|1>} subspace, one bit per
    qutrit; carries ride the third level through the two-qutrit Y gadgets.
  * ternary -- one trit per qutrit; per-digit carry gadgets cost one
    two-qutrit classical reflection (digit 1) or one strictly-controlled SUM
    (digits 0 and 2), 15 P9 either way.

One carry ladder serves both encodings: adders and comparators run the same
per-digit gadgets forward and unwind them digit by digit.  Every shift lays out
A, data, T if it has a carry-out (modular: T, x, marker), the controls, their
flags, then the pool: as many wires as its ternary ladders draw.

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
from itertools import count

from .circuit import Circuit, GateOp, adjoint_ops, gate_op
from .errors import SizeError, as_int, int_fields

TAU_01_20 = "TAU2[1,6]"  # |01> <-> |20| on a (carry, digit) pair


def digits_of(x: int, base: int, count: int) -> list[int]:
    return [(x // base**i) % base for i in range(count)]


def ones_weight(x: int, base: int = 3) -> int:
    """Number of digits 1 in ``x`` written in ``base``."""
    x, base, w = as_int(x, "ones_weight value", 0), as_int(base, "ones_weight base", 2), 0
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
        int_fields(self, digits=1, constant=None)
        if self.modulus is not None:
            int_fields(self, modulus=None)
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
            as_int(self.constant, "constant in the register", 0, base**self.digits - 1)
        else:
            as_int(self.constant, "modular constant a < N", 0, self.modulus - 1)
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
    a_bit = as_int(a_bit, "a_bit", 0, 1)
    return Circuit(2, tuple(y_ops(a_bit, 0, 1)), name=f"y{a_bit}")


# ---------------------------------------------------------------- carry ladder

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


class _Ladder:
    """Forward carry ladder of +a in either encoding.

    ``steps[i]`` is digit i's gadget (:func:`y_ops`, or :func:`ternary_carry_ops`
    drawing its ancilla from ``pool``) and ``locs[i]`` the wire its incoming
    carry sits on, so digit i unwinds as ``adjoint_ops(steps[i])``; ``top``
    holds the final carry.
    """

    def __init__(self, encoding: str, a: int, data, carry_in: int, pool=()):
        self.digits = digits_of(a, 2 if encoding == "binary" else 3, len(data))
        self.locs: list[int] = []
        self.steps: list[list[GateOp]] = []
        loc, free = carry_in, iter(pool)
        for d, b in zip(self.digits, data):
            self.locs.append(loc)
            anc = None if encoding == "binary" or d == 1 else next(free)
            self.steps.append(y_ops(d, loc, b) if encoding == "binary"
                              else ternary_carry_ops(d, loc, b, anc))
            loc = b if anc is None else anc
        self.top = loc
        self.ops = [op for step in self.steps for op in step]


class _Pool:
    """Ladder ancillas from wire ``start`` on.  Each ladder draws in order from
    ``start`` off a counter of its own, so the highest next wire of any counter
    ends the pool."""

    def __init__(self, start: int):
        self.start, self.counters = start, []

    def __iter__(self):
        self.counters.append(count(self.start))
        return self.counters[-1]


def _adder(named: int, emit, name: str, ancillas, data, carry_out, controls, result) -> AdderCircuit:
    """The shift of ops ``emit(pool)`` over ``named`` laid-out wires and the pool
    wires after them that its ternary ladders draw."""
    pool = _Pool(named)
    ops = tuple(emit(pool))
    stop = max(map(next, pool.counters), default=named)
    circ = Circuit(stop, ops, ancillas=frozenset({*ancillas, *range(named, stop)}), name=name)
    return AdderCircuit(circ, data, carry_out, controls, result)


# ---------------------------------------------------------------- binary adder

def binary_add_ops(a: int, data, carry_in: int, carry_out: int | None,
                   controls=(), markers=()) -> list[GateOp]:
    """Shift |b> -> |b + a mod 2^n> (carry XORed onto carry_out if given).

    The digit-sum stage is controlled on the binary ``controls``, with
    ``markers`` as the clean wires of :func:`mcx_ops`.
    """
    ladder = _Ladder("binary", a, data, carry_in)
    ops = list(ladder.ops)
    if carry_out is not None:
        ops += mcx_ops((*controls, ladder.top), carry_out, markers)
    for j in reversed(range(len(data))):
        ops += adjoint_ops(ladder.steps[j])
        if j >= 1:
            ops += mcx_ops((*controls, ladder.locs[j]), data[j], markers)
        if ladder.digits[j]:
            ops += mcx_ops(controls, data[j], markers)
    return ops


def _ripple(spec: ShiftSpec, name: str, emit) -> AdderCircuit:
    """Lay out A, data, T if the shift has a carry-out (a ternary double has
    none), the controls, their flags (binary: a marker each; ternary: u or the
    helper), then the pool; ``emit(data, A, carry_out, controls, flags, pool)``
    gives the ops."""
    n, k = spec.digits, ("none", "single", "double").index(spec.control)
    binary = spec.encoding == "binary"
    A, data, T = 0, tuple(range(1, n + 1)), n + 1 if binary or k < 2 else None
    first = n + 1 + (T is not None)
    layout = range(first, first + k + (k if binary else min(k, 1)))
    controls, flags = tuple(layout[:k]), layout[k:]
    return _adder(layout.stop, lambda pool: emit(data, A, T, controls, flags, pool), name,
                  {A, T, *flags} - {None}, data, T, controls, None)


def ripple_add_const(spec: ShiftSpec) -> AdderCircuit:
    """Emulated-binary ripple shift; 12n / 18n / 24n P9 by control level."""
    if spec.encoding != "binary" or spec.modulus is not None:
        raise SizeError("ripple_add_const: binary encoding, no modulus")

    def emit(data, A, T, controls, markers, _):
        ops = binary_add_ops(spec.constant, data, A, T, controls, markers)
        if controls and spec.control_mode == 0:
            ops = [gate_op("TAU1[0,1]", controls[0])] + ops + [gate_op("TAU1[0,1]", controls[0])]
        return ops
    return _ripple(spec, f"add{spec.constant}n{spec.digits}-{spec.control}", emit)


# ---------------------------------------------------------------- ternary adder

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
                    pool, u: int | None = None,
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
    ladder = _Ladder("ternary", a, data, carry_in, pool)
    ops = list(ladder.ops)
    if carry_out is not None:
        if u is None:
            ops += [gate_op("SUM", ladder.top, carry_out)]
        elif xor_top_marker is None:
            ops += [gate_op("L[SUM]", u, ladder.top, carry_out)]
        else:
            ops += mcx_ops((u, ladder.top), carry_out, (xor_top_marker,))
    for i in reversed(range(len(data))):
        ops += adjoint_ops(ladder.steps[i])
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


def ripple_add_const_ternary(spec: ShiftSpec) -> AdderCircuit:
    """Ternary ripple shift; 30m / 34m / 53m P9 by control level."""
    if spec.encoding != "ternary" or spec.modulus is not None:
        raise SizeError("ripple_add_const_ternary: ternary encoding, no modulus")
    m, mode = spec.digits, spec.control_mode
    a = spec.constant % 3**m
    # One strict lane C_f(S_a) per (level f, constant).  The c-fold shift is
    # Lambda(S_a) = C_1(S_a) C_2(S_{2a}), exact for c in {0,1,2}; its carry-out
    # reports the wrap of the branch-reduced constant, i.e. [b + (c*a mod 3^m) >= 3^m].
    if spec.control != "single":
        lanes, tag = ((mode, a),), "" if spec.control == "none" else "-double"
    elif mode == "ternary":
        lanes, tag = ((1, a), (2, (2 * a) % 3**m)), "-fold"
    else:
        lanes, tag = ((mode, a),), f"-c{mode}"

    def emit(data, A, T, controls, flags, pool):
        if spec.control == "none":
            return ternary_add_ops(a, data, A, T, pool)
        if spec.control == "double":
            # strict level f on the first control, multiplier on the second;
            # exact for multiplier values {0,1} (the ledgered 53m structure)
            return ternary_add_ops(a, data, A, T, pool,
                                   double=(controls[0], mode, controls[1], flags[0]))
        u = flags[0]
        return [op for f, c in lanes
                for op in strict_ops(f, controls[0], u, ternary_add_ops(c, data, A, T, pool, u=u))]
    return _ripple(spec, f"tadd{a}m{m}{tag}", emit)


# ---------------------------------------------------------------- comparators

def compare_ops(encoding: str, t: int, data, carry_in: int, result: int, pool=(),
                u: int | None = None, marker: int | None = None) -> list[GateOp]:
    """Flip ``result`` iff the register value >= t (XOR semantics).

    Compute-copy-uncompute: negate the digits, run the carry ladder of +t,
    copy the inverted top carry, unwind.  The register is restored.  ``u``
    (a binary wire, with a clean ``marker``) makes the flip strict.  The
    ternary ladder takes its ancillas from ``pool``.
    """
    ladder = _Ladder(encoding, t, data, carry_in, pool)
    negate = "TAU1[0,1]" if encoding == "binary" else "TAU1[0,2]"
    neg = [gate_op(negate, w) for w in data]
    us = () if u is None else (u,)
    update = mcx_ops(us, result) + mcx_ops((*us, ladder.top), result, (marker,))
    return neg + ladder.ops + update + adjoint_ops(ladder.ops) + neg


def compare_to_threshold(t: int, digits: int, encoding: str = "binary") -> AdderCircuit:
    """Standalone comparator: data wires 1..digits, result wire digits+1; the
    threshold t in [0, radix^digits)."""
    spec = ShiftSpec(t, digits, encoding)
    t, digits = spec.constant, spec.digits
    data, R = tuple(range(1, digits + 1)), digits + 1
    return _adder(R + 1, lambda pool: compare_ops(encoding, t, data, 0, R, pool),
                  f"cmp{t}-{encoding[0]}{digits}", {0}, data, None, (), R)


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
    ternary double: u2, d, u), then the pool wires the ternary adders draw.
    """
    if spec.modulus is None:
        raise SizeError("mod_add_const needs a modulus")
    N, a, dig, mode = spec.modulus, spec.constant % spec.modulus, spec.digits, spec.control_mode
    A, data, T, x, marker = 0, tuple(range(1, dig + 1)), dig + 1, dig + 2, dig + 3
    binary = spec.encoding == "binary"
    k = ("none", "single", "double").index(spec.control)
    folded = not binary and (k == 2 or mode == "ternary")
    n_flags = max(k - 1, 0) if binary else k + folded
    layout = range(dig + 4, dig + 4 + k + n_flags)
    controls, flags = tuple(layout[:k]), layout[k:]
    identity = a == 0 and spec.control != "double"
    wires = (*controls, *flags)
    u = wires[-1] if k else None   # the single binary control, or the last flag

    def emit(pool):
        if identity:
            return ()
        pro = []
        if k == 2:
            pro = and_ops(*controls, u) if binary else [gate_op(f"C{mode}[SUM]", *controls, flags[0])]
        ops = pro + mod_add_ops(spec.encoding, a, N, data, A, T, x, marker, pool, u=u,
                                fold=wires[-3:] if folded else None) + adjoint_ops(pro)
        if binary and k and mode == 0:
            return [gate_op("TAU1[0,1]", controls[0])] + ops + [gate_op("TAU1[0,1]", controls[0])]
        if k == 1 and not binary and not folded:
            return strict_ops(mode, controls[0], u, ops)
        return ops
    tag = ("-fold" if folded else f"-c{mode}") if k == 1 and not binary else "-" + "c" * k if k else ""
    name = "mod-add-identity" if identity else f"modadd{a}N{N}{'b' if binary else 't'}{tag}"
    return _adder(layout.stop, emit, name, {A, T, x, marker, *flags}, data, T, controls, None)
