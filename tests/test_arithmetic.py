import hashlib
from functools import cache
from itertools import chain, product

import numpy as np
import pytest

from conftest import assert_clean, classical_map, expected
from terniq.circuit import count_resources
from terniq.costmodel import trit_size
from terniq.errors import SizeError
from terniq.sim import circuit_unitary, index_of_trits, trits_of_index
from terniq.arithmetic import (
    ShiftSpec,
    compare_to_threshold,
    mod_add_const,
    ripple_add_const,
    ripple_add_const_ternary,
    ternary_carry_ops,
    ones_weight,
    y_gate,
)


# ------------------------------------------------------------ Y gadgets

def test_y_gate_names_its_bit_as_an_int():
    assert y_gate(True).name == "y1"
    with pytest.raises(SizeError):
        y_gate(1.0)


@pytest.mark.parametrize("x,base", [(-1, 3), (-5, 2), (1.5, 3), (5, 1), (5, 0)], ids=str)
def test_ones_weight_rejects_what_it_cannot_expand(x, base):
    # a negative x or a base below 2 never reaches 0 under x //= base
    with pytest.raises(SizeError):
        ones_weight(x, base)


@pytest.mark.parametrize("a", [0, 1])
def test_y_gate_carries(a):
    u = circuit_unitary(y_gate(a))
    for c in (0, 1):
        for b in (0, 1):
            col = u[:, index_of_trits([c, b])]
            out = trits_of_index(int(np.nonzero(np.abs(col) > 1e-10)[0][0]), 2)
            assert out[1] == (1 if c + a + b >= 2 else 0)


def test_y_gate_reversible():
    from terniq.circuit import compose, inverse
    for a in (0, 1):
        c = y_gate(a)
        u = circuit_unitary(compose(c, inverse(c)))
        assert np.allclose(u, np.eye(9), atol=1e-12)


def test_y_gate_p9_count():
    assert count_resources(y_gate(0)).p9_count == 3
    assert count_resources(y_gate(1)).p9_count == 3


# ------------------------------------------------------------ binary ripple

def test_binary_count_ledger():
    for n in (8, 12, 16):
        assert count_resources(ripple_add_const(ShiftSpec(5, n, "binary")).circuit).p9_count == 12 * n
    rc = count_resources(ripple_add_const(ShiftSpec(1, 12, "binary", control="single")).circuit)
    assert abs(rc.p9_count / 12 - 18) <= 1
    rc = count_resources(ripple_add_const(ShiftSpec(1, 12, "binary", control="double")).circuit)
    assert abs(rc.p9_count / 12 - 24) <= 1


def test_binary_depth_ledger():
    rc = count_resources(ripple_add_const(ShiftSpec(5, 8, "binary")).circuit)
    assert rc.p9_depth == 4 * 8


# ------------------------------------------------------------ ternary ripple

def test_table_carry_truth_rows():
    """Per-digit carry gadgets against the published truth tables."""
    from terniq.circuit import Circuit
    # a_i = 1: two-wire gadget, carry lands on the second wire
    u = circuit_unitary(Circuit(2, tuple(ternary_carry_ops(1, 0, 1, None))))
    rows_1 = {(0, 0): 0, (0, 1): 0, (0, 2): 1, (1, 0): 0, (1, 1): 1, (1, 2): 1}
    for (c, b), want in rows_1.items():
        col = u[:, index_of_trits([c, b])]
        out = trits_of_index(int(np.nonzero(np.abs(col) > 1e-10)[0][0]), 2)
        assert out[1] == want, (c, b)
    # a_i = 0 and a_i = 2: three-wire gadget, carry lands on the ancilla
    for digit, rows in ((0, {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 0, (1, 2): 1}),
                        (2, {(0, 0): 0, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1})):
        u = circuit_unitary(Circuit(3, tuple(ternary_carry_ops(digit, 0, 1, 2))))
        for (c, b), want in rows.items():
            col = u[:, index_of_trits([c, b, 0])]
            out = trits_of_index(int(np.nonzero(np.abs(col) > 1e-10)[0][0]), 3)
            assert out[2] == want and out[0] == c and out[1] == b, (digit, c, b)


def test_ternary_count_ledger():
    for m in (8, 12):
        assert count_resources(
            ripple_add_const_ternary(ShiftSpec(1, m, "ternary")).circuit).p9_count == 30 * m
    rc = count_resources(
        ripple_add_const_ternary(ShiftSpec(1, 12, "ternary", control="single")).circuit)
    assert abs(rc.p9_count / 12 - 34) <= 1
    rc = count_resources(
        ripple_add_const_ternary(ShiftSpec(1, 12, "ternary", control="double")).circuit)
    assert rc.p9_count == 53 * 12


def test_ternary_width_scaling():
    # A, m data trits, T and one pool wire per digit that is not 1: 2m + 2 - w1(a)
    for m in range(1, 6):
        for a in range(3**m):
            ac = ripple_add_const_ternary(ShiftSpec(a, m, "ternary"))
            assert ac.circuit.width == 2 * m + 2 - ones_weight(a), (m, a)


def test_digit_cost_per_trit_uniform():
    # every classical digit value costs one 15-P9 primitive in the ladder
    from terniq.circuit import Circuit
    for digit in (0, 1, 2):
        ops = ternary_carry_ops(digit, 0, 1, 2 if digit != 1 else None)
        width = 3 if digit != 1 else 2
        rc = count_resources(Circuit(width, tuple(ops)))
        assert rc.p9_count == 15


# ------------------------------------------------------------ comparator

@pytest.mark.parametrize("enc,base", [("binary", 2), ("ternary", 3)])
def test_comparator_refuses_thresholds_out_of_range(enc, base):
    D = base**3
    for t in (-1, D, D + 5):
        # t was reduced mod D: a comparator against another threshold
        with pytest.raises(SizeError, match="out-of-range"):
            compare_to_threshold(t, 3, enc)


# ------------------------------------------------------------ modular shifts

def digits_for(N, base):
    d = 1
    while base**d < 2 * N:
        d += 1
    return d


@pytest.mark.parametrize("encoding,control,mode", [
    ("binary", "none", 1), ("binary", "single", 0), ("binary", "single", 1),
    ("ternary", "none", 1), ("ternary", "single", 2), ("ternary", "single", "ternary"),
])
def test_mod_add_zero_keeps_the_layout(encoding, control, mode):
    # a = 0 is the identity on the wires of every other constant of the spec
    base, N = (2 if encoding == "binary" else 3), 13
    dig = digits_for(N, base)
    zero, one = (mod_add_const(ShiftSpec(a, dig, encoding, modulus=N, control=control,
                                         control_mode=mode)) for a in (0, 1))
    k = ("none", "single").index(control)
    assert len(zero.controls) == k and zero.controls == one.controls
    assert len(zero.circuit) == 0 and zero.circuit.ancillas
    for cv in product(range(base), repeat=k):
        for b, got, _, ot in classical_map(zero, base, range(N), controls=cv):
            assert got == b
            assert_clean(zero, ot, cv)


def test_mod_add_requires_headroom():
    with pytest.raises(SizeError):
        ShiftSpec(3, 3, "ternary", modulus=15)  # 3^3 < 2*15


@pytest.mark.parametrize("encoding,control,mode", [
    ("binary", "bogus", 1),
    ("ternary", "both", 1),
    ("binary", "single", 2),
    ("binary", "single", "ternary"),
    ("binary", "single", 7),
    ("binary", "double", 2),
    ("binary", "none", "ternary"),
    ("ternary", "double", "ternary"),
    ("ternary", "none", "ternary"),
    ("ternary", "single", 3),
    ("ternary", "single", None),
])
def test_shift_spec_rejects_unknown_controls(encoding, control, mode):
    with pytest.raises(SizeError, match="control"):
        ShiftSpec(5, 4, encoding, control=control, control_mode=mode)


@pytest.mark.parametrize("make", [
    lambda: ripple_add_const(ShiftSpec(0, 0)),
    lambda: ripple_add_const_ternary(ShiftSpec(0, 0, "ternary")),
    lambda: compare_to_threshold(0, 0),
    lambda: compare_to_threshold(1, -2, "ternary"),
    lambda: compare_to_threshold(1.5, 3),
    lambda: ShiftSpec(1.5, 3),
    lambda: ShiftSpec(1, 2.0),
    lambda: ShiftSpec(1, 4, modulus=7.0),
], ids=["binary no digits", "ternary no digits", "comparator no digits",
        "comparator negative digits", "comparator threshold", "constant", "digits", "modulus"])
def test_shift_spec_checks_its_fields(make):
    with pytest.raises(SizeError):
        make()


def test_compare_to_threshold_rejects_unknown_encoding():
    with pytest.raises(SizeError, match="quaternary"):
        compare_to_threshold(3, 4, "quaternary")


def test_trit_count():
    assert trit_size(4) == 3
    assert trit_size(16) == 11


def test_encoded_integer_and_leakage():
    from terniq.sim import run, product_state
    import numpy as np
    # the adder keeps binary registers binary at the boundary, even on
    # superposed inputs: no weight on a basis state with a data trit of 2
    ac = ripple_add_const(ShiftSpec(5, 4, "binary"))
    h = 1 / np.sqrt(2)
    factors = []
    for w in range(ac.circuit.width):
        factors.append(np.array([h, h, 0]) if w in ac.data else 0)
    rec = run(ac.circuit, product_state(factors), seed=0)
    trits = np.arange(3**ac.circuit.width)[:, None] // 3 ** np.array(ac.data) % 3
    leak = rec.state.probabilities()[(trits == 2).any(axis=1)].sum()
    assert leak < 1e-10


# ------------------------------------------------------------ the builder grid

_KINDS = {enc: [(c, f) for c in ("none", "single", "double") for f in modes]
          + ([("single", "ternary")] if enc == "ternary" else [])
          for enc, modes in (("binary", (0, 1)), ("ternary", (0, 1, 2)))}


def _modular_shifts(enc, N, dig):
    """Every modular shift mod N in ``enc`` on ``dig`` digits, every control kind and
    mode, as (spec, build) pairs."""
    for a in range(N):
        for control, mode in _KINDS[enc]:
            spec = ShiftSpec(a, dig, enc, modulus=N, control=control, control_mode=mode)
            yield spec, mod_add_const(spec)


@cache  # three tests walk the 1,619 builds: build them once
def _builder_grid():
    """Every builder, both encodings, every control kind and mode, small sizes, as a
    tuple of (spec, build) pairs; a comparator's spec is its threshold's."""
    return tuple(_grid_builds())


def _grid_builds():
    for enc, build, sizes in (("binary", ripple_add_const, (1, 2, 3, 4)),
                              ("ternary", ripple_add_const_ternary, (1, 2, 3))):
        base = 2 if enc == "binary" else 3
        for n in sizes:
            for a in range(base**n):
                for control, mode in _KINDS[enc]:
                    spec = ShiftSpec(a, n, enc, control=control, control_mode=mode)
                    yield spec, build(spec)
            for t in range(base**n):
                yield ShiftSpec(t, n, enc), compare_to_threshold(t, n, enc)
    for enc, moduli in (("binary", (2, 3, 5, 7, 13)), ("ternary", (2, 4, 5, 7, 13))):
        base = 2 if enc == "binary" else 3
        for N in moduli:
            for dig in (digits_for(N, base), digits_for(N, base) + 1):
                yield from _modular_shifts(enc, N, dig)


def test_every_grid_build_computes_its_spec():
    # every build of the grid and the N = 15 shifts on every data and control value
    builds = chain(_builder_grid(), _modular_shifts("binary", 15, digits_for(15, 2)),
                   _modular_shifts("ternary", 15, digits_for(15, 3)))
    fold_branches, skipped = set(), 0
    for spec, ac in builds:
        base = 2 if spec.encoding == "binary" else 3
        for cv in product(range(base), repeat=len(ac.controls)):
            want = expected(spec, ac, cv)
            if want is None:
                skipped += 1
                continue
            got = {b: out for b, _, _, out in classical_map(ac, base, want, cv)}
            assert got == want, (ac.circuit.name, cv)
        if spec.control_mode == "ternary" and spec.modulus and spec.constant:
            fold_branches.add(2 * spec.constant < spec.modulus)
    # the ternary c-fold compiles two ways; the one skip per ternary double ripple shift
    # (39 constants at m <= 3, three strict levels) is its firing level at multiplier 2
    assert fold_branches == {True, False} and skipped == 117


def test_builder_outputs_are_pinned():
    # one digest per encoding over the text, layout and ancillas of every build in the
    # grid; the binary one recorded before a comparator threshold of radix^digits was
    # refused, the ternary one when builds stopped laying out wires that no op touches
    from terniq.textfmt import serialize
    digests = {enc: [0, hashlib.sha256()] for enc in ("binary", "ternary")}
    for spec, ac in _builder_grid():
        fields = (ac.data, ac.controls, ac.carry_out, ac.result,
                  sorted(ac.circuit.ancillas), ac.circuit.width)
        digests[spec.encoding][0] += 1
        digests[spec.encoding][1].update(serialize(ac.circuit).encode() + repr(fields).encode())
    assert {enc: (count, h.hexdigest()) for enc, (count, h) in digests.items()} == {
        "binary": (570, "1ca442b1e7ff7d87ccc17579dabea5f0551be0d5212423cb5849fe0b2f090dfd"),
        "ternary": (1049, "aee5fac9060d08f47427f6bdd0c360d9431e4a31d1d87b94b4ede931b502a166"),
    }


def test_every_wire_is_touched_or_named():
    # a build lays out its named wires (A, data, T, modular x and marker, the controls,
    # then their flags) and only the pool wires that its ops draw
    for spec, ac in _builder_grid():
        k, binary = ("none", "single", "double").index(spec.control), spec.encoding == "binary"
        named = {0, *ac.data, *ac.controls, ac.carry_out, ac.result} - {None}
        if spec.modulus is None:
            n_flags = k if binary else min(k, 1)
        else:
            named |= {ac.data[-1] + 2, ac.data[-1] + 3}
            n_flags = max(k - 1, 0) if binary else k + (k == 2 or spec.control_mode == "ternary")
        named |= set(range(max(named) + 1, max(named) + 1 + n_flags))
        touched = {w for op in ac.circuit.instructions for w in op.wires}
        assert set(range(ac.circuit.width)) <= touched | named, ac.circuit.name
