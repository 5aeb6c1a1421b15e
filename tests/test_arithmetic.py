from itertools import product

import numpy as np
import pytest

from conftest import assert_clean, classical_map
from terniq.circuit import count_resources
from terniq.costmodel import trit_size
from terniq.errors import SizeError
from terniq.gates import matrix_for_name
from terniq.sim import circuit_unitary, index_of_trits, trits_of_index
from terniq.arithmetic import (
    ShiftSpec,
    compare_to_threshold,
    mod_add_const,
    ripple_add_const,
    ripple_add_const_ternary,
    ternary_carry_ops,
    y_gate,
)


# ------------------------------------------------------------ Y gadgets

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

def test_binary_adder_exhaustive_n4():
    n = 4
    for a in range(2**n):
        ac = ripple_add_const(ShiftSpec(a, n, "binary"))
        for b, got, carry, ot in classical_map(ac, 2, range(2**n)):
            tot = a + b
            assert got == tot % 2**n and carry == tot >> n
            assert_clean(ac, ot)


def test_binary_adder_zero_is_identity():
    ac = ripple_add_const(ShiftSpec(0, 4, "binary"))
    for b, got, carry, ot in classical_map(ac, 2, range(16)):
        assert got == b and carry == 0


@pytest.mark.parametrize("cv", [(0,), (1,)])
def test_binary_adder_single_control(cv):
    n = 4
    for a in range(2**n):
        ac = ripple_add_const(ShiftSpec(a, n, "binary", control="single"))
        for b, got, carry, ot in classical_map(ac, 2, range(2**n), controls=cv):
            tot = b + cv[0] * a
            assert got == tot % 2**n and carry == tot >> n
            assert_clean(ac, ot, cv)


def test_binary_adder_control_level_zero():
    ac = ripple_add_const(ShiftSpec(5, 4, "binary", control="single", control_mode=0))
    for b, got, carry, ot in classical_map(ac, 2, range(16), controls=(0,)):
        assert got == (b + 5) % 16
    for b, got, carry, ot in classical_map(ac, 2, range(16), controls=(1,)):
        assert got == b


@pytest.mark.parametrize("cv", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_binary_adder_double_control(cv):
    n = 4
    for a in (0, 1, 5, 11, 15):
        ac = ripple_add_const(ShiftSpec(a, n, "binary", control="double"))
        for b, got, carry, ot in classical_map(ac, 2, range(2**n), controls=cv):
            tot = b + cv[0] * cv[1] * a
            assert got == tot % 2**n and carry == tot >> n
            assert_clean(ac, ot, cv)


def test_binary_double_control_level_zero():
    # control_mode 0 fires the first control on 0, for the adder and the modular shift
    ac = ripple_add_const(ShiftSpec(5, 4, "binary", control="double", control_mode=0))
    mod = mod_add_const(ShiftSpec(5, 5, "binary", modulus=13, control="double", control_mode=0))
    for cv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        fire = (1 - cv[0]) * cv[1]
        for b, got, carry, ot in classical_map(ac, 2, range(16), controls=cv):
            assert got == (b + 5 * fire) % 16 and carry == (b + 5 * fire) >> 4
            assert_clean(ac, ot, cv)
        for b, got, _, ot in classical_map(mod, 2, range(13), controls=cv):
            assert got == (b + 5 * fire) % 13
            assert_clean(mod, ot, cv)


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


def test_ternary_adder_exhaustive_m3():
    m = 3
    for a in range(27):
        ac = ripple_add_const_ternary(ShiftSpec(a, m, "ternary"))
        for b, got, carry, ot in classical_map(ac, 3, range(27)):
            tot = a + b
            assert got == tot % 27 and carry == tot // 27
            assert_clean(ac, ot)


@pytest.mark.parametrize("f", [1, 2])
def test_ternary_adder_strict_control(f):
    for a in (0, 5, 7, 13, 26):
        ac = ripple_add_const_ternary(ShiftSpec(a, 3, "ternary", control="single", control_mode=f))
        for cv in ((0,), (1,), (2,)):
            mult = 1 if cv[0] == f else 0
            for b, got, carry, ot in classical_map(ac, 3, range(27), controls=cv):
                tot = b + mult * a
                assert got == tot % 27 and carry == tot // 27
                assert_clean(ac, ot, cv)


def test_ternary_adder_ternary_fold():
    for a in range(27):
        ac = ripple_add_const_ternary(ShiftSpec(a, 3, "ternary", control="single",
                                                control_mode="ternary"))
        for cv in ((0,), (1,), (2,)):
            shift = (cv[0] * a) % 27
            for b, got, carry, ot in classical_map(ac, 3, range(27), controls=cv):
                assert got == (b + shift) % 27
                assert carry == (1 if b + shift >= 27 else 0)
                assert_clean(ac, ot, cv)


def test_ternary_adder_double_control():
    # strict level 1 on the first control, multiplier in {0,1} on the second
    for a in (0, 5, 16, 25):
        ac = ripple_add_const_ternary(ShiftSpec(a, 3, "ternary", control="double"))
        for cv in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2)):
            mult = (1 if cv[0] == 1 else 0) * cv[1]
            exact = cv[1] in (0, 1) or cv[0] != 1
            for b, got, carry, ot in classical_map(ac, 3, range(27), controls=cv):
                if exact:
                    assert got == (b + mult * a) % 27
                    assert_clean(ac, ot, cv)


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
    # width tracks 2m - w1(a) plus a constant overhead
    for m, a in ((3, 13), (5, 121), (6, 400)):
        ac = ripple_add_const_ternary(ShiftSpec(a, m, "ternary"))
        from terniq.arithmetic import ones_weight
        assert ac.circuit.width - (2 * m - ones_weight(a)) <= 3


def test_digit_cost_per_trit_uniform():
    # every classical digit value costs one 15-P9 primitive in the ladder
    from terniq.circuit import Circuit
    for digit in (0, 1, 2):
        ops = ternary_carry_ops(digit, 0, 1, 2 if digit != 1 else None)
        width = 3 if digit != 1 else 2
        rc = count_resources(Circuit(width, tuple(ops)))
        assert rc.p9_count == 15


# ------------------------------------------------------------ comparator

def test_comparator_always_flips_at_zero():
    cmp4 = compare_to_threshold(0, 4, "binary")
    for b, _, _, ot in classical_map(cmp4, 2, range(16)):
        assert ot[cmp4.result] == 1


def test_comparator_binary_exhaustive():
    for t in (1, 7, 9, 15):
        cmp4 = compare_to_threshold(t, 4, "binary")
        for b, got, _, ot in classical_map(cmp4, 2, range(16)):
            assert got == b                      # register restored
            assert ot[cmp4.result] == (b >= t)
            for w in range(cmp4.circuit.width):
                if w not in cmp4.data and w != cmp4.result:
                    assert ot[w] == 0


def test_comparator_ternary_exhaustive():
    for t in (1, 5, 13, 22):
        cmp3 = compare_to_threshold(t, 3, "ternary")
        for b, got, _, ot in classical_map(cmp3, 3, range(27)):
            assert got == b
            assert ot[cmp3.result] == (b >= t)


# ------------------------------------------------------------ modular shifts

def digits_for(N, base):
    d = 1
    while base**d < 2 * N:
        d += 1
    return d


@pytest.mark.parametrize("N", [13, 15])
def test_mod_add_binary_exhaustive(N):
    dig = digits_for(N, 2)
    for a in range(N):
        ac = mod_add_const(ShiftSpec(a, dig, "binary", modulus=N))
        for b, got, _, ot in classical_map(ac, 2, range(N)):
            assert got == (a + b) % N
            assert_clean(ac, ot)


@pytest.mark.parametrize("N", [13, 15])
def test_mod_add_binary_controls(N):
    dig = digits_for(N, 2)
    for a in (1, N // 2, N - 1):
        ac = mod_add_const(ShiftSpec(a, dig, "binary", modulus=N, control="single"))
        for cv in ((0,), (1,)):
            for b, got, _, ot in classical_map(ac, 2, range(N), controls=cv):
                assert got == (b + cv[0] * a) % N
                assert_clean(ac, ot, cv)
        ac = mod_add_const(ShiftSpec(a, dig, "binary", modulus=N, control="double"))
        for cv in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for b, got, _, ot in classical_map(ac, 2, range(N), controls=cv):
                assert got == (b + cv[0] * cv[1] * a) % N
                assert_clean(ac, ot, cv)


@pytest.mark.parametrize("N", [13, 15])
def test_mod_add_ternary_fold_exhaustive(N):
    """Ternary modular shift with ternary control, both compile branches."""
    dig = digits_for(N, 3)
    seen_branches = set()
    for a in range(N):
        if a:
            seen_branches.add(2 * a < N)
        ac = mod_add_const(ShiftSpec(a, dig, "ternary", modulus=N,
                                     control="single", control_mode="ternary"))
        for cv in ((0,), (1,), (2,)):
            for b, got, _, ot in classical_map(ac, 3, range(N), controls=cv):
                assert got == (b + cv[0] * a) % N, (a, b, cv)
                assert_clean(ac, ot, cv)
    assert seen_branches == {True, False}


def test_mod_add_ternary_uncontrolled_and_strict():
    N, dig = 13, digits_for(13, 3)
    for a in range(N):
        ac = mod_add_const(ShiftSpec(a, dig, "ternary", modulus=N))
        for b, got, _, ot in classical_map(ac, 3, range(N)):
            assert got == (a + b) % N
            assert_clean(ac, ot)
    for a in (1, 6, 12):
        ac = mod_add_const(ShiftSpec(a, dig, "ternary", modulus=N,
                                     control="single", control_mode=2))
        for cv in ((0,), (1,), (2,)):
            mult = 1 if cv[0] == 2 else 0
            for b, got, _, ot in classical_map(ac, 3, range(N), controls=cv):
                assert got == (b + mult * a) % N
                assert_clean(ac, ot, cv)


def test_mod_add_ternary_double():
    N, dig = 13, digits_for(13, 3)
    for a in (2, 7, 11):
        ac = mod_add_const(ShiftSpec(a, dig, "ternary", modulus=N, control="double"))
        for cv in ((0, 0), (1, 1), (1, 2), (2, 2), (2, 1), (0, 2)):
            mult = (1 if cv[0] == 1 else 0) * cv[1]
            for b, got, _, ot in classical_map(ac, 3, range(N), controls=cv):
                assert got == (b + mult * a) % N
                assert_clean(ac, ot, cv)


def test_mod_add_block_reports():
    N = 13
    dig = digits_for(N, 3)
    a_small = 3     # 2a < N: extra strict +N lane
    a_big = 11      # 2a > N
    small = mod_add_const(ShiftSpec(a_small, dig, "ternary", modulus=N,
                                    control="single", control_mode="ternary"))
    big = mod_add_const(ShiftSpec(a_big, dig, "ternary", modulus=N,
                                  control="single", control_mode="ternary"))
    assert small.ladder_blocks == big.ladder_blocks + 1


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
