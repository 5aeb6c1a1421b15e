"""Property tests: the costed binary-data networks and their P9 expansion."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from terniq.arithmetic import mcx_ops
from terniq.circuit import Circuit, count_resources, gate_op
from terniq.sim import circuit_unitary, compile_classical, index_of_trits, run_compiled, trits_of_index
from terniq.widgets import _expand

# costed primitives _expand rewrites, and Clifford gates it keeps
_TWO_WIRE = ([f"C{level}[INC]" for level in range(3)]
             + [f"C{level}[INC]_INV" for level in range(3)]
             + [f"C{level}[INC_INV]" for level in range(3)]
             + [f"TAU2[{j},{k}]" for j in range(9) for k in range(9) if j < k]
             + ["SUM", "SUM_INV", "TSWAP"])
_ONE_WIRE = ["TAU1[0,1]", "TAU1[1,2]", "INC"]


@st.composite
def costed_networks(draw):
    """(width, ops, helper): at most 4 data wires, an optional clean helper after them."""
    width = draw(st.integers(2, 4))
    helper = width if draw(st.booleans()) else None
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):
            name = draw(st.sampled_from(_TWO_WIRE))
            wires = draw(st.permutations(range(width)))[:2]
        else:
            name = draw(st.sampled_from(_ONE_WIRE))
            wires = (draw(st.integers(0, width - 1)),)
        ops.append(gate_op(name, *wires))
    return width, ops, helper


@settings(max_examples=40)
@given(costed_networks())
def test_expand_keeps_the_unitary(net):
    width, ops, helper = net
    full = width + (helper is not None)
    costed = circuit_unitary(Circuit(full, tuple(ops)))
    expanded = circuit_unitary(Circuit(full, tuple(_expand(ops, helper))))
    cols = 3**width  # with a helper, only the columns where it starts in |0>
    assert np.max(np.abs(expanded[:, :cols] - costed[:, :cols])) < 1e-12


@settings(max_examples=200)
@given(costed_networks())
def test_expand_keeps_the_p9_count(net):
    width, ops, helper = net
    full = width + (helper is not None)
    want = count_resources(Circuit(full, tuple(ops))).p9_count
    assert count_resources(Circuit(full, tuple(_expand(ops, helper)))).p9_count == want


@st.composite
def mcx_cases(draw):
    """(controls, target, markers, control bits, target bit) on shuffled wires."""
    k = draw(st.integers(0, 3))
    n_markers = max(k - 1, 0)
    wires = draw(st.permutations(range(k + 1 + n_markers)))
    bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return wires[:k], wires[k], wires[k + 1:], bits, draw(st.integers(0, 1))


@settings(max_examples=200)
@given(mcx_cases())
def test_mcx_flips_the_target_iff_every_control_is_one(case):
    controls, target, markers, bits, t = case
    width = len(controls) + 1 + len(markers)
    trits = [0] * width
    for w, b in zip(controls, bits):
        trits[w] = b
    trits[target] = t
    comp = compile_classical(Circuit(width, tuple(mcx_ops(controls, target, markers))))
    out = list(trits_of_index(run_compiled(comp, index_of_trits(trits)), width))
    trits[target] = t ^ all(bits)
    assert out == trits  # controls kept, markers back to 0
