"""Shared oracles and helpers for the test suite."""

import atexit
import shutil
import tempfile

import numpy as np
import pytest

from terniq.sim import compile_classical, index_of_trits, run_compiled, trits_of_index

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # property tests skip themselves without the test extra
    pass
else:
    # derandomized: every run draws the same examples and keeps no example
    # database; the source-constant cache goes to a directory removed at exit
    settings.register_profile("terniq", derandomize=True, database=None, deadline=None)
    settings.load_profile("terniq")
    _home = tempfile.mkdtemp(prefix="terniq-hypothesis-")
    atexit.register(shutil.rmtree, _home, ignore_errors=True)
    set_hypothesis_home_dir(_home)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state_vector(rng, width):
    v = rng.normal(size=3**width) + 1j * rng.normal(size=3**width)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def classical_map(adder, base, values, controls=None):
    """Run a compiled permutation circuit over data values; return the map.

    ``values`` iterates data-register values; yields (value, out_value,
    carry, full trit tuple) per input.  Ancillas are asserted restored by
    the caller.
    """
    comp = compile_classical(adder.circuit)
    width = adder.circuit.width
    for b in values:
        trits = [0] * width
        for j, w in enumerate(adder.data):
            trits[w] = (b // base**j) % base
        if controls:
            for w, v in zip(adder.controls, controls):
                trits[w] = v
        out = run_compiled(comp, index_of_trits(trits))
        ot = trits_of_index(out, width)
        got = sum(ot[w] * base**j for j, w in enumerate(adder.data))
        carry = ot[adder.carry_out] if adder.carry_out is not None else None
        yield b, got, carry, ot


def assert_clean(adder, ot, controls=None):
    """All non-data, non-carry wires back to their input values."""
    ctrl_map = dict(zip(adder.controls, controls or ()))
    for w in range(adder.circuit.width):
        if w in adder.data or w == adder.carry_out:
            continue
        expect = ctrl_map.get(w, 0)
        assert ot[w] == expect, f"wire {w} ended in {ot[w]} (expected {expect})"
