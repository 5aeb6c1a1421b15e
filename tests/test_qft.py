import numpy as np
import pytest

from terniq.circuit import count_resources
from terniq.errors import SizeError
from terniq.gates import matrix_for_name
from terniq.qft import controlled_phase_norm, dft_matrix, dropped_phase_error, qft3n
from terniq.sim import circuit_unitary


def test_qft_n1_is_hadamard():
    u = circuit_unitary(qft3n(1))
    assert np.allclose(u, matrix_for_name("H").matrix, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_matches_dft(n):
    u = circuit_unitary(qft3n(n))
    assert np.max(np.abs(u - dft_matrix(n))) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qft_unitary(n):
    u = circuit_unitary(qft3n(n))
    assert np.allclose(u @ u.conj().T, np.eye(3**n), atol=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_qft_approximate_error_bound(delta):
    n = 4
    u = circuit_unitary(qft3n(n, delta=delta))
    err = np.linalg.norm(circuit_unitary(qft3n(n)) - u, ord=2)
    assert err <= delta
    assert dropped_phase_error(n, delta) <= delta


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_dropped_phase_error_needs_a_qutrit(n):
    with pytest.raises(SizeError, match="integer n >= 1"):
        dropped_phase_error(n, 0.1)


@pytest.mark.parametrize("n", [-2, 0, 1.5])
def test_dft_matrix_needs_a_qutrit(n):
    # -2 used to give [[3]], which is not unitary
    with pytest.raises(SizeError, match="integer n >= 1"):
        dft_matrix(n)


@pytest.mark.parametrize("make", [
    lambda: qft3n(3, float("nan")), lambda: qft3n(3, -1), lambda: qft3n(3, float("inf")),
    lambda: dropped_phase_error(3, float("nan")), lambda: dropped_phase_error(3, -1),
    lambda: qft3n(3, None), lambda: dropped_phase_error(3, "x"),
], ids=["qft nan", "qft -1", "qft inf", "bound nan", "bound -1", "qft None", "bound 'x'"])
def test_delta_is_finite_and_non_negative(make):
    # each used to build or bound the exact QFT without a word, or raised a bare TypeError
    with pytest.raises(SizeError):
        make()


@pytest.mark.parametrize("d", [None, -3, 1.5], ids=repr)
def test_controlled_phase_norm_needs_a_wire_distance(d):
    # None raised a bare TypeError; -3 gave a norm of 2.0
    with pytest.raises(SizeError, match="wire distance"):
        controlled_phase_norm(d)


def test_qft_approximate_drops_phases_eventually():
    # at larger sizes with loose delta, distant controlled phases drop
    exact = qft3n(8)
    approx = qft3n(8, delta=0.5)
    assert len(approx.instructions) < len(exact.instructions)
    # the exact recursion has n Hadamards and n(n-1)/2 controlled phases + swaps
    n = 8
    assert len(exact.instructions) == n + n * (n - 1) // 2 + n // 2


def test_qft_gate_makeup():
    rc = count_resources(qft3n(3))
    # controlled phases are synthesis-external non-Cliffords
    assert rc.synthesis_gate_count == 3
    assert rc.p9_count == 0
