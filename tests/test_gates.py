import numpy as np
import pytest

from conftest import random_unitary
from terniq.errors import CatalogError, SizeError
from terniq.gates import (
    GateMatrix,
    allclose_up_to_phase,
    controlled,
    injection_correction,
    is_clifford,
    matrix_for_name,
    phase_gate,
    root_of_unity,
    two_level_reflection,
)

W3 = root_of_unity(1, 3)
W9 = root_of_unity(1, 9)

CATALOG = ("INC", "Z", "H", "Q", "TSWAP", "SUM", "P9", "R2")


def test_phase_constants_exact():
    assert abs(abs(W3) - 1) < 1e-14
    assert abs(abs(W9) - 1) < 1e-14
    assert abs(W9**3 - W3) < 1e-14


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_unitarity(name):
    g = matrix_for_name(name)
    assert np.allclose(g.matrix @ g.matrix.conj().T, np.eye(g.dim), atol=1e-12)


def test_defining_matrices():
    inc = matrix_for_name("INC").matrix
    assert np.allclose(inc @ np.array([0, 0, 1.0]), np.array([1.0, 0, 0]))  # INC|2> = |0>
    h = matrix_for_name("H").matrix
    assert np.allclose(h[:, 0], np.ones(3) / np.sqrt(3))
    p9 = matrix_for_name("P9").matrix
    assert np.allclose(np.diag(p9), [1 / W9, 1.0, W9], atol=1e-14)
    assert np.allclose(matrix_for_name("R2").matrix, np.diag([1, 1, -1.0]))
    s = matrix_for_name("SUM").matrix
    for j in range(3):
        for k in range(3):
            assert s[3 * j + (j + k) % 3, 3 * j + k] == 1.0


def test_h_powers():
    h = matrix_for_name("H").matrix
    h2 = h @ h
    perm = np.zeros((3, 3))
    for j in range(3):
        perm[(-j) % 3, j] = 1.0
    assert np.allclose(h2, perm, atol=1e-13)
    assert np.allclose(h2 @ h2, np.eye(3), atol=1e-13)


def test_unknown_name_raises():
    with pytest.raises(CatalogError):
        matrix_for_name("NOPE")


def test_controlled_ternary_inc_is_sum():
    assert np.array_equal(controlled(matrix_for_name("INC"), "ternary").matrix,
                          matrix_for_name("SUM").matrix)


def test_controlled_binary_semantics():
    c2 = controlled(matrix_for_name("INC"), 2).matrix
    v = np.zeros(9)
    v[3 * 2 + 1] = 1.0          # |c=2, t=1>
    out = c2 @ v
    assert out[3 * 2 + 2] == 1.0
    v = np.zeros(9)
    v[3 * 1 + 1] = 1.0          # |c=1, t=1> untouched
    assert (c2 @ v)[3 * 1 + 1] == 1.0


def test_lambda_identity_random_unitaries(rng):
    # Lambda(U) = C_1(U) * C_2(U)^2 for 20 random single-qutrit unitaries
    for i in range(20):
        u = GateMatrix(f"RAND{i}", 1, random_unitary(rng, 3))
        lam = controlled(u, "ternary").matrix
        c1 = controlled(u, 1).matrix
        c2 = controlled(u, 2).matrix
        assert np.allclose(lam, c1 @ c2 @ c2, atol=1e-12)


def test_controlled_arity_overflow():
    g = matrix_for_name("SUM")
    g3 = controlled(g, 1)
    g4 = controlled(g3, 1)
    with pytest.raises(SizeError):
        controlled(g4, 1)


def test_two_level_reflection():
    tau = two_level_reflection(2, 6, 2)   # |02> <-> |20> in gate-local kets
    v = np.zeros(9)
    v[2] = 1.0
    assert (tau.matrix @ v)[6] == 1.0
    for i in range(9):
        if i not in (2, 6):
            e = np.zeros(9)
            e[i] = 1.0
            assert np.allclose(tau.matrix @ e, e)
    # involution, and Householder form
    assert np.allclose(tau.matrix @ tau.matrix, np.eye(9))
    u = np.zeros(9)
    u[2], u[6] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.allclose(tau.matrix, np.eye(9) - 2 * np.outer(u, u))


def test_reflection_errors():
    with pytest.raises(SizeError):
        two_level_reflection(1, 1, 1)
    with pytest.raises(SizeError):
        two_level_reflection(0, 9, 2)


def test_toffoli_is_tau_110_111():
    # |110> = 12, |111> = 13 in gate-local big-endian kets
    tau = two_level_reflection(12, 13, 3).matrix
    tof = controlled(controlled(two_level_reflection(0, 1, 1), 1), 1).matrix
    assert np.allclose(tau, tof)


@pytest.mark.parametrize("name,expected", [
    ("INC", True), ("Z", True), ("H", True), ("Q", True),
    ("SUM", True), ("TSWAP", True), ("P9", False), ("R2", False),
    ("L[Z]", True), ("C1[INC]", False), ("L[H]", False), ("HBIN", False),
])
def test_clifford_classification(name, expected):
    assert is_clifford(matrix_for_name(name)) is expected


def test_injection_corrections_are_clifford():
    for m in (0, 1, 2):
        for inv in (False, True):
            assert is_clifford(injection_correction(m, inv))


def test_injection_branch_algebra():
    p9 = matrix_for_name("P9").matrix
    for m in range(3):
        branch = np.diag([W9 ** (((m + t) % 3) - 1) for t in range(3)])
        corr = injection_correction(m).matrix
        assert np.allclose(corr @ branch, p9, atol=1e-13)
        assert np.allclose(corr.conj() @ branch.conj(), p9.conj().T, atol=1e-13)


def test_phase_gate_reductions():
    g = phase_gate(1, 9)
    p9 = matrix_for_name("P9").matrix
    assert allclose_up_to_phase(g.matrix, p9)
    assert np.allclose(phase_gate(0, 27).matrix, np.eye(3), atol=1e-12)


def test_adjoint_names_and_matrices():
    g = matrix_for_name("C2[INC]")
    assert np.allclose(g.adjoint().matrix, g.matrix.conj().T)
    assert matrix_for_name("C2[INC]_INV") == g.adjoint()
    assert matrix_for_name("R2").adjoint().name == "R2"


def test_pauli_variants():
    x1z2 = matrix_for_name("X1Z2")
    inc, z = matrix_for_name("INC").matrix, matrix_for_name("Z").matrix
    assert np.allclose(x1z2.matrix, inc @ z @ z)
    # Pauli products are Clifford (they normalize the Pauli group trivially)
    assert is_clifford(x1z2)
    assert is_clifford(matrix_for_name("X2Z1"))


INC = matrix_for_name("INC")


@pytest.mark.parametrize("make", [
    lambda: phase_gate(1, True), lambda: controlled(INC, True), lambda: two_level_reflection(True, 2),
    lambda: injection_correction(True), lambda: injection_correction(12, inverse=True),
], ids=["phase order True", "control True", "reflected True", "outcome True", "outcome 12"])
def test_gate_names_read_back_as_the_same_gate(make):
    # an integer-like argument is named as its int, which the catalog resolves to an equal gate
    g = make()
    assert matrix_for_name(g.name) == g


@pytest.mark.parametrize("make", [
    lambda: phase_gate(1, 9.0), lambda: phase_gate(1.5, 9), lambda: controlled(INC, 1.0),
    lambda: controlled(INC, 3), lambda: two_level_reflection(0.0, 1),
    lambda: two_level_reflection(0, 1, 1.0), lambda: injection_correction(1.0),
    lambda: injection_correction(-1), lambda: root_of_unity(1, 0),
], ids=["phase order 9.0", "phase numerator 1.5", "control 1.0", "control 3", "reflected 0.0",
        "arity 1.0", "outcome 1.0", "outcome -1", "root order 0"])
def test_gate_constructors_reject_non_integer_arguments(make):
    with pytest.raises(SizeError):
        make()


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks `from terniq import *`
    import terniq
    assert [name for name in terniq.__all__ if not hasattr(terniq, name)] == []
