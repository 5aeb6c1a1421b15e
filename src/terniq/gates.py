"""Exact gate matrices and algebra for qutrit circuits.

Conventions used throughout the package:

  * Registers are little-endian: wire ``i`` carries the trit of weight
    ``3**i`` in a basis index.
  * A gate of arity ``a`` is a dense ``3**a x 3**a`` matrix over kets
    ``|x1, ..., xa>`` where ``x1`` (the first wire the gate is applied to)
    is the *most* significant digit of the gate-local index.  For the
    two-qutrit adder gate this means ``SUM|j,k> = |j, j+k mod 3>`` with
    ``j`` on the first wire.
  * All phases are built directly from exact angle multiples 2*pi*k/r,
    never from repeated products, so catalog entries are accurate to
    machine precision.

Gate names form a small grammar understood by :func:`matrix_for_name`:

    INC Z H Q TSWAP SUM P9 R2 Q0 Q1 Q2 HBIN X{a}Z{b}
    TAU{w}[j,k]        two-level reflection swapping basis j and k on w wires
    PHASE[a,r]         diag(1, z, z^2) with z = exp(2*pi*i*a/r)
    PHASE1[a,r]        diag(1, z, 1)   (binary-subspace phase)
    CMU[m] CMU_INV[m]  measurement corrections of the P9 injection protocol
    C0[...] C1[...] C2[...]   binary-controlled gate (control = first wire)
    L[...]             ternary-controlled gate: applies U^c for control c
    ..._INV            adjoint of any of the above
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CatalogError, SizeError, as_int

MAX_ARITY = 4

ATOL = 1e-12


def root_of_unity(k: int, order: int) -> complex:
    """exp(2*pi*i*k/order), built from the exact angle; ``SizeError`` unless order >= 1."""
    order = as_int(order, "root order", 1)
    return complex(np.exp(2j * np.pi * (as_int(k, "root numerator") % order) / order))


OMEGA3 = root_of_unity(1, 3)
OMEGA9 = root_of_unity(1, 9)


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A named dense unitary on 1..4 qutrits."""

    name: str
    arity: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = 3**self.arity
        if self.matrix.shape != (dim, dim):
            raise SizeError(f"{self.name}: matrix shape {self.matrix.shape} != arity {self.arity}")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return 3**self.arity

    @lru_cache(maxsize=None)
    def adjoint(self) -> "GateMatrix":
        if np.allclose(self.matrix, self.matrix.conj().T, atol=ATOL):
            return self
        return GateMatrix(toggle_inverse(self.name), self.arity, self.matrix.conj().T.copy())

    def __eq__(self, other):
        return (
            isinstance(other, GateMatrix)
            and self.name == other.name
            and self.arity == other.arity
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.name, self.arity))


def toggle_inverse(name: str) -> str:
    return name[:-4] if name.endswith("_INV") else name + "_INV"


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


# ---------------------------------------------------------------- catalog

def _inc() -> np.ndarray:
    m = np.zeros((3, 3), dtype=np.complex128)
    for j in range(3):
        m[(j + 1) % 3, j] = 1.0
    return m


def _z() -> np.ndarray:
    return np.diag([1.0, OMEGA3, OMEGA3**2]).astype(np.complex128)


def _h() -> np.ndarray:
    m = np.empty((3, 3), dtype=np.complex128)
    for j in range(3):
        for k in range(3):
            m[j, k] = root_of_unity(j * k, 3)
    return m / np.sqrt(3.0)


def _q(level: int) -> np.ndarray:
    d = np.ones(3, dtype=np.complex128)
    d[level] = OMEGA3
    return np.diag(d)


def _sum() -> np.ndarray:
    m = np.zeros((9, 9), dtype=np.complex128)
    for j in range(3):
        for k in range(3):
            m[3 * j + (j + k) % 3, 3 * j + k] = 1.0
    return m


def _tswap() -> np.ndarray:
    m = np.zeros((9, 9), dtype=np.complex128)
    for j in range(3):
        for k in range(3):
            m[3 * k + j, 3 * j + k] = 1.0
    return m


def _p9() -> np.ndarray:
    return np.diag([root_of_unity(-1, 9), 1.0, OMEGA9]).astype(np.complex128)


def _r2() -> np.ndarray:
    return np.diag([1.0, 1.0, -1.0]).astype(np.complex128)


def _hbin() -> np.ndarray:
    # Binary Hadamard on span{|0>,|1>}, identity on |2>.  Non-Clifford on a
    # qutrit; used only by the binary-encoded period-finding simulation.
    s = 1 / np.sqrt(2.0)
    return _mat([[s, s, 0], [s, -s, 0], [0, 0, 1]])


def _pauli(a: int, b: int) -> np.ndarray:
    return np.linalg.matrix_power(_inc(), a % 3) @ np.linalg.matrix_power(_z(), b % 3)


def _loader(kind: str) -> np.ndarray:
    # Unitary whose first column is the named resource state; used to place
    # the state on a |0> pool wire.
    if kind == "mu":
        return _p9() @ _h()
    if kind == "mu_dag":
        return _p9().conj().T @ _h()
    if kind == "psi":
        return np.diag([1.0, -1.0, 1.0]).astype(np.complex128) @ _h()
    raise CatalogError(kind)


_FIXED = {
    "INC": (1, _inc),
    "Z": (1, _z),
    "H": (1, _h),
    "Q": (1, lambda: _q(2)),
    "Q0": (1, lambda: _q(0)),
    "Q1": (1, lambda: _q(1)),
    "Q2": (1, lambda: _q(2)),
    "SUM": (2, _sum),
    "TSWAP": (2, _tswap),
    "P9": (1, _p9),
    "R2": (1, _r2),
    "HBIN": (1, _hbin),
    "LOADMU": (1, lambda: _loader("mu")),
    "LOADMUDG": (1, lambda: _loader("mu_dag")),
    "LOADPSI": (1, lambda: _loader("psi")),
}

_TAU_RE = re.compile(r"^TAU(\d)\[(\d+),(\d+)\]$")
_PHASE_RE = re.compile(r"^(PHASE1?)\[(-?\d+),(\d+)\]$")
_PAULI_RE = re.compile(r"^X(\d)Z(\d)$")
_CMU_RE = re.compile(r"^CMU(_INV)?\[(\d+)\]$")
_CTRL_RE = re.compile(r"^(C[012]|L)\[(.*)\]$")


def two_level_reflection(j: int, k: int, arity: int = 1) -> GateMatrix:
    """Reflection swapping basis states ``j`` and ``k``, fixing all others."""
    arity = as_int(arity, "reflection arity", 1, MAX_ARITY)
    dim = 3**arity
    j, k = as_int(j, "reflected index", 0, dim - 1), as_int(k, "reflected index", 0, dim - 1)
    if j == k:
        raise SizeError("degenerate reflection: j == k")
    j, k = min(j, k), max(j, k)
    m = np.eye(dim, dtype=np.complex128)
    m[j, j] = m[k, k] = 0.0
    m[j, k] = m[k, j] = 1.0
    return GateMatrix(f"TAU{arity}[{j},{k}]", arity, m)


def phase_gate(a: int, r: int, binary: bool = False) -> GateMatrix:
    """diag(1, z, z^2) (or diag(1, z, 1) with ``binary``) for z = e^{2 pi i a/r}."""
    r = as_int(r, "phase order", 1)
    a = as_int(a, "phase numerator") % r
    z = root_of_unity(a, r)
    if binary:
        m = np.diag([1.0, z, 1.0]).astype(np.complex128)
        return GateMatrix(f"PHASE1[{a},{r}]", 1, m)
    m = np.diag([1.0, z, root_of_unity(2 * a, r)]).astype(np.complex128)
    return GateMatrix(f"PHASE[{a},{r}]", 1, m)


def _cmu_matrix(m: int, inv: bool) -> np.ndarray:
    # Correction gate of the P9 state-injection protocol for measurement
    # outcome m: (P9 INC P9^dag)^(-m) INC^m, conjugated for the adjoint gate.
    p9 = _p9()
    g = p9 @ _inc() @ p9.conj().T
    c = np.linalg.matrix_power(g.conj().T, m % 3) @ np.linalg.matrix_power(_inc(), m % 3)
    return c.conj() if inv else c


def injection_correction(m: int, inverse: bool = False) -> GateMatrix:
    m = as_int(m, "measurement outcome", 0)
    name = f"CMU_INV[{m}]" if inverse else f"CMU[{m}]"
    return GateMatrix(name, 1, _cmu_matrix(m % 3, inverse))


def controlled(u: GateMatrix, mode) -> GateMatrix:
    """Add one control qutrit (as the new first wire) to ``u``.

    ``mode`` is 0, 1 or 2 for a binary control (apply ``u`` exactly when the
    control trit equals the mode value) or the string ``"ternary"`` for the
    ternary control that applies ``u^c``.
    """
    if u.arity + 1 > MAX_ARITY:
        raise SizeError(f"controlled({u.name}): arity {u.arity + 1} exceeds {MAX_ARITY}")
    dim = u.dim
    out = np.eye(3 * dim, dtype=np.complex128)
    if mode == "ternary":
        for c in range(3):
            out[c * dim:(c + 1) * dim, c * dim:(c + 1) * dim] = np.linalg.matrix_power(u.matrix, c)
        return GateMatrix(f"L[{u.name}]", u.arity + 1, out)
    mode = as_int(mode, "binary control mode", 0, 2)
    out[mode * dim:(mode + 1) * dim, mode * dim:(mode + 1) * dim] = u.matrix
    return GateMatrix(f"C{mode}[{u.name}]", u.arity + 1, out)


_RESOLVED: dict[str, GateMatrix] = {}


def matrix_for_name(name: str) -> GateMatrix:
    """Resolve any name of the gate grammar to its exact matrix, once per name; ``CatalogError``
    for a name outside the grammar or not a string."""
    try:
        return _RESOLVED[name]
    except (KeyError, TypeError):  # not resolved yet, or unhashable
        if not isinstance(name, str):
            raise CatalogError(f"gate name {name!r} is not a string") from None
    return _RESOLVED.setdefault(name, _resolve(name))


def _resolve(name: str) -> GateMatrix:
    if name.endswith("_INV"):
        return matrix_for_name(name[:-4]).adjoint()
    m = _CTRL_RE.match(name)
    if m:
        mode = "ternary" if m.group(1) == "L" else int(m.group(1)[1])
        return controlled(matrix_for_name(m.group(2)), mode)
    if name in _FIXED:
        arity, builder = _FIXED[name]
        return GateMatrix(name, arity, builder())
    m = _TAU_RE.match(name)
    if m:
        return two_level_reflection(int(m.group(2)), int(m.group(3)), int(m.group(1)))
    m = _PHASE_RE.match(name)
    if m:
        return phase_gate(int(m.group(2)), int(m.group(3)), binary=m.group(1) == "PHASE1")
    m = _PAULI_RE.match(name)
    if m:
        return GateMatrix(name, 1, _pauli(int(m.group(1)), int(m.group(2))))
    m = _CMU_RE.match(name)
    if m:
        return injection_correction(int(m.group(2)), inverse=m.group(1) is not None)
    raise CatalogError(f"unknown gate name {name!r}")


# ------------------------------------------------------- comparisons

def allclose_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """True when a = e^{i phi} b; phase aligned on the largest entry of b."""
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


# ------------------------------------------------------- Clifford test

def _is_pauli(m: np.ndarray, n: int, atol: float) -> bool:
    """True when ``m`` is one n-qutrit Pauli X^a Z^b up to phase.  Column 0 holds its one
    entry at row a; the unit column of wire w picks up the phase omega^(b_w) against it."""
    shift = int(np.argmax(np.abs(m[:, 0])))
    pauli = np.eye(1, dtype=np.complex128)
    for w in range(n):
        unit = 3 ** (n - 1 - w)  # the first wire is the most significant digit
        row = int(np.argmax(np.abs(m[:, unit])))
        b = round(float(np.angle(m[row, unit] / m[shift, 0])) * 3 / (2 * np.pi))
        pauli = np.kron(pauli, _pauli(shift // unit % 3, b))
    return allclose_up_to_phase(m, pauli, atol)


def is_clifford(u: GateMatrix, atol: float = 1e-10) -> bool:
    """True when u conjugates every Pauli generator to a Pauli, up to phase."""
    n = u.arity
    if n > 2:
        raise SizeError("is_clifford supports arity <= 2")
    gens = (np.kron(np.kron(np.eye(3**w), g), np.eye(3 ** (n - 1 - w)))
            for w in range(n) for g in (_inc(), _z()))
    return all(_is_pauli(u.matrix @ gen @ u.matrix.conj().T, n, atol) for gen in gens)
