"""Quantum Fourier transform over Z_{3^n} by the radix-3 butterfly recursion.

The circuit processes wires from the most significant trit down: a ternary
Hadamard followed by controlled phase gates diag(1, z, z^2)^{c t} with
z = exp(2 pi i / 3^(d+1)) for wire distance d, and a final wire reversal.
In approximate mode, controlled phases whose operator-norm distance from
the identity is below delta/n are dropped.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateOp, gate_op
from .errors import SizeError
from .gates import root_of_unity


def dft_matrix(n: int) -> np.ndarray:
    """[z^(jk)] / 3^(n/2) with z = exp(2 pi i / 3^n), the verification oracle."""
    dim = 3**n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * (j * k % dim) / dim) / np.sqrt(dim)


def controlled_phase_norm(d: int) -> float:
    """Operator distance ||L(diag(1,z,z^2)) - I|| for z of order 3^(d+1)."""
    r = 3 ** (d + 1)
    return float(abs(root_of_unity(4, r) - 1.0)) if r > 8 else 2.0


def qft3n(n: int, delta: float = 0.0) -> Circuit:
    """QFT over Z_{3^n} on an n-qutrit little-endian register.

    ``delta > 0`` drops controlled phases below the delta/n threshold; the
    dropped error is bounded by the sum of the dropped gate norms.
    """
    if not hasattr(type(n), "__index__") or n < 1:
        raise SizeError(f"qft3n needs an integer n >= 1, got {n!r}")
    ops: list[GateOp] = []
    threshold = delta / n if delta > 0 else 0.0
    for w in reversed(range(n)):
        ops.append(gate_op("H", w))
        for i in reversed(range(w)):
            d = w - i
            if threshold and controlled_phase_norm(d) < threshold:
                continue
            name = f"L[PHASE[1,{3 ** (d + 1)}]]"
            ops.append(gate_op(name, i, w))
    for w in range(n // 2):
        ops.append(gate_op("TSWAP", w, n - 1 - w))
    return Circuit(n, tuple(ops), name=f"qft3^{n}" + (f"~{delta}" if delta else ""))


def dropped_phase_error(n: int, delta: float) -> float:
    """Upper bound on ||exact - approximate|| from the dropped phases."""
    total = 0.0
    threshold = delta / n
    for w in reversed(range(n)):
        for i in reversed(range(w)):
            norm = controlled_phase_norm(w - i)
            if norm < threshold:
                total += norm
    return total
