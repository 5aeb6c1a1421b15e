"""Quantum Fourier transform over Z_{3^n} by the radix-3 butterfly recursion.

The circuit processes wires from the most significant trit down: a ternary
Hadamard followed by controlled phase gates diag(1, z, z^2)^{c t} with
z = exp(2 pi i / 3^(d+1)) for wire distance d, and a final wire reversal.
In approximate mode, controlled phases whose operator-norm distance from
the identity is below delta/n are dropped.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .circuit import Circuit, GateOp, gate_op
from .errors import SizeError, as_int
from .gates import root_of_unity


def dft_matrix(n: int) -> np.ndarray:
    """[z^(jk)] / 3^(n/2) with z = exp(2 pi i / 3^n), the verification oracle."""
    dim = 3 ** _drop_threshold(n, 0.0)[0]  # qft3n's size check
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * (j * k % dim) / dim) / np.sqrt(dim)


def controlled_phase_norm(d: int) -> float:
    """Operator distance ||L(diag(1,z,z^2)) - I|| for z of order 3^(d+1)."""
    r = 3 ** (as_int(d, "wire distance", 0) + 1)
    return float(abs(root_of_unity(4, r) - 1.0)) if r > 8 else 2.0


def _drop_threshold(n: int, delta: float) -> tuple[int, float]:
    """The checked QFT size and the norm delta/n below which a controlled phase is dropped."""
    n = as_int(n, "QFT size (integer n >= 1)", 1)
    if not (isinstance(delta, Real) and 0 <= delta < np.inf):
        raise SizeError(f"delta {delta!r} is not a finite real >= 0")
    return n, delta / n


def qft3n(n: int, delta: float = 0.0) -> Circuit:
    """QFT over Z_{3^n} on an n-qutrit little-endian register.

    ``delta > 0`` drops controlled phases below the delta/n threshold; the
    dropped error is bounded by the sum of the dropped gate norms.
    """
    n, threshold = _drop_threshold(n, delta)
    ops: list[GateOp] = []
    for w in reversed(range(n)):
        ops.append(gate_op("H", w))
        ops += (gate_op(f"L[PHASE[1,{3 ** (w - i + 1)}]]", i, w) for i in reversed(range(w))
                if not threshold or controlled_phase_norm(w - i) >= threshold)
    ops += (gate_op("TSWAP", w, n - 1 - w) for w in range(n // 2))
    return Circuit(n, tuple(ops), name=f"qft3^{n}" + (f"~{delta}" if delta else ""))


def dropped_phase_error(n: int, delta: float) -> float:
    """Upper bound on ||exact - approximate|| from the phases that ``qft3n`` drops."""
    n, threshold = _drop_threshold(n, delta)
    return sum((norm for w in reversed(range(n)) for i in reversed(range(w))
                if (norm := controlled_phase_norm(w - i)) < threshold), 0.0)
