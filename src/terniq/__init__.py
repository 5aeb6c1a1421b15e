"""terniq: build, simulate, and cost qutrit circuits for period finding."""

from .circuit import Circuit, ResourceCount, compose, count_resources, inverse
from .gates import (
    GateMatrix,
    controlled,
    is_clifford,
    matrix_for_name,
    two_level_reflection,
)
from .sim import StateVector, RunRecord, basis_state, product_state, run
from .textfmt import deserialize, serialize

__all__ = [
    "Circuit", "ResourceCount", "compose", "count_resources", "inverse",
    "GateMatrix", "controlled", "is_clifford", "matrix_for_name", "two_level_reflection",
    "StateVector", "RunRecord", "basis_state", "product_state", "run",
    "serialize", "deserialize",
]
