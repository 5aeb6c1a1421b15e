import math

import numpy as np
import pytest

from conftest import random_unitary
from terniq import costmodel
from terniq.errors import SizeError
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.costmodel import (
    Scenario,
    cost_table,
    fidelity_budget,
    lookahead_costs,
    modeled_shift_count,
    modexp_cost,
    ripple_shift_costs,
    synthesis_cost,
)


def test_ripple_shift_ledger():
    assert ripple_shift_costs(Scenario(16, "binary", control_level=2)) == 384
    assert ripple_shift_costs(Scenario(16, "ternary", control_level=0)) == 304
    assert costmodel.ripple_shift_costs_per_trit(2) == 53
    assert costmodel.ripple_shift_costs_per_trit(1) == 34


def test_lookahead_figures():
    out = lookahead_costs(Scenario(1024, adder="lookahead"))
    assert abs(out["depth_units"] - 40) < 1e-9
    assert out["widget_p9"] == 15
    # width ratio ternary/binary tends to log3(2)
    b = lookahead_costs(Scenario(256, "binary", adder="lookahead"))
    t = lookahead_costs(Scenario(256, "ternary", adder="lookahead"))
    assert abs(t["digits"] / b["digits"] - math.log(2, 3)) < 0.02


def test_modexp_cost_table_rows():
    n = 10
    r = modexp_cost(Scenario(n, "binary", "ripple", "MTQC-P9-preparation"))
    assert r.depth == 48 * n**3 == 48000
    assert r.width == n + 4
    assert abs(r.prep_width - 54 * math.log(n, 3)) < 1e-9
    r = modexp_cost(Scenario(n, "binary", "lookahead", "MTQC-P9-preparation"))
    assert abs(r.depth - 120 * n**2 * math.log2(n)) < 1e-6
    r = modexp_cost(Scenario(n, "binary", "ripple", "binary-CliffordT-reference"))
    assert r.depth == 160 * n**3
    r = modexp_cost(Scenario(n, "binary", "lookahead", "binary-CliffordT-reference"))
    assert abs(r.depth - 72 * n**2 * math.log2(n)) < 1e-6
    r = modexp_cost(Scenario(n, "binary", "ripple", "MTQC-inline"))
    assert abs(r.depth - 432 * n**3 * math.log(n, 3)) < 1e-6
    assert r.prep_width == 3
    r = modexp_cost(Scenario(n, "ternary", "ripple", "MTQC-P9-preparation"))
    assert abs(r.depth - 76.35 * n**3) < 1e-6
    r = modexp_cost(Scenario(n, "binary", "ripple", "generic-P9-distillation"))
    assert abs(r.prep_width - 3 * (3 * math.log2(n)) ** 3) < 1e-9
    r = modexp_cost(Scenario(n, "binary", "lookahead", "generic-P9-distillation"))
    assert abs(r.prep_width - 12 * n * (3 * math.log2(n)) ** 3) < 1e-9


def test_reference_prep_width_gamma():
    n = 10
    r = modexp_cost(Scenario(n, "binary", "lookahead", "binary-CliffordT-reference"))
    gamma = math.log(15, 3)
    assert abs(r.prep_width - 3 * n * (6 * math.log2(n)) ** gamma) < 1e-9
    r2 = modexp_cost(Scenario(n, "binary", "lookahead", "binary-CliffordT-reference",
                              gamma=math.log2(3)))
    assert r2.prep_width < r.prep_width


def test_modeled_shift_counts():
    for encoding in ("binary", "ternary"):
        for N in (15, 21, 33, 35):
            spec = ModExpSpec(2, N, encoding)
            assert modeled_shift_count(spec) == modexp_circuit(spec).dctrl_shift_count, (encoding, N)
    # N = 16 divides 2^(v-1): the builder skips the shifts by 0 mod N
    spec = ModExpSpec(3, 16)
    assert modeled_shift_count(spec) > modexp_circuit(spec).dctrl_shift_count


def test_monotonicity():
    for platform in costmodel.PLATFORMS:
        prev = 0
        for n in (4, 8, 16, 32, 64):
            r = modexp_cost(Scenario(n, "binary", "ripple", platform))
            assert r.depth > prev
            prev = r.depth


def test_synthesis_costs():
    assert abs(synthesis_cost("reflection-R", 3.0**-20) - 160) < 1e-9
    assert abs(synthesis_cost("mu-prep-R", 3.0**-10) - 60) < 1e-9
    assert abs(synthesis_cost("phase-gate-R-40", 1 / 3) - 40) < 1e-9
    assert abs(synthesis_cost("phase-gate-R-24-plus-P9", 1 / 3) - 24) < 1e-9
    assert costmodel.PHASE_GATE_FIXED_P9 == 30
    assert abs(synthesis_cost("T-phase-reference", 0.5**10) - 30) < 1e-9
    for kind in ("reflection-R", "mu-prep-R", "T-phase-reference"):
        assert synthesis_cost(kind, 1e-6) < synthesis_cost(kind, 1e-9)


def test_fidelity_budget_values():
    b = fidelity_budget(0.04, 0.05, 10)
    assert abs(b.useful_lower_bound - 0.02) < 1e-12
    assert abs(b.per_gate_delta - 0.005) < 1e-12
    p = 0.36
    b = fidelity_budget(p, math.sqrt(p) / 4, 5)
    assert abs(b.useful_lower_bound - p / 2) < 1e-12
    assert abs(fidelity_budget(0.25, 0.0, 3).useful_lower_bound - 0.25) < 1e-12


def _unitary_within(rng, u, delta):
    # V = U * diag(e^{i phi}) with max |e^{i phi} - 1| <= delta
    dim = u.shape[0]
    phi = rng.uniform(-1, 1, size=dim)
    phi *= 2 * np.arcsin(delta / 2) / max(np.abs(phi).max(), 1e-12)
    return u @ np.diag(np.exp(1j * phi))


def test_product_norm_bound_diagonal(rng):
    for _ in range(100):
        d = int(rng.integers(2, 9))
        dim = 3 ** int(rng.integers(1, 3))
        delta = 10.0 ** rng.uniform(-3, -1)
        us = [random_unitary(rng, dim) for _ in range(d)]
        vs = [_unitary_within(rng, u, delta) for u in us]
        U = np.eye(dim, dtype=complex)
        V = np.eye(dim, dtype=complex)
        for u, v in zip(us, vs):
            assert np.linalg.norm(u - v, 2) <= delta + 1e-12
            U = u @ U
            V = v @ V
        assert np.linalg.norm(U - V, 2) <= d * delta + 1e-10


def test_useful_probability_bound(rng):
    for _ in range(300):
        dim = 16
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        u /= np.linalg.norm(u)
        eps = 10.0 ** rng.uniform(-3, -0.7)
        e = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        e *= eps / np.linalg.norm(e)
        v = u + e * rng.uniform(0, 1)
        v /= np.linalg.norm(v)
        if np.linalg.norm(u - v) > eps:
            continue
        k = int(rng.integers(1, dim))
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, :k]
        p = np.linalg.norm(basis.conj().T @ u) ** 2
        pv = np.linalg.norm(basis.conj().T @ v) ** 2
        assert pv >= p - 2 * np.sqrt(p) * eps - 1e-10


def test_cost_model_matches_constructed_counts():
    """Ledger consistency: model coefficients vs measured circuits."""
    from terniq.arithmetic import ShiftSpec, ripple_add_const, ripple_add_const_ternary
    from terniq.circuit import count_resources
    n = 12
    for level, control in ((0, "none"), (1, "single"), (2, "double")):
        model = ripple_shift_costs(Scenario(n, "binary", control_level=level))
        built = count_resources(ripple_add_const(
            ShiftSpec(1, n, "binary", control=control)).circuit).p9_count
        assert abs(built - model) <= n
    for level, control in ((0, "none"), (1, "single"), (2, "double")):
        model = costmodel.ripple_shift_costs_per_trit(level) * n
        built = count_resources(ripple_add_const_ternary(
            ShiftSpec(1, n, "ternary", control=control)).circuit).p9_count
        assert abs(built - model) <= n


def test_table_emission_stable():
    a = cost_table("ripple", 10, "csv")
    b = cost_table("ripple", 10, "csv")
    assert a == b
    assert "432" in a and "48" in a and "160" in a
    text = cost_table("lookahead", 10, "text")
    assert "120" in text and "72" in text and "144" in text


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_cost_table_rejects_an_unknown_format(fmt):
    with pytest.raises(SizeError, match="format"):
        cost_table("ripple", 10, fmt)


def test_scenario_validation():
    with pytest.raises(Exception):
        Scenario(1)
    with pytest.raises(Exception):
        Scenario(10, platform="nope")
    with pytest.raises(SizeError, match="quaternary"):
        Scenario(16, "quaternary")


def test_parallel_magic_rate():
    from terniq.costmodel import parallel_magic_rate
    assert parallel_magic_rate(64) == 64
    assert abs(parallel_magic_rate(64, average=True) - 64 / 6) < 1e-12
