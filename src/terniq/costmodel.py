"""Closed-form resource estimates for period-finding circuits.

Leading-order formulas only: additive constants and O(log log) terms are
dropped.  Platforms:

  * ``generic-P9-distillation``  -- ternary computer with distilled magic
    states; preparation width scales like (3 log2 n)^3 per clean state.
  * ``MTQC-P9-preparation``      -- metaplectic computer preparing P9 magic
    states at 54 log3(n) reflections per state.
  * ``MTQC-inline``              -- direct reflection synthesis in place of
    every classical non-Clifford gate; preparation width is constant.
  * ``binary-CliffordT-reference`` -- published Clifford+T baselines.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field

from .arithmetic import ones_weight
from .errors import SizeError, as_int, int_fields
from .modexp import ModExpSpec

LOG3_2 = math.log(2, 3)
GAMMA_DEFAULT = math.log(15, 3)      # distillation width exponent

PLATFORMS = (
    "generic-P9-distillation",
    "MTQC-P9-preparation",
    "MTQC-inline",
    "binary-CliffordT-reference",
)


def trit_size(n: int) -> int:
    """Trits that hold as many values as ``n`` bits, ``n >= 0``: ceil(n log3 2)."""
    return math.ceil(LOG3_2 * as_int(n, "bitsize", 0))


@dataclass(frozen=True)
class Scenario:
    bitsize: int
    encoding: str = "binary"            # "binary" (emulated) | "ternary"
    adder: str = "ripple"               # "ripple" | "lookahead"
    platform: str = "MTQC-P9-preparation"
    gamma: float = GAMMA_DEFAULT

    def __post_init__(self):
        int_fields(self, bitsize=2)
        if self.encoding not in ("binary", "ternary"):
            raise SizeError(f"encoding {self.encoding!r}")
        if self.platform not in PLATFORMS:
            raise SizeError(f"platform {self.platform!r}")
        if self.adder not in ("ripple", "lookahead"):
            raise SizeError(f"adder {self.adder!r}")
        if not (isinstance(self.gamma, numbers.Real) and 0 < self.gamma < math.inf):
            raise SizeError(f"gamma {self.gamma!r} is not a finite real > 0")

    @property
    def tritsize(self) -> int:
        return trit_size(self.bitsize)


@dataclass(frozen=True)
class CostReport:
    scenario: Scenario
    width_formula: str
    width: float
    depth_formula: str
    depth: float
    prep_width_formula: str
    prep_width: float
    count_basis: str
    notes: tuple[str, ...] = field(default=())


# ------------------------------------------------------------ shift ledgers

#: P9 of one ripple additive shift with 0, 1 and 2 controls, per bit of the bitsize in
#: either encoding, and per trit of the ternary register
RIPPLE_PER_BIT = {"binary": (12, 18, 24), "ternary": (19, 21, 33)}
RIPPLE_PER_TRIT = (30, 34, 53)


def lookahead_costs(scenario: Scenario) -> dict:
    """Depth/width layout of the carry-lookahead shift (cost model only)."""
    if scenario.adder != "lookahead":
        raise SizeError("lookahead_costs needs a lookahead scenario")
    digits = scenario.bitsize if scenario.encoding == "binary" else scenario.tritsize
    return {
        "depth_units": 4 * math.log2(digits),
        "widget_p9": 15,
        "width_per_digit": 1.0,
        "digits": digits,
    }


# ------------------------------------------------------------ synthesis costs

def synthesis_cost(kind: str, delta: float) -> float:
    """Leading-term non-Clifford count to synthesize one gate at precision delta."""
    if not (isinstance(delta, numbers.Real) and 0 < delta < 1):
        raise SizeError(f"delta in (0,1), got {delta!r}")
    il3 = math.log(1 / delta, 3)
    if kind == "reflection-R":
        return 8 * il3
    if kind == "mu-prep-R":
        return 6 * il3
    if kind == "phase-gate-R-40":
        return 40 * il3
    if kind == "phase-gate-R-24-plus-P9":
        return 24 * il3          # plus a fixed widget of at most 30 P9
    if kind == "T-phase-reference":
        return 3 * math.log2(1 / delta)
    raise SizeError(f"kind {kind!r}")

PHASE_GATE_FIXED_P9 = 30


# ------------------------------------------------------------ fidelity budget

@dataclass(frozen=True)
class FidelityBudget:
    p_useful: float
    epsilon: float
    depth: int
    useful_lower_bound: float
    half_likelihood_epsilon: float
    per_gate_delta: float


def fidelity_budget(p_useful: float, epsilon: float, depth: int) -> FidelityBudget:
    """Useful-measurement bound p - 2 sqrt(p) eps and the derived tolerances."""
    if not (isinstance(p_useful, numbers.Real) and isinstance(epsilon, numbers.Real)
            and 0 < p_useful <= 1 and 0 <= epsilon < math.inf):
        raise SizeError(f"need p in (0,1] and a finite eps >= 0, got p={p_useful!r}, eps={epsilon!r}")
    depth = as_int(depth, "depth", 1)
    return FidelityBudget(
        p_useful=p_useful,
        epsilon=epsilon,
        depth=depth,
        useful_lower_bound=p_useful - 2 * math.sqrt(p_useful) * epsilon,
        half_likelihood_epsilon=math.sqrt(p_useful) / 4,
        per_gate_delta=epsilon / depth,
    )


# ------------------------------------------------------------ table rows

def modexp_cost(scenario: Scenario) -> CostReport:
    """Leading-order width/depth/preparation figures for one table row."""
    n = scenario.bitsize
    m = scenario.tritsize
    ln2 = math.log2(n)
    ln3 = math.log(n, 3)
    s = scenario
    if s.adder == "ripple":
        if s.platform == "binary-CliffordT-reference":
            return CostReport(s, "2n+6", 2 * n + 6, "160 n^3", 160.0 * n**3,
                              "n (6 log2 n)^gamma", n * (6 * ln2) ** s.gamma, "T",
                              notes=("worst-case n-fold parallel magic states",))
        if s.encoding == "binary":
            width_f, width = "n+4", n + 4
            depth_f, depth = "48 n^3", 48.0 * n**3
        else:
            width_f, width = "2m - w1(m)", 2 * m - ones_weight(m)
            depth_f, depth = "76.35 n^3", 76.35 * n**3
        if s.platform == "MTQC-inline":
            if s.encoding == "binary":
                depth_f, depth = "432 n^3 log3 n", 432.0 * n**3 * ln3
            else:
                depth_f, depth = "506.3 n^3 log3 n", 506.3 * n**3 * ln3
            prep_f, prep = "3", 3.0
        elif s.platform == "MTQC-P9-preparation":
            prep_f, prep = "54 log3 n", 54.0 * ln3
        else:
            prep_f, prep = "3 (3 log2 n)^3", 3.0 * (3 * ln2) ** 3
        return CostReport(s, width_f, width, depth_f, depth, prep_f, prep,
                          "R2" if s.platform == "MTQC-inline" else "P9")
    # lookahead
    if s.platform == "binary-CliffordT-reference":
        return CostReport(s, "4n - w1(n)", 4 * n - ones_weight(n, 2),
                          "72 n^2 log2 n", 72.0 * n**2 * ln2,
                          "3n (6 log2 n)^gamma", 3 * n * (6 * ln2) ** s.gamma, "T")
    if s.encoding == "binary":
        width_f, width = "4n - w1(n)", 4 * n - ones_weight(n, 2)
        depth_f, depth = "120 n^2 log2 n", 120.0 * n**2 * ln2
    else:
        width_f, width = "4m - w1(m)", 4 * m - ones_weight(m)
        depth_f, depth = "127.4 n^2 log2 n", 127.4 * n**2 * ln2
    if s.platform == "MTQC-inline":
        if s.encoding == "binary":
            width_f, width = "3n - w1(n)", 3 * n - ones_weight(n, 2)
            depth_f, depth = "384 n^2 log3(2) (log2 n)^2", 384.0 * n**2 * LOG3_2 * ln2**2
            prep_f, prep = "3n", 3.0 * n
        else:
            width_f, width = "3m - w1(m)", 3 * m - ones_weight(m)
            depth_f, depth = "1630.5 n^2 log3(2) (log2 n)^2", 1630.5 * n**2 * LOG3_2 * ln2**2
            prep_f, prep = "3m", 3.0 * m
    elif s.platform == "MTQC-P9-preparation":
        if s.encoding == "binary":
            prep_f, prep = "54 n log3 n", 54.0 * n * ln3
        else:
            prep_f, prep = "54 m log3 m", 54.0 * m * math.log(m, 3)
    else:
        # the table reuses the binary preparation formula for both encodings
        prep_f, prep = "12n (3 log2 n)^3", 12.0 * n * (3 * ln2) ** 3
    return CostReport(s, width_f, width, depth_f, depth, prep_f, prep,
                      "R2" if s.platform == "MTQC-inline" else "P9")


def modeled_shift_count(spec: ModExpSpec) -> int:
    """Doubly-controlled modular shifts ``modexp_circuit`` builds for ``spec``.

    Each exponent digit j whose multiplier base^(d^j) mod N is not 1 costs
    2v shifts in binary (compute and uncompute, one per accumulator bit) and
    8v in ternary (also one per control level and digit value), for v value
    digits.  Exact when N does not divide (d-1) d^(v-1), which covers every
    odd N that is not a power of 3; otherwise the builders skip the shifts
    whose constant is 0 mod N.
    """
    d, N, v = spec.radix, spec.modulus, spec.value_digits
    rounds = sum(pow(spec.base, d**j, N) != 1 for j in range(spec.exp_digits))
    return (2 if d == 2 else 8) * v * rounds


def parallel_magic_rate(digits: int, average: bool = False) -> float:
    """Clean magic states needed per time step by a lookahead adder.

    Worst case is one per digit; the average-case rate is digits/log2(digits).
    Both are exposed because the worst-case figure drives the preparation
    width column while the average governs sustained throughput.
    """
    digits = as_int(digits, "digits", 1 + average)
    if average:
        return digits / math.log2(digits)
    return float(digits)


# ------------------------------------------------------------ table emission

_RIPPLE_ROWS = (
    ("Emulated binary, metaplectic, via P9", "binary", "MTQC-P9-preparation"),
    ("Emulated binary, via P9 distillation", "binary", "generic-P9-distillation"),
    ("Ternary, metaplectic, via P9", "ternary", "MTQC-P9-preparation"),
    ("Ternary, via P9 distillation", "ternary", "generic-P9-distillation"),
    ("Emulated binary, MTQC inline", "binary", "MTQC-inline"),
    ("Ternary, MTQC inline", "ternary", "MTQC-inline"),
    ("Binary Clifford+T reference", "binary", "binary-CliffordT-reference"),
)

_LOOKAHEAD_ROWS = _RIPPLE_ROWS + (
    ("Binary Clifford+T reference (depth-opt.)", "binary", "binary-CliffordT-reference"),
)


def cost_table(kind: str, bitsize: int, fmt: str = "text") -> str:
    """Emit the ripple or lookahead comparison table as text or CSV."""
    if kind not in ("ripple", "lookahead") or fmt not in ("text", "csv"):
        raise SizeError(f"table kind ripple | lookahead, format text | csv: {kind!r}, {fmt!r}")
    rows = _RIPPLE_ROWS if kind == "ripple" else _LOOKAHEAD_ROWS
    reports = []
    seen_ref = 0
    for label, enc, platform in rows:
        sc = Scenario(bitsize, encoding=enc, adder=kind, platform=platform)
        rep = modexp_cost(sc)
        if platform == "binary-CliffordT-reference" and kind == "lookahead":
            # second reference row: the rotation-based depth baseline
            if seen_ref:
                rep = CostReport(sc, "3n + 6 log2 n",
                                 3 * bitsize + 6 * math.log2(bitsize),
                                 "144 n^2 log2 n", 144.0 * bitsize**2 * math.log2(bitsize),
                                 rep.prep_width_formula, rep.prep_width, "T")
            seen_ref += 1
        reports.append((label, rep))
    header = ("platform", "width", "depth-formula", "depth-value", "prep-width")
    rows = [(label, f"{r.width:.6g}", r.depth_formula, f"{r.depth:.6g}", f"{r.prep_width:.6g}")
            for label, r in reports]
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        return out.getvalue()
    widths = [46, 10, 34, 14, 12]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("-" * sum(widths))
    lines += ["".join(c.ljust(w) for c, w in zip(cells, widths)) for cells in rows]
    return "\n".join(lines) + "\n"
