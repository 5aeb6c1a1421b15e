"""The seeded workloads: set-up, one round of operations, and oracles.

``modexp_walk`` walks one big compiled circuit; ``period_finding``,
``dense_sim`` and ``circuit_toolchain`` exercise the shor layer, the dense
state-vector path and the build/count/text/compile toolchain.  Each
workload has

  * ``prepare()`` -- untimed oracle references (reference columns); runs once;
  * ``setup(t, rec)`` -- the timed set-up: build, count and compile the fixed
    circuits and warm caches; the harness repeats it and keeps the median;
  * ``plan(rng, fx)`` -- one round: a fixed multiset of operation kinds, in
    seeded order with seeded inputs, as ``(kind, fn)`` pairs.  ``fn(t, rec)``
    calls into terniq inside spans, checks the result against an independent
    oracle and raises :class:`CheckFailed` on a mismatch.

Rounds have a fixed composition so that the percentiles of a run do not
depend on which kinds the seed happened to draw; the seed picks inputs.
All inputs of a round are drawn in ``plan``, outside the operation timing.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from terniq import costmodel, widgets
from terniq.arithmetic import (
    ShiftSpec,
    compare_to_threshold,
    mod_add_const,
    ripple_add_const,
    ripple_add_const_ternary,
)
from terniq.circuit import GateOp, RusOp, count_resources
from terniq.gates import matrix_for_name
from terniq.modexp import ModExpSpec, modexp_circuit
from terniq.qft import qft3n
from terniq.shor import (
    classical_postprocess,
    full_register_distribution,
    semiclassical_distribution,
    semiclassical_gate_run,
    semiclassical_period_rounds,
    shor_factor,
)
from terniq.sim import (
    StateVector,
    basis_state,
    circuit_unitary,
    compile_classical,
    resource_state,
    run,
    run_compiled,
)
from terniq.textfmt import deserialize, serialize

#: The classical index walk keeps a Python int, but the planned batched
#: kernel stores indices as int64; walked circuits stay inside that range.
MAX_WALK_WIDTH = 39


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class Record:
    """Exact counts and sampled outcomes of one round (or of one set-up)."""

    def __init__(self):
        self.counts: dict[str, float] = {}
        self.outcomes: list[tuple] = []

    def add(self, name, v=1):
        self.counts[name] = self.counts.get(name, 0) + v

    def peak(self, name, v):
        self.counts[name] = max(self.counts.get(name, v), v)

    def out(self, *items):
        self.outcomes.append(items)

    def digest(self) -> int:
        """48-bit digest of the sampled outcomes, equal across runs of a seed."""
        h = hashlib.sha256(repr(self.outcomes).encode()).hexdigest()
        return int(h[:12], 16)


# ------------------------------------------------------------ oracle helpers
# Trit-index arithmetic is rewritten here rather than taken from terniq.sim,
# so the oracles share no code with the paths they check.

def encode(width: int, regs) -> int:
    """Basis index with ``value`` written in ``base`` on each register's wires."""
    trits = [0] * width
    for wires, value, base in regs:
        for j, w in enumerate(wires):
            trits[w] = (value // base**j) % base
    return sum(t * 3**w for w, t in enumerate(trits))


def decode(index: int, width: int) -> list[int]:
    return [(index // 3**w) % 3 for w in range(width)]


def value_of(trits, wires, base) -> int:
    return sum(trits[w] * base**j for j, w in enumerate(wires))


def zero_except(trits, keep) -> bool:
    return all(t == 0 for w, t in enumerate(trits) if w not in keep)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True when a = e^{i phi} b for unit vectors a and b, within ``tol``."""
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-12:
        return False
    return float(np.linalg.norm(a - (overlap / abs(overlap)) * b)) <= tol


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------ modexp_walk

class ModexpWalk:
    """One big compiled circuit walked many times (classical trit walk)."""

    name = "modexp_walk"
    #: host-speed reference task (hostspeed.REFERENCES)
    reference = "interpreter"
    SPECS = (ModExpSpec(2, 21, "binary"), ModExpSpec(2, 15, "ternary"))
    #: walks per round of each spec; ternary twice as often so that the
    #: median sits among ternary walks and the 90th percentile among binary
    PER_ROUND = (4, 8)

    def prepare(self):
        pass

    def setup(self, t, rec):
        fx = []
        for spec in self.SPECS:
            with t.span("modexp.build"):
                layout = modexp_circuit(spec)
            with t.span("circuit.count_resources"):
                rc = count_resources(layout.circuit)
            with t.span("sim.compile"):
                compiled = compile_classical(layout.circuit)
            rec.add("modexp.gates", len(layout.circuit))
            rec.peak("modexp.width", layout.circuit.width)
            rec.add("modexp.dctrl_shifts", layout.dctrl_shift_count)
            rec.add("circuit.p9_total", rc.p9_count)
            fx.append((spec, layout, compiled))
        return fx

    def plan(self, rng, fx):
        ops = []
        for (spec, layout, compiled), count in zip(fx, self.PER_ROUND):
            Q = spec.radix**spec.exp_digits
            for k in rng.integers(0, Q, size=count):
                ops.append(("walk", self._walk_op(spec, layout, compiled, int(k))))
        return _shuffled(rng, ops)

    @staticmethod
    def _walk_op(spec, layout, compiled, k):
        def op(t, rec):
            d, width = spec.radix, layout.circuit.width
            index = encode(width, [(layout.exponent, k, d)])
            with t.span("sim.walk", n=len(compiled)):
                out = run_compiled(compiled, index)
            trits = decode(out, width)
            got = value_of(trits, layout.accumulator, d)
            kept = value_of(trits, layout.exponent, d)
            want = pow(spec.base, k, spec.modulus)
            check(got == want, f"{spec.encoding} N={spec.modulus} k={k}: {got} != {want}")
            check(kept == k, f"exponent register changed: {kept} != {k}")
            check(zero_except(trits, set(layout.exponent) | set(layout.accumulator)),
                  f"scratch wires not restored for k={k}")
            rec.add("sim.walk_gate_steps", len(compiled))
            rec.out(spec.modulus, spec.encoding, k, got)
        return op


# ------------------------------------------------------------ period_finding

class PeriodFinding:
    """Exact distributions, gate-level runs and factoring jobs of the shor layer."""

    name = "period_finding"
    #: host-speed reference task (hostspeed.REFERENCES)
    reference = "interpreter"

    #: The base is fixed at 2 (coprime to every modulus here): the work and
    #: the memory of ``full_register_distribution`` grow with Q / r for the
    #: base's order r, so a seeded base made the run's peak memory and time
    #: depend on which orders the seed drew.  Jobs stay at Q <= 1024 and the
    #: gate-level run at N=15: the Q=4096 and 6561 distributions and the
    #: N=21 and ternary gate runs (0.7 to 2.4 s each) slowed with host load
    #: by up to 40 % more than any reference task, which left 12 to 19 %
    #: run-to-run spread after host-speed adjustment.
    DIST_SPECS = (ModExpSpec(2, 21, "binary"), ModExpSpec(2, 21, "ternary"))
    GATE_SPECS = (ModExpSpec(7, 15, "binary"),)
    FACTOR_N = (15, 21, 33, 35, 39, 51, 55, 57)
    #: semiclassical factoring jobs per operation: each draws its attempts
    #: at random, so one operation factors N twice in the same encoding and
    #: the median operation time does not hinge on single draws
    FACTOR_JOBS = 2
    #: Full-register factoring draws a whole Q^2 distribution per attempt and
    #: its attempt count is random; above Q=1024 that adds seconds of
    #: variance per round while timing the same call the distribution jobs
    #: already time, so it runs on the two moduli with Q <= 1024.
    FULL_REGISTER_N = (15, 21)

    def prepare(self):
        pass

    def setup(self, t, rec):
        spec = ModExpSpec(7, 15, "binary")
        with t.span("shor.full_register"):
            full_register_distribution(spec)
        with t.span("shor.semiclassical_dist"):
            semiclassical_distribution(spec)
        with t.span("shor.factor"):
            shor_factor(15, seed=0)
        return None

    def plan(self, rng, fx):
        ops = []
        for spec in self.DIST_SPECS:
            ops.append(("distribution", self._dist_op(spec)))
        for spec in self.GATE_SPECS:
            ops.append(("gate_run", self._gate_op(spec, _seed(rng))))
        for N in self.FACTOR_N:
            for enc in ("binary", "ternary"):
                seeds = [_seed(rng) for _ in range(self.FACTOR_JOBS)]
                ops.append(("factor", self._factor_op(N, seeds, enc, "semiclassical")))
        for N in self.FULL_REGISTER_N:
            ops.append(("factor", self._factor_op(N, [_seed(rng)], "binary", "full-register")))
        return _shuffled(rng, ops)

    @staticmethod
    def _dist_op(spec):
        def op(t, rec):
            with t.span("shor.full_register"):
                p = full_register_distribution(spec)
            with t.span("shor.semiclassical_dist"):
                q = semiclassical_distribution(spec)
            tv = 0.5 * float(np.abs(p - q).sum())
            check(abs(p.sum() - 1.0) < 1e-9, f"full-register mass {p.sum()}")
            check(tv <= 1e-9, f"{spec}: total variation {tv:.3g} > 1e-9")
            rec.peak("shor.max_tv", tv)
            rec.out("dist", spec.encoding, spec.modulus, spec.base,
                    int((p > 1e-9).sum()), int(np.argmax(p[1:])) + 1)
        return op

    @staticmethod
    def _gate_op(spec, seed):
        def op(t, rec):
            with t.span("shor.gate_run"):
                j = semiclassical_gate_run(spec, seed)
            with t.span("shor.rounds"):
                j_map = semiclassical_period_rounds(spec, np.random.default_rng(seed))
            check(j == j_map, f"{spec} seed {seed}: gate-level j={j}, residue-map j={j_map}")
            Q = spec.radix**spec.exp_digits
            with t.span("shor.postprocess"):
                cand = classical_postprocess(j, Q, spec.modulus, spec.base)
            if cand.verified:
                check(pow(spec.base, cand.period, spec.modulus) == 1,
                      f"postprocess period {cand.period} for {spec}")
            rec.out("gate", spec.encoding, spec.modulus, seed, j, cand.period)
        return op

    @staticmethod
    def _factor_op(N, seeds, encoding, mode):
        def op(t, rec):
            for seed in seeds:
                with t.span("shor.factor"):
                    rep = shor_factor(N, seed=seed, encoding=encoding, mode=mode)
                rec.add("shor.factor_jobs")
                rec.add("shor.factor_attempts", len(rep.trials))
                check(rep.factors is not None, f"shor_factor({N}, seed={seed}, {mode}) found none")
                p, q = rep.factors
                check(1 < p < N and 1 < q < N and p * q == N, f"bad factors {rep.factors} of {N}")
                rec.add("shor.factor_found")
                rec.out("factor", N, encoding, mode, seed, min(p, q), len(rep.trials))
        return op


# ------------------------------------------------------------ dense_sim

def _binary_inputs(width: int, data) -> list[int]:
    """Basis indices with every data wire in {0, 1} and all other wires 0."""
    return [encode(width, [(data, v, 2)]) for v in range(2 ** len(data))]


class DenseSim:
    """Dense state-vector shots: RUS factories, injected widgets, wide QFTs."""

    name = "dense_sim"
    #: host-speed reference task (hostspeed.REFERENCES)
    reference = "mixed"

    #: (name, builder, data wires); references use circuit_unitary up to
    #: width 5.  CCC(NOT) at width 7 would need a 2187^2 unitary (8 s, 80 MB
    #: of oracle memory), so its reference columns come from ideal-mode runs.
    WIDGETS = (
        ("toffoli", lambda: widgets.toffoli_emulated("one_clean"), (0, 1, 2)),
        ("ccc_not", lambda: widgets.ccc_not("two_clean"), (0, 1, 2, 3)),
        ("c1z", widgets.c1z_from_p9, (0, 1)),
        ("cnot", widgets.cnot_emulated, (0, 1)),
    )
    FACTORIES = (("psi", 4), ("eta", 4), ("plus_omega3", 2))
    QFT_N = (8, 10, 12)
    #: operations per round by kind
    PER_ROUND = {"psi": 6, "eta": 4, "plus_omega3": 4,
                 "toffoli": 3, "ccc_not": 3, "c1z": 3, "cnot": 3,
                 8: 2, 10: 3, 12: 1}

    def prepare(self):
        self.columns = {}
        for name, build, data in self.WIDGETS:
            c = build()
            idx = _binary_inputs(c.width, data)
            if c.width <= 5:
                cols = circuit_unitary(c, cap=5)[:, idx]
            else:
                cols = np.stack([run(c, basis_state(c.width, i)).state.amps for i in idx], axis=1)
            self.columns[name] = (idx, cols)

    def setup(self, t, rec):
        fx = {"factories": {}, "widgets": {}, "qft": {}}
        for target, width in self.FACTORIES:
            circ = widgets.resource_state_prep(target)
            fx["factories"][target] = (circ, width)
            run(circ, basis_state(width, 0), seed=0)
        for name, build, _ in self.WIDGETS:
            circ = build()
            fx["widgets"][name] = circ
            run(circ, None, seed=0, gate_mode="injected")
        for n in self.QFT_N:
            with t.span("qft.build"):
                fx["qft"][n] = qft3n(n)
        return fx

    def plan(self, rng, fx):
        ops = []
        for target, (circ, width) in fx["factories"].items():
            for _ in range(self.PER_ROUND[target]):
                ops.append((f"rus_{target}", self._rus_op(target, circ, width, _seed(rng))))
        for name, circ in fx["widgets"].items():
            idx, cols = self.columns[name]
            for _ in range(self.PER_ROUND[name]):
                v = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
                v /= np.linalg.norm(v)
                ops.append((f"injected_{name}",
                            self._injected_op(name, circ, idx, cols, v, _seed(rng))))
        for n, circ in fx["qft"].items():
            for _ in range(self.PER_ROUND[n]):
                v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
                v /= np.linalg.norm(v)
                ops.append((f"qft{n}", self._qft_op(n, circ, v)))
        return _shuffled(rng, ops)

    @staticmethod
    def _rus_op(target, circ, width, seed):
        def op(t, rec):
            with t.span("sim.rus_shot"):
                r = run(circ, basis_state(width, 0), seed=seed)
            trials = r.rus_trials[target][0]
            amps = r.state.amps
            if target == "psi":
                out = amps.reshape(3, 3, 3, 3)[0, :, 0, r.slots[2]]
                parts = [(out, resource_state("psi"))]
            elif target == "eta":
                # wire 0 carries plus_omega3, wire 2 plus_omega3_sq; the
                # syndrome wires 1 and 3 read 0 on success
                block = amps.reshape(3, 3, 3, 3)[0, :, 0, :]
                want = np.outer(resource_state("plus_omega3_sq"), resource_state("plus_omega3"))
                parts = [(block.reshape(-1), want.reshape(-1))]
            else:
                parts = [(amps.reshape(3, 3)[0, :], resource_state(target))]
            for got, want in parts:
                norm = np.linalg.norm(got)
                check(norm > 1e-6 and equal_up_to_phase(got / norm, want, 1e-10),
                      f"{target} factory output is not {target} (seed {seed})")
            rec.add(f"widgets.rus_accepted.{target}")
            rec.add(f"widgets.rus_trials.{target}", trials)
            rec.add("sim.measurements", r.measurements)
            rec.out("rus", target, seed, trials, r.p9_executed)
        return op

    @staticmethod
    def _injected_op(name, circ, idx, cols, v, seed):
        def op(t, rec):
            amps = np.zeros(3**circ.width, dtype=np.complex128)
            amps[idx] = v
            with t.span("sim.injected_shot", n=len(circ)):
                r = run(circ, StateVector(circ.width, amps), seed=seed, gate_mode="injected")
            by_pool = r.state.amps.reshape(3, -1)  # the pool wire is the top wire
            check(float(np.linalg.norm(by_pool[1:])) < 1e-10, f"{name}: pool wire not reset")
            check(equal_up_to_phase(by_pool[0], cols @ v, 1e-10),
                  f"{name}: injected run differs from the unitary reference (seed {seed})")
            rec.add("sim.measurements", r.measurements)
            rec.out("injected", name, seed, r.p9_executed, r.measurements)
        return op

    @staticmethod
    def _qft_op(n, circ, v):
        def op(t, rec):
            with t.span("qft.wide_run", n=len(circ)):
                r = run(circ, StateVector(n, v))
            want = math.sqrt(3**n) * np.fft.ifft(v)
            err = float(np.max(np.abs(r.state.amps - want)))
            check(err < 1e-10, f"qft3n({n}) differs from numpy ifft by {err:.3g}")
            rec.out("qft", n, len(circ))
        return op


# ------------------------------------------------------------ circuit_toolchain

#: widget ledger of the README: (builder, P9 count, P9 depth or None)
WIDGET_LEDGER = (
    ("cnot", widgets.cnot_emulated, 6, None),
    ("toffoli_free", lambda: widgets.toffoli_emulated("none"), 15, None),
    ("toffoli_anc", lambda: widgets.toffoli_emulated("one_clean"), 12, 4),
    ("ccc_two", lambda: widgets.ccc_not("two_clean"), 18, 6),
    ("ccc_one", lambda: widgets.ccc_not("one_clean"), 21, None),
    ("c0inc", lambda: widgets.c_binary_inc(0), 3, None),
    ("c1inc", lambda: widgets.c_binary_inc(1), 3, None),
    ("c2inc_depth1", lambda: widgets.c_binary_inc(2, depth_one=True), 3, 1),
    ("lsum", lambda: widgets.horner_gates("LSUM"), 4, 2),
    ("llsum", lambda: widgets.horner_gates("LLSUM"), 12, None),
    ("cf_lsum", lambda: widgets.horner_gates("CF_LSUM"), 23, None),
    ("cf_sum", lambda: widgets.horner_gates("CF_SUM"), 15, None),
)

#: P9 per digit of an uncontrolled ripple shift, exact (README ledger)
RIPPLE_P9 = {"binary": 12, "ternary": 30}


def _gate_names(circ) -> set[str]:
    names = set()
    for op in circ.instructions:
        if isinstance(op, GateOp):
            names.add(op.gate.name)
        elif isinstance(op, RusOp):
            names |= _gate_names(op.body)
    return names


def _toolchain(t, rec, circ, walks=()):
    """Resolve, count, round-trip and (for permutations) walk one circuit.

    ``walks`` holds ``(index, predicate)`` pairs; each predicate gets the
    output trits and returns an error string or None.  Returns the counts.
    """
    names = sorted(_gate_names(circ))
    with t.span("gates.resolve", n=max(len(names), 1)):
        resolved = [matrix_for_name(n) for n in names]
    check(all(g.name == n for g, n in zip(resolved, names)), "gate name resolution")
    with t.span("circuit.count_resources"):
        rc = count_resources(circ)
    with t.span("textfmt.serialize"):
        text = serialize(circ)
    with t.span("textfmt.deserialize"):
        back = deserialize(text)
    check(back.width == circ.width and back.ancillas == circ.ancillas
          and back.instructions == circ.instructions,
          f"text round trip changed {circ.name}")
    if back.name != circ.name:
        # known defect: names with spaces lose everything after the first
        rec.add("textfmt.name_lost")
    rec.add("textfmt.bytes", len(text))
    rec.add("circuit.p9_total", rc.p9_count)
    if walks and back.width <= MAX_WALK_WIDTH:
        with t.span("sim.compile_small"):
            compiled = compile_classical(back)
        for index, predicate in walks:
            with t.span("sim.small_walk", n=len(compiled)):
                out = run_compiled(compiled, index)
            err = predicate(decode(out, back.width))
            check(err is None, f"{circ.name}: {err}")
            rec.add("sim.walk_gate_steps", len(compiled))
    return rc


def _expect(regs_want, keep):
    """Predicate: each (wires, value, base) register reads value; rest are 0."""
    def predicate(trits):
        for wires, want, base in regs_want:
            got = value_of(trits, wires, base)
            if got != want:
                return f"register {wires} reads {got}, want {want}"
        if not zero_except(trits, keep):
            return "ancillas not restored"
        return None
    return predicate


class CircuitToolchain:
    """A seeded stream of distinct circuits, each built and touched once."""

    name = "circuit_toolchain"
    #: host-speed reference task (hostspeed.REFERENCES)
    reference = "interpreter"

    WALKS = 3
    CONTROLS = ("none", "single", "double")
    #: Binary modexp skips the multiplies by 1, so bases of order 2 mod 15
    #: build half the circuit; drawing among the order-4 bases keeps the cost
    #: of these operations, which set the 90th percentile, independent of the
    #: seed.  Ternary exponent digits multiply by a^(3^j), never 1 here.
    MODEXP_BASES = {"binary": (2, 7, 8, 13), "ternary": (2, 4, 7, 8, 11, 13)}
    MODEXP_ENCODINGS = ("binary", "binary", "ternary")

    def prepare(self):
        pass

    def setup(self, t, rec):
        with t.span("arithmetic.build"):
            ripple_add_const(ShiftSpec(1, 4, "binary", control="double"))
            ripple_add_const_ternary(ShiftSpec(1, 3, "ternary", control="double"))
            mod_add_const(ShiftSpec(1, 3, "ternary", modulus=13, control="double"))
        with t.span("modexp.build"):
            modexp_circuit(ModExpSpec(2, 15, "binary"))
        for _, build, _, _ in WIDGET_LEDGER:
            build()
        with t.span("costmodel.table"):
            costmodel.cost_table("lookahead", 16, "csv")
        return None

    def plan(self, rng, fx):
        ops = []
        for enc in ("binary", "ternary"):
            for control in self.CONTROLS:
                ops.append(("adder", self._adder_op(rng, enc, control)))
            ops.append(("comparator", self._comparator_op(rng, enc)))
            for control in self.CONTROLS:
                ops.append(("mod_shift", self._mod_shift_op(rng, enc, control)))
        for i in rng.choice(len(WIDGET_LEDGER), size=2, replace=False):
            ops.append(("widget", self._widget_op(*WIDGET_LEDGER[int(i)])))
        ops.append(("qft", self._qft_op(int(rng.integers(2, 13)))))
        for enc in self.MODEXP_ENCODINGS:
            spec = ModExpSpec(int(rng.choice(self.MODEXP_BASES[enc])), 15, enc)
            Q = spec.radix**spec.exp_digits
            ks = [int(k) for k in rng.integers(0, Q, size=self.WALKS)]
            ops.append(("modexp", self._modexp_op(spec, ks)))
        kind = str(rng.choice(("ripple", "lookahead")))
        ops.append(("cost_table", self._table_op(kind, int(rng.integers(4, 4097)),
                                                 str(rng.choice(("text", "csv"))))))
        return _shuffled(rng, ops)

    # Controls: binary registers take control values in {0, 1}.  Ternary
    # single controls are strict at level 1 (the shift applies iff c == 1);
    # ternary double controls are strict level 1 on the first wire times the
    # multiplier on the second, exact for multipliers {0, 1}.
    def _adder_op(self, rng, enc, control):
        base = 2 if enc == "binary" else 3
        n = int(rng.integers(4, 33))
        D = base**n
        a = int(rng.integers(0, D))
        spec = ShiftSpec(a, n, enc, control=control)
        walks = []
        for _ in range(self.WALKS):
            b = int(rng.integers(0, D))
            cv = [int(v) for v in rng.integers(0, 3 if enc == "ternary" and control == "single" else 2,
                                               size={"none": 0, "single": 1, "double": 2}[control])]
            walks.append((b, cv))

        def op(t, rec):
            with t.span("arithmetic.build"):
                ac = (ripple_add_const if enc == "binary" else ripple_add_const_ternary)(spec)
            cases = []
            for b, cv in walks:
                if control == "none":
                    eff = 1
                elif enc == "binary":
                    eff = math.prod(cv)
                else:
                    eff = int(cv[0] == 1) * (cv[1] if control == "double" else 1)
                total = b + eff * a
                ctrl = [((w,), v, 3) for w, v in zip(ac.controls, cv)]
                regs = [(ac.data, total % D, base)] + ctrl
                keep = set(ac.data) | set(ac.controls)
                if ac.carry_out is not None:
                    regs.append(((ac.carry_out,), total // D, 3))
                    keep.add(ac.carry_out)
                index = encode(ac.circuit.width, [(ac.data, b, base)] + ctrl)
                cases.append((index, _expect(regs, keep)))
            rc = _toolchain(t, rec, ac.circuit, cases)
            if control == "none":
                want = RIPPLE_P9[enc] * n
                check(rc.p9_count == want, f"{enc} ripple n={n}: {rc.p9_count} P9, ledger {want}")
            rec.out("adder", enc, control, n, a, rc.p9_count)
        return op

    def _comparator_op(self, rng, enc):
        base = 2 if enc == "binary" else 3
        n = int(rng.integers(4, 33))
        D = base**n
        thr = int(rng.integers(0, D))
        bs = [int(b) for b in rng.integers(0, D, size=self.WALKS)]

        def op(t, rec):
            with t.span("arithmetic.build"):
                ac = compare_to_threshold(thr, n, enc)
            cases = []
            for b in bs:
                regs = [(ac.data, b, base), ((ac.result,), int(b >= thr), 3)]
                index = encode(ac.circuit.width, [(ac.data, b, base)])
                cases.append((index, _expect(regs, set(ac.data) | {ac.result})))
            rc = _toolchain(t, rec, ac.circuit, cases)
            rec.out("comparator", enc, n, thr, rc.p9_count)
        return op

    def _mod_shift_op(self, rng, enc, control):
        base = 2 if enc == "binary" else 3
        N = int(rng.integers(13, 36))
        a = int(rng.integers(1, N))
        digits = 1
        while base**digits < 2 * N:
            digits += 1
        mode = "ternary" if enc == "ternary" and control == "single" else 1
        spec = ShiftSpec(a, digits, enc, modulus=N, control=control, control_mode=mode)
        walks = []
        for _ in range(self.WALKS):
            b = int(rng.integers(0, N))
            n_ctrl = {"none": 0, "single": 1, "double": 2}[control]
            cv = [int(v) for v in rng.integers(0, 3 if enc == "ternary" else 2, size=n_ctrl)]
            walks.append((b, cv))

        def op(t, rec):
            with t.span("arithmetic.build"):
                ac = mod_add_const(spec)
            cases = []
            for b, cv in walks:
                if control == "none":
                    eff = 1
                elif enc == "binary":
                    eff = math.prod(cv)
                elif control == "single":
                    eff = cv[0]  # ternary c-fold shift: b + c*a
                else:
                    eff = int(cv[0] == 1) * cv[1]
                ctrl = [((w,), v, 3) for w, v in zip(ac.controls, cv)]
                regs = [(ac.data, (b + eff * a) % N, base)] + ctrl
                index = encode(ac.circuit.width, [(ac.data, b, base)] + ctrl)
                cases.append((index, _expect(regs, set(ac.data) | set(ac.controls))))
            rc = _toolchain(t, rec, ac.circuit, cases)
            rec.out("mod_shift", enc, control, N, a, rc.p9_count)
        return op

    @staticmethod
    def _widget_op(name, build, p9, depth):
        def op(t, rec):
            with t.span("widgets.build"):
                circ = build()
            rc = _toolchain(t, rec, circ)
            check(rc.p9_count == p9, f"{name}: {rc.p9_count} P9, ledger {p9}")
            check(depth is None or rc.p9_depth == depth,
                  f"{name}: P9 depth {rc.p9_depth}, ledger {depth}")
            rec.out("widget", name, rc.p9_count, rc.p9_depth)
        return op

    @staticmethod
    def _qft_op(n):
        def op(t, rec):
            with t.span("qft.build"):
                circ = qft3n(n)
            rc = _toolchain(t, rec, circ)
            rec.out("qft", n, len(circ), rc.p9_count)
        return op

    @staticmethod
    def _modexp_op(spec, ks):
        def op(t, rec):
            with t.span("modexp.build"):
                layout = modexp_circuit(spec)
            d, width = spec.radix, layout.circuit.width
            keep = set(layout.exponent) | set(layout.accumulator)
            cases = [(encode(width, [(layout.exponent, k, d)]),
                      _expect([(layout.exponent, k, d),
                               (layout.accumulator, pow(spec.base, k, spec.modulus), d)], keep))
                     for k in ks]
            rc = _toolchain(t, rec, layout.circuit, cases)
            rec.out("modexp", spec.encoding, spec.base, len(layout.circuit), rc.p9_count)
        return op

    @staticmethod
    def _table_op(kind, bitsize, fmt):
        def op(t, rec):
            with t.span("costmodel.table"):
                text = costmodel.cost_table(kind, bitsize, fmt)
            rows = 7 if kind == "ripple" else 8
            lines = text.strip("\n").split("\n")
            check(len(lines) == rows + (1 if fmt == "csv" else 2),
                  f"{kind} table has {len(lines)} lines for {rows} rows")
            if fmt == "csv":
                # the reference depth rows, from the paper's closed forms; the
                # platform labels hold unquoted commas, so fields count from the right
                n = bitsize
                want = 160.0 * n**3 if kind == "ripple" else 144.0 * n**2 * math.log2(n)
                depths = [float(line.split(",")[-2]) for line in lines[1:]]
                check(any(abs(d - want) <= 1e-5 * want for d in depths),
                      f"{kind} table at n={n} lacks the reference depth {want:.6g}")
            rec.out("table", kind, bitsize, fmt, len(text))
        return op


WORKLOADS = {w.name: w for w in (ModexpWalk, PeriodFinding, DenseSim, CircuitToolchain)}


def probe(t):
    """One call per layer metric on a small fixed input, for the traced run.

    A workload that never calls a layer still reports that layer's metric;
    it comes from these calls, made after the timed phase.
    """
    spec = ModExpSpec(7, 15, "binary")
    with t.span("modexp.build"):
        layout = modexp_circuit(spec)
    with t.span("sim.compile"):
        compiled = compile_classical(layout.circuit)
    with t.span("sim.walk", n=len(compiled)):
        run_compiled(compiled, 1)
    with t.span("arithmetic.build"):
        ac = ripple_add_const(ShiftSpec(5, 8, "binary"))
    with t.span("gates.resolve", n=1):
        matrix_for_name("SUM")
    with t.span("circuit.count_resources"):
        count_resources(ac.circuit)
    with t.span("textfmt.serialize"):
        text = serialize(ac.circuit)
    with t.span("textfmt.deserialize"):
        deserialize(text)
    with t.span("sim.compile_small"):
        small = compile_classical(ac.circuit)
    with t.span("sim.small_walk", n=len(small)):
        run_compiled(small, 1)
    with t.span("costmodel.table"):
        costmodel.cost_table("ripple", 8)
    with t.span("shor.full_register"):
        full_register_distribution(spec)
    with t.span("shor.semiclassical_dist"):
        semiclassical_distribution(spec)
    with t.span("shor.gate_run"):
        j = semiclassical_gate_run(spec, 0)
    with t.span("shor.rounds"):
        semiclassical_period_rounds(spec, np.random.default_rng(0))
    with t.span("shor.postprocess"):
        classical_postprocess(j, 256, 15, 7)
    with t.span("shor.factor"):
        shor_factor(15, seed=0)
    rus = widgets.resource_state_prep("plus_omega3")
    with t.span("sim.rus_shot"):
        run(rus, basis_state(2, 0), seed=0)
    c1z = widgets.c1z_from_p9()
    with t.span("sim.injected_shot", n=len(c1z)):
        run(c1z, basis_state(2, 1), seed=0, gate_mode="injected")
    q = qft3n(6)
    with t.span("qft.wide_run", n=len(q)):
        run(q, basis_state(6, 1))
