"""Command-line front end.

Exit status: 0 success, 1 verification failure, 2 bad flags (argparse).
"""

from __future__ import annotations

import argparse
import sys
from math import gcd
from pathlib import Path

import numpy as np

from . import costmodel
from .arithmetic import ShiftSpec, ripple_add_const, ripple_add_const_ternary
from .circuit import count_resources
from .errors import ParseError, SizeError, TerniqError
from .gates import matrix_for_name
from .modexp import ModExpSpec
from .qft import dft_matrix, qft3n
from .shor import MODES, _factor_from_period, period_finding_run, shor_factor
from .sim import circuit_unitary, run
from .textfmt import deserialize


def _fmt_matrix(m: np.ndarray) -> str:
    out = []
    for row in m:
        out.append("  ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row))
    return "\n".join(out)


def cmd_gate_show(args) -> int:
    g = matrix_for_name(args.name)
    print(f"{g.name}  (arity {g.arity})")
    print(_fmt_matrix(g.matrix))
    return 0


def _read_circuit(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the file's bytes
        before = exc.object[:exc.start].decode("utf-8")  # numbered as the reader numbers lines
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}",
                         len((before + ".").splitlines())) from None
    return deserialize(text)


def cmd_circuit_count(args) -> int:
    circ = _read_circuit(args.file)
    rc = count_resources(circ)
    print(f"width            {rc.width}")
    print(f"p9_count         {rc.p9_count}")
    print(f"p9_depth         {rc.p9_depth}")
    print(f"r_count          {rc.r_count}")
    print(f"clifford_count   {rc.clifford_count}")
    print(f"measurements     {rc.measurement_count}")
    print(f"ancillas         {rc.ancilla_count}")
    if rc.costed_primitive_tally:
        print("costed primitives:")
        for name, k in rc.costed_primitive_tally:
            print(f"  {name}  x{k}")
    for label, mult in rc.rus_expected:
        print(f"rus {label}: expected x{mult}")
    return 0


def cmd_circuit_sim(args) -> int:
    circ = _read_circuit(args.file)
    rec = run(circ, seed=args.seed, gate_mode=args.mode)
    probs = rec.state.probabilities()
    top = np.argsort(probs)[::-1][:8]
    print(f"slots: {rec.slots}")
    print(f"consumed: {dict(rec.consumed)}")
    for i in top:
        if probs[i] > 1e-9:
            print(f"  |{i}>  p={probs[i]:.6f}")
    return 0


def _verify(checks) -> int:
    failed = 0
    for label, fn in checks:
        try:
            ok, detail = fn()
        except TerniqError as exc:
            ok, detail = False, str(exc)
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
        failed += not ok
    return 1 if failed else 0


def cmd_widget_verify(args) -> int:
    from . import widgets

    ledger = (
        ("CNOT", widgets.cnot_emulated(), 6, None),
        ("Toffoli (ancilla-free)", widgets.toffoli_emulated("none"), 15, None),
        ("Toffoli (one clean)", widgets.toffoli_emulated("one_clean"), 12, 4),
        ("CCC(NOT) (two clean)", widgets.ccc_not("two_clean"), 18, 6),
        ("CCC(NOT) (one clean)", widgets.ccc_not("one_clean"), 21, None),
        ("C2(INC)", widgets.c_binary_inc(2), 3, None),
        ("L(SUM)", widgets.horner_gates("LSUM"), 4, 2),
        ("LL(SUM)", widgets.horner_gates("LLSUM"), 12, None),
        ("C_f(L(SUM))", widgets.horner_gates("CF_LSUM"), 23, None),
        ("C_f(SUM)", widgets.horner_gates("CF_SUM"), 15, None),
    )

    def check(name, circ, p9, depth):
        def fn():
            rc = count_resources(circ)
            ok = rc.p9_count == p9 and (depth is None or rc.p9_depth == depth)
            want = f"{p9}" + (f" @ depth {depth}" if depth else "")
            return ok, f"measured {rc.p9_count} @ depth {rc.p9_depth}, expected {want}"
        return fn

    checks = [(name, check(name, circ, p9, depth)) for name, circ, p9, depth in ledger]

    def c1z_exact():
        u = circuit_unitary(widgets.c1z_from_p9())
        w3 = np.exp(2j * np.pi / 3)
        want = np.eye(9, dtype=complex)
        for t in range(3):
            want[1 + 3 * t, 1 + 3 * t] = w3**t
        err = float(np.max(np.abs(u - want)))
        return err < 1e-12, f"matrix error {err:.2e}"

    checks.append(("C1(Z) network", c1z_exact))
    return _verify(checks)


def cmd_adder_verify(args) -> int:
    from .sim import compile_classical, run_compiled, index_of_trits, trits_of_index

    def check_binary():
        n = 4
        for a in range(2**n):
            ac = ripple_add_const(ShiftSpec(a, n, "binary"))
            comp = compile_classical(ac.circuit)
            for b in range(2**n):
                trits = [0] * ac.circuit.width
                for j, w in enumerate(ac.data):
                    trits[w] = (b >> j) & 1
                out = trits_of_index(run_compiled(comp, index_of_trits(trits)), ac.circuit.width)
                got = sum(out[w] << j for j, w in enumerate(ac.data))
                if got != (a + b) % 2**n:
                    return False, f"a={a} b={b}"
        return True, "n=4 exhaustive"

    def check_counts():
        ok = True
        print(f"{'shift':28s}{'measured':>10s}{'modeled':>10s}{'delta':>8s}")
        n = m = 12
        controls = ("none", "single", "double")
        for ctl, coef in zip(controls, costmodel.RIPPLE_PER_BIT["binary"]):
            rc = count_resources(ripple_add_const(ShiftSpec(1, n, "binary", control=ctl)).circuit)
            print(f"binary {ctl:8s} n={n:<10d}{rc.p9_count:>10d}{coef * n:>10d}{rc.p9_count - coef * n:>8d}")
            ok &= abs(rc.p9_count / n - coef) <= 1.0
        for ctl, coef in zip(controls, costmodel.RIPPLE_PER_TRIT):
            rc = count_resources(ripple_add_const_ternary(ShiftSpec(1, m, "ternary", control=ctl)).circuit)
            print(f"ternary {ctl:8s} m={m:<9d}{rc.p9_count:>10d}{coef * m:>10d}{rc.p9_count - coef * m:>8d}")
            ok &= abs(rc.p9_count / m - coef) <= 1.0
        return ok, "per-digit counts within +-1 of the ledger" if ok else "ledger drift"

    return _verify([("binary ripple n=4", check_binary), ("count ledger", check_counts)])


def cmd_qft_verify(args) -> int:
    def check(n):
        def fn():
            u = circuit_unitary(qft3n(n))
            err = float(np.max(np.abs(u - dft_matrix(n))))
            return err < 1e-10, f"max err {err:.2e}"
        return fn
    return _verify([(f"qft3n({n}) vs DFT", check(n)) for n in (1, 2, 3, 4)])


def cmd_shor_run(args) -> int:
    if args.base is not None:
        g = gcd(args.base, args.n)
        if g != 1:
            if not 1 < g < args.n:
                raise SizeError(f"gcd({args.base}, {args.n}) = {g}: no proper factor")
            print(f"gcd({args.base}, {args.n}) = {g}: factors {g} x {args.n // g}")
            return 0
        spec = ModExpSpec(args.base, args.n, args.encoding)
        cand = period_finding_run(spec, seed=args.seed, mode=args.mode)
        print(f"measurement j={cand.measurement} of Q={cand.register_modulus}; "
              f"period candidate r={cand.period} verified={cand.verified}")
        if cand.verified and cand.period:
            kind, p = _factor_from_period(args.base, cand.period, args.n)
            if p:
                print(f"factors {p} x {args.n // p}")
                return 0
            print(f"no factor from r={cand.period}: outcome {kind}")
        return 1

    ok = 0
    for i in range(args.trials):
        rep = shor_factor(args.n, seed=args.seed + i, encoding=args.encoding, mode=args.mode)
        if rep.factors:
            ok += 1
            attempts = sum(kind not in ("gcd", "perfect-power") for _, kind, _ in rep.trials)
            print(f"trial {i}: factors {rep.factors[0]} x {rep.factors[1]}  "
                  f"({attempts} period-finding attempts)")
        else:
            print(f"trial {i}: failed  log={rep.trials}")
    return 0 if ok == args.trials else 1


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def cmd_cost_table(args) -> int:
    print(costmodel.cost_table(args.table, args.bitsize, args.format), end="")
    return 0


def cmd_budget(args) -> int:
    b = costmodel.fidelity_budget(args.p_useful, args.epsilon, args.depth)
    print(f"useful lower bound   {b.useful_lower_bound:.6g}")
    print(f"half-likelihood eps  {b.half_likelihood_epsilon:.6g}")
    print(f"per-gate delta       {b.per_gate_delta:.6g}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="terniq", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gate-show", help="print a catalog gate matrix")
    p.add_argument("name")
    p.set_defaults(fn=cmd_gate_show)

    p = sub.add_parser("circuit-count", help="resource counts of a circuit file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_circuit_count)

    p = sub.add_parser("circuit-sim", help="simulate a circuit file")
    p.add_argument("file")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--mode", choices=("ideal", "injected"), default="ideal")
    p.set_defaults(fn=cmd_circuit_sim)

    p = sub.add_parser("widget-verify", help="run the widget acceptance checks")
    p.set_defaults(fn=cmd_widget_verify)

    p = sub.add_parser("adder-verify", help="run the adder acceptance checks")
    p.set_defaults(fn=cmd_adder_verify)

    p = sub.add_parser("qft-verify", help="check qft3n against the DFT matrix")
    p.set_defaults(fn=cmd_qft_verify)

    p = sub.add_parser("shor-run", help="factor N end to end")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--encoding", choices=("binary", "ternary"), default="binary")
    p.add_argument("--mode", choices=MODES, default="semiclassical")
    p.add_argument("--trials", type=_int_at_least(1), default=1)
    p.set_defaults(fn=cmd_shor_run)

    p = sub.add_parser("cost-table", help="emit a resource table")
    p.add_argument("--table", choices=("ripple", "lookahead"), required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--bitsize", type=int, default=10)
    p.set_defaults(fn=cmd_cost_table)

    p = sub.add_parser("budget", help="evaluate the fidelity budget formulas")
    p.add_argument("--p-useful", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_budget)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (TerniqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
