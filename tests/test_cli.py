import csv
import io
import subprocess
import sys
import warnings

import pytest

from terniq.arithmetic import ShiftSpec, ripple_add_const
from terniq.circuit import count_resources
from terniq.cli import main
from terniq.errors import SizeError
from terniq.textfmt import serialize
from terniq import widgets


def run_cli(args):
    return main(args)


def test_gate_show(capsys):
    assert run_cli(["gate-show", "P9"]) == 0
    out = capsys.readouterr().out
    assert "arity 1" in out


def test_gate_show_unknown(capsys):
    assert run_cli(["gate-show", "BOGUS"]) == 1


def test_flag_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "terniq.cli", "cost-table", "--table", "wrong"],
        capture_output=True)
    assert proc.returncode == 2


# (argv, exit status): each subcommand once with good input and once with a bad flag;
# "{file}" is a one-gate circuit file
EXIT_CONTRACT = [
    (["gate-show", "P9"], 0),
    (["gate-show"], 2),
    (["circuit-count", "{file}"], 0),
    (["circuit-count", "{file}", "--bogus"], 2),
    (["circuit-sim", "{file}", "--seed", "4"], 0),
    (["circuit-sim", "{file}", "--seed", "-1"], 2),
    (["circuit-sim", "{file}", "--seed", "1.5"], 2),
    (["circuit-sim", "{file}", "--mode", "noisy"], 2),
    (["widget-verify"], 0),
    (["widget-verify", "--fast"], 2),
    (["adder-verify"], 0),
    (["adder-verify", "--n", "5"], 2),
    (["qft-verify"], 0),
    (["qft-verify", "4"], 2),
    (["shor-run", "--n", "15", "--seed", "7"], 0),
    (["shor-run", "--n", "15", "--base", "7", "--seed", "3", "--mode", "full-register"], 1),
    (["shor-run", "--n", "13"], 1),
    (["shor-run", "--n", "15", "--seed", "-1"], 2),
    (["shor-run", "--n", "15", "--seed", "x"], 2),
    (["shor-run", "--n", "15", "--base", "7", "--seed", "-3"], 2),
    (["shor-run", "--n", "15", "--trials", "0"], 2),
    (["shor-run", "--n", "15", "--mode", "quantum"], 2),
    (["shor-run", "--seed", "1"], 2),
    (["cost-table", "--table", "ripple"], 0),
    (["cost-table", "--table", "wrong"], 2),
    (["cost-table", "--table", "ripple", "--bitsize", "-3"], 2),
    (["budget", "--p-useful", "0.04", "--epsilon", "0.05", "--depth", "10"], 0),
    (["budget", "--p-useful", "0.04", "--epsilon", "0.05"], 2),
    (["budget", "--p-useful", "0.04", "--epsilon", "0.05", "--depth", "-3"], 2),
    (["budget", "--p-useful", "0.5", "--epsilon", "nan", "--depth", "3"], 1),
    (["budget", "--p-useful", "0.5", "--epsilon", "inf", "--depth", "3"], 1),
]


@pytest.mark.parametrize("argv,status", EXIT_CONTRACT, ids=[" ".join(a) for a, _ in EXIT_CONTRACT])
def test_exit_status_contract(argv, status, tmp_path, capsys):
    path = tmp_path / "w.tq"
    path.write_text("circuit 1\ngate INC 0\n")
    argv = [str(path) if a == "{file}" else a for a in argv]
    try:
        got = run_cli(argv)
    except SystemExit as exc:  # argparse rejects a flag
        got = exc.code
    assert got == status


def test_circuit_count_file(tmp_path, capsys):
    path = tmp_path / "toffoli.tq"
    path.write_text(serialize(widgets.toffoli_emulated("one_clean")))
    assert run_cli(["circuit-count", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p9_count         12" in out
    assert "p9_depth         4" in out


#: the widget-verify rows that count a widget's P9 gates, in order
_LEDGER = ["CNOT", "Toffoli (ancilla-free)", "Toffoli (one clean)", "CCC(NOT) (two clean)",
           "CCC(NOT) (one clean)", "C2(INC)", "L(SUM)", "LL(SUM)", "C_f(L(SUM))", "C_f(SUM)"]


def test_circuit_count_prints_rus_and_costed_primitive_rows(tmp_path, capsys):
    psi = tmp_path / "psi.tq"
    psi.write_text(serialize(widgets.resource_state_prep("psi")))
    assert run_cli(["circuit-count", str(psi)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["rus eta: expected x2.25", "rus psi: expected x2.0"]
    adder = ripple_add_const(ShiftSpec(1, 4, "binary", control="double")).circuit
    path = tmp_path / "adder.tq"
    path.write_text(serialize(adder))
    assert run_cli(["circuit-count", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[lines.index("costed primitives:") + 1:]
    tally = count_resources(adder).costed_primitive_tally
    assert tally and rows == [f"  {name}  x{k}" for name, k in tally]


def test_widget_verify_reports_a_failing_count(monkeypatch, capsys):
    def fail(circ):
        raise SizeError("no count")
    monkeypatch.setattr("terniq.cli.count_resources", fail)
    assert run_cli(["widget-verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"[FAIL] {label}: no count" for label in _LEDGER]
    assert lines[-1].startswith("[PASS] C1(Z) network: ")


def test_circuit_sim_file(tmp_path, capsys):
    path = tmp_path / "w.tq"
    path.write_text("circuit 2\ngate H 0\ngate SUM 0 1\nmeasure 0 -> c0\n")
    assert run_cli(["circuit-sim", str(path), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "slots" in out


@pytest.mark.parametrize("cmd", ["circuit-count", "circuit-sim"])
def test_circuit_file_is_closed(cmd, tmp_path, capsys):
    path = tmp_path / "w.tq"
    path.write_text("circuit 1\ngate INC 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([cmd, str(path)]) == 0
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("cmd", ["circuit-count", "circuit-sim"])
def test_non_utf8_circuit_file_exits_1(cmd, tmp_path, capsys):
    path = tmp_path / "latin1.tq"
    path.write_bytes("circuit 1\ngate INC 0  # café\n".encode("latin-1"))
    assert run_cli([cmd, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2, col 1: ")
    assert "is not UTF-8 text" in captured.err


def test_cost_table_csv_stable(capsys):
    assert run_cli(["cost-table", "--table", "ripple", "--format", "csv"]) == 0
    a = capsys.readouterr().out
    assert run_cli(["cost-table", "--table", "ripple", "--format", "csv"]) == 0
    b = capsys.readouterr().out
    assert a == b
    assert "432" in a          # MTQC-inline depth coefficient
    assert a.splitlines()[0] == "platform,width,depth-formula,depth-value,prep-width"
    # platform labels hold commas: every row must still read as 5 fields
    rows = list(csv.reader(io.StringIO(a)))
    assert all(len(row) == 5 for row in rows)
    assert rows[1][0] == "Emulated binary, metaplectic, via P9"


def test_budget(capsys):
    assert run_cli(["budget", "--p-useful", "0.04", "--epsilon", "0.05",
                    "--depth", "10"]) == 0
    out = capsys.readouterr().out
    assert "0.02" in out


def test_qft_verify(capsys):
    assert run_cli(["qft-verify"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_adder_verify(capsys):
    assert run_cli(["adder-verify"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.slow
def test_shor_run(capsys):
    assert run_cli(["shor-run", "--n", "15", "--seed", "7", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "3 x 5" in out or "5 x 3" in out


def test_shor_run_trials_in_order(capsys):
    assert run_cli(["shor-run", "--n", "15", "--seed", "7", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["trial 0", "trial 1", "trial 2"]
    assert all("factors" in line for line in lines)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_shor_run_rejects_trials_below_one(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["shor-run", "--n", "15", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_shor_run_prime_exits_1(capsys):
    assert run_cli(["shor-run", "--n", "13"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prime" in err


def test_shor_run_counts_only_period_finding_attempts(capsys):
    # N = 9 is a perfect power: answered classically, with no attempt
    assert run_cli(["shor-run", "--n", "9", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"trial {i}: factors 3 x 3  (0 period-finding attempts)" for i in (0, 1)]


@pytest.mark.parametrize("cmd", ["circuit-count", "circuit-sim"])
def test_missing_circuit_file_exits_1(cmd, tmp_path, capsys):
    assert run_cli([cmd, str(tmp_path / "missing.tq")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.tq" in err


def test_widget_verify_passes_every_ledger_entry(capsys):
    assert run_cli(["widget-verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split("] ", 1)[1].split(":")[0] for line in lines]
    assert labels == [*_LEDGER, "C1(Z) network"]
    assert all(line.startswith("[PASS] ") for line in lines)


@pytest.mark.parametrize("mode,seed,j", [
    ("semiclassical", 0, 192),
    ("semiclassical-gate", 0, 192),
    ("full-register", 0, 128),
])
def test_shor_run_with_base_factors(mode, seed, j, capsys):
    args = ["shor-run", "--n", "15", "--base", "7", "--seed", str(seed), "--mode", mode]
    assert run_cli(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"measurement j={j} of Q=256; period candidate r=4 verified=True",
                     "factors 3 x 5"]


@pytest.mark.parametrize("mode", ["semiclassical-gate", "full-register"])
def test_shor_run_with_base_exits_1_without_a_period(mode, capsys):
    # seed 3 measures j = 0 on both paths, which gives no period candidate
    args = ["shor-run", "--n", "15", "--base", "7", "--seed", "3", "--mode", mode]
    assert run_cli(args) == 1
    assert capsys.readouterr().out.splitlines() == [
        "measurement j=0 of Q=256; period candidate r=None verified=False"]


@pytest.mark.parametrize("base,r,kind", [(14, 2, "trivial"), (1, 1, "odd-r")])
def test_shor_run_with_base_says_why_a_period_gives_no_factor(base, r, kind, capsys):
    # 14 = -1 mod 15 has period 2 and 14^1 = -1; 1 has the odd period 1
    args = ["shor-run", "--n", "15", "--base", str(base), "--mode", "full-register"]
    assert run_cli(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f"period candidate r={r} verified=True")
    assert lines[1:] == [f"no factor from r={r}: outcome {kind}"]


def test_shor_run_with_base_sharing_a_factor(capsys):
    assert run_cli(["shor-run", "--n", "15", "--base", "6"]) == 0
    assert capsys.readouterr().out == "gcd(6, 15) = 3: factors 3 x 5\n"


@pytest.mark.parametrize("n,base", [(15, 0), (15, 15), (15, 30), (0, 2), (-15, 3)])
def test_shor_run_with_base_reports_only_a_proper_factor(n, base, capsys):
    assert run_cli(["shor-run", "--n", str(n), "--base", str(base)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "no proper factor" in err


@pytest.mark.parametrize("n", [-15, 1])
@pytest.mark.parametrize("mode", ["semiclassical", "semiclassical-gate", "full-register"])
def test_shor_run_with_base_rejects_a_modulus_below_2(n, mode, capsys):
    # 2 has no multiplicative order mod these N
    assert run_cli(["shor-run", "--n", str(n), "--base", "2", "--mode", mode]) == 1
    assert "modulus" in capsys.readouterr().err
