"""Line-oriented text format for circuits.

    circuit <width> [<name, the rest of the line>]
    ancilla <w> <w> ...
    gate <NAME> <wire...>
    measure <wire> -> c<k>
    cc c<k>==<v> gate <NAME> <wire...>
    rus {
      <body lines>
    } until <pred> [maxiter <n>] [expected <r>] [label <s>] [consumes <name>:<k>,...] [corrections {
      <key>: gate <NAME> <wire...>
    }]

``<pred>`` is either ``c<k>==<v>`` terms joined by ``&&`` or
``chain(c<k>) start=<s> accept=<s|...> trans=<s,m,s'|...>``.
``#`` starts a comment.  Round trips are bit-exact: ``serialize`` raises
``CircuitNameError`` for a name or label the reader would cut.
"""

from __future__ import annotations

import math

from .circuit import Chain, Circuit, CondGateOp, GateOp, MeasureOp, RusOp
from .errors import CircuitNameError, ParseError
from .gates import matrix_for_name


def _check_text(kind: str, text: str, space_ok: bool) -> None:
    # the reader strips '#' comments, splits lines and strips or splits on whitespace
    cut = [ch for ch in text if ch == "#" or ch.splitlines() != [ch]
           or (ch.isspace() and not space_ok)]
    if cut:
        raise CircuitNameError(f"{kind} {text!r} holds {cut[0]!r}, which the reader cuts")
    if text != text.strip():
        raise CircuitNameError(f"{kind} {text!r} has edge whitespace, which the reader strips")


def serialize(c: Circuit) -> str:
    _check_text("circuit name", c.name, space_ok=True)
    lines = [f"circuit {c.width}" + (f" {c.name}" if c.name else "")]
    if c.ancillas:
        lines.append("ancilla " + " ".join(str(w) for w in sorted(c.ancillas)))
    for op in c.instructions:
        lines.extend(_emit(op))
    return "\n".join(lines) + "\n"


def _emit(op) -> list[str]:
    if isinstance(op, GateOp):
        return [f"gate {op.gate.name} " + " ".join(map(str, op.wires))]
    if isinstance(op, MeasureOp):
        return [f"measure {op.wire} -> c{op.slot}"]
    if isinstance(op, CondGateOp):
        return [f"cc c{op.slot}=={op.value} gate {op.gate.name} " + " ".join(map(str, op.wires))]
    if isinstance(op, RusOp):
        out = ["rus {"]
        for sub in op.body.instructions:
            out.extend("  " + ln for ln in _emit(sub))
        tail = "} until " + _emit_pred(op)
        tail += f" maxiter {op.max_iters} expected {op.expected_trials!r}"
        if op.label:
            _check_text("rus label", op.label, space_ok=False)
            tail += f" label {op.label}"
        if op.consumes:
            tail += " consumes " + ",".join(f"{n}:{k}" for n, k in op.consumes)
        if op.corrections:
            out.append(tail + " corrections {")
            for key, g, ws in op.corrections:
                out.append(f"  {key}: gate {g.name} " + " ".join(map(str, ws)))
            out.append("}")
        else:
            out.append(tail)
        return out
    raise TypeError(op)


def _emit_pred(op: RusOp) -> str:
    if op.chain is not None:
        ch = op.chain
        trans = "|".join(f"{s},{m},{t}" for (s, m), t in sorted(ch.transitions.items()))
        acc = "|".join(str(s) for s in sorted(ch.accept))
        return f"chain(c{op.outcome_slot}) start={ch.start} accept={acc} trans={trans}"
    return "&&".join(f"c{s}=={v}" for s, v in op.predicate)


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self):
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return stripped, self.pos
        return None, self.pos


def deserialize(text: str) -> Circuit:
    cur = _Cursor(text)
    line, ln = cur.next_line()
    if line is None:
        raise ParseError("empty document", 1)
    parts = line.split()
    if parts[0] != "circuit" or len(parts) < 2:
        raise ParseError("expected 'circuit <width>'", ln)
    width = _int(parts[1], ln)
    if width < 0:
        raise ParseError(f"negative width {width}", ln)
    name = line.split(None, 2)[2] if len(parts) > 2 else ""
    ancillas: frozenset[int] = frozenset()
    ops = []
    while True:
        line, ln = cur.next_line()
        if line is None:
            break
        if line.startswith("ancilla "):
            ancillas = frozenset(_int(t, ln) for t in line.split()[1:])
            for w in ancillas:
                if not 0 <= w < width:
                    raise ParseError(f"ancilla wire {w} outside width {width}", ln)
            continue
        ops.append(_parse_op(line, ln, cur, width))
    return Circuit(width, tuple(ops), ancillas, name)


def _int(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer, got {tok!r}", ln) from None


def _consumed(item: str, ln: int) -> tuple[str, int]:
    # "<name>:<k>"
    name, sep, k = item.partition(":")
    if not sep:
        raise ParseError(f"expected <name>:<k>, got {item!r}", ln)
    return name, _int(k, ln)


def _gate_from(parts, ln, width, start=1):
    if len(parts) < start + 2:
        raise ParseError("gate line too short", ln)
    try:
        g = matrix_for_name(parts[start])
    except Exception as exc:
        raise ParseError(str(exc), ln, len(" ".join(parts[:start])) + 2) from None
    wires = tuple(_int(t, ln) for t in parts[start + 1:])
    for w in wires:
        if not 0 <= w < width:
            raise ParseError(f"wire {w} outside width {width}", ln)
    if len(wires) != g.arity:
        raise ParseError(f"{g.name} needs {g.arity} wires, got {len(wires)}", ln)
    return g, wires


def _parse_slot(tok: str, ln: int):
    # "c<k>==<v>"
    if "==" not in tok or not tok.startswith("c"):
        raise ParseError(f"expected c<k>==<v>, got {tok!r}", ln)
    slot_s, val_s = tok.split("==", 1)
    return _int(slot_s[1:], ln), _int(val_s, ln)


def _parse_op(line, ln, cur, width):
    parts = line.split()
    if parts[0] == "gate":
        g, wires = _gate_from(parts, ln, width, start=1)
        return GateOp(g, wires)
    if parts[0] == "measure":
        if len(parts) != 4 or parts[2] != "->" or not parts[3].startswith("c"):
            raise ParseError("expected 'measure <wire> -> c<k>'", ln)
        return MeasureOp(_int(parts[1], ln), _int(parts[3][1:], ln))
    if parts[0] == "cc":
        if len(parts) < 3 or parts[2] != "gate":
            raise ParseError("expected 'cc c<k>==<v> gate ...'", ln)
        slot, value = _parse_slot(parts[1], ln)
        g, wires = _gate_from(parts, ln, width, start=3)
        return CondGateOp(slot, value, g, wires)
    if parts[0] == "rus":
        if parts[-1] != "{":
            raise ParseError("expected 'rus {'", ln)
        return _parse_rus(cur, width)
    raise ParseError(f"unknown instruction {parts[0]!r}", ln)


def _parse_rus(cur, width):
    body_ops = []
    while True:
        line, ln = cur.next_line()
        if line is None:
            raise ParseError("unterminated rus block", ln)
        if line.startswith("}"):
            break
        body_ops.append(_parse_op(line, ln, cur, width))
    tail = line[1:].strip().split()
    if len(tail) < 2 or tail[0] != "until":
        raise ParseError("expected '} until <pred> ...'", ln)
    i = 1
    predicate: tuple = ()
    chain = None
    outcome_slot = 0
    if tail[i].startswith("chain(c"):
        head = tail[i]
        if not head.endswith(")"):
            raise ParseError(f"expected chain(c<k>), got {head!r}", ln)
        outcome_slot = _int(head[len("chain(c"):-1], ln)
        opts = {}
        i += 1
        while i < len(tail) and "=" in tail[i] and tail[i].split("=")[0] in ("start", "accept", "trans"):
            k, v = tail[i].split("=", 1)
            opts[k] = v
            i += 1
        transitions = {}
        if opts.get("trans"):
            for item in opts["trans"].split("|"):
                smt = [_int(x, ln) for x in item.split(",")]
                if len(smt) != 3:
                    raise ParseError(f"expected <s>,<m>,<s'>, got {item!r}", ln)
                transitions[(smt[0], smt[1])] = smt[2]
        chain = Chain(_int(opts.get("start", "0"), ln),
                      transitions,
                      frozenset(_int(x, ln) for x in opts.get("accept", "").split("|") if x))
    else:
        predicate = tuple(_parse_slot(t, ln) for t in tail[i].split("&&"))
        i += 1
    max_iters, expected, label = 1000, 1.0, ""
    consumes: tuple = ()
    corrections = []
    while i < len(tail):
        tok = tail[i]
        if tok not in ("maxiter", "expected", "label", "consumes", "corrections"):
            raise ParseError(f"unknown rus option {tok!r}", ln)
        if i + 1 == len(tail):
            raise ParseError(f"rus option {tok!r} needs a value", ln)
        value = tail[i + 1]
        i += 2
        if tok == "maxiter":
            max_iters = _int(value, ln)
        elif tok == "expected":
            try:
                expected = float(value)
            except ValueError:
                raise ParseError(f"expected a number, got {value!r}", ln) from None
            if not math.isfinite(expected) or expected <= 0:
                raise ParseError(f"expected trials must be positive and finite, got {value!r}", ln)
        elif tok == "label":
            label = value
        elif tok == "consumes":
            consumes = tuple(_consumed(item, ln) for item in value.split(","))
        else:
            if value != "{":
                raise ParseError("expected 'corrections {'", ln)
            while True:
                cline, cln = cur.next_line()
                if cline is None:
                    raise ParseError("unterminated corrections block", cln)
                if cline.startswith("}"):
                    break
                if ":" not in cline:
                    raise ParseError("corrections entries are 'key: gate ...'", cln)
                key_s, rest = cline.split(":", 1)
                parts = rest.split()
                if not parts or parts[0] != "gate":
                    raise ParseError("corrections entries are 'key: gate ...'", cln)
                g, wires = _gate_from(parts, cln, width, start=1)
                corrections.append((_int(key_s, cln), g, wires))
            i = len(tail)
    return RusOp(Circuit(width, tuple(body_ops)), predicate, chain, outcome_slot,
                 tuple(corrections), max_iters, consumes, expected, label)
