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

A modexp circuit is a few hundred distinct instructions repeated thousands
of times, so each call handles a distinct line once: ``deserialize`` parses
each distinct ``gate``, ``measure`` and ``cc`` line once per document (a
repeat shares the frozen op), and ``serialize`` formats each distinct
top-level gate once.
"""

from __future__ import annotations

import math

from .circuit import Chain, Circuit, CondGateOp, GateOp, MeasureOp, RusOp, check_gate_wires
from .errors import CircuitNameError, NonUnitaryError, ParseError, SizeError
from .gates import matrix_for_name


def _check_text(kind: str, text: str, space_ok: bool, marks: str = "#") -> None:
    # the reader strips '#' comments, splits lines, strips or splits on
    # whitespace and splits a consumes list on ',' and ':'
    cut = [ch for ch in text if ch in marks or ch.splitlines() != [ch]
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
    # each distinct (gate name, wires) is formatted once, from wire numbers
    # spelled once (Circuit keeps every wire inside the width)
    gate_lines = {}
    wire_text = [str(w) for w in range(c.width)].__getitem__
    for op in c.instructions:
        if isinstance(op, GateOp):
            key = (op.gate.name, op.wires)
            line = gate_lines.get(key)
            if line is None:
                line = gate_lines[key] = _gate_text(*key, wire_text)
            lines.append(line)
        else:
            lines.extend(_emit(op))
    return "\n".join(lines) + "\n"


def _gate_text(name: str, wires, wire_text=str) -> str:
    return " ".join(("gate", name, *map(wire_text, wires)))


def _emit(op) -> list[str]:
    if isinstance(op, GateOp):
        return [_gate_text(op.gate.name, op.wires)]
    if isinstance(op, MeasureOp):
        return [f"measure {op.wire} -> c{op.slot}"]
    if isinstance(op, CondGateOp):
        return [f"cc c{op.slot}=={op.value} " + _gate_text(op.gate.name, op.wires)]
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
            for n, _ in op.consumes:
                _check_text("resource name", n, space_ok=False, marks="#,:")
            tail += " consumes " + ",".join(f"{n}:{k}" for n, k in op.consumes)
        if op.corrections:
            out.append(tail + " corrections {")
            for key, g, ws in op.corrections:
                out.append(f"  {key}: " + _gate_text(g.name, ws))
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
    """The numbered lines of one document, read once in order.

    ``parsed`` maps the raw text of each ``gate``, ``measure`` and ``cc``
    line read so far to its instruction, so a repeated line is one lookup:
    every check ran on its first occurrence, and the line and the width
    decide the result.
    """

    def __init__(self, text: str):
        lines = text.splitlines()
        self.rows = enumerate(lines, 1)
        self.end = len(lines)
        self.parsed: dict[str, object] = {}

    def next_line(self):
        for ln, raw in self.rows:
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return stripped, ln
        return None, self.end

    def read_ops(self, width: int, ops: list, stop: str):
        """Append instructions to ``ops`` up to the next line starting with
        ``stop``; return that line and its number (None at the end)."""
        parsed = self.parsed
        for ln, raw in self.rows:
            op = parsed.get(raw)
            if op is None:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith(stop):
                    return line, ln
                op = _parse_op(line, ln, self, width)
                if not isinstance(op, RusOp):
                    parsed[raw] = op
            ops.append(op)
        return None, self.end


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
        line, ln = cur.read_ops(width, ops, "ancilla ")
        if line is None:
            break
        ancillas = frozenset(_int(t, ln) for t in line.split()[1:])
        for w in ancillas:
            if not 0 <= w < width:
                raise ParseError(f"ancilla wire {w} outside width {width}", ln)
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
        try:
            return GateOp(g, wires)
        except SizeError as exc:  # repeated wires
            raise ParseError(str(exc), ln) from None
    if parts[0] == "measure":
        if len(parts) != 4 or parts[2] != "->" or not parts[3].startswith("c"):
            raise ParseError("expected 'measure <wire> -> c<k>'", ln)
        wire = _int(parts[1], ln)
        if not 0 <= wire < width:
            raise ParseError(f"wire {wire} outside width {width}", ln)
        return MeasureOp(wire, _int(parts[3][1:], ln))
    if parts[0] == "cc":
        if len(parts) < 3 or parts[2] != "gate":
            raise ParseError("expected 'cc c<k>==<v> gate ...'", ln)
        slot, value = _parse_slot(parts[1], ln)
        g, wires = _gate_from(parts, ln, width, start=3)
        try:
            return CondGateOp(slot, value, g, wires)
        except SizeError as exc:  # repeated wires
            raise ParseError(str(exc), ln) from None
    if parts[0] == "rus":
        if parts[-1] != "{":
            raise ParseError("expected 'rus {'", ln)
        return _parse_rus(cur, width)
    raise ParseError(f"unknown instruction {parts[0]!r}", ln)


def _parse_rus(cur, width):
    body_ops = []
    line, ln = cur.read_ops(width, body_ops, "}")
    if line is None:
        raise ParseError("unterminated rus block", ln)
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
                try:
                    check_gate_wires(g, wires)
                except SizeError as exc:  # repeated wires
                    raise ParseError(str(exc), cln) from None
                corrections.append((_int(key_s, cln), g, wires))
            i = len(tail)
    try:
        return RusOp(Circuit(width, tuple(body_ops)), predicate, chain, outcome_slot,
                     tuple(corrections), max_iters, consumes, expected, label)
    except NonUnitaryError as exc:
        raise ParseError(str(exc), ln) from None
