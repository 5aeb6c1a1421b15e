"""Line-oriented text format for circuits.

    circuit <width> [<name, the rest of the line>]
    ancilla <w> <w> ...
    gate <NAME> <wire...>
    measure <wire> -> c<k>
    cc c<k>==<v> gate <NAME> <wire...>
    rus {
      <body lines>
    } until <pred> [maxiter <n>] [expected <r>] [label <s>]

``<pred>`` is either ``c<k>==<v>`` terms joined by ``&&`` or
``chain(c<k>) start=<s> accept=<s|...> trans=<s,m,s'|...>``.  A gate that
depends on a loop's outcome is a ``cc`` line after the loop.
``#`` starts a comment.  Round trips are bit-exact: ``serialize`` raises
``CircuitNameError`` for a name or label the reader would cut.

A modexp circuit is a few hundred distinct instructions repeated thousands
of times, so each call handles a distinct line once: ``deserialize`` parses
each distinct ``gate``, ``measure`` and ``cc`` line once per document (a
repeat shares the frozen op), and ``serialize`` formats each distinct block
of ``Circuit.blocks`` once and, in it, each distinct top-level gate once.
The text holds no block marks: it reads back as one block.
"""

from __future__ import annotations

from itertools import takewhile

from .circuit import Chain, Circuit, CondGateOp, GateOp, MeasureOp, RusOp, gate_op
from .errors import CircuitNameError, NonUnitaryError, ParseError, SizeError
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
    # each distinct block and (gate name, wires) is formatted once, from wire
    # numbers spelled once (Circuit keeps every wire inside the width)
    gate_lines, block_text = {}, {}
    wire_text = [str(w) for w in range(c.width)].__getitem__
    for block in c.blocks:
        text = block_text.get(id(block))
        if text is None:
            out = []
            for op in block:
                if isinstance(op, GateOp):
                    key = (op.gate.name, op.wires)
                    line = gate_lines.get(key)
                    if line is None:
                        line = gate_lines[key] = _gate_text(*key, wire_text)
                    out.append(line)
                else:
                    out.extend(_emit(op))
            text = block_text[id(block)] = "\n".join(out)
        lines.append(text)
    return "\n".join(lines) + "\n"


def _gate_text(name: str, wires, wire_text=str) -> str:
    return " ".join(("gate", name, *map(wire_text, wires)))


def _emit(op) -> list[str]:
    if isinstance(op, GateOp):
        return [_gate_text(op.gate.name, op.wires)]
    if isinstance(op, MeasureOp):
        return [f"measure {op.wire} -> c{op.slot}"]
    if isinstance(op, CondGateOp):
        return [f"cc c{op.slot}=={op.value} " + _gate_text(op.op.gate.name, op.wires)]
    out = ["rus {"]  # a RusOp: Circuit checks every op's type
    for sub in op.body.instructions:
        out.extend("  " + ln for ln in _emit(sub))
    tail = "} until " + _emit_pred(op)
    tail += f" maxiter {op.max_iters} expected {op.expected_trials!r}"
    if op.label:
        _check_text("rus label", op.label, space_ok=False)
        tail += f" label {op.label}"
    out.append(tail)
    return out


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
    ancillas: frozenset[int] | None = None
    ops = []
    while True:
        line, ln = cur.read_ops(width, ops, "ancilla ")
        if line is None:
            break
        if ancillas is not None:
            raise ParseError("repeated ancilla line", ln)
        ancillas = frozenset(_int(t, ln) for t in line.split()[1:])
        for w in ancillas:
            if not 0 <= w < width:
                raise ParseError(f"ancilla wire {w} outside width {width}", ln)
    return Circuit(width, tuple(ops), ancillas or frozenset(), name)


def _int(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer, got {tok!r}", ln) from None


def _gate_line(parts, ln, width, start=1) -> GateOp:
    """The shared op of ``gate <NAME> <wire...>``, read from ``parts[start - 1]`` on."""
    if len(parts) < start + 2:
        raise ParseError("gate line too short", ln)
    try:
        matrix_for_name(parts[start])  # an unknown name is reported at its column
    except Exception as exc:
        raise ParseError(str(exc), ln, len(" ".join(parts[:start])) + 2) from None
    wires = tuple(_int(t, ln) for t in parts[start + 1:])
    for w in wires:
        if not 0 <= w < width:
            raise ParseError(f"wire {w} outside width {width}", ln)
    try:
        return gate_op(parts[start], *wires)
    except SizeError as exc:  # repeated wires, or a count other than the arity
        raise ParseError(str(exc), ln) from None


def _parse_slot(tok: str, ln: int):
    # "c<k>==<v>"
    if "==" not in tok or not tok.startswith("c"):
        raise ParseError(f"expected c<k>==<v>, got {tok!r}", ln)
    slot_s, val_s = tok.split("==", 1)
    return _int(slot_s[1:], ln), _int(val_s, ln)


def _parse_op(line, ln, cur, width):
    parts = line.split()
    if parts[0] == "gate":
        return _gate_line(parts, ln, width)
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
        return CondGateOp(slot, value, _gate_line(parts, ln, width, start=3))
    if parts[0] == "rus":
        if parts[-1] != "{":
            raise ParseError("expected 'rus {'", ln)
        return _parse_rus(cur, width)
    raise ParseError(f"unknown instruction {parts[0]!r}", ln)


def _options(pairs, names: tuple, what: str, ln: int) -> dict:
    """The ``[name, value]`` pairs as a dict; ``ParseError`` for a name not in ``names``, a
    repeated name or a missing value."""
    opts = {}
    for name, *value in pairs:
        if name not in names:
            raise ParseError(f"unknown {what} {name!r}", ln)
        if name in opts:
            raise ParseError(f"repeated {what} {name!r}", ln)
        if not value:
            raise ParseError(f"{what} {name!r} needs a value", ln)
        opts[name] = value[0]
    return opts


def _parse_rus(cur, width):
    body_ops = []
    line, ln = cur.read_ops(width, body_ops, "}")
    if line is None:
        raise ParseError("unterminated rus block", ln)
    tail = line[1:].strip().split()
    if len(tail) < 2 or tail[0] != "until":
        raise ParseError("expected '} until <pred> ...'", ln)
    predicate, chain, outcome_slot, rest = (), None, 0, tail[2:]
    if tail[1].startswith("chain(c"):
        if not tail[1].endswith(")"):
            raise ParseError(f"expected chain(c<k>), got {tail[1]!r}", ln)
        outcome_slot = _int(tail[1][len("chain(c"):-1], ln)
        names = ("start", "accept", "trans")
        pairs = [tok.split("=", 1) for tok in takewhile(
            lambda tok: "=" in tok and tok.split("=")[0] in names, rest)]
        rest = rest[len(pairs):]
        fields = _options(pairs, names, "chain field", ln)
        transitions = {}
        for item in fields["trans"].split("|") if fields.get("trans") else ():
            smt = [_int(x, ln) for x in item.split(",")]
            if len(smt) != 3:
                raise ParseError(f"expected <s>,<m>,<s'>, got {item!r}", ln)
            if (smt[0], smt[1]) in transitions:
                raise ParseError(f"repeated transition {item!r}", ln)
            transitions[(smt[0], smt[1])] = smt[2]
        chain = Chain(_int(fields.get("start", "0"), ln), transitions,
                      frozenset(_int(x, ln) for x in fields.get("accept", "").split("|") if x))
    else:
        predicate = tuple(_parse_slot(t, ln) for t in tail[1].split("&&"))
    opts = _options((rest[k:k + 2] for k in range(0, len(rest), 2)),
                    ("maxiter", "expected", "label"), "rus option", ln)
    max_iters = _int(opts.get("maxiter", "1000"), ln)
    try:
        expected = float(opts.get("expected", "1.0"))
    except ValueError:
        raise ParseError(f"expected a number, got {opts['expected']!r}", ln) from None
    try:
        return RusOp(Circuit(width, tuple(body_ops)), predicate, chain, outcome_slot,
                     max_iters, expected, opts.get("label", ""))
    except (NonUnitaryError, SizeError) as exc:
        raise ParseError(str(exc), ln) from None
