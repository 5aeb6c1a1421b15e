"""In-memory spans around the benchmark's calls into terniq layers.

A span is ``[name, start, end, parent, op, phase, n]``: ``name`` is
``<layer>.<call>``, ``parent`` the index of the enclosing span (-1 for none),
``op`` the operation id, ``phase`` one of ``setup``/``timed``/``probe``, and
``n`` the units of work the call did (gates walked, names resolved), used by
the per-unit metrics.  Spans are only recorded around calls made from the
benchmark's own files; nothing inside terniq is instrumented.
"""

from __future__ import annotations

import statistics
import time


class _NullSpan:
    """Shared no-op span: the untraced run pays one method call per span."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    phase = "setup"
    op = None

    def span(self, name, n=1):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name, n):
        self.tracer = tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append([name, 0.0, 0.0, parent, tracer.op, tracer.phase, n])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.op = None

    def span(self, name, n=1):
        return _Span(self, name, n)


def span_cost_s(reps: int = 20000) -> float:
    """Measured cost of recording one span, from a throwaway tracer."""
    t = Tracer()
    start = time.perf_counter()
    for _ in range(reps):
        with t.span("calibrate"):
            pass
    return (time.perf_counter() - start) / reps


def _measured(t, seconds):
    return seconds


def _duration(span, adjust) -> float:
    start, end = span[1], span[2]
    return adjust((start + end) / 2, end - start)


def self_times(spans, adjust=_measured) -> dict[str, float]:
    """Seconds per layer: each span's duration minus that of its children.

    ``adjust(t, seconds)`` maps a duration measured around moment t to the
    reported one (``hostspeed.HostSpeed.adjust``); by default it is kept.
    """
    durs = [_duration(s, adjust) for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, durs):
        if s[3] >= 0:
            child[s[3]] += d
    out: dict[str, float] = {}
    for s, d, c in zip(spans, durs, child):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + d - c
    return out


#: per-layer metric -> (span names, statistic, scale).  ``median`` is the
#: median span duration; ``per_n`` total duration per work unit; ``n_per_s``
#: work units per second of span time.
LAYER_METRICS = {
    "sim.walk_ms": (("sim.walk",), "median", 1e3, "ms"),
    "sim.walk_ns_per_gate": (("sim.walk",), "per_n", 1e9, "ns"),
    "sim.compile_s": (("sim.compile",), "median", 1.0, "s"),
    "modexp.build_s": (("modexp.build",), "median", 1.0, "s"),
    "sim.compile_ms": (("sim.compile_small",), "median", 1e3, "ms"),
    "sim.small_walk_ms": (("sim.small_walk",), "median", 1e3, "ms"),
    "shor.full_register_ms": (("shor.full_register",), "median", 1e3, "ms"),
    "shor.semiclassical_dist_ms": (("shor.semiclassical_dist",), "median", 1e3, "ms"),
    "shor.gate_run_ms": (("shor.gate_run",), "median", 1e3, "ms"),
    "shor.rounds_ms": (("shor.rounds",), "median", 1e3, "ms"),
    "shor.factor_ms": (("shor.factor",), "median", 1e3, "ms"),
    "shor.postprocess_us": (("shor.postprocess",), "median", 1e6, "us"),
    "sim.rus_shot_ms": (("sim.rus_shot",), "median", 1e3, "ms"),
    "sim.injected_shot_ms": (("sim.injected_shot",), "median", 1e3, "ms"),
    "sim.dense_gates_per_s": (("sim.injected_shot", "qft.wide_run"), "n_per_s", 1.0, "1/s"),
    "qft.wide_run_ms": (("qft.wide_run",), "median", 1e3, "ms"),
    "arithmetic.build_ms": (("arithmetic.build",), "median", 1e3, "ms"),
    "gates.resolve_us": (("gates.resolve",), "per_n", 1e6, "us"),
    "circuit.count_resources_ms": (("circuit.count_resources",), "median", 1e3, "ms"),
    "textfmt.serialize_ms": (("textfmt.serialize",), "median", 1e3, "ms"),
    "textfmt.deserialize_ms": (("textfmt.deserialize",), "median", 1e3, "ms"),
    "costmodel.table_ms": (("costmodel.table",), "median", 1e3, "ms"),
}


def layer_metrics(spans, adjust=_measured) -> dict[str, tuple[float, str, str]]:
    """Evaluate LAYER_METRICS; returns metric -> (value, unit, source phase).

    A metric is taken from the timed phase's spans; one the timed phase never
    records (set-up work such as ``modexp.build`` in ``modexp_walk``) from
    the set-up spans, and a layer the workload never calls from the probe.
    """
    out = {}
    for metric, (names, stat, scale, unit) in LAYER_METRICS.items():
        for source in ("timed", "setup", "probe"):
            picked = [s for s in spans if s[0] in names and s[5] == source]
            if picked:
                break
        durs = [_duration(s, adjust) for s in picked]
        units = sum(s[6] for s in picked)
        if stat == "median":
            value = statistics.median(durs)
        elif stat == "per_n":
            value = sum(durs) / units
        else:
            value = units / sum(durs)
        out[metric] = (value * scale, unit, source)
    return out
