"""terniq benchmark: one seeded workload per run, checked against oracles.

    python3 bench/run_bench.py --workload modexp_walk --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; terniq is imported from ``src/`` next
to this directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit status is 0 when every operation passed its check, 1 when any failed,
2 on bad arguments or when terniq cannot be found.  See README.md here.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set before numpy is imported, so BLAS and OpenMP start one thread each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: a run goes on past --seconds, in whole rounds, until it has this many
#: operations, so that at least ten lie beyond the 90th percentile
MIN_OPS = 100
#: set-up is repeated and its median reported, so one slow build is not the figure
SETUP_REPS = 5
#: imports are timed more often: they are short, and their time scatters more
IMPORT_REPS = 9
#: run in a fresh interpreter: the imports set-up pays (numpy, terniq, the
#: workloads), timed and adjusted there against reference runs made right
#: after them in the same process
IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import workloads
t1 = time.perf_counter()
import hostspeed
speed = hostspeed.HostSpeed("interpreter")
speed.sample(hostspeed.WINDOW)
print(t1 - t0, speed.adjust(t1, t1 - t0))
"""
OUT_DIR = ROOT / ".bench_out"
#: exact counts, recorded over set-up and the first round
COUNTS = ("modexp.gates", "modexp.width", "modexp.dctrl_shifts", "sim.walk_gate_steps",
          "circuit.p9_total", "textfmt.bytes", "textfmt.name_lost", "sim.measurements")
#: useful-to-attempt ratios: metric -> (numerator count, denominator count)
RATIOS = {
    **{f"widgets.rus_success_ratio.{f}": (f"widgets.rus_accepted.{f}", f"widgets.rus_trials.{f}")
       for f in ("psi", "eta", "plus_omega3")},
    "shor.factor_success_ratio": ("shor.factor_found", "shor.factor_jobs"),
    "shor.attempts_per_factor": ("shor.factor_attempts", "shor.factor_found"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("modexp_walk", "period_finding", "dense_sim", "circuit_toolchain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "terniq").glob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "src_lines": src_lines}


def exact_metrics(counts, digest) -> dict:
    """metric -> (value, unit); 0 where the workload has no such count."""
    out = {name: (counts.get(name, 0), "count") for name in COUNTS}
    for name, (num, den) in RATIOS.items():
        out[name] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0, "ratio")
    out["shor.max_tv"] = (counts.get("shor.max_tv", 0), "ratio")
    out["outcome_digest"] = (digest, "count")
    return out


def quantiles(samples):
    """(p50, p90) with statistics.quantiles' default (exclusive) method."""
    q = statistics.quantiles(samples, n=10)
    return q[4], q[8]


def timed_imports() -> tuple[list[float], list[float]]:
    """Measured and adjusted seconds to import the workloads, IMPORT_REPS times.

    Each repetition imports into a new interpreter, which the call waits for.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(HERE)))}
    measured, adjusted = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        m, a = map(float, proc.stdout.split())
        measured.append(m)
        adjusted.append(a)
    return measured, adjusted


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("run_bench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "terniq" / "__init__.py").is_file():
        print(f"run_bench: no terniq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import hostspeed
    import spans
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    wl = workloads.WORKLOADS[args.workload]()
    import_raw, import_adj = timed_imports()
    # set-up is interpreted Python whatever the workload's operations are
    setup_speed = hostspeed.HostSpeed("interpreter")
    setup_speed.sample(hostspeed.WINDOW)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    wl.prepare()
    setup_raw, setup_adj = [], []
    for _ in range(SETUP_REPS):
        setup_rec = workloads.Record()
        fx = None  # each repetition starts from the same heap
        gc.collect()
        fx, measured, factor = setup_speed.timed(wl.setup, tracer, setup_rec)
        setup_raw.append(measured)
        setup_adj.append(measured * factor)
    setup_s = statistics.median(import_adj) + statistics.median(setup_adj)

    speed = hostspeed.HostSpeed(wl.reference)
    speed.sample(hostspeed.WINDOW)
    rng = np.random.default_rng(args.seed)
    marks, failures, first = [], [], None
    tracer.phase = "timed"
    gc.collect()
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # whole rounds only: every run has the same mix of operation kinds
        rec = workloads.Record()
        for kind, fn in wl.plan(rng, fx):
            tracer.op = len(marks)
            t0 = time.perf_counter()
            try:
                with tracer.span("bench." + kind):
                    fn(tracer, rec)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            marks.append((t0, t1))
            speed.maybe_sample(t1)
        first = first or rec
        if time.perf_counter() >= deadline and len(marks) >= MIN_OPS:
            break
    elapsed = time.perf_counter() - start
    speed.sample(hostspeed.WINDOW)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw = [t1 - t0 for t0, t1 in marks]
    times = [speed.adjust((t0 + t1) / 2, t1 - t0) for t0, t1 in marks]
    attempted, failed = len(times), len(failures)
    p50, p90 = quantiles(times)
    raw_p50, raw_p90 = quantiles(raw)
    end_to_end = {
        "throughput_ops_s": ((attempted - failed) / sum(times), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    exact = exact_metrics({**setup_rec.counts, **first.counts}, first.digest())

    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations in "
          f"{elapsed:.3f} s, {failed} failed, fail_frac {failed / attempted:.6g}; "
          f"op_p90_ms from {attempted} samples, {sum(x > p90 for x in times)} beyond it")
    print(f"setup: this process's imports {import_s:.4f} s measured; imports x{IMPORT_REPS} "
          + " ".join(f"{s:.4f}" for s in import_raw) + " s measured, "
          + " ".join(f"{s:.4f}" for s in import_adj) + f" s adjusted; workload set-up x{SETUP_REPS} "
          + " ".join(f"{s:.4f}" for s in setup_raw) + " s measured, "
          + " ".join(f"{s:.4f}" for s in setup_adj) + " s adjusted")
    print(f"host speed: reference task median {speed.median_ref_s() * 1e3:.4f} ms over "
          f"{len(speed.durations)} runs ({speed.reference} task, {speed.ref_s * 1e3:g} ms at the "
          f"reference speed); measured "
          f"throughput {(attempted - failed) / elapsed:.6g} 1/s of the whole timed phase, "
          f"op p50 {raw_p50 * 1e3:.6g} ms, op p90 {raw_p90 * 1e3:.6g} ms")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print("exact (set-up and first round): " + json.dumps({k: v for k, (v, _) in exact.items()}))
    for msg in failures[:10]:
        print(f"FAILED {msg}")

    if args.trace:
        timed_spans = sum(1 for s in tracer.spans if s[5] == "timed")
        overhead = 100.0 * timed_spans * spans.span_cost_s() / elapsed
        tracer.phase = "probe"
        tracer.op = None
        workloads.probe(tracer)
        speed.sample(hostspeed.WINDOW)

        def adjust(t, seconds):
            return (setup_speed if t < start else speed).adjust(t, seconds)

        layer = spans.layer_metrics(tracer.spans, adjust)
        selfs = spans.self_times([s for s in tracer.spans if s[5] != "probe"], adjust)
        print("self time per layer (adjusted s, set-up and timed phase): "
              + ", ".join(f"{k} {v:.4f}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        for name, (value, unit, source) in layer.items():
            print(f"  {name:<28} {value:.6g} {unit}  ({source})")
        print(f"  trace.overhead_pct           {overhead:.4g} %  (compare with the --trace 0 run)")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                              "phase", "n"], "spans": tracer.spans}))
        print(f"spans written to {out}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layer.items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for name, (value, unit) in exact.items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
