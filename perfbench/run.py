#!/usr/bin/env python3
"""pineq benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload grade --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are its per-layer metrics,
from a traced pass that follows a warm-up operation and an untraced pass
of the same length (the difference between the two passes is the tracing
overhead).  After the timed phase, the workload's checks also compare the
program with independent float64 references (``reference.py``).

Exit status: 0 when every check passed, 1 when a correctness check failed
(the JSON line is still printed), 2 when the program or its set-up is
unusable, 3 when the metrics disagree with BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grade", "grid-ensemble", "grid-crossmodal")
# One BLAS thread keeps runs steady on a shared machine and leaves the
# other cores to the program's own parallelism.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "examples_per_s": "examples/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
}
# What each workload is built to stress, confirmed by every traced run.
LAYER_EXPECTATIONS = {
    "grade": (("audio.preprocess_audio.calls", ">", 0), ("autodiff.conv2d.calls", "==", 0),
              ("autodiff.backward.calls", "==", 0)),
    "grid-ensemble": (("audio.preprocess_audio.calls", "==", 0),
                      ("image.preprocess_image.calls", "==", 0),
                      ("autodiff.softmax.calls", "==", 0)),
    "grid-crossmodal": (("autodiff.conv2d.calls", "==", 0),),
}
BENCH_UNITS = {
    "bench.accuracy": "ratio",
    "bench.final_loss": "loss",
    "bench.untraced_examples_per_s": "examples/s",
    "bench.traced_examples_per_s": "examples/s",
    "bench.trace_overhead_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_phase(workload, state, seconds, tracer=None):
    """Closed loop: the next operation starts when the previous one ends.

    Stops at the first operation boundary past ``seconds``.
    """
    from workloads import OpResult

    results, latencies = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            res = (tracer.request(workload.op, state, i) if tracer
                   else workload.op(state, i))
        except Exception as exc:  # an operation failure is counted, not fatal
            if sum(1 for r in results if r.examples == 0) < 3:
                traceback.print_exc()
            res = OpResult(0, [f"operation {i} raised {exc!r}"])
        t1 = time.perf_counter()
        results.append(res)
        latencies.append(t1 - t0)
        i += 1
        if t1 - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return results, latencies, elapsed


def check_names(metrics, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[section]}
    have = {name: m["unit"] for name, m in metrics.items()}
    if want != have:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        print(f"metrics disagree with BENCHMARK.json {section}: missing {missing}, "
              f"extra {extra}, unit mismatch {units}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pineq" / "__init__.py").is_file():
        print(f"no pineq package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    pqc_threads = os.environ.pop("PQC_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import tracer as tracing
    import workloads

    env = {
        "blas_threads": BLAS_THREADS,
        "PQC_THREADS": "unset" if pqc_threads is None else f"unset (was {pqc_threads})",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))

    workload = workloads.make(args.workload, args.seed)
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = []
        setup_failures = 0
        if tracer:
            tracer.install()
            if tracer.missing:
                print("boundaries not found: " + ", ".join(tracer.missing), file=sys.stderr)
        state = None
        for rep in range(1 if tracer else SETUP_REPS):
            state = None  # the previous rep's model and corpus are not kept alive
            t0 = time.perf_counter()
            try:
                state = workload.setup(workdir / f"setup{rep}")
            except Exception:
                traceback.print_exc()
                print("set-up failed", file=sys.stderr)
                return 2
            setup_times.append(time.perf_counter() - t0)
            setup_failures += bool(state["failures"])
            for msg in state["failures"]:
                print(f"check failed: {msg}", file=sys.stderr)
            if rep:
                shutil.rmtree(workdir / f"setup{rep - 1}", ignore_errors=True)

        results = []
        if tracer:
            tracer.uninstall()
            # one operation first, so the untraced pass is not charged for first touches
            results, _, _ = run_phase(workload, state, 0)
        untraced, latencies, elapsed = run_phase(workload, state, args.seconds)
        results += untraced
        if tracer:
            untraced_rate = sum(r.examples for r in untraced) / elapsed
            tracer.phase = "timed"
            tracer.install()
            traced, latencies, elapsed = run_phase(workload, state, args.seconds, tracer)
            tracer.uninstall()
            results += traced
        # before the checks, whose references allocate arrays of their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            check_failures = workload.check(state, results)
            accuracy, final_loss = workload.quality(state, results)
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc()
            check_failures = [f"checks raised {exc!r}"]
            accuracy = final_loss = 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in [m for r in results for m in r.failures] + check_failures:
        print(f"check failed: {msg}", file=sys.stderr)
    # every operation, every set-up and the run-level check is one attempt
    attempted = len(results) + len(setup_times) + 1
    failed = sum(1 for r in results if r.failures) + setup_failures + bool(check_failures)
    examples = sum(r.examples for r in (traced if tracer else results))
    rate = examples / elapsed
    tail_s, tail_pct = tail(latencies)
    print(f"operations {len(latencies)} in {elapsed:.3f} s, {examples} examples; "
          f"request_tail_ms is p{tail_pct:.1f} of {len(latencies)} samples")
    print(f"quality: accuracy {accuracy:.4f}, final_loss {final_loss:.4f}")

    if tracer:
        values = tracer.per_layer()
        units = tracing.per_layer_units()
        values.update({
            "bench.accuracy": accuracy,
            "bench.final_loss": final_loss,
            "bench.untraced_examples_per_s": untraced_rate,
            "bench.traced_examples_per_s": rate,
            "bench.trace_overhead_share": 1.0 - rate / untraced_rate if untraced_rate else 0.0,
        })
        units.update(BENCH_UNITS)
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.txt"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for name, op, want in LAYER_EXPECTATIONS[args.workload]:
            met = values[name] > want if op == ">" else values[name] == want
            print(f"layer expectation {name} {op} {want}: "
                  f"{'met' if met else 'NOT MET'} ({values[name]})")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "examples_per_s": rate,
            "request_p50_ms": 1000.0 * statistics.median(latencies),
            "request_tail_ms": 1000.0 * tail_s,
            "success_share": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print("setup_s runs: " + " ".join(f"{t:.3f}" for t in setup_times))

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not check_names(metrics, "per_layer" if tracer else "end_to_end"):
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
