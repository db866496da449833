#!/usr/bin/env python3
"""trisal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (train-full, ablate-small, infer-clips, score-maps) in this
process against the package sources under ``src/``, checks its outputs, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and the
metrics, end to end with ``--trace 0`` and per layer with ``--trace 1``. The
full result, and with ``--trace 1`` the spans, go to ``perfbench/out/``.
See perfbench/README.md for what each metric means.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-up runs at least this many times and for at least this long; setup_s
# is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
# op_tail_ms is this percentile of the operation latencies on every workload.
# Higher ones did not repeat between runs of the same code: on ablate-small
# about one step in eleven runs a full cyclic garbage collection, and p90 falls
# on the edge of those steps; elsewhere the host's slow stretches set it. See
# "Why the tail is p75" in README.md.
TAIL_PCT = 75

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare-checkpoint", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, pct):
    """Linear-interpolation percentile of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpus": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args):
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            target = os.path.join(workdir, f"setup{len(setup_s)}")
            with spans.instrument(tracer) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                wl.setup(target, args.trace)
                setup_s.append(time.perf_counter() - t0)
            if tracer and os.path.isfile(getattr(wl, "child_trace", "")):
                spans.merge_child(tracer, wl.child_trace, -1)
            if len(setup_s) > 1:  # the last set-up is the one measured; drop the one before
                shutil.rmtree(os.path.join(workdir, f"setup{len(setup_s) - 2}"), ignore_errors=True)
        phase = wl.measure(args.seconds, tracer)
        failures = wl.check()
        quality = wl.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat_ms = [x * 1e3 for x in phase.latencies]
    e2e = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": phase.items / phase.busy,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": percentile(lat_ms, TAIL_PCT),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "operation": wl.unit,
        "ops": len(lat_ms),
        "tail_percentile": TAIL_PCT,
        "setup_runs_s": setup_s,
        "latencies_ms": lat_ms,
        "end_to_end": e2e,
        "quality": quality,
        "failures": failures,
        "machine": machine(),
    }
    if tracer:
        traced = phase.traced
        predicted = traced.items if args.workload == "infer-clips" else 0
        layers = spans.summarize(tracer, traced.units, predicted, phase.overhead_pct())
        result["per_layer"] = layers
        result["traced_end_to_end"] = {
            "op_p50_ms": statistics.median(traced.latencies) * 1e3,
            "throughput_per_s": traced.items / traced.busy,
        }
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), {"per_layer": layers})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.per_layer_names()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {"correct": not failures, "attempted": phase.attempted, "failed": phase.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trisal", "__init__.py")):
        print(f"error: no trisal package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread: on two cores a second one gave no speed-up and doubled
    # the CPU time, and it stalls whenever another process holds the other
    # core. OpenBLAS reads this once, when numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    if args.prepare_checkpoint:
        import workloads

        workloads.prepare_checkpoint(args.prepare_checkpoint, args.seed, args.trace)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
