"""Run one benchmark workload against the package in ../src and print its
metrics.

    python3 perfbench/run.py --workload train_stock --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from spans recorded around calls into the package, plus the tracing
overhead.  The line before it carries the machine facts and the
determinism digest.  Everything the run writes goes under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: fastest and steadiest for these small matrices on the
# 2-core machine the workloads were sized on (default threading widened
# the run-to-run spread about threefold).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# Each unit's time is a median over repetitions, which needs three to
# reject one slow sample; traced runs need two of each kind.
MIN_REPETITIONS = 3
MIN_TRACED_REPETITIONS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts(numpy, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": BLAS_THREADS, "workload_seed": seed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "motorgame" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/motorgame", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy

    import layers
    from spans import SpanTable, Tracer
    from workloads import (MIN_PHASE_SECONDS, WORKLOADS, check, derive_seeds,
                           end_to_end_metrics, phase_rates, reference_seconds, run_phases,
                           set_up)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = derive_seeds(workload, args.seed)
    workdir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    clock = time.perf_counter
    setup_times = []
    for _ in range(SETUP_REPEATS):
        reference = reference_seconds()
        t0 = clock()
        inputs = set_up(workload, seeds, workdir)
        setup_times.append((clock() - t0, reference))

    # Untraced mode: every repetition is untraced.  Traced mode alternates
    # untraced and traced repetitions, so the overhead is measured in one
    # process on the same inputs.
    tracer = Tracer() if args.trace else None
    reps = []  # (traced, Checked)
    start = clock()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            outputs = run_phases(inputs, workdir, 0.0 if traced else MIN_PHASE_SECONDS)
        finally:
            if traced:
                tracer.unpatch()
        reps.append((traced, check(inputs, outputs, workdir)))
        elapsed = clock() - start
        enough = len(reps) >= (MIN_TRACED_REPETITIONS if tracer else MIN_REPETITIONS)
        if enough and elapsed + elapsed / len(reps) > args.seconds:
            break

    checked = [c for _, c in reps]
    attempted = sum(c.attempted for c in checked) + len(checked) - 1
    failures = [f for c in checked for f in c.failures]
    failures += [f"repetition {i} digest differs" for i, c in enumerate(checked)
                 if c.digest != checked[0].digest]

    if tracer is None:
        metrics = end_to_end_metrics(
            checked, setup_times, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        traced = [c for t, c in reps if t]
        metrics = layers.layer_metrics(SpanTable.from_tracer(tracer), traced, inputs.hyper)
        with_trace = phase_rates(traced)
        without = phase_rates([c for t, c in reps if not t])
        for name in layers.OVERHEAD_RATES:
            metrics[f"overhead.{name}"] = (
                with_trace[name] / without[name] if without[name] else 0.0, "ratio")
        tracer.dump(workdir / "spans.npz")

    context = {
        "workload": workload.name,
        "machine": machine_facts(numpy, args.seed),
        "seeds": vars(seeds),
        "repetitions": len(reps),
        "traced_repetitions": sum(t for t, _ in reps),
        "digest": checked[0].digest,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(context, result=result,
                  raw_rates=phase_rates(checked, normalized=False),
                  setup_seconds=setup_times,
                  repetitions_detail=[{"traced": t, "seconds": c.seconds, "work": c.work,
                                       "digest": c.digest}
                                      for t, c in reps])
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
