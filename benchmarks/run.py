#!/usr/bin/env python3
"""Seeded benchmark of banffscore's three user paths.

    python3 benchmarks/run.py --workload biopsy --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/`` and
builds nothing.  Workloads: ``biopsy``, ``slide``, ``robustness`` (see
``benchmarks/README.md``).  The run sets up its inputs from ``--seed`` and
warms up (three times, to time set-up), then runs ops back to back for ``--seconds``,
checking every op's output.  With ``--trace 1`` each op also runs the
decomposed, traced path and the run reports per-layer metrics instead of
end-to-end ones; the spans go to ``.bench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
names the workload's metrics as the benchmark's README does, with their
sample counts and the machine they ran on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("biopsy", "slide", "robustness")
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run(args: argparse.Namespace, work: Path) -> int:
    import numpy

    import tracing
    import workloads

    seed = args.seed & 0xFFFFFFFFFFFFFFFF
    workload = workloads.make(args.workload, seed, work)
    attempted = failed = 0
    setup_s, fingerprints = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        fingerprints.append(hashlib.sha256(workload.setup()).digest())
        attempted += 1
        try:
            workload.warm_up()
        except Exception:  # counted like any failed op
            failed += 1
            traceback.print_exc()
        setup_s.append(perf_counter() - start)
    inputs_repeat = all(f == fingerprints[0] for f in fingerprints)
    if not inputs_repeat:
        print("set-up: the same seed gave different inputs", file=sys.stderr)

    tracer = tracing.Tracer() if args.trace else None
    timings = defaultdict(list)
    deadline = perf_counter() + args.seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        attempted += 1
        try:
            if tracer is not None:
                tracer.op = i
                result = workload.traced_op(i, tracer)
            else:
                result = workload.op(i)
        except Exception:  # an op failure is counted, and the run goes on
            failed += 1
            traceback.print_exc()
        else:
            for key, value in result.items():
                timings[key].append(value)
        i += 1
    try:
        attempted += workload.finish(tracer)
    except Exception:
        attempted += 1
        failed += 1
        traceback.print_exc()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = timings["op_s"]
    summary = {
        "setup_s": {**_metric(_median(setup_s), "s"), "samples": len(setup_s)},
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "failed_ratio": {**_metric(failed / attempted, "ratio"), "attempted": attempted},
    }
    if args.workload == "robustness":
        trials = workloads.SENSITIVITY_TRIALS
        per_s = [trials / t for t in timings["sensitivity_s"]]
        summary["synth_s"] = {**_metric(_median(timings["synth_s"]), "s"), "samples": len(op_s)}
        summary["trials_per_s"] = {**_metric(_median(per_s), "1/s"), "samples": len(op_s), "trials": trials}
    else:
        summary["section_s_p50"] = {**_metric(_median(op_s), "s"), "samples": len(op_s)}
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine, "metrics": summary, "op_s_samples": op_s}))

    if tracer is not None:
        metrics = {
            name: _metric(value, _unit(name))
            for name, value in tracing.layer_metrics(tracer, op_s).items()
        }
        tracer.write(ROOT / ".bench" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": _metric(_median(setup_s), "s"),
            "op_s_p50": _metric(_median(op_s), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    correct = failed == 0 and inputs_repeat and len(op_s) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "banffscore" / "__init__.py").is_file():
        print(f"benchmark: no program at {src / 'banffscore'}; run it in a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    work = ROOT / ".bench" / f"work-{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
