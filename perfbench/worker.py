"""Runs one workload in this process and prints its raw result as JSON.

``run.py`` starts this script in a subprocess per workload, with the BLAS
thread variables pinned, so that peak RSS belongs to one workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import time

from speed import SpeedProbe

# Importing numpy and biload is part of every user's set-up: time it.
with SpeedProbe() as _probe:
    _START = time.perf_counter()
    import argparse
    import json
    import os
    import platform
    import shutil
    import statistics
    import sys

    import numpy as np

    from run import THREAD_VARS
    from spans import Tracer, layer_metrics
    from workloads import ROOT, WORKLOADS

    IMPORT_WALL_S = time.perf_counter() - _START
IMPORT_S = IMPORT_WALL_S * _probe.scale()

#: set-ups per run; the median is ``setup_s``
SETUP_REPEATS = 5
#: what ``op_s`` is on each workload, under its own name in the details line
OP_ALIAS = {"optimize_heat": "optimize_s", "gradcheck_biload": "gradcheck_s",
            "gradient_fire": "solve_plus_gradient_s"}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def timed_wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def tally(outcomes):
    """(operations attempted, operations failed, failed share) over a run."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return attempted, failed, failed / attempted


def measure(workload, seconds: float, trace: bool) -> dict:
    with SpeedProbe() as probe:
        setup_s = [timed_wall(workload.setup) for _ in range(SETUP_REPEATS)]
    setup_s = [t * probe.scale() for t in setup_s]

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    k = 0
    # Start another round only if one more, as long as the longest so far,
    # still ends within the budget.
    longest = 0.0
    while not untraced or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        untraced.append(workload.run_once(k))
        k += 1
        if tracer is not None:
            tracer.run = k
            traced.append(workload.run_once(k, tracer))
            k += 1
        longest = max(longest, time.perf_counter() - round_start)

    outcomes = untraced + traced
    problems = workload.check(outcomes)
    attempted, failed, failed_share = tally(outcomes)

    def median(samples, key):
        return statistics.median(t for o in samples for t in o.times[key])

    times = {key: median(untraced, key) for key in ("op_s", "solve_s", "gradient_s")}
    last = untraced[-1].details
    details = {
        OP_ALIAS[workload.name]: times["op_s"],
        "samples": len(untraced),
        "op_s_samples": [o.times["op_s"][0] for o in untraced],
        "op_wall_s_samples": [o.details.get("op_wall_s") for o in untraced],
        "import_s": IMPORT_S,
        "import_wall_s": IMPORT_WALL_S,
        "setup_s_samples": setup_s,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_share": failed_share,
        **{key: value for key, value in last.items() if key not in ("costs", "op_wall_s")},
        **workload.report,
    }
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "times": {**times, "setup_s": IMPORT_S + statistics.median(setup_s)},
        "details": details,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_s"] = median(traced, "op_s") - times["op_s"]
        result["per_layer"] = layers
        tracer.dump(workload.outdir / "spans.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = ROOT / "perfbench" / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, outdir)
    result = measure(workload, args.seconds, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
