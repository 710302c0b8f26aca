"""biload benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in its own subprocess (``worker.py``) with the BLAS thread
variables pinned to one thread, so peak RSS is the workload's own.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the workload's details and the environment.  Metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run must end within 180 s
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: One BLAS thread: the solvers' BLAS calls are small, and idle OpenBLAS
#: workers spinning on the second CPU slow the main thread unevenly.
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    # A fixed threshold turns off glibc's adaptive one, so every large array
    # is its own mmap.  Under the adaptive threshold, where large arrays land
    # depends on earlier frees, and the costate contraction on gradient_fire
    # ran 3 to 4 times slower in some layouts.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="biload benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "biload" / "__init__.py").is_file():
        print(f"error: no biload package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: workload ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
    if proc.returncode != 0:
        print(f"error: workload exited {proc.returncode}", file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if not lines:
        print("error: workload printed no result", file=sys.stderr)
        return 3
    raw = json.loads(lines[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if args.trace:
        values, wanted = raw["per_layer"], spec["per_layer"]
    else:
        values, wanted = {**raw["times"], "peak_rss_mb": peak_rss_mb}, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "problems": raw["problems"], **raw["details"], "peak_rss_mb": peak_rss_mb,
              "env": raw["env"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
