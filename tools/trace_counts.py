"""Compare the traced per-layer counts of a git revision and this checkout.

Usage: python tools/trace_counts.py REV WORKLOAD...

Extracts REV as ``bitwise_gate.py`` does, then runs
``perfbench/run.py --workload WORKLOAD --trace 1 --seconds 10 --seed 0`` for
each named workload, in that tree and in this checkout's working tree.
Prints every per-layer metric of ``BENCHMARK.json`` whose unit is ``count``
(a value per traced operation), both sides next to each other, and exits 1
when any of them differs, 0 when all agree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from bitwise_gate import ROOT, bench_lines, extract

SECONDS = "10"


def counts(tree: Path, workload: str, names: list) -> dict:
    """The named per-layer metrics of one traced benchmark run in tree."""
    metrics = json.loads(bench_lines(tree, workload, 0, SECONDS, "1")[-1])["metrics"]
    return {name: metrics[name]["value"] for name in names}


def main(rev: str, workloads: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(rev, base)
        print(f"{'workload':18} {'metric':36} {rev:>14} {'checkout':>14}")
        for workload in workloads:
            old, new = counts(base, workload, names), counts(ROOT, workload, names)
            for name in names:
                flag = old[name] != new[name]
                differing += flag
                print(f"{workload:18} {name:36} {old[name]:14.10g} {new[name]:14.10g}"
                      + ("  DIFFERS" if flag else ""), flush=True)
    print(f"{differing} of {len(names) * len(workloads)} counts differ from {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
