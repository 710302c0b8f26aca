"""Compare the benchmark's failure counts of a git revision and this checkout.

Usage: python tools/failure_shares.py REV [SEEDS...]

Extracts REV as ``bitwise_gate.py`` does, then runs every workload of
``BENCHMARK.json`` for each seed (default 0 1 2) with
``perfbench/run.py --seconds 3 --trace 0``, in that tree and in this
checkout's working tree.  Prints ``correct attempted failed`` of both side
by side, one line per workload and seed, and exits 1 when a failed share
rose or a run was not correct, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from bitwise_gate import ROOT, bench_lines, extract

SECONDS = "3"


def run(tree: Path, workload: str, seed: int) -> dict:
    """The last line of one benchmark run in tree: correct, attempted, failed."""
    return json.loads(bench_lines(tree, workload, seed, SECONDS, "0")[-1])


def worse(old: dict, new: dict) -> bool:
    """True when new is incorrect or fails a larger share than old."""
    return not new["correct"] or (
        new["failed"] * old["attempted"] > old["failed"] * new["attempted"]
    )


def _cell(result: dict) -> str:
    return f"{str(result['correct']):5} {result['attempted']:4} {result['failed']:4}"


def main(rev: str, seeds: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(rev, base)
        print(f"{'workload':18} {'seed':>4}  {rev + ': correct attempted failed':30}"
              "  checkout: correct attempted failed")
        for workload in workloads:
            for seed in seeds:
                old, new = run(base, workload, seed), run(ROOT, workload, seed)
                flag = worse(old, new)
                bad += flag
                print(f"{workload:18} {seed:4}  {_cell(old):30}  {_cell(new)}"
                      + ("  WORSE" if flag else ""), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], [int(s) for s in sys.argv[2:]] or [0, 1, 2]))
