"""Benchmark a git revision against this checkout in alternating pairs.

Usage: python tools/bench_pairs.py REV WORKLOAD [SEEDS...] [--bench N]

Extracts REV as ``bitwise_gate.py`` does, then runs 10 pairs of
``perfbench/run.py --workload WORKLOAD --seed S --seconds 30 --trace 0``:
one run in REV's tree and one in this checkout's working tree, REV first
in even pairs and the checkout first in odd ones.  Pair k takes seed
SEEDS[k % len(SEEDS)] (default 0 1 2).  Prints, for every end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the ratio
of the medians and the pairs the checkout won (ties count for neither
side), then each side's attempted and failed operations.

With ``--bench N`` it also writes every run's result line, both sides'
commit and source hash, and the environment to ``BENCH_N.json`` at the
repository root, under the workload's name; other workloads already in
that file are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bitwise_gate import ROOT, bench_lines, extract

PAIRS = 10
SECONDS = "30"


def run(tree: Path, workload: str, seed: int) -> tuple:
    """(details line, result line) of one benchmark run in tree."""
    details, result = bench_lines(tree, workload, seed, SECONDS, "0")[-2:]
    return json.loads(details), json.loads(result)


def src_hash(tree: Path) -> str:
    """sha256 over the path and bytes of every file under tree/src."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(spec: dict, pairs: list) -> dict:
    """Per end-to-end metric: both sides' quartiles and the checkout's wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": quartiles(base), "change": quartiles(change),
                     "wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 1, 2])
    parser.add_argument("--bench", type=int, help="write BENCH_N.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(args.rev, base)
        sides = {"base": base, "change": ROOT}
        hashes = {side: src_hash(tree) for side, tree in sides.items()}
        for k in range(PAIRS):
            seed = args.seeds[k % len(args.seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                details, pair[side] = run(sides[side], args.workload, seed)
                env = details["env"]
            pairs.append(pair)
            print(f"pair {k}: seed {seed}, {order[0]} first", flush=True)

    summary = summarize(spec, pairs)
    print(f"{args.workload}: {PAIRS} pairs, {args.rev} (base) vs checkout (change)")
    print(f"{'metric':12} {'base median [q1, q3]':32} {'change median [q1, q3]':32}"
          f" {'ratio':>6} wins")
    for name, row in summary.items():
        cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
                 for s in ("base", "change")]
        ratio = row["change"]["median"] / row["base"]["median"]
        print(f"{name:12} {cells[0]:32} {cells[1]:32} {ratio:6.3f} {row['wins']}/{PAIRS}")
    for side in ("base", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        correct = all(p[side]["correct"] for p in pairs)
        print(f"{side}: correct {correct}, attempted {attempted}, failed {failed}")

    if args.bench is not None:
        path = ROOT / f"BENCH_{args.bench}.json"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = {
            "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
            "base": {"rev": args.rev, "commit": _git("rev-parse", args.rev),
                     "src_sha256": hashes["base"]},
            "change": {"commit": _git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(_git("status", "--porcelain")),
                       "src_sha256": hashes["change"]},
            "env": env,
            "summary": summary,
            "pairs": pairs,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
