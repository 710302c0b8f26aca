"""Check that this checkout keeps the solver and CLI results of a git
revision bit for bit.

Usage: python tools/bitwise_gate.py REV

Extracts REV with ``git archive REV | tar -x`` into a temporary directory
(the repository's ``.git`` is only read), then runs ``solver_digest.py`` and
``cli_artifacts.py`` in that tree and in this checkout's working tree and
compares their outputs: the digest lines, and every file the CLI wrote,
exit codes included.  Prints each differing line or file, and for a
differing CSV the largest relative difference over the cells that are
numbers in both; exits 1 on any difference, 0 when both agree.  Also
prints the line count of ``src/biload/*.py`` in both trees, which does not
affect the exit code.
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, dest: Path) -> None:
    """Write the files of git revision rev into the new directory dest."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench_lines(tree: Path, workload: str, seed: int, seconds: str, trace: str) -> list:
    """The output lines of one ``perfbench/run.py`` run of workload in tree."""
    return subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()


def _outputs(tree: Path, out: Path) -> dict:
    """Relative path -> bytes of everything the two tools write for tree."""
    digest = subprocess.run(
        [sys.executable, str(tree / "tools" / "solver_digest.py")],
        check=True, capture_output=True, text=True,
    ).stdout
    subprocess.run(
        [sys.executable, str(tree / "tools" / "cli_artifacts.py"), str(out)],
        check=True, capture_output=True,
    )
    files = {"solver_digest.txt": digest.encode()}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def source_lines(tree: Path) -> int:
    """The lines of tree's src/biload/*.py, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "biload").glob("*.py"))


def relative_difference(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal values (NaN with NaN
    included), inf when just one is NaN."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def max_relative_difference(a: bytes, b: bytes):
    """The largest relative difference between two CSV texts, cell by cell
    over the rows and columns both have, among cells that are numbers in
    both; None when no cell is."""
    rows = (csv.reader(io.StringIO(text.decode(errors="replace"))) for text in (a, b))
    worst = None
    for row_a, row_b in zip(*rows):
        for x, y in zip(row_a, row_b):
            try:
                d = relative_difference(float(x), float(y))
            except ValueError:
                continue
            worst = d if worst is None else max(worst, d)
    return worst


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(rev, base)
        old = _outputs(base, Path(tmp) / "base_out")
        new = _outputs(ROOT, Path(tmp) / "new_out")
        lines = source_lines(base), source_lines(ROOT)
    differing = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        differing += 1
        if a is None or b is None:
            print(f"only at {rev if b is None else 'this checkout'}: {name}")
            continue
        sys.stdout.writelines(difflib.unified_diff(
            a.decode(errors="replace").splitlines(True),
            b.decode(errors="replace").splitlines(True),
            f"{rev}/{name}", f"checkout/{name}", n=0,
        ))
        if name.endswith(".csv"):
            worst = max_relative_difference(a, b)
            moved = "no numeric cells" if worst is None else f"{worst:.3g}"
            print(f"{name}: largest relative difference {moved}")
    print(f"{differing} of {len(old.keys() | new.keys())} outputs differ from {rev}")
    print(f"src/biload/*.py: {lines[0]} lines at {rev}, {lines[1]} in this checkout")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
