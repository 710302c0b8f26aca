"""Report the lines of the package that only the tests reach.

Usage: python tools/line_reach.py

Traces every line run in ``src/biload/*.py`` with ``sys.settrace``, in two
passes in this process: first while pytest runs ``tests/``, then while
``cli_artifacts.run_all`` writes every CLI artifact and each workload of
``perfbench/workloads.py`` runs ``setup`` and one ``run_once`` at seed 0
(both into a temporary directory).  Prints, per module, the executable
lines that only the tests reach, then the lines that nothing reaches, as
line ranges.  A line counts as executable when a function, lambda or
comprehension has an instruction on it, so module and class bodies are
left out; what runs while the package is imported counts as reached
outside the tests.  Exits 0 whatever the tests do; writes no bytecode and
nothing under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biload"


def executable_lines(path: Path) -> set:
    """Lines of the file at path that hold an instruction of a function,
    lambda or comprehension, the def line included."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines.update(line for *_, line in code.co_lines() if line is not None)
    return lines


class LineTracer:
    """Context manager recording, per file of files, the lines run (a
    function's def line when it is called) while it is active."""

    def __init__(self, files):
        self.reached = {str(f): set() for f in files}

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        lines = self.reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)
        return self._local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def _ranges(lines) -> str:
    """'3-5, 9' for the lines {3, 4, 5, 9}."""
    out, lines = [], sorted(lines)
    for k, line in enumerate(lines):
        if k == 0 or line != lines[k - 1] + 1:
            out.append([line, line])
        else:
            out[-1][1] = line
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(executable: dict, by_tests: dict, by_use: dict) -> list:
    """Report lines: per module name of executable (name -> lines), the
    lines by_tests reaches and by_use does not, then the lines neither
    reaches, each section with its total."""
    sections = (
        ("only tests reach", lambda n: (executable[n] & by_tests[n]) - by_use[n]),
        ("nothing reaches", lambda n: executable[n] - by_tests[n] - by_use[n]),
    )
    out = []
    for title, pick in sections:
        picked = {name: pick(name) for name in sorted(executable)}
        out.append(f"{title}: {sum(map(len, picked.values()))} lines")
        out.extend(f"  {name} ({len(lines)}): {_ranges(lines)}"
                   for name, lines in picked.items() if lines)
    return out


def _run_tests() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def _run_uses(tmp: Path) -> None:
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    import cli_artifacts
    import workloads

    cli_artifacts.run_all(tmp)
    for name, workload in workloads.WORKLOADS.items():
        run = workload(0, tmp / name)
        run.setup()
        run.run_once(0)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    files = sorted(PACKAGE.glob("*.py"))
    with LineTracer(files) as imports:  # what runs at import counts as used
        for f in files:
            importlib.import_module("biload" + ("" if f.stem == "__init__" else "." + f.stem))
    with LineTracer(files) as tests:
        _run_tests()
    with tempfile.TemporaryDirectory() as tmp, LineTracer(files) as uses:
        _run_uses(Path(tmp))
    name = {str(f): f.name for f in files}
    by_tests = {name[f]: lines for f, lines in tests.reached.items()}
    by_use = {name[f]: lines | imports.reached[f] for f, lines in uses.reached.items()}
    executable = {f.name: executable_lines(f) for f in files}
    print("\n".join(report(executable, by_tests, by_use)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
