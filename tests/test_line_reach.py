"""The line report of tools/line_reach.py, on a synthetic module."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "line_reach", Path(__file__).resolve().parents[1] / "tools" / "line_reach.py"
)
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

SOURCE = '''\
"""Module docstring."""

X = 1


def used(a):
    """Docstring."""
    if a:
        return 1
    return 2


def tested():
    return [k for k in range(3)]


class C:
    Y = 2

    def never(self):
        return self.Y
'''


def test_report_splits_test_only_and_unreached_lines(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    executable = line_reach.executable_lines(path)
    assert executable == {6, 8, 9, 10, 13, 14, 20, 21}

    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with line_reach.LineTracer([path]) as use:
        module.used(True)
    with line_reach.LineTracer([path]) as tests:
        module.used(False)
        module.tested()
    assert use.reached[str(path)] == {6, 8, 9}
    assert tests.reached[str(path)] == {6, 8, 10, 13, 14}

    lines = line_reach.report(
        {"synthetic.py": executable},
        {"synthetic.py": tests.reached[str(path)]},
        {"synthetic.py": use.reached[str(path)]},
    )
    assert lines == [
        "only tests reach: 3 lines",
        "  synthetic.py (3): 10, 13-14",
        "nothing reaches: 2 lines",
        "  synthetic.py (2): 20-21",
    ]
