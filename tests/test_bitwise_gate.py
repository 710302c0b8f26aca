"""The CSV summary of tools/bitwise_gate.py."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bitwise_gate", Path(__file__).resolve().parents[1] / "tools" / "bitwise_gate.py"
)
bitwise_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_gate)


def test_largest_relative_difference_over_numeric_cells():
    old = b"level,value,order\n0,1.0,\n1,2.0,1.5\n"
    new = b"level,value,order\n0,1.0,\n1,2.000002,1.5\n"
    worst = bitwise_gate.max_relative_difference(old, new)
    assert math.isclose(worst, 2e-6 / 2.000002, rel_tol=1e-6)
    assert bitwise_gate.max_relative_difference(old, old) == 0.0
    assert bitwise_gate.max_relative_difference(b"a,b\nx,y\n", b"a,b\nx,z\n") is None


def test_relative_difference_of_special_values():
    rd = bitwise_gate.relative_difference
    assert rd(0.0, 0.0) == 0.0 and rd(math.nan, math.nan) == 0.0
    assert rd(math.nan, 1.0) == math.inf
    assert rd(-2.0, 2.0) == 2.0


def test_source_lines_count_newlines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "biload"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (package / "notes.txt").write_text("skipped\n")
    (tmp_path / "src" / "other.py").write_text("skipped\n")
    assert bitwise_gate.source_lines(tmp_path) == 2
