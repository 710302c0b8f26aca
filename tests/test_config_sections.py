"""Exact text of each single-fault message of `cli.parse_config`, one per
kind of fault and section, on `configs/heat.cfg` with one line changed or
added.  The messages name the line, and scripts match on them."""

import re
from pathlib import Path

import pytest

from biload import cli
from biload.errors import ConfigError

HEAT = (Path(__file__).resolve().parents[1] / "configs" / "heat.cfg").read_text(encoding="utf-8")


def _with(section: str, entry: str) -> str:
    """heat.cfg with entry set in section: replacing the line of its key, or
    added at the top of the section (the section appended if missing)."""
    key = entry.split("=")[0].strip()
    if re.search(rf"^{key}\s*=", HEAT, re.M):
        return re.sub(rf"^{key}\s*=.*$", entry, HEAT, count=1, flags=re.M)
    if f"[{section}]" in HEAT:
        return HEAT.replace(f"[{section}]", f"[{section}]\n{entry}", 1)
    return f"{HEAT}\n[{section}]\n{entry}\n"


def _without(key: str) -> str:
    return re.sub(rf"^{key}\s*=.*\n", "", HEAT, count=1, flags=re.M)


@pytest.mark.parametrize(
    "text, message",
    [
        (_with("mesh", "bogus = 1"), "line 6: unknown key 'bogus' in [mesh]"),
        (_with("mesh", "Nt = x"), "line 7: bad value for Nt: 'x'"),
        (_without("Nt"), "[mesh] is missing key 'Nt'"),
        (_without("x_a"), "[mesh] is missing key 'x_a'"),
        (_with("model", "bogus = 1"), "line 13: model heat has no parameter 'bogus'"),
        (_with("model", "alpha = abc"), "line 15: bad value for alpha: 'abc'"),
        (_with("solver", "relax = abc"), "line 20: relax must be 'auto' or a number"),
        (_with("solver", "relax = 2"), "[solver]: relax must lie in (0, 1], got 2.0"),
        (_with("solver", "tol = x"), "line 19: bad value for tol: 'x'"),
        (_with("solver", "max_iter = 1.5"), "line 19: bad value for max_iter: '1.5'"),
        (_with("solver", "bogus = 1"), "line 19: unknown key 'bogus' in [solver]"),
        (_with("optimize", "step0 = x"), "line 26: bad value for step0: 'x'"),
        (_with("optimize", "bogus = 1"), "line 26: unknown key 'bogus' in [optimize]"),
        (_with("optimize", "backtrack = 2"), "[optimize]: backtrack must lie in (0, 1)"),
        (_with("controls", "bogus = 1"), "line 26: unknown key 'bogus' in [controls]"),
        (_with("controls", "w = -inf"), "line 26: control w must be finite, got '-inf'"),
        (_with("controls", "u = ramp"),
         "line 26: control init must be a number or one of zero, one, sin_x, sin_t, bump_x"),
        (_with("output", "bogus = x"), "line 23: unknown key 'bogus' in [output]"),
    ],
)
def test_single_fault_messages(text, message):
    with pytest.raises(ConfigError) as info:
        cli.parse_config(text)
    assert str(info.value) == message


def test_of_two_missing_mesh_keys_the_first_in_table_order_is_named():
    text = re.sub(r"^(x_a|Nx)\s*=.*\n", "", HEAT, flags=re.M)
    with pytest.raises(ConfigError) as info:
        cli.parse_config(text)
    assert str(info.value) == "[mesh] is missing key 'x_a'"


def test_typed_sections_keep_their_values():
    spec = cli.parse_config(_with("solver", "relax = 0.5") + "\n[optimize]\nmax_outer = 3\n")
    assert spec.solver == {"tol": 1e-10, "relax": 0.5, "max_iter": 500, "divergence_guard": 1e8}
    assert spec.optimize.max_outer == 3 and spec.outdir == "out/heat"
    assert spec.mesh == {"T_final": 0.02, "Nt": 8, "x_a": 0.0, "x_b": 1.0, "Nx": 8}
