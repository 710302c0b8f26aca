"""Run every CLI subcommand on every shipped config and keep the artifacts.

Usage: python tools/cli_artifacts.py OUTDIR

Runs the 7 subcommands on the 3 configs in ``configs/`` with seed 0, each
into ``OUTDIR/<config>/<subcommand>/``, and writes one line
``<config> <subcommand> <exit code>`` per run to ``OUTDIR/exit_codes.txt``.
The package is imported from the ``src/`` next to this script, so two
checkouts can be compared with ``diff -r`` on their output directories.
Everything written is deterministic; nothing timing-dependent goes in.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from biload.cli import main  # noqa: E402

CONFIGS = ("volterra", "heat", "biload")
SUBCOMMANDS = ("solve", "cost", "grad-check", "optimize", "ibp-demo", "curve-demo", "refine")


def run_all(outdir: Path) -> list:
    codes = []
    for config in CONFIGS:
        for sub in SUBCOMMANDS:
            target = outdir / config / sub
            argv = [sub, "--config", str(ROOT / "configs" / f"{config}.cfg"),
                    "--out", str(target), "--seed", "0"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            codes.append(f"{config} {sub} {rc}")
    (outdir / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    print("\n".join(run_all(out)))
