"""Command-line entry point.

Reads a line-oriented config with bracketed sections ([mesh], [model],
[solver], [optimize], [controls], [output]), `key = value` pairs, and
`#` comments.  Unknown sections or keys abort before any computation.
Subcommands: solve, cost, grad-check, optimize, ibp-demo, curve-demo,
refine.  All outputs are CSV files, byte-identical across runs for a
fixed config and seed.

Exit status: 0 on success (and a passing grad-check), 1 for a failing
grad-check, 2 for config errors and an unusable output directory, 3 for
solver failures.  optimize exits 0 whatever its stop reason,
`line_search_failed` included; it prints the status instead, then its
line-search trials, solved members and their forward sweeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, KernelEvalError, SingularSystemError
from .forward import SolverConfig, eval_cost, solve_forward
from .mesh import Mesh, build_curve_mesh, build_mesh
from .models import (
    ModelParams,
    make_model,
    make_params,
    model_reference,
    picard_relax_hint,
)
from .optimize import OptimizeOptions, run_gd
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    LAYOUTS,
    ControlBundle,
    derive_slots,
    zero_controls,
)
from .verify import (
    _TIGHT,
    _refined,
    gradient_check,
    ibp_residual,
    refinement_study,
    skew_adjoint_residual,
    _ibp_test_fields,
)

@dataclass
class RunSpec:
    mesh: dict
    model: ModelParams
    solver: dict  # tol, relax ("auto" or float), max_iter, divergence_guard
    optimize: OptimizeOptions
    controls: dict  # block -> ("const", value) or ("profile", name)
    outdir: str


def _relax(value: str):
    """A [solver] relax value: 'auto' or a number."""
    try:
        return value if value == "auto" else float(value)
    except ValueError:
        raise ConfigError("relax must be 'auto' or a number") from None


_MESH_KEYS = {"T_final": float, "Nt": int, "x_a": float, "x_b": float, "Nx": int}
_SOLVER_KEYS = {
    "tol": float,
    "relax": _relax,
    "max_iter": int,
    "divergence_guard": float,
}
_SOLVER_DEFAULTS = {**dataclasses.asdict(SolverConfig()), "relax": "auto"}
_OPT_KEYS = {
    "max_outer": int,
    "armijo_c": float,
    "backtrack": float,
    "step0": float,
    "gtol": float,
}
#: Profile name -> (axis letter it varies along, shape on the unit interval);
#: zero and one are constants on every block.
_PROFILES = {
    "zero": None,
    "one": None,
    "sin_x": ("j", lambda z: np.sin(np.pi * z)),
    "sin_t": ("i", lambda z: np.sin(np.pi * z)),
    "bump_x": ("j", lambda z: 4.0 * z * (1.0 - z)),
}


def _control_init(block: str, value: str) -> tuple:
    """A [controls] value of block: a finite number v gives ("const", v), a
    profile name ("profile", name)."""
    if value in _PROFILES:
        return "profile", value
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(
            f"control init must be a number or one of {', '.join(_PROFILES)}"
        ) from None
    if not np.isfinite(number):
        raise ConfigError(f"control {block} must be finite, got {value!r}")
    return "const", number


_CONTROL_KEYS = {block: functools.partial(_control_init, block) for block in CONTROL_BLOCKS}


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _typed(items: dict, section: str, converters: dict, unknown="unknown key {!r} in [{}]") -> dict:
    """The (value, line) entries of a config section, each converted by its
    key's function in converters.  A key without one raises the unknown
    message, formatted with the key and section; a value its converter
    refuses raises "bad value", or the converter's own ConfigError text."""
    out = {}
    for key, (value, lineno) in items.items():
        if key not in converters:
            raise ConfigError(f"line {lineno}: " + unknown.format(key, section))
        try:
            out[key] = converters[key](value)
        except ValueError as exc:
            why = exc if isinstance(exc, ConfigError) else f"bad value for {key}: {value!r}"
            raise ConfigError(f"line {lineno}: {why}") from None
    return out


def parse_config(text: str) -> RunSpec:
    """Parse and validate a config document; fail closed on anything
    unrecognized, reporting the offending line."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("mesh", "model", "solver", "optimize", "controls", "output"):
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: malformed entry {line!r}")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (value, lineno)

    if "mesh" not in sections:
        raise ConfigError("missing required section [mesh]")
    if "model" not in sections or "name" not in sections["model"]:
        raise ConfigError("missing required section [model] with a name key")

    missing = [key for key in _MESH_KEYS if key not in sections["mesh"]]
    if missing:
        raise ConfigError(f"[mesh] is missing key {missing[0]!r}")
    mesh = _typed(sections["mesh"], "mesh", _MESH_KEYS)
    build_mesh(**mesh)

    model_items = dict(sections["model"])
    name, _ = model_items.pop("name")
    schema = dict.fromkeys(make_params(name).values, float)
    params = make_params(name, **_typed(model_items, "model", schema, f"model {name} has no parameter {{!r}}"))

    solver = {**_SOLVER_DEFAULTS, **_typed(sections.get("solver", {}), "solver", _SOLVER_KEYS)}
    relax = solver["relax"]
    try:
        SolverConfig(**{**solver, "relax": 1.0 if relax == "auto" else relax})
    except ConfigError as exc:
        raise ConfigError(f"[solver]: {exc}") from None

    opt_kwargs = _typed(sections.get("optimize", {}), "optimize", _OPT_KEYS)
    try:
        options = OptimizeOptions(**opt_kwargs)
    except ConfigError as exc:
        raise ConfigError(f"[optimize]: {exc}") from None

    controls = {block: ("const", 0.0) for block in CONTROL_BLOCKS}
    controls.update(_typed(sections.get("controls", {}), "controls", _CONTROL_KEYS))

    outdir = _typed(sections.get("output", {}), "output", {"dir": str}).get("dir", "out")
    return RunSpec(
        mesh=mesh,
        model=params,
        solver=solver,
        optimize=options,
        controls=controls,
        outdir=outdir,
    )


def _profile_field(mesh: Mesh, block: str, name: str) -> np.ndarray:
    """A profile laid along its axis of the block's layout; blocks without
    that axis reject it."""
    if _PROFILES[name] is None:
        return 1.0 if name == "one" else 0.0
    letter, shape_fn = _PROFILES[name]
    letters = LAYOUT[block].letters
    if letter not in letters:
        raise ConfigError(f"profile {name} is not defined for block {block!r}")
    if letter == "i":
        unit = mesh.t / mesh.T_final
    else:
        unit = (mesh.x - mesh.x_a) / (mesh.x_b - mesh.x_a)
    shape = [1] * (len(letters) + 1)
    shape[letters.index(letter)] = unit.size
    return shape_fn(unit).reshape(shape)


def build_controls(spec: RunSpec, mesh: Mesh, problem) -> ControlBundle:
    ctrl = zero_controls(mesh, problem.m_u, problem.m_w)
    for block, (kind, value) in spec.controls.items():
        arr = getattr(ctrl, block)
        if arr.size == 0:
            continue
        if kind == "const":
            arr += value
        else:
            arr += _profile_field(mesh, block, value)
    return ctrl


def _solver_cfg(spec: RunSpec, mesh: Mesh) -> SolverConfig:
    relax = spec.solver["relax"]
    if relax == "auto":
        relax = picard_relax_hint(spec.model, mesh)
    return SolverConfig(**{**spec.solver, "relax": relax})


def _tight_cfg(spec: RunSpec, mesh: Mesh) -> SolverConfig:
    """The config's solver settings tightened for gradient checks and
    refinement: tol and max_iter at least as tight as verify's defaults."""
    cfg = _solver_cfg(spec, mesh)
    return dataclasses.replace(
        cfg, tol=min(cfg.tol, _TIGHT.tol), max_iter=max(cfg.max_iter, _TIGHT.max_iter)
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_SIDES = ("left", "right")


#: CSV header of each node axis letter (see state.Layout).
_AXIS_HEADERS = {"i": "t", "j": "x", "b": "side"}


def write_block_csvs(outdir: Path, mesh: Mesh, named) -> None:
    """Write (file stem, layout, array) blocks in the shared CSV schema:
    one row per node and component, the node's coordinates first
    (t, x, side per the layout's axes), then k and the value.  Empty
    blocks are skipped."""
    labels = {"i": [_fmt(t) for t in mesh.t], "j": [_fmt(x) for x in mesh.x]}
    labels["b"] = _SIDES
    for stem, layout, arr in named:
        if arr.size == 0:
            continue
        letters = layout.letters
        rows = [
            tuple(labels[c][i] for c, i in zip(letters, index)) + (index[-1], arr[index])
            for index in np.ndindex(arr.shape)
        ]
        header = tuple(_AXIS_HEADERS[c] for c in letters) + ("k", "value")
        _write_csv(outdir / f"{stem}.csv", header, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    cfg = _solver_cfg(spec, mesh)
    state, report = solve_forward(problem, mesh, controls, cfg)
    write_block_csvs(outdir, mesh, state.named())
    _write_csv(
        outdir / "solve_report.csv",
        ("iteration", "residual"),
        [(i + 1, r) for i, r in enumerate(report.residual_history)],
    )
    print(
        f"solve: converged={report.converged} iterations={report.iterations} "
        f"residual={report.final_residual:.3e}"
    )
    return 0 if report.converged else 3


def _cmd_cost(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    cfg = _solver_cfg(spec, mesh)
    state, report = solve_forward(problem, mesh, controls, cfg)
    slots = derive_slots(mesh, state)
    J = eval_cost(problem, mesh, state, slots, controls)
    _write_csv(
        outdir / "cost.csv",
        ("J", "converged", "iterations", "residual"),
        [(J, str(report.converged), report.iterations, report.final_residual)],
    )
    print(f"J = {J!r}")
    return 0 if report.converged else 3


def _cmd_grad_check(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    cfg = _tight_cfg(spec, mesh)
    report = gradient_check(problem, mesh, controls, n_dirs=5, seed=seed, cfg=cfg)
    write_block_csvs(outdir, mesh, report.costate.named())
    # gradient densities of the two time-dependent controls, u and w
    grads = [(f"grad_{L.control}", L, report.grad.block(L.control)) for L in LAYOUTS]
    write_block_csvs(outdir, mesh, [g for g in grads if g[1].time])
    rows = []
    for e in report.entries:
        rows.append(
            (
                e.block,
                e.direction,
                e.fd,
                e.adjoint,
                "" if e.dto is None else _fmt(e.dto),
                e.err_adjoint,
                "" if e.err_dto is None else _fmt(e.err_dto),
            )
        )
    _write_csv(
        outdir / "grad_check.csv",
        ("block", "direction", "fd", "adjoint", "dto", "err_adjoint", "err_dto"),
        rows,
    )
    print(f"grad-check: passed={report.passed} entries={len(report.entries)}")
    if not report.passed:
        print(f"grad-check: failing blocks: {', '.join(report.failing_blocks())}")
    return 0 if report.passed else 1


def _cmd_optimize(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    cfg = _solver_cfg(spec, mesh)
    best, history = run_gd(problem, mesh, controls, spec.optimize, cfg)
    _write_csv(
        outdir / "history.csv",
        ("iteration", "J", "gnorm", "step", "forward_iterations"),
        history.rows,
    )
    write_block_csvs(outdir, mesh, best.named())
    print(f"optimize: status={history.status} J_final={history.rows[-1][1]!r}")
    print(f"optimize: trials={sum(history.trials)} members={sum(history.members)} "
          f"sweeps={sum(history.sweeps)}")
    return 0


def _cmd_ibp_demo(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    rows = []
    for level in range(3):
        fine = _refined(mesh, 2**level)
        A, A2, dphi = _ibp_test_fields(fine)
        r1, r2 = ibp_residual(fine, A, A2, dphi)
        rows.append((level, fine.Nt, fine.Nx, r1, r2))
    _write_csv(outdir / "ibp.csv", ("level", "Nt", "Nx", "r1", "r2"), rows)
    print("ibp-demo: " + "; ".join(f"level {r[0]}: r1={r[3]:.3e} r2={r[4]:.3e}" for r in rows))
    return 0


def _cmd_curve_demo(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    M = 8
    while M <= 256:
        curve = build_curve_mesh(M, 2.0 * np.pi)
        psi = rng.standard_normal(M)
        phi = rng.standard_normal(M)
        res = abs(skew_adjoint_residual(curve, psi, phi))
        worst = max(worst, res)
        rows.append((M, res))
        M *= 2
    _write_csv(outdir / "curve.csv", ("M", "residual"), rows)
    print(f"curve-demo: worst residual {worst:.3e}")
    return 0


def _cmd_refine(spec: RunSpec, mesh: Mesh, problem, controls, outdir: Path, seed: int) -> int:
    reference = model_reference(spec.model)

    def cfg(m):
        return _tight_cfg(spec, m)

    if reference is not None:
        metric = "forward_error"
        table = refinement_study(
            problem, mesh, 3, metric, reference=reference, cfg=cfg
        )
    else:
        metric = "gradient_gap"
        table = refinement_study(
            problem, mesh, 3, metric, block="u", seed=seed, cfg=cfg, costate_cfg=cfg
        )
    rows = [
        (r.level, r.Nt, r.Nx, r.value, "" if r.order is None else _fmt(r.order))
        for r in table.rows
    ]
    _write_csv(outdir / "refine.csv", ("level", "Nt", "Nx", metric, "order"), rows)
    print(
        "refine: "
        + "; ".join(f"{r.Nt}x{r.Nx}: {r.value:.3e}" for r in table.rows)
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "cost": _cmd_cost,
    "grad-check": _cmd_grad_check,
    "optimize": _cmd_optimize,
    "ibp-demo": _cmd_ibp_demo,
    "curve-demo": _cmd_curve_demo,
    "refine": _cmd_refine,
}


def run(spec: RunSpec, subcommand: str, out_dir: str = None, seed: int = 0) -> int:
    """Execute one subcommand; returns the process exit status.  The mesh,
    model and controls the subcommand runs on are built before the output
    directory is made, so a config error there leaves nothing behind."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    mesh, problem = build_mesh(**spec.mesh), make_model(spec.model)
    controls = build_controls(spec, mesh, problem)
    outdir = Path(out_dir if out_dir is not None else spec.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return _COMMANDS[subcommand](spec, mesh, problem, controls, outdir, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biload",
        description="Solve, verify, and optimize biloaded integral state systems.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory (overrides [output])")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled directions")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(spec, args.subcommand, args.out, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, KernelEvalError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
