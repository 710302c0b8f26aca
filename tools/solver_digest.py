"""Print one sha256 per solver step of each builtin model.

Usage: python tools/solver_digest.py

For each of the 8 builtin models on a small grid with smooth nonzero
controls, prints one line ``<model> <step> <sha256>`` per step, hashing the
raw bytes of its result: forward (the state and its residual history),
cost, costate (the costate and its residual history), gradient (the control
gradient), dto (the `dto_solve` gradient at the step's own forward
solve), gradcheck (the fd, adjoint and dto values of the `gradient_check`
entries, two directions per control block), partials (the `validate_partials` entries)
and optimize (the rows, trials and members of the `run_gd` history with
max_outer=3, and its best controls).  A step that raises
hashes only its exception type; the steps that need its result print no
line.  The package is imported from the ``src/`` next to this script, so
running it in two checkouts and diffing the outputs shows which steps a
change kept bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from biload import adjoint, forward, kernels, models, optimize, state, verify  # noqa: E402
from biload.mesh import build_mesh  # noqa: E402

NT = NX = 6
T_FINAL = 0.05


def _feed(h, obj) -> None:
    """Hash arrays by their raw bytes and everything else by repr."""
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        for key in obj:
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif hasattr(obj, "blocks"):
        _feed(h, obj.blocks())
    else:
        h.update(repr(obj).encode())


def _step(lines, label, fn):
    """Run fn, append (label, sha256 of its result) to lines and return the
    result, or None when fn raises."""
    h = hashlib.sha256(label.encode())
    try:
        result = fn()
    except Exception as exc:  # the failure kind is part of the result
        h.update(type(exc).__name__.encode())
        result = None
    else:
        _feed(h, result)
    lines.append((label, h.hexdigest()))
    return result


def model_digest(name: str) -> list:
    """(step, sha256) of each step run for the builtin model name."""
    params = models.make_params(name)
    problem = models.make_model(params)
    mesh = build_mesh(T_FINAL, NT, 0.0, 1.0, NX)
    cfg = forward.SolverConfig(
        tol=1e-12, relax=models.picard_relax_hint(params, mesh), max_iter=4000
    )
    controls = state.zero_controls(mesh, problem.m_u, problem.m_w)
    rng = np.random.default_rng(0)
    for block in state.CONTROL_BLOCKS:
        m = problem.slot_dim(block)
        if m:
            getattr(controls, block)[...] = 0.1 * verify.smooth_direction(mesh, block, m, rng)

    lines = []
    # a SolveReport's repr holds its residual history
    solved = _step(lines, "forward", lambda: forward.solve_forward(problem, mesh, controls, cfg))
    if solved is not None:
        st = solved[0]
        slots = state.derive_slots(mesh, st)
        _step(lines, "cost", lambda: forward.eval_cost(problem, mesh, st, slots, controls))
        co = _step(
            lines, "costate",
            lambda: adjoint.solve_costate(problem, mesh, st, slots, controls, cfg),
        )
        if co is not None:
            _step(lines, "gradient", lambda: adjoint.control_gradient(
                problem, mesh, st, slots, controls, co[0]).__dict__)
    _step(lines, "dto", lambda: verify.dto_solve(problem, mesh, verify._solved_state(
        forward.solve_forward(problem, mesh, controls, cfg)), controls).grad.__dict__)
    _step(lines, "gradcheck", lambda: [(e.fd, e.adjoint, e.dto) for e in verify.gradient_check(
        problem, mesh, controls, n_dirs=2, cfg=cfg).entries])
    _step(lines, "partials", lambda: kernels.validate_partials(problem, probes=3).entries)
    _step(lines, "optimize", lambda: _descent(problem, mesh, controls, cfg))
    return lines


def _descent(problem, mesh, controls, cfg):
    best, history = optimize.run_gd(
        problem, mesh, controls, optimize.OptimizeOptions(max_outer=3), cfg)
    return history.rows, history.trials, history.members, best


def main() -> None:
    for name in models.MODEL_NAMES:
        for step, digest in model_digest(name):
            print(f"{name} {step} {digest}")


if __name__ == "__main__":
    main()
