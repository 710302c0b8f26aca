"""Print one sha256 per builtin model over its solver results.

Usage: python tools/solver_digest.py

For each of the 8 builtin models on a small grid with smooth nonzero
controls, hashes the raw bytes of: the forward state and its report, the
costate and its report, the control gradient, `hamiltonian_report`, the
`dto_solve` gradient and the `validate_partials` entries.  A step that
raises contributes only its exception type.  The package is imported from
the ``src/`` next to this script, so running it in two checkouts and
diffing the outputs shows whether a change kept these results bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from biload import adjoint, forward, kernels, models, state, verify  # noqa: E402
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


def _step(h, label, fn):
    h.update(label.encode())
    try:
        result = fn()
    except Exception as exc:  # the failure kind is part of the result
        h.update(type(exc).__name__.encode())
        return None
    _feed(h, result)
    return result


def model_digest(name: str) -> str:
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

    h = hashlib.sha256()
    solved = _step(h, "forward", lambda: forward.solve_forward(problem, mesh, controls, cfg))
    if solved is not None:
        st = solved[0]
        slots = state.derive_slots(mesh, st)
        h.update(repr(solved[1].residual_history).encode())
        _step(h, "cost", lambda: forward.eval_cost(problem, mesh, st, slots, controls))
        co = _step(
            h, "costate",
            lambda: adjoint.solve_costate(problem, mesh, st, slots, controls, cfg),
        )
        if co is not None:
            h.update(repr(co[1].residual_history).encode())
            _step(h, "gradient", lambda: adjoint.control_gradient(
                problem, mesh, st, slots, controls, co[0]).__dict__)
            _step(h, "hamiltonian", lambda: adjoint.hamiltonian_report(
                problem, mesh, st, slots, controls, co[0]))
    _step(h, "dto", lambda: verify.dto_solve(problem, mesh, controls, cfg).grad.__dict__)
    _step(h, "partials", lambda: kernels.validate_partials(problem, probes=3).entries)
    return h.hexdigest()


def main() -> None:
    for name in models.MODEL_NAMES:
        print(f"{name} {model_digest(name)}")


if __name__ == "__main__":
    main()
