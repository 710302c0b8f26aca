"""Forward solution of the coupled six-block integral system, the cost,
and the fixed-point loop shared with the costate solve.

The discrete system is a fixed point of one global sweep: every block is
re-evaluated from the previous iterate (Jacobi style), after which the
boundary columns of the trajectory are overwritten with the boundary-trace
block so the two unknowns agree at the walls.

`fixed_point` runs relaxed Picard iteration for any six-block bundle:
successive sweep images are under-relaxed by the factor `relax`, the
reported residual is the sup distance between an iterate and its sweep
image measured before relaxation, and an iterate leaving the divergence
guard raises with the offending block's name.  `solve_forward` drives it
with `sweep_map`, `adjoint.solve_costate` with the costate sweep.

The iterate and the sweep image are flat vectors (`state.pack` order):
`assemble_sweep` fills its six blocks as views of the image's `flat`, and
a costate image is packed once.  An iteration takes one residual, one
relaxation and one guard test over the whole vector, elementwise and so
with the bits of the blockwise loop; the blocks are walked only to name
the one that left the guard.

Starting from the zero bundle, the iteration is deterministic: identical
inputs give bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .kernels import (
    TERMS,
    Problem,
    check_finite,
    eval_kernel,
    forward_contract,
    slot_tables,
)
from .mesh import LEFT, RIGHT, Mesh
from .state import (
    LAYOUT,
    LAYOUTS,
    ControlBundle,
    DerivedSlots,
    StateBundle,
    block_shapes,
    bundle_of,
    derive_slots,
    pack,
    zero_state,
)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    relax: float = 1.0
    max_iter: int = 500
    divergence_guard: float = 1e8

    def __post_init__(self):
        if not (0.0 < self.relax <= 1.0):
            raise ConfigError(f"relax must lie in (0, 1], got {self.relax}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (math.isfinite(self.divergence_guard) and self.divergence_guard > 0):
            raise ConfigError(
                f"divergence_guard must be positive and finite, "
                f"got {self.divergence_guard}"
            )


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def assemble_sweep(mesh: Mesh, n: int, contributions) -> StateBundle:
    """Sum (equation family, consumer-node array) contributions into one
    block per family, overwrite the trajectory's wall columns with the
    boundary-trace block, and bundle the result.  The blocks are views of
    the bundle's flat vector."""
    shapes = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    image = bundle_of(StateBundle, np.zeros(sum(map(math.prod, shapes))), shapes)
    acc = dict(zip((L.eq for L in LAYOUTS), image.blocks()))
    for eq, value in contributions:
        acc[eq] += value
    image.phi[:, 0, :] = image.phi_bd[:, LEFT, :]
    image.phi[:, -1, :] = image.phi_bd[:, RIGHT, :]
    return image


def _kernel_terms(problem: Problem, mesh: Mesh, tables):
    """Evaluate every registered kernel and contract it onto its
    consumer nodes."""
    for kid in problem.kernels:
        F = eval_kernel(problem, kid, mesh, tables)
        check_finite(f"kernel {kid}", F)
        yield TERMS[kid].eq, forward_contract(mesh, kid, F)


def sweep_map(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    controls: ControlBundle,
    slots: DerivedSlots = None,
) -> StateBundle:
    """One full evaluation of the right-hand sides from a state snapshot,
    with the trajectory's wall columns overwritten by the trace block."""
    if slots is None:
        slots = derive_slots(mesh, state)
    tables = slot_tables(state, slots, controls)
    return assemble_sweep(mesh, problem.n, _kernel_terms(problem, mesh, tables))


def fixed_point(sweep, x0, cfg: SolverConfig, label: str = ""):
    """Relaxed Picard iteration x <- (1 - relax) x + relax sweep(x) from
    the bundle x0.  Returns (bundle, SolveReport).

    Non-convergence within max_iter is reported, not raised; an iterate
    leaving the divergence guard raises, naming the block (label prefixes
    the message).
    """
    x, xf = x0, pack(x0)
    shapes = tuple(block.shape for block in x0.blocks())
    history = []
    converged = False
    residual = float("inf")
    theta, guard = cfg.relax, cfg.divergence_guard
    for _ in range(cfg.max_iter):
        target = sweep(x)
        tf = pack(target) if target.flat is None else target.flat
        residual = float(np.max(np.abs(tf - xf)))
        if theta == 1.0:
            x, xf = target, tf
        else:
            xf = (1.0 - theta) * xf + theta * tf
            x = bundle_of(type(x), xf, shapes)
        history.append(residual)
        if not np.all(np.abs(xf) <= guard):
            name = next(n for n, _, b in x.named() if b.size and not np.all(np.abs(b) <= guard))
            raise DivergenceError(
                f"{label}iteration diverged: block {name} exceeded guard {guard:g}"
            )
        if residual <= cfg.tol:
            converged = True
            break
    report = SolveReport(
        iterations=len(history),
        final_residual=residual,
        converged=converged,
        residual_history=history,
    )
    return x, report


def solve_forward(
    problem: Problem,
    mesh: Mesh,
    controls: ControlBundle,
    cfg: SolverConfig = None,
):
    """Picard iteration from the zero bundle (see fixed_point)."""
    return fixed_point(
        lambda state: sweep_map(problem, mesh, state, controls),
        zero_state(mesh, problem.n),
        cfg or SolverConfig(),
    )


def eval_cost(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
) -> float:
    """Quadrature evaluation of the cost functional at a state snapshot."""
    tables = slot_tables(state, slots, controls)
    J = 0.0
    for name, _term in problem.cost_terms():
        dens = eval_kernel(problem, name, mesh, tables)
        check_finite(f"cost {name}", dens)
        J += LAYOUT[TERMS[name].eq].quad(mesh, dens)
    return J


def residual_flat(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    controls: ControlBundle,
) -> np.ndarray:
    """Flattened fixed-point defect: sweep image minus state.  Zero exactly
    at a solution of the discrete system."""
    return sweep_map(problem, mesh, state, controls).flat - pack(state)
