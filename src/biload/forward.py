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

`solve_forward_many` iterates independent solves together: the flat is
2-D, a member per row, and blocks, slots, kernel values and contractions
carry the member axis in front (stencils count axes from the end, einsums
take it as "...").  Each member has its own residual, relaxation and
history, and leaves the active set once it converges; its bits are those
of its own `solve_forward`, which passes no member axis.

Starting from the zero bundle, the iteration is deterministic: identical
inputs give bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DivergenceError, KernelEvalError, ShapeError
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
    node_shape,
    pack,
    stack,
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


def assemble_sweep(mesh: Mesh, n: int, contributions, lead: tuple = ()) -> StateBundle:
    """Sum (equation family, consumer-node array) contributions into one
    block per family, overwrite the trajectory's wall columns with the
    boundary-trace block, and bundle the result.  The blocks are views of
    the bundle's flat vector, with the member axes lead in front."""
    shapes = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    image = bundle_of(StateBundle, np.zeros(lead + (sum(map(math.prod, shapes)),)), shapes)
    acc = dict(zip((L.eq for L in LAYOUTS), image.blocks()))
    for eq, value in contributions:
        acc[eq] += value
    image.phi[..., 0, :] = image.phi_bd[..., LEFT, :]
    image.phi[..., -1, :] = image.phi_bd[..., RIGHT, :]
    return image


def _kernel_terms(problem: Problem, mesh: Mesh, tables, lead: tuple):
    """Evaluate every registered kernel and contract it onto its
    consumer nodes."""
    for kid in problem.kernels:
        F = eval_kernel(problem, kid, mesh, tables, lead=lead)
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
    with the trajectory's wall columns overwritten by the trace block.
    State and controls may carry the same leading member axis."""
    if slots is None:
        slots = derive_slots(mesh, state)
    tables = slot_tables(state, slots, controls)
    lead = state.phi.shape[:-3]
    return assemble_sweep(mesh, problem.n, _kernel_terms(problem, mesh, tables, lead), lead)


def fixed_point(sweep, x0, cfg: SolverConfig, label: str = "", operands=()):
    """Relaxed Picard iteration x <- (1 - relax) x + relax sweep(x) from
    the bundle x0.  Returns (bundle, SolveReport).

    Non-convergence within max_iter is reported, not raised; an iterate
    leaving the divergence guard raises, naming the block (label prefixes
    the message).

    When x0's flat is 2-D (a member per row, see the module docstring),
    sweep(x, *operands) gets the active members and their rows of the
    member bundles operands; one (bundle, SolveReport) per member returns.
    """
    xf = pack(x0) if x0.flat is None else x0.flat
    many = xf.ndim == 2
    x, cls = x0, type(x0)
    shapes = tuple(block.shape[many:] for block in x0.blocks())
    rows = list(range(len(xf) if many else 1))  # members still iterating
    histories, final = [[] for _ in rows], {}
    theta, guard = cfg.relax, cfg.divergence_guard
    for _ in range(cfg.max_iter):
        target = sweep(x, *operands)
        tf = pack(target) if target.flat is None else target.flat
        residual = np.atleast_1d(np.max(np.abs(tf - xf), axis=-1)).tolist()
        if theta == 1.0:
            x, xf = target, tf
        else:
            xf = (1.0 - theta) * xf + theta * tf
            x = bundle_of(cls, xf, shapes)
        if not np.all(np.abs(xf) <= guard):
            name = next(n for n, _, b in x.named() if b.size and not np.all(np.abs(b) <= guard))
            raise DivergenceError(
                f"{label}iteration diverged: block {name} exceeded guard {guard:g}"
            )
        for r, res in zip(rows, residual):
            histories[r].append(res)
        keep = [not res <= cfg.tol for res in residual]
        if not any(keep):
            break
        if not all(keep):  # the converged members leave the batch
            final.update((r, row) for r, row, k in zip(rows, xf, keep) if not k)
            rows = [r for r, k in zip(rows, keep) if k]
            cut = lambda b: bundle_of(type(b), b.flat[keep], tuple(a.shape[1:] for a in b.blocks()))
            x, operands = cut(x), [cut(op) for op in operands]
            xf = x.flat
    final.update(zip(rows, xf if many else [xf]))
    out = [(bundle_of(cls, final[r], shapes), SolveReport(len(h), h[-1], h[-1] <= cfg.tol, h))
           for r, h in enumerate(histories)]
    return out if many else out[0]


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


#: Bytes the largest term array of a batched sweep may take, small so that a
#: batch adds little to peak memory; members go in chunks that fit.
BATCH_BYTES = 1 << 18


def member_chunks(problem: Problem, mesh: Mesh, count: int) -> list:
    """Ranges splitting count members into chunks within BATCH_BYTES."""
    sizes = [math.prod(node_shape(TERMS[k].full, mesh.Nt, mesh.Nx)) for k in problem.kernels]
    size = max(1, BATCH_BYTES // (8 * problem.n * max(sizes, default=1)))
    return [range(a, min(a + size, count)) for a in range(0, count, size)]


def solve_forward_many(problem: Problem, mesh: Mesh, controls_list, cfg: SolverConfig = None):
    """solve_forward at each bundle of controls_list, the members iterated
    together along a leading axis; yields one (state, SolveReport) per
    member, in order, bit for bit those of solve_forward.  A chunk of
    members that raises a solver error is solved again one at a time, so a
    caller that handles each result before taking the next stops at the
    same member, with the same error, as a loop of solve_forward."""
    cfg, sweep = cfg or SolverConfig(), partial(sweep_map, problem, mesh)
    for chunk in member_chunks(problem, mesh, len(controls_list)):
        members = [controls_list[k] for k in chunk]
        x0 = stack([zero_state(mesh, problem.n)] * len(members))
        try:
            solved = fixed_point(sweep, x0, cfg, operands=(stack(members),))
        except (DivergenceError, KernelEvalError, ShapeError):
            solved = (solve_forward(problem, mesh, c, cfg) for c in members)
        yield from solved


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
