"""Projected gradient descent with Armijo backtracking over all control
blocks, driven by the costate-based gradient.

All six blocks descend simultaneously with one shared step.  A trial step
is accepted when it achieves the sufficient decrease
J(new) <= J(old) - armijo_c * step * |g|^2 measured in the quadrature
norm; forward non-convergence at a trial point rejects the step like an
insufficient decrease.  The method claims stationarity (small gradient),
nothing stronger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import control_gradient, gradient_norm2, partial_cache, solve_costate
from .errors import ConfigError, DivergenceError
from .forward import SolverConfig, eval_cost, solve_forward
from .kernels import Problem, slot_tables
from .mesh import Mesh
from .state import CONTROL_BLOCKS, ControlBundle, derive_slots

#: Trial step below which backtracking gives up (status line_search_failed).
STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimizeOptions:
    max_outer: int = 50
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    step0: float = 1.0
    gtol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.armijo_c < 1.0):
            raise ConfigError("armijo_c must lie in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ConfigError("backtrack must lie in (0, 1)")
        if not (math.isfinite(self.step0) and self.step0 > 0):
            raise ConfigError(f"step0 must be positive and finite, got {self.step0}")
        if not (math.isfinite(self.gtol) and self.gtol >= 0):
            raise ConfigError(f"gtol must be non-negative and finite, got {self.gtol}")
        if self.max_outer < 0:
            raise ConfigError(f"max_outer must be non-negative, got {self.max_outer}")


@dataclass
class OptimizeHistory:
    rows: list = field(default_factory=list)  # (iter, J, gnorm, step, fwd_iters)
    status: str = "running"

    def costs(self):
        return [r[1] for r in self.rows]


def project(controls: ControlBundle, bounds) -> ControlBundle:
    """Componentwise clamp onto the per-block boxes; identity without
    bounds."""
    if not bounds:
        return controls
    new = controls.copy()
    for block, (lo, hi) in bounds.items():
        if block not in CONTROL_BLOCKS:
            raise ConfigError(f"unknown control block {block!r} in bounds")
        if np.any(np.asarray(lo) > np.asarray(hi)):
            raise ConfigError(f"bounds for {block!r} are not ordered")
        arr = getattr(new, block)
        np.clip(arr, lo, hi, out=arr)
    return new


def _descend(controls: ControlBundle, grad, step: float) -> ControlBundle:
    new = controls.copy()
    for block in CONTROL_BLOCKS:
        arr = getattr(new, block)
        if arr.size:
            arr -= step * grad.block(block)
    return new


def run_gd(
    problem: Problem,
    mesh: Mesh,
    controls0: ControlBundle,
    opts: OptimizeOptions = None,
    solver_cfg: SolverConfig = None,
):
    """Gradient descent from controls0; returns (best controls, history).

    History rows carry (iteration, J, gradient norm, accepted step,
    forward iterations); J is nonincreasing across accepted iterations.
    The costate solves use solver_cfg too.  Terminates on gtol, max_outer,
    or when backtracking underflows STEP_FLOOR (status line_search_failed).
    """
    opts = opts or OptimizeOptions()
    solver_cfg = solver_cfg or SolverConfig()
    bounds = problem.bounds

    controls = project(controls0.copy(), bounds)
    state, rep = solve_forward(problem, mesh, controls, solver_cfg)
    if not rep.converged:
        raise DivergenceError("forward solve did not converge at the initial controls")
    slots = derive_slots(mesh, state)
    J = eval_cost(problem, mesh, state, slots, controls)

    history = OptimizeHistory()
    best_controls, best_J = controls.copy(), J

    def fresh_gradient():
        cache = partial_cache(problem, mesh, slot_tables(state, slots, controls))
        costate, crep = solve_costate(
            problem, mesh, state, slots, controls, solver_cfg, cache
        )
        if not crep.converged:
            raise DivergenceError("costate solve did not converge")
        return control_gradient(problem, mesh, state, slots, controls, costate, cache)

    grad = fresh_gradient()
    gnorm2 = gradient_norm2(mesh, grad)
    gnorm = float(np.sqrt(gnorm2))
    history.rows.append((0, J, gnorm, 0.0, rep.iterations))

    for outer in range(1, opts.max_outer + 1):
        if gnorm <= opts.gtol:
            history.status = "stationary"
            break

        step = opts.step0
        accepted = False
        while step >= STEP_FLOOR:
            trial = project(_descend(controls, grad, step), bounds)
            try:
                tstate, trep = solve_forward(problem, mesh, trial, solver_cfg)
            except DivergenceError:
                step *= opts.backtrack
                continue
            if not trep.converged:
                step *= opts.backtrack
                continue
            tslots = derive_slots(mesh, tstate)
            tJ = eval_cost(problem, mesh, tstate, tslots, trial)
            if tJ <= J - opts.armijo_c * step * gnorm2:
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            history.status = "line_search_failed"
            break

        controls, state, slots, J, rep = trial, tstate, tslots, tJ, trep
        if J < best_J:
            best_controls, best_J = controls.copy(), J
        grad = fresh_gradient()
        gnorm2 = gradient_norm2(mesh, grad)
        gnorm = float(np.sqrt(gnorm2))
        history.rows.append((outer, J, gnorm, step, rep.iterations))
    else:
        history.status = "max_outer"

    if history.status == "running":
        history.status = "stationary"
    return best_controls, history
