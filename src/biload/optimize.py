"""Projected gradient descent with Armijo backtracking over all control
blocks, on one of two gradients, chosen by the size of the grid:

* up to `EXACT_GRADIENT_CAP` unknowns, the exact gradient of the discrete
  cost, the one the line search evaluates: `verify.dto_solve` at the state
  the descent has already solved, each nodal entry divided by its node's
  quadrature weight (`discrete_gradient`).  Every line search after the
  first starts at the Barzilai-Borwein step <s,s>/<s,y> of the last
  accepted step (s the change in controls, projection included; y the
  change in gradient), or at step0 when <s,y> <= 0: with the monotone
  Armijo search below, the spectral projected gradient method of Birgin,
  Martinez & Raydan (2000).  Each trial's forward solve starts at its
  first-order prediction from the same linearization (`predicted_start`):
  state + t, t = -A^-1 B d, d the projected change in controls.
* above it, the paper's costate-based gradient, `adjoint.costate_gradient`,
  which matches the gradient of the discrete cost to first order in the
  grid spacing.  Every line search starts at step0, and every trial's
  forward solve from zero.

All six blocks descend simultaneously with one shared step.  A trial step
is accepted when it achieves the sufficient decrease
J(new) <= J(old) - armijo_c * step * |g|^2 measured in the quadrature
norm; forward non-convergence or divergence at a trial point rejects the
step like an insufficient decrease.  The method claims stationarity
(small gradient), nothing stronger.

The trial steps of a line search are known before any is solved: the
first trial, then `step *= backtrack` down to STEP_FLOOR.  The ladder goes
to `forward.solve_forward_many` in chunks of 1, 2, 4, ... members (up to
one batched sweep), and the first member in ladder order that passes is
accepted, so the result is bit for bit that of the sequential search.  A
member stops only on its own residual, whatever its start; one whose
iterate leaves the guard is rejected like any diverging trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat, takewhile
from operator import mul

import numpy as np

from .adjoint import ControlGradient, block_pairing, costate_gradient, gradient_norm2
from .errors import ConfigError, DivergenceError, KernelEvalError, check_count
from .forward import SolverConfig, eval_cost, member_chunks, solve_forward, solve_forward_many
from .kernels import Problem
from .mesh import Mesh
from .state import CONTROL_BLOCKS, LAYOUT, ControlBundle, StateBundle, bundle_of, derive_slots, pack
from .verify import dto_solve, state_unknowns

#: Trial step below which backtracking gives up (status line_search_failed).
STEP_FLOOR = 1e-12
#: Grids up to this many unknowns descend on the exact discrete gradient,
#: larger ones on the costate gradient.  One dense gradient costs 2.1 ms at
#: 121 unknowns (heat.cfg), 12.2 ms at 361 (heat 16x16), 19 ms at 371
#: (volterra_exp 50x4) and 428 ms at 1,421 (volterra_exp 200x4), against
#: 1.9-7.2 ms for a costate gradient on the same grids (2-CPU VM, BLAS on
#: one thread).
EXACT_GRADIENT_CAP = 400


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
        check_count("max_outer", self.max_outer, 0)


@dataclass
class OptimizeHistory:
    rows: list = field(default_factory=list)  # (iter, J, gnorm, step, fwd_iters)
    status: str = "running"
    # per line search: the trials the sequential search solves, the members
    # solved, and their forward sweeps, speculative members included
    trials: list = field(default_factory=list)
    members: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)

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


def discrete_gradient(problem: Problem, mesh: Mesh, state, controls: ControlBundle):
    """(gradient, linearization): the exact gradient of the discrete cost at
    state, the fixed point the caller solved for controls, as densities
    (`verify.dto_solve`'s nodal partials divided by the node weights of
    each block's quadrature), and the `verify.DtoResult` it came from."""
    dto = dto_solve(problem, mesh, state, controls)
    return ControlGradient(*(dto.grad.block(b) / LAYOUT[b].weights(mesh)
                             for b in CONTROL_BLOCKS)), dto


def predicted_start(dto, state: StateBundle, controls: ControlBundle, trial: ControlBundle):
    """The first-order prediction of the fixed point of trial: state + t,
    state the fixed point of controls that dto linearizes and t its tangent
    along the change trial - controls."""
    d = bundle_of(ControlBundle, pack(trial) - pack(controls), controls.shapes())
    (t,) = dto.tangents([d])
    return bundle_of(StateBundle, pack(state) + t.flat, state.shapes())


def _bb_step(mesh: Mesh, prev: ControlBundle, controls: ControlBundle,
            prev_grad: ControlGradient, grad: ControlGradient, fallback: float) -> float:
    """The Barzilai-Borwein step <s,s>/<s,y> from prev to controls in the
    quadrature pairing, s the change in controls and y the change in
    gradient; fallback when <s,y> <= 0."""
    ss = sy = 0.0
    for block in CONTROL_BLOCKS:
        s = getattr(controls, block) - getattr(prev, block)
        if s.size:
            ss += block_pairing(mesh, block, s, s)
            sy += block_pairing(mesh, block, s, grad.block(block) - prev_grad.block(block))
    return ss / sy if sy > 0 else fallback


def run_gd(
    problem: Problem,
    mesh: Mesh,
    controls0: ControlBundle,
    opts: OptimizeOptions = None,
    solver_cfg: SolverConfig = None,
    use_dto: bool = None,
):
    """Gradient descent from controls0; returns (best controls, history).

    History rows carry (iteration, J, gradient norm, accepted step,
    forward iterations); J is nonincreasing across accepted iterations.
    use_dto chooses the exact discrete gradient with Barzilai-Borwein first
    trials over the costate gradient (see the module docstring); by default
    it is whether the grid has at most EXACT_GRADIENT_CAP unknowns.  The
    costate solves use solver_cfg too.  Terminates on gtol, max_outer, or when backtracking underflows
    STEP_FLOOR (status line_search_failed).
    Each line search solves its ladder of trial steps in doubling chunks
    along the member axis and accepts the first member that passes, bit for
    bit the sequential search; history.trials, history.members and
    history.sweeps count, per search, the members that search reaches, the
    members solved and their forward sweeps.
    """
    opts = opts or OptimizeOptions()
    solver_cfg = solver_cfg or SolverConfig()
    bounds = problem.bounds
    if use_dto is None:
        use_dto = state_unknowns(problem, mesh) <= EXACT_GRADIENT_CAP

    controls = project(controls0.copy(), bounds)
    state, rep = solve_forward(problem, mesh, controls, solver_cfg)
    if not rep.converged:
        raise DivergenceError("forward solve did not converge at the initial controls")
    slots = derive_slots(mesh, state)
    J = eval_cost(problem, mesh, state, slots, controls)

    history = OptimizeHistory()
    best_controls, best_J = controls.copy(), J

    def gradient():
        """The chosen gradient at (state, controls), its squared norm and the
        linearization it read (None on the costate path)."""
        if use_dto:
            g, dto = discrete_gradient(problem, mesh, state, controls)
        else:
            _, g = costate_gradient(problem, mesh, state, slots, controls, solver_cfg)
            dto = None
        return g, gradient_norm2(mesh, g), dto

    def line_search(first):
        """The first member of the ladder from first that passes Armijo, as
        (step, controls, state, slots, J, report), or None.  With a
        linearization each member starts at its predicted_start, else from
        zero.  A member that leaves the guard is rejected; one whose kernel
        is not finite raises its error when the search reaches it."""
        steps = accumulate(repeat(opts.backtrack), mul, initial=first)  # as `step *= backtrack`
        ladder = takewhile(lambda step: step >= STEP_FLOOR, steps)
        size, trials, members, sweeps, found = 1, 0, 0, 0, None
        while found is None and (chunk := list(islice(ladder, size))):
            points = [project(_descend(controls, grad, step), bounds) for step in chunk]
            starts = None if dto is None else [predicted_start(dto, state, controls, p) for p in points]
            members += len(chunk)
            size = len(member_chunks(problem, mesh, 2 * size)[0])  # double, within one batch
            solved = list(solve_forward_many(problem, mesh, points, solver_cfg, starts))
            sweeps += sum(trep.iterations for _, trep in solved)
            for step, trial, (tstate, trep) in zip(chunk, points, solved):
                trials += 1
                if isinstance(trep.error, KernelEvalError):
                    raise trep.error
                if trep.converged:
                    tslots = derive_slots(mesh, tstate)
                    tJ = eval_cost(problem, mesh, tstate, tslots, trial)
                    if tJ <= J - opts.armijo_c * step * gnorm2:
                        found = step, trial, tstate, tslots, tJ, trep
                        break
        history.trials.append(trials)
        history.members.append(members)
        history.sweeps.append(sweeps)
        return found

    grad, gnorm2, dto = gradient()
    gnorm = float(np.sqrt(gnorm2))
    history.rows.append((0, J, gnorm, 0.0, rep.iterations))

    first = opts.step0
    for outer in range(1, opts.max_outer + 1):
        if gnorm <= opts.gtol:
            history.status = "stationary"
            break
        found = line_search(first)
        if found is None:
            history.status = "line_search_failed"
            break

        prev, prev_grad = controls, grad
        step, controls, state, slots, J, rep = found
        if J < best_J:
            best_controls, best_J = controls.copy(), J
        grad, gnorm2, dto = gradient()
        gnorm = float(np.sqrt(gnorm2))
        history.rows.append((outer, J, gnorm, step, rep.iterations))
        if use_dto:
            first = _bb_step(mesh, prev, controls, prev_grad, grad, opts.step0)
    else:
        history.status = "max_outer"
    return best_controls, history
