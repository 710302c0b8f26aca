"""Forward solution of the coupled six-block integral system, the cost,
and the fixed-point loop shared with the costate solve.

The discrete system is a fixed point of one global sweep: every block is
re-evaluated from the previous iterate (Jacobi style), after which the
boundary columns of the trajectory are overwritten with the boundary-trace
block so the two unknowns agree at the walls.

`fixed_point` runs Anderson-accelerated relaxed Picard iteration for any
six-block bundle: each sweep image is under-relaxed by the factor `relax`
and corrected by damped type-II Anderson acceleration over the last
`ANDERSON_DEPTH` steps (depth 0 is plain relaxed Picard), the reported
residual is the sup distance between an iterate and its sweep image, and
an iterate leaving the divergence guard raises with the offending block's
name.  `solve_forward` drives it with `sweep_map`, `adjoint.solve_costate`
with the costate sweep.

The iterate and the sweep image are flat vectors (`state.pack` order):
`assemble_sweep` fills its six blocks as views of the image's `flat`, and
a costate image is packed once.  An iteration takes one residual, one
relaxation, one Anderson correction and one guard test over the whole
vector; the blocks are walked only to name the one that left the guard.

`solve_forward_many` iterates independent solves together: the flat is
2-D, a member per row, and blocks, slots, kernel values and contractions
carry the member axis in front (stencils count axes from the end, einsums
take it as "...").  Each member has its own residual, relaxation,
Anderson history and report, and leaves the active set once it converges
or fails; its bits are those of its own `solve_forward`, which passes no
member axis, and its report's error is what that solve raises.  `sweep_map` and `eval_cost` keep the dtype of their inputs, so the
dense oracle runs them on complex members (`verify.dto_solve`).

The iteration is deterministic: identical inputs and starting bundle give
bitwise-identical results.  Every solve starts from the zero bundle unless
its caller passes a start (`solve_forward_many`'s starts, which
`verify.gradient_check` sets to predicted states); a start changes the
bits of the result, within the solve's tolerance, not its stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DivergenceError, KernelEvalError, check_count
from .kernels import (
    TERMS,
    Problem,
    _stationary,
    check_finite,
    eval_kernel,
    forward_contract,
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
    zero_controls,
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
        check_count("max_iter", self.max_iter, 1)
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
    # the DivergenceError or KernelEvalError that ended the member, if one did
    error: Exception = field(default=None, repr=False, compare=False)


def assemble_sweep(mesh: Mesh, n: int, contributions, lead: tuple = (), dtype=float) -> StateBundle:
    """Sum (equation family, consumer-node array) contributions into one
    block per family, overwrite the trajectory's wall columns with the
    boundary-trace block, and bundle the result.  The blocks are views of
    the bundle's flat vector of dtype, with the member axes lead in front."""
    shapes = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    image = bundle_of(StateBundle, np.zeros(lead + (sum(map(math.prod, shapes)),), dtype), shapes)
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
        check_finite(f"kernel {kid}", F, lead)
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
    State and controls may carry leading member axes; the image carries
    their broadcast, and the dtype of both (complex members give a complex
    image)."""
    if slots is None:
        slots = derive_slots(mesh, state)
    lead = _member_axes(state, controls)
    terms = _kernel_terms(problem, mesh, (state, slots, controls), lead)
    return assemble_sweep(mesh, problem.n, terms, lead, np.result_type(state.phi, controls.u))


def _member_axes(state: StateBundle, controls: ControlBundle) -> tuple:
    """The broadcast of the leading member axes of state and controls."""
    lead, other = state.phi.shape[:-3], controls.u.shape[:-3]
    return lead if lead == other else np.broadcast_shapes(lead, other)


#: Depth m of the Anderson acceleration in fixed_point: each step mixes the
#: last m sweep differences.  0 is relaxed Picard, kept as the test oracle.
ANDERSON_DEPTH = 5

#: Shift of the diagonal of each member's Anderson Gram matrix, relative to
#: its largest diagonal entry, with the smallest normal number added so an
#: all-zero history is shifted too: the least shift at rounding level that
#: makes the matrix positive definite, so a singular history gives that
#: member finite coefficients.  Where elimination still meets a zero pivot
#: (a rank-one history can), _anderson_correction falls back to least
#: squares for that member alone.
GRAM_SHIFT = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _anderson_correction(f, dF, dP):
    """dP g for each member, a row of the residuals f, where g minimises
    |f - dF g|: the type-II Anderson correction to the relaxed sweep image,
    the k columns of dF and dP (members, k, n) the differences of successive
    residuals and relaxed images.  g solves the normal equations, their
    Gram matrix shifted by GRAM_SHIFT; when the stacked solve meets a
    singular matrix, each member solves its own, and a member whose
    matrix is still singular takes the minimum-norm least-squares g.  Each
    member's reductions run over its own rows, so its bits do not depend
    on the batch it is in."""
    gram = np.einsum("bin,bjn->bij", dF, dF)
    diag = np.einsum("bii->bi", gram)  # a writable view
    diag += GRAM_SHIFT * diag.max(axis=1, keepdims=True) + _TINY
    rhs = np.einsum("bin,bn->bi", dF, f)[..., None]
    try:
        gamma = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        gamma = np.stack([_solve_or_lstsq(g, r) for g, r in zip(gram, rhs)])
    return np.einsum("bi,bin->bn", gamma[..., 0], dP)


def _solve_or_lstsq(a, b):
    """a^-1 b, or the minimum-norm least-squares solution for a singular a."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def fixed_point(sweep, x0, cfg: SolverConfig, label: str = "", operands=()):
    """Anderson-accelerated relaxed Picard iteration for x = sweep(x) from
    the bundle x0.  Returns (bundle, SolveReport).

    Each step takes the relaxed image p = (1 - relax) x + relax sweep(x)
    and subtracts its Anderson correction (_anderson_correction) over the
    last ANDERSON_DEPTH steps: damped type-II Anderson acceleration with
    damping relax.  With an empty history, the first step and every step
    at depth 0, the step is p, relaxed Picard.

    The reported residual is the sup distance between an iterate and its
    sweep image.  Non-convergence within max_iter is reported, not raised;
    an iterate leaving the divergence guard raises, naming the block (label
    prefixes the message).

    When x0's flat is 2-D (a member per row, see the module docstring),
    sweep(x, *operands) gets the active members and their rows of the
    member bundles operands; one (bundle, SolveReport) per member returns.
    A member leaves the batch when it converges or leaves the guard, or when
    its rows of a sweep are not finite (kernels.check_finite), and then the
    rest sweep the same iterate again; its report's error is what its own
    solve raises.
    """
    xf = pack(x0) if x0.flat is None else x0.flat
    many = xf.ndim == 2
    x, cls = x0, type(x0)
    shapes = tuple(block.shape[many:] for block in x0.blocks())
    rows = list(range(len(xf) if many else 1))  # members still iterating
    histories, final, errors = [[] for _ in rows], {}, {}
    theta, guard, depth = cfg.relax, cfg.divergence_guard, ANDERSON_DEPTH
    # each member's last depth differences of residuals and relaxed images
    dF = np.empty((len(rows), depth, xf.shape[-1]), xf.dtype)
    dP = np.empty_like(dF)
    f_prev = p_prev = xf  # cut alike until the first sweep sets them
    while (it := len(histories[rows[0]])) < cfg.max_iter:  # each active member's sweeps
        try:
            target = sweep(x, *operands)
        except KernelEvalError as exc:
            if not hasattr(exc, "members"):  # a single solve raises it
                raise
            errors.update((rows[i], e) for i, e in exc.members.items())
            keep = [i not in exc.members for i in range(len(rows))]
        else:
            tf = pack(target) if target.flat is None else target.flat
            f = tf - xf
            residual = np.atleast_1d(np.max(np.abs(f), axis=-1)).tolist()
            relaxed = tf if theta == 1.0 else (1.0 - theta) * xf + theta * tf
            xf = relaxed
            if depth and it:
                slot, k = (it - 1) % depth, min(it, depth)
                dF[:, slot], dP[:, slot] = f - f_prev, relaxed - p_prev
                correction = _anderson_correction(np.atleast_2d(f), dF[:, :k], dP[:, :k])
                xf = relaxed - correction.reshape(f.shape)
            f_prev, p_prev = f, relaxed
            x = target if xf is tf else bundle_of(cls, xf, shapes)
            for r, res in zip(rows, residual):
                histories[r].append(res)
            keep = [not res <= cfg.tol for res in residual]
            if not np.all(np.abs(xf) <= guard):  # name the first block past it, per member
                past = lambda b: np.atleast_1d(~np.all(np.abs(b) <= guard, axis=tuple(range(many, b.ndim))))
                for i in np.flatnonzero(past(xf)).tolist():
                    name = next(n for n, _, b in x.named() if past(b)[i])
                    errors[rows[i]] = DivergenceError(
                        f"{label}iteration diverged: block {name} exceeded guard {guard:g}")
                    keep[i] = False
        if not any(keep):
            break
        if not all(keep):  # the converged and failed members leave the batch
            final.update((r, row) for r, row, k in zip(rows, xf, keep) if not k)
            rows = [r for r, k in zip(rows, keep) if k]
            cut = lambda b: bundle_of(type(b), b.flat[keep], tuple(a.shape[1:] for a in b.blocks()))
            x, operands = cut(x), [cut(op) for op in operands]
            xf, f_prev, p_prev, dF, dP = x.flat, f_prev[keep], p_prev[keep], dF[keep], dP[keep]
    if not many and errors:
        raise errors[0]
    final.update(zip(rows, xf if many else [xf]))
    out = [(bundle_of(cls, final[r], shapes), SolveReport(
        len(h), h[-1] if h else math.nan, r not in errors and h[-1] <= cfg.tol, h, errors.get(r)))
        for r, h in enumerate(histories)]
    return out if many else out[0]


def solve_forward(
    problem: Problem,
    mesh: Mesh,
    controls: ControlBundle,
    cfg: SolverConfig = None,
):
    """Fixed-point iteration from the zero bundle (see fixed_point)."""
    return fixed_point(
        lambda state: sweep_map(problem, mesh, state, controls),
        zero_state(mesh, problem.n),
        cfg or SolverConfig(),
    )


#: Bytes the largest term array of a batched sweep may take, small so that a
#: batch adds little to peak memory; members go in chunks that fit.
BATCH_BYTES = 1 << 18


def member_chunks(problem: Problem, mesh: Mesh, count: int, itemsize: int = 8, terms=None) -> list:
    """Ranges splitting count members into chunks within BATCH_BYTES, for
    the arrays of the terms named in terms (default: every kernel) at
    itemsize bytes per value (16 for complex members)."""
    sizes = [_built_size(problem, mesh, k) for k in (problem.kernels if terms is None else terms)]
    size = max(1, BATCH_BYTES // (itemsize * problem.n * max(sizes, default=1)))
    return [range(a, min(a + size, count)) for a in range(0, count, size)]


def _built_size(problem: Problem, mesh: Mesh, kid: str) -> int:
    """Values per member and component of the array a sweep builds for a
    kernel: its full consumer x producer grid, or that grid without the
    consumer time for a term that kernels.forward_contract contracts from
    its raw array, as the kernel's value at the zero state shows."""
    shape = TERMS[kid]
    axis, full = shape.stationary_axis, shape.full
    if axis is not None:
        state = zero_state(mesh, problem.n)
        controls = zero_controls(mesh, problem.m_u, problem.m_w)
        F = eval_kernel(problem, kid, mesh, (state, derive_slots(mesh, state), controls))
        if _stationary(shape, F):
            full = full[:axis] + full[axis + 1:]
    return math.prod(node_shape(full, mesh.Nt, mesh.Nx))


def solve_forward_many(problem: Problem, mesh: Mesh, controls_list, cfg: SolverConfig = None,
                       starts=None):
    """solve_forward at each bundle of controls_list, the members iterated
    together along a leading axis; yields one (state, SolveReport) per
    member, in order, bit for bit those of solve_forward.  A member whose
    own solve_forward raises DivergenceError or KernelEvalError ends alone,
    with that error as its report's error (see fixed_point); the state is
    then the iterate it stopped at.  starts, one state per member, replaces
    the zero bundle as each member's first iterate; its stop rule is still
    its own residual."""
    cfg, sweep = cfg or SolverConfig(), partial(sweep_map, problem, mesh)
    if starts is None:
        starts = [zero_state(mesh, problem.n)] * len(controls_list)
    for chunk in member_chunks(problem, mesh, len(controls_list)):
        x0 = stack([starts[k] for k in chunk])
        yield from fixed_point(sweep, x0, cfg, operands=(stack([controls_list[k] for k in chunk]),))


def eval_cost(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
) -> float:
    """Quadrature evaluation of the cost functional at a state snapshot.
    With member axes on state or controls, one value per member of their
    broadcast, as an array."""
    tables, lead = (state, slots, controls), _member_axes(state, controls)
    J = 0.0
    for name, _term in problem.cost_terms():
        dens = eval_kernel(problem, name, mesh, tables, lead=lead)
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
