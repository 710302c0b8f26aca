"""Costate assembly and solution, and the adjoint control gradient.

The scalar functional pairing cost and dynamics is linear in the six
costates, so its partial with respect to any slot at any node is a
costate-weighted accumulation over every kernel that reads the slot, with
the kernel's own arguments swapped to make the chosen node the producer
point, plus the direct cost-integrand gradient.  `assemble_h_partials`
performs that accumulation uniformly for all slots, including the control
slots, whose partial fields ARE the functional control gradient.

The six costate equations apply one pattern to the slot partials on each
x node set and the wall pair at the same times (the grid and the wall
strip, each slice and its wall pair).  Per slot role phi, p, q the
bracket is B = A + Dt* A' with A' the partial of the role's time
derivative, and B = A on the slices, which have no time axis; then

    x nodes:  B_phi - Dx B_p + Dxx B_q
    walls:    B_phi_bd + n B_p_bd + n trace(B_p - Dx B_q)

Dt*, the quadrature-weighted transpose of the forward time stencil, stands
for the -Dt of the variation identities: interior rows agree to second
order, and the first and last rows absorb the endpoint terms of the
summation by parts.  In one space dimension every tangential term
vanishes; only the normal contractions with n = -1, +1 survive.

Because the slot partials contain the costates inside running integrals,
the system is solved as a global fixed point with the same accelerated
machinery as the forward pass, endpoint rows included (one-sided stencils
realize the endpoint limits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .forward import SolverConfig, fixed_point
from .kernels import (
    SLOT_FAMILIES,
    TERMS,
    Problem,
    check_finite,
    eval_kernel_partial,
    kernel_args,
    transpose_contract,
)
from .mesh import Mesh, apply_axis
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    LAYOUTS,
    WALL_PAIRS,
    ControlBundle,
    CoStateBundle,
    DerivedSlots,
    StateBundle,
    flat_spans,
    zero_costate,
)


@dataclass
class ControlGradient:
    g_u: np.ndarray
    g_w: np.ndarray
    g_u0: np.ndarray
    g_uT: np.ndarray
    g_w0: np.ndarray
    g_wT: np.ndarray

    def block(self, name: str) -> np.ndarray:
        return getattr(self, "g_" + name)


def _zero_partials(problem: Problem, mesh: Mesh) -> dict:
    """A fresh zero array per slot, each a view of one new buffer."""
    key = ("partials", problem.n, problem.m_u, problem.m_w)
    slots, spans = mesh.plan(key, _partial_spans, problem, mesh)
    buf = np.zeros(spans[-1][1])
    return {slot: buf[a:b].reshape(shape) for slot, (a, b, shape) in zip(slots, spans)}


def _partial_spans(problem: Problem, mesh: Mesh) -> tuple:
    """The slots in table order and their spans in _zero_partials' buffer."""
    slots = [(L, slot) for L in LAYOUTS for slot in SLOT_FAMILIES[L.family]]
    shapes = tuple(L.nodes(mesh) + (problem.slot_dim(slot),) for L, slot in slots)
    return [slot for _, slot in slots], flat_spans(shapes)


def partial_cache(problem: Problem, mesh: Mesh, tables) -> dict:
    """Kernel and cost partial arrays at a fixed state snapshot, keyed by
    (term name, slot).  The costate solver reuses this across sweeps."""
    cache = {}
    for name, term in problem.terms.items():
        args = kernel_args(name, mesh, tables)
        for slot in term.partials:
            cache[(name, slot)] = eval_kernel_partial(
                problem, name, slot, mesh, tables, args=args
            )
    return cache


def assemble_h_partials(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    costate: CoStateBundle,
    cache: dict = None,
) -> dict:
    """Accumulate every slot partial at every node, keyed by slot.

    Each array has the natural layout of its slot with the slot's own
    component dimension last.

    A kernel partial is paired with its equation's costate and carried to
    the producer nodes; a cost partial already lives there.  With a zero
    costate only the direct cost gradients remain; with zero cost
    integrands and zero costates everything vanishes.
    """
    if cache is None:
        cache = partial_cache(problem, mesh, (state, slots, controls))
    out = _zero_partials(problem, mesh)
    # the cache is in term order, kernels first, which fixes the order of the sums
    for (name, slot), P in cache.items():
        if TERMS[name].values:
            lam = getattr(costate, LAYOUT[TERMS[name].eq].costate)
            P = transpose_contract(mesh, name, lam, P)
            check_finite(f"partial of {name} wrt {slot}", P)
        out[slot] += P
    return out


def _dt_star(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """Adjoint of the forward time stencil under the time quadrature:
    (1/wt) Dt^T (wt field) along the first axis."""
    w = mesh.wt.reshape((-1,) + (1,) * (field.ndim - 1))
    return np.tensordot(mesh.d1_t.T, w * field, axes=(1, 0)) / w


def apply_theta(mesh: Mesh, partials: dict, produced=None) -> CoStateBundle:
    """Apply the six costate operators to assembled slot partials.

    One pass per x node set and its wall pair (`WALL_PAIRS`) computes the
    brackets B = A + Dt* A' once (B = A on the slices) and from them

        Theta = B_phi - Dx B_p + Dxx B_q                   on the x nodes,
        G     = B_phi_bd + n B_p_bd + n trace(B_p - Dx B_q)  at the walls.

    Dt* replaces -Dt: interior rows agree with -Dt to second order, and
    the first and last rows absorb the endpoint terms of the summation by
    parts, realizing the endpoint conditions inside the same fixed-point
    equation.

    The partial of a slot not in produced (default: every slot) is a
    structural zero, and every addend built from such zeros is skipped.
    First operands stay: assembled partials never hold -0.0, so adding an
    exact zero to them changes no bit.
    """
    nrm = mesh.normals[:, None]
    live = set(partials if produced is None else produced)

    def bracket(L, role):
        """(B, whether a term produces it); B is the zero partial if not."""
        A, dot = L.slot(role), L.slot(role, dot=True)
        if L.time is not None and dot in live:
            return partials[A] + _dt_star(mesh, partials[dot]), True
        return partials[A], A in live

    out = {}
    for L, W in WALL_PAIRS:
        x = L.letters.index("j")
        theta, _ = bracket(L, "phi")
        (B_p, has_p), (B_q, has_q) = bracket(L, "p"), bracket(L, "q")
        if has_p:
            theta = theta - apply_axis(mesh.d1_x, B_p, x)
        flux = B_p
        if has_q:
            theta = theta + apply_axis(mesh.d2_x, B_q, x)
            flux = B_p - apply_axis(mesh.d1_x, B_q, x)
        (wall, _), (B_p_bd, has_p_bd) = bracket(W, "phi"), bracket(W, "p")
        if has_p_bd:
            wall = wall + nrm * B_p_bd
        if has_p or has_q:
            wall = wall + nrm * np.take(flux, [0, -1], axis=x)
        out[L.costate], out[W.costate] = theta, wall
    return CoStateBundle(**out)


def solve_costate(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    cfg: SolverConfig = None,
    cache: dict = None,
):
    """Fixed-point solution (forward.fixed_point) of the coupled costate
    system at a (converged) state snapshot.  Starts from zero costates.
    cache, when given, is the partial_cache of this snapshot.  The sweeps
    read the state-slot partials only: `apply_theta` never reads a control
    slot, so those entries are left to `control_gradient`."""
    if cache is None:
        cache = partial_cache(problem, mesh, (state, slots, controls))
    cache = {key: P for key, P in cache.items() if key[1] not in CONTROL_BLOCKS}
    produced = {slot for _, slot in cache}
    return fixed_point(
        lambda co: apply_theta(
            mesh,
            assemble_h_partials(problem, mesh, state, slots, controls, co, cache),
            produced,
        ),
        zero_costate(mesh, problem.n),
        cfg or SolverConfig(),
        label="costate ",
    )


def control_gradient(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    costate: CoStateBundle,
    cache: dict = None,
) -> ControlGradient:
    """Functional (density) gradient of the cost with respect to each
    control block: the control-slot partial fields at the solved costate.
    cache, when given, is the partial_cache of this snapshot.

    The directional derivative along a perturbation is the quadrature
    pairing of these densities with the perturbation, blockwise.
    """
    AH = assemble_h_partials(problem, mesh, state, slots, controls, costate, cache)
    return ControlGradient(*(AH[block] for block in CONTROL_BLOCKS))


def costate_gradient(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    cfg: SolverConfig = None,
    context: str = "",
):
    """(costate, ControlGradient) at a solved state: one partial_cache
    serves the costate solve and the control gradient.  Raises
    DivergenceError, its message ending in context, when the costate solve
    does not converge."""
    cache = partial_cache(problem, mesh, (state, slots, controls))
    costate, report = solve_costate(problem, mesh, state, slots, controls, cfg, cache)
    if not report.converged:
        raise DivergenceError("costate solve did not converge" + context)
    return costate, control_gradient(problem, mesh, state, slots, controls, costate, cache)


def block_pairing(mesh: Mesh, block: str, g: np.ndarray, d: np.ndarray) -> float:
    """Quadrature pairing of a gradient density with a perturbation of one
    control block."""
    if block not in CONTROL_BLOCKS:
        raise ConfigError(f"unknown control block {block!r}")
    return LAYOUT[block].quad(mesh, g, d, comp="m")


def gradient_norm2(mesh: Mesh, grad: ControlGradient) -> float:
    """Squared quadrature norm of the full control gradient."""
    total = 0.0
    for block in CONTROL_BLOCKS:
        g = grad.block(block)
        if g.size:
            total += block_pairing(mesh, block, g, g)
    return total
