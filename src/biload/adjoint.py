"""Costate assembly and solution, and the adjoint control gradient.

The scalar functional pairing cost and dynamics is linear in the six
costates, so its partial with respect to any slot at any node is a
costate-weighted accumulation over every kernel that reads the slot, with
the kernel's own arguments swapped to make the chosen node the producer
point, plus the direct cost-integrand gradient.  `assemble_h_partials`
performs that accumulation uniformly for all slots, including the control
slots, whose partial fields ARE the functional control gradient.

The six costate equations apply signed difference-operator combinations to
the slot-partial fields:

    trajectory:      id, -Dt, -Dx, +Dtx, +Dxx, -Dtxx on the
                     (phi, phi', p, p', q, q') partials
    boundary trace:  the (phi_bd, phi_bd') pair, the normal-weighted
                     (p_bd, p_bd') pair, and the normal-weighted trace of
                     the interior momentum flux  A_p - Dt A_p' - Dx A_q
                     + Dtx A_q'  (in one space dimension every tangential
                     term vanishes identically; only the normal
                     contractions with n = -1, +1 survive)
    slices:          the same combinations with all time-derivative terms
                     absent.

Because the slot partials contain the costates inside running integrals,
the system is solved as a global fixed point with the same relaxed Picard
machinery as the forward pass, endpoint rows included (one-sided stencils
realize the endpoint limits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .forward import SolverConfig, fixed_point
from .kernels import (
    SLOT_FAMILIES,
    TERMS,
    Problem,
    check_finite,
    costate_value_contract,
    eval_kernel,
    eval_kernel_partial,
    kernel_args,
    slot_tables,
    term_label,
    transpose_contract,
)
from .mesh import Mesh, StencilKind, apply_stencil
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    LAYOUTS,
    ControlBundle,
    CoStateBundle,
    DerivedSlots,
    StateBundle,
    zero_costate,
)


class ThetaKind(enum.Enum):
    Theta = "Theta"
    Theta0 = "Theta0"
    ThetaT = "ThetaT"
    G = "G"
    G0 = "G0"
    GT = "GT"


@dataclass
class HPartials:
    """Per-node partials of the costate-weighted functional with respect
    to every slot.  Each field has the natural layout of its slot with the
    slot's own component dimension last."""

    fields: dict

    def __getitem__(self, slot: str) -> np.ndarray:
        return self.fields[slot]


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
    out = {}
    for L in LAYOUTS:
        nodes = L.nodes(mesh)
        for slot in SLOT_FAMILIES[L.family]:
            out[slot] = np.zeros(nodes + (problem.slot_dim(slot),))
    return out


def partial_cache(problem: Problem, mesh: Mesh, tables) -> dict:
    """Kernel and cost partial arrays at a fixed state snapshot, keyed by
    (term name, slot).  The costate solver reuses this across sweeps; the
    dense-oracle assembly reuses it per column."""
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
) -> HPartials:
    """Accumulate every slot partial at every node.

    A kernel partial is paired with its equation's costate and carried to
    the producer nodes; a cost partial already lives there.  With a zero
    costate only the direct cost gradients remain; with zero cost
    integrands and zero costates everything vanishes.
    """
    if cache is None:
        cache = partial_cache(problem, mesh, slot_tables(state, slots, controls))
    out = _zero_partials(problem, mesh)
    # the cache is in term order, kernels first, which fixes the order of the sums
    for (name, slot), P in cache.items():
        if TERMS[name].values:
            lam = getattr(costate, LAYOUT[TERMS[name].eq].costate)
            P = transpose_contract(mesh, name, lam, P)
            check_finite(f"partial of {name} wrt {slot}", P)
        out[slot] += P
    return HPartials(fields=out)


def _dt_bd(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """Time derivative along the first axis of a boundary-shaped field."""
    return np.tensordot(mesh.d1_t, field, axes=(1, 0))


def _dt_star(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """Adjoint of the forward time stencil under the time quadrature:
    (1/wt) Dt^T (wt field) along the first axis.

    Agrees with -Dt to second order at interior rows and concentrates the
    endpoint terms of the time-direction summation by parts into the
    first/last rows, mirroring what the exact discrete transpose does.
    """
    w = mesh.wt.reshape((-1,) + (1,) * (field.ndim - 1))
    return np.tensordot(mesh.d1_t.T, w * field, axes=(1, 0)) / w


def _dx_slice(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    return np.tensordot(mesh.d1_x, field, axes=(1, 0))


def _dxx_slice(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    return np.tensordot(mesh.d2_x, field, axes=(1, 0))


def _wall_trace(field: np.ndarray) -> np.ndarray:
    """Trace of an interior (t, x, d) field at the two wall columns."""
    return np.stack([field[:, 0, :], field[:, -1, :]], axis=1)


def apply_theta(
    mesh: Mesh, kind: ThetaKind, partials: HPartials, time_adjoint: bool = False
) -> np.ndarray:
    """Apply one costate operator to assembled slot partials.

    Returns a field shaped like the corresponding costate block.  The
    trajectory operator combines the slot partials with signed stencils,

        id on phi,  -Dt on phi',  -Dx on p,  +Dtx on p',
        +Dxx on q,  -Dtxx on q',

    grouped as momentum brackets B_p = A_p - Dt A_p' and
    B_q = A_q - Dt A_q'.  The boundary operator pairs the trace-slot
    brackets with the normal and adds the normal-weighted wall trace of
    the interior momentum flux B_p - Dx B_q; in one space dimension every
    tangential term vanishes identically and only the normal contractions
    with n = -1, +1 survive.  Slice operators drop all time-derivative
    terms.

    With time_adjoint=True every time derivative of a partial field is
    replaced by the negated quadrature-weighted transpose of the forward
    stencil (-Dt -> +Dt*).  Interior rows agree to second order; the
    first and last rows absorb the endpoint-concentrated terms of the
    variation identities, realizing the endpoint conditions inside the
    same fixed-point equation.  The costate solver uses this variant.
    """
    H = partials.fields
    nrm = mesh.normals[:, None]

    def dt_field(F):
        if time_adjoint:
            return -_dt_star(mesh, F)
        return apply_stencil(mesh, StencilKind.Dt, F)

    def dt_bd(F):
        if time_adjoint:
            return -_dt_star(mesh, F)
        return _dt_bd(mesh, F)

    if kind in (ThetaKind.Theta, ThetaKind.G):
        B_p = H["p"] - dt_field(H["p_dot"])
        B_q = H["q"] - dt_field(H["q_dot"])
        if kind == ThetaKind.Theta:
            return (
                H["phi"]
                - dt_field(H["phi_dot"])
                - apply_stencil(mesh, StencilKind.Dx, B_p)
                + apply_stencil(mesh, StencilKind.Dxx, B_q)
            )
        flux = B_p - apply_stencil(mesh, StencilKind.Dx, B_q)
        return (
            H["phi_bd"]
            - dt_bd(H["phi_bd_dot"])
            + nrm * (H["p_bd"] - dt_bd(H["p_bd_dot"]))
            + nrm * _wall_trace(flux)
        )
    if kind == ThetaKind.Theta0:
        return H["phi0"] - _dx_slice(mesh, H["p0"]) + _dxx_slice(mesh, H["q0"])
    if kind == ThetaKind.ThetaT:
        return H["phiT"] - _dx_slice(mesh, H["pT"]) + _dxx_slice(mesh, H["qT"])
    if kind == ThetaKind.G0:
        flux = H["p0"] - _dx_slice(mesh, H["q0"])
        return (
            H["phi0_bd"]
            + nrm * H["p0_bd"]
            + nrm * np.stack([flux[0], flux[-1]], axis=0)
        )
    if kind == ThetaKind.GT:
        flux = H["pT"] - _dx_slice(mesh, H["qT"])
        return (
            H["phiT_bd"]
            + nrm * H["pT_bd"]
            + nrm * np.stack([flux[0], flux[-1]], axis=0)
        )
    raise ConfigError(f"unknown operator kind {kind!r}")


def _costate_sweep(problem, mesh, state, slots, controls, costate, cache):
    AH = assemble_h_partials(problem, mesh, state, slots, controls, costate, cache)
    return CoStateBundle(
        psi=apply_theta(mesh, ThetaKind.Theta, AH, time_adjoint=True),
        omega=apply_theta(mesh, ThetaKind.G, AH, time_adjoint=True),
        psi0=apply_theta(mesh, ThetaKind.Theta0, AH, time_adjoint=True),
        psiT=apply_theta(mesh, ThetaKind.ThetaT, AH, time_adjoint=True),
        omega0=apply_theta(mesh, ThetaKind.G0, AH, time_adjoint=True),
        omegaT=apply_theta(mesh, ThetaKind.GT, AH, time_adjoint=True),
    )


def solve_costate(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    cfg: SolverConfig = None,
):
    """Relaxed Picard solution of the coupled costate fixed point at a
    (converged) state snapshot.  Starts from zero costates."""
    tables = slot_tables(state, slots, controls)
    cache = partial_cache(problem, mesh, tables)
    return fixed_point(
        lambda co: _costate_sweep(problem, mesh, state, slots, controls, co, cache),
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
) -> ControlGradient:
    """Functional (density) gradient of the cost with respect to each
    control block: the control-slot partial fields at the solved costate.

    The directional derivative along a perturbation is the quadrature
    pairing of these densities with the perturbation, blockwise.
    """
    AH = assemble_h_partials(problem, mesh, state, slots, controls, costate)
    return ControlGradient(*(AH[block] for block in CONTROL_BLOCKS))


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


def hamiltonian_report(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    slots: DerivedSlots,
    controls: ControlBundle,
    costate: CoStateBundle,
) -> dict:
    """Diagnostic per-node split of the costate-weighted functional.

    Every kernel term is attributed to the node family where its state
    slots are read; the four cost densities are attributed to the interior
    grid, the boundary strip, the initial slice, and the initial boundary
    pair respectively.  Purely for inspection and plotting.
    """
    tables = slot_tables(state, slots, controls)
    fields = {L.eq: np.zeros(L.nodes(mesh)) for L in LAYOUTS}
    for name in problem.terms:
        shape = TERMS[name]
        F = eval_kernel(problem, name, mesh, tables)
        check_finite(term_label(name), F)
        if shape.values:
            lam = getattr(costate, LAYOUT[shape.eq].costate)
            F = costate_value_contract(mesh, name, lam, F)
        fields[LAYOUT[shape.family].eq] += F
    return fields
