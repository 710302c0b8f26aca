"""Independent gradient oracles and discrete identity checks.

Two oracles cross-validate the adjoint machinery.  The finite-difference
oracle differentiates the whole pipeline (forward solve plus cost) with
central differences.  The dense discrete oracle linearizes the actual
discrete sweep map around the converged state, solves the transposed
linear system for the multipliers, and returns the exact gradient of the
discrete cost, up to linear-solve roundoff.  The two must agree tightly;
the costate-based gradient converges to them under mesh refinement.

Also here: the two integration-by-parts residuals for running-derivative
cost terms, the closed-curve pairing that certifies the discrete
tangential derivative is exactly skew on a periodic mesh, and refinement
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import (
    ControlGradient,
    block_pairing,
    control_gradient,
    partial_cache,
    solve_costate,
)
from .errors import ConfigError, DivergenceError, SingularSystemError
from .forward import (
    SolverConfig,
    assemble_sweep,
    eval_cost,
    member_chunks,
    solve_forward,
    solve_forward_many,
)
from .kernels import TERMS, Problem, forward_contract, slot_tables
from .mesh import CurveMesh, Mesh, StencilKind, apply_stencil, curve_diff
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    ControlBundle,
    CoStateBundle,
    StateBundle,
    bundle_of,
    control_index,
    derive_slots,
    flat_index,
    unpack,
    zero_controls,
    zero_state,
)

_TIGHT = SolverConfig(tol=1e-12, max_iter=2000)
#: Unknowns above which the dense oracle refuses to assemble its Jacobian.
DTO_SIZE_CAP = 1500
#: gradient_check's central-difference step, paired with _TIGHT's tol, and
#: the relative gaps to it above which a dense-oracle or costate entry fails.
FD_EPS = 1e-5
TOL_DTO = 1e-5
TOL_ADJOINT = 1e-2


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def _perturbed(controls: ControlBundle, block: str, direction, scale: float):
    new = controls.copy()
    arr = getattr(new, block)
    arr += scale * direction
    return new


def _solved_state(solved, context: str = "") -> StateBundle:
    """The state of a forward solution (state, SolveReport); raises unless
    it converged."""
    state, report = solved
    if not report.converged:
        raise DivergenceError(
            f"forward solve did not converge{context} "
            f"(residual {report.final_residual:g})"
        )
    return state


def _fd_cost(problem, mesh, controls, solved) -> float:
    state = _solved_state(solved)
    return eval_cost(problem, mesh, state, derive_slots(mesh, state), controls)


def fd_directional(
    problem: Problem,
    mesh: Mesh,
    controls: ControlBundle,
    block: str,
    direction: np.ndarray,
    eps: float = FD_EPS,
    cfg: SolverConfig = None,
) -> float:
    """Central-difference directional derivative of the reduced cost.

    Each evaluation re-solves the forward system at tight tolerance.  The
    step trades truncation against solver-noise amplification; the default
    pairs eps = 1e-5 with tol = 1e-12.  gradient_check solves the central
    differences of all its directions as one batch.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    if getattr(controls, block).shape != np.asarray(direction).shape:
        raise ConfigError(f"direction shape mismatch for block {block!r}")
    cfg = cfg or _TIGHT
    up, dn = (_perturbed(controls, block, direction, s) for s in (eps, -eps))
    j_up = _fd_cost(problem, mesh, up, solve_forward(problem, mesh, up, cfg))
    j_dn = _fd_cost(problem, mesh, dn, solve_forward(problem, mesh, dn, cfg))
    return (j_up - j_dn) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Dense discrete oracle
# ---------------------------------------------------------------------------


def _linearized_terms(problem, mesh, cache, dtables):
    """Differential of the right-hand-side accumulation: kernel partials
    at the base state contracted with perturbed slot fields."""
    for kid, kernel in problem.kernels.items():
        shape = TERMS[kid]
        dF = None
        for slot in kernel.partials:
            darr = shape.arrange(slot, dtables)
            term = np.einsum("...nd,...d->...n", cache[(kid, slot)], darr)
            dF = term if dF is None else dF + term
        if dF is not None:
            yield shape.eq, forward_contract(mesh, kid, dF)


def _linearized_sweep(problem, mesh, cache, dstate, dcontrols, lead=()):
    dslots = derive_slots(mesh, dstate)
    dtables = slot_tables(dstate, dslots, dcontrols)
    terms = _linearized_terms(problem, mesh, cache, dtables)
    return assemble_sweep(mesh, problem.n, terms, lead), dtables


def _linearized_cost(problem, mesh, cache, dtables):
    dJ = 0.0
    for name, term in problem.cost_terms():
        shape = TERMS[name]
        for slot in term.partials:
            darr = shape.arrange(slot, dtables)
            dJ += LAYOUT[shape.eq].quad(mesh, cache[(name, slot)], darr, comp="d")
    return dJ


def _linearized_columns(problem, mesh, cache, index, at):
    """Image (a row per column) and cost differential of the linearized
    sweep at every unit vector of index's flat space, batched per member
    chunk; at(unit) gives (dstate, dcontrols) for a bundle of them."""
    images, costs = [], []
    for rows in member_chunks(problem, mesh, index.total):
        unit = np.zeros((len(rows), index.total))
        unit[range(len(rows)), rows] = 1.0
        unit = bundle_of(index.bundle, unit, index.shapes)
        image, dtables = _linearized_sweep(problem, mesh, cache, *at(unit), (len(rows),))
        images.append(image.flat)
        costs.append(np.broadcast_to(_linearized_cost(problem, mesh, cache, dtables), len(rows)))
    return np.concatenate(images), np.concatenate(costs)


@dataclass
class DtoResult:
    grad: ControlGradient
    multipliers: CoStateBundle
    state: StateBundle
    cache: dict = field(repr=False)  # partial_cache at state


def dto_solve(
    problem: Problem,
    mesh: Mesh,
    controls: ControlBundle,
    cfg: SolverConfig = None,
) -> DtoResult:
    """Exact gradient of the discrete reduced cost via dense linearization.

    Builds the Jacobian of the fixed-point defect column by column with
    the linearized sweep, solves the transposed system for the
    multipliers, and maps the result back to control-block shape (nodal
    convention: entries are plain partials with respect to nodal control
    values, quadrature weights included).
    """
    idx = flat_index(mesh, problem.n)
    if idx.total > DTO_SIZE_CAP:
        raise ConfigError(
            f"dense oracle limited to {DTO_SIZE_CAP} unknowns, grid has {idx.total}"
        )
    solved = solve_forward(problem, mesh, controls, cfg or _TIGHT)
    state = _solved_state(solved, " for the dense oracle")
    slots = derive_slots(mesh, state)
    tables = slot_tables(state, slots, controls)
    cache = partial_cache(problem, mesh, tables)

    cidx = control_index(mesh, problem.m_u, problem.m_w)
    zctrl = zero_controls(mesh, problem.m_u, problem.m_w)
    images, dJdPhi = _linearized_columns(problem, mesh, cache, idx, lambda d: (d, zctrl))
    A = np.ascontiguousarray(images.T) - np.eye(idx.total)
    zst = zero_state(mesh, problem.n)
    images, dJdU = _linearized_columns(problem, mesh, cache, cidx, lambda d: (zst, d))
    B = np.ascontiguousarray(images.T)

    try:
        lam = np.linalg.solve(A.T, -dJdPhi)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "discrete fixed point has a singular linearization"
        ) from exc
    grad_flat = dJdU + B.T @ lam
    return DtoResult(
        grad=ControlGradient(*unpack(cidx, grad_flat).blocks()),
        multipliers=CoStateBundle(*unpack(idx, lam).blocks()),
        state=state,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# Integration-by-parts and skew-adjoint identities
# ---------------------------------------------------------------------------


def _as_field(mesh: Mesh, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.shape[:2] != (mesh.Nt + 1, mesh.Nx + 1):
        raise ConfigError(f"field shape {arr.shape} does not match the grid")
    return arr


def _quad_q(mesh: Mesh, dens: np.ndarray) -> float:
    return LAYOUT["interior"].quad(mesh, dens, comp="n")


def _bd_normal_sum(mesh: Mesh, field: np.ndarray) -> float:
    """Time-quadrature of the normal-weighted wall values of a field."""
    vals = field[:, -1, :].sum(axis=-1) - field[:, 0, :].sum(axis=-1)
    return float(np.dot(mesh.wt, vals))


def ibp_residual(mesh: Mesh, grad_p, grad_p_dot, delta_phi):
    """Discrete defects of the two summation-by-parts identities moving a
    spatial (r1) and a mixed space-time (r2) derivative off a smooth test
    field.

    r1:  <A, Dx dphi>_Q  =  sum_walls n A dphi dt  -  <Dx A, dphi>_Q
    r2:  <A', Dt Dx dphi>_Q  =  endpoint wall terms  -  endpoint interior
         terms with Dx A'  -  <n Dt A', dphi>_walls  +  <Dtx A', dphi>_Q

    Both vanish exactly when the corresponding field is absent and decay
    with refinement for smooth data.
    """
    A = _as_field(mesh, grad_p)
    A2 = _as_field(mesh, grad_p_dot)
    dphi = _as_field(mesh, delta_phi)

    dp = apply_stencil(mesh, StencilKind.Dx, dphi)
    lhs1 = _quad_q(mesh, A * dp)
    bterm1 = _bd_normal_sum(mesh, A * dphi)
    body1 = _quad_q(mesh, apply_stencil(mesh, StencilKind.Dx, A) * dphi)
    r1 = lhs1 - (bterm1 - body1)

    dpdot = apply_stencil(mesh, StencilKind.Dtx, dphi)
    lhs2 = _quad_q(mesh, A2 * dpdot)
    prod = A2 * dphi
    end_walls = float(
        (prod[-1, -1, :].sum() - prod[-1, 0, :].sum())
        - (prod[0, -1, :].sum() - prod[0, 0, :].sum())
    )
    dxA2 = apply_stencil(mesh, StencilKind.Dx, A2)
    end_slab = dxA2[-1] * dphi[-1] - dxA2[0] * dphi[0]
    end_body = -LAYOUT["initial"].quad(mesh, end_slab, comp="n")
    dtA2 = apply_stencil(mesh, StencilKind.Dt, A2)
    walls = -_bd_normal_sum(mesh, dtA2 * dphi)
    body2 = _quad_q(mesh, apply_stencil(mesh, StencilKind.Dtx, A2) * dphi)
    r2 = lhs2 - (end_walls + end_body + walls + body2)
    return float(r1), float(r2)


def skew_adjoint_residual(curve: CurveMesh, psi: np.ndarray, phi: np.ndarray) -> float:
    """Closed-curve pairing sum_k [psi (D phi) + (D psi) phi] ds.

    Exactly zero (to roundoff) for periodic centered differences: the
    telescoping discrete counterpart of an integral over a manifold with
    empty boundary.
    """
    psi = np.asarray(psi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if psi.shape != phi.shape or psi.shape[0] != curve.M:
        raise ConfigError("field shapes must match the curve mesh")
    total = psi * curve_diff(curve, phi) + curve_diff(curve, psi) * phi
    return float(np.sum(total) * curve.ds)


# ---------------------------------------------------------------------------
# Smooth test directions
# ---------------------------------------------------------------------------

_N_BASIS = 3


def _basis(z: np.ndarray) -> np.ndarray:
    return np.stack([np.ones_like(z), np.sin(np.pi * z), z * (1.0 - z)])


def smooth_direction(mesh: Mesh, block: str, m: int, rng) -> np.ndarray:
    """A mesh-independent smooth random field shaped like a control block.

    Coefficients are drawn from rng in a fixed order, so the same seed
    produces samples of the same underlying function on any mesh.
    """
    tau = mesh.t / mesh.T_final
    zeta = (mesh.x - mesh.x_a) / (mesh.x_b - mesh.x_a)
    if block == "u":
        C = rng.standard_normal((_N_BASIS, _N_BASIS, m))
        return np.einsum("at,bx,abm->txm", _basis(tau), _basis(zeta), C)
    if block == "w":
        C = rng.standard_normal((_N_BASIS, 2, m))
        return np.einsum("at,abm->tbm", _basis(tau), C)
    if block in ("u0", "uT"):
        C = rng.standard_normal((_N_BASIS, m))
        return np.einsum("bx,bm->xm", _basis(zeta), C)
    if block in ("w0", "wT"):
        return rng.standard_normal((2, m))
    raise ConfigError(f"unknown control block {block!r}")


# ---------------------------------------------------------------------------
# Gradient triangle check
# ---------------------------------------------------------------------------


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-9)


@dataclass
class GradCheckEntry:
    block: str
    direction: int
    fd: float
    adjoint: float
    dto: float | None
    err_adjoint: float
    err_dto: float | None


@dataclass
class GradCheckReport:
    entries: list = field(default_factory=list)
    seed: int = 0
    mesh_level: tuple = (0, 0)  # (Nt, Nx)
    costate: CoStateBundle = None  # the solved costate the adjoint column used
    grad: ControlGradient = None  # and its control gradient

    @staticmethod
    def _fails(e: GradCheckEntry) -> bool:
        return (e.err_dto is not None and e.err_dto > TOL_DTO) or e.err_adjoint > TOL_ADJOINT

    @property
    def passed(self) -> bool:
        return not any(map(self._fails, self.entries))

    def failing_blocks(self) -> list:
        return list(dict.fromkeys(e.block for e in self.entries if self._fails(e)))


def gradient_check(
    problem: Problem,
    mesh: Mesh,
    controls: ControlBundle,
    n_dirs: int = 5,
    seed: int = 0,
    cfg: SolverConfig = None,
    costate_cfg: SolverConfig = None,
    use_dto: bool = None,
    blocks=None,
) -> GradCheckReport:
    """Cross-validate adjoint and dense-oracle directional derivatives
    against central differences over random smooth directions.

    The dense oracle participates automatically when the grid is inside
    its size cap.  Deterministic for fixed (seed, inputs).
    """
    if n_dirs < 1:
        raise ConfigError("n_dirs must be at least 1")
    if blocks is not None and not blocks:
        raise ConfigError("blocks must name at least one control block")
    cfg = cfg or _TIGHT
    costate_cfg = costate_cfg or cfg
    if use_dto is None:
        use_dto = flat_index(mesh, problem.n).total <= DTO_SIZE_CAP
    dto = dto_solve(problem, mesh, controls, cfg) if use_dto else None
    if dto is not None:
        state = dto.state
    else:
        state = _solved_state(solve_forward(problem, mesh, controls, cfg), " for gradient check")
    slots = derive_slots(mesh, state)
    # the dense oracle's cache is that of the same snapshot
    cache = dto.cache if dto else partial_cache(problem, mesh, slot_tables(state, slots, controls))
    costate, crep = solve_costate(
        problem, mesh, state, slots, controls, costate_cfg, cache
    )
    if not crep.converged:
        raise DivergenceError("costate solve did not converge for gradient check")
    grad = control_gradient(problem, mesh, state, slots, controls, costate, cache)

    if blocks is None:
        blocks = [b for b in CONTROL_BLOCKS if problem.slot_dim(b) > 0]
    report = GradCheckReport(seed=seed, mesh_level=(mesh.Nt, mesh.Nx), costate=costate, grad=grad)
    rng = np.random.default_rng(seed)
    dirs = [(block, k, smooth_direction(mesh, block, problem.slot_dim(block), rng))
            for block in blocks for k in range(n_dirs)]
    # the central differences of every direction, solved as one batch; the
    # costs follow the members in order, so the first failing member raises
    members = [_perturbed(controls, b, d, s) for b, _, d in dirs for s in (FD_EPS, -FD_EPS)]
    solved = solve_forward_many(problem, mesh, members, cfg)
    costs = [_fd_cost(problem, mesh, c, pair) for c, pair in zip(members, solved)]
    for (block, k, direction), j_up, j_dn in zip(dirs, costs[::2], costs[1::2]):
        fd = (j_up - j_dn) / (2.0 * FD_EPS)
        adj = block_pairing(mesh, block, grad.block(block), direction)
        dto_val = None if dto is None else float(np.sum(dto.grad.block(block) * direction))
        err_dto = None if dto is None else _rel_gap(dto_val, fd)
        entry = GradCheckEntry(block, k, fd, adj, dto_val, _rel_gap(adj, fd), err_dto)
        report.entries.append(entry)
    return report


# ---------------------------------------------------------------------------
# Refinement studies
# ---------------------------------------------------------------------------


@dataclass
class RefinementRow:
    level: int
    Nt: int
    Nx: int
    value: float
    order: float | None


@dataclass
class RefinementTable:
    metric: str
    rows: list = field(default_factory=list)

    def orders(self) -> list:
        return [r.order for r in self.rows if r.order is not None]

    def values(self) -> list:
        return [r.value for r in self.rows]


def _refined(mesh: Mesh, factor: int) -> Mesh:
    from .mesh import build_mesh

    return build_mesh(
        mesh.T_final, mesh.Nt * factor, mesh.x_a, mesh.x_b, mesh.Nx * factor
    )


def forward_sup_error(problem, mesh, controls, reference, cfg) -> float:
    """Sup-norm trajectory error against an analytic reference, measured
    on interior columns (wall columns belong to the trace unknown)."""
    state = _solved_state(solve_forward(problem, mesh, controls, cfg), " in refinement study")
    ref = np.asarray(reference(mesh.t, mesh.x), dtype=float)
    if ref.ndim == 2:
        ref = ref[:, :, None]
    diff = np.abs(state.phi - ref)[:, 1:-1, :]
    return float(np.max(diff))


def gradient_gap(problem, mesh, controls, block="u", seed=0, cfg=None, costate_cfg=None) -> float:
    """Relative gap between the costate-gradient pairing and the central
    difference, for one seeded smooth direction."""
    report = gradient_check(
        problem, mesh, controls, n_dirs=1, seed=seed, cfg=cfg,
        costate_cfg=costate_cfg, use_dto=False, blocks=[block],
    )
    return report.entries[0].err_adjoint


def _ibp_test_fields(mesh: Mesh):
    tau = (mesh.t / mesh.T_final)[:, None]
    zeta = ((mesh.x - mesh.x_a) / (mesh.x_b - mesh.x_a))[None, :]
    A = np.cos(tau) * np.sin(np.pi * zeta) + 0.3 * tau * zeta
    A2 = np.sin(1.0 + tau) * np.cos(np.pi * zeta)
    dphi = np.exp(zeta - tau) * np.sin(np.pi * zeta * 0.7 + 0.2 * tau)
    return A, A2, dphi


def refinement_study(
    problem: Problem,
    mesh: Mesh,
    levels: int,
    metric: str,
    controls: ControlBundle = None,
    reference=None,
    block: str = "u",
    seed: int = 0,
    cfg: SolverConfig = None,
    costate_cfg: SolverConfig = None,
) -> RefinementTable:
    """Halve dt and dx `levels` times and report the chosen metric with
    observed orders log2(e_k / e_{k+1})."""
    if levels < 3:
        raise ConfigError("refinement study needs at least 3 levels")
    if metric not in ("forward_error", "gradient_gap", "ibp_residual"):
        raise ConfigError(f"unknown metric {metric!r}")
    if metric == "forward_error" and reference is None:
        raise ConfigError("forward_error metric needs an analytic reference")
    table = RefinementTable(metric=metric)
    prev = None
    for level in range(levels):
        m = _refined(mesh, 2**level)
        lvl_cfg = cfg(m) if callable(cfg) else cfg
        lvl_costate_cfg = costate_cfg(m) if callable(costate_cfg) else costate_cfg
        if metric == "ibp_residual":
            A, A2, dphi = _ibp_test_fields(m)
            r1, r2 = ibp_residual(m, A, A2, dphi)
            value = abs(r1) + abs(r2)
        else:
            if controls is None:
                ctrl = zero_controls(m, problem.m_u, problem.m_w)
            elif callable(controls):
                ctrl = controls(m)
            else:
                raise ConfigError(
                    "controls must be None or a mesh -> ControlBundle builder "
                    "(control arrays are mesh-shaped and cannot cross levels)"
                )
            if metric == "forward_error":
                value = forward_sup_error(
                    problem, m, ctrl, reference, lvl_cfg or _TIGHT
                )
            else:
                value = gradient_gap(problem, m, ctrl, block, seed, lvl_cfg, lvl_costate_cfg)
        order = None if prev is None else math.log2(max(prev, 1e-300) / max(value, 1e-300))
        table.rows.append(
            RefinementRow(level=level, Nt=m.Nt, Nx=m.Nx, value=value, order=order)
        )
        prev = value
    return table
