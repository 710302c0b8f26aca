"""Independent gradient oracles and discrete identity checks.

Two oracles cross-validate the adjoint machinery.  The finite-difference
oracle differentiates the whole pipeline (forward solve plus cost) with
central differences.  The dense discrete oracle linearizes the actual
discrete sweep map and cost around the state it is given by complex step,
running `sweep_map` and `eval_cost` themselves at complex members, so no
hand-written partial enters it (the kernel bodies must be complex-analytic
in the slot values).  It solves the transposed linear system for the
multipliers; at a fixed point the caller solved, the result is the exact
gradient of the discrete cost, up to linear-solve roundoff and the solve's
own residual.  The two must agree tightly; the costate-based gradient
(`adjoint.costate_gradient`), built from the hand partials, converges to
them under mesh refinement.  Both oracles of `gradient_check` read one
forward solve.

Also here: the two integration-by-parts residuals for running-derivative
cost terms, the closed-curve pairing that certifies the discrete
tangential derivative is exactly skew on a periodic mesh, and refinement
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import ControlGradient, block_pairing, costate_gradient
from .errors import ConfigError, DivergenceError, SingularSystemError, check_count
from .forward import (
    SolverConfig,
    eval_cost,
    member_chunks,
    solve_forward,
    solve_forward_many,
    sweep_map,
)
from .kernels import Problem
from .mesh import CurveMesh, Mesh, apply_axis, build_mesh, curve_diff
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    LAYOUTS,
    ControlBundle,
    CoStateBundle,
    StateBundle,
    block_shapes,
    bundle_of,
    derive_slots,
    pack,
    stack,
    zero_controls,
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
    """The state of a forward solution (state, SolveReport); raises the
    report's error if it holds one, else unless it converged."""
    state, report = solved
    if report.error is not None:
        raise report.error
    if not report.converged:
        raise DivergenceError(
            f"forward solve did not converge{context} "
            f"(residual {report.final_residual:g})"
        )
    return state


def _fd_costs(problem, mesh, members, solved) -> list:
    """The cost of each member of the control bundles members at its
    forward solution in solved, one eval_cost per member chunk; the first
    member whose solve failed raises."""
    states = [_solved_state(pair) for pair in solved]
    costs = []
    for chunk in member_chunks(problem, mesh, len(members)):
        state, controls = (stack([bundles[k] for k in chunk]) for bundles in (states, members))
        cost = eval_cost(problem, mesh, state, derive_slots(mesh, state), controls)
        costs.append(np.broadcast_to(cost, len(chunk)))
    return np.concatenate(costs).tolist()


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

    Each evaluation re-solves the forward system at tight tolerance from
    the zero bundle.  The step trades truncation against solver-noise
    amplification; the default pairs eps = 1e-5 with tol = 1e-12.
    gradient_check solves the central differences of all its directions as
    one batch; without the dense oracle its entries are bit for bit this
    function's, and with it its members start at predicted states, which
    moves them within the solve tolerance.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    if block not in CONTROL_BLOCKS:
        raise ConfigError(f"unknown control block {block!r}")
    if getattr(controls, block).shape != np.asarray(direction).shape:
        raise ConfigError(f"direction shape mismatch for block {block!r}")
    cfg = cfg or _TIGHT
    members = [_perturbed(controls, block, direction, s) for s in (eps, -eps)]
    solved = [solve_forward(problem, mesh, c, cfg) for c in members]
    j_up, j_dn = _fd_costs(problem, mesh, members, solved)
    return (j_up - j_dn) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Dense discrete oracle
# ---------------------------------------------------------------------------


#: The imaginary step of the dense oracle's complex-step columns: a power of
#: two, so scaling by it is exact, and far below the point where a
#: second-order term reaches the imaginary part.
CS_STEP = 2.0**-100


def state_unknowns(problem: Problem, mesh: Mesh) -> int:
    """Entries of the six state blocks: the dense oracle's matrix size."""
    return sum(map(math.prod, block_shapes(mesh.Nt, mesh.Nx, (problem.n,) * len(LAYOUTS))))


def _linearized_columns(problem, mesh, base, at):
    """Image (a row per column) and cost differential of the sweep at every
    unit vector of the bundle base's flat space, batched per member chunk,
    by complex step: sweep_map and eval_cost run at the members
    pack(base) + i*CS_STEP*unit, and at(members) gives the (state,
    controls) to run them at."""
    real = pack(base)
    images, costs = [], []
    for rows in member_chunks(problem, mesh, real.size, itemsize=16):
        flat = np.zeros((len(rows), real.size), complex)
        flat.real = real
        flat.imag[range(len(rows)), rows] = CS_STEP
        state, controls = at(bundle_of(type(base), flat, base.shapes()))
        slots = derive_slots(mesh, state)
        images.append(sweep_map(problem, mesh, state, controls, slots).flat.imag / CS_STEP)
        cost = eval_cost(problem, mesh, state, slots, controls)
        costs.append(np.broadcast_to(np.imag(cost) / CS_STEP, len(rows)))
    return np.concatenate(images), np.concatenate(costs)


@dataclass
class DtoResult:
    grad: ControlGradient
    multipliers: CoStateBundle
    tangents: list = field(default_factory=list)  # a StateBundle per direction


def dto_solve(
    problem: Problem,
    mesh: Mesh,
    state: StateBundle,
    controls: ControlBundle,
    directions=(),
) -> DtoResult:
    """Gradient of the discrete reduced cost via dense linearization at
    state, which the caller solved: exact when state is the fixed point of
    controls, and at any other state the same linear algebra on the
    Jacobians there.  Runs no forward solve.

    Builds the Jacobian of the fixed-point defect column by column, each
    column the complex-step derivative of the sweep itself along one
    unknown (state columns keep the controls real, control columns the
    state), solves the transposed system for the multipliers, and maps the
    result back to control-block shape (nodal convention: entries are plain
    partials with respect to nodal control values, quadrature weights
    included).  The kernel bodies must be complex-analytic in the slot
    values, as every builtin is; the hand-written partials play no part.

    With the state Jacobian A and the control Jacobian B, the tangent of
    each control bundle d in directions is the state's derivative along
    it, t = -A^-1 B d, from one more dense solve (none when directions
    is empty).
    """
    total = state_unknowns(problem, mesh)
    if total > DTO_SIZE_CAP:
        raise ConfigError(
            f"dense oracle limited to {DTO_SIZE_CAP} unknowns, grid has {total}"
        )

    images, dJdPhi = _linearized_columns(problem, mesh, state, lambda s: (s, controls))
    A = np.ascontiguousarray(images.T) - np.eye(total)
    images, dJdU = _linearized_columns(problem, mesh, controls, lambda c: (state, c))
    B = np.ascontiguousarray(images.T)

    D = np.array([pack(d) for d in directions]).reshape(len(directions), B.shape[1])
    try:
        lam = np.linalg.solve(A.T, -dJdPhi)
        tangents = np.ascontiguousarray(np.linalg.solve(A, -(B @ D.T)).T) if len(D) else ()
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "discrete fixed point has a singular linearization"
        ) from exc
    grad_flat = dJdU + B.T @ lam
    return DtoResult(
        grad=ControlGradient(*bundle_of(ControlBundle, grad_flat, controls.shapes()).blocks()),
        multipliers=bundle_of(CoStateBundle, lam, state.shapes()),
        tangents=[bundle_of(StateBundle, t, state.shapes()) for t in tangents],
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

    dp = apply_axis(mesh.d1_x, dphi, 1)
    lhs1 = _quad_q(mesh, A * dp)
    bterm1 = _bd_normal_sum(mesh, A * dphi)
    body1 = _quad_q(mesh, apply_axis(mesh.d1_x, A, 1) * dphi)
    r1 = lhs1 - (bterm1 - body1)

    dpdot = apply_axis(mesh.d1_t, dp, 0)
    lhs2 = _quad_q(mesh, A2 * dpdot)
    prod = A2 * dphi
    end_walls = float(
        (prod[-1, -1, :].sum() - prod[-1, 0, :].sum())
        - (prod[0, -1, :].sum() - prod[0, 0, :].sum())
    )
    dxA2 = apply_axis(mesh.d1_x, A2, 1)
    end_slab = dxA2[-1] * dphi[-1] - dxA2[0] * dphi[0]
    end_body = -LAYOUT["initial"].quad(mesh, end_slab, comp="n")
    dtA2 = apply_axis(mesh.d1_t, A2, 0)
    walls = -_bd_normal_sum(mesh, dtA2 * dphi)
    body2 = _quad_q(mesh, apply_axis(mesh.d1_t, dxA2, 0) * dphi)
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

    One forward solve at cfg gives the state both gradients read: the
    costate gradient (costate_cfg) and the dense oracle, whose gradient is
    exact at that fixed point.  The dense oracle participates automatically when the grid is inside
    its size cap.  It then also gives each direction's state tangent t,
    and the members of its central difference start at their first-order
    predictions, the base state plus and minus FD_EPS t; without it they
    start from zero.  Either way a member stops only on its own residual.
    Deterministic for fixed (seed, inputs).
    """
    check_count("n_dirs", n_dirs, 1)
    if blocks is not None and not blocks:
        raise ConfigError("blocks must name at least one control block")
    cfg = cfg or _TIGHT
    costate_cfg = costate_cfg or cfg
    if use_dto is None:
        use_dto = state_unknowns(problem, mesh) <= DTO_SIZE_CAP
    if blocks is None:
        blocks = [b for b in CONTROL_BLOCKS if problem.slot_dim(b) > 0]
    rng = np.random.default_rng(seed)
    dirs = [(block, k, smooth_direction(mesh, block, problem.slot_dim(block), rng))
            for block in blocks for k in range(n_dirs)]
    zero = zero_controls(mesh, problem.m_u, problem.m_w)
    units = [_perturbed(zero, b, d, 1.0) for b, _, d in dirs]
    state = _solved_state(solve_forward(problem, mesh, controls, cfg), " for gradient check")
    dto = dto_solve(problem, mesh, state, controls, units) if use_dto else None
    costate, grad = costate_gradient(problem, mesh, state, derive_slots(mesh, state), controls,
                                     costate_cfg, " for gradient check")

    report = GradCheckReport(costate=costate, grad=grad)
    # the central differences of every direction, solved as one batch
    steps = (FD_EPS, -FD_EPS)
    members = [_perturbed(controls, b, d, s) for b, _, d in dirs for s in steps]
    base = pack(state)
    starts = None if dto is None else [
        bundle_of(StateBundle, base + s * t.flat, state.shapes()) for t in dto.tangents for s in steps]
    solved = solve_forward_many(problem, mesh, members, cfg, starts)
    costs = _fd_costs(problem, mesh, members, solved)
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
    reference=None,
    block: str = "u",
    seed: int = 0,
    cfg: SolverConfig = None,
    costate_cfg: SolverConfig = None,
) -> RefinementTable:
    """Halve dt and dx `levels` times and report the chosen metric with
    observed orders log2(e_k / e_{k+1}), each level at zero controls."""
    check_count("levels", levels, 3)
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
            ctrl = zero_controls(m, problem.m_u, problem.m_w)
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
