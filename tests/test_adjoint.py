import numpy as np
import pytest

from biload.adjoint import (
    apply_theta,
    assemble_h_partials,
    block_pairing,
    control_gradient,
    partial_cache,
    solve_costate,
)
from biload.forward import SolverConfig, fixed_point, solve_forward
from biload.kernels import CostTerm, Kernel, Problem, kernel_args
from biload.mesh import build_mesh
from biload.models import MODEL_NAMES, make_model, make_params
from biload.state import (
    CONTROL_BLOCKS,
    WALL_PAIRS,
    derive_slots,
    zero_controls,
    zero_costate,
    zero_state,
)
from biload.verify import _TIGHT, dto_solve, smooth_direction
from test_complex_step import _solved

MESH = build_mesh(1.0, 8, 0.0, 1.0, 8)
TIGHT = SolverConfig(tol=1e-12)


def _tracking_problem():
    """Memoryless passthrough dynamics phi = u with quadratic state cost."""
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: a.u, partials={"u": lambda a: 1.0})},
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )


def test_zero_cost_gives_zero_costates_in_one_sweep():
    prob = make_model(make_params("lq_volterra"))
    prob = Problem(n=1, m_u=1, m_w=0, kernels=prob.kernels)  # strip the cost
    ctrl = zero_controls(MESH, 1, 0)
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, rep = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    assert rep.converged and rep.iterations == 1
    for block in co.blocks():
        assert not block.any()


def test_assemble_partials_cost_only():
    prob = _tracking_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 0.7
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    AH = assemble_h_partials(
        prob, MESH, state, slots, ctrl, zero_costate(MESH, 1)
    )
    np.testing.assert_allclose(AH["phi"], 2.0 * state.phi, atol=1e-12)
    for slot in ("p", "q", "phi_dot", "p_dot", "q_dot", "w"):
        assert not AH[slot].any()


def test_memoryless_tracking_costate_is_cost_gradient():
    prob = _tracking_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = (np.sin(np.pi * MESH.x) * np.ones((MESH.Nt + 1, 1)))[:, :, None]
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, rep = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    assert rep.converged
    np.testing.assert_allclose(co.psi, 2.0 * state.phi, atol=1e-10)
    for name in ("omega", "psi0", "psiT", "omega0", "omegaT"):
        np.testing.assert_allclose(getattr(co, name), 0.0, atol=1e-10)
    grad = control_gradient(prob, MESH, state, slots, ctrl, co)
    np.testing.assert_allclose(grad.g_u, 2.0 * state.phi, atol=1e-10)


def test_memoryless_gradient_pairing_matches_quadratic_cost():
    prob = _tracking_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 0.5
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, _ = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    grad = control_gradient(prob, MESH, state, slots, ctrl, co)
    rng = np.random.default_rng(0)
    direction = smooth_direction(MESH, "u", 1, rng)
    # J(u) is the quadrature of u^2: the exact directional derivative is
    # the weighted pairing with 2u
    expected = block_pairing(MESH, "u", 2.0 * state.phi, direction)
    got = block_pairing(MESH, "u", grad.g_u, direction)
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def _partials_with(mesh, n=1, **fields):
    from biload.adjoint import _zero_partials

    prob = Problem(n=n, m_u=0, m_w=0, kernels={})
    out = _zero_partials(prob, mesh)
    for name, value in fields.items():
        out[name][:] = value
    return out


def test_apply_theta_identity_term():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((MESH.Nt + 1, MESH.Nx + 1, 1))
    AH = _partials_with(MESH, phi=field)
    np.testing.assert_allclose(apply_theta(MESH, AH).psi, field)


def test_apply_theta_gradient_term_exact_on_linear():
    AH = _partials_with(MESH, p=MESH.x[None, :, None] * np.ones((MESH.Nt + 1, 1, 1)))
    out = apply_theta(MESH, AH).psi
    np.testing.assert_allclose(out, -1.0, atol=1e-12)


def test_apply_theta_mixed_term_exact_on_bilinear():
    AH = _partials_with(
        MESH, q_dot=(MESH.t[:, None] * MESH.x[None, :] ** 2)[:, :, None]
    )
    out = apply_theta(MESH, AH).psi
    # Dt* is exact on linears away from the final end; its last rows hold
    # the endpoint terms of the summation by parts
    np.testing.assert_allclose(out[:-3], -2.0, atol=1e-11)


def test_apply_theta_slice_operators():
    AH = _partials_with(MESH, p0=(MESH.x**2)[:, None], qT=(MESH.x**2)[:, None])
    out = apply_theta(MESH, AH)
    np.testing.assert_allclose(out.psi0[:, 0], -2.0 * MESH.x, atol=1e-11)
    np.testing.assert_allclose(out.psiT, 2.0, atol=1e-11)


@pytest.mark.parametrize("x_nodes, walls", WALL_PAIRS, ids=[W.costate for _, W in WALL_PAIRS])
def test_apply_theta_boundary_normal_contractions(x_nodes, walls):
    AH = _partials_with(MESH, **{walls.slot("p"): 1.0})
    out = getattr(apply_theta(MESH, AH), walls.costate)
    np.testing.assert_allclose(out[..., 0, 0], -1.0)
    np.testing.assert_allclose(out[..., 1, 0], 1.0)


@pytest.mark.parametrize("x_nodes, walls", WALL_PAIRS, ids=[W.costate for _, W in WALL_PAIRS])
def test_apply_theta_boundary_flux_trace(x_nodes, walls):
    # x-node q-partial x^2: the flux carries -Dx(q-partial) = -2x to the walls
    AH = _partials_with(MESH, **{x_nodes.slot("q"): (MESH.x**2)[:, None]})
    out = getattr(apply_theta(MESH, AH), walls.costate)
    np.testing.assert_allclose(out[..., 0, 0], -1.0 * (-(2.0 * MESH.x[0])), atol=1e-11)
    np.testing.assert_allclose(out[..., 1, 0], 1.0 * (-(2.0 * MESH.x[-1])), atol=1e-11)


def test_running_model_phi_partial_structure():
    # for phi = 1 + running integral of phi with tracking cost, the phi
    # partial at a frozen costate is the transposed running integral of
    # psi plus the direct cost gradient
    prob = make_model(make_params("volterra_exp"))
    mesh = build_mesh(1.0, 6, 0.0, 1.0, 6)
    ctrl = zero_controls(mesh, 1, 0)
    state, _ = solve_forward(prob, mesh, ctrl, TIGHT)
    slots = derive_slots(mesh, state)
    rng = np.random.default_rng(8)
    co = zero_costate(mesh, 1)
    co.psi[:] = rng.standard_normal(co.psi.shape)
    AH = assemble_h_partials(prob, mesh, state, slots, ctrl, co)
    args = kernel_args("F1", mesh, (state, slots, ctrl))
    cost_part = prob.cost_F1.partials["phi"](args)
    U = mesh.volterra_upper
    expected = np.einsum("ik,ijn->kjn", U, co.psi) + cost_part
    np.testing.assert_allclose(AH["phi"], expected, atol=1e-12)


def test_costate_matches_dense_oracle_multipliers():
    prob = make_model(make_params("lq_volterra"))
    ctrl = zero_controls(MESH, 1, 0)
    state, _ = solve_forward(prob, MESH, ctrl, _TIGHT)
    res = dto_solve(prob, MESH, state, ctrl)
    slots = derive_slots(MESH, state)
    co, rep = solve_costate(prob, MESH, state, slots, ctrl, SolverConfig(tol=1e-13))
    assert rep.converged
    normalized = res.multipliers.psi / (MESH.wt[:, None, None] * MESH.wx[None, :, None])
    assert np.max(np.abs(co.psi - normalized)) <= 1e-12


def test_costate_linearity_in_cost():
    # doubling the quadratic tracking weight doubles every costate block
    base = make_params("lq_volterra")
    prob1 = make_model(base)
    ctrl = zero_controls(MESH, 1, 0)
    state, _ = solve_forward(prob1, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co1, _ = solve_costate(prob1, MESH, state, slots, ctrl, SolverConfig(tol=1e-13))

    doubled = CostTerm(
        fn=lambda a: 2.0 * prob1.cost_F1.fn(a),
        partials={
            slot: (lambda a, f=f: 2.0 * f(a))
            for slot, f in prob1.cost_F1.partials.items()
        },
    )
    prob2 = Problem(n=1, m_u=1, m_w=0, kernels=prob1.kernels, cost_F1=doubled)
    co2, _ = solve_costate(prob2, MESH, state, slots, ctrl, SolverConfig(tol=1e-13))
    for a, b in zip(co1.blocks(), co2.blocks()):
        np.testing.assert_allclose(2.0 * a, b, atol=1e-10)


def test_biload_activates_every_costate_block():
    prob = make_model(make_params("biload_demo"))
    ctrl = zero_controls(MESH, 1, 1)
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, rep = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    assert rep.converged
    for name in ("psi", "omega", "psi0", "psiT", "omega0", "omegaT"):
        assert np.max(np.abs(getattr(co, name))) > 1e-8, name


def test_control_gradient_zero_without_control_dependence():
    prob = Problem(
        n=1,
        m_u=1,
        m_w=1,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(fn=lambda a: 0.5 * a.phi, partials={"phi": lambda a: 0.5}),
        },
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )
    ctrl = zero_controls(MESH, 1, 1)
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, _ = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    grad = control_gradient(prob, MESH, state, slots, ctrl, co)
    for block in ("u", "w", "u0", "uT", "w0", "wT"):
        assert not grad.block(block).any()


def test_control_only_cost_gradient_is_direct():
    prob = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))},
        cost_F1=CostTerm(
            fn=lambda a: (a.u**2).sum(-1), partials={"u": lambda a: 2.0 * a.u}
        ),
    )
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 1.3
    state, _ = solve_forward(prob, MESH, ctrl, TIGHT)
    slots = derive_slots(MESH, state)
    co, _ = solve_costate(prob, MESH, state, slots, ctrl, TIGHT)
    grad = control_gradient(prob, MESH, state, slots, ctrl, co)
    np.testing.assert_allclose(grad.g_u, 2.0 * ctrl.u, atol=1e-12)


def test_costate_divergence_guard(monkeypatch):
    from biload import forward
    from biload.errors import DivergenceError

    # instantaneous self-coupling with gain 3: the relaxed Picard costate
    # sweep explodes (Anderson would solve this affine map at once)
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: 3.0 * a.phi, partials={"phi": lambda a: 3.0})
        },
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 0)
    with pytest.raises(DivergenceError, match="psi"):
        solve_costate(prob, MESH, state, slots, ctrl, SolverConfig(max_iter=500))


def _translating_costate():
    """Self-coupling with gain one: the costate sweep adds the same cost
    gradient each time, a map with no fixed point whose Anderson history
    has singular Gram matrices.  The arguments of solve_costate before cfg."""
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: a.phi, partials={"phi": lambda a: 1.0})},
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    return prob, MESH, state, derive_slots(MESH, state), zero_controls(MESH, 0, 0)


def test_costate_without_fixed_point_leaves_the_guard_under_anderson():
    from biload.errors import DivergenceError

    with pytest.raises(DivergenceError, match="psi"):
        solve_costate(*_translating_costate(), SolverConfig(max_iter=500, divergence_guard=1.0))


def test_costate_without_fixed_point_reports_non_convergence_under_anderson():
    _, rep = solve_costate(*_translating_costate(), SolverConfig(max_iter=6))
    assert not rep.converged
    assert rep.iterations == 6
    assert rep.residual_history[-1] == rep.residual_history[0] > 0


def test_costate_non_convergence_is_reported(monkeypatch):
    from biload import forward

    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)  # Anderson solves this affine map
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(
                fn=lambda a: 0.999 * a.phi, partials={"phi": lambda a: 0.999}
            )
        },
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 0.5
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 0)
    _, rep = solve_costate(prob, MESH, state, slots, ctrl, SolverConfig(max_iter=4))
    assert not rep.converged
    assert rep.iterations == 4


@pytest.mark.parametrize("name", [*MODEL_NAMES, "full_table"])
def test_costate_sweeps_without_control_partials_keep_every_bit(name):
    # the reference sweeps read the whole partial cache; apply_theta reads no
    # control slot, so dropping those entries keeps every bit
    problem, mesh, state, controls, cfg = _solved(name)
    slots = derive_slots(mesh, state)
    cache = partial_cache(problem, mesh, (state, slots, controls))
    produced = {slot for _, slot in cache}
    old, old_rep = fixed_point(
        lambda co: apply_theta(
            mesh, assemble_h_partials(problem, mesh, state, slots, controls, co, cache), produced
        ),
        zero_costate(mesh, problem.n),
        cfg,
        label="costate ",
    )
    new, new_rep = solve_costate(problem, mesh, state, slots, controls, cfg, cache)
    assert new_rep.converged and new_rep.iterations == old_rep.iterations
    assert all(np.array_equal(a, b) for a, b in zip(new.blocks(), old.blocks()))
    grads = [control_gradient(problem, mesh, state, slots, controls, co, cache) for co in (new, old)]
    for block in CONTROL_BLOCKS:
        assert np.array_equal(grads[0].block(block), grads[1].block(block))
