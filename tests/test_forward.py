import numpy as np
import pytest

from biload import forward
from biload.errors import ConfigError, DivergenceError
from biload.forward import (
    SolverConfig,
    eval_cost,
    residual_flat,
    solve_forward,
    sweep_map,
)
from biload.kernels import CostTerm, Kernel, Problem
from biload.mesh import build_mesh
from biload.models import make_model, make_params
from biload.state import derive_slots, zero_controls, zero_state

MESH = build_mesh(1.0, 8, 0.0, 1.0, 8)
ZERO_PROBLEM = Problem(n=1, m_u=0, m_w=0, kernels={})


def test_zero_problem_converges_immediately():
    ctrl = zero_controls(MESH, 0, 0)
    state, rep = solve_forward(ZERO_PROBLEM, MESH, ctrl)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.final_residual == 0.0
    assert not state.phi.any()


def _one_sweep(problem, ctrl, relax=1.0):
    """One relaxed sweep from the zero bundle: (new state, residual)."""
    new, rep = solve_forward(problem, MESH, ctrl, SolverConfig(max_iter=1, relax=relax))
    assert rep.iterations == 1
    return new, rep.final_residual


def test_picard_step_zero_state_residual_zero():
    ctrl = zero_controls(MESH, 0, 0)
    new, residual = _one_sweep(ZERO_PROBLEM, ctrl)
    assert residual == 0.0
    assert not new.phi.any()


def test_volterra_exp_first_step_by_hand():
    # from the zero bundle one sweep assigns the constant source: phi = 1
    prob = make_model(make_params("volterra_exp"))
    ctrl = zero_controls(MESH, 1, 0)
    new, residual = _one_sweep(prob, ctrl)
    assert residual == 1.0
    np.testing.assert_allclose(new.phi[:, 1:-1, :], 1.0)
    # no boundary kernels: wall columns mirror the zero trace block
    np.testing.assert_allclose(new.phi[:, [0, -1], :], 0.0)


def test_relaxation_averages_iterates():
    prob = make_model(make_params("volterra_exp"))
    ctrl = zero_controls(MESH, 1, 0)
    new, _ = _one_sweep(prob, ctrl, relax=0.25)
    np.testing.assert_allclose(new.phi[:, 1:-1, :], 0.25)


def test_heat_residual_tail_decreases():
    params = make_params("heat")
    prob = make_model(params)
    mesh = build_mesh(5e-4, 32, 0.0, 1.0, 32)
    _, rep = solve_forward(prob, mesh, zero_controls(mesh, 1, 1), SolverConfig(tol=1e-11))
    tail = rep.residual_history[1:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_divergence_guard_raises_with_block_name(monkeypatch):
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)  # Anderson solves this affine map
    grower = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(
                fn=lambda a: 10.0 * a.phi + 1.0, partials={"phi": lambda a: 10.0}
            )
        },
    )
    with pytest.raises(DivergenceError, match="phi"):
        solve_forward(grower, MESH, zero_controls(MESH, 0, 0), SolverConfig(max_iter=500))
    # a guard that is not positive and finite is rejected before any sweep
    for guard in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="divergence_guard"):
            SolverConfig(divergence_guard=guard)


def test_non_convergence_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)  # Anderson solves this affine map
    slow = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(
                fn=lambda a: 0.999 * a.phi + 1.0, partials={"phi": lambda a: 0.999}
            )
        },
    )
    _, rep = solve_forward(slow, MESH, zero_controls(MESH, 0, 0), SolverConfig(max_iter=5))
    assert not rep.converged
    assert rep.iterations == 5
    # a tolerance that could claim convergence at once (inf) or never (nan)
    for tol in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ConfigError, match="tol"):
            SolverConfig(tol=tol)


#: phi <- phi + 1 in the interior: a map with no fixed point, whose residual
#: never changes, so every Anderson Gram matrix is singular.
TRANSLATION = Problem(
    n=1,
    m_u=0,
    m_w=0,
    kernels={"f0": Kernel(fn=lambda a: a.phi + 1.0, partials={"phi": lambda a: 1.0})},
)


def test_map_without_fixed_point_leaves_the_guard_under_anderson():
    cfg = SolverConfig(max_iter=500, divergence_guard=10.0)
    with pytest.raises(DivergenceError, match="block phi exceeded guard 10"):
        solve_forward(TRANSLATION, MESH, zero_controls(MESH, 0, 0), cfg)


def test_map_without_fixed_point_reports_non_convergence_under_anderson():
    cfg = SolverConfig(max_iter=5)
    state, rep = solve_forward(TRANSLATION, MESH, zero_controls(MESH, 0, 0), cfg)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.residual_history == [1.0] * 5
    # a singular history adds nothing: the steps are the Picard steps
    assert np.all(state.phi[:, 1:-1] == 5.0)


def test_solver_config_max_iter_must_be_whole():
    # refused here, not by a TypeError from range() in the first solve
    with pytest.raises(ConfigError, match="max_iter must be a whole number"):
        SolverConfig(max_iter=2.5)


def test_rhs_interior_volterra_constant_plus_memory():
    # f0 = 1 and a running integral of the constant state: 1 + t at t = 0.5
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(fn=lambda a: a.phi, partials={"phi": lambda a: 1.0}),
        },
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 0)
    i_half = MESH.Nt // 2
    image = sweep_map(prob, MESH, state, ctrl, slots)
    assert image.phi[i_half, 3, 0] == pytest.approx(1.5, abs=1e-14)
    # empty running range at the first row
    assert image.phi[0, 3, 0] == pytest.approx(1.0, abs=1e-15)


def test_rhs_interior_at_analytic_fixed_point():
    prob = make_model(make_params("volterra_exp"))
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    state = zero_state(mesh, 1)
    state.phi[:] = np.exp(mesh.t)[:, None, None]
    slots = derive_slots(mesh, state)
    ctrl = zero_controls(mesh, 1, 0)
    image = sweep_map(prob, mesh, state, ctrl, slots)
    for i in (0, 50, 200):
        assert abs(image.phi[i, 2, 0] - np.exp(mesh.t[i])) <= 1e-4


def test_rhs_boundary_fredholm_of_constant_state():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={"g2": Kernel(fn=lambda a: a.phi, partials={"phi": lambda a: 1.0})},
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 0)
    image = sweep_map(prob, MESH, state, ctrl, slots)
    assert image.phi_bd[3, 0, 0] == pytest.approx(1.0, abs=1e-14)


def test_rhs_boundary_control_passthrough():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=1,
        kernels={"g0": Kernel(fn=lambda a: a.w, partials={"w": lambda a: 1.0})},
    )
    state = zero_state(MESH, 1)
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 1)
    ctrl.w[:] = np.sin(MESH.t)[:, None, None]
    image = sweep_map(prob, MESH, state, ctrl, slots)
    for i in (0, 4, 8):
        assert image.phi_bd[i, 1, 0] == pytest.approx(np.sin(MESH.t[i]), abs=1e-15)


def test_rhs_slice_assignment_and_running_final():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f00": Kernel(fn=lambda a: np.sin(np.pi * a.x) * np.ones_like(a.phi0)),
            "fT1": Kernel(fn=lambda a: a.phi, partials={"phi": lambda a: 1.0}),
        },
    )
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    slots = derive_slots(MESH, state)
    ctrl = zero_controls(MESH, 0, 0)
    zero = sweep_map(ZERO_PROBLEM, MESH, state, ctrl, slots)
    for block in (zero.phi0, zero.phiT, zero.phi0_bd, zero.phiT_bd):
        assert block[1, 0] == 0.0
    image = sweep_map(prob, MESH, state, ctrl, slots)
    assert image.phi0[2, 0] == pytest.approx(np.sin(np.pi * MESH.x[2]), abs=1e-14)
    # the final slice integrates the constant trajectory over the horizon
    assert image.phiT[2, 0] == pytest.approx(MESH.T_final, abs=1e-14)


def _const_phi_problem():
    return Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={},
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1), partials={"phi": lambda a: 2.0 * a.phi}
        ),
    )


def test_eval_cost_trapezoid_exact_on_constant():
    prob = _const_phi_problem()
    state = zero_state(MESH, 1)
    state.phi[:] = 1.0
    slots = derive_slots(MESH, state)
    J = eval_cost(prob, MESH, state, slots, zero_controls(MESH, 0, 0))
    assert J == pytest.approx(1.0, abs=1e-14)


def test_eval_cost_zero_integrands():
    state = zero_state(MESH, 1)
    slots = derive_slots(MESH, state)
    assert eval_cost(ZERO_PROBLEM, MESH, state, slots, zero_controls(MESH, 0, 0)) == 0.0


def test_eval_cost_final_slice_quadrature():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={},
        cost_F0=CostTerm(
            fn=lambda a: (a.phiT**2).sum(-1), partials={"phiT": lambda a: 2.0 * a.phiT}
        ),
    )
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 64)
    state = zero_state(mesh, 1)
    state.phiT[:] = np.sin(np.pi * mesh.x)[:, None]
    slots = derive_slots(mesh, state)
    J = eval_cost(prob, mesh, state, slots, zero_controls(mesh, 0, 0))
    assert abs(J - 0.5) <= 5e-4


def test_residual_flat_zero_cases():
    state = zero_state(MESH, 1)
    ctrl = zero_controls(MESH, 0, 0)
    assert not residual_flat(ZERO_PROBLEM, MESH, state, ctrl).any()


def test_residual_flat_at_converged_solution():
    prob = make_model(make_params("lq_volterra"))
    ctrl = zero_controls(MESH, 1, 0)
    cfg = SolverConfig(tol=1e-12)
    state, rep = solve_forward(prob, MESH, ctrl, cfg)
    assert rep.converged
    r = residual_flat(prob, MESH, state, ctrl)
    assert np.max(np.abs(r)) <= cfg.tol / cfg.relax


def test_residual_flat_at_analytic_solution():
    prob = make_model(make_params("volterra_exp"))
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    state = zero_state(mesh, 1)
    state.phi[:] = np.exp(mesh.t)[:, None, None]
    state.phi[:, 0, :] = 0.0
    state.phi[:, -1, :] = 0.0
    ctrl = zero_controls(mesh, 1, 0)
    r = residual_flat(prob, mesh, state, ctrl)
    # quadrature error only on interior columns; wall and trace rows are
    # exactly consistent with the absent boundary kernels
    from biload.state import StateBundle, bundle_of

    defect = bundle_of(StateBundle, r, state.shapes())
    assert np.max(np.abs(defect.phi[:, 1:-1, :])) <= 1e-4


def test_fixed_point_consistency_under_relaxation():
    prob = make_model(make_params("lq_volterra"))
    ctrl = zero_controls(MESH, 1, 0)
    cfg = SolverConfig(tol=1e-11, relax=0.7)
    state, rep = solve_forward(prob, MESH, ctrl, cfg)
    assert rep.converged
    r = residual_flat(prob, MESH, state, ctrl)
    assert np.max(np.abs(r)) <= cfg.tol / cfg.relax


def _causality_pair():
    """Two running kernels that differ only beyond t = 0.5: (base, perturbed)."""
    cut = 0.5

    def f1_base(a):
        return a.phi

    def f1_pert(a):
        return np.where(a.s > cut, a.phi + 5.0 * a.phi, a.phi)

    base = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(fn=f1_base, partials={"phi": lambda a: 1.0}),
        },
    )
    pert = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(
                fn=f1_pert,
                partials={"phi": lambda a: np.where(a.s > cut, 6.0, 1.0)[..., None]},
            ),
        },
    )
    ctrl = zero_controls(MESH, 0, 0)
    cfg = SolverConfig(tol=1e-13, max_iter=200)
    return [solve_forward(p, MESH, ctrl, cfg)[0].phi for p in (base, pert)], MESH.t <= cut, cfg


def test_pure_volterra_causality_is_exact(monkeypatch):
    # perturbing the running kernel beyond a cutoff time leaves earlier
    # rows bitwise unchanged under relaxed Picard, which updates every row
    # from its own past
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)
    (base, pert), rows, _ = _causality_pair()
    assert np.array_equal(base[rows], pert[rows])
    assert np.max(np.abs(base[~rows] - pert[~rows])) > 1e-3


def test_pure_volterra_causality_holds_to_tolerance_under_anderson():
    # Anderson mixes all rows through its coefficients, so earlier rows
    # agree to the solver tolerance rather than bit for bit
    (base, pert), rows, cfg = _causality_pair()
    assert np.max(np.abs(base[rows] - pert[rows])) <= 10 * cfg.tol
    assert np.max(np.abs(base[~rows] - pert[~rows])) > 1e-3


def test_solves_are_bitwise_deterministic():
    prob = make_model(make_params("biload_demo"))
    ctrl = zero_controls(MESH, 1, 1)
    cfg = SolverConfig(tol=1e-12)
    s1, r1 = solve_forward(prob, MESH, ctrl, cfg)
    s2, r2 = solve_forward(prob, MESH, ctrl, cfg)
    for a, b in zip(s1.blocks(), s2.blocks()):
        assert np.array_equal(a, b)
    assert r1.residual_history == r2.residual_history


def test_two_component_rotation_system():
    # phi1 = 1 + int phi2, phi2 = -int phi1 has the circular solution
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def fn(a):
        return np.einsum("cd,...d->...c", A, a.phi)

    prob = Problem(
        n=2,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.array([1.0, 0.0]) + 0.0 * a.phi),
            "f1": Kernel(fn=fn, partials={"phi": lambda a: A}),
        },
    )
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    state, rep = solve_forward(prob, mesh, zero_controls(mesh, 0, 0), SolverConfig(tol=1e-12))
    assert rep.converged
    err1 = np.max(np.abs(state.phi[:, 2, 0] - np.cos(mesh.t)))
    err2 = np.max(np.abs(state.phi[:, 2, 1] + np.sin(mesh.t)))
    assert max(err1, err2) <= 1e-4
